//! Lightweight, compression-friendly column encodings (paper §III-A).
//!
//! Feisu's block writer picks one of these per column chunk based on the
//! data's shape; all of them are implemented from scratch:
//!
//! * [`varint`] — LEB128 variable-length unsigned integers, the base layer
//!   every other codec writes its lengths and values with;
//! * [`zigzag`] — signed→unsigned mapping so small negatives stay small;
//! * [`delta`] — delta + zigzag + varint for sorted/clustered integers
//!   (timestamps, ids);
//! * [`rle`] — run-length encoding for low-cardinality or constant runs;
//! * [`bitpack`] — fixed-width bit packing for small-domain integers;
//! * [`dict`] — dictionary encoding for repetitive strings (URLs, query
//!   keywords).

use feisu_common::{FeisuError, Result};

/// LEB128 unsigned varints.
pub mod varint {
    use super::*;

    /// Appends `v` to `out` in LEB128.
    pub fn encode(mut v: u64, out: &mut Vec<u8>) {
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                out.push(byte);
                return;
            }
            out.push(byte | 0x80);
        }
    }

    /// Decodes one varint from `buf[*pos..]`, advancing `pos`.
    pub fn decode(buf: &[u8], pos: &mut usize) -> Result<u64> {
        let mut result: u64 = 0;
        let mut shift = 0u32;
        loop {
            let byte = *buf
                .get(*pos)
                .ok_or_else(|| FeisuError::Corrupt("varint: unexpected end of buffer".into()))?;
            *pos += 1;
            if shift >= 64 {
                return Err(FeisuError::Corrupt("varint: overflow (>10 bytes)".into()));
            }
            result |= ((byte & 0x7f) as u64) << shift;
            if byte & 0x80 == 0 {
                return Ok(result);
            }
            shift += 7;
        }
    }
}

/// Zigzag mapping for signed integers.
pub mod zigzag {
    #[inline]
    pub fn encode(v: i64) -> u64 {
        ((v << 1) ^ (v >> 63)) as u64
    }

    #[inline]
    pub fn decode(v: u64) -> i64 {
        ((v >> 1) as i64) ^ -((v & 1) as i64)
    }
}

/// Delta + zigzag + varint codec for i64 sequences.
pub mod delta {
    use super::*;

    /// Encodes the sequence as first value + zigzag deltas.
    pub fn encode(values: &[i64], out: &mut Vec<u8>) {
        varint::encode(values.len() as u64, out);
        let mut prev = 0i64;
        for &v in values {
            varint::encode(zigzag::encode(v.wrapping_sub(prev)), out);
            prev = v;
        }
    }

    pub fn decode(buf: &[u8], pos: &mut usize) -> Result<Vec<i64>> {
        let n = varint::decode(buf, pos)? as usize;
        // Each value takes at least 1 byte; a length beyond the remaining
        // buffer is corruption, not an allocation request.
        if n > buf.len().saturating_sub(*pos) {
            return Err(FeisuError::Corrupt("delta: implausible length".into()));
        }
        let mut values = Vec::with_capacity(n);
        let (mut prev, mut at) = (0i64, *pos);
        for _ in 0..n {
            // Most deltas fit one byte: read it inline; the rest, and every
            // truncated or over-long varint, go through `varint::decode`.
            let z = match buf.get(at) {
                Some(&b) if b < 0x80 => {
                    at += 1;
                    u64::from(b)
                }
                _ => {
                    let z = varint::decode(buf, &mut at);
                    *pos = at;
                    z?
                }
            };
            prev = prev.wrapping_add(zigzag::decode(z));
            values.push(prev);
        }
        *pos = at;
        Ok(values)
    }
}

/// Run-length encoding over i64 values.
pub mod rle {
    use super::*;

    /// Encodes as a list of (run-length, value) pairs; `runs` is
    /// [`run_count`] of `values`, which the caller has already counted to
    /// choose this codec.
    pub fn encode(values: &[i64], runs: usize, out: &mut Vec<u8>) {
        varint::encode(values.len() as u64, out);
        // The run count first, so the decoder can preallocate.
        varint::encode(runs as u64, out);
        let (mut i, mut written) = (0, 0);
        while i < values.len() {
            let mut j = i + 1;
            while j < values.len() && values[j] == values[i] {
                j += 1;
            }
            varint::encode((j - i) as u64, out);
            varint::encode(zigzag::encode(values[i]), out);
            (i, written) = (j, written + 1);
        }
        assert_eq!(written, runs, "rle: the header declared another run count");
    }

    /// Decodes a stream that must hold exactly `expect` values. A run costs
    /// two bytes whatever its length, so unlike the other codecs the input
    /// size does not bound the output: the caller's own row count does,
    /// before anything is allocated.
    pub fn decode(buf: &[u8], pos: &mut usize, expect: usize) -> Result<Vec<i64>> {
        let total = varint::decode(buf, pos)?;
        if total != expect as u64 {
            return Err(FeisuError::Corrupt(format!(
                "rle: stream declares {total} values, expected {expect}"
            )));
        }
        let runs = varint::decode(buf, pos)?;
        let mut values = Vec::with_capacity(expect);
        for _ in 0..runs {
            let len = varint::decode(buf, pos)?;
            let v = zigzag::decode(varint::decode(buf, pos)?);
            // `len` is the stream's word: compare in u64, against what is
            // left, so no sum can wrap.
            if len > (expect - values.len()) as u64 {
                return Err(FeisuError::Corrupt(
                    "rle: runs exceed declared total".into(),
                ));
            }
            values.extend(std::iter::repeat_n(v, len as usize));
        }
        if values.len() != expect {
            return Err(FeisuError::Corrupt(format!(
                "rle: decoded {} values, expected {expect}",
                values.len()
            )));
        }
        Ok(values)
    }

    /// Number of runs; the writer uses this to decide whether RLE pays off.
    pub fn run_count(values: &[i64]) -> usize {
        let mut runs = 0;
        let mut i = 0;
        while i < values.len() {
            let mut j = i + 1;
            while j < values.len() && values[j] == values[i] {
                j += 1;
            }
            runs += 1;
            i = j;
        }
        runs
    }
}

/// Fixed-width bit packing for unsigned integers.
pub mod bitpack {
    use super::*;

    /// Minimum bits needed to represent `v`.
    pub fn bits_needed(v: u64) -> u32 {
        64 - v.leading_zeros().min(63)
    }

    /// Packs `values` using `width` bits each (width must fit all values).
    pub fn encode(values: &[u64], width: u32, out: &mut Vec<u8>) {
        debug_assert!((1..=64).contains(&width));
        varint::encode(values.len() as u64, out);
        out.push(width as u8);
        let mut acc: u128 = 0;
        let mut acc_bits: u32 = 0;
        for &v in values {
            debug_assert!(width == 64 || v < (1u64 << width));
            acc |= (v as u128) << acc_bits;
            acc_bits += width;
            while acc_bits >= 8 {
                out.push((acc & 0xff) as u8);
                acc >>= 8;
                acc_bits -= 8;
            }
        }
        if acc_bits > 0 {
            out.push((acc & 0xff) as u8);
        }
    }

    pub fn decode(buf: &[u8], pos: &mut usize) -> Result<Vec<u64>> {
        let n = varint::decode(buf, pos)? as usize;
        let width = *buf
            .get(*pos)
            .ok_or_else(|| FeisuError::Corrupt("bitpack: missing width".into()))?
            as u32;
        *pos += 1;
        if width == 0 || width > 64 {
            return Err(FeisuError::Corrupt(format!("bitpack: bad width {width}")));
        }
        // Bounded by the bytes present before anything is allocated; the
        // count is the stream's word, so the product is checked.
        let fits = (n as u64)
            .checked_mul(width as u64)
            .is_some_and(|bits| bits.div_ceil(8) <= (buf.len() - *pos) as u64);
        if !fits {
            return Err(FeisuError::Corrupt("bitpack: truncated payload".into()));
        }
        let mut values = Vec::with_capacity(n);
        let mut acc: u128 = 0;
        let mut acc_bits: u32 = 0;
        let mask: u128 = if width == 64 {
            u64::MAX as u128
        } else {
            (1u128 << width) - 1
        };
        for _ in 0..n {
            while acc_bits < width {
                acc |= (buf[*pos] as u128) << acc_bits;
                *pos += 1;
                acc_bits += 8;
            }
            values.push((acc & mask) as u64);
            acc >>= width;
            acc_bits -= width;
        }
        Ok(values)
    }
}

/// Dictionary encoding for strings.
pub mod dict {
    use super::*;
    use crate::bitvec::BitVec;
    use crate::strings::Utf8Vec;
    use feisu_common::hash::FxHashMap;

    /// Encodes strings (as `&str` or their bytes) as a deduplicated
    /// dictionary plus bit-packed codes, and returns both: the entries in
    /// first-use order and each value's code into them.
    pub fn encode<'a, S>(values: &[&'a S], out: &mut Vec<u8>) -> (Vec<&'a S>, Vec<u64>)
    where
        S: AsRef<[u8]> + Eq + std::hash::Hash + ?Sized,
    {
        let mut dict: Vec<&S> = Vec::new();
        let mut lookup: FxHashMap<&S, u64> = FxHashMap::default();
        let mut codes: Vec<u64> = Vec::with_capacity(values.len());
        for &s in values {
            let code = *lookup.entry(s).or_insert_with(|| {
                dict.push(s);
                (dict.len() - 1) as u64
            });
            codes.push(code);
        }
        varint::encode(dict.len() as u64, out);
        for s in dict.iter().map(|s| s.as_ref()) {
            varint::encode(s.len() as u64, out);
            out.extend_from_slice(s);
        }
        if codes.is_empty() {
            // Match bitpack's framing: zero count, then a width byte.
            varint::encode(0, out);
            out.push(1);
        } else {
            let width = bitpack::bits_needed(dict.len().saturating_sub(1) as u64).max(1);
            bitpack::encode(&codes, width, out);
        }
        (dict, codes)
    }

    /// A decoded dictionary chunk that still borrows its strings from the
    /// encoded bytes: every entry checked as UTF-8 once, every code checked
    /// against the dictionary, no `String` made. The caller materializes
    /// the rows it wants.
    pub struct DictView<'a> {
        entries: Vec<&'a str>,
        codes: Vec<u64>,
    }

    impl<'a> DictView<'a> {
        /// Rows in the chunk.
        pub fn len(&self) -> usize {
            self.codes.len()
        }

        pub fn is_empty(&self) -> bool {
            self.codes.is_empty()
        }

        /// The string of row `i`.
        #[inline]
        pub fn get(&self, i: usize) -> &'a str {
            self.entries[self.codes[i] as usize]
        }

        /// The strings of the rows `selection` picks (`None`: every row),
        /// copied into one presized buffer.
        pub fn strings(&self, selection: Option<&BitVec>) -> Result<Utf8Vec> {
            let at = |i| self.get(i).as_bytes();
            match selection {
                None => Utf8Vec::gather(0..self.len(), at),
                Some(selection) => Utf8Vec::gather(selection.iter_ones(), at),
            }
        }
    }

    /// Reads a dictionary chunk at `buf[*pos..]`, advancing `pos`. The
    /// entries are checked as UTF-8 in one pass over the region they span
    /// (their length varints between them), each entry's edges at char
    /// boundaries; a region that is not UTF-8 as a whole — a long entry's
    /// length varint is not — or a malformed entry falls back to checking
    /// entry by entry, which finds the same entries or the same error.
    pub fn view<'a>(buf: &'a [u8], pos: &mut usize) -> Result<DictView<'a>> {
        let start = *pos;
        let entries = match entries_in_one_pass(buf, pos) {
            Some(entries) => entries,
            None => {
                *pos = start;
                entries_one_by_one(buf, pos)?
            }
        };
        let codes = bitpack::decode(buf, pos)?;
        if codes.iter().any(|&code| code >= entries.len() as u64) {
            return Err(FeisuError::Corrupt("dict: code out of range".into()));
        }
        Ok(DictView { entries, codes })
    }

    /// The dictionary's entries, each length parsed first and the region
    /// they span validated once; `None` where that does not settle them.
    fn entries_in_one_pass<'a>(buf: &'a [u8], pos: &mut usize) -> Option<Vec<&'a str>> {
        let dict_len = varint::decode(buf, pos).ok()? as usize;
        let mut spans = Vec::with_capacity(dict_len.min(buf.len().saturating_sub(*pos)));
        let first = *pos;
        for _ in 0..dict_len {
            let len = varint::decode(buf, pos).ok()? as usize;
            let end = pos.checked_add(len).filter(|&end| end <= buf.len())?;
            spans.push((*pos - first, end - first));
            *pos = end;
        }
        let region = std::str::from_utf8(&buf[first..*pos]).ok()?;
        let edges = spans.iter().flat_map(|&(start, end)| [start, end]);
        if !edges.into_iter().all(|at| region.is_char_boundary(at)) {
            return None;
        }
        Some(
            spans
                .into_iter()
                .map(|(start, end)| &region[start..end])
                .collect(),
        )
    }

    /// The dictionary's entries, each checked as UTF-8 on its own: what
    /// [`view`] falls back to, and the one that names the first malformed
    /// entry's error.
    fn entries_one_by_one<'a>(buf: &'a [u8], pos: &mut usize) -> Result<Vec<&'a str>> {
        let dict_len = varint::decode(buf, pos)? as usize;
        // Each entry costs at least its length byte.
        let mut entries = Vec::with_capacity(dict_len.min(buf.len().saturating_sub(*pos)));
        for _ in 0..dict_len {
            let len = varint::decode(buf, pos)? as usize;
            let end = pos
                .checked_add(len)
                .filter(|&end| end <= buf.len())
                .ok_or_else(|| FeisuError::Corrupt("dict: truncated string".into()))?;
            entries.push(
                std::str::from_utf8(&buf[*pos..end])
                    .map_err(|_| FeisuError::Corrupt("dict: invalid utf8".into()))?,
            );
            *pos = end;
        }
        Ok(entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Utf8Vec;

    #[test]
    fn varint_roundtrip_edge_values() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            varint::encode(v, &mut buf);
            let mut pos = 0;
            assert_eq!(varint::decode(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn varint_truncated_errors() {
        let mut buf = Vec::new();
        varint::encode(u64::MAX, &mut buf);
        buf.truncate(buf.len() - 1);
        let mut pos = 0;
        assert!(varint::decode(&buf, &mut pos).is_err());
    }

    #[test]
    fn zigzag_maps_small_negatives_small() {
        assert_eq!(zigzag::encode(0), 0);
        assert_eq!(zigzag::encode(-1), 1);
        assert_eq!(zigzag::encode(1), 2);
        assert_eq!(zigzag::encode(-2), 3);
        for v in [-5i64, 0, 7, i64::MIN, i64::MAX] {
            assert_eq!(zigzag::decode(zigzag::encode(v)), v);
        }
    }

    #[test]
    fn delta_roundtrip_sorted_and_random() {
        let sorted: Vec<i64> = (0..1000).map(|i| i * 3 + 100).collect();
        let mut buf = Vec::new();
        delta::encode(&sorted, &mut buf);
        // Sorted data should compress far below 8 bytes/value.
        assert!(buf.len() < sorted.len() * 2 + 16);
        let mut pos = 0;
        assert_eq!(delta::decode(&buf, &mut pos).unwrap(), sorted);

        let random = vec![i64::MIN, i64::MAX, 0, -17, 42];
        let mut buf = Vec::new();
        delta::encode(&random, &mut buf);
        let mut pos = 0;
        assert_eq!(delta::decode(&buf, &mut pos).unwrap(), random);
    }

    /// `delta::decode` before its one-byte fast path: every varint through
    /// `varint::decode`.
    fn delta_decode_reference(buf: &[u8], pos: &mut usize) -> Result<Vec<i64>> {
        let n = varint::decode(buf, pos)? as usize;
        if n > buf.len().saturating_sub(*pos) {
            return Err(FeisuError::Corrupt("delta: implausible length".into()));
        }
        let mut values = Vec::with_capacity(n);
        let mut prev = 0i64;
        for _ in 0..n {
            let d = zigzag::decode(varint::decode(buf, pos)?);
            prev = prev.wrapping_add(d);
            values.push(prev);
        }
        Ok(values)
    }

    proptest::proptest! {
        /// The fast path decodes what the reference decodes — values, end
        /// position and error — from every prefix of a stream of one-byte
        /// and wide deltas, with random bytes or an over-long varint
        /// spliced in; every cut short of the whole stream is `Corrupt`.
        #[test]
        fn delta_fast_path_matches_reference(
            deltas in proptest::collection::vec(
                proptest::prop_oneof![-64i64..64, proptest::arbitrary::any::<i64>()],
                0..40,
            ),
            splice in 0..3u8,
            at in proptest::arbitrary::any::<usize>(),
            noise in proptest::collection::vec(proptest::arbitrary::any::<u8>(), 1..12),
        ) {
            let values: Vec<i64> = (deltas.iter())
                .scan(0i64, |v, d| {
                    *v = v.wrapping_add(*d);
                    Some(*v)
                })
                .collect();
            let mut buf = Vec::new();
            delta::encode(&values, &mut buf);
            let at = at % (buf.len() + 1);
            match splice {
                0 => {}
                1 => drop(buf.splice(at..at, noise)),
                _ => drop(buf.splice(at..at, [0x80; 10].into_iter().chain([0x01]))),
            }
            for len in 0..=buf.len() {
                let (mut got_pos, mut want_pos) = (0, 0);
                let got = delta::decode(&buf[..len], &mut got_pos);
                let want = delta_decode_reference(&buf[..len], &mut want_pos);
                proptest::prop_assert_eq!(format!("{got:?}"), format!("{want:?}"), "len {}", len);
                proptest::prop_assert_eq!(got_pos, want_pos, "len {}", len);
                if splice == 0 && len < buf.len() {
                    proptest::prop_assert!(matches!(got, Err(FeisuError::Corrupt(_))));
                }
                if splice == 0 && len == buf.len() {
                    proptest::prop_assert_eq!(got.ok(), Some(values.clone()));
                }
            }
        }
    }

    #[test]
    fn rle_roundtrip_and_run_count() {
        let values = vec![7i64, 7, 7, 1, 1, 9, 9, 9, 9];
        assert_eq!(rle::run_count(&values), 3);
        let mut buf = Vec::new();
        rle::encode(&values, rle::run_count(&values), &mut buf);
        let mut pos = 0;
        assert_eq!(rle::decode(&buf, &mut pos, values.len()).unwrap(), values);
    }

    #[test]
    fn rle_empty() {
        let mut buf = Vec::new();
        rle::encode(&[], 0, &mut buf);
        let mut pos = 0;
        assert_eq!(rle::decode(&buf, &mut pos, 0).unwrap(), Vec::<i64>::new());
    }

    #[test]
    fn rle_run_length_that_wraps_the_running_sum_is_corrupt() {
        // total 10, two runs: (3, 0) then (u64::MAX, 0). 3 + u64::MAX wraps
        // to 2, which passed the old `> total` check.
        let mut buf = Vec::new();
        for v in [10, 2, 3, 0, u64::MAX, 0] {
            varint::encode(v, &mut buf);
        }
        let got = rle::decode(&buf, &mut 0, 10);
        assert!(matches!(got, Err(FeisuError::Corrupt(_))), "got {got:?}");
        // A total the caller does not expect is refused before allocating.
        let mut buf = Vec::new();
        for v in [u64::MAX, 1, u64::MAX, 0] {
            varint::encode(v, &mut buf);
        }
        let got = rle::decode(&buf, &mut 0, 10);
        assert!(matches!(got, Err(FeisuError::Corrupt(_))), "got {got:?}");
    }

    #[test]
    fn bitpack_count_whose_bit_size_wraps_is_corrupt() {
        // n = 2^61 at width 8 is 2^64 bits: the unchecked product was 0
        // "needed" bytes and `Vec::with_capacity(2^61)` ran.
        let mut buf = Vec::new();
        varint::encode(1 << 61, &mut buf);
        buf.push(8);
        let got = bitpack::decode(&buf, &mut 0);
        assert!(matches!(got, Err(FeisuError::Corrupt(_))), "got {got:?}");
    }

    #[test]
    fn rle_compresses_constant_column() {
        let values = vec![5i64; 10_000];
        let mut buf = Vec::new();
        rle::encode(&values, rle::run_count(&values), &mut buf);
        assert!(
            buf.len() < 16,
            "constant column should encode tiny: {}",
            buf.len()
        );
    }

    #[test]
    fn bitpack_roundtrip_various_widths() {
        for width in [1u32, 3, 7, 8, 13, 32, 64] {
            let max = if width == 64 {
                u64::MAX
            } else {
                (1 << width) - 1
            };
            let values: Vec<u64> = (0..257)
                .map(|i| (i * 2654435761u64) % (max.max(1)))
                .collect();
            let mut buf = Vec::new();
            bitpack::encode(&values, width, &mut buf);
            let mut pos = 0;
            assert_eq!(
                bitpack::decode(&buf, &mut pos).unwrap(),
                values,
                "width {width}"
            );
        }
    }

    #[test]
    fn bitpack_bits_needed() {
        assert_eq!(bitpack::bits_needed(0), 1);
        assert_eq!(bitpack::bits_needed(1), 1);
        assert_eq!(bitpack::bits_needed(2), 2);
        assert_eq!(bitpack::bits_needed(255), 8);
        assert_eq!(bitpack::bits_needed(256), 9);
    }

    #[test]
    fn bitpack_rejects_truncation() {
        let mut buf = Vec::new();
        bitpack::encode(&[1, 2, 3, 4, 5], 3, &mut buf);
        buf.truncate(buf.len() - 1);
        let mut pos = 0;
        assert!(bitpack::decode(&buf, &mut pos).is_err());
    }

    #[test]
    fn dict_roundtrip_and_dedup() {
        let values = ["url_a", "url_b", "url_a", "url_a", "url_c", "url_b"];
        let mut buf = Vec::new();
        dict::encode(&values, &mut buf);
        let mut pos = 0;
        let decoded = dict::view(&buf, &mut pos).unwrap().strings(None).unwrap();
        assert_eq!(decoded, Utf8Vec::from_strs(values).unwrap());
        // Dictionary stores each distinct string once: encoding 6 strings
        // with 3 distinct values must be smaller than raw concatenation.
        let raw: usize = values.iter().map(|s| s.len() + 1).sum();
        assert!(buf.len() < raw);
    }

    #[test]
    fn dict_empty() {
        let mut buf = Vec::new();
        dict::encode::<str>(&[], &mut buf);
        let mut pos = 0;
        let view = dict::view(&buf, &mut pos).unwrap();
        assert_eq!(view.strings(None).unwrap(), Utf8Vec::new());
    }

    #[test]
    fn dict_rejects_bad_code() {
        // Hand-craft: dictionary of 1 entry, then codes referencing entry 5.
        let mut buf = Vec::new();
        varint::encode(1, &mut buf); // dict len
        varint::encode(1, &mut buf); // strlen
        buf.push(b'x');
        bitpack::encode(&[5], 3, &mut buf);
        let mut pos = 0;
        assert!(dict::view(&buf, &mut pos).is_err());
    }
}
