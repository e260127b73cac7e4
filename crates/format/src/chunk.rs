//! The column chunk codec: validity words, an encoding tag, the payload.

use crate::bitvec::BitVec;
use crate::block::{ChunkSummary, ColumnStats};
use crate::column::{Column, ColumnData, Validity};
use crate::encoding::{delta, dict, rle, varint};
use crate::value::{DataType, Value};
use feisu_common::{FeisuError, Result};

/// Per-column encoding tags.
const ENC_RLE: u8 = 0;
pub(crate) const ENC_DELTA: u8 = 1;
const ENC_FLOAT_RAW: u8 = 2;
const ENC_BOOL_PACK: u8 = 3;
const ENC_DICT: u8 = 4;

/// Writes one column chunk body and returns its summary. Utf8 bounds are
/// taken over the dictionary's referenced entries, not over the rows:
/// equal strings are identical, so the bounds are the rows' bounds.
pub(crate) fn encode_column<'a>(c: &'a Column, out: &mut Vec<u8>) -> ChunkSummary<'a> {
    // Validity first (word-aligned bitmap).
    let words = c.validity().words();
    varint::encode(words.len() as u64, out);
    for w in words {
        out.extend_from_slice(&w.to_le_bytes());
    }
    let mut distinct = None;
    match c.data() {
        ColumnData::Int64(v) => {
            // RLE wins when runs are long; delta otherwise.
            let runs = rle::run_count(v);
            if runs * 4 <= v.len().max(1) {
                out.push(ENC_RLE);
                rle::encode(v, runs, out);
            } else {
                out.push(ENC_DELTA);
                delta::encode(v, out);
            }
        }
        ColumnData::Float64(v) => {
            out.push(ENC_FLOAT_RAW);
            varint::encode(v.len() as u64, out);
            for f in v {
                out.extend_from_slice(&f.to_bits().to_le_bytes());
            }
        }
        ColumnData::Bool(v) => {
            // `bitpack`'s width-1 stream: the bitmap's words, cut to bytes.
            out.push(ENC_BOOL_PACK);
            varint::encode(v.len() as u64, out);
            out.push(1);
            let bits = BitVec::from_bools(v.iter().copied());
            let bytes = bits.words().iter().flat_map(|w| w.to_le_bytes());
            out.extend(bytes.take(v.len().div_ceil(8)));
        }
        ColumnData::Utf8(v) => {
            out.push(ENC_DICT);
            // Rows are encoded as bytes; only the entries a valid row
            // holds become `&str`s again.
            let refs: Vec<&[u8]> = v.iter_bytes().collect();
            let (entries, codes) = dict::encode(&refs, out);
            let mut held = vec![false; entries.len()];
            for (r, &code) in codes.iter().enumerate() {
                held[code as usize] |= c.validity().is_valid(r);
            }
            let held = entries.into_iter().zip(held).filter(|&(_, h)| h);
            let utf8 = |e| std::str::from_utf8(e).expect("an entry is a row's whole string");
            distinct = Some(held.map(|(e, _)| utf8(e)).collect::<Vec<_>>());
        }
    }
    let bound = |s: Option<&&str>| s.map(|s| Value::Utf8(s.to_string()));
    let (min, max) = match &distinct {
        Some(entries) => (bound(entries.iter().min()), bound(entries.iter().max())),
        None => c.min_max().unzip(),
    };
    ChunkSummary {
        zone: ColumnStats {
            min,
            max,
            null_count: c.null_count(),
        },
        distinct,
    }
}

/// Decodes one column chunk body of `rows` rows. The whole body is parsed
/// and validated whatever `selection` (one bit per row) says; with `Some`
/// only the selected rows are kept (strings: only their bytes are copied),
/// their validity bits read straight from the body.
pub(crate) fn decode_column(
    dt: DataType,
    rows: usize,
    buf: &[u8],
    pos: &mut usize,
    selection: Option<&BitVec>,
) -> Result<Column> {
    let nwords = varint::decode(buf, pos)? as usize;
    // The writer emits exactly one bit per row. Holding a reader to that
    // bounds `rows` — which sizes every allocation below — by the bytes
    // actually present.
    if nwords != rows.div_ceil(64) {
        return Err(FeisuError::Corrupt(format!(
            "validity bitmap has {nwords} words for {rows} rows"
        )));
    }
    let bitmap = take_bytes(buf, pos, nwords.checked_mul(8), "validity bitmap")?;
    // The writer leaves the bits past the last row (fewer than 64) clear;
    // a set one is damage, which no decode would read, whole or selected.
    if (rows..bitmap.len() * 8).any(|i| bit(bitmap, i)) {
        return Err(FeisuError::Corrupt(format!(
            "validity bitmap has bits set past row {rows}"
        )));
    }
    let enc = *buf
        .get(*pos)
        .ok_or_else(|| FeisuError::Corrupt("missing column encoding tag".into()))?;
    *pos += 1;
    let declares = |len: usize| {
        if len == rows {
            Ok(())
        } else {
            Err(FeisuError::Corrupt(format!(
                "column decoded {len} rows, block declares {rows}"
            )))
        }
    };
    // Integers decode whole and are then gathered; floats, booleans and
    // strings are read straight at the selected rows.
    fn keep<T: Copy>(all: Vec<T>, selection: Option<&BitVec>) -> Vec<T> {
        match selection {
            None => all,
            Some(selection) => selection.map_ones(|i| all[i]),
        }
    }
    fn rows_at<T>(n: usize, selection: Option<&BitVec>, at: impl FnMut(usize) -> T) -> Vec<T> {
        match selection {
            None => (0..n).map(at).collect(),
            Some(selection) => selection.map_ones(at),
        }
    }
    let data = match (dt, enc) {
        (DataType::Int64, ENC_RLE) => {
            ColumnData::Int64(keep(rle::decode(buf, pos, rows)?, selection))
        }
        (DataType::Int64, ENC_DELTA) => {
            let v = delta::decode(buf, pos)?;
            declares(v.len())?;
            ColumnData::Int64(keep(v, selection))
        }
        (DataType::Float64, ENC_FLOAT_RAW) => {
            let n = varint::decode(buf, pos)? as usize;
            let bytes = take_bytes(buf, pos, n.checked_mul(8), "float column")?;
            declares(n)?;
            ColumnData::Float64(rows_at(n, selection, |i| {
                let b = bytes[i * 8..i * 8 + 8].try_into().expect("8-byte slice");
                f64::from_bits(u64::from_le_bytes(b))
            }))
        }
        (DataType::Bool, ENC_BOOL_PACK) => {
            declares(varint::decode(buf, pos)? as usize)?;
            let bits = match take_bytes(buf, pos, Some(1), "bool column width")? {
                [1] => take_bytes(buf, pos, Some(rows.div_ceil(8)), "bool column")?,
                width => return Err(FeisuError::Corrupt(format!("bool width {width:?}"))),
            };
            ColumnData::Bool(rows_at(rows, selection, |i| bit(bits, i)))
        }
        (DataType::Utf8, ENC_DICT) => {
            let view = dict::view(buf, pos)?;
            declares(view.len())?;
            ColumnData::Utf8(view.strings(selection)?)
        }
        (dt, enc) => {
            return Err(FeisuError::Corrupt(format!(
                "encoding tag {enc} invalid for type {dt}"
            )))
        }
    };
    let validity = match selection {
        None => {
            let words = bitmap.chunks_exact(8);
            let words = words.map(|w| u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
            Validity::from_words(words.collect(), rows)?
        }
        Some(selection) if all_set(bitmap, rows) => Validity::new_all_valid(selection.count_ones()),
        Some(selection) => {
            let mut kept = Validity::with_capacity(selection.count_ones());
            selection.for_each_one(|i| kept.push(bit(bitmap, i)));
            kept
        }
    };
    Ok(Column::new(data, validity))
}

/// Bit `i` of a little-endian bitmap (the bytes of its `u64` words).
#[inline]
fn bit(bytes: &[u8], i: usize) -> bool {
    bytes[i / 8] >> (i % 8) & 1 == 1
}

/// Whether bits `0..n` of a little-endian bitmap are all set.
fn all_set(bytes: &[u8], n: usize) -> bool {
    let (full, rest) = (n / 8, n % 8);
    bytes[..full].iter().all(|&b| b == u8::MAX)
        && (rest == 0 || bytes[full] | u8::MAX << rest == u8::MAX)
}

/// The next `len` bytes of `buf` (`None`: the count overflowed), or
/// `Corrupt` naming `what` was cut short.
fn take_bytes<'a>(
    buf: &'a [u8],
    pos: &mut usize,
    len: Option<usize>,
    what: &str,
) -> Result<&'a [u8]> {
    let end = len
        .and_then(|len| pos.checked_add(len))
        .filter(|&end| end <= buf.len())
        .ok_or_else(|| FeisuError::Corrupt(format!("truncated {what}")))?;
    let bytes = &buf[*pos..end];
    *pos = end;
    Ok(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::bitpack;

    /// A Bool column of `rows` rows, every third row NULL when `nulls`.
    fn bools(rows: usize, nulls: bool) -> Column {
        let value = |i: usize| match i % 3 {
            0 if nulls => Value::Null,
            _ => Value::Bool(i % 5 < 2 || i.is_multiple_of(7)),
        };
        let values: Vec<Value> = (0..rows).map(value).collect();
        Column::from_values(DataType::Bool, &values).unwrap()
    }

    /// The chunk body a Bool column had when its payload was
    /// `bitpack::encode` of one `u64` per row at width 1.
    fn bitpacked(c: &Column) -> Vec<u8> {
        let mut out = Vec::new();
        let words = c.validity().words();
        varint::encode(words.len() as u64, &mut out);
        words.iter().for_each(|w| out.extend(w.to_le_bytes()));
        out.push(ENC_BOOL_PACK);
        let ColumnData::Bool(v) = c.data() else {
            unreachable!("a Bool column")
        };
        let bits: Vec<u64> = v.iter().map(|&b| u64::from(b)).collect();
        bitpack::encode(&bits, 1, &mut out);
        out
    }

    #[test]
    fn a_bool_chunk_is_the_width_1_bitpack_stream_and_decodes_back() {
        for rows in [0, 1, 63, 64, 65, 1_000] {
            for nulls in [false, true] {
                let c = bools(rows, nulls);
                let mut body = Vec::new();
                encode_column(&c, &mut body);
                assert_eq!(body, bitpacked(&c), "{rows} rows, NULLs {nulls}");
                let mut pos = 0;
                let back = decode_column(DataType::Bool, rows, &body, &mut pos, None).unwrap();
                assert_eq!((back, pos), (c.clone(), body.len()));
                let some = BitVec::from_bools((0..rows).map(|i| i % 4 == 1));
                let kept = decode_column(DataType::Bool, rows, &body, &mut 0, Some(&some));
                assert_eq!(kept.unwrap(), c.filter(&some).unwrap());
            }
        }
        // Rows 0 and 2 of three set: one validity word, the tag, then
        // count 3, width 1 and the bits 0b101.
        let mut body = Vec::new();
        encode_column(&Column::from_bool(vec![true, false, true]), &mut body);
        assert_eq!(
            body,
            [1, 7, 0, 0, 0, 0, 0, 0, 0, ENC_BOOL_PACK, 3, 1, 0b101]
        );
    }

    #[test]
    fn a_validity_bit_past_the_last_row_is_corrupt_whole_or_selected() {
        for rows in [1usize, 3, 63, 65, 100] {
            let values: Vec<Value> = (0..rows)
                .map(|i| match i % 3 {
                    1 => Value::Null,
                    _ => Value::Int64(i as i64),
                })
                .collect();
            let mut body = Vec::new();
            encode_column(
                &Column::from_values(DataType::Int64, &values).unwrap(),
                &mut body,
            );
            // One varint byte for the word count, then the words: the top
            // bit of the last byte, and the bit of row `rows`.
            let last = 8 * rows.div_ceil(64);
            for (at, tail) in [(last, 0x80), (1 + rows / 8, 1 << (rows % 8))] {
                let mut bad = body.clone();
                bad[at] |= tail;
                let one = BitVec::from_bools((0..rows).map(|i| i == 0));
                for selection in [None, Some(&one)] {
                    let got = decode_column(DataType::Int64, rows, &bad, &mut 0, selection);
                    assert!(
                        matches!(got, Err(FeisuError::Corrupt(_))),
                        "{rows} rows, byte {at}, selected {}: {got:?}",
                        selection.is_some()
                    );
                }
            }
        }
    }

    #[test]
    fn a_bool_chunk_of_another_width_count_or_length_is_corrupt() {
        let c = bools(65, true);
        let mut body = Vec::new();
        encode_column(&c, &mut body);
        // The tag, the count 65 (one varint byte), the width.
        let width_at = body.len() - 65usize.div_ceil(8) - 1;
        assert_eq!(body[width_at - 2..=width_at], [ENC_BOOL_PACK, 65, 1]);
        let corrupt = |body: &[u8], rows: usize| {
            let got = decode_column(DataType::Bool, rows, body, &mut 0, None);
            assert!(matches!(got, Err(FeisuError::Corrupt(_))), "{got:?}");
        };
        for width in [0, 2, 8, 64, 255] {
            let mut bad = body.clone();
            bad[width_at] = width;
            corrupt(&bad, 65);
        }
        // A well-formed width-2 bitpack stream is still not a Bool chunk.
        let mut wide = body[..width_at - 1].to_vec();
        bitpack::encode(&[1; 65], 2, &mut wide);
        corrupt(&wide, 65);
        // Cut short, a count other than the block's rows, no width byte.
        corrupt(&body[..body.len() - 1], 65);
        let mut short = body[..width_at - 1].to_vec();
        varint::encode(64, &mut short);
        short.push(1);
        short.extend_from_slice(&body[width_at + 1..width_at + 9]);
        corrupt(&short, 65);
        corrupt(&body[..width_at], 65);
    }
}
