//! The 0-1 vector underlying SmartIndex.
//!
//! Supports the bitwise algebra the plan rewriter needs (`AND`, `OR`,
//! `NOT` — Fig. 7 computes `!(c2 > 5)` with bit-NOT and combines
//! conjuncts with bit-AND) plus run-length compression for memory
//! efficiency ("Feisu can compress the index to improve memory
//! efficiency", §IV-C-1).

use feisu_common::{FeisuError, Result};

/// A fixed-length bit vector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitVec {
    words: Vec<u64>,
    len: usize,
}

impl BitVec {
    /// All-zeros vector of `len` bits.
    pub fn zeros(len: usize) -> Self {
        BitVec {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// All-ones vector of `len` bits.
    pub fn ones(len: usize) -> Self {
        let mut v = BitVec {
            words: vec![u64::MAX; len.div_ceil(64)],
            len,
        };
        v.mask_tail();
        v
    }

    /// Builds from a bool iterator.
    pub fn from_bools(bools: impl IntoIterator<Item = bool>) -> Self {
        let mut v = BitVec::zeros(0);
        for b in bools {
            v.push(b);
        }
        v
    }

    pub fn push(&mut self, bit: bool) {
        if self.len.is_multiple_of(64) {
            self.words.push(0);
        }
        if bit {
            self.words[self.len / 64] |= 1u64 << (self.len % 64);
        }
        self.len += 1;
    }

    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    pub fn set(&mut self, i: usize, bit: bool) {
        debug_assert!(i < self.len);
        if bit {
            self.words[i / 64] |= 1u64 << (i % 64);
        } else {
            self.words[i / 64] &= !(1u64 << (i % 64));
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Indices of set bits, ascending.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut w = w;
            std::iter::from_fn(move || {
                if w == 0 {
                    None
                } else {
                    let bit = w.trailing_zeros() as usize;
                    w &= w - 1;
                    Some(wi * 64 + bit)
                }
            })
        })
    }

    fn mask_tail(&mut self) {
        if !self.len.is_multiple_of(64) {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << (self.len % 64)) - 1;
            }
        }
    }

    fn check_len(&self, other: &BitVec) -> Result<()> {
        if self.len != other.len {
            return Err(FeisuError::Index(format!(
                "bitvec length mismatch: {} vs {}",
                self.len, other.len
            )));
        }
        Ok(())
    }

    /// `self & other`.
    pub fn and(&self, other: &BitVec) -> Result<BitVec> {
        self.check_len(other)?;
        Ok(BitVec {
            words: self
                .words
                .iter()
                .zip(&other.words)
                .map(|(a, b)| a & b)
                .collect(),
            len: self.len,
        })
    }

    /// `self | other`.
    pub fn or(&self, other: &BitVec) -> Result<BitVec> {
        self.check_len(other)?;
        Ok(BitVec {
            words: self
                .words
                .iter()
                .zip(&other.words)
                .map(|(a, b)| a | b)
                .collect(),
            len: self.len,
        })
    }

    /// `self & !other` — used to subtract null positions after a NOT.
    pub fn and_not(&self, other: &BitVec) -> Result<BitVec> {
        self.check_len(other)?;
        Ok(BitVec {
            words: self
                .words
                .iter()
                .zip(&other.words)
                .map(|(a, b)| a & !b)
                .collect(),
            len: self.len,
        })
    }

    /// `!self` (tail bits stay zero).
    #[allow(clippy::should_implement_trait)]
    pub fn not(&self) -> BitVec {
        let mut v = BitVec {
            words: self.words.iter().map(|w| !w).collect(),
            len: self.len,
        };
        v.mask_tail();
        v
    }

    /// `self &= other`, in place — no allocation per combine, unlike
    /// [`BitVec::and`].
    pub fn and_assign(&mut self, other: &BitVec) -> Result<()> {
        self.check_len(other)?;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
        Ok(())
    }

    /// `self |= other`, in place.
    pub fn or_assign(&mut self, other: &BitVec) -> Result<()> {
        self.check_len(other)?;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
        Ok(())
    }

    /// `self &= !other`, in place.
    pub fn and_not_assign(&mut self, other: &BitVec) -> Result<()> {
        self.check_len(other)?;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
        Ok(())
    }

    /// `self = !self`, in place (tail bits stay zero).
    pub fn not_assign(&mut self) {
        for w in &mut self.words {
            *w = !*w;
        }
        self.mask_tail();
    }

    /// Overwrites the 64-bit word at word index `wi`, keeping the tail
    /// invariant. Lets typed kernels emit 64 selection bits per store.
    #[inline]
    pub fn store_word(&mut self, wi: usize, word: u64) {
        self.words[wi] = word;
        if wi + 1 == self.words.len() && !self.len.is_multiple_of(64) {
            self.words[wi] &= (1u64 << (self.len % 64)) - 1;
        }
    }

    /// Sets bits `start..end`, a word at a time.
    fn set_range(&mut self, start: usize, end: usize) {
        for wi in start / 64..end.div_ceil(64) {
            // First and last bit of the range inside this word; an empty
            // range ending mid-word has `hi < lo` and an empty mask.
            let lo = start.max(wi * 64) % 64;
            let hi = (end.min(wi * 64 + 64) - 1) % 64;
            self.words[wi] |= (u64::MAX >> (63 - hi)) & (u64::MAX << lo);
        }
    }

    /// In-memory footprint in bytes.
    pub fn footprint(&self) -> usize {
        self.words.len() * 8 + std::mem::size_of::<BitVec>()
    }

    /// Raw words (for serialization).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    pub fn from_words(words: Vec<u64>, len: usize) -> Result<BitVec> {
        if words.len() != len.div_ceil(64) {
            return Err(FeisuError::Index("word count does not match length".into()));
        }
        let mut v = BitVec { words, len };
        v.mask_tail();
        Ok(v)
    }
}

/// A BitVec stored in its most compact of two forms: raw words or RLE
/// runs. Dense random bitmaps stay raw; the selective/clustered results
/// typical of log predicates compress heavily.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompressedBits {
    Raw(BitVec),
    /// Run-length encoded: alternating run lengths starting with a
    /// zero-run (possibly of length 0).
    Rle {
        runs: Vec<u32>,
        len: usize,
    },
}

impl CompressedBits {
    /// Compresses, keeping whichever representation is smaller.
    pub fn from_bitvec(bits: &BitVec) -> CompressedBits {
        let raw_bytes = bits.words.len() * 8;
        let mut runs: Vec<u32> = Vec::new();
        // Where the current run started, and the bit before this word.
        let (mut start, mut carry) = (0usize, 0u64);
        for (wi, &word) in bits.words.iter().enumerate() {
            // Set where a bit differs from the one before it (a zero, for
            // the first): there a run starts.
            let mut starts = word ^ (word << 1 | carry);
            if bits.len - wi * 64 < 64 {
                starts &= (1u64 << (bits.len % 64)) - 1;
            }
            carry = word >> 63;
            while starts != 0 {
                let at = wi * 64 + starts.trailing_zeros() as usize;
                runs.push((at - start) as u32);
                start = at;
                starts &= starts - 1;
            }
            // Runs only accumulate: at the raw words' cost, raw has won.
            if runs.len() * 4 >= raw_bytes {
                return CompressedBits::Raw(bits.clone());
            }
        }
        runs.push((bits.len - start) as u32);
        if runs.len() * 4 < raw_bytes {
            CompressedBits::Rle {
                runs,
                len: bits.len,
            }
        } else {
            CompressedBits::Raw(bits.clone())
        }
    }

    /// Decompresses back to a plain bit vector.
    pub fn to_bitvec(&self) -> BitVec {
        match self {
            CompressedBits::Raw(b) => b.clone(),
            CompressedBits::Rle { runs, len } => {
                let mut v = BitVec::zeros(*len);
                let mut pos = 0usize;
                for (i, &run) in runs.iter().enumerate() {
                    let end = pos + run as usize;
                    if i % 2 == 1 {
                        v.set_range(pos, end);
                    }
                    pos = end;
                }
                v
            }
        }
    }

    pub fn len(&self) -> usize {
        match self {
            CompressedBits::Raw(b) => b.len(),
            CompressedBits::Rle { len, .. } => *len,
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate footprint in bytes.
    pub fn footprint(&self) -> usize {
        match self {
            CompressedBits::Raw(b) => b.footprint(),
            CompressedBits::Rle { runs, .. } => runs.len() * 4 + 24,
        }
    }

    /// Count of set bits without materializing (RLE counts odd runs).
    pub fn count_ones(&self) -> usize {
        match self {
            CompressedBits::Raw(b) => b.count_ones(),
            CompressedBits::Rle { runs, .. } => {
                runs.iter().skip(1).step_by(2).map(|&r| r as usize).sum()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_get_set() {
        let mut v = BitVec::zeros(0);
        v.push(true);
        v.push(false);
        v.push(true);
        assert_eq!(v.len(), 3);
        assert!(v.get(0));
        assert!(!v.get(1));
        v.set(1, true);
        assert!(v.get(1));
        assert_eq!(v.count_ones(), 3);
    }

    #[test]
    fn ones_masks_tail() {
        let v = BitVec::ones(70);
        assert_eq!(v.count_ones(), 70);
        assert_eq!(v.not().count_ones(), 0);
    }

    #[test]
    fn algebra_laws() {
        let a = BitVec::from_bools([true, true, false, false, true]);
        let b = BitVec::from_bools([true, false, true, false, false]);
        assert_eq!(
            a.and(&b).unwrap(),
            BitVec::from_bools([true, false, false, false, false].into_iter())
        );
        assert_eq!(
            a.or(&b).unwrap(),
            BitVec::from_bools([true, true, true, false, true].into_iter())
        );
        assert_eq!(
            a.not(),
            BitVec::from_bools([false, false, true, true, false].into_iter())
        );
        assert_eq!(
            a.and_not(&b).unwrap(),
            BitVec::from_bools([false, true, false, false, true].into_iter())
        );
        // De Morgan on bitvecs.
        assert_eq!(a.and(&b).unwrap().not(), a.not().or(&b.not()).unwrap());
    }

    #[test]
    fn length_mismatch_errors() {
        let a = BitVec::zeros(5);
        let b = BitVec::zeros(6);
        assert!(a.and(&b).is_err());
        assert!(a.or(&b).is_err());
        let mut c = BitVec::zeros(5);
        assert!(c.and_assign(&b).is_err());
        assert!(c.or_assign(&b).is_err());
        assert!(c.and_not_assign(&b).is_err());
    }

    #[test]
    fn assign_ops_match_allocating_ops() {
        let a = BitVec::from_bools((0..200).map(|i| i % 3 == 0));
        let b = BitVec::from_bools((0..200).map(|i| i % 5 == 0));
        let mut x = a.clone();
        x.and_assign(&b).unwrap();
        assert_eq!(x, a.and(&b).unwrap());
        let mut x = a.clone();
        x.or_assign(&b).unwrap();
        assert_eq!(x, a.or(&b).unwrap());
        let mut x = a.clone();
        x.and_not_assign(&b).unwrap();
        assert_eq!(x, a.and_not(&b).unwrap());
        let mut x = a.clone();
        x.not_assign();
        assert_eq!(x, a.not());
    }

    #[test]
    fn store_word_masks_tail() {
        let mut v = BitVec::zeros(70);
        v.store_word(0, u64::MAX);
        assert_eq!(v.count_ones(), 64);
        v.store_word(1, u64::MAX);
        // Only 6 bits of the last word are inside the vector.
        assert_eq!(v.count_ones(), 70);
        assert_eq!(v, BitVec::ones(70));
        assert_eq!(v.not().count_ones(), 0);
    }

    #[test]
    fn iter_ones_ascending() {
        let mut v = BitVec::zeros(200);
        for i in [0usize, 63, 64, 65, 130, 199] {
            v.set(i, true);
        }
        let ones: Vec<usize> = v.iter_ones().collect();
        assert_eq!(ones, vec![0, 63, 64, 65, 130, 199]);
    }

    #[test]
    fn double_not_is_identity() {
        let v = BitVec::from_bools((0..100).map(|i| i % 7 == 0));
        assert_eq!(v.not().not(), v);
    }

    #[test]
    fn words_roundtrip() {
        let v = BitVec::from_bools((0..77).map(|i| i % 3 == 0));
        let back = BitVec::from_words(v.words().to_vec(), v.len()).unwrap();
        assert_eq!(back, v);
        assert!(BitVec::from_words(vec![0; 1], 100).is_err());
    }

    #[test]
    fn rle_roundtrip_clustered() {
        // Long runs → RLE chosen and lossless.
        let v = BitVec::from_bools((0..10_000).map(|i| (2000..4000).contains(&i)));
        let c = CompressedBits::from_bitvec(&v);
        assert!(matches!(c, CompressedBits::Rle { .. }));
        assert!(c.footprint() < v.footprint() / 10);
        assert_eq!(c.to_bitvec(), v);
        assert_eq!(c.count_ones(), v.count_ones());
    }

    #[test]
    fn rle_roundtrip_alternating_falls_back_to_raw() {
        let v = BitVec::from_bools((0..1000).map(|i| i % 2 == 0));
        let c = CompressedBits::from_bitvec(&v);
        assert!(matches!(c, CompressedBits::Raw(_)));
        assert_eq!(c.to_bitvec(), v);
    }

    #[test]
    fn rle_all_zeros_and_all_ones() {
        for v in [BitVec::zeros(500), BitVec::ones(500)] {
            let c = CompressedBits::from_bitvec(&v);
            assert_eq!(c.to_bitvec(), v);
            assert_eq!(c.count_ones(), v.count_ones());
        }
    }

    #[test]
    fn empty_bitvec() {
        let v = BitVec::zeros(0);
        let c = CompressedBits::from_bitvec(&v);
        assert_eq!(c.len(), 0);
        assert!(c.is_empty());
        assert_eq!(c.to_bitvec(), v);
    }
}
