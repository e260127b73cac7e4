//! The one row bitmap: a column's validity, a selection of rows to decode
//! or keep, and the 0-1 vector a SmartIndex stores.
//!
//! Bit `i % 64` of word `i / 64` stands for row `i`. The bits past the
//! length in the last word are always zero, so whole words can be counted,
//! or-ed together and hashed. The bitwise algebra the plan rewriter needs
//! (`AND`, `OR`, `NOT` — Fig. 7 computes `!(c2 > 5)` with bit-NOT and
//! combines conjuncts with bit-AND) runs in place, a word at a time.

use feisu_common::{FeisuError, Result};

/// A fixed-length bit vector.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
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

    /// An empty vector with room for `bits` bits.
    pub fn with_capacity(bits: usize) -> Self {
        BitVec {
            words: Vec::with_capacity(bits.div_ceil(64)),
            len: 0,
        }
    }

    /// Builds from a bool iterator.
    pub fn from_bools(bools: impl IntoIterator<Item = bool>) -> Self {
        let bools = bools.into_iter();
        let mut v = BitVec::with_capacity(bools.size_hint().0);
        for b in bools {
            v.push(b);
        }
        v
    }

    #[inline]
    pub fn push(&mut self, bit: bool) {
        if self.len.is_multiple_of(64) {
            self.words.push(0);
        }
        if bit {
            self.words[self.len / 64] |= 1u64 << (self.len % 64);
        }
        self.len += 1;
    }

    /// Grows or cuts to `len` bits, new bits set to `bit`.
    pub fn resize(&mut self, len: usize, bit: bool) {
        let kept = self.len.min(len);
        self.words.resize(len.div_ceil(64), 0);
        self.len = len;
        self.set_range(kept, if bit { len } else { kept });
        self.mask_tail();
    }

    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Stores only when the bit changes: re-setting a set bit is a load.
    #[inline]
    pub fn set(&mut self, i: usize, bit: bool) {
        debug_assert!(i < self.len);
        let (word, mask) = (&mut self.words[i / 64], 1u64 << (i % 64));
        if (*word & mask != 0) != bit {
            *word ^= mask;
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
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + Clone + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut w = w;
            std::iter::from_fn(move || {
                let bit = (w != 0).then(|| wi * 64 + w.trailing_zeros() as usize);
                w &= w.wrapping_sub(1);
                bit
            })
        })
    }

    /// Calls `f` on every set bit, ascending, a word at a time: the loop
    /// [`BitVec::iter_ones`] is, without an iterator's state between calls.
    #[inline]
    pub fn for_each_one(&self, mut f: impl FnMut(usize)) {
        for (wi, &w) in self.words.iter().enumerate() {
            let mut m = w;
            while m != 0 {
                f(wi * 64 + m.trailing_zeros() as usize);
                m &= m - 1;
            }
        }
    }

    /// `at(i)` for every set bit `i`, ascending, into a vector sized once.
    pub fn map_ones<T>(&self, mut at: impl FnMut(usize) -> T) -> Vec<T> {
        let mut out = Vec::with_capacity(self.count_ones());
        self.for_each_one(|i| out.push(at(i)));
        out
    }

    fn mask_tail(&mut self) {
        if !self.len.is_multiple_of(64) {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << (self.len % 64)) - 1;
            }
        }
    }

    /// `Internal` unless this vector has `len` bits: combining or
    /// selecting with a vector of another length is a caller's bug.
    pub fn check_len(&self, len: usize) -> Result<()> {
        if self.len != len {
            return Err(FeisuError::Internal(format!(
                "bitvec length mismatch: {} vs {len}",
                self.len
            )));
        }
        Ok(())
    }

    /// `self &= other`, in place.
    pub fn and_assign(&mut self, other: &BitVec) -> Result<()> {
        other.check_len(self.len)?;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
        Ok(())
    }

    /// `self |= other`, in place.
    pub fn or_assign(&mut self, other: &BitVec) -> Result<()> {
        other.check_len(self.len)?;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
        Ok(())
    }

    /// `self &= !other`, in place — subtracts null positions after a NOT.
    pub fn and_not_assign(&mut self, other: &BitVec) -> Result<()> {
        other.check_len(self.len)?;
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
        if wi + 1 == self.words.len() {
            self.mask_tail();
        }
    }

    /// Sets bits `start..end`, a word at a time.
    pub fn set_range(&mut self, start: usize, end: usize) {
        for wi in start / 64..end.div_ceil(64) {
            // First and last bit of the range inside this word; an empty
            // range ending mid-word has `hi < lo` and an empty mask.
            let lo = start.max(wi * 64) % 64;
            let hi = (end.min(wi * 64 + 64) - 1) % 64;
            self.words[wi] |= (u64::MAX >> (63 - hi)) & (u64::MAX << lo);
        }
    }

    /// Appends `other`'s bits a word at a time, shifted into place when
    /// this vector does not end on a word boundary. The tail bits are zero
    /// in both, so whole words can be or-ed in.
    pub fn append(&mut self, other: &BitVec) {
        let (shift, words) = (self.len % 64, (self.len + other.len).div_ceil(64));
        if shift == 0 {
            self.words.extend_from_slice(&other.words);
        } else {
            for &w in &other.words {
                let last = self.words.len() - 1;
                self.words[last] |= w << shift;
                if self.words.len() < words {
                    self.words.push(w >> (64 - shift));
                }
            }
        }
        self.len += other.len;
    }

    /// Moves bits `at..` into a new vector, leaving bits `..at`, a word at
    /// a time: the cost follows the bits moved, not the bits kept.
    pub fn split_off(&mut self, at: usize) -> BitVec {
        assert!(at <= self.len, "split_off past the end");
        let (first, shift) = (at / 64, at % 64);
        let mut words: Vec<u64> = match shift {
            0 => self.words[first..].to_vec(),
            // Word `wi` of the tail is the high bits of one word and the
            // low bits of the next (zero past the end).
            _ => (first..self.words.len())
                .map(|wi| {
                    let next = self.words.get(wi + 1).map_or(0, |w| w << (64 - shift));
                    self.words[wi] >> shift | next
                })
                .collect(),
        };
        let tail_len = self.len - at;
        words.truncate(tail_len.div_ceil(64));
        self.words.truncate(at.div_ceil(64));
        self.len = at;
        self.mask_tail();
        BitVec {
            words,
            len: tail_len,
        }
    }

    /// Drops spare capacity, for a vector kept long after it was built.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.words.shrink_to_fit();
    }

    /// In-memory footprint in bytes.
    pub fn footprint(&self) -> usize {
        self.words.len() * 8 + std::mem::size_of::<BitVec>()
    }

    /// The words, one per 64 bits, the tail bits zero (for serialization).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// The vector of `len` bits `words` holds, bits past `len` cleared;
    /// `Corrupt` unless there is exactly one word per 64 bits.
    pub fn from_words(words: Vec<u64>, len: usize) -> Result<BitVec> {
        if words.len() != len.div_ceil(64) {
            return Err(FeisuError::Corrupt(format!(
                "{} bitmap words for {len} bits",
                words.len()
            )));
        }
        let mut v = BitVec { words, len };
        v.mask_tail();
        Ok(v)
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
        let mut v = BitVec::ones(70);
        assert_eq!(v.count_ones(), 70);
        v.not_assign();
        assert_eq!(v.count_ones(), 0);
    }

    #[test]
    fn algebra_laws() {
        let a = BitVec::from_bools([true, true, false, false, true]);
        let b = BitVec::from_bools([true, false, true, false, false]);
        let op = |f: fn(&mut BitVec, &BitVec) -> Result<()>| {
            let mut x = a.clone();
            f(&mut x, &b).unwrap();
            x
        };
        let and = op(BitVec::and_assign);
        assert_eq!(and, BitVec::from_bools([true, false, false, false, false]));
        let or = op(BitVec::or_assign);
        assert_eq!(or, BitVec::from_bools([true, true, true, false, true]));
        let and_not = op(BitVec::and_not_assign);
        assert_eq!(
            and_not,
            BitVec::from_bools([false, true, false, false, true])
        );
        let mut not_a = a.clone();
        not_a.not_assign();
        assert_eq!(not_a, BitVec::from_bools([false, false, true, true, false]));
        // De Morgan on bitvecs: !(a & b) == !a | !b.
        let (mut lhs, mut not_b) = (and, b.clone());
        lhs.not_assign();
        not_b.not_assign();
        not_a.or_assign(&not_b).unwrap();
        assert_eq!(lhs, not_a);
    }

    #[test]
    fn length_mismatch_errors() {
        let b = BitVec::zeros(6);
        let mut c = BitVec::zeros(5);
        assert!(matches!(c.and_assign(&b), Err(FeisuError::Internal(_))));
        assert!(c.or_assign(&b).is_err());
        assert!(c.and_not_assign(&b).is_err());
        assert!(c.check_len(6).is_err() && c.check_len(5).is_ok());
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
        v.not_assign();
        assert_eq!(v.count_ones(), 0);
    }

    #[test]
    fn iter_ones_ascending() {
        let mut v = BitVec::zeros(200);
        for i in [0usize, 63, 64, 65, 130, 199] {
            v.set(i, true);
        }
        let ones: Vec<usize> = v.iter_ones().collect();
        assert_eq!(ones, vec![0, 63, 64, 65, 130, 199]);
        let mut each = Vec::new();
        v.for_each_one(|i| each.push(i));
        assert_eq!(each, ones);
        assert_eq!(v.map_ones(|i| i), ones);
    }

    #[test]
    fn double_not_is_identity() {
        let v = BitVec::from_bools((0..100).map(|i| i % 7 == 0));
        let mut x = v.clone();
        x.not_assign();
        x.not_assign();
        assert_eq!(x, v);
    }

    #[test]
    fn words_roundtrip() {
        let v = BitVec::from_bools((0..77).map(|i| i % 3 == 0));
        let back = BitVec::from_words(v.words().to_vec(), v.len()).unwrap();
        assert_eq!(back, v);
        assert!(BitVec::from_words(vec![0; 1], 100).is_err());
    }
}
