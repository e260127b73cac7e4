//! A SmartIndex's 0-1 vector at rest: the format's [`BitVec`] run-length
//! compressed for memory efficiency ("Feisu can compress the index to
//! improve memory efficiency", §IV-C-1).

use feisu_format::BitVec;

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
        let (words, len) = (bits.words(), bits.len());
        let raw_bytes = words.len() * 8;
        let mut runs: Vec<u32> = Vec::new();
        // Where the current run started, and the bit before this word.
        let (mut start, mut carry) = (0usize, 0u64);
        for (wi, &word) in words.iter().enumerate() {
            // Set where a bit differs from the one before it (a zero, for
            // the first): there a run starts.
            let mut starts = word ^ (word << 1 | carry);
            if len - wi * 64 < 64 {
                starts &= (1u64 << (len % 64)) - 1;
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
        runs.push((len - start) as u32);
        if runs.len() * 4 < raw_bytes {
            CompressedBits::Rle { runs, len }
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
