//! Strings without a heap object per value.
//!
//! [`Utf8Vec`] is the payload of a `Utf8` column: every row's bytes back to
//! back in one buffer, and one `u32` offset per row boundary. A gather,
//! a concatenation or a decode costs two allocations, whatever the row
//! count (an empty vector none); hashing and comparing read the bytes in
//! place.

use crate::bitvec::BitVec;
use feisu_common::{FeisuError, Result};
use std::fmt;

/// Rows of strings: row `i` is `bytes[ends[i - 1]..ends[i]]`, where the
/// offsets start at 0 (row 0 begins at byte 0) and `ends` holds one end
/// per row. Growing past `u32::MAX` bytes is an error, never a wrap. Only
/// whole strings are ever written, so every row is valid UTF-8.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct Utf8Vec {
    bytes: Vec<u8>,
    ends: Vec<u32>,
}

impl fmt::Debug for Utf8Vec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// `len` bytes as an offset, or the error for a buffer past `u32::MAX`.
fn offset(len: usize) -> Result<u32> {
    u32::try_from(len)
        .map_err(|_| FeisuError::Execution(format!("{len} string bytes overflow a Utf8 column")))
}

impl Utf8Vec {
    pub(crate) fn shrink_to_fit(&mut self) {
        self.bytes.shrink_to_fit();
        self.ends.shrink_to_fit();
    }

    pub fn new() -> Self {
        Utf8Vec::default()
    }

    /// Room for `rows` strings of `bytes` bytes in total.
    pub fn with_capacity(rows: usize, bytes: usize) -> Self {
        Utf8Vec {
            bytes: Vec::with_capacity(bytes),
            ends: Vec::with_capacity(rows),
        }
    }

    /// The strings of `strs`, in order.
    pub fn from_strs<'a>(strs: impl IntoIterator<Item = &'a str>) -> Result<Self> {
        let mut out = Utf8Vec::new();
        for s in strs {
            out.push(s)?;
        }
        Ok(out)
    }

    pub fn len(&self) -> usize {
        self.ends.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Total string bytes over all rows.
    pub fn byte_len(&self) -> usize {
        self.bytes.len()
    }

    /// Where row `i` starts (`i == len` is the end of the buffer).
    #[inline]
    fn start(&self, i: usize) -> usize {
        match i {
            0 => 0,
            i => self.ends[i - 1] as usize,
        }
    }

    /// Row `i`'s bytes: what hashing and comparing read (byte order is
    /// `str` order).
    #[inline]
    pub fn bytes_at(&self, i: usize) -> &[u8] {
        &self.bytes[self.start(i)..self.ends[i] as usize]
    }

    /// Row `i`.
    #[inline]
    pub fn get(&self, i: usize) -> &str {
        std::str::from_utf8(self.bytes_at(i)).expect("a row holds one whole pushed string")
    }

    pub fn iter(&self) -> impl ExactSizeIterator<Item = &str> + '_ {
        (0..self.len()).map(|i| self.get(i))
    }

    /// Every row's bytes, in order.
    pub fn iter_bytes(&self) -> impl ExactSizeIterator<Item = &[u8]> + '_ {
        (0..self.len()).map(|i| self.bytes_at(i))
    }

    pub fn push(&mut self, s: &str) -> Result<()> {
        self.push_bytes(s.as_bytes())
    }

    /// Appends row `i` of `other`.
    pub fn push_from(&mut self, other: &Utf8Vec, i: usize) -> Result<()> {
        self.push_bytes(other.bytes_at(i))
    }

    /// Appends one row; `s` must be a whole string's bytes.
    fn push_bytes(&mut self, s: &[u8]) -> Result<()> {
        let end = offset(self.bytes.len() + s.len())?;
        self.bytes.extend_from_slice(s);
        self.ends.push(end);
        Ok(())
    }

    /// Appends empty strings up to `len` rows.
    pub fn pad_to(&mut self, len: usize) {
        let end = self.ends.last().copied().unwrap_or(0);
        self.ends.resize(len.max(self.len()), end);
    }

    /// The rows `rows` yields, presized: one pass sums their bytes, one
    /// copies them. `at(i)` must be a whole string's bytes.
    pub(crate) fn gather<'a>(
        rows: impl Iterator<Item = usize> + Clone,
        at: impl Fn(usize) -> &'a [u8],
    ) -> Result<Utf8Vec> {
        let (count, bytes) = (rows.clone()).fold((0, 0), |(n, b), i| (n + 1, b + at(i).len()));
        offset(bytes)?;
        let mut out = Utf8Vec::with_capacity(count, bytes);
        for i in rows {
            out.bytes.extend_from_slice(at(i));
            // In range: the total was checked above.
            out.ends.push(out.bytes.len() as u32);
        }
        Ok(out)
    }

    /// The rows at `indices`, in order (an index may repeat), presized
    /// exactly as [`Utf8Vec::gather`] does.
    pub fn take(&self, indices: &[usize]) -> Result<Utf8Vec> {
        Utf8Vec::gather(indices.iter().copied(), |i| self.bytes_at(i))
    }

    /// The rows `selection` (one bit per row) picks, in row order.
    pub(crate) fn filter(&self, selection: &BitVec) -> Utf8Vec {
        Utf8Vec::gather(selection.iter_ones(), |i| self.bytes_at(i))
            .expect("a subset of the rows fits where they all did")
    }

    /// Moves rows `at..` into a new vector, leaving rows `..at`.
    pub fn split_off(&mut self, at: usize) -> Utf8Vec {
        assert!(at <= self.len(), "split_off past the end");
        let base = self.start(at);
        let bytes = self.bytes.split_off(base);
        let ends = self.ends[at..].iter().map(|e| e - base as u32).collect();
        self.ends.truncate(at);
        Utf8Vec { bytes, ends }
    }

    /// Appends every row of `other`.
    pub fn append(&mut self, other: &Utf8Vec) -> Result<()> {
        let base = offset(self.bytes.len())?;
        offset(self.bytes.len() + other.bytes.len())?;
        self.bytes.extend_from_slice(&other.bytes);
        self.ends.extend(other.ends.iter().map(|e| e + base));
        Ok(())
    }
}
