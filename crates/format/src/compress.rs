//! Block compression codecs.
//!
//! SmartIndex headers carry a `compress type` field (paper Fig. 6) and the
//! columnar format is described as "compression-friendly" (§III-A). Rather
//! than pull an external compression dependency, Feisu ships a small
//! LZ77-style byte codec (`Lz`) with a greedy hash-chain matcher, plus a
//! trivial passthrough (`None`) so callers can always decompress by codec
//! tag. The codec self-describes: the first byte of every compressed
//! payload is the [`Codec`] tag.

use feisu_common::{FeisuError, Result};
use std::borrow::Cow;

/// Available compression codecs, stored as the payload's first byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Codec {
    /// Store bytes verbatim.
    None,
    /// From-scratch LZ77 with a 64 KiB window and hash-chain matching.
    Lz,
}

impl Codec {
    pub fn tag(self) -> u8 {
        match self {
            Codec::None => 0,
            Codec::Lz => 1,
        }
    }

    pub fn from_tag(tag: u8) -> Result<Codec> {
        match tag {
            0 => Ok(Codec::None),
            1 => Ok(Codec::Lz),
            other => Err(FeisuError::Corrupt(format!("unknown codec tag {other}"))),
        }
    }
}

const WINDOW: usize = 1 << 16;
const MIN_MATCH: usize = 4;
const MAX_MATCH: usize = 258;
const HASH_BITS: usize = 15;

#[inline]
fn hash4(data: &[u8], i: usize) -> usize {
    let v = u32::from_le_bytes([data[i], data[i + 1], data[i + 2], data[i + 3]]);
    (v.wrapping_mul(2654435761) >> (32 - HASH_BITS)) as usize
}

/// Compresses `data` with the chosen codec. Output always starts with the
/// codec tag byte, followed by the uncompressed length (varint) and payload.
pub fn compress(codec: Codec, data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() / 2 + 16);
    out.push(codec.tag());
    crate::encoding::varint::encode(data.len() as u64, &mut out);
    match codec {
        Codec::None => out.extend_from_slice(data),
        Codec::Lz => lz_compress(data, &mut out),
    }
    out
}

/// Decompresses a payload produced by [`compress`]; a `Codec::None`
/// payload is borrowed, not copied.
pub fn decompress(buf: &[u8]) -> Result<Cow<'_, [u8]>> {
    if buf.is_empty() {
        return Err(FeisuError::Corrupt("empty compressed payload".into()));
    }
    let codec = Codec::from_tag(buf[0])?;
    let mut pos = 1usize;
    let raw_len = crate::encoding::varint::decode(buf, &mut pos)? as usize;
    match codec {
        Codec::None => {
            let payload = &buf[pos..];
            if payload.len() != raw_len {
                return Err(FeisuError::Corrupt(format!(
                    "passthrough length mismatch: {} vs {raw_len}",
                    payload.len()
                )));
            }
            Ok(Cow::Borrowed(payload))
        }
        Codec::Lz => lz_decompress(&buf[pos..], raw_len).map(Cow::Owned),
    }
}

/// Token stream: literal-run token = 0x00 len bytes…; match token = 0x01
/// len(varint) distance(varint).
fn lz_compress(data: &[u8], out: &mut Vec<u8>) {
    use crate::encoding::varint;

    let mut head = vec![usize::MAX; 1 << HASH_BITS];
    let mut prev = vec![usize::MAX; data.len().max(1)];
    let mut i = 0usize;
    let mut literal_start = 0usize;

    let flush_literals = |out: &mut Vec<u8>, from: usize, to: usize, data: &[u8]| {
        if to > from {
            out.push(0x00);
            varint::encode((to - from) as u64, out);
            out.extend_from_slice(&data[from..to]);
        }
    };

    while i + MIN_MATCH <= data.len() {
        let h = hash4(data, i);
        let mut cand = head[h];
        let mut best_len = 0usize;
        let mut best_dist = 0usize;
        let mut chain = 0;
        while cand != usize::MAX && i - cand <= WINDOW && chain < 32 {
            // Candidate positions share a 4-byte hash; verify actual match.
            let max_len = (data.len() - i).min(MAX_MATCH);
            let mut l = 0;
            while l < max_len && data[cand + l] == data[i + l] {
                l += 1;
            }
            if l > best_len {
                best_len = l;
                best_dist = i - cand;
            }
            cand = prev[cand];
            chain += 1;
        }
        if best_len >= MIN_MATCH {
            flush_literals(out, literal_start, i, data);
            out.push(0x01);
            varint::encode(best_len as u64, out);
            varint::encode(best_dist as u64, out);
            // Insert all covered positions into the chain so later matches
            // can reference inside this one.
            let end = (i + best_len).min(data.len().saturating_sub(MIN_MATCH - 1));
            let mut j = i;
            while j < end {
                let hj = hash4(data, j);
                prev[j] = head[hj];
                head[hj] = j;
                j += 1;
            }
            i += best_len;
            literal_start = i;
        } else {
            prev[i] = head[h];
            head[h] = i;
            i += 1;
        }
    }
    flush_literals(out, literal_start, data.len(), data);
}

fn lz_decompress(buf: &[u8], raw_len: usize) -> Result<Vec<u8>> {
    use crate::encoding::varint;

    // A match token occupies at least 3 bytes and emits at most MAX_MATCH,
    // so no valid payload expands beyond MAX_MATCH per input byte. A header
    // claiming more is corrupt; rejecting it here keeps a corrupt varint
    // from driving a huge up-front allocation.
    let max_plausible = buf.len().saturating_mul(MAX_MATCH);
    if raw_len > max_plausible {
        return Err(FeisuError::Corrupt(format!(
            "lz: claimed raw length {raw_len} exceeds plausible bound {max_plausible}"
        )));
    }
    let mut out = Vec::with_capacity(raw_len);
    let mut pos = 0usize;
    while pos < buf.len() {
        let tok = buf[pos];
        pos += 1;
        match tok {
            0x00 => {
                let len = varint::decode(buf, &mut pos)? as usize;
                let end = pos
                    .checked_add(len)
                    .ok_or_else(|| FeisuError::Corrupt("lz: literal overflow".into()))?;
                if end > buf.len() {
                    return Err(FeisuError::Corrupt("lz: truncated literal run".into()));
                }
                out.extend_from_slice(&buf[pos..end]);
                pos = end;
            }
            0x01 => {
                let len = varint::decode(buf, &mut pos)? as usize;
                let dist = varint::decode(buf, &mut pos)? as usize;
                if dist == 0 || dist > out.len() {
                    return Err(FeisuError::Corrupt(format!(
                        "lz: bad match distance {dist} at output {}",
                        out.len()
                    )));
                }
                if len > raw_len.saturating_sub(out.len()) {
                    return Err(FeisuError::Corrupt("lz: match overruns raw length".into()));
                }
                // Overlapping copies are legal (dist < len repeats a motif
                // of `dist` bytes): each pass copies everything written
                // since `start`, a whole number of motifs, so the copy
                // doubles until `len` is reached. `dist >= len` is one pass.
                let start = out.len() - dist;
                let mut remaining = len;
                while remaining > 0 {
                    let n = remaining.min(out.len() - start);
                    out.extend_from_within(start..start + n);
                    remaining -= n;
                }
            }
            other => {
                return Err(FeisuError::Corrupt(format!("lz: unknown token {other}")));
            }
        }
    }
    if out.len() != raw_len {
        return Err(FeisuError::Corrupt(format!(
            "lz: decompressed {} bytes, expected {raw_len}",
            out.len()
        )));
    }
    Ok(out)
}

/// Picks a codec for a payload: small payloads are not worth compressing;
/// everything else tries LZ and keeps it only if it actually shrank.
pub fn compress_adaptive(data: &[u8]) -> Vec<u8> {
    if data.len() < 64 {
        return compress(Codec::None, data);
    }
    let lz = compress(Codec::Lz, data);
    if lz.len() < data.len() {
        lz
    } else {
        compress(Codec::None, data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passthrough_roundtrip() {
        let data = b"hello feisu".to_vec();
        let c = compress(Codec::None, &data);
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn lz_roundtrip_repetitive() {
        let data: Vec<u8> = b"abcabcabcabcabcabcabcabcabcabc".repeat(100);
        let c = compress(Codec::Lz, &data);
        assert!(
            c.len() < data.len() / 5,
            "repetitive data should shrink a lot"
        );
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn lz_roundtrip_incompressible() {
        // Pseudo-random bytes: must still round-trip even if bigger.
        let mut state = 0x12345678u64;
        let data: Vec<u8> = (0..10_000)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 56) as u8
            })
            .collect();
        let c = compress(Codec::Lz, &data);
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn lz_roundtrip_empty_and_tiny() {
        for data in [b"".to_vec(), b"a".to_vec(), b"abc".to_vec()] {
            let c = compress(Codec::Lz, &data);
            assert_eq!(decompress(&c).unwrap(), data);
        }
    }

    #[test]
    fn lz_overlapping_match() {
        // "aaaaa..." forces dist=1 matches with len > dist.
        let data = vec![b'a'; 1000];
        let c = compress(Codec::Lz, &data);
        assert!(c.len() < 32);
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn adaptive_skips_small_or_random() {
        let small = compress_adaptive(b"tiny");
        assert_eq!(small[0], Codec::None.tag());
        let repetitive = compress_adaptive(&b"xyz".repeat(1000));
        assert_eq!(repetitive[0], Codec::Lz.tag());
    }

    #[test]
    fn corrupt_inputs_error_cleanly() {
        assert!(decompress(&[]).is_err());
        assert!(decompress(&[99]).is_err());
        // Valid header claiming 100 raw bytes with no payload.
        let mut buf = vec![Codec::Lz.tag()];
        crate::encoding::varint::encode(100, &mut buf);
        assert!(decompress(&buf).is_err());
        // Match referencing before start of output.
        let mut buf = vec![Codec::Lz.tag()];
        crate::encoding::varint::encode(10, &mut buf);
        buf.push(0x01);
        crate::encoding::varint::encode(4, &mut buf);
        crate::encoding::varint::encode(7, &mut buf);
        assert!(decompress(&buf).is_err());
    }

    #[test]
    fn truncated_literal_errors() {
        let data = b"0123456789".to_vec();
        let mut c = compress(Codec::None, &data);
        c.truncate(c.len() - 2);
        assert!(decompress(&c).is_err());
    }
}
