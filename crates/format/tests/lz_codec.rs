//! The LZ codec, byte for byte, against the decoder it replaced.
//!
//! The match copy moved from a checked index and a push per byte to
//! `extend_from_within`, doubling over overlapping motifs. On every input
//! — well-formed, cut short, or with a byte flipped — the result must be
//! the byte-wise decoder's: the same bytes or `Corrupt`, never a panic.
//! The codec carries no checksum, so a damaged payload may still decode;
//! it then decodes to exactly the declared length.

use feisu_common::{FeisuError, Result};
use feisu_format::compress::{compress, decompress, Codec};
use feisu_format::encoding::varint;
use proptest::prelude::*;

/// The decoder before this change, framing included (tag, raw length,
/// tokens), copying a match one byte at a time.
fn reference_decompress(buf: &[u8]) -> Result<Vec<u8>> {
    let corrupt = |what: &str| FeisuError::Corrupt(what.to_string());
    assert_eq!(buf.first(), Some(&Codec::Lz.tag()));
    let mut pos = 1usize;
    let raw_len = varint::decode(buf, &mut pos)? as usize;
    let buf = &buf[pos..];
    if raw_len > buf.len().saturating_mul(258) {
        return Err(corrupt("implausible raw length"));
    }
    let mut out = Vec::new();
    let mut pos = 0usize;
    while pos < buf.len() {
        let tok = buf[pos];
        pos += 1;
        match tok {
            0x00 => {
                let len = varint::decode(buf, &mut pos)? as usize;
                let end = pos
                    .checked_add(len)
                    .filter(|&end| end <= buf.len())
                    .ok_or_else(|| corrupt("truncated literal run"))?;
                out.extend_from_slice(&buf[pos..end]);
                pos = end;
            }
            0x01 => {
                let len = varint::decode(buf, &mut pos)? as usize;
                let dist = varint::decode(buf, &mut pos)? as usize;
                if dist == 0 || dist > out.len() {
                    return Err(corrupt("bad match distance"));
                }
                if len > raw_len.saturating_sub(out.len()) {
                    return Err(corrupt("match overruns raw length"));
                }
                let start = out.len() - dist;
                for k in 0..len {
                    let b = out[start + k];
                    out.push(b);
                }
            }
            _ => return Err(corrupt("unknown token")),
        }
    }
    if out.len() != raw_len {
        return Err(corrupt("length mismatch"));
    }
    Ok(out)
}

/// Bytes with the structure the matcher finds: noise, short motifs
/// repeated past their own length (overlapping matches, `dist < len`),
/// and copies of earlier stretches (`dist >= len`).
fn arb_data() -> impl Strategy<Value = Vec<u8>> {
    let segment = (0u8..3, any::<u64>(), 1usize..40, 1usize..300);
    proptest::collection::vec(segment, 0..12).prop_map(|segments| {
        let mut data: Vec<u8> = Vec::new();
        for (kind, seed, small, large) in segments {
            let mut state = seed | 1;
            let mut noise = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 32) as u8
            };
            match kind {
                0 => data.extend((0..large).map(|_| noise())),
                1 => {
                    let motif: Vec<u8> = (0..small.min(9)).map(|_| noise()).collect();
                    data.extend(motif.iter().cycle().take(large));
                }
                _ if data.is_empty() => data.push(noise()),
                _ => {
                    let from = seed as usize % data.len();
                    let to = (from + large).min(data.len());
                    data.extend_from_within(from..to);
                }
            }
        }
        data
    })
}

proptest! {
    #[test]
    fn compress_then_decompress_is_the_identity(data in arb_data()) {
        let packed = compress(Codec::Lz, &data);
        let unpacked = decompress(&packed).unwrap();
        prop_assert_eq!(&unpacked, &data);
        prop_assert_eq!(reference_decompress(&packed).unwrap(), data);
    }

    #[test]
    fn a_damaged_payload_decodes_as_it_always_did_or_is_corrupt(
        data in arb_data(),
        at in any::<usize>(),
        flip in 0u8..=255,
    ) {
        let mut packed = compress(Codec::Lz, &data);
        // Past the tag byte: which codec a payload names is not the LZ
        // decoder's business. `flip == 0` truncates instead.
        let i = 1 + at % (packed.len() - 1);
        if flip == 0 {
            packed.truncate(i);
        } else {
            packed[i] ^= flip;
        }
        let declared = varint::decode(&packed, &mut 1).map(|n| n as usize);
        match (decompress(&packed), reference_decompress(&packed)) {
            (Err(FeisuError::Corrupt(_)), Err(FeisuError::Corrupt(_))) => {}
            (Ok(got), Ok(want)) => {
                prop_assert_eq!(got.len(), declared.unwrap());
                prop_assert_eq!(got, want);
            }
            (got, want) => prop_assert!(
                false,
                "decoder {:?}, byte-wise decoder {:?}",
                got.map(|b| b.len()),
                want.map(|b| b.len())
            ),
        }
    }
}

#[test]
fn a_match_length_that_wraps_the_running_sum_is_corrupt() {
    // raw length 8, literal "abcd", then a match of length usize::MAX at
    // distance 1: `out.len() + len` wrapped to 3 and passed the old check.
    let mut buf = vec![Codec::Lz.tag()];
    varint::encode(8, &mut buf);
    buf.extend_from_slice(&[0x00, 4, b'a', b'b', b'c', b'd', 0x01]);
    varint::encode(u64::MAX, &mut buf);
    varint::encode(1, &mut buf);
    let got = decompress(&buf);
    assert!(matches!(got, Err(FeisuError::Corrupt(_))), "got {got:?}");
}
