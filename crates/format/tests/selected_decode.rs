//! Decoding through a selection is decoding, then gathering.
//!
//! `BlockMeta::decode_selected` must equal `decode_columns` followed by
//! `Column::filter`, for every chunk encoding and any selection, and it
//! must validate a chunk exactly as the full decode does: a chunk that is
//! `Corrupt` stays `Corrupt` when no row of it is selected. A selection
//! of another length than the block is an `Internal` error, never a panic.

use feisu_common::{BlockId, FeisuError};
use feisu_format::{BitVec, Block, BlockMeta, Column, DataType, Field, Schema, Value};
use proptest::prelude::*;

fn xorshift(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    }
}

/// One column per chunk encoding the writer can pick — RLE (`runs`),
/// delta (`ids`), raw floats, packed bools, dictionary strings — each
/// nullable with NULLs sprinkled in when `nulls` (in `runs` whole runs are
/// NULL, so it stays run-length encoded).
fn block(rows: usize, nulls: bool, seed: u64) -> Block {
    let mut next = xorshift(seed);
    let mut column = |dt: DataType, value: &dyn Fn(usize, u64) -> Value| {
        let values: Vec<Value> = (0..rows)
            .map(|i| match next() {
                r if nulls && dt != DataType::Int64 && r % 6 == 0 => Value::Null,
                r => value(i, r),
            })
            .collect();
        Column::from_values(dt, &values).unwrap()
    };
    let columns = vec![
        column(DataType::Int64, &|i, _| match i / 40 {
            run if nulls && run % 3 == 1 => Value::Null,
            run => Value::Int64(run as i64),
        }),
        column(DataType::Int64, &|i, r| match r % 3 {
            0 if nulls => Value::Null,
            step => Value::Int64(i as i64 * 3 + step as i64),
        }),
        column(DataType::Float64, &|_, r| {
            Value::Float64((r % 1000) as f64 / 8.0)
        }),
        column(DataType::Bool, &|_, r| Value::Bool(r % 3 == 0)),
        column(DataType::Utf8, &|_, r| {
            Value::Utf8(format!("https://site{}.example/path", r % 11))
        }),
    ];
    let names = ["runs", "ids", "ratio", "flag", "url"];
    let fields = names
        .iter()
        .zip(&columns)
        .map(|(name, c)| Field::new(*name, c.data_type(), nulls))
        .collect();
    Block::new(BlockId(3), Schema::new(fields), columns).unwrap()
}

#[derive(Debug, Clone)]
enum Selection {
    Empty,
    Full,
    /// Bit `i` of random words, zero where the words run out.
    Random(Vec<u64>),
}

fn arb_selection() -> impl Strategy<Value = Selection> {
    prop_oneof![
        Just(Selection::Empty),
        Just(Selection::Full),
        proptest::collection::vec(any::<u64>(), 0..6).prop_map(Selection::Random),
    ]
}

fn bits(selection: &Selection, rows: usize) -> BitVec {
    match selection {
        Selection::Empty => BitVec::zeros(rows),
        Selection::Full => BitVec::ones(rows),
        Selection::Random(words) => BitVec::from_bools(
            (0..rows).map(|i| words.get(i / 64).is_some_and(|w| w >> (i % 64) & 1 == 1)),
        ),
    }
}

const NAMES: [&str; 5] = ["runs", "ids", "ratio", "flag", "url"];

proptest! {
    #[test]
    fn selected_decode_is_decode_then_filter(
        shape in (
            prop_oneof![Just(0usize), Just(1), Just(63), Just(64), Just(65), 0usize..300],
            any::<bool>(),
            0u64..1000,
        ),
        selection in arb_selection(),
        subset in 0usize..64,
    ) {
        let (rows, nulls, seed) = shape;
        let bytes = block(rows, nulls, seed).serialize();
        let meta = Block::read_meta(&bytes).unwrap();
        // Any subset, in stored order or reversed: the result follows the
        // order named.
        let mut names: Vec<&str> = NAMES
            .iter()
            .enumerate()
            .filter(|(i, _)| subset >> i & 1 == 1)
            .map(|(_, n)| *n)
            .collect();
        if subset >= 32 {
            names.reverse();
        }
        let bits = bits(&selection, rows);
        let full = meta.decode_columns(&bytes, &names).unwrap();
        let picked = meta.decode_selected(&bytes, &names, &bits).unwrap();
        prop_assert_eq!(picked.len(), names.len());
        for (got, name) in picked.iter().zip(&names) {
            prop_assert_eq!(got.len(), bits.count_ones());
            let all = full.column_by_name(name).unwrap();
            prop_assert_eq!(got, &all.filter(&bits).unwrap());
        }
        // One bit short or one past: refused before any chunk is read.
        for wrong in rows.checked_sub(1).into_iter().chain([rows + 1]) {
            let picked = meta.decode_selected(&bytes, &names, &BitVec::ones(wrong));
            prop_assert!(matches!(picked, Err(FeisuError::Internal(_))), "{:?}", picked);
        }
    }

    /// Any one-byte change to a block: both decodes fail or both succeed,
    /// whatever is selected, and a success still obeys the law above.
    #[test]
    fn corruption_is_reported_whatever_is_selected(
        shape in (1usize..200, any::<bool>(), 0u64..50),
        damage in (any::<usize>(), 1u8..=255),
        selection in arb_selection(),
    ) {
        let ((rows, nulls, seed), (at, flip)) = (shape, damage);
        let mut bytes = block(rows, nulls, seed).serialize();
        let meta = Block::read_meta(&bytes).unwrap();
        // Only column chunks change: the footer still describes the bytes
        // as far as it can tell (that check is `footer_mismatch.rs`'s).
        let region = chunk_region(&meta, &bytes);
        bytes[region.start + at % region.len()] ^= flip;
        let bits = bits(&selection, rows);
        let full = meta.decode_columns(&bytes, &NAMES);
        let picked = meta.decode_selected(&bytes, &NAMES, &bits);
        match (full, picked) {
            (Err(FeisuError::Corrupt(_)), Err(FeisuError::Corrupt(_))) => {}
            (Ok(full), Ok(picked)) => {
                for (got, all) in picked.iter().zip(full.columns()) {
                    prop_assert_eq!(got, &all.filter(&bits).unwrap());
                }
            }
            (full, picked) => prop_assert!(
                false,
                "full decode {:?}, selected decode {:?}",
                full.map(|b| b.rows()),
                picked.map(|columns| columns.len())
            ),
        }
    }
}

/// Where the column chunks lie: from the end of the header to the footer
/// offset the trailer word holds.
fn chunk_region(meta: &BlockMeta, bytes: &[u8]) -> std::ops::Range<usize> {
    let footer = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().unwrap()) as usize;
    meta.meta_bytes - (bytes.len() - footer)..footer
}

#[test]
fn a_corrupt_chunk_is_corrupt_under_an_empty_selection() {
    let good = block(128, true, 9).serialize();
    let meta = Block::read_meta(&good).unwrap();
    let region = chunk_region(&meta, &good);
    let empty = BitVec::zeros(128);
    let mut reported = 0;
    for i in region.clone() {
        let mut bytes = good.clone();
        bytes[i] ^= 0x55;
        if meta.decode_columns(&bytes, &NAMES).is_err() {
            let picked = meta.decode_selected(&bytes, &NAMES, &empty);
            assert!(
                matches!(picked, Err(FeisuError::Corrupt(_))),
                "byte {i}: full decode fails, empty selection gives {picked:?}"
            );
            reported += 1;
        }
    }
    assert!(
        reported > region.len() / 4,
        "only {reported} of {} flips were detectable",
        region.len()
    );
}

#[test]
fn a_selection_of_another_length_is_an_error_not_a_panic() {
    let bytes = block(130, true, 4).serialize();
    let meta = Block::read_meta(&bytes).unwrap();
    let all = meta.decode_columns(&bytes, &NAMES).unwrap();
    for wrong in [0, 1, 64, 128, 129, 131, 192, 1000] {
        let bits = BitVec::ones(wrong);
        let picked = meta.decode_selected(&bytes, &NAMES, &bits);
        assert!(
            matches!(picked, Err(FeisuError::Internal(_))),
            "{wrong}: {picked:?}"
        );
        for column in all.columns() {
            assert!(matches!(column.filter(&bits), Err(FeisuError::Internal(_))));
        }
    }
    // Even with no column named, the selection is checked.
    assert!(meta
        .decode_selected(&bytes, &[], &BitVec::zeros(129))
        .is_err());
    assert!(meta
        .decode_selected(&bytes, &[], &BitVec::zeros(130))
        .is_ok());
}
