//! The buffer-backed `Utf8` column against a `Vec<Option<String>>` kept
//! here as the reference: every gather, cut, concatenation, bound, size
//! and value, and the decoder through random selections, give what the
//! strings one by one would. Inputs hold empty strings, multi-byte UTF-8,
//! NULL slots and empty columns. Beside them, a dictionary chunk's
//! one-pass UTF-8 check against checking entry by entry.

use feisu_common::{BlockId, FeisuError};
use feisu_format::column::ColumnData;
use feisu_format::encoding::{bitpack, dict, varint};
use feisu_format::{BitVec, Block, Column, DataType, Field, Schema, Value};
use proptest::prelude::*;

type Model = Vec<Option<String>>;

/// Strings of 0–6 characters, ASCII and multi-byte, one in four NULL.
fn arb_model(max: usize) -> impl Strategy<Value = Model> {
    let cell = ("\\PC{0,6}", 0u8..4).prop_map(|(s, null)| (null != 0).then_some(s));
    proptest::collection::vec(cell, 0..max)
}

fn value(cell: &Option<String>) -> Value {
    cell.clone().map_or(Value::Null, Value::Utf8)
}

fn column(model: &[Option<String>]) -> Column {
    let values: Vec<Value> = model.iter().map(value).collect();
    Column::from_values(DataType::Utf8, &values).unwrap()
}

/// The validity a bit at a time, as `Validity::push` builds it.
fn validity_words(model: &[Option<String>]) -> Vec<u64> {
    let mut words = vec![0u64; model.len().div_ceil(64)];
    for (i, cell) in model.iter().enumerate() {
        words[i / 64] |= u64::from(cell.is_some()) << (i % 64);
    }
    words
}

/// A selection of one bit per row of `model`, bit `i` read from `words`
/// (zero where `words` runs out).
fn selection(model: &[Option<String>], words: &[u64]) -> BitVec {
    BitVec::from_bools(
        (0..model.len()).map(|i| words.get(i / 64).is_some_and(|w| w >> (i % 64) & 1 == 1)),
    )
}

fn selected(model: &[Option<String>], selection: &BitVec) -> Model {
    selection.iter_ones().map(|i| model[i].clone()).collect()
}

/// The column's values and validity words, as the reference holds them.
fn assert_matches(got: &Column, model: &[Option<String>]) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.len(), model.len());
    prop_assert_eq!(
        got.null_count(),
        model.iter().filter(|c| c.is_none()).count()
    );
    prop_assert_eq!(got.validity().words(), &validity_words(model)[..]);
    for (i, cell) in model.iter().enumerate() {
        prop_assert_eq!(got.value(i), value(cell));
    }
    prop_assert_eq!(got, &column(model));
    Ok(())
}

proptest! {
    #[test]
    fn values_sizes_and_bounds_match_the_strings(model in arb_model(150)) {
        let c = column(&model);
        assert_matches(&c, &model)?;
        // A NULL slot holds "": billed 24 bytes, as an empty `String` was.
        let strings: usize = model.iter().map(|c| c.as_deref().unwrap_or("").len() + 24).sum();
        prop_assert_eq!(c.footprint(), strings + model.len().div_ceil(64) * 8);
        let mut valid = model.iter().flatten();
        let bounds = valid.next().map(|first| {
            valid.fold((first, first), |(lo, hi), s| (lo.min(s), hi.max(s)))
        });
        let bounds = bounds.map(|(lo, hi)| (Value::Utf8(lo.clone()), Value::Utf8(hi.clone())));
        prop_assert_eq!(c.min_max(), bounds);
        let ColumnData::Utf8(strings) = c.data() else {
            return Err(TestCaseError::fail("a Utf8 column"));
        };
        let slots: Vec<&str> = model.iter().map(|c| c.as_deref().unwrap_or("")).collect();
        prop_assert_eq!(strings.iter().collect::<Vec<_>>(), slots);
    }

    #[test]
    fn gathers_and_cuts_match_the_strings(
        model in arb_model(150),
        picks in proptest::collection::vec(any::<usize>(), 0..200),
        words in proptest::collection::vec(any::<u64>(), 0..4),
        at in any::<usize>(),
    ) {
        let c = column(&model);
        let indices: Vec<usize> = match model.len() {
            0 => Vec::new(),
            n => picks.iter().map(|i| i % n).collect(),
        };
        let taken: Model = indices.iter().map(|&i| model[i].clone()).collect();
        assert_matches(&c.take(&indices), &taken)?;
        assert_matches(&c.try_take(&indices).unwrap(), &taken)?;
        let picked = selection(&model, &words);
        assert_matches(&c.filter(&picked).unwrap(), &selected(&model, &picked))?;
        let at = at % (model.len() + 1);
        let mut head = c.clone();
        let tail = head.split_off(at);
        assert_matches(&head, &model[..at])?;
        assert_matches(&tail, &model[at..])?;
    }

    /// Appending and concatenating equal the strings end to end, with the
    /// validity words spliced at any offset into a word.
    #[test]
    fn appends_and_concats_match_the_strings(
        models in proptest::collection::vec(arb_model(140), 0..5),
    ) {
        let columns: Vec<Column> = models.iter().map(|m| column(m)).collect();
        let whole: Model = models.concat();
        assert_matches(&Column::concat(DataType::Utf8, columns.iter()).unwrap(), &whole)?;
        let mut appended = column(&[]);
        for c in &columns {
            appended.append(c);
        }
        assert_matches(&appended, &whole)?;
        // Equal strings, equal columns, however they were put together;
        // one string changed, unequal.
        if let Some(first) = whole.iter().position(Option::is_some) {
            let mut other = whole.clone();
            other[first].as_mut().unwrap().push('x');
            prop_assert!(appended != column(&other));
        }
    }

    /// Decoding a Utf8 chunk through a selection is the selected strings.
    #[test]
    fn decode_through_a_selection_matches_the_strings(
        model in arb_model(300),
        words in proptest::collection::vec(any::<u64>(), 0..6),
        full in any::<bool>(),
    ) {
        let schema = Schema::new(vec![Field::new("s", DataType::Utf8, true)]);
        let bytes = Block::new(BlockId(1), schema, vec![column(&model)]).unwrap().serialize();
        let meta = Block::read_meta(&bytes).unwrap();
        let rows = match full {
            true => BitVec::ones(model.len()),
            false => selection(&model, &words),
        };
        let picked = meta.decode_selected(&bytes, &["s"], &rows).unwrap();
        assert_matches(&picked[0], &selected(&model, &rows))?;
        let all = meta.decode_columns(&bytes, &["s"]).unwrap();
        assert_matches(all.column_by_name("s").unwrap(), &model)?;
    }
}

/// A dictionary chunk's rows with every entry checked as UTF-8 on its own.
fn dict_rows_one_by_one<'a>(buf: &'a [u8], pos: &mut usize) -> feisu_common::Result<Vec<&'a str>> {
    let corrupt = |what: &str| FeisuError::Corrupt(format!("dict: {what}"));
    let mut entries = Vec::new();
    for _ in 0..varint::decode(buf, pos)? {
        let len = varint::decode(buf, pos)? as usize;
        let end = pos.checked_add(len).filter(|&end| end <= buf.len());
        let end = end.ok_or_else(|| corrupt("truncated string"))?;
        let entry = std::str::from_utf8(&buf[*pos..end]).map_err(|_| corrupt("invalid utf8"))?;
        entries.push(entry);
        *pos = end;
    }
    let codes = bitpack::decode(buf, pos)?;
    if codes.iter().any(|&code| code >= entries.len() as u64) {
        return Err(corrupt("code out of range"));
    }
    Ok(codes.iter().map(|&code| entries[code as usize]).collect())
}

proptest! {
    /// `dict::view`'s one-pass UTF-8 check decodes what checking entry by
    /// entry decodes — rows, end position and error — over ASCII,
    /// multi-byte and long (past one varint byte) entries, with a byte
    /// that is no UTF-8 on its own written over an entry's first or last
    /// byte or its length, and at every cut of the chunk.
    #[test]
    fn dict_one_pass_matches_entry_by_entry(
        words in proptest::collection::vec((0..5usize, 0..140usize), 1..10),
        rows in proptest::collection::vec(0..10usize, 0..24),
        spoil in 0..3u8,
        at in any::<usize>(),
    ) {
        let piece = ["a", "é", "€", "😀", "xyz"];
        let words: Vec<String> = (words.iter())
            .map(|&(p, n)| piece[p].repeat(n % 3 + if n > 100 { n / 2 } else { 0 }))
            .collect();
        let values: Vec<&str> = (0..words.len())
            .chain(rows.iter().map(|r| r % words.len()))
            .map(|w| words[w].as_str())
            .collect();
        let mut buf = Vec::new();
        let (entries, _) = dict::encode(&values, &mut buf);
        // Each entry's length byte, first byte and last byte.
        let mut head = Vec::new();
        varint::encode(entries.len() as u64, &mut head);
        let (mut edges, mut end) = (Vec::new(), head.len());
        for entry in &entries {
            let mut len = Vec::new();
            varint::encode(entry.len() as u64, &mut len);
            edges.push(end);
            end += len.len();
            if !entry.is_empty() {
                edges.extend([end, end + entry.len() - 1]);
            }
            end += entry.len();
        }
        if spoil == 1 {
            buf[edges[at / 5 % edges.len()]] = [0x80, 0xC3, 0xE2, 0xF0, 0xFF][at % 5];
        }
        let cuts = match spoil {
            2 => 0..=buf.len(),
            _ => buf.len()..=buf.len(),
        };
        for len in cuts {
            let (mut got_pos, mut want_pos) = (0, 0);
            let got = dict::view(&buf[..len], &mut got_pos)
                .map(|v| (0..v.len()).map(|i| v.get(i)).collect::<Vec<_>>());
            let want = dict_rows_one_by_one(&buf[..len], &mut want_pos);
            prop_assert_eq!(format!("{got:?}"), format!("{want:?}"), "len {}", len);
            prop_assert_eq!(got_pos, want_pos, "len {}", len);
            if spoil == 0 {
                prop_assert_eq!(got.ok(), Some(values.clone()));
            }
        }
    }
}
