//! The row bitmap against a `Vec<bool>` kept here as the reference.
//!
//! `BitVec` and the `Validity` that wraps it must hold what pushing one
//! bool at a time would: the same bits, counts and set positions, and the
//! same packed words, the bits past the length zero after every
//! operation — push, resize, set, append at any offset into a word,
//! split at any offset, filter by a selection, and the in-place algebra.

use feisu_common::FeisuError;
use feisu_format::column::Validity;
use feisu_format::{BitVec, Column, DataType, Value};
use proptest::prelude::*;

type Model = Vec<bool>;
type InPlace = fn(&mut BitVec, &BitVec) -> feisu_common::Result<()>;

/// The model packed a word per 64 bits, bit `i % 64` of word `i / 64`.
fn packed(model: &[bool]) -> Vec<u64> {
    let mut words = vec![0u64; model.len().div_ceil(64)];
    for (i, &bit) in model.iter().enumerate() {
        words[i / 64] |= u64::from(bit) << (i % 64);
    }
    words
}

fn ones(model: &[bool]) -> Vec<usize> {
    (0..model.len()).filter(|&i| model[i]).collect()
}

/// Every observable of `bits` equals the model's.
fn assert_bits(bits: &BitVec, model: &[bool]) -> Result<(), TestCaseError> {
    prop_assert_eq!(bits.len(), model.len());
    prop_assert_eq!(bits.words(), &packed(model)[..]);
    for (i, &bit) in model.iter().enumerate() {
        prop_assert_eq!(bits.get(i), bit, "bit {}", i);
    }
    let want = ones(model);
    prop_assert_eq!(bits.count_ones(), want.len());
    prop_assert_eq!(bits.iter_ones().collect::<Vec<_>>(), want.clone());
    let mut each = Vec::new();
    bits.for_each_one(|i| each.push(i));
    prop_assert_eq!(each, want);
    prop_assert_eq!(bits, &BitVec::from_bools(model.iter().copied()));
    Ok(())
}

/// Every observable of `validity` equals the model's (`true`: valid).
fn assert_validity(validity: &Validity, model: &[bool]) -> Result<(), TestCaseError> {
    assert_bits(validity.bits(), model)?;
    prop_assert_eq!(validity.len(), model.len());
    prop_assert_eq!(validity.words(), &packed(model)[..]);
    prop_assert_eq!(validity.null_count(), model.iter().filter(|&&v| !v).count());
    for (i, &valid) in model.iter().enumerate() {
        prop_assert_eq!(validity.is_valid(i), valid);
    }
    Ok(())
}

fn pushed(model: &[bool]) -> (BitVec, Validity) {
    let (mut bits, mut validity) = (BitVec::zeros(0), Validity::with_capacity(model.len()));
    for &bit in model {
        bits.push(bit);
        validity.push(bit);
    }
    (bits, validity)
}

/// An Int64 column whose validity is `model`.
fn column(model: &[bool]) -> Column {
    let values: Vec<Value> = (0..model.len())
        .map(|i| match model[i] {
            true => Value::Int64(i as i64),
            false => Value::Null,
        })
        .collect();
    Column::from_values(DataType::Int64, &values).unwrap()
}

/// A second vector of random bits, at least as long as any model: a
/// model of `n` bits pairs with its first `n`.
fn arb_picks() -> impl Strategy<Value = Model> {
    proptest::collection::vec(any::<bool>(), 300..301)
}

fn arb_model(max: usize) -> impl Strategy<Value = Model> {
    prop_oneof![
        proptest::collection::vec(any::<bool>(), 0..max),
        // Long runs, so all-ones and all-zeros words occur.
        (0..max, any::<bool>(), 0usize..200).prop_map(|(n, first, run)| {
            (0..n)
                .map(|i| (i / (run + 1)) % 2 == usize::from(first))
                .collect()
        }),
    ]
}

proptest! {
    #[test]
    fn push_and_get_match_the_model(model in arb_model(300)) {
        let (bits, validity) = pushed(&model);
        assert_bits(&bits, &model)?;
        assert_validity(&validity, &model)?;
        assert_validity(&Validity::from(bits), &model)?;
        assert_bits(&BitVec::zeros(model.len()), &vec![false; model.len()])?;
        assert_bits(&BitVec::ones(model.len()), &vec![true; model.len()])?;
        assert_validity(&Validity::new_all_valid(model.len()), &vec![true; model.len()])?;
    }

    /// Appending shifts `b` into place at any offset into a word, the
    /// empty vector on either side included.
    #[test]
    fn append_matches_the_model(a in arb_model(200), b in arb_model(200)) {
        let whole: Model = a.iter().chain(&b).copied().collect();
        let (mut bits, mut validity) = pushed(&a);
        let (b_bits, b_validity) = pushed(&b);
        bits.append(&b_bits);
        validity.append(&b_validity);
        assert_bits(&bits, &whole)?;
        assert_validity(&validity, &whole)?;
    }

    /// Splitting at every offset leaves the head and moves the tail, both
    /// with zero tails; the validity's null counts split with them.
    #[test]
    fn split_off_matches_the_model(model in arb_model(200)) {
        let (bits, _) = pushed(&model);
        let c = column(&model);
        for at in 0..=model.len() {
            let mut head = bits.clone();
            let tail = head.split_off(at);
            assert_bits(&head, &model[..at])?;
            assert_bits(&tail, &model[at..])?;
            let mut head = c.clone();
            let tail = head.split_off(at);
            assert_validity(head.validity(), &model[..at])?;
            assert_validity(tail.validity(), &model[at..])?;
        }
    }

    /// Resizing grows across word edges with the new bits all `bit`, or
    /// cuts, as `Vec::resize` does the model; the tail bits stay zero.
    /// Setting a bit, to either value, twice over, is the model's store.
    #[test]
    fn resize_and_set_match_the_model(
        model in arb_model(200),
        steps in proptest::collection::vec((0usize..300, any::<bool>(), any::<usize>()), 1..6),
    ) {
        let (mut bits, mut model) = (pushed(&model).0, model);
        for (len, bit, at) in steps {
            bits.resize(len, bit);
            model.resize(len, bit);
            assert_bits(&bits, &model)?;
            if len > 0 {
                for value in [!bit, !bit, bit, bit] {
                    bits.set(at % len, value);
                    model[at % len] = value;
                    assert_bits(&bits, &model)?;
                }
            }
        }
    }

    /// Filtering keeps the selected rows' validity (and values), in row
    /// order; a selection of another length is an error.
    #[test]
    fn filter_matches_the_model(model in arb_model(300), picks in arb_picks()) {
        let picks = &picks[..model.len()];
        let selection = BitVec::from_bools(picks.iter().copied());
        let kept: Model = ones(picks).into_iter().map(|i| model[i]).collect();
        let c = column(&model);
        let got = c.filter(&selection).unwrap();
        assert_validity(got.validity(), &kept)?;
        let want: Vec<Value> = ones(picks).into_iter().map(|i| c.value(i)).collect();
        prop_assert_eq!((0..got.len()).map(|i| got.value(i)).collect::<Vec<_>>(), want);
        prop_assert_eq!(got, c.take(&ones(picks)));
        let longer = BitVec::from_bools(picks.iter().copied().chain([true]));
        prop_assert!(matches!(c.filter(&longer), Err(FeisuError::Internal(_))));
    }

    /// The in-place algebra is the model's, bit by bit, with the bits
    /// past the length still zero; another length is refused unchanged.
    #[test]
    fn in_place_algebra_matches_the_model(a in arb_model(300), picks in arb_picks()) {
        let b = &picks[..a.len()];
        let (bits_a, bits_b) = (BitVec::from_bools(a.clone()), BitVec::from_bools(b.to_vec()));
        let zip = |f: fn(bool, bool) -> bool| -> Model {
            a.iter().zip(b).map(|(&x, &y)| f(x, y)).collect()
        };
        let ops: [(InPlace, Model); 3] = [
            (BitVec::and_assign, zip(|x, y| x & y)),
            (BitVec::or_assign, zip(|x, y| x | y)),
            (BitVec::and_not_assign, zip(|x, y| x & !y)),
        ];
        for (op, want) in ops {
            let mut got = bits_a.clone();
            op(&mut got, &bits_b).unwrap();
            assert_bits(&got, &want)?;
            let mut unchanged = bits_a.clone();
            prop_assert!(op(&mut unchanged, &BitVec::ones(a.len() + 1)).is_err());
            prop_assert_eq!(&unchanged, &bits_a);
        }
        let mut not = bits_a.clone();
        not.not_assign();
        assert_bits(&not, &a.iter().map(|x| !x).collect::<Model>())?;
    }

    /// The complement, De Morgan and double-negation laws on the in-place
    /// operations.
    #[test]
    fn bitvec_algebra_laws(bits_a in proptest::collection::vec(any::<bool>(), 0..300)) {
        let n = bits_a.len();
        let a = BitVec::from_bools(bits_a.iter().copied());
        let b = BitVec::from_bools(bits_a.iter().map(|x| !x));
        // Complement laws.
        let mut and = a.clone();
        and.and_assign(&b).unwrap();
        prop_assert_eq!(and.count_ones(), 0);
        let mut or = a.clone();
        or.or_assign(&b).unwrap();
        prop_assert_eq!(or.count_ones(), n);
        // De Morgan: !(a & b) == !a | !b.
        and.not_assign();
        let (mut not_a, mut not_b) = (a.clone(), b.clone());
        not_a.not_assign();
        not_b.not_assign();
        not_a.or_assign(&not_b).unwrap();
        prop_assert_eq!(&and, &not_a);
        // Double negation.
        let mut twice = a.clone();
        twice.not_assign();
        twice.not_assign();
        prop_assert_eq!(twice, a);
    }

    /// Words round-trip, the bits past the length cleared; any other word
    /// count is corrupt.
    #[test]
    fn from_words_matches_the_model(
        model in arb_model(300),
        junk in any::<u64>(),
        extra in 1usize..3,
    ) {
        let mut words = packed(&model);
        if !model.len().is_multiple_of(64) {
            *words.last_mut().unwrap() |= junk << (model.len() % 64);
        }
        assert_bits(&BitVec::from_words(words.clone(), model.len()).unwrap(), &model)?;
        assert_validity(&Validity::from_words(words.clone(), model.len()).unwrap(), &model)?;
        let mut long = words.clone();
        long.extend(std::iter::repeat_n(junk, extra));
        prop_assert!(matches!(BitVec::from_words(long.clone(), model.len()), Err(FeisuError::Corrupt(_))));
        prop_assert!(Validity::from_words(long, model.len()).is_err());
        if let Some(short) = words.len().checked_sub(extra) {
            words.truncate(short);
            prop_assert!(BitVec::from_words(words.clone(), model.len()).is_err());
            prop_assert!(Validity::from_words(words, model.len()).is_err());
        }
    }
}

/// Appending at each of the 64 offsets into a word, onto and of every
/// length around a word boundary, the empty vector included.
#[test]
fn append_at_every_offset_into_a_word() {
    let model = |n: usize, salt: usize| -> Model {
        (0..n).map(|i| (i * 7 + salt).is_multiple_of(3)).collect()
    };
    for a_len in 0..=128 {
        for b_len in [0, 1, 63, 64, 65, 130] {
            let (a, b) = (model(a_len, 1), model(b_len, 2));
            let whole: Model = a.iter().chain(&b).copied().collect();
            let mut bits = BitVec::from_bools(a.clone());
            bits.append(&BitVec::from_bools(b.clone()));
            assert_eq!(bits, BitVec::from_bools(whole.clone()), "{a_len} + {b_len}");
            assert_eq!(bits.words(), &packed(&whole)[..]);
            let mut validity = Validity::from(BitVec::from_bools(a));
            validity.append(&Validity::from(BitVec::from_bools(b)));
            assert_eq!(validity.null_count(), whole.iter().filter(|&&v| !v).count());
            assert_eq!(validity.words(), &packed(&whole)[..]);
        }
    }
}
