//! `Lru` against the obvious model: a `Vec<(key, value, weight)>` kept
//! coldest first.
//!
//! Random `insert / get / peek / remove / pop_lru / pop_lru_where`
//! sequences over a handful of keys (so live keys are re-inserted and
//! touched often, and weight 0 occurs) must return the same values, pick
//! the same victims and leave the same order, `len` and `weight` after
//! every step.

use feisu_common::lru::Lru;
use proptest::prelude::*;

type Model = Vec<(u8, u32, u64)>;

fn take(model: &mut Model, at: Option<usize>) -> Option<(u8, u32)> {
    at.map(|i| model.remove(i)).map(|(k, v, _)| (k, v))
}

proptest! {
    #[test]
    fn lru_matches_a_vec_in_recency_order(
        ops in proptest::collection::vec((0u8..6, 0u8..6, 0u32..1000, 0u64..5), 1..120),
    ) {
        let mut lru: Lru<u8, u32> = Lru::new();
        let mut model = Model::new();
        for (op, key, value, weight) in ops {
            let at = model.iter().position(|(k, _, _)| *k == key);
            match op {
                0 => {
                    let replaced = take(&mut model, at).map(|(_, v)| v);
                    model.push((key, value, weight));
                    prop_assert_eq!(lru.insert(key, value, weight), replaced);
                }
                1 => {
                    let touched = at.map(|i| model.remove(i));
                    model.extend(touched);
                    prop_assert_eq!(lru.get(&key).copied(), touched.map(|(_, v, _)| v));
                }
                2 => prop_assert_eq!(lru.peek(&key).copied(), at.map(|i| model[i].1)),
                3 => {
                    let removed = take(&mut model, at).map(|(_, v)| v);
                    prop_assert_eq!(lru.remove(&key), removed);
                }
                4 => {
                    let coldest = (!model.is_empty()).then_some(0);
                    prop_assert_eq!(lru.pop_lru(), take(&mut model, coldest));
                }
                _ => {
                    // A predicate on key and value that turns some down.
                    let accept = |k: &u8, v: &u32| (*k as u32 + *v) % 3 == key as u32 % 3;
                    let victim = model.iter().position(|(k, v, _)| accept(k, v));
                    prop_assert_eq!(lru.pop_lru_where(accept), take(&mut model, victim));
                }
            }
            let order: Vec<(u8, u32)> = lru.iter().map(|(k, v)| (*k, *v)).collect();
            let expected: Vec<(u8, u32)> = model.iter().map(|(k, v, _)| (*k, *v)).collect();
            prop_assert_eq!(order, expected);
            prop_assert_eq!(lru.len(), model.len());
            prop_assert_eq!(lru.is_empty(), model.is_empty());
            prop_assert_eq!(lru.weight(), model.iter().map(|(_, _, w)| w).sum::<u64>());
        }
    }
}
