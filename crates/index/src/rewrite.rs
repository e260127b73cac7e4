//! Plan rewrite: serving conjunctive predicates from SmartIndex.
//!
//! This implements step 3 of Fig. 3 ("rewrite subplan equivalently based
//! on SmartIndex") and step 5 ("update existing indexes"), plus the Fig. 7
//! transformation: a probe for `c2 <= 5` is also served by an existing
//! index for `c2 > 5` through bit-NOT, and conjuncts/disjuncts combine
//! with bit-AND / bit-OR.
//!
//! A CNF clause whose disjuncts are all simple predicates is answered as
//! the bit-OR of per-predicate vectors, each served by (in order) a handle
//! the caller holds, a direct index hit, a negated-index hit, or a fresh
//! evaluation that is then cached ("Feisu creates a SmartIndex each time a
//! query predicate is evaluated in a leaf server"). Any other clause is
//! evaluated row-wise by the scan.

use crate::manager::{Held, IndexManager, PredicateKeys};
use crate::smart::{predicate_column, scan_evaluate, SmartIndex};
use feisu_common::{Result, SimInstant};
use feisu_format::{BitVec, Block};
use feisu_sql::ast::Expr;
use feisu_sql::cnf::{Clause, Cnf, SimplePredicate};

/// How one simple predicate was answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeKind {
    /// Direct index hit — no scan, no evaluation.
    Hit,
    /// Served by negating an existing index (Fig. 7 bit-NOT reuse).
    NegatedHit,
    /// Evaluated against the block; a new index was created.
    BuiltFresh,
    /// Evaluated against the block; the index was built but rejected by
    /// the cache (did not fit the memory budget).
    BuiltRejected,
    /// Evaluated against the block without caching (cache disabled).
    Scanned,
}

/// Result of serving a CNF over one block.
#[derive(Debug)]
pub struct CnfOutcome {
    /// Conjunction of the clauses SmartIndex answers (rows that may pass).
    pub bits: BitVec,
    /// Clauses that must still be evaluated row-wise.
    pub residual: Vec<Expr>,
    /// Per-predicate accounting, in probe order.
    pub probes: Vec<(SimplePredicate, ProbeKind)>,
}

/// Serves one simple predicate for a block: a direct index hit, else a
/// negated one, else a fresh evaluation, which is cached. `held` is the
/// entry the caller looked up for the predicate, if any: it serves even if
/// evicted since, and the probe books what it finds either way. `cache` =
/// None disables the index entirely (the paper's "without SmartIndex"
/// baseline).
pub fn probe_predicate(
    cache: Option<&IndexManager>,
    block: &Block,
    predicate: &SimplePredicate,
    held: Option<&Held>,
    now: SimInstant,
) -> Result<(BitVec, ProbeKind)> {
    probe_keyed(cache, block, (predicate, None), held, now)
}

/// [`probe_predicate`], by the predicate's cache keys when the caller
/// formatted them.
fn probe_keyed(
    cache: Option<&IndexManager>,
    block: &Block,
    (predicate, keys): (&SimplePredicate, Option<&PredicateKeys>),
    held: Option<&Held>,
    now: SimInstant,
) -> Result<(BitVec, ProbeKind)> {
    let Some(manager) = cache else {
        let column = predicate_column(block, predicate)?;
        return Ok((scan_evaluate(column, predicate)?, ProbeKind::Scanned));
    };

    // An index for the complementary operator answers through bit-NOT
    // (nulls handled inside `negated_bits`).
    let formatted;
    let keys = match keys {
        Some(keys) => keys,
        None => {
            formatted = PredicateKeys::new(predicate);
            &formatted
        }
    };
    let found = manager.find(block.id(), keys, now);
    if let Some((index, negated)) = held.cloned().or(found) {
        return Ok(match negated {
            false => (index.bits(), ProbeKind::Hit),
            true => (index.negated_bits(), ProbeKind::NegatedHit),
        });
    }
    // Rejection is surfaced so leaf stats can tell "built and rejected"
    // apart from "built and cached".
    let (idx, bits) = SmartIndex::evaluate(block, predicate, now)?;
    let kind = match manager.insert(idx, now) {
        true => ProbeKind::BuiltFresh,
        false => ProbeKind::BuiltRejected,
    };
    Ok((bits, kind))
}

/// Serves a whole CNF over one block; clauses that are not all-simple
/// come back as residuals. This is [`evaluate_held`] with no handles held.
pub fn evaluate_cnf(
    cache: Option<&IndexManager>,
    block: &Block,
    cnf: &Cnf,
    now: SimInstant,
) -> Result<CnfOutcome> {
    let mut probes = Vec::new();
    let bits = evaluate_held(cache, block, cnf, (&[], &[]), now, |p, kind| {
        probes.push((p.clone(), kind))
    })?;
    let opaque = cnf.clauses.iter().filter(|c| c.as_simple().is_none());
    Ok(CnfOutcome {
        bits,
        residual: opaque.map(Clause::to_expr).collect(),
        probes,
    })
}

/// The conjunction of the CNF's all-simple clauses over one block, each
/// the bit-OR of its predicates' vectors; other clauses are the caller's
/// to evaluate row-wise. Each predicate is probed at its turn, and the
/// `i`-th simple one is served by `held[i]` when the caller holds a
/// handle for it and looked up by `keys[i]` when the caller formatted its
/// cache keys. `on_probe` hears how each was answered, in probe order.
pub fn evaluate_held(
    cache: Option<&IndexManager>,
    block: &Block,
    cnf: &Cnf,
    (held, keys): (&[Option<Held>], &[PredicateKeys]),
    now: SimInstant,
    mut on_probe: impl FnMut(&SimplePredicate, ProbeKind),
) -> Result<BitVec> {
    let rows = block.rows();
    let mut bits: Option<BitVec> = None;
    let (mut held, mut keys) = (held.iter(), keys.iter());
    for predicates in cnf.clauses.iter().filter_map(Clause::as_simple) {
        // The first vector of a clause is its start, as the first clause's
        // is the conjunction's: no all-zeros or all-ones vector is made.
        let mut clause_bits: Option<BitVec> = None;
        for p in predicates {
            let held = held.next().and_then(Option::as_ref);
            let (pbits, kind) = probe_keyed(cache, block, (p, keys.next()), held, now)?;
            match &mut clause_bits {
                Some(clause_bits) => clause_bits.or_assign(&pbits)?,
                None => {
                    pbits.check_len(rows)?;
                    clause_bits = Some(pbits);
                }
            }
            on_probe(p, kind);
        }
        let clause_bits = clause_bits.unwrap_or_else(|| BitVec::zeros(rows));
        match &mut bits {
            Some(bits) => bits.and_assign(&clause_bits)?,
            None => bits = Some(clause_bits),
        }
    }
    Ok(bits.unwrap_or_else(|| BitVec::ones(rows)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use feisu_common::{BlockId, ByteSize, SimDuration};
    use feisu_format::{Column, DataType, Field, Schema, Value};
    use feisu_sql::cnf::to_cnf;
    use feisu_sql::eval::eval_truth;
    use feisu_sql::parser::parse_expr;
    use std::collections::HashMap;

    fn test_block() -> Block {
        let schema = Schema::new(vec![
            Field::new("c2", DataType::Int64, true),
            Field::new("c3", DataType::Int64, false),
        ]);
        let c2 = Column::from_values(
            DataType::Int64,
            &(0..200)
                .map(|i| {
                    if i % 17 == 0 {
                        Value::Null
                    } else {
                        Value::Int64(i % 13)
                    }
                })
                .collect::<Vec<_>>(),
        )
        .unwrap();
        let c3 = Column::from_i64((0..200).map(|i| i % 7).collect());
        Block::new(BlockId(3), schema, vec![c2, c3]).unwrap()
    }

    fn manager() -> IndexManager {
        IndexManager::new(ByteSize::mib(8), SimDuration::hours(72))
    }

    /// Oracle: evaluate an expression row-wise over the block.
    fn oracle(block: &Block, expr: &Expr) -> BitVec {
        let mut bits = BitVec::zeros(block.rows());
        for i in 0..block.rows() {
            let mut row = HashMap::new();
            for (fi, f) in block.schema().fields().iter().enumerate() {
                row.insert(f.name.clone(), block.column(fi).value(i));
            }
            if eval_truth(expr, &row).unwrap().passes() {
                bits.set(i, true);
            }
        }
        bits
    }

    #[test]
    fn first_probe_builds_second_hits() {
        let block = test_block();
        let m = manager();
        let cnf = to_cnf(&parse_expr("c2 > 5").unwrap());
        let r1 = evaluate_cnf(Some(&m), &block, &cnf, SimInstant(0)).unwrap();
        assert_eq!(r1.probes[0].1, ProbeKind::BuiltFresh);
        let r2 = evaluate_cnf(Some(&m), &block, &cnf, SimInstant(1)).unwrap();
        assert_eq!(r2.probes[0].1, ProbeKind::Hit);
        assert_eq!(r1.bits, r2.bits);
    }

    #[test]
    fn negated_index_served_via_bitnot() {
        // Paper Fig. 7: after indexing c2 > 5, the query !(c2 > 5) i.e.
        // c2 <= 5 is served by NOT.
        let block = test_block();
        let m = manager();
        let warm = to_cnf(&parse_expr("c2 > 5").unwrap());
        evaluate_cnf(Some(&m), &block, &warm, SimInstant(0)).unwrap();
        let probe = to_cnf(&parse_expr("c2 <= 5").unwrap());
        let r = evaluate_cnf(Some(&m), &block, &probe, SimInstant(1)).unwrap();
        assert_eq!(r.probes[0].1, ProbeKind::NegatedHit);
        assert_eq!(r.bits, oracle(&block, &parse_expr("c2 <= 5").unwrap()));
    }

    #[test]
    fn q10_q11_q12_equivalence() {
        // The paper's running example: all three forms produce identical
        // result vectors and the later ones are fully index-served.
        let block = test_block();
        let m = manager();
        let q10 = to_cnf(&parse_expr("c2 > 0 AND c2 <= 5").unwrap());
        let r10 = evaluate_cnf(Some(&m), &block, &q10, SimInstant(0)).unwrap();
        let q11 = to_cnf(&parse_expr("c2 > 0 AND !(c2 > 5)").unwrap());
        let r11 = evaluate_cnf(Some(&m), &block, &q11, SimInstant(1)).unwrap();
        assert_eq!(r10.bits, r11.bits);
        // Q11's conjuncts: c2 > 0 direct hit; !(c2 > 5) = c2 <= 5 — the
        // CNF absorbed the NOT, and c2 <= 5 index now exists from Q10.
        assert!(r11
            .probes
            .iter()
            .all(|(_, k)| matches!(k, ProbeKind::Hit | ProbeKind::NegatedHit)));
    }

    #[test]
    fn or_clause_combines_with_bitor() {
        let block = test_block();
        let m = manager();
        let cnf = to_cnf(&parse_expr("c2 > 10 OR c3 = 0").unwrap());
        let r = evaluate_cnf(Some(&m), &block, &cnf, SimInstant(0)).unwrap();
        assert_eq!(r.probes.len(), 2);
        assert_eq!(
            r.bits,
            oracle(&block, &parse_expr("c2 > 10 OR c3 = 0").unwrap())
        );
        assert!(r.residual.is_empty());
    }

    #[test]
    fn multi_clause_conjunction_with_nulls_matches_oracle() {
        let block = test_block();
        let m = manager();
        for src in [
            "c2 > 3 AND c3 < 5",
            "c2 >= 0 AND c2 != 7",
            "(c2 = 1 OR c2 = 2) AND c3 > 1",
            "NOT (c2 > 3) AND c3 <= 6",
        ] {
            let expr = parse_expr(src).unwrap();
            let cnf = to_cnf(&expr);
            let r = evaluate_cnf(Some(&m), &block, &cnf, SimInstant(0)).unwrap();
            assert!(r.residual.is_empty(), "{src} should be fully indexable");
            assert_eq!(r.bits, oracle(&block, &expr), "mismatch for {src}");
        }
    }

    #[test]
    fn residual_clause_passes_through() {
        let block = test_block();
        let m = manager();
        // c2 > c3 is column-column: not indexable.
        let cnf = to_cnf(&parse_expr("c2 > c3 AND c3 < 5").unwrap());
        let r = evaluate_cnf(Some(&m), &block, &cnf, SimInstant(0)).unwrap();
        assert_eq!(r.residual.len(), 1);
        assert_eq!(r.probes.len(), 1);
        // bits covers only the indexable clause.
        assert_eq!(r.bits, oracle(&block, &parse_expr("c3 < 5").unwrap()));
    }

    #[test]
    fn disabled_cache_scans_everything() {
        let block = test_block();
        let cnf = to_cnf(&parse_expr("c2 > 5 AND c3 = 2").unwrap());
        let r1 = evaluate_cnf(None, &block, &cnf, SimInstant(0)).unwrap();
        let r2 = evaluate_cnf(None, &block, &cnf, SimInstant(1)).unwrap();
        assert!(r1.probes.iter().all(|(_, k)| *k == ProbeKind::Scanned));
        assert!(r2.probes.iter().all(|(_, k)| *k == ProbeKind::Scanned));
        assert_eq!(r1.bits, r2.bits);
    }

    #[test]
    fn count_star_served_from_index_only() {
        // An aggregation like the paper's Q1 needs only the bit count.
        let block = test_block();
        let m = manager();
        let expr = parse_expr("c2 > 0 AND c2 <= 5").unwrap();
        let cnf = to_cnf(&expr);
        evaluate_cnf(Some(&m), &block, &cnf, SimInstant(0)).unwrap();
        let r = evaluate_cnf(Some(&m), &block, &cnf, SimInstant(1)).unwrap();
        assert_eq!(r.bits.count_ones(), oracle(&block, &expr).count_ones());
        let in_memory =
            |(_, k): &(_, ProbeKind)| matches!(k, ProbeKind::Hit | ProbeKind::NegatedHit);
        assert!(r.probes.iter().all(in_memory), "all in-memory");
    }
}
