//! Logical plan optimizer: a staged rule pipeline.
//!
//! The optimizer is a table of independent in-place rules
//! ([`pipeline::RULES`]) run to fixpoint by [`pipeline::run_rules`]:
//! constant folding, 3VL-safe expression simplification, empty-relation
//! pruning (`WHERE FALSE` never schedules a leaf task), predicate pushdown
//! (into scans, through join sides, equality conjuncts promoted to join
//! keys), projection pruning and top-N fusion. [`optimize_with_trace`]
//! additionally reports which rules fired, feeding EXPLAIN and the
//! `feisu.optimizer.*` metrics.
//! Join-order *selection* is not a logical rule: it happens cost-based at
//! lowering time in `feisu-exec`, where the `CostModel` lives.

pub mod pipeline;
pub mod rules;

pub use pipeline::{optimize, optimize_with_trace, run_rules, Rule, RuleFire, RULES};
pub use rules::fold_expr;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::analyze;
    use crate::ast::Expr;
    use crate::parser::{parse_expr, parse_query};
    use crate::plan::{build_plan, LogicalPlan};
    use feisu_format::{DataType, Field, Schema, Value};
    use std::collections::HashMap;

    fn catalog() -> HashMap<String, Schema> {
        let mut m = HashMap::new();
        m.insert(
            "t1".to_string(),
            Schema::new(vec![
                Field::new("url", DataType::Utf8, false),
                Field::new("clicks", DataType::Int64, true),
                Field::new("score", DataType::Float64, false),
                Field::new("day", DataType::Int64, false),
            ]),
        );
        m.insert(
            "t2".to_string(),
            Schema::new(vec![
                Field::new("url", DataType::Utf8, false),
                Field::new("rank", DataType::Int64, false),
            ]),
        );
        m.insert(
            "t3".to_string(),
            Schema::new(vec![
                Field::new("url", DataType::Utf8, false),
                Field::new("v", DataType::Int64, false),
            ]),
        );
        // Widest field first, narrowest (`flag`) in the middle.
        m.insert(
            "w".to_string(),
            Schema::new(vec![
                Field::new("url", DataType::Utf8, false),
                Field::new("c0", DataType::Int64, false),
                Field::new("flag", DataType::Bool, false),
                Field::new("c1", DataType::Float64, false),
            ]),
        );
        m
    }

    /// The projection of every scan in the plan, left to right.
    fn scan_projections(mut plan: LogicalPlan) -> Vec<Vec<String>> {
        fn walk(p: &mut LogicalPlan, out: &mut Vec<Vec<String>>) {
            if let LogicalPlan::Scan { projection, .. } = p {
                out.push(projection.clone());
            }
            p.children_mut().for_each(|c| walk(c, out));
        }
        let mut out = Vec::new();
        walk(&mut plan, &mut out);
        out
    }

    fn optimized(sql: &str) -> LogicalPlan {
        let q = parse_query(sql).unwrap();
        let r = analyze(&q, &catalog()).unwrap();
        optimize(build_plan(&r).unwrap()).unwrap()
    }

    #[test]
    fn constant_folding() {
        assert_eq!(
            fold_expr(parse_expr("1 + 2 * 3").unwrap()),
            Expr::Literal(Value::Int64(7))
        );
        assert_eq!(
            fold_expr(parse_expr("x + (1 + 2)").unwrap()).to_string(),
            "(x + 3)"
        );
        // Errors stay unfolded.
        assert_eq!(
            fold_expr(parse_expr("1 / 0").unwrap()).to_string(),
            "(1 / 0)"
        );
    }

    #[test]
    fn predicate_pushes_into_scan() {
        let p = optimized("SELECT url FROM t1 WHERE clicks > 5 AND score < 0.5");
        let s = p.display_indent();
        // No residual filter; both conjuncts inside the scan.
        assert!(!s.contains("Filter"), "{s}");
        assert!(s.contains("Scan: t1"), "{s}");
        assert!(s.contains("clicks > 5"), "{s}");
        assert!(s.contains("score < 0.5"), "{s}");
    }

    #[test]
    fn pushdown_splits_across_join_sides() {
        let p = optimized(
            "SELECT clicks, rank FROM t1 JOIN t2 ON t1.url = t2.url \
             WHERE t1.clicks > 5 AND t2.rank < 10",
        );
        let s = p.display_indent();
        assert!(!s.contains("Filter"), "{s}");
        // Each side's scan carries its own conjunct.
        assert!(s.contains("filter=(t1.clicks > 5)"), "{s}");
        assert!(s.contains("filter=(t2.rank < 10)"), "{s}");
    }

    #[test]
    fn cross_table_conjunct_stays_in_filter() {
        let p = optimized(
            "SELECT clicks, rank FROM t1 JOIN t2 ON t1.url = t2.url \
             WHERE t1.clicks > t2.rank",
        );
        let s = p.display_indent();
        assert!(s.contains("Filter: (t1.clicks > t2.rank)"), "{s}");
    }

    #[test]
    fn outer_join_blocks_null_side_pushdown() {
        let p = optimized(
            "SELECT t1.clicks FROM t1 LEFT JOIN t2 ON t1.url = t2.url \
             WHERE t2.rank > 0",
        );
        let s = p.display_indent();
        // Pushing into the right side of a LEFT JOIN would be wrong.
        assert!(s.contains("Filter: (t2.rank > 0)"), "{s}");
    }

    #[test]
    fn projection_pruned_to_needed_columns() {
        let p = optimized("SELECT url FROM t1 WHERE clicks > 5");
        // Only url (selected) survives: the scan evaluates its own
        // predicate, so `clicks` is not projected, and day/score are
        // pruned away.
        assert_eq!(scan_projections(p), [["url"]]);
    }

    #[test]
    fn count_star_projects_the_narrowest_column_not_the_first() {
        // COUNT(*) requires no column; the scan keeps one to carry the row
        // count and picks it by `estimated_width` — never `url`, and never
        // the predicate's column, which the scan evaluates itself.
        for sql in [
            "SELECT COUNT(*) FROM w",
            "SELECT COUNT(*) FROM w WHERE c0 > 1",
            "SELECT COUNT(*) AS n FROM w WHERE c0 > 1 AND url = 'a'",
            "SELECT COUNT(*) FROM w WHERE c0 + c1 > 1 LIMIT 1",
        ] {
            assert_eq!(scan_projections(optimized(sql)), [["flag"]], "{sql}");
        }
        // An aggregate that names a column reads that column only.
        let p = optimized("SELECT COUNT(*), MAX(c1) FROM w WHERE c0 > 1");
        assert_eq!(scan_projections(p), [["c1"]]);
    }

    #[test]
    fn count_star_above_a_join_or_a_stuck_filter_keeps_a_column_per_side() {
        // Nothing is required beyond the join key: each side reads it.
        let p = optimized("SELECT COUNT(*) FROM w JOIN t2 ON w.url = t2.url");
        assert_eq!(scan_projections(p), [["url"], ["url"]]);
        // A cross join requires nothing at all: each side falls back to
        // its own narrowest column.
        let p = optimized("SELECT COUNT(*) FROM w, t2");
        assert_eq!(scan_projections(p), [["flag"], ["rank"]]);
        // A filter pushdown cannot sink (null-supplying side of a LEFT
        // JOIN) asks for its own columns on top of the key.
        let p =
            optimized("SELECT COUNT(*) FROM w LEFT JOIN t2 ON w.url = t2.url WHERE t2.rank > 0");
        let s = p.display_indent();
        assert!(s.contains("Filter: (t2.rank > 0)"), "{s}");
        assert_eq!(scan_projections(p), [vec!["url"], vec!["url", "rank"]]);
    }

    #[test]
    fn limit_pushes_fetch_into_sort() {
        let p = optimized("SELECT url FROM t1 ORDER BY clicks DESC LIMIT 7");
        let s = p.display_indent();
        assert!(s.contains("fetch=Some(7)"), "{s}");
    }

    #[test]
    fn where_false_prunes_to_empty() {
        let p = optimized("SELECT url FROM t1 WHERE 1 = 0");
        assert_eq!(p.display_indent(), "Empty\n");
        // The schema of the pruned query is preserved.
        assert_eq!(p.schema().fields().len(), 1);
        assert_eq!(p.schema().field(0).name, "url");
    }

    #[test]
    fn contradiction_after_folding_prunes_to_empty() {
        // Needs folding + simplification before the falsity is visible.
        let p = optimized("SELECT url FROM t1 WHERE clicks > 5 AND 1 + 1 = 3");
        assert_eq!(p.display_indent(), "Empty\n");
    }

    #[test]
    fn global_aggregate_over_empty_still_executes() {
        // COUNT(*) over zero rows must still return its single `0` row.
        let p = optimized("SELECT COUNT(*) AS n FROM t1 WHERE 1 = 0");
        let s = p.display_indent();
        assert!(s.contains("Aggregate"), "{s}");
        assert!(s.contains("Empty"), "{s}");
    }

    #[test]
    fn limit_zero_prunes_to_empty() {
        let p = optimized("SELECT url FROM t1 LIMIT 0");
        assert_eq!(p.display_indent(), "Empty\n");
    }

    #[test]
    fn where_equality_becomes_join_key() {
        // Implicit comma join + WHERE equality → inner hash-join key.
        let p = optimized("SELECT t1.url FROM t1, t2 WHERE t1.url = t2.url");
        let s = p.display_indent();
        assert!(s.contains("Join: Inner on [(t1.url = t2.url)]"), "{s}");
        assert!(!s.contains("Filter"), "{s}");
    }

    #[test]
    fn non_equi_conjunct_pushed_through_join_side() {
        // `t1.clicks > t2.rank` spans only the inner (t1 ⋈ t2) subtree of
        // the three-way join, so it lands as a filter on that side, below
        // the outer join, rather than above the whole tree.
        let p = optimized(
            "SELECT t1.url FROM t1, t2, t3 \
             WHERE t1.url = t2.url AND t2.url = t3.url AND t1.clicks > t2.rank",
        );
        let s = p.display_indent();
        let filter_at = s.find("Filter: (t1.clicks > t2.rank)").expect(&s);
        let join_at = s.find("Join:").expect(&s);
        assert!(
            filter_at > join_at,
            "filter should sit under the outer join:\n{s}"
        );
        assert!(s.contains("on [(t2.url = t3.url)]"), "{s}");
        assert!(s.contains("on [(t1.url = t2.url)]"), "{s}");
    }

    #[test]
    fn trace_records_fired_rules() {
        let q = parse_query("SELECT url FROM t1 WHERE clicks > 2 + 3 LIMIT 4").unwrap();
        let r = analyze(&q, &catalog()).unwrap();
        let (_, trace) = optimize_with_trace(build_plan(&r).unwrap()).unwrap();
        let names: Vec<&str> = trace.iter().map(|f| f.rule).collect();
        assert!(names.contains(&"constant_fold"), "{names:?}");
        assert!(names.contains(&"predicate_pushdown"), "{names:?}");
        assert!(names.contains(&"projection_prune"), "{names:?}");
        assert!(trace.iter().all(|f| f.fires > 0), "{trace:?}");
    }

    #[test]
    fn pipeline_reaches_fixpoint() {
        // Optimizing an already-optimized plan is a no-op (and fires no
        // rules) — the determinism contract depends on this.
        let q = parse_query(
            "SELECT t1.url, SUM(t1.clicks) AS s FROM t1 JOIN t2 ON t1.url = t2.url \
             WHERE t1.day > 3 GROUP BY t1.url ORDER BY s DESC LIMIT 5",
        )
        .unwrap();
        let r = analyze(&q, &catalog()).unwrap();
        let once = optimize(build_plan(&r).unwrap()).unwrap();
        let (twice, trace) = optimize_with_trace(once.clone()).unwrap();
        assert_eq!(once, twice);
        assert!(trace.is_empty(), "{trace:?}");
    }
}
