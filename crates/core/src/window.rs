//! The `kind = 'window'` rows of `system.metrics`: "QPS and tail latency
//! *right now*", folded from the query event log when the table is read.
//!
//! A query is in the window when it returned a result (completed or
//! partial) and finished — `admitted_ns + response_ns` — inside
//! `(now − 60 s, now]` of simulated time. Membership is decided by each
//! event's own instants and quantiles are taken over sorted values, so
//! the rows do not depend on the order concurrent clients logged their
//! queries. The window reaches back only as far as the log does
//! (`query_log_capacity` events).

use crate::event_log::{QueryEvent, QueryOutcome};
use feisu_common::{SimDuration, SimInstant};
use feisu_format::Value;

/// The trailing span of simulated time the rows cover.
const WINDOW: SimDuration = SimDuration::secs(60);

/// A series' name and the value each query adds to it.
type Series = (&'static str, fn(&QueryEvent) -> u64);

/// The series, name-sorted.
const SERIES: [Series; 3] = [
    ("feisu.query.bytes_on_wire", |e| {
        let s = &e.stats;
        (s.wire_leaf_stem + s.wire_rack_dc + s.wire_stem_master).0
    }),
    ("feisu.query.bytes_scanned", |e| e.stats.bytes_read.0),
    ("feisu.query.response_ns", |e| e.response_ns),
];

/// One `system.metrics` row per series as of `now`: `value` is the
/// maximum, then the count, nearest-rank p50/p95/p99 and `count / 60 s`.
/// No rows when no query finished in the window.
pub(crate) fn rows(events: &[QueryEvent], now: SimInstant) -> Vec<Vec<Value>> {
    let end = now.as_nanos();
    let start = end.saturating_sub(WINDOW.as_nanos());
    let finished: Vec<&QueryEvent> = events
        .iter()
        .filter(|e| matches!(e.outcome, QueryOutcome::Completed | QueryOutcome::Partial))
        .filter(|e| (start + 1..=end).contains(&(e.admitted_ns + e.response_ns)))
        .collect();
    if finished.is_empty() {
        return Vec::new();
    }
    let count = finished.len();
    SERIES
        .iter()
        .map(|(name, value_of)| {
            let mut values: Vec<u64> = finished.iter().map(|e| value_of(e)).collect();
            values.sort_unstable();
            // Nearest rank on the sorted values: exact, not interpolated.
            let q =
                |q: f64| values[((q * count as f64).ceil() as usize).clamp(1, count) - 1] as i64;
            vec![
                Value::Utf8(name.to_string()),
                Value::Utf8("window".into()),
                Value::Float64(values[count - 1] as f64),
                Value::Int64(count as i64),
                Value::Int64(q(0.50)),
                Value::Int64(q(0.95)),
                Value::Int64(q(0.99)),
                Value::Float64(count as f64 / WINDOW.as_secs_f64()),
            ]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use feisu_common::ByteSize;

    /// A completed query that finished at `at_ns` after `response_ns`,
    /// having scanned `value` bytes and shipped `value` bytes per leg.
    fn done(at_ns: u64, response_ns: u64, value: u64) -> QueryEvent {
        let mut e = QueryEvent::terminal(
            0,
            "user-1".into(),
            "SELECT 1".into(),
            QueryOutcome::Completed,
            at_ns - response_ns,
        );
        e.response_ns = response_ns;
        e.stats.bytes_read = ByteSize(value);
        e.stats.wire_leaf_stem = ByteSize(value);
        e.stats.wire_stem_master = ByteSize(value);
        e
    }

    /// The row's `value` (maximum), `count`, `p50`, `p95` and `p99`.
    fn figures(max: u64, count: i64, [p50, p95, p99]: [i64; 3]) -> Vec<Value> {
        let ints = [count, p50, p95, p99].map(Value::Int64);
        [Value::Float64(max as f64)]
            .into_iter()
            .chain(ints)
            .collect()
    }

    fn response_row(events: &[QueryEvent], now: SimInstant) -> Vec<Value> {
        let rows = rows(events, now);
        let response = Value::Utf8("feisu.query.response_ns".into());
        rows.into_iter()
            .find(|r| r[0] == response)
            .expect("response row")
    }

    #[test]
    fn window_excludes_old_samples() {
        let secs = |s: u64| s * 1_000_000_000;
        let mut failed = done(secs(70), 0, 0);
        failed.outcome = QueryOutcome::Failed("boom".into());
        let events = [
            done(100, 5, 0),
            done(secs(30), 10, 0),
            done(secs(72), 20, 0),
            failed,
        ];
        // As of t=78s the first query (done at t=100ns) is outside the 60s
        // window, and the failed one never counts.
        let row = response_row(&events, SimInstant(secs(78)));
        assert_eq!(row[2..7], figures(20, 2, [10, 20, 20]));
        assert_eq!(row[7], Value::Float64(2.0 / 60.0));
        // Much later the window is empty again.
        assert!(rows(&events, SimInstant(secs(600))).is_empty());
    }

    #[test]
    fn snapshot_is_insertion_order_insensitive() {
        let mut events: Vec<QueryEvent> = [7, 3, 9, 1].map(|v| done(10 * v, v, v)).into();
        let forward = rows(&events, SimInstant(100));
        events.reverse();
        assert_eq!(forward, rows(&events, SimInstant(100)));
    }

    #[test]
    fn quantiles_use_nearest_rank_on_values() {
        let events: Vec<QueryEvent> = (1..=100u64).map(|v| done(1000 + v, v, v)).collect();
        let row = response_row(&events, SimInstant(10_000));
        assert_eq!(row[2..7], figures(100, 100, [50, 95, 99]));
    }

    #[test]
    fn single_sample_is_every_quantile() {
        let row = response_row(&[done(50, 42, 0)], SimInstant(60));
        assert_eq!(row[2..7], figures(42, 1, [42, 42, 42]));
    }

    #[test]
    fn snapshot_lists_series_name_sorted() {
        let got: Vec<(Value, Value)> = rows(&[done(50, 4, 3)], SimInstant(60))
            .into_iter()
            .map(|r| (r[0].clone(), r[2].clone()))
            .collect();
        let want = [
            ("feisu.query.bytes_on_wire", 6.0),
            ("feisu.query.bytes_scanned", 3.0),
            ("feisu.query.response_ns", 4.0),
        ];
        let want = want.map(|(n, v)| (Value::Utf8(n.into()), Value::Float64(v)));
        assert_eq!(got, want);
    }
}
