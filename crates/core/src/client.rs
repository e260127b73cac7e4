//! The client layer (paper §III-C).
//!
//! "The client-end is a versatile component … It has two major
//! functionalities: query syntax checking and access right verification…
//! The client-end also collects user query histories to personalize data
//! indexing and caching… collection on the client side is used for
//! SmartIndex to build private index for specific users or user groups."
//!
//! The history *is* the bounded query event log (`system.queries`): it
//! already keeps user, SQL text and admission time per statement, so
//! personalization derives what it needs from a log snapshot on demand
//! instead of keeping a second per-query record.

use crate::event_log::QueryEvent;
use feisu_common::hash::FxHashMap;
use feisu_common::{Result, SimDuration, SimInstant, UserId};
use feisu_sql::ast::Query;
use feisu_sql::cnf::{to_cnf, SimplePredicate};
use feisu_sql::parser::parse_query;

/// Syntax-checks a statement, returning the parsed query — the client's
/// first responsibility. Errors are parse diagnostics meant to "guide
/// users to write the proper SQL-like query command".
pub fn syntax_check(sql: &str) -> Result<Query> {
    parse_query(sql)
}

/// The user's most frequent simple predicates among the logged
/// statements admitted within `window` of `now` — candidates for pinned
/// private indices. Statements that never parsed carry no predicates.
pub fn frequent_predicates(
    events: &[QueryEvent],
    user: UserId,
    now: SimInstant,
    window: SimDuration,
    top_n: usize,
) -> Vec<(SimplePredicate, usize)> {
    let user = user.to_string();
    let mut counts: FxHashMap<String, (SimplePredicate, usize)> = FxHashMap::default();
    for e in events {
        if e.user != user || now.since(SimInstant(e.admitted_ns)) > window {
            continue;
        }
        let Ok(query) = parse_query(&e.sql) else {
            continue;
        };
        let Some(w) = &query.where_clause else {
            continue;
        };
        for p in to_cnf(w).simple_clauses() {
            counts
                .entry(p.key())
                .and_modify(|(_, n)| *n += 1)
                .or_insert_with(|| (p.clone(), 1));
        }
    }
    let mut v: Vec<(SimplePredicate, usize)> = counts.into_values().collect();
    v.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.key().cmp(&b.0.key())));
    v.truncate(top_n);
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event_log::QueryOutcome;

    fn logged(user: u64, sql: &str, at: SimInstant) -> QueryEvent {
        QueryEvent::terminal(
            0,
            UserId(user).to_string(),
            sql.to_string(),
            QueryOutcome::Completed,
            at.as_nanos(),
        )
    }

    #[test]
    fn syntax_check_guides_users() {
        assert!(syntax_check("SELECT a FROM t").is_ok());
        let err = syntax_check("SELEKT a FROM t").unwrap_err();
        assert!(err.to_string().contains("parse"));
    }

    #[test]
    fn frequent_predicates_ranked_and_windowed() {
        let late = SimInstant::EPOCH + SimDuration::hours(100);
        let log = [
            logged(1, "SELECT a FROM t WHERE b > 5", SimInstant(0)),
            logged(1, "SELECT a FROM t WHERE b > 5", SimInstant(1)),
            logged(1, "SELECT a FROM t WHERE c = 1", SimInstant(2)),
            logged(1, "SELEKT never parsed", SimInstant(3)),
            // Outside the tight window below:
            logged(1, "SELECT a FROM t WHERE d < 9", late),
        ];
        let freq = frequent_predicates(&log, UserId(1), late, SimDuration::hours(100), 10);
        // d < 9 at `late` is in-window; b > 5 twice; c = 1 once.
        assert_eq!(freq.len(), 3);
        assert_eq!(freq[0].1, 2);
        assert_eq!(freq[0].0.column, "b");
        let tight = frequent_predicates(&log, UserId(1), late, SimDuration::secs(1), 10);
        assert_eq!(tight.len(), 1);
        assert_eq!(tight[0].0.column, "d");
    }

    #[test]
    fn per_user_isolation() {
        let log = [logged(1, "SELECT a FROM t WHERE b > 1", SimInstant(0))];
        let of =
            |user| frequent_predicates(&log, UserId(user), SimInstant(0), SimDuration::hours(1), 5);
        assert_eq!(of(1).len(), 1);
        assert!(of(2).is_empty());
    }
}
