//! The answer check: sampled engine answers against the single-process
//! oracle `feisu_exec::executor::run_sql` over the same rows.

use crate::run::KeepForCheck;
use crate::setup::OracleTables;
use crate::workloads::{Plan, Step, COUNT_ALL};
use feisu_common::Result;
use feisu_exec::batch::RecordBatch;
use feisu_exec::executor::{run_sql, MemProvider};
use feisu_format::Value;
use std::cmp::Ordering;

#[derive(Default)]
pub struct CheckReport {
    pub compared: usize,
    pub mismatches: Vec<String>,
}

fn values_match(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Null, Value::Null) => true,
        (Value::Int64(x), Value::Int64(y)) => x == y,
        (Value::Bool(x), Value::Bool(y)) => x == y,
        (Value::Utf8(x), Value::Utf8(y)) => x == y,
        // Floats (and an int on one side of a float) at 1e-9 relative.
        _ => match (a.as_f64(), b.as_f64()) {
            (Some(x), Some(y)) => x == y || (x - y).abs() <= 1e-9 * x.abs().max(y.abs()),
            _ => false,
        },
    }
}

fn rows_of(batch: &RecordBatch) -> Vec<Vec<Value>> {
    (0..batch.rows()).map(|r| batch.row(r)).collect()
}

fn row_order(a: &[Value], b: &[Value]) -> Ordering {
    a.iter()
        .zip(b)
        .map(|(x, y)| x.total_cmp(y))
        .find(|o| o.is_ne())
        .unwrap_or(Ordering::Equal)
}

/// Ordered comparison where the statement has ORDER BY, row multiset
/// otherwise.
pub fn same_answer(
    engine: &RecordBatch,
    oracle: &RecordBatch,
    ordered: bool,
) -> std::result::Result<(), String> {
    if engine.rows() != oracle.rows() || engine.columns().len() != oracle.columns().len() {
        return Err(format!(
            "shape {}x{} vs oracle {}x{}",
            engine.rows(),
            engine.columns().len(),
            oracle.rows(),
            oracle.columns().len()
        ));
    }
    let (mut e, mut o) = (rows_of(engine), rows_of(oracle));
    if !ordered {
        e.sort_by(|a, b| row_order(a, b));
        o.sort_by(|a, b| row_order(a, b));
    }
    for (i, (re, ro)) in e.iter().zip(&o).enumerate() {
        if !re.iter().zip(ro).all(|(a, b)| values_match(a, b)) {
            return Err(format!("row {i}: {re:?} vs oracle {ro:?}"));
        }
    }
    Ok(())
}

/// Replays each client's executed steps against the oracle tables —
/// growing them where the client ingested — and compares every kept
/// answer.
pub fn check(
    plan: &Plan,
    mut oracle: OracleTables,
    kept: Vec<(KeepForCheck, usize)>,
) -> Result<CheckReport> {
    let mut report = CheckReport::default();
    let mut provider = MemProvider::new();
    let mut dirty = vec![true; plan.tables.len()];
    let mut rows: Vec<usize> = plan.tables.iter().map(|t| t.preload_rows).collect();
    for (client, (keep, steps_done)) in kept.into_iter().enumerate() {
        let mut kept = keep.kept.into_iter().peekable();
        let mut scalars = keep.scalars.into_iter().peekable();
        for (i, step) in plan.clients[client].iter().enumerate().take(steps_done) {
            match step {
                Step::Ingest {
                    table,
                    start,
                    rows: n,
                } => {
                    let def = &plan.tables[*table];
                    oracle.append(*table, &def.source.schema(), &def.source.chunk(*start, *n));
                    dirty[*table] = true;
                    rows[*table] += n;
                }
                Step::Rewrite { .. } => {}
                Step::Query { sql, .. } => {
                    let scalar = scalars.next_if(|(s, _)| *s == i).map(|(_, v)| v);
                    if sql == COUNT_ALL {
                        report.compared += 1;
                        if scalar != Some(rows[0] as i64) {
                            report.mismatches.push(format!(
                                "step {i}: `{sql}` = {scalar:?}, {} rows ingested",
                                rows[0]
                            ));
                        }
                    }
                    let Some((_, answer)) = kept.next_if(|(s, _)| *s == i) else {
                        continue;
                    };
                    for (t, d) in dirty.iter_mut().enumerate() {
                        if std::mem::take(d) {
                            provider.insert(plan.tables[t].name.clone(), oracle.batch(t)?);
                        }
                    }
                    report.compared += 1;
                    let expected = run_sql(sql, &mut provider)?;
                    let ordered = sql.contains("ORDER BY");
                    if let Err(why) = same_answer(&answer, &expected, ordered) {
                        report.mismatches.push(format!("step {i}: `{sql}`: {why}"));
                    }
                }
            }
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use feisu_format::{Column, DataType, Field, Schema};

    fn batch(ints: Vec<i64>, floats: Vec<f64>) -> RecordBatch {
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int64, false),
            Field::new("x", DataType::Float64, false),
        ]);
        RecordBatch::new(
            schema,
            vec![Column::from_i64(ints), Column::from_f64(floats)],
        )
        .unwrap()
    }

    #[test]
    fn multiset_ignores_order_and_float_noise() {
        let a = batch(vec![1, 2, 3], vec![0.1 + 0.2, 5.0, 7.0]);
        let b = batch(vec![3, 1, 2], vec![7.0, 0.3, 5.0]);
        assert!(same_answer(&a, &b, false).is_ok());
        assert!(same_answer(&a, &b, true).is_err());
    }

    #[test]
    fn detects_a_wrong_cell_and_a_wrong_shape() {
        let a = batch(vec![1, 2], vec![1.0, 2.0]);
        assert!(same_answer(&a, &batch(vec![1, 2], vec![1.0, 2.001]), false).is_err());
        assert!(same_answer(&a, &batch(vec![1], vec![1.0]), false).is_err());
    }
}
