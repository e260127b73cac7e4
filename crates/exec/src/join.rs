//! Join operators: hash equi-join (inner / left / right outer) and
//! nested-loop cross join, with residual non-equi conditions.

use crate::batch::RecordBatch;
use crate::expr::fit;
use crate::keys::{hash_rows, key_column, GroupKeys, ABSENT};
use feisu_common::{FeisuError, Result};
use feisu_format::{Column, Schema, Value};
use feisu_sql::ast::{BinaryOp, Expr, JoinKind};
use feisu_sql::eval::eval_truth;
use std::borrow::Cow;

/// One equi-join condition split by side.
struct EquiPair {
    left: Expr,
    right: Expr,
}

/// Splits ON conditions into equi pairs (hashable) and residual
/// conditions (evaluated on candidate pairs).
fn split_conditions(
    on: &[Expr],
    left_schema: &Schema,
    right_schema: &Schema,
) -> (Vec<EquiPair>, Vec<Expr>) {
    let mut pairs = Vec::new();
    let mut residual = Vec::new();
    for cond in on {
        if let Expr::Binary {
            op: BinaryOp::Eq,
            left,
            right,
        } = cond
        {
            let l_side = side_of(left, left_schema, right_schema);
            let r_side = side_of(right, left_schema, right_schema);
            match (l_side, r_side) {
                (Some(true), Some(false)) => {
                    pairs.push(EquiPair {
                        left: (**left).clone(),
                        right: (**right).clone(),
                    });
                    continue;
                }
                (Some(false), Some(true)) => {
                    pairs.push(EquiPair {
                        left: (**right).clone(),
                        right: (**left).clone(),
                    });
                    continue;
                }
                _ => {}
            }
        }
        residual.push(cond.clone());
    }
    (pairs, residual)
}

/// `Some(true)` = references only left columns, `Some(false)` = only
/// right, `None` = mixed/none.
fn side_of(e: &Expr, left: &Schema, right: &Schema) -> Option<bool> {
    let mut cols = Vec::new();
    e.columns(&mut cols);
    if cols.is_empty() {
        return None;
    }
    if cols.iter().all(|c| left.index_of(c).is_some()) {
        Some(true)
    } else if cols.iter().all(|c| right.index_of(c).is_some()) {
        Some(false)
    } else {
        None
    }
}

/// Executes a join; both inputs are fully materialized (Feisu's dimension
/// tables in star queries are small by construction).
pub fn join(
    left: &RecordBatch,
    right: &RecordBatch,
    kind: JoinKind,
    on: &[Expr],
    output_schema: &Schema,
) -> Result<RecordBatch> {
    match kind {
        JoinKind::Cross => {
            if !on.is_empty() {
                return Err(FeisuError::Execution("CROSS JOIN takes no ON".into()));
            }
            cross_join(left, right, output_schema)
        }
        _ => hash_join(left, right, kind, on, output_schema),
    }
}

fn cross_join(
    left: &RecordBatch,
    right: &RecordBatch,
    output_schema: &Schema,
) -> Result<RecordBatch> {
    let too_large = || {
        let (l, r) = (left.rows(), right.rows());
        FeisuError::Execution(format!("CROSS JOIN of {l} x {r} rows is too large"))
    };
    let pairs = left
        .rows()
        .checked_mul(right.rows())
        .ok_or_else(too_large)?;
    let (mut left_idx, mut right_idx) = (Vec::new(), Vec::new());
    for idx in [&mut left_idx, &mut right_idx] {
        idx.try_reserve_exact(pairs).map_err(|_| too_large())?;
    }
    for l in 0..left.rows() {
        for r in 0..right.rows() {
            left_idx.push(l);
            right_idx.push(r);
        }
    }
    assemble(left, right, &left_idx, &right_idx, &[], &[], output_schema)
}

/// One side's key columns and, per row, the hash and whether any key is
/// NULL (SQL join semantics: NULL keys never match).
struct SideKeys<'a> {
    cols: Vec<Cow<'a, Column>>,
    hashes: Vec<u64>,
    /// Rows whose keys are all non-NULL.
    rows: Vec<usize>,
}

impl<'a> SideKeys<'a> {
    fn new(batch: &'a RecordBatch, exprs: impl Iterator<Item = &'a Expr>) -> Result<Self> {
        let cols = exprs
            .map(|e| key_column(batch, e, None))
            .collect::<Result<Vec<_>>>()?;
        let refs: Vec<&Column> = cols.iter().map(Cow::as_ref).collect();
        let hashes = hash_rows(&refs, batch.rows());
        let rows = (0..batch.rows())
            .filter(|&i| refs.iter().all(|c| c.validity().is_valid(i)))
            .collect();
        Ok(SideKeys { cols, hashes, rows })
    }

    fn refs(&self) -> Vec<&Column> {
        self.cols.iter().map(Cow::as_ref).collect()
    }
}

const END: usize = usize::MAX;

fn hash_join(
    left: &RecordBatch,
    right: &RecordBatch,
    kind: JoinKind,
    on: &[Expr],
    output_schema: &Schema,
) -> Result<RecordBatch> {
    let (pairs, residual) = split_conditions(on, left.schema(), right.schema());
    if pairs.is_empty() {
        return Err(FeisuError::Execution(
            "join requires at least one equi condition (use CROSS JOIN otherwise)".into(),
        ));
    }
    let build = SideKeys::new(right, pairs.iter().map(|p| &p.right))?;
    let probe = SideKeys::new(left, pairs.iter().map(|p| &p.left))?;
    let (build_cols, probe_cols) = (build.refs(), probe.refs());

    // Build side: group the right rows by key; each group chains its rows
    // in input order (`head[group]` → `next[row]` → ... → END).
    let mut keys = GroupKeys::new(build_cols.iter().map(|c| c.data_type()));
    let ids = keys.ids(&build_cols, &build.hashes, &build.rows, true)?;
    let mut head = vec![END; keys.len()];
    let mut tail = vec![END; keys.len()];
    let mut next = vec![END; right.rows()];
    for (&r, &g) in build.rows.iter().zip(&ids) {
        match std::mem::replace(&mut tail[g as usize], r) {
            END => head[g as usize] = r,
            prev => next[prev] = r,
        }
    }

    // Probe side. Keys of different types never compare equal
    // (`Int64(1) != Float64(1.0)`), so such a join matches nothing.
    let mut group_of = vec![ABSENT; left.rows()];
    if build_cols
        .iter()
        .map(|c| c.data_type())
        .eq(probe_cols.iter().map(|c| c.data_type()))
    {
        let ids = keys.ids(&probe_cols, &probe.hashes, &probe.rows, false)?;
        for (&l, &g) in probe.rows.iter().zip(&ids) {
            group_of[l] = g;
        }
    }
    let mut left_idx: Vec<usize> = Vec::new();
    let mut right_idx: Vec<usize> = Vec::new();
    let mut left_unmatched: Vec<usize> = Vec::new();
    let mut right_matched = vec![false; right.rows()];
    for (l, &g) in group_of.iter().enumerate() {
        let mut matched = false;
        let mut r = if g == ABSENT { END } else { head[g as usize] };
        while r != END {
            if residual_passes(&residual, left, l, right, r)? {
                left_idx.push(l);
                right_idx.push(r);
                right_matched[r] = true;
                matched = true;
            }
            r = next[r];
        }
        if !matched {
            left_unmatched.push(l);
        }
    }
    let (null_left, null_right): (Vec<usize>, Vec<usize>) = match kind {
        JoinKind::Inner => (Vec::new(), Vec::new()),
        JoinKind::LeftOuter => (left_unmatched, Vec::new()),
        JoinKind::RightOuter => (
            Vec::new(),
            right_matched
                .iter()
                .enumerate()
                .filter(|(_, m)| !**m)
                .map(|(i, _)| i)
                .collect(),
        ),
        JoinKind::Cross => unreachable!(),
    };
    assemble(
        left,
        right,
        &left_idx,
        &right_idx,
        &null_left,
        &null_right,
        output_schema,
    )
}

/// Evaluates residual conditions against one candidate row pair. Column
/// lookups try the left row first, then the right (schemas are
/// qualified, so names are disjoint).
fn residual_passes(
    residual: &[Expr],
    left: &RecordBatch,
    l: usize,
    right: &RecordBatch,
    r: usize,
) -> Result<bool> {
    if residual.is_empty() {
        return Ok(true);
    }
    let ctx = |name: &str| -> Option<Value> {
        left.value_at(l, name).or_else(|| right.value_at(r, name))
    };
    for cond in residual {
        if !eval_truth(cond, &ctx)?.passes() {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Builds the output batch from matched index pairs plus null-extended
/// unmatched rows, gathering column by column.
#[allow(clippy::too_many_arguments)]
fn assemble(
    left: &RecordBatch,
    right: &RecordBatch,
    left_idx: &[usize],
    right_idx: &[usize],
    null_left: &[usize],  // left rows with null right side
    null_right: &[usize], // right rows with null left side
    output_schema: &Schema,
) -> Result<RecordBatch> {
    // Output rows: the matched pairs, then `null_left`, then `null_right`.
    let nulls = |c: &Column, n: usize| {
        Column::from_values(c.data_type(), &vec![Value::Null; n]).expect("NULLs fit any type")
    };
    let left_rows = [left_idx, null_left].concat();
    let left_cols = left.columns().iter().map(|c| -> Result<Column> {
        let mut out = c.try_take(&left_rows)?;
        out.try_append(&nulls(c, null_right.len()))?;
        Ok(out)
    });
    let right_cols = right.columns().iter().map(|c| -> Result<Column> {
        let mut out = c.try_take(right_idx)?;
        out.try_append(&nulls(c, null_left.len()))?;
        out.try_append(&c.try_take(null_right)?)?;
        Ok(out)
    });
    let columns: Vec<Column> = left_cols
        .chain(right_cols)
        .zip(output_schema.fields())
        .map(|(c, f)| fit(Cow::Owned(c?), f.data_type))
        .collect::<Result<_>>()?;
    RecordBatch::new(output_schema.clone(), columns)
}

#[cfg(test)]
mod tests {
    use super::*;
    use feisu_format::{DataType, Field};
    use feisu_sql::parser::parse_expr;

    fn left() -> RecordBatch {
        let schema = Schema::new(vec![
            Field::new("t1.k", DataType::Int64, true),
            Field::new("t1.v", DataType::Utf8, false),
        ]);
        RecordBatch::new(
            schema,
            vec![
                Column::from_values(
                    DataType::Int64,
                    &[
                        Value::Int64(1),
                        Value::Int64(2),
                        Value::Null,
                        Value::Int64(4),
                    ],
                )
                .unwrap(),
                Column::from_utf8(vec!["a".into(), "b".into(), "c".into(), "d".into()]),
            ],
        )
        .unwrap()
    }

    fn right() -> RecordBatch {
        let schema = Schema::new(vec![
            Field::new("t2.k", DataType::Int64, true),
            Field::new("t2.w", DataType::Int64, false),
        ]);
        RecordBatch::new(
            schema,
            vec![
                Column::from_values(
                    DataType::Int64,
                    &[
                        Value::Int64(1),
                        Value::Int64(1),
                        Value::Int64(3),
                        Value::Null,
                    ],
                )
                .unwrap(),
                Column::from_i64(vec![10, 11, 30, 99]),
            ],
        )
        .unwrap()
    }

    fn out_schema() -> Schema {
        left().schema().join(right().schema())
    }

    fn on() -> Vec<Expr> {
        vec![parse_expr("t1.k = t2.k").unwrap()]
    }

    #[test]
    fn inner_join_matches() {
        let out = join(&left(), &right(), JoinKind::Inner, &on(), &out_schema()).unwrap();
        // k=1 matches two right rows; k=2,4 no match; null never matches.
        assert_eq!(out.rows(), 2);
        let ws: Vec<Value> = (0..2).map(|i| out.value_at(i, "t2.w").unwrap()).collect();
        assert!(ws.contains(&Value::Int64(10)) && ws.contains(&Value::Int64(11)));
    }

    #[test]
    fn left_outer_extends_unmatched() {
        let out = join(&left(), &right(), JoinKind::LeftOuter, &on(), &out_schema()).unwrap();
        // 2 matches + 3 unmatched left rows (k=2, null, k=4).
        assert_eq!(out.rows(), 5);
        let null_count = (0..out.rows())
            .filter(|&i| out.value_at(i, "t2.w") == Some(Value::Null))
            .count();
        assert_eq!(null_count, 3);
    }

    #[test]
    fn right_outer_extends_unmatched() {
        let out = join(
            &left(),
            &right(),
            JoinKind::RightOuter,
            &on(),
            &out_schema(),
        )
        .unwrap();
        // 2 matches + 2 unmatched right rows (k=3, null).
        assert_eq!(out.rows(), 4);
        let null_count = (0..out.rows())
            .filter(|&i| out.value_at(i, "t1.v") == Some(Value::Null))
            .count();
        assert_eq!(null_count, 2);
    }

    #[test]
    fn residual_condition_filters_pairs() {
        let on = vec![
            parse_expr("t1.k = t2.k").unwrap(),
            parse_expr("t2.w > 10").unwrap(),
        ];
        let out = join(&left(), &right(), JoinKind::Inner, &on, &out_schema()).unwrap();
        assert_eq!(out.rows(), 1);
        assert_eq!(out.value_at(0, "t2.w"), Some(Value::Int64(11)));
    }

    #[test]
    fn cross_join_product() {
        let out = join(&left(), &right(), JoinKind::Cross, &[], &out_schema()).unwrap();
        assert_eq!(out.rows(), 16);
    }

    #[test]
    fn oversized_cross_join_is_an_error_not_an_abort() {
        // 2^24 x 2^24 pairs: two index vectors of 2^51 bytes cannot exist.
        let rows = 1usize << 24;
        let schema = Schema::new(vec![Field::new("t.b", DataType::Bool, false)]);
        let big = RecordBatch::new(schema, vec![Column::from_bool(vec![false; rows])]).unwrap();
        let out = big.schema().join(big.schema());
        let err = join(&big, &big, JoinKind::Cross, &[], &out).unwrap_err();
        assert!(
            matches!(&err, FeisuError::Execution(m) if m.contains("too large")),
            "{err:?}"
        );
    }

    #[test]
    fn non_equi_only_join_rejected() {
        let on = vec![parse_expr("t1.k > t2.k").unwrap()];
        assert!(join(&left(), &right(), JoinKind::Inner, &on, &out_schema()).is_err());
    }

    #[test]
    fn empty_inputs() {
        let l = RecordBatch::empty(left().schema().clone());
        let out = join(&l, &right(), JoinKind::Inner, &on(), &out_schema()).unwrap();
        assert_eq!(out.rows(), 0);
        let out = join(&l, &right(), JoinKind::RightOuter, &on(), &out_schema()).unwrap();
        assert_eq!(out.rows(), 4, "all right rows null-extended");
    }
}
