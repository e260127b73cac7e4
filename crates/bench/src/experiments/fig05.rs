//! Figure 5 — ratio of queries that share at least one exact predicate
//! with another query in the same time span.
//!
//! Paper shape: a large fraction even at short spans, growing with span.

use super::{analysis_trace, rising, shape, SPANS};
use crate::report::Table;
use feisu_common::Result;
use feisu_workload::analyze::predicate_similarity_ratio;

pub fn run() -> Result<Table> {
    let trace = analysis_trace(20_000, 60);
    let ratios: Vec<f64> = SPANS
        .iter()
        .map(|(_, span)| predicate_similarity_ratio(&trace, *span))
        .collect();
    shape(
        rising(&ratios),
        "Fig. 5: predicate sharing grows with the span",
    )?;
    let rows = SPANS
        .iter()
        .zip(&ratios)
        .map(|((label, _), r)| vec![label.to_string(), format!("{:.1}%", r * 100.0)])
        .collect();
    Ok(Table::new(
        "Fig. 5: queries sharing >=1 exact predicate, per time span",
        &["span", "ratio"],
        rows,
        "Asserted shape: the ratio grows with every wider span (paper Fig. 5).".into(),
    ))
}
