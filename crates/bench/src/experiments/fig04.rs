//! Figure 4 — number of repeatedly accessed (identical) columns per time
//! span, computed over a synthetic two-month trace matched to §IV-A.
//!
//! Paper shape: the count grows as the span widens (0.5 h → 8 h), showing
//! a small hot column set.

use super::{analysis_trace, rising, shape, SPANS};
use crate::report::Table;
use feisu_common::Result;
use feisu_workload::analyze::identical_columns_per_span;

pub fn run() -> Result<Table> {
    let trace = analysis_trace(20_000, 60);
    let counts: Vec<f64> = SPANS
        .iter()
        .map(|(_, span)| identical_columns_per_span(&trace, *span))
        .collect();
    shape(
        rising(&counts),
        "Fig. 4: identical columns grow with the span",
    )?;
    let rows = SPANS
        .iter()
        .zip(&counts)
        .map(|((label, _), n)| vec![label.to_string(), format!("{n:.2}")])
        .collect();
    Ok(Table::new(
        "Fig. 4: identical columns accessed per time span",
        &["span", "identical columns"],
        rows,
        "Asserted shape: the count grows with every wider span (paper Fig. 4).".into(),
    ))
}
