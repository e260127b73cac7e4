//! Figure 8 — keyword frequency over a three-month query log (§VI-A).
//!
//! Paper shape: scans (SELECT/WHERE, aggregations) dominate at >99%;
//! joins are rare. This motivates optimizing the scan path (SmartIndex).

use super::{analysis_trace, shape};
use crate::report::Table;
use feisu_common::Result;
use feisu_workload::analyze::{keyword_frequency, scan_family_ratio};

pub fn run() -> Result<Table> {
    let trace = analysis_trace(30_000, 90);
    let scans = scan_family_ratio(&trace);
    shape(scans > 0.99, "Fig. 8: scans are more than 99% of the log")?;
    let rows = keyword_frequency(&trace)
        .into_iter()
        .filter(|(_, f)| *f > 0.0)
        .map(|(kw, f)| vec![kw, format!("{:.2}%", f * 100.0)])
        .collect();
    Ok(Table::new(
        "Fig. 8: keyword frequency (3-month trace)",
        &["keyword", "frequency"],
        rows,
        format!(
            "Scan-family (non-join) queries: {:.2}% — asserted above the paper's 99%.",
            scans * 100.0
        ),
    ))
}
