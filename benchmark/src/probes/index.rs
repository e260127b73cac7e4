//! `feisu-index`: SmartIndex-backed predicate evaluation over one block.

use super::At;
use feisu_common::{Result, SimInstant};
use feisu_format::Block;
use feisu_index::manager::IndexManager;
use feisu_index::rewrite::{evaluate_cnf, CnfOutcome};
use feisu_sql::cnf::Cnf;

/// Evaluates `cnf` (storage names) the way a leaf does. Work = rows.
pub fn evaluate(
    at: At<'_>,
    index: Option<&IndexManager>,
    block: &Block,
    cnf: &Cnf,
    now: SimInstant,
) -> Result<CnfOutcome> {
    at.time(
        "index.evaluate",
        || evaluate_cnf(index, block, cnf, now),
        |_| block.rows() as u64,
    )
}
