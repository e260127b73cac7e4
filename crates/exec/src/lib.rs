//! Feisu's query execution engine.
//!
//! Physical operators over columnar [`batch::RecordBatch`]es:
//!
//! * [`expr`] — expression evaluation against batches, with typed fast
//!   paths for the comparison predicates that dominate the workload;
//! * [`ops`] — filter / project / limit and bitmap-selected scans;
//! * [`keys`] — the columnar key layer under the next three: key columns
//!   to dense group ids, row hashes and typed row orders;
//! * [`aggregate`] — hash aggregation with *mergeable partial states*,
//!   the mechanism leaf servers use to pre-aggregate and stem servers to
//!   combine ("results are summarized in a bottom-up way", §III-B);
//! * [`join`] — hash equi-joins (inner/left/right) and cross join;
//! * [`sort`] — multi-key sort with top-N (fetch) support;
//! * [`executor`] — drives a `feisu-sql` logical plan over a pluggable
//!   [`executor::ScanProvider`], used both by the distributed engine in
//!   `feisu-core` and standalone by tests (with [`executor::MemProvider`]
//!   as the in-memory oracle backend);
//! * [`physical`], [`reorder`], [`eager`] and [`estimate`] — lowering a
//!   logical plan to the physical plan the engine runs: the join order and
//!   the split of an aggregate around a join are cost-based, priced by
//!   one plan-time estimator.

pub mod aggregate;
pub mod batch;
pub mod eager;
pub mod estimate;
pub mod executor;
pub mod expr;
pub mod join;
pub mod keys;
pub mod ops;
pub mod physical;
pub mod reorder;
pub mod sort;

pub use batch::RecordBatch;
pub use executor::{execute, MemProvider, ScanProvider};
