//! The master services (paper §III-C).
//!
//! "The Feisu's master is a key service and is built with the following
//! main components": the [`job_manager`] (query jobs, identical-task
//! result reuse), the cluster manager ([`nodes`]: heartbeats, failure and
//! straggler marks and resource agreements, one record per worker), the
//! [`scheduler`] (locality/network/load-aware task placement) and the
//! [`guard`] (entry point: access-flow security checks and capability
//! protection). They are separate modules exactly because the production
//! system had to split them into independently scalable services (§VII).

pub(crate) mod assembly;
pub mod guard;
pub mod job_manager;
pub(crate) mod merge_tree;
pub(crate) mod nodes;
pub(crate) mod pipeline;
mod pool;
pub(crate) mod scan_exec;
pub mod scheduler;
pub mod session;

pub use guard::{AdmissionPermit, EntryGuard};
pub use job_manager::JobManager;
pub use scheduler::Scheduler;
pub use session::QuerySession;
