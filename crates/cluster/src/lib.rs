//! Simulated cluster substrate.
//!
//! The paper evaluates Feisu on a 4,000-node production cluster (§VI-A).
//! This crate replaces that hardware with a deterministic simulation that
//! preserves everything the evaluation measures. It is only the substrate;
//! what the master knows of each worker (heartbeats, failures, resource
//! agreements) lives in `feisu-core::master::nodes`.
//!
//! * [`simclock`] — a shared simulated clock; all performance accounting
//!   is in simulated nanoseconds, making benchmarks machine-independent;
//! * [`cost`] — a calibrated cost model for HDD/SSD/memory/network I/O and
//!   CPU work, matching the paper's hardware (1 Gbps Ethernet, SATA
//!   disks, one SSD per node);
//! * [`topology`] — data centers, racks and nodes, with hop-distance
//!   computation used by locality-aware scheduling.

pub mod cost;
pub mod simclock;
pub mod topology;

pub use cost::{CostModel, StorageMedium};
pub use simclock::SimClock;
pub use topology::{NodeInfo, Topology};
