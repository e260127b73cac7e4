//! Shared foundation types for the Feisu workspace.
//!
//! This crate holds the small, dependency-free vocabulary used by every
//! other Feisu crate: error types, strongly-typed identifiers, byte/time
//! units, a deterministic random-number generator, and a fast non-DoS-safe
//! hasher used for internal hash tables.

pub mod config;
pub mod error;
pub mod hash;
pub mod ids;
pub mod lru;
pub mod rng;
pub mod units;

pub use error::{FeisuError, Result};
pub use ids::{BlockId, DomainId, NodeId, QueryId, TaskId, UserId};
pub use units::{ByteSize, SimDuration, SimInstant};
