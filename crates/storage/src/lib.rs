//! Heterogeneous storage substrate.
//!
//! Baidu's data lives on several *independent* storage systems (paper
//! §II): log data on online machines' local file systems, business data
//! on HDFS, archival data on the Fatman cold store, labeled data in
//! key-value stores. Feisu never copies them into one warehouse; instead
//! its common storage layer (§III-C) routes unified paths
//! (`/hdfs/...`, `/ffs/...`, `/kv/...`, local by default) to per-domain
//! plugins and maps one sign-on to per-domain credentials (§V-A).
//!
//! The four systems are one [`Domain`] type with four placement policies:
//! a replicated object store against the simulated cluster whose
//! instances differ in where replicas go, which medium serves a read and a
//! fixed wake-up penalty. Reads pick the live replica nearest by hop
//! distance and report what served each chunk; the leaf's bill prices
//! them.

pub mod auth;
pub mod cache;
pub mod domain;
pub mod footers;
pub mod router;

pub use auth::{AuthService, Credential, Grant};
pub use bytes::Bytes;
pub use cache::{CacheHit, CacheStats, CacheTier, CacheTierRow, Offer, TieredCache};
pub use domain::{Domain, ReadResult};
pub use footers::FooterCache;
pub use router::{BlockRead, StorageRouter};
