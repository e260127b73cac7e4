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
//! Every backend here is a real implementation against the simulated
//! cluster: replica placement is rack-aware, reads pick the cheapest
//! replica by hop distance, and every byte moved is charged to the
//! deterministic cost model.

pub mod auth;
pub mod cache;
pub mod domain;
pub mod fatman;
pub mod footers;
pub mod hdfs;
pub mod kv;
pub mod localfs;
pub mod router;

pub use auth::{AuthService, Credential, Grant};
pub use bytes::Bytes;
pub use cache::{CacheAttr, CacheHit, CachePin, CacheStats, CacheTier, CacheTierRow, TieredCache};
pub use domain::{ReadResult, StorageDomain};
pub use footers::FooterCache;
pub use router::StorageRouter;
