//! Feisu — the engine (paper §III).
//!
//! This crate assembles every substrate into the system the paper
//! describes: a master / stem / leaf execution tree over heterogeneous
//! storage domains, with SmartIndex-accelerated scans at the leaves.
//!
//! The public entry point is [`engine::FeisuCluster`]:
//!
//! ```
//! use feisu_core::engine::{ClusterSpec, FeisuCluster};
//! use feisu_format::{DataType, Field, Schema, Value};
//!
//! let cluster = FeisuCluster::new(ClusterSpec::small()).unwrap();
//! let admin = cluster.register_user("admin");
//! cluster.grant_all(admin);
//! let cred = cluster.login(admin).unwrap();
//!
//! let schema = Schema::new(vec![
//!     Field::new("url", DataType::Utf8, false),
//!     Field::new("clicks", DataType::Int64, false),
//! ]);
//! cluster.create_table("t", schema, "/hdfs/t", &cred).unwrap();
//! cluster
//!     .ingest_rows(
//!         "t",
//!         vec![
//!             vec![Value::from("a.com"), Value::from(3i64)],
//!             vec![Value::from("b.com"), Value::from(9i64)],
//!         ],
//!         &cred,
//!     )
//!     .unwrap();
//!
//! let result = cluster.query("SELECT url FROM t WHERE clicks > 5", &cred).unwrap();
//! assert_eq!(result.batch.rows(), 1);
//! ```

pub mod catalog;
pub mod client;
pub mod engine;
pub mod event_log;
pub mod leaf;
pub mod master;
pub mod stem;
pub mod system;
mod window;

pub use engine::{ClusterSpec, FeisuCluster, QueryResult, QueryStats};
