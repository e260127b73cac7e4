//! SmartIndex — Feisu's adaptive predicate-result index (paper §IV-C).
//!
//! Each SmartIndex is a compressed 0-1 vector storing the evaluation
//! result of one *simple predicate* (`column OP literal`) over one data
//! block, held in leaf-server memory. When a later query's conjunctive
//! form contains the same predicate for the same block, the leaf skips
//! both the data scan and the predicate evaluation — the two cost terms
//! the paper credits for SmartIndex's ≥3× speedup (Fig. 9a).
//!
//! Modules:
//! * [`bitvec`] — the run-length compressed form of the 0-1 vector, the
//!   format's [`feisu_format::BitVec`];
//! * [`kernel`] — the one evaluator of `column OP literal`, 64 rows a word;
//! * [`zonemap`] — the question a block footer's min/max statistics
//!   answer (Fig. 6's `range`, kept per block, not per index);
//! * [`smart`] — the index record itself: header + payload, build &
//!   probe;
//! * [`manager`] — per-leaf cache with memory budget, LRU eviction, the
//!   72-hour TTL, and user preference pinning (§IV-C-2);
//! * [`rewrite`] — the plan-rewrite step (Fig. 7): serving predicates from
//!   indices, including negation reuse (`!(c2 > 5)` via bit-NOT) and
//!   AND/OR combination.
//!
//! (The B-tree baseline of Fig. 9b is `feisu_bench::btree`: only the
//! experiment uses it.)

//! # Example
//!
//! ```
//! use feisu_common::{BlockId, ByteSize, SimDuration, SimInstant};
//! use feisu_format::{Block, Column, DataType, Field, Schema, Value};
//! use feisu_index::manager::IndexManager;
//! use feisu_index::rewrite::{probe_predicate, ProbeKind};
//! use feisu_sql::ast::BinaryOp;
//! use feisu_sql::cnf::SimplePredicate;
//!
//! let schema = Schema::new(vec![Field::new("c2", DataType::Int64, false)]);
//! let block = Block::new(
//!     BlockId(0),
//!     schema,
//!     vec![Column::from_i64((0..100).collect())],
//! )
//! .unwrap();
//! let pred = SimplePredicate {
//!     column: "c2".into(),
//!     op: BinaryOp::Gt,
//!     value: Value::Int64(50),
//! };
//! let cache = IndexManager::new(ByteSize::mib(1), SimDuration::hours(72));
//! // First probe evaluates and caches; the second is a pure memory hit.
//! let (_, kind) = probe_predicate(Some(&cache), &block, &pred, None, SimInstant(0)).unwrap();
//! assert_eq!(kind, ProbeKind::BuiltFresh);
//! let (bits, kind) = probe_predicate(Some(&cache), &block, &pred, None, SimInstant(1)).unwrap();
//! assert_eq!(kind, ProbeKind::Hit);
//! assert_eq!(bits.count_ones(), 49);
//! // The negated predicate is served from the same entry via bit-NOT.
//! let neg = SimplePredicate { column: "c2".into(), op: BinaryOp::LtEq, value: Value::Int64(50) };
//! let (nbits, kind) = probe_predicate(Some(&cache), &block, &neg, None, SimInstant(2)).unwrap();
//! assert_eq!(kind, ProbeKind::NegatedHit);
//! assert_eq!(nbits.count_ones(), 51);
//! ```

pub mod bitvec;
pub mod kernel;
pub mod manager;
pub mod rewrite;
pub mod smart;
pub mod zonemap;

pub use manager::{IndexManager, IndexStats};
pub use smart::SmartIndex;
