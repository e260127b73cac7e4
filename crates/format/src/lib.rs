//! Feisu's columnar data format.
//!
//! Data in Baidu's workloads carry hundreds of attributes but queries touch
//! only a few, so Feisu stores tables column-wise (paper §III-A). This crate
//! implements the whole format layer from scratch:
//!
//! * typed [`value::Value`]s and [`schema::Schema`]s,
//! * nullable typed [`column::Column`] vectors, strings held in one byte
//!   buffer plus offsets ([`strings::Utf8Vec`]),
//! * the one row bitmap, [`bitvec::BitVec`]: a column's validity, a
//!   selection of rows to decode, a SmartIndex's 0-1 vector,
//! * [`block::Block`]s — the unit of storage, scheduling and indexing —
//!   with per-column zone statistics and a binary serialization format,
//! * lightweight integer/string [`encoding`]s (varint, delta, RLE,
//!   dictionary, bit-packing),
//! * a from-scratch LZ-style [`compress`]ion codec,
//! * a [`json`] parser plus the nested-document flattening the paper
//!   describes ("nested data format such as json, which will be flattened
//!   into columns"),
//! * [`table`] partition metadata shared by the master and storage layers.

pub mod bitvec;
pub mod block;
mod chunk;
pub mod column;
pub mod compress;
pub mod encoding;
pub mod json;
pub mod schema;
pub mod strings;
pub mod table;
pub mod value;

pub use bitvec::BitVec;
pub use block::{Block, BlockMeta, ColumnStats, Described};
pub use column::{Column, ColumnBuilder};
pub use schema::{Field, Schema};
pub use strings::Utf8Vec;
pub use value::{DataType, Value};
