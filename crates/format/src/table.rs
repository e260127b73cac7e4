//! Table and partition metadata.
//!
//! Feisu "organizes data sets into partitions using a compression-friendly
//! columnar format" (§III-A). A [`TableDesc`] names a table, fixes its
//! schema, and lists its [`PartitionDesc`]s; each partition lists the
//! blocks it is made of together with the storage path each block lives at
//! (the common-storage-layer path carrying the domain prefix, §III-C).
//! Per-block min/max/null counts live in the block's own footer and
//! nowhere else (DESIGN.md §14).

use crate::schema::Schema;
use feisu_common::{BlockId, ByteSize};

/// Catalog entry describing one stored block.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockDesc {
    pub id: BlockId,
    /// Full path with storage-domain prefix, e.g. `/hdfs/logs/t1/p0/b17`.
    pub path: String,
    pub rows: usize,
    /// Serialized (compressed) size, used for I/O cost accounting.
    pub stored_size: ByteSize,
    /// Uncompressed size.
    pub raw_size: ByteSize,
}

/// One horizontal partition of a table.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PartitionDesc {
    pub name: String,
    pub blocks: Vec<BlockDesc>,
}

impl PartitionDesc {
    pub fn rows(&self) -> usize {
        self.blocks.iter().map(|b| b.rows).sum()
    }

    pub fn stored_size(&self) -> ByteSize {
        self.blocks.iter().map(|b| b.stored_size).sum()
    }
}

/// Catalog entry for a table.
#[derive(Debug, Clone, PartialEq)]
pub struct TableDesc {
    pub name: String,
    pub schema: Schema,
    pub partitions: Vec<PartitionDesc>,
}

impl TableDesc {
    pub fn new(name: impl Into<String>, schema: Schema) -> Self {
        TableDesc {
            name: name.into(),
            schema,
            partitions: Vec::new(),
        }
    }

    pub fn rows(&self) -> usize {
        self.partitions.iter().map(|p| p.rows()).sum()
    }

    pub fn stored_size(&self) -> ByteSize {
        self.partitions.iter().map(|p| p.stored_size()).sum()
    }

    /// Iterates every block descriptor in partition order.
    pub fn blocks(&self) -> impl Iterator<Item = &BlockDesc> {
        self.partitions.iter().flat_map(|p| p.blocks.iter())
    }

    pub fn block_count(&self) -> usize {
        self.partitions.iter().map(|p| p.blocks.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Field;
    use crate::value::DataType;

    fn table() -> TableDesc {
        let schema = Schema::new(vec![Field::new("c1", DataType::Int64, false)]);
        let mut t = TableDesc::new("t1", schema);
        t.partitions.push(PartitionDesc {
            name: "p0".into(),
            blocks: vec![
                BlockDesc {
                    id: BlockId(0),
                    path: "/hdfs/t1/p0/b0".into(),
                    rows: 100,
                    stored_size: ByteSize::kib(10),
                    raw_size: ByteSize::kib(40),
                },
                BlockDesc {
                    id: BlockId(1),
                    path: "/hdfs/t1/p0/b1".into(),
                    rows: 50,
                    stored_size: ByteSize::kib(5),
                    raw_size: ByteSize::kib(20),
                },
            ],
        });
        t
    }

    #[test]
    fn aggregates_roll_up() {
        let t = table();
        assert_eq!(t.rows(), 150);
        assert_eq!(t.stored_size(), ByteSize::kib(15));
        assert_eq!(t.block_count(), 2);
        assert_eq!(t.blocks().count(), 2);
    }
}
