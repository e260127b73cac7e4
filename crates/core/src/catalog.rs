//! The table catalog and the ingest path.
//!
//! The catalog is the master-side registry mapping table names to their
//! schemas and block descriptors (which carry unified storage paths with
//! domain prefixes, §III-C). Ingest converts row data into the columnar
//! block format — "a light-weight process … monitors the storage for
//! newly generated data and converts the data into Feisu in columnar
//! format when new data arrive" (§III-B) — and registers the resulting
//! blocks; a block's zone statistics stay in its footer. A table's
//! descriptor is shared, not copied: [`Catalog::table`] lends the `Arc` the
//! catalog holds, and ingest appends copy-on-write, so a handle keeps
//! exactly the blocks it was taken with.

use feisu_common::hash::FxHashMap;
use feisu_common::ids::IdGen;
use feisu_common::{BlockId, ByteSize, FeisuError, NodeId, Result, SimInstant};
use feisu_format::block::ChunkSummary;
use feisu_format::table::{BlockDesc, PartitionDesc, TableDesc};
use feisu_format::{Block, Column, Schema, Value};
use feisu_sql::stats::{ColumnStats, NdvSketch, TableStats};
use feisu_storage::auth::Credential;
use feisu_storage::StorageRouter;
use parking_lot::RwLock;
use std::cmp::Ordering;
use std::sync::{Arc, OnceLock};

/// Master-side table registry.
pub struct Catalog {
    tables: RwLock<FxHashMap<String, TableEntry>>,
    block_ids: IdGen,
}

struct TableEntry {
    desc: Arc<TableDesc>,
    /// Unified path prefix the table's blocks are written under.
    location: String,
    /// Rows per block used by the ingest splitter.
    rows_per_block: usize,
    /// Statistics accumulated at ingest, served to cost-based planning.
    stats: TableStatsBuilder,
    /// What `stats` says, built by the first planner to ask since the last
    /// ingest and lent to every one after it.
    stats_snapshot: OnceLock<Arc<TableStats>>,
}

/// Running per-table statistics, folded block by block at ingest.
#[derive(Default)]
struct TableStatsBuilder {
    rows: u64,
    /// By field position (a table's schema is fixed); empty until the
    /// first block.
    columns: Vec<ColumnStatsBuilder>,
}

#[derive(Default)]
struct ColumnStatsBuilder {
    min: Option<Value>,
    max: Option<Value>,
    null_count: u64,
    ndv: NdvSketch,
}

impl ColumnStatsBuilder {
    /// One column of one block, from what serializing it learned; built
    /// before the catalog lock is taken. A Utf8 column's distinct count
    /// comes from its chunk dictionary, anything else's from its rows.
    fn of_chunk(column: &Column, chunk: ChunkSummary<'_>) -> Self {
        let mut ndv = NdvSketch::default();
        match &chunk.distinct {
            Some(strings) => ndv.observe_strs(strings),
            None => ndv.observe_column(column),
        }
        ColumnStatsBuilder {
            min: chunk.zone.min,
            max: chunk.zone.max,
            null_count: chunk.zone.null_count as u64,
            ndv,
        }
    }
}

impl TableStatsBuilder {
    fn merge(&mut self, rows: usize, block: Vec<ColumnStatsBuilder>) {
        self.rows += rows as u64;
        self.columns.resize_with(block.len(), Default::default);
        for (cb, b) in self.columns.iter_mut().zip(block) {
            merge_bound(&mut cb.min, b.min, Ordering::Less);
            merge_bound(&mut cb.max, b.max, Ordering::Greater);
            cb.null_count += b.null_count;
            cb.ndv.merge(&b.ndv);
        }
    }

    fn snapshot(&self, schema: &Schema) -> TableStats {
        let columns = schema.fields().iter().zip(&self.columns).map(|(f, cb)| {
            let stats = ColumnStats {
                min: cb.min.clone(),
                max: cb.max.clone(),
                null_count: cb.null_count,
                ndv: cb.ndv.estimate(),
            };
            (f.name.clone(), stats)
        });
        TableStats {
            rows: self.rows,
            columns: columns.collect(),
        }
    }
}

/// Folds a block bound into the running bound: `keep_when` is the
/// ordering under which the current value is retained (Less for min).
fn merge_bound(cur: &mut Option<Value>, candidate: Option<Value>, keep_when: Ordering) {
    if let Some(v) = candidate {
        match cur {
            Some(c) if c.total_cmp(&v) == keep_when || c.total_cmp(&v) == Ordering::Equal => {}
            _ => *cur = Some(v),
        }
    }
}

impl Default for Catalog {
    fn default() -> Self {
        Self::new()
    }
}

impl Catalog {
    pub fn new() -> Self {
        Catalog {
            tables: RwLock::new(FxHashMap::default()),
            block_ids: IdGen::new(),
        }
    }

    /// Registers a new, empty table stored under `location` (a unified
    /// path like `/hdfs/warehouse/t1`).
    pub fn create_table(
        &self,
        name: &str,
        schema: Schema,
        location: &str,
        rows_per_block: usize,
    ) -> Result<()> {
        if crate::system::is_system_table(name) {
            return Err(FeisuError::Analysis(format!(
                "the `system.` namespace is reserved for virtual tables (`{name}`)"
            )));
        }
        let mut tables = self.tables.write();
        if tables.contains_key(name) {
            return Err(FeisuError::Analysis(format!(
                "table `{name}` already exists"
            )));
        }
        let mut desc = TableDesc::new(name, schema);
        desc.partitions.push(PartitionDesc {
            name: "p0".into(),
            blocks: Vec::new(),
        });
        tables.insert(
            name.to_string(),
            TableEntry {
                desc: Arc::new(desc),
                location: location.trim_end_matches('/').to_string(),
                rows_per_block: rows_per_block.max(1),
                stats: TableStatsBuilder::default(),
                stats_snapshot: OnceLock::new(),
            },
        );
        Ok(())
    }

    /// The table's descriptor as of now: a refcount bump under the read
    /// lock, whatever the block count. Later ingests do not show through.
    pub fn table(&self, name: &str) -> Result<Arc<TableDesc>> {
        self.tables
            .read()
            .get(name)
            .map(|e| Arc::clone(&e.desc))
            .ok_or_else(|| FeisuError::Analysis(format!("unknown table `{name}`")))
    }

    pub fn table_names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.tables.read().keys().cloned().collect();
        v.sort();
        v
    }

    pub fn schema(&self, name: &str) -> Option<Schema> {
        self.tables.read().get(name).map(|e| e.desc.schema.clone())
    }

    /// Statistics snapshot for a table: row count plus per-column
    /// min/max/null-count and approximate NDV, maintained at ingest. Built
    /// on the first call after an ingest; until the next one every call is
    /// a refcount bump under the read lock.
    pub fn table_stats(&self, name: &str) -> Option<Arc<TableStats>> {
        let tables = self.tables.read();
        let entry = tables.get(name)?;
        let snapshot = entry
            .stats_snapshot
            .get_or_init(|| Arc::new(entry.stats.snapshot(&entry.desc.schema)));
        Some(Arc::clone(snapshot))
    }

    /// The storage location prefix of a table (for domain authorization).
    pub fn location(&self, name: &str) -> Result<String> {
        self.tables
            .read()
            .get(name)
            .map(|e| e.location.clone())
            .ok_or_else(|| FeisuError::Analysis(format!("unknown table `{name}`")))
    }

    /// Ingests rows into a table: splits into blocks, serializes, writes
    /// through the router, records descriptors and table statistics.
    ///
    /// `near` pins block placement (used to emulate log data that must
    /// stay on its producing node).
    pub fn ingest(
        &self,
        name: &str,
        mut columns: Vec<Column>,
        router: &StorageRouter,
        cred: &Credential,
        near: Option<NodeId>,
        now: SimInstant,
    ) -> Result<Vec<BlockId>> {
        let (schema, location, rows_per_block) = {
            let tables = self.tables.read();
            let e = tables
                .get(name)
                .ok_or_else(|| FeisuError::Analysis(format!("unknown table `{name}`")))?;
            (e.desc.schema.clone(), e.location.clone(), e.rows_per_block)
        };
        if columns.len() != schema.len() {
            return Err(FeisuError::Execution(format!(
                "ingest into `{name}`: {} columns supplied, schema has {}",
                columns.len(),
                schema.len()
            )));
        }
        let rows = columns.first().map_or(0, |c| c.len());
        for c in &columns {
            if c.len() != rows {
                return Err(FeisuError::Execution("ingest: ragged columns".into()));
            }
        }
        // Rows move into blocks. Cut from the back, each cut moves one
        // block's rows, and what is left is the first block; `pop` then
        // yields the blocks front first.
        let mut slices: Vec<Vec<Column>> = (rows_per_block..rows)
            .step_by(rows_per_block)
            .rev()
            .map(|start| columns.iter_mut().map(|c| c.split_off(start)).collect())
            .collect();
        if rows > 0 {
            slices.push(columns);
        }
        let mut created = Vec::new();
        while let Some(slice) = slices.pop() {
            let id = BlockId(self.block_ids.next_u64());
            let block = Block::new(id, schema.clone(), slice)?;
            let (bytes, chunks) = block.serialize_summarized();
            let stored_size = ByteSize(bytes.len() as u64);
            let raw_size = ByteSize(block.footprint() as u64);
            let path = format!("{location}/b{}", id.raw());
            router.write(&path, bytes.into(), near, cred, now)?;
            let desc = BlockDesc {
                id,
                path,
                rows: block.rows(),
                stored_size,
                raw_size,
            };
            let block_stats: Vec<_> = block
                .columns()
                .iter()
                .zip(chunks)
                .map(|(column, chunk)| ColumnStatsBuilder::of_chunk(column, chunk))
                .collect();
            let mut tables = self.tables.write();
            let entry = tables.get_mut(name).expect("table exists");
            entry.stats.merge(block.rows(), block_stats);
            entry.stats_snapshot.take();
            Arc::make_mut(&mut entry.desc).partitions[0]
                .blocks
                .push(desc);
            created.push(id);
        }
        Ok(created)
    }

    /// Convenience for row-oriented ingest.
    pub fn ingest_rows(
        &self,
        name: &str,
        rows: Vec<Vec<Value>>,
        router: &StorageRouter,
        cred: &Credential,
        near: Option<NodeId>,
        now: SimInstant,
    ) -> Result<Vec<BlockId>> {
        let schema = self
            .schema(name)
            .ok_or_else(|| FeisuError::Analysis(format!("unknown table `{name}`")))?;
        let mut values: Vec<Vec<Value>> = (0..schema.len())
            .map(|_| Vec::with_capacity(rows.len()))
            .collect();
        for row in rows {
            if row.len() != schema.len() {
                return Err(FeisuError::Execution(format!(
                    "row has {} values for {} fields",
                    row.len(),
                    schema.len()
                )));
            }
            for (column, v) in values.iter_mut().zip(row) {
                column.push(v);
            }
        }
        // NULL fits any slot, and ints widen into float columns.
        let columns = schema.fields().iter().zip(values).map(|(f, values)| {
            Column::try_from_values(f.data_type, values).map_err(|v| {
                FeisuError::Execution(format!(
                    "value {v} does not fit column `{}` of type {}",
                    f.name, f.data_type
                ))
            })
        });
        let columns = columns.collect::<Result<_>>()?;
        self.ingest(name, columns, router, cred, near, now)
    }
}

/// Adapter exposing the catalog to the SQL analyzer.
pub struct CatalogView<'a>(pub &'a Catalog);

impl feisu_sql::analyze::Catalog for CatalogView<'_> {
    fn table_schema(&self, name: &str) -> Option<Schema> {
        // Virtual system tables shadow nothing: the `system.` namespace
        // is rejected at `create_table`, so checking them first is safe.
        crate::system::system_table_schema(name).or_else(|| self.0.schema(name))
    }

    fn table_stats(&self, name: &str) -> Option<Arc<TableStats>> {
        self.0.table_stats(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use feisu_cluster::Topology;
    use feisu_common::{DomainId, SimDuration, UserId};
    use feisu_format::{DataType, Field};
    use feisu_storage::auth::{AuthService, Grant};
    use feisu_storage::Domain;

    fn setup() -> (Catalog, StorageRouter, Credential) {
        let topo = Arc::new(Topology::grid(1, 2, 2));
        let local = Domain::local_fs(DomainId(0), "local", topo.clone());
        let hdfs = Domain::hdfs(DomainId(1), "hdfs", topo, 2, 1);
        let auth = Arc::new(AuthService::new(1));
        auth.register(UserId(1));
        auth.grant(UserId(1), DomainId(0), Grant::ReadWrite);
        auth.grant(UserId(1), DomainId(1), Grant::ReadWrite);
        let cred = auth
            .issue(UserId(1), SimInstant(0), SimDuration::hours(8))
            .unwrap();
        let router = StorageRouter::new(vec![local, hdfs], 0, auth, None);
        (Catalog::new(), router, cred)
    }

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("a", DataType::Int64, false),
            Field::new("b", DataType::Utf8, false),
        ])
    }

    #[test]
    fn create_rejects_duplicates() {
        let (cat, _, _) = setup();
        cat.create_table("t", schema(), "/hdfs/t", 10).unwrap();
        assert!(cat.create_table("t", schema(), "/hdfs/t2", 10).is_err());
        assert_eq!(cat.table_names(), vec!["t".to_string()]);
    }

    #[test]
    fn ingest_splits_into_blocks_whose_footers_carry_the_zones() {
        let (cat, router, cred) = setup();
        cat.create_table("t", schema(), "/hdfs/t", 10).unwrap();
        let rows: Vec<Vec<Value>> = (0..25)
            .map(|i| vec![Value::from(i as i64), Value::from(format!("s{i}"))])
            .collect();
        let ids = cat
            .ingest_rows("t", rows, &router, &cred, None, SimInstant(0))
            .unwrap();
        assert_eq!(ids.len(), 3, "25 rows at 10/block = 3 blocks");
        let desc = cat.table("t").unwrap();
        assert_eq!(desc.rows(), 25);
        let b0 = &desc.partitions[0].blocks[0];
        assert_eq!(b0.rows, 10);
        // Blocks are actually in storage, zone statistics in their footers.
        let bytes = router
            .read(&b0.path, NodeId(0), &cred, SimInstant(0))
            .unwrap();
        let zones = Block::read_meta(&bytes.data).unwrap().zones;
        assert_eq!(zones[0].min, Some(Value::Int64(0)));
        assert_eq!(zones[0].max, Some(Value::Int64(9)));
    }

    #[test]
    fn ingest_validates_shape_and_types() {
        let (cat, router, cred) = setup();
        cat.create_table("t", schema(), "/hdfs/t", 10).unwrap();
        // Wrong arity.
        assert!(cat
            .ingest_rows(
                "t",
                vec![vec![Value::from(1i64)]],
                &router,
                &cred,
                None,
                SimInstant(0)
            )
            .is_err());
        // Wrong type.
        assert!(cat
            .ingest_rows(
                "t",
                vec![vec![Value::from("oops"), Value::from("b")]],
                &router,
                &cred,
                None,
                SimInstant(0)
            )
            .is_err());
        // Unknown table.
        assert!(cat
            .ingest_rows("ghost", vec![], &router, &cred, None, SimInstant(0))
            .is_err());
    }

    #[test]
    fn ingest_accumulates_table_stats() {
        let (cat, router, cred) = setup();
        cat.create_table("t", schema(), "/hdfs/t", 10).unwrap();
        assert_eq!(cat.table_stats("t").unwrap().rows, 0);
        // 25 rows across 3 blocks; `a` repeats 0..5, `b` is unique.
        let rows: Vec<Vec<Value>> = (0..25)
            .map(|i| vec![Value::from((i % 5) as i64), Value::from(format!("s{i}"))])
            .collect();
        cat.ingest_rows("t", rows, &router, &cred, None, SimInstant(0))
            .unwrap();
        let stats = cat.table_stats("t").unwrap();
        assert_eq!(stats.rows, 25);
        let a = stats.column("a").unwrap();
        assert_eq!(a.min, Some(Value::Int64(0)));
        assert_eq!(a.max, Some(Value::Int64(4)));
        assert_eq!(a.null_count, 0);
        assert_eq!(a.ndv, 5, "distinct count folds across blocks");
        assert_eq!(stats.column("b").unwrap().ndv, 25);
        assert!(cat.table_stats("ghost").is_none());
    }

    #[test]
    fn catalog_view_serves_analyzer() {
        use feisu_sql::analyze::Catalog as _;
        let (cat, _, _) = setup();
        cat.create_table("t", schema(), "/hdfs/t", 10).unwrap();
        let view = CatalogView(&cat);
        assert!(view.table_schema("t").is_some());
        assert!(view.table_schema("nope").is_none());
    }
}
