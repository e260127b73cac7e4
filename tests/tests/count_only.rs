//! `COUNT(*)` end to end: every shape of it equals the oracle, at 1 and 8
//! execution threads with bit-identical `QueryStats` (§12), whether the
//! count is answered by a leaf from its selection, by the master over a
//! join or a virtual table, with SmartIndex off, or from an un-pruned
//! plan — where the leaf is handed every column and must read none.

use feisu_common::{ByteSize, SimDuration};
use feisu_core::engine::{ClusterSpec, QueryStats};
use feisu_format::{DataType, Field, Schema, Value};
use feisu_tests::{assert_same_rows, fixture_with, rows_to_batch, Fixture};

const STATEMENTS: [&str; 9] = [
    "SELECT COUNT(*) FROM clicks",
    // Indexable: cold it builds, the repeat is served from cached bits.
    "SELECT COUNT(*) FROM clicks WHERE clicks > 25",
    "SELECT COUNT(*) FROM clicks WHERE clicks > 25",
    "SELECT COUNT(*) AS n FROM clicks WHERE clicks > 25 OR day = 20160103",
    // Residual, alone and beside the cached predicate.
    "SELECT COUNT(*) FROM clicks WHERE clicks + day > 20160150",
    "SELECT COUNT(*) FROM clicks WHERE clicks > 25 AND score * 2 > 1",
    // Disproved by every block's zones.
    "SELECT COUNT(*) FROM clicks WHERE day > 20170101",
    "SELECT COUNT(*) FROM nothing",
    "SELECT COUNT(*) FROM clicks JOIN ranks ON clicks.keyword = ranks.keyword \
     WHERE ranks.rank > 1",
];

fn ranks_schema() -> Schema {
    Schema::new(vec![
        Field::new("keyword", DataType::Utf8, false),
        Field::new("rank", DataType::Int64, false),
    ])
}

/// The clicks fixture plus a second table to join and an empty one.
fn fixture(threads: usize, tweak: fn(&mut ClusterSpec)) -> Fixture {
    let mut spec = ClusterSpec::small();
    spec.config.execution_threads = threads;
    tweak(&mut spec);
    let mut fx = fixture_with(600, spec, "/hdfs/warehouse/clicks");
    let ranks: Vec<Vec<Value>> = ["map", "music", "news", "video"]
        .iter()
        .zip(0i64..)
        .map(|(k, rank)| vec![Value::from(*k), Value::from(rank)])
        .collect();
    for (name, rows) in [("ranks", ranks), ("nothing", Vec::new())] {
        let location = format!("/hdfs/warehouse/{name}");
        fx.cluster
            .create_table(name, ranks_schema(), &location, &fx.cred)
            .expect("create table");
        fx.cluster
            .ingest_rows(name, rows.clone(), &fx.cred)
            .expect("ingest");
        fx.oracle
            .insert(name, rows_to_batch(&ranks_schema(), &rows));
    }
    fx
}

/// Runs every statement against the oracle; returns what must not depend
/// on the thread count.
fn run(threads: usize, tweak: fn(&mut ClusterSpec)) -> Vec<(QueryStats, SimDuration)> {
    let mut fx = fixture(threads, tweak);
    let mut observed = Vec::new();
    for sql in STATEMENTS {
        let got = fx.cluster.query(sql, &fx.cred).expect(sql);
        let want = feisu_exec::executor::run_sql(sql, &mut fx.oracle).expect(sql);
        assert_same_rows(&got.batch, &want, sql);
        assert_eq!(got.batch.rows(), 1, "{sql}");
        observed.push((got.stats, got.response_time));
    }
    // A virtual table, with a predicate: every statement above completed.
    let sql = "SELECT COUNT(*) FROM system.queries WHERE outcome = 'completed'";
    let got = fx.cluster.query(sql, &fx.cred).expect(sql);
    let logged = Value::Int64(STATEMENTS.len() as i64);
    assert_eq!(got.batch.row(0), [logged], "{sql}");
    observed.push((got.stats, got.response_time));
    observed
}

fn at_1_and_8_threads(tweak: fn(&mut ClusterSpec)) -> Vec<(QueryStats, SimDuration)> {
    let serial = run(1, tweak);
    assert_eq!(serial, run(8, tweak), "diverged at 8 execution threads");
    serial
}

#[test]
fn every_count_star_shape_equals_the_oracle_at_1_and_8_threads() {
    let stats = at_1_and_8_threads(|_| {});
    // The repeat of the indexable count never touched storage.
    let (cold, warm) = (stats[1].0, stats[2].0);
    assert!(cold.index_built > 0 && cold.bytes_read > ByteSize::ZERO);
    assert!(warm.reused_tasks + warm.memory_served_tasks == warm.tasks);
    assert_eq!(warm.bytes_read, ByteSize::ZERO);
}

/// Every task goes to its block: no cached bits, no reused results.
fn without_index(spec: &mut ClusterSpec) {
    spec.use_smartindex = false;
    spec.task_reuse = false;
}

#[test]
fn without_smartindex_a_count_reads_its_predicate_columns_only() {
    let stats = at_1_and_8_threads(without_index);
    // No predicate: blocks are opened for their footers, no column read.
    assert_eq!(stats[0].0.bytes_read, ByteSize::ZERO);
    assert!(stats[0].0.tasks > 0 && stats[0].0.memory_served_tasks == 0);
    // The repeat reads `clicks` again, and exactly as much of it.
    assert!(stats[1].0.bytes_read > ByteSize::ZERO);
    assert_eq!(stats[1].0.bytes_read, stats[2].0.bytes_read);
    assert_eq!(stats[1].0.index_built + stats[1].0.index_hits, 0);
}

#[test]
fn an_unpruned_count_reads_no_more_than_a_pruned_one() {
    // With the optimizer off the scan under `COUNT(*)` keeps all five
    // columns in its projection. The leaf materializes none of them, so
    // the statement is billed what the pruned plan is billed.
    let pruned = at_1_and_8_threads(without_index);
    let unpruned = at_1_and_8_threads(|spec| {
        without_index(spec);
        spec.config.optimizer.enabled = false;
    });
    assert_eq!(unpruned[0].0.bytes_read, ByteSize::ZERO);
    assert_eq!(unpruned[0], pruned[0]);
    // And with the index on, an un-pruned bare count reads nothing at all.
    let unpruned = at_1_and_8_threads(|spec| spec.config.optimizer.enabled = false);
    assert_eq!(unpruned[0].0.memory_served_tasks, unpruned[0].0.tasks);
}
