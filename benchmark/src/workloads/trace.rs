//! `trace_replay` and `concurrent_replay`: the paper's production mix.
//!
//! Both replay `feisu_workload::trace::generate_trace` — Fig. 8 statement
//! shapes, §IV-A query similarity and column locality — over tables with
//! the 128-field T1 schema, cold to warm. `trace_replay` spreads one
//! client over all four storage domains; `concurrent_replay` gives each of
//! two clients its own table and trace, so two statements are inside the
//! engine at once.

use super::{family, sized, LoadPath, Plan, Source, Step, TableDef, Workload};
use feisu_common::SimDuration;
use feisu_core::engine::ClusterSpec;
use feisu_workload::datasets::DatasetSpec;
use feisu_workload::trace::{generate_trace, QueryShape, TraceSpec};

/// (name, location, full-size rows). `t4` has a bare path: it routes to
/// the local file system.
const TABLES: [(&str, &str, usize); 4] = [
    ("t1", "/hdfs/bench/t1", 32_768),
    ("t2", "/ffs/bench/t2", 32_768),
    ("t3", "/kv/bench/t3", 32_768),
    ("t4", "/bench/t4", 8_192),
];

const STATEMENTS: usize = 2_000;

/// The trace is one fixed artifact — the paper's production mix — and
/// `--seed` draws the rows it runs over. A trace drawn per seed moved
/// every metric by 10-20 % from seed to seed at this length (which
/// statements are expensive, which predicates turn hot), burying any
/// change under the choice of seed.
const TRACE_SEED: u64 = 0xACE;

pub fn plan(workload: Workload, seed: u64, smoke: bool) -> Plan {
    let mut spec = ClusterSpec::with_nodes(32);
    spec.rows_per_block = 2048;
    spec.config.execution_threads = 1;
    // Default capacities: the ~46 MB working set fits the cache.
    spec.config.cache.enabled = true;

    let concurrent = workload == Workload::ConcurrentReplay;
    let used = if concurrent {
        &TABLES[..2]
    } else {
        &TABLES[..]
    };
    // One trace over all tables, or one trace per client's own table.
    let traces: Vec<Vec<String>> = if concurrent {
        used.iter().map(|t| vec![t.0.to_string()]).collect()
    } else {
        vec![used.iter().map(|t| t.0.to_string()).collect()]
    };
    let clients: Vec<Vec<Step>> = traces
        .into_iter()
        .enumerate()
        .map(|(c, tables)| client_steps(tables, TRACE_SEED + c as u64, smoke))
        .collect();

    // The oracle keeps the columns some statement mentions, plus the
    // join key.
    let mut mentioned: Vec<String> = vec!["url".into()];
    for step in clients.iter().flatten() {
        if let Step::Query { sql, .. } = step {
            for token in sql.split(|c: char| !c.is_ascii_alphanumeric()) {
                let is_filler = token.len() > 1
                    && token.starts_with('c')
                    && token[1..].bytes().all(|b| b.is_ascii_digit());
                if is_filler && !mentioned.iter().any(|m| m == token) {
                    mentioned.push(token.to_string());
                }
            }
        }
    }

    let tables = used
        .iter()
        .enumerate()
        .map(|(i, &(name, location, rows))| {
            let mut d = DatasetSpec::t1(sized(rows, smoke));
            d.name = name.into();
            d.fields = 128; // trace predicates target c0..c58
            d.seed = seed ^ (0x71 + i as u64);
            TableDef {
                name: name.into(),
                location: location.into(),
                preload_rows: d.rows,
                source: Source::Dataset(d),
                load: if location.starts_with("/bench") {
                    LoadPath::RowsRoundRobin
                } else {
                    LoadPath::Columns
                },
                oracle_columns: mentioned.clone(),
            }
        })
        .collect();

    Plan {
        workload,
        spec,
        tables,
        clients,
        steps_per_second: if concurrent { 118 } else { 140 },
    }
}

fn client_steps(tables: Vec<String>, seed: u64, smoke: bool) -> Vec<Step> {
    let queries = sized(STATEMENTS, smoke);
    generate_trace(&TraceSpec {
        queries,
        // ~7 s of simulated time between arrivals: inside the job
        // manager's 10-minute reuse window and the 8-hour credential.
        span: SimDuration::secs(7 * queries as u64),
        similarity: 0.65,
        locality_theta: 0.9,
        column_pool: 40,
        tables,
        seed,
        ..TraceSpec::default()
    })
    .into_iter()
    .map(|q| Step::Query {
        family: family(match q.shape {
            QueryShape::Scan => "scan",
            QueryShape::Aggregate => "aggregate",
            QueryShape::GroupBy => "groupby",
            QueryShape::OrderBy => "orderby",
            QueryShape::Join => "join",
        }),
        sql: q.sql,
        at_ns: Some(q.at.as_nanos()),
    })
    .collect()
}
