//! Concurrent-client end-to-end suite for the shared (`&self`) engine.
//!
//! The determinism contract (DESIGN.md §12): for a race-free workload —
//! clients whose in-run query sets are cache-independent of each other,
//! with any cross-client sharing separated by a barrier — every query's
//! full `QueryResult` (id, rows, simulated times, stats, EXPLAIN
//! ANALYZE profile) is bit-identical whether the workload runs on one
//! thread or on N client threads. These tests construct exactly such
//! workloads and compare serial and concurrent runs field for field.
//!
//! `FEISU_CLIENT_THREADS` (default 4) sets the client-thread count, so
//! CI can re-run the suite at a pinned width.

use feisu_common::{ByteSize, NodeId, UserId};
use feisu_core::engine::{ClusterSpec, FeisuCluster, QueryResult};
use feisu_core::master::QuerySession;
use feisu_storage::auth::Credential;
use feisu_storage::{Bytes, CacheStats, CacheTier, Offer, TieredCache};
use feisu_tests::{clicks_rows, clicks_schema, fixture_with};
use std::sync::Barrier;

/// Client-thread count under test (`FEISU_CLIENT_THREADS`, default 4).
fn client_threads() -> usize {
    std::env::var("FEISU_CLIENT_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|n| *n >= 1)
        .unwrap_or(4)
}

/// Registers one user per client and opens their sessions, in a fixed
/// order so session ids — and thus query ids — are deterministic.
fn open_sessions(cluster: &FeisuCluster, clients: usize) -> Vec<QuerySession<'_>> {
    (0..clients)
        .map(|i| {
            let user = cluster.register_user(&format!("client{i}"));
            cluster.grant_all(user);
            let cred: Credential = cluster.login(user).expect("client login");
            cluster.session(cred)
        })
        .collect()
}

/// Per-client query lists that are cache-independent *across* clients:
/// client `i` only uses predicate constants `≡ i (mod clients)`, so no
/// two clients ever share a task signature or a SmartIndex entry.
/// Within a client the first query repeats at the end — an intra-client
/// task-reuse hit, serialized on that client's session either way.
fn client_workloads(clients: usize, per_client: usize) -> Vec<Vec<String>> {
    (0..clients)
        .map(|i| {
            let mut list: Vec<String> = (0..per_client)
                .map(|j| {
                    let v = i + j * clients; // distinct across all (i, j)
                    if j % 2 == 0 {
                        format!("SELECT COUNT(*) FROM clicks WHERE clicks > {v}")
                    } else {
                        format!("SELECT url FROM clicks WHERE clicks > {v}")
                    }
                })
                .collect();
            list.push(list[0].clone());
            list
        })
        .collect()
}

/// What one full run of the workload produced.
struct RunOutcome {
    /// `results[i][j]` = client `i`'s `j`-th query.
    results: Vec<Vec<QueryResult>>,
    index_hits: u64,
    index_misses: u64,
    reuse_hits: u64,
    reuse_misses: u64,
}

/// Runs the workload on a fresh cluster — serially in submission order
/// when `concurrent` is false, on one thread per client when true.
fn run_workload(clients: usize, concurrent: bool) -> RunOutcome {
    let fx = fixture_with(400, ClusterSpec::small(), "/hdfs/warehouse/clicks");
    let sessions = open_sessions(&fx.cluster, clients);
    let workloads = client_workloads(clients, 8);

    let mut results: Vec<Vec<QueryResult>> = Vec::with_capacity(clients);
    if concurrent {
        let barrier = Barrier::new(clients);
        let mut slots: Vec<Option<Vec<QueryResult>>> = (0..clients).map(|_| None).collect();
        std::thread::scope(|s| {
            for (slot, (session, list)) in slots.iter_mut().zip(sessions.iter().zip(&workloads)) {
                let barrier = &barrier;
                s.spawn(move || {
                    barrier.wait();
                    *slot = Some(
                        list.iter()
                            .map(|sql| session.query(sql).expect("concurrent query"))
                            .collect(),
                    );
                });
            }
        });
        results.extend(slots.into_iter().map(|s| s.expect("client finished")));
    } else {
        for (session, list) in sessions.iter().zip(&workloads) {
            results.push(
                list.iter()
                    .map(|sql| session.query(sql).expect("serial query"))
                    .collect(),
            );
        }
    }

    assert_eq!(
        fx.cluster.guard().inflight(),
        0,
        "admission permits leaked after the run"
    );
    let idx = fx.cluster.index_stats();
    let (reuse_hits, reuse_misses) = fx.cluster.jobs().reuse_stats();
    RunOutcome {
        results,
        index_hits: idx.hits,
        index_misses: idx.misses,
        reuse_hits,
        reuse_misses,
    }
}

#[test]
fn concurrent_clients_bit_identical_to_serial() {
    let clients = client_threads();
    let serial = run_workload(clients, false);
    let parallel = run_workload(clients, true);

    for (i, (s, p)) in serial.results.iter().zip(&parallel.results).enumerate() {
        assert_eq!(s.len(), p.len(), "client {i}: query count");
        for (j, (a, b)) in s.iter().zip(p).enumerate() {
            assert_eq!(
                a, b,
                "client {i} query {j}: serial and concurrent runs diverged"
            );
        }
    }

    // Shared-singleton accounting is run-shape independent too: the same
    // queries produced the same SmartIndex and task-reuse traffic.
    assert_eq!(
        (serial.index_hits, serial.index_misses),
        (parallel.index_hits, parallel.index_misses),
        "IndexStats totals diverged"
    );
    assert_eq!(
        (serial.reuse_hits, serial.reuse_misses),
        (parallel.reuse_hits, parallel.reuse_misses),
        "JobManager reuse_stats diverged"
    );

    // The workload actually exercised the shared caches.
    assert!(serial.reuse_hits > 0, "no intra-client task reuse happened");
    assert!(
        serial
            .results
            .iter()
            .flatten()
            .any(|r| r.stats.index_built > 0),
        "no SmartIndex was ever built"
    );
}

/// Cross-session SmartIndex sharing: user A's phase builds the index,
/// and after a barrier user B's phase — a *different* projection, so
/// task reuse cannot mask the probe — hits it without building anything.
#[test]
fn second_users_session_hits_first_users_smartindex() {
    let fx = fixture_with(400, ClusterSpec::small(), "/hdfs/warehouse/clicks");
    let sessions = open_sessions(&fx.cluster, 2);

    // Phase 1 (user A): build indices for the predicate.
    let warm = sessions[0]
        .query("SELECT COUNT(*) FROM clicks WHERE clicks > 42")
        .expect("phase-1 query");
    assert!(warm.stats.index_built > 0, "phase 1 built no index");

    // Phase 2 (user B, on its own thread): same predicate, different
    // projection — distinct task signature, so the leaf really probes.
    let probe = std::thread::scope(|s| {
        let session = &sessions[1];
        s.spawn(move || {
            session
                .query("SELECT url FROM clicks WHERE clicks > 42")
                .expect("phase-2 query")
        })
        .join()
        .expect("phase-2 client")
    });
    assert!(probe.stats.index_hits > 0, "user B missed user A's index");
    assert_eq!(
        probe.stats.index_built, 0,
        "user B rebuilt an index user A already published"
    );
    assert_eq!(
        probe.stats.reused_tasks, 0,
        "projection change must defeat reuse"
    );
}

/// Fault injection while clients are querying: `fail_node` / `slow_node`
/// / `recover_node` race freely against in-flight queries. Queries must
/// keep succeeding (backup tasks reroute around the dead node), nothing
/// may panic, and the admission gauge must drain to zero.
#[test]
fn fault_injection_under_concurrent_load() {
    let clients = client_threads();
    let fx = fixture_with(400, ClusterSpec::with_nodes(8), "/hdfs/warehouse/clicks");
    let sessions = open_sessions(&fx.cluster, clients);
    let workloads = client_workloads(clients, 6);

    let barrier = Barrier::new(clients + 1);
    std::thread::scope(|s| {
        for (session, list) in sessions.iter().zip(&workloads) {
            let barrier = &barrier;
            s.spawn(move || {
                barrier.wait();
                for sql in list {
                    let r = session.query(sql).expect("query under fault injection");
                    assert!(!r.partial, "no time limit was set");
                }
            });
        }
        barrier.wait();
        // Chaos loop on the main thread: flip node state while the
        // clients run. Every cycle yields so client threads interleave.
        for round in 0..40 {
            fx.cluster.fail_node(NodeId(1));
            fx.cluster.slow_node(NodeId(2), 25.0);
            std::thread::yield_now();
            fx.cluster.recover_node(NodeId(1));
            if round % 2 == 0 {
                fx.cluster.recover_node(NodeId(2));
            }
            std::thread::yield_now();
        }
        fx.cluster.recover_node(NodeId(1));
        fx.cluster.recover_node(NodeId(2));
    });

    assert_eq!(fx.cluster.guard().inflight(), 0, "permits leaked");
    // The cluster is still healthy: a fresh query on the original
    // fixture user answers normally after full recovery.
    let after = fx
        .cluster
        .query("SELECT COUNT(*) FROM clicks WHERE clicks > 3", &fx.cred)
        .expect("post-recovery query");
    assert_eq!(after.batch.rows(), 1);
}

/// Parallel hammer on the sharded block cache: every client thread runs
/// the miss → admit → SSD hit (promote) → memory hit ladder against the
/// *same two nodes* with thread-private paths. Per-key state never
/// races, so every global counter must land on its exact closed-form
/// total — the per-node shard locks and relaxed atomic stats may not
/// lose a single event under contention.
#[test]
fn parallel_hammer_on_two_nodes_keeps_exact_cache_totals() {
    let threads = client_threads().max(2) as u64;
    let ops = 64u64;
    let payload = 1024u64;
    // Everything is pinned: every offer is admitted on first sight.
    let cache = TieredCache::new(
        feisu_common::config::CacheSettings {
            enabled: true,
            ..Default::default()
        },
        vec!["/".into()],
    );
    let nodes = [NodeId(0), NodeId(1)];
    let barrier = Barrier::new(threads as usize);
    std::thread::scope(|s| {
        for t in 0..threads {
            let (cache, barrier) = (&cache, &barrier);
            s.spawn(move || {
                let user = UserId(100 + t);
                barrier.wait();
                for node in nodes {
                    for i in 0..ops {
                        let path = format!("/hammer/u{t}/b{i}");
                        let probe = || cache.get(node, &path, &[0]);
                        assert!(probe().is_none(), "fresh key must miss");
                        let bytes = Bytes::from(vec![t as u8; payload as usize]);
                        cache.admit(node, &path, Offer::whole(bytes), user);
                        let ssd = probe().expect("admitted key present");
                        let ssd_tier = Some(CacheTier::Ssd);
                        assert_eq!(ssd.tiers, [ssd_tier], "entries enter at the SSD tier");
                        let mem = probe().expect("promoted key present");
                        let mem_tier = Some(CacheTier::Memory);
                        assert_eq!(mem.tiers, [mem_tier], "SSD hit promotes to memory");
                        assert_eq!(mem.data.len() as u64, payload);
                    }
                }
            });
        }
    });

    // Exact totals: each (thread, node, key) contributed exactly one
    // miss, one admission, one SSD hit, one promotion and one memory hit.
    let per_node = threads * ops;
    let total = per_node * nodes.len() as u64;
    let stats = cache.stats();
    assert_eq!(
        (
            stats.misses,
            stats.ssd_hits,
            stats.mem_hits,
            stats.promotions
        ),
        (total, total, total, total),
        "lost cache events under contention: {stats:?}"
    );
    assert_eq!(stats.rejected + stats.quota_rejections, 0);
    assert_eq!(
        stats.mem_evictions + stats.ssd_evictions,
        0,
        "capacity never filled"
    );
    assert_eq!(cache.tracked_nodes(), nodes.len());
    for node in nodes {
        // Single residency: every entry was promoted, so all bytes sit in
        // the memory tier and each user's attribution is exact.
        assert_eq!(
            cache.used_on(node, CacheTier::Memory),
            ByteSize(per_node * payload)
        );
        assert_eq!(cache.used_on(node, CacheTier::Ssd), ByteSize(0));
        for t in 0..threads {
            assert_eq!(
                cache.user_used_on(node, UserId(100 + t)),
                ByteSize(ops * payload),
                "thread {t} attribution on {node:?}"
            );
        }
        let rows = cache.node_tier_rows(node);
        let mem_row = rows.iter().find(|r| r.tier == "mem").expect("mem row");
        assert_eq!(mem_row.entries as u64, per_node);
        assert_eq!(mem_row.hits, per_node);
        let ssd_row = rows.iter().find(|r| r.tier == "ssd").expect("ssd row");
        assert_eq!(ssd_row.entries, 0);
        assert_eq!(ssd_row.hits, per_node);
    }
}

/// One full cache-hierarchy workload run: per-client *private* tables
/// (disjoint block paths, so no cross-client cache coupling), ghost
/// admission on, capacities far above the working set (no evictions).
/// Each client climbs the full ladder on its own table: miss + ghost
/// register → ghost recall + SSD admit → SSD hit + promote → memory hit.
fn run_cache_workload(clients: usize, concurrent: bool) -> (Vec<Vec<QueryResult>>, CacheStats) {
    let mut spec = ClusterSpec::small();
    spec.task_reuse = false; // repeats must really re-read their blocks
    spec.use_smartindex = false;
    spec.config.cache.enabled = true;
    let fx = fixture_with(64, spec, "/hdfs/warehouse/clicks");
    for i in 0..clients {
        fx.cluster
            .create_table(
                &format!("t{i}"),
                clicks_schema(),
                &format!("/hdfs/warehouse/t{i}"),
                &fx.cred,
            )
            .expect("private table");
        fx.cluster
            .ingest_rows(&format!("t{i}"), clicks_rows(160), &fx.cred)
            .expect("private ingest");
    }
    let sessions = open_sessions(&fx.cluster, clients);
    let workloads: Vec<Vec<String>> = (0..clients)
        .map(|i| {
            let mut list: Vec<String> = (0..4)
                .map(|_| format!("SELECT SUM(clicks) FROM t{i}"))
                .collect();
            list.push(format!("SELECT COUNT(*) FROM t{i}"));
            list.push(format!("SELECT url FROM t{i} WHERE clicks > {}", 10 + i));
            list
        })
        .collect();

    let mut results: Vec<Vec<QueryResult>> = Vec::with_capacity(clients);
    if concurrent {
        let barrier = Barrier::new(clients);
        let mut slots: Vec<Option<Vec<QueryResult>>> = (0..clients).map(|_| None).collect();
        std::thread::scope(|s| {
            for (slot, (session, list)) in slots.iter_mut().zip(sessions.iter().zip(&workloads)) {
                let barrier = &barrier;
                s.spawn(move || {
                    barrier.wait();
                    *slot = Some(
                        list.iter()
                            .map(|sql| session.query(sql).expect("concurrent query"))
                            .collect(),
                    );
                });
            }
        });
        results.extend(slots.into_iter().map(|s| s.expect("client finished")));
    } else {
        for (session, list) in sessions.iter().zip(&workloads) {
            results.push(
                list.iter()
                    .map(|sql| session.query(sql).expect("serial query"))
                    .collect(),
            );
        }
    }
    let stats = fx.cluster.cache().expect("cache enabled").stats();
    (results, stats)
}

/// DESIGN.md §12 with the multi-tier cache in the loop: clients whose
/// tables (and thus cached block paths) are disjoint get bit-identical
/// `QueryResult`s serial vs concurrent, and the cache's global counters
/// land on the same exact totals either way (sums commute).
#[test]
fn cache_hierarchy_bit_identical_serial_vs_concurrent() {
    let clients = client_threads();
    let (serial, serial_stats) = run_cache_workload(clients, false);
    let (parallel, parallel_stats) = run_cache_workload(clients, true);

    for (i, (s, p)) in serial.iter().zip(&parallel).enumerate() {
        assert_eq!(s.len(), p.len(), "client {i}: query count");
        for (j, (a, b)) in s.iter().zip(p).enumerate() {
            assert_eq!(
                a, b,
                "client {i} query {j}: serial and concurrent cache runs diverged"
            );
        }
    }
    assert_eq!(
        serial_stats, parallel_stats,
        "cache counters diverged between run shapes"
    );
    // The workload climbed the whole ladder: ghost admissions (second
    // sighting), SSD hits, promotions and memory hits all happened.
    assert!(serial_stats.ghost_admissions > 0, "no ghost admissions");
    assert!(serial_stats.ssd_hits > 0, "no SSD hits");
    assert!(serial_stats.promotions > 0, "no promotions");
    assert!(serial_stats.mem_hits > 0, "no memory hits");
}

/// The guard's admission accounting under the integration surface: a
/// quota-capped user sees rejections, the `feisu.guard.*` metrics count
/// them, and the in-flight gauge drains back to zero.
#[test]
fn guard_quota_rejections_surface_in_metrics() {
    let mut spec = ClusterSpec::small();
    spec.guard.daily_quota = 3;
    let fx = fixture_with(120, spec, "/hdfs/warehouse/clicks");
    let session = fx.cluster.session(fx.cred.clone());

    let mut ok = 0usize;
    let mut rejected = 0usize;
    for v in 0..5 {
        match session.query(&format!("SELECT COUNT(*) FROM clicks WHERE clicks > {v}")) {
            Ok(_) => ok += 1,
            Err(e) => {
                rejected += 1;
                assert!(e.to_string().contains("quota"), "unexpected error: {e}");
            }
        }
    }
    assert_eq!(ok, 3, "quota admits exactly daily_quota queries");
    assert_eq!(rejected, 2);
    let metrics = fx.cluster.metrics();
    assert_eq!(metrics.counter("feisu.guard.rejected").get(), 2);
    assert_eq!(metrics.gauge("feisu.guard.inflight").get(), 0);
    assert_eq!(fx.cluster.guard().inflight(), 0);
}
