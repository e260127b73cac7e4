//! Replica placement, pinned. The four storage domains exactly as
//! `FeisuCluster::new` builds them (ids, prefixes, seeds, replication)
//! take 64 puts each, alternating a writer hint and none, and every
//! replica list must be the one recorded here. A change to a placement
//! policy or to the order of its random draws fails this test; so does a
//! change to how the cluster seeds or orders its domains.

use feisu_common::NodeId;
use feisu_core::engine::{ClusterSpec, FeisuCluster};
use feisu_storage::Bytes;

/// Per domain (local, hdfs, ffs, kv): the replica lists of its 64 puts in
/// put order, 16 a line, one digit per replica node, `-` for a refused
/// put. Put `i` writes `/golden/b{i}` with `near = node i/2` when `i` is
/// even and no hint when it is odd.
fn placements(spec: ClusterSpec) -> Vec<Vec<String>> {
    let nodes = spec.node_count() as u64;
    assert_eq!(spec.config.replication_factor, 3);
    let cluster = FeisuCluster::new(spec).unwrap();
    cluster
        .router()
        .domains()
        .iter()
        .map(|domain| {
            let lists: Vec<String> = (0..64u64)
                .map(|i| {
                    let path = format!("/golden/b{i}");
                    let near = (i % 2 == 0).then(|| NodeId(i / 2 % nodes));
                    match domain.put(&path, Bytes::from_static(b"x"), near) {
                        Ok(()) => domain
                            .replicas(&path)
                            .unwrap()
                            .iter()
                            .map(|n| n.0.to_string())
                            .collect(),
                        Err(_) => "-".to_string(),
                    }
                })
                .collect();
            lists.chunks(16).map(|c| c.join(" ")).collect()
        })
        .collect()
}

fn check(spec: ClusterSpec, expected: [[&str; 4]; 4]) {
    let actual = placements(spec);
    for (domain, (got, want)) in ["local", "hdfs", "ffs", "kv"]
        .iter()
        .zip(actual.iter().zip(expected))
    {
        assert_eq!(got, &want, "{domain} placement moved");
    }
}

#[test]
fn small_cluster_placement_is_pinned() {
    check(
        ClusterSpec::small(),
        [
            [
                "0 - 1 - 2 - 3 - 0 - 1 - 2 - 3 -",
                "0 - 1 - 2 - 3 - 0 - 1 - 2 - 3 -",
                "0 - 1 - 2 - 3 - 0 - 1 - 2 - 3 -",
                "0 - 1 - 2 - 3 - 0 - 1 - 2 - 3 -",
            ],
            [
                "012 320 103 103 230 320 320 103 013 230 103 321 230 013 321 013",
                "013 320 102 102 231 012 320 231 013 103 103 321 230 231 320 103",
                "013 320 102 231 231 320 321 102 012 102 103 102 230 102 320 321",
                "013 321 103 321 231 320 321 102 012 103 102 231 230 102 320 320",
            ],
            [
                "203 230 301 310 210 321 301 301 031 312 132 130 302 013 021 310",
                "301 312 320 023 123 231 021 231 231 031 120 321 102 123 032 312",
                "102 023 302 021 201 130 012 021 123 032 210 021 230 130 210 321",
                "203 130 123 132 231 103 013 210 012 132 230 013 231 301 021 230",
            ],
            [
                "0 0 0 0 3 1 3 0 1 3 2 0 1 3 0 1",
                "3 1 0 3 0 2 3 1 2 0 1 3 0 2 1 0",
                "2 3 0 2 3 1 2 2 2 3 2 0 0 3 1 0",
                "3 1 1 3 1 0 0 3 1 2 3 1 0 3 3 0",
            ],
        ],
    );
}

#[test]
fn eight_node_placement_is_pinned() {
    check(
        ClusterSpec::with_nodes(8),
        [
            [
                "0 - 1 - 2 - 3 - 4 - 5 - 6 - 7 -",
                "0 - 1 - 2 - 3 - 4 - 5 - 6 - 7 -",
                "0 - 1 - 2 - 3 - 4 - 5 - 6 - 7 -",
                "0 - 1 - 2 - 3 - 4 - 5 - 6 - 7 -",
            ],
            [
                "024 651 136 236 215 670 305 206 472 450 542 743 651 136 763 107",
                "036 741 104 214 216 135 304 472 472 327 543 642 650 563 761 327",
                "027 651 105 462 207 760 326 205 471 204 572 324 651 235 750 653",
                "016 652 136 643 236 760 307 304 450 326 571 473 641 325 761 741",
            ],
            [
                "507 432 601 720 420 635 702 602 072 617 267 372 614 045 062 613",
                "710 615 732 164 264 435 053 537 436 072 360 634 253 265 174 724",
                "241 154 704 062 501 360 043 052 356 175 523 052 423 270 410 735",
                "506 372 365 375 526 346 057 510 142 274 431 054 436 713 160 530",
            ],
            [
                "4 4 4 4 7 1 7 4 5 7 6 4 1 7 0 5",
                "3 1 4 7 0 6 3 1 2 0 5 3 4 2 5 0",
                "6 3 4 2 7 5 6 6 6 3 6 4 0 7 5 0",
                "7 1 5 3 1 4 4 7 5 2 3 1 0 3 3 0",
            ],
        ],
    );
}
