//! `TieredCache` against a brute-force model: every chunk resident on a
//! node in one `Vec`, coldest first, each with its tier and speculative
//! flag.
//!
//! Seeded read sequences over a few blocks of random chunk layouts and a
//! few nodes, through small tiers (so admission, promotion, demotion and
//! eviction churn), replay the router's read: probe the chunks a read
//! touches, and on any miss offer the whole object with those chunks
//! touched. Each probe must serve every chunk from the same tier as the
//! model, and the `CacheStats` totals, each tier's bytes and each ghost
//! must agree after every read.

use feisu_common::config::CacheSettings;
use feisu_common::rng::DetRng;
use feisu_common::{ByteSize, NodeId, UserId};
use feisu_storage::{Bytes, CacheStats, CacheTier, Offer, TieredCache};
use proptest::prelude::*;

const NODES: u64 = 3;
const TIERS: [CacheTier; 2] = [CacheTier::Memory, CacheTier::Ssd];

#[derive(Debug, Clone, Copy)]
struct Chunk {
    node: u64,
    block: usize,
    index: usize,
    len: u64,
    tier: CacheTier,
    speculative: bool,
}

struct Model {
    /// Resident chunks of every node, coldest first.
    chunks: Vec<Chunk>,
    /// Per node, the blocks its ghost remembers, coldest first.
    ghosts: Vec<Vec<usize>>,
    mem: u64,
    ssd: u64,
    ghost_capacity: usize,
    pinned: bool,
    stats: CacheStats,
}

impl Model {
    fn cap(&self, tier: CacheTier) -> u64 {
        match tier {
            CacheTier::Memory => self.mem,
            CacheTier::Ssd => self.ssd,
        }
    }

    fn find(&self, node: u64, block: usize, index: usize) -> Option<usize> {
        let at = |c: &Chunk| (c.node, c.block, c.index) == (node, block, index);
        self.chunks.iter().position(at)
    }

    fn holds(&self, node: u64, block: usize) -> bool {
        self.chunks
            .iter()
            .any(|c| (c.node, c.block) == (node, block))
    }

    fn used(&self, node: u64, tier: CacheTier) -> u64 {
        let on = |c: &&Chunk| c.node == node && c.tier == tier;
        self.chunks.iter().filter(on).map(|c| c.len).sum()
    }

    /// Moves the chunk at `at` to the hot end.
    fn refresh(&mut self, at: usize) -> &mut Chunk {
        let chunk = self.chunks.remove(at);
        self.chunks.push(chunk);
        self.chunks.last_mut().expect("just pushed")
    }

    fn remember(&mut self, node: u64, block: usize) {
        if self.ghost_capacity == 0 {
            return;
        }
        let ghost = &mut self.ghosts[node as usize];
        ghost.retain(|&b| b != block);
        ghost.push(block);
        if ghost.len() > self.ghost_capacity {
            ghost.remove(0);
        }
    }

    fn get(
        &mut self,
        node: u64,
        block: usize,
        touched: &[usize],
    ) -> Option<Vec<Option<CacheTier>>> {
        if !self.holds(node, block) {
            self.stats.misses += touched.len() as u64;
            return None;
        }
        let mut tiers = Vec::new();
        for &index in touched {
            let tier = self.find(node, block, index).map(|at| {
                let chunk = self.refresh(at);
                chunk.speculative = false;
                chunk.tier
            });
            match tier {
                Some(CacheTier::Memory) => self.stats.mem_hits += 1,
                Some(CacheTier::Ssd) => self.stats.ssd_hits += 1,
                None => self.stats.misses += 1,
            }
            tiers.push(tier);
        }
        if tiers.contains(&Some(CacheTier::Ssd)) {
            self.promote(node, block);
        }
        Some(tiers)
    }

    fn promote(&mut self, node: u64, block: usize) {
        let on_ssd = |c: &&Chunk| (c.node, c.block, c.tier) == (node, block, CacheTier::Ssd);
        let bytes: u64 = self.chunks.iter().filter(on_ssd).map(|c| c.len).sum();
        let mut indices: Vec<usize> = self.chunks.iter().filter(on_ssd).map(|c| c.index).collect();
        if self.mem == 0 || bytes > self.mem {
            return;
        }
        indices.sort_unstable();
        for index in indices {
            let at = self.find(node, block, index).expect("on ssd");
            self.refresh(at).tier = CacheTier::Memory;
            self.stats.promotions += 1;
        }
        self.shrink(node, CacheTier::Memory);
    }

    fn shrink(&mut self, node: u64, tier: CacheTier) {
        let mut demoted = false;
        while self.used(node, tier) > self.cap(tier) {
            let in_tier = |c: &Chunk| c.node == node && c.tier == tier;
            let speculative = self.chunks.iter().position(|c| in_tier(c) && c.speculative);
            let Some(at) = speculative.or_else(|| self.chunks.iter().position(in_tier)) else {
                break;
            };
            match tier {
                CacheTier::Memory => self.stats.mem_evictions += 1,
                CacheTier::Ssd => self.stats.ssd_evictions += 1,
            }
            let len = self.chunks[at].len;
            if tier == CacheTier::Memory && self.ssd > 0 && len <= self.ssd {
                self.refresh(at).tier = CacheTier::Ssd;
                demoted = true;
            } else {
                let victim = self.chunks.remove(at);
                if !self.holds(node, victim.block) {
                    self.remember(node, victim.block);
                }
            }
        }
        if demoted {
            self.shrink(node, CacheTier::Ssd);
        }
    }

    fn admit(&mut self, node: u64, block: usize, touched: &[usize], layout: &[u64]) {
        let enter = match self.ssd {
            0 => CacheTier::Memory,
            _ => CacheTier::Ssd,
        };
        if layout.iter().sum::<u64>() > self.cap(enter)
            || (self.ghost_capacity == 0 && !self.pinned)
        {
            self.stats.rejected += 1;
            return;
        }
        if !self.holds(node, block) && !self.pinned {
            let ghost = &mut self.ghosts[node as usize];
            match ghost.iter().position(|&b| b == block) {
                Some(at) => {
                    ghost.remove(at);
                    self.stats.ghost_admissions += 1;
                }
                None => {
                    self.remember(node, block);
                    self.stats.ghost_registered += 1;
                    self.stats.rejected += 1;
                    return;
                }
            }
        }
        for (index, &len) in layout.iter().enumerate() {
            if self.find(node, block, index).is_none() {
                self.chunks.push(Chunk {
                    node,
                    block,
                    index,
                    len,
                    tier: enter,
                    speculative: !touched.contains(&index),
                });
            }
        }
        self.shrink(node, enter);
    }
}

/// The chunks of a `chunks`-chunk block that `mask` picks; chunk
/// `mask % chunks` when it picks none.
fn touched(mask: u32, chunks: usize) -> Vec<usize> {
    let picked: Vec<usize> = (0..chunks).filter(|i| mask >> i & 1 == 1).collect();
    match picked.is_empty() {
        true => vec![mask as usize % chunks],
        false => picked,
    }
}

proptest! {
    #[test]
    fn chunk_cache_matches_a_vec_in_recency_order(
        seed in any::<u64>(),
        caps in (0u64..700, 0u64..1200, 0usize..4, any::<bool>()),
        reads in proptest::collection::vec((0u64..NODES, 0usize..6, 1u32..64), 1..150),
    ) {
        let (mem, ssd, ghost_capacity, pinned) = caps;
        // An enabled cache has a tier.
        let ssd = if mem == 0 { ssd.max(1) } else { ssd };
        let mut rng = DetRng::new(seed);
        let layouts: Vec<Vec<u64>> = (0..6)
            .map(|_| (0..1 + rng.index(5)).map(|_| 1 + rng.index(150) as u64).collect())
            .collect();
        let settings = CacheSettings {
            enabled: true,
            mem_capacity_per_node: ByteSize(mem),
            ssd_capacity_per_node: ByteSize(ssd),
            ghost_capacity,
        };
        let pins = match pinned {
            true => vec!["/".into()],
            false => Vec::new(),
        };
        let cache = TieredCache::new(settings, pins, NODES as usize);
        let mut model = Model {
            chunks: Vec::new(),
            ghosts: vec![Vec::new(); NODES as usize],
            mem,
            ssd,
            ghost_capacity,
            pinned,
            stats: CacheStats::default(),
        };
        let user = UserId(1);
        for (node, block, mask) in reads {
            let (path, layout) = (format!("/t/b{block}"), &layouts[block]);
            let touched = touched(mask, layout.len());
            let size = layout.iter().sum::<u64>() as usize;
            let hit = cache.get(NodeId(node), &path, &touched);
            let expected = model.get(node, block, &touched);
            prop_assert_eq!(hit.as_ref().map(|h| h.data.len()), expected.as_ref().map(|_| size));
            prop_assert_eq!(hit.map(|h| h.tiers), expected.clone());
            if expected.is_none_or(|tiers| tiers.contains(&None)) {
                let data = Bytes::from(vec![0u8; size]);
                let offer = Offer { data, chunks: layout.clone(), touched: touched.clone() };
                cache.admit(NodeId(node), &path, offer, user);
                model.admit(node, block, &touched, layout);
            }
            prop_assert_eq!(cache.stats(), model.stats);
            for n in 0..NODES {
                for tier in TIERS {
                    prop_assert_eq!(cache.used_on(NodeId(n), tier).as_u64(), model.used(n, tier));
                }
                prop_assert_eq!(cache.ghost_len_on(NodeId(n)), model.ghosts[n as usize].len());
            }
        }
    }
}
