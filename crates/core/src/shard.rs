//! Attribute → shard partitioning for the sharded engine pool.
//!
//! Each attribute's knowledge base is independent (the paper's POP is
//! per-attribute), so the engine partitions naturally: hash every attribute
//! onto one of a [`ShardMap`]'s shards, and give each shard its own lock
//! and its own knowledge bases. Unrelated queries then never contend. A
//! shard owns a lock and its knowledge, not a directory: a durable pool
//! ([`crate::durability::ShardedDurablePool`]) is one engine directory with
//! one WAL and one group committer, so an operation pays one fsync however
//! many shards it spans, and a failed fsync poisons the whole pool.
//!
//! The map is a pure function of `(attr, shard count)` — no registry, no
//! rebalancing — so every layer computes the same placement independently,
//! and since nothing on disk depends on it, a reopen may ask for any
//! count: recovery replays the one log into one engine and splits it by
//! the requested map.

use crate::engine::PrkbEngine;
use crate::traits::SpPredicate;
use prkb_edbms::AttrId;

/// Upper bound on the *default* shard count (explicit settings may exceed
/// it). Matches the keystonedb observation that stripe counts past the
/// fsync-parallelism of the disk stop paying.
pub(crate) const MAX_DEFAULT_SHARDS: usize = 16;

/// A fixed hash partitioning of attributes across shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardMap {
    shards: usize,
}

impl ShardMap {
    /// A map over `shards` shards (clamped to at least 1).
    pub fn new(shards: usize) -> Self {
        ShardMap {
            shards: shards.max(1),
        }
    }

    /// `min(16, available cores)` — one shard per core until the
    /// [`MAX_DEFAULT_SHARDS`] cap.
    pub(crate) fn default_shards() -> usize {
        let cores = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        cores.clamp(1, MAX_DEFAULT_SHARDS)
    }

    /// Number of shards in this map.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard owning `attr`. Fibonacci-hashed so consecutive attribute
    /// ids (the common schema) spread instead of clustering.
    pub fn shard_of(&self, attr: AttrId) -> usize {
        let h = u64::from(attr).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        ((h >> 32) as usize) % self.shards
    }

    /// Splits `engine` into one engine per shard, in shard-id order, each
    /// holding the attributes this map routes to it.
    pub(crate) fn split<P: SpPredicate>(&self, mut engine: PrkbEngine<P>) -> Vec<PrkbEngine<P>> {
        let attrs: Vec<AttrId> = engine.attrs().collect();
        (0..self.shards)
            .map(|sid| {
                let own: Vec<AttrId> = (attrs.iter().copied())
                    .filter(|&a| self.shard_of(a) == sid)
                    .collect();
                engine
                    .detach_attrs(&own)
                    .expect("attrs enumerated from the engine")
            })
            .collect()
    }

    /// Groups `attrs` by shard, shards in ascending order (the lock-
    /// acquisition order every multi-shard operation must use).
    pub(crate) fn group_sorted(&self, attrs: &[AttrId]) -> Vec<(usize, Vec<AttrId>)> {
        let mut by_shard: Vec<(usize, Vec<AttrId>)> = Vec::new();
        let mut sorted: Vec<AttrId> = attrs.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        for attr in sorted {
            let sid = self.shard_of(attr);
            match by_shard.iter_mut().find(|(s, _)| *s == sid) {
                Some((_, v)) => v.push(attr),
                None => by_shard.push((sid, vec![attr])),
            }
        }
        by_shard.sort_unstable_by_key(|(sid, _)| *sid);
        by_shard
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_shard_maps_everything_to_zero() {
        let map = ShardMap::new(1);
        for attr in 0..100u32 {
            assert_eq!(map.shard_of(attr), 0);
        }
    }

    #[test]
    fn placement_is_deterministic_and_in_range() {
        let map = ShardMap::new(8);
        for attr in 0..1000u32 {
            let s = map.shard_of(attr);
            assert!(s < 8);
            assert_eq!(s, map.shard_of(attr), "stable placement");
        }
    }

    #[test]
    fn consecutive_attrs_spread_across_shards() {
        let map = ShardMap::new(8);
        let mut used = std::collections::HashSet::new();
        for attr in 0..16u32 {
            used.insert(map.shard_of(attr));
        }
        assert!(
            used.len() >= 4,
            "16 attrs landed on {} shard(s)",
            used.len()
        );
    }

    #[test]
    fn group_sorted_orders_shards_and_dedups() {
        let map = ShardMap::new(4);
        let groups = map.group_sorted(&[7, 3, 7, 11, 0]);
        let mut last = None;
        let mut total = 0usize;
        for (sid, attrs) in &groups {
            assert!(last.is_none_or(|l| l < *sid), "ascending shard order");
            last = Some(*sid);
            for a in attrs {
                assert_eq!(map.shard_of(*a), *sid);
            }
            total += attrs.len();
        }
        assert_eq!(total, 4, "deduplicated");
    }

    #[test]
    fn zero_clamps_to_one() {
        assert_eq!(ShardMap::new(0).shards(), 1);
    }
}
