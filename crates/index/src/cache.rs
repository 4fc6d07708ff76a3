//! Per-batch cache of node-summary lower bounds.
//!
//! A batch that repeats a query (fleet workloads re-ask popular probes all
//! the time) recomputes every node-summary bound that query's
//! traversal needs, once per repetition. The [`BoundCache`] shares those
//! node bounds across a batch's work items: entries are keyed by
//! `(shard, node, query)` — the shard index, the node's stable pre-order
//! id within the pinned epoch (see `tree::Node`), and the query's
//! *canonical* index under bitwise coordinate equality
//! ([`canonical_queries`]), so textually distinct but bit-identical
//! probes share entries.
//!
//! ## Why caching a *bounded* kernel result is subtle
//!
//! The `_bounded` kernels return truncated partial sums once the
//! accumulation passes the caller's cutoff. A partial is an admissible
//! pruning key for *any* caller (all terms are non-negative), but it is
//! not the full bound — a later caller with a larger threshold must not
//! treat it as one. Every entry therefore records whether it is `full`:
//!
//! * `full` entries short-circuit the kernel unconditionally;
//! * partial entries are reused only when they already prune for the
//!   current caller (`value > threshold`); otherwise the kernel runs and
//!   the entry is upgraded.
//!
//! Only the raw metric's "`result <= cutoff` implies full" contract can
//! prove fullness of a bailed-capable run (the normalised kernels rescale
//! the cutoff, which breaks the implication — see
//! [`traj_dist::Metric::lower_bound_boxes`]); callers make that
//! call and the cache just stores the verdict.
//!
//! The map is striped across [`STRIPES`] mutexes so concurrent batch
//! workers rarely contend; a batch is short-lived, so entries are never
//! evicted — the cache dies with the batch, which also means it can never
//! observe two epochs (a batch pins one snapshot).

use std::collections::HashMap;
use std::sync::Mutex;
use traj_core::Trajectory;

const STRIPES: usize = 16;

/// `(shard, node, canonical query)` — see the module docs.
pub(crate) type BoundKey = (u32, u32, u32);

/// One cached bound and whether it is the full accumulation or a
/// truncated (but still admissible) partial.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BoundEntry {
    pub(crate) value: f64,
    pub(crate) full: bool,
}

/// Striped concurrent map from [`BoundKey`] to the best known bound.
pub(crate) struct BoundCache {
    stripes: Vec<Mutex<HashMap<BoundKey, BoundEntry>>>,
}

impl BoundCache {
    pub(crate) fn new() -> Self {
        BoundCache {
            stripes: (0..STRIPES).map(|_| Mutex::new(HashMap::new())).collect(),
        }
    }

    #[inline]
    fn stripe(key: &BoundKey) -> usize {
        // Node ids vary fastest along a traversal; spread them first.
        (key.1.wrapping_mul(0x9e37_79b9) ^ key.0.rotate_left(8) ^ key.2.rotate_left(16)) as usize
            % STRIPES
    }

    pub(crate) fn get(&self, key: BoundKey) -> Option<BoundEntry> {
        self.stripes[Self::stripe(&key)]
            .lock()
            .expect("bound-cache stripe poisoned")
            .get(&key)
            .copied()
    }

    /// Records `entry`, keeping whichever of old/new is stronger: a full
    /// bound beats any partial, and among partials the larger one prunes
    /// more often (both are admissible).
    pub(crate) fn put(&self, key: BoundKey, entry: BoundEntry) {
        let mut map = self.stripes[Self::stripe(&key)]
            .lock()
            .expect("bound-cache stripe poisoned");
        map.entry(key)
            .and_modify(|e| {
                if !e.full && (entry.full || entry.value > e.value) {
                    *e = entry;
                }
            })
            .or_insert(entry);
    }
}

/// Maps each query of a batch to the index of its first bitwise-identical
/// occurrence (coordinates *and* timestamps compared bit-for-bit), the
/// query component of a [`BoundKey`]. Bit equality is the right notion:
/// the kernels are deterministic functions of the raw input bits, so
/// canonical-equal queries provably share every bound value.
pub(crate) fn canonical_queries(queries: &[Trajectory]) -> Vec<u32> {
    let mut first: HashMap<Vec<u64>, u32> = HashMap::with_capacity(queries.len());
    queries
        .iter()
        .enumerate()
        .map(|(i, q)| {
            let bits: Vec<u64> = q
                .points()
                .iter()
                .flat_map(|s| [s.p.x.to_bits(), s.p.y.to_bits(), s.t.to_bits()])
                .collect();
            *first.entry(bits).or_insert(i as u32)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_keeps_the_stronger_entry() {
        let cache = BoundCache::new();
        let key = (1, 2, 3);
        cache.put(
            key,
            BoundEntry {
                value: 5.0,
                full: false,
            },
        );
        // A smaller partial does not displace a larger one.
        cache.put(
            key,
            BoundEntry {
                value: 4.0,
                full: false,
            },
        );
        assert_eq!(cache.get(key).unwrap().value, 5.0);
        // A full bound displaces any partial, even a numerically larger one.
        cache.put(
            key,
            BoundEntry {
                value: 4.5,
                full: true,
            },
        );
        let e = cache.get(key).unwrap();
        assert!(e.full);
        assert_eq!(e.value, 4.5);
        // And nothing displaces a full bound.
        cache.put(
            key,
            BoundEntry {
                value: 9.0,
                full: false,
            },
        );
        assert!(cache.get(key).unwrap().full);
        assert_eq!(cache.get(key).unwrap().value, 4.5);
        assert!(cache.get((9, 9, 9)).is_none());
    }

    #[test]
    fn canonical_queries_dedup_bitwise_repeats() {
        let a = Trajectory::from_xy(&[(0.0, 0.0), (1.0, 1.0)]);
        let b = Trajectory::from_xy(&[(0.0, 0.0), (2.0, 1.0)]);
        let canon = canonical_queries(&[a.clone(), b.clone(), a.clone(), b, a.clone()]);
        assert_eq!(canon, vec![0, 1, 0, 1, 0]);
        // -0.0 and 0.0 are distinct bit patterns, hence distinct queries.
        let neg = Trajectory::from_xy(&[(-0.0, 0.0), (1.0, 1.0)]);
        assert_eq!(canonical_queries(&[a, neg]), vec![0, 1]);
    }
}
