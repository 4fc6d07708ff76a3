use crate::store::{TrajId, TrajStore};
use traj_core::{Point, TotalF64, Trajectory};
use traj_dist::BoxSeq;

/// Tuning parameters of a [`TrajTree`].
#[derive(Debug, Clone)]
pub struct TrajTreeConfig {
    /// Maximum trajectories per leaf before it splits.
    pub leaf_capacity: usize,
    /// Maximum children per internal node before it splits. Values below 2
    /// act as 2 (a node needs two children for the tree to narrow).
    pub fanout: usize,
    /// Box budget for leaf summaries (coarsening cap of the tBoxSeq).
    pub leaf_boxes: usize,
    /// Box budget for internal-node summaries; coarser than leaves because
    /// internal nodes summarise many more trajectories.
    pub internal_boxes: usize,
}

impl Default for TrajTreeConfig {
    fn default() -> Self {
        TrajTreeConfig {
            leaf_capacity: 8,
            fanout: 8,
            leaf_boxes: 24,
            internal_boxes: 12,
        }
    }
}

/// A TrajTree node (Sec. V): leaves hold trajectory ids under a tBoxSeq
/// aligned over their members; internal nodes summarise their subtree by
/// rolling their children's tBoxSeqs up ([`make_internal`]).
/// `max_len` upper-bounds the spatial length of every trajectory in the
/// subtree — the bookkeeping the length-normalised metric's admissible
/// node bound divides by.
#[derive(Debug, Clone)]
pub(crate) enum Node {
    Leaf {
        ids: Vec<TrajId>,
        summary: BoxSeq,
        max_len: f64,
    },
    Internal {
        children: Vec<Node>,
        summary: BoxSeq,
        max_len: f64,
    },
}

impl Node {
    pub(crate) fn summary(&self) -> &BoxSeq {
        match self {
            Node::Leaf { summary, .. } | Node::Internal { summary, .. } => summary,
        }
    }

    /// Upper bound on the spatial length of every trajectory in this
    /// subtree (exact max after builds; never undershoots after inserts
    /// and splits, which is all admissibility needs).
    pub(crate) fn max_len(&self) -> f64 {
        match self {
            Node::Leaf { max_len, .. } | Node::Internal { max_len, .. } => *max_len,
        }
    }

    fn collect_ids(&self, out: &mut Vec<TrajId>) {
        match self {
            Node::Leaf { ids, .. } => out.extend_from_slice(ids),
            Node::Internal { children, .. } => {
                for c in children {
                    c.collect_ids(out);
                }
            }
        }
    }

    fn height(&self) -> usize {
        match self {
            Node::Leaf { .. } => 1,
            Node::Internal { children, .. } => {
                1 + children.iter().map(Node::height).max().unwrap_or(0)
            }
        }
    }

    fn node_count(&self) -> usize {
        match self {
            Node::Leaf { .. } => 1,
            Node::Internal { children, .. } => {
                1 + children.iter().map(Node::node_count).sum::<usize>()
            }
        }
    }

    /// Centre of the summary's overall bounding box, used as the node's
    /// sort key during bulk-loading and splits.
    fn center(&self) -> Point {
        self.summary()
            .bbox()
            .expect("node summaries are never empty")
            .center()
    }
}

/// The TrajTree index (Sec. V): a height-balanced hierarchy of tBoxSeq
/// summaries over a [`TrajStore`], supporting bulk-loading and incremental
/// insertion. Exact best-first searches run through the query surface: a
/// [`crate::Session`] shards the database across several trees, and
/// [`crate::Session::from_parts`] wraps one hand-built tree.
///
/// Every node's summary covers every trajectory in its subtree, so the
/// admissible bound [`traj_dist::edwp_lower_bound_boxes`] applies to each
/// of them (Theorem 2), which is what makes pruned search exact. Leaf
/// summaries come from the paper's iterative alignment (Sec. IV-B);
/// internal summaries from the one roll-up rule (`make_internal`), on every
/// build path.
#[derive(Debug, Clone)]
pub struct TrajTree {
    pub(crate) root: Option<Node>,
    config: TrajTreeConfig,
    len: usize,
}

impl Default for TrajTree {
    /// An empty default-configuration tree (what bulk-loading an empty
    /// store produces).
    fn default() -> Self {
        TrajTree {
            root: None,
            config: TrajTreeConfig::default(),
            len: 0,
        }
    }
}

impl TrajTree {
    /// Bulk-loads an index over every trajectory in `store` using a
    /// Sort-Tile-Recursive packing: trajectories are tiled by centroid into
    /// full leaves, and parent levels are packed the same way until a
    /// single root remains.
    pub fn bulk_load(store: &TrajStore, config: TrajTreeConfig) -> Self {
        let mut items: Vec<(TrajId, Point)> =
            store.iter().map(|(id, t)| (id, centroid(t))).collect();
        if items.is_empty() {
            return TrajTree {
                root: None,
                config,
                len: 0,
            };
        }
        let len = items.len();
        let mut nodes: Vec<Node> = str_tiles(&mut items, config.leaf_capacity)
            .into_iter()
            .map(|group| make_leaf(store, &group, &config))
            .collect();
        while nodes.len() > 1 {
            let mut reps: Vec<(usize, Point)> = nodes
                .iter()
                .enumerate()
                .map(|(i, n)| (i, n.center()))
                .collect();
            let tiles = str_tiles(&mut reps, config.fanout.max(2));
            // Drain `nodes` into parents without cloning subtrees.
            let mut slots: Vec<Option<Node>> = nodes.into_iter().map(Some).collect();
            nodes = tiles
                .into_iter()
                .map(|tile| {
                    let children: Vec<Node> = tile
                        .iter()
                        .map(|&i| slots[i].take().expect("each node tiled once"))
                        .collect();
                    make_internal(children, &config)
                })
                .collect();
        }
        TrajTree {
            root: nodes.pop(),
            config,
            len,
        }
    }

    /// Bulk-loads with the default configuration.
    pub fn build(store: &TrajStore) -> Self {
        TrajTree::bulk_load(store, TrajTreeConfig::default())
    }

    /// Inserts the already-stored trajectory `id` (Alg. 1): descends along
    /// the child whose summary grows least in volume, merges the trajectory
    /// into each summary on the path, and splits nodes that overflow.
    ///
    /// # Panics
    /// Panics when `id` is not present in `store`.
    pub fn insert(&mut self, store: &TrajStore, id: TrajId) {
        let t = store.get(id);
        self.len += 1;
        match self.root.take() {
            None => {
                self.root = Some(make_leaf(store, &[id], &self.config));
            }
            Some(mut root) => {
                if let Some(sibling) = insert_rec(&mut root, store, id, t, &self.config, None) {
                    self.root = Some(make_internal(vec![root, sibling], &self.config));
                } else {
                    self.root = Some(root);
                }
            }
        }
    }

    /// Number of indexed trajectories.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no trajectories are indexed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Height of the tree (0 when empty; a lone leaf has height 1).
    pub fn height(&self) -> usize {
        self.root.as_ref().map_or(0, Node::height)
    }

    /// Total number of nodes.
    pub fn node_count(&self) -> usize {
        self.root.as_ref().map_or(0, Node::node_count)
    }

    /// The configuration the tree was built with.
    pub fn config(&self) -> &TrajTreeConfig {
        &self.config
    }

    /// All indexed ids (unsorted tree order).
    pub fn ids(&self) -> Vec<TrajId> {
        let mut out = Vec::with_capacity(self.len);
        if let Some(root) = &self.root {
            root.collect_ids(&mut out);
        }
        out
    }
}

/// Mean position of a trajectory's sample points.
fn centroid(t: &Trajectory) -> Point {
    let n = t.num_points() as f64;
    let (sx, sy) = t
        .points()
        .iter()
        .fold((0.0, 0.0), |(x, y), s| (x + s.p.x, y + s.p.y));
    Point::new(sx / n, sy / n)
}

/// Sort-Tile-Recursive grouping: sorts by x, slices into vertical strips of
/// roughly `sqrt(n / cap)` columns, sorts each strip by y and chunks it
/// into groups of at most `cap`. Returns the groups' payloads.
fn str_tiles<T: Copy>(items: &mut [(T, Point)], cap: usize) -> Vec<Vec<T>> {
    let n = items.len();
    let cap = cap.max(1);
    let num_groups = n.div_ceil(cap);
    let num_strips = (num_groups as f64).sqrt().ceil() as usize;
    let strip_len = n.div_ceil(num_strips.max(1));
    items.sort_by_key(|(_, p)| (TotalF64(p.x), TotalF64(p.y)));
    let mut out = Vec::with_capacity(num_groups);
    for strip in items.chunks_mut(strip_len.max(1)) {
        strip.sort_by_key(|(_, p)| (TotalF64(p.y), TotalF64(p.x)));
        for group in strip.chunks(cap) {
            out.push(group.iter().map(|&(id, _)| id).collect());
        }
    }
    out
}

/// Builds a leaf over `ids`, its summary the coalesced tBoxSeq aligned over
/// all members (Sec. IV-B).
fn make_leaf(store: &TrajStore, ids: &[TrajId], config: &TrajTreeConfig) -> Node {
    let members = ids.iter().map(|&id| store.get(id));
    let summary = BoxSeq::from_trajectories(members, Some(config.leaf_boxes))
        .expect("leaves hold at least one trajectory");
    let max_len = ids
        .iter()
        .map(|&id| store.get(id).length())
        .fold(0.0, f64::max);
    Node::Leaf {
        ids: ids.to_vec(),
        summary,
        max_len,
    }
}

/// Builds an internal node over `children` — the one rule for internal
/// summaries, on every build path (bulk load, internal splits, root
/// growth): concatenate the children's box sequences and coalesce to the
/// internal budget. Admissible by coverage alone: every member's polyline
/// lies inside some child's boxes and coalescing only unions boxes, and the
/// bounds take a minimum over all boxes, so they never depend on the order
/// the concatenation happens to produce.
fn make_internal(children: Vec<Node>, config: &TrajTreeConfig) -> Node {
    let boxes: Vec<_> = children
        .iter()
        .flat_map(|c| c.summary().boxes().iter().copied())
        .collect();
    let mut summary = BoxSeq::from_boxes(boxes);
    summary.coalesce(Some(config.internal_boxes));
    let max_len = children.iter().map(Node::max_len).fold(0.0, f64::max);
    Node::Internal {
        children,
        summary,
        max_len,
    }
}

/// Recursive insertion; returns a split-off sibling when `node` overflowed.
///
/// `premerged` is this node's summary already merged with `t` (uncoalesced),
/// when the parent computed it while choosing the descent child — the choice
/// runs the merge DP on every child, so passing the winner's result down
/// saves one full `O(|t|·|B|)` alignment per level.
fn insert_rec(
    node: &mut Node,
    store: &TrajStore,
    id: TrajId,
    t: &Trajectory,
    config: &TrajTreeConfig,
    premerged: Option<BoxSeq>,
) -> Option<Node> {
    match node {
        Node::Leaf {
            ids,
            summary,
            max_len,
            ..
        } => {
            let mut merged = premerged.unwrap_or_else(|| summary.merge_trajectory(t));
            merged.coalesce(Some(config.leaf_boxes));
            *summary = merged;
            *max_len = max_len.max(t.length());
            ids.push(id);
            (ids.len() > config.leaf_capacity)
                .then(|| split_leaf(ids, summary, max_len, store, config))
        }
        Node::Internal {
            children,
            summary,
            max_len,
            ..
        } => {
            let mut merged = premerged.unwrap_or_else(|| summary.merge_trajectory(t));
            merged.coalesce(Some(config.internal_boxes));
            *summary = merged;
            *max_len = max_len.max(t.length());
            // Alg. 1 line 11: follow the child whose tBoxSeq grows least.
            let (best, child_merged) = children
                .iter()
                .map(|c| c.summary().merge_trajectory(t))
                .enumerate()
                .min_by_key(|(i, m)| TotalF64(m.volume() - children[*i].summary().volume()))
                .expect("internal nodes always have children");
            if let Some(sibling) = insert_rec(
                &mut children[best],
                store,
                id,
                t,
                config,
                Some(child_merged),
            ) {
                children.push(sibling);
                if children.len() > config.fanout.max(2) {
                    return Some(split_internal(children, summary, max_len, config));
                }
            }
            None
        }
    }
}

/// Splits an overflowing leaf in half along the dominant axis of its member
/// centroids; rebuilds both summaries (and both exact `max_len`s — keeping
/// the pre-split value would stay admissible but permanently loosen the
/// kept half's normalised-metric bound). Returns the new sibling.
fn split_leaf(
    ids: &mut Vec<TrajId>,
    summary: &mut BoxSeq,
    max_len: &mut f64,
    store: &TrajStore,
    config: &TrajTreeConfig,
) -> Node {
    let mut items: Vec<(TrajId, Point)> = ids
        .iter()
        .map(|&id| (id, centroid(store.get(id))))
        .collect();
    sort_along_dominant_axis(&mut items);
    let half = items.len() / 2;
    let keep: Vec<TrajId> = items[..half].iter().map(|&(id, _)| id).collect();
    let give: Vec<TrajId> = items[half..].iter().map(|&(id, _)| id).collect();
    let sibling = make_leaf(store, &give, config);
    if let Node::Leaf {
        ids: new_ids,
        summary: new_summary,
        max_len: new_max_len,
        ..
    } = make_leaf(store, &keep, config)
    {
        *ids = new_ids;
        *summary = new_summary;
        *max_len = new_max_len;
    }
    sibling
}

/// Splits an overflowing internal node in half along the dominant axis of
/// its child centres; rebuilds both summaries and exact `max_len`s (see
/// [`split_leaf`]). Returns the new sibling.
fn split_internal(
    children: &mut Vec<Node>,
    summary: &mut BoxSeq,
    max_len: &mut f64,
    config: &TrajTreeConfig,
) -> Node {
    let mut items: Vec<(usize, Point)> = children
        .iter()
        .enumerate()
        .map(|(i, c)| (i, c.center()))
        .collect();
    sort_along_dominant_axis(&mut items);
    let half = items.len() / 2;
    let give_idx: Vec<usize> = items[half..].iter().map(|&(i, _)| i).collect();
    let mut slots: Vec<Option<Node>> = std::mem::take(children).into_iter().map(Some).collect();
    let give: Vec<Node> = give_idx
        .iter()
        .map(|&i| slots[i].take().expect("child moved once"))
        .collect();
    let keep: Vec<Node> = slots.into_iter().flatten().collect();
    let kept = make_internal(keep, config);
    let sibling = make_internal(give, config);
    if let Node::Internal {
        children: new_children,
        summary: new_summary,
        max_len: new_max_len,
        ..
    } = kept
    {
        *children = new_children;
        *summary = new_summary;
        *max_len = new_max_len;
    }
    sibling
}

/// Sorts `(payload, point)` pairs along whichever axis has the larger
/// spread, breaking ties by the other axis.
fn sort_along_dominant_axis<T>(items: &mut [(T, Point)]) {
    let (mut lo, mut hi) = (
        Point::new(f64::INFINITY, f64::INFINITY),
        Point::new(f64::NEG_INFINITY, f64::NEG_INFINITY),
    );
    for (_, p) in items.iter() {
        lo = Point::new(lo.x.min(p.x), lo.y.min(p.y));
        hi = Point::new(hi.x.max(p.x), hi.y.max(p.y));
    }
    if hi.x - lo.x >= hi.y - lo.y {
        items.sort_by_key(|(_, p)| (TotalF64(p.x), TotalF64(p.y)));
    } else {
        items.sort_by_key(|(_, p)| (TotalF64(p.y), TotalF64(p.x)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use traj_core::approx_eq;

    fn store_of(n: usize) -> TrajStore {
        // n parallel short trajectories spread along x.
        let mut store = TrajStore::new();
        for i in 0..n {
            let x = i as f64 * 3.0;
            store.insert(Trajectory::from_xy(&[
                (x, 0.0),
                (x + 1.0, 1.0),
                (x + 2.0, 0.0),
            ]));
        }
        store
    }

    fn small_nodes() -> TrajTreeConfig {
        TrajTreeConfig {
            leaf_capacity: 3,
            fanout: 3,
            ..TrajTreeConfig::default()
        }
    }

    /// Walks every node of a tree that indexes all of `store` and asserts
    /// what each build path owes the search: coverage (every subtree
    /// member's box bound against the node's summary is 0 — the premise of
    /// Theorem 2), the box / capacity / fanout budgets, and `max_len` equal
    /// to the exact subtree maximum.
    fn check_invariants(tree: &TrajTree, store: &TrajStore) {
        fn walk(node: &Node, store: &TrajStore, config: &TrajTreeConfig) {
            match node {
                Node::Leaf { ids, summary, .. } => {
                    assert!((1..=config.leaf_capacity).contains(&ids.len()));
                    assert!(summary.len() <= config.leaf_boxes);
                }
                Node::Internal {
                    children, summary, ..
                } => {
                    assert!((1..=config.fanout.max(2)).contains(&children.len()));
                    assert!(summary.len() <= config.internal_boxes);
                    for c in children {
                        walk(c, store, config);
                    }
                }
            }
            let mut members = Vec::new();
            node.collect_ids(&mut members);
            let mut longest = 0.0f64;
            for &id in &members {
                let t = store.get(id);
                let lb = traj_dist::edwp_lower_bound_boxes(t, node.summary());
                assert!(
                    approx_eq(lb.max(0.0), 0.0),
                    "member {id} has bound {lb} against the node over {members:?}"
                );
                longest = longest.max(t.length());
            }
            assert_eq!(node.max_len(), longest, "max_len over {members:?}");
        }
        if let Some(root) = &tree.root {
            walk(root, store, tree.config());
        }
        let mut ids = tree.ids();
        ids.sort_unstable();
        assert_eq!(ids, store.ids().collect::<Vec<_>>());
        assert_eq!(tree.len(), store.len());
    }

    #[test]
    fn bulk_load_indexes_every_id() {
        let store = store_of(50);
        let tree = TrajTree::build(&store);
        assert_eq!(tree.len(), 50);
        let mut ids = tree.ids();
        ids.sort_unstable();
        assert_eq!(ids, store.ids().collect::<Vec<_>>());
    }

    #[test]
    fn bulk_load_respects_leaf_capacity_and_fanout() {
        let store = store_of(100);
        // Fanouts 0 and 1 act as 2, so the build still narrows and returns.
        for fanout in [0, 1, 4] {
            let config = TrajTreeConfig {
                leaf_capacity: 4,
                fanout,
                ..TrajTreeConfig::default()
            };
            let tree = TrajTree::bulk_load(&store, config);
            check_invariants(&tree, &store);
            assert!(tree.height() >= 3, "fanout {fanout}");
        }
    }

    #[test]
    fn empty_store_builds_empty_tree() {
        let tree = TrajTree::build(&TrajStore::new());
        assert!(tree.is_empty());
        assert_eq!(tree.height(), 0);
        assert_eq!(tree.node_count(), 0);
        check_invariants(&tree, &TrajStore::new());
    }

    #[test]
    fn insert_grows_tree_and_splits() {
        let store = store_of(40);
        let mut tree = TrajTree::bulk_load(
            &TrajStore::new(),
            TrajTreeConfig {
                leaf_capacity: 4,
                fanout: 4,
                ..TrajTreeConfig::default()
            },
        );
        for id in store.ids() {
            tree.insert(&store, id);
        }
        assert_eq!(tree.len(), 40);
        let mut ids = tree.ids();
        ids.sort_unstable();
        assert_eq!(ids, store.ids().collect::<Vec<_>>());
        assert!(tree.height() >= 2);
    }

    #[test]
    fn invariants_hold_on_every_build_path() {
        // Bulk load: every internal summary is a roll-up of its children's.
        // (The insert-only path is walked step by step in
        // `invariants_hold_after_every_incremental_insert`.)
        let store = store_of(60);
        check_invariants(&TrajTree::build(&store), &store);
        let bulk = TrajTree::bulk_load(&store, small_nodes());
        assert!(bulk.height() >= 4, "height {}", bulk.height());
        check_invariants(&bulk, &store);

        // Mixed: inserts merge into rolled-up summaries and split nodes the
        // bulk load packed full.
        let mut mixed = store_of(30);
        let mut tree = TrajTree::bulk_load(&mixed, small_nodes());
        let before = tree.node_count();
        for (_, t) in store.iter().skip(15) {
            let id = mixed.insert(t.clone());
            tree.insert(&mixed, id);
        }
        assert!(tree.node_count() > before);
        check_invariants(&tree, &mixed);
    }

    #[test]
    fn invariants_hold_after_every_incremental_insert() {
        // The incremental path, walked after every insert: 3-way nodes
        // reaching height 4 mean leaf splits, internal splits and root
        // growth — from a leaf root and from an internal one — all ran.
        let mut grown = TrajStore::new();
        let mut tree = TrajTree::bulk_load(&grown, small_nodes());
        for (_, t) in store_of(60).iter() {
            let id = grown.insert(t.clone());
            tree.insert(&grown, id);
            check_invariants(&tree, &grown);
        }
        assert!(tree.height() >= 4, "height {}", tree.height());
    }

    #[test]
    fn max_len_bounds_every_member_after_build_and_inserts() {
        // Trajectories of distinct lengths, so a stale or merely admissible
        // `max_len` (the normalised metric's bound divides by it) would
        // differ from the exact subtree maximum the walker demands.
        let mut store = TrajStore::new();
        for i in 0..60 {
            let (x, reach) = (i as f64 * 3.0, 1.0 + (i * 7 % 11) as f64);
            store.insert(Trajectory::from_xy(&[
                (x, 0.0),
                (x + 1.0, reach),
                (x + 2.0, 0.0),
            ]));
        }
        check_invariants(&TrajTree::build(&store), &store);
        let mut grown = TrajStore::new();
        let mut incremental = TrajTree::bulk_load(&grown, small_nodes());
        for (_, t) in store.iter() {
            let id = grown.insert(t.clone());
            incremental.insert(&grown, id);
        }
        check_invariants(&incremental, &grown);
    }

    /// FNV-1a over a pre-order walk of the tree: per node its kind, a
    /// leaf's ids, every summary box's `lo`/`hi`/`min_len` bits and the
    /// node's `max_len` bits — the whole summary, bit for bit.
    fn tree_digest(tree: &TrajTree) -> u64 {
        fn eat(h: &mut u64, word: u64) {
            for byte in word.to_le_bytes() {
                *h ^= u64::from(byte);
                *h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        fn walk(node: &Node, h: &mut u64) {
            match node {
                Node::Leaf { ids, .. } => {
                    eat(h, 0);
                    for &id in ids {
                        eat(h, u64::from(id));
                    }
                }
                Node::Internal { .. } => eat(h, 1),
            }
            for b in node.summary().boxes() {
                for v in [b.lo.x, b.lo.y, b.hi.x, b.hi.y, b.min_len] {
                    eat(h, v.to_bits());
                }
            }
            eat(h, node.max_len().to_bits());
            if let Node::Internal { children, .. } = node {
                for c in children {
                    walk(c, h);
                }
            }
        }
        let mut h = 0xcbf2_9ce4_8422_2325;
        if let Some(root) = &tree.root {
            walk(root, &mut h);
        }
        h
    }

    #[test]
    fn inserted_trees_are_pinned_bit_for_bit() {
        // Every summary an insert grows comes from the merge alignment, so
        // any change to its ops — or to one float it computes — moves a
        // digest. The coverage and budget invariants above only catch a
        // change that breaks them.
        let mut gen = traj_gen::TrajGen::with_config(
            0x7733,
            traj_gen::GenConfig {
                area: 400.0,
                clusters: 8,
                cluster_spread: 8.0,
                step: 4.0,
                ..traj_gen::GenConfig::default()
            },
        );
        let trips = gen.database(500, 6, 16);

        // Default config: a bulk-loaded 300, then 200 Alg. 1 inserts.
        let mut store = TrajStore::new();
        for t in &trips[..300] {
            store.insert(t.clone());
        }
        let mut mixed = TrajTree::build(&store);
        for t in &trips[300..] {
            let id = store.insert(t.clone());
            mixed.insert(&store, id);
        }
        check_invariants(&mixed, &store);

        // Small nodes grown by inserts alone: leaf splits, internal splits
        // and root growth all run.
        let small = TrajTreeConfig {
            leaf_capacity: 3,
            fanout: 3,
            leaf_boxes: 6,
            internal_boxes: 4,
        };
        let mut grown = TrajStore::new();
        let mut incremental = TrajTree::bulk_load(&grown, small);
        for t in &trips[..120] {
            let id = grown.insert(t.clone());
            incremental.insert(&grown, id);
        }
        check_invariants(&incremental, &grown);
        assert!(incremental.height() >= 4, "height {}", incremental.height());

        assert_eq!(
            (tree_digest(&mixed), tree_digest(&incremental)),
            (0x307c_1bbf_ab6c_1699, 0x2133_cf77_d5d3_b5be),
            "tree digests (mixed, incremental)"
        );
    }

    #[test]
    fn str_tiles_partitions_exactly() {
        let mut items: Vec<(u32, Point)> = (0..37)
            .map(|i| (i, Point::new((i % 7) as f64, (i / 7) as f64)))
            .collect();
        let tiles = str_tiles(&mut items, 5);
        let mut seen: Vec<u32> = tiles.iter().flatten().copied().collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..37).collect::<Vec<_>>());
        assert!(tiles.iter().all(|t| t.len() <= 5));
    }
}
