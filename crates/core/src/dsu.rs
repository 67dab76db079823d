//! A growable union-find (disjoint-set union).
//!
//! Used twice in DISC:
//!
//! * over **cluster ids** — a merger of clusters is recorded as a single
//!   `union`, so no points need relabelling; a point's public cluster id is
//!   `find(cid)` at read time;
//! * over **MS-BFS thread slots** — when two concurrent searches meet they
//!   merge, and the epoch probe resolves stored owners through this
//!   structure.

use disc_geom::FxHashMap;

/// Union-find with path halving and union by size.
#[derive(Clone, Debug, Default)]
pub struct Dsu {
    parent: Vec<u32>,
    size: Vec<u32>,
}

impl Dsu {
    /// An empty structure.
    pub fn new() -> Self {
        Dsu::default()
    }

    /// Number of allocated slots.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Whether no slots were allocated.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Allocates a fresh singleton set and returns its id.
    pub fn alloc(&mut self) -> u32 {
        let id = self.parent.len() as u32;
        self.parent.push(id);
        self.size.push(1);
        id
    }

    /// Representative of `x`'s set. Applies path halving.
    pub fn find(&mut self, mut x: u32) -> u32 {
        debug_assert!((x as usize) < self.parent.len(), "unknown dsu slot {x}");
        while self.parent[x as usize] != x {
            let grand = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = grand;
            x = grand;
        }
        x
    }

    /// Read-only find (no path compression) for use behind `&self`.
    pub fn find_immutable(&self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            x = self.parent[x as usize];
        }
        x
    }

    /// Memoised read-only find for bulk resolution behind `&self`.
    ///
    /// Caches the root of every slot on the walked chain, the root's own
    /// entry included, so resolving a whole window's labels walks each
    /// parent chain once per call instead of once per point (the
    /// compression `find` would do, without needing `&mut self`), and a
    /// slot that is already a root is answered by the memo too.
    pub fn find_cached(&self, x: u32, cache: &mut FxHashMap<u32, u32>) -> u32 {
        if let Some(&root) = cache.get(&x) {
            return root;
        }
        let root = self.find_immutable(x);
        let mut cur = x;
        loop {
            cache.insert(cur, root);
            if cur == root {
                return root;
            }
            cur = self.parent[cur as usize];
        }
    }

    /// Merges the sets of `a` and `b`; returns the surviving root.
    /// Unions by size so chains stay flat.
    pub fn union(&mut self, a: u32, b: u32) -> u32 {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return ra;
        }
        let (big, small) = if self.size[ra as usize] >= self.size[rb as usize] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[small as usize] = big;
        self.size[big as usize] += self.size[small as usize];
        big
    }

    /// Whether `a` and `b` are in the same set.
    pub fn same(&mut self, a: u32, b: u32) -> bool {
        self.find(a) == self.find(b)
    }

    /// The raw parent vector (checkpoint serialization).
    pub fn parent_slice(&self) -> &[u32] {
        &self.parent
    }

    /// The raw size vector (checkpoint serialization).
    pub fn size_slice(&self) -> &[u32] {
        &self.size
    }

    /// Rebuilds a structure from serialized parent/size vectors, validating
    /// that every parent pointer is in bounds and every chain terminates at
    /// a root (no cycles) — the two properties `find` relies on for
    /// termination. Sizes are not trusted for correctness (they only bias
    /// union order), but their length must match.
    pub fn from_parts(parent: Vec<u32>, size: Vec<u32>) -> Result<Self, String> {
        if parent.len() != size.len() {
            return Err(format!(
                "parent/size length mismatch: {} vs {}",
                parent.len(),
                size.len()
            ));
        }
        for (i, &p) in parent.iter().enumerate() {
            if (p as usize) >= parent.len() {
                return Err(format!("slot {i} has out-of-bounds parent {p}"));
            }
        }
        // Cycle check in O(n): walk each chain once, marking resolved slots.
        // 0 = unvisited, 1 = on the current path, 2 = known-terminating.
        let mut state = vec![0u8; parent.len()];
        let mut path = Vec::new();
        for start in 0..parent.len() {
            if state[start] != 0 {
                continue;
            }
            let mut cur = start;
            loop {
                match state[cur] {
                    1 => return Err(format!("parent chain of slot {start} cycles at {cur}")),
                    2 => break,
                    _ => {}
                }
                state[cur] = 1;
                path.push(cur);
                let next = parent[cur] as usize;
                if next == cur {
                    break;
                }
                cur = next;
            }
            for slot in path.drain(..) {
                state[slot] = 2;
            }
        }
        Ok(Dsu { parent, size })
    }
}

impl disc_telemetry::MemoryFootprint for Dsu {
    fn footprint(&self) -> disc_telemetry::FootprintNode {
        disc_telemetry::FootprintNode::leaf(
            "dsu",
            (self.parent.capacity() + self.size.capacity()) * std::mem::size_of::<u32>(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singletons_are_their_own_roots() {
        let mut d = Dsu::new();
        let a = d.alloc();
        let b = d.alloc();
        assert_ne!(a, b);
        assert_eq!(d.find(a), a);
        assert_eq!(d.find(b), b);
        assert!(!d.same(a, b));
    }

    #[test]
    fn union_is_transitive() {
        let mut d = Dsu::new();
        let ids: Vec<u32> = (0..6).map(|_| d.alloc()).collect();
        d.union(ids[0], ids[1]);
        d.union(ids[2], ids[3]);
        assert!(!d.same(ids[0], ids[2]));
        d.union(ids[1], ids[3]);
        assert!(d.same(ids[0], ids[2]));
        assert!(d.same(ids[0], ids[3]));
        assert!(!d.same(ids[0], ids[4]));
        // Survivor is a valid root for all four.
        let r = d.find(ids[0]);
        for &i in &ids[..4] {
            assert_eq!(d.find(i), r);
        }
    }

    #[test]
    fn immutable_find_matches_mutable() {
        let mut d = Dsu::new();
        let ids: Vec<u32> = (0..10).map(|_| d.alloc()).collect();
        for w in ids.windows(2) {
            d.union(w[0], w[1]);
        }
        let root = d.find(ids[0]);
        for &i in &ids {
            assert_eq!(d.find_immutable(i), root);
        }
    }

    #[test]
    fn cached_find_matches_and_memoises() {
        let mut d = Dsu::new();
        let ids: Vec<u32> = (0..12).map(|_| d.alloc()).collect();
        for w in ids.windows(2) {
            d.union(w[0], w[1]);
        }
        let lone = d.alloc();
        let mut cache = FxHashMap::default();
        let root = d.find_immutable(ids[0]);
        for &i in &ids {
            assert_eq!(d.find_cached(i, &mut cache), root);
        }
        assert_eq!(d.find_cached(lone, &mut cache), lone);
        // Every non-root chain slot was memoised along the way.
        for &i in &ids {
            if i != root {
                assert_eq!(cache.get(&i), Some(&root));
            }
        }
    }

    #[test]
    fn cached_find_memoises_roots_too() {
        let mut d = Dsu::new();
        let ids: Vec<u32> = (0..4).map(|_| d.alloc()).collect();
        d.union(ids[0], ids[1]);
        let root = d.find_immutable(ids[0]);
        let lone = ids[3];
        let mut cache = FxHashMap::default();
        // A slot that is its own root gets an entry on the first lookup...
        assert_eq!(d.find_cached(lone, &mut cache), lone);
        assert_eq!(cache.get(&lone), Some(&lone));
        // ...and so does the root at the end of a walked chain.
        let child = if root == ids[0] { ids[1] } else { ids[0] };
        assert_eq!(d.find_cached(child, &mut cache), root);
        assert_eq!(cache.get(&root), Some(&root));
        assert_eq!(cache.get(&child), Some(&root));
        assert_eq!(cache.len(), 3);
        // Looking the root up again is a memo hit and adds no entry.
        assert_eq!(d.find_cached(root, &mut cache), root);
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn from_parts_roundtrips_and_validates() {
        let mut d = Dsu::new();
        let ids: Vec<u32> = (0..8).map(|_| d.alloc()).collect();
        d.union(ids[0], ids[1]);
        d.union(ids[2], ids[3]);
        d.union(ids[1], ids[3]);
        let mut back = Dsu::from_parts(d.parent_slice().to_vec(), d.size_slice().to_vec()).unwrap();
        for &i in &ids {
            assert_eq!(back.find(i), d.find(i));
        }

        // Length mismatch, out-of-bounds parent, and cycles are rejected.
        assert!(Dsu::from_parts(vec![0, 1], vec![1]).is_err());
        assert!(Dsu::from_parts(vec![0, 9], vec![1, 1]).is_err());
        let err = Dsu::from_parts(vec![1, 0], vec![1, 1]).unwrap_err();
        assert!(err.contains("cycles"), "got: {err}");
        assert!(Dsu::from_parts(vec![1, 2, 0], vec![1, 1, 1]).is_err());
        assert!(Dsu::from_parts(Vec::new(), Vec::new()).is_ok());
    }

    #[test]
    fn union_returns_surviving_root() {
        let mut d = Dsu::new();
        let a = d.alloc();
        let b = d.alloc();
        let c = d.alloc();
        let r1 = d.union(a, b);
        let r2 = d.union(r1, c);
        assert_eq!(d.find(a), r2);
        assert_eq!(d.find(c), r2);
    }
}
