//! Arena-allocated R-tree nodes.

use disc_geom::{Aabb, Point, PointId};

/// Index of a node in the tree's arena.
pub(crate) type NodeIdx = u32;

/// Epoch mark carried by every entry (leaf and internal).
///
/// `tick` identifies the MS-BFS instance that last visited the entry; a tick
/// older than the current instance means "unvisited". `owner` is the MS-BFS
/// thread slot that claimed the entry (resolved through the caller's
/// union-find at probe time, see [`crate::epoch`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Epoch {
    pub tick: u64,
    pub owner: u32,
}

impl Epoch {
    pub(crate) const CLEAR: Epoch = Epoch { tick: 0, owner: 0 };
}

/// An entry of an internal node: a child subtree and its bounding box.
#[derive(Clone, Debug)]
pub(crate) struct Branch<const D: usize> {
    pub mbr: Aabb<D>,
    pub child: NodeIdx,
    pub epoch: Epoch,
}

/// An entry of a leaf node: one indexed point.
#[derive(Clone, Debug)]
pub(crate) struct LeafEntry<const D: usize> {
    pub point: Point<D>,
    pub id: PointId,
    pub epoch: Epoch,
}

/// Node payload.
#[derive(Clone, Debug)]
pub(crate) enum NodeKind<const D: usize> {
    Leaf(Vec<LeafEntry<D>>),
    Internal(Vec<Branch<D>>),
}

#[derive(Clone, Debug)]
pub(crate) struct Node<const D: usize> {
    pub kind: NodeKind<D>,
}

impl<const D: usize> Node<D> {
    pub(crate) fn new_leaf() -> Self {
        Node {
            kind: NodeKind::Leaf(Vec::with_capacity(crate::MAX_ENTRIES + 1)),
        }
    }

    pub(crate) fn new_internal() -> Self {
        Node {
            kind: NodeKind::Internal(Vec::with_capacity(crate::MAX_ENTRIES + 1)),
        }
    }

    pub(crate) fn is_leaf(&self) -> bool {
        matches!(self.kind, NodeKind::Leaf(_))
    }

    pub(crate) fn len(&self) -> usize {
        match &self.kind {
            NodeKind::Leaf(v) => v.len(),
            NodeKind::Internal(v) => v.len(),
        }
    }

    /// Recomputes the bounding box of everything stored below this node.
    pub(crate) fn mbr(&self) -> Aabb<D> {
        let mut out = Aabb::empty();
        match &self.kind {
            NodeKind::Leaf(v) => {
                for e in v {
                    out.extend_point(&e.point);
                }
            }
            NodeKind::Internal(v) => {
                for b in v {
                    out.extend(&b.mbr);
                }
            }
        }
        out
    }
}
