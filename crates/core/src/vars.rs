//! The ILP variable space: one `x` per (instance, block), one `d` per
//! (instance, edge), plus the virtual cold/warm split variables used by the
//! first-iteration cache refinement.

use ipet_cfg::{BlockId, EdgeId, InstanceId, Instances};
use ipet_lp::VarId;
use std::collections::HashMap;
use std::fmt::{self, Write as _};

/// A symbolic reference to one ILP variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum VarRef {
    /// Execution count of a basic block (`x_i` in the paper).
    Block(InstanceId, BlockId),
    /// Flow along a CFG edge (`d_j` / `f_k` in the paper).
    Edge(InstanceId, EdgeId),
    /// Cold-cache executions of a loop block (first-iteration splitting).
    SplitCold(InstanceId, BlockId),
    /// Warm-cache executions of a loop block.
    SplitWarm(InstanceId, BlockId),
}

impl VarRef {
    /// The CFG instance that owns the variable.
    pub fn instance(self) -> InstanceId {
        match self {
            VarRef::Block(i, _)
            | VarRef::Edge(i, _)
            | VarRef::SplitCold(i, _)
            | VarRef::SplitWarm(i, _) => i,
        }
    }
}

impl fmt::Display for VarRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VarRef::Block(i, b) => write!(f, "x{}@i{}", b.0 + 1, i.0),
            VarRef::Edge(i, e) => write!(f, "d{}@i{}", e.0 + 1, i.0),
            VarRef::SplitCold(i, b) => write!(f, "xc{}@i{}", b.0 + 1, i.0),
            VarRef::SplitWarm(i, b) => write!(f, "xw{}@i{}", b.0 + 1, i.0),
        }
    }
}

/// Bidirectional mapping between [`VarRef`]s and dense LP variable ids.
///
/// Ids are laid out per instance, in instance order: the instance's block
/// variables, then its edge variables. The split variables follow every
/// instance, in interning order. A block or edge id is therefore arithmetic
/// on its instance's `(first id, blocks, edges)` entry; only the few split
/// variables go through a map.
#[derive(Debug, Clone, Default)]
pub struct VarSpace {
    /// Per instance: the id of its first block variable, its block count
    /// and its edge count.
    ranges: Vec<(usize, usize, usize)>,
    /// Label of each instance, the `@…` suffix of its variables' labels.
    instance_labels: Vec<String>,
    /// Number of block and edge variables: the id of the first split
    /// variable.
    dense: usize,
    /// Split variables in interning order.
    splits: Vec<VarRef>,
    split_ids: HashMap<VarRef, VarId>,
}

impl VarSpace {
    /// Creates a variable space covering every block and edge of every
    /// instance (split variables are interned on demand).
    pub fn new(instances: &Instances) -> VarSpace {
        let mut space = VarSpace::default();
        for (i, inst) in instances.instances.iter().enumerate() {
            let cfg = instances.cfg(InstanceId(i));
            let (blocks, edges) = (cfg.num_blocks(), cfg.num_edges());
            space.ranges.push((space.dense, blocks, edges));
            space.instance_labels.push(inst.label.clone());
            space.dense += blocks + edges;
        }
        space
    }

    /// Interns a split variable, returning its dense id. Block and edge
    /// variables are all present from [`VarSpace::new`]; interning one
    /// returns its id.
    ///
    /// # Panics
    ///
    /// Panics on a block or edge variable outside the covered instances.
    pub fn intern(&mut self, r: VarRef) -> VarId {
        if let Some(id) = self.id(r) {
            return id;
        }
        assert!(
            matches!(r, VarRef::SplitCold(..) | VarRef::SplitWarm(..)),
            "{r} is outside the variable space"
        );
        let id = VarId(self.dense + self.splits.len());
        self.split_ids.insert(r, id);
        self.splits.push(r);
        id
    }

    /// Looks up an already-interned reference: `None` for a block or edge
    /// outside its instance, and for a split variable never interned.
    pub fn id(&self, r: VarRef) -> Option<VarId> {
        let range = |inst: InstanceId| self.ranges.get(inst.0).copied();
        match r {
            VarRef::Block(inst, b) => range(inst)
                .filter(|&(_, blocks, _)| b.0 < blocks)
                .map(|(first, ..)| VarId(first + b.0)),
            VarRef::Edge(inst, e) => range(inst)
                .filter(|&(_, _, edges)| e.0 < edges)
                .map(|(first, blocks, _)| VarId(first + blocks + e.0)),
            VarRef::SplitCold(..) | VarRef::SplitWarm(..) => self.split_ids.get(&r).copied(),
        }
    }

    /// The reference behind a dense id.
    ///
    /// # Panics
    ///
    /// Panics when `id` is not in the space.
    pub fn var_ref(&self, id: VarId) -> VarRef {
        if id.0 >= self.dense {
            return self.splits[id.0 - self.dense];
        }
        let i = self.ranges.partition_point(|&(first, ..)| first <= id.0) - 1;
        let (first, blocks, _) = self.ranges[i];
        let offset = id.0 - first;
        if offset < blocks {
            VarRef::Block(InstanceId(i), BlockId(offset))
        } else {
            VarRef::Edge(InstanceId(i), EdgeId(offset - blocks))
        }
    }

    /// The human-readable label of `r` (`x3@main/f1:check_data`): its
    /// kind, its 1-based block or edge number and its instance's label.
    /// Written only where a report prints it; an assembled problem names
    /// no variable.
    ///
    /// # Panics
    ///
    /// Panics when `r`'s instance is outside the space.
    pub(crate) fn label(&self, r: VarRef) -> String {
        let (kind, index, inst) = match r {
            VarRef::Block(i, b) => ("x", b.0, i),
            VarRef::Edge(i, e) => ("d", e.0, i),
            VarRef::SplitCold(i, b) => ("xc", b.0, i),
            VarRef::SplitWarm(i, b) => ("xw", b.0, i),
        };
        let instance = &self.instance_labels[inst.0];
        let mut label = String::with_capacity(kind.len() + 6 + instance.len());
        let _ = write!(label, "{kind}{}@{instance}", index + 1);
        label
    }

    /// The label of each instance, indexed by [`InstanceId`].
    pub fn instance_labels(&self) -> &[String] {
        &self.instance_labels
    }

    /// Number of interned variables.
    pub fn len(&self) -> usize {
        self.dense + self.splits.len()
    }

    /// True when no variable has been interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates over `(VarId, VarRef)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (VarId, VarRef)> + '_ {
        let dense = self.ranges.iter().enumerate().flat_map(|(i, &(_, blocks, edges))| {
            let inst = InstanceId(i);
            let blocks = (0..blocks).map(move |b| VarRef::Block(inst, BlockId(b)));
            blocks.chain((0..edges).map(move |e| VarRef::Edge(inst, EdgeId(e))))
        });
        dense.chain(self.splits.iter().copied()).enumerate().map(|(i, r)| (VarId(i), r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipet_arch::{AsmBuilder, FuncId, Program};

    fn two_func_instances() -> Instances {
        let mut leaf = AsmBuilder::new("leaf");
        leaf.ret();
        let mut main = AsmBuilder::new("main");
        main.call(FuncId(0));
        main.ret();
        let p =
            Program::new(vec![leaf.finish().unwrap(), main.finish().unwrap()], vec![], FuncId(1))
                .unwrap();
        Instances::expand(&p, FuncId(1)).unwrap()
    }

    #[test]
    fn covers_all_blocks_and_edges() {
        let inst = two_func_instances();
        let space = VarSpace::new(&inst);
        let expected: usize = (0..inst.len())
            .map(|i| {
                let cfg = inst.cfg(InstanceId(i));
                cfg.num_blocks() + cfg.num_edges()
            })
            .sum();
        assert_eq!(space.len(), expected);
        assert!(!space.is_empty());
    }

    #[test]
    fn intern_is_idempotent() {
        let inst = two_func_instances();
        let mut space = VarSpace::new(&inst);
        let block = VarRef::Block(InstanceId(0), BlockId(0));
        assert_eq!(space.intern(block), space.id(block).unwrap());
        let cold = VarRef::SplitCold(InstanceId(0), BlockId(0));
        let a = space.intern(cold);
        let b = space.intern(cold);
        assert_eq!(a, b);
        assert_eq!(space.id(cold), Some(a));
        assert_eq!(space.len(), a.0 + 1);
    }

    #[test]
    fn dense_ids_round_trip_in_instance_block_edge_split_order() {
        let inst = two_func_instances();
        let mut space = VarSpace::new(&inst);
        let warm = space.intern(VarRef::SplitWarm(InstanceId(1), BlockId(0)));
        let cold = space.intern(VarRef::SplitCold(InstanceId(0), BlockId(0)));
        let mut expected = Vec::new();
        for i in 0..inst.len() {
            let cfg = inst.cfg(InstanceId(i));
            expected
                .extend((0..cfg.num_blocks()).map(|b| VarRef::Block(InstanceId(i), BlockId(b))));
            expected.extend((0..cfg.num_edges()).map(|e| VarRef::Edge(InstanceId(i), EdgeId(e))));
        }
        assert_eq!((warm.0, cold.0), (expected.len(), expected.len() + 1));
        expected.push(VarRef::SplitWarm(InstanceId(1), BlockId(0)));
        expected.push(VarRef::SplitCold(InstanceId(0), BlockId(0)));
        let refs: Vec<VarRef> = space.iter().map(|(_, r)| r).collect();
        assert_eq!(refs, expected);
        for (id, r) in space.iter() {
            assert_eq!(space.id(r), Some(id));
            assert_eq!(space.var_ref(id), r);
        }
    }

    #[test]
    fn id_is_none_outside_the_space() {
        let inst = two_func_instances();
        let space = VarSpace::new(&inst);
        let root = InstanceId(0);
        let cfg = inst.cfg(root);
        assert_eq!(space.id(VarRef::Block(root, BlockId(cfg.num_blocks()))), None);
        assert_eq!(space.id(VarRef::Edge(root, EdgeId(cfg.num_edges()))), None);
        assert_eq!(space.id(VarRef::Block(InstanceId(inst.len()), BlockId(0))), None);
        assert_eq!(space.id(VarRef::Edge(InstanceId(inst.len()), EdgeId(0))), None);
        assert_eq!(space.id(VarRef::SplitCold(root, BlockId(0))), None);
        assert_eq!(space.id(VarRef::SplitWarm(root, BlockId(0))), None);
    }

    #[test]
    fn labels_carry_instance_context() {
        let inst = two_func_instances();
        let space = VarSpace::new(&inst);
        let labels: Vec<String> = space.iter().map(|(_, r)| space.label(r)).collect();
        assert!(labels.iter().any(|l| l.starts_with("x1@main")));
        assert!(labels.iter().any(|l| l.contains("f1:leaf")));
    }

    #[test]
    fn labels_keep_their_x_d_xc_xw_forms() {
        let inst = two_func_instances();
        let mut space = VarSpace::new(&inst);
        space.intern(VarRef::SplitCold(InstanceId(1), BlockId(0)));
        space.intern(VarRef::SplitWarm(InstanceId(1), BlockId(0)));
        for (_, r) in space.iter() {
            let label = |i: InstanceId| &inst.instances[i.0].label;
            let expected = match r {
                VarRef::Block(i, b) => format!("x{}@{}", b.0 + 1, label(i)),
                VarRef::Edge(i, e) => format!("d{}@{}", e.0 + 1, label(i)),
                VarRef::SplitCold(i, b) => format!("xc{}@{}", b.0 + 1, label(i)),
                VarRef::SplitWarm(i, b) => format!("xw{}@{}", b.0 + 1, label(i)),
            };
            assert_eq!(space.label(r), expected);
        }
    }

    #[test]
    fn display_formats() {
        let r = VarRef::Block(InstanceId(2), BlockId(0));
        assert_eq!(r.to_string(), "x1@i2");
        let d = VarRef::Edge(InstanceId(0), EdgeId(3));
        assert_eq!(d.to_string(), "d4@i0");
    }
}
