//! Basic blocks and the control-flow graph of one function.

use crate::dom::Dominators;
use crate::loops::{self, LoopInfo};
use ipet_arch::{FuncId, Function, Instr};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Index of a basic block within a [`Cfg`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockId(pub usize);

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "B{}", self.0 + 1)
    }
}

/// Index of an edge within a [`Cfg`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EdgeId(pub usize);

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "d{}", self.0 + 1)
    }
}

/// Classification of a CFG edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdgeKind {
    /// The virtual edge into the entry block (the paper's `d1`).
    Entry,
    /// An ordinary intra-function edge.
    Internal,
    /// An `f`-edge (paper Fig. 4): leaves a block ending in `call`, flows
    /// through the callee's CFG, and re-enters at the following block.
    /// Carries the callee.
    Call(FuncId),
    /// A virtual edge out of a `ret` block.
    Exit,
}

/// One CFG edge carrying a `d`-variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Edge {
    /// Source block (`None` for the virtual entry edge).
    pub from: Option<BlockId>,
    /// Destination block (`None` for virtual exit edges).
    pub to: Option<BlockId>,
    /// Edge classification.
    pub kind: EdgeKind,
}

/// A maximal single-entry single-exit instruction run, carrying an
/// `x`-variable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BasicBlock {
    /// First instruction index (inclusive).
    pub start: usize,
    /// Last instruction index (exclusive).
    pub end: usize,
    /// The call terminating this block, if any: `(instruction index,
    /// callee)`. A call is always the last instruction of its block.
    pub call: Option<(usize, FuncId)>,
}

impl BasicBlock {
    /// Number of instructions in the block.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True if the block contains no instructions (never produced by
    /// [`Cfg::build`]).
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// Per-block lists in compressed sparse row form: block `b`'s entries are
/// `items[start[b]..start[b + 1]]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Csr<T> {
    start: Vec<usize>,
    items: Vec<T>,
}

impl<T> Csr<T> {
    /// Groups `(block, item)` pairs by block over `n` blocks. The sort is
    /// stable, so each block's items keep the order they were given in.
    fn group(n: usize, mut pairs: Vec<(usize, T)>) -> Csr<T> {
        pairs.sort_by_key(|&(b, _)| b);
        let mut start = vec![0; n + 1];
        for &(b, _) in &pairs {
            start[b + 1] += 1;
        }
        for b in 0..n {
            start[b + 1] += start[b];
        }
        Csr { start, items: pairs.into_iter().map(|(_, t)| t).collect() }
    }

    /// Number of blocks.
    pub(crate) fn len(&self) -> usize {
        self.start.len() - 1
    }

    pub(crate) fn row(&self, b: BlockId) -> &[T] {
        &self.items[self.start[b.0]..self.start[b.0 + 1]]
    }
}

/// The control-flow graph of a single function.
///
/// [`Cfg::build`] derives everything the analysis asks of the graph once —
/// the per-block adjacency, the dominators and the natural-loop forest. The
/// blocks and edges are private so nothing can change a built `Cfg` and
/// leave those facts stale; every accessor is a borrow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cfg {
    /// Which function of the program this CFG describes.
    pub func: FuncId,
    /// Function name (copied for diagnostics).
    pub func_name: String,
    blocks: Vec<BasicBlock>,
    edges: Vec<Edge>,
    in_edges: Csr<EdgeId>,
    out_edges: Csr<EdgeId>,
    preds: Csr<BlockId>,
    succs: Csr<BlockId>,
    dom: Dominators,
    loops: Vec<LoopInfo>,
    /// `(site, block, instruction, callee)` of every call, in instruction
    /// order.
    call_sites: Vec<(usize, BlockId, usize, FuncId)>,
    /// The `f`-edge of each call site.
    call_edges: Vec<Option<EdgeId>>,
}

impl Cfg {
    /// Builds the CFG of `function` (which has id `func` in its program).
    ///
    /// Leaders are: instruction 0, every branch target, and every
    /// instruction following a terminator. Unreachable blocks are dropped —
    /// keeping them would let the ILP route spurious circulation through
    /// dead cycles. The adjacency lists, dominators and loops are derived
    /// here, once.
    ///
    /// # Panics
    ///
    /// Panics if the function body is empty (validated programs never are).
    pub fn build(func: FuncId, function: &Function) -> Cfg {
        let n = function.instrs.len();
        assert!(n > 0, "cannot build a CFG for an empty function");

        // 1. Find leaders.
        let mut leaders = BTreeSet::new();
        leaders.insert(0usize);
        for (i, ins) in function.instrs.iter().enumerate() {
            if let Some(t) = ins.branch_target() {
                leaders.insert(t);
            }
            if ins.is_terminator() && i + 1 < n {
                leaders.insert(i + 1);
            }
        }

        // 2. Carve blocks.
        let bounds: Vec<usize> = leaders.iter().copied().collect();
        let mut raw_blocks = Vec::new();
        let mut start_to_block = BTreeMap::new();
        for (bi, &start) in bounds.iter().enumerate() {
            let end = bounds.get(bi + 1).copied().unwrap_or(n);
            start_to_block.insert(start, raw_blocks.len());
            let call = match function.instrs[end - 1] {
                Instr::Call { func } => Some((end - 1, func)),
                _ => None,
            };
            raw_blocks.push(BasicBlock { start, end, call });
        }

        // 3. Raw successor lists: (successor raw id, edge kind) + has_exit.
        let succ_of = |b: &BasicBlock| -> (Vec<(usize, EdgeKind)>, bool) {
            let last = function.instrs[b.end - 1];
            let mut succs = Vec::new();
            let mut exit = false;
            match last {
                Instr::Ret => exit = true,
                Instr::Jmp { target } => succs.push((start_to_block[&target], EdgeKind::Internal)),
                Instr::Br { target, .. } => {
                    // Fall-through first, branch-taken second (the order is
                    // irrelevant to the flow equations).
                    if b.end < n {
                        succs.push((start_to_block[&b.end], EdgeKind::Internal));
                    }
                    succs.push((start_to_block[&target], EdgeKind::Internal));
                }
                Instr::Call { func } => {
                    // The paper's f-edge: control flows through the callee
                    // and resumes at the next block. Validation guarantees a
                    // call is never the last instruction of a function.
                    debug_assert!(b.end < n, "call cannot end a function");
                    succs.push((start_to_block[&b.end], EdgeKind::Call(func)));
                }
                _ => {
                    if b.end < n {
                        succs.push((start_to_block[&b.end], EdgeKind::Internal));
                    }
                }
            }
            succs.dedup();
            (succs, exit)
        };

        // 4. Reachability from raw block 0.
        let mut reachable = vec![false; raw_blocks.len()];
        let mut stack = vec![0usize];
        while let Some(b) = stack.pop() {
            if reachable[b] {
                continue;
            }
            reachable[b] = true;
            let (succs, _) = succ_of(&raw_blocks[b]);
            stack.extend(succs.into_iter().map(|(s, _)| s));
        }

        // 5. Renumber reachable blocks, build edges.
        let mut remap = vec![usize::MAX; raw_blocks.len()];
        let mut blocks = Vec::new();
        for (i, b) in raw_blocks.iter().enumerate() {
            if reachable[i] {
                remap[i] = blocks.len();
                blocks.push(b.clone());
            }
        }
        let mut edges = vec![Edge { from: None, to: Some(BlockId(0)), kind: EdgeKind::Entry }];
        for (i, raw) in raw_blocks.iter().enumerate() {
            if !reachable[i] {
                continue;
            }
            let from = BlockId(remap[i]);
            let (succs, exit) = succ_of(raw);
            if exit {
                edges.push(Edge { from: Some(from), to: None, kind: EdgeKind::Exit });
            }
            for (s, kind) in succs {
                debug_assert!(reachable[s], "successor of reachable block is reachable");
                edges.push(Edge { from: Some(from), to: Some(BlockId(remap[s])), kind });
            }
        }

        ipet_trace::counter("cfg.build.calls", 1);
        ipet_trace::counter("cfg.blocks", blocks.len() as u64);
        ipet_trace::counter("cfg.edges", edges.len() as u64);

        // 6. Derived facts. Pairs are listed in edge-index order, which the
        // stable grouping keeps within each block.
        let nb = blocks.len();
        let ends = || edges.iter().enumerate().map(|(i, e)| (EdgeId(i), e.from, e.to));
        let in_edges = Csr::group(nb, ends().filter_map(|(e, _, to)| Some((to?.0, e))).collect());
        let out_edges =
            Csr::group(nb, ends().filter_map(|(e, from, _)| Some((from?.0, e))).collect());
        let preds = Csr::group(nb, ends().filter_map(|(_, f, t)| Some((t?.0, f?))).collect());
        let succs = Csr::group(nb, ends().filter_map(|(_, f, t)| Some((f?.0, t?))).collect());
        let dom = Dominators::compute(BlockId(0), &preds);
        let loops = loops::detect(&edges, &dom, &preds, &in_edges);
        // Blocks are in instruction order and a call ends its block, so the
        // sites come out in instruction order; each block's first `f`-edge
        // is its site's.
        let mut call_edge_of = vec![None; nb];
        for (i, e) in edges.iter().enumerate() {
            if let (Some(from), EdgeKind::Call(_)) = (e.from, e.kind) {
                call_edge_of[from.0].get_or_insert(EdgeId(i));
            }
        }
        let calls =
            blocks.iter().enumerate().filter_map(|(b, block)| Some((BlockId(b), block.call?)));
        let (call_sites, call_edges) = calls
            .enumerate()
            .map(|(site, (b, (instr, callee)))| ((site, b, instr, callee), call_edge_of[b.0]))
            .unzip();
        Cfg {
            func,
            func_name: function.name.clone(),
            blocks,
            edges,
            in_edges,
            out_edges,
            preds,
            succs,
            dom,
            loops,
            call_sites,
            call_edges,
        }
    }

    /// Blocks in instruction order; only blocks reachable from the entry.
    pub fn blocks(&self) -> &[BasicBlock] {
        &self.blocks
    }

    /// All edges; the entry edge is always `EdgeId(0)`.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Entry block: always `BlockId(0)`, the block of instruction 0.
    pub fn entry(&self) -> BlockId {
        BlockId(0)
    }

    /// Number of basic blocks.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Number of edges (entry and exit edges included).
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Edges flowing into `block` (including the entry edge for block 0),
    /// in edge-index order.
    pub fn in_edges(&self, block: BlockId) -> &[EdgeId] {
        self.in_edges.row(block)
    }

    /// Edges flowing out of `block` (including exit edges), in edge-index
    /// order.
    pub fn out_edges(&self, block: BlockId) -> &[EdgeId] {
        self.out_edges.row(block)
    }

    /// Successor blocks of `block` (exit edges excluded), in the order of
    /// its out-edges.
    pub fn successors(&self, block: BlockId) -> &[BlockId] {
        self.succs.row(block)
    }

    /// Predecessor blocks of `block` (the entry edge excluded), in the order
    /// of its in-edges.
    pub fn predecessors(&self, block: BlockId) -> &[BlockId] {
        self.preds.row(block)
    }

    /// The dominator relation of this CFG.
    pub fn dominators(&self) -> &Dominators {
        &self.dom
    }

    /// The natural loops, one per header, in header order.
    pub fn loops(&self) -> &[LoopInfo] {
        &self.loops
    }

    /// Blocks ending in `ret`.
    pub fn exit_blocks(&self) -> Vec<BlockId> {
        self.edges.iter().filter(|e| e.kind == EdgeKind::Exit).filter_map(|e| e.from).collect()
    }

    /// The block containing instruction index `instr`, if any.
    pub fn block_of_instr(&self, instr: usize) -> Option<BlockId> {
        self.blocks.iter().position(|b| b.start <= instr && instr < b.end).map(BlockId)
    }

    /// All `f`-edges (call sites) in this CFG, in instruction order:
    /// `(site index within function, block, instruction index, callee)`.
    ///
    /// Site indices are what the constraint DSL's `f1`, `f2`, … refer to.
    /// Computed once, by [`Cfg::build`].
    pub fn call_sites(&self) -> &[(usize, BlockId, usize, FuncId)] {
        &self.call_sites
    }

    /// The `f`-edge leaving the block of call-site `site`, paired with its
    /// callee: `(edge, callee)`. Sites are indexed as in
    /// [`Cfg::call_sites`].
    pub fn call_edge(&self, site: usize) -> Option<(EdgeId, FuncId)> {
        Some((self.call_edges.get(site).copied()??, self.call_sites[site].3))
    }

    /// The call site whose `f`-edge is `edge`, if it is one.
    pub fn site_of_edge(&self, edge: EdgeId) -> Option<usize> {
        let from = self.edges.get(edge.0)?.from?;
        // Sites are in block order, one per call block.
        let site = self.call_sites.binary_search_by_key(&from, |&(_, b, _, _)| b).ok()?;
        (self.call_edges[site] == Some(edge)).then_some(site)
    }

    /// Renders the CFG in Graphviz DOT syntax: blocks as nodes labelled by
    /// their `x` variable, edges labelled `d`/`f` with virtual `source`
    /// and `sink` nodes for the entry and exit edges — the shape of the
    /// paper's figures.
    pub fn to_dot(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "digraph \"{}\" {{", self.func_name);
        let _ = writeln!(out, "  source [shape=point];");
        let _ = writeln!(out, "  sink [shape=point];");
        for b in 0..self.num_blocks() {
            let _ = writeln!(out, "  b{b} [shape=box, label=\"x{}\"];", b + 1);
        }
        for (i, e) in self.edges.iter().enumerate() {
            let from = match e.from {
                Some(b) => format!("b{}", b.0),
                None => "source".to_string(),
            };
            let to = match e.to {
                Some(b) => format!("b{}", b.0),
                None => "sink".to_string(),
            };
            let label = match e.kind {
                EdgeKind::Call(_) => self
                    .site_of_edge(EdgeId(i))
                    .map_or_else(|| format!("d{}", i + 1), |s| format!("f{}", s + 1)),
                _ => format!("d{}", i + 1),
            };
            let style = if matches!(e.kind, EdgeKind::Call(_)) { ", style=dashed" } else { "" };
            let _ = writeln!(out, "  {from} -> {to} [label=\"{label}\"{style}];");
        }
        let _ = writeln!(out, "}}");
        out
    }

    /// Renders the CFG in a compact text form used by the figure harness.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "cfg {} ({} blocks, {} edges)",
            self.func_name,
            self.num_blocks(),
            self.num_edges()
        );
        for (i, b) in self.blocks.iter().enumerate() {
            let succs: Vec<String> =
                self.successors(BlockId(i)).iter().map(|s| s.to_string()).collect();
            let exit = if self
                .out_edges(BlockId(i))
                .iter()
                .any(|&e| self.edges[e.0].kind == EdgeKind::Exit)
            {
                " exit"
            } else {
                ""
            };
            let _ = writeln!(
                out,
                "  {} [{}..{}) -> {}{}",
                BlockId(i),
                b.start,
                b.end,
                if succs.is_empty() { "-".to_string() } else { succs.join(", ") },
                exit
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipet_arch::{AsmBuilder, Cond, Reg};

    /// The paper's Fig. 2: if-then-else.
    pub(crate) fn diamond() -> Function {
        let mut b = AsmBuilder::new("ite");
        let els = b.fresh_label();
        let join = b.fresh_label();
        b.br(Cond::Eq, Reg::A0, 0, els); // B1: if (p)
        b.ldc(Reg::T0, 1); // B2: q = 1
        b.jmp(join);
        b.bind(els);
        b.ldc(Reg::T0, 2); // B3: q = 2
        b.bind(join);
        b.mov(Reg::RV, Reg::T0); // B4: r = q
        b.ret();
        b.finish().unwrap()
    }

    /// The paper's Fig. 3: while-loop.
    pub(crate) fn while_loop() -> Function {
        let mut b = AsmBuilder::new("wl");
        let head = b.fresh_label();
        let out = b.fresh_label();
        b.mov(Reg::T0, Reg::A0); // B1: q = p
        b.bind(head);
        b.br(Cond::Ge, Reg::T0, 10, out); // B2: while (q < 10)
        b.alu(ipet_arch::AluOp::Add, Reg::T0, Reg::T0, 1); // B3: q++
        b.jmp(head);
        b.bind(out);
        b.mov(Reg::RV, Reg::T0); // B4: r = q
        b.ret();
        b.finish().unwrap()
    }

    #[test]
    fn diamond_blocks_and_edges() {
        let f = diamond();
        let cfg = Cfg::build(FuncId(0), &f);
        assert_eq!(cfg.num_blocks(), 4);
        // Edges: entry, B1->B2, B1->B3, B2->B4, B3->B4, B4->exit = 6.
        assert_eq!(cfg.num_edges(), 6);
        assert_eq!(cfg.successors(BlockId(0)).len(), 2);
        assert_eq!(cfg.predecessors(BlockId(3)).len(), 2);
        assert_eq!(cfg.exit_blocks(), vec![BlockId(3)]);
    }

    #[test]
    fn while_loop_shape() {
        let f = while_loop();
        let cfg = Cfg::build(FuncId(0), &f);
        assert_eq!(cfg.num_blocks(), 4);
        // B2 (header) has preds B1 and B3; succs B3 and B4.
        assert_eq!(cfg.predecessors(BlockId(1)).len(), 2);
        assert_eq!(cfg.successors(BlockId(1)).len(), 2);
    }

    #[test]
    fn flow_conservation_edge_counts_match() {
        let f = while_loop();
        let cfg = Cfg::build(FuncId(0), &f);
        // Sum over blocks of in-edge counts equals sum of out-edge counts
        // equals total edges counting entry/exit once each.
        let in_total: usize = (0..cfg.num_blocks()).map(|b| cfg.in_edges(BlockId(b)).len()).sum();
        let out_total: usize = (0..cfg.num_blocks()).map(|b| cfg.out_edges(BlockId(b)).len()).sum();
        assert_eq!(in_total, cfg.num_edges() - 1); // all but exit edges target a block
        assert_eq!(out_total, cfg.num_edges() - 1); // all but the entry edge leave a block
    }

    #[test]
    fn unreachable_code_is_dropped() {
        let mut b = AsmBuilder::new("dead");
        let live = b.fresh_label();
        b.jmp(live);
        b.ldc(Reg::T0, 42); // dead block (would be a spurious cycle source)
        b.bind(live);
        b.ret();
        let f = b.finish().unwrap();
        let cfg = Cfg::build(FuncId(0), &f);
        assert_eq!(cfg.num_blocks(), 2);
        assert!(cfg.blocks.iter().all(|blk| blk.start != 1));
    }

    #[test]
    fn calls_split_blocks_with_f_edges() {
        // The paper's Fig. 4 shape: two statements each ending in a call.
        let mut b = AsmBuilder::new("caller");
        b.ldc(Reg::A0, 10);
        b.call(FuncId(1)); // f1 ends B1
        b.ldc(Reg::A0, 20);
        b.call(FuncId(1)); // f2 ends B2
        b.ret(); // B3
        let f = b.finish().unwrap();
        let cfg = Cfg::build(FuncId(0), &f);
        assert_eq!(cfg.num_blocks(), 3, "each call terminates its block");
        let sites = cfg.call_sites();
        assert_eq!(sites.len(), 2);
        assert_eq!(sites[0].0, 0);
        assert_eq!(sites[1].0, 1);
        assert_eq!(sites[0].3, FuncId(1));
        // f-edges connect call blocks to their continuations.
        let (e1, callee1) = cfg.call_edge(0).unwrap();
        assert_eq!(callee1, FuncId(1));
        assert_eq!(cfg.edges[e1.0].from, Some(BlockId(0)));
        assert_eq!(cfg.edges[e1.0].to, Some(BlockId(1)));
        assert!(matches!(cfg.edges[e1.0].kind, EdgeKind::Call(_)));
        let (e2, _) = cfg.call_edge(1).unwrap();
        assert_eq!(cfg.edges[e2.0].from, Some(BlockId(1)));
        assert!(cfg.call_edge(2).is_none());
    }

    #[test]
    fn block_of_instr() {
        let f = diamond();
        let cfg = Cfg::build(FuncId(0), &f);
        assert_eq!(cfg.block_of_instr(0), Some(BlockId(0)));
        assert_eq!(cfg.block_of_instr(1), Some(BlockId(1)));
        assert_eq!(cfg.block_of_instr(99), None);
    }

    #[test]
    fn entry_edge_is_edge_zero() {
        let f = diamond();
        let cfg = Cfg::build(FuncId(0), &f);
        assert_eq!(cfg.edges[0].kind, EdgeKind::Entry);
        assert_eq!(cfg.edges[0].to, Some(cfg.entry()));
        assert_eq!(cfg.in_edges(cfg.entry()), [EdgeId(0)]);
    }

    #[test]
    fn dot_export_names_all_blocks_and_f_edges() {
        let mut b = AsmBuilder::new("caller");
        b.call(FuncId(0));
        b.ret();
        let f = b.finish().unwrap();
        let cfg = Cfg::build(FuncId(1), &f);
        let dot = cfg.to_dot();
        assert!(dot.starts_with("digraph"));
        assert!(dot.contains("b0 [shape=box, label=\"x1\"]"));
        assert!(dot.contains("source ->"));
        assert!(dot.contains("-> sink"));
        assert!(dot.contains("style=dashed"), "f-edges are dashed: {dot}");
        assert!(dot.contains("label=\"f1\""), "{dot}");
    }

    #[test]
    fn render_mentions_every_block() {
        let f = while_loop();
        let cfg = Cfg::build(FuncId(0), &f);
        let text = cfg.render();
        for i in 0..cfg.num_blocks() {
            assert!(text.contains(&BlockId(i).to_string()));
        }
    }
}
