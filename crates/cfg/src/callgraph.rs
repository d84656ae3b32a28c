//! Call graph and per-call-site instance expansion.
//!
//! IPET programs are recursion-free (one of the decidability restrictions
//! the paper adopts from Kligerman/Stoyenko and Puschner/Koza), so the call
//! graph is a DAG and the set of acyclic call-strings is finite. The paper
//! gives each call site its own copy of the callee's `x_i` variables so
//! constraints such as `x12 = x8.f1` can be expressed; [`Instances`]
//! materialises exactly that expansion.

use crate::graph::{BlockId, Cfg};
use ipet_arch::{FuncId, Program};
use std::fmt;

/// A call site inside one function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CallSite {
    /// Zero-based site index within the caller (the DSL's `f1` is site 0).
    pub site: usize,
    /// Block containing the call.
    pub block: BlockId,
    /// Instruction index of the `call`.
    pub instr: usize,
    /// Callee function.
    pub callee: FuncId,
}

/// Errors from call-graph analysis and instance expansion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallGraphError {
    /// The program contains (mutual) recursion; the cycle is reported by
    /// function name in call order.
    Recursion(Vec<String>),
    /// Instance expansion exceeded the safety cap.
    TooManyInstances(usize),
    /// The instances' call-string labels together exceeded this many
    /// bytes. Each label holds its whole call string, so a deep call
    /// chain grows them quadratically.
    LabelsTooLong(usize),
}

impl fmt::Display for CallGraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CallGraphError::Recursion(cycle) => {
                write!(f, "recursive call cycle: {}", cycle.join(" -> "))
            }
            CallGraphError::TooManyInstances(n) => {
                write!(f, "call-site expansion produced more than {n} instances")
            }
            CallGraphError::LabelsTooLong(n) => write!(
                f,
                "call-site expansion produced more than {n} bytes of call-string labels \
                 (the call chains are too deep)"
            ),
        }
    }
}

impl std::error::Error for CallGraphError {}

/// The static call graph of a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallGraph {
    /// `callees[f]` lists the callees of function `f` with multiplicity,
    /// in call-site order.
    callees: Vec<Vec<FuncId>>,
    names: Vec<String>,
}

impl CallGraph {
    /// Builds the call graph of `program`.
    pub fn build(program: &Program) -> CallGraph {
        let callees = program
            .functions
            .iter()
            .map(|f| {
                f.instrs
                    .iter()
                    .filter_map(|i| match i {
                        ipet_arch::Instr::Call { func } => Some(*func),
                        _ => None,
                    })
                    .collect()
            })
            .collect();
        let names = program.functions.iter().map(|f| f.name.clone()).collect();
        CallGraph { callees, names }
    }

    /// Callees of `f` in call-site order (with multiplicity).
    pub fn callees(&self, f: FuncId) -> &[FuncId] {
        &self.callees[f.0]
    }

    /// Functions reachable from `entry` (entry included), in discovery order.
    pub fn reachable(&self, entry: FuncId) -> Vec<FuncId> {
        let mut seen = vec![false; self.callees.len()];
        let mut order = Vec::new();
        let mut stack = vec![entry];
        while let Some(f) = stack.pop() {
            if seen[f.0] {
                continue;
            }
            seen[f.0] = true;
            order.push(f);
            for &c in &self.callees[f.0] {
                stack.push(c);
            }
        }
        order
    }

    /// Checks that no function reachable from `entry` participates in a
    /// call cycle.
    ///
    /// # Errors
    ///
    /// Returns [`CallGraphError::Recursion`] with the offending cycle.
    pub fn check_acyclic(&self, entry: FuncId) -> Result<(), CallGraphError> {
        #[derive(Clone, Copy, PartialEq)]
        enum Mark {
            White,
            Grey,
            Black,
        }
        let mut mark = vec![Mark::White; self.callees.len()];
        let mut path: Vec<FuncId> = Vec::new();

        // Iterative DFS with an explicit enter/leave stack.
        enum Op {
            Enter(FuncId),
            Leave(FuncId),
        }
        let mut stack = vec![Op::Enter(entry)];
        while let Some(op) = stack.pop() {
            match op {
                Op::Enter(f) => match mark[f.0] {
                    Mark::Black => {}
                    Mark::Grey => {
                        let pos = path.iter().position(|&p| p == f).unwrap_or(0);
                        let mut cycle: Vec<String> =
                            path[pos..].iter().map(|&p| self.names[p.0].clone()).collect();
                        cycle.push(self.names[f.0].clone());
                        return Err(CallGraphError::Recursion(cycle));
                    }
                    Mark::White => {
                        mark[f.0] = Mark::Grey;
                        path.push(f);
                        stack.push(Op::Leave(f));
                        for &c in self.callees[f.0].iter().rev() {
                            stack.push(Op::Enter(c));
                        }
                    }
                },
                Op::Leave(f) => {
                    mark[f.0] = Mark::Black;
                    path.pop();
                }
            }
        }
        Ok(())
    }
}

/// Index of a CFG instance within [`Instances`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct InstanceId(pub usize);

/// One context-expanded copy of a function's CFG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Instance {
    /// The function this instance is a copy of.
    pub func: FuncId,
    /// Parent instance and the call-site index within it, or `None` for
    /// the root (the analysed routine itself).
    pub parent: Option<(InstanceId, usize)>,
    /// Human-readable call string, e.g. `main/f1:check_data`.
    pub label: String,
}

/// The complete context expansion of a program from an entry function:
/// one shared [`Cfg`] per function plus one [`Instance`] per acyclic
/// call-string.
#[derive(Debug, Clone, PartialEq)]
pub struct Instances {
    /// `cfgs[f]` is the CFG of function `f` (built for every function
    /// reachable from the root; unreachable functions get a CFG too so the
    /// vector is indexable by [`FuncId`]).
    pub cfgs: Vec<Cfg>,
    /// All instances; the root is always `InstanceId(0)`.
    pub instances: Vec<Instance>,
    /// True for the paper's shared-CFG formulation (eq. 12): one instance
    /// per function, with callee entry flow equal to the *sum* of all
    /// `f`-edges targeting it, instead of one instance per call string.
    pub shared: bool,
}

impl Instances {
    /// Default safety cap on the number of expanded instances.
    pub const MAX_INSTANCES: usize = 100_000;

    /// Cap on the total bytes of the expanded instances' labels. A chain
    /// of `n` functions, each calling the next, has labels of `O(n²)`
    /// bytes.
    pub const MAX_LABEL_BYTES: usize = 4 << 20;

    /// Expands `program` from `entry`.
    ///
    /// # Errors
    ///
    /// * [`CallGraphError::Recursion`] if the call graph has a cycle
    ///   reachable from `entry`.
    /// * [`CallGraphError::TooManyInstances`] if expansion exceeds
    ///   [`Instances::MAX_INSTANCES`].
    /// * [`CallGraphError::LabelsTooLong`] if the labels exceed
    ///   [`Instances::MAX_LABEL_BYTES`] in total.
    pub fn expand(program: &Program, entry: FuncId) -> Result<Instances, CallGraphError> {
        let _span = ipet_trace::span("cfg.expand");
        let cg = CallGraph::build(program);
        cg.check_acyclic(entry)?;

        let cfgs: Vec<Cfg> =
            program.functions.iter().enumerate().map(|(i, f)| Cfg::build(FuncId(i), f)).collect();

        let mut instances = vec![Instance {
            func: entry,
            parent: None,
            label: program.functions[entry.0].name.clone(),
        }];
        let mut label_bytes = instances[0].label.len();
        let mut work = vec![InstanceId(0)];
        while let Some(inst) = work.pop() {
            let func = instances[inst.0].func;
            let sites = cfgs[func.0].call_sites();
            for &(site, _block, _instr, callee) in sites {
                let label = format!(
                    "{}/f{}:{}",
                    instances[inst.0].label,
                    site + 1,
                    program.functions[callee.0].name
                );
                label_bytes += label.len();
                if label_bytes > Self::MAX_LABEL_BYTES {
                    return Err(CallGraphError::LabelsTooLong(Self::MAX_LABEL_BYTES));
                }
                instances.push(Instance { func: callee, parent: Some((inst, site)), label });
                if instances.len() > Self::MAX_INSTANCES {
                    return Err(CallGraphError::TooManyInstances(Self::MAX_INSTANCES));
                }
                work.push(InstanceId(instances.len() - 1));
            }
        }
        ipet_trace::counter("cfg.instances", instances.len() as u64);
        Ok(Instances { cfgs, instances, shared: false })
    }

    /// Expands `program` in the paper's *shared* formulation: exactly one
    /// instance per function reachable from `entry` (the root first), with
    /// the eq.-(12) coupling `d_entry = f1 + f2 + ...` supplied by the
    /// structural-constraint generator. Cheaper than per-call-site
    /// expansion on call-heavy programs, but caller-scoped constraints
    /// (`x8.f1`) lose their context sensitivity.
    ///
    /// # Errors
    ///
    /// Returns [`CallGraphError::Recursion`] on call cycles.
    pub fn expand_shared(program: &Program, entry: FuncId) -> Result<Instances, CallGraphError> {
        let _span = ipet_trace::span("cfg.expand");
        let cg = CallGraph::build(program);
        cg.check_acyclic(entry)?;
        let cfgs: Vec<Cfg> =
            program.functions.iter().enumerate().map(|(i, f)| Cfg::build(FuncId(i), f)).collect();
        let instances: Vec<Instance> = cg
            .reachable(entry)
            .into_iter()
            .map(|f| Instance { func: f, parent: None, label: program.functions[f.0].name.clone() })
            .collect();
        ipet_trace::counter("cfg.instances", instances.len() as u64);
        Ok(Instances { cfgs, instances, shared: true })
    }

    /// The instance holding function `func`, when one exists.
    pub fn instance_of_func(&self, func: FuncId) -> Option<InstanceId> {
        self.instances.iter().position(|i| i.func == func).map(InstanceId)
    }

    /// The root instance id.
    pub fn root(&self) -> InstanceId {
        InstanceId(0)
    }

    /// The CFG backing an instance.
    pub fn cfg(&self, inst: InstanceId) -> &Cfg {
        &self.cfgs[self.instances[inst.0].func.0]
    }

    /// Call sites of an instance, as [`CallSite`] records.
    pub fn call_sites(&self, inst: InstanceId) -> Vec<CallSite> {
        self.cfg(inst)
            .call_sites()
            .iter()
            .map(|&(site, block, instr, callee)| CallSite { site, block, instr, callee })
            .collect()
    }

    /// The child instance reached from `parent` through call-site `site`.
    /// In the shared formulation this is simply the callee's single
    /// instance.
    pub fn child_at(&self, parent: InstanceId, site: usize) -> Option<InstanceId> {
        if self.shared {
            let callee = self.cfg(parent).call_sites().get(site)?.3;
            return self.instance_of_func(callee);
        }
        self.instances.iter().position(|i| i.parent == Some((parent, site))).map(InstanceId)
    }

    /// All instances of a given function.
    pub fn instances_of(&self, func: FuncId) -> Vec<InstanceId> {
        self.instances
            .iter()
            .enumerate()
            .filter(|(_, i)| i.func == func)
            .map(|(n, _)| InstanceId(n))
            .collect()
    }

    /// Total number of instances.
    pub fn len(&self) -> usize {
        self.instances.len()
    }

    /// Never true: expansion always yields at least the root.
    pub fn is_empty(&self) -> bool {
        self.instances.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipet_arch::{AsmBuilder, Program};

    /// main calls leaf twice; helper calls leaf once; main calls helper.
    fn layered() -> Program {
        let mut leaf = AsmBuilder::new("leaf");
        leaf.ret();
        let mut helper = AsmBuilder::new("helper");
        helper.call(FuncId(0));
        helper.ret();
        let mut main = AsmBuilder::new("main");
        main.call(FuncId(0));
        main.call(FuncId(1));
        main.call(FuncId(0));
        main.ret();
        Program::new(
            vec![leaf.finish().unwrap(), helper.finish().unwrap(), main.finish().unwrap()],
            vec![],
            FuncId(2),
        )
        .unwrap()
    }

    #[test]
    fn callees_in_site_order() {
        let p = layered();
        let cg = CallGraph::build(&p);
        assert_eq!(cg.callees(FuncId(2)), &[FuncId(0), FuncId(1), FuncId(0)]);
        assert_eq!(cg.callees(FuncId(0)), &[]);
    }

    #[test]
    fn reachable_set() {
        let p = layered();
        let cg = CallGraph::build(&p);
        let r = cg.reachable(FuncId(1));
        assert_eq!(r, vec![FuncId(1), FuncId(0)]);
    }

    #[test]
    fn acyclic_ok() {
        let p = layered();
        assert!(CallGraph::build(&p).check_acyclic(FuncId(2)).is_ok());
    }

    #[test]
    fn direct_recursion_detected() {
        let mut f = AsmBuilder::new("rec");
        f.call(FuncId(0));
        f.ret();
        let p = Program::new(vec![f.finish().unwrap()], vec![], FuncId(0)).unwrap();
        let err = CallGraph::build(&p).check_acyclic(FuncId(0)).unwrap_err();
        assert_eq!(err, CallGraphError::Recursion(vec!["rec".into(), "rec".into()]));
    }

    #[test]
    fn mutual_recursion_detected() {
        let mut a = AsmBuilder::new("a");
        a.call(FuncId(1));
        a.ret();
        let mut b = AsmBuilder::new("b");
        b.call(FuncId(0));
        b.ret();
        let p = Program::new(vec![a.finish().unwrap(), b.finish().unwrap()], vec![], FuncId(0))
            .unwrap();
        let err = CallGraph::build(&p).check_acyclic(FuncId(0)).unwrap_err();
        match err {
            CallGraphError::Recursion(cycle) => assert!(cycle.len() >= 3),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn expansion_counts_instances_per_call_string() {
        let p = layered();
        let inst = Instances::expand(&p, FuncId(2)).unwrap();
        // main + leaf(f1) + helper(f2) + helper/leaf + leaf(f3) = 5
        assert_eq!(inst.len(), 5);
        assert_eq!(inst.instances_of(FuncId(0)).len(), 3);
        assert_eq!(inst.instances_of(FuncId(1)).len(), 1);
        assert!(!inst.is_empty());
    }

    #[test]
    fn child_at_follows_sites() {
        let p = layered();
        let inst = Instances::expand(&p, FuncId(2)).unwrap();
        let root = inst.root();
        let c0 = inst.child_at(root, 0).unwrap();
        let c1 = inst.child_at(root, 1).unwrap();
        let c2 = inst.child_at(root, 2).unwrap();
        assert_eq!(inst.instances[c0.0].func, FuncId(0));
        assert_eq!(inst.instances[c1.0].func, FuncId(1));
        assert_eq!(inst.instances[c2.0].func, FuncId(0));
        assert!(inst.child_at(root, 3).is_none());
        // helper's own leaf call:
        let g = inst.child_at(c1, 0).unwrap();
        assert_eq!(inst.instances[g.0].func, FuncId(0));
        assert_eq!(inst.instances[g.0].label, "main/f2:helper/f1:leaf");
    }

    #[test]
    fn labels_are_call_strings() {
        let p = layered();
        let inst = Instances::expand(&p, FuncId(2)).unwrap();
        let labels: Vec<&str> = inst.instances.iter().map(|i| i.label.as_str()).collect();
        assert!(labels.contains(&"main"));
        assert!(labels.contains(&"main/f1:leaf"));
        assert!(labels.contains(&"main/f3:leaf"));
    }

    #[test]
    fn call_sites_records() {
        let p = layered();
        let inst = Instances::expand(&p, FuncId(2)).unwrap();
        let sites = inst.call_sites(inst.root());
        assert_eq!(sites.len(), 3);
        assert_eq!(sites[0].site, 0);
        assert_eq!(sites[0].callee, FuncId(0));
        assert_eq!(sites[1].callee, FuncId(1));
    }
}
