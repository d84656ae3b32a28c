//! Annotation resolution: turning `x`/`d`/`f` references and loop bounds
//! into [`LinCon`] rows over the expanded instance variables.

use super::Analyzer;
use crate::dsl::{LinExpr, Ref, RefKind};
use crate::error::AnalysisError;
use crate::lincon::LinCon;
use crate::vars::VarRef;
use ipet_cfg::{BlockId, InstanceId};
use ipet_lp::Relation;
use std::collections::HashSet;

impl<'p> Analyzer<'p> {
    pub(super) fn follow_path(
        &self,
        inst: InstanceId,
        r: &Ref,
    ) -> Result<InstanceId, AnalysisError> {
        let mut cur = inst;
        for &hop in &r.path {
            cur = self.instances.child_at(cur, hop - 1).ok_or_else(|| {
                AnalysisError::BadReference {
                    func: self.instances.cfg(inst).func_name.clone(),
                    reference: r.to_string(),
                    reason: format!("no call site f{hop}"),
                }
            })?;
        }
        Ok(cur)
    }

    pub(super) fn resolve_ref(&self, inst: InstanceId, r: &Ref) -> Result<VarRef, AnalysisError> {
        let target = self.follow_path(inst, r)?;
        let cfg = self.instances.cfg(target);
        let bad = |reason: String| AnalysisError::BadReference {
            func: self.instances.cfg(inst).func_name.clone(),
            reference: r.to_string(),
            reason,
        };
        match r.kind {
            RefKind::X => {
                if r.index > cfg.num_blocks() {
                    return Err(bad(format!(
                        "function {} has only {} blocks",
                        cfg.func_name,
                        cfg.num_blocks()
                    )));
                }
                Ok(VarRef::Block(target, BlockId(r.index - 1)))
            }
            RefKind::D => {
                if r.index > cfg.num_edges() {
                    return Err(bad(format!(
                        "function {} has only {} edges",
                        cfg.func_name,
                        cfg.num_edges()
                    )));
                }
                Ok(VarRef::Edge(target, ipet_cfg::EdgeId(r.index - 1)))
            }
            RefKind::F => {
                let (edge, _) = cfg.call_edge(r.index - 1).ok_or_else(|| {
                    bad(format!("function {} has no call site f{}", cfg.func_name, r.index))
                })?;
                Ok(VarRef::Edge(target, edge))
            }
        }
    }

    pub(super) fn resolve_linexpr(
        &self,
        inst: InstanceId,
        e: &LinExpr,
    ) -> Result<(Vec<(VarRef, f64)>, f64), AnalysisError> {
        let mut terms = Vec::with_capacity(e.terms.len());
        for (c, r) in &e.terms {
            terms.push((self.resolve_ref(inst, r)?, *c as f64));
        }
        Ok((terms, e.constant as f64))
    }

    pub(super) fn resolve_rel(
        &self,
        inst: InstanceId,
        lhs: &LinExpr,
        rel: Relation,
        rhs: &LinExpr,
    ) -> Result<LinCon, AnalysisError> {
        let (mut terms, lconst) = self.resolve_linexpr(inst, lhs)?;
        let (rterms, rconst) = self.resolve_linexpr(inst, rhs)?;
        for (v, c) in rterms {
            terms.push((v, -c));
        }
        Ok(LinCon { terms, relation: rel, rhs: rconst - lconst })
    }

    pub(super) fn resolve_loop(
        &self,
        inst: InstanceId,
        header: &Ref,
        lo: i64,
        hi: i64,
        bounded: &mut HashSet<(InstanceId, BlockId)>,
    ) -> Result<Vec<LinCon>, AnalysisError> {
        let cfg_name = self.instances.cfg(inst).func_name.clone();
        if header.kind != RefKind::X {
            return Err(AnalysisError::BadReference {
                func: cfg_name,
                reference: header.to_string(),
                reason: "loop headers must be x-references".into(),
            });
        }
        if lo < 0 || hi < lo {
            return Err(AnalysisError::BadLoopBound { func: cfg_name, lo, hi });
        }
        let target = self.follow_path(inst, header)?;
        let cfg = self.instances.cfg(target);
        let block = BlockId(header.index - 1);
        let lp = cfg.loops().iter().find(|l| l.header == block).ok_or_else(|| {
            AnalysisError::NotALoopHeader { func: cfg.func_name.clone(), block: block.to_string() }
        })?;
        bounded.insert((target, block));

        // The paper's eqs. (14)-(15) relate the count of the block inside
        // the loop to the count of the block before the loop
        // (`1·x1 <= x2 <= 10·x1`). The equivalent graph-level statement —
        // independent of how the compiler shaped the header — bounds the
        // *iterations per entry*: with E = Σ d over entry edges and
        // B = Σ d over back edges,  lo·E <= B <= hi·E.
        let back_terms = |scale: f64| -> Vec<(VarRef, f64)> {
            let mut t: Vec<(VarRef, f64)> =
                lp.back_edges.iter().map(|e| (VarRef::Edge(target, *e), 1.0)).collect();
            for e in &lp.entry_edges {
                t.push((VarRef::Edge(target, *e), scale));
            }
            t
        };
        Ok(vec![
            LinCon::ge(back_terms(-(lo as f64)), 0.0),
            LinCon::le(back_terms(-(hi as f64)), 0.0),
        ])
    }

    pub(super) fn unbounded_loop_labels(
        &self,
        bounded: &HashSet<(InstanceId, BlockId)>,
    ) -> Vec<String> {
        let mut out = Vec::new();
        for i in 0..self.instances.len() {
            let inst = InstanceId(i);
            let cfg = self.instances.cfg(inst);
            for l in cfg.loops() {
                if !bounded.contains(&(inst, l.header)) {
                    let line = self.program().functions[cfg.func.0]
                        .src_line(cfg.blocks()[l.header.0].start)
                        .map(|n| format!(" at line {n}"))
                        .unwrap_or_default();
                    out.push(format!("{}({}){line}", cfg.func_name, l.header));
                }
            }
        }
        out.sort();
        out.dedup();
        out
    }
}
