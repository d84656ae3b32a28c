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

    /// Resolves `lhs rel rhs` into one row `Σ terms rel constant`: the
    /// right side's terms move left and the left side's constant right,
    /// in checked arithmetic, and the row's summed coefficients must fit
    /// in `i64` too.
    ///
    /// # Errors
    ///
    /// A bad reference, or [`AnalysisError::Overflow`] for a negation,
    /// difference or sum past `i64`.
    pub(super) fn resolve_rel(
        &self,
        inst: InstanceId,
        lhs: &LinExpr,
        rel: Relation,
        rhs: &LinExpr,
    ) -> Result<LinCon, AnalysisError> {
        let func = &self.instances.cfg(inst).func_name;
        let overflow = |what: &str| AnalysisError::Overflow(format!("{what} in fn {func}"));
        let mut terms = Vec::with_capacity(lhs.terms.len() + rhs.terms.len());
        for (c, r) in &lhs.terms {
            terms.push((self.resolve_ref(inst, r)?, *c));
        }
        for (c, r) in &rhs.terms {
            let v = self.resolve_ref(inst, r)?;
            let c = c.checked_neg().ok_or_else(|| overflow(&format!("the coefficient of {r}")))?;
            terms.push((v, c));
        }
        let constant = rhs
            .constant
            .checked_sub(lhs.constant)
            .ok_or_else(|| overflow("the difference of a constraint's constants"))?;
        let con = LinCon { terms, relation: rel, rhs: constant };
        // Only coefficients whose magnitudes sum past `i64` can sum past it
        // per variable.
        let magnitude: u128 = con.terms.iter().map(|&(_, c)| u128::from(c.unsigned_abs())).sum();
        if magnitude > i64::MAX as u128 {
            con.normalized_terms().map_err(|e| match e {
                AnalysisError::Overflow(what) => overflow(&what),
                e => e,
            })?;
        }
        Ok(con)
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
        // `0 <= lo <= hi` was checked above, so neither negation can
        // overflow.
        let back_terms = |scale: i64| -> Vec<(VarRef, i64)> {
            let mut t: Vec<(VarRef, i64)> =
                lp.back_edges.iter().map(|e| (VarRef::Edge(target, *e), 1)).collect();
            for e in &lp.entry_edges {
                t.push((VarRef::Edge(target, *e), scale));
            }
            t
        };
        Ok(vec![LinCon::ge(back_terms(-lo), 0), LinCon::le(back_terms(-hi), 0)])
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
