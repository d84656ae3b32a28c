//! # ipet-infer
//!
//! Automatic loop-bound inference with provenance-tracked constraint
//! emission.
//!
//! The paper requires the user to annotate every loop with an iteration
//! interval before the ILP can be bounded (§III: "the user provides loop
//! bounds as functionality constraints"). This crate derives those same
//! constraint rows mechanically: it walks the mini-C AST alongside the
//! CFG's natural-loop forest, abstracts each loop counter into a
//! difference constraint (initial value, per-iteration step, guard
//! relation), and emits `loop xH in [lo, hi]` statements identical to the
//! hand-written ones — each tagged with a [`BoundSource`] provenance
//! record that flows through the analysis plan into the per-routine
//! report and the trace JSON.
//!
//! The contract is *sound-or-silent*: a rule either proves its interval
//! or stays quiet. When a loop defeats the abstraction the caller falls
//! back to the user's annotation ([`InferMode::Merge`] /
//! [`InferMode::PreferAnnot`]) or fails with a diagnostic listing the
//! unbounded loops by source line ([`InferMode::Only`]).
//!
//! Two independent inference layers feed the merge:
//!
//! * **AST rules** (the `rules` module) — `counted` (exact trip counts for
//!   constant-stepped counters), `guarded-exit` (flag-controlled search
//!   loops like the paper's `check_data`), `guard-and` (conjunction
//!   guards take the tightest conjunct) and `monotonic` (upper bounds
//!   from counters that provably move toward the guard every iteration).
//! * **Machine rule** — [`ipet_core::infer_loop_bounds`]'s trip counting
//!   over the compiled instruction stream (`machine-counted`), which also
//!   covers `.s` targets that never had an AST.

use ipet_core::{Analyzer, Annotations, BoundSource, LoopProvenance, Ref, RefKind, Stmt};
use ipet_lang::Module;
use std::collections::BTreeMap;
use std::fmt;

mod rules;

/// How inferred bounds combine with user annotations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum InferMode {
    /// Use both: where a loop has an annotation and an inferred bound,
    /// take the intersection (the tighter of each end) and report
    /// disagreements. The default for `--infer`.
    #[default]
    Merge,
    /// Use only inferred bounds; loops the abstraction cannot bound make
    /// the analysis fail with a diagnostic (`--infer=only`).
    Only,
    /// Annotations win; inferred bounds only fill unannotated loops
    /// (`--infer=prefer-annot`).
    PreferAnnot,
}

impl InferMode {
    /// Parses the `--infer[=MODE]` / serve-request spelling.
    pub fn parse(s: &str) -> Option<InferMode> {
        match s {
            "" | "merge" => Some(InferMode::Merge),
            "only" => Some(InferMode::Only),
            "prefer-annot" => Some(InferMode::PreferAnnot),
            _ => None,
        }
    }
}

/// A loop no rule could bound, reported by [`InferMode::Only`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnboundedLoop {
    /// Function name.
    pub func: String,
    /// 0-based header block index (`x{header+1}` in annotation syntax).
    pub header: usize,
    /// Source line of the loop header, when the target carries line info.
    pub line: Option<u32>,
}

impl fmt::Display for UnboundedLoop {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(B{})", self.func, self.header + 1)?;
        if let Some(l) = self.line {
            write!(f, " at line {l}")?;
        }
        Ok(())
    }
}

/// An annotation and an inferred bound with an empty intersection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Disagreement {
    /// Function name.
    pub func: String,
    /// 0-based header block index.
    pub header: usize,
    /// The user's `[lo, hi]`.
    pub annotated: (i64, i64),
    /// The abstraction's `[lo, hi]`.
    pub inferred: (i64, i64),
    /// Rule that produced the inferred interval.
    pub rule: String,
    /// Source line of the loop, when known.
    pub line: Option<u32>,
}

impl fmt::Display for Disagreement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}(B{}): inferred [{}, {}] ({}) disagrees with annotation [{}, {}]; keeping the \
             annotation",
            self.func,
            self.header + 1,
            self.inferred.0,
            self.inferred.1,
            self.rule,
            self.annotated.0,
            self.annotated.1
        )?;
        if let Some(l) = self.line {
            write!(f, " (line {l})")?;
        }
        Ok(())
    }
}

/// Outcome tallies, mirrored into the `infer.loops.*` trace counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InferCounts {
    /// Loops needing bounds across the program.
    pub total: u64,
    /// Loops whose final bound uses an inferred interval (alone or merged).
    pub inferred: u64,
    /// Loops whose final bound uses an annotation (alone or merged).
    pub annotated: u64,
    /// Loops left unbounded by both sources.
    pub failed: u64,
    /// Merged loops where inference strictly tightened the annotation.
    pub tightened: u64,
}

/// Result of [`infer_and_merge`].
#[derive(Debug, Clone)]
pub struct InferOutcome {
    /// The merged annotation set: the user's statements with loop bounds
    /// replaced by the merged intervals, provenance rows attached.
    pub annotations: Annotations,
    /// Annotation/inference conflicts (annotation kept).
    pub disagreements: Vec<Disagreement>,
    /// Outcome tallies.
    pub counts: InferCounts,
}

/// Inference failure (only produced by [`InferMode::Only`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InferError {
    /// Some loops could not be bounded by any rule.
    Unbounded(Vec<UnboundedLoop>),
}

impl fmt::Display for InferError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InferError::Unbounded(loops) => {
                writeln!(f, "loop-bound inference failed; no rule could bound:")?;
                for l in loops {
                    writeln!(f, "  {l}")?;
                }
                write!(f, "hint: annotate these loops, or use --infer (merge) to combine both")
            }
        }
    }
}

impl std::error::Error for InferError {}

/// One inferred interval, pre-merge.
#[derive(Debug, Clone)]
struct Inferred {
    lo: i64,
    hi: i64,
    rule: String,
    line: u32,
}

/// Runs loop-bound inference over the analyzer's program and merges the
/// result with the user's annotations according to `mode`.
///
/// `module` is the mini-C AST when the target came through the language
/// frontend; pass `None` for `.s` targets (the machine-level rule still
/// applies). Annotation `loop` statements that scope into callees via
/// `.fN` paths are passed through untouched — only whole-function bounds
/// participate in the merge.
///
/// Emits the `infer.loops.{total,inferred,annotated,failed,tightened}`
/// trace counters exactly once per call.
///
/// # Errors
///
/// [`InferError::Unbounded`] in [`InferMode::Only`] when any loop defeats
/// every rule; the error lists each such loop with its source line.
pub fn infer_and_merge(
    module: Option<&Module>,
    analyzer: &Analyzer<'_>,
    user: &Annotations,
    mode: InferMode,
) -> Result<InferOutcome, InferError> {
    let program = analyzer.program();
    let loops = analyzer.loops_needing_bounds();

    // Source line of a loop header, for provenance and diagnostics.
    let src_line = |func: &str, header: usize| -> Option<u32> {
        let (fid, _) = program.function_by_name(func)?;
        let cfg = &analyzer.instances().cfgs[fid.0];
        program.functions[fid.0].src_line(cfg.blocks()[header].start)
    };

    // Layer 1: AST rules, mapped onto CFG headers per function.
    let mut inferred: BTreeMap<(String, usize), Inferred> = BTreeMap::new();
    if let Some(module) = module {
        let mut done: Vec<&str> = Vec::new();
        for (fname, _) in &loops {
            if done.contains(&fname.as_str()) {
                continue;
            }
            done.push(fname);
            let Some(decl) = module.functions().find(|f| &f.name == fname) else { continue };
            let Some((fid, _)) = program.function_by_name(fname) else { continue };
            let cfg = &analyzer.instances().cfgs[fid.0];
            let cfg_loops = cfg.loops();
            let ast_loops = rules::function_loops(module, decl);
            if ast_loops.len() != cfg_loops.len() || !nesting_matches(&ast_loops, cfg_loops) {
                // Optimisation reshaped the loop forest (or the frontend
                // and CFG disagree); stay silent rather than guess.
                continue;
            }
            for (al, cl) in ast_loops.iter().zip(cfg_loops) {
                if let Some(b) = &al.bound {
                    inferred.insert(
                        (fname.clone(), cl.header.0),
                        Inferred { lo: b.lo, hi: b.hi, rule: b.rule.to_string(), line: b.line },
                    );
                }
            }
        }
    }

    // Layer 2: machine-level trip counting fills the remaining gaps.
    for mb in ipet_core::infer_loop_bounds(analyzer) {
        let key = (mb.func_name.clone(), mb.header.0);
        let trips = mb.trips as i64;
        inferred.entry(key).or_insert_with(|| Inferred {
            lo: trips,
            hi: trips,
            rule: "machine-counted".to_string(),
            line: src_line(&mb.func_name, mb.header.0).unwrap_or(0),
        });
    }

    // User annotations: whole-function loop bounds participate in the
    // merge; everything else (constraints, `.fN`-scoped bounds) passes
    // through untouched.
    let mut annotated: BTreeMap<(String, usize), (i64, i64)> = BTreeMap::new();
    let known =
        |fname: &String, header: usize| loops.iter().any(|(f, h)| f == fname && h.0 == header);
    for (fname, stmts) in &user.functions {
        for s in stmts {
            if let Stmt::Loop { header, lo, hi } = s {
                if header.kind == RefKind::X
                    && header.path.is_empty()
                    && header.index >= 1
                    && known(fname, header.index - 1)
                {
                    let e = annotated
                        .entry((fname.clone(), header.index - 1))
                        .or_insert((i64::MIN, i64::MAX));
                    // Multiple annotations on one loop are all ILP rows;
                    // their conjunction is the intersection.
                    e.0 = e.0.max(*lo);
                    e.1 = e.1.min(*hi);
                }
            }
        }
    }

    let passthrough = |fname: &String, s: &Stmt| -> bool {
        match s {
            Stmt::Loop { header, .. } => {
                header.kind != RefKind::X
                    || !header.path.is_empty()
                    || header.index < 1
                    || !known(fname, header.index - 1)
            }
            _ => true,
        }
    };

    // Merge, in the deterministic order of `loops_needing_bounds`.
    let mut counts = InferCounts::default();
    let mut disagreements = Vec::new();
    let mut unbounded = Vec::new();
    let mut rows: Vec<(String, Stmt, LoopProvenance)> = Vec::new();
    let push_row = |rows: &mut Vec<(String, Stmt, LoopProvenance)>,
                    func: &str,
                    header: usize,
                    lo: i64,
                    hi: i64,
                    source: BoundSource| {
        let stmt = Stmt::Loop {
            header: Ref { kind: RefKind::X, index: header + 1, path: Vec::new() },
            lo,
            hi,
        };
        let prov = LoopProvenance { func: func.to_string(), header, lo, hi, source };
        rows.push((func.to_string(), stmt, prov));
    };

    for (fname, hdr) in &loops {
        counts.total += 1;
        let key = (fname.clone(), hdr.0);
        let ann = annotated.get(&key).copied();
        let inf = inferred.get(&key).cloned();
        match mode {
            InferMode::Only => match inf {
                Some(i) => {
                    counts.inferred += 1;
                    push_row(
                        &mut rows,
                        fname,
                        hdr.0,
                        i.lo,
                        i.hi,
                        BoundSource::Inferred { rule: i.rule, line: i.line },
                    );
                }
                None => {
                    counts.failed += 1;
                    unbounded.push(UnboundedLoop {
                        func: fname.clone(),
                        header: hdr.0,
                        line: src_line(fname, hdr.0),
                    });
                }
            },
            InferMode::PreferAnnot => match (ann, inf) {
                (Some((lo, hi)), _) => {
                    counts.annotated += 1;
                    push_row(&mut rows, fname, hdr.0, lo, hi, BoundSource::Annotated);
                }
                (None, Some(i)) => {
                    counts.inferred += 1;
                    push_row(
                        &mut rows,
                        fname,
                        hdr.0,
                        i.lo,
                        i.hi,
                        BoundSource::Inferred { rule: i.rule, line: i.line },
                    );
                }
                (None, None) => counts.failed += 1,
            },
            InferMode::Merge => match (ann, inf) {
                (Some(a), Some(i)) => {
                    let lo = a.0.max(i.lo);
                    let hi = a.1.min(i.hi);
                    if lo > hi {
                        // Disjoint: one of the two is wrong. Keep the
                        // user's interval (the conservative choice for a
                        // tool that must never silently override an
                        // annotation) and surface the conflict.
                        counts.annotated += 1;
                        disagreements.push(Disagreement {
                            func: fname.clone(),
                            header: hdr.0,
                            annotated: a,
                            inferred: (i.lo, i.hi),
                            rule: i.rule,
                            line: (i.line != 0)
                                .then_some(i.line)
                                .or_else(|| src_line(fname, hdr.0)),
                        });
                        push_row(&mut rows, fname, hdr.0, a.0, a.1, BoundSource::Annotated);
                    } else {
                        counts.annotated += 1;
                        counts.inferred += 1;
                        if lo > a.0 || hi < a.1 {
                            counts.tightened += 1;
                        }
                        push_row(
                            &mut rows,
                            fname,
                            hdr.0,
                            lo,
                            hi,
                            BoundSource::Merged {
                                rule: i.rule,
                                line: i.line,
                                annotated: a,
                                inferred: (i.lo, i.hi),
                            },
                        );
                    }
                }
                (Some((lo, hi)), None) => {
                    counts.annotated += 1;
                    push_row(&mut rows, fname, hdr.0, lo, hi, BoundSource::Annotated);
                }
                (None, Some(i)) => {
                    counts.inferred += 1;
                    push_row(
                        &mut rows,
                        fname,
                        hdr.0,
                        i.lo,
                        i.hi,
                        BoundSource::Inferred { rule: i.rule, line: i.line },
                    );
                }
                (None, None) => counts.failed += 1,
            },
        }
    }

    ipet_trace::counter("infer.loops.total", counts.total);
    ipet_trace::counter("infer.loops.inferred", counts.inferred);
    ipet_trace::counter("infer.loops.annotated", counts.annotated);
    ipet_trace::counter("infer.loops.failed", counts.failed);
    ipet_trace::counter("infer.loops.tightened", counts.tightened);

    if mode == InferMode::Only && !unbounded.is_empty() {
        return Err(InferError::Unbounded(unbounded));
    }

    // Assemble: user statements minus the replaced loop bounds, then the
    // merged rows grouped per function in first-appearance order.
    let mut functions: Vec<(String, Vec<Stmt>)> = Vec::new();
    for (fname, stmts) in &user.functions {
        let kept: Vec<Stmt> = stmts.iter().filter(|s| passthrough(fname, s)).cloned().collect();
        if !kept.is_empty() {
            functions.push((fname.clone(), kept));
        }
    }
    let mut provenance = Vec::new();
    for (fname, stmt, prov) in rows {
        match functions.iter_mut().rev().find(|(n, _)| n == &fname) {
            Some((_, stmts)) => stmts.push(stmt),
            None => functions.push((fname, vec![stmt])),
        }
        provenance.push(prov);
    }

    Ok(InferOutcome { annotations: Annotations { functions, provenance }, disagreements, counts })
}

/// Checks that the AST loop forest (pre-order with descendant counts) has
/// the same nesting structure as the CFG's natural loops (sorted by
/// header): loop `j` nests in loop `i` in one iff it does in the other.
fn nesting_matches(ast: &[rules::AstLoop], cfg: &[ipet_cfg::LoopInfo]) -> bool {
    for i in 0..ast.len() {
        for j in (i + 1)..ast.len() {
            let ast_nested = j <= i + ast[i].descendants;
            if ast_nested != cfg[i].contains(cfg[j].header) {
                return false;
            }
        }
    }
    true
}
