//! Canonical optima: one lexicographic tie-break for every simplex run.
//!
//! An LP optimum is often tied: IPET objectives routinely give equal-cost
//! branch arms, so a whole face of the feasible region is optimal, and which
//! vertex of it a simplex run reports depends on its pivot path. Every
//! accepted result here is instead the face's **canonical** point: the
//! lexicographic minimum of the structural variables in `VarId` order. The
//! optimal face is the same whichever basis reaches it, and its
//! lexicographic minimum is a single point, so the sparse kernel and the
//! debug reference kernel report the same optimum whatever their pivot
//! paths.
//!
//! [`canonicalize`] walks there from any optimal basis. The face's free
//! directions are the non-basic columns whose phase-2 reduced cost is within
//! [`FEAS_TOL`] of zero: entering one keeps the objective. When there are
//! none the optimum is unique and nothing else happens. Otherwise, for each
//! structural variable `x_k` in ascending order:
//!
//! - while `x_k` is basic and a face column decreases it (a positive entry in
//!   `x_k`'s row), that column enters by Bland's rule (smallest index), with a
//!   ratio test over all rows (smallest basic index on ties);
//! - then `x_k` is at its minimum over the face and is fixed there: every
//!   face column with a nonzero entry in its row leaves the face for the rest
//!   of the walk. A non-basic `x_k` is at zero and simply leaves the face.
//!
//! A fixed row is left untouched by every later pivot (the entering column is
//! zero in it), so each fixed `x_k` keeps its value. Each stage is Bland's
//! rule on one secondary objective, so the walk terminates; its pivots count
//! against the caller's iteration cap and meter like any others.
//!
//! A face column's image is computed only when the walk asks for it: at
//! most once per basis, in ascending column order, as far as the search for
//! the first face member, or for the entering column, has to look. The face
//! it sees is the one an eager rebuild of every image would give, because
//! membership is the same tests on the same image; only a non-finite image
//! the walk never reaches goes unnoticed.

use crate::simplex::FEAS_TOL;

/// What [`canonicalize`] needs from a simplex kernel at an optimal basis.
pub(crate) trait LexKernel {
    /// Structural (problem) variable count; they are columns `0..n`.
    fn structural(&self) -> usize;
    /// Column count, the right-hand side excluded.
    fn num_cols(&self) -> usize;
    /// Basic column of each row.
    fn basis(&self) -> &[usize];
    /// The row in which `col` is basic, if it is.
    fn basic_row(&self, col: usize) -> Option<usize> {
        self.basis().iter().position(|&b| b == col)
    }
    /// True for a column that may never enter (artificials, dead slots).
    fn barred(&self, col: usize) -> bool;
    /// Phase-2 reduced cost of every column; `z_j >= 0` at an optimum.
    fn reduced_costs(&self) -> Vec<f64>;
    /// [`reduced_costs`](Self::reduced_costs) into `z`, reusing its room.
    fn reduced_costs_into(&mut self, z: &mut Vec<f64>) {
        *z = self.reduced_costs();
    }
    /// The column `B^-1 A_j`, one entry per row.
    fn column(&self, col: usize) -> Vec<f64>;
    /// [`column`](Self::column) into `w`, one entry per row.
    fn column_into(&self, col: usize, w: &mut [f64]) {
        w.copy_from_slice(&self.column(col));
    }
    /// Value of row `row`'s basic variable.
    fn basic_value(&self, row: usize) -> f64;
    /// Pivots column `col`, whose image `column(col)` is `w`, into row `row`.
    /// False when the pivot broke down numerically.
    fn exchange(&mut self, row: usize, col: usize, w: &[f64]) -> bool;
}

/// How a [`canonicalize`] walk ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LexEnd {
    /// The basis now sits at the canonical optimum.
    Canonical,
    /// Ran out of pivot iterations.
    IterLimit,
    /// Met non-finite data.
    Numerical,
}

/// Moves an optimal basis to the lexicographic minimum of the structural
/// variables over the optimal face (see the module docs), charging one
/// pivot per exchange to `pivots` and stopping after `max_iters` of them.
pub(crate) fn canonicalize<K: LexKernel>(k: &mut K, max_iters: u64, pivots: &mut u64) -> LexEnd {
    walk(k, max_iters, pivots).unwrap_or(LexEnd::Numerical)
}

/// A non-finite reduced cost or column image.
struct NonFinite;

/// [`canonicalize`], with non-finite data as the error.
fn walk<K: LexKernel>(k: &mut K, max_iters: u64, pivots: &mut u64) -> Result<LexEnd, NonFinite> {
    let mut face = Face::new(k.num_cols(), k.basis().len());
    face.rebuild(k)?;
    let mut iters = 0u64;
    let mut var = 0;
    while var < k.structural() && face.first(k)?.is_some() {
        let Some(row) = k.basic_row(var) else {
            face.fix_column(var);
            var += 1;
            continue;
        };
        let Some(p) = face.entering(k, row)? else {
            face.fix_row(row);
            var += 1;
            continue;
        };
        if iters >= max_iters {
            return Ok(LexEnd::IterLimit);
        }
        iters += 1;
        let w = face.image(p);
        let Some(leave) = ratio_test(k, w) else {
            return Err(NonFinite);
        };
        *pivots += 1;
        if !k.exchange(leave, face.candidates[p], w) {
            return Err(NonFinite);
        }
        face.rebuild(k)?;
    }
    Ok(LexEnd::Canonical)
}

/// The optimal face at the current basis: its free directions that move no
/// fixed variable, ascending, with their images computed lazily.
struct Face {
    /// Row count: the length of an image.
    m: usize,
    /// Non-basic variables held at zero.
    fixed_cols: Vec<bool>,
    /// Rows whose basic variable is held at its value.
    fixed_rows: Vec<usize>,
    /// The basis' columns.
    basic: Vec<bool>,
    /// Reduced costs at the basis.
    z: Vec<f64>,
    /// The basis' non-basic, unbarred, unfixed columns with a reduced cost
    /// within `FEAS_TOL` of zero, ascending.
    candidates: Vec<usize>,
    /// How many candidates, from the first, have been looked at.
    seen: usize,
    /// Image of `candidates[p]` at `images[p * m..(p + 1) * m]`, for each
    /// `p < seen` not skipped as fixed.
    images: Vec<f64>,
    /// Positions (in `candidates`) of the seen candidates in the face,
    /// ascending.
    members: Vec<usize>,
}

impl Face {
    fn new(num_cols: usize, m: usize) -> Face {
        Face {
            m,
            fixed_cols: vec![false; num_cols],
            fixed_rows: Vec::new(),
            basic: vec![false; num_cols],
            z: Vec::new(),
            candidates: Vec::new(),
            seen: 0,
            images: Vec::new(),
            members: Vec::new(),
        }
    }

    /// Starts over at `k`'s current basis.
    fn rebuild<K: LexKernel>(&mut self, k: &mut K) -> Result<(), NonFinite> {
        k.reduced_costs_into(&mut self.z);
        if self.z.iter().any(|v| !v.is_finite()) {
            return Err(NonFinite);
        }
        self.basic.fill(false);
        for &b in k.basis() {
            self.basic[b] = true;
        }
        self.candidates.clear();
        for j in 0..k.num_cols() {
            if self.basic[j] || self.fixed_cols[j] || k.barred(j) || self.z[j] > FEAS_TOL {
                continue;
            }
            self.candidates.push(j);
        }
        self.seen = 0;
        self.members.clear();
        Ok(())
    }

    fn image(&self, p: usize) -> &[f64] {
        &self.images[p * self.m..(p + 1) * self.m]
    }

    /// Looks at further candidates until one is in the face: its position,
    /// or `None` once every candidate has been seen.
    fn extend<K: LexKernel>(&mut self, k: &K) -> Result<Option<usize>, NonFinite> {
        let m = self.m;
        while self.seen < self.candidates.len() {
            let p = self.seen;
            self.seen += 1;
            let j = self.candidates[p];
            if self.fixed_cols[j] {
                continue;
            }
            if self.images.len() < (p + 1) * m {
                self.images.resize((p + 1) * m, 0.0);
            }
            let w = &mut self.images[p * m..(p + 1) * m];
            k.column_into(j, w);
            if w.iter().any(|v| !v.is_finite()) {
                return Err(NonFinite);
            }
            if self.fixed_rows.iter().all(|&r| w[r].abs() <= FEAS_TOL) {
                self.members.push(p);
                return Ok(Some(p));
            }
        }
        Ok(None)
    }

    /// The face's first column, if the face is not empty.
    fn first<K: LexKernel>(&mut self, k: &K) -> Result<Option<usize>, NonFinite> {
        match self.members.first() {
            Some(&p) => Ok(Some(p)),
            None => self.extend(k),
        }
    }

    /// The first face column that decreases `row`'s basic variable (a
    /// positive entry in `row`), by Bland's rule.
    fn entering<K: LexKernel>(&mut self, k: &K, row: usize) -> Result<Option<usize>, NonFinite> {
        let m = self.m;
        if let Some(&p) = self.members.iter().find(|&&p| self.images[p * m + row] > FEAS_TOL) {
            return Ok(Some(p));
        }
        while let Some(p) = self.extend(k)? {
            if self.images[p * m + row] > FEAS_TOL {
                return Ok(Some(p));
            }
        }
        Ok(None)
    }

    /// Holds non-basic `var` at zero: it leaves the face.
    fn fix_column(&mut self, var: usize) {
        self.fixed_cols[var] = true;
        self.members.retain(|&p| self.candidates[p] != var);
    }

    /// Holds `row`'s basic variable at its value: every face column with a
    /// nonzero entry in the row leaves the face.
    fn fix_row(&mut self, row: usize) {
        self.fixed_rows.push(row);
        let m = self.m;
        self.members.retain(|&p| self.images[p * m + row].abs() <= FEAS_TOL);
    }
}

/// The leaving row for entering image `w`: the smallest ratio over rows with
/// `w_i > FEAS_TOL`, ties (within tolerance) to the smallest basic column.
fn ratio_test<K: LexKernel>(k: &K, w: &[f64]) -> Option<usize> {
    let basis = k.basis();
    let mut best: Option<(usize, f64)> = None;
    for (i, &wi) in w.iter().enumerate() {
        if wi <= FEAS_TOL {
            continue;
        }
        let ratio = k.basic_value(i) / wi;
        if !ratio.is_finite() {
            return None;
        }
        let better = match best {
            None => true,
            Some((bi, br)) => {
                ratio < br - FEAS_TOL || ((ratio - br).abs() <= FEAS_TOL && basis[i] < basis[bi])
            }
        };
        if better {
            best = Some((i, ratio));
        }
    }
    best.map(|(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Constraint, Problem, ProblemBuilder, Relation, Sense, VarId};
    use crate::reference::debug_reference_lp;
    use crate::simplex::{solve_lp, LpOutcome};
    use crate::sparse::{SparseEnd, SparseInstance};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn row(terms: &[(usize, f64)], relation: Relation, rhs: f64) -> Constraint {
        Constraint { terms: terms.iter().map(|&(v, c)| (VarId(v), c)).collect(), relation, rhs }
    }

    fn problem(sense: Sense, obj: &[f64], rows: Vec<Constraint>) -> Problem {
        let mut b = ProblemBuilder::new(sense);
        for &c in obj {
            let v = b.add_var(false);
            b.objective(v, c);
        }
        let mut p = b.build();
        p.constraints = rows;
        p
    }

    fn lp_x(p: &Problem) -> Vec<f64> {
        match solve_lp(p) {
            LpOutcome::Optimal { x, .. } => x,
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn a_tied_edge_resolves_to_its_lexicographic_minimum() {
        // max x + y st x + y <= 5, x <= 4, y <= 6: Dantzig enters x first
        // and stops at (4, 1); the optimal edge runs to (0, 5).
        let rows = || {
            vec![
                row(&[(0, 1.0), (1, 1.0)], Relation::Le, 5.0),
                row(&[(0, 1.0)], Relation::Le, 4.0),
                row(&[(1, 1.0)], Relation::Le, 6.0),
            ]
        };
        assert_eq!(lp_x(&problem(Sense::Maximize, &[1.0, 1.0], rows())), vec![0.0, 5.0]);
        // Listing y first makes y the variable to minimize: (1, 4) in
        // (y, x) order.
        let swapped: Vec<Constraint> = rows()
            .into_iter()
            .map(|mut r| {
                for t in &mut r.terms {
                    t.0 = VarId(1 - t.0 .0);
                }
                r
            })
            .collect();
        assert_eq!(lp_x(&problem(Sense::Maximize, &[1.0, 1.0], swapped)), vec![1.0, 4.0]);
    }

    #[test]
    fn an_integer_typed_problem_keeps_an_integral_first_vertex() {
        // max x + y st 2x + 2y <= 5, integer-typed: the first vertex
        // (2.5, 0) is fractional, the canonical one (0, 2.5) too, so the
        // first stands; typed continuous, the canonical one wins.
        let mut p = problem(
            Sense::Maximize,
            &[1.0, 1.0],
            vec![row(&[(0, 2.0), (1, 2.0)], Relation::Le, 5.0)],
        );
        assert_eq!(lp_x(&p), vec![0.0, 2.5]);
        p.integer = vec![true, true];
        assert_eq!(lp_x(&p), vec![2.5, 0.0]);
    }

    /// A random LP with a tied objective: an equal-cost diamond (two arms
    /// sharing one count) plus a duplicated column, inside a box.
    fn tied_problem(rng: &mut StdRng) -> (Problem, Vec<Constraint>) {
        let n = rng.gen_range(4usize..=6);
        let mut obj: Vec<f64> = (0..n).map(|_| rng.gen_range(-2i64..=6) as f64).collect();
        let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
        let mut rows = Vec::new();
        if a != b {
            obj[b] = obj[a];
            rows.push(row(&[(a, 1.0), (b, 1.0)], Relation::Eq, rng.gen_range(1i64..=4) as f64));
        }
        for v in 0..n {
            rows.push(row(&[(v, 1.0)], Relation::Le, rng.gen_range(2i64..=5) as f64));
        }
        for _ in 0..rng.gen_range(1usize..=3) {
            let mut terms = Vec::new();
            for v in 0..n {
                if rng.gen_bool(0.5) {
                    terms.push((v, rng.gen_range(1i64..=3) as f64));
                }
            }
            if !terms.is_empty() {
                rows.push(row(&terms, Relation::Le, rng.gen_range(3i64..=12) as f64));
            }
        }
        // Duplicate column `d` into the last variable: same cost, same
        // entries.
        let d = rng.gen_range(0..n - 1);
        obj[n - 1] = obj[d];
        for r in &mut rows {
            if let Some(&(_, c)) = r.terms.iter().find(|t| t.0 .0 == d) {
                if !r.terms.iter().any(|t| t.0 .0 == n - 1) {
                    r.terms.push((VarId(n - 1), c));
                }
            }
        }
        let sense = if rng.gen_bool(0.7) { Sense::Maximize } else { Sense::Minimize };
        let delta: Vec<Constraint> = (0..rng.gen_range(1usize..=2))
            .map(|_| {
                let v = rng.gen_range(0..n);
                let w = rng.gen_range(0..n);
                let rel = if rng.gen_bool(0.7) { Relation::Le } else { Relation::Ge };
                row(&[(v, 1.0), (w, 1.0)], rel, rng.gen_range(1i64..=4) as f64)
            })
            .collect();
        (problem(sense, &obj, rows), delta)
    }

    /// The reference kernel's and the sparse kernel's canonical `x` of
    /// `base + delta`, or `None` when the run did not reach one.
    fn canonical_points(base: &Problem, delta: &[Constraint]) -> [Option<Vec<f64>>; 2] {
        let mut composed = base.clone();
        composed.constraints.extend(delta.iter().cloned());

        let reference = match debug_reference_lp(&composed) {
            LpOutcome::Optimal { x, .. } => Some(x),
            _ => None,
        };
        let sparse = || {
            let mut inst = SparseInstance::build(&composed, &[])?;
            let cap = inst.default_iter_cap();
            let mut pivots = 0;
            if inst.solve_primal(cap, &mut pivots) != SparseEnd::Optimal {
                return None;
            }
            let end = canonicalize(&mut inst, cap, &mut pivots);
            (end == LexEnd::Canonical).then(|| inst.extract_x())
        };
        [reference, sparse()]
    }

    #[test]
    fn both_kernels_reach_one_canonical_point() {
        let mut rng = StdRng::seed_from_u64(0x1e5);
        let (mut compared, mut fractional) = (0, 0);
        for case in 0..300 {
            let (base, delta) = tied_problem(&mut rng);
            let [reference, sparse] = canonical_points(&base, &delta);
            let Some(cold) = &reference else { continue };
            // The sparse kernel may decline a problem the reference solves
            // (a factorization that overflows); whatever it reaches must
            // agree.
            if let Some(p) = &sparse {
                let close = cold.iter().zip(p).all(|(a, b)| (a - b).abs() <= 1e-9);
                assert!(close, "case {case}: sparse {p:?} vs reference {cold:?}");
            }
            compared += 1;
            fractional += usize::from(cold.iter().any(|v| v.fract() != 0.0));
        }
        assert!(compared >= 150, "only {compared} optimal cases");
        assert!(fractional >= 10, "only {fractional} fractional canonical points");
    }
}
