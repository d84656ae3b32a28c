//! Revised simplex over sparse columns: the one production simplex kernel.
//!
//! The constraint matrix is kept as immutable CSC columns and the basis
//! inverse implicitly: an LU factorization (partial pivoting) of the basis
//! taken at the last refactorization point, stored as sparse per-row and
//! per-column lists of its nonzeros, composed with an eta file of
//! product-form updates, one eta per pivot. FTRAN/BTRAN apply the factors;
//! every [`REFACTOR_INTERVAL`] pivots the LU is rebuilt from the current
//! basis and the eta file is discarded, which also re-syncs the basic
//! values against the right-hand side to keep drift bounded.
//!
//! Memory layout: a solve allocates a handful of flat buffers, not a
//! vector per row, column or eta. The columns are one `start`/`entries`
//! pair ([`Lines`]) built by a counting pass over the merged rows; the eta
//! file is one arena ([`Etas`]); and one [`Workspace`] per instance holds
//! the dense BTRAN/FTRAN vectors and the elimination's row lists, column
//! lists and fill-in, reused by every pivot and refactorization. Each
//! buffer is overwritten in full before it is read, and every loop keeps
//! the floating-point operations, and their order, of the textbook dense
//! loop it replaces.
//!
//! Pricing is Dantzig's rule (most negative reduced cost, smallest column
//! index on ties), switching to Bland's rule after [`STALL_THRESHOLD`]
//! consecutive degenerate pivots: a stalled run of degenerate pivots is
//! the precondition for cycling, and Bland's rule provably terminates.
//! Every loop is also capped by an iteration budget. The kernel solves
//! every LP as it stands ([`crate::solve_lp_metered`]), plus the bound
//! rows of a branch-and-bound node, appended after the problem's rows
//! without copying the problem.
//!
//! Every start basis is crashed (`SparseInstance::crash`): the
//! artificials of zero-level rows — the flow-conservation equations — are
//! replaced by structural or surplus columns chosen so that, in crash
//! order, the covered block is lower triangular with a nonzero diagonal.
//! The basis stays nonsingular and its basic solution is exactly the
//! artificial start's point (structurals 0, unit columns at `b`), the
//! point phase 1 would reach by one degenerate pivot per covered row.
//!
//! Results are only ever *reported* after the walk to the canonical
//! optimum ([`crate::canonical`]), so the start basis and the pivot path
//! decide the work done, not the bound.
//! Debug builds and tests check the kernel against an independent
//! full-row tableau (`crate::reference`).

// NaN-aware guards (`!(x > tol)` also rejects NaN, `x <= tol` would not) and
// index-based kernel loops are deliberate: the forms clippy suggests either
// change NaN behaviour or obscure the row/column arithmetic of the LU and
// pricing kernels.
#![allow(clippy::neg_cmp_op_on_partial_ord, clippy::needless_range_loop)]

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::Index;

use crate::canonical::LexKernel;
use crate::model::{merge_terms, Problem, Relation, Sense, VarId};
use crate::simplex::FEAS_TOL;

/// Rebuild the LU factors after this many eta updates.
const REFACTOR_INTERVAL: usize = 64;

/// Consecutive degenerate pivots before switching to Bland's rule.
const STALL_THRESHOLD: u32 = 12;

/// [`SparseInstance::row_of`] of a non-basic column, and the end of an
/// [`Elimination`] column list.
const NONE: usize = usize::MAX;

/// A bound row `x_var relation rhs` that a branch-and-bound node appends
/// to its problem's rows: `(var, relation, rhs)`.
pub(crate) type BoundRow = (usize, Relation, f64);

/// Terminal state of a primal solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SparseEnd {
    Optimal,
    Infeasible,
    Unbounded,
    IterLimit,
    Numerical,
}

/// Sparse lines (rows or columns) of `(index, value)` pairs in one flat
/// buffer: the CSC columns of an instance, the crash's row index, and each
/// triangle of the LU factors.
#[derive(Debug, Clone, Default, PartialEq)]
struct Lines {
    /// Line `i` is `entries[start[i]..start[i + 1]]`.
    start: Vec<usize>,
    /// `(index, value)` pairs.
    entries: Vec<(usize, f64)>,
}

impl Lines {
    /// Number of lines.
    fn len(&self) -> usize {
        self.start.len().saturating_sub(1)
    }

    fn line(&self, i: usize) -> &[(usize, f64)] {
        &self.entries[self.start[i]..self.start[i + 1]]
    }

    /// Regroups this storage, keeping its capacity, as `lines` lines
    /// holding the `(line, index, value)` triples: a stable counting sort,
    /// so each line keeps the order the triples come in.
    fn group<I>(&mut self, lines: usize, triples: I)
    where
        I: Iterator<Item = (usize, usize, f64)> + Clone,
    {
        // Line `l`'s count goes to `start[l + 2]`; after the prefix sum
        // `start[l + 1]` is where line `l` begins, and filling advances it
        // to where line `l + 1` begins.
        let start = &mut self.start;
        start.clear();
        start.resize(lines + 2, 0);
        for (line, _, _) in triples.clone() {
            start[line + 2] += 1;
        }
        for i in 2..lines + 2 {
            start[i] += start[i - 1];
        }
        self.entries.clear();
        self.entries.resize(start[lines + 1], (0, 0.0));
        for (line, index, value) in triples {
            self.entries[start[line + 1]] = (index, value);
            start[line + 1] += 1;
        }
        start.truncate(lines + 1);
    }
}

impl Index<usize> for Lines {
    type Output = [(usize, f64)];

    fn index(&self, i: usize) -> &[(usize, f64)] {
        self.line(i)
    }
}

/// The eta file: one product-form update per pivot since the last
/// refactorization, in application order, in one arena.
#[derive(Debug, Clone, Default, PartialEq)]
struct Etas {
    /// Per eta: pivot row `r`, pivot element `w[r]`, and where its entries
    /// begin.
    heads: Vec<(usize, f64, usize)>,
    /// Each eta's nonzero entries of the entering image `w` except row `r`.
    entries: Vec<(usize, f64)>,
}

impl Etas {
    fn len(&self) -> usize {
        self.heads.len()
    }

    fn clear(&mut self) {
        self.heads.clear();
        self.entries.clear();
    }

    /// Records the update of entering image `w` pivoting in row `r`.
    fn push(&mut self, r: usize, w: &[f64]) {
        self.heads.push((r, w[r], self.entries.len()));
        let others = w.iter().enumerate().filter(|&(i, &v)| i != r && v != 0.0);
        self.entries.extend(others.map(|(i, &v)| (i, v)));
    }

    /// Eta `k`: `(r, pivot, other entries)`.
    fn get(&self, k: usize) -> (usize, f64, &[(usize, f64)]) {
        let (r, pivot, start) = self.heads[k];
        let end = self.heads.get(k + 1).map_or(self.entries.len(), |h| h.2);
        (r, pivot, &self.entries[start..end])
    }
}

/// Sparse LU factors of the basis at the last refactorization point,
/// indexed by factored position: `P B = L U` with unit-diagonal `L`.
///
/// Each strict triangle is stored twice — by row for FTRAN, by column for
/// BTRAN — so both solves walk their factor entries contiguously, in the
/// same ascending order as a dense row-major solve would.
#[derive(Debug, Clone, Default, PartialEq)]
struct Factor {
    /// `L[i][j]` for `j < i`, by row `i`.
    l_rows: Lines,
    /// `L[i][j]` for `i > j`, by column `j`.
    l_cols: Lines,
    /// `U[i][j]` for `j > i`, by row `i`.
    u_rows: Lines,
    /// `U[i][j]` for `i < j`, by column `j`.
    u_cols: Lines,
    /// `U[i][i]`.
    u_diag: Vec<f64>,
    /// `perm[i]` = original row occupying factored position `i`.
    perm: Vec<usize>,
    /// `pos[r]` = factored position of original row `r`: `perm` inverted.
    pos: Vec<usize>,
    etas: Etas,
}

impl Factor {
    /// A fresh factor (empty eta file) from the nonzero strict-triangle
    /// entries `(row, column, value)` of `L` and `U`, each sorted by row
    /// then column: the dense reference elimination's result.
    #[cfg(any(test, debug_assertions))]
    fn from_triangles(
        m: usize,
        lower: &[(usize, usize, f64)],
        upper: &[(usize, usize, f64)],
        u_diag: Vec<f64>,
        perm: Vec<usize>,
    ) -> Factor {
        let mut pos = vec![0; m];
        for (i, &r) in perm.iter().enumerate() {
            pos[r] = i;
        }
        let mut factor = Factor { u_diag, perm, pos, ..Factor::default() };
        factor.set_triangles(m, lower.iter().copied(), upper.iter().copied());
        factor
    }

    /// Groups the strict-triangle entries `(row, column, value)` of `L`
    /// and `U` into this factor's lines, reusing their storage, and empties
    /// the eta file. Each row's entries must come in ascending column
    /// order; the rows may come in any order.
    fn set_triangles<L, U>(&mut self, m: usize, lower: L, upper: U)
    where
        L: Iterator<Item = (usize, usize, f64)> + Clone,
        U: Iterator<Item = (usize, usize, f64)> + Clone,
    {
        self.l_rows.group(m, lower);
        self.u_rows.group(m, upper);
        // The columns are read off the rows in ascending row order, which
        // becomes the ascending index order within each column.
        for (rows, cols) in [(&self.l_rows, &mut self.l_cols), (&self.u_rows, &mut self.u_cols)] {
            let by_row = (0..m).flat_map(|i| rows.line(i).iter().map(move |&(j, v)| (j, i, v)));
            cols.group(m, by_row);
        }
        self.etas.clear();
    }

    /// Solves `B x = d` in place through the LU factors and the eta file,
    /// for `x` holding `d` in factored order (`x[i] = d[perm[i]]`).
    ///
    /// Each `x[i]` receives the same subtractions in the same ascending
    /// order as a dense triangular solve, minus the terms whose factor
    /// entry is exactly zero.
    fn ftran(&self, x: &mut [f64]) {
        let m = x.len();
        // L z = P d  (forward, unit diagonal)
        for i in 0..m {
            let mut v = x[i];
            for &(j, l) in self.l_rows.line(i) {
                v -= l * x[j];
            }
            x[i] = v;
        }
        // U y = z  (backward)
        for i in (0..m).rev() {
            let mut v = x[i];
            for &(j, u) in self.u_rows.line(i) {
                v -= u * x[j];
            }
            x[i] = v / self.u_diag[i];
        }
        // Product-form updates in application order.
        for k in 0..self.etas.len() {
            let (r, pivot, others) = self.etas.get(k);
            let xr = x[r] / pivot;
            for &(i, w) in others {
                x[i] -= w * xr;
            }
            x[r] = xr;
        }
    }

    /// FTRAN of the sparse column `col` into `x`: the column is scattered
    /// straight to factored positions.
    fn ftran_col(&self, col: &[(usize, f64)], x: &mut [f64]) {
        x.fill(0.0);
        for &(row, val) in col {
            x[self.pos[row]] = val;
        }
        self.ftran(x);
    }

    /// Solves `B^T y = c`, `c` given in `w` by basis position (`w` is
    /// overwritten), with the same operation order as
    /// [`ftran`](Self::ftran) guarantees.
    fn btran(&self, w: &mut [f64], y: &mut [f64]) {
        let m = w.len();
        // Undo the eta file, newest first.
        for k in (0..self.etas.len()).rev() {
            let (r, pivot, others) = self.etas.get(k);
            let mut acc = w[r];
            for &(i, v) in others {
                acc -= v * w[i];
            }
            w[r] = acc / pivot;
        }
        // U^T w = v  (forward; U^T is lower triangular)
        for i in 0..m {
            let mut acc = w[i];
            for &(j, u) in self.u_cols.line(i) {
                acc -= u * w[j];
            }
            w[i] = acc / self.u_diag[i];
        }
        // L^T z = w  (backward; unit diagonal)
        for i in (0..m).rev() {
            let mut acc = w[i];
            for &(j, l) in self.l_cols.line(i) {
                acc -= l * w[j];
            }
            w[i] = acc;
        }
        // y = P^T z
        for (i, &pi) in self.perm.iter().enumerate() {
            y[pi] = w[i];
        }
    }
}

/// Scratch of [`SparseInstance::factorize`], kept across refactorizations.
#[derive(Debug, Clone, Default)]
struct Elimination {
    /// Entries not yet eliminated, by original row, in no fixed order: row
    /// `r` is `data[start[r]..start[r] + len[r]]`, with room up to `cap[r]`
    /// entries; a row that outgrows its room moves to the end of `data`.
    start: Vec<usize>,
    len: Vec<usize>,
    cap: Vec<usize>,
    data: Vec<(usize, f64)>,
    /// Per column, a list of every row that has held an entry in it (the
    /// first node, then `(row, next node)` links, [`NONE`] at the end);
    /// rows that have pivoted since are skipped by position.
    head: Vec<usize>,
    links: Vec<(usize, usize)>,
    /// Column -> index of its entry in the row being updated.
    slot: Vec<usize>,
    /// Rows with an entry in the current column: `(row, index of it)`.
    hits: Vec<(usize, usize)>,
    pivot_row: Vec<(usize, f64)>,
    /// Strict-triangle entries `(row, column, value)` of `L` and `U`.
    lower: Vec<(usize, usize, f64)>,
    upper: Vec<(usize, usize, f64)>,
}

impl Elimination {
    fn row(&self, r: usize) -> &[(usize, f64)] {
        &self.data[self.start[r]..self.start[r] + self.len[r]]
    }

    /// Removes entry `idx` of row `r`, moving the row's last entry into
    /// its place, and returns it.
    fn swap_remove(&mut self, r: usize, idx: usize) -> (usize, f64) {
        let last = self.start[r] + self.len[r] - 1;
        self.data.swap(self.start[r] + idx, last);
        self.len[r] -= 1;
        self.data[last]
    }

    fn push(&mut self, r: usize, entry: (usize, f64)) {
        if self.len[r] == self.cap[r] {
            let (start, len) = (self.start[r], self.len[r]);
            let moved = self.data.len();
            self.data.extend_from_within(start..start + len);
            self.cap[r] = 2 * len + 2;
            self.data.resize(moved + self.cap[r], (0, 0.0));
            self.start[r] = moved;
        }
        self.data[self.start[r] + self.len[r]] = entry;
        self.len[r] += 1;
    }

    /// Lists row `r` under column `j`.
    fn list(&mut self, j: usize, r: usize) {
        self.links.push((r, self.head[j]));
        self.head[j] = self.links.len() - 1;
    }
}

/// Buffers reused by every pivot, refactorization and canonical step of one
/// instance, dropped with it.
#[derive(Debug, Clone, Default)]
struct Workspace {
    /// BTRAN input by basis position (overwritten by the solve).
    c: Vec<f64>,
    /// BTRAN output, by row.
    y: Vec<f64>,
    /// FTRAN image of the entering column.
    w: Vec<f64>,
    lu: Elimination,
}

/// `y · col`, accumulated in the column's row order.
fn dot(y: &[f64], col: &[(usize, f64)]) -> f64 {
    let mut acc = 0.0;
    for &(row, val) in col {
        acc += y[row] * val;
    }
    acc
}

/// Column `j`'s cost in phase 1 (maximize minus the sum of the
/// artificials) or in phase 2.
fn phase_cost(phase1: bool, artificial: &[bool], cost: &[f64], j: usize) -> f64 {
    match phase1 {
        true if artificial[j] => -1.0,
        true => 0.0,
        false => cost[j],
    }
}

/// A standard-form LP with sparse columns and a factorized basis.
#[derive(Debug, Clone)]
pub(crate) struct SparseInstance {
    m: usize,
    /// Structural variable count.
    n: usize,
    /// CSC: column `j` is `cols[j]`, `(row, value)` sorted by row.
    cols: Lines,
    /// Per-column cost, sign-folded so the solver always maximizes.
    cost: Vec<f64>,
    b: Vec<f64>,
    basis: Vec<usize>,
    /// Basic row of each column, [`NONE`] for a non-basic one.
    row_of: Vec<usize>,
    banned: Vec<bool>,
    artificial: Vec<bool>,
    factor: Factor,
    /// Current basic values `B^{-1} b`, indexed by row.
    xb: Vec<f64>,
    ws: Workspace,
}

impl SparseInstance {
    /// Build the standard form of `problem` with the bound rows `bounds`
    /// appended after its rows, [`crash`](Self::crash) its start basis and
    /// factorize it. `None` for non-finite data or a basis the
    /// factorization declines.
    pub(crate) fn build(problem: &Problem, bounds: &[BoundRow]) -> Option<SparseInstance> {
        let mut inst = SparseInstance::standard_form(problem, bounds)?;
        inst.crash();
        inst.refactorize().then_some(inst)
    }

    /// The standard form: rows are
    /// normalized to non-negative right-hand sides, `<=` rows get a basic
    /// slack, `>=` rows a surplus plus basic artificial, `=` rows a basic
    /// artificial. Not yet factorized. `None` for non-finite data.
    fn standard_form(problem: &Problem, bounds: &[BoundRow]) -> Option<SparseInstance> {
        if problem.has_non_finite() || bounds.iter().any(|&(_, _, rhs)| !rhs.is_finite()) {
            return None;
        }
        let n = problem.num_vars();
        let m = problem.num_constraints() + bounds.len();
        let mut cost: Vec<f64> = match problem.sense {
            Sense::Maximize => problem.objective.clone(),
            Sense::Minimize => problem.objective.iter().map(|c| -c).collect(),
        };
        let mut b = Vec::with_capacity(m);
        let mut basis = Vec::with_capacity(m);
        let mut artificial_rows = Vec::with_capacity(m);
        // `(row, sign)` per slack or surplus column.
        let mut extra_cols: Vec<(usize, f64)> = Vec::with_capacity(m);
        // Structural entries as `(column, row, value)`, in row order.
        let terms = problem.constraints.iter().map(|con| con.terms.len());
        let mut entries: Vec<(usize, usize, f64)> =
            Vec::with_capacity(terms.clone().sum::<usize>() + bounds.len());
        let mut merged = Vec::with_capacity(terms.max().unwrap_or(0).max(1));
        let mut add_row = |terms: &[(VarId, f64)], relation: Relation, rhs: f64| {
            let i = b.len();
            let flip = rhs < 0.0;
            let sign = if flip { -1.0 } else { 1.0 };
            let rel = if flip {
                match relation {
                    Relation::Le => Relation::Ge,
                    Relation::Ge => Relation::Le,
                    Relation::Eq => Relation::Eq,
                }
            } else {
                relation
            };
            merge_terms(terms, &mut merged);
            entries.extend(merged.iter().map(|&(j, a)| (j, i, sign * a)));
            b.push(sign * rhs);
            match rel {
                Relation::Le => extra_cols.push((i, 1.0)),
                Relation::Ge => {
                    extra_cols.push((i, -1.0));
                    artificial_rows.push(i);
                }
                Relation::Eq => artificial_rows.push(i),
            }
            basis.push(NONE); // patched to the slack or artificial below
        };
        for con in &problem.constraints {
            add_row(&con.terms, con.relation, con.rhs);
        }
        for &(var, relation, rhs) in bounds {
            add_row(&[(VarId(var), 1.0)], relation, rhs);
        }
        // Slack/surplus columns, then artificial columns.
        let slack_base = n;
        let art_base = n + extra_cols.len();
        let num_cols = art_base + artificial_rows.len();
        for (k, &(row, sign)) in extra_cols.iter().enumerate() {
            if sign > 0.0 {
                basis[row] = slack_base + k;
            }
        }
        for (k, &row) in artificial_rows.iter().enumerate() {
            basis[row] = art_base + k;
        }
        cost.resize(num_cols, 0.0);
        let mut artificial = vec![false; num_cols];
        artificial[art_base..].fill(true);
        // Grouping by column keeps each column's rows ascending.
        let mut cols = Lines::default();
        let slacks =
            extra_cols.iter().enumerate().map(|(k, &(row, sign))| (slack_base + k, row, sign));
        let arts = artificial_rows.iter().enumerate().map(|(k, &row)| (art_base + k, row, 1.0));
        cols.group(num_cols, entries.iter().copied().chain(slacks).chain(arts));
        debug_assert!(basis.iter().all(|&c| c < num_cols));
        let mut row_of = vec![NONE; num_cols];
        for (i, &c) in basis.iter().enumerate() {
            row_of[c] = i;
        }
        Some(SparseInstance {
            m,
            n,
            cols,
            cost,
            b,
            basis,
            row_of,
            banned: vec![false; num_cols],
            artificial,
            factor: Factor::default(),
            xb: Vec::with_capacity(m),
            ws: Workspace {
                c: vec![0.0; m],
                y: vec![0.0; m],
                w: vec![0.0; m],
                lu: Elimination::default(),
            },
        })
    }

    fn is_basic(&self, j: usize) -> bool {
        self.row_of[j] != NONE
    }

    /// Triangular crash: replaces the artificials of zero-level rows with
    /// structural or surplus columns before phase 1.
    ///
    /// A row is eligible when its starting basic column is an artificial at
    /// value 0: an `=` or `>=` row with `b_i == 0`. Repeatedly, the
    /// uncovered eligible row with the fewest live candidates (ties: the
    /// smallest row) installs its live candidate of largest `|a|` (ties: the
    /// smallest column), and every live column with an entry in that row is
    /// retired. A column installed later therefore has no entry in any row
    /// covered earlier: in crash order the covered block is lower
    /// triangular with a nonzero diagonal, and the basis `[A_ZS 0; A_NS I]`
    /// is nonsingular. Its basic solution is the artificial start's point —
    /// every structural and surplus at 0, each unit column at `b_i` — which
    /// is the point phase 1 used to reach by one degenerate pivot per
    /// covered row. Replaced artificials are barred at once; an uncovered
    /// row keeps its artificial for phase 1.
    ///
    /// The row-wise candidate index is built once, by a counting pass over
    /// the columns, and the live counts sit in a lazy min-heap keyed
    /// `(count, row)`, so the crash touches each nonzero a bounded number
    /// of times: `O(nnz log m)`.
    fn crash(&mut self) {
        let m = self.m;
        let num_cols = self.cols.len();
        let eligible: Vec<bool> =
            (0..m).map(|i| self.artificial[self.basis[i]] && self.b[i] == 0.0).collect();
        // Candidates: every non-basic, non-artificial column (the
        // structurals and the surpluses; slacks start basic).
        let mut live: Vec<bool> =
            (0..num_cols).map(|j| !self.is_basic(j) && !self.artificial[j]).collect();
        // Row-wise index of the candidate entries of eligible rows,
        // ascending column within a row.
        let mut rows = Lines::default();
        {
            let (cols, eligible, live) = (&self.cols, &eligible, &live);
            let candidates = (0..num_cols).filter(move |&j| live[j]).flat_map(move |j| {
                cols[j].iter().filter(move |&&(i, _)| eligible[i]).map(move |&(i, a)| (i, j, a))
            });
            rows.group(m, candidates);
        }
        let mut count: Vec<usize> = (0..m).map(|i| rows.line(i).len()).collect();
        let mut covered = vec![false; m];
        // `(count, row)` packed into one word orders exactly as the pair.
        debug_assert!(m <= u32::MAX as usize);
        let key = |c: usize, r: usize| Reverse((c as u64) << 32 | r as u64);
        let mut queue: BinaryHeap<Reverse<u64>> =
            (0..m).filter(|&i| count[i] > 0).map(|i| key(count[i], i)).collect();
        while let Some(Reverse(k)) = queue.pop() {
            let (c, r) = ((k >> 32) as usize, (k & u64::from(u32::MAX)) as usize);
            if covered[r] || c != count[r] {
                continue; // stale entry
            }
            let row = rows.line(r);
            let mut pick: Option<(usize, f64)> = None;
            for &(j, a) in row.iter().filter(|&&(j, _)| live[j]) {
                if a.abs() > FEAS_TOL && pick.is_none_or(|(_, best)| a.abs() > best) {
                    pick = Some((j, a.abs()));
                }
            }
            let Some((j, _)) = pick else {
                continue; // only negligible entries: keep the artificial
            };
            let art = self.basis[r];
            self.row_of[art] = NONE;
            self.banned[art] = true;
            self.row_of[j] = r;
            self.basis[r] = j;
            covered[r] = true;
            for &(k, _) in row {
                if !live[k] {
                    continue;
                }
                live[k] = false;
                for &(i, _) in &self.cols[k] {
                    if eligible[i] && !covered[i] {
                        count[i] -= 1;
                        if count[i] > 0 {
                            queue.push(key(count[i], i));
                        }
                    }
                }
            }
        }
    }

    /// Sparse right-looking Gaussian elimination of the current basis into
    /// [`SparseInstance::factor`] with the dense partial-pivoting rule: at
    /// step `k` the pivot is the largest `|v|` in column `k` among the rows
    /// not yet pivoted, ties to the smallest current position, and `perm`
    /// records the same swaps. Rows are kept as `(column, value)` lists, so
    /// a step touches only the rows with an entry in column `k` and, in
    /// each, only the columns where the pivot row is nonzero.
    ///
    /// Every surviving entry receives the dense routine's subtractions in
    /// the same order, and a fill-in entry is computed as `0.0 - f·u` from
    /// the dense buffer's zero; a skipped update subtracts `f·0`, so only
    /// the sign of a zero can differ, and zeros are not kept in the factor.
    /// The order of the row and column lists decides nothing: each entry's
    /// updates come in the order of `k`, the pivot rule is a total order,
    /// and `L` is grouped by row in the order of `k`.
    /// False (the factor left unusable) for a singular basis or any
    /// non-finite value: the dense routine would keep such a value in its
    /// buffer (nothing turns a non-finite entry finite again) and decline
    /// the factor on extraction.
    fn factorize(&mut self) -> bool {
        let m = self.m;
        let (e, f) = (&mut self.ws.lu, &mut self.factor);
        // Each row gets room for its entries in the basis and some fill-in.
        e.len.clear();
        e.len.resize(m, 0);
        for &col in &self.basis {
            for &(row, _) in &self.cols[col] {
                e.len[row] += 1;
            }
        }
        e.start.resize(m, 0);
        e.cap.resize(m, 0);
        let mut end = 0;
        for r in 0..m {
            e.start[r] = end;
            e.cap[r] = 2 * e.len[r] + 2;
            end += e.cap[r];
            e.len[r] = 0;
        }
        e.data.clear();
        e.data.resize(end, (0, 0.0));
        e.head.clear();
        e.head.resize(m, NONE);
        e.links.clear();
        for (j, &col) in self.basis.iter().enumerate() {
            for &(row, val) in &self.cols[col] {
                if !val.is_finite() {
                    return false;
                }
                e.push(row, (j, val));
                e.list(j, row);
            }
        }
        f.perm.clear();
        f.perm.extend(0..m);
        f.pos.clear();
        f.pos.extend(0..m);
        f.u_diag.clear();
        e.slot.clear();
        e.slot.resize(m, NONE);
        e.lower.clear();
        e.upper.clear();
        for k in 0..m {
            e.hits.clear();
            let (mut p, mut best) = (k, 0.0f64);
            let mut node = e.head[k];
            while node != NONE {
                let (r, next) = e.links[node];
                node = next;
                if f.pos[r] < k {
                    continue;
                }
                let idx = e.row(r).iter().position(|&(j, _)| j == k).expect("listed entry");
                e.hits.push((r, idx));
                let mag = e.row(r)[idx].1.abs();
                if mag > best || (mag == best && f.pos[r] < p) {
                    best = mag;
                    p = f.pos[r];
                }
            }
            if !(best > FEAS_TOL) {
                return false; // singular basis
            }
            f.perm.swap(k, p);
            f.pos[f.perm[k]] = k;
            f.pos[f.perm[p]] = p;
            let pk = f.perm[k];
            let diag_idx = e.hits.iter().find(|&&(r, _)| r == pk).expect("pivot row listed").1;
            let diag = e.swap_remove(pk, diag_idx).1;
            f.u_diag.push(diag);
            let (start, len) = (e.start[pk], e.len[pk]);
            e.pivot_row.clear();
            e.pivot_row.extend(e.data[start..start + len].iter().filter(|&&(_, v)| v != 0.0));
            e.len[pk] = 0;
            e.pivot_row.sort_unstable_by_key(|&(j, _)| j);
            e.upper.extend(e.pivot_row.iter().map(|&(j, v)| (k, j, v)));
            for h in 0..e.hits.len() {
                let (r, idx) = e.hits[h];
                if r == pk {
                    continue;
                }
                // Finite: the pivot choice makes `|f| <= 1`.
                let factor = e.swap_remove(r, idx).1 / diag;
                if factor == 0.0 {
                    continue;
                }
                e.lower.push((r, k, factor));
                for i in 0..e.len[r] {
                    let j = e.data[e.start[r] + i].0;
                    e.slot[j] = i;
                }
                for t in 0..e.pivot_row.len() {
                    let (j, u) = e.pivot_row[t];
                    let fu = factor * u;
                    let v = match e.slot[j] {
                        NONE => {
                            let v = 0.0 - fu;
                            e.slot[j] = e.len[r];
                            e.push(r, (j, v));
                            e.list(j, r);
                            v
                        }
                        i => {
                            let entry = &mut e.data[e.start[r] + i].1;
                            *entry -= fu;
                            *entry
                        }
                    };
                    if !v.is_finite() {
                        return false;
                    }
                }
                for i in 0..e.len[r] {
                    let j = e.data[e.start[r] + i].0;
                    e.slot[j] = NONE;
                }
            }
        }
        // L rows move with their original rows: grouped by final position,
        // each row keeps the ascending column order of the steps.
        for t in &mut e.lower {
            t.0 = f.pos[t.0];
        }
        f.set_triangles(m, e.lower.iter().copied(), e.upper.iter().copied());
        true
    }

    /// Rebuild the LU factors from the current basis and re-sync `xb`.
    ///
    /// Declines (returns `false`) a singular basis and any factorization
    /// with a non-finite entry. The latter is what lets the sparse solves
    /// skip exact-zero factor entries without changing a result: a skipped
    /// term is `0·finite`, which can at most flip the sign of a zero.
    fn refactorize(&mut self) -> bool {
        let factored = self.factorize();
        #[cfg(debug_assertions)]
        reference::check_factor(self, factored.then_some(&self.factor));
        if !factored {
            return false;
        }
        self.xb.clear();
        self.xb.extend(self.factor.perm.iter().map(|&pi| self.b[pi]));
        self.factor.ftran(&mut self.xb);
        self.xb.iter().all(|v| v.is_finite())
    }

    /// FTRAN of column `col` into the workspace's `w`; false when an entry
    /// is not finite.
    fn ftran(&mut self, col: usize) -> bool {
        self.factor.ftran_col(&self.cols[col], &mut self.ws.w);
        self.ws.w.iter().all(|v| v.is_finite())
    }

    /// BTRAN of the workspace's `c` into its `y`; false when an entry is
    /// not finite.
    fn btran(&mut self) -> bool {
        self.factor.btran(&mut self.ws.c, &mut self.ws.y);
        self.ws.y.iter().all(|v| v.is_finite())
    }

    /// Loads the basic columns' costs of the given phase into the
    /// workspace's `c`.
    fn load_basis_costs(&mut self, phase1: bool) {
        for (c, &col) in self.ws.c.iter_mut().zip(&self.basis) {
            *c = phase_cost(phase1, &self.artificial, &self.cost, col);
        }
    }

    /// Install `entering` in basis position `r` with FTRAN image `w`.
    fn apply_pivot(&mut self, r: usize, entering: usize, w: &[f64]) -> bool {
        let pivot = w[r];
        if !pivot.is_finite() || pivot.abs() <= FEAS_TOL {
            return false;
        }
        let leaving = self.basis[r];
        self.row_of[leaving] = NONE;
        self.row_of[entering] = r;
        self.basis[r] = entering;
        self.factor.etas.push(r, w);
        if self.factor.etas.len() >= REFACTOR_INTERVAL {
            return self.refactorize();
        }
        true
    }

    /// Moves the basic values along entering column `e` (FTRAN image `w`)
    /// until row `r`'s basic variable reaches zero, then installs `e` in
    /// row `r`. False on a degenerate pivot element or non-finite values.
    fn exchange(&mut self, r: usize, e: usize, w: &[f64]) -> bool {
        let theta = self.xb[r] / w[r];
        if !theta.is_finite() {
            return false;
        }
        for i in 0..self.m {
            if i != r {
                self.xb[i] -= theta * w[i];
            }
        }
        self.xb[r] = theta;
        self.apply_pivot(r, e, w) && self.xb.iter().all(|v| v.is_finite())
    }

    /// [`exchange`](Self::exchange) with the image in the workspace's `w`.
    fn exchange_entering(&mut self, r: usize, e: usize) -> bool {
        let w = std::mem::take(&mut self.ws.w);
        let ok = self.exchange(r, e, &w);
        self.ws.w = w;
        ok
    }

    /// Primal simplex on the phase-1 or phase-2 costs (maximization).
    fn optimize(&mut self, phase1: bool, max_iters: u64, pivots: &mut u64) -> SparseEnd {
        let mut iters: u64 = 0;
        let mut stalled: u32 = 0;
        loop {
            if iters >= max_iters {
                return SparseEnd::IterLimit;
            }
            iters += 1;
            self.load_basis_costs(phase1);
            if !self.btran() {
                return SparseEnd::Numerical;
            }
            // Pricing: Dantzig normally, Bland once stalled.
            let bland = stalled >= STALL_THRESHOLD;
            let mut entering: Option<(usize, f64)> = None;
            for j in 0..self.cols.len() {
                if self.is_basic(j) || self.banned[j] {
                    continue;
                }
                let z = dot(&self.ws.y, &self.cols[j])
                    - phase_cost(phase1, &self.artificial, &self.cost, j);
                if !z.is_finite() {
                    return SparseEnd::Numerical;
                }
                if z < -FEAS_TOL {
                    if bland {
                        entering = Some((j, z));
                        break;
                    }
                    match entering {
                        Some((_, best)) if z >= best => {}
                        _ => entering = Some((j, z)),
                    }
                }
            }
            let Some((e, _)) = entering else {
                return SparseEnd::Optimal;
            };
            if !self.ftran(e) {
                return SparseEnd::Numerical;
            }
            // Ratio test: min xb_i / w_i over w_i > tol; ties by smallest
            // basis column index.
            let w = &self.ws.w;
            let mut leave: Option<(usize, f64)> = None;
            for i in 0..self.m {
                if w[i] > FEAS_TOL {
                    let ratio = self.xb[i] / w[i];
                    match leave {
                        Some((r, best)) => {
                            if ratio < best - FEAS_TOL
                                || (ratio <= best + FEAS_TOL && self.basis[i] < self.basis[r])
                            {
                                leave = Some((i, ratio));
                            }
                        }
                        None => leave = Some((i, ratio)),
                    }
                }
            }
            let Some((r, theta)) = leave else {
                return SparseEnd::Unbounded;
            };
            if !theta.is_finite() {
                return SparseEnd::Numerical;
            }
            if theta.abs() <= FEAS_TOL {
                stalled += 1;
            } else {
                stalled = 0;
            }
            if !self.exchange_entering(r, e) {
                return SparseEnd::Numerical;
            }
            *pivots += 1;
        }
    }

    /// Two-phase primal solve. Phase 1
    /// runs only while an artificial is basic: after a crash that covered
    /// every artificial row there is nothing for it to drive out.
    pub(crate) fn solve_primal(&mut self, max_iters: u64, pivots: &mut u64) -> SparseEnd {
        if self.basis.iter().any(|&c| self.artificial[c]) {
            match self.optimize(true, max_iters, pivots) {
                SparseEnd::Optimal => {}
                SparseEnd::Unbounded => return SparseEnd::Numerical,
                other => return other,
            }
            let infeas: f64 = (0..self.m)
                .filter(|&i| self.artificial[self.basis[i]])
                .map(|i| self.xb[i].max(0.0))
                .sum();
            if infeas > 1e-6 {
                return SparseEnd::Infeasible;
            }
            // Drive degenerate basic artificials out where possible, then
            // ban every artificial column for phase 2.
            for r in 0..self.m {
                if !self.artificial[self.basis[r]] {
                    continue;
                }
                self.ws.c.fill(0.0);
                self.ws.c[r] = 1.0;
                if !self.btran() {
                    return SparseEnd::Numerical;
                }
                let replacement = (0..self.cols.len()).find(|&j| {
                    !(self.is_basic(j) || self.artificial[j] || self.banned[j])
                        && dot(&self.ws.y, &self.cols[j]).abs() > FEAS_TOL
                });
                if let Some(j) = replacement {
                    if !self.ftran(j) {
                        return SparseEnd::Numerical;
                    }
                    if self.ws.w[r].abs() > FEAS_TOL && !self.exchange_entering(r, j) {
                        return SparseEnd::Numerical;
                    }
                }
            }
            for j in 0..self.cols.len() {
                if self.artificial[j] && !self.is_basic(j) {
                    self.banned[j] = true;
                }
            }
        }
        self.optimize(false, max_iters, pivots)
    }

    /// Structural variable values of the current basic solution.
    pub(crate) fn extract_x(&self) -> Vec<f64> {
        let mut x = vec![0.0f64; self.n];
        for (i, &col) in self.basis.iter().enumerate() {
            if col < self.n {
                x[col] = self.xb[i].max(0.0);
            }
        }
        x
    }

    /// The generous size-derived iteration cap (Bland's fallback
    /// terminates, so this only catches pathologies).
    pub(crate) fn default_iter_cap(&self) -> u64 {
        50_000 + 200 * (self.m as u64 + self.cols.len() as u64)
    }
}

impl LexKernel for SparseInstance {
    fn structural(&self) -> usize {
        self.n
    }

    fn num_cols(&self) -> usize {
        self.cols.len()
    }

    fn basis(&self) -> &[usize] {
        &self.basis
    }

    fn basic_row(&self, col: usize) -> Option<usize> {
        Some(self.row_of[col]).filter(|&r| r != NONE)
    }

    fn barred(&self, col: usize) -> bool {
        self.banned[col] || self.artificial[col]
    }

    /// Through a copy: the walk asks for
    /// [`reduced_costs_into`](LexKernel::reduced_costs_into).
    fn reduced_costs(&self) -> Vec<f64> {
        let mut z = Vec::new();
        self.clone().reduced_costs_into(&mut z);
        z
    }

    fn reduced_costs_into(&mut self, z: &mut Vec<f64>) {
        self.load_basis_costs(false);
        self.factor.btran(&mut self.ws.c, &mut self.ws.y);
        z.clear();
        z.extend((0..self.cols.len()).map(|j| dot(&self.ws.y, &self.cols[j]) - self.cost[j]));
    }

    fn column(&self, col: usize) -> Vec<f64> {
        let mut w = vec![0.0; self.m];
        self.column_into(col, &mut w);
        w
    }

    fn column_into(&self, col: usize, w: &mut [f64]) {
        self.factor.ftran_col(&self.cols[col], w);
    }

    fn basic_value(&self, row: usize) -> f64 {
        self.xb[row]
    }

    fn exchange(&mut self, row: usize, col: usize, w: &[f64]) -> bool {
        SparseInstance::exchange(self, row, col, w)
    }
}

/// The dense `m × m` elimination that [`SparseInstance::factorize`]
/// replaced, kept as its reference: debug builds cross-check every
/// factorization against it, and the unit tests solve through it.
#[cfg(any(test, debug_assertions))]
mod reference {
    use super::{Factor, SparseInstance, FEAS_TOL};

    impl SparseInstance {
        /// Dense Gaussian elimination with partial pivoting of the current
        /// basis in an `m × m` scratch buffer, row-major by original row:
        /// the strict lower part of row `perm[i]` holds `L[i]`, the rest
        /// `U[i]`. `None` for a singular or non-finite pivot.
        pub(super) fn eliminate(&self) -> Option<(Vec<f64>, Vec<usize>)> {
            let m = self.m;
            let mut lu = vec![0.0f64; m * m];
            for (j, &col) in self.basis.iter().enumerate() {
                for &(row, val) in &self.cols[col] {
                    lu[row * m + j] = val;
                }
            }
            let mut perm: Vec<usize> = (0..m).collect();
            for k in 0..m {
                let mut p = k;
                let mut best = lu[perm[k] * m + k].abs();
                for i in (k + 1)..m {
                    let mag = lu[perm[i] * m + k].abs();
                    if mag > best {
                        best = mag;
                        p = i;
                    }
                }
                if !(best > FEAS_TOL) || !best.is_finite() {
                    return None; // singular or non-finite basis
                }
                perm.swap(k, p);
                let pk = perm[k];
                let diag = lu[pk * m + k];
                for i in (k + 1)..m {
                    let pi = perm[i];
                    let f = lu[pi * m + k] / diag;
                    lu[pi * m + k] = f;
                    if f != 0.0 {
                        for j in (k + 1)..m {
                            lu[pi * m + j] -= f * lu[pk * m + j];
                        }
                    }
                }
            }
            Some((lu, perm))
        }

        /// The factor the dense elimination yields: its nonzeros, or `None`
        /// when the elimination declines or leaves a non-finite entry.
        pub(super) fn dense_factor(&self) -> Option<Factor> {
            let m = self.m;
            let (lu, perm) = self.eliminate()?;
            let mut lower = Vec::new();
            let mut upper = Vec::new();
            let mut u_diag = Vec::with_capacity(m);
            for (i, &pi) in perm.iter().enumerate() {
                for (j, &v) in lu[pi * m..(pi + 1) * m].iter().enumerate() {
                    if !v.is_finite() {
                        return None;
                    }
                    if j == i {
                        u_diag.push(v);
                    } else if v != 0.0 {
                        if j < i {
                            lower.push((i, j, v))
                        } else {
                            upper.push((i, j, v))
                        }
                    }
                }
            }
            Some(Factor::from_triangles(m, &lower, &upper, u_diag, perm))
        }
    }

    #[cfg(debug_assertions)]
    thread_local! {
        static CHECKS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    }

    /// Asserts that the sparse elimination accepted exactly when the dense
    /// one does, with identical factors. Factors hold no zeros, so `==`
    /// on their entries is bit identity.
    #[cfg(debug_assertions)]
    pub(super) fn check_factor(inst: &SparseInstance, sparse: Option<&Factor>) {
        assert_eq!(
            sparse,
            inst.dense_factor().as_ref(),
            "sparse LU diverged from the dense reference elimination"
        );
        CHECKS.with(|c| c.set(c.get() + 1));
    }

    /// Sparse factorizations this thread has cross-checked against the
    /// dense reference. Debug builds only.
    #[cfg(debug_assertions)]
    pub fn debug_lu_checks() -> u64 {
        CHECKS.with(|c| c.get())
    }
}

#[cfg(debug_assertions)]
pub use reference::debug_lu_checks;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ProblemBuilder, Relation, Sense};
    use crate::reference::debug_reference_lp;
    use crate::simplex::LpOutcome;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn flow_problem() -> Problem {
        // Small IPET-shaped program: entry fixed, a loop bounded by 10.
        let mut b = ProblemBuilder::new(Sense::Maximize);
        let x1 = b.add_var(true);
        let x2 = b.add_var(true);
        let x3 = b.add_var(true);
        b.objective(x1, 4.0);
        b.objective(x2, 9.0);
        b.objective(x3, 2.0);
        b.constraint(vec![(x1, 1.0)], Relation::Eq, 1.0);
        b.constraint(vec![(x2, 1.0), (x1, -10.0)], Relation::Le, 0.0);
        b.constraint(vec![(x3, 1.0), (x1, -1.0)], Relation::Eq, 0.0);
        b.build()
    }

    #[test]
    fn matches_dense_on_flow_problem() {
        let p = flow_problem();
        let mut pivots = 0u64;
        let mut inst = SparseInstance::build(&p, &[]).expect("builds");
        let end = inst.solve_primal(inst.default_iter_cap(), &mut pivots);
        assert_eq!(end, SparseEnd::Optimal);
        let x = inst.extract_x();
        match debug_reference_lp(&p) {
            LpOutcome::Optimal { x: dx, value } => {
                for (a, b) in x.iter().zip(dx.iter()) {
                    assert!((a - b).abs() < 1e-6, "{x:?} vs {dx:?}");
                }
                let sparse_val = p.objective_value(&x);
                assert!((sparse_val - value).abs() < 1e-6);
            }
            other => panic!("the reference disagreed: {other:?}"),
        }
    }

    #[test]
    fn detects_infeasible() {
        let mut b = ProblemBuilder::new(Sense::Maximize);
        let x = b.add_var(true);
        b.objective(x, 1.0);
        b.constraint(vec![(x, 1.0)], Relation::Ge, 5.0);
        b.constraint(vec![(x, 1.0)], Relation::Le, 2.0);
        let p = b.build();
        let mut pivots = 0u64;
        let mut inst = SparseInstance::build(&p, &[]).expect("builds");
        let end = inst.solve_primal(inst.default_iter_cap(), &mut pivots);
        assert_eq!(end, SparseEnd::Infeasible);
    }

    #[test]
    fn detects_unbounded() {
        let mut b = ProblemBuilder::new(Sense::Maximize);
        let x = b.add_var(true);
        let y = b.add_var(true);
        b.objective(x, 1.0);
        b.constraint(vec![(x, 1.0), (y, -1.0)], Relation::Le, 1.0);
        let p = b.build();
        let mut pivots = 0u64;
        let mut inst = SparseInstance::build(&p, &[]).expect("builds");
        let end = inst.solve_primal(inst.default_iter_cap(), &mut pivots);
        assert_eq!(end, SparseEnd::Unbounded);
    }

    // -- crash basis -----------------------------------------------------------

    /// The crash rule spelled out naively from the artificial start,
    /// rescanning every row and column per step: the basis it installs.
    fn reference_crash_basis(start: &SparseInstance) -> Vec<usize> {
        let mut basis = start.basis.clone();
        let eligible: Vec<bool> =
            (0..start.m).map(|i| start.artificial[basis[i]] && start.b[i] == 0.0).collect();
        let mut live: Vec<bool> =
            (0..start.cols.len()).map(|j| !start.is_basic(j) && !start.artificial[j]).collect();
        let mut covered = vec![false; start.m];
        let entry = |i: usize, j: usize| start.cols[j].iter().find(|e| e.0 == i).map(|e| e.1);
        loop {
            let mut pick: Option<(usize, usize, usize)> = None; // (count, row, column)
            for i in (0..start.m).filter(|&i| eligible[i] && !covered[i]) {
                let candidates: Vec<(usize, f64)> = (0..start.cols.len())
                    .filter(|&j| live[j])
                    .filter_map(|j| entry(i, j).map(|a| (j, a.abs())))
                    .collect();
                let Some(&(j, best)) = candidates.iter().rev().max_by(|a, b| a.1.total_cmp(&b.1))
                else {
                    continue;
                };
                if best > FEAS_TOL && pick.is_none_or(|(c, _, _)| candidates.len() < c) {
                    pick = Some((candidates.len(), i, j));
                }
            }
            let Some((_, r, j)) = pick else { return basis };
            basis[r] = j;
            covered[r] = true;
            for k in 0..start.cols.len() {
                if entry(r, k).is_some() {
                    live[k] = false;
                }
            }
        }
    }

    /// A seeded IPET-shaped LP: flow conservation over a random control
    /// flow graph with its entry count fixed to 1, back edges bounded by
    /// loop rows (some with a zero-level lower bound `x_back >= k·x_entry`),
    /// a few zero-level `>=` and ratio rows, the odd repeated conservation
    /// row (its candidates are all retired by its twin), and a cap on every
    /// edge so the optimum is finite.
    fn flow_like_problem(rng: &mut StdRng) -> Problem {
        let blocks = rng.gen_range(1usize..=12);
        let sense = if rng.gen_bool(0.5) { Sense::Maximize } else { Sense::Minimize };
        // (from, to); `None` is outside the routine.
        let mut edges: Vec<(Option<usize>, Option<usize>)> =
            vec![(None, Some(0)), (Some(blocks - 1), None)];
        for i in 0..blocks - 1 {
            edges.push((Some(i), Some(i + 1)));
        }
        for _ in 0..rng.gen_range(0..=blocks) {
            let i = rng.gen_range(0..blocks);
            let j = rng.gen_range(i..blocks);
            edges.push((Some(j), Some(i))); // back (or self) edge
            if i < j {
                edges.push((Some(i), Some(j))); // forward skip
            }
        }
        let mut b = ProblemBuilder::new(sense);
        let x: Vec<_> = (0..edges.len()).map(|_| b.add_var(true)).collect();
        for &v in &x {
            b.objective(v, rng.gen_range(0i64..=9) as f64);
            b.constraint(vec![(v, 1.0)], Relation::Le, 50.0);
        }
        b.constraint(vec![(x[0], 1.0)], Relation::Eq, 1.0);
        for block in 0..blocks {
            let mut terms = Vec::new();
            for (e, &(from, to)) in edges.iter().enumerate() {
                if to == Some(block) {
                    terms.push((x[e], 1.0));
                }
                if from == Some(block) {
                    terms.push((x[e], -1.0));
                }
            }
            if rng.gen_bool(0.1) {
                b.constraint(terms.clone(), Relation::Eq, 0.0);
            }
            b.constraint(terms, Relation::Eq, 0.0);
        }
        for (e, &(from, to)) in edges.iter().enumerate() {
            if let (Some(from), Some(to)) = (from, to) {
                if from >= to {
                    let k = rng.gen_range(1i64..=10);
                    b.constraint(vec![(x[e], 1.0), (x[0], -k as f64)], Relation::Le, 0.0);
                    if rng.gen_bool(0.3) {
                        let lo = rng.gen_range(1..=k) as f64;
                        b.constraint(vec![(x[e], 1.0), (x[0], -lo)], Relation::Ge, 0.0);
                    }
                }
            }
        }
        for _ in 0..rng.gen_range(0..=2) {
            let (p, q) = (rng.gen_range(0..x.len()), rng.gen_range(0..x.len()));
            if p != q {
                let c = rng.gen_range(1i64..=3) as f64;
                let rel = if rng.gen_bool(0.7) { Relation::Ge } else { Relation::Eq };
                b.constraint(vec![(x[p], 1.0), (x[q], -c)], rel, 0.0);
            }
        }
        b.build()
    }

    /// Pivots phase 1 spends from `inst`'s start basis, on a copy: the
    /// phase [`SparseInstance::solve_primal`] runs while an artificial is
    /// basic.
    fn phase1_pivots(inst: &SparseInstance) -> u64 {
        let mut inst = inst.clone();
        let mut pivots = 0u64;
        if inst.basis.iter().any(|&c| inst.artificial[c]) {
            inst.optimize(true, inst.default_iter_cap(), &mut pivots);
        }
        pivots
    }

    /// Solves `p` from the crash and from the artificial start, checks
    /// that the crash installs the reference basis at the artificial
    /// start's point, and that both reach the reference kernel's optimum.
    /// Returns `(crashed rows, phase-1 pivots after the crash, phase-1
    /// pivots from the artificial start)`.
    fn check_crash(p: &Problem) -> (u64, u64, u64) {
        let mut start = SparseInstance::standard_form(p, &[]).expect("finite data");
        let want_basis = reference_crash_basis(&start);
        assert!(start.refactorize(), "the artificial basis factors");
        let mut crashed = SparseInstance::build(p, &[]).expect("the crashed basis factors");
        assert_eq!(crashed.basis, want_basis);
        assert_eq!(crashed.xb, start.xb, "the crash moved the start point");
        assert_eq!(crashed.xb, crashed.b);
        let covered = (0..crashed.m).filter(|&i| crashed.basis[i] != start.basis[i]).count();
        let phase1 = (phase1_pivots(&crashed), phase1_pivots(&start));
        let reference = debug_reference_lp(p);
        for inst in [&mut crashed, &mut start] {
            let mut pivots = 0u64;
            let end = inst.solve_primal(inst.default_iter_cap(), &mut pivots);
            match &reference {
                LpOutcome::Optimal { value, .. } => {
                    assert_eq!(end, SparseEnd::Optimal);
                    let got = p.objective_value(&inst.extract_x());
                    assert!((got - value).abs() < 1e-6, "{got} vs reference {value}");
                }
                LpOutcome::Infeasible => assert_eq!(end, SparseEnd::Infeasible),
                other => panic!("capped flow problem ended {other:?}"),
            }
        }
        (covered as u64, phase1.0, phase1.1)
    }

    #[test]
    fn crash_covers_the_flow_equation_at_the_artificial_start_point() {
        // Only `x3 - x1 = 0` is zero-level: `x1 = 1` keeps its artificial.
        assert_eq!(check_crash(&flow_problem()), (1, 1, 2));
    }

    #[test]
    fn crash_matches_the_reference_rule_and_the_dense_optimum_on_seeded_flows() {
        let mut rng = StdRng::seed_from_u64(0xc4a5_0020);
        let (mut crashed, mut phase1, mut artificial_phase1) = (0, 0, 0);
        for _ in 0..300 {
            let (rows, after, before) = check_crash(&flow_like_problem(&mut rng));
            crashed += rows;
            phase1 += after;
            artificial_phase1 += before;
        }
        assert!(crashed >= 1000, "only {crashed} rows crashed");
        assert!(2 * phase1 < artificial_phase1, "phase 1: {phase1} vs {artificial_phase1}");
    }

    #[test]
    fn crash_tolerates_zero_columns_and_fully_retired_rows() {
        // No columns at all (a problem with no variables, or rows whose
        // terms all cancel): the empty zero-level row keeps its artificial.
        let mut b = ProblemBuilder::new(Sense::Maximize);
        b.constraint(vec![], Relation::Eq, 0.0);
        b.constraint(vec![], Relation::Le, 2.0);
        let p = b.build();
        assert_eq!(check_crash(&p).0, 0);

        // A repeated row: covering the first retires both columns, so the
        // twin keeps its artificial and phase 1 cannot drive it out.
        let mut b = ProblemBuilder::new(Sense::Maximize);
        let x: Vec<_> = (0..3).map(|_| b.add_var(true)).collect();
        b.objective(x[0], 1.0);
        b.objective(x[2], 2.0);
        b.constraint(vec![(x[0], 1.0), (x[1], -1.0)], Relation::Eq, 0.0);
        b.constraint(vec![(x[0], 1.0), (x[1], -1.0)], Relation::Eq, 0.0);
        b.constraint(vec![(x[1], 1.0), (x[2], 1.0)], Relation::Le, 3.0);
        let p = b.build();
        assert_eq!(check_crash(&p).0, 1);
        let inst = SparseInstance::build(&p, &[]).expect("builds");
        assert!(inst.artificial[inst.basis[1]], "the twin row keeps its artificial");
    }

    // -- kernel equivalence ----------------------------------------------------

    /// The dense row-major LU and the dense triangular solves the sparse
    /// factors replace, sharing the instance's eta file.
    struct DenseLu {
        m: usize,
        lu: Vec<f64>,
        perm: Vec<usize>,
    }

    impl DenseLu {
        fn factor(inst: &SparseInstance) -> DenseLu {
            let (lu, perm) = inst.eliminate().expect("the instance's basis factors");
            DenseLu { m: inst.m, lu, perm }
        }

        fn ftran(&self, etas: &Etas, d: &[f64]) -> Vec<f64> {
            let (m, lu, perm) = (self.m, &self.lu, &self.perm);
            let mut x = vec![0.0f64; m];
            for i in 0..m {
                let pi = perm[i];
                let mut v = d[pi];
                for j in 0..i {
                    v -= lu[pi * m + j] * x[j];
                }
                x[i] = v;
            }
            for i in (0..m).rev() {
                let pi = perm[i];
                let mut v = x[i];
                for j in (i + 1)..m {
                    v -= lu[pi * m + j] * x[j];
                }
                x[i] = v / lu[pi * m + i];
            }
            for k in 0..etas.len() {
                let (r, pivot, others) = etas.get(k);
                let xr = x[r] / pivot;
                for &(i, w) in others {
                    x[i] -= w * xr;
                }
                x[r] = xr;
            }
            x
        }

        fn btran(&self, etas: &Etas, c: &[f64]) -> Vec<f64> {
            let (m, lu, perm) = (self.m, &self.lu, &self.perm);
            let mut v = c.to_vec();
            for k in (0..etas.len()).rev() {
                let (r, pivot, others) = etas.get(k);
                let mut acc = v[r];
                for &(i, w) in others {
                    acc -= w * v[i];
                }
                v[r] = acc / pivot;
            }
            let mut w = vec![0.0f64; m];
            for i in 0..m {
                let mut acc = v[i];
                for j in 0..i {
                    acc -= lu[perm[j] * m + i] * w[j];
                }
                w[i] = acc / lu[perm[i] * m + i];
            }
            for i in (0..m).rev() {
                let mut acc = w[i];
                for j in (i + 1)..m {
                    acc -= lu[perm[j] * m + i] * w[j];
                }
                w[i] = acc;
            }
            let mut y = vec![0.0f64; m];
            for i in 0..m {
                y[perm[i]] = w[i];
            }
            y
        }
    }

    /// Checks FTRAN (of every column and of random dense vectors) and BTRAN
    /// against the dense reference. `==` rather than `to_bits`: a skipped
    /// term is `0·finite`, which can flip the sign of a zero result and
    /// nothing else, and no caller can observe a zero's sign (no division
    /// by a solve result, no sign-sensitive comparison).
    fn assert_solves_match(inst: &SparseInstance, reference: &DenseLu, rng: &mut StdRng) {
        let etas = &inst.factor.etas;
        for col in 0..inst.cols.len() {
            let want = {
                let mut d = vec![0.0f64; inst.m];
                for &(row, val) in &inst.cols[col] {
                    d[row] = val;
                }
                reference.ftran(etas, &d)
            };
            assert_eq!(inst.column(col), want, "ftran of column {col}");
        }
        for _ in 0..4 {
            let v: Vec<f64> = (0..inst.m).map(|_| random_value(rng)).collect();
            let f = &inst.factor;
            let mut x: Vec<f64> = f.perm.iter().map(|&pi| v[pi]).collect();
            f.ftran(&mut x);
            assert_eq!(x, reference.ftran(etas, &v), "ftran of {v:?}");
            let (mut w, mut y) = (v.clone(), vec![0.0; inst.m]);
            f.btran(&mut w, &mut y);
            assert_eq!(y, reference.btran(etas, &v), "btran of {v:?}");
        }
    }

    fn random_value(rng: &mut StdRng) -> f64 {
        if rng.gen_bool(0.3) {
            0.0
        } else {
            rng.gen_range(-999i64..=999) as f64 / 7.0
        }
    }

    /// A random feasible-by-construction LP: `<=` rows with non-negative
    /// right-hand sides over a few structural variables.
    fn random_problem(rng: &mut StdRng, n: usize, m: usize) -> Problem {
        let mut b = ProblemBuilder::new(Sense::Maximize);
        let vars: Vec<_> = (0..n).map(|_| b.add_var(false)).collect();
        for &v in &vars {
            b.objective(v, rng.gen_range(1i64..=9) as f64);
        }
        for _ in 0..m {
            let mut terms = Vec::new();
            for &v in &vars {
                if rng.gen_bool(0.4) {
                    terms.push((v, rng.gen_range(1i64..=40) as f64 / 3.0));
                }
            }
            b.constraint(terms, Relation::Le, rng.gen_range(1i64..=60) as f64);
        }
        b.build()
    }

    #[test]
    fn sparse_solves_match_the_dense_lu_across_refactorizations_and_etas() {
        let mut rng = StdRng::seed_from_u64(0x1u64 << 40 | 13);
        let mut refactorizations = 0u64;
        let mut checked_with_etas = 0usize;
        for _ in 0..12 {
            let n = rng.gen_range(4usize..=12);
            let m = rng.gen_range(4usize..=14);
            let mut inst =
                SparseInstance::build(&random_problem(&mut rng, n, m), &[]).expect("builds");
            let mut reference = DenseLu::factor(&inst);
            assert_solves_match(&inst, &reference, &mut rng);
            // Random basis exchanges: enough eta updates to cross several
            // refactorization points, each checked against a reference
            // factored from the basis the instance last refactorized.
            for _ in 0..3 * REFACTOR_INTERVAL {
                let nonbasic: Vec<usize> =
                    (0..inst.cols.len()).filter(|&j| !inst.is_basic(j)).collect();
                let entering = nonbasic[rng.gen_range(0..nonbasic.len())];
                let w = inst.column(entering);
                // The largest entry as pivot keeps the basis well conditioned.
                let r = (0..inst.m).fold(0, |r, i| if w[i].abs() > w[r].abs() { i } else { r });
                if !inst.apply_pivot(r, entering, &w) {
                    break;
                }
                // A refactorization discards the eta file.
                if inst.factor.etas.len() == 0 {
                    refactorizations += 1;
                    reference = DenseLu::factor(&inst);
                }
                checked_with_etas += usize::from(inst.factor.etas.len() > 0);
                assert_solves_match(&inst, &reference, &mut rng);
            }
        }
        assert!(refactorizations >= 12, "only {refactorizations} refactorizations exercised");
        assert!(checked_with_etas >= 100, "only {checked_with_etas} checks with etas");
    }

    /// An instance whose basis is `m` of `n` random sparse structural
    /// columns. `kind` picks the entries: 0 = `±1` (magnitude ties
    /// everywhere), 1 = small integers (ties and exact cancellations),
    /// 2 = sevenths, 3 = `±1` mixed with `±1e308` (overflowing updates).
    fn random_basis(rng: &mut StdRng, kind: u32) -> SparseInstance {
        let m = rng.gen_range(1usize..=14);
        let n = m + rng.gen_range(0usize..=4);
        let mut b = ProblemBuilder::new(Sense::Maximize);
        let x: Vec<_> = (0..n).map(|_| b.add_var(false)).collect();
        let density = rng.gen_range(15u32..60) as f64 / 100.0;
        for _ in 0..m {
            let mut terms = Vec::new();
            for &v in &x {
                if rng.gen_bool(density) {
                    let sign = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
                    let c = match kind {
                        0 => sign,
                        1 => rng.gen_range(-3i64..=3) as f64,
                        2 => rng.gen_range(-999i64..=999) as f64 / 7.0,
                        _ if rng.gen_bool(0.3) => sign * 1e308,
                        _ => sign,
                    };
                    terms.push((v, c));
                }
            }
            b.constraint(terms, Relation::Eq, 1.0);
        }
        let mut inst =
            SparseInstance::build(&b.build(), &[]).expect("the artificial basis factors");
        let mut cols: Vec<usize> = (0..n).collect();
        for i in 0..m {
            let j = rng.gen_range(i..n);
            cols.swap(i, j);
        }
        inst.basis = cols[..m].to_vec();
        inst
    }

    #[test]
    fn sparse_elimination_matches_the_dense_reference_on_seeded_basis_matrices() {
        let mut rng = StdRng::seed_from_u64(0x5eed_0016);
        let (mut accepted, mut declined, mut swapped) = ([0u32; 4], [0u32; 4], 0u32);
        for trial in 0..2000 {
            let kind = trial % 4;
            let mut inst = random_basis(&mut rng, kind);
            let sparse = inst.factorize().then(|| inst.factor.clone());
            assert_eq!(sparse, inst.dense_factor(), "trial {trial}, basis {:?}", inst.basis);
            match sparse {
                Some(f) => {
                    accepted[kind as usize] += 1;
                    swapped += u32::from(f.perm.iter().enumerate().any(|(i, &r)| i != r));
                }
                None => declined[kind as usize] += 1,
            }
        }
        // Every entry kind both factors and declines, and pivoting moves
        // rows often.
        for kind in 0..4 {
            assert!(accepted[kind] >= 50, "kind {kind}: only {} accepted", accepted[kind]);
            assert!(declined[kind] >= 50, "kind {kind}: only {} declined", declined[kind]);
        }
        assert!(swapped >= 200, "only {swapped} factorizations swapped rows");
    }

    #[test]
    fn refactorize_declines_a_non_finite_factor() {
        // B = [[1, 0, 1e308], [-1, 1, 1e308], [0, 0, 1]]: every pivot is 1,
        // but eliminating row 1 overflows U[1][2] to +inf.
        let mut b = ProblemBuilder::new(Sense::Maximize);
        let x: Vec<_> = (0..3).map(|_| b.add_var(false)).collect();
        b.constraint(vec![(x[0], 1.0), (x[2], 1e308)], Relation::Eq, 1.0);
        b.constraint(vec![(x[0], -1.0), (x[1], 1.0), (x[2], 1e308)], Relation::Eq, 1.0);
        b.constraint(vec![(x[2], 1.0)], Relation::Eq, 1.0);
        let mut inst = SparseInstance::build(&b.build(), &[]).expect("artificial basis factors");
        // Move the structural columns into the basis.
        inst.basis = vec![0, 1, 2];
        for (j, row) in inst.row_of.iter_mut().enumerate() {
            *row = if j < 3 { j } else { NONE };
        }
        assert!(!inst.refactorize(), "a factor with an infinite entry must be declined");
        // The same basis without the overflow factors fine.
        let start = inst.cols.start[2];
        inst.cols.entries[start..start + 3].copy_from_slice(&[(0, 1.0), (1, 1.0), (2, 1.0)]);
        assert!(inst.refactorize());
    }

    #[test]
    fn refactorization_keeps_accuracy() {
        // A chain long enough to force several refactorizations.
        let mut b = ProblemBuilder::new(Sense::Maximize);
        let n = 40;
        let vars: Vec<_> = (0..n).map(|_| b.add_var(true)).collect();
        for (i, &v) in vars.iter().enumerate() {
            b.objective(v, 1.0 + (i % 7) as f64);
            b.constraint(vec![(v, 1.0)], Relation::Le, (3 + (i % 5)) as f64);
        }
        // Coupling rows to force pivoting through many columns.
        for w in vars.windows(2) {
            b.constraint(vec![(w[0], 1.0), (w[1], 1.0)], Relation::Le, 6.0);
        }
        let p = b.build();
        let mut pivots = 0u64;
        let mut inst = SparseInstance::build(&p, &[]).expect("builds");
        let end = inst.solve_primal(inst.default_iter_cap(), &mut pivots);
        assert_eq!(end, SparseEnd::Optimal);
        let x = inst.extract_x();
        match debug_reference_lp(&p) {
            LpOutcome::Optimal { value, .. } => {
                assert!((p.objective_value(&x) - value).abs() < 1e-6);
            }
            other => panic!("the reference disagreed: {other:?}"),
        }
    }
}
