//! Parametric bound formulas: solve at a few parameter points, certify the
//! region between them exactly, and evaluate a closed-form line everywhere
//! else (DESIGN.md §16).
//!
//! ## The chord certificate
//!
//! Our ILPs have *parameter-free constraints*: a swept parameter `p` (the
//! cache miss penalty) enters only through the objective, linearly, as
//! `c(p) = c0 + p·c1`. The optimal value
//!
//! ```text
//! V(p) = max { c(p)·x : x feasible }
//! ```
//!
//! is then a maximum of linear functions of `p` over a fixed feasible set —
//! a convex piecewise-linear function. Solving at point `a` yields an
//! optimal witness `x*_a` and the line
//!
//! ```text
//! g_a(p) = c0·x*_a + p·(c1·x*_a)    (a "formula", [`BoundFormula`])
//! ```
//!
//! Feasibility of `x*_a` gives `g_a ≤ V` *pointwise everywhere*. If a
//! second solve at `b > a` finds `g_a(b) = V(b)`, then on the whole
//! interval `[a, b]` convexity pins `V` from above by the chord of `V`
//! through `(a, V(a))` and `(b, V(b))` — which is exactly `g_a` — while
//! `g_a ≤ V` pins it from below. Hence `V ≡ g_a` on `[a, b]`, and every
//! interior grid point is answered by evaluating the line in exact `i128`
//! arithmetic, with no solver call and no tolerance.
//!
//! Because the set where a linear minorant touching `V` at `a` coincides
//! with the convex `V` is an interval containing `a`, the certified region
//! is contiguous: on a sorted grid the driver probes the far end first and
//! bisects only when the chord test fails, so the number of ILP solves is
//! `O(regions · log(grid))` instead of one per grid point.
//!
//! This replaces the textbook parametric-simplex basis-region approach
//! (Ballabriga et al.): extracting and inverting the optimal basis needs
//! general rationals, while our exact layer (`ipet-audit`'s `Rat`) is
//! deliberately dyadic-only. The chord certificate needs nothing but the
//! two endpoint optima — values the audit already certifies exactly — and
//! holds through branch-and-bound alike, because it never looks inside the
//! solver at all.

/// A one-parameter bound formula `value(p) = constant + slope·p`, the line
/// traced by one optimal witness as the swept parameter moves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BoundFormula {
    /// Value at `p = 0`: the witness's parameter-independent cycles.
    pub constant: i128,
    /// Cycles added per unit of the swept parameter.
    pub slope: i128,
}

impl BoundFormula {
    /// Evaluates the line at `p`, exactly; `None` on `i128` overflow.
    pub fn eval(&self, p: u64) -> Option<i128> {
        self.slope.checked_mul(p as i128)?.checked_add(self.constant)
    }
}

impl std::fmt::Display for BoundFormula {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} + {}*p", self.constant, self.slope)
    }
}

/// What one concrete solve at a parameter point reports back to the
/// driver: one entry per series (e.g. per benchmark routine).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Probe {
    /// The exact optimal value of each series at the probed point.
    pub values: Vec<i128>,
    /// The witness line of each series, when one could be extracted
    /// (`None` for relaxed/uncertified solves — those series are never
    /// region-reused and every grid point falls back to a concrete solve).
    pub formulas: Vec<Option<BoundFormula>>,
}

/// The result of a region-certified grid sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GridSweep {
    /// `values[point][series]`: the certified value at every grid point.
    pub values: Vec<Vec<i128>>,
    /// `formulas[point][series]`: the formula whose region covers the
    /// point (`None` where the value came from a concrete solve that
    /// produced no reusable line).
    pub formulas: Vec<Vec<Option<BoundFormula>>>,
    /// Grid points answered by a concrete solve.
    pub resolves: u64,
    /// Grid points answered by formula evaluation alone.
    pub region_hits: u64,
    /// Chord-certificate failures (a basis change between two probes).
    pub region_exits: u64,
}

impl GridSweep {
    /// The maximal runs of grid-point indices over which `series` is
    /// covered by one single formula — the formula's certified validity
    /// interval on this grid, as `(start, end, formula)` inclusive ranges.
    pub fn regions(&self, series: usize) -> Vec<(usize, usize, BoundFormula)> {
        let mut out: Vec<(usize, usize, BoundFormula)> = Vec::new();
        for (i, fs) in self.formulas.iter().enumerate() {
            if let Some(f) = fs.get(series).copied().flatten() {
                match out.last_mut() {
                    Some(last) if last.2 == f && last.1 + 1 == i => last.1 = i,
                    _ => out.push((i, i, f)),
                }
            }
        }
        out
    }
}

/// Sweeps `grid` (strictly increasing parameter values), calling `probe`
/// only where the chord certificate cannot extend an already-solved
/// witness line. `probe(p)` must perform the full concrete solve at `p`
/// and report every series' exact optimum (and witness line, when exact).
///
/// Requires each series' value function to be convex in the parameter —
/// true whenever the parameter multiplies a nonnegative objective column
/// and the constraints are parameter-free (Maximize sense). The certificate
/// itself is self-checking: a non-convex series would simply fail chord
/// tests and degrade to one solve per point, never to a wrong value.
///
/// Emits `lp.param.{formulas,region_hits,region_exits,resolves}` counters.
pub fn sweep_grid<E>(
    grid: &[u64],
    probe: &mut dyn FnMut(u64) -> Result<Probe, E>,
) -> Result<GridSweep, E> {
    assert!(grid.windows(2).all(|w| w[0] < w[1]), "sweep grid must be strictly increasing");
    let n = grid.len();
    let mut sweep = GridSweep {
        values: vec![Vec::new(); n],
        formulas: vec![Vec::new(); n],
        resolves: 0,
        region_hits: 0,
        region_exits: 0,
    };
    if n == 0 {
        return Ok(sweep);
    }

    let mut probed: Vec<Option<Probe>> = vec![None; n];
    let mut solve = |i: usize, probed: &mut Vec<Option<Probe>>, sweep: &mut GridSweep| {
        if probed[i].is_some() {
            return Ok(());
        }
        let p = probe(grid[i])?;
        sweep.resolves += 1;
        ipet_trace::counter("lp.param.resolves", 1);
        let lines = p.formulas.iter().filter(|f| f.is_some()).count() as u64;
        ipet_trace::counter("lp.param.formulas", lines);
        probed[i] = Some(p);
        Ok(())
    };

    solve(0, &mut probed, &mut sweep)?;
    if n > 1 {
        solve(n - 1, &mut probed, &mut sweep)?;
    }

    // Depth-first bisection: (lo, hi) intervals whose endpoints are probed.
    let mut stack = vec![(0usize, n - 1)];
    while let Some((lo, hi)) = stack.pop() {
        if hi - lo <= 1 {
            continue;
        }
        let certified =
            {
                let plo = probed[lo].as_ref().expect("interval endpoint probed");
                let phi = probed[hi].as_ref().expect("interval endpoint probed");
                plo.values.len() == phi.values.len()
                    && plo.formulas.iter().zip(&phi.values).all(|(f, &v_hi)| {
                        f.map(|f| f.eval(grid[hi]) == Some(v_hi)).unwrap_or(false)
                    })
            };
        if certified {
            // Every interior point of [lo, hi] is on the certified lines.
            let plo = probed[lo].as_ref().expect("interval endpoint probed");
            for (mid, &p) in grid.iter().enumerate().take(hi).skip(lo + 1) {
                let values: Vec<i128> = plo
                    .formulas
                    .iter()
                    .map(|f| {
                        f.expect("certified formula present")
                            .eval(p)
                            .expect("certified formula evaluates")
                    })
                    .collect();
                sweep.values[mid] = values;
                sweep.formulas[mid] = plo.formulas.clone();
                sweep.region_hits += 1;
                ipet_trace::counter("lp.param.region_hits", 1);
            }
        } else {
            sweep.region_exits += 1;
            ipet_trace::counter("lp.param.region_exits", 1);
            let mid = lo + (hi - lo) / 2;
            solve(mid, &mut probed, &mut sweep)?;
            // Push right first so the left half is processed first
            // (deterministic, ascending fill order).
            stack.push((mid, hi));
            stack.push((lo, mid));
        }
    }

    for (i, p) in probed.into_iter().enumerate() {
        if let Some(p) = p {
            sweep.values[i] = p.values;
            sweep.formulas[i] = p.formulas;
        }
    }
    Ok(sweep)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::convert::Infallible;

    /// A convex piecewise-linear "oracle": V(p) = max over lines.
    fn oracle(lines: &[(i128, i128)]) -> impl Fn(u64) -> (i128, BoundFormula) + '_ {
        move |p: u64| {
            let (v, line) = lines
                .iter()
                .map(|&(c, s)| (c + s * p as i128, BoundFormula { constant: c, slope: s }))
                .max_by_key(|&(v, _)| v)
                .unwrap();
            (v, line)
        }
    }

    fn run(grid: &[u64], lines: &[(i128, i128)]) -> GridSweep {
        let f = oracle(lines);
        let mut probe = |p: u64| -> Result<Probe, Infallible> {
            let (v, line) = f(p);
            Ok(Probe { values: vec![v], formulas: vec![Some(line)] })
        };
        sweep_grid(grid, &mut probe).unwrap()
    }

    #[test]
    fn single_line_needs_two_solves() {
        let grid = [0, 2, 4, 8, 16, 32];
        let s = run(&grid, &[(100, 3)]);
        assert_eq!(s.resolves, 2);
        assert_eq!(s.region_hits, 4);
        assert_eq!(s.region_exits, 0);
        for (i, &p) in grid.iter().enumerate() {
            assert_eq!(s.values[i], vec![100 + 3 * p as i128]);
        }
        assert_eq!(s.regions(0), vec![(0, 5, BoundFormula { constant: 100, slope: 3 })]);
    }

    #[test]
    fn breakpoint_forces_region_exit_but_stays_exact() {
        // V(p) = max(100 + 0·p, 60 + 4·p): breakpoint at p = 10.
        let grid = [0, 2, 4, 8, 16, 32];
        let lines = [(100, 0), (60, 4)];
        let s = run(&grid, &lines);
        let f = oracle(&lines);
        for (i, &p) in grid.iter().enumerate() {
            assert_eq!(s.values[i], vec![f(p).0], "p = {p}");
        }
        assert!(s.region_exits >= 1);
        assert!(s.resolves < grid.len() as u64 + 2);
        // Two maximal validity intervals, one per active line.
        let regions = s.regions(0);
        assert_eq!(regions.len(), 2);
        assert_eq!(regions[0].2, BoundFormula { constant: 100, slope: 0 });
        assert_eq!(regions[1].2, BoundFormula { constant: 60, slope: 4 });
    }

    #[test]
    fn many_breakpoints_still_exact() {
        let grid: Vec<u64> = (0..40).collect();
        let lines = [(1000, 0), (900, 7), (400, 21), (0, 35)];
        let s = run(&grid, &lines);
        let f = oracle(&lines);
        for (i, &p) in grid.iter().enumerate() {
            assert_eq!(s.values[i], vec![f(p).0], "p = {p}");
        }
        assert!(s.resolves < grid.len() as u64, "region reuse must fire");
        assert!(s.region_hits > 0);
    }

    #[test]
    fn relaxed_probe_without_formula_solves_every_point() {
        let grid = [0, 4, 8];
        let mut probe = |p: u64| -> Result<Probe, Infallible> {
            Ok(Probe { values: vec![10 + p as i128], formulas: vec![None] })
        };
        let s = sweep_grid(&grid, &mut probe).unwrap();
        assert_eq!(s.resolves, 3);
        assert_eq!(s.region_hits, 0);
        for (i, &p) in grid.iter().enumerate() {
            assert_eq!(s.values[i], vec![10 + p as i128]);
        }
        assert!(s.regions(0).is_empty());
    }

    #[test]
    fn multi_series_certifies_jointly() {
        // Series 0 is a single line; series 1 has a breakpoint at 10.
        let grid = [0, 2, 4, 8, 16, 32];
        let f0 = oracle(&[(50, 2)]);
        let f1 = oracle(&[(100, 0), (60, 4)]);
        let mut probe = |p: u64| -> Result<Probe, Infallible> {
            let (v0, l0) = f0(p);
            let (v1, l1) = f1(p);
            Ok(Probe { values: vec![v0, v1], formulas: vec![Some(l0), Some(l1)] })
        };
        let s = sweep_grid(&grid, &mut probe).unwrap();
        for (i, &p) in grid.iter().enumerate() {
            assert_eq!(s.values[i], vec![f0(p).0, f1(p).0], "p = {p}");
        }
        // Series 0's region spans the whole grid even though series 1
        // forced bisection probes inside it.
        assert_eq!(s.regions(0).len(), 1);
        assert_eq!(s.regions(1).len(), 2);
    }

    #[test]
    fn empty_and_singleton_grids() {
        let s = run(&[], &[(1, 1)]);
        assert_eq!(s.resolves, 0);
        let s = run(&[7], &[(1, 1)]);
        assert_eq!(s.resolves, 1);
        assert_eq!(s.values[0], vec![8]);
    }

    #[test]
    fn probe_error_propagates() {
        let grid = [0, 1, 2];
        let mut probe = |p: u64| -> Result<Probe, &'static str> {
            if p == 2 {
                Err("boom")
            } else {
                Ok(Probe { values: vec![0], formulas: vec![None] })
            }
        };
        assert_eq!(sweep_grid(&grid, &mut probe).unwrap_err(), "boom");
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_grid_is_rejected() {
        let mut probe = |_: u64| -> Result<Probe, Infallible> {
            Ok(Probe { values: vec![], formulas: vec![] })
        };
        let _ = sweep_grid(&[3, 1], &mut probe);
    }

    #[test]
    fn formula_eval_checks_overflow() {
        let f = BoundFormula { constant: 0, slope: i128::MAX };
        assert_eq!(f.eval(2), None);
        let f = BoundFormula { constant: 5, slope: 3 };
        assert_eq!(f.eval(4), Some(17));
        assert_eq!(f.to_string(), "5 + 3*p");
    }
}
