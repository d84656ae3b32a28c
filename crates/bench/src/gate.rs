//! The bench document and the perf-regression gate.
//!
//! `experiments benchjson` emits one `ipet-bench-v2` JSON document per run:
//! the Table I–III bounds, cache traffic, tick totals and the full
//! `ipet-trace` document, split into **deterministic** sections (identical
//! for any `--jobs` value: benchmark bounds, set counts, cache hit/miss,
//! tick totals, trace counters/gauges/span counts) and **timing** sections
//! (wall-clock, per-worker breakdowns, worker count).
//!
//! `experiments gate <baseline.json>` compares the current run against a
//! committed baseline: the deterministic sections must match *exactly* in
//! both directions — a solve count, cache hit count or bound that moves is
//! a regression (or an unrefreshed baseline) — while timing is compared
//! with a generous relative tolerance, since CI machines vary widely, and
//! only a slowdown beyond the tolerance fails.

use crate::PooledRun;
use ipet_core::BatchReport;
use ipet_trace::{Json, TraceDoc};
use std::collections::BTreeMap;
use std::time::Duration;

/// Version tag of the bench document schema.
pub const BENCH_SCHEMA: &str = "ipet-bench-v2";

/// Assembles the bench document for one pooled run (the Table I–III batch
/// plus the miss-penalty sweep on the same pool) and the trace snapshot
/// recorded across it.
pub fn bench_doc(
    run: &PooledRun,
    sweep: &BatchReport,
    solve_wall: Duration,
    trace: &TraceDoc,
) -> Json {
    let benchmarks = run
        .data
        .iter()
        .map(|d| {
            Json::Obj(vec![
                ("name".to_string(), Json::Str(d.name.clone())),
                ("lower".to_string(), Json::Num(d.estimate.bound.lower as f64)),
                ("upper".to_string(), Json::Num(d.estimate.bound.upper as f64)),
                ("sets_total".to_string(), Json::Num(d.estimate.sets_total as f64)),
                ("sets_pruned".to_string(), Json::Num(d.estimate.sets_pruned as f64)),
                ("quality".to_string(), Json::Str(d.estimate.quality.to_string())),
            ])
        })
        .collect();
    let per_worker: Vec<Json> = run
        .worker_ticks
        .iter()
        .zip(&sweep.worker_ticks)
        .map(|(a, b)| Json::Num((a + b) as f64))
        .collect();
    Json::Obj(vec![
        ("schema".to_string(), Json::Str(BENCH_SCHEMA.to_string())),
        ("jobs".to_string(), Json::Num(run.jobs as f64)),
        ("benchmarks".to_string(), Json::Arr(benchmarks)),
        (
            "cache".to_string(),
            Json::Obj(vec![
                ("hits".to_string(), Json::Num(run.cache.hits as f64)),
                ("misses".to_string(), Json::Num(run.cache.misses as f64)),
                ("rejected".to_string(), Json::Num(run.cache.rejected as f64)),
            ]),
        ),
        ("total_ticks".to_string(), Json::Num((run.total_ticks + sweep.total_ticks) as f64)),
        ("trace".to_string(), trace.to_json()),
        (
            "timing".to_string(),
            Json::Obj(vec![(
                "solve_wall_ms".to_string(),
                Json::Num(solve_wall.as_secs_f64() * 1e3),
            )]),
        ),
        ("per_worker_ticks".to_string(), Json::Arr(per_worker)),
    ])
}

/// The deterministic view of a bench document: sorted `key = value` lines
/// covering everything that must be identical across `--jobs` values and
/// across runs on the same tree. Timing, worker count and per-worker
/// sections are deliberately absent (`experiments counters` prints these
/// lines; CI diffs them across `--jobs 1` / `--jobs 8`).
///
/// # Errors
///
/// Returns a description of the first missing or malformed section.
pub fn deterministic_lines(doc: &Json) -> Result<Vec<String>, String> {
    match doc.get("schema").and_then(Json::as_str) {
        Some(BENCH_SCHEMA) => {}
        Some(other) => return Err(format!("unsupported bench schema `{other}`")),
        None => return Err("missing bench schema tag".to_string()),
    }
    let mut lines = Vec::new();
    let benches = doc
        .get("benchmarks")
        .and_then(Json::as_arr)
        .ok_or_else(|| "missing benchmarks section".to_string())?;
    for b in benches {
        let name = b
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| "benchmark without a name".to_string())?;
        for field in ["lower", "upper", "sets_total", "sets_pruned"] {
            let v = b
                .get(field)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("{name}: missing {field}"))?;
            lines.push(format!("bench.{name}.{field} = {v}"));
        }
        let quality = b
            .get("quality")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{name}: missing quality"))?;
        lines.push(format!("bench.{name}.quality = {quality}"));
    }
    let cache = doc.get("cache").ok_or_else(|| "missing cache section".to_string())?;
    for field in ["hits", "misses", "rejected"] {
        let v = cache
            .get(field)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("cache: missing {field}"))?;
        lines.push(format!("cache.{field} = {v}"));
    }
    let ticks = doc
        .get("total_ticks")
        .and_then(Json::as_u64)
        .ok_or_else(|| "missing total_ticks".to_string())?;
    lines.push(format!("total_ticks = {ticks}"));
    let trace = doc.get("trace").ok_or_else(|| "missing trace section".to_string())?;
    let trace = TraceDoc::from_json(trace).map_err(|e| format!("bad trace section: {e}"))?;
    for (key, value) in trace.deterministic_view() {
        lines.push(format!("trace.{key} = {value}"));
    }
    lines.sort();
    Ok(lines)
}

/// Gate tolerances. Counter invariants always require exact equality; the
/// tolerance only governs wall-clock.
#[derive(Debug, Clone, Copy)]
pub struct GateConfig {
    /// Maximum allowed relative slowdown of `timing.solve_wall_ms`, in
    /// percent. Generous by default — CI machines vary a lot, and the
    /// counters carry the precise signal; timing only catches order-of-
    /// magnitude blowups. Speedups never fail.
    pub wall_tolerance_pct: f64,
    /// Absolute floor, in milliseconds, under which the wall-clock check
    /// never fails. A sub-millisecond baseline phase (fast machine, tiny
    /// suite) would otherwise turn the relative tolerance into a limit of a
    /// few hundred *microseconds* — scheduler noise alone blows that. The
    /// limit is `max(baseline * (1 + pct/100), min_wall_ms)`.
    pub min_wall_ms: f64,
}

impl Default for GateConfig {
    fn default() -> Self {
        GateConfig { wall_tolerance_pct: 300.0, min_wall_ms: 50.0 }
    }
}

/// Outcome of one gate comparison.
#[derive(Debug, Default)]
pub struct GateReport {
    /// Regressions (non-empty fails the gate).
    pub failures: Vec<String>,
    /// Informational lines (timing deltas, section sizes).
    pub notes: Vec<String>,
}

impl GateReport {
    /// True when no regression was found.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Compares `current` against `baseline`: exact match (both directions) on
/// the deterministic view, tolerance-checked wall-clock.
pub fn compare(baseline: &Json, current: &Json, config: &GateConfig) -> GateReport {
    let mut report = GateReport::default();
    let view = |doc: &Json, which: &str, report: &mut GateReport| match deterministic_lines(doc) {
        Ok(lines) => Some(line_map(&lines)),
        Err(e) => {
            report.failures.push(format!("{which}: {e}"));
            None
        }
    };
    let (Some(base), Some(cur)) =
        (view(baseline, "baseline", &mut report), view(current, "current", &mut report))
    else {
        return report;
    };

    for (key, base_value) in &base {
        match cur.get(key) {
            Some(v) if v == base_value => {}
            Some(v) => report.failures.push(format!("{key}: baseline {base_value}, current {v}")),
            None => report.failures.push(format!("{key}: present in baseline, missing now")),
        }
    }
    for key in cur.keys() {
        if !base.contains_key(key) {
            report.failures.push(format!(
                "{key}: new metric absent from baseline (refresh BENCH_baseline.json)"
            ));
        }
    }
    report.notes.push(format!("{} deterministic metrics compared exactly", base.len()));

    let wall =
        |doc: &Json| doc.get("timing").and_then(|t| t.get("solve_wall_ms")).and_then(Json::as_num);
    match (wall(baseline), wall(current)) {
        (Some(base_ms), Some(cur_ms)) => {
            let limit =
                (base_ms * (1.0 + config.wall_tolerance_pct / 100.0)).max(config.min_wall_ms);
            if cur_ms > limit {
                report.failures.push(format!(
                    "timing.solve_wall_ms: {cur_ms:.3} exceeds baseline {base_ms:.3} \
                     by more than {}% (limit {limit:.3})",
                    config.wall_tolerance_pct
                ));
            } else {
                report.notes.push(format!(
                    "timing.solve_wall_ms: {cur_ms:.3} vs baseline {base_ms:.3} \
                     (tolerance {}%)",
                    config.wall_tolerance_pct
                ));
            }
        }
        _ => report.failures.push("timing.solve_wall_ms missing from a document".to_string()),
    }
    report
}

fn line_map(lines: &[String]) -> BTreeMap<String, String> {
    lines
        .iter()
        .filter_map(|l| l.split_once(" = ").map(|(k, v)| (k.to_string(), v.to_string())))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipet_trace::parse_json;

    fn sample_doc() -> Json {
        parse_json(
            r#"{
              "schema": "ipet-bench-v2",
              "jobs": 1,
              "benchmarks": [
                {"name": "fft", "lower": 100, "upper": 9000,
                 "sets_total": 1, "sets_pruned": 0, "quality": "exact"}
              ],
              "cache": {"hits": 28, "misses": 56, "rejected": 0},
              "total_ticks": 12345,
              "trace": {"schema": "ipet-trace-v1",
                        "counters": {"lp.ilp.solves": 56},
                        "gauges": {"lp.problem.vars.peak": 141},
                        "spans": {"core.plan": {"count": 9, "wall_ns": 777}},
                        "workers": {"0": {"pool.worker.jobs": 56}}},
              "timing": {"solve_wall_ms": 100.0},
              "per_worker_ticks": [12345]
            }"#,
        )
        .unwrap()
    }

    /// Replaces the first number found at `path`, searching every subtree
    /// for the path's start (so `["upper"]` reaches into the benchmark
    /// array and `["counters", ...]` into the nested trace section).
    fn with_num(doc: &Json, path: &[&str], value: f64) -> Json {
        fn rec(v: &Json, path: &[&str], value: f64) -> Json {
            match v {
                Json::Obj(members) => Json::Obj(
                    members
                        .iter()
                        .map(|(k, inner)| {
                            let replaced = if k == path[0] {
                                if path.len() == 1 {
                                    Json::Num(value)
                                } else {
                                    rec(inner, &path[1..], value)
                                }
                            } else {
                                rec(inner, path, value)
                            };
                            (k.clone(), replaced)
                        })
                        .collect(),
                ),
                Json::Arr(items) => Json::Arr(items.iter().map(|i| rec(i, path, value)).collect()),
                other => other.clone(),
            }
        }
        rec(doc, path, value)
    }

    #[test]
    fn identical_documents_pass() {
        let doc = sample_doc();
        let report = compare(&doc, &doc, &GateConfig::default());
        assert!(report.passed(), "{:?}", report.failures);
    }

    #[test]
    fn deterministic_view_excludes_timing_and_workers() {
        let lines = deterministic_lines(&sample_doc()).unwrap();
        assert!(lines.iter().any(|l| l == "bench.fft.upper = 9000"));
        assert!(lines.iter().any(|l| l == "cache.hits = 28"));
        assert!(lines.iter().any(|l| l == "trace.counter.lp.ilp.solves = 56"));
        assert!(lines.iter().any(|l| l == "trace.span.core.plan.count = 9"));
        assert!(lines.iter().all(|l| !l.contains("wall") && !l.contains("jobs =")), "{lines:?}");
    }

    #[test]
    fn perturbed_counter_invariant_fails() {
        let base = sample_doc();
        for path in [
            &["cache", "hits"][..],
            &["total_ticks"][..],
            &["upper"][..], // benchmark bound (inside the array)
            &["counters", "lp.ilp.solves"][..],
        ] {
            let cur = with_num(&base, path, 9999.0);
            assert_ne!(base, cur, "perturbation at {path:?} must change the doc");
            let report = compare(&base, &cur, &GateConfig::default());
            assert!(!report.passed(), "perturbing {path:?} must fail the gate");
        }
    }

    #[test]
    fn metric_appearing_or_vanishing_fails_both_directions() {
        let base = sample_doc();
        let cur = parse_json(
            &base.render().replace(r#""lp.ilp.solves":56"#, r#""lp.ilp.solves":56,"lp.extra":1"#),
        )
        .unwrap();
        assert!(!compare(&base, &cur, &GateConfig::default()).passed(), "new metric");
        assert!(!compare(&cur, &base, &GateConfig::default()).passed(), "vanished metric");
    }

    #[test]
    fn timing_respects_tolerance_and_direction() {
        let base = sample_doc();
        let slow = with_num(&base, &["timing", "solve_wall_ms"], 1000.0);
        let fast = with_num(&base, &["timing", "solve_wall_ms"], 1.0);
        let cfg = GateConfig::default(); // 300% → limit is 400ms
        assert!(!compare(&base, &slow, &cfg).passed(), "10x slower must fail");
        assert!(compare(&base, &fast, &cfg).passed(), "speedups never fail");
        let loose = GateConfig { wall_tolerance_pct: 2000.0, ..GateConfig::default() };
        assert!(compare(&base, &slow, &loose).passed(), "within loose tolerance");
    }

    #[test]
    fn sub_millisecond_baselines_use_the_wall_floor() {
        // A 0.2 ms baseline would make the 300% limit 0.8 ms — pure noise.
        // The floor keeps anything under `min_wall_ms` passing, while a
        // genuine blowup past the floor still fails.
        let base = with_num(&sample_doc(), &["timing", "solve_wall_ms"], 0.2);
        let noisy = with_num(&base, &["timing", "solve_wall_ms"], 30.0);
        let cfg = GateConfig::default();
        assert!(compare(&base, &noisy, &cfg).passed(), "under the floor never fails");
        let blowup = with_num(&base, &["timing", "solve_wall_ms"], 51.0);
        assert!(!compare(&base, &blowup, &cfg).passed(), "past the floor still fails");
    }

    #[test]
    fn malformed_baseline_fails_cleanly() {
        let report = compare(&Json::Obj(vec![]), &sample_doc(), &GateConfig::default());
        assert!(!report.passed());
        assert!(report.failures[0].contains("baseline"));
    }
}
