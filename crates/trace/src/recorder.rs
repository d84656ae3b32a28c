//! The thread-safe recorder and the trace document it aggregates into.
//!
//! The recorder keeps three kinds of metrics, all aggregated by name:
//!
//! * **counters** — monotonically increasing `u64` sums. Counter totals are
//!   part of the pipeline's determinism contract: dedup, sharding and the
//!   plan fold are worker-count-independent, so counter totals must be too.
//! * **gauges** — high-water marks merged with `max`. `max` is associative
//!   and commutative, so gauges stay order-invariant under parallelism.
//! * **spans** — named durations aggregated into `{count, wall_ns}`. The
//!   `count` side is deterministic; `wall_ns` is wall-clock and is excluded
//!   from determinism comparisons and gate invariants.
//!
//! Counters recorded while a worker context is set (see
//! [`set_worker`](crate::set_worker)) are *additionally* tallied under that
//! worker id, giving a per-worker breakdown that is scheduling-dependent by
//! nature and therefore lives in its own section of the document.

use std::collections::BTreeMap;
use std::sync::Mutex;

use crate::json::{parse, Json, ParseError};

/// Aggregated statistics for one named span.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpanStat {
    /// How many times the span ran. Deterministic.
    pub count: u64,
    /// Total wall-clock nanoseconds across runs. Not deterministic.
    pub wall_ns: u64,
}

/// A name → value counter map with saturating merge.
pub type CounterMap = BTreeMap<String, u64>;

/// Merges `src` into `dst` by saturating addition. Saturating `+` on `u64`
/// is associative and commutative, so merge order (and hence worker
/// scheduling) cannot change the result.
pub fn merge_counters(dst: &mut CounterMap, src: &CounterMap) {
    for (name, value) in src {
        let slot = dst.entry(name.clone()).or_insert(0);
        *slot = slot.saturating_add(*value);
    }
}

/// The value stored under `name`, inserted as the default on first use.
/// Looks the name up by `&str` first, so only the first use of a name
/// allocates its key.
fn value_for<'m, V: Default>(map: &'m mut BTreeMap<String, V>, name: &str) -> &'m mut V {
    if !map.contains_key(name) {
        map.insert(name.to_string(), V::default());
    }
    map.get_mut(name).expect("inserted above")
}

#[derive(Debug, Default)]
struct Inner {
    counters: CounterMap,
    gauges: BTreeMap<String, u64>,
    spans: BTreeMap<String, SpanStat>,
    workers: BTreeMap<u64, CounterMap>,
}

/// A thread-safe metric aggregator.
///
/// All methods take `&self`; a single `Mutex` guards the maps. The hot
/// paths of the pipeline only reach a recorder through the crate-level
/// helpers, which skip the lock entirely when no recorder is installed.
#[derive(Debug, Default)]
pub struct Recorder {
    inner: Mutex<Inner>,
}

impl Recorder {
    /// A fresh, empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to the named counter (saturating). When `worker` is
    /// set, the delta is also tallied under that worker id.
    pub fn add_counter(&self, name: &str, delta: u64, worker: Option<u64>) {
        let mut inner = self.inner.lock().unwrap();
        let slot = value_for(&mut inner.counters, name);
        *slot = slot.saturating_add(delta);
        if let Some(w) = worker {
            let per = value_for(inner.workers.entry(w).or_default(), name);
            *per = per.saturating_add(delta);
        }
    }

    /// Raises the named gauge to `value` if it is below it.
    pub fn gauge_max(&self, name: &str, value: u64) {
        let mut inner = self.inner.lock().unwrap();
        let slot = value_for(&mut inner.gauges, name);
        *slot = (*slot).max(value);
    }

    /// Records one completed run of the named span.
    pub fn add_span(&self, name: &str, wall_ns: u64) {
        let mut inner = self.inner.lock().unwrap();
        let slot = value_for(&mut inner.spans, name);
        slot.count = slot.count.saturating_add(1);
        slot.wall_ns = slot.wall_ns.saturating_add(wall_ns);
    }

    /// Snapshots the current state into an immutable document.
    pub fn snapshot(&self) -> TraceDoc {
        let inner = self.inner.lock().unwrap();
        TraceDoc {
            counters: inner.counters.clone(),
            gauges: inner.gauges.clone(),
            spans: inner.spans.clone(),
            workers: inner.workers.clone(),
        }
    }

    /// Clears all recorded metrics. Used between runs that share one
    /// installed global recorder (e.g. consecutive `experiments`
    /// subcommand phases).
    pub fn reset(&self) {
        let mut inner = self.inner.lock().unwrap();
        *inner = Inner::default();
    }
}

/// Version tag embedded in every serialized trace document.
pub const TRACE_SCHEMA: &str = "ipet-trace-v1";

/// An immutable snapshot of everything a [`Recorder`] aggregated.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TraceDoc {
    /// Deterministic counter totals.
    pub counters: CounterMap,
    /// Deterministic high-water marks.
    pub gauges: BTreeMap<String, u64>,
    /// Span aggregates; `count` deterministic, `wall_ns` not.
    pub spans: BTreeMap<String, SpanStat>,
    /// Per-worker counter breakdown. Scheduling-dependent.
    pub workers: BTreeMap<u64, CounterMap>,
}

impl TraceDoc {
    /// Serializes to a JSON value (keys sorted — `BTreeMap` iteration
    /// order — so rendering is deterministic given deterministic content).
    pub fn to_json(&self) -> Json {
        let counter_obj = |m: &CounterMap| {
            Json::Obj(m.iter().map(|(k, v)| (k.clone(), Json::Num(*v as f64))).collect())
        };
        Json::Obj(vec![
            ("schema".to_string(), Json::Str(TRACE_SCHEMA.to_string())),
            ("counters".to_string(), counter_obj(&self.counters)),
            ("gauges".to_string(), counter_obj(&self.gauges)),
            (
                "spans".to_string(),
                Json::Obj(
                    self.spans
                        .iter()
                        .map(|(k, s)| {
                            (
                                k.clone(),
                                Json::Obj(vec![
                                    ("count".to_string(), Json::Num(s.count as f64)),
                                    ("wall_ns".to_string(), Json::Num(s.wall_ns as f64)),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
            (
                "workers".to_string(),
                Json::Obj(
                    self.workers.iter().map(|(w, m)| (w.to_string(), counter_obj(m))).collect(),
                ),
            ),
        ])
    }

    /// Reconstructs a document from its JSON form.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] when the input is not valid JSON or does
    /// not match the `ipet-trace-v1` schema.
    pub fn from_json(value: &Json) -> Result<Self, ParseError> {
        let bad = |m: &str| ParseError { message: m.to_string(), offset: 0 };
        match value.get("schema").and_then(Json::as_str) {
            Some(TRACE_SCHEMA) => {}
            _ => return Err(bad("missing or unknown trace schema tag")),
        }
        let counter_map = |v: Option<&Json>, what: &str| -> Result<CounterMap, ParseError> {
            let obj = v.and_then(Json::as_obj).ok_or_else(|| bad(what))?;
            obj.iter()
                .map(|(k, v)| {
                    v.as_u64().map(|n| (k.clone(), n)).ok_or_else(|| bad("non-integer metric"))
                })
                .collect()
        };
        let mut spans = BTreeMap::new();
        for (name, s) in
            value.get("spans").and_then(Json::as_obj).ok_or_else(|| bad("missing spans"))?
        {
            let count =
                s.get("count").and_then(Json::as_u64).ok_or_else(|| bad("bad span count"))?;
            let wall_ns =
                s.get("wall_ns").and_then(Json::as_u64).ok_or_else(|| bad("bad span wall_ns"))?;
            spans.insert(name.clone(), SpanStat { count, wall_ns });
        }
        let mut workers = BTreeMap::new();
        for (id, m) in
            value.get("workers").and_then(Json::as_obj).ok_or_else(|| bad("missing workers"))?
        {
            let id: u64 = id.parse().map_err(|_| bad("non-numeric worker id"))?;
            workers.insert(id, counter_map(Some(m), "bad worker counters")?);
        }
        Ok(TraceDoc {
            counters: counter_map(value.get("counters"), "missing counters")?,
            gauges: counter_map(value.get("gauges"), "missing gauges")?,
            spans,
            workers,
        })
    }

    /// Parses a rendered document string.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] on malformed JSON or schema mismatch.
    pub fn parse(text: &str) -> Result<Self, ParseError> {
        Self::from_json(&parse(text)?)
    }

    /// The deterministic view: flat `key = value` pairs covering counters,
    /// gauges and span *counts* — everything that must be bit-identical
    /// across worker counts. Wall-clock fields and the per-worker
    /// breakdown are deliberately absent.
    pub fn deterministic_view(&self) -> Vec<(String, u64)> {
        let mut out = Vec::new();
        for (k, v) in &self.counters {
            out.push((format!("counter.{k}"), *v));
        }
        for (k, v) in &self.gauges {
            out.push((format!("gauge.{k}"), *v));
        }
        for (k, s) in &self.spans {
            out.push((format!("span.{k}.count"), s.count));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_aggregates_all_metric_kinds() {
        let r = Recorder::new();
        r.add_counter("a", 2, None);
        r.add_counter("a", 3, Some(1));
        r.gauge_max("g", 5);
        r.gauge_max("g", 4);
        r.add_span("s", 100);
        r.add_span("s", 50);
        let doc = r.snapshot();
        assert_eq!(doc.counters["a"], 5);
        assert_eq!(doc.gauges["g"], 5);
        assert_eq!(doc.spans["s"], SpanStat { count: 2, wall_ns: 150 });
        assert_eq!(doc.workers[&1]["a"], 3);
    }

    #[test]
    fn reset_clears_everything() {
        let r = Recorder::new();
        r.add_counter("a", 1, Some(0));
        r.gauge_max("g", 1);
        r.add_span("s", 1);
        r.reset();
        assert_eq!(r.snapshot(), TraceDoc::default());
    }

    #[test]
    fn json_round_trip_preserves_document() {
        let r = Recorder::new();
        r.add_counter("lp.ilp.solves", 56, Some(0));
        r.add_counter("pool.cache.hits", 28, Some(3));
        r.gauge_max("lp.problem.vars.peak", 141);
        r.add_span("pool.solve_batch", 1_234_567);
        let doc = r.snapshot();
        assert_eq!(TraceDoc::parse(&doc.to_json().render()).unwrap(), doc);
        assert_eq!(TraceDoc::parse(&doc.to_json().render_pretty()).unwrap(), doc);
    }

    #[test]
    fn deterministic_view_excludes_wall_clock_and_workers() {
        let r = Recorder::new();
        r.add_counter("c", 1, Some(7));
        r.add_span("s", 999);
        let view = r.snapshot().deterministic_view();
        assert_eq!(view, vec![("counter.c".to_string(), 1), ("span.s.count".to_string(), 1)]);
    }

    #[test]
    fn counter_merge_saturates() {
        let mut a = CounterMap::from([("x".to_string(), u64::MAX - 1)]);
        let b = CounterMap::from([("x".to_string(), 5), ("y".to_string(), 1)]);
        merge_counters(&mut a, &b);
        assert_eq!(a["x"], u64::MAX);
        assert_eq!(a["y"], 1);
    }
}
