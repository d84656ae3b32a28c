//! # ipet-trace — structured observability for the IPET pipeline
//!
//! A zero-dependency structured-event layer: named **counters**, high-water
//! **gauges**, and **spans** with monotonic timing, aggregated by a
//! thread-safe [`Recorder`] and serialized as one JSON trace document.
//!
//! ## Usage model
//!
//! The layer follows the `log`-crate pattern: producers (the `lang`, `cfg`,
//! `core`, `lp` and `pool` crates) call free functions —
//! [`counter`], [`gauge_max`], [`span`] — unconditionally; consumers (the
//! `cinderella` CLI, the `experiments` harness, tests) decide whether a
//! recorder is installed. When none is, every helper returns after a single
//! `Relaxed` atomic load: no lock, no allocation, no time syscall.
//!
//! ```
//! let _ = ipet_trace::install(); // once, near main()
//! ipet_trace::counter("lp.ilp.solves", 1);
//! {
//!     let _guard = ipet_trace::span("core.plan");
//!     // ... work measured by the span ...
//! }
//! let doc = ipet_trace::snapshot().unwrap();
//! assert_eq!(doc.counters["lp.ilp.solves"], 1);
//! # ipet_trace::recorder().unwrap().reset();
//! ```
//!
//! ## Determinism contract
//!
//! Counter totals, gauge values and span *counts* depend only on the work
//! performed, never on how it was scheduled: counters merge by saturating
//! addition and gauges by `max`, both associative and commutative. The
//! pipeline keeps its side of the bargain by deduping and sharding
//! deterministically, so `TraceDoc::deterministic_view()` is bit-identical
//! for any `--jobs` value. Wall-clock fields (`wall_ns`) are
//! scheduling-dependent and excluded from that view.

pub mod json;
mod recorder;

pub use json::{parse as parse_json, Json, ParseError};
pub use recorder::{merge_counters, CounterMap, Recorder, SpanStat, TraceDoc, TRACE_SCHEMA};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

static ACTIVE: AtomicBool = AtomicBool::new(false);
static GLOBAL: OnceLock<Recorder> = OnceLock::new();

/// Installs the process-global recorder and returns it. Idempotent: later
/// calls return the already-installed recorder. Installation cannot be
/// undone (the recorder can be [`Recorder::reset`] instead).
pub fn install() -> &'static Recorder {
    let r = GLOBAL.get_or_init(Recorder::new);
    ACTIVE.store(true, Ordering::Release);
    r
}

/// The installed recorder, if any.
pub fn recorder() -> Option<&'static Recorder> {
    if enabled() {
        GLOBAL.get()
    } else {
        None
    }
}

/// Whether a recorder is installed. One relaxed atomic load.
#[inline]
pub fn enabled() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

/// Snapshots the installed recorder, if any.
pub fn snapshot() -> Option<TraceDoc> {
    recorder().map(Recorder::snapshot)
}

/// Adds `delta` to the named counter. No-op unless installed.
#[inline]
pub fn counter(name: &str, delta: u64) {
    if let Some(r) = recorder() {
        r.add_counter(name, delta);
    }
}

/// Raises the named gauge to `value` if below it. No-op unless installed.
#[inline]
pub fn gauge_max(name: &str, value: u64) {
    if let Some(r) = recorder() {
        r.gauge_max(name, value);
    }
}

/// Starts a span; its wall time and one run-count are recorded when the
/// returned guard drops. When no recorder is installed the guard is inert
/// and no clock is read.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if enabled() {
        SpanGuard { name, start: Some(Instant::now()) }
    } else {
        SpanGuard { name, start: None }
    }
}

/// Live span handle; records on drop. Created by [`span`].
#[must_use]
pub struct SpanGuard {
    name: &'static str,
    start: Option<Instant>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let (Some(start), Some(r)) = (self.start, recorder()) {
            r.add_span(self.name, start.elapsed().as_nanos() as u64);
        }
    }
}
