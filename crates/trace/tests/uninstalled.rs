//! The uninstalled path: no recorder → every helper is a silent no-op.
//!
//! This file must stay its own test binary and must never call
//! `ipet_trace::install()` — the recorder is process-global, and any other
//! test in the same process installing it would invalidate these checks.

#[test]
fn helpers_are_inert_without_a_recorder() {
    assert!(!ipet_trace::enabled());
    assert!(ipet_trace::recorder().is_none());
    assert!(ipet_trace::snapshot().is_none());

    // None of these may panic or observe anything.
    ipet_trace::counter("lp.ilp.solves", 17);
    ipet_trace::gauge_max("lp.problem.vars.peak", 99);
    {
        let _span = ipet_trace::span("core.plan");
    }

    // Still uninstalled afterwards: nothing was recorded anywhere.
    assert!(!ipet_trace::enabled());
    assert!(ipet_trace::snapshot().is_none());
}
