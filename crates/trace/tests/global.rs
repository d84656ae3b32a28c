//! The installed path, end to end, including cross-thread aggregation.
//!
//! The recorder is process-global, so everything runs inside one test
//! function — parallel test functions sharing the global would race on
//! `reset()`.

use std::collections::BTreeMap;

use ipet_trace::{SpanStat, TraceDoc};

#[test]
fn global_recorder_end_to_end() {
    let recorder = ipet_trace::install();
    assert!(ipet_trace::enabled());
    assert!(std::ptr::eq(ipet_trace::install(), recorder), "install is idempotent");

    // Main-thread recording.
    ipet_trace::counter("core.plan.calls", 1);
    {
        let _span = ipet_trace::span("core.plan");
    }

    // Worker threads: the same counters land in the shared totals,
    // whatever the interleaving.
    std::thread::scope(|scope| {
        for w in 0..4u64 {
            scope.spawn(move || {
                for _ in 0..10 {
                    ipet_trace::counter("pool.worker.jobs", 1);
                }
                ipet_trace::gauge_max("lp.problem.vars.peak", 100 + w);
            });
        }
    });

    let doc = ipet_trace::snapshot().expect("installed");
    assert_eq!(doc.counters["core.plan.calls"], 1);
    assert_eq!(doc.counters["pool.worker.jobs"], 40);
    assert_eq!(doc.gauges["lp.problem.vars.peak"], 103);
    assert_eq!(doc.spans["core.plan"].count, 1);

    // The document round-trips through its JSON form.
    let parsed = TraceDoc::parse(&doc.to_json().render_pretty()).expect("round trip");
    assert_eq!(parsed, doc);

    // The deterministic view covers counters, gauges and span counts only.
    let view: BTreeMap<String, u64> = doc.deterministic_view().into_iter().collect();
    assert_eq!(view["counter.pool.worker.jobs"], 40);
    assert_eq!(view["gauge.lp.problem.vars.peak"], 103);
    assert_eq!(view["span.core.plan.count"], 1);
    assert!(view.keys().all(|k| !k.contains("wall") && !k.contains("worker.0")));

    // Reset leaves an installed but empty recorder.
    recorder.reset();
    assert!(ipet_trace::enabled());
    assert_eq!(ipet_trace::snapshot().unwrap(), TraceDoc::default());

    // Span timing still records after reset.
    {
        let _span = ipet_trace::span("lang.parse");
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    let doc = ipet_trace::snapshot().unwrap();
    let SpanStat { count, wall_ns } = doc.spans["lang.parse"];
    assert_eq!(count, 1);
    assert!(wall_ns > 0, "span must accumulate wall time");
}
