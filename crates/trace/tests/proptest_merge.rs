//! Property tests for the determinism contract: counter merging is
//! associative and commutative, so the order workers drain (and the order
//! their tallies fold) cannot change the totals. Also property-checks the
//! trace-document JSON round trip over arbitrary metric names and values.
//!
//! Values stay below 2^50 so sums fit JSON's exact-integer range (2^53).

use ipet_trace::{merge_counters, CounterMap, Recorder, SpanStat, TraceDoc};
use proptest::prelude::*;

const MAX_VAL: u64 = 1 << 50;

fn counter_map() -> impl Strategy<Value = CounterMap> {
    prop::collection::vec((0u8..12, 0u64..MAX_VAL), 0..12)
        .prop_map(|pairs| pairs.into_iter().map(|(k, v)| (format!("metric.{k}"), v)).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn merge_is_commutative(a in counter_map(), b in counter_map()) {
        let mut ab = a.clone();
        merge_counters(&mut ab, &b);
        let mut ba = b.clone();
        merge_counters(&mut ba, &a);
        prop_assert_eq!(ab, ba);
    }

    #[test]
    fn merge_is_associative(a in counter_map(), b in counter_map(), c in counter_map()) {
        // (a ⊕ b) ⊕ c
        let mut left = a.clone();
        merge_counters(&mut left, &b);
        merge_counters(&mut left, &c);
        // a ⊕ (b ⊕ c)
        let mut bc = b.clone();
        merge_counters(&mut bc, &c);
        let mut right = a.clone();
        merge_counters(&mut right, &bc);
        prop_assert_eq!(left, right);
    }

    /// Any permutation of worker tallies folds to the same totals — the
    /// exact shape of the pool's order-independence claim.
    #[test]
    fn fold_is_order_invariant(maps in prop::collection::vec(counter_map(), 1..6), rot in 0usize..6) {
        let mut forward = CounterMap::new();
        for m in &maps {
            merge_counters(&mut forward, m);
        }
        let mut rotated = CounterMap::new();
        let n = maps.len();
        for i in 0..n {
            merge_counters(&mut rotated, &maps[(i + rot) % n]);
        }
        let mut reversed = CounterMap::new();
        for m in maps.iter().rev() {
            merge_counters(&mut reversed, m);
        }
        prop_assert_eq!(&forward, &rotated);
        prop_assert_eq!(&forward, &reversed);
    }

    /// A recorder fed batches in any order snapshots the same counter
    /// totals (the live, locked version of the merge property).
    #[test]
    fn recorder_totals_ignore_feed_order(maps in prop::collection::vec(counter_map(), 1..5)) {
        let feed = |order: &mut dyn Iterator<Item = &CounterMap>| {
            let r = Recorder::new();
            for m in order {
                for (k, v) in m {
                    r.add_counter(k, *v);
                }
            }
            r.snapshot().counters
        };
        let forward = feed(&mut maps.iter());
        let backward = feed(&mut maps.iter().rev());
        prop_assert_eq!(forward, backward);
    }

    #[test]
    fn trace_doc_json_round_trips(
        counters in counter_map(),
        gauges in counter_map(),
        spans in prop::collection::vec((0u8..8, 0u64..MAX_VAL, 0u64..MAX_VAL), 0..8),
    ) {
        let doc = TraceDoc {
            counters,
            gauges,
            spans: spans
                .into_iter()
                .map(|(k, count, wall_ns)| (format!("span.{k}"), SpanStat { count, wall_ns }))
                .collect(),
        };
        prop_assert_eq!(TraceDoc::parse(&doc.to_json().render()).unwrap(), doc.clone());
        prop_assert_eq!(TraceDoc::parse(&doc.to_json().render_pretty()).unwrap(), doc);
    }
}
