//! Tests of the benchmark itself: seeded inputs repeat, metric names are
//! legal and match `BENCHMARK.json`, and the oracle catches a wrong bound
//! (a perturbed copy of the bounds committed in `BENCH_baseline.json`).

use perfbench::{scale, serve, suite, valid_metric_name, Config, END_TO_END, PER_LAYER};
use std::path::Path;

fn repo_file(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn same_seed_gives_the_same_corpus() {
    let key = |c: &[scale::Item]| -> Vec<(u64, usize, [i32; 3])> {
        c.iter().map(|i| (i.gen_seed, i.instrs, i.inputs)).collect()
    };
    let a = scale::corpus(7, 2);
    assert_eq!(a.len(), 2 * scale::STRATA);
    assert_eq!(key(&a), key(&scale::corpus(7, 2)));
    assert_ne!(key(&a), key(&scale::corpus(8, 2)), "the seed orders the corpus");
    for item in &a {
        assert!((scale::BAND.0..scale::BAND.1).contains(&item.instrs));
    }
    // Every round of STRATA programs holds one program of each stratum.
    let width = (scale::BAND.1 - scale::BAND.0) / scale::STRATA;
    for round in a.chunks(scale::STRATA) {
        let mut strata: Vec<usize> =
            round.iter().map(|i| (i.instrs - scale::BAND.0) / width).collect();
        strata.sort_unstable();
        assert_eq!(strata, (0..scale::STRATA).collect::<Vec<_>>());
    }
}

#[test]
fn same_seed_gives_the_same_request_script() {
    let benches = ipet_suite::all();
    let lines = |seed: u64| -> Vec<String> {
        (0..26)
            .flat_map(|s| serve::session(seed, s, benches.len()))
            .enumerate()
            .map(|(i, r)| serve::request_line(i as u64, &benches[r.routine], &r))
            .collect()
    };
    assert_eq!(lines(3), lines(3));
    assert_ne!(lines(3), lines(4));
    // Each session requests every routine once and edits exactly one; each
    // block of 13 sessions edits every routine once.
    for cycle in 0..2u64 {
        let mut edited = Vec::new();
        for s in cycle * 13..(cycle + 1) * 13 {
            let script = serve::session(3, s, benches.len());
            let mut routines: Vec<usize> = script.iter().map(|r| r.routine).collect();
            routines.sort_unstable();
            assert_eq!(routines, (0..benches.len()).collect::<Vec<_>>());
            let edits: Vec<_> = script.iter().filter(|r| r.edit.is_some()).collect();
            assert_eq!(edits.len(), 1);
            assert_eq!(edits[0].edit, Some(serve::EDIT_BASE + s));
            edited.push(edits[0].routine);
        }
        edited.sort_unstable();
        assert_eq!(edited, (0..benches.len()).collect::<Vec<_>>());
    }
}

#[test]
fn metric_names_are_legal_and_match_the_benchmark_file() {
    let spec = ipet_trace::parse_json(&repo_file("BENCHMARK.json")).expect("BENCHMARK.json parses");
    let names = |key: &str| -> Vec<(String, String)> {
        spec.get(key)
            .and_then(|v| v.as_arr())
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(|v| v.as_str()).expect(f).to_string();
                (field("name"), field("unit"))
            })
            .collect()
    };
    let ours = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
    };
    assert_eq!(names("end_to_end"), ours(&END_TO_END));
    assert_eq!(names("per_layer"), ours(&PER_LAYER));
    for (name, _) in END_TO_END.iter().chain(&PER_LAYER) {
        assert!(valid_metric_name(name), "{name}");
    }
    assert!(!valid_metric_name("latency ms"));
    assert!(!valid_metric_name(".p50"));
}

#[test]
fn a_wrong_expected_bound_lowers_ok_frac() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCH_baseline.json");
    let expected = suite::baseline(&path).expect("the committed baseline parses");
    assert_eq!(expected.len(), 13);
    let mut wrong = expected.clone();
    wrong[0].2 += 1;
    let cfg = Config { seed: 1, seconds: 0.0, trace: false, cinderella: None, scratch: None };
    let run = suite::run(&cfg, &wrong).expect("suite runs");
    assert!(run.attempted >= 1);
    assert!(run.ok_frac() < 1.0);
    let line = run.to_json(&END_TO_END).expect("all metrics present");
    assert!(line.starts_with("{\"correct\": false"), "{line}");

    let right = suite::run(&cfg, &expected).expect("suite runs");
    assert_eq!(right.ok_frac(), 1.0);
    assert!(right.to_json(&END_TO_END).expect("metrics").starts_with("{\"correct\": true"));
}
