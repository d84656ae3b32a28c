//! Two-process coverage for the advisory-lock stale-break race: two
//! processes race to open a store whose lock holder was SIGKILLed (planted
//! as a dead-pid lock file). Exactly one may win `ReadWrite`; the other
//! must degrade to `ReadOnly`; both must load the store cleanly with no
//! quarantined records. A pre-fix `remove_file`-based stale break let both
//! racers win — racer B could delete racer A's freshly created lock.
//!
//! The race partners are copies of this test binary re-invoked with
//! `IPET_STORE_RACE_HELPER` set (the `helper_open_and_report` "test" is
//! the child's entry point and a no-op otherwise). A file barrier keeps
//! both stores open simultaneously, so a fast winner cannot release the
//! lock before the loser arrives.

use ipet_lp::{fingerprint, IlpResolution, IlpStats, ProblemBuilder, Relation, Sense};
use ipet_store::{Store, StoreMode};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ipet-lock-race-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir scratch");
    dir
}

fn toy() -> ipet_lp::Problem {
    let mut b = ProblemBuilder::new(Sense::Maximize);
    let x = b.add_var(true);
    b.objective(x, 1.0);
    b.constraint(vec![(x, 1.0)], Relation::Le, 3.0);
    b.build()
}

fn wait_for(path: &Path, timeout: Duration) -> bool {
    let t0 = Instant::now();
    while t0.elapsed() < timeout {
        if path.exists() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    false
}

/// Child entry point: opens the store named by the environment, holds it
/// across a two-way file barrier, and reports what it got. A no-op when
/// run as part of the normal test suite.
#[test]
fn helper_open_and_report() {
    let Ok(dir) = std::env::var("IPET_STORE_RACE_HELPER") else {
        return;
    };
    let role: usize = std::env::var("IPET_STORE_RACE_ROLE").expect("role").parse().expect("role");
    let dir = PathBuf::from(dir);
    let store = Store::open(dir.join("s.store"));
    // Barrier: announce our open, then hold the store until the peer has
    // opened too (bounded wait so a crashed peer cannot wedge the test).
    std::fs::write(dir.join(format!("opened.{role}")), b"x").expect("announce");
    wait_for(&dir.join(format!("opened.{}", 1 - role)), Duration::from_secs(10));
    println!(
        "RACE role={role} mode={:?} loaded={} quarantined={}",
        store.mode(),
        store.stats().loaded,
        store.stats().quarantined
    );
    drop(store);
}

#[test]
fn two_racers_exactly_one_wins_read_write_after_sigkilled_holder() {
    if !Path::new("/proc").is_dir() {
        eprintln!("lock_race: skipped — no /proc, staleness cannot be detected");
        return;
    }
    let exe = std::env::current_exe().expect("current exe");
    // The race window is scheduling-dependent; several rounds shake it.
    for round in 0..6 {
        let dir = scratch(&format!("r{round}"));
        let path = dir.join("s.store");

        // Seed one durable entry so "no quarantined records" is a
        // meaningful assertion, then simulate a SIGKILLed holder by
        // planting a lock naming a pid that cannot exist.
        {
            let seed = Store::open(&path);
            let p = toy();
            let res = IlpResolution::Exact { x: vec![3.0], value: 3.0 };
            seed.insert(fingerprint(&p), &p, &res, IlpStats::default());
            seed.flush().expect("seed flush");
        }
        let lock = {
            let mut name = path.file_name().unwrap().to_os_string();
            name.push(".lock");
            path.with_file_name(name)
        };
        std::fs::write(&lock, format!("{}", u32::MAX)).expect("plant dead lock");

        let spawn = |role: usize| {
            Command::new(&exe)
                .args(["helper_open_and_report", "--exact", "--nocapture", "--test-threads=1"])
                .env("IPET_STORE_RACE_HELPER", &dir)
                .env("IPET_STORE_RACE_ROLE", role.to_string())
                .stdout(std::process::Stdio::piped())
                .stderr(std::process::Stdio::null())
                .spawn()
                .expect("spawn racer")
        };
        let a = spawn(0);
        let b = spawn(1);
        let out_a = a.wait_with_output().expect("racer 0");
        let out_b = b.wait_with_output().expect("racer 1");
        assert!(out_a.status.success(), "racer 0 failed: {out_a:?}");
        assert!(out_b.status.success(), "racer 1 failed: {out_b:?}");

        let mut modes = Vec::new();
        for out in [&out_a, &out_b] {
            let text = String::from_utf8_lossy(&out.stdout);
            // libtest's unflushed "test ... " prefix can share the line.
            let line = text
                .lines()
                .find_map(|l| l.find("RACE ").map(|at| &l[at..]))
                .unwrap_or_else(|| panic!("no RACE line in: {text}"));
            assert!(line.contains("loaded=1"), "round {round}: seeded entry must load: {line}");
            assert!(
                line.contains("quarantined=0"),
                "round {round}: the race must not damage records: {line}"
            );
            let mode = line
                .split_whitespace()
                .find_map(|f| f.strip_prefix("mode="))
                .expect("mode field")
                .to_string();
            modes.push(mode);
        }
        modes.sort();
        assert_eq!(
            modes,
            vec!["ReadOnly".to_string(), "ReadWrite".to_string()],
            "round {round}: exactly one racer may win read-write"
        );

        // The winner exited and released; the store must be intact and
        // takeable again.
        let after = Store::open(&path);
        assert_eq!(after.mode(), StoreMode::ReadWrite);
        assert_eq!(after.stats().loaded, 1);
        assert_eq!(after.stats().quarantined, 0);
        drop(after);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
