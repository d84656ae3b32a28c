//! The `experiments` binary's command line: an option the chosen
//! experiment does not take is an error, so a misspelt or retired flag
//! never runs silently, and a reader that closes stdout ends the run
//! quietly.

use std::process::Command;

fn experiments(args: &[&str]) -> (i32, String, String) {
    let out =
        Command::new(env!("CARGO_BIN_EXE_experiments")).args(args).output().expect("binary runs");
    (
        out.status.code().expect("not killed by a signal"),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn unknown_options_exit_1_before_the_experiment_runs() {
    for (args, opt) in [
        (&["counters", "--bogus"][..], "--bogus"),
        (&["tables", "--jobs", "2", "--check"], "--check"),
        (&["counters", "--write"], "--write"),
        (&["fig2", "--tol-wall", "50"], "--tol-wall"),
    ] {
        let (code, stdout, stderr) = experiments(args);
        assert_eq!(code, 1, "{args:?}: {stderr}");
        assert!(stderr.contains(&format!("unexpected option {opt}")), "{args:?}: {stderr}");
        assert!(stdout.is_empty(), "{args:?} ran anyway: {stdout}");
    }
}

#[test]
fn subcommand_and_global_options_are_still_taken() {
    let (code, stdout, stderr) = experiments(&["fig2", "--jobs", "2", "--infer"]);
    assert_eq!(code, 0, "{stderr}");
    assert!(!stdout.is_empty());
    let (code, stdout, stderr) = experiments(&["parametric", "--check", "--jobs", "2"]);
    assert_eq!(code, 0, "{stderr}");
    assert!(stdout.contains("CHECK PASS"), "{stdout}");
    let dir = std::env::temp_dir().join(format!("experiments-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let baseline = dir.join("baseline.json");
    let baseline = baseline.to_str().unwrap();
    let (code, _, stderr) = experiments(&["gate", "--write", baseline]);
    assert_eq!(code, 0, "{stderr}");
    let (code, stdout, stderr) = experiments(&["gate", baseline, "--tol-wall", "100000"]);
    assert_eq!(code, 0, "{stderr}");
    assert!(stdout.contains("gate: PASS"), "{stdout}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_reader_that_stops_early_ends_the_run_quietly() {
    use std::io::Read;
    use std::process::Stdio;
    // `experiments table1 | head -0`: the reader closes the pipe before
    // the first line is written, so every write fails with EPIPE. The run
    // must end with 141 and say nothing, not panic with 101.
    let mut child = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .arg("table1")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    drop(child.stdout.take());
    let mut stderr = String::new();
    child.stderr.take().unwrap().read_to_string(&mut stderr).expect("stderr");
    let status = child.wait().expect("child exits");
    assert_eq!(status.code(), Some(141), "{stderr}");
    assert!(stderr.is_empty(), "{stderr}");
}
