//! The `experiments` binary's option handling: an option the chosen
//! experiment does not take is an error, so a misspelt or retired flag
//! never runs silently.

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
