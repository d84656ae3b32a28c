//! The benchmark binary: `perfbench --workload <suite|scale|serve> --seed N
//! --seconds S --trace <0|1> [--cinderella PATH]`.
//!
//! Prints progress and findings on stderr and, as the last line of
//! stdout, one JSON object with `correct`, `attempted`, `failed` and the
//! metrics: the end-to-end ones with `--trace 0`, the per-layer ones with
//! `--trace 1`. Run it through `perfbench/run.sh`, which builds the
//! daemon and this binary first.

use perfbench::{Config, Scratch, END_TO_END, PER_LAYER};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn parse() -> Result<(String, Config), String> {
    let mut workload = None;
    let mut cfg = Config { seed: 1, seconds: 10.0, trace: false, cinderella: None, scratch: None };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        let num = |v: String| v.parse::<f64>().map_err(|e| format!("{flag}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => cfg.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => cfg.seconds = num(value()?)?,
            "--trace" => cfg.trace = value()? == "1",
            "--cinderella" => cfg.cinderella = Some(PathBuf::from(value()?)),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok((workload, cfg))
}

fn main() -> ExitCode {
    let run = || -> Result<String, String> {
        let (workload, mut cfg) = parse()?;
        // Sockets and store files live under the checkout's build
        // directory, on a short relative path.
        cfg.scratch = Some(Scratch::create(Path::new(".bench_build"))?);
        let result = match workload.as_str() {
            "suite" => {
                let expected = perfbench::suite::baseline(Path::new("BENCH_baseline.json"))?;
                perfbench::suite::run(&cfg, &expected)?
            }
            "scale" => perfbench::scale::run(&cfg)?,
            "serve" => perfbench::serve::run(&cfg)?,
            w => return Err(format!("unknown workload {w}; use suite, scale or serve")),
        };
        result.to_json(if cfg.trace { &PER_LAYER } else { &END_TO_END })
    };
    match run() {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
