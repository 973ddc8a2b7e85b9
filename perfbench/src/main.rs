//! `perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Prints a human-readable report, then one JSON result line. Exits 1
//! when any job returned a wrong result and 2 on a usage or set-up error.

use perfbench::jobs::{Setup, Workload};
use perfbench::{run, Config};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload count-cold|family-sweep|decompose|out-of-core \
[--seed N] [--seconds S] [--trace 0|1]";

fn num<T: std::str::FromStr>(flag: &str, val: &str) -> Result<T, String> {
    val.parse()
        .map_err(|_| format!("bad value for {flag}: {val}"))
}

fn parse(args: &[String]) -> Result<Config, String> {
    let mut workload = None;
    let mut cfg = Config {
        workload: Workload::CountCold,
        seconds: 12.0,
        trace: false,
        setup: Setup {
            seed: 1,
            scale: 1.0,
            dir: PathBuf::new(),
            corrupt_reference: false,
            force_refusal: false,
        },
        out_dir: PathBuf::from(".perfbench-out"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(val).ok_or_else(|| format!("unknown workload {val}"))?)
            }
            "--seed" => cfg.setup.seed = num(flag, val)?,
            "--seconds" => cfg.seconds = num(flag, val)?,
            "--trace" => {
                cfg.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad value for --trace: {val}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    cfg.workload = workload.ok_or("--workload is required")?;
    cfg.setup.dir = PathBuf::from(".perfbench-work").join(format!(
        "{}-{}",
        cfg.workload.name(),
        std::process::id()
    ));
    Ok(cfg)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = run(&cfg);
    let _ = std::fs::remove_dir_all(&cfg.setup.dir);
    // Only succeeds once no other run is using the parent.
    if let Some(parent) = cfg.setup.dir.parent() {
        let _ = std::fs::remove_dir(parent);
    }
    match result {
        Ok(out) => {
            for l in &out.lines {
                println!("{l}");
            }
            println!("{}", out.json());
            if out.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
