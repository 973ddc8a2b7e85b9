//! The benchmark's own checks, at a tiny scale: every workload runs in
//! both modes and prints exactly the metrics `BENCHMARK.json` names, a
//! corrupted reference is caught, and a forced typed refusal is counted
//! without stopping the run.

use bfly_core::telemetry::Json;
use perfbench::jobs::{cycle, Setup, Workload};
use perfbench::{run, Config, Outcome};
use std::path::PathBuf;

/// Shapes every workload draws from.
const SHAPES: usize = 5;

fn config(w: Workload, trace: bool, tag: &str) -> Config {
    let base = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("{}-{tag}", w.name()));
    Config {
        workload: w,
        seconds: 0.0,
        trace,
        setup: Setup {
            seed: 7,
            scale: 0.02,
            dir: base.join("work"),
            corrupt_reference: false,
            force_refusal: false,
        },
        out_dir: base.join("out"),
    }
}

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    doc.get(list)
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn printed(out: &Outcome) -> Vec<(String, String)> {
    out.metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect()
}

/// The result line parses back with the declared metrics.
fn check_json(out: &Outcome) {
    let doc = Json::parse(&out.json()).unwrap();
    assert_eq!(
        doc.get("correct").and_then(Json::as_bool),
        Some(out.correct)
    );
    assert_eq!(
        doc.get("attempted").and_then(Json::as_u64),
        Some(out.attempted)
    );
    let metrics = doc.get("metrics").and_then(Json::as_obj).unwrap();
    assert_eq!(metrics.len(), out.metrics.len());
    for (name, m) in metrics {
        assert!(m.get("value").and_then(Json::as_f64).is_some(), "{name}");
    }
}

#[test]
fn every_workload_prints_every_declared_metric() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    for w in Workload::ALL {
        let out = run(&config(w, false, "e2e")).unwrap();
        assert!(
            out.correct && out.failed == 0,
            "{}: {:?}",
            w.name(),
            out.lines
        );
        assert!(out.attempted > 0);
        assert_eq!(printed(&out), end_to_end, "{}", w.name());
        for m in &out.metrics {
            assert!(m.value > 0.0, "{}: {} is {}", w.name(), m.name, m.value);
        }
        check_json(&out);

        let traced = run(&config(w, true, "trace")).unwrap();
        assert!(traced.correct && traced.failed == 0, "{}", w.name());
        assert_eq!(printed(&traced), per_layer, "{}", w.name());
        check_json(&traced);
    }
}

#[test]
fn traced_run_fills_the_layers_its_workload_exercises() {
    let value = |out: &Outcome, name: &str| {
        out.metrics
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("{name} missing"))
            .value
    };
    let cold = run(&config(Workload::CountCold, true, "layers")).unwrap();
    for name in [
        "graph.io.load_s",
        "core.validate_s",
        "core.adaptive.select_s",
        "core.adaptive.regret",
        "telemetry.overhead_ratio",
    ] {
        assert!(value(&cold, name) > 0.0, "{name}");
    }
    assert_eq!(value(&cold, "graph.bfly_format.convert_s"), 0.0);

    let ooc = run(&config(Workload::OutOfCore, true, "layers")).unwrap();
    for name in [
        "graph.bfly_format.convert_s",
        "core.family.sharded.count_s",
        "core.checkpoint.resume_s",
        "core.checkpoint.written",
        "core.checkpoint.skipped",
    ] {
        assert!(value(&ooc, name) > 0.0, "{name}");
    }
    assert_eq!(value(&ooc, "graph.io.load_s"), 0.0);

    let peel = run(&config(Workload::Decompose, true, "layers")).unwrap();
    for name in ["core.peel.tip_s", "core.peel.wing_s", "core.peel.rounds"] {
        assert!(value(&peel, name) > 0.0, "{name}");
    }
}

#[test]
fn corrupted_reference_is_a_wrong_result() {
    for w in Workload::ALL {
        let mut cfg = config(w, false, "corrupt");
        cfg.setup.corrupt_reference = true;
        let out = run(&cfg).unwrap();
        assert!(!out.correct, "{}", w.name());
        assert!(out.failed >= 1, "{}", w.name());
        assert!(
            out.lines.iter().any(|l| l.starts_with("FAILED")),
            "{}",
            w.name()
        );
    }
}

#[test]
fn forced_refusal_raises_failed_ratio_without_aborting() {
    let plain = run(&config(Workload::OutOfCore, false, "plain")).unwrap();
    let mut cfg = config(Workload::OutOfCore, false, "refuse");
    cfg.setup.force_refusal = true;
    let out = run(&cfg).unwrap();
    // A refusal is a failed job, not a wrong result: exactly the forced
    // job fails, once per cycle.
    assert!(out.correct);
    let cycles = out.attempted / cycle(Workload::OutOfCore, SHAPES).len() as u64;
    assert!(cycles >= 1);
    assert_eq!(out.failed, cycles);
    // Every later job still ran.
    assert_eq!(out.attempted, plain.attempted);
    let tally = format!("{} of {} jobs failed", out.failed, out.attempted);
    assert!(out
        .lines
        .iter()
        .any(|l| l.contains("failed_ratio") && l.contains(&tally)));
}
