//! The benchmark's own checks: counts repeat exactly for a seed, a second
//! seed passes every output check, and a traced run reports every layer.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::process::Command;

use mtl_sweep::Json;

struct Run {
    counts: String,
    result: Json,
}

fn perfbench(workload: &str, seed: u64, trace: bool) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string(), "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("perfbench starts");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{workload} seed {seed} failed:\n{stdout}");
    let counts =
        stdout.lines().find_map(|l| l.strip_prefix("counts  ")).expect("a counts line").to_string();
    let last = stdout.lines().last().expect("a result line");
    let result = mtl_sweep::json::parse(last).expect("the last line is JSON");
    Run { counts, result }
}

fn assert_correct(run: &Run, what: &str) {
    let get = |k: &str| run.result.get(k).cloned();
    assert_eq!(get("correct"), Some(Json::Bool(true)), "{what}: {}", run.result.to_compact());
    assert_eq!(get("failed").and_then(|f| f.as_u64()), Some(0), "{what}");
    assert!(get("attempted").and_then(|a| a.as_u64()).unwrap_or(0) >= 1, "{what}");
}

fn same_seed_counts_repeat_and_second_seed_passes(workload: &str) {
    let a = perfbench(workload, 1, false);
    let b = perfbench(workload, 1, false);
    let c = perfbench(workload, 2, false);
    for (run, what) in [(&a, "first run"), (&b, "same-seed rerun"), (&c, "second seed")] {
        assert_correct(run, &format!("{workload} {what}"));
    }
    assert!(a.counts.len() > 2, "{workload} reports counts");
    assert_eq!(a.counts, b.counts, "{workload}: same-seed counts differ");
    assert_ne!(a.counts, c.counts, "{workload}: the seed does not reach the inputs");
}

#[test]
fn mesh64_is_deterministic() {
    same_seed_counts_repeat_and_second_seed_passes("mesh64");
}

#[test]
fn soc256_build_is_deterministic() {
    same_seed_counts_repeat_and_second_seed_passes("soc256_build");
}

#[test]
fn fault_serve_is_deterministic() {
    same_seed_counts_repeat_and_second_seed_passes("fault_serve");
}

#[test]
fn traced_run_reports_every_layer_and_writes_a_trace() {
    let run = perfbench("mesh64", 3, true);
    assert_correct(&run, "traced mesh64");
    let metrics = run.result.get("metrics").expect("metrics");
    let keys: Vec<&str> =
        metrics.as_obj().expect("metrics is an object").iter().map(|(k, _)| k.as_str()).collect();
    for layer in ["bench", "mtl-core", "mtl-sim.build", "mtl-sim.opt", "mtl-sim.run", "mtl-net.ref"]
    {
        let key = format!("self.{layer}_s");
        let v = metrics.get(&key).and_then(|m| m.get("value")).and_then(Json::as_f64);
        assert!(v.is_some_and(|v| v > 0.0), "{key} missing or zero: {v:?}");
    }
    for e2e in ["setup_s", "primary_per_s", "secondary_per_s"] {
        assert!(keys.contains(&format!("trace_overhead.{e2e}").as_str()), "overhead of {e2e}");
    }
    let trace = std::fs::read_to_string(".perfbench/trace-mesh64-seed3.json").expect("trace file");
    let doc = mtl_sweep::json::parse(&trace).expect("trace is JSON");
    let events = doc.get("traceEvents").and_then(Json::as_arr).expect("traceEvents");
    assert!(events.iter().all(|e| e.get("ph").and_then(Json::as_str) == Some("X")));
    assert!(events.len() > 20, "{} spans", events.len());
}
