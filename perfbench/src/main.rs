//! The RustMTL benchmark: one command, three workloads.
//!
//! ```text
//! perfbench --workload <mesh64|soc256_build|fault_serve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints the host record, every end-to-end metric by name with its
//! unit, the deterministic counts and the per-layer timings, then as the
//! last line one JSON object: `{"correct", "attempted", "failed",
//! "metrics"}`. With `--trace 0` the metrics are the end-to-end slots of
//! `BENCHMARK.json`; with `--trace 1` the workload runs once untraced and
//! once traced, the metrics are the per-layer numbers, and the span tree
//! is written as Chrome trace-event JSON under `.perfbench/`. A wrong
//! output exits 1; a bad invocation or environment exits 2. See
//! `perfbench/README.md`.

mod fault_serve;
mod hostref;
mod mesh64;
mod report;
mod soc256;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use mtl_sweep::Json;

use report::Report;
use trace::{Tracer, LAYERS};

const WORKLOADS: [&str; 3] = ["mesh64", "soc256_build", "fault_serve"];

/// Knobs that change what the simulator does; the benchmark measures the
/// default configuration only.
const REFUSED_ENV: [&str; 3] = ["MTL_TAPE_OPT", "MTL_SIM_THREADS", "MTL_LINT"];

/// Runtime files (trace output, server scratch) stay in the checkout.
const OUT_DIR: &str = ".perfbench";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let i = argv.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        argv.get(i + 1).map(String::as_str).ok_or(format!("{flag} needs a value"))
    };
    let number = |flag: &str| -> Result<u64, String> {
        get(flag)?.parse().map_err(|e| format!("{flag}: {e}"))
    };
    let workload = get("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}; expected one of {WORKLOADS:?}"));
    }
    let seconds = number("--seconds")?;
    if seconds == 0 || seconds > 600 {
        return Err(format!("--seconds must be 1..=600, got {seconds}"));
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Args { workload, seed: number("--seed")?, seconds, trace })
}

/// The checkout's git revision, read from `.git` in the working
/// directory only; "unknown" in an exported tree.
fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else { return "unknown".to_string() };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else { return head.to_string() };
    read(reference)
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read("packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn host_record() -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut host = Json::obj();
    host.set("rev", git_rev()).set("nproc", nproc).set("cpu", cpu);
    host
}

/// One pass of a workload. `seconds` fixes the amount of work, never a
/// deadline, so every count repeats exactly for a seed.
fn run_workload(args: &Args, t: &mut Tracer, pass: &str) -> Report {
    let root = t.begin("bench", &args.workload, 0);
    let report = match args.workload.as_str() {
        "mesh64" => mesh64::run(t, args.seed, args.seconds),
        // One repetition per four seconds asked for; each takes about five
        // on a 2-core Xeon, reference slices included.
        "soc256_build" => soc256::run(t, args.seed, args.seconds.div_ceil(4)),
        "fault_serve" => {
            let scratch = PathBuf::from(OUT_DIR).join(format!("{}-{pass}", std::process::id()));
            let r = fault_serve::run(t, args.seed, args.seconds, &scratch);
            let _ = std::fs::remove_dir(&scratch);
            r
        }
        _ => unreachable!("workload names are checked in parse_args"),
    };
    t.end(root);
    report
}

/// The `BENCHMARK.json` end-to-end metrics, host-normalized.
fn end_to_end(r: &Report) -> [(&'static str, f64, &'static str); 3] {
    [
        ("setup_s", r.setup_s, "s"),
        ("primary_per_s", r.primary_per_s, "1/s"),
        ("secondary_per_s", r.secondary_per_s, "1/s"),
    ]
}

/// Every per-layer metric; a layer a workload never calls reads 0.
const PER_LAYER: [(&str, &str); 53] = [
    ("core.elaborate_s", "s"),
    ("core.signals", "count"),
    ("core.blocks", "count"),
    ("translate.emit_s", "s"),
    ("translate.parse_s", "s"),
    ("translate.verilog_bytes", "count"),
    ("sim.construct_s", "s"),
    ("sim.cgen_s", "s"),
    ("sim.comp_s", "s"),
    ("sim.simc_s", "s"),
    ("opt.tapes", "count"),
    ("opt.rounds", "count"),
    ("opt.ops_before", "count"),
    ("opt.ops_after", "count"),
    ("opt.regs_after", "count"),
    ("sim.rtl_run_s", "s"),
    ("sim.cl_run_s", "s"),
    ("sim.soc_run_s", "s"),
    ("sim.rtl_ns_per_op", "ns"),
    ("mesh.rtl.injected", "count"),
    ("mesh.rtl.received", "count"),
    ("mesh.rtl.total_latency", "count"),
    ("mesh.rtl.misrouted", "count"),
    ("mesh.cl.injected", "count"),
    ("mesh.cl.received", "count"),
    ("mesh.cl.total_latency", "count"),
    ("mesh.cl.misrouted", "count"),
    ("soc.drain_cycles", "count"),
    ("soc.delivered", "count"),
    ("net.handwritten_cycles_per_s", "cyc/s"),
    ("fault.batch_trials_per_s", "trials/s"),
    ("fault.scalar_trials_per_s", "trials/s"),
    ("fault.trials", "count"),
    ("fault.masked", "count"),
    ("fault.silent", "count"),
    ("fault.detected", "count"),
    ("sweep.job_wall_s", "s"),
    ("sweep.attempts", "count"),
    ("sweep.replayed", "count"),
    ("sweep.failed", "count"),
    ("sweep.fallbacks", "count"),
    ("serve.overhead_s", "s"),
    ("serve.tape_hit_ratio", "ratio"),
    ("serve.design_hits", "count"),
    ("raw.setup_s", "s"),
    ("raw.rtl_cycles_per_s", "cyc/s"),
    ("raw.cl_cycles_per_s", "cyc/s"),
    ("raw.rtl_gap_x", "ratio"),
    ("raw.soc_cycles_per_s", "cyc/s"),
    ("raw.verilog_s", "s"),
    ("raw.fault_trials_per_s", "trials/s"),
    ("raw.campaign_s_p50", "s"),
    ("raw.resume_s_p50", "s"),
];

fn metric(value: f64, unit: &str) -> Json {
    let mut m = Json::obj();
    m.set("value", value).set("unit", unit);
    m
}

fn failed_frac(r: &Report) -> f64 {
    r.failures.len() as f64 / r.attempted.max(1) as f64
}

fn print_report(workload: &str, r: &Report, rss_mb: f64) {
    let e2e = r
        .named
        .iter()
        .copied()
        .chain([("peak_rss_mb", rss_mb, "MiB"), ("failed_frac", failed_frac(r), "fraction")]);
    for (name, value, unit) in e2e {
        println!("e2e     {workload:13} {name:20} {value:>14.6} {unit}");
    }
    for (name, value, unit) in end_to_end(r) {
        println!("norm    {workload:13} {name:20} {value:>14.6} {unit}");
    }
    let mut counts = Json::obj();
    for (k, v) in &r.counts {
        counts.set(k.as_str(), *v);
    }
    let mut timings = Json::obj();
    for (k, (v, unit)) in &r.timings {
        timings.set(k.as_str(), metric(*v, unit));
    }
    println!("counts  {}", counts.to_compact());
    println!("timings {}", timings.to_compact());
    for f in &r.failures {
        println!("FAILED  {f}");
    }
    for w in &r.wrong {
        println!("WRONG   {w}");
    }
}

/// The per-layer metrics of a traced pass; a layer the workload never
/// calls reads 0.
fn per_layer(
    rt: &Report,
    traced: &Tracer,
    overhead: &[(&'static str, f64, &'static str)],
    rss_mb: f64,
) -> Json {
    let mut values: BTreeMap<String, (f64, &str)> =
        PER_LAYER.iter().map(|(k, unit)| (k.to_string(), (0.0, *unit))).collect();
    let counts = rt.counts.iter().map(|(k, v)| (k, *v as f64));
    let timings = rt.timings.iter().map(|(k, (v, _))| (k, *v));
    for (k, v) in counts.chain(timings) {
        if let Some(slot) = values.get_mut(k) {
            slot.0 = v;
        }
    }
    for (name, v, _) in &rt.named {
        if let Some(slot) = values.get_mut(&format!("raw.{name}")) {
            slot.0 = *v;
        }
    }
    values.insert("host.peak_rss_mb".to_string(), (rss_mb, "MiB"));
    values.insert("failed_frac".to_string(), (failed_frac(rt), "fraction"));
    for (layer, d) in traced.self_times() {
        values.insert(format!("self.{layer}_s"), (d.as_secs_f64(), "s"));
    }
    for (name, v, unit) in overhead {
        values.insert(format!("trace_overhead.{name}"), (*v, unit));
    }
    let mut metrics = Json::obj();
    for (k, (v, unit)) in &values {
        metrics.set(k.as_str(), metric(*v, unit));
    }
    metrics
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let set: Vec<&str> =
        REFUSED_ENV.iter().copied().filter(|v| std::env::var_os(v).is_some()).collect();
    if !set.is_empty() {
        eprintln!("perfbench: refusing to run with {set:?} set; the benchmark measures the default configuration");
        return ExitCode::from(2);
    }
    if let Err(e) = std::fs::create_dir_all(OUT_DIR) {
        eprintln!("perfbench: creating {OUT_DIR}: {e}");
        return ExitCode::from(2);
    }

    let host = host_record();
    println!("host    {}", host.to_compact());
    println!(
        "run     workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );

    // End-to-end numbers always come from an untraced pass.
    let mut plain = Tracer::new(false);
    let r = run_workload(&args, &mut plain, "plain");
    let rss_mb = report::peak_rss_mb();
    print_report(&args.workload, &r, rss_mb);
    let (mut correct, mut attempted, mut failed) =
        (r.wrong.is_empty(), r.attempted, r.failures.len());

    let metrics = if args.trace {
        let mut traced = Tracer::new(true);
        let rt = run_workload(&args, &mut traced, "traced");
        print_report(&args.workload, &rt, report::peak_rss_mb());
        if rt.counts != r.counts {
            println!("WRONG   traced pass counts differ from the untraced pass");
            correct = false;
        }
        correct &= rt.wrong.is_empty();
        attempted += rt.attempted;
        failed += rt.failures.len();
        let overhead: Vec<_> = end_to_end(&r)
            .into_iter()
            .zip(end_to_end(&rt))
            .map(|((name, plain_v, unit), (_, traced_v, _))| (name, traced_v - plain_v, unit))
            .collect();
        let path =
            PathBuf::from(OUT_DIR).join(format!("trace-{}-seed{}.json", args.workload, args.seed));
        let mut doc = traced.chrome_json();
        doc.set("otherData", host.clone());
        match std::fs::write(&path, doc.to_compact()) {
            Ok(()) => println!("trace   {} ({} layers)", path.display(), LAYERS.len()),
            Err(e) => {
                println!("WRONG   writing {}: {e}", path.display());
                correct = false;
            }
        }
        per_layer(&rt, &traced, &overhead, rss_mb)
    } else {
        let mut metrics = Json::obj();
        for (name, value, unit) in end_to_end(&r) {
            metrics.set(name, metric(value, unit));
        }
        metrics
    };

    let mut out = Json::obj();
    out.set("correct", correct)
        .set("attempted", attempted)
        .set("failed", failed)
        .set("metrics", metrics);
    println!("{}", out.to_compact());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
