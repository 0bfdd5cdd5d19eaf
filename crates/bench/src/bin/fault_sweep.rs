//! Resilience campaign: seeded fault injection over the mesh network and
//! the accelerator tile at FL/CL/RTL.
//!
//! For each design point this sweep draws seeded random [`FaultPlan`]s
//! (transient bit-flips plus stuck-at faults on injectable nets), runs a
//! golden-vs-faulted differential simulation per plan, and tallies the
//! outcome taxonomy from `EXPERIMENTS.md`: **masked** (no divergence),
//! **silent** (internal state corrupted, outputs clean — the SDC risk
//! class), and **detected** (a top-level output diverged). Alongside the
//! taxonomy it reports mean first-divergence cycle and mean blast radius
//! (how many distinct nets a fault corrupts).
//!
//! Alongside the scalar per-trial series, a **batch series** runs the
//! same taxonomy through the bit-sliced `SpecializedBatch` engine
//! ([`run_diff_batch`]): up to 63 fault plans share one simulation pass,
//! one trial per 64-bit lane with lane 0 golden. Each batch job re-runs
//! its leading plans through scalar [`run_diff`] and fails on any field
//! mismatch, so the throughput claim (`batch_trials_per_sec` /
//! `scalar_trials_per_sec` / `batch_speedup` timing metrics) is backed
//! by an in-campaign agreement check. `--require-batch-speedup X` turns
//! the speedup into a hard exit-code gate for CI.
//!
//! Every taxonomy metric here is deterministic — plans are seeded, traces
//! are engine-independent (`mtl_fault::engine_agreement` is enforced by
//! the test suite) — so unlike the rate-measuring figure binaries these
//! jobs are cacheable and journalable (batch jobs, carrying wall-clock
//! rates, are the exception and stay uncacheable). The campaign exercises the full
//! hardened `mtl-sweep` path: per-job watchdogs, bounded retry, and a
//! checkpoint journal so an interrupted campaign resumes without
//! recomputing finished jobs (`--journal PATH` overrides the location).
//!
//! `--smoke` runs a small FL/CL-only variant (< 2s) used by
//! `scripts/ci/45_fault.sh`, which also kills and resumes it to smoke the
//! checkpoint/resume path. Writes `BENCH_fault.json`
//! (`BENCH_fault_smoke.json` for `--smoke`).
//!
//! `--serve SOCKET` runs the same campaign as a thin client of a running
//! `mtl_serve` daemon (`fault_chunk` jobs from the server registry,
//! which reproduce this binary's plans bit for bit): the daemon's shared
//! compile cache means concurrent sweeps over the same design points
//! compile each design once, and its journal directory owns resume.

use std::time::{Duration, Instant};

use mtl_accel::{TileConfig, TileHarness, XcelLevel};
use mtl_bench::{arg_value, banner, mesh_harness, write_bench_json, write_bench_report};
use mtl_core::Component;
use mtl_fault::{run_diff, run_diff_batch, DiffConfig, FaultPlan, Outcome, PlanSpec};
use mtl_net::{MeshTrafficRtlHarness, NetLevel};
use mtl_proc::{CacheLevel, ProcLevel};
use mtl_serve::Client;
use mtl_sim::{Engine, Sim};
use mtl_sweep::{Campaign, CampaignReport, Job, JobMetrics, Json};

/// One design under fault injection. `Copy` so job closures can rebuild
/// it inside the worker thread (sims never cross threads).
#[derive(Debug, Clone, Copy)]
enum Dut {
    /// Mesh traffic harness at one network level.
    Mesh(NetLevel, usize),
    /// Fully-IR RTL mesh (LFSR traffic generators in hardware, no native
    /// blocks) — the only DUT shape the bit-sliced batch engine accepts.
    MeshIr(usize),
    /// Accelerator tile (uniform level across proc/cache/xcel).
    Tile(ProcLevel, CacheLevel, XcelLevel),
}

impl Dut {
    fn label(&self) -> String {
        match *self {
            Dut::Mesh(level, n) => format!("mesh{n}/{level}"),
            Dut::MeshIr(n) => format!("mesh{n}/rtl-ir"),
            Dut::Tile(p, _, _) => format!("tile/{p}"),
        }
    }

    fn build(&self) -> Box<dyn Component> {
        match *self {
            // Moderate load so faults land on busy logic, not idle wires.
            Dut::Mesh(level, n) => Box::new(mesh_harness(level, n, 200)),
            Dut::MeshIr(n) => Box::new(MeshTrafficRtlHarness::new(n, 200, 0xBEEF)),
            Dut::Tile(p, c, x) => {
                let config = TileConfig { proc: p, cache: c, xcel: x };
                // A few proc2mngr words keep the frontend and cache
                // machinery active through the observation window.
                Box::new(TileHarness::new(config, 1 << 10, vec![3, 1, 4, 1, 5, 9]))
            }
        }
    }
}

struct Spec {
    report_name: &'static str,
    duts: Vec<Dut>,
    /// Independent jobs per design point (journal/resume granularity).
    chunks: u32,
    /// Differential runs per job.
    trials: u64,
    /// Observation window after reset, in cycles.
    cycles: u64,
    /// Faults drawn per plan.
    faults: usize,
    engine: Engine,
    watchdog: Duration,
    /// Native-free DUTs for the bit-sliced batch series ([`run_diff_batch`]:
    /// one `u64` plane word per net bit, one trial per lane). Empty
    /// disables the series.
    batch_duts: Vec<Dut>,
    /// Independent batch bundles per batch DUT.
    batch_chunks: u32,
    /// Fault plans per bundle (at most 63 — lane 0 is the golden).
    batch_trials: u64,
    /// Leading plans per bundle re-run through scalar [`run_diff`]: timed
    /// for the speedup metric and cross-checked field for field against
    /// the batch lanes.
    batch_scalar_sample: u64,
}

impl Spec {
    fn full() -> Spec {
        let uniform = |p, c, x| Dut::Tile(p, c, x);
        Spec {
            report_name: "fault",
            duts: vec![
                Dut::Mesh(NetLevel::Fl, 16),
                Dut::Mesh(NetLevel::Cl, 16),
                Dut::Mesh(NetLevel::Rtl, 16),
                uniform(ProcLevel::Fl, CacheLevel::Fl, XcelLevel::Fl),
                uniform(ProcLevel::Cl, CacheLevel::Cl, XcelLevel::Cl),
                uniform(ProcLevel::Rtl, CacheLevel::Rtl, XcelLevel::Rtl),
            ],
            chunks: 4,
            trials: 6,
            cycles: 200,
            faults: 2,
            engine: Engine::SpecializedOpt,
            watchdog: Duration::from_secs(120),
            batch_duts: vec![Dut::MeshIr(16)],
            batch_chunks: 2,
            batch_trials: 63,
            batch_scalar_sample: 4,
        }
    }

    /// The CI smoke variant: two small designs, four jobs total, so the
    /// kill/resume smoke has several journal entries to replay.
    fn smoke() -> Spec {
        Spec {
            report_name: "fault_smoke",
            duts: vec![
                Dut::Mesh(NetLevel::Cl, 16),
                Dut::Tile(ProcLevel::Fl, CacheLevel::Fl, XcelLevel::Fl),
            ],
            chunks: 2,
            trials: 2,
            cycles: 60,
            faults: 1,
            engine: Engine::Interpreted,
            watchdog: Duration::from_secs(60),
            batch_duts: vec![Dut::MeshIr(4)],
            batch_chunks: 1,
            batch_trials: 15,
            batch_scalar_sample: 2,
        }
    }

    fn job_name(dut: Dut, chunk: u32) -> String {
        format!("{}/chunk{chunk}", dut.label())
    }

    fn batch_job_name(dut: Dut, chunk: u32) -> String {
        format!("{}/batch{chunk}", dut.label())
    }

    fn campaign(&self, journal: &std::path::Path) -> Campaign {
        // The engine configuration is part of the journal identity: a
        // resume under a different scalar engine (or a build where the
        // batch series is disabled) must invalidate the journal rather
        // than splice incompatible results together.
        let batch = if self.batch_duts.is_empty() { "" } else { "+specialized-batch" };
        let mut campaign = Campaign::new(self.report_name)
            .retry(1)
            .journal(journal)
            .engine_config(format!("{}{batch}", self.engine));
        for &dut in &self.duts {
            for chunk in 0..self.chunks {
                campaign = campaign.job(self.fault_job(dut, chunk));
            }
        }
        for &dut in &self.batch_duts {
            for chunk in 0..self.batch_chunks {
                campaign = campaign.job(self.batch_job(dut, chunk));
            }
        }
        campaign
    }

    fn fault_job(&self, dut: Dut, chunk: u32) -> Job {
        let (trials, cycles, faults, engine) = (self.trials, self.cycles, self.faults, self.engine);
        Job::new(Self::job_name(dut, chunk), move |ctx| {
            let top = dut.build();
            // One throwaway elaboration yields the design plans are drawn
            // against; the differential runs build their own simulators.
            let probe = Sim::build(top.as_ref(), Engine::Interpreted)
                .map_err(|e| format!("elaboration failed: {e:?}"))?;
            let window = PlanSpec::new(faults, 2, 1 + cycles.max(1));
            let cfg = DiffConfig::new(engine, cycles);
            let mut tally = Tally::default();
            for trial in 0..trials {
                let seed = mix(ctx.seed, (u64::from(chunk) << 32) | trial);
                let plan = FaultPlan::random(seed, probe.design(), &window);
                let report = run_diff(top.as_ref(), &plan, &cfg)?;
                tally.add(&report);
            }
            Ok(tally.metrics(trials))
        })
        .param("dut", dut.label())
        .param("chunk", chunk)
        .param("engine", engine)
        .param("cycles", cycles)
        .param("faults_per_trial", faults)
        .watchdog(self.watchdog)
    }

    /// One bit-sliced bundle: all `batch_trials` differential runs share a
    /// single `SpecializedBatch` pass (lane 0 golden, one plan per faulty
    /// lane), then the leading `batch_scalar_sample` plans are re-run
    /// through scalar [`run_diff`] — the same per-trial path the scalar
    /// series uses — both as the throughput baseline and as an in-campaign
    /// agreement check. Uncacheable: the speedup is a wall-clock metric.
    fn batch_job(&self, dut: Dut, chunk: u32) -> Job {
        let (trials, cycles, faults) = (self.batch_trials, self.cycles, self.faults);
        let sample = self.batch_scalar_sample.min(trials);
        Job::new(Self::batch_job_name(dut, chunk), move |ctx| {
            let top = dut.build();
            let probe = Sim::build(top.as_ref(), Engine::Interpreted)
                .map_err(|e| format!("elaboration failed: {e:?}"))?;
            let window = PlanSpec::new(faults, 2, 1 + cycles.max(1));
            let plans: Vec<FaultPlan> = (0..trials)
                .map(|t| {
                    let seed = mix(ctx.seed, (u64::from(chunk) << 32) | t);
                    FaultPlan::random(seed, probe.design(), &window)
                })
                .collect();
            drop(probe);
            let t0 = Instant::now();
            let reports = run_diff_batch(top.as_ref(), &plans, cycles)?;
            let batch_secs = t0.elapsed().as_secs_f64().max(1e-9);
            // The baseline is always the strongest scalar engine — the
            // speedup claim is "vs SpecializedOpt", independent of what
            // engine the scalar taxonomy series happens to use.
            let cfg = DiffConfig::new(Engine::SpecializedOpt, cycles);
            let t1 = Instant::now();
            for (i, plan) in plans.iter().take(sample as usize).enumerate() {
                let scalar = run_diff(top.as_ref(), plan, &cfg)?;
                let mut lane = reports[i].clone();
                // Campaign-mode batch reports carry no trace fingerprint.
                lane.trace_fingerprint = scalar.trace_fingerprint;
                if lane != scalar {
                    return Err(format!(
                        "batch lane disagrees with scalar run on trial {i}: \
                         batch {lane:?} vs scalar {scalar:?}"
                    ));
                }
            }
            let scalar_secs = t1.elapsed().as_secs_f64().max(1e-9);
            let mut tally = Tally::default();
            for report in &reports {
                tally.add(report);
            }
            let batch_rate = trials as f64 / batch_secs;
            let scalar_rate = sample as f64 / scalar_secs;
            Ok(tally
                .metrics(trials)
                .det("scalar_sample", sample)
                .timing("batch_trials_per_sec", batch_rate)
                .timing("scalar_trials_per_sec", scalar_rate)
                .timing("batch_speedup", batch_rate / scalar_rate))
        })
        .uncacheable()
        .param("dut", dut.label())
        .param("chunk", chunk)
        .param("engine", Engine::SpecializedBatch)
        .param("cycles", cycles)
        .param("faults_per_trial", faults)
        .watchdog(self.watchdog)
    }

    /// The equivalent campaign as an `mtl-serve` submission spec, using
    /// the server's `fault_chunk` registry kind. Field values mirror
    /// [`Spec::fault_job`] exactly; the journal is forwarded only when
    /// pinned on the command line (otherwise the daemon's
    /// `--journal-dir` owns placement, which is what makes server-side
    /// resume work from any client cwd).
    fn serve_spec(&self, journal: Option<&str>) -> Json {
        let mut spec = Json::obj();
        spec.set("name", self.report_name).set("retries", 1u32);
        if let Some(path) = journal {
            spec.set("journal", path);
        }
        let mut jobs: Vec<Json> = Vec::new();
        for &dut in &self.duts {
            for chunk in 0..self.chunks {
                let mut j = Json::obj();
                j.set("kind", "fault_chunk").set("name", Self::job_name(dut, chunk));
                match dut {
                    Dut::Mesh(level, n) => {
                        j.set("dut", "mesh")
                            .set("level", level.to_string())
                            .set("nrouters", n)
                            .set("injection", 200u32);
                    }
                    Dut::MeshIr(n) => {
                        j.set("dut", "mesh-ir").set("nrouters", n).set("injection", 200u32);
                    }
                    Dut::Tile(p, c, x) => {
                        j.set("dut", "tile")
                            .set("proc", p.to_string())
                            .set("cache", c.to_string())
                            .set("xcel", x.to_string());
                    }
                }
                j.set("chunk", chunk)
                    .set("trials", self.trials)
                    .set("cycles", self.cycles)
                    .set("faults", self.faults)
                    .set("engine", self.engine.to_string())
                    .set("watchdog_ms", self.watchdog.as_millis() as u64);
                jobs.push(j);
            }
        }
        for &dut in &self.batch_duts {
            let n = match dut {
                Dut::MeshIr(n) => n,
                // The server's batch kind only instantiates native-free
                // DUTs; everything else would panic in the batch engine.
                other => unreachable!("batch series on non-IR dut {}", other.label()),
            };
            for chunk in 0..self.batch_chunks {
                let mut j = Json::obj();
                j.set("kind", "fault_batch_chunk")
                    .set("name", Self::batch_job_name(dut, chunk))
                    .set("nrouters", n)
                    .set("injection", 200u32)
                    .set("chunk", chunk)
                    .set("trials", self.batch_trials)
                    .set("scalar_sample", self.batch_scalar_sample)
                    .set("cycles", self.cycles)
                    .set("faults", self.faults)
                    .set("watchdog_ms", self.watchdog.as_millis() as u64);
                jobs.push(j);
            }
        }
        spec.set("jobs", jobs);
        spec
    }

    fn print_table(&self, report: &CampaignReport) {
        self.print_table_with(&|name| report.get(name).and_then(Tally::from_report));
        self.print_batch_table_with(
            &|name| report.get(name).and_then(Tally::from_report),
            &|name, key| report.get(name).and_then(|j| j.f64(key)),
        );
    }

    fn print_table_json(&self, report: &Json) {
        self.print_table_with(&|name| report_job(report, name).and_then(Tally::from_json));
        self.print_batch_table_with(
            &|name| report_job(report, name).and_then(Tally::from_json),
            &|name, key| report_job(report, name)?.get("timing")?.get(key)?.as_f64(),
        );
    }

    fn print_table_with(&self, lookup: &dyn Fn(&str) -> Option<Tally>) {
        println!(
            "\n--- fault taxonomy: {} trials x {} fault(s) per design point, \
             {}-cycle window, {} engine ---",
            self.trials * u64::from(self.chunks),
            self.faults,
            self.cycles,
            self.engine,
        );
        println!(
            "{:<12} {:>7} {:>7} {:>7} {:>9} {:>14} {:>12}",
            "design", "masked", "silent", "detect", "injected", "mean div cycle", "mean blast"
        );
        for &dut in &self.duts {
            let mut total = Tally::default();
            let mut failed = false;
            for chunk in 0..self.chunks {
                match lookup(&Self::job_name(dut, chunk)) {
                    Some(t) => total.merge(&t),
                    None => failed = true,
                }
            }
            let div = if total.diverged > 0 {
                format!("{:>14.1}", total.sum_first_div as f64 / total.diverged as f64)
            } else {
                format!("{:>14}", "-")
            };
            let blast = if total.diverged > 0 {
                format!("{:>12.1}", total.sum_blast as f64 / total.diverged as f64)
            } else {
                format!("{:>12}", "-")
            };
            println!(
                "{:<12} {:>7} {:>7} {:>7} {:>9} {div} {blast}{}",
                dut.label(),
                total.masked,
                total.silent,
                total.detected,
                total.injected_bits,
                if failed { "   (some chunks failed)" } else { "" },
            );
        }
    }

    /// The bit-sliced series: outcome taxonomy plus campaign throughput
    /// (trials/sec, batch vs scalar). Rates are averaged across chunks.
    fn print_batch_table_with(
        &self,
        lookup: &dyn Fn(&str) -> Option<Tally>,
        timing: &dyn Fn(&str, &str) -> Option<f64>,
    ) {
        if self.batch_duts.is_empty() {
            return;
        }
        println!(
            "\n--- batch series: {}-lane bit-sliced differential, {} chunk(s), \
             scalar baseline specialized-opt ---",
            self.batch_trials + 1,
            self.batch_chunks,
        );
        println!(
            "{:<14} {:>7} {:>7} {:>7} {:>13} {:>13} {:>9}",
            "design", "masked", "silent", "detect", "batch tr/s", "scalar tr/s", "speedup"
        );
        for &dut in &self.batch_duts {
            let mut total = Tally::default();
            let (mut batch_rate, mut scalar_rate, mut rated, mut failed) = (0.0, 0.0, 0u32, false);
            for chunk in 0..self.batch_chunks {
                let name = Self::batch_job_name(dut, chunk);
                match (lookup(&name), timing(&name, "batch_trials_per_sec")) {
                    (Some(t), Some(b)) => {
                        total.merge(&t);
                        batch_rate += b;
                        scalar_rate += timing(&name, "scalar_trials_per_sec").unwrap_or(0.0);
                        rated += 1;
                    }
                    _ => failed = true,
                }
            }
            let (b, s) = if rated > 0 {
                (batch_rate / f64::from(rated), scalar_rate / f64::from(rated))
            } else {
                (0.0, 0.0)
            };
            let speedup = if s > 0.0 { format!("{:>8.1}x", b / s) } else { format!("{:>9}", "-") };
            println!(
                "{:<14} {:>7} {:>7} {:>7} {:>13.1} {:>13.1} {speedup}{}",
                dut.label(),
                total.masked,
                total.silent,
                total.detected,
                b,
                s,
                if failed { "   (some chunks failed)" } else { "" },
            );
        }
    }

    /// The minimum batch-vs-scalar speedup across every batch job, for
    /// the CI gate (`--require-batch-speedup X`). `None` when any batch
    /// job is missing its timing metrics (failed or didn't run).
    fn min_batch_speedup(&self, report: &CampaignReport) -> Option<f64> {
        let mut min: Option<f64> = None;
        for &dut in &self.batch_duts {
            for chunk in 0..self.batch_chunks {
                let name = Self::batch_job_name(dut, chunk);
                let s = report.get(&name)?.f64("batch_speedup")?;
                min = Some(min.map_or(s, |m: f64| m.min(s)));
            }
        }
        min
    }
}

/// Running outcome totals for one or more jobs.
#[derive(Debug, Default)]
struct Tally {
    masked: u64,
    silent: u64,
    detected: u64,
    /// Trials that diverged at all (silent + detected).
    diverged: u64,
    sum_first_div: u64,
    sum_blast: u64,
    injected_bits: u64,
}

impl Tally {
    fn add(&mut self, r: &mtl_fault::FaultReport) {
        match r.outcome {
            Outcome::Masked => self.masked += 1,
            Outcome::Silent => self.silent += 1,
            Outcome::Detected => self.detected += 1,
        }
        if let Some(c) = r.first_divergence {
            self.diverged += 1;
            self.sum_first_div += c;
            self.sum_blast += r.blast_radius.len() as u64;
        }
        self.injected_bits += r.injected_bits;
    }

    fn merge(&mut self, other: &Tally) {
        self.masked += other.masked;
        self.silent += other.silent;
        self.detected += other.detected;
        self.diverged += other.diverged;
        self.sum_first_div += other.sum_first_div;
        self.sum_blast += other.sum_blast;
        self.injected_bits += other.injected_bits;
    }

    fn metrics(&self, trials: u64) -> JobMetrics {
        JobMetrics::new()
            .det("trials", trials)
            .det("masked", self.masked)
            .det("silent", self.silent)
            .det("detected", self.detected)
            .det("diverged", self.diverged)
            .det("sum_first_divergence", self.sum_first_div)
            .det("sum_blast_radius", self.sum_blast)
            .det("injected_bits", self.injected_bits)
    }

    fn from_report(job: &mtl_sweep::JobReport) -> Option<Tally> {
        Some(Tally {
            masked: job.u64("masked")?,
            silent: job.u64("silent")?,
            detected: job.u64("detected")?,
            diverged: job.u64("diverged")?,
            sum_first_div: job.u64("sum_first_divergence")?,
            sum_blast: job.u64("sum_blast_radius")?,
            injected_bits: job.u64("injected_bits")?,
        })
    }

    /// The same extraction from a server-side report document (one
    /// entry of the report's `jobs` array).
    fn from_json(job: &Json) -> Option<Tally> {
        let metrics = job.get("metrics")?;
        let m = |key: &str| metrics.get(key).and_then(Json::as_u64);
        Some(Tally {
            masked: m("masked")?,
            silent: m("silent")?,
            detected: m("detected")?,
            diverged: m("diverged")?,
            sum_first_div: m("sum_first_divergence")?,
            sum_blast: m("sum_blast_radius")?,
            injected_bits: m("injected_bits")?,
        })
    }
}

/// Finds one job entry by name in a server-side campaign report.
fn report_job<'a>(report: &'a Json, name: &str) -> Option<&'a Json> {
    report
        .get("jobs")?
        .as_arr()?
        .iter()
        .find(|j| j.get("name").and_then(Json::as_str) == Some(name))
}

/// Runs the campaign as a thin client of an `mtl_serve` daemon and
/// prints the same table and summary lines as a standalone run.
fn run_serve(spec: &Spec, socket: &str, journal: Option<&str>) -> Result<(), String> {
    let mut client =
        Client::connect(socket.as_ref()).map_err(|e| format!("cannot connect to {socket}: {e}"))?;
    client.hello()?;
    println!("(serve mode: campaign submitted to {socket})");
    let report = client.submit(&spec.serve_spec(journal), |event| {
        let s = |k: &str| event.get(k).and_then(Json::as_str).unwrap_or("?").to_string();
        let n = |k: &str| event.get(k).and_then(Json::as_u64).unwrap_or(0);
        println!("  [{}/{}] {}: {}", n("done"), n("total"), s("job"), s("outcome"));
    })?;
    spec.print_table_json(&report);
    let jobs = report.get("jobs").and_then(Json::as_arr).unwrap_or(&[]);
    let count = |pred: &dyn Fn(&Json) -> bool| jobs.iter().filter(|j| pred(j)).count();
    let flag = |j: &Json, k: &str| j.get(k).and_then(Json::as_bool).unwrap_or(false);
    println!(
        "\n{} replayed from journal, {} cached, {} executed, {} timed out",
        count(&|j| flag(j, "replayed")),
        count(&|j| flag(j, "cached")),
        count(&|j| j.get("attempts").and_then(Json::as_u64).unwrap_or(0) > 0),
        count(&|j| j.get("outcome").and_then(Json::as_str) == Some("timed_out")),
    );
    write_bench_json(&report, spec.report_name);
    Ok(())
}

/// SplitMix64 finalizer: decorrelates per-trial plan seeds from the
/// campaign seed and trial index.
fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let mut spec = if smoke { Spec::smoke() } else { Spec::full() };
    // Tight watchdogs for the CI hang smoke (scripts/ci/45_fault.sh);
    // production campaigns keep the generous defaults.
    if let Some(ms) = arg_value("--watchdog-ms").and_then(|v| v.parse().ok()) {
        spec.watchdog = Duration::from_millis(ms);
    }
    banner("Fault-injection resilience campaign", "EXPERIMENTS.md, fault taxonomy");
    if let Some(socket) = arg_value("--serve") {
        let journal = arg_value("--journal");
        if let Err(e) = run_serve(&spec, &socket, journal.as_deref()) {
            eprintln!("fault_sweep --serve: {e}");
            std::process::exit(1);
        }
        return;
    }
    let journal = arg_value("--journal")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| format!("target/sweep-journal/{}.jsonl", spec.report_name).into());
    let report = spec.campaign(&journal).run();
    spec.print_table(&report);
    println!(
        "\n{} replayed from journal, {} cached, {} executed, {} timed out",
        report.replayed_count(),
        report.cached_count(),
        report.executed_count(),
        report.timed_out_count(),
    );
    write_bench_report(&report, spec.report_name);
    // CI gate (scripts/ci/25_batch.sh): the bit-sliced series must beat
    // the scalar baseline by at least the given factor.
    if let Some(min) = arg_value("--require-batch-speedup").and_then(|v| v.parse::<f64>().ok()) {
        match spec.min_batch_speedup(&report) {
            Some(s) if s >= min => println!("batch speedup gate: {s:.1}x >= {min}x"),
            Some(s) => {
                eprintln!("batch speedup gate FAILED: {s:.1}x < {min}x");
                std::process::exit(1);
            }
            None => {
                eprintln!("batch speedup gate FAILED: batch jobs missing timing metrics");
                std::process::exit(1);
            }
        }
    }
}
