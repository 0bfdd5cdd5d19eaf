//! Multi-tile SoC campaign: composed proc+accel tiles on 16/64/256-router
//! meshes, swept over tile count × abstraction level × traffic pattern.
//!
//! Two job families cover the two SoC personalities from `mtl-soc`:
//!
//! * **Synthetic** points elaborate N hardware traffic-generating tiles
//!   (LFSR-seeded, IR-native) on the mesh and run until the bounded
//!   workload drains, reporting drain cycles and the delivery checksum.
//!   Every job self-checks the checksum against the host golden model —
//!   the workload is a pure function of the seed, never of timing — so a
//!   level or engine that perturbs *functionality* (rather than timing)
//!   fails the campaign instead of skewing a number.
//! * **Compute** points elaborate full proc+cache+xcel tiles whose
//!   memory traffic travels as mesh packets through per-tile network
//!   adapters, run the distributed XOR-reduction workload to halt, and
//!   self-check per-tile results against the host model.
//!
//! All jobs are deterministic (seeded designs, engine-independent
//! results — enforced by `tests/engine_equivalence.rs` on the composed
//! design), hence cacheable and journalable through the hardened
//! `mtl-sweep` path (per-job watchdogs, bounded retry, checkpoint
//! journal; `--journal PATH` overrides the location). Writes
//! `BENCH_soc.json` (`BENCH_soc_smoke.json` for `--smoke`).
//!
//! `--smoke` runs a 4-tile-only variant used by `scripts/ci/60_soc.sh`.
//!
//! `--verify-engines` is the CI engine-agreement gate on the *composed*
//! design: 16-tile SoCs at CL and RTL run under Interpreted,
//! Specialized, and SpecializedOpt and every outcome field
//! (drain cycle, checksum, packet counts) must agree exactly; any
//! disagreement exits nonzero. This is the acceptance bar that engine
//! choice stays a performance knob on hierarchical compositions.
//!
//! `--serve SOCKET` runs the same campaign as a thin client of a running
//! `mtl_serve` daemon (`soc_cycles` jobs from the server registry, which
//! reproduce this binary's jobs bit for bit): the daemon's shared
//! compile cache means concurrent sweeps over the same design points
//! compile each SoC once, and its journal directory owns resume.

use std::time::Duration;

use mtl_accel::{TileConfig, XcelLevel};
use mtl_bench::{arg_value, banner, write_bench_json, write_bench_report};
use mtl_net::NetLevel;
use mtl_proc::{CacheLevel, ProcLevel};
use mtl_serve::Client;
use mtl_sim::{Engine, Sim};
use mtl_soc::{run_soc_compute_on, run_soc_traffic_on, Soc, SocConfig, SocTraffic, TrafficOutcome};
use mtl_sweep::{Campaign, CampaignReport, Job, JobMetrics, Json};

/// One synthetic design point. `Copy` so job closures can rebuild it
/// inside the worker thread (sims never cross threads).
#[derive(Debug, Clone, Copy)]
struct SynPoint {
    tiles: usize,
    net: NetLevel,
    pattern: SocTraffic,
    limit: u32,
}

impl SynPoint {
    fn label(&self) -> String {
        format!("soc{}/{}/{}", self.tiles, self.net, self.pattern)
    }
}

/// One compute design point (uniform tile level).
#[derive(Debug, Clone, Copy)]
struct CmpPoint {
    tiles: usize,
    tile: TileConfig,
    net: NetLevel,
    accesses: usize,
}

impl CmpPoint {
    fn label(&self) -> String {
        format!("soc{}/{}/cmp", self.tiles, self.net)
    }
}

struct Spec {
    report_name: &'static str,
    syn: Vec<SynPoint>,
    cmp: Vec<CmpPoint>,
    /// Simulation budget per job, in cycles.
    cycles: u64,
    engine: Engine,
    watchdog: Duration,
}

/// Uniform tile config at one level.
fn uniform(p: ProcLevel, c: CacheLevel, x: XcelLevel) -> TileConfig {
    TileConfig { proc: p, cache: c, xcel: x }
}

impl Spec {
    /// The full campaign: {4, 16, 64} tiles × {CL, RTL} × three traffic
    /// patterns synthetic, plus compute points at both levels.
    fn full() -> Spec {
        let mut syn = Vec::new();
        for tiles in [4usize, 16, 64] {
            for net in [NetLevel::Cl, NetLevel::Rtl] {
                for pattern in [SocTraffic::UniformRandom, SocTraffic::Hotspot, SocTraffic::Tornado]
                {
                    syn.push(SynPoint { tiles, net, pattern, limit: 32 });
                }
            }
        }
        let cl = uniform(ProcLevel::Cl, CacheLevel::Cl, XcelLevel::Cl);
        let rtl = uniform(ProcLevel::Rtl, CacheLevel::Rtl, XcelLevel::Rtl);
        let mut cmp = Vec::new();
        for tiles in [4usize, 16] {
            for (tile, net) in [(cl, NetLevel::Cl), (rtl, NetLevel::Rtl)] {
                cmp.push(CmpPoint { tiles, tile, net, accesses: 8 });
            }
        }
        Spec {
            report_name: "soc",
            syn,
            cmp,
            cycles: 60_000,
            engine: Engine::SpecializedOpt,
            watchdog: Duration::from_secs(180),
        }
    }

    /// The CI smoke variant (`scripts/ci/60_soc.sh`): 4-tile points only.
    fn smoke() -> Spec {
        Spec {
            report_name: "soc_smoke",
            syn: vec![
                SynPoint {
                    tiles: 4,
                    net: NetLevel::Cl,
                    pattern: SocTraffic::UniformRandom,
                    limit: 16,
                },
                SynPoint { tiles: 4, net: NetLevel::Rtl, pattern: SocTraffic::Tornado, limit: 16 },
            ],
            cmp: vec![CmpPoint {
                tiles: 4,
                tile: uniform(ProcLevel::Rtl, CacheLevel::Rtl, XcelLevel::Rtl),
                net: NetLevel::Rtl,
                accesses: 4,
            }],
            cycles: 30_000,
            engine: Engine::SpecializedOpt,
            watchdog: Duration::from_secs(90),
        }
    }

    fn campaign(&self, journal: &std::path::Path) -> Campaign {
        let mut campaign = Campaign::new(self.report_name).retry(1).journal(journal);
        for &p in &self.syn {
            campaign = campaign.job(self.syn_job(p));
        }
        for &p in &self.cmp {
            campaign = campaign.job(self.cmp_job(p));
        }
        campaign
    }

    fn syn_job(&self, p: SynPoint) -> Job {
        let (cycles, engine) = (self.cycles, self.engine);
        Job::new(p.label(), move |_ctx| {
            let soc = Soc::new(SocConfig::synthetic(p.tiles, p.net, p.pattern).with_limit(p.limit));
            let sim = Sim::build(&soc, engine).map_err(|e| format!("elaboration failed: {e:?}"))?;
            let out = run_soc_traffic_on(&soc, sim, cycles);
            let golden = u64::from(soc.golden_checksum().expect("synthetic workload"));
            if !out.drained {
                return Err(format!("workload failed to drain in {cycles} cycles: {out:?}"));
            }
            if u64::from(out.checksum) != golden {
                return Err(format!(
                    "checksum {:#x} disagrees with host golden {golden:#x}",
                    out.checksum
                ));
            }
            Ok(JobMetrics::new()
                .det("cycles", out.cycles)
                .det("drained", u64::from(out.drained))
                .det("checksum", u64::from(out.checksum))
                .det("injected", out.injected)
                .det("delivered", out.delivered))
        })
        .param("workload", "synthetic")
        .param("tiles", p.tiles)
        .param("net", p.net)
        .param("pattern", p.pattern)
        .param("limit", p.limit)
        .param("engine", engine)
        .watchdog(self.watchdog)
    }

    fn cmp_job(&self, p: CmpPoint) -> Job {
        let (cycles, engine) = (self.cycles, self.engine);
        Job::new(p.label(), move |_ctx| {
            let soc = Soc::new(
                SocConfig::compute(p.tiles, p.tile, p.net, SocTraffic::Tornado)
                    .with_accesses(p.accesses),
            );
            let sim = Sim::build(&soc, engine).map_err(|e| format!("elaboration failed: {e:?}"))?;
            let out = run_soc_compute_on(&soc, sim, cycles);
            if !out.halted {
                return Err(format!("tiles failed to halt in {cycles} cycles: {out:?}"));
            }
            if out.results != soc.expected_results() {
                return Err(format!(
                    "results {:x?} disagree with host model {:x?}",
                    out.results,
                    soc.expected_results()
                ));
            }
            let result_xor = out.results.iter().fold(0u32, |a, &r| a ^ r);
            Ok(JobMetrics::new()
                .det("cycles", out.cycles)
                .det("halted", u64::from(out.halted))
                .det("instret", out.instret)
                .det("result_xor", u64::from(result_xor)))
        })
        .param("workload", "compute")
        .param("tiles", p.tiles)
        .param("net", p.net)
        .param("pattern", SocTraffic::Tornado)
        .param("proc", p.tile.proc)
        .param("cache", p.tile.cache)
        .param("xcel", p.tile.xcel)
        .param("accesses", p.accesses)
        .param("engine", engine)
        .watchdog(self.watchdog)
    }

    /// The equivalent campaign as an `mtl-serve` submission spec, using
    /// the server's `soc_cycles` registry kind. Field values mirror
    /// [`Spec::syn_job`]/[`Spec::cmp_job`] exactly; the journal is
    /// forwarded only when pinned on the command line (otherwise the
    /// daemon's `--journal-dir` owns placement).
    fn serve_spec(&self, journal: Option<&str>) -> Json {
        let mut spec = Json::obj();
        spec.set("name", self.report_name).set("retries", 1u32);
        if let Some(path) = journal {
            spec.set("journal", path);
        }
        let mut jobs: Vec<Json> = Vec::new();
        for &p in &self.syn {
            let mut j = Json::obj();
            j.set("kind", "soc_cycles")
                .set("name", p.label())
                .set("workload", "synthetic")
                .set("tiles", p.tiles)
                .set("net", p.net.to_string())
                .set("pattern", p.pattern.to_string())
                .set("limit", p.limit)
                .set("cycles", self.cycles)
                .set("engine", self.engine.to_string())
                .set("watchdog_ms", self.watchdog.as_millis() as u64);
            jobs.push(j);
        }
        for &p in &self.cmp {
            let mut j = Json::obj();
            j.set("kind", "soc_cycles")
                .set("name", p.label())
                .set("workload", "compute")
                .set("tiles", p.tiles)
                .set("net", p.net.to_string())
                .set("pattern", SocTraffic::Tornado.to_string())
                .set("proc", p.tile.proc.to_string())
                .set("cache", p.tile.cache.to_string())
                .set("xcel", p.tile.xcel.to_string())
                .set("accesses", p.accesses)
                .set("cycles", self.cycles)
                .set("engine", self.engine.to_string())
                .set("watchdog_ms", self.watchdog.as_millis() as u64);
            jobs.push(j);
        }
        spec.set("jobs", jobs);
        spec
    }

    fn print_table(&self, report: &CampaignReport) {
        self.print_tables_with(&|name, key| report.get(name).and_then(|j| j.u64(key)));
    }

    fn print_table_json(&self, report: &Json) {
        self.print_tables_with(&|name, key| {
            report_job(report, name)?.get("metrics")?.get(key)?.as_u64()
        });
    }

    fn print_tables_with(&self, m: &dyn Fn(&str, &str) -> Option<u64>) {
        println!(
            "\n--- synthetic traffic: drain-to-golden, {} engine, {}-cycle budget ---",
            self.engine, self.cycles
        );
        println!(
            "{:<24} {:>8} {:>10} {:>9} {:>9} {:>8}",
            "design", "drained", "checksum", "injected", "delivered", "cycles"
        );
        for &p in &self.syn {
            let name = p.label();
            match m(&name, "cycles") {
                Some(cycles) => println!(
                    "{:<24} {:>8} {:>#10x} {:>9} {:>9} {:>8}",
                    name,
                    if m(&name, "drained") == Some(1) { "yes" } else { "NO" },
                    m(&name, "checksum").unwrap_or(0),
                    m(&name, "injected").unwrap_or(0),
                    m(&name, "delivered").unwrap_or(0),
                    cycles,
                ),
                None => println!("{name:<24} (failed)"),
            }
        }
        if self.cmp.is_empty() {
            return;
        }
        println!("\n--- compute tiles: distributed XOR reduction to halt ---");
        println!(
            "{:<24} {:>8} {:>10} {:>9} {:>8}",
            "design", "halted", "result^", "instret", "cycles"
        );
        for &p in &self.cmp {
            let name = p.label();
            match m(&name, "cycles") {
                Some(cycles) => println!(
                    "{:<24} {:>8} {:>#10x} {:>9} {:>8}",
                    name,
                    if m(&name, "halted") == Some(1) { "yes" } else { "NO" },
                    m(&name, "result_xor").unwrap_or(0),
                    m(&name, "instret").unwrap_or(0),
                    cycles,
                ),
                None => println!("{name:<24} (failed)"),
            }
        }
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
/// prints the same tables and summary lines as a standalone run.
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
    let failed = count(&|j| j.get("outcome").and_then(Json::as_str) != Some("done"));
    if failed > 0 {
        return Err(format!("{failed} job(s) did not succeed"));
    }
    Ok(())
}

/// The CI engine-agreement gate: 16-tile SoCs at CL and RTL must produce
/// field-identical outcomes under Interpreted, Specialized, and
/// SpecializedOpt. Returns the number of disagreeing configurations.
fn verify_engines() -> u32 {
    let engines = [Engine::Interpreted, Engine::Specialized, Engine::SpecializedOpt];
    let mut mismatches = 0;
    println!("\n--- engine agreement on the composed 16-tile SoC ---");
    for net in [NetLevel::Cl, NetLevel::Rtl] {
        // Hotspot, not tornado: a fixed permutation with an even packet
        // budget XOR-cancels to a degenerate all-zero checksum; hotspot
        // keeps every field of the gate's comparison non-trivial.
        let soc = Soc::new(SocConfig::synthetic(16, net, SocTraffic::Hotspot).with_limit(16));
        let golden = soc.golden_checksum().expect("synthetic workload");
        let mut outcomes: Vec<(String, TrafficOutcome)> = Vec::new();
        for engine in engines {
            let sim = Sim::build(&soc, engine).expect("16-tile SoC elaborates");
            outcomes.push((engine.to_string(), run_soc_traffic_on(&soc, sim, 30_000)));
        }
        let (ref_label, reference) = &outcomes[0];
        let agreed = outcomes.iter().all(|(_, o)| {
            (o.cycles, o.drained, o.checksum, o.injected, o.delivered)
                == (
                    reference.cycles,
                    reference.drained,
                    reference.checksum,
                    reference.injected,
                    reference.delivered,
                )
        }) && reference.drained
            && reference.checksum == golden;
        for (label, o) in &outcomes {
            println!(
                "  soc16/{net}: {label:<18} drained={} checksum={:#010x} cycles={}",
                o.drained, o.checksum, o.cycles
            );
        }
        if agreed {
            println!("  soc16/{net}: all engines agree with {ref_label} and host golden");
        } else {
            println!("  soc16/{net}: ENGINE DISAGREEMENT (golden {golden:#010x})");
            mismatches += 1;
        }
    }
    mismatches
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let spec = if smoke { Spec::smoke() } else { Spec::full() };
    banner("Multi-tile SoC campaign", "DESIGN.md §13, BENCH_soc");
    if std::env::args().any(|a| a == "--verify-engines") {
        let mismatches = verify_engines();
        if mismatches > 0 {
            eprintln!("soc_sweep --verify-engines: {mismatches} configuration(s) disagree");
            std::process::exit(1);
        }
        return;
    }
    if let Some(socket) = arg_value("--serve") {
        let journal = arg_value("--journal");
        if let Err(e) = run_serve(&spec, &socket, journal.as_deref()) {
            eprintln!("soc_sweep --serve: {e}");
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
    // Any failed job (non-drain, checksum/result mismatch, timeout) is a
    // campaign failure: the jobs are self-checking, so CI can trust the
    // exit code without parsing the report.
    let failed = report.failed_count();
    if failed > 0 {
        eprintln!("soc_sweep: {failed} job(s) failed");
        std::process::exit(1);
    }
}
