//! `fault_serve`: fault campaigns through an in-process `mtl-serve`.
//!
//! A two-worker server on a Unix socket and one closed-loop client. The
//! client submits fresh `fault_batch_chunk` campaigns back to back (the
//! 64-lane batch engine, `mtl-fault`, the scheduler and journal writes),
//! and between them re-submits one completed deterministic `mesh_cycles`
//! campaign that the journal replays (journal reads and event streaming
//! only). The scalar workloads reach none of these layers.

use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mtl_serve::{Client, Server, ServerConfig};
use mtl_sweep::Json;

use crate::hostref::HostRef;
use crate::report::{median, median_secs, mix, Report};
use crate::trace::Tracer;

const WORKERS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: u64 = 5;
/// A fresh campaign: this many 63-trial chunks on the fully-IR mesh16.
const CHUNKS: u64 = 4;
const TRIALS: u64 = 63;
/// The replayed campaign: this many short deterministic mesh runs.
const REPLAY_JOBS: u64 = 256;
const REPLAY_CYCLES: u64 = 64;
/// Replays per round; `resume_s_p50` is the median over all of them.
const REPLAYS: u64 = 3;

fn fault_spec(name: &str, seed: u64) -> Json {
    let jobs: Vec<Json> = (0..CHUNKS)
        .map(|c| {
            let mut j = Json::obj();
            j.set("kind", "fault_batch_chunk")
                .set("name", format!("chunk{c}"))
                .set("nrouters", 16u64)
                .set("chunk", c)
                .set("trials", TRIALS);
            j
        })
        .collect();
    let mut spec = Json::obj();
    // JSON numbers are doubles: keep seeds exact.
    spec.set("name", name).set("seed", seed & 0xFFFF_FFFF).set("jobs", Json::Arr(jobs));
    spec
}

fn replay_spec(seed: u64) -> Json {
    let jobs: Vec<Json> = (0..REPLAY_JOBS)
        .map(|i| {
            let mut j = Json::obj();
            j.set("kind", "mesh_cycles")
                .set("name", format!("m{i:03}"))
                .set("level", "CL")
                .set("nrouters", 16u64)
                .set("cycles", REPLAY_CYCLES);
            j
        })
        .collect();
    let mut spec = Json::obj();
    spec.set("name", "replay").set("seed", seed & 0xFFFF_FFFF).set("jobs", Json::Arr(jobs));
    spec
}

/// The fields of a served report that `CampaignReport::to_canonical_json`
/// keeps: identical for any two runs of one campaign.
fn canonical(report: &Json) -> String {
    let mut doc = Json::obj();
    for key in ["campaign", "seed"] {
        doc.set(key, report.get(key).cloned().unwrap_or(Json::Null));
    }
    let jobs: Vec<Json> = jobs(report)
        .iter()
        .map(|j| {
            let mut o = Json::obj();
            for key in ["name", "params", "seed", "fingerprint", "outcome", "metrics", "error"] {
                if let Some(v) = j.get(key) {
                    o.set(key, v.clone());
                }
            }
            o
        })
        .collect();
    doc.set("jobs", Json::Arr(jobs));
    doc.to_compact()
}

fn jobs(report: &Json) -> &[Json] {
    report.get("jobs").and_then(Json::as_arr).unwrap_or(&[])
}

fn num(j: &Json, path: &[&str]) -> f64 {
    let mut cur = Some(j);
    for key in path {
        cur = cur.and_then(|c| c.get(key));
    }
    cur.and_then(Json::as_f64).unwrap_or(0.0)
}

/// A served job that failed, timed out, retried or fell down the engine
/// ladder, described; `None` for a clean first-attempt result.
fn job_failure(job: &Json, replayed: bool) -> Option<String> {
    let name = job.get("name").and_then(Json::as_str).unwrap_or("?");
    let outcome = job.get("outcome").and_then(Json::as_str).unwrap_or("missing");
    let attempts = num(job, &["attempts"]);
    if outcome != "done" {
        let error = job.get("error").and_then(Json::as_str).unwrap_or("");
        return Some(format!("job {name}: {outcome} {error}"));
    }
    if job.get("fallbacks").is_some() {
        return Some(format!("job {name}: fell down the engine ladder"));
    }
    let expected = if replayed { 0.0 } else { 1.0 };
    (attempts != expected).then(|| format!("job {name}: {attempts} attempts"))
}

struct Daemon {
    server: Server,
    handle: JoinHandle<std::io::Result<()>>,
    client: Client,
    dir: PathBuf,
}

impl Daemon {
    fn start(dir: PathBuf) -> Result<Daemon, String> {
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        let server = Server::new(ServerConfig {
            workers: WORKERS,
            cache_dir: Some(dir.join("cache")),
            journal_dir: Some(dir.join("journals")),
            ..ServerConfig::default()
        });
        let socket = dir.join("s.sock");
        let handle = {
            let (server, socket) = (server.clone(), socket.clone());
            std::thread::spawn(move || server.serve_unix(&socket))
        };
        let deadline = Instant::now() + Duration::from_secs(10);
        while !socket.exists() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        let mut client =
            Client::connect(&socket).map_err(|e| format!("connecting to the server: {e}"))?;
        client.hello()?;
        Ok(Daemon { server, handle, client, dir })
    }

    fn stop(self) {
        drop(self.client);
        self.server.stop();
        match self.handle.join() {
            Ok(Ok(())) => {}
            Ok(Err(e)) => eprintln!("perfbench: server ended with {e}"),
            Err(_) => eprintln!("perfbench: server thread panicked"),
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// One submission, timed as an `mtl-serve` span; returns the report, the
/// latency and the number of streamed `job_done` events.
fn submit(
    t: &mut Tracer,
    d: &mut Daemon,
    spec: &Json,
    req: u64,
) -> (Result<Json, String>, Duration, u64) {
    let name = spec.get("name").and_then(Json::as_str).unwrap_or("?").to_string();
    let mut events = 0u64;
    let client = &mut d.client;
    let (report, latency) = t
        .time("mtl-serve", &format!("submit {name}"), req, || client.submit(spec, |_| events += 1));
    (report, latency, events)
}

/// Σ job wall ÷ workers, split into fault chunks and other jobs.
fn job_time(report: &Json) -> (Duration, Duration) {
    let (mut fault, mut other) = (0.0, 0.0);
    for j in jobs(report) {
        let wall = num(j, &["wall_secs"]) / WORKERS as f64;
        if j.get("params").and_then(|p| p.get("kind")).and_then(Json::as_str)
            == Some("fault_batch_chunk")
        {
            fault += wall;
        } else {
            other += wall;
        }
    }
    (Duration::from_secs_f64(fault), Duration::from_secs_f64(other))
}

/// What a fresh fault campaign produced: faulty trials, outcome counts,
/// and jobs that failed or fell down the engine ladder.
#[derive(Default)]
struct Tally {
    trials: u64,
    masked: u64,
    silent: u64,
    detected: u64,
    failed: u64,
    fallbacks: u64,
}

impl std::ops::AddAssign<&Tally> for Tally {
    fn add_assign(&mut self, o: &Tally) {
        self.trials += o.trials;
        self.masked += o.masked;
        self.silent += o.silent;
        self.detected += o.detected;
        self.failed += o.failed;
        self.fallbacks += o.fallbacks;
    }
}

/// Checks a finished fresh fault campaign.
fn check_fault(r: &mut Report, name: &str, report: &Result<Json, String>, events: u64) -> Tally {
    let mut tally = Tally::default();
    r.attempted += CHUNKS;
    let report = match report {
        Ok(rep) => rep,
        Err(e) => {
            r.failures.push(format!("{name}: {e}"));
            tally.failed = CHUNKS;
            return tally;
        }
    };
    r.check(events == CHUNKS, || format!("{name}: {events} job events for {CHUNKS} jobs"));
    r.check(jobs(report).len() as u64 == CHUNKS, || format!("{name}: report lacks jobs"));
    for j in jobs(report) {
        tally.fallbacks += u64::from(j.get("fallbacks").is_some());
        if let Some(f) = job_failure(j, false) {
            r.failures.push(format!("{name}: {f}"));
            tally.failed += u64::from(j.get("outcome").and_then(Json::as_str) != Some("done"));
            continue;
        }
        let m = |k: &str| num(j, &["metrics", k]) as u64;
        r.check(
            m("trials") == TRIALS && m("masked") + m("silent") + m("detected") == TRIALS,
            || format!("{name}: outcome counts do not add up to the trials: {}", j.to_compact()),
        );
        r.check(m("scalar_sample") >= 1, || {
            format!("{name}: chunk ran without its scalar lane check")
        });
        tally.trials += m("trials");
        tally.masked += m("masked");
        tally.silent += m("silent");
        tally.detected += m("detected");
    }
    tally
}

fn report_bytes(report: &Result<Json, String>) -> u64 {
    report.as_ref().map_or(0, |rep| canonical(rep).len() as u64)
}

/// A started, warmed-up daemon and the times its set-up took.
struct SetUp {
    daemon: Daemon,
    /// Canonical report of the cold run of the replayed campaign.
    cold: String,
    raw: Duration,
    norm: Duration,
}

/// Daemon start plus cold-cache warm-up campaigns — one fault campaign
/// (compiles the batch design) and the cold run of the campaign replayed
/// later — between two reference slices.
fn set_up(
    t: &mut Tracer,
    host: &mut HostRef,
    r: &mut Report,
    replay: &Json,
    seed: u64,
    dir: PathBuf,
    rep: u64,
) -> Result<SetUp, String> {
    host.prime(t, rep);
    let open = t.begin("bench", "setup", rep);
    let (d, _) = t.time("mtl-serve", "Server::new + connect", rep, || Daemon::start(dir));
    let mut d = match d {
        Ok(d) => d,
        Err(e) => {
            t.end(open);
            return Err(format!("server start: {e}"));
        }
    };
    let name = format!("warm-{rep}");
    let (warm, _, events) = submit(t, &mut d, &fault_spec(&name, mix(seed, 2)), rep);
    t.reported(
        "mtl-fault",
        "fault jobs (reported)",
        job_time(warm.as_ref().unwrap_or(&Json::Null)).0,
    );
    check_fault(r, &name, &warm, events);
    let (cold, _, events) = submit(t, &mut d, replay, rep);
    t.reported(
        "mtl-sweep",
        "mesh_cycles jobs (reported)",
        job_time(cold.as_ref().unwrap_or(&Json::Null)).1,
    );
    let raw = t.end(open);
    let norm = raw.mul_f64(host.factor(t, rep));
    r.attempted += 1;
    let cold = match cold {
        Ok(cold) => cold,
        Err(e) => {
            d.stop();
            return Err(format!("cold run: {e}"));
        }
    };
    r.check(events == REPLAY_JOBS && jobs(&cold).len() as u64 == REPLAY_JOBS, || {
        format!("cold run: {events} events, {} jobs", jobs(&cold).len())
    });
    r.failures.extend(
        jobs(&cold).iter().filter_map(|j| job_failure(j, false)).map(|f| format!("cold run: {f}")),
    );
    Ok(SetUp { daemon: d, cold: canonical(&cold), raw, norm })
}

pub fn run(t: &mut Tracer, seed: u64, rounds: u64, scratch: &Path) -> Report {
    let mut r = Report::default();
    let seed = mix(seed, 0x7365_7276);
    let replay = replay_spec(mix(seed, 1));
    let mut host = HostRef::new(t, WORKERS);

    // The first set-up starts the daemon the rounds use; the others are
    // spread over the rounds, so `setup_s` samples the host's slow and
    // fast stretches alike.
    let first = match set_up(t, &mut host, &mut r, &replay, seed, scratch.join("serve-0"), 0) {
        Ok(s) => s,
        Err(e) => {
            r.failures.push(e);
            return r;
        }
    };
    let (mut d, cold) = (first.daemon, first.cold);
    let mut setups = vec![(first.raw, first.norm)];

    // Timed rounds: a fresh campaign, then replays, then the reference
    // slice that closes them. The client's time waiting on the server is
    // the timed window.
    let (mut fresh, mut fresh_norm, mut resumes) = (Vec::new(), Vec::new(), Vec::new());
    let (mut overheads, mut walls) = (Vec::new(), Vec::new());
    let (mut rates, mut rates_norm) = (Vec::new(), Vec::new());
    let (mut batch_rates, mut scalar_rates) = (Vec::new(), Vec::new());
    let mut total = Tally::default();
    let (mut events_total, mut bytes) = (0u64, 0u64);
    let (mut attempts, mut replayed) = (0u64, 0u64);
    for round in 1..=rounds {
        let open = t.begin("bench", "round", round);
        let name = format!("fault-{round}");
        let (report, campaign, events) =
            submit(t, &mut d, &fault_spec(&name, mix(seed, 100 + round)), round);
        let (fault_wall, _) = job_time(report.as_ref().unwrap_or(&Json::Null));
        t.reported("mtl-fault", "fault jobs (reported)", fault_wall);
        let tally = check_fault(&mut r, &name, &report, events);
        total += &tally;
        events_total += events;
        bytes += report_bytes(&report);
        let mut round_busy = campaign;
        fresh.push(campaign);
        overheads.push(campaign.as_secs_f64() - fault_wall.as_secs_f64());
        if let Ok(rep) = &report {
            walls.push(jobs(rep).iter().map(|j| num(j, &["wall_secs"])).sum::<f64>());
            for j in jobs(rep) {
                attempts += num(j, &["attempts"]) as u64;
                batch_rates.push(num(j, &["timing", "batch_trials_per_sec"]));
                scalar_rates.push(num(j, &["timing", "scalar_trials_per_sec"]));
            }
        }

        for _ in 0..REPLAYS {
            let (report, latency, events) = submit(t, &mut d, &replay, round);
            round_busy += latency;
            resumes.push(latency);
            events_total += events;
            bytes += report_bytes(&report);
            r.attempted += 1;
            match &report {
                Ok(rep) => {
                    let n = num(rep, &["summary", "replayed"]) as u64;
                    replayed += n;
                    r.check(n == REPLAY_JOBS, || {
                        format!("replay: {n} of {REPLAY_JOBS} jobs replayed")
                    });
                    r.check(canonical(rep) == cold, || {
                        "replayed report differs from the cold run's canonical report".to_string()
                    });
                    if let Some(f) = jobs(rep).iter().find_map(|j| job_failure(j, true)) {
                        r.failures.push(format!("replay: {f}"));
                    }
                }
                Err(e) => r.failures.push(format!("replay: {e}")),
            }
        }
        let f = host.factor(t, round);
        t.end(open);
        fresh_norm.push(campaign.mul_f64(f));
        rates.push(tally.trials as f64 / round_busy.as_secs_f64());
        rates_norm.push(tally.trials as f64 / round_busy.mul_f64(f).as_secs_f64());

        while (setups.len() as u64) < SETUP_REPS
            && (setups.len() as u64 * rounds).div_ceil(SETUP_REPS - 1) <= round
        {
            let rep = setups.len() as u64;
            match set_up(
                t,
                &mut host,
                &mut r,
                &replay,
                seed,
                scratch.join(format!("serve-{rep}")),
                rep,
            ) {
                Ok(extra) => {
                    r.check(extra.cold == cold, || "cold runs of one campaign differ".to_string());
                    setups.push((extra.raw, extra.norm));
                    extra.daemon.stop();
                }
                Err(e) => {
                    r.failures.push(e);
                    break;
                }
            }
        }
    }
    r.setup_s = median_secs(&setups.iter().map(|s| s.1).collect::<Vec<_>>());

    let (stats, _) = t.time("mtl-serve", "stats", 0, || d.client.stats());
    match stats {
        Ok(s) => {
            let hits = num(&s, &["compile", "tape_hits"]);
            let misses = num(&s, &["compile", "tape_misses"]);
            r.timing("serve.tape_hit_ratio", hits / (hits + misses).max(1.0), "ratio");
            // Which worker elaborates first is a race, so this is no count.
            r.timing("serve.design_hits", num(&s, &["compile", "design_hits"]), "count");
        }
        Err(e) => r.failures.push(format!("stats: {e}")),
    }
    t.time("mtl-serve", "stop", 0, || d.stop());

    // Trials per second of waiting on the server, median over rounds.
    r.primary_per_s = median(&rates_norm);
    r.secondary_per_s = 1.0 / median_secs(&fresh_norm);

    r.count("fault.trials", total.trials);
    r.count("fault.masked", total.masked);
    r.count("fault.silent", total.silent);
    r.count("fault.detected", total.detected);
    r.count("sweep.failed", total.failed);
    r.count("sweep.fallbacks", total.fallbacks);
    r.count("sweep.attempts", attempts);
    r.count("sweep.replayed", replayed);
    r.count("serve.events", events_total);
    r.count("serve.report_bytes", bytes);
    r.timing("fault.batch_trials_per_s", median(&batch_rates), "trials/s");
    r.timing("fault.scalar_trials_per_s", median(&scalar_rates), "trials/s");
    r.timing("sweep.job_wall_s", median(&walls), "s");
    r.timing("serve.overhead_s", median(&overheads), "s");

    r.timing("net.handwritten_cycles_per_s", host.rate(), "cyc/s");
    r.check(host.misrouted() == 0, || "hand-written mesh misrouted packets".to_string());

    r.named = vec![
        ("setup_s", median_secs(&setups.iter().map(|s| s.0).collect::<Vec<_>>()), "s"),
        ("fault_trials_per_s", median(&rates), "trials/s"),
        ("campaign_s_p50", median_secs(&fresh), "s"),
        ("resume_s_p50", median_secs(&resumes), "s"),
    ];
    r
}
