//! `mesh64`: the Fig. 14 hot loop.
//!
//! An 8×8 mesh under seeded uniform-random traffic near saturation,
//! built once at RTL and once at CL on `specialized-opt`. After the set-up
//! the run is almost all per-cycle execution: RTL exercises the tape loop,
//! CL the native-closure dispatch of the same simulator. The hand-written
//! mesh (the host reference) runs the same traffic shape back to back with
//! every round, so the gap between the two is measured under the same host
//! conditions.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use mtl_net::{MeshTrafficHarness, NetLevel, NetStats};
use mtl_sim::{Engine, Overheads, Sim, SimConfig};

use crate::hostref::{factor_of, HostRef, NOMINAL};
use crate::report::{median, median_secs, mix, Report};
use crate::trace::Tracer;

const NROUTERS: usize = 64;
/// Injection rate in packets per 1000 cycles per terminal (near saturation).
const INJECTION: u32 = 300;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: u64 = 5;
/// Cycles checked against the `Interpreted` engine (about 1.4 s of it).
const CHECK_CYCLES: u64 = 100;
/// Simulated cycles per timed round, sized so each level runs for about
/// a third of a second per round on a 2-core Xeon. A round interleaves
/// `CHUNKS` pieces of each level with pieces of the host reference, so
/// the reference sees the same host stretches the simulators do.
const RTL_CYCLES: u64 = 1_000;
const CL_CYCLES: u64 = 5_000;
const REF_CYCLES: u64 = 10_000;
const CHUNKS: u64 = 5;

struct Level {
    sim: Sim,
    stats: Arc<Mutex<NetStats>>,
}

fn stats_tuple(s: &Arc<Mutex<NetStats>>) -> [u64; 5] {
    let s = s.lock().expect("traffic generators never panic while holding the stats lock");
    [s.injected, s.received, s.total_latency, s.max_latency, s.misrouted]
}

/// Elaborates and constructs one level, timing each layer call; returns
/// the elaboration and construction times.
fn build(
    t: &mut Tracer,
    level: NetLevel,
    seed: u64,
    engine: Engine,
    req: u64,
) -> (Level, Duration, Duration) {
    let (harness, _) = t.time("mtl-model", "MeshTrafficHarness::new", req, || {
        MeshTrafficHarness::new(level, NROUTERS, INJECTION, seed)
    });
    let stats = harness.stats();
    let (design, elab) = t.time("mtl-core", "elaborate", req, || mtl_core::elaborate(&harness));
    let design = design.expect("the mesh harness elaborates");
    let (sim, construct) = t.time("mtl-sim.build", "Sim::with_config", req, || {
        Sim::with_config(design, engine, &SimConfig::default())
    });
    t.reported("mtl-sim.opt", "comp (reported)", sim.overheads().comp);
    (Level { sim, stats }, elab, construct)
}

/// The times of one set-up.
struct SetUp {
    raw: Duration,
    norm: Duration,
    elab: Duration,
    construct: Duration,
    phases: Overheads,
}

/// Elaborates + constructs both levels, between two reference slices.
fn set_up(t: &mut Tracer, host: &mut HostRef, seed: u64, rep: u64) -> (Level, Level, SetUp) {
    host.prime(t, rep);
    let open = t.begin("bench", "setup", rep);
    let (rtl, rtl_elab, rtl_construct) = build(t, NetLevel::Rtl, seed, Engine::SpecializedOpt, rep);
    let (cl, cl_elab, cl_construct) = build(t, NetLevel::Cl, seed, Engine::SpecializedOpt, rep);
    let raw = t.end(open);
    let norm = raw.mul_f64(host.factor(t, rep));
    let (ro, co) = (*rtl.sim.overheads(), *cl.sim.overheads());
    let phases = Overheads {
        cgen: ro.cgen + co.cgen,
        comp: ro.comp + co.comp,
        simc: ro.simc + co.simc,
        ..Overheads::default()
    };
    let (elab, construct) = (rtl_elab + cl_elab, rtl_construct + cl_construct);
    (rtl, cl, SetUp { raw, norm, elab, construct, phases })
}

pub fn run(t: &mut Tracer, seed: u64, rounds: u64) -> Report {
    let mut r = Report::default();
    let seed = mix(seed, 0x6d65_7368);
    let mut host = HostRef::new(t, 1);

    // The first set-up builds the simulators the rounds run; the others
    // are spread over the rounds, so `setup_s` samples the host's slow and
    // fast stretches alike.
    let (mut rtl, mut cl, first) = set_up(t, &mut host, seed, 0);
    let mut setups = vec![first];

    // Output check: the RTL statistics over a prefix must equal the
    // Interpreted engine's on the same seed.
    let open = t.begin("bench", "check", 0);
    let (mut reference, ..) = build(t, NetLevel::Rtl, seed, Engine::Interpreted, 0);
    for (name, level) in [("interpreted", &mut reference), ("rtl", &mut rtl), ("cl", &mut cl)] {
        t.time("mtl-sim.run", &format!("{name} prefix"), 0, || {
            level.sim.reset();
            level.sim.run(CHECK_CYCLES);
        });
    }
    let (want, got) = (stats_tuple(&reference.stats), stats_tuple(&rtl.stats));
    r.check(want == got, || {
        format!("RTL stats after {CHECK_CYCLES} cycles {got:?} != Interpreted {want:?}")
    });
    drop(reference);
    t.end(open);
    r.attempted += 3;

    // Warm-up: one untimed round.
    let open = t.begin("bench", "warm-up", 0);
    t.time("mtl-sim.run", "rtl", 0, || rtl.sim.run(RTL_CYCLES));
    t.time("mtl-sim.run", "cl", 0, || cl.sim.run(CL_CYCLES));
    t.end(open);

    // Timed rounds.
    let (mut rtl_runs, mut cl_runs) = (Vec::new(), Vec::new());
    let (mut rtl_rates, mut cl_rates) = (Vec::new(), Vec::new());
    let (mut rtl_norm, mut cl_norm) = (Vec::new(), Vec::new());
    for round in 1..=rounds {
        let open = t.begin("bench", "round", round);
        let (mut d_rtl, mut d_cl, mut d_ref) = (Duration::ZERO, Duration::ZERO, Duration::ZERO);
        for _ in 0..CHUNKS {
            d_rtl += t.time("mtl-sim.run", "rtl", round, || rtl.sim.run(RTL_CYCLES / CHUNKS)).1;
            d_ref += host.run(t, round, REF_CYCLES / CHUNKS / 2);
            d_cl += t.time("mtl-sim.run", "cl", round, || cl.sim.run(CL_CYCLES / CHUNKS)).1;
            d_ref += host.run(t, round, REF_CYCLES / CHUNKS / 2);
        }
        t.end(open);
        let f = factor_of(REF_CYCLES, d_ref);
        let (rtl_rate, cl_rate) =
            (RTL_CYCLES as f64 / d_rtl.as_secs_f64(), CL_CYCLES as f64 / d_cl.as_secs_f64());
        rtl_rates.push(rtl_rate);
        cl_rates.push(cl_rate);
        rtl_norm.push(rtl_rate / f);
        cl_norm.push(cl_rate / f);
        rtl_runs.push(d_rtl);
        cl_runs.push(d_cl);
        r.attempted += 2;
        while (setups.len() as u64) < SETUP_REPS
            && (setups.len() as u64 * rounds).div_ceil(SETUP_REPS - 1) <= round
        {
            let (_, _, extra) = set_up(t, &mut host, seed, setups.len() as u64);
            setups.push(extra);
        }
    }
    let over = |f: fn(&SetUp) -> Duration| median_secs(&setups.iter().map(f).collect::<Vec<_>>());
    r.setup_s = over(|s| s.norm);
    r.primary_per_s = median(&rtl_norm);
    r.secondary_per_s = median(&cl_norm);
    // Median over rounds of the reference rate in a round ÷ its RTL rate.
    let gap = NOMINAL / r.primary_per_s;

    // Model counts, per level; they must not move under a simulator-only
    // change.
    let ((rtl_stats, cl_stats), _) =
        t.time("mtl-model", "stats", 0, || (stats_tuple(&rtl.stats), stats_tuple(&cl.stats)));
    for (level, s) in [("rtl", rtl_stats), ("cl", cl_stats)] {
        r.count(&format!("mesh.{level}.injected"), s[0]);
        r.count(&format!("mesh.{level}.received"), s[1]);
        r.count(&format!("mesh.{level}.total_latency"), s[2]);
        r.count(&format!("mesh.{level}.misrouted"), s[4]);
        r.check(s[4] == 0, || format!("{level} mesh misrouted {} packets", s[4]));
        r.check(s[1] > 0 && s[1] <= s[0], || {
            format!("{level} mesh received {} of {} injected packets", s[1], s[0])
        });
    }
    r.check(host.misrouted() == 0, || "hand-written mesh misrouted packets".to_string());

    // Layer counts from public accessors.
    let design_signals = rtl.sim.design().signals().len() + cl.sim.design().signals().len();
    let design_blocks = rtl.sim.design().blocks().len() + cl.sim.design().blocks().len();
    r.count("core.signals", design_signals as u64);
    r.count("core.blocks", design_blocks as u64);
    let ops_after = match rtl.sim.opt_report() {
        Some(o) => {
            r.count("opt.tapes", o.tapes);
            r.count("opt.rounds", o.rounds);
            r.count("opt.ops_before", o.ops_before);
            r.count("opt.ops_after", o.ops_after);
            r.count("opt.regs_after", o.regs_after);
            o.ops_after
        }
        None => {
            r.check(false, || "specialized-opt RTL sim has no optimizer report".to_string());
            0
        }
    };

    r.timing("core.elaborate_s", over(|s| s.elab), "s");
    r.timing("sim.construct_s", over(|s| s.construct), "s");
    r.timing("sim.cgen_s", over(|s| s.phases.cgen), "s");
    r.timing("sim.comp_s", over(|s| s.phases.comp), "s");
    r.timing("sim.simc_s", over(|s| s.phases.simc), "s");
    r.timing("sim.rtl_run_s", median_secs(&rtl_runs), "s");
    r.timing("sim.cl_run_s", median_secs(&cl_runs), "s");
    let ns_per_op = median_secs(&rtl_runs) * 1e9 / (RTL_CYCLES as f64 * ops_after.max(1) as f64);
    r.timing("sim.rtl_ns_per_op", ns_per_op, "ns");
    r.timing("net.handwritten_cycles_per_s", host.rate(), "cyc/s");

    r.named = vec![
        ("setup_s", over(|s| s.raw), "s"),
        ("rtl_cycles_per_s", median(&rtl_rates), "cyc/s"),
        ("cl_cycles_per_s", median(&cl_rates), "cyc/s"),
        ("rtl_gap_x", gap, "ratio"),
    ];
    r
}
