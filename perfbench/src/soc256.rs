//! `soc256_build`: the build path of a 256-tile synthetic RTL SoC.
//!
//! Each repetition elaborates the SoC, round-trips its Verilog (the
//! paper's `veri` phase), constructs `specialized-opt`, and runs the
//! traffic to drain against the host model's golden checksum. Most of a
//! repetition is build time, and the run phase walks a tape working set
//! about four times `mesh64`'s. Construction is bracketed by host
//! reference slices; the round trips and the run are interleaved with
//! reference chunks.

use std::time::Duration;

use mtl_net::NetLevel;
use mtl_sim::{Engine, Overheads, Sim, SimConfig};
use mtl_soc::{Soc, SocConfig, SocTraffic, SocWorkload, TrafficOutcome};
use mtl_translate::VerilogLibrary;

use crate::hostref::{factor_of, HostRef};
use crate::report::{median, median_secs, mix, Report};
use crate::trace::Tracer;

const TILES: usize = 256;
/// Drain budget; a 256-tile uniform run drains in well under 1000 cycles.
const MAX_CYCLES: u64 = 20_000;
/// Cycles per `Sim::run` step of the drain loop (the runner's own step),
/// and reference cycles interleaved after each step and after each half
/// of a Verilog round trip.
const STEP: u64 = 64;
const REF_PER_STEP: u64 = 2_000;
/// Verilog round trips per repetition; `verilog_s` is their mean.
const VERILOG_TRIPS: u64 = 2;
/// Runs to drain per repetition (from reset), each one a sample.
const DRAINS: usize = 2;

/// One run to drain: cycles, `Sim::run` time and its host factor.
struct Drain {
    cycles: u64,
    run: Duration,
    f: f64,
}

#[derive(Default)]
struct Rep {
    elab: Duration,
    emit: Duration,
    parse: Duration,
    construct: Duration,
    drains: Vec<Drain>,
    /// Host factors of elaboration and the Verilog round trips, and of
    /// the construction.
    f_build: f64,
    f_construct: f64,
    phases: Overheads,
    counts: Vec<(&'static str, u64)>,
}

/// Runs the synthetic traffic to drain, as `mtl_soc::run_soc_traffic_on`
/// does, with a reference chunk after every step; returns the outcome,
/// the simulation time and the reference time.
fn drain(
    t: &mut Tracer,
    host: &mut HostRef,
    soc: &Soc,
    sim: &mut Sim,
    req: u64,
) -> (TrafficOutcome, Duration, Duration) {
    let SocWorkload::Synthetic { limit, .. } = soc.config.workload else {
        unreachable!("soc256_build builds synthetic SoCs only");
    };
    let target = soc.config.tiles as u64 * u64::from(limit);
    let (checksum, injected, delivered) = {
        let d = sim.design();
        (d.top_port("checksum"), d.top_port("injected"), d.top_port("delivered"))
    };
    let (mut d_sim, mut d_ref) = (Duration::ZERO, Duration::ZERO);
    d_sim += t.time("mtl-sim.run", "reset", req, || sim.reset()).1;
    let (mut cycles, mut drained) = (0, false);
    while cycles < MAX_CYCLES && !drained {
        d_sim += t.time("mtl-sim.run", "run", req, || sim.run(STEP)).1;
        d_ref += host.run(t, req, REF_PER_STEP);
        cycles += STEP;
        drained = sim.peek(injected).as_u64() == target && sim.peek(delivered).as_u64() == target;
    }
    let out = TrafficOutcome {
        cycles,
        drained,
        checksum: sim.peek(checksum).as_u64() as u32,
        injected: sim.peek(injected).as_u64(),
        delivered: sim.peek(delivered).as_u64(),
    };
    (out, d_sim, d_ref)
}

fn repetition(
    t: &mut Tracer,
    host: &mut HostRef,
    r: &mut Report,
    tiles: usize,
    seed: u64,
    req: u64,
) -> Rep {
    let mut rep = Rep::default();
    let cfg = SocConfig::synthetic(tiles, NetLevel::Rtl, SocTraffic::UniformRandom).with_seed(seed);
    let ((soc, golden), _) = t.time("mtl-model", "Soc::new + golden_checksum", req, || {
        let soc = Soc::new(cfg);
        let golden = soc.golden_checksum();
        (soc, golden)
    });
    let (design, elab) = t.time("mtl-core", "elaborate", req, || mtl_core::elaborate(&soc));
    rep.elab = elab;
    let design = design.expect("the synthetic SoC elaborates");
    rep.counts.push(("core.signals", design.signals().len() as u64));
    rep.counts.push(("core.blocks", design.blocks().len() as u64));

    // Verilog round trips, interleaved with reference chunks.
    let mut d_ref = Duration::ZERO;
    let mut bytes = Vec::new();
    for _ in 0..VERILOG_TRIPS {
        let (verilog, emit) =
            t.time("mtl-translate", "translate", req, || mtl_translate::translate(&design));
        rep.emit += emit / VERILOG_TRIPS as u32;
        d_ref += host.run(t, req, REF_PER_STEP);
        r.attempted += 1;
        let Ok(text) = verilog else {
            r.check(false, || format!("Verilog emission failed: {:?}", verilog.err()));
            continue;
        };
        bytes.push(text.len() as u64);
        let (lib, parse) =
            t.time("mtl-translate", "VerilogLibrary::parse", req, || VerilogLibrary::parse(&text));
        rep.parse += parse / VERILOG_TRIPS as u32;
        d_ref += host.run(t, req, REF_PER_STEP);
        r.check(lib.is_ok(), || format!("re-parsing the emitted Verilog failed: {:?}", lib.err()));
    }
    r.check(bytes.windows(2).all(|w| w[0] == w[1]), || format!("Verilog sizes differ: {bytes:?}"));
    rep.counts.push(("translate.verilog_bytes", bytes.first().copied().unwrap_or(0)));
    rep.f_build = factor_of(2 * VERILOG_TRIPS * REF_PER_STEP, d_ref);

    host.prime(t, req);
    let (sim, construct) = t.time("mtl-sim.build", "Sim::with_config", req, || {
        Sim::with_config(design, Engine::SpecializedOpt, &SimConfig::default())
    });
    rep.construct = construct;
    rep.phases = *sim.overheads();
    t.reported("mtl-sim.opt", "comp (reported)", rep.phases.comp);
    match sim.opt_report() {
        Some(o) => rep.counts.extend([
            ("opt.tapes", o.tapes),
            ("opt.rounds", o.rounds),
            ("opt.ops_before", o.ops_before),
            ("opt.ops_after", o.ops_after),
            ("opt.regs_after", o.regs_after),
        ]),
        None => r.check(false, || "specialized-opt SoC sim has no optimizer report".to_string()),
    }

    rep.f_construct = host.factor(t, req);
    let mut sim = sim;
    let mut outs = Vec::new();
    for _ in 0..DRAINS {
        let (out, run, d_ref) = drain(t, host, &soc, &mut sim, req);
        rep.drains.push(Drain {
            cycles: out.cycles,
            run,
            f: factor_of(out.cycles / STEP * REF_PER_STEP, d_ref),
        });
        r.attempted += 1;
        r.check(out.drained, || format!("SoC did not drain in {MAX_CYCLES} cycles: {out:?}"));
        r.check(Some(out.checksum) == golden, || {
            format!("SoC checksum {:#x} != golden {golden:x?}", out.checksum)
        });
        r.check(out.injected == out.delivered, || {
            format!("SoC delivered {} of {} packets", out.delivered, out.injected)
        });
        outs.push((out.cycles, out.delivered, out.checksum));
    }
    r.check(outs.windows(2).all(|w| w[0] == w[1]), || {
        format!("drains from reset differ: {outs:?}")
    });
    let (cycles, delivered, checksum) = outs[0];
    rep.counts.push(("soc.drain_cycles", cycles));
    rep.counts.push(("soc.delivered", delivered));
    rep.counts.push(("soc.checksum", u64::from(checksum)));
    rep
}

pub fn run(t: &mut Tracer, seed: u64, reps: u64) -> Report {
    let mut r = Report::default();
    let seed = mix(seed, 0x736f_6332);
    let mut host = HostRef::new(t, 1);

    // Warm-up on a 16-tile SoC: same code paths, a sixteenth of the size.
    let open = t.begin("bench", "warm-up", 0);
    repetition(t, &mut host, &mut r, 16, seed, 0);
    t.end(open);

    let mut all = Vec::new();
    for i in 1..=reps {
        let open = t.begin("bench", "repetition", i);
        all.push(repetition(t, &mut host, &mut r, TILES, seed, i));
        t.end(open);
    }

    // Medians over repetitions, raw and host-normalized.
    let over = |f: &dyn Fn(&Rep) -> f64| median(&all.iter().map(f).collect::<Vec<_>>());
    let drains: Vec<&Drain> = all.iter().flat_map(|x| &x.drains).collect();
    let over_drains =
        |f: &dyn Fn(&Drain) -> f64| median(&drains.iter().map(|d| f(d)).collect::<Vec<_>>());
    let rate = |d: &Drain| d.cycles as f64 / d.run.as_secs_f64();
    let verilog = |x: &Rep| (x.emit + x.parse).as_secs_f64();
    let setup = |x: &Rep| (x.elab + x.construct).as_secs_f64();
    r.setup_s =
        over(&|x| x.elab.as_secs_f64() * x.f_build + x.construct.as_secs_f64() * x.f_construct);
    r.primary_per_s = over_drains(&|d| rate(d) / d.f);
    r.secondary_per_s = 1.0 / over(&|x| verilog(x) * x.f_build);

    // Every repetition builds the same design from the same seed, so its
    // counts must agree exactly.
    let names: Vec<&'static str> = all[0].counts.iter().map(|c| c.0).collect();
    for name in names {
        let values: Vec<u64> = all
            .iter()
            .map(|x| x.counts.iter().find(|c| c.0 == name).map_or(u64::MAX, |c| c.1))
            .collect();
        r.count_same(name, &values);
    }

    let secs = |f: fn(&Rep) -> Duration| median_secs(&all.iter().map(f).collect::<Vec<_>>());
    r.timing("core.elaborate_s", secs(|x| x.elab), "s");
    r.timing("translate.emit_s", secs(|x| x.emit), "s");
    r.timing("translate.parse_s", secs(|x| x.parse), "s");
    r.timing("sim.construct_s", secs(|x| x.construct), "s");
    r.timing("sim.cgen_s", secs(|x| x.phases.cgen), "s");
    r.timing("sim.comp_s", secs(|x| x.phases.comp), "s");
    r.timing("sim.simc_s", secs(|x| x.phases.simc), "s");
    r.timing("sim.soc_run_s", over_drains(&|d| d.run.as_secs_f64()), "s");
    r.timing("net.handwritten_cycles_per_s", host.rate(), "cyc/s");
    r.check(host.misrouted() == 0, || "hand-written mesh misrouted packets".to_string());

    r.named = vec![
        ("setup_s", over(&setup), "s"),
        ("soc_cycles_per_s", over_drains(&rate), "cyc/s"),
        ("verilog_s", over(&verilog), "s"),
    ];
    r
}
