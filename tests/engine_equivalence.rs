//! Engine equivalence on randomized RTL designs.
//!
//! Drives the `mtl-check` random design generator ([`RandomRtl`]: random
//! acyclic RTL with random-width signals, random combinational expression
//! DAGs, random registers and memories) with random inputs, and checks
//! that all four scalar simulation engines produce bit-identical values
//! on every net, every cycle. This is the load-bearing property behind
//! the framework: engine choice is a performance knob, never a semantics
//! knob. The `fuzz` binary (`crates/bench/src/bin/fuzz.rs`) extends this
//! with shrinking and reproducer emission; these tests pin specific
//! seeds and edge-case designs as regressions.

use rustmtl::check::{RandomRtl, RtlDesc, RtlShape};
use rustmtl::core::{Component, Ctx, Expr};
use rustmtl::prelude::*;
use rustmtl::sim::{Engine, Sim};

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

fn run_equivalence(seed: u64, cycles: u64) {
    run_shape_equivalence(seed, RtlShape::default(), cycles);
}

/// [`run_equivalence`] over the random design of `shape`; returns the
/// four simulators for further inspection.
fn run_shape_equivalence(seed: u64, shape: RtlShape, cycles: u64) -> Vec<Sim> {
    // Elaborate once per engine (native-free designs elaborate
    // identically; separate instances keep ownership simple).
    let desc = RtlDesc::generate(seed, shape);
    let mut sims: Vec<Sim> = Engine::ALL
        .iter()
        .map(|&e| {
            Sim::build(&RandomRtl::from_desc(desc.clone()), e)
                .expect("random design must elaborate")
        })
        .collect();
    let nsignals = sims[0].design().signals().len();

    for sim in &mut sims {
        sim.reset();
    }
    let mut rng = Rng(seed ^ 0xABCD);
    for cycle in 0..cycles {
        // Drive identical random inputs.
        for i in 0..desc.inputs.len() {
            let name = format!("in{i}");
            let w = {
                let d = sims[0].design();
                d.signal(d.top_port(&name)).width
            };
            let v = Bits::new(w, rng.next() as u128 | ((rng.next() as u128) << 64));
            for sim in &mut sims {
                sim.poke_port(&name, v);
            }
        }
        for sim in &mut sims {
            sim.cycle();
        }
        // Compare every signal across engines.
        for si in 0..nsignals {
            let sig = rustmtl::core::SignalId::from_index(si);
            let reference = sims[0].peek(sig);
            for (ei, sim) in sims.iter().enumerate().skip(1) {
                assert_eq!(
                    sim.peek(sig),
                    reference,
                    "engine {:?} diverged on `{}` at cycle {cycle} (seed {seed})",
                    Engine::ALL[ei],
                    sims[0].design().signal_path(sig)
                );
            }
        }
    }
    sims
}

#[test]
fn engines_agree_on_random_designs() {
    for seed in 1..=12 {
        run_equivalence(seed, 40);
    }
}

/// Regression for the `reset()` staleness bug: combinational logic that
/// reads reset directly must be re-settled after deassertion, so peeks
/// between `reset()` and the next `cycle()` already see reset low.
#[test]
fn reset_resettles_combinational_state_on_every_engine() {
    struct ResetVisible;
    impl Component for ResetVisible {
        fn name(&self) -> String {
            "ResetVisible".into()
        }
        fn build(&self, c: &mut Ctx) {
            let reset = c.reset();
            let count = c.wire("count", 8);
            let ready = c.out_port("ready", 1);
            c.seq("step", |b| {
                b.if_else(
                    reset,
                    |b| b.assign(count, Expr::k(8, 0)),
                    |b| b.assign(count, count + Expr::k(8, 1)),
                );
            });
            // Combinational read of reset: stale under the old reset().
            c.comb("gate", |b| b.assign(ready, !reset.ex()));
        }
    }
    for engine in Engine::ALL {
        let mut sim = Sim::build(&ResetVisible, engine).expect("elaborates");
        sim.reset();
        assert_eq!(
            sim.peek_port("ready"),
            b(1, 1),
            "{engine}: comb state must reflect deasserted reset immediately after reset()"
        );
        // reset() must leave the design fully settled: an eval() changes
        // nothing.
        let before: Vec<Bits> = (0..sim.design().signals().len())
            .map(|i| sim.peek(rustmtl::core::SignalId::from_index(i)))
            .collect();
        sim.eval();
        let after: Vec<Bits> = (0..sim.design().signals().len())
            .map(|i| sim.peek(rustmtl::core::SignalId::from_index(i)))
            .collect();
        assert_eq!(before, after, "{engine}: reset() left unsettled combinational state");
    }
}

/// Profiler consistency: logical per-block execution counts are a pure
/// function of the value trace, so identical designs and stimulus must
/// yield identical (and non-zero) counts on all four engines — even
/// though the physical work each engine does differs wildly.
#[test]
fn profiler_block_counts_agree_across_engines() {
    for seed in [2u64, 6, 11] {
        let mut sims: Vec<Sim> = Engine::ALL
            .iter()
            .map(|&e| Sim::build(&RandomRtl::new(seed), e).expect("random design must elaborate"))
            .collect();
        for sim in &mut sims {
            sim.enable_profiling();
            sim.reset();
        }
        let mut rng = Rng(seed ^ 0x5EED);
        for _ in 0..25 {
            for i in 0..3 {
                let name = format!("in{i}");
                let w = {
                    let d = sims[0].design();
                    d.signal(d.top_port(&name)).width
                };
                let v = Bits::new(w, rng.next() as u128 | ((rng.next() as u128) << 64));
                for sim in &mut sims {
                    sim.poke_port(&name, v);
                }
            }
            for sim in &mut sims {
                sim.cycle();
            }
        }
        let profiles: Vec<_> =
            sims.iter().map(|s| s.profile().expect("profiling enabled")).collect();
        let reference = &profiles[0];
        assert!(reference.total_block_runs() > 0, "seed {seed}: stimulus must execute some blocks");
        assert!(
            reference.block_runs.iter().any(|&r| r > 0),
            "seed {seed}: per-block counts must be non-zero somewhere"
        );
        for p in &profiles[1..] {
            assert_eq!(
                p.block_runs, reference.block_runs,
                "seed {seed}: {} disagrees with {} on logical block counts",
                p.engine, reference.engine
            );
            assert_eq!(p.cycles, reference.cycles, "seed {seed}");
            assert_eq!(p.settles, reference.settles, "seed {seed}");
            assert_eq!(
                p.net_activity, reference.net_activity,
                "seed {seed}: activity counters diverged on {}",
                p.engine
            );
        }
        // Physical stats sanity: event-driven engines observe a queue,
        // the static engine has none, and every engine spent time.
        for p in &profiles {
            match p.engine {
                Engine::SpecializedOpt => assert_eq!(
                    p.queue_depth.samples(),
                    0,
                    "static-schedule engine has no event queue"
                ),
                _ => assert!(
                    p.queue_depth.samples() > 0,
                    "{}: event engine must record queue pops",
                    p.engine
                ),
            }
            assert!(p.fixpoint_iters.samples() > 0, "{}: settle passes must be recorded", p.engine);
            assert!(
                p.block_nanos.iter().sum::<u64>() > 0,
                "{}: cumulative block time must be non-zero",
                p.engine
            );
            let report = p.report(5);
            assert!(report.contains("hot blocks"), "{}:\n{report}", p.engine);
        }
    }
}

/// The wide random shape draws every width from 1..=128, so these designs
/// carry nets past 64 bits and run the tape engines' `u128` register
/// path, next to `u64` tapes wherever a width proof still holds.
#[test]
fn engines_agree_on_wide_widths() {
    for seed in 100..=104 {
        let sims = run_shape_equivalence(seed, RtlShape::wide(), 25);
        let design = sims[0].design();
        assert!(
            design.nets().iter().any(|n| n.width > 64),
            "seed {seed}: the wide shape drew no net over 64 bits"
        );
        for sim in &sims[2..] {
            let rep = sim.opt_report().expect("tape engines optimize by default");
            assert!(rep.wide_tapes > 0, "seed {seed}: {} ran no u128 tape", sim.engine());
        }
    }
}

/// Every op class at the 64/65-bit boundary, against the `Bits`
/// reference on all four engines. The tape engines run a design whose
/// state fits in 64 bits on `u64` registers and the same design one bit
/// wider on `u128`, so the two encodings must agree with `Bits` exactly
/// where they part.
///
/// Each design has `W`-bit inputs `a`, `b` and an 8-bit shift amount:
/// arithmetic, shifts, signed and unsigned compares and sign extension in
/// comb logic; a comb wire assembled from two masked field writes; a
/// `W`-bit register whose low byte alone is rewritten every cycle (a
/// masked write that must keep the all-ones high bits from reset); and a
/// 64-bit memory written at `b[1:0]` and read at `amt[1:0]`. With
/// `wide_concat`, a comb block also slices `{a[7:0], b}` — wider than 64
/// bits for either `W` — at `lo` = 63.
#[test]
fn boundary_widths_agree_with_bits_on_all_engines() {
    struct Boundary {
        w: u32,
        wide_concat: bool,
    }
    const OUTS: [&str; 17] = [
        "add", "sub", "mul", "neg", "not", "sll", "srl", "sra", "lt", "ge", "lt_s", "ge_s",
        "sext_hi", "sext_lo", "fields", "reg", "mem_rd",
    ];
    impl Component for Boundary {
        fn name(&self) -> String {
            format!("Boundary_{}{}", self.w, if self.wide_concat { "_cat" } else { "" })
        }
        fn build(&self, c: &mut Ctx) {
            let w = self.w;
            let reset = c.reset();
            let a = c.in_port("a", w);
            let bb = c.in_port("b", w);
            let amt = c.in_port("amt", 8);
            let port = |c: &mut Ctx, name: &str, width: u32| c.out_port(name, width);
            let outs: Vec<_> = OUTS
                .iter()
                .map(|&n| {
                    let width = match n {
                        "lt" | "ge" | "lt_s" | "ge_s" => 1,
                        "mem_rd" => 64,
                        _ => w,
                    };
                    port(c, n, width)
                })
                .collect();
            let r = c.wire("r", w);
            let m = c.mem("m", 4, 64);
            c.comb("ops", |blk| {
                let exprs = [
                    a + bb,
                    a - bb,
                    a * bb,
                    -a.ex(),
                    !a.ex(),
                    a.ex().sll(amt.ex()),
                    a.ex().srl(amt.ex()),
                    a.ex().sra(amt.ex()),
                    a.ex().lt(bb.ex()),
                    a.ex().ge(bb.ex()),
                    a.ex().lt_s(bb.ex()),
                    a.ex().ge_s(bb.ex()),
                    a.ex().slice(0, w - 1).sext(w),
                    a.ex().slice(0, 8).sext(w),
                ];
                for (out, e) in outs.iter().zip(exprs) {
                    blk.assign(*out, e);
                }
                blk.assign_slice(outs[14], 0, 8, bb.ex().slice(0, 8));
                blk.assign_slice(outs[14], 8, w, a.ex().slice(8, w));
                blk.assign(outs[15], r.ex());
                blk.assign(outs[16], m.read(amt.ex().slice(0, 2)));
            });
            let ones = Expr::k(w, u128::MAX);
            c.seq("low_byte", |blk| {
                blk.if_else(
                    reset,
                    |blk| blk.assign(r, ones.clone()),
                    |blk| blk.assign_slice(r, 0, 8, a.ex().slice(0, 8)),
                );
            });
            c.seq("mem_wr", |blk| {
                blk.mem_write(m, bb.ex().slice(0, 2), a.ex().slice(0, 64));
            });
            if self.wide_concat {
                let cat = c.out_port("cat", 8);
                c.comb("cat", |blk| {
                    let wide = Expr::concat(vec![a.ex().slice(0, 8), bb.ex()]);
                    blk.assign(cat, wide.slice(63, 71));
                });
            }
        }
    }

    for (w, wide_concat) in [(64, false), (64, true), (65, false), (65, true)] {
        let top = Boundary { w, wide_concat };
        let mut sims: Vec<Sim> =
            Engine::ALL.iter().map(|&e| Sim::build(&top, e).expect("elaborates")).collect();

        // Which register word each tape got. `Specialized` runs the three
        // (four with the concat) block tapes; `SpecializedOpt` adds one
        // fused comb and one fused seq tape.
        for sim in &sims[2..] {
            let rep = sim.opt_report().expect("tape engines optimize by default");
            let fused = if sim.engine() == Engine::SpecializedOpt { 2 } else { 0 };
            assert_eq!(rep.tapes, 3 + wide_concat as u64 + fused, "{}", top.name());
            let want = match (w, wide_concat) {
                // Everything fits in 64 bits: no u128 tape at all.
                (64, false) => 0,
                // Only the concat block, and the fused comb tape holding
                // it, exceed 64 bits.
                (64, true) => 1 + fused / 2,
                // Every block touches a 65-bit net.
                _ => rep.tapes,
            };
            assert_eq!(rep.wide_tapes, want, "{} on {}: u128 tapes", top.name(), sim.engine());
        }

        for sim in &mut sims {
            sim.reset();
        }
        let bw = |v: u128| b(w, v);
        let ones = Bits::ones(w);
        let top_bit = bw(1 << (w - 1));
        let mut reg = ones;
        let mut mem = [Bits::zero(64); 4];
        let operands = [
            (ones, bw(1)),
            (top_bit, ones),
            (bw(0x8123_4567_89AB_CDEF_u128 | 1 << (w - 1)), top_bit | bw(5)),
            (bw(5), bw(7)),
        ];
        for amt in [0u32, 63, 64, 65, 255] {
            for &(a, bv) in &operands {
                for sim in &mut sims {
                    sim.poke_port("a", a);
                    sim.poke_port("b", bv);
                    sim.poke_port("amt", b(8, amt as u128));
                    sim.eval();
                }
                let mut expect = vec![
                    ("add", a + bv),
                    ("sub", a - bv),
                    ("mul", a * bv),
                    ("neg", -a),
                    ("not", !a),
                    ("sll", a << amt),
                    ("srl", a >> amt),
                    ("sra", a.shr_signed(amt)),
                    ("lt", Bits::from_bool(a.as_u128() < bv.as_u128())),
                    ("ge", Bits::from_bool(a.as_u128() >= bv.as_u128())),
                    ("lt_s", Bits::from_bool(a.lt_signed(bv))),
                    ("ge_s", Bits::from_bool(a.ge_signed(bv))),
                    ("sext_hi", a.slice(0, w - 1).sext(w)),
                    ("sext_lo", a.slice(0, 8).sext(w)),
                    ("fields", a.with_slice(0, 8, bv.slice(0, 8))),
                    ("reg", reg),
                    ("mem_rd", mem[(amt & 3) as usize]),
                ];
                if wide_concat {
                    expect.push(("cat", a.slice(0, 8).concat(bv).slice(63, 71)));
                }
                for sim in &sims {
                    for (port, want) in &expect {
                        assert_eq!(
                            sim.peek_port(port),
                            *want,
                            "{} on {}: `{port}` for a={a:#x} b={bv:#x} amt={amt}",
                            top.name(),
                            sim.engine()
                        );
                    }
                }
                for sim in &mut sims {
                    sim.cycle();
                }
                reg = reg.with_slice(0, 8, a.slice(0, 8));
                mem[(bv.as_u128() & 3) as usize] = a.slice(0, 64);
            }
        }
    }
}

/// Shift and slice edge cases driven from signal values: the shift amount
/// arrives on an input port and routinely meets or exceeds the data
/// width, and the slices sit on the width boundaries. Every engine must
/// agree with the `Bits` reference semantics (shifts saturate to
/// all-zeros / sign fill; slices are `[lo, hi)`).
#[test]
fn shift_and_slice_edges_agree_on_all_engines() {
    const W: u32 = 13;
    struct ShiftEdges;
    impl Component for ShiftEdges {
        fn name(&self) -> String {
            "ShiftEdges".into()
        }
        fn build(&self, c: &mut Ctx) {
            let data = c.in_port("data", W);
            let amt = c.in_port("amt", 8);
            let sll = c.out_port("sll", W);
            let srl = c.out_port("srl", W);
            let sra = c.out_port("sra", W);
            let top = c.out_port("top", 1);
            let full = c.out_port("full", W);
            let mid = c.out_port("mid", 5);
            c.comb("shifts", |b| {
                b.assign(sll, data.ex().sll(amt.ex()));
                b.assign(srl, data.ex().srl(amt.ex()));
                b.assign(sra, data.ex().sra(amt.ex()));
            });
            c.comb("slices", |b| {
                b.assign(top, data.ex().bit(W - 1));
                b.assign(full, data.ex().slice(0, W));
                b.assign(mid, data.ex().slice(4, 9));
            });
        }
    }
    let mut sims: Vec<Sim> =
        Engine::ALL.iter().map(|&e| Sim::build(&ShiftEdges, e).expect("elaborates")).collect();
    for sim in &mut sims {
        sim.reset();
    }
    // (data, amount): amounts straddle the width boundary, with the MSB
    // both set (sra fills with ones) and clear (sra fills with zeros).
    let stimuli: [(u128, u128); 6] = [
        (0x0234, 0),   // no shift
        (0x1FFF, 12),  // amount = width - 1
        (0x1FFF, 13),  // amount = width exactly
        (0x1000, 14),  // amount > width, MSB set
        (0x0FFF, 200), // amount far beyond width, MSB clear
        (0x1AAA, 255), // max representable amount
    ];
    for &(data, amt) in &stimuli {
        for sim in &mut sims {
            sim.poke_port("data", b(W, data));
            sim.poke_port("amt", b(8, amt));
            sim.eval();
        }
        let d = b(W, data);
        let expect = [
            ("sll", d << amt as u32),
            ("srl", d >> amt as u32),
            ("sra", d.shr_signed(amt as u32)),
            ("top", b(1, (data >> (W - 1)) & 1)),
            ("full", d),
            ("mid", d.slice(4, 9)),
        ];
        for sim in &sims {
            for (port, want) in &expect {
                assert_eq!(
                    sim.peek_port(port),
                    *want,
                    "{}: `{port}` wrong for data={data:#x} amt={amt}",
                    sim.engine()
                );
            }
        }
    }
}

/// A zero-width slice is a structural error, not a silent no-op: it must
/// be rejected at elaboration time on every engine's shared front end.
#[test]
fn zero_width_slice_is_rejected_at_elaboration() {
    struct ZeroSlice;
    impl Component for ZeroSlice {
        fn name(&self) -> String {
            "ZeroSlice".into()
        }
        fn build(&self, c: &mut Ctx) {
            let a = c.in_port("a", 8);
            let out = c.out_port("out", 8);
            c.comb("bad", |b| b.assign(out, a.ex().slice(3, 3).zext(8)));
        }
    }
    let err =
        rustmtl::core::elaborate(&ZeroSlice).expect_err("zero-width slice must not elaborate");
    let msg = format!("{err}");
    assert!(msg.contains("slice"), "error should name the slice: {msg}");
}

/// Equivalence must also hold under *perturbation*: a seeded fault plan
/// injected into a random RTL design makes each of the four scalar
/// engines diverge from the golden run *identically* — same faulty-trace
/// fingerprint, same first-divergence cycle, same masked/silent/detected
/// classification, same blast radius. Fault injection stresses the
/// settle machinery differently from clean simulation (forces are
/// re-applied mid-settle), so this is a distinct property from
/// `engines_agree_on_random_designs`, not a corollary.
#[test]
fn engines_diverge_identically_under_fault_plans() {
    use rustmtl::fault::{engine_agreement, FaultPlan, Outcome, PlanSpec};

    let mut non_masked = 0;
    for seed in [1u64, 4, 8, 13] {
        let design = RandomRtl::new(seed);
        let probe = Sim::build(&design, Engine::Interpreted).expect("elaborates");
        let plan = FaultPlan::random(seed ^ 0xFA17, probe.design(), &PlanSpec::new(3, 2, 31));
        drop(probe);
        let report =
            engine_agreement(&design, &plan, 30).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert!(report.injected_bits > 0, "seed {seed}: plan must disturb something");
        if report.outcome != Outcome::Masked {
            non_masked += 1;
        }
    }
    // Masking is legitimate per-seed, but if *every* plan were masked the
    // injection hook would effectively be a no-op and this test vacuous.
    assert!(non_masked > 0, "at least one seeded plan must visibly perturb the design");
}

/// Engine equivalence on the *composed* SoC, not just random designs: a
/// 64-tile RTL mesh of traffic-generating tiles is the largest
/// elaboration in the tree (~15k signals, 64 routers), and the
/// acceptance bar for `mtl-soc` is that engine choice stays a pure
/// performance knob on it. Interpreted and SpecializedOpt must agree on
/// the architectural ports every cycle and on every net at checkpoints.
#[test]
fn engines_agree_on_64_tile_soc() {
    use rustmtl::net::NetLevel;
    use rustmtl::soc::{Soc, SocConfig, SocTraffic};

    let soc = Soc::new(SocConfig::synthetic(64, NetLevel::Rtl, SocTraffic::Tornado).with_limit(4));
    let engines = [Engine::Interpreted, Engine::SpecializedOpt];
    let mut sims: Vec<Sim> =
        engines.iter().map(|&e| Sim::build(&soc, e).expect("64-tile SoC elaborates")).collect();
    let nsignals = sims[0].design().signals().len();
    assert!(nsignals > 10_000, "64-tile RTL SoC should be the largest design in the tree");
    for sim in &mut sims {
        sim.reset();
    }
    let ports = ["checksum", "injected", "delivered"];
    for cycle in 0..160u64 {
        for sim in &mut sims {
            sim.cycle();
        }
        // Architectural ports every cycle; the full net sweep is spot
        // checked so debug-mode test time stays bounded.
        for port in ports {
            let reference = sims[0].peek_port(port);
            for (ei, sim) in sims.iter().enumerate().skip(1) {
                assert_eq!(
                    sim.peek_port(port),
                    reference,
                    "{} diverged on `{port}` at cycle {cycle}",
                    engines[ei]
                );
            }
        }
        if cycle % 40 == 39 {
            for si in 0..nsignals {
                let sig = rustmtl::core::SignalId::from_index(si);
                let reference = sims[0].peek(sig);
                for (ei, sim) in sims.iter().enumerate().skip(1) {
                    assert_eq!(
                        sim.peek(sig),
                        reference,
                        "{} diverged on `{}` at cycle {cycle}",
                        engines[ei],
                        sims[0].design().signal_path(sig)
                    );
                }
            }
        }
    }
    // The workload must actually have exercised the mesh by now.
    assert!(sims[0].peek_port("injected").as_u64() > 0, "tornado traffic must inject");
}

/// The compute personality (full proc+cache+xcel tiles speaking memory
/// packets over the mesh) run in lockstep across engines: shared
/// `TestMemory` backing is safe exactly because the engines are
/// cycle-exact — every write lands with identical value and timing.
#[test]
fn engines_agree_on_compute_soc() {
    use rustmtl::net::NetLevel;
    use rustmtl::soc::{Soc, SocConfig, SocTraffic};

    let soc = Soc::new(SocConfig::compute(
        4,
        rustmtl::accel::TileConfig {
            proc: rustmtl::proc::ProcLevel::Rtl,
            cache: rustmtl::proc::CacheLevel::Rtl,
            xcel: rustmtl::accel::XcelLevel::Rtl,
        },
        NetLevel::Rtl,
        SocTraffic::UniformRandom,
    ));
    let engines = [Engine::Interpreted, Engine::SpecializedOpt];
    let mut sims: Vec<Sim> =
        engines.iter().map(|&e| Sim::build(&soc, e).expect("compute SoC elaborates")).collect();
    for sim in &mut sims {
        sim.reset();
    }
    let mut halted_at = None;
    for cycle in 0..20_000u64 {
        for sim in &mut sims {
            sim.cycle();
        }
        for port in ["halted", "instret_total"] {
            let reference = sims[0].peek_port(port);
            for (ei, sim) in sims.iter().enumerate().skip(1) {
                assert_eq!(
                    sim.peek_port(port),
                    reference,
                    "{} diverged on `{port}` at cycle {cycle}",
                    engines[ei]
                );
            }
        }
        if sims[0].peek_port("halted") == b(1, 1) {
            halted_at = Some(cycle);
            break;
        }
    }
    let halted_at = halted_at.expect("compute SoC must halt on every engine");
    assert!(halted_at > 50, "plausible runtime, got {halted_at} cycles");
    assert_eq!(soc.read_results(), soc.expected_results(), "results must match host model");
}
