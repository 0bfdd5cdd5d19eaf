//! Oracle for body-deduplicated tape compilation.
//!
//! The tape engines optimize and narrow each distinct block body once
//! and stamp the result into every instance by slot relocation
//! (`mtl_sim::block_tapes`). The reference (`mtl_sim::reference_block_
//! tapes`) is the plain per-block loop: every block compiled, optimized
//! and narrowed on its own against the full design width tables. The two
//! must agree op for op on every tape, and their optimizer reports must
//! be equal except for `bodies` (the reference counts every IR block as
//! its own body), with the optimizer on and off.
//!
//! Run with:
//!
//!   cargo test -p mtl-bench --release --test body_dedup
//!
//! Every design and seed is pinned, so a failure reproduces as is.

use mtl_bench::design_registry;
use mtl_check::RandomRtl;
use mtl_core::{elaborate, BlockBody, Component, Ctx, Design};
use mtl_net::NetLevel;
use mtl_sim::{block_tapes, reference_block_tapes, Engine, Sim};
use mtl_soc::{Soc, SocConfig, SocTraffic};

/// Random RTL seeds checked beyond the registry's own (1..=5).
const RANDOM_SEEDS: std::ops::Range<u64> = 1000..1024;

fn ir_blocks(design: &Design) -> u64 {
    design.blocks().iter().filter(|b| matches!(b.body, BlockBody::Ir(_))).count() as u64
}

/// Checks dedup against the reference with the optimizer off and on;
/// returns the distinct body count.
fn check(name: &str, design: &Design) -> u64 {
    let mut bodies = 0;
    for opt in [false, true] {
        let got = block_tapes(design, opt);
        let want = reference_block_tapes(design, opt);
        if let Some(diff) = got.tape_mismatch(&want) {
            panic!("{name} (optimizer {opt}): {diff}");
        }
        match (got.report, want.report) {
            (None, None) => assert!(!opt, "{name}: optimizer on but no report"),
            (Some(mut got), Some(want)) => {
                assert_eq!(want.blocks, ir_blocks(design), "{name}: reference block count");
                assert_eq!(want.bodies, want.blocks, "{name}: reference shares nothing");
                assert!(got.bodies <= got.blocks, "{name}: {} bodies", got.bodies);
                assert!(got.bodies > 0 || got.blocks == 0, "{name}: no bodies");
                bodies = got.bodies;
                got.bodies = want.bodies;
                assert_eq!(got, want, "{name}: optimizer report differs from the reference");
            }
            _ => panic!("{name} (optimizer {opt}): report presence differs"),
        }
    }
    bodies
}

fn elab(name: &str, top: &dyn Component) -> Design {
    elaborate(top).unwrap_or_else(|e| panic!("{name}: elaboration failed: {e:?}"))
}

#[test]
fn dedup_matches_reference_on_the_design_registry() {
    for (name, top) in design_registry() {
        check(&name, &elab(&name, top.as_ref()));
    }
}

#[test]
fn dedup_matches_reference_on_synthetic_socs() {
    for tiles in [4, 16, 64] {
        let name = format!("soc{tiles}");
        let soc = Soc::new(SocConfig::synthetic(tiles, NetLevel::Rtl, SocTraffic::UniformRandom));
        check(&name, &elab(&name, &soc));
    }
}

#[test]
fn dedup_matches_reference_on_random_rtl() {
    for seed in RANDOM_SEEDS {
        let name = format!("RandomRtl({seed})");
        check(&name, &elab(&name, &RandomRtl::new(seed)));
    }
}

/// `y = x[0:4]` over a 4-bit and two 8-bit inputs. The raw tapes are
/// identical up to slot numbering, but the slice of a 4-bit net is the
/// whole net (width-narrow makes it a copy) while the 8-bit one must
/// mask: the width belongs in the key. The two 8-bit blocks share.
struct WidthTwins;

impl Component for WidthTwins {
    fn name(&self) -> String {
        "WidthTwins".into()
    }

    fn build(&self, c: &mut Ctx) {
        for (name, width) in [("narrow", 4), ("wide", 8), ("wide2", 8)] {
            let x = c.in_port(&format!("{name}_x"), width);
            let y = c.out_port(&format!("{name}_y"), 4);
            c.comb(name, |b| b.assign(y, x.slice(0, 4)));
        }
    }
}

/// `y = a + a` beside `y = a + b` (twice). Ranking a block's *distinct*
/// slots keeps the aliasing visible: the first reads rank 0 twice, the
/// others ranks 0 and 1, and only CSE on the first may fold the reads.
/// The two two-input blocks share.
struct AliasTwins;

impl Component for AliasTwins {
    fn name(&self) -> String {
        "AliasTwins".into()
    }

    fn build(&self, c: &mut Ctx) {
        let a = c.in_port("twice_a", 8);
        let y = c.out_port("twice_y", 8);
        c.comb("twice", |blk| blk.assign(y, a + a));
        for name in ["pair", "pair2"] {
            let a = c.in_port(&format!("{name}_a"), 8);
            let b = c.in_port(&format!("{name}_b"), 8);
            let y = c.out_port(&format!("{name}_y"), 8);
            c.comb(name, |blk| blk.assign(y, a + b));
        }
    }
}

#[test]
fn bodies_differing_in_one_width_do_not_share() {
    let design = elab("WidthTwins", &WidthTwins);
    assert_eq!(ir_blocks(&design), 3);
    assert_eq!(check("WidthTwins", &design), 2);
}

#[test]
fn aliased_reads_do_not_share_with_distinct_reads() {
    let design = elab("AliasTwins", &AliasTwins);
    assert_eq!(ir_blocks(&design), 3);
    assert_eq!(check("AliasTwins", &design), 2);
}

/// The engines surface the body count: a 64-tile SoC compiles far fewer
/// bodies than it has blocks, and both tape engines agree on the count.
#[test]
fn soc64_compiles_a_tenth_of_its_blocks() {
    let soc = Soc::new(SocConfig::synthetic(64, NetLevel::Rtl, SocTraffic::UniformRandom));
    let mut counts = Vec::new();
    for engine in [Engine::Specialized, Engine::SpecializedOpt] {
        let sim = Sim::build(&soc, engine).expect("elaboration failed");
        let rep = sim.opt_report().expect("optimizer on by default");
        assert!(rep.bodies * 10 < rep.blocks, "{engine:?}: {} of {}", rep.bodies, rep.blocks);
        assert!(rep.render().contains(&format!("bodies {} of {} blocks", rep.bodies, rep.blocks)));
        counts.push((rep.bodies, rep.blocks));
    }
    assert_eq!(counts[0], counts[1]);
}
