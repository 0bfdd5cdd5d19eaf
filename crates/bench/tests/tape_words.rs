//! Coverage gate for the 64-bit tape value path.
//!
//! `narrow` runs a tape on `u64` registers only when a width proof holds
//! and silently keeps `u128` otherwise, so a proof that stops firing
//! would hand the speedup back with every other test still green. This
//! gate pins the coverage instead: every design whose nets and memories
//! are all at most 64 bits wide must report `OptReport::wide_tapes == 0`
//! — every per-block and fused-plan tape on `u64` — on both tape
//! engines. The design set is the design registry, the 4/16/64-tile
//! synthetic RTL SoCs and the Fig. 14 8x8 RTL mesh (the `mesh64`
//! benchmark's hot loop). The converse is checked on the wide random
//! RTL shape: its designs carry nets wider than 64 bits and must keep
//! `u128` tapes.
//!
//! Run with:
//!
//!   cargo test -p mtl-bench --release --test tape_words

use mtl_bench::{design_registry, mesh_harness};
use mtl_check::{RandomRtl, RtlDesc, RtlShape};
use mtl_core::{elaborate, Component, Design};
use mtl_net::NetLevel;
use mtl_sim::{Engine, OptReport, Sim};
use mtl_soc::{Soc, SocConfig, SocTraffic};

/// Whether every net and memory of `design` is at most 64 bits wide.
fn all_narrow(design: &Design) -> bool {
    design.nets().iter().all(|n| n.width <= 64) && design.mems().iter().all(|m| m.width <= 64)
}

/// The optimizer report of `top` on each tape engine.
fn reports(name: &str, top: &dyn Component) -> Vec<(Engine, OptReport)> {
    [Engine::Specialized, Engine::SpecializedOpt]
        .into_iter()
        .map(|engine| {
            let sim = Sim::build(top, engine)
                .unwrap_or_else(|e| panic!("{name}: elaboration failed: {e:?}"));
            let rep = sim.opt_report().unwrap_or_else(|| panic!("{name}: no opt report")).clone();
            (engine, rep)
        })
        .collect()
}

/// Asserts that a design whose state fits in 64 bits runs every tape on
/// `u64`; returns whether the design qualified.
fn check_narrow(name: &str, top: &dyn Component) -> bool {
    let design = elaborate(top).unwrap_or_else(|e| panic!("{name}: elaboration failed: {e:?}"));
    if !all_narrow(&design) {
        return false;
    }
    for (engine, rep) in reports(name, top) {
        assert_eq!(
            rep.wide_tapes, 0,
            "{name} on {engine}: {} of {} tapes fell back to u128 although every net \
             and memory is at most 64 bits wide",
            rep.wide_tapes, rep.tapes
        );
    }
    true
}

#[test]
fn registry_designs_within_64_bits_run_every_tape_on_u64() {
    let mut narrow = 0;
    for (name, top) in design_registry() {
        narrow += check_narrow(&name, top.as_ref()) as usize;
    }
    // Guard the gate itself: nearly the whole registry qualifies.
    assert!(narrow >= 20, "only {narrow} registry designs are within 64 bits");
}

#[test]
fn synthetic_socs_run_every_tape_on_u64() {
    for tiles in [4, 16, 64] {
        let soc = Soc::new(SocConfig::synthetic(tiles, NetLevel::Rtl, SocTraffic::UniformRandom));
        assert!(check_narrow(&format!("soc{tiles}"), &soc), "soc{tiles} has a net over 64 bits");
    }
}

#[test]
fn fig14_rtl_mesh_runs_every_tape_on_u64() {
    let mesh = mesh_harness(NetLevel::Rtl, 64, 300);
    assert!(check_narrow("fig14 RTL mesh", &mesh), "the mesh has a net over 64 bits");
}

#[test]
fn wide_random_rtl_keeps_u128_tapes() {
    for seed in 100..=104 {
        let top = RandomRtl::from_desc(RtlDesc::generate(seed, RtlShape::wide()));
        let design = elaborate(&top).expect("wide random design elaborates");
        assert!(!all_narrow(&design), "seed {seed}: no net over 64 bits");
        for (engine, rep) in reports(&format!("wide RandomRtl({seed})"), &top) {
            assert!(rep.wide_tapes > 0, "seed {seed} on {engine}: no u128 tape");
            assert!(rep.wide_tapes <= rep.tapes);
        }
    }
}
