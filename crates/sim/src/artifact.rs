//! Shared compiled-artifact cache: elaborated designs and compiled/fused
//! tapes, keyed by a caller-supplied fingerprint.
//!
//! A persistent process serving many simulation jobs (the `mtl-serve`
//! daemon) rebuilds the *same* design over and over: every fault-sweep
//! chunk of one design point, every trial batch of one mesh
//! configuration. Elaboration plus tape compilation dominate short jobs,
//! and both produce data that is reusable across simulator instances:
//!
//! * **Elaborated designs** (`Arc<Design>`) — shareable only when the
//!   design has *no native blocks*: native closures are stateful
//!   `FnMut`s drained once per design by [`Design::take_natives`], so a
//!   design carrying them can serve exactly one simulator. Pure-IR (RTL)
//!   designs are immutable data and shared freely.
//! * **Compiled tapes and fused plans** ([`TapeArtifact`]) — the
//!   `Specialized`/`SpecializedOpt` construction phases `comp` (constant
//!   folding), `cgen` (tape codegen), and the plan-fusion part of `simc`
//!   produce pure data (`Tape`s are just op vectors). These are shared
//!   even for native-bearing designs: the per-instance state (packed
//!   nets, sensitivity lists, native closures) is rebuilt cheaply, the
//!   compilation is not.
//!
//! The cache key is a caller-supplied 64-bit fingerprint (produced with
//! `mtl-sweep`'s FNV machinery from whatever parameters generate the
//! design). **The key must uniquely identify the elaborated design**;
//! as defense in depth every tape lookup additionally validates a
//! structural [`shape_of`] digest of the design against the artifact and
//! rejects (recompiles) on mismatch, so a colliding or misused key
//! degrades to a miss, never to executing tapes against the wrong
//! design.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::sim::Chunk;
use crate::tape::ExecTape;
use mtl_core::{BlockBody, BlockKind, Design};

/// The shareable output of `Specialized`/`SpecializedOpt` construction:
/// per-block tapes plus (static mode) the fused schedule plans. Pure
/// data — safe to execute from any number of simulator instances.
pub(crate) struct TapeArtifact {
    pub(crate) tapes: Arc<Vec<ExecTape>>,
    pub(crate) comb_plan: Arc<Vec<Chunk>>,
    pub(crate) seq_plan: Arc<Vec<Chunk>>,
    /// Structural digest of the design these tapes were compiled from.
    pub(crate) shape: u64,
    /// Whether the tape optimizer ran on these tapes. Part of the
    /// artifact's identity: a lookup requesting the other setting is a
    /// miss, never a silent mismatch (optimized and unoptimized tapes
    /// are behaviorally equivalent but differ in ops/registers, and the
    /// fingerprint must cover what actually executes).
    pub(crate) optimized: bool,
    /// Per-pass statistics from the optimizing compile, replayed to
    /// cache-hit consumers so `--dump-passes` works on reused builds.
    pub(crate) report: Option<crate::passes::OptReport>,
}

/// The shareable output of `SpecializedBatch` construction: the scalar
/// fused tapes lowered to bit-sliced plane programs. Pure data like
/// [`TapeArtifact`]; the per-instance plane state is rebuilt per
/// simulator. Keyed by the same `optimized` flag as the tape layer —
/// the plane layout mirrors the tape it was lowered from, so the
/// fingerprint covers what actually executes.
pub(crate) struct BatchArtifact {
    pub(crate) progs: Arc<crate::batch::BatchProgs>,
    /// Structural digest of the design the planes were lowered from.
    pub(crate) shape: u64,
    /// Whether the tape optimizer ran before lowering.
    pub(crate) optimized: bool,
    /// Pass report replayed to cache-hit consumers (same as the tape
    /// artifact's).
    pub(crate) report: Option<crate::passes::OptReport>,
}

#[derive(Default)]
struct Entry {
    design: Option<Arc<Design>>,
    /// `Specialized` (event-mode) artifact: tapes only, empty plans.
    event: Option<Arc<TapeArtifact>>,
    /// `SpecializedOpt` (static-mode) artifact: tapes plus fused plans.
    fused: Option<Arc<TapeArtifact>>,
    /// `SpecializedBatch` artifact: the fused plans lowered to planes.
    batch: Option<Arc<BatchArtifact>>,
}

/// Counter snapshot from [`ArtifactCache::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArtifactStats {
    /// Tape-artifact lookups satisfied from the cache (compiles skipped).
    pub tape_hits: u64,
    /// Tape-artifact lookups that compiled fresh.
    pub tape_misses: u64,
    /// Lookups rejected by the structural shape check (key misuse; the
    /// build fell back to a fresh compile).
    pub shape_rejected: u64,
    /// Elaborations skipped by reusing a cached native-free design.
    pub design_hits: u64,
    /// Batch-plane lookups satisfied from the cache (tape lowering
    /// skipped).
    pub batch_hits: u64,
    /// Batch-plane lookups that lowered fresh.
    pub batch_misses: u64,
    /// Distinct fingerprints currently cached.
    pub entries: u64,
}

impl ArtifactStats {
    /// Fraction of tape lookups served from the cache (0.0 when none).
    pub fn hit_rate(&self) -> f64 {
        let total = self.tape_hits + self.tape_misses;
        if total == 0 {
            0.0
        } else {
            self.tape_hits as f64 / total as f64
        }
    }
}

/// The process-wide cache. Thread-safe; intended to live in an `Arc`
/// shared by every job a server executes. See the module docs for the
/// sharing rules and [`crate::Sim::build_shared`] for the entry point.
#[derive(Default)]
pub struct ArtifactCache {
    entries: Mutex<HashMap<u64, Entry>>,
    tape_hits: AtomicU64,
    tape_misses: AtomicU64,
    shape_rejected: AtomicU64,
    design_hits: AtomicU64,
    batch_hits: AtomicU64,
    batch_misses: AtomicU64,
}

impl ArtifactCache {
    pub fn new() -> ArtifactCache {
        ArtifactCache::default()
    }

    /// Point-in-time counter snapshot.
    pub fn stats(&self) -> ArtifactStats {
        ArtifactStats {
            tape_hits: self.tape_hits.load(Ordering::Relaxed),
            tape_misses: self.tape_misses.load(Ordering::Relaxed),
            shape_rejected: self.shape_rejected.load(Ordering::Relaxed),
            design_hits: self.design_hits.load(Ordering::Relaxed),
            batch_hits: self.batch_hits.load(Ordering::Relaxed),
            batch_misses: self.batch_misses.load(Ordering::Relaxed),
            entries: self.entries.lock().unwrap_or_else(|e| e.into_inner()).len() as u64,
        }
    }

    /// Drops every cached entry (counters are kept).
    pub fn clear(&self) {
        self.entries.lock().unwrap_or_else(|e| e.into_inner()).clear();
    }

    pub(crate) fn lookup_design(&self, key: u64) -> Option<Arc<Design>> {
        let found = self
            .entries
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(&key)
            .and_then(|e| e.design.clone());
        if found.is_some() {
            self.design_hits.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    /// Caches a freshly elaborated design for reuse — only if it is
    /// native-free (see the module docs; a native-bearing design can
    /// serve exactly one simulator).
    pub(crate) fn store_design(&self, key: u64, design: &Arc<Design>) {
        let has_native = design.blocks().iter().any(|b| matches!(b.body, BlockBody::Native(..)));
        if has_native {
            return;
        }
        self.entries
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .entry(key)
            .or_default()
            .design
            .get_or_insert_with(|| design.clone());
    }

    /// Looks up the tape artifact for (`key`, engine mode), validating
    /// its structural shape against `design`. Counts a hit, a miss, or a
    /// shape rejection (which behaves as a miss).
    pub(crate) fn lookup_tape(
        &self,
        key: u64,
        event_mode: bool,
        optimized: bool,
        design: &Design,
    ) -> Option<Arc<TapeArtifact>> {
        let found =
            {
                let entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
                entries.get(&key).and_then(|e| {
                    if event_mode {
                        e.event.clone()
                    } else {
                        e.fused.clone()
                    }
                })
            };
        // An artifact compiled under the other optimizer setting is a
        // plain miss: the caller recompiles (and first-writer-wins keeps
        // the cached one, so a process mixing settings under one key
        // simply forgoes reuse for the minority setting).
        let found = found.filter(|a| a.optimized == optimized);
        match found {
            Some(artifact) if artifact.shape == shape_of(design) => {
                self.tape_hits.fetch_add(1, Ordering::Relaxed);
                Some(artifact)
            }
            Some(_) => {
                self.shape_rejected.fetch_add(1, Ordering::Relaxed);
                None
            }
            None => {
                self.tape_misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts a freshly compiled artifact (first writer wins; a
    /// concurrent duplicate compile is discarded, not an error).
    pub(crate) fn store_tape(&self, key: u64, event_mode: bool, artifact: TapeArtifact) {
        let mut entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        let entry = entries.entry(key).or_default();
        let slot = if event_mode { &mut entry.event } else { &mut entry.fused };
        slot.get_or_insert_with(|| Arc::new(artifact));
    }

    /// Looks up the batch-plane artifact for `key`, with the same
    /// optimizer-setting filter and structural shape guard as
    /// [`ArtifactCache::lookup_tape`].
    pub(crate) fn lookup_batch(
        &self,
        key: u64,
        optimized: bool,
        design: &Design,
    ) -> Option<Arc<BatchArtifact>> {
        let found = self
            .entries
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(&key)
            .and_then(|e| e.batch.clone())
            .filter(|a| a.optimized == optimized);
        match found {
            Some(artifact) if artifact.shape == shape_of(design) => {
                self.batch_hits.fetch_add(1, Ordering::Relaxed);
                Some(artifact)
            }
            Some(_) => {
                self.shape_rejected.fetch_add(1, Ordering::Relaxed);
                None
            }
            None => {
                self.batch_misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts a freshly lowered batch artifact (first writer wins).
    pub(crate) fn store_batch(&self, key: u64, artifact: BatchArtifact) {
        let mut entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        entries.entry(key).or_default().batch.get_or_insert_with(|| Arc::new(artifact));
    }
}

/// A cheap structural digest of an elaborated design: net count and
/// widths, memory geometry, and per-block (kind, body class, IR length,
/// read/write arity). Two designs with equal shape and equal cache key
/// are treated as the same design; the digest exists to catch key
/// collisions and misuse, not as the primary identity.
pub(crate) fn shape_of(design: &Design) -> u64 {
    // FNV-1a, matching mtl-sweep's fingerprint hash.
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    let mut mix = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    mix(design.nets().len() as u64);
    for net in design.nets() {
        mix(net.width as u64);
    }
    mix(design.mems().len() as u64);
    for mem in design.mems() {
        mix(mem.words);
        mix(mem.width as u64);
    }
    mix(design.blocks().len() as u64);
    for block in design.blocks() {
        mix(matches!(block.kind, BlockKind::Seq) as u64);
        match &block.body {
            BlockBody::Ir(stmts) => mix(stmts.len() as u64),
            BlockBody::Native(..) => mix(u64::MAX),
        }
        mix(block.reads.len() as u64);
        mix(block.writes.len() as u64);
        mix(block.mem_reads.len() as u64);
        mix(block.mem_writes.len() as u64);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{Engine, Sim, SimConfig};
    use mtl_bits::b;
    use mtl_core::{Component, Ctx};

    /// A pure-IR counter: native-free, so both the design and the tapes
    /// are shareable.
    struct Counter {
        width: u32,
    }
    impl Component for Counter {
        fn name(&self) -> String {
            "Counter".into()
        }
        fn build(&self, c: &mut Ctx) {
            let en = c.in_port("en", 1);
            let out = c.out_port("out", self.width);
            let nxt = c.wire("nxt", self.width);
            c.comb("calc", |b| b.assign(nxt, out + en.ex().zext(self.width)));
            c.seq("step", |b| b.assign(out, nxt));
        }
    }

    fn run_counter(sim: &mut Sim, cycles: u64) -> u128 {
        sim.reset();
        sim.poke_port("en", b(1, 1));
        for _ in 0..cycles {
            sim.cycle();
        }
        sim.peek_port("out").as_u128()
    }

    #[test]
    fn shared_builds_hit_the_cache_and_match_fresh_behavior() {
        let cache = ArtifactCache::new();
        let cfg = SimConfig::default();
        for engine in [Engine::Specialized, Engine::SpecializedOpt] {
            let fresh = run_counter(&mut Sim::build(&Counter { width: 8 }, engine).unwrap(), 37);
            let mut first =
                Sim::build_shared(&Counter { width: 8 }, engine, &cfg, &cache, 7).unwrap();
            let mut second =
                Sim::build_shared(&Counter { width: 8 }, engine, &cfg, &cache, 7).unwrap();
            assert_eq!(run_counter(&mut first, 37), fresh);
            assert_eq!(run_counter(&mut second, 37), fresh);
            // The reused build skipped the compile phases entirely.
            assert_eq!(second.overheads().comp, std::time::Duration::ZERO);
            assert_eq!(second.overheads().cgen, std::time::Duration::ZERO);
        }
        let stats = cache.stats();
        // Each engine mode: one miss then one hit; the second and later
        // builds also reuse the elaborated (native-free) design.
        assert_eq!(stats.tape_misses, 2, "{stats:?}");
        assert_eq!(stats.tape_hits, 2, "{stats:?}");
        assert_eq!(stats.design_hits, 3, "{stats:?}");
        assert_eq!(stats.shape_rejected, 0, "{stats:?}");
        assert_eq!(stats.entries, 1, "{stats:?}");
        assert!((stats.hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn a_misused_key_is_rejected_by_the_shape_check() {
        let cache = ArtifactCache::new();
        let cfg = SimConfig::default();
        let engine = Engine::SpecializedOpt;
        let a = run_counter(
            &mut Sim::build_shared(&Counter { width: 8 }, engine, &cfg, &cache, 1).unwrap(),
            10,
        );
        // Same key, structurally different design: the cached design wins
        // the lookup and simulation proceeds on it — exactly why the key
        // must identify the design. Bypass design reuse with a fresh
        // cache per-mode... instead exercise the tape-level guard
        // directly: a fresh cache holding only the tape entry.
        let tapes_only = ArtifactCache::new();
        let mut first =
            Sim::build_shared(&Counter { width: 8 }, engine, &cfg, &tapes_only, 1).unwrap();
        assert_eq!(run_counter(&mut first, 10), a);
        tapes_only.entries.lock().unwrap().get_mut(&1).unwrap().design = None;
        let wide = run_counter(&mut Sim::build(&Counter { width: 16 }, engine).unwrap(), 300);
        let mut other =
            Sim::build_shared(&Counter { width: 16 }, engine, &cfg, &tapes_only, 1).unwrap();
        assert_eq!(run_counter(&mut other, 300), wide, "must recompile, not run 8-bit tapes");
        let stats = tapes_only.stats();
        assert_eq!(stats.shape_rejected, 1, "{stats:?}");
        assert_eq!(stats.tape_hits, 0, "{stats:?}");
    }

    #[test]
    fn concurrent_shared_builds_agree() {
        let cache = std::sync::Arc::new(ArtifactCache::new());
        let expected = run_counter(
            &mut Sim::build(&Counter { width: 8 }, Engine::SpecializedOpt).unwrap(),
            21,
        );
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let cache = cache.clone();
                scope.spawn(move || {
                    for _ in 0..8 {
                        let mut sim = Sim::build_shared(
                            &Counter { width: 8 },
                            Engine::SpecializedOpt,
                            &SimConfig::default(),
                            &cache,
                            42,
                        )
                        .unwrap();
                        assert_eq!(run_counter(&mut sim, 21), expected);
                    }
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.tape_hits + stats.tape_misses, 32, "{stats:?}");
        assert!(stats.tape_hits >= 28, "at most one duplicate compile per thread: {stats:?}");
        assert_eq!(stats.shape_rejected, 0, "{stats:?}");
    }
}
