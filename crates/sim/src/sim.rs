//! The [`Sim`] simulation tool and its five engines.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mtl_bits::Bits;
use mtl_core::{
    BlockBody, BlockKind, Component, Design, ElabError, MemId, NativeFn, SignalId, SignalKind,
    SignalView,
};

use crate::artifact::ArtifactCache;
use crate::interp::{exec_stmts, DenseSens, DenseStore, HashSens, HashStore, SensMap, Store};
use crate::overheads::Overheads;
use crate::passes::{optimize, OptReport};
use crate::profile::{EngineStats, SimProfile};
use crate::tape::{compile_blocks, fuse, mask_of, narrow, validate, ExecTape, Regs};

/// Simulation engine selection; see `DESIGN.md` for the mapping onto the
/// paper's CPython / PyPy / SimJIT / SimJIT+PyPy regimes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Engine {
    /// Event-driven tree-walking simulator with hash-map value storage and
    /// hash-map sensitivity lookup (the CPython analog).
    Interpreted,
    /// Same event-driven tree-walking architecture with dense pre-resolved
    /// storage and sensitivity (the PyPy analog).
    InterpretedOpt,
    /// IR blocks compiled to linear tapes over packed `u128` slots and
    /// `u64` registers wherever a width proof allows, still dispatched
    /// through the event queue (the SimJIT analog).
    Specialized,
    /// Tapes plus a fully static levelized schedule — no event queue at all
    /// (the SimJIT+PyPy analog).
    SpecializedOpt,
    /// Bit-sliced batch engine: the `SpecializedOpt` tapes lowered to a
    /// plane evaluator where each net bit is one `u64` word holding that
    /// bit across 64 independent trial lanes, so one pass over the tape
    /// advances 64 fault/fuzz trials at once. Lane-exact with
    /// `SpecializedOpt` per lane (the differential suites assert it).
    /// Per-lane stimulus and faults go through [`Sim::poke_lane`] /
    /// [`Sim::inject_lane`]; divergence against a golden lane is read
    /// with [`Sim::divergence_masks`]. Native blocks are not supported
    /// (a native closure is one stateful instance, not 64).
    SpecializedBatch,
}

impl Engine {
    /// The four scalar engines (the paper's four regimes), in increasing
    /// order of specialization.
    /// [`Engine::SpecializedBatch`] is deliberately excluded: it is
    /// lane-parallel and opt-in (no native-block support), while every
    /// `ALL` consumer iterates single-lane engines over arbitrary
    /// designs.
    pub const ALL: [Engine; 4] =
        [Engine::Interpreted, Engine::InterpretedOpt, Engine::Specialized, Engine::SpecializedOpt];
}

impl std::fmt::Display for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Engine::Interpreted => "interpreted",
            Engine::InterpretedOpt => "interpreted-opt",
            Engine::Specialized => "specialized",
            Engine::SpecializedOpt => "specialized-opt",
            Engine::SpecializedBatch => "specialized-batch",
        };
        write!(f, "{s}")
    }
}

/// Construction-time simulator configuration.
#[derive(Debug, Clone, Default)]
pub struct SimConfig {
    /// Whether the tape engines run the optimizer pass pipeline
    /// ([`crate::passes`]) over compiled tapes. `None` means on. The
    /// interpreters compile no tapes and ignore it.
    pub tape_opt: Option<bool>,
    /// Active lane count for [`Engine::SpecializedBatch`], clamped to
    /// `1..=64`. `None` means all 64 lanes. State storage is always 64
    /// lanes wide (one `u64` plane word per net bit); inactive lanes
    /// receive the same broadcast stimulus as lane 0 and are excluded
    /// from [`Sim::divergence_masks`]. Other engines ignore it.
    pub lanes: Option<u32>,
}

impl SimConfig {
    /// Resolves [`SimConfig::tape_opt`] (`None` is on).
    pub fn tape_opt_enabled(&self) -> bool {
        self.tape_opt.unwrap_or(true)
    }

    /// Resolves [`SimConfig::lanes`] to the active lane count (1..=64).
    pub fn batch_lanes(&self) -> u32 {
        self.lanes.map_or(crate::batch::LANES, |n| n.clamp(1, crate::batch::LANES))
    }
}

pub(crate) trait EngineImpl {
    fn poke(&mut self, slot: u32, v: Bits);
    fn peek(&self, slot: u32) -> Bits;
    fn eval(&mut self);
    fn cycle(&mut self);
    fn cycles(&self) -> u64;
    fn peek_mem(&self, mem: usize, addr: u64) -> Bits;
    fn poke_mem(&mut self, mem: usize, addr: u64, v: Bits);
    fn set_activity(&mut self, on: bool);
    fn activity(&self) -> &[u64];
    fn set_profiling(&mut self, on: bool);
    fn stats(&self) -> Option<&EngineStats>;
    // Fault-injection primitives (see `Sim::inject`). These let the
    // wrapper drive a cycle manually — settle, clock edge, re-settle —
    // with identical sequencing on every engine, which is what makes
    // faulty traces byte-identical across backends.
    /// Runs the sequential blocks and commits register/memory shadow
    /// state (the clock-edge half of `cycle()`), without settling
    /// combinational logic and without advancing the cycle counter.
    fn edge(&mut self);
    /// Executes one block serially through the engine's native write
    /// path. Used by the wrapper's levelized injection settle.
    fn exec_block(&mut self, b: u32);
    /// Overwrites a net's settled value on one lane without waking
    /// readers or marking schedules dirty (scalar engines have only lane
    /// 0). With `also_next`, the shadow (`next`) copy is overwritten
    /// too, so a forced register value survives the commit unless a
    /// sequential block reassigns it (SEU semantics: hold paths keep the
    /// flipped bit, update paths overwrite it).
    fn force(&mut self, lane: u32, slot: u32, v: Bits, also_next: bool);
    /// Unconditionally re-evaluates every combinational block (full
    /// settle), washing out any forced values whose faults expired.
    fn settle_full(&mut self);
    /// Advances the cycle counter (split out of `cycle()` so the
    /// wrapper's faulted path can bump it after the post-edge settle,
    /// matching the counter's position in the normal path).
    fn bump_cycles(&mut self);
    /// Per-pass tape-optimizer statistics from construction, if this
    /// engine compiled tapes with the optimizer enabled. Interpreters
    /// (no tapes) and optimizer-off builds return `None`.
    fn opt_report(&self) -> Option<&OptReport> {
        None
    }
    // Lane (batch-engine) primitives. Scalar engines keep the defaults:
    // a single lane aliasing the ordinary poke/peek path.
    /// Active trial lanes this backend simulates (1 for scalar engines).
    fn lane_count(&self) -> u32 {
        1
    }
    /// Drives a net on one lane only (other lanes keep their values).
    fn poke_lane(&mut self, lane: u32, slot: u32, v: Bits) {
        assert_eq!(lane, 0, "scalar engine has a single lane");
        self.poke(slot, v);
    }
    /// Reads a net's value on one lane.
    fn peek_lane(&self, lane: u32, slot: u32) -> Bits {
        assert_eq!(lane, 0, "scalar engine has a single lane");
        self.peek(slot)
    }
    /// Fills `out` with one mask per net: bit `L` set iff lane `L`'s
    /// value of that net differs from lane `golden`'s, restricted to
    /// active lanes. Returns true iff any mask is non-zero; false
    /// (leaving `out` untouched) on engines without lanes.
    fn divergence_masks(&self, _golden: u32, _out: &mut Vec<u64>) -> bool {
        false
    }
}

/// The disturbance a scheduled [`Injection`] applies to its target net.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InjectKind {
    /// Transient single-event upset: XOR the mask into the settled value.
    /// On a register net the flipped bits persist across the clock edge
    /// unless the register captures a new value that cycle.
    Flip,
    /// Stuck-at-0: masked bits forced low for the fault's duration.
    StuckAt0,
    /// Stuck-at-1: masked bits forced high for the fault's duration.
    StuckAt1,
}

impl std::fmt::Display for InjectKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            InjectKind::Flip => "flip",
            InjectKind::StuckAt0 => "stuck-at-0",
            InjectKind::StuckAt1 => "stuck-at-1",
        };
        write!(f, "{s}")
    }
}

/// One scheduled fault on a net, installed with [`Sim::inject`].
///
/// The fault is applied as a post-settle/pre-edge hook: on each cycle in
/// `[cycle, cycle + duration)` the simulator settles combinational logic,
/// applies the disturbance, re-settles in a fixed levelized order while
/// holding the disturbed value forced, and only then clocks the edge — so
/// sequential state captures the faulty values. Stuck-at faults are also
/// held through the post-edge settle; transient flips are not (their
/// effect persists only through whatever state latched them).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Injection {
    /// Any signal on the target net (internal signals allowed).
    pub sig: SignalId,
    /// Bits of the net to disturb; must be non-zero and within the net's
    /// width.
    pub mask: u128,
    /// Disturbance kind.
    pub kind: InjectKind,
    /// First cycle (as counted by [`Sim::cycle_count`]) the fault is
    /// active.
    pub cycle: u64,
    /// Number of consecutive cycles the fault is active (≥ 1; transient
    /// flips are conventionally 1).
    pub duration: u64,
}

/// An installed fault: the [`Injection`] resolved to a net slot.
#[derive(Clone, Copy)]
struct FaultState {
    slot: u32,
    width: u32,
    is_reg: bool,
    mask: u128,
    kind: InjectKind,
    cycle: u64,
    duration: u64,
}

impl FaultState {
    /// Whether the fault disturbs the pre-edge settle of `cycle`.
    fn active_pre(&self, cycle: u64) -> bool {
        cycle >= self.cycle && cycle - self.cycle < self.duration
    }

    /// Whether the fault is still forced after the edge of `cycle`
    /// (stuck-at faults only; a flip is a one-shot disturbance whose
    /// persistence comes from state that latched it).
    fn active_post(&self, cycle: u64) -> bool {
        self.kind != InjectKind::Flip && self.active_pre(cycle)
    }

    /// The forced value given a freshly driven clean value `v`.
    fn apply(&self, v: u128, width_mask: u128) -> u128 {
        let forced = match self.kind {
            InjectKind::Flip => v ^ self.mask,
            InjectKind::StuckAt0 => v & !self.mask,
            InjectKind::StuckAt1 => v | self.mask,
        };
        forced & width_mask
    }
}

/// Logical profiling state kept in the `Sim` wrapper (engine-independent
/// by construction: it is computed from settled-value snapshots, never
/// from what the backend happened to execute).
struct ProfileState {
    /// Settled net values as of the last observation, indexed by net.
    snapshot: Vec<Bits>,
    /// Scratch: which nets changed at the current settle point.
    changed: Vec<bool>,
    /// For each combinational block, the net slots whose settled-value
    /// change counts as an execution: its reads (minus nets it writes
    /// itself, mirroring the engines' sensitivity lists) plus its writes
    /// (covering re-evaluation triggered through memories).
    comb_triggers: Vec<(u32, Vec<u32>)>,
    /// Sequential block indices (run once per clock edge, every engine).
    seq_blocks: Vec<u32>,
    /// Logical execution count per block.
    block_runs: Vec<u64>,
    /// Settle points observed (`eval()` + `cycle()` calls).
    settles: u64,
}

/// A constructed simulator for an elaborated design.
///
/// `Sim` is the analog of PyMTL's `SimulationTool`: it consumes a
/// [`Design`] and provides `poke`/`peek`/`cycle` test-bench operations. The
/// engine choice trades construction overhead for simulation speed; all
/// engines produce identical cycle-by-cycle behavior (a property the test
/// suite checks on random designs).
///
/// # Examples
///
/// ```
/// use mtl_core::{elaborate, Component, Ctx};
/// use mtl_sim::{Engine, Sim};
/// use mtl_bits::b;
///
/// struct Register { nbits: u32 }
/// impl Component for Register {
///     fn name(&self) -> String { format!("Register_{}", self.nbits) }
///     fn build(&self, c: &mut Ctx) {
///         let in_ = c.in_port("in_", self.nbits);
///         let out = c.out_port("out", self.nbits);
///         c.seq("seq_logic", |b| b.assign(out, in_));
///     }
/// }
///
/// let mut sim = Sim::build(&Register { nbits: 8 }, Engine::SpecializedOpt).unwrap();
/// sim.poke_port("in_", b(8, 42));
/// sim.cycle();
/// assert_eq!(sim.peek_port("out"), b(8, 42));
/// ```
pub struct Sim {
    design: Arc<Design>,
    engine: Engine,
    overheads: Overheads,
    backend: Box<dyn EngineImpl>,
    profile: Option<ProfileState>,
    /// Installed faults as `(lane, fault)`; scalar engines only use lane
    /// 0 (empty in the common case: the fast paths in `cycle`/`run` are
    /// untouched unless `inject` was called).
    faults: Vec<(u32, FaultState)>,
    /// Levelized combinational order for the injection settle; computed
    /// once on first `inject`.
    inject_sched: Vec<u32>,
    /// A forced (stuck-at) settle ran and its fault has since expired:
    /// the next settle must be a full pass to wash the forces out.
    fault_cleanup: bool,
    /// Bits disturbed so far per lane (one count per masked bit per
    /// faulted cycle).
    injected_bits: Vec<u64>,
    /// Cycles on which at least one fault was active, per lane.
    faulted_cycles: Vec<u64>,
}

/// The `MTL_LINT` gate run at simulator construction.
///
/// * `MTL_LINT=deny` — print every diagnostic to stderr and panic if any
///   has [`Severity::Error`].
/// * `MTL_LINT=warn` — print every diagnostic to stderr and continue.
/// * `MTL_LINT=off` or unset — do nothing (zero overhead).
///
/// An unrecognized value prints a note and behaves like `off`, so a typo in
/// a CI environment never silently changes simulation semantics.
fn lint_gate(design: &Design) {
    let mode = std::env::var("MTL_LINT").unwrap_or_default();
    match mode.as_str() {
        "deny" | "warn" => {}
        "" | "off" => return,
        other => {
            eprintln!("mtl-lint: unrecognized MTL_LINT={other} (expected deny|warn|off); lint off");
            return;
        }
    }
    let diags = mtl_core::lint(design);
    for d in &diags {
        eprintln!("mtl-lint: {d}");
    }
    if mode == "deny" {
        let errors = diags.iter().filter(|d| d.severity == mtl_core::Severity::Error).count();
        assert!(errors == 0, "MTL_LINT=deny: {errors} lint error(s) in design (see stderr)");
    }
}

impl Sim {
    /// Elaborates a component and constructs a simulator, recording the
    /// elaboration time in [`Sim::overheads`].
    ///
    /// # Errors
    ///
    /// Returns any [`ElabError`] from elaboration.
    pub fn build(top: &dyn Component, engine: Engine) -> Result<Sim, ElabError> {
        let t0 = Instant::now();
        let design = mtl_core::elaborate(top)?;
        let elab = t0.elapsed();
        let mut sim = Sim::new(design, engine);
        sim.overheads.elab = elab;
        Ok(sim)
    }

    /// Constructs a simulator from an already-elaborated design.
    ///
    /// Construction phases (code generation, optimization, wrapper tables,
    /// schedule creation) are timed into [`Sim::overheads`].
    pub fn new(design: Design, engine: Engine) -> Sim {
        Sim::with_config(design, engine, &SimConfig::default())
    }

    /// [`Sim::new`] with explicit configuration (optimizer switch and
    /// batch lane count).
    pub fn with_config(design: Design, engine: Engine, cfg: &SimConfig) -> Sim {
        lint_gate(&design);
        // Take ownership of native closures so the Design can be shared.
        let natives: Vec<Option<NativeFn>> = design.take_natives();
        let design = Arc::new(design);
        let mut overheads = Overheads::default();
        let backend = Sim::make_backend(&design, natives, engine, cfg, None, &mut overheads);
        Sim::assemble(design, engine, overheads, backend)
    }

    /// Constructs the engine backend, optionally consulting a shared
    /// [`ArtifactCache`] for the tape engines' compile output. On a tape
    /// cache hit the `comp`/`cgen` phases (and plan fusion) are skipped;
    /// on a miss the fresh compile is published back to the cache.
    /// The interpreters compile nothing, so only the tape engines
    /// participate.
    fn make_backend(
        design: &Arc<Design>,
        natives: Vec<Option<NativeFn>>,
        engine: Engine,
        cfg: &SimConfig,
        shared: Option<(&ArtifactCache, u64)>,
        overheads: &mut Overheads,
    ) -> Box<dyn EngineImpl> {
        match engine {
            Engine::Interpreted => Box::new(InterpEngine::<HashStore, HashSens>::new(
                design.clone(),
                natives,
                true,
                overheads,
            )),
            Engine::InterpretedOpt => Box::new(InterpEngine::<DenseStore, DenseSens>::new(
                design.clone(),
                natives,
                false,
                overheads,
            )),
            Engine::Specialized | Engine::SpecializedOpt => {
                let event_mode = engine == Engine::Specialized;
                let opt = cfg.tape_opt_enabled();
                let reuse = shared.and_then(|(c, k)| c.lookup_tape(k, event_mode, opt, design));
                let fresh = reuse.is_none();
                let eng =
                    TapeEngine::new(design.clone(), natives, event_mode, opt, overheads, reuse);
                if fresh {
                    if let Some((cache, key)) = shared {
                        cache.store_tape(key, event_mode, eng.artifact());
                    }
                }
                Box::new(eng)
            }
            Engine::SpecializedBatch => {
                assert!(
                    natives.iter().all(Option::is_none),
                    "Engine::SpecializedBatch does not support native blocks: a native \
                     closure is one stateful instance, not 64 lanes. Use an IR-level \
                     (RTL) model or a scalar engine."
                );
                let opt = cfg.tape_opt_enabled();
                let lanes = cfg.batch_lanes();
                // The batch lowering consumes the scalar fused-tape
                // artifact, so both layers go through the shared cache:
                // a batch hit skips everything, a tape hit still skips
                // comp/cgen and only re-lowers the planes.
                if let Some(b) = shared.and_then(|(c, k)| c.lookup_batch(k, opt, design)) {
                    return Box::new(crate::batch::BatchEngine::from_artifact(
                        design.clone(),
                        b,
                        lanes,
                        overheads,
                    ));
                }
                let reuse = shared.and_then(|(c, k)| c.lookup_tape(k, false, opt, design));
                let fresh = reuse.is_none();
                let tape_eng =
                    TapeEngine::new(design.clone(), natives, false, opt, overheads, reuse);
                if fresh {
                    if let Some((cache, key)) = shared {
                        cache.store_tape(key, false, tape_eng.artifact());
                    }
                }
                let eng = crate::batch::BatchEngine::lower(
                    design.clone(),
                    &tape_eng.artifact(),
                    lanes,
                    overheads,
                );
                if let Some((cache, key)) = shared {
                    cache.store_batch(key, eng.artifact());
                }
                Box::new(eng)
            }
        }
    }

    fn assemble(
        design: Arc<Design>,
        engine: Engine,
        overheads: Overheads,
        backend: Box<dyn EngineImpl>,
    ) -> Sim {
        let lanes = backend.lane_count() as usize;
        Sim {
            design,
            engine,
            overheads,
            backend,
            profile: None,
            faults: Vec::new(),
            inject_sched: Vec::new(),
            fault_cleanup: false,
            injected_bits: vec![0; lanes],
            faulted_cycles: vec![0; lanes],
        }
    }

    /// [`Sim::build_with_config`] backed by a shared [`ArtifactCache`]:
    /// the elaborated design (when native-free) and the tape engines'
    /// compile output are reused across simulator instances under `key`.
    ///
    /// `key` must uniquely identify the *design produced by `top`* —
    /// derive it from the same parameters that configure the component
    /// (e.g. with [`mtl_sweep`'s] FNV hasher). It should *not* include
    /// run-varying inputs like seeds or cycle counts, or nothing will
    /// ever be shared. A wrong key is caught by a structural shape check
    /// and degrades to a fresh compile.
    ///
    /// Reused phases report zero time in [`Sim::overheads`] (`comp`,
    /// `cgen`, and the fused-plan share of `simc` on a tape hit; `elab`
    /// additionally on a design hit) — the honest cost of a cache hit.
    ///
    /// # Errors
    ///
    /// Returns any [`ElabError`] from elaboration.
    pub fn build_shared(
        top: &dyn Component,
        engine: Engine,
        cfg: &SimConfig,
        cache: &ArtifactCache,
        key: u64,
    ) -> Result<Sim, ElabError> {
        let t0 = Instant::now();
        let design = match cache.lookup_design(key) {
            Some(design) => design,
            None => {
                let design = mtl_core::elaborate(top)?;
                lint_gate(&design);
                let design = Arc::new(design);
                cache.store_design(key, &design);
                design
            }
        };
        let mut overheads = Overheads { elab: t0.elapsed(), ..Default::default() };
        // A cache-served design was drained of natives by its first
        // simulator; only native-free designs are stored, so this
        // returns the correct all-`None` vector for it.
        let natives: Vec<Option<NativeFn>> = design.take_natives();
        let backend =
            Sim::make_backend(&design, natives, engine, cfg, Some((cache, key)), &mut overheads);
        Ok(Sim::assemble(design, engine, overheads, backend))
    }

    /// [`Sim::build`] with explicit configuration (e.g. the optimizer
    /// forced off).
    ///
    /// # Errors
    ///
    /// Returns any [`ElabError`] from elaboration.
    pub fn build_with_config(
        top: &dyn Component,
        engine: Engine,
        cfg: &SimConfig,
    ) -> Result<Sim, ElabError> {
        let t0 = Instant::now();
        let design = mtl_core::elaborate(top)?;
        let elab = t0.elapsed();
        let mut sim = Sim::with_config(design, engine, cfg);
        sim.overheads.elab = elab;
        Ok(sim)
    }

    /// The engine this simulator runs on.
    pub fn engine(&self) -> Engine {
        self.engine
    }

    /// The elaborated design being simulated.
    pub fn design(&self) -> &Design {
        &self.design
    }

    /// Per-phase construction overheads (the paper's Fig. 16 columns).
    pub fn overheads(&self) -> &Overheads {
        &self.overheads
    }

    /// Mutable access to the overhead record, so callers can add externally
    /// measured phases (e.g. the `veri` translate-round-trip time).
    pub fn overheads_mut(&mut self) -> &mut Overheads {
        &mut self.overheads
    }

    /// Per-pass tape-optimizer statistics from construction (the
    /// `--dump-passes` payload). `None` for the interpreters (no tapes)
    /// and for optimizer-off builds.
    pub fn opt_report(&self) -> Option<&OptReport> {
        self.backend.opt_report()
    }

    /// Drives a top-level input port.
    ///
    /// # Panics
    ///
    /// Panics if `sig` is not an input port of the top-level module.
    pub fn poke(&mut self, sig: SignalId, v: Bits) {
        let info = self.design.signal(sig);
        assert!(
            info.kind == SignalKind::InPort && info.module == self.design.top(),
            "poke target `{}` is not a top-level input port",
            self.design.signal_path(sig)
        );
        assert_eq!(info.width, v.width(), "poke width mismatch on `{}`", info.name);
        self.backend.poke(self.design.net_of(sig).index() as u32, v);
    }

    /// Reads the current value of any signal.
    pub fn peek(&self, sig: SignalId) -> Bits {
        self.backend.peek(self.design.net_of(sig).index() as u32)
    }

    /// Drives a top-level input port by name.
    pub fn poke_port(&mut self, name: &str, v: Bits) {
        let sig = self.design.top_port(name);
        self.poke(sig, v);
    }

    /// Reads a top-level port by name.
    pub fn peek_port(&self, name: &str) -> Bits {
        self.peek(self.design.top_port(name))
    }

    /// Propagates combinational logic to a fixed point without advancing
    /// the clock. With a fault currently active, the settle holds the
    /// disturbed values forced, so peeks observe the faulty network.
    pub fn eval(&mut self) {
        if self.faults.is_empty() && !self.fault_cleanup {
            self.backend.eval();
        } else {
            let now = self.backend.cycles();
            let pre: Vec<usize> = self.active_faults(now, false);
            if !pre.is_empty() {
                self.forced_settle(&pre);
            } else if self.fault_cleanup {
                self.backend.settle_full();
                self.fault_cleanup = false;
            } else {
                self.backend.eval();
            }
        }
        self.observe_settle(false);
    }

    /// Advances one clock cycle: settle combinational logic, run sequential
    /// blocks, commit register and memory state, and re-settle. Cycles on
    /// which an installed fault is active take the injection path (see
    /// [`Sim::inject`]); all other cycles are unaffected.
    pub fn cycle(&mut self) {
        if self.faults.is_empty() && !self.fault_cleanup {
            self.backend.cycle();
        } else {
            let now = self.backend.cycles();
            let pre = self.active_faults(now, false);
            if !pre.is_empty() {
                self.faulted_cycle(now, &pre);
            } else {
                if self.fault_cleanup {
                    self.backend.settle_full();
                    self.fault_cleanup = false;
                }
                self.backend.cycle();
            }
        }
        self.observe_settle(true);
    }

    /// Advances `n` clock cycles.
    pub fn run(&mut self, n: u64) {
        if self.profile.is_some() || !self.faults.is_empty() || self.fault_cleanup {
            for _ in 0..n {
                self.cycle();
            }
        } else {
            for _ in 0..n {
                self.backend.cycle();
            }
        }
    }

    /// Asserts reset for two cycles, then deasserts it and re-settles, so
    /// state observed before the next `cycle()` already reflects
    /// deasserted reset.
    pub fn reset(&mut self) {
        let reset = self.design.reset();
        let slot = self.design.net_of(reset).index() as u32;
        self.backend.poke(slot, Bits::from_bool(true));
        self.cycle();
        self.cycle();
        self.backend.poke(slot, Bits::from_bool(false));
        self.eval();
    }

    /// The number of clock edges simulated so far.
    pub fn cycle_count(&self) -> u64 {
        self.backend.cycles()
    }

    /// Installs a scheduled fault (transient bit-flip or stuck-at) on a
    /// net. Multiple faults may be installed, including on the same net;
    /// they compound in installation order.
    ///
    /// Injection is a post-settle/pre-edge hook: on each active cycle the
    /// wrapper applies the disturbance and re-settles combinational logic
    /// in the design's levelized block order with the disturbed value held
    /// forced, then clocks the edge, then re-settles (stuck-at faults stay
    /// forced, flips do not). Because the wrapper drives this sequence
    /// through engine-agnostic primitives in one fixed order, every
    /// engine produces byte-identical faulty traces for the same faults —
    /// a property `mtl-check` asserts differentially.
    ///
    /// # Panics
    ///
    /// Panics if the mask is zero or exceeds the net width, if the
    /// duration is zero, or if the target net is an undriven non-register
    /// net (e.g. a top-level input: nothing would restore it after the
    /// fault expires — drive stimulus through `poke` instead).
    pub fn inject(&mut self, inj: Injection) {
        // On the batch engine a wrapper-level fault is a broadcast: one
        // entry per active lane, each run through the same protocol.
        let fault = self.resolve_fault(inj);
        for lane in 0..self.backend.lane_count() {
            self.install(lane, fault);
        }
    }

    /// Adds one lane's fault, computing the injection schedule on first
    /// use.
    fn install(&mut self, lane: u32, fault: FaultState) {
        if self.inject_sched.is_empty() {
            self.inject_sched = self
                .design
                .comb_schedule()
                .expect("design validated at elaboration")
                .iter()
                .map(|b| b.index() as u32)
                .collect();
        }
        self.faults.push((lane, fault));
    }

    /// Validates an [`Injection`] and resolves it to a [`FaultState`].
    fn resolve_fault(&self, inj: Injection) -> FaultState {
        let net = self.design.net_of(inj.sig);
        let slot = net.index() as u32;
        let info = &self.design.nets()[net.index()];
        let path = self.design.signal_path(inj.sig);
        assert!(inj.mask != 0, "injection on `{path}` has an empty mask");
        assert!(
            inj.mask & !mask_of(info.width) == 0,
            "injection mask {:#x} exceeds the {}-bit width of `{path}`",
            inj.mask,
            info.width
        );
        assert!(inj.duration >= 1, "injection on `{path}` has zero duration");
        assert!(
            info.is_register || !self.design.net_writers()[net.index()].is_empty(),
            "injection target `{path}` is an undriven non-register net; \
             poke stimulus instead of injecting faults on inputs"
        );
        FaultState {
            slot,
            width: info.width,
            is_reg: info.is_register,
            mask: inj.mask,
            kind: inj.kind,
            cycle: inj.cycle,
            duration: inj.duration,
        }
    }

    /// Total disturbed bits so far (one per masked bit per faulted
    /// cycle). On the batch engine this reports lane 0 (the conventional
    /// golden/reference lane); use [`Sim::lane_fault_totals`] for other
    /// lanes.
    pub fn injected_bits(&self) -> u64 {
        self.injected_bits[0]
    }

    /// Cycles simulated so far on which at least one fault was active
    /// (lane 0 on the batch engine).
    pub fn faulted_cycle_count(&self) -> u64 {
        self.faulted_cycles[0]
    }

    /// Active trial lanes: 1 on the scalar engines, the configured lane
    /// count (up to 64) on [`Engine::SpecializedBatch`].
    pub fn lane_count(&self) -> u32 {
        self.backend.lane_count()
    }

    /// Drives a top-level input port on one lane only (batch engine).
    /// Lane 0 of a batch simulator with no other per-lane state is
    /// bit-exact with a scalar engine receiving the same pokes.
    ///
    /// # Panics
    ///
    /// Panics like [`Sim::poke`], or if `lane` is out of range.
    pub fn poke_lane(&mut self, lane: u32, sig: SignalId, v: Bits) {
        let info = self.design.signal(sig);
        assert!(
            info.kind == SignalKind::InPort && info.module == self.design.top(),
            "poke target `{}` is not a top-level input port",
            self.design.signal_path(sig)
        );
        assert_eq!(info.width, v.width(), "poke width mismatch on `{}`", info.name);
        assert!(lane < self.backend.lane_count(), "lane {lane} out of range");
        self.backend.poke_lane(lane, self.design.net_of(sig).index() as u32, v);
    }

    /// Reads the current value of any signal on one lane.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn peek_lane(&self, lane: u32, sig: SignalId) -> Bits {
        assert!(lane < self.backend.lane_count(), "lane {lane} out of range");
        self.backend.peek_lane(lane, self.design.net_of(sig).index() as u32)
    }

    /// Installs a scheduled fault on one lane of a batch simulator. The
    /// wrapper runs the forced-settle protocol of [`Sim::inject`] on
    /// that lane alone, so each faulted lane's trace is byte-identical
    /// to a scalar engine running that lane's fault set — the property
    /// the fault differential suite asserts.
    ///
    /// # Panics
    ///
    /// Panics like [`Sim::inject`], if `lane` is out of range, or if
    /// this simulator is not running [`Engine::SpecializedBatch`].
    pub fn inject_lane(&mut self, lane: u32, inj: Injection) {
        assert!(
            self.backend.lane_count() > 1,
            "inject_lane requires Engine::SpecializedBatch with more than one lane"
        );
        assert!(lane < self.backend.lane_count(), "lane {lane} out of range");
        let fault = self.resolve_fault(inj);
        self.install(lane, fault);
    }

    /// Fills `out` with one mask per net (indexed by
    /// [`NetId::index`](mtl_core::NetId::index)): bit `L` is set iff
    /// lane `L`'s settled value of that net differs from lane `golden`'s,
    /// restricted to active lanes. Returns `true` iff any lane diverged
    /// anywhere, `false` (leaving `out` untouched) on scalar engines.
    /// This is the batch campaign's
    /// divergence detector: one XOR-and-reduce pass over the plane state
    /// classifies all lanes at once.
    pub fn divergence_masks(&self, golden: u32, out: &mut Vec<u64>) -> bool {
        self.backend.divergence_masks(golden, out)
    }

    /// `(injected_bits, faulted_cycles)` accumulated on one lane
    /// (zeros for lanes past [`Sim::lane_count`]).
    pub fn lane_fault_totals(&self, lane: u32) -> (u64, u64) {
        let l = lane as usize;
        (
            self.injected_bits.get(l).copied().unwrap_or(0),
            self.faulted_cycles.get(l).copied().unwrap_or(0),
        )
    }

    /// Indices of faults active at `now` (post-edge window if `post`).
    fn active_faults(&self, now: u64, post: bool) -> Vec<usize> {
        self.faults
            .iter()
            .enumerate()
            .filter(|(_, (_, f))| if post { f.active_post(now) } else { f.active_pre(now) })
            .map(|(i, _)| i)
            .collect()
    }

    /// Settles combinational logic with the given faults held forced:
    /// one full pass over the levelized schedule, re-applying each force
    /// whenever a driver overwrote it with a fresh clean value. A full
    /// levelized pass makes every combinational net a pure function of
    /// sequential state, inputs, and forces — all identical across
    /// engines — so the post-settle state is engine-independent no matter
    /// what (engine-specific) unsettled state it started from. Each fault
    /// is read and forced on its own lane only, so on the batch engine
    /// every lane settles exactly as a scalar engine with that lane's
    /// faults would.
    fn forced_settle(&mut self, active: &[usize]) {
        let mut forced: Vec<u128> = Vec::with_capacity(active.len());
        for &fi in active {
            let (lane, f) = self.faults[fi];
            let v = self.backend.peek_lane(lane, f.slot).as_u128();
            let t = f.apply(v, mask_of(f.width));
            self.backend.force(lane, f.slot, Bits::new(f.width, t), f.is_reg);
            forced.push(t);
        }
        let sched = std::mem::take(&mut self.inject_sched);
        for &b in &sched {
            self.backend.exec_block(b);
            for (k, &fi) in active.iter().enumerate() {
                let (lane, f) = self.faults[fi];
                let v = self.backend.peek_lane(lane, f.slot).as_u128();
                if v != forced[k] {
                    // The net's driver ran and wrote a fresh clean value:
                    // recompute the disturbance from it and re-force (a
                    // plain re-XOR would double-apply a flip).
                    let t = f.apply(v, mask_of(f.width));
                    self.backend.force(lane, f.slot, Bits::new(f.width, t), f.is_reg);
                    forced[k] = t;
                }
            }
        }
        self.inject_sched = sched;
    }

    /// One clock cycle with the faults `pre` active: forced settle,
    /// clock edge, post-edge settle (forced again for stuck-at faults,
    /// full clean re-settle otherwise). A lane counts one faulted cycle
    /// however many of its faults are active.
    fn faulted_cycle(&mut self, now: u64, pre: &[usize]) {
        self.forced_settle(pre);
        let mut lanes_hit = 0u64;
        for &fi in pre {
            let (lane, f) = self.faults[fi];
            self.injected_bits[lane as usize] += f.mask.count_ones() as u64;
            lanes_hit |= 1 << lane;
        }
        while lanes_hit != 0 {
            self.faulted_cycles[lanes_hit.trailing_zeros() as usize] += 1;
            lanes_hit &= lanes_hit - 1;
        }
        self.backend.edge();
        let post = self.active_faults(now, true);
        if post.is_empty() {
            // The faults latched whatever state captured them; wash all
            // forced combinational values back to clean ones. This must
            // be a full pass on every engine: an event-driven settle
            // would only re-run blocks downstream of changed registers,
            // leaving stale faulty values elsewhere.
            self.backend.settle_full();
            self.fault_cleanup = false;
        } else {
            self.forced_settle(&post);
            self.fault_cleanup = true;
        }
        self.backend.bump_cycles();
    }

    /// Reads a word from a design memory (test backdoor).
    ///
    /// # Panics
    ///
    /// Panics if `addr` is outside the memory.
    pub fn peek_mem(&self, mem: MemId, addr: u64) -> Bits {
        let info = self.design.mem(mem);
        assert!(
            addr < info.words,
            "peek_mem address {addr} out of range for `{}` ({} words)",
            info.name,
            info.words
        );
        self.backend.peek_mem(mem.index(), addr)
    }

    /// Writes a word to a design memory (test backdoor, e.g. program
    /// loading).
    ///
    /// # Panics
    ///
    /// Panics if `addr` is outside the memory or `v` has the wrong width.
    pub fn poke_mem(&mut self, mem: MemId, addr: u64, v: Bits) {
        let info = self.design.mem(mem);
        assert_eq!(info.width, v.width(), "poke_mem width mismatch on `{}`", info.name);
        assert!(
            addr < info.words,
            "poke_mem address {addr} out of range for `{}` ({} words)",
            info.name,
            info.words
        );
        self.backend.poke_mem(mem.index(), addr, v);
    }

    /// Enables per-net activity (register bit-toggle) counting.
    ///
    /// Counting adds a small per-cycle cost, so it is off by default;
    /// enable it before the measurement window, then read
    /// [`Sim::net_activity`].
    pub fn enable_activity(&mut self) {
        self.backend.set_activity(true);
    }

    /// Per-net bit-toggle counts accumulated since
    /// [`enable_activity`](Sim::enable_activity), indexed by
    /// [`NetId::index`](mtl_core::NetId::index). Only register nets
    /// toggle (combinational nets follow them).
    pub fn net_activity(&self) -> &[u64] {
        self.backend.activity()
    }

    /// Toggle count of the net a signal belongs to.
    pub fn activity_of(&self, sig: SignalId) -> u64 {
        let a = self.backend.activity();
        a.get(self.design.net_of(sig).index()).copied().unwrap_or(0)
    }

    /// Produces a one-line textual trace of the given signals — the
    /// analog of PyMTL's line tracing, handy for pipeline debugging.
    ///
    /// Each entry is rendered as `name=hexvalue`; collect one line per
    /// cycle for a scrolling pipeline diagram.
    ///
    /// # Examples
    ///
    /// ```no_run
    /// # use mtl_sim::Sim;
    /// # fn demo(mut sim: Sim) {
    /// let pc = sim.design().top_port("instret");
    /// for _ in 0..10 {
    ///     sim.cycle();
    ///     println!("{}", sim.line_trace(&[("instret", pc)]));
    /// }
    /// # }
    /// ```
    pub fn line_trace(&self, signals: &[(&str, SignalId)]) -> String {
        let mut parts = Vec::with_capacity(signals.len() + 1);
        parts.push(format!("cyc {:>6}:", self.cycle_count()));
        for (name, sig) in signals {
            parts.push(format!("{name}={:x}", self.peek(*sig)));
        }
        parts.join(" ")
    }

    /// Finds a signal by hierarchical path suffix (e.g. `proc.pc`),
    /// for observing internal state in tests and line traces.
    ///
    /// The suffix must align with a path-component boundary: `pc` matches
    /// `top.proc.pc` but not `top.proc.xpc`.
    ///
    /// # Panics
    ///
    /// Panics if no signal path ends with `suffix`, or if the suffix is
    /// ambiguous (matches signals on different nets — aliases of one net
    /// are the same state and resolve to the first match).
    pub fn find_signal(&self, suffix: &str) -> SignalId {
        let matches: Vec<SignalId> = (0..self.design.signals().len())
            .map(SignalId::from_index)
            .filter(|&s| {
                let path = self.design.signal_path(s);
                path.ends_with(suffix)
                    && (path.len() == suffix.len()
                        || path.as_bytes()[path.len() - suffix.len() - 1] == b'.')
            })
            .collect();
        match matches.as_slice() {
            [] => panic!("no signal path ending in component suffix `{suffix}`"),
            [one] => *one,
            many => {
                let net0 = self.design.net_of(many[0]);
                if many.iter().all(|&s| self.design.net_of(s) == net0) {
                    many[0]
                } else {
                    let paths: Vec<String> =
                        many.iter().map(|&s| self.design.signal_path(s)).collect();
                    panic!(
                        "signal suffix `{suffix}` is ambiguous across nets; candidates: {}",
                        paths.join(", ")
                    );
                }
            }
        }
    }

    /// Finds a memory by leaf name anywhere in the design.
    ///
    /// # Panics
    ///
    /// Panics if no memory has that name.
    pub fn find_mem(&self, name: &str) -> MemId {
        for (i, m) in self.design.mems().iter().enumerate() {
            if m.name == name {
                return MemId::from_index(i);
            }
        }
        panic!("no memory named `{name}` in design");
    }

    /// Enables profiling: logical block-execution counting in the wrapper,
    /// physical timing/queue instrumentation in the backend, and per-net
    /// activity counters (see [`SimProfile`] for the metric split).
    ///
    /// Profiling adds per-settle overhead proportional to the design size,
    /// so it is off by default; enable it before the window of interest
    /// and read the result with [`Sim::profile`]. Idempotent.
    pub fn enable_profiling(&mut self) {
        if self.profile.is_some() {
            return;
        }
        self.backend.set_activity(true);
        self.backend.set_profiling(true);
        let design = &self.design;
        let nets = design.nets().len();
        let snapshot: Vec<Bits> = (0..nets).map(|s| self.backend.peek(s as u32)).collect();
        let mut comb_triggers = Vec::new();
        let mut seq_blocks = Vec::new();
        for (i, b) in design.blocks().iter().enumerate() {
            match b.kind {
                BlockKind::Comb => {
                    let own: Vec<u32> =
                        b.writes.iter().map(|&w| design.net_of(w).index() as u32).collect();
                    let mut slots: Vec<u32> = b
                        .reads
                        .iter()
                        .map(|&r| design.net_of(r).index() as u32)
                        .filter(|s| !own.contains(s))
                        .chain(own.iter().copied())
                        .collect();
                    slots.sort_unstable();
                    slots.dedup();
                    comb_triggers.push((i as u32, slots));
                }
                BlockKind::Seq => seq_blocks.push(i as u32),
            }
        }
        self.profile = Some(ProfileState {
            snapshot,
            changed: vec![false; nets],
            comb_triggers,
            seq_blocks,
            block_runs: vec![0; design.blocks().len()],
            settles: 0,
        });
    }

    /// Whether [`Sim::enable_profiling`] has been called.
    pub fn profiling_enabled(&self) -> bool {
        self.profile.is_some()
    }

    /// The profile collected so far, or `None` if profiling was never
    /// enabled. May be called repeatedly; each call snapshots the current
    /// counters.
    pub fn profile(&self) -> Option<SimProfile> {
        let p = self.profile.as_ref()?;
        let stats = self.backend.stats().expect("backend profiling enabled with wrapper");
        let design = &self.design;
        let block_paths = (0..design.blocks().len())
            .map(|i| design.block_path(mtl_core::BlockId::from_index(i)))
            .collect();
        let net_paths = design
            .nets()
            .iter()
            .map(|n| {
                n.signals
                    .first()
                    .map(|&s| design.signal_path(s))
                    .unwrap_or_else(|| "<unconnected>".to_string())
            })
            .collect();
        let mut net_activity = self.backend.activity().to_vec();
        net_activity.resize(design.nets().len(), 0);
        Some(SimProfile {
            engine: self.engine,
            cycles: self.backend.cycles(),
            settles: p.settles,
            injections: self.injected_bits[0],
            faulted_cycles: self.faulted_cycles[0],
            block_runs: p.block_runs.clone(),
            block_nanos: stats.block_nanos.clone(),
            block_paths,
            engine_settles: stats.settles,
            fixpoint_iters: stats.fixpoint.clone(),
            queue_depth: stats.queue_depth.clone(),
            net_activity,
            net_paths,
        })
    }

    /// Logical profiling hook: called after every settle point (`eval()`
    /// or `cycle()`). Diffs settled net values against the last snapshot
    /// and charges an execution to each block whose trigger set changed;
    /// sequential blocks are charged once per clock edge. Because this is
    /// a pure function of the value trace, the counts are identical on
    /// every engine.
    fn observe_settle(&mut self, clocked: bool) {
        let Some(p) = self.profile.as_mut() else { return };
        p.settles += 1;
        let mut any = false;
        for (slot, prev) in p.snapshot.iter_mut().enumerate() {
            let now = self.backend.peek(slot as u32);
            let changed = now != *prev;
            p.changed[slot] = changed;
            if changed {
                *prev = now;
                any = true;
            }
        }
        if any {
            for (b, slots) in &p.comb_triggers {
                if slots.iter().any(|&s| p.changed[s as usize]) {
                    p.block_runs[*b as usize] += 1;
                }
            }
        }
        if clocked {
            for &b in &p.seq_blocks {
                p.block_runs[b as usize] += 1;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Interpreted (event-driven tree-walking) backend
// ---------------------------------------------------------------------------

struct InterpEngine<S: Store, M: SensMap> {
    design: Arc<Design>,
    store: S,
    sens: M,
    mem_sens: Vec<Vec<u32>>,
    mems: Vec<Vec<Bits>>,
    pending: Vec<(u32, u64, Bits)>,
    natives: Vec<Option<NativeFn>>,
    queue: VecDeque<u32>,
    in_queue: Vec<bool>,
    reg_slots: Vec<u32>,
    seq_blocks: Vec<u32>,
    changed: Vec<u32>,
    cycles: u64,
    /// Allocate boxed intermediates during evaluation (CPython analog).
    boxed: bool,
    track_activity: bool,
    activity: Vec<u64>,
    prof: Option<EngineStats>,
}

struct StoreView<'a, S: Store> {
    design: &'a Design,
    store: &'a mut S,
    changed: &'a mut Vec<u32>,
    cycles: u64,
}

impl<S: Store> SignalView for StoreView<'_, S> {
    fn read(&self, sig: SignalId) -> Bits {
        self.store.get(self.design.net_of(sig).index() as u32)
    }

    fn write(&mut self, sig: SignalId, value: Bits) {
        let slot = self.design.net_of(sig).index() as u32;
        debug_assert_eq!(self.design.signal(sig).width, value.width());
        if self.store.set(slot, value) {
            self.changed.push(slot);
        }
    }

    fn write_next(&mut self, sig: SignalId, value: Bits) {
        let slot = self.design.net_of(sig).index() as u32;
        debug_assert_eq!(self.design.signal(sig).width, value.width());
        self.store.set_next(slot, value);
    }

    fn cycle(&self) -> u64 {
        self.cycles
    }
}

impl<S: Store, M: SensMap> InterpEngine<S, M> {
    fn new(
        design: Arc<Design>,
        natives: Vec<Option<NativeFn>>,
        boxed: bool,
        o: &mut Overheads,
    ) -> Self {
        let t0 = Instant::now();
        let store = S::init(&design);
        let mut sens = M::new(design.nets().len());
        let mut mem_sens = vec![Vec::new(); design.mems().len()];
        let mut seq_blocks = Vec::new();
        let mut queue = VecDeque::new();
        let mut in_queue = vec![false; design.blocks().len()];
        for (i, b) in design.blocks().iter().enumerate() {
            match b.kind {
                BlockKind::Comb => {
                    // Nets the block itself writes are excluded from its
                    // sensitivity list: statement order inside the block
                    // resolves those reads, exactly as in the static
                    // schedule, so all engines agree.
                    let own: Vec<u32> =
                        b.writes.iter().map(|&w| design.net_of(w).index() as u32).collect();
                    let mut seen = Vec::new();
                    for &r in &b.reads {
                        let slot = design.net_of(r).index() as u32;
                        if !seen.contains(&slot) && !own.contains(&slot) {
                            seen.push(slot);
                            sens.insert(slot, i as u32);
                        }
                    }
                    for &m in &b.mem_reads {
                        mem_sens[m.index()].push(i as u32);
                    }
                    queue.push_back(i as u32);
                    in_queue[i] = true;
                }
                BlockKind::Seq => seq_blocks.push(i as u32),
            }
        }
        let reg_slots: Vec<u32> = design
            .nets()
            .iter()
            .enumerate()
            .filter(|(_, n)| n.is_register)
            .map(|(i, _)| i as u32)
            .collect();
        let mems =
            design.mems().iter().map(|m| vec![Bits::zero(m.width); m.words as usize]).collect();
        o.simc += t0.elapsed();
        Self {
            design,
            store,
            sens,
            mem_sens,
            mems,
            pending: Vec::new(),
            natives,
            queue,
            in_queue,
            reg_slots,
            seq_blocks,
            changed: Vec::new(),
            cycles: 0,
            boxed,
            track_activity: false,
            activity: Vec::new(),
            prof: None,
        }
    }

    fn run_block(&mut self, b: u32) {
        let design = self.design.clone();
        let info = &design.blocks()[b as usize];
        let seq = info.kind == BlockKind::Seq;
        self.changed.clear();
        match &info.body {
            BlockBody::Ir(stmts) => exec_stmts(
                stmts,
                &design,
                &mut self.store,
                &self.mems,
                &mut self.pending,
                &mut self.changed,
                seq,
                self.boxed,
            ),
            BlockBody::Native(..) => {
                let mut f = self.natives[b as usize].take().expect("native fn in use");
                {
                    let mut view = StoreView {
                        design: &design,
                        store: &mut self.store,
                        changed: &mut self.changed,
                        cycles: self.cycles,
                    };
                    f(&mut view);
                }
                self.natives[b as usize] = Some(f);
            }
        }
        let changed = std::mem::take(&mut self.changed);
        for &slot in &changed {
            self.wake_readers(slot);
        }
        self.changed = changed;
    }

    fn wake_readers(&mut self, slot: u32) {
        // The clone of the small reader list models the event objects an
        // interpreted simulator allocates; it is also what the borrow
        // checker requires here.
        let readers: Vec<u32> = self.sens.get(slot).to_vec();
        for rb in readers {
            self.enqueue(rb);
        }
    }

    fn enqueue(&mut self, b: u32) {
        if !self.in_queue[b as usize] {
            self.in_queue[b as usize] = true;
            self.queue.push_back(b);
        }
    }

    fn propagate(&mut self) {
        if self.prof.is_none() {
            while let Some(b) = self.queue.pop_front() {
                self.in_queue[b as usize] = false;
                self.run_block(b);
            }
            return;
        }
        let mut pops = 0u64;
        while let Some(b) = self.queue.pop_front() {
            self.in_queue[b as usize] = false;
            let depth = self.queue.len() as u64;
            let t0 = Instant::now();
            self.run_block(b);
            let dt = t0.elapsed().as_nanos() as u64;
            let p = self.prof.as_mut().expect("profiling enabled");
            p.queue_depth.record(depth);
            p.block_nanos[b as usize] += dt;
            pops += 1;
        }
        let p = self.prof.as_mut().expect("profiling enabled");
        p.settles += 1;
        p.fixpoint.record(pops);
    }

    fn run_block_timed(&mut self, b: u32) {
        let t0 = Instant::now();
        self.run_block(b);
        let dt = t0.elapsed().as_nanos() as u64;
        if let Some(p) = self.prof.as_mut() {
            p.block_nanos[b as usize] += dt;
        }
    }
}

impl<S: Store, M: SensMap> EngineImpl for InterpEngine<S, M> {
    fn poke(&mut self, slot: u32, v: Bits) {
        if self.store.set(slot, v) {
            self.store.set_next(slot, v);
            self.wake_readers(slot);
        }
    }

    fn peek(&self, slot: u32) -> Bits {
        self.store.get(slot)
    }

    fn eval(&mut self) {
        self.propagate();
    }

    fn cycle(&mut self) {
        self.propagate();
        self.edge();
        self.propagate();
        self.cycles += 1;
    }

    fn edge(&mut self) {
        let seq = self.seq_blocks.clone();
        if self.prof.is_some() {
            for b in seq {
                self.run_block_timed(b);
            }
        } else {
            for b in seq {
                self.run_block(b);
            }
        }
        // Commit registers.
        let regs = std::mem::take(&mut self.reg_slots);
        for &slot in &regs {
            if self.track_activity {
                let delta = (self.store.get(slot).as_u128() ^ self.store.get_next(slot).as_u128())
                    .count_ones() as u64;
                self.activity[slot as usize] += delta;
            }
            if self.store.commit(slot) {
                self.wake_readers(slot);
            }
        }
        self.reg_slots = regs;
        // Commit memories.
        if !self.pending.is_empty() {
            let pending = std::mem::take(&mut self.pending);
            let mut touched: Vec<u32> = Vec::new();
            for (mem, addr, v) in pending {
                self.mems[mem as usize][addr as usize] = v;
                if !touched.contains(&mem) {
                    touched.push(mem);
                }
            }
            for m in touched {
                let readers = self.mem_sens[m as usize].clone();
                for rb in readers {
                    self.enqueue(rb);
                }
            }
        }
    }

    fn exec_block(&mut self, b: u32) {
        if self.prof.is_some() {
            self.run_block_timed(b);
        } else {
            self.run_block(b);
        }
    }

    fn force(&mut self, lane: u32, slot: u32, v: Bits, also_next: bool) {
        assert_eq!(lane, 0, "scalar engine has a single lane");
        self.store.set(slot, v);
        if also_next {
            self.store.set_next(slot, v);
        }
    }

    fn settle_full(&mut self) {
        let blocks = self.design.clone();
        for (i, b) in blocks.blocks().iter().enumerate() {
            if b.kind == BlockKind::Comb {
                self.enqueue(i as u32);
            }
        }
        self.propagate();
    }

    fn bump_cycles(&mut self) {
        self.cycles += 1;
    }

    fn cycles(&self) -> u64 {
        self.cycles
    }

    fn peek_mem(&self, mem: usize, addr: u64) -> Bits {
        self.mems[mem][addr as usize]
    }

    fn poke_mem(&mut self, mem: usize, addr: u64, v: Bits) {
        self.mems[mem][addr as usize] = v;
        let readers = self.mem_sens[mem].clone();
        for rb in readers {
            self.enqueue(rb);
        }
    }

    fn set_activity(&mut self, on: bool) {
        self.track_activity = on;
        if on && self.activity.is_empty() {
            self.activity = vec![0; self.design.nets().len()];
        }
    }

    fn activity(&self) -> &[u64] {
        &self.activity
    }

    fn set_profiling(&mut self, on: bool) {
        if on && self.prof.is_none() {
            self.prof = Some(EngineStats::new(self.design.blocks().len()));
        } else if !on {
            self.prof = None;
        }
    }

    fn stats(&self) -> Option<&EngineStats> {
        self.prof.as_ref()
    }
}

// ---------------------------------------------------------------------------
// Specialized (tape VM) backend
// ---------------------------------------------------------------------------

/// One step of a fused static schedule: either a fused run of tape
/// blocks or a native block call.
pub(crate) enum Chunk {
    Fused(ExecTape),
    Native(u32),
}

pub(crate) struct TapeEngine {
    design: Arc<Design>,
    cur: Vec<u128>,
    next: Vec<u128>,
    widths: Vec<u32>,
    mems: Vec<Vec<u128>>,
    mem_widths: Vec<u32>,
    pending: Vec<(u32, u64, u128)>,
    /// Compiled per-block tapes — `Arc` so a persistent server can share
    /// one compile across many engine instances ([`crate::ArtifactCache`]).
    tapes: Arc<Vec<ExecTape>>,
    natives: Vec<Option<NativeFn>>,
    seq_order: Vec<u32>,
    /// Levelized combinational order (also the unfused schedule profiling
    /// runs so per-block time stays attributable).
    comb_order: Vec<u32>,
    /// Fused static schedules (opt mode only); shared like `tapes`.
    comb_plan: Arc<Vec<Chunk>>,
    seq_plan: Arc<Vec<Chunk>>,
    /// Persistent register banks, one per fused plan chunk (empty for
    /// native chunks), in the word of the chunk's tape. Each holds its
    /// tape's const prelude, installed once at build, so `run_plan`
    /// executes only the tape body per cycle. Engine-local (the shared
    /// `Arc` plans carry no state).
    comb_bank: Vec<Regs>,
    seq_bank: Vec<Regs>,
    reg_slots: Vec<u32>,
    /// Scratch registers for per-block tape runs.
    regs: Regs,
    event_mode: bool,
    sens: Vec<Vec<u32>>,
    mem_sens: Vec<Vec<u32>>,
    queue: VecDeque<u32>,
    in_queue: Vec<bool>,
    changed: Vec<u32>,
    cycles: u64,
    dirty: bool,
    track_activity: bool,
    activity: Vec<u64>,
    prof: Option<EngineStats>,
    /// Whether the optimizer pass pipeline ran on this engine's tapes
    /// (part of the artifact identity published to the cache).
    optimized: bool,
    /// Per-pass optimizer statistics (compile-time only; `None` when the
    /// optimizer is off).
    opt_report: Option<OptReport>,
}

pub(crate) struct PackedView<'a> {
    pub(crate) design: &'a Design,
    pub(crate) cur: &'a mut [u128],
    pub(crate) next: &'a mut [u128],
    pub(crate) widths: &'a [u32],
    pub(crate) changed: &'a mut Vec<u32>,
    pub(crate) cycles: u64,
}

impl SignalView for PackedView<'_> {
    fn read(&self, sig: SignalId) -> Bits {
        let slot = self.design.net_of(sig).index();
        Bits::new(self.widths[slot], self.cur[slot])
    }

    fn write(&mut self, sig: SignalId, value: Bits) {
        let slot = self.design.net_of(sig).index();
        debug_assert_eq!(self.widths[slot], value.width());
        let v = value.as_u128();
        if self.cur[slot] != v {
            self.cur[slot] = v;
            self.changed.push(slot as u32);
        }
    }

    fn write_next(&mut self, sig: SignalId, value: Bits) {
        let slot = self.design.net_of(sig).index();
        debug_assert_eq!(self.widths[slot], value.width());
        self.next[slot] = value.as_u128();
    }

    fn cycle(&self) -> u64 {
        self.cycles
    }
}

impl TapeEngine {
    pub(crate) fn new(
        design: Arc<Design>,
        natives: Vec<Option<NativeFn>>,
        event_mode: bool,
        opt: bool,
        o: &mut Overheads,
        reuse: Option<Arc<crate::artifact::TapeArtifact>>,
    ) -> Self {
        // With a cached artifact the comp/cgen/fuse phases are skipped
        // entirely: tapes and plans are pure data, already validated when
        // first compiled (the cache keys on the optimizer setting, so a
        // reused artifact matches `opt`). Only the per-instance state
        // below (packed nets, sensitivity, queue) is rebuilt.
        type ReusedPlans =
            (Arc<Vec<ExecTape>>, Arc<Vec<Chunk>>, Arc<Vec<Chunk>>, Option<OptReport>);
        let reused: Option<ReusedPlans> = reuse
            .map(|a| (a.tapes.clone(), a.comb_plan.clone(), a.seq_plan.clone(), a.report.clone()));

        // Width tables, needed both by the optimizer (known-bits
        // reasoning) and the native wrappers.
        let widths: Vec<u32> = design.nets().iter().map(|n| n.width).collect();
        let mem_widths: Vec<u32> = design.mems().iter().map(|m| m.width).collect();
        let mut report = if opt { Some(OptReport::new()) } else { None };

        let tapes: Arc<Vec<ExecTape>> = match &reused {
            Some((tapes, ..)) => tapes.clone(),
            None => {
                // Phases: comp (constant folding, optimizer) and cgen
                // (tape code generation; the register budget applies to
                // the *narrowed* result, i.e. post-compaction when the
                // optimizer is on).
                Arc::new(compile_blocks(&design, &widths, &mem_widths, report.as_mut(), o))
            }
        };

        // Phase: wrap (packed state).
        let t0 = Instant::now();
        let cur = vec![0u128; widths.len()];
        let next = vec![0u128; widths.len()];
        let mems: Vec<Vec<u128>> =
            design.mems().iter().map(|m| vec![0u128; m.words as usize]).collect();
        o.wrap += t0.elapsed();

        // Phase: simc (schedule + event structures).
        let t0 = Instant::now();
        let comb_order: Vec<u32> = design
            .comb_schedule()
            .expect("design validated at elaboration")
            .iter()
            .map(|b| b.index() as u32)
            .collect();
        let seq_order: Vec<u32> = design.seq_blocks().iter().map(|b| b.index() as u32).collect();
        let reg_slots: Vec<u32> = design
            .nets()
            .iter()
            .enumerate()
            .filter(|(_, n)| n.is_register)
            .map(|(i, _)| i as u32)
            .collect();
        let mut sens = vec![Vec::new(); widths.len()];
        let mut mem_sens = vec![Vec::new(); design.mems().len()];
        let mut queue = VecDeque::new();
        let mut in_queue = vec![false; design.blocks().len()];
        for &b in &comb_order {
            let info = &design.blocks()[b as usize];
            let own: Vec<u32> =
                info.writes.iter().map(|&w| design.net_of(w).index() as u32).collect();
            let mut seen = Vec::new();
            for &r in &info.reads {
                let slot = design.net_of(r).index() as u32;
                if !seen.contains(&slot) && !own.contains(&slot) {
                    seen.push(slot);
                    sens[slot as usize].push(b);
                }
            }
            for &m in &info.mem_reads {
                mem_sens[m.index()].push(b);
            }
            queue.push_back(b);
            in_queue[b as usize] = true;
        }
        // Fuse consecutive tape blocks into mega-tapes for the fully
        // static schedule (charged to simc since it is schedule
        // construction). Re-optimizing the fused tape picks up
        // cross-block wins (CSE/forwarding across block boundaries) the
        // per-block pipeline cannot see; that optimization is charged to
        // comp, and lowering the result to its register word to cgen.
        let mut opt_time = Duration::ZERO;
        let mut narrow_time = Duration::ZERO;
        let mut fuse_opt = |run: &[&ExecTape], label: &str| -> ExecTape {
            let mut vt = fuse(run);
            if let Some(rep) = report.as_mut() {
                let t = Instant::now();
                optimize(&mut vt, &widths, &mem_widths, rep);
                opt_time += t.elapsed();
            }
            let t = Instant::now();
            let fused = narrow(&vt, &widths, &mem_widths, || format!("fused {label} schedule"));
            narrow_time += t.elapsed();
            if let Some(rep) = report.as_mut() {
                rep.wide_tapes += fused.is_wide() as u64;
            }
            fused
        };
        let mut build_plan = |order: &[u32], label: &str| -> Vec<Chunk> {
            let mut plan = Vec::new();
            let mut run: Vec<&ExecTape> = Vec::new();
            for &b in order {
                if matches!(design.blocks()[b as usize].body, BlockBody::Ir(_)) {
                    run.push(&tapes[b as usize]);
                } else {
                    if !run.is_empty() {
                        plan.push(Chunk::Fused(fuse_opt(&run, label)));
                        run.clear();
                    }
                    plan.push(Chunk::Native(b));
                }
            }
            if !run.is_empty() {
                plan.push(Chunk::Fused(fuse_opt(&run, label)));
            }
            plan
        };
        let (comb_plan, seq_plan) = match &reused {
            Some((_, comb, seq, _)) => (comb.clone(), seq.clone()),
            None if event_mode => (Arc::new(Vec::new()), Arc::new(Vec::new())),
            None => {
                let plans = (build_plan(&comb_order, "comb"), build_plan(&seq_order, "seq"));
                for chunk in plans.0.iter().chain(&plans.1) {
                    if let Chunk::Fused(t) = chunk {
                        validate(t, widths.len(), mems.len());
                    }
                }
                (Arc::new(plans.0), Arc::new(plans.1))
            }
        };
        let mk_bank = |plan: &[Chunk]| -> Vec<Regs> {
            plan.iter()
                .map(|c| match c {
                    Chunk::Fused(t) => t.bank(),
                    Chunk::Native(_) => Regs::default(),
                })
                .collect()
        };
        let comb_bank = mk_bank(&comb_plan);
        let seq_bank = mk_bank(&seq_plan);
        o.comp += opt_time;
        o.cgen += narrow_time;
        o.simc += t0.elapsed() - opt_time - narrow_time;

        // A cache hit replays the compile-time pass report so the stats
        // remain observable on reused builds.
        let opt_report = match &reused {
            Some((.., rep)) => rep.clone(),
            None => report,
        };

        Self {
            design,
            cur,
            next,
            widths,
            mems,
            mem_widths,
            pending: Vec::new(),
            tapes,
            natives,
            seq_order,
            comb_order,
            comb_plan,
            seq_plan,
            comb_bank,
            seq_bank,
            reg_slots,
            regs: Regs::default(),
            event_mode,
            sens,
            mem_sens,
            queue,
            in_queue,
            changed: Vec::new(),
            cycles: 0,
            dirty: true,
            track_activity: false,
            activity: Vec::new(),
            prof: None,
            optimized: opt,
            opt_report,
        }
    }

    /// Snapshots the shareable compile output (tapes + fused plans) for
    /// [`crate::ArtifactCache`]; cheap — three `Arc` clones plus the
    /// shape digest and the (small) pass report.
    pub(crate) fn artifact(&self) -> crate::artifact::TapeArtifact {
        crate::artifact::TapeArtifact {
            tapes: self.tapes.clone(),
            comb_plan: self.comb_plan.clone(),
            seq_plan: self.seq_plan.clone(),
            shape: crate::artifact::shape_of(&self.design),
            optimized: self.optimized,
            report: self.opt_report.clone(),
        }
    }

    fn run_block<const TRACK: bool>(&mut self, b: u32) {
        let design = self.design.clone();
        match &design.blocks()[b as usize].body {
            BlockBody::Ir(_) => {
                self.tapes[b as usize].run::<TRACK>(
                    &mut self.regs,
                    &mut self.cur,
                    &mut self.next,
                    &self.mems,
                    &mut self.pending,
                    &mut self.changed,
                );
            }
            BlockBody::Native(..) => {
                let mut f = self.natives[b as usize].take().expect("native fn in use");
                {
                    let mut view = PackedView {
                        design: &design,
                        cur: &mut self.cur,
                        next: &mut self.next,
                        widths: &self.widths,
                        changed: &mut self.changed,
                        cycles: self.cycles,
                    };
                    f(&mut view);
                }
                self.natives[b as usize] = Some(f);
                if !TRACK {
                    self.changed.clear();
                }
            }
        }
        if TRACK {
            let changed = std::mem::take(&mut self.changed);
            for &slot in &changed {
                self.wake_readers(slot);
            }
            let mut changed = changed;
            changed.clear();
            self.changed = changed;
        }
    }

    fn wake_readers(&mut self, slot: u32) {
        for i in 0..self.sens[slot as usize].len() {
            let rb = self.sens[slot as usize][i];
            if !self.in_queue[rb as usize] {
                self.in_queue[rb as usize] = true;
                self.queue.push_back(rb);
            }
        }
    }

    fn propagate_event(&mut self) {
        if self.prof.is_none() {
            while let Some(b) = self.queue.pop_front() {
                self.in_queue[b as usize] = false;
                self.run_block::<true>(b);
            }
            return;
        }
        let mut pops = 0u64;
        while let Some(b) = self.queue.pop_front() {
            self.in_queue[b as usize] = false;
            let depth = self.queue.len() as u64;
            let t0 = Instant::now();
            self.run_block::<true>(b);
            let dt = t0.elapsed().as_nanos() as u64;
            let p = self.prof.as_mut().expect("profiling enabled");
            p.queue_depth.record(depth);
            p.block_nanos[b as usize] += dt;
            pops += 1;
        }
        let p = self.prof.as_mut().expect("profiling enabled");
        p.settles += 1;
        p.fixpoint.record(pops);
    }

    fn run_block_timed<const TRACK: bool>(&mut self, b: u32) {
        let t0 = Instant::now();
        self.run_block::<TRACK>(b);
        let dt = t0.elapsed().as_nanos() as u64;
        if let Some(p) = self.prof.as_mut() {
            p.block_nanos[b as usize] += dt;
        }
    }

    fn full_comb_pass(&mut self) {
        if self.prof.is_some() {
            // Profiled static pass: run the same levelized order the fused
            // plan encodes, but block-by-block, so wall time is
            // attributable per block.
            let order = std::mem::take(&mut self.comb_order);
            for &b in &order {
                self.run_block_timed::<false>(b);
            }
            let pass_blocks = order.len() as u64;
            self.comb_order = order;
            let p = self.prof.as_mut().expect("profiling enabled");
            p.settles += 1;
            p.fixpoint.record(pass_blocks);
        } else {
            let plan = Arc::clone(&self.comb_plan);
            self.run_plan(&plan, true);
        }
        self.dirty = false;
    }

    fn run_plan(&mut self, plan: &[Chunk], comb: bool) {
        for (k, chunk) in plan.iter().enumerate() {
            match chunk {
                Chunk::Fused(tape) => {
                    // Each fused chunk owns a persistent buffer holding
                    // its const prelude, so only the body executes here.
                    let bank = if comb { &mut self.comb_bank } else { &mut self.seq_bank };
                    tape.run_body(
                        &mut bank[k],
                        &mut self.cur,
                        &mut self.next,
                        &self.mems,
                        &mut self.pending,
                        &mut self.changed,
                    )
                }
                Chunk::Native(b) => self.run_native(*b),
            }
        }
    }

    fn run_native(&mut self, b: u32) {
        let design = self.design.clone();
        let mut f = self.natives[b as usize].take().expect("native fn in use");
        {
            let mut view = PackedView {
                design: &design,
                cur: &mut self.cur,
                next: &mut self.next,
                widths: &self.widths,
                changed: &mut self.changed,
                cycles: self.cycles,
            };
            f(&mut view);
        }
        self.natives[b as usize] = Some(f);
        self.changed.clear();
    }

    fn run_seq_blocks(&mut self) {
        if self.event_mode {
            let order = std::mem::take(&mut self.seq_order);
            if self.prof.is_some() {
                for &b in &order {
                    self.run_block_timed::<true>(b);
                }
            } else {
                for &b in &order {
                    // Track combinational-style writes from native
                    // sequential blocks so misuse behaves identically
                    // across engines.
                    self.run_block::<true>(b);
                }
            }
            self.seq_order = order;
        } else if self.prof.is_some() {
            let order = std::mem::take(&mut self.seq_order);
            for &b in &order {
                self.run_block_timed::<false>(b);
            }
            self.seq_order = order;
        } else {
            let plan = Arc::clone(&self.seq_plan);
            self.run_plan(&plan, false);
        }
    }
}

impl EngineImpl for TapeEngine {
    fn opt_report(&self) -> Option<&OptReport> {
        self.opt_report.as_ref()
    }

    fn poke(&mut self, slot: u32, v: Bits) {
        let val = v.as_u128();
        if self.cur[slot as usize] != val {
            self.cur[slot as usize] = val;
            self.next[slot as usize] = val;
            if self.event_mode {
                self.wake_readers(slot);
            } else {
                self.dirty = true;
            }
        }
    }

    fn peek(&self, slot: u32) -> Bits {
        Bits::new(self.widths[slot as usize], self.cur[slot as usize])
    }

    fn eval(&mut self) {
        if self.event_mode {
            self.propagate_event();
        } else if self.dirty {
            self.full_comb_pass();
        }
    }

    fn cycle(&mut self) {
        self.eval();
        self.edge();
        if self.event_mode {
            self.propagate_event();
        } else {
            self.full_comb_pass();
        }
        self.cycles += 1;
    }

    fn edge(&mut self) {
        self.run_seq_blocks();
        if self.event_mode {
            let regs = std::mem::take(&mut self.reg_slots);
            for &slot in &regs {
                let s = slot as usize;
                if self.cur[s] != self.next[s] {
                    if self.track_activity {
                        self.activity[s] += (self.cur[s] ^ self.next[s]).count_ones() as u64;
                    }
                    self.cur[s] = self.next[s];
                    self.wake_readers(slot);
                }
            }
            self.reg_slots = regs;
        } else if self.track_activity {
            for &slot in &self.reg_slots {
                let s = slot as usize;
                self.activity[s] += (self.cur[s] ^ self.next[s]).count_ones() as u64;
                self.cur[s] = self.next[s];
            }
        } else {
            for &slot in &self.reg_slots {
                self.cur[slot as usize] = self.next[slot as usize];
            }
        }
        if !self.pending.is_empty() {
            let pending = std::mem::take(&mut self.pending);
            let mut touched: Vec<u32> = Vec::new();
            for (mem, addr, v) in pending {
                self.mems[mem as usize][addr as usize] = v;
                if self.event_mode && !touched.contains(&mem) {
                    touched.push(mem);
                }
            }
            for m in touched {
                for i in 0..self.mem_sens[m as usize].len() {
                    let rb = self.mem_sens[m as usize][i];
                    if !self.in_queue[rb as usize] {
                        self.in_queue[rb as usize] = true;
                        self.queue.push_back(rb);
                    }
                }
            }
        }
    }

    fn exec_block(&mut self, b: u32) {
        if self.event_mode {
            self.run_block::<true>(b);
        } else {
            self.run_block::<false>(b);
        }
    }

    fn force(&mut self, lane: u32, slot: u32, v: Bits, also_next: bool) {
        assert_eq!(lane, 0, "scalar engine has a single lane");
        let s = slot as usize;
        self.cur[s] = v.as_u128();
        if also_next {
            self.next[s] = v.as_u128();
        }
    }

    fn settle_full(&mut self) {
        if self.event_mode {
            let order = std::mem::take(&mut self.comb_order);
            for &b in &order {
                if !self.in_queue[b as usize] {
                    self.in_queue[b as usize] = true;
                    self.queue.push_back(b);
                }
            }
            self.comb_order = order;
            self.propagate_event();
        } else {
            self.full_comb_pass();
        }
    }

    fn bump_cycles(&mut self) {
        self.cycles += 1;
    }

    fn cycles(&self) -> u64 {
        self.cycles
    }

    fn peek_mem(&self, mem: usize, addr: u64) -> Bits {
        Bits::new(self.mem_widths[mem], self.mems[mem][addr as usize])
    }

    fn poke_mem(&mut self, mem: usize, addr: u64, v: Bits) {
        self.mems[mem][addr as usize] = v.as_u128() & mask_of(self.mem_widths[mem]);
        if self.event_mode {
            for i in 0..self.mem_sens[mem].len() {
                let rb = self.mem_sens[mem][i];
                if !self.in_queue[rb as usize] {
                    self.in_queue[rb as usize] = true;
                    self.queue.push_back(rb);
                }
            }
        } else {
            self.dirty = true;
        }
    }

    fn set_activity(&mut self, on: bool) {
        self.track_activity = on;
        if on && self.activity.is_empty() {
            self.activity = vec![0; self.widths.len()];
        }
    }

    fn activity(&self) -> &[u64] {
        &self.activity
    }

    fn set_profiling(&mut self, on: bool) {
        if on && self.prof.is_none() {
            self.prof = Some(EngineStats::new(self.design.blocks().len()));
        } else if !on {
            self.prof = None;
        }
    }

    fn stats(&self) -> Option<&EngineStats> {
        self.prof.as_ref()
    }
}
