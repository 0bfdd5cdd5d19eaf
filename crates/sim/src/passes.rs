//! The tape optimizer: a pass pipeline over virtual-register tapes.
//!
//! [`compile_block`](crate::tape::compile_block) emits straight-line code
//! with one fresh register per IR node — every `Expr::Read` of the same
//! signal re-reads the slot, every mask constant is re-materialized, and
//! whole mux chains are evaluated even when their condition is constant.
//! The pipeline here runs between compilation and
//! [`narrow`](crate::tape::narrow)ing (and again over fused tapes, where
//! cross-block redundancy appears), so the `ArtifactCache` fingerprints
//! cover the optimized artifact.
//!
//! The correctness envelope (enforced by `mtl-check`'s differential
//! fuzzer with the optimizer on vs off) is: **every net's settled value
//! after every settle is preserved**. Intra-tape intermediates — registers
//! nobody reads, a store overwritten later in the same straight-line
//! segment — are fair game; writes that survive to the end of a settle are
//! not, because the wrapper peeks and diffs every slot for values,
//! activity, and logical profiles.
//!
//! The pipeline opens with one **rename** pass: fused tapes reuse
//! register numbers across constituent blocks ([`crate::tape::fuse`]
//! takes the max, not the sum), so block N+1's allocations clobber the
//! value-numbering facts about block N's results. Rename gives every
//! redefinition a fresh virtual register (compiled tapes obey
//! defs-dominate-uses, so a forward scan suffices), which is what lets
//! CSE and store-to-load forwarding work *across* block boundaries in a
//! fused tape.
//!
//! Passes (one round, in order):
//!
//! 1. **const-fold** — forward dataflow of exact register constants;
//!    pure ops with all-constant operands become [`Op::Const`], using the
//!    executor's own arithmetic so folded and live evaluation agree
//!    bit-for-bit.
//! 2. **cse** — value numbering. `Read`s are keyed per slot and
//!    store-version (a later re-read becomes a `Copy`), full writes
//!    forward their source register to later reads of the same slot, and
//!    pure ops are keyed on opcode + versioned operands (commutative ops
//!    canonicalized). `MemRead` is keyed on the memory and versioned
//!    address register — tape `MemWrite`s defer through the pending queue,
//!    so they cannot invalidate an in-tape read. Keys defined at
//!    *dominating* positions (inside no forward-jump span) live in a
//!    global table that survives leaders, so value numbering works across
//!    the whole tape, not just within one straight-line segment.
//! 3. **mux-collapse** — `Mux` under a constant condition, `Select` under
//!    a constant selector, `Mux` with identical arms, and constant-guarded
//!    jumps (`Jz`/`JneConst`) collapse to copies/`Jmp`/fallthrough.
//! 4. **if-convert** — small `Jz` arms/diamonds whose bodies are pure ops
//!    plus writes become straight-line code: each guarded `Write`,
//!    `WriteNext`, or `MemWrite` turns into one predicated op
//!    ([`Op::WriteIf`] / [`Op::WriteNextIf`] / [`Op::MemWriteIf`]), and
//!    already-predicated writes from inner ifs converted in earlier
//!    rounds conjoin their guards. The predicated ops store nothing on
//!    the untaken path, so event semantics, the shadow `next` buffer,
//!    and the deferred memory queue are preserved exactly — including
//!    under fault injection, where `force` desynchronizes `cur` from
//!    `next`. This removes jump dispatch *and* the join leaders that
//!    force non-dominating dataflow facts to drop.
//! 5. **width-narrow** — known-bits analysis (which bits *may* be one).
//!    Masking that cannot clear anything (`Slice` from 0, `And` with a
//!    covering constant, `Sext` of a value whose sign bit is provably 0,
//!    reductions of 1-bit values, `x op identity`) becomes a `Copy`;
//!    provably-zero results become constants.
//! 6. **copy-prop** — uses are rewritten through (versioned) copy chains
//!    so the copies die; `Select`'s implicit consecutive operand range is
//!    never rewritten, only its selector.
//! 7. **jump-thread** — `Jmp`-to-`Jmp` chains are shortcut, jumps to the
//!    next op are dropped, and unreachable ops are removed.
//! 8. **dce** — pure ops whose destination is never used later are
//!    removed (a conservative positional liveness that is sound because
//!    tape jumps only go forward).
//!
//! Rounds repeat until a fixpoint (bounded by [`MAX_ROUNDS`]); four
//! closing passes then run once. **mux-fuse** pairs single-use `Mux`
//! chains into [`Op::Mux2`] (the one-hot crossbar idiom). **const-hoist**
//! moves single-def constants into a run-once prelude
//! ([`crate::tape::Tape::prelude`]) on jump-free tapes, so engines with
//! persistent per-tape register banks stop paying per-cycle dispatches
//! for cycle-invariant values. **compact** renumbers live registers in
//! ascending order — which keeps `Select` option ranges consecutive —
//! and **realloc** runs a last-use linear scan that reuses dead
//! registers (pinning `Select` ranges and prelude destinations),
//! shrinking the physical register file far below the live-register
//! count. Together they relieve the `u16` register budget: the budget
//! applies to the *reallocated* tape.
//!
//! All passes are deterministic: hash maps are used for lookup only,
//! never iterated, so the optimized tape is a pure function of its input
//! (and independent of the hasher, which is why the hot passes can use
//! the cheap [`FxBuild`] instead of SipHash).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::tape::{mask_of, sext_masks, Op, VReg, VTape};

/// A multiply-rotate word hasher in the style of rustc's `FxHasher`:
/// several times cheaper than SipHash on the small integer keys the
/// passes and the body cache look up. No DoS resistance, which nothing
/// here needs — every key is derived from the design being compiled.
#[derive(Default, Clone, Copy)]
pub(crate) struct FxHasher(u64);

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, w: u64) {
        self.0 = (self.0.rotate_left(5) ^ w).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    fn write_u8(&mut self, w: u8) {
        self.write_u64(w as u64);
    }

    fn write_u16(&mut self, w: u16) {
        self.write_u64(w as u64);
    }

    fn write_u32(&mut self, w: u32) {
        self.write_u64(w as u64);
    }

    fn write_usize(&mut self, w: usize) {
        self.write_u64(w as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// [`FxHasher`] as a `HashMap` hasher builder.
pub(crate) type FxBuild = BuildHasherDefault<FxHasher>;

/// Fixpoint bound for the pass loop. Real designs converge in 2–3 rounds;
/// the bound only guards against a pathological rewrite cycle.
const MAX_ROUNDS: u64 = 8;

/// Per-pass statistics, aggregated over every tape an engine optimizes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PassStat {
    /// Pass name (stable, used by `--dump-passes` output).
    pub name: &'static str,
    /// Total ops entering the pass, summed over all invocations.
    pub ops_before: u64,
    /// Total ops leaving the pass, summed over all invocations.
    pub ops_after: u64,
    /// Individual rewrites/removals applied (0 means the pass ran but
    /// found nothing).
    pub rewrites: u64,
    /// Registers reclaimed (compaction only).
    pub regs_reclaimed: u64,
}

/// Aggregate optimizer report for one engine build: per-pass statistics
/// plus whole-pipeline totals. Rendered by `--dump-passes` on the bench
/// binaries and carried inside cached artifacts so cache hits still
/// surface their compile-time story.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OptReport {
    /// Number of tapes optimized (per-block tapes plus fused plan tapes).
    pub tapes: u64,
    /// Number of IR blocks whose tapes the per-block pipeline produced
    /// (each counted in `tapes` and every other total).
    pub blocks: u64,
    /// Distinct block bodies among those `blocks`: the pipeline runs once
    /// per body and its result is stamped into every instance
    /// ([`crate::tape::compile_blocks`]). Not part of the other totals,
    /// which count every instance.
    pub bodies: u64,
    /// Total pass rounds executed across all tapes.
    pub rounds: u64,
    /// Ops across all tapes before optimization.
    pub ops_before: u64,
    /// Ops across all tapes after optimization.
    pub ops_after: u64,
    /// Sum of register-file sizes before optimization.
    pub regs_before: u64,
    /// Sum of register-file sizes after compaction.
    pub regs_after: u64,
    /// Executable tapes among `tapes` left on `u128` registers because
    /// their width proof failed (`tape::narrow`); the rest run on `u64`.
    pub wide_tapes: u64,
    /// Per-pass aggregates, in pipeline order.
    pub passes: Vec<PassStat>,
    /// Surviving-op histogram: (op kind, count) over every optimized
    /// tape's final form, descending by count. What the engines actually
    /// execute — the profile that tells the next pass author where the
    /// remaining time goes.
    pub mix: Vec<(&'static str, u64)>,
}

const PASS_NAMES: [&str; 13] = [
    "rename",
    "const-fold",
    "cse",
    "mux-collapse",
    "if-convert",
    "width-narrow",
    "copy-prop",
    "jump-thread",
    "dce",
    "mux-fuse",
    "const-hoist",
    "compact",
    "realloc",
];
const P_RENAME: usize = 0;
const P_CONST_FOLD: usize = 1;
const P_CSE: usize = 2;
const P_MUX_COLLAPSE: usize = 3;
const P_IF_CONVERT: usize = 4;
const P_WIDTH_NARROW: usize = 5;
const P_COPY_PROP: usize = 6;
const P_JUMP_THREAD: usize = 7;
const P_DCE: usize = 8;
const P_MUX_FUSE: usize = 9;
const P_HOIST: usize = 10;
const P_COMPACT: usize = 11;
const P_REALLOC: usize = 12;

impl OptReport {
    /// An empty report with every pass row pre-seeded in pipeline order.
    pub fn new() -> OptReport {
        OptReport {
            passes: PASS_NAMES
                .iter()
                .map(|&name| PassStat { name, ..PassStat::default() })
                .collect(),
            ..OptReport::default()
        }
    }

    /// Overall op reduction as a fraction of the input (0.0 when empty).
    pub fn reduction(&self) -> f64 {
        if self.ops_before == 0 {
            0.0
        } else {
            1.0 - self.ops_after as f64 / self.ops_before as f64
        }
    }

    /// Renders the `--dump-passes` table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "tape optimizer: {} tapes, {} rounds, ops {} -> {} ({:.1}% removed), regs {} -> {}\n",
            self.tapes,
            self.rounds,
            self.ops_before,
            self.ops_after,
            self.reduction() * 100.0,
            self.regs_before,
            self.regs_after,
        ));
        out.push_str(&format!(
            "  {:<14} {:>10} {:>10} {:>10} {:>10}\n",
            "pass", "ops-in", "ops-out", "rewrites", "regs-freed"
        ));
        for p in &self.passes {
            out.push_str(&format!(
                "  {:<14} {:>10} {:>10} {:>10} {:>10}\n",
                p.name, p.ops_before, p.ops_after, p.rewrites, p.regs_reclaimed
            ));
        }
        if self.blocks > 0 {
            out.push_str(&format!("  bodies {} of {} blocks\n", self.bodies, self.blocks));
        }
        out.push_str(&format!("  u128 tapes {} of {}\n", self.wide_tapes, self.tapes));
        if !self.mix.is_empty() {
            out.push_str("  surviving op mix:");
            for (kind, n) in &self.mix {
                out.push_str(&format!(" {kind}:{n}"));
            }
            out.push('\n');
        }
        out
    }

    fn record_mix(&mut self, ops: &[Op<VReg>]) {
        self.add_mix(ops.iter().map(|op| (kind_name(op), 1)));
    }

    fn add_mix(&mut self, counts: impl Iterator<Item = (&'static str, u64)>) {
        let mut merged: HashMap<&'static str, u64> = self.mix.drain(..).collect();
        for (kind, n) in counts {
            *merged.entry(kind).or_insert(0) += n;
        }
        let mut mix: Vec<(&'static str, u64)> = merged.into_iter().collect();
        // Descending by count, name-tiebroken: deterministic output.
        mix.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        self.mix = mix;
    }

    /// Adds `times` copies of `delta` — the report of optimizing one tape
    /// — as if each copy had been optimized separately. Every total is a
    /// sum and the op mix is re-sorted from its summed counts, so the
    /// result is exactly what `times` separate [`optimize`] calls would
    /// have tallied. `bodies` is left alone: it counts optimizer runs,
    /// not instances.
    pub(crate) fn add_scaled(&mut self, delta: &OptReport, times: u64) {
        self.tapes += delta.tapes * times;
        self.blocks += delta.blocks * times;
        self.rounds += delta.rounds * times;
        self.ops_before += delta.ops_before * times;
        self.ops_after += delta.ops_after * times;
        self.regs_before += delta.regs_before * times;
        self.regs_after += delta.regs_after * times;
        self.wide_tapes += delta.wide_tapes * times;
        for (p, d) in self.passes.iter_mut().zip(&delta.passes) {
            p.ops_before += d.ops_before * times;
            p.ops_after += d.ops_after * times;
            p.rewrites += d.rewrites * times;
            p.regs_reclaimed += d.regs_reclaimed * times;
        }
        self.add_mix(delta.mix.iter().map(|&(kind, n)| (kind, n * times)));
    }
}

/// Stable display name for an op's kind (histogram bucket).
fn kind_name(op: &Op<VReg>) -> &'static str {
    match op {
        Op::Const { .. } => "const",
        Op::Copy { .. } => "copy",
        Op::Read { .. } => "read",
        Op::Write { .. } => "write",
        Op::WriteMasked { .. } => "write-masked",
        Op::WriteNext { .. } => "write-next",
        Op::WriteNextMasked { .. } => "write-next-masked",
        Op::WriteIf { .. } => "write-if",
        Op::WriteNextIf { .. } => "write-next-if",
        Op::MemRead { .. } => "mem-read",
        Op::MemWrite { .. } => "mem-write",
        Op::MemWriteIf { .. } => "mem-write-if",
        Op::Add { .. } => "add",
        Op::Sub { .. } => "sub",
        Op::Mul { .. } => "mul",
        Op::And { .. } => "and",
        Op::Or { .. } => "or",
        Op::Xor { .. } => "xor",
        Op::Not { .. } => "not",
        Op::Neg { .. } => "neg",
        Op::Shl { .. } => "shl",
        Op::Shr { .. } => "shr",
        Op::Sra { .. } => "sra",
        Op::Eq { .. } => "eq",
        Op::Ne { .. } => "ne",
        Op::Lt { .. } => "lt",
        Op::Ge { .. } => "ge",
        Op::LtS { .. } => "lt-s",
        Op::GeS { .. } => "ge-s",
        Op::RedAnd { .. } => "red-and",
        Op::RedOr { .. } => "red-or",
        Op::RedXor { .. } => "red-xor",
        Op::Slice { .. } => "slice",
        Op::ShlOr { .. } => "shl-or",
        Op::Sext { .. } => "sext",
        Op::Mux { .. } => "mux",
        Op::Mux2 { .. } => "mux2",
        Op::Select { .. } => "select",
        Op::Jmp { .. } => "jmp",
        Op::Jz { .. } => "jz",
        Op::JneConst { .. } => "jne-const",
    }
}

/// Optimizes one virtual-register tape to fixpoint, tallying into `rep`.
///
/// `widths` are net widths indexed by slot and `mem_widths` memory word
/// widths indexed by memory — the only design facts the passes need
/// (known-bits of a fresh `Read`/`MemRead`).
pub(crate) fn optimize(vt: &mut VTape, widths: &[u32], mem_widths: &[u32], rep: &mut OptReport) {
    debug_assert_eq!(rep.passes.len(), PASS_NAMES.len(), "report from OptReport::new()");
    rep.tapes += 1;
    rep.ops_before += vt.ops.len() as u64;
    rep.regs_before += vt.nregs as u64;
    run_pass(rep, P_RENAME, vt, rename);
    let mut rounds = 0;
    loop {
        rounds += 1;
        let mut changed = 0;
        changed += run_pass(rep, P_CONST_FOLD, vt, |vt| const_fold(vt, widths, mem_widths));
        changed += run_pass(rep, P_CSE, vt, cse);
        changed += run_pass(rep, P_MUX_COLLAPSE, vt, |vt| mux_collapse(vt, widths, mem_widths));
        changed += run_pass(rep, P_IF_CONVERT, vt, if_convert);
        changed += run_pass(rep, P_WIDTH_NARROW, vt, |vt| width_narrow(vt, widths, mem_widths));
        changed += run_pass(rep, P_COPY_PROP, vt, copy_prop);
        changed += run_pass(rep, P_JUMP_THREAD, vt, jump_thread);
        changed += run_pass(rep, P_DCE, vt, dce);
        if changed == 0 || rounds >= MAX_ROUNDS {
            break;
        }
    }
    run_pass(rep, P_MUX_FUSE, vt, mux_fuse);
    run_pass(rep, P_HOIST, vt, hoist_consts);
    run_pass(rep, P_COMPACT, vt, compact);
    run_pass(rep, P_REALLOC, vt, realloc);
    rep.rounds += rounds;
    rep.ops_after += vt.ops.len() as u64;
    rep.regs_after += vt.nregs as u64;
    rep.record_mix(&vt.ops);
}

fn run_pass(
    rep: &mut OptReport,
    idx: usize,
    vt: &mut VTape,
    pass: impl FnOnce(&mut VTape) -> u64,
) -> u64 {
    let before = vt.ops.len() as u64;
    let regs_before = vt.nregs as u64;
    let rewrites = pass(vt);
    let stat = &mut rep.passes[idx];
    stat.ops_before += before;
    stat.ops_after += vt.ops.len() as u64;
    stat.rewrites += rewrites;
    stat.regs_reclaimed += regs_before.saturating_sub(vt.nregs as u64);
    // If-conversion can grow the op count (conjoining nested guards emits
    // predicate math), so the delta must not assume shrinkage.
    rewrites + before.abs_diff(vt.ops.len() as u64)
}

// ---------------------------------------------------------------------------
// Shared analysis helpers
// ---------------------------------------------------------------------------

/// The register a (pure or read) op defines, if any.
fn def_of(op: &Op<VReg>) -> Option<VReg> {
    match *op {
        Op::Const { dst, .. }
        | Op::Read { dst, .. }
        | Op::Copy { dst, .. }
        | Op::Add { dst, .. }
        | Op::Sub { dst, .. }
        | Op::Mul { dst, .. }
        | Op::And { dst, .. }
        | Op::Or { dst, .. }
        | Op::Xor { dst, .. }
        | Op::Not { dst, .. }
        | Op::Neg { dst, .. }
        | Op::Shl { dst, .. }
        | Op::Shr { dst, .. }
        | Op::Sra { dst, .. }
        | Op::Eq { dst, .. }
        | Op::Ne { dst, .. }
        | Op::Lt { dst, .. }
        | Op::Ge { dst, .. }
        | Op::LtS { dst, .. }
        | Op::GeS { dst, .. }
        | Op::RedAnd { dst, .. }
        | Op::RedOr { dst, .. }
        | Op::RedXor { dst, .. }
        | Op::Slice { dst, .. }
        | Op::ShlOr { dst, .. }
        | Op::Mux { dst, .. }
        | Op::Mux2 { dst, .. }
        | Op::Select { dst, .. }
        | Op::Sext { dst, .. }
        | Op::MemRead { dst, .. } => Some(dst),
        Op::Write { .. }
        | Op::WriteMasked { .. }
        | Op::WriteNext { .. }
        | Op::WriteNextMasked { .. }
        | Op::WriteIf { .. }
        | Op::WriteNextIf { .. }
        | Op::MemWrite { .. }
        | Op::MemWriteIf { .. }
        | Op::Jz { .. }
        | Op::JneConst { .. }
        | Op::Jmp { .. } => None,
    }
}

/// Overwrites the destination register of a defining op (no-op for
/// effect-only ops). Counterpart of [`def_of`] for the rename pass.
fn set_def(op: &mut Op<VReg>, new: VReg) {
    match op {
        Op::Const { dst, .. }
        | Op::Read { dst, .. }
        | Op::Copy { dst, .. }
        | Op::Add { dst, .. }
        | Op::Sub { dst, .. }
        | Op::Mul { dst, .. }
        | Op::And { dst, .. }
        | Op::Or { dst, .. }
        | Op::Xor { dst, .. }
        | Op::Not { dst, .. }
        | Op::Neg { dst, .. }
        | Op::Shl { dst, .. }
        | Op::Shr { dst, .. }
        | Op::Sra { dst, .. }
        | Op::Eq { dst, .. }
        | Op::Ne { dst, .. }
        | Op::Lt { dst, .. }
        | Op::Ge { dst, .. }
        | Op::LtS { dst, .. }
        | Op::GeS { dst, .. }
        | Op::RedAnd { dst, .. }
        | Op::RedOr { dst, .. }
        | Op::RedXor { dst, .. }
        | Op::Slice { dst, .. }
        | Op::ShlOr { dst, .. }
        | Op::Mux { dst, .. }
        | Op::Mux2 { dst, .. }
        | Op::Select { dst, .. }
        | Op::Sext { dst, .. }
        | Op::MemRead { dst, .. } => *dst = new,
        Op::Write { .. }
        | Op::WriteMasked { .. }
        | Op::WriteNext { .. }
        | Op::WriteNextMasked { .. }
        | Op::WriteIf { .. }
        | Op::WriteNextIf { .. }
        | Op::MemWrite { .. }
        | Op::MemWriteIf { .. }
        | Op::Jz { .. }
        | Op::JneConst { .. }
        | Op::Jmp { .. } => {}
    }
}

/// Whether an op has effects beyond defining its destination register
/// (state writes and control flow must always be kept by DCE).
fn is_effect(op: &Op<VReg>) -> bool {
    matches!(
        op,
        Op::Write { .. }
            | Op::WriteMasked { .. }
            | Op::WriteNext { .. }
            | Op::WriteNextMasked { .. }
            | Op::WriteIf { .. }
            | Op::WriteNextIf { .. }
            | Op::MemWrite { .. }
            | Op::MemWriteIf { .. }
            | Op::Jz { .. }
            | Op::JneConst { .. }
            | Op::Jmp { .. }
    )
}

/// Visits every register an op uses. `Select` implicitly uses the whole
/// consecutive range `base..base+n` in addition to its selector.
fn for_each_use(op: &Op<VReg>, mut f: impl FnMut(VReg)) {
    match *op {
        Op::Const { .. } | Op::Read { .. } | Op::Jmp { .. } => {}
        Op::Copy { a, .. }
        | Op::Not { a, .. }
        | Op::Neg { a, .. }
        | Op::RedAnd { a, .. }
        | Op::RedOr { a, .. }
        | Op::RedXor { a, .. }
        | Op::Slice { a, .. }
        | Op::Sext { a, .. } => f(a),
        Op::Add { a, b, .. }
        | Op::Sub { a, b, .. }
        | Op::Mul { a, b, .. }
        | Op::And { a, b, .. }
        | Op::Or { a, b, .. }
        | Op::Xor { a, b, .. }
        | Op::Shl { a, b, .. }
        | Op::Shr { a, b, .. }
        | Op::Sra { a, b, .. }
        | Op::Eq { a, b, .. }
        | Op::Ne { a, b, .. }
        | Op::Lt { a, b, .. }
        | Op::Ge { a, b, .. }
        | Op::LtS { a, b, .. }
        | Op::GeS { a, b, .. }
        | Op::ShlOr { a, b, .. } => {
            f(a);
            f(b);
        }
        Op::Mux { cond, t, f: fr, .. } => {
            f(cond);
            f(t);
            f(fr);
        }
        Op::Mux2 { c1, t1, c2, t2, f: fr, .. } => {
            f(c1);
            f(t1);
            f(c2);
            f(t2);
            f(fr);
        }
        Op::Select { sel, base, n, .. } => {
            f(sel);
            for i in 0..n as VReg {
                f(base + i);
            }
        }
        Op::Write { src, .. }
        | Op::WriteMasked { src, .. }
        | Op::WriteNext { src, .. }
        | Op::WriteNextMasked { src, .. } => f(src),
        Op::WriteIf { cond, src, .. } | Op::WriteNextIf { cond, src, .. } => {
            f(cond);
            f(src);
        }
        Op::MemRead { addr, .. } => f(addr),
        Op::MemWrite { addr, data, .. } => {
            f(addr);
            f(data);
        }
        Op::MemWriteIf { addr, data, cond, .. } => {
            f(addr);
            f(data);
            f(cond);
        }
        Op::Jz { cond, .. } => f(cond),
        Op::JneConst { a, .. } => f(a),
    }
}

/// Rewrites an op's *explicit* register uses through `f`, returning how
/// many actually changed. `Select`'s implicit operand range must stay
/// physically consecutive, so only its selector is rewritten.
fn rewrite_uses(op: &mut Op<VReg>, f: &mut impl FnMut(VReg) -> VReg) -> u64 {
    let mut n = 0;
    let mut rw = |r: &mut VReg| {
        let nr = f(*r);
        if nr != *r {
            *r = nr;
            n += 1;
        }
    };
    match op {
        Op::Const { .. } | Op::Read { .. } | Op::Jmp { .. } => {}
        Op::Copy { a, .. }
        | Op::Not { a, .. }
        | Op::Neg { a, .. }
        | Op::RedAnd { a, .. }
        | Op::RedOr { a, .. }
        | Op::RedXor { a, .. }
        | Op::Slice { a, .. }
        | Op::Sext { a, .. } => rw(a),
        Op::Add { a, b, .. }
        | Op::Sub { a, b, .. }
        | Op::Mul { a, b, .. }
        | Op::And { a, b, .. }
        | Op::Or { a, b, .. }
        | Op::Xor { a, b, .. }
        | Op::Shl { a, b, .. }
        | Op::Shr { a, b, .. }
        | Op::Sra { a, b, .. }
        | Op::Eq { a, b, .. }
        | Op::Ne { a, b, .. }
        | Op::Lt { a, b, .. }
        | Op::Ge { a, b, .. }
        | Op::LtS { a, b, .. }
        | Op::GeS { a, b, .. }
        | Op::ShlOr { a, b, .. } => {
            rw(a);
            rw(b);
        }
        Op::Mux { cond, t, f: fr, .. } => {
            rw(cond);
            rw(t);
            rw(fr);
        }
        Op::Mux2 { c1, t1, c2, t2, f: fr, .. } => {
            rw(c1);
            rw(t1);
            rw(c2);
            rw(t2);
            rw(fr);
        }
        Op::Select { sel, .. } => rw(sel),
        Op::Write { src, .. }
        | Op::WriteMasked { src, .. }
        | Op::WriteNext { src, .. }
        | Op::WriteNextMasked { src, .. } => rw(src),
        Op::WriteIf { cond, src, .. } | Op::WriteNextIf { cond, src, .. } => {
            rw(cond);
            rw(src);
        }
        Op::MemRead { addr, .. } => rw(addr),
        Op::MemWrite { addr, data, .. } => {
            rw(addr);
            rw(data);
        }
        Op::MemWriteIf { addr, data, cond, .. } => {
            rw(addr);
            rw(data);
            rw(cond);
        }
        Op::Jz { cond, .. } => rw(cond),
        Op::JneConst { a, .. } => rw(a),
    }
    n
}

/// `is_leader[i]`: op `i` is a jump target, i.e. execution can join here
/// from somewhere other than the previous op. Forward-scan dataflow facts
/// must be dropped at leaders (the join's other edge is unknown).
/// Fall-through past a conditional jump keeps its facts: registers do not
/// change by *not* taking a jump.
fn leaders(ops: &[Op<VReg>]) -> Vec<bool> {
    let mut is_leader = vec![false; ops.len() + 1];
    for op in ops {
        match op {
            Op::Jz { target, .. } | Op::JneConst { target, .. } | Op::Jmp { target } => {
                is_leader[*target as usize] = true;
            }
            _ => {}
        }
    }
    is_leader
}

/// Removes ops flagged in `dead`, remapping every jump target through the
/// surviving-op prefix sums (a target may equal `ops.len()`).
fn sweep(ops: &mut Vec<Op<VReg>>, dead: &[bool]) {
    if !dead.contains(&true) {
        return;
    }
    let mut new_pos = vec![0u32; ops.len() + 1];
    let mut kept = 0u32;
    for i in 0..ops.len() {
        new_pos[i] = kept;
        if !dead[i] {
            kept += 1;
        }
    }
    new_pos[ops.len()] = kept;
    let old = std::mem::take(ops);
    ops.reserve_exact(kept as usize);
    for (i, mut op) in old.into_iter().enumerate() {
        if dead[i] {
            continue;
        }
        match &mut op {
            Op::Jz { target, .. } | Op::JneConst { target, .. } | Op::Jmp { target } => {
                *target = new_pos[*target as usize];
            }
            _ => {}
        }
        ops.push(op);
    }
}

/// Evaluates a pure op whose operands are all known constants, mirroring
/// the executor's arithmetic exactly (see `crate::tape::exec`). Returns `None`
/// for state-touching ops or unknown operands.
pub(crate) fn eval_pure(op: &Op<VReg>, get: &impl Fn(VReg) -> Option<u128>) -> Option<u128> {
    Some(match *op {
        Op::Const { val, .. } => val,
        Op::Copy { a, .. } => get(a)?,
        Op::Add { a, b, mask, .. } => get(a)?.wrapping_add(get(b)?) & mask,
        Op::Sub { a, b, mask, .. } => get(a)?.wrapping_sub(get(b)?) & mask,
        Op::Mul { a, b, mask, .. } => get(a)?.wrapping_mul(get(b)?) & mask,
        Op::And { a, b, .. } => get(a)? & get(b)?,
        Op::Or { a, b, .. } => get(a)? | get(b)?,
        Op::Xor { a, b, .. } => get(a)? ^ get(b)?,
        Op::Not { a, mask, .. } => !get(a)? & mask,
        Op::Neg { a, mask, .. } => get(a)?.wrapping_neg() & mask,
        Op::Shl { a, b, width, mask, .. } => {
            let amt = get(b)?;
            if amt >= width as u128 {
                0
            } else if amt >= 128 {
                // Degenerate encoding (width > 128) that a real execution
                // would trap on; never fold it.
                return None;
            } else {
                (get(a)? << amt) & mask
            }
        }
        Op::Shr { a, b, width, .. } => {
            let amt = get(b)?;
            if amt >= width as u128 {
                0
            } else {
                get(a)? >> amt
            }
        }
        Op::Sra { a, b, width, mask, .. } => {
            let amt = (get(b)?).min(width as u128) as u32;
            let ext = 128 - width as u32;
            let v = (get(a)? << ext) as i128 >> ext;
            ((v >> amt.min(127)) as u128) & mask
        }
        Op::Eq { a, b, .. } => (get(a)? == get(b)?) as u128,
        Op::Ne { a, b, .. } => (get(a)? != get(b)?) as u128,
        Op::Lt { a, b, .. } => (get(a)? < get(b)?) as u128,
        Op::Ge { a, b, .. } => (get(a)? >= get(b)?) as u128,
        Op::LtS { a, b, width, .. } => {
            let ext = 128 - width as u32;
            (((get(a)? << ext) as i128) < ((get(b)? << ext) as i128)) as u128
        }
        Op::GeS { a, b, width, .. } => {
            let ext = 128 - width as u32;
            (((get(a)? << ext) as i128) >= ((get(b)? << ext) as i128)) as u128
        }
        Op::RedAnd { a, mask, .. } => (get(a)? == mask) as u128,
        Op::RedOr { a, .. } => (get(a)? != 0) as u128,
        Op::RedXor { a, .. } => (get(a)?.count_ones() % 2) as u128,
        Op::Slice { a, lo, mask, .. } => {
            if lo >= 128 {
                return None;
            }
            (get(a)? >> lo) & mask
        }
        Op::ShlOr { a, b, shift, .. } => {
            if shift >= 128 {
                return None;
            }
            (get(a)? << shift) | get(b)?
        }
        Op::Mux { cond, t, f, .. } => {
            if get(cond)? != 0 {
                get(t)?
            } else {
                get(f)?
            }
        }
        Op::Select { sel, base, n, .. } => {
            let idx = (get(sel)? as usize).min(n as usize - 1);
            get(base + idx as VReg)?
        }
        Op::Sext { a, from, to, .. } => {
            let (sign_bit, ext_or) = sext_masks::<u128>(from, to);
            let v = get(a)?;
            if v & sign_bit != 0 {
                v | ext_or
            } else {
                v
            }
        }
        _ => return None,
    })
}

/// All bits at or below the highest possibly-set bit of `m`.
fn below_top(m: u128) -> u128 {
    if m == 0 {
        0
    } else {
        mask_of(128 - m.leading_zeros())
    }
}

/// `dominating[i]`: op `i` executes on *every* path that reaches any
/// later position — it sits inside no forward jump's skippable span
/// (jumps are forward-only, so any edge into a later join passed through
/// it). Dataflow facts established at dominating positions survive
/// leader resets.
fn dominators(ops: &[Op<VReg>]) -> Vec<bool> {
    let mut depth_delta = vec![0i32; ops.len() + 1];
    for (i, op) in ops.iter().enumerate() {
        if let Op::Jz { target, .. } | Op::JneConst { target, .. } | Op::Jmp { target } = op {
            let t = (*target as usize).min(ops.len());
            if t > i + 1 {
                depth_delta[i + 1] += 1;
                depth_delta[t] -= 1;
            }
        }
    }
    let mut depth = 0i32;
    let mut dom = vec![false; ops.len()];
    for i in 0..ops.len() {
        depth += depth_delta[i];
        dom[i] = depth == 0;
    }
    dom
}

/// which bits may be one (`kb`). Reset at leaders.
struct Facts<'a> {
    kval: Vec<Option<u128>>,
    kb: Vec<u128>,
    /// Facts are valid when their epoch is current ([`Facts::reset`] is
    /// an O(1) epoch bump) or when `dom` marks them as established at a
    /// dominating position (they survive resets: every edge into a later
    /// leader executed the defining op too).
    epoch: Vec<u32>,
    cur_epoch: u32,
    dom: Vec<bool>,
    /// What [`Facts::bits`] answers for a register whose facts a reset
    /// retired: empty (all ones) in the optimizer, the union of every def
    /// so far in [`value_bits`].
    retired: Vec<u128>,
    widths: &'a [u32],
    mem_widths: &'a [u32],
}

impl<'a> Facts<'a> {
    fn new(nregs: u32, widths: &'a [u32], mem_widths: &'a [u32]) -> Facts<'a> {
        Facts {
            kval: vec![None; nregs as usize],
            kb: vec![u128::MAX; nregs as usize],
            epoch: vec![0; nregs as usize],
            cur_epoch: 0,
            dom: vec![false; nregs as usize],
            retired: Vec::new(),
            widths,
            mem_widths,
        }
    }

    fn reset(&mut self) {
        self.cur_epoch += 1;
    }

    fn live(&self, r: VReg) -> bool {
        self.dom[r as usize] || self.epoch[r as usize] == self.cur_epoch
    }

    fn val(&self, r: VReg) -> Option<u128> {
        if self.live(r) {
            self.kval[r as usize]
        } else {
            None
        }
    }

    fn bits(&self, r: VReg) -> u128 {
        if self.live(r) {
            self.kb[r as usize]
        } else {
            self.retired.get(r as usize).copied().unwrap_or(u128::MAX)
        }
    }

    /// Transfers facts across one op (call after inspecting its
    /// operands). `dominating` marks whether the op's position dominates
    /// everything after it (see [`dominators`]).
    fn step(&mut self, op: &Op<VReg>, dominating: bool) {
        let Some(dst) = def_of(op) else { return };
        let v = eval_pure(op, &|r| self.val(r));
        let kb = match v {
            Some(x) => x,
            None => self.approx_bits(op),
        };
        self.kval[dst as usize] = v;
        self.kb[dst as usize] = kb;
        self.dom[dst as usize] = dominating;
        self.epoch[dst as usize] = self.cur_epoch;
    }

    /// May-be-one bits of an op's result from its operands' may-be-one
    /// bits. Any over-approximation is sound; `u128::MAX` is always legal.
    fn approx_bits(&self, op: &Op<VReg>) -> u128 {
        let kb = |r: VReg| self.bits(r);
        match *op {
            Op::Const { val, .. } => val,
            Op::Read { slot, .. } => mask_of(self.widths[slot as usize]),
            Op::MemRead { mem, .. } => mask_of(self.mem_widths[mem as usize]),
            Op::Copy { a, .. } => kb(a),
            Op::Add { a, b, mask, .. } => {
                // a + b < 2^(top+2) where `top` bounds both operands.
                let m = kb(a) | kb(b);
                if m == 0 {
                    0
                } else {
                    mask_of((129 - m.leading_zeros()).min(128)) & mask
                }
            }
            Op::Sub { mask, .. } | Op::Mul { mask, .. } | Op::Neg { mask, .. } => mask,
            Op::Not { mask, .. } => mask,
            Op::And { a, b, .. } => kb(a) & kb(b),
            Op::Or { a, b, .. } | Op::Xor { a, b, .. } => kb(a) | kb(b),
            Op::Shl { mask, .. } => mask,
            Op::Shr { a, .. } => below_top(kb(a)),
            Op::Sra { mask, .. } => mask,
            Op::Eq { .. }
            | Op::Ne { .. }
            | Op::Lt { .. }
            | Op::Ge { .. }
            | Op::LtS { .. }
            | Op::GeS { .. }
            | Op::RedAnd { .. }
            | Op::RedOr { .. }
            | Op::RedXor { .. } => 1,
            Op::Slice { a, lo, mask, .. } => {
                if lo >= 128 {
                    mask
                } else {
                    (kb(a) >> lo) & mask
                }
            }
            Op::ShlOr { a, b, shift, .. } => {
                if shift >= 128 {
                    kb(b)
                } else {
                    (kb(a) << shift) | kb(b)
                }
            }
            Op::Mux { t, f, .. } => kb(t) | kb(f),
            Op::Select { base, n, .. } => (0..n as VReg).fold(0, |acc, i| acc | kb(base + i)),
            Op::Sext { a, from, to, .. } => {
                let (sign_bit, ext_or) = sext_masks::<u128>(from, to);
                let v = kb(a);
                if v & sign_bit != 0 {
                    v | ext_or
                } else {
                    v
                }
            }
            _ => u128::MAX,
        }
    }
}

/// May-be-one bits of every value any register of `vt` can hold: the
/// [`Facts::approx_bits`] transfer over every def, united over all of
/// them. This is the register half of the width proof in
/// [`crate::tape::narrow`].
///
/// Within a straight-line segment a use reads the latest def of its
/// register. At a leader the def that reaches a use may be any earlier
/// one, since jumps only go forward: the register's bound widens to the
/// union of every def of it so far rather than resetting to all ones.
/// (Uniting over all defs everywhere would be sound too, but registers
/// the allocator reuses — one concat chain's accumulators for the next —
/// would accumulate every value they ever held.)
pub(crate) fn value_bits(vt: &VTape, widths: &[u32], mem_widths: &[u32]) -> u128 {
    let is_leader = leaders(&vt.ops);
    let mut facts = Facts::new(vt.nregs, widths, mem_widths);
    // A register read before any def of it holds whatever it held last
    // (another tape's scratch, the previous cycle): unbounded.
    facts.retired = vec![u128::MAX; vt.nregs as usize];
    let mut defined = vec![false; vt.nregs as usize];
    let mut all = 0;
    for (i, op) in vt.ops.iter().enumerate() {
        if is_leader[i] {
            facts.reset();
        }
        let Some(dst) = def_of(op) else { continue };
        let bits = match *op {
            // Made only by the closing mux-fuse pass, which the
            // width-narrow rounds never see.
            Op::Mux2 { t1, t2, f, .. } => facts.bits(t1) | facts.bits(t2) | facts.bits(f),
            _ => facts.approx_bits(op),
        };
        let d = dst as usize;
        facts.kb[d] = bits;
        facts.epoch[d] = facts.cur_epoch;
        facts.retired[d] = if defined[d] { facts.retired[d] | bits } else { bits };
        defined[d] = true;
        all |= bits;
    }
    all
}

// ---------------------------------------------------------------------------
// Passes
// ---------------------------------------------------------------------------

/// Gives every register redefinition a fresh virtual register, rewriting
/// uses to the reaching definition.
///
/// Compiled tapes satisfy defs-dominate-uses (every `Expr` node gets a
/// fresh register, arms never export values through registers, and jumps
/// only go forward), so a single forward scan finds each use's unique
/// reaching definition. Per-block tapes are already single-assignment;
/// the payoff is fused tapes, where [`crate::tape::fuse`] reuses register
/// numbers across blocks and every redefinition would otherwise retire
/// the value-numbering facts CSE needs for cross-block forwarding.
///
/// Registers feeding a `Select` range are renamed as a group (their
/// defining `Copy` ops are adjacent, so fresh numbering keeps the range
/// consecutive); if a tape ever violates that adjacency the pass bails
/// and leaves it untouched.
fn rename(vt: &mut VTape) -> u64 {
    let n = vt.nregs as usize;
    let mut def_count = vec![0u32; n];
    let mut in_range = vec![false; n];
    for op in &vt.ops {
        if let Some(d) = def_of(op) {
            def_count[d as usize] += 1;
        }
        if let Op::Select { base, n: k, .. } = *op {
            for i in 0..k as VReg {
                in_range[(base + i) as usize] = true;
            }
        }
    }
    // Select-range members rename together even when single-def, so a
    // range that mixes reused and fresh registers stays consecutive.
    let must = |r: usize, def_count: &[u32], in_range: &[bool]| {
        def_count[r] > 1 || (in_range[r] && def_count[r] > 0)
    };
    if !(0..n).any(|r| must(r, &def_count, &in_range)) {
        return 0;
    }
    let mut map: Vec<VReg> = (0..vt.nregs).collect();
    let mut next = vt.nregs;
    let mut rewrites = 0;
    let mut ok = true;
    let mut new_ops = Vec::with_capacity(vt.ops.len());
    for op in &vt.ops {
        let mut new = op.clone();
        rewrite_uses(&mut new, &mut |r| map[r as usize]);
        if let Op::Select { base, n: k, .. } = &mut new {
            let nb = map[*base as usize];
            for i in 1..*k as VReg {
                if map[(*base + i) as usize] != nb + i {
                    ok = false;
                }
            }
            *base = nb;
        }
        if let Some(d) = def_of(op) {
            if must(d as usize, &def_count, &in_range) {
                map[d as usize] = next;
                set_def(&mut new, next);
                next += 1;
                rewrites += 1;
            } else {
                map[d as usize] = d;
            }
        }
        new_ops.push(new);
    }
    if !ok {
        return 0;
    }
    vt.ops = new_ops;
    vt.nregs = next;
    rewrites
}

/// Pure ops with all-constant operands become `Op::Const`.
fn const_fold(vt: &mut VTape, widths: &[u32], mem_widths: &[u32]) -> u64 {
    let is_leader = leaders(&vt.ops);
    let dominating = dominators(&vt.ops);
    let mut facts = Facts::new(vt.nregs, widths, mem_widths);
    let mut rewrites = 0;
    for (i, op) in vt.ops.iter_mut().enumerate() {
        if is_leader[i] {
            facts.reset();
        }
        if !matches!(op, Op::Const { .. }) {
            if let (Some(dst), Some(val)) = (def_of(op), eval_pure(op, &|r| facts.val(r))) {
                *op = Op::Const { dst, val };
                rewrites += 1;
            }
        }
        facts.step(op, dominating[i]);
    }
    rewrites
}

/// Local value numbering: repeated reads, repeated constants, and repeated
/// pure computations over unchanged operands collapse to copies; full
/// writes forward their source to later reads of the same slot.
fn cse(vt: &mut VTape) -> u64 {
    /// Value-number key: registers are paired with their definition
    /// version so a redefinition retires every key that mentions the old
    /// value. Immediates ride along verbatim.
    #[derive(Hash, PartialEq, Eq)]
    enum Key {
        Const(u128),
        Read(u32, u64),
        MemRead(u32, (VReg, u32), u64),
        Un(u8, (VReg, u32), u128, u128, u32),
        Bin(u8, (VReg, u32), (VReg, u32), u128, u32, u32),
        Mux((VReg, u32), (VReg, u32), (VReg, u32)),
    }

    let is_leader = leaders(&vt.ops);
    let dominating = dominators(&vt.ops);
    let nregs = vt.nregs as usize;
    let mut ver = vec![0u32; nregs];
    let mut slot_ver: HashMap<u32, u64, FxBuild> = HashMap::default();
    // Per slot: the register (and its version) a full `Write` last stored.
    let mut last_store: HashMap<u32, (VReg, u32), FxBuild> = HashMap::default();
    let mut table: HashMap<Key, (VReg, u32), FxBuild> = HashMap::default();
    // Facts from dominating positions; never cleared. Version pairing
    // still retires entries whose registers are redefined anywhere.
    let mut global: HashMap<Key, (VReg, u32), FxBuild> = HashMap::default();
    let mut rewrites = 0;

    for (i, op) in vt.ops.iter_mut().enumerate() {
        if is_leader[i] {
            table.clear();
            last_store.clear();
        }
        let v = |r: VReg, ver: &[u32]| (r, ver[r as usize]);
        // Commutative ops canonicalize operand order.
        let c2 = |a: VReg, b: VReg, ver: &[u32]| {
            let (ka, kb) = (v(a, ver), v(b, ver));
            if ka <= kb {
                (ka, kb)
            } else {
                (kb, ka)
            }
        };
        let key = match *op {
            Op::Const { val, .. } => Some(Key::Const(val)),
            Op::Read { slot, .. } => Some(Key::Read(slot, *slot_ver.get(&slot).unwrap_or(&0))),
            Op::MemRead { mem, addr, words, .. } => Some(Key::MemRead(mem, v(addr, &ver), words)),
            Op::Copy { .. } => None, // copy-prop's job
            Op::Add { a, b, mask, .. } => {
                let (x, y) = c2(a, b, &ver);
                Some(Key::Bin(0, x, y, mask, 0, 0))
            }
            Op::Sub { a, b, mask, .. } => Some(Key::Bin(1, v(a, &ver), v(b, &ver), mask, 0, 0)),
            Op::Mul { a, b, mask, .. } => {
                let (x, y) = c2(a, b, &ver);
                Some(Key::Bin(2, x, y, mask, 0, 0))
            }
            Op::And { a, b, .. } => {
                let (x, y) = c2(a, b, &ver);
                Some(Key::Bin(3, x, y, 0, 0, 0))
            }
            Op::Or { a, b, .. } => {
                let (x, y) = c2(a, b, &ver);
                Some(Key::Bin(4, x, y, 0, 0, 0))
            }
            Op::Xor { a, b, .. } => {
                let (x, y) = c2(a, b, &ver);
                Some(Key::Bin(5, x, y, 0, 0, 0))
            }
            Op::Shl { a, b, width, mask, .. } => {
                Some(Key::Bin(6, v(a, &ver), v(b, &ver), mask, width as u32, 0))
            }
            Op::Shr { a, b, width, .. } => {
                Some(Key::Bin(7, v(a, &ver), v(b, &ver), 0, width as u32, 0))
            }
            Op::Sra { a, b, width, mask, .. } => {
                Some(Key::Bin(8, v(a, &ver), v(b, &ver), mask, width as u32, 0))
            }
            Op::Eq { a, b, .. } => {
                let (x, y) = c2(a, b, &ver);
                Some(Key::Bin(9, x, y, 0, 0, 0))
            }
            Op::Ne { a, b, .. } => {
                let (x, y) = c2(a, b, &ver);
                Some(Key::Bin(10, x, y, 0, 0, 0))
            }
            Op::Lt { a, b, .. } => Some(Key::Bin(11, v(a, &ver), v(b, &ver), 0, 0, 0)),
            Op::Ge { a, b, .. } => Some(Key::Bin(12, v(a, &ver), v(b, &ver), 0, 0, 0)),
            Op::LtS { a, b, width, .. } => {
                Some(Key::Bin(13, v(a, &ver), v(b, &ver), 0, width as u32, 0))
            }
            Op::GeS { a, b, width, .. } => {
                Some(Key::Bin(14, v(a, &ver), v(b, &ver), 0, width as u32, 0))
            }
            Op::ShlOr { a, b, shift, .. } => {
                Some(Key::Bin(15, v(a, &ver), v(b, &ver), 0, shift, 0))
            }
            Op::Not { a, mask, .. } => Some(Key::Un(0, v(a, &ver), mask, 0, 0)),
            Op::Neg { a, mask, .. } => Some(Key::Un(1, v(a, &ver), mask, 0, 0)),
            Op::RedAnd { a, mask, .. } => Some(Key::Un(2, v(a, &ver), mask, 0, 0)),
            Op::RedOr { a, .. } => Some(Key::Un(3, v(a, &ver), 0, 0, 0)),
            Op::RedXor { a, .. } => Some(Key::Un(4, v(a, &ver), 0, 0, 0)),
            Op::Slice { a, lo, mask, .. } => Some(Key::Un(5, v(a, &ver), mask, 0, lo as u32)),
            Op::Sext { a, from, to, .. } => {
                Some(Key::Un(6, v(a, &ver), from as u128, to as u128, 0))
            }
            Op::Mux { cond, t, f, .. } => Some(Key::Mux(v(cond, &ver), v(t, &ver), v(f, &ver))),
            // Created after the fixpoint loop (mux-fuse), so CSE never
            // sees one; no key needed.
            Op::Mux2 { .. } => None,
            // `Select` implicitly uses a register range; leave it alone.
            Op::Select { .. } => None,
            Op::Write { .. }
            | Op::WriteMasked { .. }
            | Op::WriteNext { .. }
            | Op::WriteNextMasked { .. }
            | Op::WriteIf { .. }
            | Op::WriteNextIf { .. }
            | Op::MemWrite { .. }
            | Op::MemWriteIf { .. }
            | Op::Jz { .. }
            | Op::JneConst { .. }
            | Op::Jmp { .. } => None,
        };

        // Store-to-load forwarding: a full write's source register still
        // holds the slot's value.
        if let Op::Read { dst, slot } = *op {
            if let Some(&(src, sv)) = last_store.get(&slot) {
                if ver[src as usize] == sv && src != dst {
                    *op = Op::Copy { dst, a: src };
                    rewrites += 1;
                    ver[dst as usize] += 1;
                    continue;
                }
            }
        }

        if let Some(key) = key {
            let dst = def_of(op).expect("keyed ops define a register");
            if let Some(&(prev, pv)) = table.get(&key).or_else(|| global.get(&key)) {
                if ver[prev as usize] == pv && prev != dst {
                    *op = Op::Copy { dst, a: prev };
                    rewrites += 1;
                    ver[dst as usize] += 1;
                    continue;
                }
            }
            ver[dst as usize] += 1;
            if dominating[i] {
                global.insert(key, (dst, ver[dst as usize]));
            } else {
                table.insert(key, (dst, ver[dst as usize]));
            }
            continue;
        }

        // Non-keyed ops: maintain versions and write-tracking.
        if let Some(dst) = def_of(op) {
            ver[dst as usize] += 1;
        }
        match *op {
            Op::Write { slot, src } => {
                *slot_ver.entry(slot).or_insert(0) += 1;
                last_store.insert(slot, (src, ver[src as usize]));
            }
            Op::WriteMasked { slot, .. } => {
                *slot_ver.entry(slot).or_insert(0) += 1;
                last_store.remove(&slot);
            }
            // A predicated write may or may not store: `Read` keys must
            // retire and no forwarding fact survives.
            Op::WriteIf { slot, .. } => {
                *slot_ver.entry(slot).or_insert(0) += 1;
                last_store.remove(&slot);
            }
            // `WriteNext`/`WriteNextIf` touch the shadow buffer, not
            // `cur`: in-tape reads are unaffected. `MemWrite` defers
            // through `pending`, so it cannot invalidate `MemRead` keys
            // either.
            _ => {}
        }
    }
    rewrites
}

/// `Mux`/`Select` under constant conditions (or with identical arms) and
/// constant-guarded jumps collapse.
fn mux_collapse(vt: &mut VTape, widths: &[u32], mem_widths: &[u32]) -> u64 {
    let is_leader = leaders(&vt.ops);
    let dominating = dominators(&vt.ops);
    let mut facts = Facts::new(vt.nregs, widths, mem_widths);
    let mut rewrites = 0;
    let mut dead = vec![false; vt.ops.len()];
    for (i, op) in vt.ops.iter_mut().enumerate() {
        if is_leader[i] {
            facts.reset();
        }
        let new = match *op {
            Op::Mux { dst, cond, t, f } => match facts.val(cond) {
                Some(c) => Some(Op::Copy { dst, a: if c != 0 { t } else { f } }),
                None if t == f => Some(Op::Copy { dst, a: t }),
                None => None,
            },
            Op::Select { dst, sel, base, n } => facts
                .val(sel)
                .map(|s| Op::Copy { dst, a: base + (s as usize).min(n as usize - 1) as VReg }),
            Op::Jz { cond, target } => match facts.val(cond) {
                Some(0) => Some(Op::Jmp { target }),
                Some(_) => {
                    dead[i] = true;
                    rewrites += 1;
                    None
                }
                None => None,
            },
            Op::JneConst { a, k, target } => match facts.val(a) {
                Some(v) if v != k => Some(Op::Jmp { target }),
                Some(_) => {
                    dead[i] = true;
                    rewrites += 1;
                    None
                }
                None => None,
            },
            // Predicated writes under a known guard become plain writes
            // (or vanish when provably untaken).
            Op::WriteIf { slot, cond, src, neg } => match facts.val(cond) {
                Some(c) if (c != 0) != neg => Some(Op::Write { slot, src }),
                Some(_) => {
                    dead[i] = true;
                    rewrites += 1;
                    None
                }
                None => None,
            },
            Op::WriteNextIf { slot, cond, src, neg } => match facts.val(cond) {
                Some(c) if (c != 0) != neg => Some(Op::WriteNext { slot, src }),
                Some(_) => {
                    dead[i] = true;
                    rewrites += 1;
                    None
                }
                None => None,
            },
            Op::MemWriteIf { mem, addr, data, cond, words, neg } => match facts.val(cond) {
                Some(c) if (c != 0) != neg => Some(Op::MemWrite { mem, addr, data, words }),
                Some(_) => {
                    dead[i] = true;
                    rewrites += 1;
                    None
                }
                None => None,
            },
            _ => None,
        };
        if let Some(new) = new {
            *op = new;
            rewrites += 1;
        }
        facts.step(op, dominating[i]);
    }
    sweep(&mut vt.ops, &dead);
    rewrites
}

/// Size cap for one if-conversion: total ops across both arms. Converted
/// arms execute unconditionally, so this bounds the speculation cost on
/// the event engine (where an untaken arm used to be skipped).
const IF_CONVERT_MAX_OPS: usize = 64;
/// Cap on guarded writes per conversion (each becomes a predicated op).
const IF_CONVERT_MAX_WRITES: usize = 16;

/// A convertible `Jz` region: arm ranges in original-index space plus the
/// join point execution resumes at.
struct IfPlan {
    then_r: std::ops::Range<usize>,
    else_r: std::ops::Range<usize>,
    join: usize,
}

/// Checks whether the `Jz` at `i` (jumping to `end`) guards a convertible
/// one-armed region or diamond. `tcount[idx]` counts jumps targeting
/// `idx` in the *original* tape.
fn plan_if(ops: &[Op<VReg>], i: usize, end: usize, tcount: &[u32]) -> Option<IfPlan> {
    if end <= i + 1 || end > ops.len() {
        return None;
    }
    // Shape: the only permitted jump inside `i+1..end` is a trailing
    // `Jmp` (the then-arm's exit of a diamond).
    let mut inner_jmp = None;
    for (idx, op) in ops[i + 1..end].iter().enumerate() {
        let idx = i + 1 + idx;
        match op {
            Op::Jmp { target } if idx == end - 1 && *target as usize >= end => {
                inner_jmp = Some(*target as usize);
            }
            Op::Jz { .. } | Op::JneConst { .. } | Op::Jmp { .. } => return None,
            _ => {}
        }
    }
    let (then_r, else_r, join) = match inner_jmp {
        Some(join) => {
            if join > ops.len() {
                return None;
            }
            (i + 1..end - 1, end..join, join)
        }
        None => (i + 1..end, end..end, end),
    };
    // The else arm must itself be jump-free.
    if else_r
        .clone()
        .any(|idx| matches!(ops[idx], Op::Jz { .. } | Op::JneConst { .. } | Op::Jmp { .. }))
    {
        return None;
    }
    // No external jump may land inside the converted region. The only
    // allowed internal target is `end` in a diamond (our own `Jz`).
    for (idx, &t) in tcount.iter().enumerate().take(join).skip(i + 1) {
        let allowed = if inner_jmp.is_some() && idx == end { 1 } else { 0 };
        if t != allowed {
            return None;
        }
    }
    // Arm bodies: pure defs (always speculatable — `Read`/`MemRead` are
    // total) plus full, deferred-memory, or already-predicated writes
    // (the latter appear when a nested if converted in an earlier
    // round). Masked stores stay branchy: they read-modify-write.
    let mut ops_total = 0usize;
    let mut writes = 0usize;
    for idx in then_r.clone().chain(else_r.clone()) {
        ops_total += 1;
        match &ops[idx] {
            Op::Write { .. }
            | Op::WriteNext { .. }
            | Op::WriteIf { .. }
            | Op::WriteNextIf { .. }
            | Op::MemWrite { .. }
            | Op::MemWriteIf { .. } => writes += 1,
            op if def_of(op).is_some() => {}
            _ => return None,
        }
    }
    if ops_total > IF_CONVERT_MAX_OPS || writes > IF_CONVERT_MAX_WRITES {
        return None;
    }
    Some(IfPlan { then_r, else_r, join })
}

/// Converts small `Jz` arms and diamonds into straight-line code.
///
/// Pure arm ops are emitted as-is (their results are dead on the
/// untaken path, so speculating them is invisible — `Read`/`MemRead`
/// are total). Each guarded `Write`/`WriteNext` becomes one predicated
/// [`Op::WriteIf`]/[`Op::WriteNextIf`] carrying the guard register and
/// the arm's polarity; the untaken predicate stores nothing, so values,
/// tracked-mode events, and the shadow buffer's fault-injection
/// behaviour are all preserved bit-for-bit. A write that is *already*
/// predicated (a nested if converted in an earlier round) conjoins its
/// own guard with the outer one: both are normalized to 0/1 — `RedOr`
/// for a positive guard, `Eq` against a hoisted zero constant for a
/// negated one — and combined with `And`. Nested ifs thus convert
/// innermost-first, one level per pipeline round.
fn if_convert(vt: &mut VTape) -> u64 {
    let len = vt.ops.len();
    let mut tcount = vec![0u32; len + 1];
    let mut any_jz = false;
    for op in &vt.ops {
        match op {
            Op::Jz { target, .. } | Op::JneConst { target, .. } | Op::Jmp { target } => {
                tcount[*target as usize] += 1;
                any_jz |= matches!(op, Op::Jz { .. });
            }
            _ => {}
        }
    }
    if !any_jz {
        return 0;
    }
    let ops = std::mem::take(&mut vt.ops);
    let mut nregs = vt.nregs;
    let mut out: Vec<Op<VReg>> = Vec::with_capacity(len);
    let mut new_pos = vec![0u32; len + 1];
    let mut rewrites = 0;
    let emit_arm = |r: std::ops::Range<usize>,
                    is_then: bool,
                    cond: VReg,
                    out: &mut Vec<Op<VReg>>,
                    new_pos: &mut [u32],
                    nregs: &mut VReg| {
        // Lazily materialized per arm: the arm's own take-condition
        // normalized to 0/1 (`RedOr(cond)` for the then-arm,
        // `Eq(cond, 0)` for the else-arm) and a zero constant.
        let mut arm01: Option<VReg> = None;
        let mut kzero: Option<VReg> = None;
        let alloc = |nregs: &mut VReg| {
            let r = *nregs;
            *nregs += 1;
            r
        };
        let mut zero = |out: &mut Vec<Op<VReg>>, nregs: &mut VReg| {
            *kzero.get_or_insert_with(|| {
                let d = alloc(nregs);
                out.push(Op::Const { dst: d, val: 0 });
                d
            })
        };
        // Conjoins an inner predicated write's own guard with this arm's
        // take-condition; returns the combined positive-polarity guard.
        let mut conjoin =
            |inner: VReg, inner_neg: bool, out: &mut Vec<Op<VReg>>, nregs: &mut VReg| {
                let a01 = match arm01 {
                    Some(r) => r,
                    None => {
                        let d = if is_then {
                            let d = alloc(nregs);
                            out.push(Op::RedOr { dst: d, a: cond });
                            d
                        } else {
                            let z = zero(out, nregs);
                            let d = alloc(nregs);
                            out.push(Op::Eq { dst: d, a: cond, b: z });
                            d
                        };
                        arm01 = Some(d);
                        d
                    }
                };
                let i01 = if inner_neg {
                    let z = zero(out, nregs);
                    let d = alloc(nregs);
                    out.push(Op::Eq { dst: d, a: inner, b: z });
                    d
                } else {
                    let d = alloc(nregs);
                    out.push(Op::RedOr { dst: d, a: inner });
                    d
                };
                let d = alloc(nregs);
                out.push(Op::And { dst: d, a: a01, b: i01 });
                d
            };
        for idx in r {
            new_pos[idx] = out.len() as u32;
            match ops[idx] {
                Op::Write { slot, src } => {
                    out.push(Op::WriteIf { slot, cond, src, neg: !is_then });
                }
                Op::WriteNext { slot, src } => {
                    out.push(Op::WriteNextIf { slot, cond, src, neg: !is_then });
                }
                Op::WriteIf { slot, cond: ic, src, neg } => {
                    let cc = conjoin(ic, neg, out, nregs);
                    out.push(Op::WriteIf { slot, cond: cc, src, neg: false });
                }
                Op::WriteNextIf { slot, cond: ic, src, neg } => {
                    let cc = conjoin(ic, neg, out, nregs);
                    out.push(Op::WriteNextIf { slot, cond: cc, src, neg: false });
                }
                Op::MemWrite { mem, addr, data, words } => {
                    out.push(Op::MemWriteIf { mem, addr, data, cond, words, neg: !is_then });
                }
                Op::MemWriteIf { mem, addr, data, cond: ic, words, neg } => {
                    let cc = conjoin(ic, neg, out, nregs);
                    out.push(Op::MemWriteIf { mem, addr, data, cond: cc, words, neg: false });
                }
                ref op => out.push(op.clone()),
            }
        }
    };
    let mut i = 0;
    while i < len {
        new_pos[i] = out.len() as u32;
        let plan = match ops[i] {
            Op::Jz { cond, target } => {
                plan_if(&ops, i, target as usize, &tcount).map(|p| (cond, p))
            }
            _ => None,
        };
        let Some((cond, plan)) = plan else {
            out.push(ops[i].clone());
            i += 1;
            continue;
        };
        emit_arm(plan.then_r.clone(), true, cond, &mut out, &mut new_pos, &mut nregs);
        if plan.join > plan.then_r.end {
            // Diamond: account for the dropped then-exit `Jmp`.
            new_pos[plan.then_r.end] = out.len() as u32;
        }
        emit_arm(plan.else_r.clone(), false, cond, &mut out, &mut new_pos, &mut nregs);
        i = plan.join;
        rewrites += 1;
    }
    new_pos[len] = out.len() as u32;
    if rewrites == 0 {
        vt.ops = ops;
        return 0;
    }
    for op in &mut out {
        match op {
            Op::Jz { target, .. } | Op::JneConst { target, .. } | Op::Jmp { target } => {
                *target = new_pos[*target as usize];
            }
            _ => {}
        }
    }
    vt.ops = out;
    vt.nregs = nregs;
    rewrites
}

/// Known-bits narrowing: masking/extension that provably changes nothing
/// becomes a `Copy`; provably-degenerate results become constants.
fn width_narrow(vt: &mut VTape, widths: &[u32], mem_widths: &[u32]) -> u64 {
    let is_leader = leaders(&vt.ops);
    let dominating = dominators(&vt.ops);
    let mut facts = Facts::new(vt.nregs, widths, mem_widths);
    let mut rewrites = 0;
    for (i, op) in vt.ops.iter_mut().enumerate() {
        if is_leader[i] {
            facts.reset();
        }
        let kb = |r: VReg| facts.bits(r);
        let kv = |r: VReg| facts.val(r);
        let new = match *op {
            Op::Sext { dst, a, from, to } if kb(a) & sext_masks::<u128>(from, to).0 == 0 => {
                Some(Op::Copy { dst, a })
            }
            Op::Slice { dst, a, lo: 0, mask } if kb(a) & !mask == 0 => Some(Op::Copy { dst, a }),
            Op::Slice { dst, a, lo, mask } if lo > 0 && lo < 128 && (kb(a) >> lo) & mask == 0 => {
                Some(Op::Const { dst, val: 0 })
            }
            Op::And { dst, a, b } if kb(a) & kb(b) == 0 => Some(Op::Const { dst, val: 0 }),
            Op::And { dst, a, b } => match (kv(a), kv(b)) {
                (_, Some(m)) if kb(a) & !m == 0 => Some(Op::Copy { dst, a }),
                (Some(m), _) if kb(b) & !m == 0 => Some(Op::Copy { dst, a: b }),
                _ => None,
            },
            Op::Or { dst, a, b } => match (kv(a), kv(b)) {
                (_, Some(0)) => Some(Op::Copy { dst, a }),
                (Some(0), _) => Some(Op::Copy { dst, a: b }),
                (_, Some(m)) if kb(a) & !m == 0 => Some(Op::Const { dst, val: m }),
                (Some(m), _) if kb(b) & !m == 0 => Some(Op::Const { dst, val: m }),
                _ => None,
            },
            Op::Xor { dst, a, b } if a == b => Some(Op::Const { dst, val: 0 }),
            Op::Xor { dst, a, b } => match (kv(a), kv(b)) {
                (_, Some(0)) => Some(Op::Copy { dst, a }),
                (Some(0), _) => Some(Op::Copy { dst, a: b }),
                _ => None,
            },
            Op::Add { dst, a, b, mask } => match (kv(a), kv(b)) {
                (_, Some(0)) if kb(a) & !mask == 0 => Some(Op::Copy { dst, a }),
                (Some(0), _) if kb(b) & !mask == 0 => Some(Op::Copy { dst, a: b }),
                _ => None,
            },
            Op::Sub { dst, a, b, .. } if a == b => Some(Op::Const { dst, val: 0 }),
            Op::Sub { dst, a, b, mask } => match kv(b) {
                Some(0) if kb(a) & !mask == 0 => Some(Op::Copy { dst, a }),
                _ => None,
            },
            Op::Mul { dst, a, b, mask } => match (kv(a), kv(b)) {
                (_, Some(1)) if kb(a) & !mask == 0 => Some(Op::Copy { dst, a }),
                (Some(1), _) if kb(b) & !mask == 0 => Some(Op::Copy { dst, a: b }),
                (_, Some(0)) | (Some(0), _) => Some(Op::Const { dst, val: 0 }),
                _ => None,
            },
            Op::Shl { dst, a, b, mask, .. } => match kv(b) {
                Some(0) if kb(a) & !mask == 0 => Some(Op::Copy { dst, a }),
                _ => None,
            },
            Op::Shr { dst, a, b, .. } => match kv(b) {
                Some(0) => Some(Op::Copy { dst, a }),
                _ => None,
            },
            Op::Eq { dst, a, b } if a == b => Some(Op::Const { dst, val: 1 }),
            Op::Ne { dst, a, b } if a == b => Some(Op::Const { dst, val: 0 }),
            Op::Lt { dst, a, b } if a == b => Some(Op::Const { dst, val: 0 }),
            Op::Ge { dst, a, b } if a == b => Some(Op::Const { dst, val: 1 }),
            Op::LtS { dst, a, b, .. } if a == b => Some(Op::Const { dst, val: 0 }),
            Op::GeS { dst, a, b, .. } if a == b => Some(Op::Const { dst, val: 1 }),
            Op::RedAnd { dst, a, mask } if kb(a) & mask != mask => Some(Op::Const { dst, val: 0 }),
            Op::RedOr { dst, a } if kb(a) == 0 => Some(Op::Const { dst, val: 0 }),
            Op::RedOr { dst, a } if kb(a) & !1 == 0 => Some(Op::Copy { dst, a }),
            Op::RedXor { dst, a } if kb(a) & !1 == 0 => Some(Op::Copy { dst, a }),
            _ => None,
        };
        if let Some(new) = new {
            *op = new;
            rewrites += 1;
        }
        facts.step(op, dominating[i]);
    }
    rewrites
}

/// Rewrites uses through copy chains so the copies die in DCE.
fn copy_prop(vt: &mut VTape) -> u64 {
    let is_leader = leaders(&vt.ops);
    let nregs = vt.nregs as usize;
    let mut ver = vec![0u32; nregs];
    // `dst` currently holds the value `src` held at version `src_ver`.
    let mut copy_of: Vec<Option<(VReg, u32)>> = vec![None; nregs];
    let mut rewrites = 0;
    for (i, op) in vt.ops.iter_mut().enumerate() {
        if is_leader[i] {
            copy_of.fill(None);
        }
        let resolve = |mut r: VReg, copy_of: &[Option<(VReg, u32)>], ver: &[u32]| {
            while let Some((s, sv)) = copy_of[r as usize] {
                if ver[s as usize] != sv || s == r {
                    break;
                }
                r = s;
            }
            r
        };
        rewrites += rewrite_uses(op, &mut |r| resolve(r, &copy_of, &ver));
        if let Some(dst) = def_of(op) {
            ver[dst as usize] += 1;
            copy_of[dst as usize] = match *op {
                Op::Copy { a, .. } if a != dst => Some((a, ver[a as usize])),
                _ => None,
            };
        }
    }
    rewrites
}

/// Shortcuts `Jmp` chains, drops jumps to the next op, and removes
/// unreachable ops.
fn jump_thread(vt: &mut VTape) -> u64 {
    let len = vt.ops.len();
    let mut rewrites = 0;
    // Resolve each jump through chains of unconditional `Jmp`s.
    let resolve = |start: u32, ops: &[Op<VReg>]| {
        let mut t = start;
        let mut hops = 0;
        while (t as usize) < ops.len() && hops < 64 {
            match ops[t as usize] {
                Op::Jmp { target } if target != t => t = target,
                _ => break,
            }
            hops += 1;
        }
        t
    };
    for i in 0..len {
        let (threaded, cur) = match vt.ops[i] {
            Op::Jz { cond: _, target } => (resolve(target, &vt.ops), target),
            Op::JneConst { target, .. } => (resolve(target, &vt.ops), target),
            Op::Jmp { target } => (resolve(target, &vt.ops), target),
            _ => continue,
        };
        if threaded != cur {
            match &mut vt.ops[i] {
                Op::Jz { target, .. } | Op::JneConst { target, .. } | Op::Jmp { target } => {
                    *target = threaded;
                }
                _ => unreachable!(),
            }
            rewrites += 1;
        }
    }
    let mut dead = vec![false; len];
    // Jumps to the very next op are no-ops.
    for (i, op) in vt.ops.iter().enumerate() {
        match *op {
            Op::Jz { target, .. } | Op::JneConst { target, .. } | Op::Jmp { target }
                if target as usize == i + 1 =>
            {
                dead[i] = true;
                rewrites += 1;
            }
            _ => {}
        }
    }
    // Reachability from entry (tape jumps only go forward, but a plain
    // worklist costs nothing and assumes nothing).
    let mut reachable = vec![false; len + 1];
    let mut work = vec![0u32];
    while let Some(i) = work.pop() {
        let iu = i as usize;
        if iu >= len || reachable[iu] {
            continue;
        }
        reachable[iu] = true;
        if dead[iu] {
            work.push(i + 1);
            continue;
        }
        match vt.ops[iu] {
            Op::Jmp { target } => work.push(target),
            Op::Jz { target, .. } | Op::JneConst { target, .. } => {
                work.push(target);
                work.push(i + 1);
            }
            _ => work.push(i + 1),
        }
    }
    for i in 0..len {
        if !reachable[i] && !dead[i] {
            dead[i] = true;
            rewrites += 1;
        }
    }
    sweep(&mut vt.ops, &dead);
    rewrites
}

/// Removes pure ops whose destination register is never used later.
/// Positional ("used anywhere after") liveness without kills — sound for
/// any forward-jump control flow, and one backward scan handles whole
/// dead chains.
fn dce(vt: &mut VTape) -> u64 {
    let mut used = vec![false; vt.nregs as usize];
    let mut dead = vec![false; vt.ops.len()];
    let mut rewrites = 0;
    for (i, op) in vt.ops.iter().enumerate().rev() {
        if is_effect(op) {
            for_each_use(op, |r| used[r as usize] = true);
        } else if let Some(dst) = def_of(op) {
            if used[dst as usize] {
                for_each_use(op, |r| used[r as usize] = true);
            } else {
                dead[i] = true;
                rewrites += 1;
            }
        }
    }
    sweep(&mut vt.ops, &dead);
    rewrites
}

/// Renumbers live registers in ascending order, shrinking `nregs`.
/// Ascending order keeps `Select`'s implicit `base..base+n` range (every
/// member of which is marked used) consecutive after renumbering.
/// Fuses `Mux` chains pairwise into [`Op::Mux2`]: when a mux's false
/// input is produced by another mux whose only consumer it is, the pair
/// becomes one two-level op (`dst = c1 ? t1 : (c2 ? t2 : f)`). This is
/// the one-hot crossbar idiom — a grant vector sliced into bits, each
/// selecting one input with the previous pick threaded through the false
/// leg — where it halves the dispatch count of the hottest op kind.
///
/// Runs once after the fixpoint loop (CSE keys plain `Mux`es; fusing
/// earlier would hide sharing). Only jump-free tapes fuse: the inner
/// mux's operands are re-read at the outer site, which is only sound
/// when both sites provably execute together with single-def registers.
fn mux_fuse(vt: &mut VTape) -> u64 {
    let has_jumps =
        vt.ops.iter().any(|op| matches!(op, Op::Jz { .. } | Op::JneConst { .. } | Op::Jmp { .. }));
    if has_jumps {
        return 0;
    }
    let n = vt.nregs as usize;
    let mut def_site: Vec<u32> = vec![u32::MAX; n];
    let mut def_count = vec![0u8; n];
    let mut use_count = vec![0u32; n];
    let mut in_range = vec![false; n];
    for (i, op) in vt.ops.iter().enumerate() {
        if let Some(d) = def_of(op) {
            let c = &mut def_count[d as usize];
            *c = c.saturating_add(1);
            def_site[d as usize] = i as u32;
        }
        for_each_use(op, |r| use_count[r as usize] += 1);
        if let Op::Select { base, n: k, .. } = *op {
            for j in 0..k as VReg {
                in_range[(base + j) as usize] = true;
            }
        }
    }
    // A register's value is position-independent when it has at most one
    // def (defs dominate uses, so the def precedes every read).
    let stable = |r: VReg| def_count[r as usize] <= 1;
    let mut dead = vec![false; vt.ops.len()];
    let mut rewrites = 0u64;
    for i in 0..vt.ops.len() {
        let Op::Mux { dst, cond, t, f } = vt.ops[i] else { continue };
        let fr = f as usize;
        if def_count[fr] != 1 || use_count[fr] != 1 || in_range[fr] {
            continue;
        }
        let site = def_site[fr] as usize;
        if site == i {
            // Non-SSA corner (`rename` bailed): the mux reads its own
            // destination; there is no producer to fuse.
            continue;
        }
        let Op::Mux { cond: ic, t: it, f: inner_f, .. } = vt.ops[site] else {
            continue;
        };
        if !(stable(ic) && stable(it) && stable(inner_f)) {
            continue;
        }
        dead[site] = true;
        vt.ops[i] = Op::Mux2 { dst, c1: cond, t1: t, c2: ic, t2: it, f: inner_f };
        rewrites += 1;
    }
    if rewrites > 0 {
        sweep(&mut vt.ops, &dead);
    }
    rewrites
}

/// Moves every single-def `Const` to the front of a jump-free tape and
/// records the prefix length in [`VTape::prelude`]. The hoisted consts
/// are cycle-invariant, so an engine with a persistent per-tape register
/// buffer installs them once and executes only the body per cycle
/// (`ExecTape::bank` / `ExecTape::run_body`), while engines that share one
/// scratch buffer across tapes keep executing from op 0 unchanged.
///
/// Runs once after the fixpoint loop: DCE has already removed unused
/// consts and GVN deduplicated repeats, so what remains is the live
/// constant pool. `realloc` pins the prelude destinations so no body op
/// ever recycles them (the prelude only runs once per buffer lifetime).
fn hoist_consts(vt: &mut VTape) -> u64 {
    let has_jumps =
        vt.ops.iter().any(|op| matches!(op, Op::Jz { .. } | Op::JneConst { .. } | Op::Jmp { .. }));
    if has_jumps {
        // Moving ops would shift jump targets; fully if-converted tapes
        // (the hot fused schedules) are the payoff anyway.
        return 0;
    }
    // Only single-def consts hoist: a register redefined later would be
    // clobbered after the prelude ran. `rename` makes defs unique, but it
    // can bail on pathological `Select` ranges, so re-check here.
    let mut def_count = vec![0u8; vt.nregs as usize];
    for op in &vt.ops {
        if let Some(d) = def_of(op) {
            let c = &mut def_count[d as usize];
            *c = c.saturating_add(1);
        }
    }
    let hoistable = |op: &Op<VReg>| match op {
        Op::Const { dst, .. } => def_count[*dst as usize] == 1,
        _ => false,
    };
    let total = vt.ops.iter().filter(|op| hoistable(op)).count();
    if total == 0 {
        return 0;
    }
    let mut pre: Vec<Op<VReg>> = Vec::with_capacity(total);
    let mut body: Vec<Op<VReg>> = Vec::with_capacity(vt.ops.len() - total);
    for op in vt.ops.drain(..) {
        if hoistable(&op) {
            pre.push(op);
        } else {
            body.push(op);
        }
    }
    vt.prelude = pre.len() as u32;
    pre.append(&mut body);
    vt.ops = pre;
    total as u64
}

fn compact(vt: &mut VTape) -> u64 {
    let nregs = vt.nregs as usize;
    let mut used = vec![false; nregs];
    for op in &vt.ops {
        if let Some(d) = def_of(op) {
            used[d as usize] = true;
        }
        for_each_use(op, |r| used[r as usize] = true);
    }
    let mut remap = vec![0 as VReg; nregs];
    let mut next = 0 as VReg;
    for (i, &u) in used.iter().enumerate() {
        if u {
            remap[i] = next;
            next += 1;
        }
    }
    if next as usize == nregs {
        return 0;
    }
    for op in &mut vt.ops {
        *op = op.map_regs(&mut |r| remap[r as usize]);
    }
    let freed = vt.nregs - next;
    vt.nregs = next;
    freed as u64
}

/// Last-use linear-scan register reallocation: a register whose final
/// textual use has passed is recycled for later definitions.
///
/// Positional liveness is sound because tape jumps only go forward — a
/// value cannot be needed at a position after its last textual use — and
/// registers carry no state between tape executions (fused tapes already
/// share one scratch file across blocks). `Select` ranges are pinned to
/// dedicated ascending indices so they stay consecutive. This is what
/// actually relieves the physical `u16` register budget: `rename` can
/// inflate a fused tape to tens of thousands of live virtual registers,
/// and the scan folds them back down to the peak-liveness width (also
/// shrinking the executor's working set).
fn realloc(vt: &mut VTape) -> u64 {
    let n = vt.nregs as usize;
    if n == 0 {
        return 0;
    }
    let mut last = vec![usize::MAX; n];
    let mut pinned = vec![false; n];
    for (i, op) in vt.ops.iter().enumerate() {
        if let Some(d) = def_of(op) {
            last[d as usize] = i;
        }
        for_each_use(op, |r| last[r as usize] = i);
        if let Op::Select { base, n: k, .. } = *op {
            for j in 0..k as VReg {
                pinned[(base + j) as usize] = true;
            }
        }
    }
    // Prelude constants live for the whole buffer lifetime (they are
    // written once, at init), so their registers must never be recycled
    // by body defs. Pinning gives them stable numbers and keeps them off
    // the free list.
    for op in &vt.ops[..vt.prelude as usize] {
        if let Some(d) = def_of(op) {
            pinned[d as usize] = true;
        }
    }
    let mut map: Vec<VReg> = vec![VReg::MAX; n];
    let mut next: VReg = 0;
    // Pinned registers first, in ascending order: consecutive originals
    // (every `Select` range) stay consecutive.
    for (r, &p) in pinned.iter().enumerate() {
        if p {
            map[r] = next;
            next += 1;
        }
    }
    let mut free: Vec<VReg> = Vec::new();
    let mut freed = vec![false; n];
    let mut reused = 0u64;
    let mut uses: Vec<VReg> = Vec::new();
    for i in 0..vt.ops.len() {
        let op = &mut vt.ops[i];
        let old_def = def_of(op);
        uses.clear();
        for_each_use(op, |r| uses.push(r));
        rewrite_uses(op, &mut |r| {
            // Defs dominate uses in compiled tapes; an unseen use keeps a
            // fresh register (preserving its zero-initialized read).
            if map[r as usize] == VReg::MAX {
                map[r as usize] = next;
                next += 1;
            }
            map[r as usize]
        });
        if let Op::Select { base, .. } = op {
            *base = map[*base as usize];
        }
        // Registers whose last textual use is this op die here; their
        // physical register is immediately reusable (the executor reads
        // all operands before writing the destination).
        for &r in &uses {
            let r = r as usize;
            if last[r] == i && !pinned[r] && !freed[r] && map[r] != VReg::MAX {
                freed[r] = true;
                free.push(map[r]);
            }
        }
        if let Some(d) = old_def {
            let d = d as usize;
            if !pinned[d] {
                map[d] = match free.pop() {
                    Some(p) => {
                        reused += 1;
                        p
                    }
                    None => {
                        let p = next;
                        next += 1;
                        p
                    }
                };
            }
            set_def(op, map[d]);
            if last[d] == i && !pinned[d] && !freed[d] {
                // Dead store of a pure op (DCE leftovers): recycle at once.
                freed[d] = true;
                free.push(map[d]);
            }
        }
    }
    vt.nregs = next;
    reused
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tape::{narrow, validate, ExecTape, Regs};

    fn opt(mut vt: VTape, widths: &[u32]) -> (VTape, OptReport) {
        let mut rep = OptReport::new();
        optimize(&mut vt, widths, &[], &mut rep);
        (vt, rep)
    }

    /// Narrows a tape whose slots are all `width` bits wide.
    fn exec_tape(vt: &VTape, nslots: usize, width: u32) -> ExecTape {
        let t = narrow(vt, &vec![width; nslots], &[], || "test tape".into());
        validate(&t, nslots, 0);
        t
    }

    /// Runs a tape over fresh state and returns `cur`: once narrowed
    /// against 128-bit slots and once against 64-bit slots (on `u64`
    /// registers wherever the width proof holds), which must agree.
    fn run(vt: &VTape, nslots: usize, init: &[(usize, u128)]) -> Vec<u128> {
        let runs: Vec<Vec<u128>> = [128, 64]
            .into_iter()
            .map(|width| {
                let t = exec_tape(vt, nslots, width);
                let mut cur = vec![0u128; nslots];
                for &(s, v) in init {
                    cur[s] = v;
                }
                let mut next = vec![0u128; nslots];
                let mems: Vec<Vec<u128>> = Vec::new();
                let (mut pending, mut changed) = (Vec::new(), Vec::new());
                let mut regs = Regs::default();
                t.run::<false>(&mut regs, &mut cur, &mut next, &mems, &mut pending, &mut changed);
                cur
            })
            .collect();
        assert_eq!(runs[0], runs[1], "u128 and u64 executions differ");
        runs[0].clone()
    }

    fn vt(ops: Vec<Op<VReg>>, nregs: u32) -> VTape {
        VTape { ops, nregs, prelude: 0 }
    }

    #[test]
    fn duplicate_reads_collapse_and_constants_fold() {
        // r0 = read s0; r1 = read s0; r2 = 3; r3 = 4; r4 = r2+r3;
        // r5 = r0 + r1 (== 2*read); write s1 = r4 + r5... exercise cse+fold.
        let m = mask_of(8);
        let ops = vec![
            Op::Read { dst: 0, slot: 0 },
            Op::Read { dst: 1, slot: 0 },
            Op::Const { dst: 2, val: 3 },
            Op::Const { dst: 3, val: 4 },
            Op::Add { dst: 4, a: 2, b: 3, mask: m },
            Op::Add { dst: 5, a: 0, b: 1, mask: m },
            Op::Add { dst: 6, a: 4, b: 5, mask: m },
            Op::Write { slot: 1, src: 6 },
        ];
        let before = run(&vt(ops.clone(), 7), 2, &[(0, 5)]);
        let (o, rep) = opt(vt(ops, 7), &[8, 8]);
        let after = run(&o, 2, &[(0, 5)]);
        assert_eq!(before, after);
        assert_eq!(before[1], (3 + 4 + 5 + 5) & m);
        // One read survives; the const-add folded away.
        let reads = o.ops.iter().filter(|o| matches!(o, Op::Read { .. })).count();
        assert_eq!(reads, 1, "{:?}", o.ops);
        assert!(o.ops.len() <= 5, "{:?}", o.ops);
        assert!(rep.ops_after < rep.ops_before);
        assert!(rep.regs_after < rep.regs_before);
    }

    #[test]
    fn store_to_load_forwarding() {
        // write s1 = r0; r1 = read s1 (forwards to r0); then a write
        // pair on s2 whose second store settles.
        let m = mask_of(8);
        let ops = vec![
            Op::Read { dst: 0, slot: 0 },
            Op::Write { slot: 1, src: 0 },
            Op::Read { dst: 1, slot: 1 },
            Op::Const { dst: 2, val: 1 },
            Op::Add { dst: 3, a: 1, b: 2, mask: m },
            Op::Write { slot: 2, src: 3 },
            Op::Write { slot: 2, src: 0 },
        ];
        let before = run(&vt(ops.clone(), 4), 3, &[(0, 9)]);
        let (o, _) = opt(vt(ops, 4), &[8, 8, 8]);
        let after = run(&o, 3, &[(0, 9)]);
        assert_eq!(before, after);
        assert_eq!(after[1], 9);
        assert_eq!(after[2], 9);
        // The second read forwarded.
        let reads = o.ops.iter().filter(|o| matches!(o, Op::Read { .. })).count();
        assert_eq!(reads, 1, "{:?}", o.ops);
    }

    #[test]
    fn constant_condition_collapses_jumps_and_muxes() {
        // if (1) s1 = s0 else s1 = 0  — lowered as Jz over a const cond,
        // plus a Mux with const cond.
        let ops = vec![
            Op::Const { dst: 0, val: 1 },
            Op::Jz { cond: 0, target: 4 },
            Op::Read { dst: 1, slot: 0 },
            Op::Write { slot: 1, src: 1 },
            Op::Read { dst: 2, slot: 0 },
            Op::Const { dst: 3, val: 0 },
            Op::Mux { dst: 4, cond: 0, t: 2, f: 3 },
            Op::Write { slot: 2, src: 4 },
        ];
        let before = run(&vt(ops.clone(), 5), 3, &[(0, 7)]);
        let (o, _) = opt(vt(ops, 5), &[8, 8, 8]);
        assert_eq!(before, run(&o, 3, &[(0, 7)]));
        assert!(!o.ops.iter().any(|o| matches!(o, Op::Jz { .. } | Op::Mux { .. })), "{:?}", o.ops);
    }

    #[test]
    fn width_narrowing_removes_covering_masks() {
        // s0 is 4 bits wide: slicing [0,8) of it and sign-handling with a
        // clear sign bit are identities.
        let ops = vec![
            Op::Read { dst: 0, slot: 0 },
            Op::Slice { dst: 1, a: 0, lo: 0, mask: mask_of(8) },
            Op::Sext { dst: 2, a: 1, from: 8, to: 16 },
            Op::Write { slot: 1, src: 2 },
        ];
        let before = run(&vt(ops.clone(), 3), 2, &[(0, 0xF)]);
        let (o, _) = opt(vt(ops, 3), &[4, 16]);
        assert_eq!(before, run(&o, 2, &[(0, 0xF)]));
        assert_eq!(o.ops.len(), 2, "read+write only: {:?}", o.ops);
    }

    #[test]
    fn select_ranges_stay_consecutive_through_compaction() {
        // Leave a gap in the register numbering (dead r1) and check the
        // Select range survives renumbering with executable semantics.
        let ops = vec![
            Op::Read { dst: 0, slot: 0 },
            Op::Const { dst: 1, val: 99 }, // dead
            Op::Read { dst: 2, slot: 1 },
            Op::Const { dst: 3, val: 10 },
            Op::Const { dst: 4, val: 20 },
            Op::Copy { dst: 5, a: 3 },
            Op::Copy { dst: 6, a: 4 },
            Op::Copy { dst: 7, a: 2 },
            Op::Select { dst: 8, sel: 0, base: 5, n: 3 },
            Op::Write { slot: 2, src: 8 },
        ];
        for sel in [0u128, 1, 2, 7] {
            let before = run(&vt(ops.clone(), 9), 3, &[(0, sel), (1, 42)]);
            let (o, _) = opt(vt(ops.clone(), 9), &[4, 8, 8]);
            assert_eq!(before, run(&o, 3, &[(0, sel), (1, 42)]), "sel={sel}");
            assert!(o.nregs < 9, "dead register reclaimed: {:?}", o.ops);
        }
    }

    #[test]
    fn optimizer_is_deterministic() {
        let m = mask_of(8);
        let ops: Vec<Op<VReg>> = (0..40)
            .flat_map(|i| {
                vec![
                    Op::Read { dst: 3 * i, slot: i % 4 },
                    Op::Const { dst: 3 * i + 1, val: (i as u128) & m },
                    Op::Add { dst: 3 * i + 2, a: 3 * i, b: 3 * i + 1, mask: m },
                    Op::Write { slot: 4 + i % 3, src: 3 * i + 2 },
                ]
            })
            .collect();
        let widths = vec![8u32; 7];
        let (a, _) = opt(vt(ops.clone(), 120), &widths);
        let (b, _) = opt(vt(ops, 120), &widths);
        assert_eq!(format!("{:?}", a.ops), format!("{:?}", b.ops));
        assert_eq!(a.nregs, b.nregs);
    }

    /// Merging a one-tape report `n` times must equal optimizing `n`
    /// tapes into one report, op mix included (the body cache relies on
    /// it to keep engine reports exact).
    #[test]
    fn scaled_merge_equals_repeated_optimization() {
        let m = mask_of(8);
        let tapes = [
            vec![
                Op::Read { dst: 0, slot: 0 },
                Op::Read { dst: 1, slot: 0 },
                Op::Add { dst: 2, a: 0, b: 1, mask: m },
                Op::Write { slot: 1, src: 2 },
            ],
            vec![Op::Const { dst: 0, val: 3 }, Op::Write { slot: 1, src: 0 }],
        ];
        let widths = [8u32; 2];
        let mut direct = OptReport::new();
        let mut merged = OptReport::new();
        for (ops, times) in tapes.iter().zip([3, 2]) {
            let mut delta = OptReport::new();
            optimize(&mut vt(ops.clone(), 3), &widths, &[], &mut delta);
            merged.add_scaled(&delta, times);
            for _ in 0..times {
                optimize(&mut vt(ops.clone(), 3), &widths, &[], &mut direct);
            }
        }
        assert_eq!(merged, direct);
        assert_eq!(merged.tapes, 5);
    }

    /// A `Jz`-guarded `Write` + `WriteNext` region must convert to
    /// straight-line predicated code, and the predication must read the
    /// *real* shadow buffer: an untaken guard preserves whatever value
    /// `next` already held (which fault injection can desynchronize from
    /// `cur`), not a value reconstructed from `cur`.
    #[test]
    fn if_conversion_predicates_cur_and_next_writes() {
        let m = mask_of(8);
        // if (read s0) { write s1 = 5; write-next s2 = 9 }
        let ops = vec![
            Op::Read { dst: 0, slot: 0 },
            Op::Jz { cond: 0, target: 6 },
            Op::Const { dst: 1, val: 5 & m },
            Op::Write { slot: 1, src: 1 },
            Op::Const { dst: 2, val: 9 & m },
            Op::WriteNext { slot: 2, src: 2 },
        ];
        let (o, rep) = opt(vt(ops, 3), &[1, 8, 8]);
        assert!(rep.passes[P_IF_CONVERT].rewrites > 0, "if-convert did not fire");
        assert!(
            !o.ops
                .iter()
                .any(|op| matches!(op, Op::Jz { .. } | Op::Jmp { .. } | Op::JneConst { .. })),
            "jumps survived if-conversion: {:?}",
            o.ops
        );
        let t = exec_tape(&o, 3, 8);
        for taken in [false, true] {
            let mut regs = Regs::default();
            let mut cur = vec![u128::from(taken), 0, 0];
            // Pre-set next[2] to a value cur cannot explain: the untaken
            // path must keep it.
            let mut next = vec![0u128, 0, 7];
            let mems: Vec<Vec<u128>> = Vec::new();
            let (mut pending, mut changed) = (Vec::new(), Vec::new());
            t.run::<false>(&mut regs, &mut cur, &mut next, &mems, &mut pending, &mut changed);
            if taken {
                assert_eq!((cur[1], next[2]), (5, 9));
            } else {
                assert_eq!((cur[1], next[2]), (0, 7));
            }
        }
    }

    /// A raw emission that overflows the physical `u16` register budget
    /// must fit after optimization: the chain is fully live (nothing for
    /// DCE), so only `realloc`'s lifetime-based register reuse saves it.
    #[test]
    fn optimizer_relieves_register_budget() {
        let m = mask_of(8);
        let n: VReg = crate::tape::REG_BUDGET + 4000;
        let mut ops = vec![Op::Read { dst: 0, slot: 0 }];
        for i in 0..n {
            ops.push(Op::Add { dst: i + 1, a: i, b: i, mask: m });
        }
        ops.push(Op::Write { slot: 1, src: n });
        let raw = vt(ops, n + 1);
        assert!(raw.nregs > crate::tape::REG_BUDGET, "test must start over budget");
        let (o, _) = opt(raw, &[8, 8]);
        assert!(
            o.nregs <= crate::tape::REG_BUDGET,
            "optimizer failed to relieve the register budget: {} regs",
            o.nregs
        );
        // And the narrowed tape still computes the right value:
        // ((1*2)*2...)*2 over the live chain, mod 256.
        let cur = run(&o, 2, &[(0, 1)]);
        let expect = (0..n).fold(1u128, |v, _| (v << 1) & m);
        assert_eq!(cur[1], expect);
    }
    /// One-hot mux chains fuse pairwise into `Mux2` and keep their
    /// priority semantics (the later mux in the chain wins).
    #[test]
    fn mux_chains_fuse_into_mux2() {
        // sel bits from slots 0..2 pick between inputs in slots 3..5 with
        // slot 3 as the default: the classic crossbar chain.
        let ops = vec![
            Op::Read { dst: 0, slot: 0 },
            Op::Read { dst: 1, slot: 1 },
            Op::Read { dst: 2, slot: 2 },
            Op::Read { dst: 3, slot: 3 },
            Op::Read { dst: 4, slot: 4 },
            Op::Read { dst: 5, slot: 5 },
            Op::Mux { dst: 6, cond: 0, t: 4, f: 3 },
            Op::Mux { dst: 7, cond: 1, t: 5, f: 6 },
            Op::Mux { dst: 8, cond: 2, t: 3, f: 7 },
            Op::Write { slot: 6, src: 8 },
        ];
        let widths = [1, 1, 1, 8, 8, 8, 8];
        let cases: Vec<Vec<(usize, u128)>> = (0u32..8)
            .map(|bits| {
                vec![
                    (0, u128::from(bits & 1)),
                    (1, u128::from((bits >> 1) & 1)),
                    (2, u128::from((bits >> 2) & 1)),
                    (3, 0x11),
                    (4, 0x22),
                    (5, 0x33),
                ]
            })
            .collect();
        let before: Vec<_> = cases.iter().map(|c| run(&vt(ops.clone(), 9), 7, c)).collect();
        let (o, rep) = opt(vt(ops, 9), &widths);
        assert!(rep.passes[P_MUX_FUSE].rewrites > 0, "mux-fuse did not fire: {:?}", o.ops);
        assert!(
            o.ops.iter().any(|op| matches!(op, Op::Mux2 { .. })),
            "no Mux2 in output: {:?}",
            o.ops
        );
        for (c, want) in cases.iter().zip(&before) {
            assert_eq!(&run(&o, 7, c), want);
        }
    }

    /// Constants hoist into a prelude whose registers survive body
    /// execution, so `ExecTape::bank` + N x `ExecTape::run_body` over one
    /// persistent bank matches N full executions.
    #[test]
    fn const_hoist_prelude_is_cycle_invariant() {
        let m = mask_of(8);
        let ops = vec![
            Op::Read { dst: 0, slot: 0 },
            Op::Const { dst: 1, val: 7 },
            Op::Add { dst: 2, a: 0, b: 1, mask: m },
            Op::Write { slot: 1, src: 2 },
        ];
        let (o, rep) = opt(vt(ops, 3), &[8, 8]);
        assert!(rep.passes[P_HOIST].rewrites > 0, "hoist did not fire: {:?}", o.ops);
        assert!(o.prelude > 0, "no prelude recorded");
        let t = exec_tape(&o, 2, 8);
        assert!(!t.is_wide(), "8-bit tape left on u128");
        let mut regs = t.bank();
        let mems: Vec<Vec<u128>> = Vec::new();
        let (mut pending, mut changed) = (Vec::new(), Vec::new());
        let mut next = vec![0u128; 2];
        for x in [0u128, 5, 200] {
            let mut cur = vec![x, 0];
            t.run_body(&mut regs, &mut cur, &mut next, &mems, &mut pending, &mut changed);
            assert_eq!(cur[1], (x + 7) & m, "body run with x={x}");
        }
    }
}
