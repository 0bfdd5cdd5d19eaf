//! The tape compiler: lowers IR blocks to a linear bytecode executed by a
//! straight-line VM over packed `u128` slots.
//!
//! This is the heart of the SimJIT substitution (see `DESIGN.md`): where
//! PyMTL's SimJIT generates and compiles C++, RustMTL's specializing
//! engines lower each IR block to a flat three-address tape with
//! pre-resolved net slots, precomputed masks, and constant-folded operands.

use std::collections::hash_map::{Entry, HashMap};
use std::time::{Duration, Instant};

use mtl_core::ir::{BinOp, Expr, Stmt, UnaryOp};
use mtl_core::{BlockBody, BlockId, BlockKind, Design, MemId, SignalId};

use crate::overheads::Overheads;
use crate::passes::{optimize, FxBuild, OptReport};

/// A physical register index within an executable tape. Kept at 16 bits so
/// every hot [`Op`] variant packs into 32 bytes.
pub(crate) type Reg = u16;

/// A virtual register index used during compilation and optimization.
/// Emission allocates freely in this space; the optimizer's register
/// compaction pass renumbers the live survivors, and [`narrow`] checks the
/// result against the physical [`Reg`] budget.
pub(crate) type VReg = u32;

/// One tape instruction, generic over the register index type: `Op<Reg>`
/// (the default) is what the executor runs, `Op<VReg>` is what the
/// compiler emits and the optimizer transforms. `mask` fields are
/// precomputed width masks.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) enum Op<R = Reg> {
    Const {
        dst: R,
        val: u128,
    },
    Read {
        dst: R,
        slot: u32,
    },
    Copy {
        dst: R,
        a: R,
    },
    Add {
        dst: R,
        a: R,
        b: R,
        mask: u128,
    },
    Sub {
        dst: R,
        a: R,
        b: R,
        mask: u128,
    },
    Mul {
        dst: R,
        a: R,
        b: R,
        mask: u128,
    },
    And {
        dst: R,
        a: R,
        b: R,
    },
    Or {
        dst: R,
        a: R,
        b: R,
    },
    Xor {
        dst: R,
        a: R,
        b: R,
    },
    Not {
        dst: R,
        a: R,
        mask: u128,
    },
    Neg {
        dst: R,
        a: R,
        mask: u128,
    },
    Shl {
        dst: R,
        a: R,
        b: R,
        width: u32,
        mask: u128,
    },
    Shr {
        dst: R,
        a: R,
        b: R,
        width: u32,
    },
    Sra {
        dst: R,
        a: R,
        b: R,
        width: u32,
        mask: u128,
        ext: u32,
    },
    Eq {
        dst: R,
        a: R,
        b: R,
    },
    Ne {
        dst: R,
        a: R,
        b: R,
    },
    Lt {
        dst: R,
        a: R,
        b: R,
    },
    Ge {
        dst: R,
        a: R,
        b: R,
    },
    LtS {
        dst: R,
        a: R,
        b: R,
        ext: u32,
    },
    GeS {
        dst: R,
        a: R,
        b: R,
        ext: u32,
    },
    RedAnd {
        dst: R,
        a: R,
        mask: u128,
    },
    RedOr {
        dst: R,
        a: R,
    },
    RedXor {
        dst: R,
        a: R,
    },
    Slice {
        dst: R,
        a: R,
        lo: u32,
        mask: u128,
    },
    /// `dst = (a << shift) | b` — concatenation folding.
    ShlOr {
        dst: R,
        a: R,
        b: R,
        shift: u32,
    },
    Mux {
        dst: R,
        cond: R,
        t: R,
        f: R,
    },
    /// Two fused muxes: `dst = c1 ? t1 : (c2 ? t2 : f)`. Produced only by
    /// the optimizer's mux-fuse pass from single-use [`Op::Mux`] chains
    /// (the one-hot crossbar idiom), halving dispatches on the hottest
    /// op kind.
    Mux2 {
        dst: R,
        c1: R,
        t1: R,
        c2: R,
        t2: R,
        f: R,
    },
    /// `dst = regs[base + min(sel, n-1)]`; options live in consecutive regs.
    Select {
        dst: R,
        sel: R,
        base: R,
        n: u16,
    },
    Sext {
        dst: R,
        a: R,
        sign_bit: u128,
        ext_or: u128,
    },
    Write {
        slot: u32,
        src: R,
    },
    WriteMasked {
        slot: u32,
        src: R,
        lo: u32,
        field: u128,
    },
    WriteNext {
        slot: u32,
        src: R,
    },
    WriteNextMasked {
        slot: u32,
        src: R,
        lo: u32,
        field: u128,
    },
    /// Predicated full write: stores `src` to `cur[slot]` when
    /// `(cond != 0) != neg`, otherwise leaves the slot untouched. Never
    /// emitted by the compiler — the optimizer's if-conversion lowers a
    /// small `Jz`-guarded `Write` to this (one branchless op instead of
    /// a read-old/mux/write-back triple). Event semantics match the
    /// branchy original exactly: an untaken predicate stores nothing, a
    /// taken one goes through the normal tracked-write path.
    WriteIf {
        slot: u32,
        cond: R,
        src: R,
        neg: bool,
    },
    /// Predicated [`Op::WriteNext`]. Leaving the *shadow* buffer
    /// untouched on the untaken path (rather than writing back a value
    /// reconstructed from `cur`) keeps predication exact under fault
    /// injection, where `force` can desynchronize `cur` from `next`.
    WriteNextIf {
        slot: u32,
        cond: R,
        src: R,
        neg: bool,
    },
    MemRead {
        dst: R,
        mem: u32,
        addr: R,
        words: u64,
    },
    MemWrite {
        mem: u32,
        addr: R,
        data: R,
        words: u64,
    },
    /// Predicated [`Op::MemWrite`]: pushes the deferred write only when
    /// `(cond != 0) != neg`. Optimizer-only, like the other predicated
    /// stores — exact by construction, since an untaken guard enqueues
    /// nothing on the `pending` list.
    MemWriteIf {
        mem: u32,
        addr: R,
        data: R,
        cond: R,
        words: u64,
        neg: bool,
    },
    Jz {
        cond: R,
        target: u32,
    },
    JneConst {
        a: R,
        k: u128,
        target: u32,
    },
    Jmp {
        target: u32,
    },
}

impl<R: Copy> Op<R> {
    /// Rebuilds the op with every register index passed through `f`
    /// (widening, narrowing, and compaction renumbering all route here).
    pub(crate) fn map_regs<S: Copy>(&self, f: &mut impl FnMut(R) -> S) -> Op<S> {
        match *self {
            Op::Const { dst, val } => Op::Const { dst: f(dst), val },
            Op::Read { dst, slot } => Op::Read { dst: f(dst), slot },
            Op::Copy { dst, a } => Op::Copy { dst: f(dst), a: f(a) },
            Op::Add { dst, a, b, mask } => Op::Add { dst: f(dst), a: f(a), b: f(b), mask },
            Op::Sub { dst, a, b, mask } => Op::Sub { dst: f(dst), a: f(a), b: f(b), mask },
            Op::Mul { dst, a, b, mask } => Op::Mul { dst: f(dst), a: f(a), b: f(b), mask },
            Op::And { dst, a, b } => Op::And { dst: f(dst), a: f(a), b: f(b) },
            Op::Or { dst, a, b } => Op::Or { dst: f(dst), a: f(a), b: f(b) },
            Op::Xor { dst, a, b } => Op::Xor { dst: f(dst), a: f(a), b: f(b) },
            Op::Not { dst, a, mask } => Op::Not { dst: f(dst), a: f(a), mask },
            Op::Neg { dst, a, mask } => Op::Neg { dst: f(dst), a: f(a), mask },
            Op::Shl { dst, a, b, width, mask } => {
                Op::Shl { dst: f(dst), a: f(a), b: f(b), width, mask }
            }
            Op::Shr { dst, a, b, width } => Op::Shr { dst: f(dst), a: f(a), b: f(b), width },
            Op::Sra { dst, a, b, width, mask, ext } => {
                Op::Sra { dst: f(dst), a: f(a), b: f(b), width, mask, ext }
            }
            Op::Eq { dst, a, b } => Op::Eq { dst: f(dst), a: f(a), b: f(b) },
            Op::Ne { dst, a, b } => Op::Ne { dst: f(dst), a: f(a), b: f(b) },
            Op::Lt { dst, a, b } => Op::Lt { dst: f(dst), a: f(a), b: f(b) },
            Op::Ge { dst, a, b } => Op::Ge { dst: f(dst), a: f(a), b: f(b) },
            Op::LtS { dst, a, b, ext } => Op::LtS { dst: f(dst), a: f(a), b: f(b), ext },
            Op::GeS { dst, a, b, ext } => Op::GeS { dst: f(dst), a: f(a), b: f(b), ext },
            Op::RedAnd { dst, a, mask } => Op::RedAnd { dst: f(dst), a: f(a), mask },
            Op::RedOr { dst, a } => Op::RedOr { dst: f(dst), a: f(a) },
            Op::RedXor { dst, a } => Op::RedXor { dst: f(dst), a: f(a) },
            Op::Slice { dst, a, lo, mask } => Op::Slice { dst: f(dst), a: f(a), lo, mask },
            Op::ShlOr { dst, a, b, shift } => Op::ShlOr { dst: f(dst), a: f(a), b: f(b), shift },
            Op::Mux { dst, cond, t, f: fr } => {
                Op::Mux { dst: f(dst), cond: f(cond), t: f(t), f: f(fr) }
            }
            Op::Mux2 { dst, c1, t1, c2, t2, f: fr } => {
                Op::Mux2 { dst: f(dst), c1: f(c1), t1: f(t1), c2: f(c2), t2: f(t2), f: f(fr) }
            }
            Op::Select { dst, sel, base, n } => {
                Op::Select { dst: f(dst), sel: f(sel), base: f(base), n }
            }
            Op::Sext { dst, a, sign_bit, ext_or } => {
                Op::Sext { dst: f(dst), a: f(a), sign_bit, ext_or }
            }
            Op::Write { slot, src } => Op::Write { slot, src: f(src) },
            Op::WriteMasked { slot, src, lo, field } => {
                Op::WriteMasked { slot, src: f(src), lo, field }
            }
            Op::WriteNext { slot, src } => Op::WriteNext { slot, src: f(src) },
            Op::WriteNextMasked { slot, src, lo, field } => {
                Op::WriteNextMasked { slot, src: f(src), lo, field }
            }
            Op::WriteIf { slot, cond, src, neg } => {
                Op::WriteIf { slot, cond: f(cond), src: f(src), neg }
            }
            Op::WriteNextIf { slot, cond, src, neg } => {
                Op::WriteNextIf { slot, cond: f(cond), src: f(src), neg }
            }
            Op::MemRead { dst, mem, addr, words } => {
                Op::MemRead { dst: f(dst), mem, addr: f(addr), words }
            }
            Op::MemWrite { mem, addr, data, words } => {
                Op::MemWrite { mem, addr: f(addr), data: f(data), words }
            }
            Op::MemWriteIf { mem, addr, data, cond, words, neg } => {
                Op::MemWriteIf { mem, addr: f(addr), data: f(data), cond: f(cond), words, neg }
            }
            Op::Jz { cond, target } => Op::Jz { cond: f(cond), target },
            Op::JneConst { a, k, target } => Op::JneConst { a: f(a), k, target },
            Op::Jmp { target } => Op::Jmp { target },
        }
    }

    /// The net slot the op reads or writes, if any.
    fn slot_mut(&mut self) -> Option<&mut u32> {
        match self {
            Op::Read { slot, .. }
            | Op::Write { slot, .. }
            | Op::WriteMasked { slot, .. }
            | Op::WriteNext { slot, .. }
            | Op::WriteNextMasked { slot, .. }
            | Op::WriteIf { slot, .. }
            | Op::WriteNextIf { slot, .. } => Some(slot),
            _ => None,
        }
    }

    /// The memory the op reads or writes, if any.
    fn mem_mut(&mut self) -> Option<&mut u32> {
        match self {
            Op::MemRead { mem, .. } | Op::MemWrite { mem, .. } | Op::MemWriteIf { mem, .. } => {
                Some(mem)
            }
            _ => None,
        }
    }
}

/// A compiled update block in executable (physical-register) form.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct Tape {
    pub ops: Vec<Op>,
    /// Register file size. `u32` (not [`Reg`]) so the full 65536-register
    /// budget is expressible.
    pub nregs: u32,
    /// Length of the cycle-invariant prefix: `ops[..prelude]` are all
    /// `Const` ops into registers no body op ever writes (the optimizer's
    /// const-hoist pass, which only fires on jump-free tapes). An engine
    /// that keeps a persistent register buffer per tape may run the
    /// prelude once ([`exec_prelude`]) and then execute only
    /// `ops[prelude..]` each cycle ([`exec_tape_body`]); executing the
    /// whole tape from op 0 with scratch registers is equally correct.
    pub prelude: u32,
}

/// A compiled update block in virtual-register form: what [`compile_block`]
/// emits and what `crate::passes` optimizes. Register indices are unbounded
/// here; [`narrow`] enforces the physical budget after compaction.
#[derive(Debug, Clone, Default)]
pub(crate) struct VTape {
    pub ops: Vec<Op<VReg>>,
    pub nregs: u32,
    /// See [`Tape::prelude`]; set by the const-hoist pass.
    pub prelude: u32,
}

/// The physical register budget of an executable tape ([`Reg`] is `u16`).
pub(crate) const REG_BUDGET: u32 = 1 << 16;

/// Narrows a virtual tape to executable form, enforcing the physical
/// register budget. `context` names the tape (hierarchical block path and
/// kind) for the panic message.
///
/// # Panics
///
/// Panics if the tape needs more than [`REG_BUDGET`] registers.
pub(crate) fn narrow(vt: &VTape, context: impl Fn() -> String) -> Tape {
    assert!(
        vt.nregs <= REG_BUDGET,
        "tape register budget ({REG_BUDGET}) exceeded in {}: {} registers required; \
         split the block into smaller update blocks",
        context(),
        vt.nregs,
    );
    let ops = vt.ops.iter().map(|op| op.map_regs(&mut |r| r as Reg)).collect();
    Tape { ops, nregs: vt.nregs, prelude: vt.prelude }
}

/// Widens an executable tape back to virtual-register form (used to
/// re-optimize fused tapes, where cross-block redundancy appears).
pub(crate) fn widen(t: &Tape) -> VTape {
    VTape {
        ops: t.ops.iter().map(|op| op.map_regs(&mut |r| r as VReg)).collect(),
        nregs: t.nregs,
        prelude: t.prelude,
    }
}

pub(crate) fn mask_of(width: u32) -> u128 {
    if width >= 128 {
        u128::MAX
    } else {
        (1u128 << width) - 1
    }
}

/// Compiles the statements of one IR block into a virtual-register tape.
///
/// `slot_of` maps a signal to its packed state slot (its net index).
/// Emission allocates virtual registers without a budget; the physical
/// budget is enforced by [`narrow`] — after optimization and register
/// compaction when the optimizer is on, on the raw emission otherwise.
pub(crate) fn compile_block(design: &Design, stmts: &[Stmt], kind: BlockKind) -> VTape {
    let mut c = Compiler { design, ops: Vec::new(), next_reg: 0, seq: kind == BlockKind::Seq };
    for s in stmts {
        c.emit_stmt(s);
    }
    VTape { ops: c.ops, nregs: c.next_reg, prelude: 0 }
}

/// A block body with its slot binding factored out: the tape with every
/// net slot replaced by its rank among the block's distinct slots (and
/// every memory likewise), plus the widths of the ranked nets and
/// memories — everything the optimizer and `narrow` can observe. Two
/// blocks with equal keys optimize to the same canonical tape.
#[derive(PartialEq, Eq, Hash)]
struct BodyKey {
    kind: BlockKind,
    nregs: u32,
    ops: Vec<Op<VReg>>,
    widths: Vec<u32>,
    mem_widths: Vec<u32>,
}

/// One distinct body's compiled result, shared by every instance.
struct Body {
    /// The narrowed tape over ranked slots and memories.
    tape: Tape,
    /// What optimizing the body added to the report (`None` with the
    /// optimizer off).
    delta: Option<OptReport>,
    /// How many blocks share this body.
    instances: u64,
}

/// Rewrites a tape's slots and memories to their ranks, returning the
/// sorted distinct slots and memories (rank `r` stands for `slots[r]`).
/// Ranking is monotone, so slot order within the block is preserved.
fn canonicalize(ops: &mut [Op<VReg>]) -> (Vec<u32>, Vec<u32>) {
    let mut slots = Vec::new();
    let mut mems = Vec::new();
    for op in ops.iter_mut() {
        slots.extend(op.slot_mut().map(|s| *s));
        mems.extend(op.mem_mut().map(|m| *m));
    }
    slots.sort_unstable();
    slots.dedup();
    mems.sort_unstable();
    mems.dedup();
    let rank = |sorted: &[u32], x: u32| sorted.binary_search(&x).expect("collected above") as u32;
    for op in ops.iter_mut() {
        if let Some(s) = op.slot_mut() {
            *s = rank(&slots, *s);
        }
        if let Some(m) = op.mem_mut() {
            *m = rank(&mems, *m);
        }
    }
    (slots, mems)
}

fn block_context(design: &Design, i: usize) -> String {
    let kind = match design.blocks()[i].kind {
        BlockKind::Comb => "comb",
        BlockKind::Seq => "seq",
    };
    format!("{kind} block `{}`", design.block_path(BlockId::from_index(i)))
}

/// Compiles every block of `design` to an executable tape (native blocks
/// get an empty one), running the optimizer per block when `report` is
/// given. This is the per-block pipeline of the tape engines.
///
/// Each distinct block body is optimized and narrowed **once**. A block's
/// raw tape is put in canonical form ([`canonicalize`]) and keyed with
/// the widths of the nets and memories it touches; the optimizer reads
/// slots only through those widths and compares them only for equality,
/// so every block with an equal key optimizes to the same canonical
/// tape. Each instance gets that tape with its ranks mapped back to its
/// own slots and memories, and is validated on its own. The report
/// counts every instance exactly as separate optimization would, plus
/// [`OptReport::bodies`]. A register-budget panic names the first block
/// (in block order) with the offending body.
///
/// Charges constant folding and optimization to `o.comp`, everything
/// else (emission, canonicalization, narrowing, stamping, validation) to
/// `o.cgen`.
pub(crate) fn compile_blocks(
    design: &Design,
    widths: &[u32],
    mem_widths: &[u32],
    report: Option<&mut OptReport>,
    o: &mut Overheads,
) -> Vec<Tape> {
    let t0 = Instant::now();
    let folded: Vec<Option<Vec<Stmt>>> = design
        .blocks()
        .iter()
        .map(|b| match &b.body {
            BlockBody::Ir(stmts) => Some(fold_stmts(stmts)),
            _ => None,
        })
        .collect();
    o.comp += t0.elapsed();

    let t0 = Instant::now();
    let mut opt_time = Duration::ZERO;
    let mut bodies: HashMap<BodyKey, Body, FxBuild> = HashMap::default();
    let mut tapes = Vec::with_capacity(folded.len());
    for (i, (b, f)) in design.blocks().iter().zip(&folded).enumerate() {
        let Some(stmts) = f else {
            tapes.push(Tape::default());
            continue;
        };
        let mut vt = compile_block(design, stmts, b.kind);
        let (slots, mems) = canonicalize(&mut vt.ops);
        let key = BodyKey {
            kind: b.kind,
            nregs: vt.nregs,
            ops: vt.ops,
            widths: slots.iter().map(|&s| widths[s as usize]).collect(),
            mem_widths: mems.iter().map(|&m| mem_widths[m as usize]).collect(),
        };
        let body = match bodies.entry(key) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => {
                let key = e.key();
                let mut vt = VTape { ops: key.ops.clone(), nregs: key.nregs, prelude: 0 };
                let delta = report.is_some().then(|| {
                    let t = Instant::now();
                    let mut delta = OptReport { blocks: 1, ..OptReport::new() };
                    optimize(&mut vt, &key.widths, &key.mem_widths, &mut delta);
                    opt_time += t.elapsed();
                    delta
                });
                let tape = narrow(&vt, || block_context(design, i));
                e.insert(Body { tape, delta, instances: 0 })
            }
        };
        body.instances += 1;
        let mut tape = body.tape.clone();
        for op in &mut tape.ops {
            if let Some(s) = op.slot_mut() {
                *s = slots[*s as usize];
            }
            if let Some(m) = op.mem_mut() {
                *m = mems[*m as usize];
            }
        }
        // Range-check every stamped tape so the executors' unchecked
        // accesses are sound.
        validate(&tape, widths.len(), mem_widths.len());
        tapes.push(tape);
    }
    if let Some(rep) = report {
        rep.bodies += bodies.len() as u64;
        // Every merged quantity is a sum, so map order does not matter.
        for body in bodies.values() {
            if let Some(delta) = &body.delta {
                rep.add_scaled(delta, body.instances);
            }
        }
    }
    o.comp += opt_time;
    o.cgen += t0.elapsed() - opt_time;
    tapes
}

/// Per-block tapes and optimizer report for one design, as built by
/// [`block_tapes`] (the engines' pipeline) or [`reference_block_tapes`]
/// (no body sharing). Test support for the body-dedup oracle.
#[doc(hidden)]
#[derive(Debug)]
pub struct BlockTapes {
    tapes: Vec<Tape>,
    /// The optimizer report; `None` with the optimizer off.
    pub report: Option<OptReport>,
}

impl BlockTapes {
    /// `None` if both hold op-for-op identical tapes, else a description
    /// of the first difference.
    pub fn tape_mismatch(&self, other: &BlockTapes) -> Option<String> {
        if self.tapes.len() != other.tapes.len() {
            return Some(format!("{} tapes vs {}", self.tapes.len(), other.tapes.len()));
        }
        let i = self.tapes.iter().zip(&other.tapes).position(|(a, b)| a != b)?;
        Some(format!("block {i} differs:\n{:?}\nvs\n{:?}", self.tapes[i], other.tapes[i]))
    }
}

/// The block tapes the tape engines build for `design`
/// ([`compile_blocks`]), with the optimizer on or off.
#[doc(hidden)]
pub fn block_tapes(design: &Design, opt: bool) -> BlockTapes {
    let widths: Vec<u32> = design.nets().iter().map(|n| n.width).collect();
    let mem_widths: Vec<u32> = design.mems().iter().map(|m| m.width).collect();
    let mut report = opt.then(OptReport::new);
    let tapes =
        compile_blocks(design, &widths, &mem_widths, report.as_mut(), &mut Overheads::default());
    BlockTapes { tapes, report }
}

/// The reference for [`block_tapes`]: every block compiled, optimized
/// and narrowed on its own against the full design width tables, with no
/// canonical form and no sharing. Its report counts every IR block as a
/// body.
#[doc(hidden)]
pub fn reference_block_tapes(design: &Design, opt: bool) -> BlockTapes {
    let widths: Vec<u32> = design.nets().iter().map(|n| n.width).collect();
    let mem_widths: Vec<u32> = design.mems().iter().map(|m| m.width).collect();
    let mut report = opt.then(OptReport::new);
    let tapes = design
        .blocks()
        .iter()
        .enumerate()
        .map(|(i, b)| {
            let BlockBody::Ir(stmts) = &b.body else {
                return Tape::default();
            };
            let mut vt = compile_block(design, &fold_stmts(stmts), b.kind);
            if let Some(rep) = report.as_mut() {
                optimize(&mut vt, &widths, &mem_widths, rep);
                rep.blocks += 1;
                rep.bodies += 1;
            }
            let tape = narrow(&vt, || block_context(design, i));
            validate(&tape, widths.len(), mem_widths.len());
            tape
        })
        .collect();
    BlockTapes { tapes, report }
}

/// Validates that every register and memory index in a tape is in range;
/// called once at construction so the executor can use unchecked reads.
pub(crate) fn validate(tape: &Tape, nslots: usize, nmems: usize) {
    let n = tape.nregs as usize;
    let reg_ok = |r: Reg| (r as usize) < n;
    let pre = tape.prelude as usize;
    assert!(pre <= tape.ops.len(), "prelude {pre} exceeds tape length {}", tape.ops.len());
    if pre > 0 {
        // Body execution starts at `prelude`, so the tape must be
        // straight-line (no jump may target the prelude) and the prefix
        // must be pure constant loads.
        assert!(
            tape.ops[..pre].iter().all(|op| matches!(op, Op::Const { .. })),
            "prelude contains a non-const op"
        );
        assert!(
            !tape
                .ops
                .iter()
                .any(|op| { matches!(op, Op::Jz { .. } | Op::JneConst { .. } | Op::Jmp { .. }) }),
            "prelude on a tape with jumps"
        );
    }
    for op in &tape.ops {
        let ok = match op {
            Op::Const { dst, .. } => reg_ok(*dst),
            Op::Read { dst, slot } => reg_ok(*dst) && (*slot as usize) < nslots,
            Op::Copy { dst, a } => reg_ok(*dst) && reg_ok(*a),
            Op::Add { dst, a, b, .. }
            | Op::Sub { dst, a, b, .. }
            | Op::Mul { dst, a, b, .. }
            | Op::And { dst, a, b }
            | Op::Or { dst, a, b }
            | Op::Xor { dst, a, b }
            | Op::Shl { dst, a, b, .. }
            | Op::Shr { dst, a, b, .. }
            | Op::Sra { dst, a, b, .. }
            | Op::Eq { dst, a, b }
            | Op::Ne { dst, a, b }
            | Op::Lt { dst, a, b }
            | Op::Ge { dst, a, b }
            | Op::LtS { dst, a, b, .. }
            | Op::GeS { dst, a, b, .. }
            | Op::ShlOr { dst, a, b, .. } => reg_ok(*dst) && reg_ok(*a) && reg_ok(*b),
            Op::Not { dst, a, .. }
            | Op::Neg { dst, a, .. }
            | Op::RedAnd { dst, a, .. }
            | Op::RedOr { dst, a }
            | Op::RedXor { dst, a }
            | Op::Slice { dst, a, .. }
            | Op::Sext { dst, a, .. } => reg_ok(*dst) && reg_ok(*a),
            Op::Mux { dst, cond, t, f } => {
                reg_ok(*dst) && reg_ok(*cond) && reg_ok(*t) && reg_ok(*f)
            }
            Op::Mux2 { dst, c1, t1, c2, t2, f } => {
                reg_ok(*dst)
                    && reg_ok(*c1)
                    && reg_ok(*t1)
                    && reg_ok(*c2)
                    && reg_ok(*t2)
                    && reg_ok(*f)
            }
            Op::Select { dst, sel, base, n: k } => {
                reg_ok(*dst) && reg_ok(*sel) && *k >= 1 && (*base as usize + *k as usize) <= n
            }
            Op::Write { slot, src } | Op::WriteNext { slot, src } => {
                reg_ok(*src) && (*slot as usize) < nslots
            }
            Op::WriteMasked { slot, src, .. } | Op::WriteNextMasked { slot, src, .. } => {
                reg_ok(*src) && (*slot as usize) < nslots
            }
            Op::WriteIf { slot, cond, src, .. } | Op::WriteNextIf { slot, cond, src, .. } => {
                reg_ok(*cond) && reg_ok(*src) && (*slot as usize) < nslots
            }
            Op::MemRead { dst, mem, addr, words } => {
                reg_ok(*dst) && reg_ok(*addr) && (*mem as usize) < nmems && *words >= 1
            }
            Op::MemWrite { mem, addr, data, words } => {
                reg_ok(*addr) && reg_ok(*data) && (*mem as usize) < nmems && *words >= 1
            }
            Op::MemWriteIf { mem, addr, data, cond, words, .. } => {
                reg_ok(*addr)
                    && reg_ok(*data)
                    && reg_ok(*cond)
                    && (*mem as usize) < nmems
                    && *words >= 1
            }
            Op::Jz { cond, target } => reg_ok(*cond) && (*target as usize) <= tape.ops.len(),
            Op::JneConst { a, target, .. } => reg_ok(*a) && (*target as usize) <= tape.ops.len(),
            Op::Jmp { target } => (*target as usize) <= tape.ops.len(),
        };
        assert!(ok, "invalid tape op {op:?}");
    }
}

/// Constant-folds a statement list (the "comp" optimization phase, run
/// before [`compile_block`]).
pub(crate) fn fold_stmts(stmts: &[Stmt]) -> Vec<Stmt> {
    stmts.iter().map(fold_stmt).collect()
}

/// Fuses a run of tapes into one linear program (jump targets are
/// rebased; virtual registers can be reused across blocks because every
/// block defines its registers before use). This is how the fully
/// specialized engine eliminates per-block dispatch — the analog of
/// SimJIT compiling the whole model into one C++ translation unit.
pub(crate) fn fuse(tapes: &[&Tape]) -> Tape {
    let mut ops = Vec::with_capacity(tapes.iter().map(|t| t.ops.len()).sum());
    let mut nregs = 0u32;
    for t in tapes {
        let base = ops.len() as u32;
        nregs = nregs.max(t.nregs);
        for op in &t.ops {
            let mut op = op.clone();
            match &mut op {
                Op::Jz { target, .. } | Op::Jmp { target } | Op::JneConst { target, .. } => {
                    *target += base
                }
                _ => {}
            }
            ops.push(op);
        }
    }
    Tape { ops, nregs, prelude: 0 }
}

/// Constant-folds an expression: subtrees with no signal or memory reads
/// are evaluated at compile time (the "comp" optimization phase).
///
/// A single bottom-up pass: each node's constness is derived from its
/// children's, so the whole fold is O(n) in expression size (an earlier
/// version re-walked the entire subtree with `collect_reads` at every
/// recursion level, which was O(n²) on deep expressions).
pub(crate) fn fold_expr(e: &Expr) -> Expr {
    fold_expr_const(e).0
}

/// Folds one node bottom-up, returning the folded node and whether it is a
/// compile-time constant (no signal or memory reads anywhere below it).
fn fold_expr_const(e: &Expr) -> (Expr, bool) {
    // Evaluates a folded, all-constant node: its children are already
    // `Expr::Const`, so `eval` touches no signal or memory state.
    fn to_const(folded: Expr) -> (Expr, bool) {
        let v = folded.eval(&mut |_| unreachable!(), &mut |_, _| unreachable!());
        (Expr::Const(v), true)
    }
    match e {
        Expr::Const(_) => (e.clone(), true),
        Expr::Read(_) => (e.clone(), false),
        Expr::Slice { expr, lo, hi } => {
            let (a, k) = fold_expr_const(expr);
            let folded = Expr::Slice { expr: Box::new(a), lo: *lo, hi: *hi };
            if k {
                to_const(folded)
            } else {
                (folded, false)
            }
        }
        Expr::Concat(parts) => {
            let mut all = true;
            let parts: Vec<Expr> = parts
                .iter()
                .map(|p| {
                    let (f, k) = fold_expr_const(p);
                    all &= k;
                    f
                })
                .collect();
            let folded = Expr::Concat(parts);
            if all {
                to_const(folded)
            } else {
                (folded, false)
            }
        }
        Expr::Unary(op, a) => {
            let (a, k) = fold_expr_const(a);
            let folded = Expr::Unary(*op, Box::new(a));
            if k {
                to_const(folded)
            } else {
                (folded, false)
            }
        }
        Expr::Binary(op, a, b) => {
            let (a, ka) = fold_expr_const(a);
            let (b, kb) = fold_expr_const(b);
            let folded = Expr::Binary(*op, Box::new(a), Box::new(b));
            if ka && kb {
                to_const(folded)
            } else {
                (folded, false)
            }
        }
        Expr::Mux { cond, then_, else_ } => {
            let (c, kc) = fold_expr_const(cond);
            let (t, kt) = fold_expr_const(then_);
            let (f, kf) = fold_expr_const(else_);
            let folded = Expr::Mux { cond: Box::new(c), then_: Box::new(t), else_: Box::new(f) };
            if kc && kt && kf {
                to_const(folded)
            } else {
                (folded, false)
            }
        }
        Expr::Select { sel, options } => {
            let (s, mut all) = fold_expr_const(sel);
            let options: Vec<Expr> = options
                .iter()
                .map(|o| {
                    let (f, k) = fold_expr_const(o);
                    all &= k;
                    f
                })
                .collect();
            let folded = Expr::Select { sel: Box::new(s), options };
            if all {
                to_const(folded)
            } else {
                (folded, false)
            }
        }
        Expr::Zext(a, w) => {
            let (a, k) = fold_expr_const(a);
            let folded = Expr::Zext(Box::new(a), *w);
            if k {
                to_const(folded)
            } else {
                (folded, false)
            }
        }
        Expr::Sext(a, w) => {
            let (a, k) = fold_expr_const(a);
            let folded = Expr::Sext(Box::new(a), *w);
            if k {
                to_const(folded)
            } else {
                (folded, false)
            }
        }
        Expr::Trunc(a, w) => {
            let (a, k) = fold_expr_const(a);
            let folded = Expr::Trunc(Box::new(a), *w);
            if k {
                to_const(folded)
            } else {
                (folded, false)
            }
        }
        Expr::MemRead { mem, addr } => {
            let (a, _) = fold_expr_const(addr);
            (Expr::MemRead { mem: *mem, addr: Box::new(a) }, false)
        }
    }
}

fn fold_stmt(s: &Stmt) -> Stmt {
    match s {
        Stmt::Assign(lv, e) => Stmt::Assign(lv.clone(), fold_expr(e)),
        Stmt::If { cond, then_, else_ } => Stmt::If {
            cond: fold_expr(cond),
            then_: then_.iter().map(fold_stmt).collect(),
            else_: else_.iter().map(fold_stmt).collect(),
        },
        Stmt::Switch { subject, arms, default } => Stmt::Switch {
            subject: fold_expr(subject),
            arms: arms.iter().map(|(k, body)| (*k, body.iter().map(fold_stmt).collect())).collect(),
            default: default.iter().map(fold_stmt).collect(),
        },
        Stmt::MemWrite { mem, addr, data } => {
            Stmt::MemWrite { mem: *mem, addr: fold_expr(addr), data: fold_expr(data) }
        }
    }
}

struct Compiler<'a> {
    design: &'a Design,
    ops: Vec<Op<VReg>>,
    next_reg: VReg,
    seq: bool,
}

impl Compiler<'_> {
    fn alloc(&mut self) -> VReg {
        let r = self.next_reg;
        // Virtual registers are effectively unbounded; the physical
        // budget is enforced later by `narrow` (after compaction when
        // the optimizer runs), where the block can be named.
        self.next_reg = self.next_reg.checked_add(1).expect("virtual register index overflow");
        r
    }

    fn slot_of(&self, sig: SignalId) -> u32 {
        self.design.net_of(sig).index() as u32
    }

    fn width_of(&self, sig: SignalId) -> u32 {
        self.design.signal(sig).width
    }

    fn mem_index(&self, m: MemId) -> u32 {
        m.index() as u32
    }

    fn expr_width(&self, e: &Expr) -> u32 {
        expr_width(self.design, e)
    }

    fn emit_stmt(&mut self, s: &Stmt) {
        match s {
            Stmt::Assign(lv, e) => {
                let src = self.emit_expr(e);
                let slot = self.slot_of(lv.signal);
                let full = lv.lo == 0 && lv.hi == self.width_of(lv.signal);
                match (self.seq, full) {
                    (false, true) => self.ops.push(Op::Write { slot, src }),
                    (true, true) => self.ops.push(Op::WriteNext { slot, src }),
                    (false, false) => self.ops.push(Op::WriteMasked {
                        slot,
                        src,
                        lo: lv.lo,
                        field: mask_of(lv.width()) << lv.lo,
                    }),
                    (true, false) => self.ops.push(Op::WriteNextMasked {
                        slot,
                        src,
                        lo: lv.lo,
                        field: mask_of(lv.width()) << lv.lo,
                    }),
                }
            }
            Stmt::If { cond, then_, else_ } => {
                let c = self.emit_expr(cond);
                let jz_at = self.ops.len();
                self.ops.push(Op::Jz { cond: c, target: 0 });
                for s in then_ {
                    self.emit_stmt(s);
                }
                if else_.is_empty() {
                    let end = self.ops.len() as u32;
                    self.patch(jz_at, end);
                } else {
                    let jmp_at = self.ops.len();
                    self.ops.push(Op::Jmp { target: 0 });
                    let else_start = self.ops.len() as u32;
                    self.patch(jz_at, else_start);
                    for s in else_ {
                        self.emit_stmt(s);
                    }
                    let end = self.ops.len() as u32;
                    self.patch(jmp_at, end);
                }
            }
            Stmt::Switch { subject, arms, default } => {
                let s_reg = self.emit_expr(subject);
                let mut end_jumps = Vec::new();
                for (k, body) in arms {
                    let jne_at = self.ops.len();
                    self.ops.push(Op::JneConst { a: s_reg, k: k.as_u128(), target: 0 });
                    for st in body {
                        self.emit_stmt(st);
                    }
                    end_jumps.push(self.ops.len());
                    self.ops.push(Op::Jmp { target: 0 });
                    let next_arm = self.ops.len() as u32;
                    self.patch(jne_at, next_arm);
                }
                for st in default {
                    self.emit_stmt(st);
                }
                let end = self.ops.len() as u32;
                for j in end_jumps {
                    self.patch(j, end);
                }
            }
            Stmt::MemWrite { mem, addr, data } => {
                let a = self.emit_expr(addr);
                let d = self.emit_expr(data);
                let words = self.design.mem(*mem).words;
                self.ops.push(Op::MemWrite { mem: self.mem_index(*mem), addr: a, data: d, words });
            }
        }
    }

    fn patch(&mut self, at: usize, target: u32) {
        match &mut self.ops[at] {
            Op::Jz { target: t, .. } | Op::JneConst { target: t, .. } | Op::Jmp { target: t } => {
                *t = target
            }
            _ => unreachable!("patching a non-jump op"),
        }
    }

    fn emit_expr(&mut self, e: &Expr) -> VReg {
        match e {
            Expr::Read(sig) => {
                let dst = self.alloc();
                self.ops.push(Op::Read { dst, slot: self.slot_of(*sig) });
                dst
            }
            Expr::Const(c) => {
                let dst = self.alloc();
                self.ops.push(Op::Const { dst, val: c.as_u128() });
                dst
            }
            Expr::Slice { expr, lo, hi } => {
                let a = self.emit_expr(expr);
                let dst = self.alloc();
                self.ops.push(Op::Slice { dst, a, lo: *lo, mask: mask_of(hi - lo) });
                dst
            }
            Expr::Concat(parts) => {
                let mut acc = self.emit_expr(&parts[0]);
                for p in &parts[1..] {
                    let b = self.emit_expr(p);
                    let dst = self.alloc();
                    self.ops.push(Op::ShlOr { dst, a: acc, b, shift: self.expr_width(p) });
                    acc = dst;
                }
                acc
            }
            Expr::Unary(op, inner) => {
                let a = self.emit_expr(inner);
                let w = self.expr_width(inner);
                let dst = self.alloc();
                let m = mask_of(w);
                self.ops.push(match op {
                    UnaryOp::Not => Op::Not { dst, a, mask: m },
                    UnaryOp::Neg => Op::Neg { dst, a, mask: m },
                    UnaryOp::ReduceAnd => Op::RedAnd { dst, a, mask: m },
                    UnaryOp::ReduceOr => Op::RedOr { dst, a },
                    UnaryOp::ReduceXor => Op::RedXor { dst, a },
                });
                dst
            }
            Expr::Binary(op, ea, eb) => {
                let a = self.emit_expr(ea);
                let b = self.emit_expr(eb);
                let w = self.expr_width(ea);
                let m = mask_of(w);
                let ext = 128 - w;
                let dst = self.alloc();
                self.ops.push(match op {
                    BinOp::Add => Op::Add { dst, a, b, mask: m },
                    BinOp::Sub => Op::Sub { dst, a, b, mask: m },
                    BinOp::Mul => Op::Mul { dst, a, b, mask: m },
                    BinOp::And => Op::And { dst, a, b },
                    BinOp::Or => Op::Or { dst, a, b },
                    BinOp::Xor => Op::Xor { dst, a, b },
                    BinOp::Shl => Op::Shl { dst, a, b, width: w, mask: m },
                    BinOp::Shr => Op::Shr { dst, a, b, width: w },
                    BinOp::Sra => Op::Sra { dst, a, b, width: w, mask: m, ext },
                    BinOp::Eq => Op::Eq { dst, a, b },
                    BinOp::Ne => Op::Ne { dst, a, b },
                    BinOp::Lt => Op::Lt { dst, a, b },
                    BinOp::Ge => Op::Ge { dst, a, b },
                    BinOp::LtS => Op::LtS { dst, a, b, ext },
                    BinOp::GeS => Op::GeS { dst, a, b, ext },
                });
                dst
            }
            Expr::Mux { cond, then_, else_ } => {
                let c = self.emit_expr(cond);
                let t = self.emit_expr(then_);
                let f = self.emit_expr(else_);
                let dst = self.alloc();
                self.ops.push(Op::Mux { dst, cond: c, t, f });
                dst
            }
            Expr::Select { sel, options } => {
                let s = self.emit_expr(sel);
                let tmp: Vec<VReg> = options.iter().map(|o| self.emit_expr(o)).collect();
                let base = self.next_reg;
                for (i, r) in tmp.iter().enumerate() {
                    let dst = self.alloc();
                    debug_assert_eq!(dst, base + i as VReg);
                    self.ops.push(Op::Copy { dst, a: *r });
                }
                let dst = self.alloc();
                self.ops.push(Op::Select { dst, sel: s, base, n: options.len() as u16 });
                dst
            }
            Expr::Zext(inner, _) => self.emit_expr(inner),
            Expr::Sext(inner, w) => {
                let a = self.emit_expr(inner);
                let iw = self.expr_width(inner);
                let dst = self.alloc();
                self.ops.push(Op::Sext {
                    dst,
                    a,
                    sign_bit: 1u128 << (iw - 1),
                    ext_or: mask_of(*w) & !mask_of(iw),
                });
                dst
            }
            Expr::Trunc(inner, w) => {
                let a = self.emit_expr(inner);
                let dst = self.alloc();
                self.ops.push(Op::Slice { dst, a, lo: 0, mask: mask_of(*w) });
                dst
            }
            Expr::MemRead { mem, addr } => {
                let a = self.emit_expr(addr);
                let dst = self.alloc();
                let words = self.design.mem(*mem).words;
                self.ops.push(Op::MemRead { dst, mem: self.mem_index(*mem), addr: a, words });
                dst
            }
        }
    }
}

/// Computes the width of an IR expression against a design's signal table.
pub(crate) fn expr_width(design: &Design, e: &Expr) -> u32 {
    match e {
        Expr::Read(s) => design.signal(*s).width,
        Expr::Const(c) => c.width(),
        Expr::Slice { lo, hi, .. } => hi - lo,
        Expr::Concat(parts) => parts.iter().map(|p| expr_width(design, p)).sum(),
        Expr::Unary(op, a) => match op {
            UnaryOp::Not | UnaryOp::Neg => expr_width(design, a),
            _ => 1,
        },
        Expr::Binary(op, a, _) => match op {
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Ge | BinOp::LtS | BinOp::GeS => 1,
            _ => expr_width(design, a),
        },
        Expr::Mux { then_, .. } => expr_width(design, then_),
        Expr::Select { options, .. } => expr_width(design, &options[0]),
        Expr::Zext(_, w) | Expr::Sext(_, w) | Expr::Trunc(_, w) => *w,
        Expr::MemRead { mem, .. } => design.mem(*mem).width,
    }
}

/// Executes a tape over the packed state.
///
/// When `TRACK` is true, combinational writes that change a slot's value
/// push the slot index into `changed` (used by the event-driven specialized
/// engine for sensitivity propagation).
///
/// Uses unchecked indexing in the hot loop; every index is range-checked
/// once by [`validate`] at simulator construction, which makes the
/// unchecked accesses sound.
#[allow(clippy::too_many_arguments)]
/// Read access to memory columns for the tape executor, so the same
/// core runs over plain `Vec<u128>` storage (the scalar engines) and
/// lane-interleaved storage (the batch engine's per-lane fallback). Mem
/// writes are always deferred through `pending`, so read access is all
/// the executor needs.
pub(crate) trait TapeMems {
    /// # Safety
    ///
    /// `mem`/`addr` must be in range (guaranteed by [`validate`] plus the
    /// per-op `% words` wrap).
    unsafe fn read(&self, mem: usize, addr: usize) -> u128;
}

impl TapeMems for [Vec<u128>] {
    #[inline(always)]
    unsafe fn read(&self, mem: usize, addr: usize) -> u128 {
        unsafe { *self.get_unchecked(mem).get_unchecked(addr) }
    }
}

/// Runs a tape's const prelude into a persistent register buffer, once
/// per buffer lifetime. Pairs with [`exec_tape_body`].
pub(crate) fn exec_prelude(tape: &Tape, regs: &mut [u128]) {
    for op in &tape.ops[..tape.prelude as usize] {
        match op {
            Op::Const { dst, val } => regs[*dst as usize] = *val,
            _ => unreachable!("validate: prelude ops are Const"),
        }
    }
}

/// Executes only `ops[prelude..]` of a tape whose prelude was installed
/// in `regs` by [`exec_prelude`]. `regs` must persist between calls.
pub(crate) fn exec_tape_body<const TRACK: bool>(
    tape: &Tape,
    regs: &mut [u128],
    cur: &mut [u128],
    next: &mut [u128],
    mems: &[Vec<u128>],
    pending: &mut Vec<(u32, u64, u128)>,
    changed: &mut Vec<u32>,
) {
    // SAFETY: as for [`exec_tape`]; a nonzero prelude start is sound
    // because `validate` rejects preludes on tapes with jumps.
    unsafe {
        exec_tape_ptr_from::<TRACK, _>(
            tape,
            tape.prelude as usize,
            regs,
            cur.as_mut_ptr(),
            next.as_mut_ptr(),
            mems,
            pending,
            changed,
        )
    }
}

/// Executes a tape over exclusive (`&mut`) packed state.
pub(crate) fn exec_tape<const TRACK: bool>(
    tape: &Tape,
    regs: &mut [u128],
    cur: &mut [u128],
    next: &mut [u128],
    mems: &[Vec<u128>],
    pending: &mut Vec<(u32, u64, u128)>,
    changed: &mut Vec<u32>,
) {
    // SAFETY: `cur`/`next` are exclusive borrows covering every slot a
    // validated tape can touch.
    unsafe {
        exec_tape_ptr::<TRACK, _>(
            tape,
            regs,
            cur.as_mut_ptr(),
            next.as_mut_ptr(),
            mems,
            pending,
            changed,
        )
    }
}

/// The tape executor core over raw state pointers.
///
/// # Safety
///
/// Callers must guarantee, for the duration of the call:
/// - `cur` and `next` point to arrays covering every net slot the tape
///   references (ensured by [`validate`]);
/// - no other thread concurrently writes any slot this tape reads, and
///   no other thread concurrently reads or writes any slot this tape
///   writes (every caller runs single-threaded over exclusive borrows).
pub(crate) unsafe fn exec_tape_ptr<const TRACK: bool, M: TapeMems + ?Sized>(
    tape: &Tape,
    regs: &mut [u128],
    cur: *mut u128,
    next: *mut u128,
    mems: &M,
    pending: &mut Vec<(u32, u64, u128)>,
    changed: &mut Vec<u32>,
) {
    // Executing from op 0 re-runs any prelude into scratch registers;
    // prelude ops are ordinary `Const`s, so this is always correct.
    unsafe { exec_tape_ptr_from::<TRACK, M>(tape, 0, regs, cur, next, mems, pending, changed) }
}

/// [`exec_tape_ptr`] with an explicit start index (`0` or the tape's
/// prelude length).
///
/// # Safety
///
/// As for [`exec_tape_ptr`]; additionally `start` must be `0` or
/// `tape.prelude` on a validated tape (jump-free when `prelude > 0`).
#[allow(clippy::too_many_arguments)]
pub(crate) unsafe fn exec_tape_ptr_from<const TRACK: bool, M: TapeMems + ?Sized>(
    tape: &Tape,
    start: usize,
    regs: &mut [u128],
    cur: *mut u128,
    next: *mut u128,
    mems: &M,
    pending: &mut Vec<(u32, u64, u128)>,
    changed: &mut Vec<u32>,
) {
    macro_rules! r {
        ($i:expr) => {
            unsafe { *regs.get_unchecked(*$i as usize) }
        };
    }
    macro_rules! w {
        ($i:expr, $v:expr) => {{
            // Evaluate the value expression outside the unsafe block so
            // nested register reads keep their own narrow unsafe scope.
            let v = $v;
            unsafe { *regs.get_unchecked_mut(*$i as usize) = v }
        }};
    }
    let ops = &tape.ops;
    let mut pc = start;
    while pc < ops.len() {
        match unsafe { ops.get_unchecked(pc) } {
            Op::Const { dst, val } => w!(dst, *val),
            Op::Read { dst, slot } => {
                w!(dst, unsafe { *cur.add(*slot as usize) })
            }
            Op::Copy { dst, a } => w!(dst, r!(a)),
            Op::Add { dst, a, b, mask } => w!(dst, r!(a).wrapping_add(r!(b)) & mask),
            Op::Sub { dst, a, b, mask } => w!(dst, r!(a).wrapping_sub(r!(b)) & mask),
            Op::Mul { dst, a, b, mask } => w!(dst, r!(a).wrapping_mul(r!(b)) & mask),
            Op::And { dst, a, b } => w!(dst, r!(a) & r!(b)),
            Op::Or { dst, a, b } => w!(dst, r!(a) | r!(b)),
            Op::Xor { dst, a, b } => w!(dst, r!(a) ^ r!(b)),
            Op::Not { dst, a, mask } => w!(dst, !r!(a) & mask),
            Op::Neg { dst, a, mask } => w!(dst, r!(a).wrapping_neg() & mask),
            Op::Shl { dst, a, b, width, mask } => {
                let amt = r!(b);
                w!(dst, if amt >= *width as u128 { 0 } else { (r!(a) << amt) & mask });
            }
            Op::Shr { dst, a, b, width } => {
                let amt = r!(b);
                w!(dst, if amt >= *width as u128 { 0 } else { r!(a) >> amt });
            }
            Op::Sra { dst, a, b, width, mask, ext } => {
                let amt = (r!(b)).min(*width as u128) as u32;
                let v = (r!(a) << ext) as i128 >> ext;
                w!(dst, ((v >> amt.min(127)) as u128) & mask);
            }
            Op::Eq { dst, a, b } => w!(dst, (r!(a) == r!(b)) as u128),
            Op::Ne { dst, a, b } => w!(dst, (r!(a) != r!(b)) as u128),
            Op::Lt { dst, a, b } => w!(dst, (r!(a) < r!(b)) as u128),
            Op::Ge { dst, a, b } => w!(dst, (r!(a) >= r!(b)) as u128),
            Op::LtS { dst, a, b, ext } => {
                w!(dst, (((r!(a) << ext) as i128) < ((r!(b) << ext) as i128)) as u128)
            }
            Op::GeS { dst, a, b, ext } => {
                w!(dst, (((r!(a) << ext) as i128) >= ((r!(b) << ext) as i128)) as u128)
            }
            Op::RedAnd { dst, a, mask } => w!(dst, (r!(a) == *mask) as u128),
            Op::RedOr { dst, a } => w!(dst, (r!(a) != 0) as u128),
            Op::RedXor { dst, a } => w!(dst, (r!(a).count_ones() % 2) as u128),
            Op::Slice { dst, a, lo, mask } => w!(dst, (r!(a) >> lo) & mask),
            Op::ShlOr { dst, a, b, shift } => w!(dst, (r!(a) << shift) | r!(b)),
            Op::Mux { dst, cond, t, f } => {
                w!(dst, if r!(cond) != 0 { r!(t) } else { r!(f) });
            }
            Op::Mux2 { dst, c1, t1, c2, t2, f } => {
                let v = if r!(c1) != 0 {
                    r!(t1)
                } else if r!(c2) != 0 {
                    r!(t2)
                } else {
                    r!(f)
                };
                w!(dst, v);
            }
            Op::Select { dst, sel, base, n } => {
                let idx = (r!(sel) as usize).min(*n as usize - 1);
                let v = unsafe { *regs.get_unchecked(*base as usize + idx) };
                w!(dst, v);
            }
            Op::Sext { dst, a, sign_bit, ext_or } => {
                let v = r!(a);
                w!(dst, if v & sign_bit != 0 { v | ext_or } else { v });
            }
            Op::Write { slot, src } => {
                let s = *slot as usize;
                let v = r!(src);
                let c = unsafe { &mut *cur.add(s) };
                if TRACK {
                    if *c != v {
                        *c = v;
                        changed.push(*slot);
                    }
                } else {
                    *c = v;
                }
            }
            Op::WriteMasked { slot, src, lo, field } => {
                let s = *slot as usize;
                let c = unsafe { &mut *cur.add(s) };
                let v = (*c & !field) | ((r!(src) << lo) & field);
                if TRACK {
                    if *c != v {
                        *c = v;
                        changed.push(*slot);
                    }
                } else {
                    *c = v;
                }
            }
            Op::WriteNext { slot, src } => {
                let v = r!(src);
                unsafe { *next.add(*slot as usize) = v };
            }
            Op::WriteNextMasked { slot, src, lo, field } => {
                let v = r!(src);
                let n = unsafe { &mut *next.add(*slot as usize) };
                *n = (*n & !field) | ((v << lo) & field);
            }
            Op::WriteIf { slot, cond, src, neg } => {
                let take = (r!(cond) != 0) != *neg;
                let s = *slot as usize;
                let c = unsafe { &mut *cur.add(s) };
                // Branchless select: an untaken predicate stores the old
                // value back, which the tracked path below treats as "no
                // change" — bit-for-bit the branchy original.
                let v = if take { r!(src) } else { *c };
                if TRACK {
                    if *c != v {
                        *c = v;
                        changed.push(*slot);
                    }
                } else {
                    *c = v;
                }
            }
            Op::WriteNextIf { slot, cond, src, neg } => {
                let take = (r!(cond) != 0) != *neg;
                let n = unsafe { &mut *next.add(*slot as usize) };
                *n = if take { r!(src) } else { *n };
            }
            Op::MemRead { dst, mem, addr, words } => {
                let a = (r!(addr) as u64) % words;
                let v = unsafe { mems.read(*mem as usize, a as usize) };
                w!(dst, v);
            }
            Op::MemWrite { mem, addr, data, words } => {
                let a = (r!(addr) as u64) % words;
                pending.push((*mem, a, r!(data)));
            }
            Op::MemWriteIf { mem, addr, data, cond, words, neg } => {
                if (r!(cond) != 0) != *neg {
                    let a = (r!(addr) as u64) % words;
                    pending.push((*mem, a, r!(data)));
                }
            }
            Op::Jz { cond, target } => {
                if r!(cond) == 0 {
                    pc = *target as usize;
                    continue;
                }
            }
            Op::JneConst { a, k, target } => {
                if r!(a) != *k {
                    pc = *target as usize;
                    continue;
                }
            }
            Op::Jmp { target } => {
                pc = *target as usize;
                continue;
            }
        }
        pc += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtl_bits::Bits;

    #[test]
    fn fold_expr_collapses_constant_subtrees() {
        let e = Expr::k(8, 3) + Expr::k(8, 4);
        assert_eq!(fold_expr(&e), Expr::Const(Bits::new(8, 7)));
        // A read prevents folding at the top but folds the const subtree.
        let sig = SignalId::from_index(0);
        let e = Expr::Read(sig) + (Expr::k(8, 3) + Expr::k(8, 4));
        match fold_expr(&e) {
            Expr::Binary(BinOp::Add, a, b) => {
                assert_eq!(*a, Expr::Read(sig));
                assert_eq!(*b, Expr::Const(Bits::new(8, 7)));
            }
            other => panic!("unexpected fold result: {other:?}"),
        }
    }

    /// Regression for the quadratic fold: the old implementation
    /// re-evaluated the entire constant subtree at every enclosing node,
    /// so a deep chain took O(n^2) work. The single bottom-up pass must
    /// handle a 50k-deep chain in linear time (the bound below is ~1000x
    /// looser than the rewrite needs and far below what O(n^2) allows).
    /// Runs on a dedicated big stack: folding recurses once per level.
    #[test]
    fn fold_expr_deep_constant_chain_is_linear() {
        std::thread::Builder::new()
            .stack_size(256 << 20)
            .spawn(|| {
                const DEPTH: u128 = 50_000;
                let mut e = Expr::k(32, 1);
                for _ in 0..DEPTH {
                    e = e + Expr::k(32, 1);
                }
                let start = std::time::Instant::now();
                let folded = fold_expr(&e);
                assert!(
                    start.elapsed() < std::time::Duration::from_secs(20),
                    "deep fold took {:?} — quadratic regression",
                    start.elapsed()
                );
                assert_eq!(folded, Expr::Const(Bits::new(32, DEPTH + 1)));
            })
            .expect("spawn big-stack fold thread")
            .join()
            .expect("deep fold panicked");
    }

    /// The register-budget panic must name the offending block (its
    /// hierarchical path and kind) so an over-budget design is debuggable
    /// without bisecting the elaboration.
    #[test]
    fn register_budget_panic_names_the_block() {
        let vt = VTape { ops: Vec::new(), nregs: REG_BUDGET + 123, prelude: 0 };
        let err = std::panic::catch_unwind(|| narrow(&vt, || "top.routers[3].queue (seq)".into()))
            .expect_err("narrow must panic over budget");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
            .expect("panic payload is a string");
        assert!(msg.contains("register budget"), "message: {msg}");
        assert!(msg.contains("top.routers[3].queue (seq)"), "message: {msg}");
        assert!(msg.contains(&(REG_BUDGET + 123).to_string()), "message: {msg}");
    }
}
