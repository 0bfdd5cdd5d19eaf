//! The tape compiler: lowers IR blocks to a linear bytecode executed by a
//! straight-line VM over `u128` net slots and `u64` or `u128` registers.
//!
//! This is the heart of the SimJIT substitution (see `DESIGN.md`): where
//! PyMTL's SimJIT generates and compiles C++, RustMTL's specializing
//! engines lower each IR block to a flat three-address tape with
//! pre-resolved net slots, precomputed masks, and constant-folded operands.
//!
//! Compilation and optimization work in `u128` ([`VTape`]). [`narrow`]
//! then picks each executable tape's register word ([`ExecTape`]): `u64`,
//! whose ops pack into 16 bytes, when a conservative proof shows every
//! value the tape can hold fits in 64 bits, and `u128` otherwise.

use std::borrow::Cow;
use std::collections::hash_map::{Entry, HashMap};
use std::fmt::Debug;
use std::hash::Hash;
use std::ops::{BitAnd, BitOr, BitXor, Not, Shl, Shr};
use std::time::{Duration, Instant};

use mtl_core::ir::{BinOp, Expr, Stmt, UnaryOp};
use mtl_core::{BlockBody, BlockId, BlockKind, Design, MemId, SignalId};

use crate::overheads::Overheads;
use crate::passes::{optimize, value_bits, FxBuild, OptReport};

/// A physical register index within an executable tape. Kept at 16 bits so
/// every [`Op`] variant packs into 16 bytes over `u64` words.
pub(crate) type Reg = u16;

/// A virtual register index used during compilation and optimization.
/// Emission allocates freely in this space; the optimizer's register
/// compaction pass renumbers the live survivors, and [`narrow`] checks the
/// result against the physical [`Reg`] budget.
pub(crate) type VReg = u32;

/// A tape value word: the type of registers and value immediates. Net and
/// memory slots are always `u128`; a `u64` tape truncates what it reads,
/// which the width proof in [`narrow`] makes exact.
pub(crate) trait Word:
    Copy
    + Default
    + Eq
    + Ord
    + Hash
    + Debug
    + From<u8>
    + From<bool>
    + BitAnd<Output = Self>
    + BitOr<Output = Self>
    + BitXor<Output = Self>
    + Not<Output = Self>
    + Shl<u32, Output = Self>
    + Shr<u32, Output = Self>
{
    const BITS: u32;
    const ZERO: Self;
    const ONE: Self;
    /// A memory's word count as stored in an op. A memory too large for
    /// it keeps its tape at the wider word.
    type Words: Copy + Eq + Hash + Debug + Into<u64> + TryFrom<u64>;
    /// `v`, if it fits.
    fn from_u128(v: u128) -> Option<Self>;
    /// The low `BITS` bits of `v`.
    fn truncate(v: u128) -> Self;
    fn to_u128(self) -> u128;
    /// The low 64 bits (memory addresses and `Select` indices).
    fn low_u64(self) -> u64;
    fn wrapping_add(self, b: Self) -> Self;
    fn wrapping_sub(self, b: Self) -> Self;
    fn wrapping_mul(self, b: Self) -> Self;
    fn wrapping_neg(self) -> Self;
    fn count_ones(self) -> u32;
    /// Sign-extends the low `BITS - ext` bits, then shifts right
    /// arithmetically by `amt` (`ext`, `amt` < `BITS`).
    fn sra(self, ext: u32, amt: u32) -> Self;
    /// Signed `<` of the low `BITS - ext` bits of both operands.
    fn lt_signed(self, b: Self, ext: u32) -> bool;
}

macro_rules! impl_word {
    ($u:ty, $i:ty, $words:ty) => {
        impl Word for $u {
            const BITS: u32 = <$u>::BITS;
            const ZERO: Self = 0;
            const ONE: Self = 1;
            type Words = $words;
            fn from_u128(v: u128) -> Option<Self> {
                <$u>::try_from(v).ok()
            }
            #[inline(always)]
            fn truncate(v: u128) -> Self {
                v as $u
            }
            #[inline(always)]
            fn to_u128(self) -> u128 {
                self as u128
            }
            #[inline(always)]
            fn low_u64(self) -> u64 {
                self as u64
            }
            #[inline(always)]
            fn wrapping_add(self, b: Self) -> Self {
                <$u>::wrapping_add(self, b)
            }
            #[inline(always)]
            fn wrapping_sub(self, b: Self) -> Self {
                <$u>::wrapping_sub(self, b)
            }
            #[inline(always)]
            fn wrapping_mul(self, b: Self) -> Self {
                <$u>::wrapping_mul(self, b)
            }
            #[inline(always)]
            fn wrapping_neg(self) -> Self {
                <$u>::wrapping_neg(self)
            }
            #[inline(always)]
            fn count_ones(self) -> u32 {
                <$u>::count_ones(self)
            }
            #[inline(always)]
            fn sra(self, ext: u32, amt: u32) -> Self {
                ((((self << ext) as $i) >> ext) >> amt) as $u
            }
            #[inline(always)]
            fn lt_signed(self, b: Self, ext: u32) -> bool {
                ((self << ext) as $i) < ((b << ext) as $i)
            }
        }
    };
}
impl_word!(u64, i64, u32);
impl_word!(u128, i128, u64);

/// One tape instruction, generic over the register index type and the
/// value word: `Op<Reg, u64>` and `Op<Reg, u128>` are what the executor
/// runs ([`ExecTape`]), `Op<VReg>` (over `u128`) is what the compiler
/// emits and the optimizer transforms. `mask`/`field` are precomputed
/// width masks; immediates a width determines (sign-extension shifts,
/// `Sext` masks) are stored as that `u8` width and derived at execution,
/// which keeps `Op<Reg, u64>` at 16 bytes.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) enum Op<R = Reg, W: Word = u128> {
    Const {
        dst: R,
        val: W,
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
        mask: W,
    },
    Sub {
        dst: R,
        a: R,
        b: R,
        mask: W,
    },
    Mul {
        dst: R,
        a: R,
        b: R,
        mask: W,
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
        mask: W,
    },
    Neg {
        dst: R,
        a: R,
        mask: W,
    },
    Shl {
        dst: R,
        a: R,
        b: R,
        width: u8,
        mask: W,
    },
    Shr {
        dst: R,
        a: R,
        b: R,
        width: u8,
    },
    /// Arithmetic shift of a `width`-bit value.
    Sra {
        dst: R,
        a: R,
        b: R,
        width: u8,
        mask: W,
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
    /// Signed `<` of two `width`-bit values.
    LtS {
        dst: R,
        a: R,
        b: R,
        width: u8,
    },
    GeS {
        dst: R,
        a: R,
        b: R,
        width: u8,
    },
    RedAnd {
        dst: R,
        a: R,
        mask: W,
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
        lo: u8,
        mask: W,
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
    /// Sign-extends a `from`-bit value to `to` bits ([`sext_masks`]).
    Sext {
        dst: R,
        a: R,
        from: u8,
        to: u8,
    },
    Write {
        slot: u32,
        src: R,
    },
    WriteMasked {
        slot: u32,
        src: R,
        lo: u8,
        field: W,
    },
    WriteNext {
        slot: u32,
        src: R,
    },
    WriteNextMasked {
        slot: u32,
        src: R,
        lo: u8,
        field: W,
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
        words: W::Words,
    },
    MemWrite {
        mem: u32,
        addr: R,
        data: R,
        words: W::Words,
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
        words: W::Words,
        neg: bool,
    },
    Jz {
        cond: R,
        target: u32,
    },
    JneConst {
        a: R,
        k: W,
        target: u32,
    },
    Jmp {
        target: u32,
    },
}

// The `u64` encoding is what makes the narrow path pay: half the bytes
// per dispatched op of the `u128` one.
const _: () = assert!(std::mem::size_of::<Op<Reg, u64>>() == 16);

impl<R: Copy, W: Word> Op<R, W> {
    /// Rebuilds the op with every register index passed through `f` and
    /// every value immediate through `g`. `None` if `g` refuses an
    /// immediate or a memory size does not fit `V`'s encoding.
    pub(crate) fn map<S: Copy, V: Word>(
        &self,
        f: &mut impl FnMut(R) -> S,
        g: &mut impl FnMut(W) -> Option<V>,
    ) -> Option<Op<S, V>> {
        let words = |w: W::Words| V::Words::try_from(w.into()).ok();
        Some(match *self {
            Op::Const { dst, val } => Op::Const { dst: f(dst), val: g(val)? },
            Op::Read { dst, slot } => Op::Read { dst: f(dst), slot },
            Op::Copy { dst, a } => Op::Copy { dst: f(dst), a: f(a) },
            Op::Add { dst, a, b, mask } => {
                Op::Add { dst: f(dst), a: f(a), b: f(b), mask: g(mask)? }
            }
            Op::Sub { dst, a, b, mask } => {
                Op::Sub { dst: f(dst), a: f(a), b: f(b), mask: g(mask)? }
            }
            Op::Mul { dst, a, b, mask } => {
                Op::Mul { dst: f(dst), a: f(a), b: f(b), mask: g(mask)? }
            }
            Op::And { dst, a, b } => Op::And { dst: f(dst), a: f(a), b: f(b) },
            Op::Or { dst, a, b } => Op::Or { dst: f(dst), a: f(a), b: f(b) },
            Op::Xor { dst, a, b } => Op::Xor { dst: f(dst), a: f(a), b: f(b) },
            Op::Not { dst, a, mask } => Op::Not { dst: f(dst), a: f(a), mask: g(mask)? },
            Op::Neg { dst, a, mask } => Op::Neg { dst: f(dst), a: f(a), mask: g(mask)? },
            Op::Shl { dst, a, b, width, mask } => {
                Op::Shl { dst: f(dst), a: f(a), b: f(b), width, mask: g(mask)? }
            }
            Op::Shr { dst, a, b, width } => Op::Shr { dst: f(dst), a: f(a), b: f(b), width },
            Op::Sra { dst, a, b, width, mask } => {
                Op::Sra { dst: f(dst), a: f(a), b: f(b), width, mask: g(mask)? }
            }
            Op::Eq { dst, a, b } => Op::Eq { dst: f(dst), a: f(a), b: f(b) },
            Op::Ne { dst, a, b } => Op::Ne { dst: f(dst), a: f(a), b: f(b) },
            Op::Lt { dst, a, b } => Op::Lt { dst: f(dst), a: f(a), b: f(b) },
            Op::Ge { dst, a, b } => Op::Ge { dst: f(dst), a: f(a), b: f(b) },
            Op::LtS { dst, a, b, width } => Op::LtS { dst: f(dst), a: f(a), b: f(b), width },
            Op::GeS { dst, a, b, width } => Op::GeS { dst: f(dst), a: f(a), b: f(b), width },
            Op::RedAnd { dst, a, mask } => Op::RedAnd { dst: f(dst), a: f(a), mask: g(mask)? },
            Op::RedOr { dst, a } => Op::RedOr { dst: f(dst), a: f(a) },
            Op::RedXor { dst, a } => Op::RedXor { dst: f(dst), a: f(a) },
            Op::Slice { dst, a, lo, mask } => {
                Op::Slice { dst: f(dst), a: f(a), lo, mask: g(mask)? }
            }
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
            Op::Sext { dst, a, from, to } => Op::Sext { dst: f(dst), a: f(a), from, to },
            Op::Write { slot, src } => Op::Write { slot, src: f(src) },
            Op::WriteMasked { slot, src, lo, field } => {
                Op::WriteMasked { slot, src: f(src), lo, field: g(field)? }
            }
            Op::WriteNext { slot, src } => Op::WriteNext { slot, src: f(src) },
            Op::WriteNextMasked { slot, src, lo, field } => {
                Op::WriteNextMasked { slot, src: f(src), lo, field: g(field)? }
            }
            Op::WriteIf { slot, cond, src, neg } => {
                Op::WriteIf { slot, cond: f(cond), src: f(src), neg }
            }
            Op::WriteNextIf { slot, cond, src, neg } => {
                Op::WriteNextIf { slot, cond: f(cond), src: f(src), neg }
            }
            Op::MemRead { dst, mem, addr, words: w } => {
                Op::MemRead { dst: f(dst), mem, addr: f(addr), words: words(w)? }
            }
            Op::MemWrite { mem, addr, data, words: w } => {
                Op::MemWrite { mem, addr: f(addr), data: f(data), words: words(w)? }
            }
            Op::MemWriteIf { mem, addr, data, cond, words: w, neg } => Op::MemWriteIf {
                mem,
                addr: f(addr),
                data: f(data),
                cond: f(cond),
                words: words(w)?,
                neg,
            },
            Op::Jz { cond, target } => Op::Jz { cond: f(cond), target },
            Op::JneConst { a, k, target } => Op::JneConst { a: f(a), k: g(k)?, target },
            Op::Jmp { target } => Op::Jmp { target },
        })
    }

    /// Rebuilds the op with every register index passed through `f`
    /// (widening, narrowing, and compaction renumbering all route here).
    pub(crate) fn map_regs<S: Copy>(&self, f: &mut impl FnMut(R) -> S) -> Op<S, W> {
        self.map(f, &mut Some).expect("re-encoding in the same word cannot fail")
    }

    /// Whether every shift amount and width the executor derives from
    /// this op's immediates is in range for `W` (so no shift overflows).
    fn fits_word(&self) -> bool {
        let bits = |w: u8| (w as u32) <= W::BITS;
        let shift = |s: u32| s < W::BITS;
        match *self {
            Op::Shl { width, .. } | Op::Shr { width, .. } => bits(width),
            Op::Sra { width, .. } | Op::LtS { width, .. } | Op::GeS { width, .. } => {
                width >= 1 && bits(width)
            }
            Op::Slice { lo, .. } | Op::WriteMasked { lo, .. } | Op::WriteNextMasked { lo, .. } => {
                shift(lo as u32)
            }
            Op::ShlOr { shift: s, .. } => shift(s),
            Op::Sext { from, to, .. } => from >= 1 && bits(from) && bits(to),
            _ => true,
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

/// A compiled update block in executable (physical-register) form over
/// word `W`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct Tape<W: Word> {
    pub ops: Vec<Op<Reg, W>>,
    /// Register file size. `u32` (not [`Reg`]) so the full 65536-register
    /// budget is expressible.
    pub nregs: u32,
    /// Length of the cycle-invariant prefix: `ops[..prelude]` are all
    /// `Const` ops into registers no body op ever writes (the optimizer's
    /// const-hoist pass, which only fires on jump-free tapes). An engine
    /// that keeps a persistent register bank per tape may run the prelude
    /// once ([`ExecTape::bank`]) and then execute only `ops[prelude..]`
    /// each cycle ([`ExecTape::run_body`]); executing the whole tape from
    /// op 0 with scratch registers is equally correct.
    pub prelude: u32,
}

/// An executable tape at the register word its width proof allows
/// ([`narrow`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum ExecTape {
    /// Every value provably fits in 64 bits: 16-byte ops, `u64` registers.
    Narrow(Tape<u64>),
    /// The fallback: `u128` immediates and registers.
    Wide(Tape<u128>),
}

impl Default for ExecTape {
    fn default() -> Self {
        ExecTape::Narrow(Tape::default())
    }
}

/// Evaluates `$body` with `$t` bound to the [`Tape`] inside an
/// [`ExecTape`], whichever its word.
macro_rules! with_tape {
    ($tape:expr, $t:ident => $body:expr) => {
        match $tape {
            ExecTape::Narrow($t) => $body,
            ExecTape::Wide($t) => $body,
        }
    };
}

/// Register storage for [`ExecTape`]s: one bank per word, of which a tape
/// uses its own. As scratch ([`ExecTape::run`]) it grows on demand; as a
/// persistent bank ([`ExecTape::bank`]) it also holds the const prelude.
#[derive(Debug, Default)]
pub(crate) struct Regs {
    narrow: Vec<u64>,
    wide: Vec<u128>,
}

/// The first `n` registers of `bank`, grown with zeros if it is shorter.
fn grown<W: Word>(bank: &mut Vec<W>, n: u32) -> &mut [W] {
    if bank.len() < n as usize {
        bank.resize(n as usize, W::ZERO);
    }
    bank
}

impl ExecTape {
    /// Whether the tape runs on `u128` registers.
    pub(crate) fn is_wide(&self) -> bool {
        matches!(self, ExecTape::Wide(_))
    }

    /// The tape re-encoded over `u128` (borrowed if it already is).
    pub(crate) fn wide(&self) -> Cow<'_, Tape<u128>> {
        match self {
            ExecTape::Wide(t) => Cow::Borrowed(t),
            ExecTape::Narrow(t) => Cow::Owned(Tape {
                ops: t.ops.iter().map(|op| widen_op(op, &mut |r| r)).collect(),
                nregs: t.nregs,
                prelude: t.prelude,
            }),
        }
    }

    /// A persistent register bank for this tape with its const prelude
    /// installed; pairs with [`ExecTape::run_body`].
    pub(crate) fn bank(&self) -> Regs {
        fn install<W: Word>(t: &Tape<W>, bank: &mut Vec<W>) {
            let regs = grown(bank, t.nregs);
            for op in &t.ops[..t.prelude as usize] {
                match op {
                    Op::Const { dst, val } => regs[*dst as usize] = *val,
                    _ => unreachable!("validate: prelude ops are Const"),
                }
            }
        }
        let mut regs = Regs::default();
        match self {
            ExecTape::Narrow(t) => install(t, &mut regs.narrow),
            ExecTape::Wide(t) => install(t, &mut regs.wide),
        }
        regs
    }

    /// Executes the whole tape over scratch registers and exclusive
    /// (`&mut`) packed state.
    pub(crate) fn run<const TRACK: bool>(
        &self,
        regs: &mut Regs,
        cur: &mut [u128],
        next: &mut [u128],
        mems: &[Vec<u128>],
        pending: &mut Vec<(u32, u64, u128)>,
        changed: &mut Vec<u32>,
    ) {
        // SAFETY: `cur`/`next` are exclusive borrows covering every slot
        // a validated tape can touch.
        unsafe {
            self.run_ptr::<TRACK, _>(
                regs,
                cur.as_mut_ptr(),
                next.as_mut_ptr(),
                mems,
                pending,
                changed,
            )
        }
    }

    /// [`ExecTape::run`] over raw state pointers.
    ///
    /// # Safety
    ///
    /// As for [`exec`].
    pub(crate) unsafe fn run_ptr<const TRACK: bool, M: TapeMems + ?Sized>(
        &self,
        regs: &mut Regs,
        cur: *mut u128,
        next: *mut u128,
        mems: &M,
        pending: &mut Vec<(u32, u64, u128)>,
        changed: &mut Vec<u32>,
    ) {
        // Executing from op 0 re-runs any prelude into scratch registers;
        // prelude ops are ordinary `Const`s, so this is always correct.
        unsafe {
            match self {
                ExecTape::Narrow(t) => {
                    let regs = grown(&mut regs.narrow, t.nregs);
                    exec::<TRACK, _, M>(t, 0, regs, cur, next, mems, pending, changed)
                }
                ExecTape::Wide(t) => {
                    let regs = grown(&mut regs.wide, t.nregs);
                    exec::<TRACK, _, M>(t, 0, regs, cur, next, mems, pending, changed)
                }
            }
        }
    }

    /// Executes only `ops[prelude..]` over a bank made by
    /// [`ExecTape::bank`] for this tape, which must persist between
    /// calls. Untracked: the static schedules that use banks need no
    /// change list.
    pub(crate) fn run_body(
        &self,
        bank: &mut Regs,
        cur: &mut [u128],
        next: &mut [u128],
        mems: &[Vec<u128>],
        pending: &mut Vec<(u32, u64, u128)>,
        changed: &mut Vec<u32>,
    ) {
        fn body<W: Word>(
            t: &Tape<W>,
            regs: &mut [W],
            cur: &mut [u128],
            next: &mut [u128],
            mems: &[Vec<u128>],
            pending: &mut Vec<(u32, u64, u128)>,
            changed: &mut Vec<u32>,
        ) {
            assert!(regs.len() >= t.nregs as usize, "register bank built for another tape");
            // SAFETY: as for `ExecTape::run`; a nonzero prelude start is
            // sound because `validate` rejects preludes on tapes with
            // jumps.
            unsafe {
                exec::<false, W, _>(
                    t,
                    t.prelude as usize,
                    regs,
                    cur.as_mut_ptr(),
                    next.as_mut_ptr(),
                    mems,
                    pending,
                    changed,
                )
            }
        }
        match self {
            ExecTape::Narrow(t) => body(t, &mut bank.narrow, cur, next, mems, pending, changed),
            ExecTape::Wide(t) => body(t, &mut bank.wide, cur, next, mems, pending, changed),
        }
    }

    /// Rewrites ranked slots and memories to `slots[rank]`/`mems[rank]`.
    fn relocate(&mut self, slots: &[u32], mems: &[u32]) {
        with_tape!(self, t => {
            for op in &mut t.ops {
                if let Some(s) = op.slot_mut() {
                    *s = slots[*s as usize];
                }
                if let Some(m) = op.mem_mut() {
                    *m = mems[*m as usize];
                }
            }
        })
    }
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

/// Narrows a virtual tape to executable form: enforces the physical
/// register budget and picks the register word. `widths`/`mem_widths` are
/// the width tables the tape's slots and memories index. `context` names
/// the tape (hierarchical block path and kind) for the panic message.
///
/// The tape runs on `u64` only when the proof holds: every register is
/// provably below 2^64 ([`value_bits`], the optimizer's known-bits
/// transfer united over every def), every slot it reads or
/// read-modify-writes and every memory it reads is at most 64 bits wide,
/// and every immediate and memory size fits the `u64` encoding. Otherwise
/// it keeps the `u128` encoding. The choice is a pure function of the
/// tape and its width tables.
///
/// # Panics
///
/// Panics if the tape needs more than [`REG_BUDGET`] registers.
pub(crate) fn narrow(
    vt: &VTape,
    widths: &[u32],
    mem_widths: &[u32],
    context: impl Fn() -> String,
) -> ExecTape {
    assert!(
        vt.nregs <= REG_BUDGET,
        "tape register budget ({REG_BUDGET}) exceeded in {}: {} registers required; \
         split the block into smaller update blocks",
        context(),
        vt.nregs,
    );
    let reg = &mut |r: VReg| r as Reg;
    let narrow_state = vt.ops.iter().all(|op| match *op {
        Op::Read { slot, .. } | Op::WriteMasked { slot, .. } | Op::WriteNextMasked { slot, .. } => {
            widths[slot as usize] <= 64
        }
        Op::MemRead { mem, .. } => mem_widths[mem as usize] <= 64,
        _ => true,
    });
    if narrow_state && value_bits(vt, widths, mem_widths) >> 64 == 0 {
        let ops: Option<Vec<Op<Reg, u64>>> = vt
            .ops
            .iter()
            .map(|op| op.map(reg, &mut u64::from_u128).filter(Op::fits_word))
            .collect();
        if let Some(ops) = ops {
            return ExecTape::Narrow(Tape { ops, nregs: vt.nregs, prelude: vt.prelude });
        }
    }
    let ops = vt.ops.iter().map(|op| op.map_regs(reg)).collect();
    ExecTape::Wide(Tape { ops, nregs: vt.nregs, prelude: vt.prelude })
}

/// `op` over `u128`, with registers passed through `f`.
fn widen_op<R: Copy, S: Copy, W: Word>(op: &Op<R, W>, f: &mut impl FnMut(R) -> S) -> Op<S> {
    op.map(f, &mut |v: W| Some(v.to_u128())).expect("every word widens to u128")
}

/// Widens an executable tape back to virtual-register form (used to
/// re-optimize fused tapes, where cross-block redundancy appears).
pub(crate) fn widen(t: &ExecTape) -> VTape {
    with_tape!(t, t => VTape {
        ops: t.ops.iter().map(|op| widen_op(op, &mut |r| r as VReg)).collect(),
        nregs: t.nregs,
        prelude: t.prelude,
    })
}

/// The low-`width`-bits mask as a `u128` (all ones from 128 up).
pub(crate) fn mask_of(width: u32) -> u128 {
    mask_w(width)
}

/// The low-`width`-bits mask in word `W` (all ones from `W::BITS` up).
fn mask_w<W: Word>(width: u32) -> W {
    if width >= W::BITS {
        !W::ZERO
    } else {
        (W::ONE << width).wrapping_sub(W::ONE)
    }
}

/// `Sext`'s sign bit and extension bits for a `from`-bit value widened to
/// `to` bits (`from >= 1`).
pub(crate) fn sext_masks<W: Word>(from: u8, to: u8) -> (W, W) {
    (W::ONE << (from as u32 - 1), mask_w::<W>(to as u32) & !mask_w::<W>(from as u32))
}

/// A bit width or bit offset as stored in an op (IR widths are at most 128).
fn w8(x: u32) -> u8 {
    u8::try_from(x).expect("IR bit widths fit in u8")
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
    tape: ExecTape,
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
) -> Vec<ExecTape> {
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
            tapes.push(ExecTape::default());
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
                let mut delta = report.is_some().then(|| {
                    let t = Instant::now();
                    let mut delta = OptReport { blocks: 1, ..OptReport::new() };
                    optimize(&mut vt, &key.widths, &key.mem_widths, &mut delta);
                    opt_time += t.elapsed();
                    delta
                });
                let tape = narrow(&vt, &key.widths, &key.mem_widths, || block_context(design, i));
                if let Some(delta) = delta.as_mut() {
                    delta.wide_tapes = tape.is_wide() as u64;
                }
                e.insert(Body { tape, delta, instances: 0 })
            }
        };
        body.instances += 1;
        let mut tape = body.tape.clone();
        tape.relocate(&slots, &mems);
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
    tapes: Vec<ExecTape>,
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
                return ExecTape::default();
            };
            let mut vt = compile_block(design, &fold_stmts(stmts), b.kind);
            if let Some(rep) = report.as_mut() {
                optimize(&mut vt, &widths, &mem_widths, rep);
                rep.blocks += 1;
                rep.bodies += 1;
            }
            let tape = narrow(&vt, &widths, &mem_widths, || block_context(design, i));
            if let Some(rep) = report.as_mut() {
                rep.wide_tapes += tape.is_wide() as u64;
            }
            validate(&tape, widths.len(), mem_widths.len());
            tape
        })
        .collect();
    BlockTapes { tapes, report }
}

/// Validates that every register and memory index in a tape is in range
/// and that every shift the executor derives fits the tape's word; called
/// once at construction so the executor can use unchecked reads.
pub(crate) fn validate(tape: &ExecTape, nslots: usize, nmems: usize) {
    with_tape!(tape, t => validate_words(t, nslots, nmems))
}

fn validate_words<W: Word>(tape: &Tape<W>, nslots: usize, nmems: usize) {
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
    let words_ok = |w: &W::Words| (*w).into() >= 1;
    for op in &tape.ops {
        let ok = op.fits_word()
            && match op {
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
                    reg_ok(*dst) && reg_ok(*addr) && (*mem as usize) < nmems && words_ok(words)
                }
                Op::MemWrite { mem, addr, data, words } => {
                    reg_ok(*addr) && reg_ok(*data) && (*mem as usize) < nmems && words_ok(words)
                }
                Op::MemWriteIf { mem, addr, data, cond, words, .. } => {
                    reg_ok(*addr)
                        && reg_ok(*data)
                        && reg_ok(*cond)
                        && (*mem as usize) < nmems
                        && words_ok(words)
                }
                Op::Jz { cond, target } => reg_ok(*cond) && (*target as usize) <= tape.ops.len(),
                Op::JneConst { a, target, .. } => {
                    reg_ok(*a) && (*target as usize) <= tape.ops.len()
                }
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
/// SimJIT compiling the whole model into one C++ translation unit. The
/// result is in virtual form, over `u128`, for optimizing and [`narrow`].
pub(crate) fn fuse(tapes: &[&ExecTape]) -> VTape {
    let mut fused = VTape { ops: Vec::new(), nregs: 0, prelude: 0 };
    for t in tapes {
        let base = fused.ops.len() as u32;
        let t = widen(t);
        fused.nregs = fused.nregs.max(t.nregs);
        for mut op in t.ops {
            if let Op::Jz { target, .. } | Op::Jmp { target } | Op::JneConst { target, .. } =
                &mut op
            {
                *target += base
            }
            fused.ops.push(op);
        }
    }
    fused
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
                        lo: w8(lv.lo),
                        field: mask_of(lv.width()) << lv.lo,
                    }),
                    (true, false) => self.ops.push(Op::WriteNextMasked {
                        slot,
                        src,
                        lo: w8(lv.lo),
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
                self.ops.push(Op::Slice { dst, a, lo: w8(*lo), mask: mask_of(hi - lo) });
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
                let width = w8(w);
                let dst = self.alloc();
                self.ops.push(match op {
                    BinOp::Add => Op::Add { dst, a, b, mask: m },
                    BinOp::Sub => Op::Sub { dst, a, b, mask: m },
                    BinOp::Mul => Op::Mul { dst, a, b, mask: m },
                    BinOp::And => Op::And { dst, a, b },
                    BinOp::Or => Op::Or { dst, a, b },
                    BinOp::Xor => Op::Xor { dst, a, b },
                    BinOp::Shl => Op::Shl { dst, a, b, width, mask: m },
                    BinOp::Shr => Op::Shr { dst, a, b, width },
                    BinOp::Sra => Op::Sra { dst, a, b, width, mask: m },
                    BinOp::Eq => Op::Eq { dst, a, b },
                    BinOp::Ne => Op::Ne { dst, a, b },
                    BinOp::Lt => Op::Lt { dst, a, b },
                    BinOp::Ge => Op::Ge { dst, a, b },
                    BinOp::LtS => Op::LtS { dst, a, b, width },
                    BinOp::GeS => Op::GeS { dst, a, b, width },
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
                self.ops.push(Op::Sext { dst, a, from: w8(iw), to: w8(*w) });
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

/// The tape executor: runs `tape.ops[start..]` over registers of word `W`
/// and the packed `u128` state. The one executor body, monomorphized per
/// word and per `TRACK` mode; every engine's tape path reaches it through
/// [`ExecTape`].
///
/// When `TRACK` is true, combinational writes that change a slot's value
/// push the slot index into `changed` (used by the event-driven specialized
/// engine for sensitivity propagation).
///
/// A `u64` tape reads slots and memories truncated and stores its values
/// zero-extended; the width proof in [`narrow`] makes both exact.
///
/// Uses unchecked indexing in the hot loop; every index, and every shift
/// derived from an immediate, is range-checked once by [`validate`] at
/// simulator construction, which makes the unchecked accesses sound.
///
/// # Safety
///
/// Callers must guarantee, for the duration of the call:
/// - `tape` passed [`validate`], `regs` holds at least `tape.nregs`
///   registers, and `start` is `0` or `tape.prelude` (jump-free when
///   `prelude > 0`);
/// - `cur` and `next` point to arrays covering every net slot the tape
///   references (ensured by [`validate`]);
/// - no other thread concurrently writes any slot this tape reads, and
///   no other thread concurrently reads or writes any slot this tape
///   writes (every caller runs single-threaded over exclusive borrows).
#[allow(clippy::too_many_arguments)]
unsafe fn exec<const TRACK: bool, W: Word, M: TapeMems + ?Sized>(
    tape: &Tape<W>,
    start: usize,
    regs: &mut [W],
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
                w!(dst, W::truncate(unsafe { *cur.add(*slot as usize) }))
            }
            Op::Copy { dst, a } => w!(dst, r!(a)),
            Op::Add { dst, a, b, mask } => w!(dst, r!(a).wrapping_add(r!(b)) & *mask),
            Op::Sub { dst, a, b, mask } => w!(dst, r!(a).wrapping_sub(r!(b)) & *mask),
            Op::Mul { dst, a, b, mask } => w!(dst, r!(a).wrapping_mul(r!(b)) & *mask),
            Op::And { dst, a, b } => w!(dst, r!(a) & r!(b)),
            Op::Or { dst, a, b } => w!(dst, r!(a) | r!(b)),
            Op::Xor { dst, a, b } => w!(dst, r!(a) ^ r!(b)),
            Op::Not { dst, a, mask } => w!(dst, !r!(a) & *mask),
            Op::Neg { dst, a, mask } => w!(dst, r!(a).wrapping_neg() & *mask),
            Op::Shl { dst, a, b, width, mask } => {
                let amt = r!(b);
                let v = if amt >= W::from(*width) {
                    W::ZERO
                } else {
                    (r!(a) << amt.low_u64() as u32) & *mask
                };
                w!(dst, v);
            }
            Op::Shr { dst, a, b, width } => {
                let amt = r!(b);
                w!(
                    dst,
                    if amt >= W::from(*width) { W::ZERO } else { r!(a) >> amt.low_u64() as u32 }
                );
            }
            Op::Sra { dst, a, b, width, mask } => {
                let amt = r!(b).min(W::from(*width)).low_u64() as u32;
                let ext = W::BITS - *width as u32;
                w!(dst, r!(a).sra(ext, amt.min(W::BITS - 1)) & *mask);
            }
            Op::Eq { dst, a, b } => w!(dst, W::from(r!(a) == r!(b))),
            Op::Ne { dst, a, b } => w!(dst, W::from(r!(a) != r!(b))),
            Op::Lt { dst, a, b } => w!(dst, W::from(r!(a) < r!(b))),
            Op::Ge { dst, a, b } => w!(dst, W::from(r!(a) >= r!(b))),
            Op::LtS { dst, a, b, width } => {
                w!(dst, W::from(r!(a).lt_signed(r!(b), W::BITS - *width as u32)))
            }
            Op::GeS { dst, a, b, width } => {
                w!(dst, W::from(!r!(a).lt_signed(r!(b), W::BITS - *width as u32)))
            }
            Op::RedAnd { dst, a, mask } => w!(dst, W::from(r!(a) == *mask)),
            Op::RedOr { dst, a } => w!(dst, W::from(r!(a) != W::ZERO)),
            Op::RedXor { dst, a } => w!(dst, W::from(r!(a).count_ones() % 2 == 1)),
            Op::Slice { dst, a, lo, mask } => w!(dst, (r!(a) >> *lo as u32) & *mask),
            Op::ShlOr { dst, a, b, shift } => w!(dst, (r!(a) << *shift) | r!(b)),
            Op::Mux { dst, cond, t, f } => {
                w!(dst, if r!(cond) != W::ZERO { r!(t) } else { r!(f) });
            }
            Op::Mux2 { dst, c1, t1, c2, t2, f } => {
                let v = if r!(c1) != W::ZERO {
                    r!(t1)
                } else if r!(c2) != W::ZERO {
                    r!(t2)
                } else {
                    r!(f)
                };
                w!(dst, v);
            }
            Op::Select { dst, sel, base, n } => {
                let idx = (r!(sel).low_u64() as usize).min(*n as usize - 1);
                let v = unsafe { *regs.get_unchecked(*base as usize + idx) };
                w!(dst, v);
            }
            Op::Sext { dst, a, from, to } => {
                let (sign_bit, ext_or) = sext_masks::<W>(*from, *to);
                let v = r!(a);
                w!(dst, if v & sign_bit != W::ZERO { v | ext_or } else { v });
            }
            Op::Write { slot, src } => {
                let s = *slot as usize;
                let v = r!(src).to_u128();
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
                let v = (W::truncate(*c) & !*field) | ((r!(src) << *lo as u32) & *field);
                let v = v.to_u128();
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
                let v = r!(src).to_u128();
                unsafe { *next.add(*slot as usize) = v };
            }
            Op::WriteNextMasked { slot, src, lo, field } => {
                let v = r!(src);
                let n = unsafe { &mut *next.add(*slot as usize) };
                *n = ((W::truncate(*n) & !*field) | ((v << *lo as u32) & *field)).to_u128();
            }
            Op::WriteIf { slot, cond, src, neg } => {
                let take = (r!(cond) != W::ZERO) != *neg;
                let s = *slot as usize;
                let c = unsafe { &mut *cur.add(s) };
                // Branchless select: an untaken predicate stores the old
                // value back, which the tracked path below treats as "no
                // change" — bit-for-bit the branchy original.
                let v = if take { r!(src).to_u128() } else { *c };
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
                let take = (r!(cond) != W::ZERO) != *neg;
                let n = unsafe { &mut *next.add(*slot as usize) };
                *n = if take { r!(src).to_u128() } else { *n };
            }
            Op::MemRead { dst, mem, addr, words } => {
                let a = r!(addr).low_u64() % (*words).into();
                let v = unsafe { mems.read(*mem as usize, a as usize) };
                w!(dst, W::truncate(v));
            }
            Op::MemWrite { mem, addr, data, words } => {
                let a = r!(addr).low_u64() % (*words).into();
                pending.push((*mem, a, r!(data).to_u128()));
            }
            Op::MemWriteIf { mem, addr, data, cond, words, neg } => {
                if (r!(cond) != W::ZERO) != *neg {
                    let a = r!(addr).low_u64() % (*words).into();
                    pending.push((*mem, a, r!(data).to_u128()));
                }
            }
            Op::Jz { cond, target } => {
                if r!(cond) == W::ZERO {
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
        let err = std::panic::catch_unwind(|| {
            narrow(&vt, &[], &[], || "top.routers[3].queue (seq)".into())
        })
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

    /// Whether `ops` over slots of `widths` (and one memory per entry of
    /// `mem_widths`) narrows to `u64` registers.
    fn narrows(ops: Vec<Op<VReg>>, widths: &[u32], mem_widths: &[u32]) -> bool {
        let nregs = ops.iter().filter_map(|op| match *op {
            Op::Read { dst, .. } | Op::Const { dst, .. } | Op::ShlOr { dst, .. } => Some(dst + 1),
            Op::And { dst, .. } | Op::MemRead { dst, .. } => Some(dst + 1),
            _ => None,
        });
        let vt = VTape { nregs: nregs.max().unwrap_or(0), ops, prelude: 0 };
        let t = narrow(&vt, widths, mem_widths, || "test tape".into());
        validate(&t, widths.len(), mem_widths.len());
        !t.is_wide()
    }

    /// Each clause of the width proof, on the smallest tape that makes
    /// it hold or fail.
    #[test]
    fn narrow_picks_u64_only_on_proof() {
        let copy = |w| {
            narrows(
                vec![Op::Read { dst: 0, slot: 0 }, Op::Write { slot: 1, src: 0 }],
                &[w, 128],
                &[],
            )
        };
        assert!(copy(64), "a 64-bit read fits");
        assert!(!copy(65), "a 65-bit read does not");

        // A value assembled past 64 bits from narrow reads.
        let concat = |shift| {
            narrows(
                vec![
                    Op::Read { dst: 0, slot: 0 },
                    Op::Read { dst: 1, slot: 0 },
                    Op::ShlOr { dst: 2, a: 0, b: 1, shift },
                    Op::Write { slot: 1, src: 2 },
                ],
                &[32, 128],
                &[],
            )
        };
        assert!(concat(32));
        assert!(!concat(33));

        // A register reused for a chain of accumulators: only the latest
        // def reaches each use, so the bound does not pile up.
        let mut ops = vec![Op::Read { dst: 0, slot: 0 }, Op::Read { dst: 1, slot: 0 }];
        for _ in 0..100 {
            ops.push(Op::ShlOr { dst: 1, a: 0, b: 1, shift: 1 });
            ops.push(Op::And { dst: 1, a: 1, b: 0 });
        }
        ops.push(Op::Write { slot: 1, src: 1 });
        assert!(narrows(ops, &[1, 8], &[]));

        // At a jump target the def that reaches a use may be any earlier
        // one: here `r1` is the constant `k` when the jump skips the
        // 8-bit read, so the shift after the join must fit both.
        let join = |k: u128| {
            narrows(
                vec![
                    Op::Read { dst: 0, slot: 0 },
                    Op::Const { dst: 1, val: k },
                    Op::Jz { cond: 0, target: 4 },
                    Op::Read { dst: 1, slot: 1 },
                    Op::ShlOr { dst: 2, a: 1, b: 1, shift: 40 },
                    Op::Write { slot: 2, src: 2 },
                ],
                &[1, 8, 128],
                &[],
            )
        };
        assert!(join(0xFF));
        assert!(!join(0xFFFF_FFFF), "the skipped-over constant reaches the join");

        // A masked write read-modify-writes its slot in the tape's word.
        let masked = |w| {
            narrows(
                vec![
                    Op::Read { dst: 0, slot: 0 },
                    Op::WriteMasked { slot: 1, src: 0, lo: 0, field: mask_of(8) },
                ],
                &[8, w],
                &[],
            )
        };
        assert!(masked(64));
        assert!(!masked(65));

        // Memories: read width and word count.
        let mem = |width, words| {
            narrows(
                vec![
                    Op::Read { dst: 0, slot: 0 },
                    Op::MemRead { dst: 1, mem: 0, addr: 0, words },
                    Op::MemWrite { mem: 0, addr: 0, data: 0, words },
                    Op::Write { slot: 1, src: 1 },
                ],
                &[8, 128],
                &[width],
            )
        };
        assert!(mem(64, 8));
        assert!(!mem(65, 8));
        assert!(!mem(64, 1 << 32));
    }
}
