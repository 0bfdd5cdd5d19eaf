//! Simulation engines for RustMTL.
//!
//! This crate is the analog of PyMTL's `SimulationTool` plus the paper's
//! SimJIT specializers. A [`Sim`] consumes an elaborated
//! [`Design`](mtl_core::Design) and simulates it under one of five
//! [`Engine`]s; the first four reproduce the paper's performance regimes
//! and the fifth runs 64 trials of the fastest one at once:
//!
//! | Engine | Paper analog | Architecture |
//! |---|---|---|
//! | [`Engine::Interpreted`] | CPython | event-driven, tree-walking IR, hash-map storage & sensitivity |
//! | [`Engine::InterpretedOpt`] | PyPy | event-driven, tree-walking IR, dense pre-resolved storage |
//! | [`Engine::Specialized`] | SimJIT | IR compiled to a linear tape VM, event-driven dispatch |
//! | [`Engine::SpecializedOpt`] | SimJIT+PyPy | tape VM plus fully static levelized schedule |
//! | [`Engine::SpecializedBatch`] | word-parallel campaign simulation (e.g. bit-sliced fault/fuzz harnesses) | fused tapes lowered to bit-plane programs; one `u64` word per net bit holds 64 independent trial lanes |
//!
//! All engines implement identical simulation semantics; the test suite
//! checks trace equivalence on randomized designs. Construction overheads
//! are recorded per phase in [`Overheads`] (the paper's Fig. 16).
//!
//! Opt-in profiling ([`Sim::enable_profiling`] → [`SimProfile`]) collects
//! engine-independent logical block-execution counts plus engine-specific
//! physical timing/queue statistics; see the [`profile`](crate::profile)
//! module docs for the metric split.

mod artifact;
mod batch;
mod interp;
mod overheads;
pub mod passes;
pub mod profile;
mod sim;
mod tape;
mod vcd;

pub use artifact::{ArtifactCache, ArtifactStats};
pub use batch::LANES as BATCH_LANES;
pub use overheads::Overheads;
pub use passes::{OptReport, PassStat};
pub use profile::{Hist, HotBlock, SimProfile};
pub use sim::{Engine, InjectKind, Injection, Sim, SimConfig};
#[doc(hidden)]
pub use tape::{block_tapes, reference_block_tapes, BlockTapes};
pub use vcd::VcdWriter;
