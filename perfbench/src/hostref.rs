//! Host-speed reference slices.
//!
//! On a 2-core Xeon host shared with other tenants, their load makes the
//! machine run 10–30% slower for stretches of several seconds, and longer
//! runs do not average that away: two one-minute `mesh64` runs of one
//! tree differed by 7% in RTL rate. So every timed unit sits between two
//! slices of a fixed reference computation — the hand-written 8×8 mesh
//! (`mtl_net::HandwrittenMesh`, the paper's hand-coded baseline) on a
//! fixed seed, on as many threads as the unit keeps busy — or, where a
//! unit can be split, is interleaved with reference chunks, and the
//! end-to-end numbers are reported *host-normalized*: the raw value
//! scaled to a host that runs the reference at [`NOMINAL`] cycles/s.
//! Slow and fast stretches move the unit and its reference together: over
//! ten-round windows of one such run the RTL rate moved ±10% while its
//! ratio to the reference moved ±3%. Raw values are printed beside the
//! normalized ones and kept as per-layer metrics.

use std::time::Duration;

use mtl_net::HandwrittenMesh;

use crate::trace::Tracer;

/// Reference rate, in simulated cycles per second, of the host the
/// normalized numbers are expressed on (about what the reference runs at
/// on the 2-core Xeon the benchmark was sized on).
pub const NOMINAL: f64 = 45_000.0;
/// Simulated cycles per slice, about a fifth of a second.
const SLICE_CYCLES: u64 = 10_000;

pub struct HostRef {
    /// One reference mesh per thread the measured units keep busy.
    meshes: Vec<HandwrittenMesh>,
    last: f64,
    cycles: u64,
    time: Duration,
}

/// The host factor a reference run of `cycles` in `d` measured: its rate
/// over [`NOMINAL`]. Multiply a time by it, or divide a rate by it, to
/// normalize.
pub fn factor_of(cycles: u64, d: Duration) -> f64 {
    cycles as f64 / d.as_secs_f64() / NOMINAL
}

impl HostRef {
    /// Builds the reference for units that keep `threads` threads busy,
    /// warms it up and primes it.
    pub fn new(t: &mut Tracer, threads: usize) -> HostRef {
        let (meshes, _) = t.time("mtl-net.ref", "HandwrittenMesh::new", 0, || {
            (0..threads).map(|_| HandwrittenMesh::new(64, 300, 0xBEEF)).collect()
        });
        let mut r = HostRef { meshes, last: 0.0, cycles: 0, time: Duration::ZERO };
        r.run(t, 0, SLICE_CYCLES);
        r.prime(t, 0);
        r
    }

    /// Runs `cycles` reference cycles on every thread as one span and
    /// returns their wall time.
    pub fn run(&mut self, t: &mut Tracer, req: u64, cycles: u64) -> Duration {
        let meshes = &mut self.meshes;
        let (_, d) = t.time("mtl-net.ref", "reference", req, || match meshes.as_mut_slice() {
            [mesh] => mesh.run(cycles),
            many => std::thread::scope(|s| {
                for mesh in many {
                    s.spawn(|| mesh.run(cycles));
                }
            }),
        });
        self.cycles += cycles;
        self.time += d;
        d
    }

    /// Takes the slice that opens a unit.
    pub fn prime(&mut self, t: &mut Tracer, req: u64) {
        self.last = factor_of(SLICE_CYCLES, self.run(t, req, SLICE_CYCLES));
    }

    /// Takes the slice that closes a unit timed since the previous slice
    /// and returns the unit's host factor: the mean of the factors of the
    /// two slices around it.
    pub fn factor(&mut self, t: &mut Tracer, req: u64) -> f64 {
        let now = factor_of(SLICE_CYCLES, self.run(t, req, SLICE_CYCLES));
        let f = (self.last + now) / 2.0;
        self.last = now;
        f
    }

    /// The reference's own rate per thread over every cycle it ran.
    pub fn rate(&self) -> f64 {
        self.cycles as f64 / self.time.as_secs_f64()
    }

    pub fn misrouted(&self) -> u64 {
        self.meshes.iter().map(|m| m.stats().misrouted).sum()
    }
}
