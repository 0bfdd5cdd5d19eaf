//! Spans around the benchmark's calls into each layer.
//!
//! Every layer call goes through [`Tracer::begin`] / [`Tracer::end`], so
//! the same code path yields both the outside-timed durations the
//! workloads report and, when tracing is on, a span tree kept in memory
//! and written as Chrome trace-event JSON at the end of the run. Numbers
//! that only the program can see (a phase inside `Sim::with_config`, job
//! time inside a served campaign) enter the tree as *reported* child
//! spans, flagged as such, so a layer's self time never mixes the two
//! silently.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use mtl_sweep::Json;

/// Layers, named after the crates whose public functions the benchmark
/// calls. `bench` is the benchmark's own code between layer calls.
pub const LAYERS: [&str; 11] = [
    "bench",
    "mtl-core",
    "mtl-translate",
    "mtl-sim.build",
    "mtl-sim.opt",
    "mtl-sim.run",
    "mtl-model",
    "mtl-net.ref",
    "mtl-fault",
    "mtl-sweep",
    "mtl-serve",
];

struct Span {
    layer: &'static str,
    name: String,
    /// Requests (a repetition, a campaign) group their spans under one id.
    req: u64,
    start: Duration,
    dur: Duration,
    parent: Option<usize>,
    reported: bool,
}

/// An open span; hand it back to [`Tracer::end`].
#[must_use]
pub struct Open {
    index: Option<usize>,
    t0: Instant,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    last_closed: Option<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            last_closed: None,
        }
    }

    pub fn begin(&mut self, layer: &'static str, name: &str, req: u64) -> Open {
        let t0 = Instant::now();
        let index = self.enabled.then(|| {
            self.spans.push(Span {
                layer,
                name: name.to_string(),
                req,
                start: t0 - self.origin,
                dur: Duration::ZERO,
                parent: self.stack.last().copied(),
                reported: false,
            });
            self.stack.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        Open { index, t0 }
    }

    /// Closes `open` and returns its duration (measured whether or not
    /// tracing is on).
    pub fn end(&mut self, open: Open) -> Duration {
        let dur = open.t0.elapsed();
        if let Some(i) = open.index {
            self.spans[i].dur = dur;
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(i), "spans must close innermost first");
            self.last_closed = Some(i);
        }
        dur
    }

    /// Times `f` as one span.
    pub fn time<T>(
        &mut self,
        layer: &'static str,
        name: &str,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let open = self.begin(layer, name, req);
        let out = f();
        (out, self.end(open))
    }

    /// Records a duration the program reported about work inside the most
    /// recently closed span, as a child of that span, clipped so children
    /// never exceed their parent.
    pub fn reported(&mut self, layer: &'static str, name: &str, dur: Duration) {
        if !self.enabled {
            return;
        }
        let Some(parent) = self.last_closed else { return };
        let taken: Duration =
            self.spans.iter().filter(|s| s.parent == Some(parent)).map(|s| s.dur).sum();
        let room = self.spans[parent].dur.saturating_sub(taken);
        let span = Span {
            layer,
            name: name.to_string(),
            req: self.spans[parent].req,
            start: self.spans[parent].start + taken,
            dur: dur.min(room),
            parent: Some(parent),
            reported: true,
        };
        self.spans.push(span);
    }

    /// Self time per layer: each span's duration minus the part its
    /// children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, Duration> {
        let mut child_sum = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_sum[p] += s.dur;
            }
        }
        let mut out: BTreeMap<&'static str, Duration> =
            LAYERS.iter().map(|l| (*l, Duration::ZERO)).collect();
        for (s, children) in self.spans.iter().zip(child_sum) {
            *out.entry(s.layer).or_default() += s.dur.saturating_sub(children);
        }
        out
    }

    /// The span tree as Chrome trace-event JSON (loads in Perfetto).
    pub fn chrome_json(&self) -> Json {
        let events: Vec<Json> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let mut args = Json::obj();
                args.set("id", i).set("req", s.req).set("reported", s.reported);
                if let Some(p) = s.parent {
                    args.set("parent", p);
                }
                let mut e = Json::obj();
                e.set("name", s.name.as_str())
                    .set("cat", s.layer)
                    .set("ph", "X")
                    .set("ts", s.start.as_secs_f64() * 1e6)
                    .set("dur", s.dur.as_secs_f64() * 1e6)
                    .set("pid", 1u64)
                    .set("tid", 1u64)
                    .set("args", args);
                e
            })
            .collect();
        let mut doc = Json::obj();
        doc.set("traceEvents", Json::Arr(events)).set("displayTimeUnit", "ms");
        doc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_reported_spans_are_clipped() {
        let mut t = Tracer::new(true);
        let outer = t.begin("bench", "outer", 0);
        let (_, inner) =
            t.time("mtl-core", "inner", 0, || std::thread::sleep(Duration::from_millis(5)));
        t.reported("mtl-sim.opt", "comp", Duration::from_secs(3600));
        let total = t.end(outer);
        let selfs = t.self_times();
        assert_eq!(selfs["mtl-core"], Duration::ZERO, "a fully reported child covers its parent");
        assert_eq!(selfs["mtl-sim.opt"], inner);
        assert_eq!(selfs["bench"], total - inner);
        let sum: Duration = selfs.values().sum();
        assert_eq!(sum, total, "self times partition the root span");
    }

    #[test]
    fn disabled_tracer_records_nothing_but_still_times() {
        let mut t = Tracer::new(false);
        let (_, d) = t.time("mtl-core", "x", 0, || std::thread::sleep(Duration::from_millis(1)));
        assert!(d >= Duration::from_millis(1));
        assert!(t.self_times().values().all(|d| d.is_zero()));
        assert_eq!(
            t.chrome_json().get("traceEvents").and_then(Json::as_arr).map(<[Json]>::len),
            Some(0)
        );
    }
}
