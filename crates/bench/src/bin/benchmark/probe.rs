//! Span tracing for the traced run, kept out of the untraced one.
//!
//! Every workload is generic over [`Probe`]. The untraced build uses
//! [`NoTrace`], whose methods are empty and inline away, so the end-to-end
//! numbers carry no tracing cost. The traced build uses [`Recorder`]: one
//! per thread, each with a preallocated span buffer that is written out as a
//! Chrome trace-event file when the trial ends.
//!
//! Every request gets a span. Where a request holds many short calls, only
//! a random sample of requests gets spans inside it, and each of their
//! spans' self time is weighted by the inverse of that chance, so a layer's
//! weighted sum estimates its time over the whole run. Sampling keeps the
//! tracing from swamping the calls it times: a `MemBackend` call takes 20
//! to 40 ns, a timer read 25 to 40. Raw size-class calls, about 5 ns each,
//! are timed in batches (a tree's 63, a request's 256) for the same
//! reason.
//!
//! Two costs are calibrated when a recorder starts. The timer cost, what an
//! empty span measures inside itself (the `Instant` pair and the
//! bookkeeping between the reads), is subtracted from every span's
//! duration. The span cost, what one empty span adds to the time around
//! it, is charged to no layer: a span's self time is its duration minus its
//! children's durations and their span costs, and
//! [`Recorder::instrumentation_ns`] sums the span cost over all spans so the
//! ledger can take it out of the traced run's time.

use std::io::Write;
use std::time::Instant;

/// The layer a span belongs to. `Request` and `Quiesce` are the top-level
/// units of work; the rest are the layer calls made inside them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// One closed-loop request (its latency is the end-to-end metric).
    Request,
    /// The churn driver's free-and-reclaim step between bursts.
    Quiesce,
    /// `MemBackend::alloc`.
    MemAlloc,
    /// `MemBackend::free`.
    MemFree,
    /// A batch of `pools::global::raw_alloc` calls.
    RawAlloc,
    /// A batch of `pools::global::raw_dealloc` calls.
    RawFree,
    /// `pools::reclaim::reclaim`.
    Reclaim,
    /// The workload's own checksum or touch.
    Use,
}

pub const LAYERS: usize = 8;

impl Layer {
    fn index(self) -> usize {
        self as usize
    }

    pub fn name(self) -> &'static str {
        match self {
            Layer::Request => "request",
            Layer::Quiesce => "quiesce",
            Layer::MemAlloc => "mem_api.alloc",
            Layer::MemFree => "mem_api.free",
            Layer::RawAlloc => "pools.global.raw_alloc",
            Layer::RawFree => "pools.global.raw_dealloc",
            Layer::Reclaim => "pools.reclaim",
            Layer::Use => "workloads.use",
        }
    }
}

/// Spans kept per thread for the trace file; later spans still count
/// toward the per-layer totals.
const SPAN_CAP: usize = 1 << 16;

/// The tracing interface the workloads are written against.
pub trait Probe: Send + Sized {
    /// A fresh probe for worker thread `tid`, sharing this one's clock.
    fn for_thread(&self, tid: u32) -> Self;
    /// Open a request span; returns whether the spans inside it are to be
    /// recorded, drawn at random for about 1 request in `one_in`. The
    /// caller runs the request's body under this probe if so, under
    /// [`NoTrace`] if not.
    fn request(&mut self, one_in: u64) -> bool;
    /// Open a span of `layer`, nested in the innermost open one.
    fn enter(&mut self, layer: Layer);
    /// Close the innermost open span, which covered `calls` calls of its
    /// layer.
    fn exit_batch(&mut self, calls: u64);
    /// Close the innermost open span, which covered one call.
    fn exit(&mut self) {
        self.exit_batch(1);
    }
    /// Fold a finished worker's probe into this one.
    fn merge(&mut self, other: Self);
}

/// The untraced probe: every method is a no-op.
pub struct NoTrace;

impl Probe for NoTrace {
    #[inline(always)]
    fn for_thread(&self, _: u32) -> Self {
        NoTrace
    }
    #[inline(always)]
    fn request(&mut self, _: u64) -> bool {
        false
    }
    #[inline(always)]
    fn enter(&mut self, _: Layer) {}
    #[inline(always)]
    fn exit_batch(&mut self, _: u64) {}
    #[inline(always)]
    fn merge(&mut self, _: Self) {}
}

/// One layer's totals over the spans closed.
#[derive(Debug, Clone, Copy, Default)]
struct Tally {
    /// Self time and calls of the recorded spans, unweighted.
    self_ns: u64,
    calls: u64,
    /// Self time weighted by each span's inverse chance of being recorded.
    estimate_ns: f64,
}

struct Frame {
    layer: Layer,
    id: u64,
    start: Instant,
    /// Inverse chance that this span was recorded; 0 for a request whose
    /// inside went untraced, whose self time therefore means nothing.
    weight: f64,
    /// Corrected durations of closed children plus their span costs.
    child_ns: u64,
}

#[derive(Clone, Copy)]
struct SpanRec {
    layer: Layer,
    tid: u32,
    id: u64,
    parent: u64,
    request: u64,
    start_ns: u64,
    dur_ns: u64,
    self_ns: u64,
}

/// The clock every thread's recorder shares: a common origin for the trace
/// timestamps and the two calibrated costs.
#[derive(Clone, Copy)]
struct Clock {
    origin: Instant,
    /// What an empty span measures inside itself: the `Instant` pair and
    /// the bookkeeping between the two reads.
    timer_ns: u64,
    /// What one empty span adds to the time around it.
    span_ns: u64,
}

/// The recording probe.
pub struct Recorder {
    tid: u32,
    clock: Clock,
    next_id: u64,
    stack: Vec<Frame>,
    spans: Vec<SpanRec>,
    /// Spans kept for the trace file.
    keep: usize,
    closed: u64,
    tallies: [Tally; LAYERS],
    rng: u64,
    /// Per-call cost of each recorded `raw_alloc` batch.
    raw_alloc_ns: Vec<u64>,
}

impl Recorder {
    /// The main thread's recorder (tid 0), with both costs calibrated;
    /// workers derive theirs with [`Probe::for_thread`].
    pub fn new() -> Self {
        // Empty spans on an uncalibrated recorder that keeps none (spans
        // past the trace file's cap are the common case): what one measures
        // inside itself is the timer cost, what it adds around itself the
        // span cost. Each is the quietest of 31 batches of 1000, since
        // interference on a shared host only ever adds time.
        let origin = Instant::now();
        let mut probe = Recorder::with_clock(0, Clock { origin, timer_ns: 0, span_ns: 0 }, 0);
        let (mut timer_ns, mut span_ns) = (u64::MAX, u64::MAX);
        for _ in 0..31 {
            let inside = probe.tallies[Layer::Use.index()].self_ns;
            let t = Instant::now();
            for _ in 0..1000 {
                probe.enter(Layer::Use);
                probe.exit();
            }
            span_ns = span_ns.min(t.elapsed().as_nanos() as u64 / 1000);
            timer_ns = timer_ns.min((probe.tallies[Layer::Use.index()].self_ns - inside) / 1000);
        }
        Self::with_clock(0, Clock { origin, timer_ns, span_ns }, SPAN_CAP)
    }

    fn with_clock(tid: u32, clock: Clock, keep: usize) -> Self {
        Recorder {
            tid,
            clock,
            next_id: 1,
            stack: Vec::with_capacity(16),
            spans: Vec::with_capacity(keep),
            keep,
            closed: 0,
            tallies: [Tally::default(); LAYERS],
            rng: 0x9E37_79B9_7F4A_7C15 ^ u64::from(tid),
            raw_alloc_ns: Vec::new(),
        }
    }

    pub fn timer_ns(&self) -> u64 {
        self.clock.timer_ns
    }

    /// Mean self time of one recorded call of `layer`, in ns.
    pub fn per_call_ns(&self, layer: Layer) -> f64 {
        let t = &self.tallies[layer.index()];
        t.self_ns as f64 / t.calls.max(1) as f64
    }

    /// Estimated self time of `layer` over the whole run, in ns.
    pub fn estimate_ns(&self, layer: Layer) -> f64 {
        self.tallies[layer.index()].estimate_ns
    }

    /// The tracing's own cost: the span cost times the spans closed.
    pub fn instrumentation_ns(&self) -> u64 {
        self.closed * self.clock.span_ns
    }

    /// Per-call cost of each recorded `raw_alloc` batch, in ascending order.
    pub fn raw_alloc_samples_sorted(&self) -> Vec<u64> {
        let mut v = self.raw_alloc_ns.clone();
        v.sort_unstable();
        v
    }

    /// Write the kept spans as a Chrome trace-event JSON array (Perfetto
    /// and `chrome://tracing` open it).
    pub fn write_chrome_trace(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        out.write_all(b"[\n")?;
        for (i, s) in self.spans.iter().enumerate() {
            write!(
                out,
                "{}{{\"name\":\"{}\",\"cat\":\"benchmark\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"request\":{},\
                 \"self_ns\":{}}}}}",
                if i == 0 { "" } else { ",\n" },
                s.layer.name(),
                s.tid,
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3,
                s.id,
                s.parent,
                s.request,
                s.self_ns,
            )?;
        }
        out.write_all(b"\n]\n")?;
        out.flush()
    }

    /// A uniform draw: true with probability `1 / one_in`.
    fn draw(&mut self, one_in: u64) -> bool {
        // xorshift64: uniform enough for a sampling decision.
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        self.rng < u64::MAX / one_in
    }

    fn push(&mut self, layer: Layer, weight: f64) {
        // Ids are unique across threads: the thread id in the top bits.
        let id = (u64::from(self.tid) << 48) | self.next_id;
        self.next_id += 1;
        self.stack.push(Frame { layer, id, start: Instant::now(), weight, child_ns: 0 });
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Probe for Recorder {
    fn for_thread(&self, tid: u32) -> Self {
        Self::with_clock(tid, self.clock, SPAN_CAP)
    }

    fn request(&mut self, one_in: u64) -> bool {
        let deep = self.draw(one_in);
        self.push(Layer::Request, if deep { one_in as f64 } else { 0.0 });
        deep
    }

    fn enter(&mut self, layer: Layer) {
        let weight = self.stack.last().map_or(1.0, |f| f.weight);
        self.push(layer, weight);
    }

    fn exit_batch(&mut self, calls: u64) {
        let end = Instant::now();
        let f = self.stack.pop().expect("exit without a matching enter");
        let dur = ((end - f.start).as_nanos() as u64).saturating_sub(self.clock.timer_ns);
        let self_ns = dur.saturating_sub(f.child_ns);
        self.closed += 1;
        if f.weight > 0.0 {
            let t = &mut self.tallies[f.layer.index()];
            t.self_ns += self_ns;
            t.calls += calls;
            t.estimate_ns += self_ns as f64 * f.weight;
            if f.layer == Layer::RawAlloc {
                self.raw_alloc_ns.push(dur / calls.max(1));
            }
        }
        let (parent, request) = match self.stack.last_mut() {
            Some(p) => {
                p.child_ns += dur + self.clock.span_ns;
                (p.id, self.stack[0].id)
            }
            None => (0, f.id),
        };
        if self.spans.len() < self.keep {
            self.spans.push(SpanRec {
                layer: f.layer,
                tid: self.tid,
                id: f.id,
                parent,
                request,
                start_ns: (f.start - self.clock.origin).as_nanos() as u64,
                dur_ns: dur,
                self_ns,
            });
        }
    }

    fn merge(&mut self, other: Self) {
        for (t, o) in self.tallies.iter_mut().zip(other.tallies) {
            t.self_ns += o.self_ns;
            t.calls += o.calls;
            t.estimate_ns += o.estimate_ns;
        }
        self.closed += other.closed;
        let room = self.keep.saturating_sub(self.spans.len());
        self.spans.extend(other.spans.iter().take(room));
        self.raw_alloc_ns.extend_from_slice(&other.raw_alloc_ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_ids_link_up() {
        let mut r = Recorder::new();
        r.enter(Layer::Quiesce);
        r.enter(Layer::Reclaim);
        std::thread::sleep(std::time::Duration::from_millis(2));
        r.exit();
        r.exit();
        assert!(r.per_call_ns(Layer::Reclaim) >= 2e6);
        assert!(r.per_call_ns(Layer::Quiesce) < r.per_call_ns(Layer::Reclaim));
        assert_eq!(r.estimate_ns(Layer::Reclaim), r.tallies[Layer::Reclaim.index()].self_ns as f64);
        let (child, top) = (r.spans[0], r.spans[1]);
        assert_eq!(child.parent, top.id);
        assert_eq!(child.request, top.id);
        assert_eq!(top.parent, 0);
        assert_eq!(child.layer, Layer::Reclaim);
    }

    #[test]
    fn sampled_requests_weight_their_spans_by_the_inverse_chance() {
        let mut r = Recorder::new();
        let mut deep = 0u64;
        for _ in 0..16_000 {
            if r.request(16) {
                deep += 1;
                r.enter(Layer::RawFree);
                r.exit_batch(8);
            }
            r.exit();
        }
        assert!((800..1200).contains(&deep), "about 1 request in 16: {deep}");
        let t = r.tallies[Layer::RawFree.index()];
        assert_eq!(t.calls, 8 * deep);
        assert!((t.estimate_ns - t.self_ns as f64 * 16.0).abs() < 1.0);
        // Untraced requests add nothing to the request layer's estimate.
        assert_eq!(r.tallies[Layer::Request.index()].calls, deep);
        assert_eq!(r.closed, 16_000 + deep);
        assert!((0..100).all(|_| !NoTrace.request(1)));
    }
}
