//! The four workloads. Each is a closed loop over a fixed amount of work:
//! a thread sends its next request only when the previous one finished.
//! Everything before the timed phase (backend construction, buffers, the
//! warm-up) is set-up.
//!
//! The workloads touch the allocator layers only through their public
//! entry points: `mem_api::{BackendRegistry, MemBackend}` for the typed
//! pools, `pools::global::{raw_alloc, raw_dealloc, stats}` for the
//! size-class engine, `pools::reclaim::reclaim` and
//! `pools::heap_profile::gauges`.

use crate::host;
use crate::probe::{Layer, NoTrace, Probe};
use mem_api::{Allocation, BackendRegistry, BackendStats, MemBackend, Structured};
use pools::global::{self, raw_alloc, raw_dealloc, GlobalAllocStats};
use pools::heap_profile;
use pools::structure_pool::Reusable;
use std::alloc::Layout;
use std::hint::black_box;
use std::sync::mpsc::sync_channel;
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    TypedSteady,
    TypedBurst,
    XthreadHeap,
    ChurnReclaim,
}

pub const ALL: [Workload; 4] =
    [Workload::TypedSteady, Workload::TypedBurst, Workload::XthreadHeap, Workload::ChurnReclaim];

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::TypedSteady => "typed-steady",
            Workload::TypedBurst => "typed-burst",
            Workload::XthreadHeap => "xthread-heap",
            Workload::ChurnReclaim => "churn-reclaim",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How much work a trial does: `Full` is the benchmark, `Smoke` the in-bin
/// tests. Full trials take 0.5 to 1.5 s on a 2-vCPU Xeon: short, so that a
/// run's median rests on dozens of trials, each a fresh process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    #[cfg_attr(not(test), allow(dead_code))]
    Smoke,
}

impl Size {
    fn pick(self, full: usize, smoke: usize) -> usize {
        match self {
            Size::Full => full,
            Size::Smoke => smoke,
        }
    }
}

/// What one trial did and measured, before any oracle is applied.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Timed requests.
    pub requests: u64,
    /// Timed alloc/free pairs.
    pub pairs: u64,
    pub setup: Duration,
    /// Timed wall time. One thread runs at a time in every workload, so
    /// this is also the thread time the trace ledger divides up.
    pub wall: Duration,
    /// Per-request latency of every timed request.
    pub latencies_ns: Vec<u64>,
    /// Checksum of the outputs, and what the allocation-free reference
    /// computed from the seed says it must be.
    pub checksum: u64,
    pub expected: u64,
    /// Ledger identities that did not hold.
    pub breaches: Vec<String>,
    /// Per-layer counters, named `<module>.<metric>`.
    pub layers: Vec<(&'static str, f64)>,
}

impl Outcome {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.breaches.push(what());
        }
    }
}

/// Run workload `w` with inputs drawn from `seed`.
pub fn run<P: Probe>(w: Workload, seed: u64, size: Size, probe: &mut P) -> Outcome {
    match w {
        Workload::TypedSteady => typed_steady(seed, size, probe),
        Workload::TypedBurst => typed_burst(seed, size, probe),
        Workload::XthreadHeap => xthread_heap(seed, size, probe),
        Workload::ChurnReclaim => churn_reclaim(seed, size, probe),
    }
}

// ------------------------------------------------------------ shared parts

/// SplitMix64: advance `state` and return the next output.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn mix64(x: u64) -> u64 {
    splitmix(&mut { x })
}

/// The seed of tree `i` in stream `stream` (one stream per thread).
fn tree_seed(seed: u64, stream: u64, i: u64) -> u64 {
    mix64(seed.wrapping_add(stream << 40).wrapping_add(i))
}

fn child_seed(seed: u64, side: u64) -> u64 {
    seed.wrapping_mul(2).wrapping_add(1 + side)
}

/// The allocation-free reference: the node-data sum of a depth-`depth`
/// tree built from `seed` (root `seed`, children `2s+1` and `2s+2`).
pub fn tree_sum(depth: u32, seed: u64) -> u64 {
    if depth == 0 {
        return seed;
    }
    seed.wrapping_add(tree_sum(depth - 1, child_seed(seed, 0)))
        .wrapping_add(tree_sum(depth - 1, child_seed(seed, 1)))
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

const MIB: f64 = (1 << 20) as f64;

/// The start of a trial's timed phase.
struct Timed {
    setup: Duration,
    start: Instant,
    usage: host::Usage,
}

impl Timed {
    fn start(setup_start: Instant) -> Timed {
        let start = Instant::now();
        Timed { setup: start - setup_start, start, usage: host::usage() }
    }

    /// Close the timed phase: wall time, set-up time and the OS counters.
    fn finish(self, out: &mut Outcome) {
        out.wall = self.start.elapsed();
        out.setup = self.setup;
        let u = host::usage();
        out.layers.extend([
            ("os.minor_faults", (u.minor_faults - self.usage.minor_faults) as f64),
            (
                "os.invol_ctx_switches",
                (u.invol_ctx_switches - self.usage.invol_ctx_switches) as f64,
            ),
            ("os.cpu_util", (u.cpu_ns - self.usage.cpu_ns) as f64 / out.wall.as_nanos() as f64),
        ]);
    }
}

/// `raw_alloc`, with allocation failure reported as such.
fn alloc_block(layout: Layout) -> *mut u8 {
    let p = raw_alloc(layout);
    if p.is_null() {
        std::alloc::handle_alloc_error(layout);
    }
    p
}

/// Run `f`, a batch of `calls` raw allocator calls of `layer`, in one span.
fn raw_batch<Q: Probe, R>(q: &mut Q, layer: Layer, calls: u64, f: impl FnOnce() -> R) -> R {
    q.enter(layer);
    let r = f();
    q.exit_batch(calls);
    r
}

/// Size-class counters over the timed phase.
fn global_layers(before: &GlobalAllocStats, after: &GlobalAllocStats, out: &mut Outcome) {
    let allocs = after.class_allocs - before.class_allocs;
    let frees = after.class_frees - before.class_frees;
    out.layers.extend([
        ("pools.global.cache_hit_rate", ratio(after.cache_hits - before.cache_hits, allocs)),
        (
            "pools.global.refills_per_kalloc",
            1000.0 * ratio(after.class_refills - before.class_refills, allocs),
        ),
        ("pools.global.remote_share", ratio(after.remote_frees - before.remote_frees, frees)),
        ("pools.global.remote_pending_end", after.remote_pending as f64),
        ("pools.global.slabs_carved", (after.slabs_carved - before.slabs_carved) as f64),
        ("pools.global.recarved_slabs", (after.recarved_slabs - before.recarved_slabs) as f64),
    ]);
}

/// The size-class ledger at the end of a workload that freed everything
/// it allocated: `expected_allocs` blocks in, as many out, and every
/// remote free either drained or still pending.
fn global_ledger(
    start: &GlobalAllocStats,
    end: &GlobalAllocStats,
    expected: u64,
    out: &mut Outcome,
) {
    let allocs = end.class_allocs - start.class_allocs;
    let frees = end.class_frees - start.class_frees;
    out.check(allocs == expected && frees == expected, || {
        format!("class_allocs {allocs} / class_frees {frees}, expected {expected} each")
    });
    out.check(end.remote_frees == end.remote_drained + end.remote_pending, || {
        format!(
            "remote_frees {} != remote_drained {} + remote_pending {}",
            end.remote_frees, end.remote_drained, end.remote_pending
        )
    });
}

// ------------------------------------------------------- typed workloads

/// Table 1 case 1: a depth-1 binary tree, a root and two leaves.
const TYPED_DEPTH: u32 = 1;

/// A `typed-steady` request holds 192 spans around 10 to 40 ns calls, so a
/// traced run records the inside of about one in this many.
const STEADY_TRACE_ONE_IN: u64 = 16;

/// The typed workloads' structure: a tree of boxed nodes whose links
/// survive pool reuse, so a hit re-initialises data without allocating.
pub struct Tree {
    root: Box<Node>,
}

struct Node {
    left: Option<Box<Node>>,
    right: Option<Box<Node>>,
    data: u64,
}

impl Node {
    fn build(depth: u32, seed: u64) -> Box<Node> {
        let kids = |side| (depth > 0).then(|| Node::build(depth - 1, child_seed(seed, side)));
        Box::new(Node { left: kids(0), right: kids(1), data: seed })
    }

    fn reinit(&mut self, depth: u32, seed: u64) {
        self.data = seed;
        if depth > 0 {
            for (side, slot) in [(0, &mut self.left), (1, &mut self.right)] {
                let s = child_seed(seed, side);
                match slot {
                    Some(n) => n.reinit(depth - 1, s),
                    None => *slot = Some(Node::build(depth - 1, s)),
                }
            }
        }
    }

    fn sum(&self) -> u64 {
        let kid = |n: &Option<Box<Node>>| n.as_ref().map_or(0, |n| n.sum());
        self.data.wrapping_add(kid(&self.left)).wrapping_add(kid(&self.right))
    }
}

impl Reusable for Tree {
    type Params = u64;

    fn fresh(seed: &u64) -> Self {
        Tree { root: Node::build(TYPED_DEPTH, *seed) }
    }

    fn reinit(&mut self, seed: &u64) {
        self.root.reinit(TYPED_DEPTH, *seed);
    }
}

impl Structured for Tree {
    fn node_count(_: &u64) -> u32 {
        (1 << (TYPED_DEPTH + 1)) - 1
    }

    fn node_size(_: &u64, _: u32) -> u32 {
        std::mem::size_of::<Node>() as u32
    }

    fn checksum(&self) -> u64 {
        self.root.sum()
    }
}

fn typed_backend() -> Arc<dyn MemBackend<Tree>> {
    BackendRegistry::<Tree>::standard().build("amplify").expect("`amplify` is a standard backend")
}

fn typed_expected(seed: u64, ops: u64) -> u64 {
    (0..ops).fold(0u64, |acc, i| acc.wrapping_add(tree_sum(TYPED_DEPTH, tree_seed(seed, 0, i))))
}

/// Typed-pool counters over the timed phase, and the typed ledger at the
/// end: every alloc is a hit or a fresh build, nothing is left live, and
/// the backend saw exactly `ops` pairs.
fn typed_finish(before: BackendStats, after: BackendStats, ops: u64, out: &mut Outcome) {
    let allocs = after.allocs() - before.allocs();
    out.layers.extend([
        ("pools.magazine.hit_rate", ratio(after.pool_hits() - before.pool_hits(), allocs)),
        (
            "pools.depot.swaps_per_kop",
            1000.0 * ratio(after.depot_swaps() - before.depot_swaps(), allocs),
        ),
        (
            "pools.depot.parks_per_kop",
            1000.0 * ratio(after.depot_parks() - before.depot_parks(), allocs),
        ),
        ("pools.pool_box.slab_carves", (after.slab_carves() - before.slab_carves()) as f64),
        (
            "pools.sharded.failed_locks",
            (after.contention_events() - before.contention_events()) as f64,
        ),
    ]);
    out.check(after.pool_hits() + after.fresh_allocs() == after.allocs(), || {
        format!(
            "pool_hits {} + fresh_allocs {} != allocs {}",
            after.pool_hits(),
            after.fresh_allocs(),
            after.allocs()
        )
    });
    out.check(after.live_bytes() == 0, || format!("live_bytes {} at the end", after.live_bytes()));
    out.check(after.allocs() == ops && after.frees() == ops, || {
        format!("allocs {} / frees {}, expected {ops} each", after.allocs(), after.frees())
    });
}

fn typed_cycle<Q: Probe>(backend: &dyn MemBackend<Tree>, seed: u64, q: &mut Q) -> u64 {
    q.enter(Layer::MemAlloc);
    let t = backend.alloc(&seed);
    q.exit();
    q.enter(Layer::Use);
    let sum = black_box(&t).checksum();
    q.exit();
    q.enter(Layer::MemFree);
    backend.free(t);
    q.exit();
    sum
}

/// Pairs per `typed-steady` request.
const STEADY_OPS: usize = 64;

fn steady_request<Q: Probe>(
    backend: &dyn MemBackend<Tree>,
    seed: u64,
    next: &mut u64,
    q: &mut Q,
) -> u64 {
    (0..STEADY_OPS).fold(0u64, |acc, _| {
        *next += 1;
        acc.wrapping_add(typed_cycle(backend, tree_seed(seed, 0, *next - 1), q))
    })
}

/// `typed-steady`: alloc → checksum → free, over and over. Every op after
/// the first is a magazine hit, so the typed hit path is the whole cost.
fn typed_steady<P: Probe>(seed: u64, size: Size, probe: &mut P) -> Outcome {
    let setup_start = Instant::now();
    let backend = typed_backend();
    let requests = size.pick(125_000, 1_000);
    let warm = requests / 100;
    let mut out =
        Outcome { latencies_ns: Vec::with_capacity(requests - warm), ..Outcome::default() };
    let mut sum = 0u64;
    let mut i = 0u64;
    for _ in 0..warm {
        sum = sum.wrapping_add(steady_request(&*backend, seed, &mut i, &mut NoTrace));
    }
    let before = backend.stats();
    let timed = Timed::start(setup_start);
    for _ in warm..requests {
        let t0 = Instant::now();
        let s = if probe.request(STEADY_TRACE_ONE_IN) {
            steady_request(&*backend, seed, &mut i, probe)
        } else {
            steady_request(&*backend, seed, &mut i, &mut NoTrace)
        };
        probe.exit();
        out.latencies_ns.push(t0.elapsed().as_nanos() as u64);
        sum = sum.wrapping_add(s);
    }
    timed.finish(&mut out);
    out.requests = (requests - warm) as u64;
    out.pairs = out.requests * STEADY_OPS as u64;
    out.checksum = sum;
    out.expected = typed_expected(seed, i);
    typed_finish(before, backend.stats(), i, &mut out);
    out
}

/// Structures `typed-burst` holds at once: 16 magazines' worth.
const BURST_HELD: usize = 512;

fn burst_round<Q: Probe>(
    backend: &dyn MemBackend<Tree>,
    seed: u64,
    next: &mut u64,
    held: &mut Vec<Allocation<Tree>>,
    q: &mut Q,
) -> u64 {
    // The 512 allocs, and the 512 frees, run back to back: one span each
    // times them with the timer's error spread over the batch.
    q.enter(Layer::MemAlloc);
    for _ in 0..BURST_HELD {
        held.push(backend.alloc(&tree_seed(seed, 0, *next)));
        *next += 1;
    }
    q.exit_batch(BURST_HELD as u64);
    q.enter(Layer::Use);
    let sum = held.iter().fold(0u64, |acc, t| acc.wrapping_add(black_box(t).checksum()));
    q.exit();
    q.enter(Layer::MemFree);
    while let Some(t) = held.pop() {
        backend.free(t);
    }
    q.exit_batch(BURST_HELD as u64);
    sum
}

/// `typed-burst`: rounds of 512 allocs, a checksum pass, and 512 LIFO
/// frees. Holding 16 magazines' worth forces depot swaps and parks.
fn typed_burst<P: Probe>(seed: u64, size: Size, probe: &mut P) -> Outcome {
    let setup_start = Instant::now();
    let backend = typed_backend();
    let rounds = size.pick(10_000, 100);
    let warm = rounds / 100;
    let mut out = Outcome { latencies_ns: Vec::with_capacity(rounds - warm), ..Outcome::default() };
    let mut held = Vec::with_capacity(BURST_HELD);
    let mut sum = 0u64;
    let mut next = 0u64;
    for _ in 0..warm {
        sum = sum.wrapping_add(burst_round(&*backend, seed, &mut next, &mut held, &mut NoTrace));
    }
    let before = backend.stats();
    let timed = Timed::start(setup_start);
    for _ in warm..rounds {
        let t0 = Instant::now();
        // A round holds three spans, so every one is traced inside.
        probe.request(1);
        let s = burst_round(&*backend, seed, &mut next, &mut held, probe);
        probe.exit();
        out.latencies_ns.push(t0.elapsed().as_nanos() as u64);
        sum = sum.wrapping_add(s);
    }
    timed.finish(&mut out);
    out.requests = (rounds - warm) as u64;
    out.pairs = out.requests * BURST_HELD as u64;
    out.checksum = sum;
    out.expected = typed_expected(seed, next);
    typed_finish(before, backend.stats(), next, &mut out);
    out
}

// ------------------------------------------------------ xthread-heap

const HEAP_DEPTH: u32 = 5;
const HEAP_NODES: u64 = (1 << (HEAP_DEPTH + 1)) - 1;
const HEAP_THREADS: usize = 2;
/// Requests per turn.
const HEAP_ROUND: usize = 256;
/// A 1.7 us request holds five spans, so a traced run records the inside of
/// about one in this many.
const HEAP_TRACE_ONE_IN: u64 = 4;

/// A 24-byte tree node in a `raw_alloc` block.
#[repr(C)]
struct HeapNode {
    left: *mut HeapNode,
    right: *mut HeapNode,
    data: u64,
}

const HEAP_NODE: Layout = Layout::new::<HeapNode>();

/// A tree of [`HeapNode`]s, owned by whichever thread holds it.
struct HeapTree(*mut HeapNode);

// SAFETY: a `HeapTree` is the only handle to its nodes, so sending it moves
// their ownership whole; `raw_dealloc` accepts a block from any thread.
unsafe impl Send for HeapTree {}

impl HeapTree {
    /// A depth-[`HEAP_DEPTH`] tree built from `seed`.
    fn build<Q: Probe>(seed: u64, q: &mut Q) -> HeapTree {
        fn node(depth: u32, seed: u64) -> *mut HeapNode {
            let n = alloc_block(HEAP_NODE).cast::<HeapNode>();
            let (left, right) = if depth > 0 {
                (node(depth - 1, child_seed(seed, 0)), node(depth - 1, child_seed(seed, 1)))
            } else {
                (std::ptr::null_mut(), std::ptr::null_mut())
            };
            // SAFETY: `n` is a fresh block with `HeapNode`'s size and
            // alignment, owned by nobody else yet.
            unsafe { n.write(HeapNode { left, right, data: seed }) };
            n
        }
        HeapTree(raw_batch(q, Layer::RawAlloc, HEAP_NODES, || node(HEAP_DEPTH, seed)))
    }

    fn checksum(&self) -> u64 {
        fn sum(n: *const HeapNode) -> u64 {
            if n.is_null() {
                return 0;
            }
            // SAFETY: every non-null link in a live tree points at an
            // initialised node of that tree.
            let n = unsafe { &*n };
            n.data.wrapping_add(sum(n.left)).wrapping_add(sum(n.right))
        }
        sum(self.0)
    }

    fn free<Q: Probe>(self, q: &mut Q) {
        fn free(n: *mut HeapNode) {
            if n.is_null() {
                return;
            }
            // SAFETY: as in `checksum`; the tree is consumed, so each node
            // is read and freed exactly once.
            let (left, right) = unsafe { ((*n).left, (*n).right) };
            free(left);
            free(right);
            // SAFETY: `n` came from `alloc_block(HEAP_NODE)` and is freed
            // once.
            unsafe { raw_dealloc(n.cast(), HEAP_NODE) };
        }
        raw_batch(q, Layer::RawFree, HEAP_NODES, || free(self.0));
    }
}

/// One `xthread-heap` request: build two trees and checksum them, free one
/// here, queue the other for the peer, and free one tree the peer shipped.
fn heap_request<Q: Probe>(
    seeds: [u64; 2],
    outgoing: &mut Vec<HeapTree>,
    incoming: &mut Vec<HeapTree>,
    q: &mut Q,
) -> u64 {
    let local = HeapTree::build(seeds[0], q);
    let shipped = HeapTree::build(seeds[1], q);
    q.enter(Layer::Use);
    let sum = local.checksum().wrapping_add(shipped.checksum());
    q.exit();
    local.free(q);
    outgoing.push(shipped);
    if let Some(t) = incoming.pop() {
        t.free(q);
    }
    sum
}

/// `xthread-heap`: two threads build depth-5 trees of 24-byte size-class
/// blocks; half die where they were built and half on the peer, so half the
/// frees are cross-thread. The threads take turns: a round of
/// [`HEAP_ROUND`] requests, then the round's shipped trees and the turn go
/// to the peer. Turns keep every request the same work however the host
/// schedules the two threads.
fn xthread_heap<P: Probe>(seed: u64, size: Size, probe: &mut P) -> Outcome {
    type Batch = Vec<HeapTree>;
    type Started = Option<(Timed, GlobalAllocStats)>;
    let setup_start = Instant::now();
    let start_stats = global::stats();
    let rounds = size.pick(400, 4);
    let warm = rounds / 50;
    let (tx0, rx0) = sync_channel::<Batch>(1);
    let (tx1, rx1) = sync_channel::<Batch>(1);
    tx0.send(Vec::new()).expect("thread 0's inbox is open");
    let lanes = [(tx1, rx0), (tx0, rx1)];
    let mut results: Vec<(u64, Vec<u64>, Started, P)> = std::thread::scope(|s| {
        let handles: Vec<_> = lanes
            .into_iter()
            .enumerate()
            .map(|(t, (outbox, inbox))| {
                let mut q = probe.for_thread(t as u32 + 1);
                s.spawn(move || {
                    let (mut sum, mut started) = (0u64, None);
                    let mut lat = Vec::with_capacity((rounds - warm) * HEAP_ROUND);
                    let mut spare = Vec::with_capacity(HEAP_ROUND);
                    for r in 0..rounds {
                        let mut incoming = inbox.recv().expect("the peer passes the turn back");
                        if t == 0 && r == warm {
                            // The peer is parked until this round ends.
                            let before = global::stats();
                            started = Some((Timed::start(setup_start), before));
                        }
                        let mut outgoing = std::mem::take(&mut spare);
                        for j in 0..HEAP_ROUND {
                            let i = (r * HEAP_ROUND + j) as u64;
                            let seeds = [0, 1].map(|k| tree_seed(seed, 2 * t as u64 + k, i));
                            if r < warm {
                                let s =
                                    heap_request(seeds, &mut outgoing, &mut incoming, &mut NoTrace);
                                sum = sum.wrapping_add(s);
                                continue;
                            }
                            let t0 = Instant::now();
                            let (out, inc) = (&mut outgoing, &mut incoming);
                            let s = if q.request(HEAP_TRACE_ONE_IN) {
                                heap_request(seeds, out, inc, &mut q)
                            } else {
                                heap_request(seeds, out, inc, &mut NoTrace)
                            };
                            q.exit();
                            lat.push(t0.elapsed().as_nanos() as u64);
                            sum = sum.wrapping_add(s);
                        }
                        for tree in incoming.drain(..) {
                            tree.free(&mut q);
                        }
                        spare = incoming;
                        outbox.send(outgoing).expect("the peer takes its turn");
                    }
                    drop(outbox);
                    for tree in inbox.into_iter().flatten() {
                        tree.free(&mut q);
                    }
                    (sum, lat, started, q)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("xthread-heap worker")).collect()
    });
    let mut out = Outcome::default();
    let (timed, before) =
        results.iter_mut().find_map(|r| r.2.take()).expect("thread 0 starts the timed phase");
    timed.finish(&mut out);
    let end = global::stats();
    for (sum, lat, _, q) in results {
        out.checksum = out.checksum.wrapping_add(sum);
        out.latencies_ns.extend(lat);
        probe.merge(q);
    }
    let trees_per_stream = (rounds * HEAP_ROUND) as u64;
    out.requests = (HEAP_THREADS * (rounds - warm) * HEAP_ROUND) as u64;
    out.pairs = out.requests * 2 * HEAP_NODES;
    out.expected = (0..2 * HEAP_THREADS as u64)
        .flat_map(|stream| (0..trees_per_stream).map(move |i| tree_seed(seed, stream, i)))
        .fold(0u64, |acc, s| acc.wrapping_add(tree_sum(HEAP_DEPTH, s)));
    global_layers(&before, &end, &mut out);
    let mapped = heap_profile::gauges().total_mapped_bytes() as f64 / MIB;
    out.layers.extend([
        ("pools.global.peak_mapped_mib", mapped),
        ("pools.global.trough_mapped_mib", mapped),
    ]);
    let allocs = 2 * HEAP_THREADS as u64 * trees_per_stream * HEAP_NODES;
    global_ledger(&start_stats, &end, allocs, &mut out);
    out
}

// ------------------------------------------------------ churn-reclaim

const CHURN_WORKERS: usize = 2;
/// Blocks per `churn-reclaim` request.
const CHURN_REQUEST: usize = 256;
/// Out of 256: blocks of each burst that survive into the next phase.
const CHURN_SURVIVE_PER_256: usize = 12;
const RECLAIM_WATERMARK: u64 = 4 << 20;
/// Block sizes the bursts draw from: all inside the size-class range,
/// skewed small.
const CHURN_SIZES: [usize; 6] = [32, 64, 96, 256, 1024, 4096];

fn churn_stream(seed: u64, phase: usize, worker: usize) -> u64 {
    seed.wrapping_add((phase as u64) << 32).wrapping_add(worker as u64)
}

fn churn_layout(draw: u64) -> Layout {
    let size = CHURN_SIZES[(draw % CHURN_SIZES.len() as u64) as usize];
    Layout::from_size_align(size, 8).expect("class sizes are valid layouts")
}

/// A live churn block: its address and the draw that sized and tagged it.
#[derive(Clone, Copy)]
struct Block {
    addr: usize,
    draw: u64,
}

/// One `churn-reclaim` request: [`CHURN_REQUEST`] blocks drawn from `rng`,
/// each block's first word then tagged with its draw (the touch).
fn churn_request<Q: Probe>(rng: &mut u64, blocks: &mut Vec<Block>, q: &mut Q) {
    let first = blocks.len();
    raw_batch(q, Layer::RawAlloc, CHURN_REQUEST as u64, || {
        for _ in 0..CHURN_REQUEST {
            let draw = splitmix(rng);
            blocks.push(Block { addr: alloc_block(churn_layout(draw)) as usize, draw });
        }
    });
    q.enter(Layer::Use);
    for b in &blocks[first..] {
        // SAFETY: every block is at least 32 bytes, 8-aligned, and owned by
        // this burst.
        unsafe { (b.addr as *mut u64).write(b.draw) };
    }
    q.exit();
}

/// One worker's burst: `n` blocks in requests of [`CHURN_REQUEST`].
fn burst<Q: Probe>(stream: u64, n: usize, q: &mut Q) -> (Vec<Block>, Vec<u64>) {
    let mut rng = stream;
    let mut blocks = Vec::with_capacity(n);
    let mut lat = Vec::with_capacity(n / CHURN_REQUEST);
    for _ in 0..n / CHURN_REQUEST {
        let t0 = Instant::now();
        // A request is 256 allocations long, so every one is traced inside.
        q.request(1);
        churn_request(&mut rng, &mut blocks, q);
        q.exit();
        lat.push(t0.elapsed().as_nanos() as u64);
    }
    (blocks, lat)
}

/// Free `blocks` in batches of [`CHURN_REQUEST`], returning the sum of the
/// tags they carried.
///
/// # Safety
/// Every block must be live, from [`burst`], and not used again.
unsafe fn free_blocks<Q: Probe>(blocks: &[Block], q: &mut Q) -> u64 {
    blocks.chunks(CHURN_REQUEST).fold(0u64, |acc, chunk| {
        let sum = raw_batch(q, Layer::RawFree, chunk.len() as u64, || {
            chunk.iter().fold(0u64, |acc, b| {
                // SAFETY: per this function's contract; `burst` tagged the
                // block's first word.
                unsafe {
                    let tag = (b.addr as *const u64).read();
                    raw_dealloc(b.addr as *mut u8, churn_layout(b.draw));
                    acc.wrapping_add(tag)
                }
            })
        });
        acc.wrapping_add(sum)
    })
}

/// What the timed churn phases add up to.
struct ChurnTally {
    reclaim_calls: u64,
    reclaim_total: Duration,
    reclaim_max: Duration,
    passes: u64,
    swept_blocks: u64,
    reclaimed_bytes: u64,
    peak_mapped: u64,
    occupancy_at_peak: f64,
    trough_mapped: u64,
}

impl Default for ChurnTally {
    fn default() -> Self {
        ChurnTally {
            reclaim_calls: 0,
            reclaim_total: Duration::ZERO,
            reclaim_max: Duration::ZERO,
            passes: 0,
            swept_blocks: 0,
            reclaimed_bytes: 0,
            peak_mapped: 0,
            occupancy_at_peak: 0.0,
            trough_mapped: u64::MAX,
        }
    }
}

/// A churn run's state from phase to phase.
struct Churn {
    seed: u64,
    blocks_per_worker: usize,
    residue: Vec<Block>,
    out: Outcome,
    tally: ChurnTally,
}

impl Churn {
    /// Check `live <= mapped` on the size-class gauges; returns both.
    fn gauge(&mut self, phase: usize, when: &str) -> (u64, u64) {
        let g = heap_profile::gauges();
        let (live, mapped) = (g.total_live_bytes(), g.total_mapped_bytes());
        self.out.check(live <= mapped, || {
            format!("phase {phase} {when}: live {live} > mapped {mapped}")
        });
        (live, mapped)
    }

    /// One phase: each worker's burst, then the quiesce on this thread.
    /// Last phase's residue dies, all of this burst but a residue dies,
    /// and `reclaim` trims mapped memory toward the watermark.
    fn phase<Q: Probe>(&mut self, phase: usize, q: &mut Q) {
        let (seed, n) = (self.seed, self.blocks_per_worker);
        // The workers take turns, so no request waits out another worker's
        // time slice.
        let bursts: Vec<(Vec<Block>, Vec<u64>, Q)> = std::thread::scope(|s| {
            (0..CHURN_WORKERS)
                .map(|w| {
                    let mut wq = q.for_thread(w as u32 + 1);
                    s.spawn(move || {
                        let (blocks, lat) = burst(churn_stream(seed, phase, w), n, &mut wq);
                        (blocks, lat, wq)
                    })
                    .join()
                    .expect("churn worker")
                })
                .collect()
        });
        let (live, mapped) = self.gauge(phase, "after the burst");
        if mapped > self.tally.peak_mapped {
            self.tally.peak_mapped = mapped;
            self.tally.occupancy_at_peak = ratio(live, mapped);
        }

        q.enter(Layer::Quiesce);
        // SAFETY: the residue and the bursts' blocks are live blocks from
        // `burst`; each is freed once and its slice dropped or cleared.
        let mut sum = unsafe { free_blocks(&self.residue, q) };
        self.residue.clear();
        for (blocks, lat, wq) in bursts {
            let (survivors, dead) = blocks.split_at(blocks.len() * CHURN_SURVIVE_PER_256 / 256);
            self.residue.extend_from_slice(survivors);
            // SAFETY: as above.
            sum = sum.wrapping_add(unsafe { free_blocks(dead, q) });
            self.out.latencies_ns.extend(lat);
            q.merge(wq);
        }
        self.out.checksum = self.out.checksum.wrapping_add(sum);
        q.enter(Layer::Reclaim);
        let t0 = Instant::now();
        let r = pools::reclaim::reclaim(RECLAIM_WATERMARK);
        let took = t0.elapsed();
        q.exit();
        q.exit();

        let t = &mut self.tally;
        t.reclaim_calls += 1;
        t.reclaim_total += took;
        t.reclaim_max = t.reclaim_max.max(took);
        t.passes += r.passes;
        t.swept_blocks += r.swept_blocks;
        t.reclaimed_bytes += r.reclaimed_bytes;
        let (_, mapped) = self.gauge(phase, "after the quiesce");
        self.tally.trough_mapped = self.tally.trough_mapped.min(mapped);
    }
}

/// `churn-reclaim`: bursts of mixed-size blocks on two workers, freed
/// cross-thread down to a residue, with a `reclaim` after every burst.
/// Phase 0 is the warm-up; the rest are timed.
fn churn_reclaim<P: Probe>(seed: u64, size: Size, probe: &mut P) -> Outcome {
    let setup_start = Instant::now();
    let start_stats = global::stats();
    let phases = size.pick(24, 3);
    let n = size.pick(65_536, 4_096);
    let requests = (phases - 1) * CHURN_WORKERS * n / CHURN_REQUEST;
    let mut c = Churn {
        seed,
        blocks_per_worker: n,
        residue: Vec::new(),
        out: Outcome::default(),
        tally: ChurnTally::default(),
    };
    c.phase(0, &mut NoTrace);
    // Only the timed phases count toward latency and the tallies.
    c.out.latencies_ns = Vec::with_capacity(requests);
    c.tally = ChurnTally::default();
    let before = global::stats();
    let timed = Timed::start(setup_start);
    for phase in 1..phases {
        c.phase(phase, probe);
    }
    timed.finish(&mut c.out);
    let after = global::stats();
    let Churn { residue, mut out, tally: t, .. } = c;
    // SAFETY: the last residue is live and dropped right after.
    out.checksum = out.checksum.wrapping_add(unsafe { free_blocks(&residue, &mut NoTrace) });
    let end = global::stats();
    out.requests = requests as u64;
    out.pairs = ((phases - 1) * CHURN_WORKERS * n) as u64;
    out.expected = (0..phases)
        .flat_map(|p| (0..CHURN_WORKERS).map(move |w| churn_stream(seed, p, w)))
        .fold(0u64, |acc, mut rng| (0..n).fold(acc, |acc, _| acc.wrapping_add(splitmix(&mut rng))));
    global_layers(&before, &after, &mut out);
    out.layers.extend([
        ("pools.global.peak_mapped_mib", t.peak_mapped as f64 / MIB),
        ("pools.global.trough_mapped_mib", t.trough_mapped as f64 / MIB),
        ("pools.heap_profile.occupancy_at_peak", t.occupancy_at_peak),
        ("pools.reclaim.calls", t.reclaim_calls as f64),
        ("pools.reclaim.total_ms", t.reclaim_total.as_secs_f64() * 1e3),
        ("pools.reclaim.max_ms", t.reclaim_max.as_secs_f64() * 1e3),
        (
            "pools.reclaim.share",
            ratio(t.reclaim_total.as_nanos() as u64, out.wall.as_nanos() as u64),
        ),
        ("pools.reclaim.passes", t.passes as f64),
        ("pools.reclaim.swept_blocks", t.swept_blocks as f64),
        ("pools.reclaim.reclaimed_mib", t.reclaimed_bytes as f64 / MIB),
    ]);
    global_ledger(&start_stats, &end, (phases * CHURN_WORKERS * n) as u64, &mut out);
    out
}
