//! In-memory span recording for the traced run, and the two evaluators
//! that emit per-layer spans from outside the library.
//!
//! Spans are timed around calls into each layer's public functions:
//! the library itself reads no clock. Each span records its wall time
//! and the CPU time its thread spent inside it, read from the kernel's
//! per-thread clock, so layers that run on several threads at once
//! can be added up and checked against the process's CPU clock.
//!
//! [`TracingEvaluator`] re-derives the engine's world evaluation from
//! `world_rng`, `generate_world_with`, the resolved counting strategy
//! and `fold_counts`, so the service's `flush` becomes the parent of
//! generate/count/fold spans. [`TimedCoordinator`] wraps the
//! distributed coordinator's `eval_span` and remembers every span it
//! was asked for, so the remote count and the wire codec can be
//! replayed locally afterwards.

use sfcluster::DistributedEvaluator;
use sfindex::BitLabels;
use sfscan::prepared::{PreparedAudit, WorldClass, WorldEvaluator};
use sfscan::Direction;
use sfstats::rng::world_rng;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    /// Id of the causing span; 0 for a root.
    pub parent: u64,
    /// Client iteration (request or batch) the span belongs to.
    pub request: u64,
    pub thread: u64,
    pub start: u64,
    pub end: u64,
    /// CPU time of the span's thread inside the span, ns. While the
    /// span is open it holds the thread's CPU clock at the start.
    pub cpu: u64,
    /// Units of work the span did (worlds, label reads, scores,
    /// bytes); 0 if none.
    pub work: u64,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock(clock: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "the kernel provides CPU-time clocks");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time consumed so far by the calling thread, ns.
pub fn thread_cpu_ns() -> u64 {
    cpu_clock(CLOCK_THREAD_CPUTIME_ID)
}

/// CPU time consumed so far by every thread of this process, ns.
pub fn process_cpu_ns() -> u64 {
    cpu_clock(CLOCK_PROCESS_CPUTIME_ID)
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);
/// CPU time worker threads spent after their last evaluation, up to
/// their exit, ns: executor work no span can cover.
static WORKER_TAIL_CPU: AtomicU64 = AtomicU64::new(0);

/// Lives in a worker thread's thread-local storage; its destructor
/// runs as the thread exits and adds the thread's tail to
/// [`WORKER_TAIL_CPU`].
struct WorkerTail {
    /// The thread's CPU clock when its last evaluation ended.
    last_eval_end: std::cell::Cell<u64>,
    worker: std::cell::Cell<bool>,
}

impl Drop for WorkerTail {
    fn drop(&mut self) {
        if self.worker.get() {
            let tail = thread_cpu_ns().saturating_sub(self.last_eval_end.get());
            WORKER_TAIL_CPU.fetch_add(tail, Ordering::Relaxed);
        }
    }
}

thread_local! {
    static THREAD_TAG: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
    static TAIL: WorkerTail = const {
        WorkerTail {
            last_eval_end: std::cell::Cell::new(0),
            worker: std::cell::Cell::new(false),
        }
    };
}

/// Worker-thread CPU after the last evaluation, summed over every
/// worker that has exited so far, ns.
pub fn worker_tail_cpu_ns() -> u64 {
    WORKER_TAIL_CPU.load(Ordering::Relaxed)
}

/// A small per-thread tag (thread ids are not numbers on stable Rust).
pub fn thread_tag() -> u64 {
    THREAD_TAG.with(|t| *t)
}

/// Collects spans in memory; they are written out once, at the end.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    /// Parent and request id for spans opened by evaluator threads,
    /// and the thread that set them: the in-process client sets them
    /// around each `flush`.
    parent: AtomicU64,
    request: AtomicU64,
    client: AtomicU64,
}

impl Tracer {
    pub fn new() -> Arc<Self> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            parent: AtomicU64::new(0),
            request: AtomicU64::new(0),
            client: AtomicU64::new(0),
        })
    }

    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    pub fn set_context(&self, parent: u64, request: u64) {
        self.parent.store(parent, Ordering::SeqCst);
        self.request.store(request, Ordering::SeqCst);
        self.client.store(thread_tag(), Ordering::SeqCst);
    }

    pub fn context(&self) -> (u64, u64) {
        (
            self.parent.load(Ordering::SeqCst),
            self.request.load(Ordering::SeqCst),
        )
    }

    /// Opens a span on the calling thread; close it with [`Tracer::close`].
    pub fn open(&self, name: &'static str, parent: u64, request: u64) -> Span {
        Span {
            name,
            id: self.next_id(),
            parent,
            request,
            thread: thread_tag(),
            start: self.now(),
            end: 0,
            cpu: thread_cpu_ns(),
            work: 0,
        }
    }

    pub fn close(&self, mut span: Span, work: u64) {
        span.end = self.now();
        span.cpu = thread_cpu_ns() - span.cpu;
        span.work = work;
        self.push(&[span]);
    }

    pub fn push(&self, spans: &[Span]) {
        self.spans
            .lock()
            .expect("span buffer lock is never poisoned")
            .extend_from_slice(spans);
    }

    /// Spans recorded since `from` (an index returned by [`Tracer::len`]).
    pub fn spans_since(&self, from: usize) -> Vec<Span> {
        self.spans.lock().expect("span buffer lock")[from..].to_vec()
    }

    pub fn len(&self) -> usize {
        self.spans.lock().expect("span buffer lock").len()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span buffer lock");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in spans.iter() {
            writeln!(
                out,
                "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"request\":{},\"thread\":{},\"start_ns\":{},\"end_ns\":{},\"cpu_ns\":{},\"work\":{}}}",
                s.name, s.id, s.parent, s.request, s.thread, s.start, s.end, s.cpu, s.work
            )?;
        }
        out.flush()
    }
}

/// A `WorldEvaluator` that reproduces the engine's own span evaluation
/// step by step and times each step. Its τ values are bit-identical to
/// the in-process path (the run's reference check covers the traced
/// pass too).
#[derive(Debug)]
pub struct TracingEvaluator {
    prepared: Arc<PreparedAudit>,
    tracer: Arc<Tracer>,
    nonempty_regions: u64,
    /// Label reads the resolved strategy makes per world: one bit per
    /// member id for membership counting, one word per touched mask
    /// word for blocked counting.
    reads_per_world: u64,
}

impl TracingEvaluator {
    pub fn new(prepared: Arc<PreparedAudit>, tracer: Arc<Tracer>) -> Self {
        let engine = prepared.engine();
        let nonempty_regions = engine.region_n().iter().filter(|&&n| n > 0).count() as u64;
        let reads_per_world = match (engine.blocked(), engine.membership()) {
            (Some(blocked), _) => blocked.touched_words(),
            (None, Some(membership)) => membership.total_ids() as u64,
            (None, None) => {
                panic!("the traced evaluator covers the membership and blocked strategies")
            }
        };
        TracingEvaluator {
            prepared,
            tracer,
            nonempty_regions,
            reads_per_world,
        }
    }
}

impl WorldEvaluator for TracingEvaluator {
    fn eval_span(
        &self,
        class: WorldClass,
        eval_dirs: &[Direction],
        first: usize,
        out: &mut [f64],
        _fine: bool,
    ) {
        let width = out.len() / eval_dirs.len();
        let engine = self.prepared.engine();
        let t = &self.tracer;
        let (parent, request) = t.context();
        let eval_id = t.next_id();
        let (t0, c0) = (t.now(), thread_cpu_ns());
        let worlds: Vec<BitLabels> = (first..first + width)
            .map(|w| {
                let mut rng = world_rng(class.seed, w as u64);
                engine.generate_world_with(class.null_model, class.worldgen, &mut rng)
            })
            .collect();
        let (t1, c1) = (t.now(), thread_cpu_ns());
        // Region-major count matrix, `counts[r * width + w]`, exactly
        // what the engine's fused fold consumes.
        let mut counts = Vec::new();
        if let Some(blocked) = engine.blocked() {
            let refs: Vec<&BitLabels> = worlds.iter().collect();
            blocked.count_all_many_into(&refs, engine.kernel(), &mut counts);
        } else if let Some(membership) = engine.membership() {
            let regions = engine.num_regions();
            counts.resize(regions * width, 0);
            let mut one = Vec::new();
            for (w, world) in worlds.iter().enumerate() {
                membership.count_all_into(world, &mut one);
                for (r, &p) in one.iter().enumerate() {
                    counts[r * width + w] = p;
                }
            }
        }
        let (t2, c2) = (t.now(), thread_cpu_ns());
        let p_worlds: Vec<u64> = worlds.iter().map(BitLabels::count_ones).collect();
        engine.fold_counts(class.statistic, &p_worlds, &counts, eval_dirs, out);
        let (t3, c3) = (t.now(), thread_cpu_ns());
        let thread = thread_tag();
        // A worker thread's CPU before this evaluation and since its
        // previous one (or its start) is the executor's own work on
        // it. The client thread's is inside its flush span already.
        let worker = thread != t.client.load(Ordering::SeqCst);
        let before = TAIL.with(|tail| {
            tail.worker.set(worker);
            tail.last_eval_end.replace(c3)
        });
        let worker_cpu = if worker { c0 - before } else { 0 };
        let span = |name, id, parent, (start, end), cpu, work| Span {
            name,
            id,
            parent,
            request,
            thread,
            start,
            end,
            cpu,
            work,
        };
        let w = width as u64;
        let scores = self.nonempty_regions * eval_dirs.len() as u64 * w;
        t.push(&[
            span(
                "execute.worker",
                t.next_id(),
                parent,
                (t0, t0),
                worker_cpu,
                0,
            ),
            span("eval", eval_id, parent, (t0, t3), c3 - c0, w),
            span("generate", t.next_id(), eval_id, (t0, t1), c1 - c0, w),
            span(
                "count",
                t.next_id(),
                eval_id,
                (t1, t2),
                c2 - c1,
                self.reads_per_world * w,
            ),
            span("fold", t.next_id(), eval_id, (t2, t3), c3 - c2, scores),
        ]);
    }
}

/// One `eval_span` call the coordinator served.
#[derive(Debug, Clone, Copy)]
pub struct SpanCall {
    pub class: WorldClass,
    pub first: usize,
    pub worlds: usize,
}

/// Times the distributed coordinator's `eval_span` from outside.
#[derive(Debug)]
pub struct TimedCoordinator {
    pub inner: Arc<DistributedEvaluator>,
    tracer: Arc<Tracer>,
    calls: Mutex<Vec<SpanCall>>,
}

impl TimedCoordinator {
    pub fn new(inner: Arc<DistributedEvaluator>, tracer: Arc<Tracer>) -> Self {
        TimedCoordinator {
            inner,
            tracer,
            calls: Mutex::new(Vec::new()),
        }
    }

    pub fn calls(&self) -> Vec<SpanCall> {
        self.calls.lock().expect("call log lock").clone()
    }
}

impl WorldEvaluator for TimedCoordinator {
    fn eval_span(
        &self,
        class: WorldClass,
        eval_dirs: &[Direction],
        first: usize,
        out: &mut [f64],
        fine: bool,
    ) {
        let (parent, request) = self.tracer.context();
        let span = self.tracer.open("cluster.span", parent, request);
        self.inner.eval_span(class, eval_dirs, first, out, fine);
        let worlds = out.len() / eval_dirs.len();
        self.tracer.close(span, worlds as u64);
        self.calls.lock().expect("call log lock").push(SpanCall {
            class,
            first,
            worlds,
        });
    }
}

/// Per-layer totals over a set of spans.
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerTime {
    /// Σ span wall durations, ns.
    pub wall: u64,
    /// Σ CPU time of the spans' threads inside the spans, ns.
    pub cpu: u64,
    pub spans: u64,
    pub work: u64,
}

/// Sums wall time, CPU time, span count and work per span name.
pub fn layers(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut layers: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for s in spans {
        let l = layers.entry(s.name).or_default();
        l.wall += s.dur();
        l.cpu += s.cpu;
        l.spans += 1;
        l.work += s.work;
    }
    layers
}
