//! The concurrent executor: bounded per-session queues feeding a
//! worker pool over `Arc<PreparedAudit>`.
//!
//! This is [`sfserve::AuditService`]'s serving model re-hosted for
//! real concurrency. Sessions keep the same shape — one prepared
//! engine plus one cross-batch [`WorldCache`] each, handles assigned
//! `0, 1, …` in registration order — but submissions arrive from many
//! connection threads, batches execute on a pool of workers, and the
//! [`DrainPolicy`] clock is driven by a timer thread reading an
//! injected [`Clock`](crate::Clock) instead of explicit test ticks.
//!
//! Three properties carry over unchanged, and the integration tests
//! assert all of them:
//!
//! * **bit-identity** — a batch runs through
//!   [`PreparedAudit::run_batch_cached`], whose reports are
//!   bit-identical regardless of batch composition or cache state, so
//!   *how* the executor groups concurrent traffic can never change a
//!   single response byte;
//! * **backpressure** — each session's outstanding (queued or
//!   executing) requests are capped; a submission over the cap is
//!   rejected with [`SubmitError::Busy`] and nothing is queued,
//!   instead of the queue growing without bound;
//! * **fairness** — workers claim sessions round-robin, so one hot
//!   session streams through the pool interleaved with everyone else
//!   rather than starving them.

use crate::clock::Clock;
use sfscan::prepared::{AuditRequest, PreparedAudit};
use sfscan::worldcache::{CacheStats, WorldCache};
use sfscan::{AuditConfig, RegionSet, ScanError, SpatialOutcomes};
use sfserve::{
    AuditResponse, DatasetHandle, DrainPolicy, LatencyHistogram, RequestEnvelope, ResponseEnvelope,
    ServerStats, SubmitError, Ticket,
};
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex};

/// Executor knobs. `Default` is a manual-drain executor with two
/// workers and no queue bound — the permissive configuration the unit
/// tests start from; the server always sets every field explicitly.
#[derive(Debug, Clone, Copy)]
pub struct ExecutorConfig {
    /// Worker threads executing batches. `0` means no threads are
    /// spawned and the caller drives execution with
    /// [`NetExecutor::run_pending_batch`] — the deterministic mode the
    /// fairness and policy tests use.
    pub workers: usize,
    /// Per-session bound on outstanding (queued or executing)
    /// requests; beyond it submissions fail with
    /// [`SubmitError::Busy`]. `None` disables backpressure.
    pub queue_capacity: Option<usize>,
    /// When queued requests become runnable. [`DrainPolicy::Deadline`]
    /// is measured in [`Clock`] units (microseconds under the server's
    /// [`SystemClock`](crate::SystemClock)).
    pub policy: DrainPolicy,
    /// Per-session bound on the world cache's resident τ-buffer bytes
    /// ([`WorldCache::with_capacity_bytes`]). Defaults to 64 MiB, about
    /// 8,000 cached 999-world single-direction audits.
    pub cache_capacity_bytes: usize,
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        ExecutorConfig {
            workers: 2,
            queue_capacity: None,
            policy: DrainPolicy::Manual,
            cache_capacity_bytes: 64 << 20,
        }
    }
}

/// One accepted submission travelling through the executor.
struct Job {
    /// Connection-local ticket for the response line.
    wire_ticket: Ticket,
    request: AuditRequest,
    geojson: bool,
    /// Clock reading at acceptance — the latency sample's start.
    submitted_at: u64,
    /// Where the response line goes.
    sink: Arc<ResponseSink>,
    /// The line's position in its connection's output order.
    seq: u64,
}

/// One registered dataset inside the executor.
struct SessionSlot {
    /// Shared with every worker that claims this session's batches.
    prepared: Arc<PreparedAudit>,
    /// The session's cross-batch world cache; a worker holds the lock
    /// for the duration of one batch.
    cache: Arc<Mutex<WorldCache>>,
    /// Accepted, not yet runnable under the drain policy.
    pending: VecDeque<Job>,
    /// Clock reading of the oldest pending submission (deadline base).
    pending_since: Option<u64>,
    /// Runnable, waiting for a worker.
    ready: VecDeque<Job>,
    /// Jobs currently executing on workers.
    executing: usize,
}

impl SessionSlot {
    fn outstanding(&self) -> usize {
        self.pending.len() + self.ready.len() + self.executing
    }
}

/// Mutable executor state behind the one lock.
struct State {
    sessions: Vec<SessionSlot>,
    /// Next session index a worker's claim scan starts from.
    rr_cursor: usize,
    stats: ServerStats,
    /// Submission→drain latencies; folded into `stats` when read.
    drain_latency: LatencyHistogram,
    /// Monotonic clock high-water mark (deadlines compare against it).
    clock_now: u64,
    shutdown: bool,
}

impl State {
    fn queue_depth(&self) -> u64 {
        self.sessions
            .iter()
            .map(|s| (s.pending.len() + s.ready.len()) as u64)
            .sum()
    }

    fn jobs_outstanding(&self) -> usize {
        self.sessions.iter().map(SessionSlot::outstanding).sum()
    }

    fn has_ready(&self) -> bool {
        self.sessions.iter().any(|s| !s.ready.is_empty())
    }

    /// Moves a session's pending queue to its ready queue.
    fn promote(&mut self, idx: usize) {
        let slot = &mut self.sessions[idx];
        slot.pending_since = None;
        while let Some(job) = slot.pending.pop_front() {
            slot.ready.push_back(job);
        }
    }

    /// Promotes every session whose deadline has expired at `now`.
    fn promote_expired(&mut self, ticks: u64) {
        let now = self.clock_now;
        for idx in 0..self.sessions.len() {
            if self.sessions[idx]
                .pending_since
                .is_some_and(|since| now.saturating_sub(since) >= ticks)
            {
                self.promote(idx);
            }
        }
    }

    /// Claims the next ready batch round-robin: the scan starts at
    /// `rr_cursor`, takes the first session with ready work
    /// (the *whole* ready queue, as one batch), and leaves the cursor
    /// just past it so the next claim looks at the following session
    /// first.
    fn claim(&mut self) -> Option<(usize, Vec<Job>)> {
        let n = self.sessions.len();
        for probe in 0..n {
            let idx = (self.rr_cursor + probe) % n;
            if !self.sessions[idx].ready.is_empty() {
                self.rr_cursor = (idx + 1) % n;
                let slot = &mut self.sessions[idx];
                let batch: Vec<Job> = slot.ready.drain(..).collect();
                slot.executing += batch.len();
                return Some((idx, batch));
            }
        }
        None
    }
}

struct Inner {
    state: Mutex<State>,
    /// Wakes workers when ready work appears (or shutdown starts).
    work_cv: Condvar,
    /// Wakes flush/shutdown waiters when jobs complete.
    idle_cv: Condvar,
    clock: Arc<dyn Clock>,
    config: ExecutorConfig,
}

/// The concurrent serving executor. Cheap to share (`Arc` inside);
/// every method takes `&self`.
pub struct NetExecutor {
    inner: Arc<Inner>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl NetExecutor {
    /// Builds the executor and spawns `config.workers` worker threads
    /// (none when `workers == 0`; the caller then drives execution via
    /// [`NetExecutor::run_pending_batch`]).
    pub fn new(config: ExecutorConfig, clock: Arc<dyn Clock>) -> Self {
        let inner = Arc::new(Inner {
            state: Mutex::new(State {
                sessions: Vec::new(),
                rr_cursor: 0,
                stats: ServerStats::default(),
                drain_latency: LatencyHistogram::new(),
                clock_now: clock.now(),
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            idle_cv: Condvar::new(),
            clock,
            config,
        });
        let workers = (0..config.workers)
            .map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || worker_loop(&inner))
            })
            .collect();
        NetExecutor {
            inner,
            workers: Mutex::new(workers),
        }
    }

    /// Prepares and registers a dataset; handles are `0, 1, …` in
    /// registration order, exactly like [`sfserve::AuditService`].
    pub fn register(
        &self,
        outcomes: &SpatialOutcomes,
        regions: &RegionSet,
        config: AuditConfig,
    ) -> Result<DatasetHandle, ScanError> {
        Ok(self.register_prepared(Arc::new(PreparedAudit::prepare(outcomes, regions, config)?)))
    }

    /// Registers an already-prepared engine.
    pub fn register_prepared(&self, prepared: Arc<PreparedAudit>) -> DatasetHandle {
        let mut state = self.inner.state.lock().unwrap();
        let handle = DatasetHandle(state.sessions.len() as u64);
        state.sessions.push(SessionSlot {
            prepared,
            cache: Arc::new(Mutex::new(WorldCache::with_capacity_bytes(
                self.inner.config.cache_capacity_bytes,
            ))),
            pending: VecDeque::new(),
            pending_since: None,
            ready: VecDeque::new(),
            executing: 0,
        });
        handle
    }

    /// Submits one request. On acceptance the eventual response line
    /// is delivered to `sink` at position `seq`, carrying
    /// `wire_ticket` — connection-local numbering, so a connection's
    /// transcript matches the in-process JSONL path byte for byte.
    ///
    /// # Errors
    /// [`SubmitError::UnknownHandle`], [`SubmitError::InvalidRequest`],
    /// or — when the session is at its outstanding cap —
    /// [`SubmitError::Busy`]. Nothing is queued on any error.
    pub fn submit(
        &self,
        handle: DatasetHandle,
        request: AuditRequest,
        geojson: bool,
        sink: &Arc<ResponseSink>,
        seq: u64,
        wire_ticket: Ticket,
    ) -> Result<(), SubmitError> {
        request.validate()?;
        let now = self.inner.clock.now();
        let mut state = self.inner.state.lock().unwrap();
        state.clock_now = state.clock_now.max(now);
        let idx = handle.0 as usize;
        if idx >= state.sessions.len() {
            return Err(SubmitError::UnknownHandle(handle));
        }
        if let Some(capacity) = self.inner.config.queue_capacity {
            let pending = state.sessions[idx].outstanding();
            if pending >= capacity {
                return Err(SubmitError::Busy { pending, capacity });
            }
        }
        let submitted_at = state.clock_now;
        let slot = &mut state.sessions[idx];
        slot.pending.push_back(Job {
            wire_ticket,
            request,
            geojson,
            submitted_at,
            sink: Arc::clone(sink),
            seq,
        });
        slot.pending_since.get_or_insert(submitted_at);
        match self.inner.config.policy {
            DrainPolicy::MaxPending(limit) => {
                if state.sessions[idx].pending.len() >= limit.max(1) {
                    state.promote(idx);
                    self.inner.work_cv.notify_all();
                }
            }
            DrainPolicy::Deadline(ticks) => {
                // A submission also advances the clock; an already
                // expired session runs without waiting for the timer.
                state.promote_expired(ticks);
                if state.has_ready() {
                    self.inner.work_cv.notify_all();
                }
            }
            DrainPolicy::Manual => {}
        }
        state.stats.queue_depth = state.queue_depth();
        Ok(())
    }

    /// Decodes one JSONL request line and submits it, mirroring
    /// [`sfserve::AuditService::submit_json`]'s malformed-line
    /// handling (same error text, for byte-identical rejection
    /// envelopes).
    pub fn submit_json(
        &self,
        line: &str,
        sink: &Arc<ResponseSink>,
        seq: u64,
        wire_ticket: Ticket,
    ) -> Result<(), SubmitError> {
        let envelope = RequestEnvelope::from_json(line).map_err(|e| SubmitError::Malformed {
            reason: e.to_string(),
        })?;
        self.submit(
            envelope.handle,
            envelope.request,
            envelope.geojson,
            sink,
            seq,
            wire_ticket,
        )
    }

    /// Advances the executor clock to `now` (monotonic) and promotes
    /// every session whose [`DrainPolicy::Deadline`] has expired. The
    /// server's timer thread calls this; tests call it directly with a
    /// [`ManualClock`](crate::ManualClock) reading.
    pub fn tick(&self, now: u64) {
        let mut state = self.inner.state.lock().unwrap();
        state.clock_now = state.clock_now.max(now);
        if let DrainPolicy::Deadline(ticks) = self.inner.config.policy {
            state.promote_expired(ticks);
            if state.has_ready() {
                self.inner.work_cv.notify_all();
            }
        }
        state.stats.queue_depth = state.queue_depth();
    }

    /// [`NetExecutor::tick`] at the injected clock's current reading.
    pub fn tick_now(&self) {
        self.tick(self.inner.clock.now());
    }

    /// Promotes everything and blocks until the executor is idle (no
    /// pending, ready, or executing jobs) — the EOF drain. With
    /// `workers == 0` the calling thread executes the batches itself.
    pub fn flush(&self) {
        {
            let mut state = self.inner.state.lock().unwrap();
            for idx in 0..state.sessions.len() {
                state.promote(idx);
            }
            state.stats.queue_depth = state.queue_depth();
            self.inner.work_cv.notify_all();
        }
        if self.inner.config.workers == 0 {
            while self.run_pending_batch() {}
        }
        self.wait_idle();
    }

    /// Blocks until no job is pending, ready, or executing.
    pub fn wait_idle(&self) {
        let mut state = self.inner.state.lock().unwrap();
        while state.jobs_outstanding() > 0 {
            state = self.inner.idle_cv.wait(state).unwrap();
        }
    }

    /// Claims and executes one ready batch on the calling thread.
    /// Returns `false` when nothing was ready. This is the worker
    /// loop's body made public, so `workers == 0` tests step the
    /// executor deterministically and observe the round-robin order.
    pub fn run_pending_batch(&self) -> bool {
        let claimed = {
            let mut state = self.inner.state.lock().unwrap();
            let claimed = state.claim();
            if claimed.is_some() {
                state.stats.queue_depth = state.queue_depth();
            }
            claimed
        };
        match claimed {
            Some((idx, batch)) => {
                execute_batch(&self.inner, idx, batch);
                true
            }
            None => false,
        }
    }

    /// A snapshot of the cumulative serving statistics.
    pub fn stats(&self) -> ServerStats {
        let state = self.inner.state.lock().unwrap();
        state.stats.with_drain_latency(&state.drain_latency)
    }

    /// World-cache accounting summed across every session — the
    /// `cache` half of the wire's `{"stats": true}` snapshot.
    pub fn cache_stats(&self) -> CacheStats {
        let caches: Vec<Arc<Mutex<WorldCache>>> = {
            let state = self.inner.state.lock().unwrap();
            state
                .sessions
                .iter()
                .map(|s| Arc::clone(&s.cache))
                .collect()
        };
        let mut total = CacheStats::default();
        // Cache locks are taken outside the state lock (workers hold a
        // cache lock for a whole batch; holding both would stall every
        // submission behind the slowest batch).
        for cache in caches {
            total.absorb(cache.lock().unwrap().stats());
        }
        total
    }

    /// Queued-but-unexecuted requests across all sessions.
    pub fn pending_total(&self) -> usize {
        let state = self.inner.state.lock().unwrap();
        state
            .sessions
            .iter()
            .map(|s| s.pending.len() + s.ready.len())
            .sum()
    }

    /// Graceful stop: drains every queued job (so no accepted ticket
    /// is ever lost), joins the workers, and returns the final stats.
    /// Subsequent submissions still succeed but only a new
    /// [`NetExecutor::flush`]/[`NetExecutor::run_pending_batch`] would
    /// execute them — the server never submits after shutdown.
    pub fn shutdown(&self) -> ServerStats {
        {
            let mut state = self.inner.state.lock().unwrap();
            for idx in 0..state.sessions.len() {
                state.promote(idx);
            }
            state.shutdown = true;
            self.inner.work_cv.notify_all();
        }
        if self.inner.config.workers == 0 {
            while self.run_pending_batch() {}
        }
        self.wait_idle();
        let workers: Vec<_> = self.workers.lock().unwrap().drain(..).collect();
        for handle in workers {
            let _ = handle.join();
        }
        self.stats()
    }
}

impl Drop for NetExecutor {
    fn drop(&mut self) {
        // Idempotent: a second shutdown sees no jobs and no workers.
        self.shutdown();
    }
}

/// A worker: wait for ready work, claim one session's batch
/// round-robin, execute, repeat. Exits when shutdown is flagged and no
/// ready work remains (pending jobs were promoted by shutdown itself).
fn worker_loop(inner: &Arc<Inner>) {
    loop {
        let claimed = {
            let mut state = inner.state.lock().unwrap();
            loop {
                if let Some(claimed) = state.claim() {
                    state.stats.queue_depth = state.queue_depth();
                    break Some(claimed);
                }
                if state.shutdown {
                    break None;
                }
                state = inner.work_cv.wait(state).unwrap();
            }
        };
        match claimed {
            Some((idx, batch)) => execute_batch(inner, idx, batch),
            None => return,
        }
    }
}

/// Runs one claimed batch: engine + cache from the session slot,
/// responses delivered to each job's sink, accounting folded into the
/// shared stats.
fn execute_batch(inner: &Arc<Inner>, idx: usize, batch: Vec<Job>) {
    let (prepared, cache) = {
        let state = inner.state.lock().unwrap();
        let slot = &state.sessions[idx];
        (Arc::clone(&slot.prepared), Arc::clone(&slot.cache))
    };
    let requests: Vec<AuditRequest> = batch.iter().map(|j| j.request).collect();
    let (reports, batch_stats) = {
        let mut cache = cache.lock().unwrap();
        prepared.run_batch_cached(&requests, &mut cache)
    };
    let drained_at = inner.clock.now();

    // Render and deliver outside the state lock — serialisation is the
    // expensive part of small responses.
    for (job, report) in batch.iter().zip(reports) {
        let mut envelope = ResponseEnvelope::ready(AuditResponse {
            ticket: job.wire_ticket,
            report,
        });
        if job.geojson {
            envelope = envelope.with_geojson_findings();
        }
        job.sink.push(job.seq, envelope.to_json());
    }

    let mut state = inner.state.lock().unwrap();
    state.clock_now = state.clock_now.max(drained_at);
    let now = state.clock_now;
    state.stats.absorb(&batch_stats);
    for job in &batch {
        state
            .drain_latency
            .record(now.saturating_sub(job.submitted_at));
    }
    state.sessions[idx].executing -= batch.len();
    state.stats.queue_depth = state.queue_depth();
    inner.idle_cv.notify_all();
}

/// Ordered response-line delivery for one connection.
///
/// Workers complete jobs in whatever order batches finish; the
/// connection's writer must emit exactly one line per input line, in
/// input order — the invariant that makes a socket transcript
/// byte-identical to the in-process JSONL path. The sink buffers
/// out-of-order completions in a map keyed by line sequence; the
/// writer blocks on [`ResponseSink::pop_next`] for the next sequence
/// it owes the peer. [`ResponseSink::seal`] (called at reader EOF,
/// when the total line count is known) lets the writer terminate once
/// it has written everything.
#[derive(Default)]
pub struct ResponseSink {
    state: Mutex<SinkState>,
    cv: Condvar,
}

#[derive(Default)]
struct SinkState {
    lines: BTreeMap<u64, String>,
    sealed: Option<u64>,
}

impl ResponseSink {
    /// An empty, unsealed sink.
    pub fn new() -> Arc<Self> {
        Arc::new(ResponseSink::default())
    }

    /// Delivers the response line for input position `seq`.
    pub fn push(&self, seq: u64, line: String) {
        let mut state = self.state.lock().unwrap();
        state.lines.insert(seq, line);
        self.cv.notify_all();
    }

    /// Declares the total number of response lines this sink will ever
    /// carry (the reader's input line count, known at EOF).
    pub fn seal(&self, total: u64) {
        let mut state = self.state.lock().unwrap();
        state.sealed = Some(total);
        self.cv.notify_all();
    }

    /// Blocks until line `seq` is available and removes it. Returns
    /// `None` once the sink is sealed at a total at or below `seq` —
    /// the writer's termination signal.
    pub fn pop_next(&self, seq: u64) -> Option<String> {
        let mut state = self.state.lock().unwrap();
        loop {
            if let Some(line) = state.lines.remove(&seq) {
                return Some(line);
            }
            if state.sealed.is_some_and(|total| seq >= total) {
                return None;
            }
            state = self.cv.wait(state).unwrap();
        }
    }
}

/// Per-connection protocol state: line sequencing, connection-local
/// ticket numbering, and the sink responses are delivered to. Shared
/// by the TCP reader thread and the in-process tests, so both speak
/// exactly the same protocol.
pub struct ConnDriver {
    sink: Arc<ResponseSink>,
    /// Output position of the next processed line.
    seq: u64,
    /// Connection-local ticket counter: incremented only on accepted
    /// submissions, exactly like the in-process service's global
    /// counter over a single stream.
    accepted: u64,
}

impl Default for ConnDriver {
    fn default() -> Self {
        ConnDriver::new()
    }
}

impl ConnDriver {
    /// A fresh connection: next line is output position 0, next
    /// accepted submission is ticket 0.
    pub fn new() -> Self {
        ConnDriver {
            sink: ResponseSink::new(),
            seq: 0,
            accepted: 0,
        }
    }

    /// The sink this connection's responses are delivered to.
    pub fn sink(&self) -> Arc<ResponseSink> {
        Arc::clone(&self.sink)
    }

    /// Handles one input line: blank lines are skipped silently (no
    /// output line, mirroring the stdin path); anything else produces
    /// exactly one response line — immediately for rejections, via the
    /// executor for accepted submissions. Returns whether the line
    /// counted.
    pub fn handle_line(&mut self, executor: &NetExecutor, line: &str) -> bool {
        let trimmed = line.trim();
        if trimmed.is_empty() {
            return false;
        }
        let seq = self.seq;
        self.seq += 1;
        if sfserve::is_stats_request(trimmed) {
            // The metrics probe is answered inline — no queue, no
            // ticket, so it can never trip backpressure or shift the
            // connection's ticket numbering.
            let envelope =
                ResponseEnvelope::stats_snapshot(executor.stats(), executor.cache_stats());
            self.sink.push(seq, envelope.to_json());
            return true;
        }
        match executor.submit_json(trimmed, &self.sink, seq, Ticket(self.accepted)) {
            Ok(()) => self.accepted += 1,
            Err(error) => {
                self.sink
                    .push(seq, ResponseEnvelope::rejected(&error).to_json());
            }
        }
        true
    }

    /// Rejects an oversized input line with a typed
    /// [`SubmitError::Malformed`] envelope. The line still occupies
    /// exactly one output position — one response per line holds even
    /// for input the reader refused to buffer in full. The TCP reader
    /// calls this when its line-length cap trips, then closes the
    /// connection.
    pub fn reject_oversized(&mut self, limit: usize) {
        let seq = self.seq;
        self.seq += 1;
        let error = SubmitError::Malformed {
            reason: format!("request line exceeds {limit} bytes"),
        };
        self.sink
            .push(seq, ResponseEnvelope::rejected(&error).to_json());
    }

    /// Reader EOF: seals the sink at the processed line count so the
    /// writer can terminate after delivering everything owed. Returns
    /// that total.
    pub fn finish(&self) -> u64 {
        self.sink.seal(self.seq);
        self.seq
    }

    /// Lines processed so far.
    pub fn lines(&self) -> u64 {
        self.seq
    }
}
