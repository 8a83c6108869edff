//! The concurrent executor: a worker pool over the shared session core.
//!
//! [`NetExecutor`] is a `Mutex` around the [`SessionTable`] that the
//! in-process [`sfserve::AuditService`] also owns, plus what concurrency
//! needs: worker threads that run claimed batches, two condvars, each
//! connection's [`ResponseSink`], and an injected [`Clock`](crate::Clock)
//! that supplies `now`. Handles, the per-session engine and
//! [`WorldCache`], the queues, the [`DrainPolicy`], the `Busy` cap and
//! the round-robin claim all come from the table.
//!
//! Three properties follow, and the integration tests assert all of
//! them:
//!
//! * **bit-identity** — a batch's reports are bit-identical regardless
//!   of batch composition or cache state, so *how* the executor groups
//!   concurrent traffic can never change a single response byte;
//! * **backpressure** — each session's outstanding (queued or
//!   executing) requests are capped; a submission over the cap is
//!   rejected with [`SubmitError::Busy`] and nothing is queued,
//!   instead of the queue growing without bound;
//! * **fairness** — workers claim sessions round-robin, so one hot
//!   session streams through the pool interleaved with everyone else
//!   rather than starving them.

use crate::clock::Clock;
use sfscan::prepared::PreparedAudit;
use sfscan::worldcache::{CacheStats, WorldCache};
use sfscan::{AuditConfig, RegionSet, ScanError, SpatialOutcomes};
use sfserve::{
    total_cache_stats, AuditResponse, Batch, DatasetHandle, DrainPolicy, RequestEnvelope,
    RequestLine, ResponseEnvelope, ServerStats, SessionTable, SubmitError, Ticket,
};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

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

/// Where one accepted job's response line goes.
struct Delivery {
    /// Connection-local ticket for the response line.
    ticket: Ticket,
    sink: Arc<ResponseSink>,
    /// The line's position in its connection's output order.
    seq: u64,
}

const POISONED: &str = "a thread panicked while holding the session table";

struct Inner {
    table: Mutex<SessionTable<Delivery>>,
    /// Set under the table lock, so a worker that found nothing to
    /// claim cannot miss it between its check and its wait.
    shutdown: AtomicBool,
    /// Wakes workers when ready work appears (or shutdown starts).
    work_cv: Condvar,
    /// Wakes flush/shutdown waiters when jobs complete.
    idle_cv: Condvar,
    clock: Arc<dyn Clock>,
    config: ExecutorConfig,
}

impl Inner {
    fn table(&self) -> MutexGuard<'_, SessionTable<Delivery>> {
        self.table.lock().expect(POISONED)
    }

    /// Wakes the workers when the table has a batch to claim.
    fn wake_if_ready(&self, table: &SessionTable<Delivery>) {
        if table.has_ready() {
            self.work_cv.notify_all();
        }
    }
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
            table: Mutex::new(SessionTable::new(config.policy, config.queue_capacity)),
            shutdown: AtomicBool::new(false),
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
        let cache = WorldCache::with_capacity_bytes(self.inner.config.cache_capacity_bytes);
        self.inner.table().register(prepared, cache)
    }

    /// Submits one decoded request line. On acceptance the eventual
    /// response line is delivered to `sink` at position `seq`, carrying
    /// `ticket` — connection-local numbering, so a connection's
    /// transcript matches the in-process JSONL path byte for byte.
    ///
    /// # Errors
    /// [`SubmitError::UnknownHandle`], [`SubmitError::InvalidRequest`],
    /// or — when the session is at its outstanding cap —
    /// [`SubmitError::Busy`]. Nothing is queued on any error.
    pub fn submit(
        &self,
        envelope: RequestEnvelope,
        sink: &Arc<ResponseSink>,
        seq: u64,
        ticket: Ticket,
    ) -> Result<(), SubmitError> {
        let delivery = Delivery {
            ticket,
            sink: Arc::clone(sink),
            seq,
        };
        let now = self.inner.clock.now();
        let mut table = self.inner.table();
        table.submit(envelope, delivery, now)?;
        self.inner.wake_if_ready(&table);
        Ok(())
    }

    /// Advances the executor clock to `now` (monotonic) and promotes
    /// every session whose [`DrainPolicy::Deadline`] has expired. The
    /// server's timer thread calls this; tests call it directly with a
    /// [`ManualClock`](crate::ManualClock) reading.
    pub fn tick(&self, now: u64) {
        let mut table = self.inner.table();
        table.advance(now);
        self.inner.wake_if_ready(&table);
    }

    /// [`NetExecutor::tick`] at the injected clock's current reading.
    pub fn tick_now(&self) {
        self.tick(self.inner.clock.now());
    }

    /// Promotes everything and blocks until the executor is idle (no
    /// pending, ready, or executing jobs) — the stdin path's EOF
    /// drain. With `workers == 0` the calling thread executes the
    /// batches itself.
    pub fn flush(&self) {
        self.promote_all();
        self.wait_idle();
    }

    /// Promotes every session's pending jobs and wakes the workers,
    /// without waiting for them to finish — a connection's EOF drain,
    /// after which the connection waits only for its own response
    /// lines. With `workers == 0` no worker would run the jobs, so the
    /// calling thread executes every ready batch before returning.
    pub fn promote_all(&self) {
        self.inner.table().promote_all();
        self.inner.work_cv.notify_all();
        if self.inner.config.workers == 0 {
            while self.run_pending_batch() {}
        }
    }

    /// Blocks until no job is pending, ready, or executing.
    pub fn wait_idle(&self) {
        let mut table = self.inner.table();
        while table.outstanding() > 0 {
            table = self.inner.idle_cv.wait(table).expect(POISONED);
        }
    }

    /// Claims and executes one ready batch on the calling thread.
    /// Returns `false` when nothing was ready. This is the worker
    /// loop's body made public, so `workers == 0` tests step the
    /// executor deterministically and observe the round-robin order.
    pub fn run_pending_batch(&self) -> bool {
        let claimed = self.inner.table().claim();
        match claimed {
            Some(batch) => {
                execute_batch(&self.inner, batch);
                true
            }
            None => false,
        }
    }

    /// A snapshot of the cumulative serving statistics.
    pub fn stats(&self) -> ServerStats {
        self.inner.table().stats()
    }

    /// World-cache accounting summed across every session — the
    /// `cache` half of the wire's `{"stats": true}` snapshot. The cache
    /// locks are taken outside the table lock: workers hold a cache
    /// lock for a whole batch, and holding both would stall every
    /// submission behind the slowest batch.
    pub fn cache_stats(&self) -> CacheStats {
        let caches = self.inner.table().caches();
        total_cache_stats(&caches)
    }

    /// Queued-but-unexecuted requests across all sessions.
    pub fn pending_total(&self) -> usize {
        self.inner.table().queue_depth()
    }

    /// Graceful stop: drains every queued job (so no accepted ticket
    /// is ever lost), joins the workers, and returns the final stats.
    /// Subsequent submissions still succeed but only a new
    /// [`NetExecutor::flush`]/[`NetExecutor::run_pending_batch`] would
    /// execute them — the server never submits after shutdown.
    pub fn shutdown(&self) -> ServerStats {
        {
            let mut table = self.inner.table();
            table.promote_all();
            self.inner.shutdown.store(true, Ordering::SeqCst);
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
            let mut table = inner.table();
            loop {
                if let Some(batch) = table.claim() {
                    break Some(batch);
                }
                if inner.shutdown.load(Ordering::SeqCst) {
                    break None;
                }
                table = inner.work_cv.wait(table).expect(POISONED);
            }
        };
        match claimed {
            Some(batch) => execute_batch(inner, batch),
            None => return,
        }
    }
}

/// Runs one claimed batch, accounts it, delivers each job's response
/// line to its sink, then releases the jobs.
fn execute_batch(inner: &Arc<Inner>, batch: Batch<Delivery>) {
    let (reports, stats) = batch.run(None);
    // Account before delivering, so a client that has read a response
    // always finds it in the stats.
    let drained_at = inner.clock.now();
    inner.table().account(&batch, &stats, drained_at);

    // Render and deliver outside the table lock — serialisation is the
    // expensive part of small responses.
    let (handle, jobs) = (batch.handle, batch.jobs.len());
    for (job, report) in batch.jobs.into_iter().zip(reports) {
        let mut envelope = ResponseEnvelope::ready(AuditResponse {
            ticket: job.payload.ticket,
            report,
        });
        if job.geojson {
            envelope = envelope.with_geojson_findings();
        }
        job.payload.sink.push(job.payload.seq, envelope.to_json());
    }

    inner.table().release(handle, jobs);
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
        let submitted = match RequestLine::decode(trimmed) {
            Ok(RequestLine::Stats) => {
                // The metrics probe is answered inline — no queue, no
                // ticket, so it can never trip backpressure or shift
                // the connection's ticket numbering.
                let envelope =
                    ResponseEnvelope::stats_snapshot(executor.stats(), executor.cache_stats());
                self.sink.push(seq, envelope.to_json());
                return true;
            }
            Ok(RequestLine::Submit(envelope)) => {
                executor.submit(envelope, &self.sink, seq, Ticket(self.accepted))
            }
            Err(error) => Err(error),
        };
        match submitted {
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
