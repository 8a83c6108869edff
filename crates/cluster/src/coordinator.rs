//! The distributed coordinator: a [`WorldEvaluator`] that fans each
//! world span out across shard workers and reduces their exact
//! integer partials back into the engine's τ fold.
//!
//! ## Bit-identity
//!
//! For a span of worlds × the full word axis, the coordinator
//! partitions the label words into one window per worker
//! ([`shard_word_bounds`]), collects each window's region-count and
//! positive-total partials, sums them (exact integer addition over a
//! partition), and calls [`fold_counts`] — the same kernel, the same
//! region order, the same comparisons as the single-process engine.
//! *Where* a partial was computed (which worker, which retry, or the
//! coordinator's own degraded fallback) cannot change a bit of it,
//! because world generation is absolutely positioned in
//! `(seed, world, chunk)` and counting is pure.
//!
//! ## Failure story
//!
//! Each dispatch carries a deadline derived from the injected
//! [`Clock`]. A missed deadline, dropped connection, undecodable
//! reply, reply whose counts its word window cannot hold, or remote
//! error fails the dispatch: the
//! worker takes a health-state hit (`Healthy → Suspect`, and `Dead` after
//! [`CoordinatorConfig::dead_after`] consecutive failures), the
//! connection is discarded, and exactly that shard's span is
//! re-dispatched after a capped exponential backoff — first to the
//! same worker while it is merely `Suspect`, then to the other live
//! workers. When no live worker remains for a span, the coordinator
//! degrades gracefully: it recomputes the window locally with its own
//! [`SpanCounter`], so an audit always completes.
//!
//! [`fold_counts`]: sfscan::engine::ScanEngine::fold_counts
//! [`shard_word_bounds`]: sfindex::shard_word_bounds

use crate::compute::{SpanCounter, SpanError, SpanSpec, WindowCapacity};
use crate::wire::{CountRequest, WorkerReply, WorkerRequest};
use serde::{Deserialize, Serialize};
use sfindex::shard_word_bounds;
use sfnet::Clock;
use sfscan::prepared::{PreparedAudit, WorldClass, WorldEvaluator};
use sfscan::Direction;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Poll interval for reply reads: short enough that deadline checks
/// stay responsive, long enough not to spin.
const REPLY_POLL: Duration = Duration::from_millis(20);

/// Re-dispatch and health-state policy knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoordinatorConfig {
    /// Per-dispatch deadline in [`Clock`] units (µs under
    /// [`SystemClock`](sfnet::SystemClock)): a reply not fully read by
    /// `now() + dispatch_timeout` fails the dispatch.
    pub dispatch_timeout: u64,
    /// TCP connect timeout in milliseconds.
    pub connect_timeout_ms: u64,
    /// First re-dispatch backoff in milliseconds; attempt `a` waits
    /// `backoff_base_ms << a`, capped at
    /// [`CoordinatorConfig::backoff_cap_ms`].
    pub backoff_base_ms: u64,
    /// Backoff ceiling in milliseconds.
    pub backoff_cap_ms: u64,
    /// Dispatch attempts per shard span before degrading to the local
    /// fallback.
    pub max_attempts: u32,
    /// Consecutive failures that turn a `Suspect` worker `Dead`.
    pub dead_after: u32,
}

impl Default for CoordinatorConfig {
    fn default() -> Self {
        CoordinatorConfig {
            dispatch_timeout: 10_000_000, // 10 s in µs
            connect_timeout_ms: 1_000,
            backoff_base_ms: 5,
            backoff_cap_ms: 200,
            max_attempts: 4,
            dead_after: 3,
        }
    }
}

/// A worker's failure-state machine. Transitions happen on dispatch
/// outcomes only: any failure while `Healthy` makes it `Suspect`,
/// [`CoordinatorConfig::dead_after`] consecutive failures make it
/// `Dead`, and any success resets to `Healthy`. `Dead` is terminal for
/// dispatch routing (no live-ness probing — a deterministic audit run
/// is short relative to operator intervention), but a `Dead` worker's
/// spans still complete via other workers or the local fallback.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WorkerHealth {
    /// Serving normally.
    Healthy,
    /// At least one recent failure; still dispatched to.
    Suspect,
    /// Too many consecutive failures; routed around.
    Dead,
}

/// One worker's mutable connection + health state, serialized by its
/// own mutex so concurrent spans pipeline across workers but
/// request/reply pairs never interleave on one socket.
#[derive(Debug)]
struct WorkerSlot {
    addr: String,
    state: Mutex<SlotState>,
}

#[derive(Debug, Default)]
struct SlotState {
    stream: Option<BufReader<TcpStream>>,
    health: Option<WorkerHealth>, // None until first dispatch
    consecutive_failures: u32,
    last_error: Option<String>,
}

impl SlotState {
    fn health(&self) -> WorkerHealth {
        self.health.unwrap_or(WorkerHealth::Healthy)
    }
}

/// Cluster-level counters (atomics; snapshot via
/// [`DistributedEvaluator::stats`]).
#[derive(Debug, Default)]
struct StatCells {
    dispatches: AtomicU64,
    completed_remote: AtomicU64,
    redispatches: AtomicU64,
    deadline_misses: AtomicU64,
    conn_errors: AtomicU64,
    corrupt_replies: AtomicU64,
    remote_errors: AtomicU64,
    degraded_local_spans: AtomicU64,
    spans: AtomicU64,
    worlds: AtomicU64,
}

/// Snapshot of the coordinator's failure accounting — the numbers the
/// bench artifact's fault rows report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClusterStats {
    /// Wire dispatches attempted (including retries).
    pub dispatches: u64,
    /// Dispatches that returned a valid reply.
    pub completed_remote: u64,
    /// Re-dispatches after a failed attempt.
    pub redispatches: u64,
    /// Dispatches failed on the injected-clock deadline.
    pub deadline_misses: u64,
    /// Dispatches failed on connect/write/EOF errors.
    pub conn_errors: u64,
    /// Dispatches failed on undecodable, mismatched or impossible
    /// replies.
    pub corrupt_replies: u64,
    /// Dispatches the worker answered with a typed error.
    pub remote_errors: u64,
    /// Shard spans completed by the coordinator's local fallback.
    pub degraded_local_spans: u64,
    /// Shard spans completed in total.
    pub spans: u64,
    /// Worlds evaluated through the evaluator.
    pub worlds: u64,
}

impl StatCells {
    fn snapshot(&self) -> ClusterStats {
        ClusterStats {
            dispatches: self.dispatches.load(Ordering::SeqCst),
            completed_remote: self.completed_remote.load(Ordering::SeqCst),
            redispatches: self.redispatches.load(Ordering::SeqCst),
            deadline_misses: self.deadline_misses.load(Ordering::SeqCst),
            conn_errors: self.conn_errors.load(Ordering::SeqCst),
            corrupt_replies: self.corrupt_replies.load(Ordering::SeqCst),
            remote_errors: self.remote_errors.load(Ordering::SeqCst),
            degraded_local_spans: self.degraded_local_spans.load(Ordering::SeqCst),
            spans: self.spans.load(Ordering::SeqCst),
            worlds: self.worlds.load(Ordering::SeqCst),
        }
    }
}

/// Why one dispatch attempt failed (drives the stats counters and the
/// health machine; never the output values).
#[derive(Debug)]
enum DispatchError {
    Connect(String),
    Io(String),
    Deadline,
    Corrupt(String),
    Remote(String),
}

impl std::fmt::Display for DispatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DispatchError::Connect(e) => write!(f, "connect: {e}"),
            DispatchError::Io(e) => write!(f, "io: {e}"),
            DispatchError::Deadline => write!(f, "dispatch deadline missed"),
            DispatchError::Corrupt(e) => write!(f, "corrupt reply: {e}"),
            DispatchError::Remote(e) => write!(f, "worker error: {e}"),
        }
    }
}

/// The coordinator (see module docs). Plugs into
/// `sfserve::AuditService::with_evaluator` or directly
/// into [`PreparedAudit::run_batch_cached_with`].
pub struct DistributedEvaluator {
    counter: SpanCounter,
    workers: Vec<WorkerSlot>,
    bounds: Vec<(usize, usize)>,
    /// What each shard window can hold, for rejecting impossible
    /// partials before they reach the fold.
    capacities: Vec<WindowCapacity>,
    config: CoordinatorConfig,
    clock: Arc<dyn Clock>,
    next_id: AtomicU64,
    stats: StatCells,
}

impl std::fmt::Debug for DistributedEvaluator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DistributedEvaluator")
            .field("workers", &self.workers)
            .field("bounds", &self.bounds)
            .field("config", &self.config)
            .field("stats", &self.stats.snapshot())
            .finish_non_exhaustive()
    }
}

impl DistributedEvaluator {
    /// Builds a coordinator over `addrs` (one preferred shard window
    /// per address). Connections are lazy — a worker that is down at
    /// construction simply fails its first dispatch. Requires a
    /// blocked-counting engine and at least one worker address.
    pub fn new(
        prepared: Arc<PreparedAudit>,
        addrs: &[String],
        config: CoordinatorConfig,
        clock: Arc<dyn Clock>,
    ) -> Result<Self, SpanError> {
        if addrs.is_empty() {
            return Err(SpanError::EmptySpan);
        }
        let counter = SpanCounter::new(prepared)?;
        let bounds = shard_word_bounds(counter.num_label_words(), addrs.len());
        let capacities = bounds
            .iter()
            .map(|&(lo, hi)| counter.window_capacity(lo, hi))
            .collect();
        Ok(DistributedEvaluator {
            counter,
            workers: addrs
                .iter()
                .map(|addr| WorkerSlot {
                    addr: addr.clone(),
                    state: Mutex::new(SlotState::default()),
                })
                .collect(),
            bounds,
            capacities,
            config,
            clock,
            next_id: AtomicU64::new(0),
            stats: StatCells::default(),
        })
    }

    /// Failure-accounting snapshot.
    pub fn stats(&self) -> ClusterStats {
        self.stats.snapshot()
    }

    /// Current health of worker `w` (`Healthy` before first contact).
    pub fn worker_health(&self, w: usize) -> WorkerHealth {
        self.workers[w]
            .state
            .lock()
            .expect("worker slot lock")
            .health()
    }

    /// The last dispatch failure recorded against worker `w`, if any.
    pub fn worker_last_error(&self, w: usize) -> Option<String> {
        self.workers[w]
            .state
            .lock()
            .expect("worker slot lock")
            .last_error
            .clone()
    }

    /// The word windows the coordinator shards over, in worker order.
    pub fn shard_bounds(&self) -> &[(usize, usize)] {
        &self.bounds
    }

    /// One shard's partials for one span, with the full re-dispatch /
    /// degrade policy applied.
    fn shard_partials(
        &self,
        shard: usize,
        class: &WorldClass,
        first: usize,
        count: usize,
    ) -> (Vec<u64>, Vec<u64>) {
        let (word_lo, word_hi) = self.bounds[shard];
        let request = CountRequest {
            id: self.next_id.fetch_add(1, Ordering::SeqCst),
            null_model: class.null_model,
            seed: class.seed,
            worldgen: class.worldgen,
            first: first as u64,
            count: count as u64,
            word_lo: word_lo as u64,
            word_hi: word_hi as u64,
        };
        for attempt in 0..self.config.max_attempts {
            // Route: the shard's own worker first, then the other
            // non-Dead workers in ring order.
            let Some(w) = self.route(shard, attempt) else {
                break; // every worker is Dead
            };
            if attempt > 0 {
                self.stats.redispatches.fetch_add(1, Ordering::SeqCst);
                let shift = (attempt - 1).min(16);
                let backoff =
                    (self.config.backoff_base_ms << shift).min(self.config.backoff_cap_ms);
                if backoff > 0 {
                    std::thread::sleep(Duration::from_millis(backoff));
                }
            }
            match self.dispatch(w, &request, &self.capacities[shard]) {
                Ok((counts, p_partials)) => {
                    self.stats.completed_remote.fetch_add(1, Ordering::SeqCst);
                    return (counts, p_partials);
                }
                Err(e) => {
                    match &e {
                        DispatchError::Deadline => {
                            self.stats.deadline_misses.fetch_add(1, Ordering::SeqCst)
                        }
                        DispatchError::Connect(_) | DispatchError::Io(_) => {
                            self.stats.conn_errors.fetch_add(1, Ordering::SeqCst)
                        }
                        DispatchError::Corrupt(_) => {
                            self.stats.corrupt_replies.fetch_add(1, Ordering::SeqCst)
                        }
                        DispatchError::Remote(_) => {
                            self.stats.remote_errors.fetch_add(1, Ordering::SeqCst)
                        }
                    };
                }
            }
        }
        // Graceful degradation: the audit completes even with every
        // worker dead — same window, same worlds, same bits.
        self.stats
            .degraded_local_spans
            .fetch_add(1, Ordering::SeqCst);
        let partials = self
            .counter
            .count_span(SpanSpec {
                null_model: class.null_model,
                worldgen: class.worldgen,
                seed: class.seed,
                first,
                count,
                word_lo,
                word_hi,
            })
            .expect("the coordinator's own engine accepts every span it shards");
        (partials.counts, partials.p_partials)
    }

    /// Picks the worker for `attempt`: the shard's preferred worker,
    /// then the remaining non-`Dead` workers in ring order. `None`
    /// when every worker is `Dead`.
    fn route(&self, shard: usize, attempt: u32) -> Option<usize> {
        let n = self.workers.len();
        let mut live: Vec<usize> = (0..n)
            .map(|i| (shard + i) % n)
            .filter(|&w| {
                self.workers[w]
                    .state
                    .lock()
                    .expect("worker slot lock")
                    .health()
                    != WorkerHealth::Dead
            })
            .collect();
        if live.is_empty() {
            return None;
        }
        // Retry the preferred worker once while merely Suspect, then
        // rotate through the alternates.
        let rotation = (attempt as usize / 2).min(live.len() - 1) % live.len();
        live.rotate_left(rotation);
        Some(live[0])
    }

    /// One wire dispatch: connect (lazily), send, read one reply under
    /// the deadline, validate its shape and its counts against what the
    /// request's window can hold. Updates the worker's health machine
    /// on both outcomes.
    fn dispatch(
        &self,
        w: usize,
        request: &CountRequest,
        capacity: &WindowCapacity,
    ) -> Result<(Vec<u64>, Vec<u64>), DispatchError> {
        self.stats.dispatches.fetch_add(1, Ordering::SeqCst);
        let slot = &self.workers[w];
        let mut state = slot.state.lock().expect("worker slot lock");
        let result = self.dispatch_locked(&mut state, &slot.addr, request, capacity);
        match &result {
            Ok(_) => {
                state.consecutive_failures = 0;
                state.health = Some(WorkerHealth::Healthy);
            }
            Err(e) => {
                state.stream = None; // never reuse a failed socket
                state.last_error = Some(e.to_string());
                state.consecutive_failures += 1;
                state.health = Some(if state.consecutive_failures >= self.config.dead_after {
                    WorkerHealth::Dead
                } else {
                    WorkerHealth::Suspect
                });
            }
        }
        result
    }

    fn dispatch_locked(
        &self,
        state: &mut SlotState,
        addr: &str,
        request: &CountRequest,
        capacity: &WindowCapacity,
    ) -> Result<(Vec<u64>, Vec<u64>), DispatchError> {
        if state.stream.is_none() {
            use std::net::ToSocketAddrs;
            let target = addr
                .to_socket_addrs()
                .map_err(|e| DispatchError::Connect(format!("bad address {addr}: {e}")))?
                .next()
                .ok_or_else(|| DispatchError::Connect(format!("unresolvable address {addr}")))?;
            let stream = TcpStream::connect_timeout(
                &target,
                Duration::from_millis(self.config.connect_timeout_ms.max(1)),
            )
            .map_err(|e| DispatchError::Connect(format!("connect {addr}: {e}")))?;
            stream
                .set_read_timeout(Some(REPLY_POLL))
                .map_err(|e| DispatchError::Connect(e.to_string()))?;
            stream
                .set_nodelay(true)
                .map_err(|e| DispatchError::Connect(e.to_string()))?;
            state.stream = Some(BufReader::new(stream));
        }
        let reader = state.stream.as_mut().expect("just connected");
        reader
            .get_mut()
            .write_all(format!("{}\n", WorkerRequest::Count(*request).to_json()).as_bytes())
            .map_err(|e| DispatchError::Io(format!("send: {e}")))?;
        let deadline = self
            .clock
            .now()
            .saturating_add(self.config.dispatch_timeout);
        let mut line = String::new();
        loop {
            match reader.read_line(&mut line) {
                Ok(0) => return Err(DispatchError::Io(String::from("connection closed"))),
                Ok(_) if line.ends_with('\n') => break,
                Ok(_) => {} // partial line; keep reading
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
                Err(e) => return Err(DispatchError::Io(format!("recv: {e}"))),
            }
            if self.clock.now() >= deadline {
                return Err(DispatchError::Deadline);
            }
        }
        match WorkerReply::from_json(line.trim()) {
            Ok(WorkerReply::Count {
                id,
                counts,
                p_partials,
            }) => {
                if id != request.id {
                    return Err(DispatchError::Corrupt(format!(
                        "reply id {id} for request {}",
                        request.id
                    )));
                }
                let count = request.count as usize;
                if p_partials.len() != count || counts.len() != self.counter.num_regions() * count {
                    return Err(DispatchError::Corrupt(String::from(
                        "reply dimensions disagree with the request span",
                    )));
                }
                // Well-formed but impossible counts would otherwise
                // reach the fold and panic there.
                capacity
                    .check(&counts, &p_partials)
                    .map_err(DispatchError::Corrupt)?;
                Ok((counts, p_partials))
            }
            Ok(WorkerReply::Err { error, .. }) => Err(DispatchError::Remote(error)),
            Ok(_) => Err(DispatchError::Corrupt(String::from("unexpected reply op"))),
            Err(e) => Err(DispatchError::Corrupt(e.message)),
        }
    }
}

impl WorldEvaluator for DistributedEvaluator {
    fn eval_span(
        &self,
        class: WorldClass,
        eval_dirs: &[Direction],
        first: usize,
        out: &mut [f64],
        _fine: bool,
    ) {
        let count = out.len() / eval_dirs.len();
        if count == 0 {
            return;
        }
        // Fan the shard windows out; a window's partial is identical
        // whichever worker (or the local fallback) computed it, so the
        // reduce below is order- and schedule-independent.
        let shards = self.bounds.len();
        let partials: Vec<(Vec<u64>, Vec<u64>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..shards)
                .map(|s| scope.spawn(move || self.shard_partials(s, &class, first, count)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shard dispatch threads do not panic"))
                .collect()
        });
        let regions = self.counter.num_regions();
        let mut counts = vec![0u64; regions * count];
        let mut p_worlds = vec![0u64; count];
        for (shard_counts, shard_p) in &partials {
            for (acc, &c) in counts.iter_mut().zip(shard_counts) {
                *acc += c;
            }
            for (acc, &p) in p_worlds.iter_mut().zip(shard_p) {
                *acc += p;
            }
        }
        self.stats.spans.fetch_add(shards as u64, Ordering::SeqCst);
        self.stats.worlds.fetch_add(count as u64, Ordering::SeqCst);
        self.counter.prepared().engine().fold_counts(
            class.statistic,
            &p_worlds,
            &counts,
            eval_dirs,
            out,
        );
    }
}
