//! The session core both serving front ends share.
//!
//! [`SessionTable`] holds the registered datasets, their job queues, the
//! drain policy and the batch accounting. It has no lock and no clock:
//! time enters only as the `now` each call passes in, in whatever units
//! the caller counts. The in-process [`AuditService`](crate::AuditService)
//! owns one and runs each claimed batch on the calling thread; the
//! `sfnet` executor keeps one behind a `Mutex` and runs claimed batches
//! on a worker pool.
//!
//! A job is *pending* from [`SessionTable::submit`] until the
//! [`DrainPolicy`] promotes its session's queue, then *ready* until
//! [`SessionTable::claim`] takes that whole queue as one [`Batch`]
//! (visiting sessions round robin), then *executing* until
//! [`SessionTable::release`]. The `Busy` cap counts all three.

use crate::histogram::LatencyHistogram;
use crate::service::{DatasetHandle, ServerStats, SubmitError};
use crate::wire::RequestEnvelope;
use sfscan::prepared::{AuditRequest, BatchStats, PreparedAudit, WorldEvaluator};
use sfscan::worldcache::{CacheStats, WorldCache};
use sfscan::AuditReport;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};

/// When queued requests become runnable.
///
/// A policy is evaluated against the `now` its front end passes in:
/// explicit [`AuditService::tick`](crate::AuditService::tick) values
/// in-process, the injected clock's reading (microseconds under the
/// system clock) in the `sfnet` executor. [`Deadline`](Self::Deadline)
/// therefore counts in whatever units that caller uses. A flush runs
/// everything regardless of policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DrainPolicy {
    /// Nothing runs until a flush.
    #[default]
    Manual,
    /// A session's queue runs as soon as it holds this many pending
    /// requests (checked at submission; `MaxPending(1)` serves every
    /// request immediately, and 0 counts as 1).
    MaxPending(usize),
    /// A session's queue runs at the first submission or clock advance
    /// at least this many units after its oldest pending submission
    /// (`Deadline(0)` runs each request at submission).
    Deadline(u64),
}

/// One accepted request travelling through a [`SessionTable`].
#[derive(Debug)]
pub struct Job<P> {
    /// The validated audit request.
    pub request: AuditRequest,
    /// Whether the response should carry GeoJSON findings
    /// ([`RequestEnvelope::geojson`]).
    pub geojson: bool,
    /// The `now` at acceptance: the start of its drain-latency sample.
    pub submitted_at: u64,
    /// What the front end needs to answer the job (its ticket, and for
    /// the network executor the connection to answer on).
    pub payload: P,
}

/// One registered dataset: its prepared engine, its cross-batch world
/// cache and its queues.
#[derive(Debug)]
pub(crate) struct Session<P> {
    prepared: Arc<PreparedAudit>,
    /// Locked by whoever runs one of this session's batches, for the
    /// length of the batch.
    cache: Arc<Mutex<WorldCache>>,
    /// Oldest first, so the head's `submitted_at` is the deadline base.
    pending: Vec<Job<P>>,
    ready: Vec<Job<P>>,
    executing: usize,
}

impl<P> Session<P> {
    /// The session's prepared engine.
    pub(crate) fn prepared(&self) -> &PreparedAudit {
        &self.prepared
    }

    /// The session's cross-batch world cache, locked.
    pub(crate) fn cache(&self) -> MutexGuard<'_, WorldCache> {
        lock(&self.cache)
    }

    /// Accepted jobs that no batch has claimed yet, oldest first.
    pub(crate) fn queued(&self) -> impl Iterator<Item = &Job<P>> {
        self.ready.iter().chain(&self.pending)
    }

    fn promote(&mut self) {
        self.ready.append(&mut self.pending);
    }
}

/// One session's claimed ready queue, run as a single world-sharing
/// batch.
#[derive(Debug)]
pub struct Batch<P> {
    /// The session the jobs belong to.
    pub handle: DatasetHandle,
    prepared: Arc<PreparedAudit>,
    cache: Arc<Mutex<WorldCache>>,
    /// The jobs, in submission order.
    pub jobs: Vec<Job<P>>,
}

impl<P> Batch<P> {
    /// Executes the batch through the session's world cache, with
    /// world simulation routed through `evaluator` when one is given.
    /// Reports come back in job order and are bit-identical to
    /// standalone audits whatever the batch holds.
    pub fn run(&self, evaluator: Option<&dyn WorldEvaluator>) -> (Vec<AuditReport>, BatchStats) {
        let requests: Vec<AuditRequest> = self.jobs.iter().map(|job| job.request).collect();
        let mut cache = lock(&self.cache);
        self.prepared
            .run_batch_cached_with(&requests, &mut cache, evaluator)
    }
}

/// Registered sessions, their queues, the drain policy and the
/// cumulative accounting, generic over the per-job payload `P`. See the
/// module docs.
#[derive(Debug)]
pub struct SessionTable<P> {
    sessions: BTreeMap<DatasetHandle, Session<P>>,
    next_handle: u64,
    policy: DrainPolicy,
    /// Per-session bound on pending + ready + executing jobs.
    queue_capacity: Option<usize>,
    /// High-water mark of every `now` passed in.
    now: u64,
    /// The next claim's scan starts at this handle.
    cursor: DatasetHandle,
    stats: ServerStats,
    drain_latency: LatencyHistogram,
}

impl<P> Default for SessionTable<P> {
    fn default() -> Self {
        SessionTable::new(DrainPolicy::Manual, None)
    }
}

impl<P> SessionTable<P> {
    /// An empty table. `queue_capacity` bounds each session's
    /// unanswered jobs; `None` leaves them unbounded.
    pub fn new(policy: DrainPolicy, queue_capacity: Option<usize>) -> Self {
        SessionTable {
            sessions: BTreeMap::new(),
            next_handle: 0,
            policy,
            queue_capacity,
            now: 0,
            cursor: DatasetHandle(0),
            stats: ServerStats::default(),
            drain_latency: LatencyHistogram::new(),
        }
    }

    /// Replaces the drain policy. Queued jobs are promoted under it at
    /// the next submission or [`SessionTable::advance`].
    pub(crate) fn set_policy(&mut self, policy: DrainPolicy) {
        self.policy = policy;
    }

    /// The largest `now` passed in so far.
    pub(crate) fn now(&self) -> u64 {
        self.now
    }

    /// Adds a session. Handles are assigned `0, 1, …` in registration
    /// order and never reused, so wire transcripts can name them.
    pub fn register(&mut self, prepared: Arc<PreparedAudit>, cache: WorldCache) -> DatasetHandle {
        let handle = DatasetHandle(self.next_handle);
        self.next_handle += 1;
        self.sessions.insert(
            handle,
            Session {
                prepared,
                cache: Arc::new(Mutex::new(cache)),
                pending: Vec::new(),
                ready: Vec::new(),
                executing: 0,
            },
        );
        handle
    }

    /// Removes a session with everything it still queues.
    pub(crate) fn unregister(&mut self, handle: DatasetHandle) -> Option<Session<P>> {
        self.sessions.remove(&handle)
    }

    /// The session behind a handle.
    pub(crate) fn session(&self, handle: DatasetHandle) -> Option<&Session<P>> {
        self.sessions.get(&handle)
    }

    /// Every session, in handle order.
    pub(crate) fn sessions(&self) -> impl Iterator<Item = &Session<P>> {
        self.sessions.values()
    }

    /// Validates and queues one request at time `now`, then applies the
    /// drain policy.
    ///
    /// # Errors
    /// [`SubmitError::InvalidRequest`], [`SubmitError::UnknownHandle`],
    /// or [`SubmitError::Busy`] when the session already holds its
    /// capacity of unanswered jobs. Nothing is queued on any error.
    pub fn submit(
        &mut self,
        envelope: RequestEnvelope,
        payload: P,
        now: u64,
    ) -> Result<(), SubmitError> {
        envelope.request.validate()?;
        self.now = self.now.max(now);
        let session = self
            .sessions
            .get_mut(&envelope.handle)
            .ok_or(SubmitError::UnknownHandle(envelope.handle))?;
        if let Some(capacity) = self.queue_capacity {
            let pending = session.pending.len() + session.ready.len() + session.executing;
            if pending >= capacity {
                return Err(SubmitError::Busy { pending, capacity });
            }
        }
        session.pending.push(Job {
            request: envelope.request,
            geojson: envelope.geojson,
            submitted_at: self.now,
            payload,
        });
        if let DrainPolicy::MaxPending(limit) = self.policy {
            if session.pending.len() >= limit.max(1) {
                session.promote();
            }
        }
        self.advance(now);
        Ok(())
    }

    /// Moves the clock to `now` (a smaller value is ignored) and, under
    /// [`DrainPolicy::Deadline`], promotes every session whose oldest
    /// pending job has waited the deadline.
    pub fn advance(&mut self, now: u64) {
        self.now = self.now.max(now);
        if let DrainPolicy::Deadline(ticks) = self.policy {
            let now = self.now;
            for session in self.sessions.values_mut() {
                let expired = session
                    .pending
                    .first()
                    .is_some_and(|job| now.saturating_sub(job.submitted_at) >= ticks);
                if expired {
                    session.promote();
                }
            }
        }
    }

    /// Promotes every pending job, whatever the policy: the flush.
    pub fn promote_all(&mut self) {
        self.sessions.values_mut().for_each(Session::promote);
    }

    /// Whether any session has ready jobs to claim.
    pub fn has_ready(&self) -> bool {
        self.sessions.values().any(|s| !s.ready.is_empty())
    }

    /// Claims the next session's whole ready queue as one batch. The
    /// scan starts just past the previously claimed session and wraps,
    /// so sessions take turns.
    pub fn claim(&mut self) -> Option<Batch<P>> {
        let handle = self
            .sessions
            .range(self.cursor..)
            .chain(self.sessions.range(..self.cursor))
            .find(|(_, session)| !session.ready.is_empty())
            .map(|(&handle, _)| handle)?;
        self.cursor = DatasetHandle(handle.0 + 1);
        let session = self.sessions.get_mut(&handle)?;
        let jobs = std::mem::take(&mut session.ready);
        session.executing += jobs.len();
        Some(Batch {
            handle,
            prepared: Arc::clone(&session.prepared),
            cache: Arc::clone(&session.cache),
            jobs,
        })
    }

    /// Folds a finished batch into the cumulative stats: its
    /// [`BatchStats`], and one drain-latency sample per job measured to
    /// `now`.
    pub fn account(&mut self, batch: &Batch<P>, stats: &BatchStats, now: u64) {
        self.now = self.now.max(now);
        let total = &mut self.stats;
        total.requests_served += stats.requests;
        total.batches += 1;
        total.unique_worlds += stats.unique_worlds;
        total.worlds_replayed += stats.worlds_replayed;
        total.cache_hits += stats.cache_hits;
        total.lane_worlds += stats.lane_worlds;
        total.budget_total += stats.budget_total;
        for job in &batch.jobs {
            self.drain_latency
                .record(self.now.saturating_sub(job.submitted_at));
        }
    }

    /// Ends `jobs` executing jobs of a session: they no longer count
    /// against its capacity or keep the table busy.
    pub fn release(&mut self, handle: DatasetHandle, jobs: usize) {
        if let Some(session) = self.sessions.get_mut(&handle) {
            session.executing -= jobs;
        }
    }

    /// Jobs accepted but not yet claimed, across every session.
    pub fn queue_depth(&self) -> usize {
        self.sessions
            .values()
            .map(|s| s.pending.len() + s.ready.len())
            .sum()
    }

    /// Jobs accepted but not yet released, across every session.
    pub fn outstanding(&self) -> usize {
        self.queue_depth() + self.sessions.values().map(|s| s.executing).sum::<usize>()
    }

    /// The cumulative stats, with the current queue depth and the
    /// drain-latency percentiles.
    pub fn stats(&self) -> ServerStats {
        ServerStats {
            queue_depth: self.queue_depth() as u64,
            drain_p50: self.drain_latency.percentile(0.50),
            drain_p99: self.drain_latency.percentile(0.99),
            drain_samples: self.drain_latency.samples(),
            ..self.stats
        }
    }

    /// Every session's world cache, to be summed with [`total_cache_stats`]
    /// once the caller has let go of whatever guards this table.
    pub fn caches(&self) -> Vec<Arc<Mutex<WorldCache>>> {
        self.sessions
            .values()
            .map(|s| Arc::clone(&s.cache))
            .collect()
    }
}

/// World-cache accounting summed over `caches`: the `cache` half of the
/// wire's `{"stats": true}` snapshot. Each cache lock is taken in turn,
/// so a batch running on one session delays the sum but never deadlocks
/// it.
pub fn total_cache_stats(caches: &[Arc<Mutex<WorldCache>>]) -> CacheStats {
    let mut total = CacheStats::default();
    for cache in caches {
        total.absorb(lock(cache).stats());
    }
    total
}

fn lock(cache: &Mutex<WorldCache>) -> MutexGuard<'_, WorldCache> {
    cache
        .lock()
        .expect("a batch panicked while holding this world cache")
}
