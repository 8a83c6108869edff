//! The v2 serving surface: a multi-dataset [`AuditService`] with
//! ticketed submission, drain policies, and cross-batch world caching.

use crate::histogram::{nearest_rank, LatencyHistogram};
use serde::{Deserialize, Serialize};
use sfscan::prepared::{AuditRequest, BatchStats, ExecutionPlan, PreparedAudit, WorldEvaluator};
use sfscan::worldcache::{CacheStats, WorldCache};
use sfscan::{AuditConfig, AuditReport, RegionSet, ScanError, SpatialOutcomes};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Opaque id of a registered dataset session, unique per service
/// instance and assigned in registration order starting at 0 (stable,
/// so wire transcripts can name handles deterministically). Handles
/// are never reused, even after [`AuditService::unregister`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DatasetHandle(pub u64);

// The vendored serde derive shim only handles braced structs; a bare
// numeric encoding is the right wire format for an id anyway.
impl Serialize for DatasetHandle {
    fn to_value(&self) -> serde::Value {
        self.0.to_value()
    }
}

impl Deserialize for DatasetHandle {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        u64::from_value(value).map(DatasetHandle)
    }
}

impl std::fmt::Display for DatasetHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "dataset-{}", self.0)
    }
}

/// Opaque id of a submitted request, unique per service instance and
/// assigned in submission order (across all handles). Poll it with
/// [`AuditService::poll`]; claim its response with
/// [`AuditService::take`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Ticket(pub u64);

impl Serialize for Ticket {
    fn to_value(&self) -> serde::Value {
        self.0.to_value()
    }
}

impl Deserialize for Ticket {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        u64::from_value(value).map(Ticket)
    }
}

impl std::fmt::Display for Ticket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ticket-{}", self.0)
    }
}

/// One served audit: the ticket it was submitted under and its full
/// report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AuditResponse {
    /// The ticket [`AuditService::submit`] returned.
    pub ticket: Ticket,
    /// The audit result — bit-identical to a standalone
    /// [`sfscan::Auditor`] run of the same request.
    pub report: AuditReport,
}

impl AuditResponse {
    /// Serialises the response as JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("response serialisation cannot fail")
    }

    /// Deserialises a response from JSON.
    pub fn from_json(json: &str) -> Result<Self, serde::Error> {
        serde_json::from_str(json)
    }
}

/// Where a ticket stands, as reported by [`AuditService::poll`].
///
/// `Ready` carries the full response by value on purpose: a `Status`
/// is a short-lived poll result consumed immediately at the call
/// site, never stored in bulk, so boxing the payload would add an
/// allocation per poll for no aggregate memory win.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum Status {
    /// Submitted but not yet executed; a future drain (policy-driven
    /// or [`AuditService::flush`]) will serve it.
    Queued,
    /// Executed; the response is a clone — [`AuditService::take`]
    /// claims it and frees the slot.
    Ready(AuditResponse),
    /// The service has no record of the ticket: never issued, already
    /// taken, or dropped when its handle was unregistered.
    Unknown,
}

impl Status {
    /// `true` for [`Status::Ready`].
    pub fn is_ready(&self) -> bool {
        matches!(self, Status::Ready(_))
    }

    /// `true` for [`Status::Queued`].
    pub fn is_queued(&self) -> bool {
        matches!(self, Status::Queued)
    }
}

/// Typed rejection from [`AuditService::submit`] (and the handle-routed
/// service calls): invalid or unroutable requests are refused before
/// they are queued, never by a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// No session is registered under the handle (never registered, or
    /// evicted by [`AuditService::unregister`]).
    UnknownHandle(DatasetHandle),
    /// The request carries invalid knobs (`alpha` outside `(0, 1)`,
    /// zero `worlds`, zero early-stop batch).
    InvalidRequest {
        /// What is wrong with the request.
        reason: String,
    },
    /// A wire payload did not decode into a request envelope.
    Malformed {
        /// The decoder's complaint.
        reason: String,
    },
    /// The session's bounded submission queue is full — the
    /// backpressure signal. The request was NOT queued; the client
    /// should retry after a drain. Produced only by services with a
    /// queue cap ([`AuditService::with_queue_capacity`]) and by the
    /// bounded per-session queues of the `sfnet` executor.
    Busy {
        /// Outstanding (queued or executing) requests at rejection.
        pending: usize,
        /// The configured per-session capacity.
        capacity: usize,
    },
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::UnknownHandle(handle) => {
                write!(f, "unknown dataset handle {handle}")
            }
            SubmitError::InvalidRequest { reason } => {
                write!(f, "invalid audit request: {reason}")
            }
            SubmitError::Malformed { reason } => {
                write!(f, "malformed request envelope: {reason}")
            }
            SubmitError::Busy { pending, capacity } => {
                write!(
                    f,
                    "busy: session queue full ({pending}/{capacity} outstanding)"
                )
            }
        }
    }
}

impl std::error::Error for SubmitError {}

impl From<ScanError> for SubmitError {
    /// Maps the scan layer's request-validation error; any other
    /// `ScanError` is a programmer error at this boundary.
    fn from(e: ScanError) -> Self {
        SubmitError::InvalidRequest {
            reason: match e {
                ScanError::InvalidRequest { reason } => reason,
                other => other.to_string(),
            },
        }
    }
}

/// When queued requests are executed.
///
/// Policies are driven by the *service clock* — an explicit `u64`
/// tick counter advanced only by [`AuditService::tick`], never by
/// wall-clock reads — so batching behaviour is deterministic and
/// testable. [`AuditService::flush`] is always available as the
/// manual escape hatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DrainPolicy {
    /// Nothing runs until [`AuditService::flush`] (or
    /// [`AuditService::flush_handle`]) is called.
    #[default]
    Manual,
    /// A handle's queue executes as soon as it holds this many
    /// requests (checked at submission; `MaxPending(1)` serves every
    /// request immediately).
    MaxPending(usize),
    /// A handle's queue executes on the first [`AuditService::tick`]
    /// at least this many ticks after its oldest pending submission.
    Deadline(u64),
}

/// Cumulative serving statistics across every executed batch, every
/// handle. Counters are `u64` end-to-end — absorbed from
/// [`BatchStats`] without a single cast — and the [`Display`] form is
/// the one-line summary `experiments serve` prints.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ServerStats {
    /// Requests served over the service's lifetime.
    pub requests_served: u64,
    /// Batches executed.
    pub batches: u64,
    /// Worlds generated and counted.
    pub unique_worlds: u64,
    /// Worlds answered from a prior batch's world cache.
    pub worlds_replayed: u64,
    /// Group executions that replayed at least one cached world.
    pub cache_hits: u64,
    /// Worlds sequential single audits would have generated
    /// (`Σ worlds_evaluated`).
    pub lane_worlds: u64,
    /// Worlds the per-request budgets allowed in total.
    pub budget_total: u64,
    /// Queued-but-unexecuted requests at the last submit/drain event —
    /// a gauge, not a counter (the backpressure signal the load
    /// generator scrapes).
    pub queue_depth: u64,
    /// Median submission→drain latency across served requests. Units
    /// are whatever clock drives the service: deterministic
    /// [`AuditService::tick`] ticks in-process, microseconds under the
    /// `sfnet` executor's wall clock. Read from a fixed-size
    /// [`LatencyHistogram`] when the stats are read, so memory stays
    /// bounded however many requests are served: exact below
    /// [`LatencyHistogram::EXACT_BELOW`] (1,024), within
    /// [`LatencyHistogram::RELATIVE_ERROR`] (1/128) of the exact
    /// nearest-rank value above it.
    pub drain_p50: u64,
    /// 99th-percentile submission→drain latency (same units and
    /// precision as [`ServerStats::drain_p50`]).
    pub drain_p99: u64,
    /// Latency samples behind the percentiles (== requests served
    /// through the latency-tracked path).
    pub drain_samples: u64,
}

impl ServerStats {
    /// Lane-worlds answered from a same-batch shared stream instead of
    /// being regenerated (cross-batch replays are counted separately
    /// in [`ServerStats::worlds_replayed`]).
    pub fn worlds_shared(&self) -> u64 {
        self.lane_worlds
            .saturating_sub(self.unique_worlds + self.worlds_replayed)
    }

    /// Worlds early stopping saved across all batches.
    pub fn worlds_saved(&self) -> u64 {
        self.budget_total.saturating_sub(self.lane_worlds)
    }

    /// Folds one executed batch's accounting into the cumulative
    /// counters. Public so the `sfnet` executor shares the exact
    /// mapping (and therefore the exact summary line) with the
    /// in-process service.
    pub fn absorb(&mut self, batch: &BatchStats) {
        self.requests_served += batch.requests;
        self.batches += 1;
        self.unique_worlds += batch.unique_worlds;
        self.worlds_replayed += batch.worlds_replayed;
        self.cache_hits += batch.cache_hits;
        self.lane_worlds += batch.lane_worlds;
        self.budget_total += batch.budget_total;
    }

    /// These counters with the drain-latency fields read from
    /// `latency`.
    pub fn with_drain_latency(mut self, latency: &LatencyHistogram) -> Self {
        self.drain_p50 = latency.percentile(0.50);
        self.drain_p99 = latency.percentile(0.99);
        self.drain_samples = latency.samples();
        self
    }
}

impl std::fmt::Display for ServerStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "requests={} batches={} worlds: unique={} shared={} saved={} \
             replayed={} cache_hits={} | queue_depth={} \
             drain_latency: p50={} p99={} (n={})",
            self.requests_served,
            self.batches,
            self.unique_worlds,
            self.worlds_shared(),
            self.worlds_saved(),
            self.worlds_replayed,
            self.cache_hits,
            self.queue_depth,
            self.drain_p50,
            self.drain_p99,
            self.drain_samples
        )
    }
}

/// Nearest-rank percentile over an ascending-sorted sample set (`q` in
/// `[0, 1]`); 0 on an empty set. The exact reference
/// [`LatencyHistogram::percentile`] is tested against.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[nearest_rank(sorted.len() as u64, q) as usize - 1]
}

/// One registered dataset: its prepared engine, its pending queue, and
/// its cross-batch world cache.
#[derive(Debug)]
struct Session {
    handle: DatasetHandle,
    prepared: PreparedAudit,
    cache: WorldCache,
    /// Pending requests with the clock value each was submitted at
    /// (the drain-latency sample recorded when the batch executes).
    queue: Vec<(Ticket, AuditRequest, u64)>,
    /// Clock time of the oldest pending submission (None when empty);
    /// drives [`DrainPolicy::Deadline`].
    queued_since: Option<u64>,
}

/// The audit serving surface: many registered datasets behind one
/// service, ticketed submission, policy-driven batching, and a
/// per-dataset cross-batch world cache.
///
/// * **Sessions** — [`AuditService::register`] prepares a dataset's
///   engine once and returns a [`DatasetHandle`]; requests route by
///   handle; [`AuditService::unregister`] evicts the session (engine,
///   queue, and cache).
/// * **Tickets** — [`AuditService::submit`] validates, queues, and
///   returns a [`Ticket`] immediately; [`AuditService::poll`] /
///   [`AuditService::take`] decouple submission from execution.
/// * **Drain policies** — [`DrainPolicy`] decides when queues execute,
///   driven by the explicit [`AuditService::tick`] clock;
///   [`AuditService::flush`] is the manual escape hatch.
/// * **World cache** — each session's executed batches feed a
///   [`WorldCache`]; repeat or extended requests replay cached
///   τ-streams and simulate only the un-cached suffix,
///   **bit-identical** to a cold run by construction.
#[derive(Debug, Default)]
pub struct AuditService {
    sessions: Vec<Session>,
    /// Executed responses awaiting [`AuditService::take`], keyed by
    /// ticket id (BTreeMap so iteration is submission order).
    completed: BTreeMap<u64, AuditResponse>,
    next_handle: u64,
    next_ticket: u64,
    clock: u64,
    policy: DrainPolicy,
    /// Per-session world-cache byte cap applied at registration
    /// (`None` = unbounded caches).
    cache_capacity_bytes: Option<usize>,
    /// Per-session pending-queue cap (`None` = unbounded; submissions
    /// beyond it are rejected with [`SubmitError::Busy`]).
    queue_capacity: Option<usize>,
    /// Submission→drain latencies in service-clock ticks.
    drain_latency: LatencyHistogram,
    /// Tickets whose wire request asked for GeoJSON findings on the
    /// response ([`RequestEnvelope::geojson`](crate::RequestEnvelope)).
    /// Presentation state only — execution and reports are unaffected.
    geojson_tickets: BTreeSet<u64>,
    stats: ServerStats,
    /// Optional world-evaluation backend (e.g. a distributed shard
    /// coordinator) threaded into every drain; `None` simulates
    /// in-process. The [`WorldEvaluator`] contract makes either path
    /// bit-identical.
    evaluator: Option<Arc<dyn WorldEvaluator>>,
}

impl AuditService {
    /// An empty service with [`DrainPolicy::Manual`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the drain policy at construction.
    pub fn with_policy(mut self, policy: DrainPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Caps every *subsequently registered* session's world cache at
    /// `bytes` resident τ-buffer bytes ([`WorldCache::with_capacity_bytes`]):
    /// long-lived deployments trade repeat-batch replays for bounded
    /// memory, with least-recently-used world classes evicted first.
    /// Existing sessions keep the cache they were registered with.
    pub fn with_cache_capacity_bytes(mut self, bytes: usize) -> Self {
        self.cache_capacity_bytes = Some(bytes);
        self
    }

    /// The per-session world-cache byte cap (`None` = unbounded).
    pub fn cache_capacity_bytes(&self) -> Option<usize> {
        self.cache_capacity_bytes
    }

    /// Bounds every session's pending queue at `requests`: a submission
    /// that would exceed it is rejected with [`SubmitError::Busy`]
    /// instead of queueing without limit — the in-process version of
    /// the `sfnet` executor's backpressure. Floored at 1.
    pub fn with_queue_capacity(mut self, requests: usize) -> Self {
        self.queue_capacity = Some(requests.max(1));
        self
    }

    /// The per-session pending-queue cap (`None` = unbounded).
    pub fn queue_capacity(&self) -> Option<usize> {
        self.queue_capacity
    }

    /// Installs a world-evaluation backend (builder form). See
    /// [`AuditService::set_evaluator`].
    pub fn with_evaluator(mut self, evaluator: Arc<dyn WorldEvaluator>) -> Self {
        self.evaluator = Some(evaluator);
        self
    }

    /// Installs (or, with `None`, removes) a world-evaluation backend.
    /// Every subsequent drain routes world simulation through it —
    /// e.g. a distributed shard coordinator — instead of the
    /// in-process engine. The [`WorldEvaluator`] contract guarantees
    /// responses stay bit-identical either way.
    pub fn set_evaluator(&mut self, evaluator: Option<Arc<dyn WorldEvaluator>>) {
        self.evaluator = evaluator;
    }

    /// The installed world-evaluation backend, if any.
    pub fn evaluator(&self) -> Option<&Arc<dyn WorldEvaluator>> {
        self.evaluator.as_ref()
    }

    /// The active drain policy.
    pub fn policy(&self) -> DrainPolicy {
        self.policy
    }

    /// Replaces the drain policy. Takes effect from the next
    /// submission/tick; already-queued requests are not retroactively
    /// executed until an event (submit, tick, flush) triggers them.
    pub fn set_policy(&mut self, policy: DrainPolicy) {
        self.policy = policy;
    }

    /// The service clock (last value passed to [`AuditService::tick`]).
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Registers a dataset session: prepares the serving engine from
    /// the dataset, candidate regions, and base config (whose
    /// backend/strategy are the expensive knobs; the rest become
    /// per-request defaults) and returns its routing handle.
    ///
    /// # Errors
    /// Propagates [`PreparedAudit::prepare`]'s validation errors
    /// ([`ScanError::EmptyRegionSet`],
    /// [`ScanError::DegenerateOutcomes`]).
    pub fn register(
        &mut self,
        outcomes: &SpatialOutcomes,
        regions: &RegionSet,
        config: AuditConfig,
    ) -> Result<DatasetHandle, ScanError> {
        Ok(self.register_prepared(PreparedAudit::prepare(outcomes, regions, config)?))
    }

    /// Registers an already-prepared engine as a session.
    pub fn register_prepared(&mut self, prepared: PreparedAudit) -> DatasetHandle {
        let handle = DatasetHandle(self.next_handle);
        self.next_handle += 1;
        self.sessions.push(Session {
            handle,
            prepared,
            cache: match self.cache_capacity_bytes {
                Some(bytes) => WorldCache::with_capacity_bytes(bytes),
                None => WorldCache::new(),
            },
            queue: Vec::new(),
            queued_since: None,
        });
        handle
    }

    /// Evicts a session: its engine, pending queue, and world cache
    /// are dropped (pending tickets become [`Status::Unknown`];
    /// already-executed responses stay claimable). Returns the
    /// session's final cache accounting.
    ///
    /// # Errors
    /// [`SubmitError::UnknownHandle`] if nothing is registered under
    /// the handle.
    pub fn unregister(&mut self, handle: DatasetHandle) -> Result<CacheStats, SubmitError> {
        let idx = self.session_index(handle)?;
        let session = self.sessions.remove(idx);
        Ok(*session.cache.stats())
    }

    /// Handles of the registered sessions, in registration order.
    pub fn handles(&self) -> Vec<DatasetHandle> {
        self.sessions.iter().map(|s| s.handle).collect()
    }

    /// The prepared engine behind a handle.
    pub fn prepared(&self, handle: DatasetHandle) -> Option<&PreparedAudit> {
        self.session(handle).map(|s| &s.prepared)
    }

    /// A request with a handle's per-request defaults.
    pub fn default_request(&self, handle: DatasetHandle) -> Option<AuditRequest> {
        self.session(handle)
            .map(|s| AuditRequest::from_config(s.prepared.base_config()))
    }

    /// A handle's cumulative world-cache accounting.
    pub fn cache_stats(&self, handle: DatasetHandle) -> Option<CacheStats> {
        self.session(handle).map(|s| *s.cache.stats())
    }

    /// World-cache accounting summed across every registered session —
    /// the `cache` half of the wire's `{"stats": true}` snapshot.
    pub fn cache_stats_total(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for session in &self.sessions {
            total.absorb(session.cache.stats());
        }
        total
    }

    /// Worlds currently cached for a handle (across its world classes).
    pub fn cached_worlds(&self, handle: DatasetHandle) -> Option<usize> {
        self.session(handle).map(|s| s.cache.cached_worlds())
    }

    /// Validates and queues a request against a session; returns its
    /// ticket immediately. Nothing expensive happens here unless the
    /// drain policy fires ([`DrainPolicy::MaxPending`] executes the
    /// handle's batch as soon as the queue is long enough).
    ///
    /// # Errors
    /// * [`SubmitError::UnknownHandle`] — no such session.
    /// * [`SubmitError::InvalidRequest`] — invalid knobs, rejected
    ///   *before* queueing so a bad request can never take an already
    ///   queued batch down with it.
    /// * [`SubmitError::Busy`] — the session queue is at its
    ///   [`AuditService::with_queue_capacity`] cap; nothing was queued
    ///   and no ticket was consumed.
    pub fn submit(
        &mut self,
        handle: DatasetHandle,
        request: AuditRequest,
    ) -> Result<Ticket, SubmitError> {
        request.validate()?;
        let idx = self.session_index(handle)?;
        if let Some(capacity) = self.queue_capacity {
            let pending = self.sessions[idx].queue.len();
            if pending >= capacity {
                return Err(SubmitError::Busy { pending, capacity });
            }
        }
        let ticket = Ticket(self.next_ticket);
        self.next_ticket += 1;
        let clock = self.clock;
        let session = &mut self.sessions[idx];
        session.queue.push((ticket, request, clock));
        session.queued_since.get_or_insert(clock);
        self.stats.queue_depth = self.pending_total() as u64;
        if let DrainPolicy::MaxPending(limit) = self.policy {
            if self.sessions[idx].queue.len() >= limit.max(1) {
                self.run_session_batch(idx);
            }
        }
        Ok(ticket)
    }

    /// Where a ticket stands. The `Ready` response is a clone; claim
    /// it with [`AuditService::take`].
    pub fn poll(&self, ticket: Ticket) -> Status {
        if let Some(response) = self.completed.get(&ticket.0) {
            return Status::Ready(response.clone());
        }
        let queued = self
            .sessions
            .iter()
            .any(|s| s.queue.iter().any(|(t, _, _)| *t == ticket));
        if queued {
            Status::Queued
        } else {
            Status::Unknown
        }
    }

    /// Claims a ready response, freeing its slot. `None` if the ticket
    /// is not ready (still queued, never issued, or already taken).
    pub fn take(&mut self, ticket: Ticket) -> Option<AuditResponse> {
        self.completed.remove(&ticket.0)
    }

    /// Remembers that `ticket`'s response should carry GeoJSON
    /// findings. [`AuditService::submit_json`] calls this for
    /// envelopes with the `geojson` flag; direct [`AuditService::submit`]
    /// callers can opt in explicitly.
    pub fn mark_geojson(&mut self, ticket: Ticket) {
        self.geojson_tickets.insert(ticket.0);
    }

    /// Whether `ticket`'s request asked for GeoJSON findings. Clears
    /// the mark — the serving loop asks exactly once, when it renders
    /// the response line.
    pub fn geojson_requested(&mut self, ticket: Ticket) -> bool {
        self.geojson_tickets.remove(&ticket.0)
    }

    /// Claims every ready response, in ticket (= submission) order.
    pub fn take_ready(&mut self) -> Vec<AuditResponse> {
        let completed = std::mem::take(&mut self.completed);
        completed.into_values().collect()
    }

    /// Number of queued, not-yet-executed requests under a handle.
    pub fn pending(&self, handle: DatasetHandle) -> Option<usize> {
        self.session(handle).map(|s| s.queue.len())
    }

    /// Queued requests across every session.
    pub fn pending_total(&self) -> usize {
        self.sessions.iter().map(|s| s.queue.len()).sum()
    }

    /// Executed responses awaiting [`AuditService::take`].
    pub fn ready_total(&self) -> usize {
        self.completed.len()
    }

    /// The execution plan a handle's current queue would run as — for
    /// introspection; the queue is untouched.
    pub fn plan(&self, handle: DatasetHandle) -> Option<ExecutionPlan> {
        self.session(handle)
            .map(|s| ExecutionPlan::new(s.queue.iter().map(|(_, r, _)| *r).collect()))
    }

    /// Advances the service clock to `now` (monotonic: a smaller value
    /// than the current clock is ignored) and executes every queue
    /// whose [`DrainPolicy::Deadline`] has expired. Returns the number
    /// of requests executed.
    pub fn tick(&mut self, now: u64) -> usize {
        self.clock = self.clock.max(now);
        let DrainPolicy::Deadline(ticks) = self.policy else {
            return 0;
        };
        let clock = self.clock;
        let expired: Vec<usize> = self
            .sessions
            .iter()
            .enumerate()
            .filter(|(_, s)| {
                s.queued_since
                    .is_some_and(|since| clock.saturating_sub(since) >= ticks)
            })
            .map(|(i, _)| i)
            .collect();
        expired
            .into_iter()
            .map(|idx| self.run_session_batch(idx))
            .sum()
    }

    /// Executes every pending queue right now, regardless of policy —
    /// the manual escape hatch. Returns the number of requests
    /// executed.
    pub fn flush(&mut self) -> usize {
        (0..self.sessions.len())
            .map(|idx| self.run_session_batch(idx))
            .sum()
    }

    /// Executes one handle's pending queue right now. Returns the
    /// number of requests executed.
    ///
    /// # Errors
    /// [`SubmitError::UnknownHandle`] if nothing is registered under
    /// the handle.
    pub fn flush_handle(&mut self, handle: DatasetHandle) -> Result<usize, SubmitError> {
        let idx = self.session_index(handle)?;
        Ok(self.run_session_batch(idx))
    }

    /// Cumulative serving statistics.
    pub fn stats(&self) -> ServerStats {
        self.stats.with_drain_latency(&self.drain_latency)
    }

    fn session(&self, handle: DatasetHandle) -> Option<&Session> {
        self.sessions.iter().find(|s| s.handle == handle)
    }

    fn session_index(&self, handle: DatasetHandle) -> Result<usize, SubmitError> {
        self.sessions
            .iter()
            .position(|s| s.handle == handle)
            .ok_or(SubmitError::UnknownHandle(handle))
    }

    /// Plans and executes one session's queue as a single batch,
    /// resuming from (and extending) the session's world cache;
    /// responses land in the completed map.
    fn run_session_batch(&mut self, idx: usize) -> usize {
        let session = &mut self.sessions[idx];
        if session.queue.is_empty() {
            return 0;
        }
        let queued = std::mem::take(&mut session.queue);
        session.queued_since = None;
        let requests: Vec<AuditRequest> = queued.iter().map(|(_, r, _)| *r).collect();
        let evaluator = self.evaluator.clone();
        let (reports, batch) = session.prepared.run_batch_cached_with(
            &requests,
            &mut session.cache,
            evaluator.as_deref(),
        );
        self.stats.absorb(&batch);
        let clock = self.clock;
        for (_, _, at) in &queued {
            self.drain_latency.record(clock.saturating_sub(*at));
        }
        let served = queued.len();
        for ((ticket, _, _), report) in queued.into_iter().zip(reports) {
            self.completed
                .insert(ticket.0, AuditResponse { ticket, report });
        }
        self.stats.queue_depth = self.pending_total() as u64;
        served
    }
}
