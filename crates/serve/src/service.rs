//! The in-process serving surface: a multi-dataset [`AuditService`]
//! with ticketed submission, drain policies, and cross-batch world
//! caching, over the shared [`SessionTable`] core.

use crate::histogram::nearest_rank;
use crate::sessions::{total_cache_stats, DrainPolicy, Job, SessionTable};
use crate::wire::RequestEnvelope;
use serde::{Deserialize, Serialize};
use sfscan::prepared::{AuditRequest, ExecutionPlan, PreparedAudit, WorldEvaluator};
use sfscan::worldcache::{CacheStats, WorldCache};
use sfscan::{AuditConfig, AuditReport, RegionSet, ScanError, SpatialOutcomes};
use std::collections::BTreeMap;
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
    fn serialize(&self, w: &mut serde::Writer) {
        w.u64(self.0);
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
    fn serialize(&self, w: &mut serde::Writer) {
        w.u64(self.0);
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
    /// should retry after a drain. Produced by a [`SessionTable`] with
    /// a queue capacity, as the `sfnet` executor configures.
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

/// Cumulative serving statistics across every executed batch, every
/// handle. Counters are `u64` end-to-end — absorbed from
/// [`BatchStats`](sfscan::BatchStats) without a single cast — and the
/// [`Display`](std::fmt::Display) form is the one-line summary `experiments serve` prints.
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
    /// Accepted requests no batch has claimed yet, when the stats were
    /// read — a gauge, not a counter (the backpressure signal the load
    /// generator scrapes).
    pub queue_depth: u64,
    /// Median submission→drain latency across served requests. Units
    /// are the `now` the front end passes to its [`SessionTable`]:
    /// deterministic [`AuditService::tick`] ticks in-process,
    /// microseconds under the `sfnet` executor's wall clock. Read from
    /// a fixed-size [`LatencyHistogram`](crate::LatencyHistogram) when
    /// the stats are read, so memory stays bounded however many
    /// requests are served: exact below
    /// [`EXACT_BELOW`](crate::LatencyHistogram::EXACT_BELOW) (1,024),
    /// within [`RELATIVE_ERROR`](crate::LatencyHistogram::RELATIVE_ERROR)
    /// (1/128) of the exact nearest-rank value above it.
    pub drain_p50: u64,
    /// 99th-percentile submission→drain latency (same units and
    /// precision as [`ServerStats::drain_p50`]).
    pub drain_p99: u64,
    /// Latency samples behind the percentiles (== requests served).
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
/// [`LatencyHistogram::percentile`](crate::LatencyHistogram::percentile)
/// is tested against.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[nearest_rank(sorted.len() as u64, q) as usize - 1]
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
///
/// Sessions, queues, policy and accounting live in a [`SessionTable`],
/// the core the `sfnet` executor shares; the service adds tickets, the
/// completed responses, and runs each batch the table releases on the
/// calling thread, at once.
#[derive(Debug, Default)]
pub struct AuditService {
    sessions: SessionTable<Ticket>,
    /// Executed responses awaiting [`AuditService::take`], with their
    /// request's GeoJSON flag, keyed by ticket id.
    completed: BTreeMap<u64, (AuditResponse, bool)>,
    next_ticket: u64,
    /// Per-session world-cache byte cap applied at registration
    /// (`None` = unbounded caches).
    cache_capacity_bytes: Option<usize>,
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
        self.sessions.set_policy(policy);
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

    /// Routes the world simulation of every drain through `evaluator`
    /// (e.g. a distributed shard coordinator) instead of the in-process
    /// engine. The [`WorldEvaluator`] contract keeps responses
    /// bit-identical either way.
    pub fn with_evaluator(mut self, evaluator: Arc<dyn WorldEvaluator>) -> Self {
        self.evaluator = Some(evaluator);
        self
    }

    /// Registers a dataset session: prepares the serving engine from
    /// the dataset, candidate regions, and base config (whose strategy
    /// and shards are the expensive knobs; the rest become
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
        let cache = match self.cache_capacity_bytes {
            Some(bytes) => WorldCache::with_capacity_bytes(bytes),
            None => WorldCache::new(),
        };
        self.sessions.register(Arc::new(prepared), cache)
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
        let session = self
            .sessions
            .unregister(handle)
            .ok_or(SubmitError::UnknownHandle(handle))?;
        let stats = *session.cache().stats();
        Ok(stats)
    }

    /// The prepared engine behind a handle.
    pub fn prepared(&self, handle: DatasetHandle) -> Option<&PreparedAudit> {
        self.sessions.session(handle).map(|s| s.prepared())
    }

    /// A request with a handle's per-request defaults.
    pub fn default_request(&self, handle: DatasetHandle) -> Option<AuditRequest> {
        self.prepared(handle)
            .map(|p| AuditRequest::from_config(p.base_config()))
    }

    /// A handle's cumulative world-cache accounting.
    pub fn cache_stats(&self, handle: DatasetHandle) -> Option<CacheStats> {
        let session = self.sessions.session(handle)?;
        Some(*session.cache().stats())
    }

    /// World-cache accounting summed across every registered session —
    /// the `cache` half of the wire's `{"stats": true}` snapshot.
    pub fn cache_stats_total(&self) -> CacheStats {
        total_cache_stats(&self.sessions.caches())
    }

    /// Worlds currently cached for a handle (across its world classes).
    pub fn cached_worlds(&self, handle: DatasetHandle) -> Option<usize> {
        let session = self.sessions.session(handle)?;
        Some(session.cache().cached_worlds())
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
    pub fn submit(
        &mut self,
        handle: DatasetHandle,
        request: AuditRequest,
    ) -> Result<Ticket, SubmitError> {
        self.submit_envelope(RequestEnvelope::new(handle, request))
    }

    /// [`AuditService::submit`] for a decoded wire envelope: the
    /// envelope's GeoJSON flag travels with the job
    /// ([`AuditService::geojson_requested`]).
    ///
    /// # Errors
    /// As [`AuditService::submit`].
    pub fn submit_envelope(&mut self, envelope: RequestEnvelope) -> Result<Ticket, SubmitError> {
        let ticket = Ticket(self.next_ticket);
        let now = self.sessions.now();
        self.sessions.submit(envelope, ticket, now)?;
        self.next_ticket += 1;
        self.run_ready();
        Ok(ticket)
    }

    /// Where a ticket stands. The `Ready` response is a clone; claim
    /// it with [`AuditService::take`].
    pub fn poll(&self, ticket: Ticket) -> Status {
        if let Some((response, _)) = self.completed.get(&ticket.0) {
            return Status::Ready(response.clone());
        }
        if self.queued().any(|job| job.payload == ticket) {
            Status::Queued
        } else {
            Status::Unknown
        }
    }

    /// Claims a ready response, freeing its slot. `None` if the ticket
    /// is not ready (still queued, never issued, or already taken).
    pub fn take(&mut self, ticket: Ticket) -> Option<AuditResponse> {
        self.completed
            .remove(&ticket.0)
            .map(|(response, _)| response)
    }

    /// Whether `ticket`'s request asked for GeoJSON findings on its
    /// response ([`RequestEnvelope::geojson`]); `false` once the ticket
    /// is taken or unknown.
    pub fn geojson_requested(&self, ticket: Ticket) -> bool {
        match self.completed.get(&ticket.0) {
            Some(&(_, geojson)) => geojson,
            None => self
                .queued()
                .any(|job| job.payload == ticket && job.geojson),
        }
    }

    /// Number of queued, not-yet-executed requests under a handle.
    pub fn pending(&self, handle: DatasetHandle) -> Option<usize> {
        self.sessions.session(handle).map(|s| s.queued().count())
    }

    /// Queued requests across every session.
    pub fn pending_total(&self) -> usize {
        self.sessions.queue_depth()
    }

    /// Executed responses awaiting [`AuditService::take`].
    pub fn ready_total(&self) -> usize {
        self.completed.len()
    }

    /// The execution plan a handle's current queue would run as — for
    /// introspection; the queue is untouched.
    pub fn plan(&self, handle: DatasetHandle) -> Option<ExecutionPlan> {
        let session = self.sessions.session(handle)?;
        Some(ExecutionPlan::new(
            session.queued().map(|job| job.request).collect(),
        ))
    }

    /// Advances the service clock to `now` (monotonic: a smaller value
    /// than the current clock is ignored) and executes every queue
    /// whose [`DrainPolicy::Deadline`] has expired. Returns the number
    /// of requests executed.
    pub fn tick(&mut self, now: u64) -> usize {
        self.sessions.advance(now);
        self.run_ready()
    }

    /// Executes every pending queue right now, regardless of policy —
    /// the manual escape hatch. Returns the number of requests
    /// executed.
    pub fn flush(&mut self) -> usize {
        self.sessions.promote_all();
        self.run_ready()
    }

    /// Cumulative serving statistics. Drain latencies count in
    /// [`AuditService::tick`] units.
    pub fn stats(&self) -> ServerStats {
        self.sessions.stats()
    }

    fn queued(&self) -> impl Iterator<Item = &Job<Ticket>> {
        self.sessions.sessions().flat_map(|s| s.queued())
    }

    /// Runs every batch the table has ready, each resuming from (and
    /// extending) its session's world cache; responses land in the
    /// completed map. Returns the number of requests executed.
    fn run_ready(&mut self) -> usize {
        let mut served = 0;
        while let Some(batch) = self.sessions.claim() {
            let (reports, stats) = batch.run(self.evaluator.as_deref());
            let now = self.sessions.now();
            self.sessions.account(&batch, &stats, now);
            self.sessions.release(batch.handle, batch.jobs.len());
            served += batch.jobs.len();
            for (job, report) in batch.jobs.into_iter().zip(reports) {
                let ticket = job.payload;
                let response = AuditResponse { ticket, report };
                self.completed.insert(ticket.0, (response, job.geojson));
            }
        }
        served
    }
}
