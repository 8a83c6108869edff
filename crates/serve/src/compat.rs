//! The deprecated v1 serving surface, re-exported over
//! [`AuditService`] for one release.
//!
//! `AuditServer` was single-dataset and synchronous: submit into one
//! implicit queue, block on `drain()`. The v2 [`AuditService`] replaces
//! it (sessions → tickets → drain policies → world cache); this shim
//! keeps v1 call sites compiling — with a deprecation warning, not a
//! break — by wrapping a one-session service. Behaviour differences
//! from true v1 are limited to what v2 adds underneath: drained
//! batches warm the session's world cache, so repeated requests stop
//! re-simulating worlds (results are bit-identical either way).
//!
//! One rename does surface: responses now carry `ticket` instead of
//! `id` (the old `RequestId` is an alias of [`Ticket`]).

#![allow(deprecated)]

use crate::service::{AuditResponse, AuditService, DatasetHandle, ServerStats, Ticket};
use sfscan::prepared::{AuditRequest, ExecutionPlan, PreparedAudit};
use sfscan::{AuditConfig, RegionSet, ScanError, SpatialOutcomes};

/// The v1 name for a submission id.
#[deprecated(note = "requests are identified by `Ticket` in the AuditService API")]
pub type RequestId = Ticket;

/// A single-dataset queue-then-drain front-end — the v1 API, now a
/// thin wrapper over one [`AuditService`] session.
#[deprecated(
    note = "use AuditService: register datasets for handles, submit for tickets, \
            poll/take for responses, tick/flush for batching"
)]
#[derive(Debug)]
pub struct AuditServer {
    service: AuditService,
    handle: DatasetHandle,
    /// Submitted, not-yet-drained tickets in submission order.
    order: Vec<Ticket>,
}

impl AuditServer {
    /// Prepares the serving engine once (see
    /// [`AuditService::register`]).
    ///
    /// # Errors
    /// Propagates [`PreparedAudit::prepare`]'s validation errors.
    pub fn new(
        outcomes: &SpatialOutcomes,
        regions: &RegionSet,
        config: AuditConfig,
    ) -> Result<Self, ScanError> {
        Ok(Self::from_prepared(PreparedAudit::prepare(
            outcomes, regions, config,
        )?))
    }

    /// Wraps an already-prepared engine.
    pub fn from_prepared(prepared: PreparedAudit) -> Self {
        let mut service = AuditService::new();
        let handle = service.register_prepared(prepared);
        AuditServer {
            service,
            handle,
            order: Vec::new(),
        }
    }

    /// The prepared engine serving this queue.
    pub fn prepared(&self) -> &PreparedAudit {
        self.service
            .prepared(self.handle)
            .expect("the shim's one session is never evicted")
    }

    /// The base config requests are completed against.
    pub fn base_config(&self) -> &AuditConfig {
        self.prepared().base_config()
    }

    /// A request with this server's per-request defaults.
    pub fn default_request(&self) -> AuditRequest {
        AuditRequest::from_config(self.base_config())
    }

    /// Enqueues a request; returns the id its response will carry.
    ///
    /// # Panics
    /// Panics on invalid knobs — the v1 contract. New code should call
    /// [`AuditService::submit`], which returns the typed
    /// [`SubmitError`](crate::SubmitError) instead.
    pub fn submit(&mut self, request: AuditRequest) -> RequestId {
        match self.service.submit(self.handle, request) {
            Ok(ticket) => {
                self.order.push(ticket);
                ticket
            }
            Err(e) => panic!("{e}"),
        }
    }

    /// Enqueues a JSON-encoded [`AuditRequest`].
    ///
    /// # Errors
    /// Returns an error — without touching the queue — when the
    /// payload does not decode or decodes to a request with invalid
    /// knobs.
    pub fn submit_json(&mut self, json: &str) -> Result<RequestId, serde::Error> {
        let request: AuditRequest = serde_json::from_str(json)?;
        match self.service.submit(self.handle, request) {
            Ok(ticket) => {
                self.order.push(ticket);
                Ok(ticket)
            }
            Err(e) => Err(serde::Error::msg(e.to_string())),
        }
    }

    /// Number of queued, not-yet-served requests.
    pub fn pending(&self) -> usize {
        self.service
            .pending(self.handle)
            .expect("the shim's one session is never evicted")
    }

    /// The execution plan the current queue would run as.
    pub fn plan(&self) -> ExecutionPlan {
        self.service
            .plan(self.handle)
            .expect("the shim's one session is never evicted")
    }

    /// Serves every queued request as one batch, returning the
    /// responses in submission order. The queue is left empty.
    pub fn drain(&mut self) -> Vec<AuditResponse> {
        self.service
            .flush_handle(self.handle)
            .expect("the shim's one session is never evicted");
        let order = std::mem::take(&mut self.order);
        order
            .into_iter()
            .map(|ticket| {
                self.service
                    .take(ticket)
                    .expect("flushed tickets are ready")
            })
            .collect()
    }

    /// Cumulative serving statistics.
    pub fn stats(&self) -> ServerStats {
        self.service.stats()
    }

    /// The v2 service underneath, for incremental migration.
    pub fn service(&mut self) -> &mut AuditService {
        &mut self.service
    }
}
