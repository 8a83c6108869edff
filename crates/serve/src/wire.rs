//! JSONL wire envelopes over the existing serde layer.
//!
//! One request per line, one response per line — the framing is the
//! newline, the payload is plain JSON, so the service drops into any
//! byte transport (files, pipes, sockets). `experiments serve` is the
//! reference loop: it reads [`RequestEnvelope`] lines from a
//! file/stdin, routes them through one [`AuditService`], and emits one
//! [`ResponseEnvelope`] line per input line.
//!
//! * request line — `{"handle": H, "request": {…}}` where `H` is the
//!   numeric [`DatasetHandle`] (handles are assigned `0, 1, …` in
//!   registration order, so transcripts can hardcode them). The
//!   request's optional `"worldgen"` field (`"Scalar"`/`"Word"`)
//!   selects the world-generation version; v1 payloads without it mean
//!   `Scalar`, so existing transcripts keep decoding — and keep their
//!   exact v1 results, because the generator version is part of the
//!   world-class identity end to end. An optional `"geojson": true`
//!   flag asks for a GeoJSON rendering of the findings on the
//!   response;
//! * response line — `{"ticket": T|null, "status":
//!   "ready"|"queued"|"rejected", "report": {…}|null, "error":
//!   "…"|null}`, plus a trailing `"geojson": "…"` field only on
//!   responses whose request asked for one (so all other lines are
//!   byte-identical to the v1 wire).

use crate::service::{
    AuditResponse, AuditService, DatasetHandle, ServerStats, Status, SubmitError, Ticket,
};
use serde::{Deserialize, Serialize};
use sfscan::prepared::AuditRequest;
use sfscan::worldcache::CacheStats;
use sfscan::AuditReport;

/// One decoded JSONL request line.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RequestLine {
    /// The metrics probe `{"stats": true}`. It is answered inline with
    /// a [`ResponseEnvelope::stats_snapshot`] line and never reaches a
    /// queue, so scraping metrics can never trip backpressure or
    /// perturb a transcript's ticket numbering.
    Stats,
    /// An audit submission.
    Submit(RequestEnvelope),
}

impl RequestLine {
    /// Parses a line once, then classifies it: an object whose
    /// `"stats"` is `true` is the probe, anything else must decode as
    /// a [`RequestEnvelope`].
    ///
    /// # Errors
    /// [`SubmitError::Malformed`] carrying the decoder's complaint
    /// (the same text [`AuditService::submit_json`] reports).
    pub fn decode(line: &str) -> Result<RequestLine, SubmitError> {
        let malformed = |e: serde::Error| SubmitError::Malformed {
            reason: e.to_string(),
        };
        let value = serde_json::parse_value(line).map_err(malformed)?;
        if matches!(value.get("stats"), Some(serde::Value::Bool(true))) {
            return Ok(RequestLine::Stats);
        }
        RequestEnvelope::from_value(&value)
            .map(RequestLine::Submit)
            .map_err(malformed)
    }
}

/// One submitted request on the wire: which session it routes to and
/// the request itself.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestEnvelope {
    /// Routing handle ([`AuditService::register`] assigns `0, 1, …`).
    pub handle: DatasetHandle,
    /// The audit request.
    pub request: AuditRequest,
    /// Ask for a GeoJSON rendering of the findings on the response
    /// envelope. A transport-level presentation knob, not an audit
    /// knob: it never reaches the scan layer and never changes a
    /// report. Serialised only when set, so v1 transcripts (no
    /// `"geojson"` key, meaning `false`) decode and replay
    /// byte-identically.
    pub geojson: bool,
}

impl RequestEnvelope {
    /// An envelope without the GeoJSON flag — the v1 wire shape.
    pub fn new(handle: DatasetHandle, request: AuditRequest) -> Self {
        RequestEnvelope {
            handle,
            request,
            geojson: false,
        }
    }

    /// Asks for GeoJSON findings on the response.
    pub fn with_geojson(mut self) -> Self {
        self.geojson = true;
        self
    }

    /// Serialises the envelope as one JSONL line (no trailing newline).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("envelope serialisation cannot fail")
    }

    /// Deserialises an envelope from a JSONL line.
    pub fn from_json(json: &str) -> Result<Self, serde::Error> {
        serde_json::from_str(json)
    }
}

impl Serialize for RequestEnvelope {
    fn serialize(&self, w: &mut serde::Writer) {
        w.begin_object();
        w.field("handle", &self.handle);
        w.field("request", &self.request);
        if self.geojson {
            w.field("geojson", &true);
        }
        w.end_object();
    }
}

impl Deserialize for RequestEnvelope {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        Ok(RequestEnvelope {
            handle: serde::get_field(value, "handle")?,
            request: serde::get_field(value, "request")?,
            geojson: match value.get("geojson") {
                Some(v) => bool::from_value(v)
                    .map_err(|e| serde::Error::msg(format!("field `geojson`: {}", e.message)))?,
                // Absent on v1 payloads: no rendering requested.
                None => false,
            },
        })
    }
}

/// Wire rendering of a ticket's state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireStatus {
    /// Accepted, not yet executed.
    Queued,
    /// Executed; the envelope carries the report.
    Ready,
    /// Rejected at submission; the envelope carries the error.
    Rejected,
    /// Backpressure: the session queue was full ([`SubmitError::Busy`]).
    /// Nothing was queued — the client should retry after a drain.
    /// Distinct from `"rejected"` so retry loops never have to parse
    /// the error text.
    Busy,
    /// A metrics snapshot answering a `{"stats": true}` probe line;
    /// the envelope carries the `stats`/`cache` fields instead of a
    /// report.
    Stats,
}

impl WireStatus {
    /// The lowercase wire token.
    pub fn as_str(&self) -> &'static str {
        match self {
            WireStatus::Queued => "queued",
            WireStatus::Ready => "ready",
            WireStatus::Rejected => "rejected",
            WireStatus::Busy => "busy",
            WireStatus::Stats => "stats",
        }
    }
}

impl std::fmt::Display for WireStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl Serialize for WireStatus {
    fn serialize(&self, w: &mut serde::Writer) {
        w.str(self.as_str());
    }
}

impl Deserialize for WireStatus {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        match value.as_str() {
            Some("queued") => Ok(WireStatus::Queued),
            Some("ready") => Ok(WireStatus::Ready),
            Some("rejected") => Ok(WireStatus::Rejected),
            Some("busy") => Ok(WireStatus::Busy),
            Some("stats") => Ok(WireStatus::Stats),
            _ => Err(serde::Error::msg(format!(
                "expected \"queued\"/\"ready\"/\"rejected\"/\"busy\"/\"stats\", got {}",
                value.kind()
            ))),
        }
    }
}

/// Machine-readable classification of a failed submission, so clients
/// branch on a stable token instead of parsing [`SubmitError`]'s
/// human-oriented `Display` text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// Session queue full — retry after a drain
    /// ([`SubmitError::Busy`]).
    Busy,
    /// No session registered under the handle
    /// ([`SubmitError::UnknownHandle`]).
    UnknownHandle,
    /// The request decoded but failed validation
    /// ([`SubmitError::InvalidRequest`]).
    InvalidRequest,
    /// The line was not a decodable envelope
    /// ([`SubmitError::Malformed`]).
    Malformed,
    /// A polled ticket the service has never issued
    /// ([`Status::Unknown`]).
    UnknownTicket,
}

impl ErrorCode {
    /// The kebab-case wire token.
    pub fn as_str(&self) -> &'static str {
        match self {
            ErrorCode::Busy => "busy",
            ErrorCode::UnknownHandle => "unknown-handle",
            ErrorCode::InvalidRequest => "invalid-request",
            ErrorCode::Malformed => "malformed",
            ErrorCode::UnknownTicket => "unknown-ticket",
        }
    }

    /// The code classifying a [`SubmitError`].
    pub fn for_submit_error(error: &SubmitError) -> Self {
        match error {
            SubmitError::Busy { .. } => ErrorCode::Busy,
            SubmitError::UnknownHandle(_) => ErrorCode::UnknownHandle,
            SubmitError::InvalidRequest { .. } => ErrorCode::InvalidRequest,
            SubmitError::Malformed { .. } => ErrorCode::Malformed,
        }
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl Serialize for ErrorCode {
    fn serialize(&self, w: &mut serde::Writer) {
        w.str(self.as_str());
    }
}

impl Deserialize for ErrorCode {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        match value.as_str() {
            Some("busy") => Ok(ErrorCode::Busy),
            Some("unknown-handle") => Ok(ErrorCode::UnknownHandle),
            Some("invalid-request") => Ok(ErrorCode::InvalidRequest),
            Some("malformed") => Ok(ErrorCode::Malformed),
            Some("unknown-ticket") => Ok(ErrorCode::UnknownTicket),
            _ => Err(serde::Error::msg(format!(
                "expected an error-code token, got {}",
                value.kind()
            ))),
        }
    }
}

/// One response on the wire. The four core fields are always present
/// (absent values render as JSON `null`) so line consumers never
/// key-check; the optional `code` and `geojson` fields appear only on
/// error responses / responses whose request asked for a rendering,
/// keeping every other response line byte-identical to the v1 wire.
#[derive(Debug, Clone, PartialEq)]
pub struct ResponseEnvelope {
    /// The ticket the submission was assigned (`null` when it was
    /// rejected before a ticket existed).
    pub ticket: Option<Ticket>,
    /// `"ready"`, `"queued"`, `"rejected"`, or `"busy"`.
    pub status: WireStatus,
    /// The audit report (`null` unless `status == "ready"`).
    pub report: Option<AuditReport>,
    /// The rejection reason (`null` unless `status` is an error).
    pub error: Option<String>,
    /// Typed classification of the error, present only on error
    /// envelopes (so v1 ready/queued lines keep their exact bytes).
    pub code: Option<ErrorCode>,
    /// GeoJSON `FeatureCollection` of the findings (see
    /// [`findings_feature_collection`](crate::findings_feature_collection)),
    /// present only when the request envelope set its `geojson` flag
    /// and the response is ready.
    pub geojson: Option<String>,
    /// Cumulative serving statistics, present only on `"stats"`
    /// envelopes (the answer to a `{"stats": true}` probe line).
    pub stats: Option<ServerStats>,
    /// World-cache statistics summed across every session, present
    /// only on `"stats"` envelopes.
    pub cache: Option<CacheStats>,
}

impl ResponseEnvelope {
    /// A served response.
    pub fn ready(response: AuditResponse) -> Self {
        ResponseEnvelope {
            ticket: Some(response.ticket),
            status: WireStatus::Ready,
            report: Some(response.report),
            error: None,
            code: None,
            geojson: None,
            stats: None,
            cache: None,
        }
    }

    /// An accepted-but-not-yet-executed response.
    pub fn queued(ticket: Ticket) -> Self {
        ResponseEnvelope {
            ticket: Some(ticket),
            status: WireStatus::Queued,
            report: None,
            error: None,
            code: None,
            geojson: None,
            stats: None,
            cache: None,
        }
    }

    /// A rejected submission, carrying the typed [`ErrorCode`].
    /// [`SubmitError::Busy`] renders with the dedicated `"busy"`
    /// status so overload is distinguishable from a bad request
    /// without inspecting the code.
    pub fn rejected(error: &SubmitError) -> Self {
        let code = ErrorCode::for_submit_error(error);
        ResponseEnvelope {
            ticket: None,
            status: if code == ErrorCode::Busy {
                WireStatus::Busy
            } else {
                WireStatus::Rejected
            },
            report: None,
            error: Some(error.to_string()),
            code: Some(code),
            geojson: None,
            stats: None,
            cache: None,
        }
    }

    /// A backpressure envelope for a full session queue.
    pub fn busy(pending: usize, capacity: usize) -> Self {
        ResponseEnvelope::rejected(&SubmitError::Busy { pending, capacity })
    }

    /// A metrics snapshot answering a `{"stats": true}` probe line:
    /// the cumulative [`ServerStats`] plus the [`CacheStats`] summed
    /// across every session's world cache.
    pub fn stats_snapshot(stats: ServerStats, cache: CacheStats) -> Self {
        ResponseEnvelope {
            ticket: None,
            status: WireStatus::Stats,
            report: None,
            error: None,
            code: None,
            geojson: None,
            stats: Some(stats),
            cache: Some(cache),
        }
    }

    /// The wire view of a polled ticket.
    pub fn from_status(ticket: Ticket, status: Status) -> Self {
        match status {
            Status::Ready(response) => ResponseEnvelope::ready(response),
            Status::Queued => ResponseEnvelope::queued(ticket),
            Status::Unknown => ResponseEnvelope {
                ticket: Some(ticket),
                status: WireStatus::Rejected,
                report: None,
                error: Some(format!("unknown {ticket}")),
                code: Some(ErrorCode::UnknownTicket),
                geojson: None,
                stats: None,
                cache: None,
            },
        }
    }

    /// Attaches the GeoJSON findings rendering when the report is
    /// present (no-op on queued/rejected envelopes).
    pub fn with_geojson_findings(mut self) -> Self {
        self.geojson = self.report.as_ref().map(crate::findings_feature_collection);
        self
    }

    /// Serialises the envelope as one JSONL line (no trailing newline).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("envelope serialisation cannot fail")
    }

    /// Deserialises an envelope from a JSONL line.
    pub fn from_json(json: &str) -> Result<Self, serde::Error> {
        serde_json::from_str(json)
    }
}

impl Serialize for ResponseEnvelope {
    fn serialize(&self, w: &mut serde::Writer) {
        w.begin_object();
        w.field("ticket", &self.ticket);
        w.field("status", &self.status);
        w.field("report", &self.report);
        w.field("error", &self.error);
        if let Some(code) = &self.code {
            w.field("code", code);
        }
        if let Some(geojson) = &self.geojson {
            w.field("geojson", geojson);
        }
        if let Some(stats) = &self.stats {
            w.field("stats", stats);
        }
        if let Some(cache) = &self.cache {
            w.field("cache", cache);
        }
        w.end_object();
    }
}

impl Deserialize for ResponseEnvelope {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        Ok(ResponseEnvelope {
            ticket: serde::get_field(value, "ticket")?,
            status: serde::get_field(value, "status")?,
            report: serde::get_field(value, "report")?,
            error: serde::get_field(value, "error")?,
            code: match value.get("code") {
                Some(v) => Some(
                    ErrorCode::from_value(v)
                        .map_err(|e| serde::Error::msg(format!("field `code`: {}", e.message)))?,
                ),
                // Absent on v1 payloads and on success envelopes.
                None => None,
            },
            geojson: match value.get("geojson") {
                Some(v) => Option::<String>::from_value(v)
                    .map_err(|e| serde::Error::msg(format!("field `geojson`: {}", e.message)))?,
                None => None,
            },
            stats: match value.get("stats") {
                Some(v) => Some(
                    ServerStats::from_value(v)
                        .map_err(|e| serde::Error::msg(format!("field `stats`: {}", e.message)))?,
                ),
                // Absent on every envelope but the metrics snapshot.
                None => None,
            },
            cache: match value.get("cache") {
                Some(v) => Some(
                    CacheStats::from_value(v)
                        .map_err(|e| serde::Error::msg(format!("field `cache`: {}", e.message)))?,
                ),
                None => None,
            },
        })
    }
}

impl AuditService {
    /// Decodes one [`RequestEnvelope`] JSONL line and submits it
    /// ([`AuditService::submit_envelope`]).
    ///
    /// # Errors
    /// [`SubmitError::Malformed`] when the line does not decode;
    /// otherwise whatever [`AuditService::submit`] returns. The queue
    /// is untouched on any error — one bad wire payload can never take
    /// an already queued batch down with it.
    pub fn submit_json(&mut self, line: &str) -> Result<Ticket, SubmitError> {
        let envelope = RequestEnvelope::from_json(line).map_err(|e| SubmitError::Malformed {
            reason: e.to_string(),
        })?;
        self.submit_envelope(envelope)
    }
}
