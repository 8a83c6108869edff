//! The shard wire protocol: newline-delimited JSON over TCP, one
//! request line → one reply line, same framing discipline as the
//! `sfnet` audit transport.
//!
//! Requests are objects dispatched on their `"op"` field:
//!
//! ```text
//! {"op":"hello"}
//! {"op":"count","id":7,"null_model":"Bernoulli","seed":42,"worldgen":"Word",
//!  "first":0,"count":8,"word_lo":0,"word_hi":128}
//! {"op":"stats"}
//! ```
//!
//! Replies always carry `"ok"` plus the request's `"id"` when it had
//! one; a count reply's `counts` array is region-major
//! (`counts[r * count + k]` = region `r` under world `first + k`) and
//! `p_partials[k]` is world `first + k`'s positive total within the
//! word window. Field order is fixed (the vendored writer emits object
//! keys in the order they are written), so replies are byte-stable —
//! the property the fault-injection transcripts diff against.

use serde::{self, Deserialize, Serialize, Value, Writer};
use sfscan::{NullModel, WorldGen};

/// Protocol version advertised in [`WorkerReply::Hello`]; bumped on any wire
/// change.
pub const PROTOCOL_VERSION: u64 = 1;

/// One request line, dispatched on `"op"`.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkerRequest {
    /// Dataset-identity handshake.
    Hello,
    /// Count one span × window rectangle.
    Count(CountRequest),
    /// Worker-side counters snapshot.
    Stats,
    /// Orderly worker shutdown (the coordinator never sends this; the
    /// CLI harness does).
    Shutdown,
}

/// The count-partial descriptor: which worlds, which word window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CountRequest {
    /// Caller-chosen id echoed in the reply (re-dispatch dedup).
    pub id: u64,
    /// World-stream null model.
    pub null_model: NullModel,
    /// World-stream seed.
    pub seed: u64,
    /// World-stream generator version.
    pub worldgen: WorldGen,
    /// First world index of the span.
    pub first: u64,
    /// Number of worlds in the span.
    pub count: u64,
    /// First label word of the window (inclusive).
    pub word_lo: u64,
    /// One past the last label word of the window.
    pub word_hi: u64,
}

impl Serialize for WorkerRequest {
    fn serialize(&self, w: &mut Writer) {
        w.begin_object();
        match self {
            WorkerRequest::Hello => w.field("op", "hello"),
            WorkerRequest::Stats => w.field("op", "stats"),
            WorkerRequest::Shutdown => w.field("op", "shutdown"),
            WorkerRequest::Count(c) => {
                w.field("op", "count");
                w.field("id", &c.id);
                w.field("null_model", &c.null_model);
                w.field("seed", &c.seed);
                w.field("worldgen", &c.worldgen);
                w.field("first", &c.first);
                w.field("count", &c.count);
                w.field("word_lo", &c.word_lo);
                w.field("word_hi", &c.word_hi);
            }
        }
        w.end_object();
    }
}

impl Deserialize for WorkerRequest {
    fn from_value(value: &Value) -> Result<Self, serde::Error> {
        let op: String = serde::get_field(value, "op")?;
        match op.as_str() {
            "hello" => Ok(WorkerRequest::Hello),
            "stats" => Ok(WorkerRequest::Stats),
            "shutdown" => Ok(WorkerRequest::Shutdown),
            "count" => Ok(WorkerRequest::Count(CountRequest {
                id: serde::get_field(value, "id")?,
                null_model: serde::get_field(value, "null_model")?,
                seed: serde::get_field(value, "seed")?,
                worldgen: serde::get_field(value, "worldgen")?,
                first: serde::get_field(value, "first")?,
                count: serde::get_field(value, "count")?,
                word_lo: serde::get_field(value, "word_lo")?,
                word_hi: serde::get_field(value, "word_hi")?,
            })),
            other => Err(serde::Error::msg(format!("unknown op `{other}`"))),
        }
    }
}

impl WorkerRequest {
    /// Serializes to one JSONL line (no trailing newline).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("request serialisation cannot fail")
    }

    /// Decodes one line.
    pub fn from_json(json: &str) -> Result<Self, serde::Error> {
        serde_json::from_str(json)
    }
}

/// Worker-side counters, serialized into [`WorkerReply::Stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorkerStats {
    /// Request lines decoded.
    pub requests: u64,
    /// Count spans served.
    pub spans: u64,
    /// Worlds generated and counted across all spans.
    pub worlds: u64,
    /// Request lines that produced an error reply.
    pub errors: u64,
    /// Faults injected by the active [`FaultPlan`](crate::FaultPlan).
    pub faults_injected: u64,
}

/// One reply line.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkerReply {
    /// Handshake echo: dataset shape + protocol version.
    Hello {
        /// Wire protocol version ([`PROTOCOL_VERSION`]).
        version: u64,
        /// Indexed points.
        num_points: u64,
        /// Candidate regions (count-matrix rows).
        num_regions: u64,
        /// Label words (the sharded axis).
        num_words: u64,
    },
    /// A counted span's exact integer partials.
    Count {
        /// Echo of the request id.
        id: u64,
        /// Region-major partials (`counts[r * count + k]`).
        counts: Vec<u64>,
        /// Per-world window positive totals.
        p_partials: Vec<u64>,
    },
    /// Counter snapshot.
    Stats(WorkerStats),
    /// Typed failure; `id` echoes the request when it carried one.
    Err {
        /// Echo of the request id, when the request had one.
        id: Option<u64>,
        /// Human-readable reason.
        error: String,
    },
}

impl Serialize for WorkerReply {
    fn serialize(&self, w: &mut Writer) {
        w.begin_object();
        match self {
            WorkerReply::Hello {
                version,
                num_points,
                num_regions,
                num_words,
            } => {
                w.field("ok", &true);
                w.field("op", "hello");
                w.field("version", version);
                w.field("num_points", num_points);
                w.field("num_regions", num_regions);
                w.field("num_words", num_words);
            }
            WorkerReply::Count {
                id,
                counts,
                p_partials,
            } => {
                w.field("ok", &true);
                w.field("id", id);
                w.field("counts", counts);
                w.field("p_partials", p_partials);
            }
            WorkerReply::Stats(stats) => {
                w.field("ok", &true);
                w.field("op", "stats");
                w.field("stats", stats);
            }
            WorkerReply::Err { id, error } => {
                w.field("ok", &false);
                w.field("id", id);
                w.field("error", error);
            }
        }
        w.end_object();
    }
}

impl Deserialize for WorkerReply {
    fn from_value(value: &Value) -> Result<Self, serde::Error> {
        let ok: bool = serde::get_field(value, "ok")?;
        if !ok {
            let id = match value.get("id") {
                Some(Value::U64(id)) => Some(*id),
                _ => None,
            };
            return Ok(WorkerReply::Err {
                id,
                error: serde::get_field(value, "error")?,
            });
        }
        match value.get("op") {
            Some(Value::Str(op)) if op == "hello" => Ok(WorkerReply::Hello {
                version: serde::get_field(value, "version")?,
                num_points: serde::get_field(value, "num_points")?,
                num_regions: serde::get_field(value, "num_regions")?,
                num_words: serde::get_field(value, "num_words")?,
            }),
            Some(Value::Str(op)) if op == "stats" => {
                Ok(WorkerReply::Stats(serde::get_field(value, "stats")?))
            }
            Some(Value::Str(op)) => Err(serde::Error::msg(format!("unknown reply op `{op}`"))),
            Some(_) => Err(serde::Error::msg("reply `op` must be a string")),
            None => Ok(WorkerReply::Count {
                id: serde::get_field(value, "id")?,
                counts: serde::get_field(value, "counts")?,
                p_partials: serde::get_field(value, "p_partials")?,
            }),
        }
    }
}

impl WorkerReply {
    /// Serializes to one JSONL line (no trailing newline).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("reply serialisation cannot fail")
    }

    /// Decodes one line.
    pub fn from_json(json: &str) -> Result<Self, serde::Error> {
        serde_json::from_str(json)
    }
}
