//! `sfnet`: the audit service as an actual network server.
//!
//! Serving v3. [`sfserve::AuditService`] gave the audit a
//! transport-shaped API — sessions, tickets, drain policies over an
//! explicit tick clock — but nothing listened on a socket and nothing
//! ran concurrently. This crate adds both, from the standard library
//! alone (std::net + threads; no async runtime, no new dependencies):
//!
//! * [`NetExecutor`] — the concurrent executor: the in-process
//!   service's [`SessionTable`](sfserve::SessionTable) behind a mutex,
//!   in front of a worker pool sharing each session's
//!   `Arc<PreparedAudit>`. The table supplies round-robin session
//!   claiming for fairness,
//!   [`SubmitError::Busy`](sfserve::SubmitError::Busy) backpressure
//!   when a queue is full, and
//!   [`DrainPolicy`](sfserve::DrainPolicy) semantics; the executor
//!   drives them with an injected [`Clock`];
//! * [`AuditTcpServer`] — the TCP front end: an accept loop spawning a
//!   reader/writer thread pair per connection, newline-delimited
//!   [`RequestEnvelope`](sfserve::RequestEnvelope) /
//!   [`ResponseEnvelope`](sfserve::ResponseEnvelope) framing over the
//!   existing `sfserve` wire module — one write per line
//!   ([`write_line`]) on `TCP_NODELAY` sockets, so no response waits
//!   on a delayed ACK — and a timer thread so
//!   [`DrainPolicy::Deadline`](sfserve::DrainPolicy::Deadline) fires
//!   on wall time;
//! * [`ConnDriver`] / [`ResponseSink`] — the per-connection protocol:
//!   one response line per request line, in request order,
//!   connection-local ticket numbering starting at 0.
//!
//! The load-bearing invariant, asserted by the integration tests and
//! the CI socket smoke diff: **a connection's response transcript is
//! byte-identical to the in-process `experiments serve` stdin path for
//! the same request stream.**
//! Reports are bit-identical regardless of batch composition or cache
//! state (the PR 2/4 engine invariants), rejections reuse the exact
//! in-process error text, and ticket numbering is connection-local —
//! so concurrency, batching, and caching are invisible in the bytes.
//!
//! ```no_run
//! use sfnet::{AuditTcpServer, ExecutorConfig, NetExecutor, SystemClock};
//! use std::sync::Arc;
//! use std::time::Duration;
//!
//! # fn demo(outcomes: &sfscan::SpatialOutcomes, regions: &sfscan::RegionSet,
//! #         config: sfscan::AuditConfig) -> std::io::Result<()> {
//! let executor = Arc::new(NetExecutor::new(
//!     ExecutorConfig::default(),
//!     Arc::new(SystemClock::new()),
//! ));
//! executor.register(outcomes, regions, config).expect("auditable");
//! let server = AuditTcpServer::bind("127.0.0.1:0", executor, Duration::from_millis(10))?;
//! println!("listening on {}", server.local_addr());
//! // … later: graceful stop, every accepted ticket answered.
//! let final_stats = server.shutdown();
//! println!("{final_stats}");
//! # Ok(())
//! # }
//! ```

mod clock;
mod executor;
mod server;

pub use clock::{Clock, ManualClock, SystemClock};
pub use executor::{ConnDriver, ExecutorConfig, NetExecutor, ResponseSink};
pub use server::{read_bounded_line, write_line, AuditTcpServer, MAX_LINE_BYTES};

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use sfgeo::{Point, Rect};
    use sfscan::{AuditConfig, AuditRequest, RegionSet, SpatialOutcomes};
    use sfserve::{
        DrainPolicy, ErrorCode, RequestEnvelope, RequestLine, ResponseEnvelope, SubmitError,
        Ticket, WireStatus,
    };
    use std::sync::Arc;

    fn outcomes(n: usize, seed: u64) -> SpatialOutcomes {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut points = Vec::with_capacity(n);
        let mut labels = Vec::with_capacity(n);
        for _ in 0..n {
            let x: f64 = rng.gen_range(0.0..10.0);
            let y: f64 = rng.gen_range(0.0..10.0);
            points.push(Point::new(x, y));
            labels.push(rng.gen_bool(if x < 5.0 { 0.8 } else { 0.3 }));
        }
        SpatialOutcomes::new(points, labels).unwrap()
    }

    fn grid() -> RegionSet {
        RegionSet::regular_grid(Rect::from_coords(0.0, 0.0, 10.0, 10.0), 4, 4)
    }

    fn base() -> AuditConfig {
        AuditConfig::new(0.05).with_worlds(99).with_seed(7)
    }

    /// A caller-driven executor (no worker threads) over one session.
    fn stepped(policy: DrainPolicy, capacity: Option<usize>) -> (NetExecutor, Arc<ManualClock>) {
        let clock = Arc::new(ManualClock::new());
        let executor = NetExecutor::new(
            ExecutorConfig {
                workers: 0,
                queue_capacity: capacity,
                policy,
                ..ExecutorConfig::default()
            },
            Arc::clone(&clock) as Arc<dyn Clock>,
        );
        let o = outcomes(400, 3);
        executor.register(&o, &grid(), base()).unwrap();
        (executor, clock)
    }

    fn request(seed: u64) -> AuditRequest {
        AuditRequest::new(0.05).with_worlds(99).with_seed(seed)
    }

    fn request_line(handle: u64) -> String {
        line_for(handle, request(7))
    }

    fn line_for(handle: u64, request: AuditRequest) -> String {
        RequestEnvelope::new(sfserve::DatasetHandle(handle), request).to_json()
    }

    #[test]
    fn accepted_lines_are_answered_in_order_with_local_tickets() {
        let (executor, _) = stepped(DrainPolicy::Manual, None);
        let mut conn = ConnDriver::new();
        assert!(conn.handle_line(&executor, &request_line(0)));
        // Drain now so the repeat below lands in a *later* batch and
        // exercises the cross-batch world cache.
        executor.flush();
        assert!(!conn.handle_line(&executor, "   "), "blank lines skip");
        assert!(conn.handle_line(&executor, "not json"));
        assert!(conn.handle_line(&executor, &request_line(0)));
        assert_eq!(conn.finish(), 3);
        executor.flush();

        let sink = conn.sink();
        let lines: Vec<String> = (0..3).map(|seq| sink.pop_next(seq).unwrap()).collect();
        assert_eq!(sink.pop_next(3), None, "sealed at 3");

        let first = ResponseEnvelope::from_json(&lines[0]).unwrap();
        assert_eq!(first.status, WireStatus::Ready);
        assert_eq!(first.ticket, Some(Ticket(0)));
        let bad = ResponseEnvelope::from_json(&lines[1]).unwrap();
        assert_eq!(bad.status, WireStatus::Rejected);
        assert_eq!(bad.code, Some(ErrorCode::Malformed));
        assert_eq!(bad.ticket, None, "rejections burn no ticket");
        let second = ResponseEnvelope::from_json(&lines[2]).unwrap();
        assert_eq!(second.ticket, Some(Ticket(1)), "local numbering resumes");
        // Identical request, identical report — the repeat was served
        // from the session's world cache, invisibly.
        assert_eq!(first.report, second.report);
        assert_eq!(executor.stats().cache_hits, 1);
    }

    #[test]
    fn session_world_cache_stays_under_its_cap() {
        // One 99-world audit caches under 2.4 KB of τ rows, so 200
        // distinct seeds would hold hundreds of KB unbounded.
        let cap = 8 << 10;
        let executor = NetExecutor::new(
            ExecutorConfig {
                workers: 0,
                cache_capacity_bytes: cap,
                ..ExecutorConfig::default()
            },
            Arc::new(ManualClock::new()) as Arc<dyn Clock>,
        );
        executor
            .register(&outcomes(400, 3), &grid(), base())
            .unwrap();
        let mut conn = ConnDriver::new();
        for seed in 0..200 {
            conn.handle_line(&executor, &line_for(0, request(seed)));
            executor.flush();
            let resident = executor.cache_stats().resident_bytes;
            assert!(resident > 0, "seed {seed}: the latest audit is cached");
            assert!(resident <= cap as u64, "seed {seed}: {resident} > {cap}");
        }
        assert!(executor.cache_stats().evictions > 0);
        // The latest seed still fits under the cap: its repeat replays.
        let hits = executor.stats().cache_hits;
        conn.handle_line(&executor, &line_for(0, request(199)));
        executor.flush();
        assert_eq!(executor.stats().cache_hits, hits + 1);
        assert_eq!(conn.finish(), 201);
    }

    #[test]
    fn hostile_lines_are_answered_with_rejections() {
        let (executor, _) = stepped(DrainPolicy::Manual, None);
        let mut conn = ConnDriver::new();
        let deep = "[".repeat(800_000);
        let huge = line_for(0, request(7)).replace("\"worlds\":99", "\"worlds\":1000000000000");
        assert!(huge.contains("1000000000000"), "{huge}");
        assert!(conn.handle_line(&executor, &deep));
        assert!(conn.handle_line(&executor, &huge));
        assert_eq!(conn.finish(), 2);
        assert_eq!(executor.pending_total(), 0);
        let sink = conn.sink();
        let codes: Vec<Option<ErrorCode>> = (0..2)
            .map(|seq| {
                let env = ResponseEnvelope::from_json(&sink.pop_next(seq).unwrap()).unwrap();
                assert_eq!(env.status, WireStatus::Rejected);
                env.code
            })
            .collect();
        assert_eq!(
            codes,
            [Some(ErrorCode::Malformed), Some(ErrorCode::InvalidRequest)]
        );
    }

    #[test]
    fn bounded_queue_rejects_busy_and_recovers() {
        let (executor, _) = stepped(DrainPolicy::Manual, Some(2));
        let mut conn = ConnDriver::new();
        conn.handle_line(&executor, &request_line(0));
        conn.handle_line(&executor, &request_line(0));
        conn.handle_line(&executor, &request_line(0)); // over the cap
        conn.finish();
        executor.flush();

        let sink = conn.sink();
        let lines: Vec<String> = (0..3).map(|s| sink.pop_next(s).unwrap()).collect();
        let busy = ResponseEnvelope::from_json(&lines[2]).unwrap();
        assert_eq!(busy.status, WireStatus::Busy);
        assert_eq!(busy.code, Some(ErrorCode::Busy));
        assert_eq!(busy.ticket, None);
        assert!(lines[2].contains("\"status\":\"busy\""), "{}", lines[2]);

        // After the drain the session is empty again; a retry lands.
        let mut retry = ConnDriver::new();
        retry.handle_line(&executor, &request_line(0));
        retry.finish();
        executor.flush();
        let line = retry.sink().pop_next(0).unwrap();
        let env = ResponseEnvelope::from_json(&line).unwrap();
        assert_eq!(env.status, WireStatus::Ready);
        assert_eq!(env.ticket, Some(Ticket(0)), "per-connection numbering");
    }

    #[test]
    fn unknown_handle_is_a_typed_rejection() {
        let (executor, _) = stepped(DrainPolicy::Manual, None);
        let sink = ResponseSink::new();
        let Ok(RequestLine::Submit(envelope)) = RequestLine::decode(&request_line(7)) else {
            panic!("a request line decodes");
        };
        let err = executor.submit(envelope, &sink, 0, Ticket(0)).unwrap_err();
        assert_eq!(err, SubmitError::UnknownHandle(sfserve::DatasetHandle(7)));
        let env = ResponseEnvelope::rejected(&err);
        assert_eq!(env.code, Some(ErrorCode::UnknownHandle));
    }

    #[test]
    fn deadline_policy_fires_on_tick_not_before() {
        let (executor, clock) = stepped(DrainPolicy::Deadline(100), None);
        let mut conn = ConnDriver::new();
        clock.set(10);
        conn.handle_line(&executor, &request_line(0));
        assert_eq!(executor.pending_total(), 1);

        // 99 units later: not yet expired — tick promotes nothing.
        clock.set(109);
        executor.tick_now();
        assert!(!executor.run_pending_batch(), "one before the deadline");
        assert_eq!(executor.pending_total(), 1);

        // Exactly at the boundary (oldest + deadline): it runs.
        clock.set(110);
        executor.tick_now();
        assert!(executor.run_pending_batch(), "at the deadline");
        assert_eq!(executor.pending_total(), 0);
        conn.finish();
        let line = conn.sink().pop_next(0).unwrap();
        assert!(line.contains("\"status\":\"ready\""), "{line}");

        // The latency sample is measured on the injected clock:
        // submitted at 10, drained at 110.
        let stats = executor.stats();
        assert_eq!(stats.drain_samples, 1);
        assert_eq!(stats.drain_p50, 100);
        assert_eq!(stats.drain_p99, 100);
    }

    #[test]
    fn workers_claim_sessions_round_robin() {
        // MaxPending(1) promotes every submission to ready immediately;
        // with workers=0 nothing runs until we step, so the ready
        // queues accumulate and each step exposes the claim order.
        let executor = NetExecutor::new(
            ExecutorConfig {
                workers: 0,
                queue_capacity: None,
                policy: DrainPolicy::MaxPending(1),
                ..ExecutorConfig::default()
            },
            Arc::new(ManualClock::new()) as Arc<dyn Clock>,
        );
        let o = outcomes(400, 3);
        for _ in 0..3 {
            executor.register(&o, &grid(), base()).unwrap();
        }
        let mut conn = ConnDriver::new();
        // Hot session 0 queues three requests; sessions 1 and 2 one
        // each. Distinct seeds keep every request distinct.
        conn.handle_line(&executor, &line_for(0, request(1)));
        conn.handle_line(&executor, &line_for(0, request(2)));
        conn.handle_line(&executor, &line_for(0, request(3)));
        conn.handle_line(&executor, &line_for(1, request(4)));
        conn.handle_line(&executor, &line_for(2, request(5)));
        conn.finish();

        // Each step claims ONE session's whole ready queue, and the
        // cursor moves past it — so the hot session's three jobs go
        // out as one batch, then sessions 1 and 2 each get a turn
        // before anyone revisits session 0.
        assert!(executor.run_pending_batch()); // session 0 (3 jobs)
        assert_eq!(executor.stats().requests_served, 3);
        assert!(executor.run_pending_batch()); // session 1
        assert_eq!(executor.stats().requests_served, 4);
        assert!(executor.run_pending_batch()); // session 2
        assert_eq!(executor.stats().requests_served, 5);
        assert!(!executor.run_pending_batch());

        // New work on 2 and 0 together: the cursor sits past session
        // 2, so session 0 is claimed first, then 2 — two batches.
        conn.handle_line(&executor, &line_for(2, request(6)));
        conn.handle_line(&executor, &line_for(0, request(7)));
        let before = executor.stats().batches;
        assert!(executor.run_pending_batch());
        assert!(executor.run_pending_batch());
        assert_eq!(executor.stats().batches, before + 2);
        assert!(!executor.run_pending_batch());
        executor.flush();
    }

    #[test]
    fn flush_with_live_workers_waits_for_idle() {
        let clock = Arc::new(SystemClock::new());
        let executor = NetExecutor::new(
            ExecutorConfig {
                workers: 2,
                queue_capacity: None,
                policy: DrainPolicy::Manual,
                ..ExecutorConfig::default()
            },
            clock as Arc<dyn Clock>,
        );
        let o = outcomes(400, 3);
        executor.register(&o, &grid(), base()).unwrap();
        let mut conn = ConnDriver::new();
        for _ in 0..4 {
            conn.handle_line(&executor, &request_line(0));
        }
        conn.finish();
        executor.flush();
        assert_eq!(executor.pending_total(), 0);
        assert_eq!(executor.stats().requests_served, 4);
        let sink = conn.sink();
        for seq in 0..4 {
            let env = ResponseEnvelope::from_json(&sink.pop_next(seq).unwrap()).unwrap();
            assert_eq!(env.status, WireStatus::Ready);
            assert_eq!(env.ticket, Some(Ticket(seq)));
        }
        let stats = executor.shutdown();
        assert_eq!(stats.requests_served, 4);
        assert_eq!(stats.queue_depth, 0);
        assert_eq!(stats.drain_samples, 4);
    }

    #[test]
    fn request_envelope_wire_shape_matches_inprocess_service() {
        // The executor and the in-process service parse the same line
        // the same way — anchor the fixture shape used everywhere.
        let line = request_line(0);
        let env = RequestEnvelope::from_json(&line).unwrap();
        assert_eq!(env.handle, sfserve::DatasetHandle(0));
        assert!(!env.geojson);
    }
}
