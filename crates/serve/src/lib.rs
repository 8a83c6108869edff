//! # sfserve — the audit serving surface
//!
//! A spatial-fairness audit service is read-mostly: the expensive
//! artifacts (spatial index, membership CSR, region totals) depend only
//! on the dataset and regions, while each audit request varies only
//! cheap knobs — and the same authority answers the same dataset's
//! audits over and over. [`AuditService`] is built for that workload:
//!
//! * **Sessions** — [`AuditService::register`] prepares a dataset's
//!   engine once and returns a [`DatasetHandle`]; one service hosts
//!   many datasets, requests route by handle, and
//!   [`AuditService::unregister`] evicts a session (engine, queue, and
//!   world cache).
//! * **Tickets** — [`AuditService::submit`] validates and queues,
//!   returning a [`Ticket`] immediately (typed [`SubmitError`]s, no
//!   panics); [`AuditService::poll`] and [`AuditService::take`]
//!   decouple submission from execution.
//! * **Drain policies** — [`DrainPolicy`] ([`Manual`](DrainPolicy::Manual),
//!   [`MaxPending`](DrainPolicy::MaxPending),
//!   [`Deadline`](DrainPolicy::Deadline)) decides when queues execute,
//!   driven by the explicit [`AuditService::tick`] clock — no
//!   wall-clock reads, so batching is deterministic and testable —
//!   with [`AuditService::flush`] as the manual escape hatch.
//! * **Cross-batch world cache** — each executed batch records its
//!   simulated worlds' τ-streams per world class `(null model, seed)`;
//!   later batches replay the cached prefix through the same stopping
//!   rule and simulate only the un-cached suffix. A repeated request
//!   costs **zero** new simulated worlds, and every resumed result is
//!   **bit-identical** to a cold run by construction
//!   ([`sfscan::WorldCache`]).
//! * **One session core** — sessions, queues, drain policies and batch
//!   accounting live in [`SessionTable`], which the `sfnet` executor
//!   shares: the service runs each batch the table releases on the
//!   calling thread, the executor on a worker pool.
//! * **Wire envelopes** — [`RequestEnvelope`] / [`ResponseEnvelope`]
//!   JSONL lines over the existing serde layer, so the service drops
//!   into any byte transport (`experiments serve` is the reference
//!   loop).
//!
//! ```
//! use sfscan::{AuditConfig, AuditRequest, Direction, RegionSet, SpatialOutcomes};
//! use sfserve::{AuditService, DrainPolicy, Status};
//! use sfgeo::{Point, Rect};
//!
//! // A tiny dataset: left half positive, right half negative.
//! let points: Vec<Point> = (0..100)
//!     .map(|i| Point::new((i % 10) as f64 + 0.5, (i / 10) as f64 + 0.5))
//!     .collect();
//! let labels: Vec<bool> = (0..100).map(|i| i % 10 < 5).collect();
//! let outcomes = SpatialOutcomes::new(points, labels).unwrap();
//! let regions = RegionSet::regular_grid(Rect::from_coords(0.0, 0.0, 10.0, 10.0), 2, 1);
//!
//! // Register once, serve many.
//! let mut service = AuditService::new().with_policy(DrainPolicy::MaxPending(2));
//! let config = AuditConfig::new(0.05).with_worlds(99);
//! let handle = service.register(&outcomes, &regions, config).unwrap();
//!
//! let base = AuditRequest::from_config(&config);
//! let two_sided = service.submit(handle, base).unwrap();
//! assert!(service.poll(two_sided).is_queued());
//! // The second submission reaches MaxPending(2): the batch executes.
//! let green = service.submit(handle, base.with_direction(Direction::High)).unwrap();
//!
//! let Status::Ready(response) = service.poll(two_sided) else { panic!("executed") };
//! assert!(response.report.is_unfair());
//! assert!(service.take(green).is_some());
//! assert_eq!(service.stats().requests_served, 2);
//!
//! // Resubmitting the same audit replays the cached worlds: zero new
//! // simulation, bit-identical report.
//! let again = service.submit(handle, base).unwrap();
//! service.flush();
//! assert_eq!(service.take(again).unwrap().report, response.report);
//! assert_eq!(service.stats().unique_worlds, 99, "no new worlds for the repeat");
//! ```

mod geojson;
mod histogram;
mod service;
mod sessions;
mod wire;

pub use geojson::{findings_feature_collection, CIRCLE_SEGMENTS};
pub use histogram::LatencyHistogram;
pub use service::{
    percentile, AuditResponse, AuditService, DatasetHandle, ServerStats, Status, SubmitError,
    Ticket,
};
pub use sessions::{total_cache_stats, Batch, DrainPolicy, Job, SessionTable};
pub use sfscan::worldcache::CacheStats;
pub use wire::{ErrorCode, RequestEnvelope, RequestLine, ResponseEnvelope, WireStatus};

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use sfgeo::{Point, Rect};
    use sfscan::{
        AuditConfig, Auditor, Direction, McStrategy, NullModel, RegionSet, ScanError,
        SpatialOutcomes,
    };

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
        AuditConfig::new(0.05).with_worlds(99).with_seed(5)
    }

    fn service_with(n: usize, seed: u64) -> (AuditService, DatasetHandle, SpatialOutcomes) {
        let o = outcomes(n, seed);
        let mut service = AuditService::new();
        let handle = service.register(&o, &grid(), base()).unwrap();
        (service, handle, o)
    }

    #[test]
    fn ticketed_flow_matches_standalone_audits() {
        let (mut service, handle, o) = service_with(1000, 1);
        let base_request = service.default_request(handle).unwrap();
        let requests = [
            base_request,
            base_request.with_direction(Direction::High),
            base_request.with_seed(7),
            base_request.with_mc_strategy(McStrategy::EarlyStop { batch_size: 16 }),
        ];
        let tickets: Vec<Ticket> = requests
            .iter()
            .map(|r| service.submit(handle, *r).unwrap())
            .collect();
        assert_eq!(service.pending(handle), Some(4));
        for &t in &tickets {
            assert!(service.poll(t).is_queued());
        }
        assert_eq!(service.flush(), 4);
        assert_eq!(service.pending(handle), Some(0));
        for (request, &ticket) in requests.iter().zip(&tickets) {
            let Status::Ready(response) = service.poll(ticket) else {
                panic!("flushed tickets are ready");
            };
            assert_eq!(response.ticket, ticket);
            let expected = Auditor::new(request.apply_to(base()))
                .audit(&o, &grid())
                .unwrap();
            assert_eq!(response.report, expected);
            assert_eq!(service.take(ticket).unwrap().report, expected);
            assert_eq!(
                service.poll(ticket),
                Status::Unknown,
                "taken tickets vanish"
            );
        }
        assert_eq!(service.stats().requests_served, 4);
    }

    #[test]
    fn requests_route_by_handle() {
        let o1 = outcomes(500, 2);
        let o2 = outcomes(500, 3);
        let mut service = AuditService::new();
        let h1 = service.register(&o1, &grid(), base()).unwrap();
        let h2 = service.register(&o2, &grid(), base()).unwrap();
        assert_eq!((h1, h2), (DatasetHandle(0), DatasetHandle(1)));
        let request = service.default_request(h1).unwrap();
        let t1 = service.submit(h1, request).unwrap();
        let t2 = service.submit(h2, request).unwrap();
        service.flush();
        let r1 = service.take(t1).unwrap();
        let r2 = service.take(t2).unwrap();
        assert_ne!(
            r1.report, r2.report,
            "different datasets, different answers"
        );
        let e1 = Auditor::new(request.apply_to(base()))
            .audit(&o1, &grid())
            .unwrap();
        let e2 = Auditor::new(request.apply_to(base()))
            .audit(&o2, &grid())
            .unwrap();
        assert_eq!(r1.report, e1);
        assert_eq!(r2.report, e2);
    }

    #[test]
    fn submit_errors_are_typed_not_panics() {
        let (mut service, handle, _) = service_with(300, 4);
        let mut bad = service.default_request(handle).unwrap();
        bad.alpha = 2.0;
        let err = service.submit(handle, bad).unwrap_err();
        assert!(matches!(err, SubmitError::InvalidRequest { .. }), "{err}");
        assert!(err.to_string().contains("alpha"), "{err}");
        bad.alpha = 0.05;
        bad.worlds = 0;
        let err = service.submit(handle, bad).unwrap_err();
        assert!(err.to_string().contains("world"), "{err}");
        let ghost = DatasetHandle(999);
        let err = service
            .submit(ghost, service.default_request(handle).unwrap())
            .unwrap_err();
        assert_eq!(err, SubmitError::UnknownHandle(ghost));
        assert_eq!(service.pending_total(), 0, "rejections never queue");
    }

    #[test]
    fn manual_policy_runs_nothing_until_flush() {
        let (mut service, handle, _) = service_with(300, 5);
        let t = service
            .submit(handle, service.default_request(handle).unwrap())
            .unwrap();
        service.tick(1_000_000);
        assert!(service.poll(t).is_queued(), "Manual ignores the clock");
        assert_eq!(service.stats().batches, 0);
        assert_eq!(service.flush(), 1);
        assert!(service.poll(t).is_ready());
    }

    #[test]
    fn max_pending_policy_executes_on_the_nth_submission() {
        let (service, handle, _) = service_with(400, 6);
        let mut service = service.with_policy(DrainPolicy::MaxPending(3));
        let request = service.default_request(handle).unwrap();
        let t1 = service.submit(handle, request).unwrap();
        let t2 = service
            .submit(handle, request.with_direction(Direction::High))
            .unwrap();
        assert_eq!(service.pending(handle), Some(2));
        assert_eq!(service.stats().batches, 0);
        let t3 = service
            .submit(handle, request.with_direction(Direction::Low))
            .unwrap();
        assert_eq!(service.pending(handle), Some(0), "third submission fired");
        assert_eq!(service.stats().batches, 1);
        for t in [t1, t2, t3] {
            assert!(service.poll(t).is_ready());
        }
    }

    #[test]
    fn deadline_policy_fires_on_tick_not_before() {
        let (service, handle, _) = service_with(400, 7);
        let mut service = service.with_policy(DrainPolicy::Deadline(10));
        let request = service.default_request(handle).unwrap();
        service.tick(100);
        let t = service.submit(handle, request).unwrap();
        assert_eq!(service.tick(105), 0, "deadline not reached");
        assert!(service.poll(t).is_queued());
        assert_eq!(service.tick(110), 1, "10 ticks after submission");
        assert!(service.poll(t).is_ready());
        // The clock is monotonic: going backwards is ignored, so a
        // submission after tick(50) is still stamped 110 and waits for
        // 120.
        service.tick(50);
        let late = service.submit(handle, request.with_seed(8)).unwrap();
        assert_eq!(service.tick(119), 0);
        assert_eq!(service.tick(120), 1);
        assert!(service.poll(late).is_ready());
        assert_eq!(service.stats().drain_p99, 10, "latency counts in ticks");
    }

    #[test]
    fn repeat_requests_are_served_from_the_world_cache() {
        let (mut service, handle, _) = service_with(900, 8);
        let request = service.default_request(handle).unwrap();
        let t_cold = service.submit(handle, request).unwrap();
        service.flush();
        let cold = service.take(t_cold).unwrap();
        let after_cold = service.stats();
        assert_eq!(after_cold.unique_worlds, 99);
        assert_eq!(after_cold.cache_hits, 0);

        let t_warm = service.submit(handle, request).unwrap();
        service.flush();
        let warm = service.take(t_warm).unwrap();
        assert_eq!(warm.report, cold.report, "bit-identical to the cold run");
        let stats = service.stats();
        assert_eq!(stats.unique_worlds, 99, "ZERO new simulated worlds");
        assert_eq!(stats.worlds_replayed, 99);
        assert_eq!(stats.cache_hits, 1);
        let cache = service.cache_stats(handle).unwrap();
        assert_eq!(cache.worlds_replayed, 99);
        assert_eq!(service.cached_worlds(handle), Some(99));
    }

    #[test]
    fn cache_capacity_bounds_session_memory_with_lru_eviction() {
        use sfscan::WorldGen;
        let o = outcomes(600, 20);
        // One 99-world single-direction class costs 99 × 8 bytes; cap
        // the cache so only two classes fit.
        let mut service = AuditService::new().with_cache_capacity_bytes(2 * 99 * 8);
        let handle = service.register(&o, &grid(), base()).unwrap();
        let request = service.default_request(handle).unwrap();
        for seed in [1u64, 2, 3] {
            service.submit(handle, request.with_seed(seed)).unwrap();
            service.flush();
        }
        let cache = service.cache_stats(handle).unwrap();
        assert_eq!(cache.evictions, 1, "third class evicted the oldest");
        assert!(cache.resident_bytes <= 1584, "{cache:?}");
        // Seed 1 was evicted: repeating it simulates again; seed 3 is
        // still resident and replays.
        let before = service.stats().unique_worlds;
        service.submit(handle, request.with_seed(3)).unwrap();
        service.flush();
        assert_eq!(service.stats().unique_worlds, before, "seed 3 replayed");
        service.submit(handle, request.with_seed(1)).unwrap();
        service.flush();
        assert_eq!(
            service.stats().unique_worlds,
            before + 99,
            "evicted seed 1 re-simulates"
        );
        // Worldgen knob rides through the service unchanged and stays
        // bit-identical to the standalone auditor.
        let word = request.with_worldgen(WorldGen::Word);
        let ticket = service.submit(handle, word).unwrap();
        service.flush();
        let response = service.take(ticket).unwrap();
        let expected = Auditor::new(word.apply_to(base()))
            .audit(&o, &grid())
            .unwrap();
        assert_eq!(response.report, expected);
    }

    #[test]
    fn wire_requests_without_worldgen_decode_as_scalar() {
        use sfscan::WorldGen;
        let (mut service, handle, o) = service_with(500, 21);
        // A v1 transcript line (no "worldgen" key) keeps decoding and
        // means the v1 Scalar stream.
        let v1_line = format!(
            "{{\"handle\": {}, \"request\": {{\"alpha\": 0.05, \"worlds\": 99, \"seed\": 5, \
             \"direction\": \"TwoSided\", \"null_model\": \"Bernoulli\", \
             \"mc_strategy\": \"FullBudget\"}}}}",
            handle.0
        );
        let t_v1 = service.submit_json(&v1_line).unwrap();
        // A v2 line selects the word generator explicitly.
        let word_request = service
            .default_request(handle)
            .unwrap()
            .with_worldgen(WorldGen::Word);
        let t_word = service
            .submit_json(&RequestEnvelope::new(handle, word_request).to_json())
            .unwrap();
        service.flush();
        let scalar_report = service.take(t_v1).unwrap().report;
        let word_report = service.take(t_word).unwrap().report;
        assert_eq!(scalar_report.config.worldgen, WorldGen::Scalar);
        assert_eq!(word_report.config.worldgen, WorldGen::Word);
        let scalar_expected = Auditor::new(
            service
                .default_request(handle)
                .unwrap()
                .with_worldgen(WorldGen::Scalar)
                .apply_to(base()),
        )
        .audit(&o, &grid())
        .unwrap();
        assert_eq!(
            scalar_report, scalar_expected,
            "v1 lines stay bit-identical"
        );
        assert_ne!(
            scalar_report.simulated, word_report.simulated,
            "the generators draw distinct streams"
        );
    }

    #[test]
    fn unregister_evicts_the_session_and_frees_its_cache() {
        let (mut service, handle, _) = service_with(600, 9);
        let request = service.default_request(handle).unwrap();
        service.submit(handle, request).unwrap();
        service.flush();
        assert!(service.cached_worlds(handle).unwrap() > 0);
        // A pending ticket at eviction time is dropped…
        let orphan = service.submit(handle, request.with_seed(3)).unwrap();
        let final_cache = service.unregister(handle).unwrap();
        assert_eq!(final_cache.worlds_simulated, 99);
        // …the handle stops routing…
        assert_eq!(service.cache_stats(handle), None);
        assert_eq!(service.cached_worlds(handle), None);
        assert_eq!(service.pending(handle), None);
        assert_eq!(service.poll(orphan), Status::Unknown);
        assert_eq!(
            service.submit(handle, request).unwrap_err(),
            SubmitError::UnknownHandle(handle)
        );
        assert_eq!(
            service.unregister(handle).unwrap_err(),
            SubmitError::UnknownHandle(handle)
        );
        // …and a re-registration is a fresh session under a NEW handle
        // with a cold cache.
        let o = outcomes(600, 9);
        let fresh = service.register(&o, &grid(), base()).unwrap();
        assert_ne!(fresh, handle, "handles are never reused");
        assert_eq!(service.cached_worlds(fresh), Some(0));
    }

    #[test]
    fn stats_display_is_the_summary_line() {
        let (mut service, handle, _) = service_with(700, 11);
        let request = service.default_request(handle).unwrap();
        service.submit(handle, request).unwrap();
        service
            .submit(handle, request.with_direction(Direction::High))
            .unwrap();
        service.flush();
        service.submit(handle, request).unwrap();
        service.flush();
        let line = service.stats().to_string();
        assert!(line.starts_with("requests=3"), "{line}");
        for token in [
            "worlds: unique=",
            "shared=",
            "saved=",
            "cache_hits=1",
            "queue_depth=0",
            "drain_latency: p50=",
            "p99=",
            "(n=3)",
        ] {
            assert!(line.contains(token), "{line}");
        }
    }

    #[test]
    fn the_busy_cap_counts_pending_ready_and_executing_jobs() {
        let prepared = std::sync::Arc::new(
            sfscan::PreparedAudit::prepare(&outcomes(300, 15), &grid(), base()).unwrap(),
        );
        let request = sfscan::AuditRequest::from_config(&base());
        let mut table = SessionTable::new(DrainPolicy::Manual, Some(2));
        let handle = table.register(prepared.clone(), sfscan::WorldCache::new());
        let submit = |table: &mut SessionTable<u64>, id| {
            table.submit(RequestEnvelope::new(handle, request), id, 0)
        };
        submit(&mut table, 0).unwrap();
        submit(&mut table, 1).unwrap();
        let busy = SubmitError::Busy {
            pending: 2,
            capacity: 2,
        };
        assert_eq!(submit(&mut table, 2), Err(busy.clone()), "two pending");
        table.promote_all();
        assert_eq!(submit(&mut table, 2), Err(busy.clone()), "two ready");
        let batch = table.claim().expect("a ready batch");
        assert_eq!(batch.jobs.len(), 2);
        assert_eq!(submit(&mut table, 2), Err(busy), "two executing");
        assert_eq!((table.queue_depth(), table.outstanding()), (0, 2));
        table.release(batch.handle, batch.jobs.len());
        submit(&mut table, 2).unwrap();
        assert_eq!(table.outstanding(), 1, "rejections queued nothing");

        // Capacity 0 is not floored: every submission is refused.
        let mut closed = SessionTable::<u64>::new(DrainPolicy::Manual, Some(0));
        let handle = closed.register(prepared, sfscan::WorldCache::new());
        assert_eq!(
            closed.submit(RequestEnvelope::new(handle, request), 0, 0),
            Err(SubmitError::Busy {
                pending: 0,
                capacity: 0
            })
        );
    }

    #[test]
    fn wire_envelopes_round_trip_and_reject_malformed_lines() {
        let (mut service, handle, _) = service_with(500, 12);
        let request = service
            .default_request(handle)
            .unwrap()
            .with_direction(Direction::Low)
            .with_null_model(NullModel::Permutation);
        let envelope = RequestEnvelope::new(handle, request);
        let line = envelope.to_json();
        assert_eq!(RequestEnvelope::from_json(&line).unwrap(), envelope);
        let ticket = service.submit_json(&line).unwrap();
        assert_eq!(
            ResponseEnvelope::from_status(ticket, service.poll(ticket)),
            ResponseEnvelope::queued(ticket)
        );
        service.flush();
        let out = ResponseEnvelope::from_status(ticket, service.poll(ticket));
        assert_eq!(out.status, WireStatus::Ready);
        assert_eq!(out.ticket, Some(ticket));
        assert!(out.report.is_some());
        assert_eq!(out.error, None);
        let back = ResponseEnvelope::from_json(&out.to_json()).unwrap();
        assert_eq!(back, out);

        // Malformed and invalid lines are rejected without queueing.
        let err = service.submit_json("{not json}").unwrap_err();
        assert!(matches!(err, SubmitError::Malformed { .. }), "{err}");
        let mut bad = envelope;
        bad.request.alpha = 5.0;
        let err = service.submit_json(&bad.to_json()).unwrap_err();
        assert!(matches!(err, SubmitError::InvalidRequest { .. }), "{err}");
        let rejected = ResponseEnvelope::rejected(&err);
        assert_eq!(rejected.status, WireStatus::Rejected);
        assert!(rejected.error.unwrap().contains("alpha"));
        assert_eq!(service.pending_total(), 0);
    }

    #[test]
    fn hostile_lines_get_typed_rejections() {
        let (mut service, handle, _) = service_with(300, 13);
        // Nesting past the JSON parser's depth cap: a malformed line,
        // not a stack overflow.
        let err = service.submit_json(&"[".repeat(800_000)).unwrap_err();
        assert!(matches!(err, SubmitError::Malformed { .. }), "{err}");
        assert_eq!(
            ResponseEnvelope::rejected(&err).status,
            WireStatus::Rejected
        );
        // A budget past the world cap: an invalid request, not an
        // allocation abort.
        let mut huge = service.default_request(handle).unwrap();
        huge.worlds = 1_000_000_000_000;
        let err = service.submit(handle, huge).unwrap_err();
        assert!(matches!(err, SubmitError::InvalidRequest { .. }), "{err}");
        assert_eq!(
            ResponseEnvelope::rejected(&err).status,
            WireStatus::Rejected
        );
        assert_eq!(service.pending_total(), 0);
    }

    #[test]
    fn typed_error_envelopes_round_trip() {
        // Every SubmitError classifies to a stable kebab-case code, and
        // the envelope round-trips with the code intact.
        let cases: Vec<(SubmitError, ErrorCode, WireStatus)> = vec![
            (
                SubmitError::Busy {
                    pending: 4,
                    capacity: 4,
                },
                ErrorCode::Busy,
                WireStatus::Busy,
            ),
            (
                SubmitError::UnknownHandle(DatasetHandle(7)),
                ErrorCode::UnknownHandle,
                WireStatus::Rejected,
            ),
            (
                SubmitError::InvalidRequest {
                    reason: String::from("alpha must lie in (0, 1)"),
                },
                ErrorCode::InvalidRequest,
                WireStatus::Rejected,
            ),
            (
                SubmitError::Malformed {
                    reason: String::from("line 1: expected a value"),
                },
                ErrorCode::Malformed,
                WireStatus::Rejected,
            ),
        ];
        for (error, code, status) in cases {
            let envelope = ResponseEnvelope::rejected(&error);
            assert_eq!(envelope.status, status, "{error}");
            assert_eq!(envelope.code, Some(code), "{error}");
            assert_eq!(envelope.error.as_deref(), Some(&*error.to_string()));
            let line = envelope.to_json();
            assert!(line.contains(&format!("\"code\":\"{code}\"")), "{line}");
            assert_eq!(ResponseEnvelope::from_json(&line).unwrap(), envelope);
        }

        // The busy shorthand is the rejected() rendering of Busy.
        let busy = ResponseEnvelope::busy(3, 3);
        assert_eq!(busy.status, WireStatus::Busy);
        assert_eq!(busy.code, Some(ErrorCode::Busy));
        assert!(busy.to_json().contains("\"status\":\"busy\""));

        // Polling a ticket the service never issued is typed too.
        let unknown = ResponseEnvelope::from_status(Ticket(99), Status::Unknown);
        assert_eq!(unknown.code, Some(ErrorCode::UnknownTicket));
        let back = ResponseEnvelope::from_json(&unknown.to_json()).unwrap();
        assert_eq!(back, unknown);

        // Success envelopes never grow a code field — v1 bytes hold.
        assert!(!ResponseEnvelope::queued(Ticket(0))
            .to_json()
            .contains("code"));
    }

    #[test]
    fn percentile_is_nearest_rank_on_sorted_samples() {
        assert_eq!(percentile(&[], 0.5), 0);
        assert_eq!(percentile(&[7], 0.5), 7);
        assert_eq!(percentile(&[7], 0.99), 7);
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
    }

    #[test]
    fn percentile_edges_empty_singleton_ties_and_degenerate_quantiles() {
        // Empty: 0 for every quantile, including the degenerate ends.
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(percentile(&[], q), 0);
        }
        // n = 1: the only sample answers every quantile.
        for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
            assert_eq!(percentile(&[42], q), 42);
        }
        // q = 0 clamps to rank 1 (the minimum), never underflows.
        assert_eq!(percentile(&[3, 9], 0.0), 3);
        // Ties: a run of equal samples owns every quantile whose
        // nearest rank lands inside the run.
        let tied = [5, 5, 5, 9];
        assert_eq!(percentile(&tied, 0.25), 5);
        assert_eq!(percentile(&tied, 0.5), 5);
        assert_eq!(percentile(&tied, 0.75), 5);
        assert_eq!(percentile(&tied, 1.0), 9);
        let all_equal = [4u64; 16];
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(percentile(&all_equal, q), 4);
        }
    }

    #[test]
    fn stats_probe_lines_are_recognised_and_nothing_else_is() {
        let is_stats = |line: &str| matches!(RequestLine::decode(line), Ok(RequestLine::Stats));
        assert!(is_stats(r#"{"stats":true}"#));
        assert!(is_stats(r#" {"stats": true, "extra": 1} "#));
        // Anything that is not exactly `"stats": true` is a normal line.
        assert!(!is_stats(r#"{"stats":false}"#));
        assert!(!is_stats(r#"{"stats":1}"#));
        assert!(!is_stats(r#"{"handle":0}"#));
        assert!(!is_stats("not json"));
        assert!(!is_stats(""));
    }

    #[test]
    fn decoded_lines_reject_with_the_submit_json_text() {
        let (mut service, handle, _) = service_with(100, 3);
        let valid = RequestEnvelope::new(handle, sfscan::AuditRequest::new(0.05).with_worlds(9))
            .with_geojson();
        assert_eq!(
            RequestLine::decode(&valid.to_json()),
            Ok(RequestLine::Submit(valid))
        );
        for line in [
            "not json",
            "  {\"handle\": 0}",
            "{\"stats\": false}",
            "[1,2",
            &"[".repeat(800_000),
        ] {
            assert_eq!(
                RequestLine::decode(line).unwrap_err(),
                service.submit_json(line).unwrap_err(),
                "{line:.40}"
            );
        }
    }

    #[test]
    fn stats_snapshot_envelope_round_trips_with_both_payloads() {
        let (mut service, handle, _) = service_with(400, 11);
        let request = service.default_request(handle).unwrap();
        let t = service.submit(handle, request).unwrap();
        service.submit(handle, request).unwrap();
        service.flush();
        assert!(service.poll(t).is_ready());

        let envelope =
            ResponseEnvelope::stats_snapshot(service.stats(), service.cache_stats_total());
        assert_eq!(envelope.status, WireStatus::Stats);
        assert_eq!(envelope.ticket, None);
        assert_eq!(envelope.code, None);
        let stats = envelope.stats.expect("snapshot carries server stats");
        assert_eq!(stats.requests_served, 2);
        let cache = envelope.cache.expect("snapshot carries cache stats");
        assert!(cache.hits + cache.misses > 0, "the flush touched the cache");

        let line = envelope.to_json();
        assert!(line.contains("\"status\":\"stats\""), "{line}");
        let back = ResponseEnvelope::from_json(&line).unwrap();
        assert_eq!(back, envelope);
        assert_eq!(back.stats, Some(stats));
        assert_eq!(back.cache, Some(cache));

        // Non-stats envelopes do not grow the optional fields: the v1
        // wire bytes are unchanged.
        let busy = ResponseEnvelope::busy(1, 1).to_json();
        assert!(!busy.contains("\"stats\""), "{busy}");
        assert!(!busy.contains("\"cache\""), "{busy}");
    }

    #[test]
    fn geojson_flag_attaches_findings_and_leaves_other_lines_untouched() {
        let (mut service, handle, _) = service_with(500, 14);
        let request = service.default_request(handle).unwrap();

        // The flag round-trips and is skip-serialised when unset, so a
        // flagless envelope's bytes are exactly the v1 wire shape.
        let plain = RequestEnvelope::new(handle, request);
        let flagged = plain.with_geojson();
        assert!(!plain.to_json().contains("geojson"));
        assert!(flagged.to_json().contains("\"geojson\":true"));
        assert_eq!(RequestEnvelope::from_json(&plain.to_json()).unwrap(), plain);
        assert_eq!(
            RequestEnvelope::from_json(&flagged.to_json()).unwrap(),
            flagged
        );

        let t_plain = service.submit_json(&plain.to_json()).unwrap();
        let t_flagged = service.submit_json(&flagged.to_json()).unwrap();
        // The flag travels with the job: readable while queued, after
        // the drain, and gone with the taken response.
        assert!(!service.geojson_requested(t_plain));
        assert!(service.geojson_requested(t_flagged));
        service.flush();
        assert!(service.geojson_requested(t_flagged));

        let plain_out = ResponseEnvelope::ready(service.take(t_plain).unwrap());
        let mut flagged_out = ResponseEnvelope::ready(service.take(t_flagged).unwrap());
        flagged_out = flagged_out.with_geojson_findings();
        assert!(
            !service.geojson_requested(t_flagged),
            "taken tickets vanish"
        );
        // Identical audits; only the presentation differs.
        assert_eq!(plain_out.report, flagged_out.report);
        assert_eq!(plain_out.geojson, None);
        assert!(!plain_out.to_json().contains("geojson"));
        let rendered = flagged_out.geojson.as_ref().expect("findings attached");
        assert!(rendered.contains("FeatureCollection"));
        assert_eq!(
            rendered,
            &findings_feature_collection(flagged_out.report.as_ref().unwrap())
        );
        // The extended envelope round-trips with its rendering intact.
        let back = ResponseEnvelope::from_json(&flagged_out.to_json()).unwrap();
        assert_eq!(back, flagged_out);
    }

    #[test]
    fn prepare_errors_propagate_from_register() {
        let o = outcomes(100, 13);
        let empty = RegionSet::from_regions(vec![]);
        let mut service = AuditService::new();
        assert_eq!(
            service.register(&o, &empty, base()).unwrap_err(),
            ScanError::EmptyRegionSet
        );
    }
}
