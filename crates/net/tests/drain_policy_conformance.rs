//! One scenario table, two front ends: the in-process `AuditService`
//! (driven by `tick`) and a caller-driven `NetExecutor` (no workers,
//! a `ManualClock`) must cut the same batches, answer with the same
//! bytes and report the same `ServerStats`, because both run on the
//! same `SessionTable`.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use sfgeo::{Point, Rect};
use sfnet::{Clock, ConnDriver, ExecutorConfig, ManualClock, NetExecutor};
use sfscan::{AuditConfig, AuditRequest, RegionSet, SpatialOutcomes};
use sfserve::{
    AuditService, DatasetHandle, DrainPolicy, RequestEnvelope, ResponseEnvelope, ServerStats,
};
use std::sync::Arc;

#[derive(Debug, Clone, Copy)]
enum Step {
    /// Submit a request with this seed to this handle.
    Submit(u64, u64),
    /// The same, asking for GeoJSON findings.
    Geojson(u64, u64),
    /// Advance the clock to this time.
    Tick(u64),
    Flush,
}

use Step::{Flush, Geojson, Submit, Tick};

struct Scenario {
    name: &'static str,
    policy: DrainPolicy,
    sessions: u64,
    /// Each step with the sizes of the batches it must run, in claim
    /// order.
    steps: &'static [(Step, &'static [u64])],
}

const SCENARIOS: &[Scenario] = &[
    Scenario {
        name: "manual, then flush",
        policy: DrainPolicy::Manual,
        sessions: 1,
        steps: &[
            (Submit(0, 1), &[]),
            (Geojson(0, 2), &[]),
            (Tick(7), &[]),
            (Submit(0, 1), &[]),
            (Flush, &[3]),
            (Flush, &[]),
        ],
    },
    Scenario {
        name: "max pending 2",
        policy: DrainPolicy::MaxPending(2),
        sessions: 1,
        steps: &[
            (Submit(0, 1), &[]),
            (Submit(0, 2), &[2]),
            (Tick(3), &[]),
            (Geojson(0, 3), &[]),
            (Submit(0, 1), &[2]),
            (Tick(9), &[]),
            (Submit(0, 4), &[]),
            (Flush, &[1]),
        ],
    },
    Scenario {
        name: "deadline 5",
        policy: DrainPolicy::Deadline(5),
        sessions: 1,
        steps: &[
            (Submit(0, 1), &[]),
            (Tick(2), &[]),
            (Submit(0, 2), &[]),
            (Tick(4), &[]),
            (Tick(5), &[2]),
            (Submit(0, 3), &[]),
            (Tick(9), &[]),
            (Tick(10), &[1]),
        ],
    },
    Scenario {
        // Session 0 is claimed alone first, so when both sessions are
        // ready at t = 10 the claim resumes past it: session 1 (one
        // job) runs before session 0 (two jobs).
        name: "two sessions, round robin",
        policy: DrainPolicy::Deadline(5),
        sessions: 2,
        steps: &[
            (Submit(0, 1), &[]),
            (Tick(5), &[1]),
            (Submit(0, 2), &[]),
            (Geojson(0, 3), &[]),
            (Submit(1, 4), &[]),
            (Tick(10), &[1, 2]),
            (Submit(1, 5), &[]),
            (Submit(0, 5), &[]),
            (Tick(15), &[1, 1]),
        ],
    },
];

fn outcomes(seed: u64) -> SpatialOutcomes {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let (points, labels) = (0..400)
        .map(|_| {
            let x: f64 = rng.gen_range(0.0..10.0);
            let y: f64 = rng.gen_range(0.0..10.0);
            (
                Point::new(x, y),
                rng.gen_bool(if x < 5.0 { 0.8 } else { 0.3 }),
            )
        })
        .unzip();
    SpatialOutcomes::new(points, labels).unwrap()
}

fn grid() -> RegionSet {
    RegionSet::regular_grid(Rect::from_coords(0.0, 0.0, 10.0, 10.0), 4, 4)
}

fn base() -> AuditConfig {
    AuditConfig::new(0.05).with_worlds(99).with_seed(7)
}

fn line(handle: u64, seed: u64, geojson: bool) -> String {
    let request = AuditRequest::new(0.05).with_worlds(99).with_seed(seed);
    let envelope = RequestEnvelope::new(DatasetHandle(handle), request);
    if geojson {
        envelope.with_geojson().to_json()
    } else {
        envelope.to_json()
    }
}

/// What one step did: batches run, requests served, and the stats
/// afterwards.
#[derive(Debug, PartialEq)]
struct Observed {
    batches: u64,
    requests: u64,
    stats: ServerStats,
}

fn observe(before: &ServerStats, after: ServerStats) -> Observed {
    Observed {
        batches: after.batches - before.batches,
        requests: after.requests_served - before.requests_served,
        stats: after,
    }
}

/// Runs the scenario through the in-process service: per-step
/// observations and the response line for every submission.
fn through_service(scenario: &Scenario) -> (Vec<Observed>, Vec<String>) {
    let mut service = AuditService::new().with_policy(scenario.policy);
    for session in 0..scenario.sessions {
        service
            .register(&outcomes(3 + session), &grid(), base())
            .unwrap();
    }
    let mut observed = Vec::new();
    let mut tickets = Vec::new();
    for &(step, _) in scenario.steps {
        let before = service.stats();
        match step {
            Submit(handle, seed) | Geojson(handle, seed) => {
                let line = line(handle, seed, matches!(step, Geojson(..)));
                tickets.push(service.submit_json(&line).unwrap());
            }
            Tick(now) => {
                service.tick(now);
            }
            Flush => {
                service.flush();
            }
        }
        observed.push(observe(&before, service.stats()));
    }
    let lines = tickets
        .into_iter()
        .map(|ticket| {
            let geojson = service.geojson_requested(ticket);
            let envelope = ResponseEnvelope::ready(service.take(ticket).expect("drained"));
            if geojson {
                envelope.with_geojson_findings()
            } else {
                envelope
            }
            .to_json()
        })
        .collect();
    (observed, lines)
}

/// Runs the scenario through a worker-less executor, stepping its
/// batches one at a time: per-step observations, the batch sizes in
/// claim order, and the connection's response lines.
fn through_executor(scenario: &Scenario) -> (Vec<Observed>, Vec<Vec<u64>>, Vec<String>) {
    let clock = Arc::new(ManualClock::new());
    let executor = NetExecutor::new(
        ExecutorConfig {
            workers: 0,
            policy: scenario.policy,
            ..ExecutorConfig::default()
        },
        Arc::clone(&clock) as Arc<dyn Clock>,
    );
    for session in 0..scenario.sessions {
        executor
            .register(&outcomes(3 + session), &grid(), base())
            .unwrap();
    }
    let mut conn = ConnDriver::new();
    let mut observed = Vec::new();
    let mut sizes = Vec::new();
    for &(step, _) in scenario.steps {
        let before = executor.stats();
        let mut step_sizes = Vec::new();
        match step {
            Submit(handle, seed) | Geojson(handle, seed) => {
                let line = line(handle, seed, matches!(step, Geojson(..)));
                assert!(conn.handle_line(&executor, &line));
            }
            Tick(now) => {
                clock.set(now);
                executor.tick_now();
            }
            Flush => executor.flush(),
        }
        // A flush runs its batches inside `flush`; the table keeps
        // flushes to one batch, so its size is the step's total.
        let mut served = executor.stats().requests_served;
        if matches!(step, Flush) && served > before.requests_served {
            step_sizes.push(served - before.requests_served);
        }
        while executor.run_pending_batch() {
            let now_served = executor.stats().requests_served;
            step_sizes.push(now_served - served);
            served = now_served;
        }
        observed.push(observe(&before, executor.stats()));
        sizes.push(step_sizes);
    }
    let total = conn.finish();
    let sink = conn.sink();
    let lines = (0..total).map(|seq| sink.pop_next(seq).unwrap()).collect();
    (observed, sizes, lines)
}

#[test]
fn service_and_executor_cut_the_same_batches_and_answer_the_same_bytes() {
    for scenario in SCENARIOS {
        let name = scenario.name;
        let (service_steps, service_lines) = through_service(scenario);
        let (executor_steps, executor_sizes, executor_lines) = through_executor(scenario);

        for (i, (&(step, expected), sizes)) in
            scenario.steps.iter().zip(&executor_sizes).enumerate()
        {
            assert_eq!(sizes, expected, "{name}, step {i} ({step:?}): claim order");
            let service = &service_steps[i];
            assert_eq!(
                (service.batches, service.requests),
                (expected.len() as u64, expected.iter().sum()),
                "{name}, step {i} ({step:?}): service batches"
            );
            assert_eq!(
                service, &executor_steps[i],
                "{name}, step {i} ({step:?}): stats"
            );
        }
        assert_eq!(service_lines, executor_lines, "{name}: response bytes");

        let last = &service_steps.last().unwrap().stats;
        assert_eq!(last.queue_depth, 0, "{name}: everything drained");
        assert_eq!(last.drain_samples, last.requests_served, "{name}");
        assert!(last.unique_worlds > 0, "{name}");
    }
}

#[test]
fn deadline_latencies_count_in_the_callers_ticks() {
    let scenario = &SCENARIOS[2];
    let (steps, _) = through_service(scenario);
    let stats = &steps.last().unwrap().stats;
    // Submitted at 0, 2 and 5; drained at 5, 5 and 10.
    assert_eq!((stats.drain_p50, stats.drain_p99), (5, 5));
    assert_eq!(stats.drain_samples, 3);
}
