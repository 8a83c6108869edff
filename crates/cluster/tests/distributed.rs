//! The distributed bit-identity matrix: unsharded vs distributed vs
//! distributed-with-injected-faults must produce identical reports —
//! same τ, same p-values, same serialized bytes — across worldgens
//! and statistics, plus the failure-story contracts (re-dispatch,
//! health states, deadline misses, graceful degradation).

use proptest::prelude::*;
use sfcluster::{
    ClusterStats, CoordinatorConfig, CountRequest, DistributedEvaluator, FaultPlan, ShardWorker,
    SpanCounter, SpanSpec, WorkerHealth, WorkerReply, WorkerRequest,
};
use sfgeo::{Point, Rect};
use sfnet::{Clock, ManualClock, SystemClock};
use sfscan::prepared::{PreparedAudit, WorldClass, WorldEvaluator};
use sfscan::worldcache::WorldCache;
use sfscan::{
    AuditConfig, AuditReport, AuditRequest, CountingStrategy, Direction, NullModel, RegionSet,
    SpatialOutcomes, Statistic, WorldGen,
};
use std::str::FromStr;
use std::sync::Arc;

/// Deterministic unfair layout (both classes present, no degenerate
/// grid cell) — the same shape the statistic-equivalence suite pins.
fn outcomes(n: usize, seed: u64) -> SpatialOutcomes {
    let mut points = Vec::with_capacity(n);
    let mut labels = Vec::with_capacity(n);
    for i in 0..n {
        let h = (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ seed;
        let x = (h % 1000) as f64 / 100.0;
        let y = ((h >> 10) % 1000) as f64 / 100.0;
        points.push(Point::new(x, y));
        let five = h.is_multiple_of(5);
        labels.push(if x < 5.0 { !five } else { five });
    }
    SpatialOutcomes::new(points, labels).unwrap()
}

fn grid() -> RegionSet {
    RegionSet::regular_grid(Rect::from_coords(0.0, 0.0, 10.0, 10.0), 4, 4)
}

fn prepared(n: usize) -> Arc<PreparedAudit> {
    let base = AuditConfig::new(0.05)
        .with_worlds(60)
        .with_seed(11)
        .with_strategy(CountingStrategy::Blocked);
    Arc::new(PreparedAudit::prepare(&outcomes(n, 3), &grid(), base).unwrap())
}

/// The request matrix the bit-identity tests replay: both worldgens,
/// two extra statistics, both null models, a direction variant.
fn request_matrix() -> Vec<AuditRequest> {
    let r = AuditRequest::new(0.05).with_worlds(60).with_seed(1);
    vec![
        r,
        r.with_worldgen(WorldGen::Scalar),
        r.with_statistic(Statistic::EqualOppTpr),
        r.with_statistic(Statistic::MeanResidual),
        r.with_null_model(NullModel::Permutation),
        r.with_direction(Direction::High).with_seed(2),
    ]
}

/// Spawns `n` workers sharing one engine, each with its own fault
/// plan (`plans[i]`; missing entries mean no faults).
fn spawn_workers(prepared: &Arc<PreparedAudit>, n: usize, plans: &[&str]) -> Vec<ShardWorker> {
    (0..n)
        .map(|i| {
            let counter = Arc::new(SpanCounter::new(prepared.clone()).unwrap());
            let plan = Arc::new(FaultPlan::from_str(plans.get(i).copied().unwrap_or("")).unwrap());
            ShardWorker::bind("127.0.0.1:0", counter, plan).unwrap()
        })
        .collect()
}

fn evaluator(
    prepared: &Arc<PreparedAudit>,
    workers: &[ShardWorker],
    config: CoordinatorConfig,
) -> DistributedEvaluator {
    let addrs: Vec<String> = workers.iter().map(|w| w.local_addr().to_string()).collect();
    DistributedEvaluator::new(
        prepared.clone(),
        &addrs,
        config,
        Arc::new(SystemClock::new()),
    )
    .unwrap()
}

fn render(reports: &[AuditReport]) -> Vec<String> {
    reports
        .iter()
        .map(|r| serde_json::to_string(r).unwrap())
        .collect()
}

/// Runs the matrix through a distributed evaluator and asserts the
/// rendered reports equal the unsharded reference byte for byte.
/// Returns the coordinator's stats for failure-story assertions.
fn assert_bit_identical(
    prepared: &Arc<PreparedAudit>,
    workers: &[ShardWorker],
    config: CoordinatorConfig,
) -> ClusterStats {
    let requests = request_matrix();
    let reference = render(&prepared.run_batch(&requests));
    let eval = evaluator(prepared, workers, config);
    let mut cache = WorldCache::new();
    let (reports, _) = prepared.run_batch_cached_with(&requests, &mut cache, Some(&eval));
    assert_eq!(render(&reports), reference, "distributed τ/p-value drift");
    eval.stats()
}

#[test]
fn healthy_cluster_is_bit_identical_across_worldgens_and_statistics() {
    let prepared = prepared(1500);
    for n in [1usize, 3] {
        let workers = spawn_workers(&prepared, n, &[]);
        let stats = assert_bit_identical(&prepared, &workers, CoordinatorConfig::default());
        assert!(stats.completed_remote > 0, "no spans went over the wire");
        assert_eq!(stats.redispatches, 0);
        assert_eq!(stats.degraded_local_spans, 0);
    }
}

#[test]
fn killed_worker_is_bit_identical_and_routed_around() {
    let prepared = prepared(1500);
    // Worker 0 dies after 3 requests; its spans re-dispatch to the
    // survivors (or degrade locally) with identical bytes.
    let workers = spawn_workers(&prepared, 3, &["kill-after=3"]);
    let config = CoordinatorConfig {
        connect_timeout_ms: 200,
        backoff_base_ms: 1,
        ..CoordinatorConfig::default()
    };
    let stats = assert_bit_identical(&prepared, &workers, config);
    assert!(workers[0].is_killed());
    assert!(
        stats.redispatches > 0 || stats.degraded_local_spans > 0,
        "the kill fault never forced a recovery: {stats:?}"
    );
}

#[test]
fn dropped_connections_and_corrupt_replies_are_bit_identical() {
    let prepared = prepared(1500);
    let workers = spawn_workers(
        &prepared,
        3,
        &["drop-at=2,drop-at=5", "corrupt-at=1,corrupt-at=4"],
    );
    let config = CoordinatorConfig {
        backoff_base_ms: 1,
        ..CoordinatorConfig::default()
    };
    let stats = assert_bit_identical(&prepared, &workers, config);
    assert!(stats.conn_errors > 0, "drops never observed: {stats:?}");
    assert!(
        stats.corrupt_replies > 0,
        "corruption never observed: {stats:?}"
    );
    assert!(stats.redispatches > 0);
}

#[test]
fn injected_delays_miss_deadlines_and_still_bit_identical() {
    let prepared = prepared(1500);
    // Worker 0 delays every reply past the 50 ms dispatch deadline.
    let workers = spawn_workers(&prepared, 2, &["delay-every=1:400"]);
    let config = CoordinatorConfig {
        dispatch_timeout: 50_000, // µs under SystemClock
        backoff_base_ms: 1,
        ..CoordinatorConfig::default()
    };
    let stats = assert_bit_identical(&prepared, &workers, config);
    assert!(stats.deadline_misses > 0, "no deadline fired: {stats:?}");
}

/// Rewrites a span's honest `(counts, p_partials)` into impossible
/// ones, given the whole world's point count.
type Tamper = fn(&mut [u64], &mut [u64], u64);

/// A loopback shard worker that counts honestly but runs its first
/// `lies` count replies through `tamper` — well-formed lines carrying
/// counts no window can hold. Returns its address.
fn lying_worker(counter: Arc<SpanCounter>, lies: usize, tamper: Tamper) -> String {
    use std::io::{BufRead, BufReader, Write};
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    std::thread::spawn(move || {
        let mut told = 0;
        // The coordinator drops a connection after a failed dispatch
        // and reconnects for the retry.
        for stream in listener.incoming() {
            let stream = stream.unwrap();
            stream.set_nodelay(true).unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut writer = stream;
            let mut line = String::new();
            while reader.read_line(&mut line).unwrap_or(0) > 0 {
                let Ok(WorkerRequest::Count(request)) = WorkerRequest::from_json(line.trim())
                else {
                    panic!("unexpected request {line}");
                };
                let (lo, hi) = (request.word_lo as usize, request.word_hi as usize);
                let mut partials = counter
                    .count_span(SpanSpec {
                        null_model: request.null_model,
                        worldgen: request.worldgen,
                        seed: request.seed,
                        first: request.first as usize,
                        count: request.count as usize,
                        word_lo: lo,
                        word_hi: hi,
                    })
                    .unwrap();
                if told < lies {
                    told += 1;
                    let points = counter.num_points() as u64;
                    tamper(&mut partials.counts, &mut partials.p_partials, points);
                }
                let reply = WorkerReply::Count {
                    id: request.id,
                    counts: partials.counts,
                    p_partials: partials.p_partials,
                };
                if writer
                    .write_all(format!("{}\n", reply.to_json()).as_bytes())
                    .is_err()
                {
                    break;
                }
                line.clear();
            }
        }
    });
    addr
}

#[test]
fn impossible_counts_are_corrupt_and_redispatched() {
    let prepared = prepared(900);
    let requests = request_matrix();
    let reference = render(&prepared.run_batch(&requests));
    let tampers: [Tamper; 3] = [
        // A region with more positives than its whole window.
        |counts, p_partials, _| counts[0] = p_partials[0] + 1,
        // More positives than the whole world has points.
        |_, p_partials, points| p_partials[0] = points + 1,
        // A region with more positives than the whole world has points.
        |counts, _, points| counts[0] = points + 1,
    ];
    for tamper in tampers {
        let counter = Arc::new(SpanCounter::new(prepared.clone()).unwrap());
        let addr = lying_worker(counter, 2, tamper);
        let eval = DistributedEvaluator::new(
            prepared.clone(),
            &[addr],
            CoordinatorConfig {
                backoff_base_ms: 1,
                ..CoordinatorConfig::default()
            },
            Arc::new(SystemClock::new()),
        )
        .unwrap();
        let mut cache = WorldCache::new();
        let (reports, _) = prepared.run_batch_cached_with(&requests, &mut cache, Some(&eval));
        assert_eq!(render(&reports), reference);
        let stats = eval.stats();
        assert_eq!(stats.corrupt_replies, 2, "{stats:?}");
        assert_eq!(stats.redispatches, 2, "{stats:?}");
        assert_eq!(stats.degraded_local_spans, 0, "{stats:?}");
        assert_eq!(eval.worker_health(0), WorkerHealth::Healthy);
    }
}

#[test]
fn no_live_workers_degrades_to_local_and_stays_bit_identical() {
    let prepared = prepared(1200);
    // Point at a bound-then-dropped port: every connect fails fast.
    let dead_addr = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap().to_string()
    };
    let requests = request_matrix();
    let reference = render(&prepared.run_batch(&requests));
    let eval = DistributedEvaluator::new(
        prepared.clone(),
        &[dead_addr],
        CoordinatorConfig {
            connect_timeout_ms: 50,
            backoff_base_ms: 1,
            dead_after: 2,
            ..CoordinatorConfig::default()
        },
        Arc::new(SystemClock::new()),
    )
    .unwrap();
    let mut cache = WorldCache::new();
    let (reports, _) = prepared.run_batch_cached_with(&requests, &mut cache, Some(&eval));
    assert_eq!(render(&reports), reference);
    let stats = eval.stats();
    assert!(stats.degraded_local_spans > 0, "never degraded: {stats:?}");
    assert_eq!(eval.worker_health(0), WorkerHealth::Dead);
    assert!(eval.worker_last_error(0).is_some());
}

#[test]
fn health_walks_healthy_suspect_dead() {
    let prepared = prepared(800);
    let workers = spawn_workers(&prepared, 1, &[]);
    let addr = workers[0].local_addr().to_string();
    drop(workers); // sever: every dispatch now fails
    let eval = DistributedEvaluator::new(
        prepared.clone(),
        &[addr],
        CoordinatorConfig {
            connect_timeout_ms: 50,
            backoff_base_ms: 1,
            max_attempts: 1,
            dead_after: 2,
            ..CoordinatorConfig::default()
        },
        Arc::new(SystemClock::new()),
    )
    .unwrap();
    assert_eq!(eval.worker_health(0), WorkerHealth::Healthy);
    let class = WorldClass {
        null_model: NullModel::Bernoulli,
        seed: 1,
        worldgen: WorldGen::Word,
        statistic: Statistic::BernoulliLlr,
    };
    let dirs = [Direction::TwoSided];
    let mut out = vec![0.0; 4];
    eval.eval_span(class, &dirs, 0, &mut out, false);
    assert_eq!(eval.worker_health(0), WorkerHealth::Suspect);
    eval.eval_span(class, &dirs, 4, &mut out, false);
    assert_eq!(eval.worker_health(0), WorkerHealth::Dead);
}

#[test]
fn manual_clock_controls_the_deadline() {
    let prepared = prepared(800);
    // A worker that exists but never answers in time is simulated by
    // binding a listener that accepts and stays silent.
    let silent = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = silent.local_addr().unwrap().to_string();
    let clock = Arc::new(ManualClock::new());
    let eval = DistributedEvaluator::new(
        prepared.clone(),
        &[addr],
        CoordinatorConfig {
            dispatch_timeout: 1_000,
            connect_timeout_ms: 200,
            backoff_base_ms: 0,
            max_attempts: 1,
            ..CoordinatorConfig::default()
        },
        clock.clone() as Arc<dyn Clock>,
    )
    .unwrap();
    // Expire the deadline from another thread while eval_span blocks
    // on the silent socket.
    let ticker = {
        let clock = clock.clone();
        std::thread::spawn(move || {
            for _ in 0..50 {
                std::thread::sleep(std::time::Duration::from_millis(10));
                clock.advance(500);
            }
        })
    };
    let class = WorldClass {
        null_model: NullModel::Bernoulli,
        seed: 1,
        worldgen: WorldGen::Word,
        statistic: Statistic::BernoulliLlr,
    };
    let mut out = vec![0.0; 2];
    eval.eval_span(class, &[Direction::TwoSided], 0, &mut out, false);
    ticker.join().unwrap();
    let stats = eval.stats();
    assert!(
        stats.deadline_misses > 0,
        "manual deadline never fired: {stats:?}"
    );
    assert_eq!(stats.degraded_local_spans, 1);
}

#[test]
fn wire_round_trips() {
    let requests = [
        WorkerRequest::Hello,
        WorkerRequest::Stats,
        WorkerRequest::Shutdown,
        WorkerRequest::Count(CountRequest {
            id: 7,
            null_model: NullModel::Permutation,
            seed: 42,
            worldgen: WorldGen::Scalar,
            first: 8,
            count: 4,
            word_lo: 16,
            word_hi: 64,
        }),
    ];
    for request in &requests {
        let back = WorkerRequest::from_json(&request.to_json()).unwrap();
        assert_eq!(&back, request);
    }
    let replies = [
        WorkerReply::Hello {
            version: 1,
            num_points: 100,
            num_regions: 16,
            num_words: 2,
        },
        WorkerReply::Count {
            id: 7,
            counts: vec![1, 2, 3, 4],
            p_partials: vec![9, 9],
        },
        WorkerReply::Err {
            id: Some(7),
            error: String::from("boom"),
        },
        WorkerReply::Err {
            id: None,
            error: String::from("malformed"),
        },
    ];
    for reply in &replies {
        let back = WorkerReply::from_json(&reply.to_json()).unwrap();
        assert_eq!(&back, reply);
    }
}

#[test]
fn fault_plan_grammar() {
    let plan = FaultPlan::from_str("kill-after=3,delay-at=2:50,drop-at=1,corrupt-at=4").unwrap();
    let a1 = plan.next_request();
    assert!(a1.drop_connection && !a1.kill_after);
    let a2 = plan.next_request();
    assert_eq!(a2.delay_ms, 50);
    let a3 = plan.next_request();
    assert!(a3.kill_after);
    let a4 = plan.next_request();
    assert!(a4.corrupt_reply && a4.kill_after); // kill-after is sticky
    assert_eq!(plan.served(), 4);

    assert!(FaultPlan::from_str("").unwrap().is_empty());
    for bad in [
        "nope",
        "kill-after",
        "kill-after=x",
        "delay-at=3",
        "delay-every=0:5",
    ] {
        assert!(FaultPlan::from_str(bad).is_err(), "accepted `{bad}`");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Window partials over any word partition sum to the full-axis
    /// counts — the invariant the coordinator's reduction rests on.
    #[test]
    fn span_partials_sum_over_any_partition(
        shards in 1usize..6,
        seed in 0u64..50,
        first in 0usize..40,
        count in 1usize..6,
        worldgen_word in any::<bool>(),
        permutation in any::<bool>(),
    ) {
        let prepared = prepared(700);
        let counter = SpanCounter::new(prepared.clone()).unwrap();
        let num_words = counter.num_label_words();
        let worldgen = if worldgen_word { WorldGen::Word } else { WorldGen::Scalar };
        let null_model = if permutation { NullModel::Permutation } else { NullModel::Bernoulli };
        let full = counter
            .count_span(SpanSpec { null_model, worldgen, seed, first, count, word_lo: 0, word_hi: num_words })
            .unwrap();
        let bounds = sfindex::shard_word_bounds(num_words, shards);
        let mut counts = vec![0u64; full.counts.len()];
        let mut p = vec![0u64; count];
        for &(lo, hi) in &bounds {
            let part = counter
                .count_span(SpanSpec { null_model, worldgen, seed, first, count, word_lo: lo, word_hi: hi })
                .unwrap();
            for (acc, &c) in counts.iter_mut().zip(&part.counts) {
                *acc += c;
            }
            for (acc, &c) in p.iter_mut().zip(&part.p_partials) {
                *acc += c;
            }
        }
        prop_assert_eq!(counts, full.counts);
        prop_assert_eq!(p, full.p_partials);
    }
}

/// An 800,000-deep `[` line: the shape that once overflowed the vendored
/// parser's stack.
fn nested_brackets_line() -> String {
    "[".repeat(800_000)
}

#[test]
fn deeply_nested_request_is_an_error_not_a_stack_overflow() {
    assert!(WorkerRequest::from_json(&nested_brackets_line()).is_err());
}

#[test]
fn worker_answers_a_deeply_nested_line_and_keeps_the_connection() {
    use std::io::{BufRead, BufReader, Write};
    let prepared = prepared(200);
    let workers = spawn_workers(&prepared, 1, &[]);
    let stream = std::net::TcpStream::connect(workers[0].local_addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let mut reply = |line: &str| {
        writeln!(writer, "{line}").unwrap();
        let mut back = String::new();
        reader.read_line(&mut back).unwrap();
        WorkerReply::from_json(back.trim()).unwrap()
    };
    match reply(&nested_brackets_line()) {
        WorkerReply::Err { id: None, error } => {
            assert!(error.starts_with("malformed request"), "{error}")
        }
        other => panic!("expected a malformed-request error, got {other:?}"),
    }
    match reply(&WorkerRequest::Hello.to_json()) {
        WorkerReply::Hello { num_regions, .. } => assert_eq!(num_regions, 16),
        other => panic!("expected a hello reply, got {other:?}"),
    }
    assert_eq!(workers[0].stats().errors, 1);
}

#[test]
fn shutdown_returns_while_a_client_holds_a_half_sent_line() {
    use std::io::{BufRead, BufReader, Write};
    use std::time::Duration;
    let prepared = prepared(200);
    let mut worker = spawn_workers(&prepared, 1, &[]).pop().unwrap();
    let mut stream = std::net::TcpStream::connect(worker.local_addr()).unwrap();
    // A hello, then half a request, in one write: once the hello is
    // answered, the half line sits in the worker's read buffer and the
    // socket stays open.
    let hello = WorkerRequest::Hello.to_json();
    stream
        .write_all(format!("{hello}\n{{\"op\":").as_bytes())
        .unwrap();
    let mut back = String::new();
    BufReader::new(stream.try_clone().unwrap())
        .read_line(&mut back)
        .unwrap();
    assert!(matches!(
        WorkerReply::from_json(back.trim()),
        Ok(WorkerReply::Hello { .. })
    ));
    let (done, finished) = std::sync::mpsc::channel();
    let stopper = std::thread::spawn(move || {
        worker.shutdown();
        let _ = done.send(());
    });
    let returned = finished.recv_timeout(Duration::from_secs(2)).is_ok();
    drop(stream);
    stopper.join().unwrap();
    assert!(returned, "shutdown blocked behind a half-sent line");
}
