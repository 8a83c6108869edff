//! End-to-end benchmark of the spatial-fairness auditor.
//!
//! ```text
//! perfbench --workload <squares-cold|grid-batch|socket-warm|cluster-grid>
//!           --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
//! ```
//!
//! Every workload is a closed loop driven from this one process: a
//! client sends its next request only after the previous reply. The
//! seed picks every request's world stream; the datasets are fixed.
//! Every response is checked against a reference computed in the same
//! run by an unsharded membership-counting `PreparedAudit::run`.
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` is a
//! separate run that times calls into each layer from outside and
//! prints the per-layer metrics with their reconciliation. The last
//! stdout line is one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`.

mod trace;

use sfcluster::{
    CoordinatorConfig, DistributedEvaluator, FaultPlan, KMeans, KMeansConfig, ShardWorker,
    SpanCounter, SpanSpec, WorkerReply, WorkerRequest,
};
use sfdata::lar::{LarConfig, LarDataset};
use sfdata::synth::SynthConfig;
use sfnet::{AuditTcpServer, ExecutorConfig, NetExecutor, SystemClock};
use sfscan::prepared::{PreparedAudit, WorldEvaluator};
use sfscan::{
    AuditConfig, AuditReport, AuditRequest, CountingStrategy, Direction, McStrategy, RegionSet,
    Shards, SpatialOutcomes,
};
use sfserve::{AuditService, DatasetHandle, DrainPolicy, RequestEnvelope, ResponseEnvelope};
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};
use trace::{
    layers, process_cpu_ns, worker_tail_cpu_ns, Span, TimedCoordinator, Tracer, TracingEvaluator,
};

/// A seed kept out of every tuning run; performance claims are
/// re-checked on it.
const HELD_OUT_SEED: u64 = 7_340_033;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 9;
/// Fixed dataset seed of the Synth grid (the request seeds vary).
const GRID_DATA_SEED: u64 = 42;
/// `squares-cold` and `grid-batch` cycle their world classes through
/// small seed pools and cap the world cache below one pool's worth, so
/// every iteration is cold while the reference audits each distinct
/// request once, not once per iteration.
const SQUARES_SEED_POOL: u64 = 4;
const GRID_SEED_POOL: u64 = 8;
/// World budget of `cluster-grid` requests: each 8-world span costs
/// one loopback round trip per worker, so 999 worlds would take ~12 s
/// a batch.
const CLUSTER_WORLDS: usize = 99;
const CLUSTER_WORKERS: usize = 2;
/// Lines in the `socket-warm` request mix, and its connections.
const MIX_LINES: usize = 24;
const SOCKET_CONNECTIONS: usize = 2;
const DIRECTIONS: [Direction; 3] = [Direction::TwoSided, Direction::High, Direction::Low];
const ALPHAS: [f64; 2] = [0.05, 0.01];
/// Share of the traced client wall time the client-thread layers may
/// leave unexplained.
const WALL_TOLERANCE: f64 = 0.05;
/// Share of the process CPU time the layers may leave unexplained. It
/// is wider because part of the executor's work runs on threads that
/// evaluate no world (the fan-out over world classes), where no span
/// from outside the library can reach; that part is a fixed cost per
/// batch, ≈0.5–1 ms on a 2-core VM.
const CPU_TOLERANCE: f64 = 0.10;
/// Cluster spans replayed locally for the count/codec split.
const MAX_REPLAYED_SPANS: usize = 64;
const IO_TIMEOUT: Duration = Duration::from_secs(60);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    SquaresCold,
    GridBatch,
    SocketWarm,
    ClusterGrid,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::SquaresCold,
        Workload::GridBatch,
        Workload::SocketWarm,
        Workload::ClusterGrid,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::SquaresCold => "squares-cold",
            Workload::GridBatch => "grid-batch",
            Workload::SocketWarm => "socket-warm",
            Workload::ClusterGrid => "cluster-grid",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<String> {
        let i = argv.iter().position(|a| a == flag)?;
        argv.get(i + 1).cloned()
    };
    let name = get("--workload").ok_or("missing --workload")?;
    let workload = Workload::ALL
        .into_iter()
        .find(|w| w.name() == name)
        .ok_or_else(|| format!("unknown workload {name}"))?;
    let seed = get("--seed")
        .ok_or("missing --seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")
        .unwrap_or_else(|| String::from("10"))
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    let trace = match get("--trace").as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    if seconds.is_nan() || seconds <= 0.0 {
        return Err(String::from("--seconds must be positive"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        trace_out: get("--trace-out"),
    })
}

/// splitmix64 over `(seed, stream, i)`: independent request seeds.
fn mix(seed: u64, stream: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
        .wrapping_add(i.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

struct Dataset {
    outcomes: SpatialOutcomes,
    regions: RegionSet,
}

/// Synth: 20k points, left half twice the positive rate, 16×16 grid.
fn synth_grid() -> Dataset {
    let outcomes = SynthConfig {
        per_half: 10_000,
        ..SynthConfig::paper()
    }
    .generate(GRID_DATA_SEED);
    let regions = RegionSet::regular_grid(outcomes.expanded_bounding_box(), 16, 16);
    Dataset { outcomes, regions }
}

/// The §4.3 scan, 100 k-means centres × 20 side lengths = 2,000
/// overlapping squares, over the small SynthLAR (10,000 obs, the
/// paper's structure). At paper scale (206,418 obs) the membership
/// lists hold ~5 M ids, 20 MB streamed per world, and the audit time
/// drifts with the host's load by more than a bound allows; here they
/// hold ~0.31 M ids and stay in cache.
fn lar_squares() -> Dataset {
    let config = LarConfig::small();
    let lar = LarDataset::generate(&config);
    let centers = KMeans::fit(
        &lar.locations,
        &KMeansConfig::new(
            100,
            sfstats::rng::derive_seed(config.seed, "kmeans-centers"),
        ),
    )
    .centers;
    Dataset {
        regions: RegionSet::squares(centers, &RegionSet::paper_side_lengths()),
        outcomes: lar.outcomes,
    }
}

/// A workload's inputs: dataset, service config, and request stream.
struct Spec {
    workload: Workload,
    data: Dataset,
    config: AuditConfig,
    seed: u64,
}

impl Spec {
    fn new(workload: Workload, seed: u64) -> Spec {
        let paper = AuditConfig::paper();
        let (data, config) = match workload {
            Workload::SquaresCold => (lar_squares(), paper),
            Workload::GridBatch | Workload::SocketWarm => (synth_grid(), paper),
            Workload::ClusterGrid => (synth_grid(), paper.with_strategy(CountingStrategy::Blocked)),
        };
        Spec {
            workload,
            data,
            config,
            seed,
        }
    }

    /// 2 world classes × 3 directions × 2 alphas.
    fn class_batch(&self, seeds: [u64; 2], worlds: usize) -> Vec<AuditRequest> {
        let base = AuditRequest::from_config(&self.config).with_worlds(worlds);
        let mut batch = Vec::with_capacity(12);
        for seed in seeds {
            for direction in DIRECTIONS {
                for alpha in ALPHAS {
                    let mut request = base.with_seed(seed).with_direction(direction);
                    request.alpha = alpha;
                    batch.push(request);
                }
            }
        }
        batch
    }

    /// The requests of client iteration `i`.
    fn requests(&self, i: usize) -> Vec<AuditRequest> {
        let i = i as u64;
        match self.workload {
            Workload::SquaresCold => vec![AuditRequest::from_config(&self.config).with_seed(mix(
                self.seed,
                1,
                i % SQUARES_SEED_POOL,
            ))],
            Workload::GridBatch => self.class_batch(
                [0, 1].map(|c| mix(self.seed, 2, (2 * i + c) % GRID_SEED_POOL)),
                self.config.worlds,
            ),
            Workload::ClusterGrid => {
                self.class_batch([0, 1].map(|c| mix(self.seed, 3, 2 * i + c)), CLUSTER_WORLDS)
            }
            Workload::SocketWarm => {
                let j = i as usize % MIX_LINES;
                let mut request = AuditRequest::from_config(&self.config)
                    .with_seed(mix(self.seed, 4, (j / 12) as u64))
                    .with_direction(DIRECTIONS[j % 3]);
                request.alpha = ALPHAS[(j / 3) % 2];
                if j % 8 == 7 {
                    request = request.with_mc_strategy(McStrategy::early_stop());
                }
                vec![request]
            }
        }
    }

    fn lines(&self, handle: DatasetHandle, i: usize) -> Vec<String> {
        self.requests(i)
            .into_iter()
            .map(|r| RequestEnvelope::new(handle, r).to_json())
            .collect()
    }

    /// Iterations in the first-iteration probe of another layer: one
    /// batch, or the first half of the socket mix (one world class).
    fn probe_iterations(&self) -> usize {
        match self.workload {
            Workload::SocketWarm => MIX_LINES / 2,
            _ => 1,
        }
    }

    /// The in-process service. The cache cap holds one iteration's
    /// world classes (τ rows of 8 bytes per world and direction), so a
    /// class is evicted before its seed comes round again.
    fn service(&self) -> AuditService {
        let service = AuditService::new();
        let worlds = self.config.worlds;
        match self.workload {
            Workload::SquaresCold => service.with_cache_capacity_bytes(worlds * 8),
            Workload::GridBatch => {
                service.with_cache_capacity_bytes(2 * worlds * DIRECTIONS.len() * 8)
            }
            _ => service,
        }
    }

    fn prepare(&self, config: AuditConfig) -> (PreparedAudit, f64) {
        let t = Instant::now();
        let prepared = PreparedAudit::prepare(&self.data.outcomes, &self.data.regions, config)
            .expect("benchmark datasets are auditable");
        (prepared, t.elapsed().as_secs_f64())
    }
}

// ---------------------------------------------------------------- checks

/// Every response, reduced to its distinct (request, response) pairs:
/// the bytes after the ticket are hashed, and the first line of each
/// distinct pair is kept to be checked against the reference.
#[derive(Default)]
struct Checker {
    distinct: HashMap<(String, u64), (String, u64)>,
    responses: u64,
    bytes: u64,
    busy: u64,
    rejected: u64,
    timeouts: u64,
}

impl Checker {
    fn observe(&mut self, request: &str, response: &str) {
        self.responses += 1;
        self.bytes += response.len() as u64;
        let tail = &response[response.find("\"status\"").unwrap_or(0)..];
        if !tail.starts_with("\"status\":\"ready\"") {
            if tail.starts_with("\"status\":\"busy\"") {
                self.busy += 1;
            } else {
                self.rejected += 1;
            }
            return;
        }
        let mut h = DefaultHasher::new();
        tail.hash(&mut h);
        self.distinct
            .entry((request.to_string(), h.finish()))
            .or_insert_with(|| (response.to_string(), 0))
            .1 += 1;
    }

    fn merge(&mut self, other: Checker) {
        for (key, (line, n)) in other.distinct {
            self.distinct.entry(key).or_insert((line, 0)).1 += n;
        }
        self.responses += other.responses;
        self.bytes += other.bytes;
        self.busy += other.busy;
        self.rejected += other.rejected;
        self.timeouts += other.timeouts;
    }

    /// Responses whose τ, p-value or findings differ from the
    /// reference's (the echoed config is not compared).
    fn mismatches(&self, reference: &PreparedAudit) -> u64 {
        let mut expected: HashMap<&str, Option<AuditReport>> = HashMap::new();
        let mut bad = 0;
        for ((request, _), (response, n)) in &self.distinct {
            let want = expected.entry(request.as_str()).or_insert_with(|| {
                RequestEnvelope::from_json(request)
                    .ok()
                    .map(|env| reference.run(&env.request))
            });
            let got = ResponseEnvelope::from_json(response)
                .ok()
                .and_then(|env| env.report);
            let same = match (want.as_ref(), got) {
                (Some(a), Some(b)) => {
                    a.tau.to_bits() == b.tau.to_bits()
                        && a.p_value.to_bits() == b.p_value.to_bits()
                        && a.findings == b.findings
                }
                _ => false,
            };
            if !same {
                bad += n;
            }
        }
        bad
    }

    fn failed_before_check(&self) -> u64 {
        self.busy + self.rejected + self.timeouts
    }
}

/// The reference: unsharded membership counting, same base knobs.
fn reference(spec: &Spec) -> PreparedAudit {
    spec.prepare(
        spec.config
            .with_strategy(CountingStrategy::Membership)
            .with_shards(Shards::Fixed(1)),
    )
    .0
}

// ---------------------------------------------------------------- passes

#[derive(Clone, Copy)]
struct Budget {
    seconds: f64,
    max_iters: usize,
}

impl Budget {
    fn timed(seconds: f64) -> Budget {
        Budget {
            seconds,
            max_iters: usize::MAX,
        }
    }

    fn iterations(n: usize) -> Budget {
        Budget {
            seconds: f64::INFINITY,
            max_iters: n,
        }
    }

    fn more(&self, done: usize, start: Instant) -> bool {
        done < self.max_iters && (done == 0 || start.elapsed().as_secs_f64() < self.seconds)
    }
}

/// Latency samples (ms per client iteration) and request count.
#[derive(Default)]
struct Pass {
    samples: Vec<f64>,
    requests: u64,
    wall: f64,
}

impl Pass {
    fn serving_rate(&self) -> f64 {
        self.requests as f64 / (self.samples.iter().sum::<f64>() / 1e3)
    }
}

/// The in-process client: per iteration, decode each request line,
/// submit it, flush once, take and encode every response. With a
/// tracer, each step is a span under one `iteration` root, the flush
/// becomes the parent of the evaluator's spans, and the client's own
/// bookkeeping (building the lines, recording the responses) is a
/// `harness` span outside the iteration.
fn inproc_pass(
    service: &mut AuditService,
    handle: DatasetHandle,
    spec: &Spec,
    budget: Budget,
    tracer: Option<&Tracer>,
    checker: &mut Checker,
) -> Pass {
    let mut pass = Pass::default();
    let start = Instant::now();
    let mut i = 0;
    while budget.more(i, start) {
        let request = i as u64;
        let open = |name, parent| tracer.map(|t| t.open(name, parent, request));
        let close = |span: Option<Span>, work| {
            if let (Some(t), Some(s)) = (tracer, span) {
                t.close(s, work)
            }
        };
        let span = open("harness", 0);
        let lines = spec.lines(handle, i);
        close(span, 0);
        let t0 = Instant::now();
        let root = open("iteration", 0);
        let root_id = root.map_or(0, |s| s.id);
        let mut tickets = Vec::with_capacity(lines.len());
        let mut responses: Vec<Option<String>> = vec![None; lines.len()];
        for (k, line) in lines.iter().enumerate() {
            let span = open("wire.decode", root_id);
            let envelope = RequestEnvelope::from_json(line);
            close(span, 0);
            let span = open("service.submit", root_id);
            let submitted = envelope
                .map_err(|e| sfserve::SubmitError::Malformed { reason: e.message })
                .and_then(|env| service.submit(env.handle, env.request));
            close(span, 0);
            match submitted {
                Ok(ticket) => tickets.push((k, ticket)),
                Err(e) => responses[k] = Some(ResponseEnvelope::rejected(&e).to_json()),
            }
        }
        let span = open("service.flush", root_id);
        if let (Some(t), Some(s)) = (tracer, span) {
            t.set_context(s.id, request);
        }
        service.flush();
        close(span, tickets.len() as u64);
        for (k, ticket) in tickets {
            let span = open("wire.encode", root_id);
            let line = match service.take(ticket) {
                Some(response) => ResponseEnvelope::ready(response).to_json(),
                None => String::from("{\"ticket\":null,\"status\":\"missing\"}"),
            };
            close(span, line.len() as u64);
            responses[k] = Some(line);
        }
        close(root, lines.len() as u64);
        pass.samples.push(t0.elapsed().as_secs_f64() * 1e3);
        pass.requests += lines.len() as u64;
        let span = open("harness", 0);
        for (line, response) in lines.iter().zip(&responses) {
            checker.observe(line, response.as_deref().unwrap_or_default());
        }
        close(span, 0);
        i += 1;
    }
    pass.wall = start.elapsed().as_secs_f64();
    pass
}

/// A socket client connection: `TCP_NODELAY`, one write per line.
struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Conn { stream, reader })
    }

    fn roundtrip(&mut self, line: &str) -> std::io::Result<String> {
        let mut framed = String::with_capacity(line.len() + 1);
        framed.push_str(line);
        framed.push('\n');
        self.stream.write_all(framed.as_bytes())?;
        let mut response = String::new();
        if self.reader.read_line(&mut response)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(response.trim_end().to_string())
    }

    /// Half-closes and reads to EOF, so the server sees a clean end.
    fn close(mut self) {
        let _ = self.stream.shutdown(Shutdown::Write);
        let mut rest = String::new();
        while matches!(self.reader.read_line(&mut rest), Ok(n) if n > 0) {
            rest.clear();
        }
    }
}

/// `connections` closed-loop socket clients; connection `c` starts at
/// iteration `c × 12`. Latency samples are per request.
fn socket_pass(
    addr: SocketAddr,
    handle: DatasetHandle,
    spec: &Spec,
    connections: usize,
    budget: Budget,
    tracer: Option<&Tracer>,
    checker: &mut Checker,
) -> Pass {
    let barrier = Barrier::new(connections);
    let start = Instant::now();
    let results: Vec<(Vec<f64>, Checker, Instant)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..connections)
            .map(|c| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut samples = Vec::new();
                    let mut checker = Checker::default();
                    let mut conn = Conn::open(addr).expect("the loopback server accepts");
                    barrier.wait();
                    let start = Instant::now();
                    let mut k = 0;
                    'run: while budget.more(k, start) {
                        let iteration = c * 12 + k;
                        for line in spec.lines(handle, iteration) {
                            let span = tracer.map(|t| t.open("net.request", 0, iteration as u64));
                            let t0 = Instant::now();
                            let response = conn.roundtrip(&line);
                            samples.push(t0.elapsed().as_secs_f64() * 1e3);
                            if let (Some(t), Some(s)) = (tracer, span) {
                                t.close(s, 1);
                            }
                            match response {
                                Ok(response) => checker.observe(&line, &response),
                                Err(_) => {
                                    checker.responses += 1;
                                    checker.timeouts += 1;
                                    break 'run;
                                }
                            }
                        }
                        k += 1;
                    }
                    let end = Instant::now();
                    conn.close();
                    (samples, checker, end)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("socket clients do not panic"))
            .collect()
    });
    let mut pass = Pass::default();
    let mut end = start;
    for (samples, client, client_end) in results {
        pass.requests += samples.len() as u64;
        pass.samples.extend(samples);
        checker.merge(client);
        end = end.max(client_end);
    }
    pass.wall = (end - start).as_secs_f64();
    pass
}

fn stats_probe(addr: SocketAddr) -> Option<ResponseEnvelope> {
    let mut conn = Conn::open(addr).ok()?;
    let line = conn.roundtrip("{\"stats\":true}").ok()?;
    conn.close();
    ResponseEnvelope::from_json(&line).ok()
}

// ---------------------------------------------------------------- systems

struct SocketSys {
    server: AuditTcpServer,
    handle: DatasetHandle,
    prepared: Arc<PreparedAudit>,
}

fn socket_system(spec: &Spec) -> (SocketSys, f64) {
    let (prepared, prepare_s) = spec.prepare(spec.config);
    let prepared = Arc::new(prepared);
    let executor = NetExecutor::new(
        ExecutorConfig {
            policy: DrainPolicy::MaxPending(1),
            ..ExecutorConfig::default()
        },
        Arc::new(SystemClock::new()),
    );
    let handle = executor.register_prepared(Arc::clone(&prepared));
    let server = AuditTcpServer::bind("127.0.0.1:0", Arc::new(executor), Duration::from_millis(5))
        .expect("loopback bind");
    (
        SocketSys {
            server,
            handle,
            prepared,
        },
        prepare_s,
    )
}

struct ClusterSys {
    service: AuditService,
    handle: DatasetHandle,
    coordinator: Arc<DistributedEvaluator>,
    timed: Option<Arc<TimedCoordinator>>,
    counter: SpanCounter,
    _workers: Vec<ShardWorker>,
}

/// Loopback shard workers behind a coordinator plugged into a service.
/// Distribution needs blocked counting, so the config is forced to it.
fn cluster_system(spec: &Spec, tracer: Option<&Arc<Tracer>>) -> (ClusterSys, f64) {
    let config = spec.config.with_strategy(CountingStrategy::Blocked);
    let (prepared, prepare_s) = spec.prepare(config);
    let prepared = Arc::new(prepared);
    let counter = || SpanCounter::new(Arc::clone(&prepared)).expect("blocked engine");
    let workers: Vec<ShardWorker> = (0..CLUSTER_WORKERS)
        .map(|_| {
            ShardWorker::bind(
                "127.0.0.1:0",
                Arc::new(counter()),
                Arc::new(FaultPlan::none()),
            )
            .expect("loopback bind")
        })
        .collect();
    let addrs: Vec<String> = workers.iter().map(|w| w.local_addr().to_string()).collect();
    let coordinator = Arc::new(
        DistributedEvaluator::new(
            Arc::clone(&prepared),
            &addrs,
            CoordinatorConfig::default(),
            Arc::new(SystemClock::new()),
        )
        .expect("coordinator over live workers"),
    );
    let timed = tracer.map(|t| Arc::new(TimedCoordinator::new(coordinator.clone(), t.clone())));
    let evaluator: Arc<dyn WorldEvaluator> = match &timed {
        Some(timed) => timed.clone(),
        None => coordinator.clone(),
    };
    let mut service = spec.service().with_evaluator(evaluator);
    let handle = service
        .register(&spec.data.outcomes, &spec.data.regions, config)
        .expect("auditable");
    let sys = ClusterSys {
        service,
        handle,
        coordinator,
        timed,
        counter: counter(),
        _workers: workers,
    };
    (sys, prepare_s)
}

/// The system a workload's timed loop runs against.
enum System {
    InProc {
        service: AuditService,
        handle: DatasetHandle,
    },
    Socket(SocketSys),
    Cluster(ClusterSys),
}

impl System {
    fn build(spec: &Spec) -> (System, f64) {
        match spec.workload {
            Workload::SquaresCold | Workload::GridBatch => {
                let (prepared, prepare_s) = spec.prepare(spec.config);
                let mut service = spec.service();
                let handle = service.register_prepared(prepared);
                (System::InProc { service, handle }, prepare_s)
            }
            Workload::SocketWarm => {
                let (sys, prepare_s) = socket_system(spec);
                (System::Socket(sys), prepare_s)
            }
            Workload::ClusterGrid => {
                let (sys, prepare_s) = cluster_system(spec, None);
                (System::Cluster(sys), prepare_s)
            }
        }
    }

    fn prepared(&self) -> &PreparedAudit {
        match self {
            System::InProc { service, handle } => service.prepared(*handle),
            System::Socket(s) => Some(&*s.prepared),
            System::Cluster(c) => c.service.prepared(c.handle),
        }
        .expect("the system's dataset is registered")
    }

    fn run(
        &mut self,
        spec: &Spec,
        budget: Budget,
        tracer: Option<&Tracer>,
        checker: &mut Checker,
    ) -> Pass {
        match self {
            System::InProc { service, handle } => {
                inproc_pass(service, *handle, spec, budget, tracer, checker)
            }
            System::Socket(s) => socket_pass(
                s.server.local_addr(),
                s.handle,
                spec,
                SOCKET_CONNECTIONS,
                budget,
                tracer,
                checker,
            ),
            System::Cluster(c) => {
                inproc_pass(&mut c.service, c.handle, spec, budget, tracer, checker)
            }
        }
    }

    /// Client threads, server workers, shard workers.
    fn threads(spec: &Spec) -> (usize, usize, usize) {
        match spec.workload {
            Workload::SquaresCold | Workload::GridBatch => (1, 0, 0),
            Workload::SocketWarm => (SOCKET_CONNECTIONS, ExecutorConfig::default().workers, 0),
            Workload::ClusterGrid => (1, 0, CLUSTER_WORKERS),
        }
    }
}

/// Builds the system `SETUP_REPEATS` times and keeps the last one.
/// Returns it with the median set-up and prepare times.
fn setup(spec: &Spec, checker: &mut Checker) -> (System, f64, f64) {
    let mut setups = Vec::new();
    let mut prepares = Vec::new();
    let mut system = None;
    for _ in 0..SETUP_REPEATS {
        drop(system.take());
        let t = Instant::now();
        let (built, prepare_s) = System::build(spec);
        setups.push(t.elapsed().as_secs_f64());
        prepares.push(prepare_s);
        system = Some(built);
    }
    let system = system.expect("at least one set-up");
    if let System::Socket(s) = &system {
        // Prime: the whole mix once, so every timed request replays.
        // Like any cache warm-up, this is not part of `setup_s`.
        let addr = s.server.local_addr();
        let prime = Budget::iterations(MIX_LINES);
        socket_pass(addr, s.handle, spec, 1, prime, None, checker);
    }
    (system, median(&setups), median(&prepares))
}

// ---------------------------------------------------------------- stats

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile, reported only when at least ten samples
/// lie beyond it.
fn tail(values: &[f64], q: f64) -> Option<f64> {
    let n = values.len();
    let rank = ((q * n as f64).ceil() as usize).max(1);
    if n < rank + 10 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank - 1])
}

fn mean(total: f64, count: u64) -> f64 {
    if count == 0 {
        0.0
    } else {
        total / count as f64
    }
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// One measured metric. Listed metrics go into the result line; the
/// others are printed only, because they are 0 by design on some
/// workloads or absent on others.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    listed: bool,
}

/// A metric of the result line.
fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value,
        unit,
        listed: true,
    }
}

/// A metric that is printed but kept out of the result line.
fn shown(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        listed: false,
        ..m(name, value, unit)
    }
}

fn config_line(spec: &Spec, system: &System, checker: &Checker) {
    let engine = system.prepared().engine();
    let (clients, server_workers, shard_workers) = System::threads(spec);
    let cores = nproc();
    let ids_per_word = engine
        .blocked_ids_per_word()
        .map_or(String::from("null"), |v| format!("{v:.3}"));
    println!(
        "config {{\"workload\":\"{}\",\"seed\":{},\"held_out_seed\":{HELD_OUT_SEED},\"points\":{},\
         \"regions\":{},\"worlds\":{},\"requests_per_iteration\":{},\"strategy\":\"{:?}\",\
         \"kernel\":\"{}\",\"shards\":{},\"membership_ids\":{},\"ids_per_word\":{},\
         \"response_bytes\":{:.0},\"nproc\":{cores},\"client_threads\":{clients},\
         \"server_workers\":{server_workers},\"shard_workers\":{shard_workers},\
         \"oversubscribed\":{}}}",
        spec.workload.name(),
        spec.seed,
        engine.num_points(),
        engine.num_regions(),
        spec.requests(0)[0].worlds,
        spec.requests(0).len(),
        engine.resolved_strategy(),
        engine.kernel().name(),
        engine.num_shards(),
        engine.total_membership_ids(),
        ids_per_word,
        mean(checker.bytes as f64, checker.responses),
        clients + server_workers + shard_workers > cores,
    );
}

struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

/// Checks every response and folds failures into the outcome. A
/// traced run whose layers do not reconcile is not correct either.
fn verdict(spec: &Spec, checker: &Checker, mut metrics: Vec<Metric>, reconciled: bool) -> Outcome {
    let t = Instant::now();
    let reference = reference(spec);
    let mismatched = checker.mismatches(&reference);
    let failed = checker.failed_before_check() + mismatched;
    println!(
        "check ({:.3} s): {} responses ({} distinct) against the membership reference: \
         {} busy, {} rejected, {} timeouts, {} mismatched",
        t.elapsed().as_secs_f64(),
        checker.responses,
        checker.distinct.len(),
        checker.busy,
        checker.rejected,
        checker.timeouts,
        mismatched,
    );
    metrics.push(shown(
        "failure_rate",
        mean(failed as f64, checker.responses),
        "ratio",
    ));
    Outcome {
        correct: failed == 0 && checker.responses > 0 && reconciled,
        attempted: checker.responses,
        failed,
        metrics,
    }
}

// ---------------------------------------------------------------- runs

/// `--trace 0`: the end-to-end metrics.
fn timed_run(spec: &Spec, seconds: f64) -> Outcome {
    let mut checker = Checker::default();
    let t = Instant::now();
    let (mut system, setup_s, _) = setup(spec, &mut checker);
    let setup_wall = t.elapsed().as_secs_f64();
    let mut run_checker = Checker::default();
    let pass = system.run(spec, Budget::timed(seconds), None, &mut run_checker);
    let rss = peak_rss_mb();
    println!(
        "phases: {SETUP_REPEATS} set-ups {setup_wall:.3} s, timed loop {:.3} s",
        pass.wall
    );
    config_line(spec, &system, &run_checker);
    checker.merge(run_checker);
    drop(system);
    let throughput = match spec.workload {
        Workload::SocketWarm => pass.requests as f64 / pass.wall,
        _ => pass.serving_rate(),
    };
    let n = pass.samples.len();
    let sorted = {
        let mut v = pass.samples.clone();
        v.sort_by(f64::total_cmp);
        v
    };
    println!(
        "latency samples: {n} client iterations, {} requests; min {:.4} ms, max {:.4} ms",
        pass.requests,
        sorted[0],
        sorted[n - 1]
    );
    let mut metrics = vec![
        m("latency_p50_ms", median(&pass.samples), "ms"),
        m("audits_per_s", throughput, "1/s"),
        m("setup_s", setup_s, "s"),
        m("peak_rss_mb", rss, "MB"),
    ];
    for (name, q) in [("latency_p90_ms", 0.90), ("latency_p99_ms", 0.99)] {
        match tail(&pass.samples, q) {
            Some(v) => metrics.push(shown(name, v, "ms")),
            None => println!("{name} = n/a (fewer than 10 of {n} samples beyond it)"),
        }
    }
    verdict(spec, &checker, metrics, true)
}

/// How a traced pass's layers add up, as shares left unexplained.
struct Reconciliation {
    /// Σ client iteration latency (timed by the client) − Σ wall of
    /// the client-thread layers, over the former.
    wall: f64,
    /// Process CPU time over the pass − Σ CPU time of every layer span
    /// on every thread, over the former. In-process passes only: the
    /// cluster's shard workers run in this process without spans.
    cpu: Option<f64>,
}

impl Reconciliation {
    fn within(&self) -> bool {
        self.wall.abs() <= WALL_TOLERANCE && self.cpu.is_none_or(|c| c.abs() <= CPU_TOLERANCE)
    }
}

/// CPU time of the flushes outside world evaluation: the client
/// thread's CPU in each flush (it waits, using none, while worker
/// threads run) less the evaluations it ran itself, plus the workers'
/// CPU outside their evaluations.
fn execute_self_cpu(spans: &[Span]) -> u64 {
    let flushes: Vec<&Span> = spans.iter().filter(|s| s.name == "service.flush").collect();
    let clients: HashSet<u64> = flushes.iter().map(|f| f.thread).collect();
    let inline_eval: u64 = spans
        .iter()
        .filter(|s| s.name == "eval" && clients.contains(&s.thread))
        .map(|s| s.cpu)
        .sum();
    let workers: u64 = spans
        .iter()
        .filter(|s| s.name == "execute.worker")
        .map(|s| s.cpu)
        .sum();
    flushes.iter().map(|f| f.cpu).sum::<u64>() - inline_eval + workers
}

/// Checks that the layers of a traced pass add up. On the client
/// thread, decode + submit + flush + encode must cover the iteration
/// latency the client measured; across threads, the CPU time of the
/// layers (decode, submit, encode, the flushes' own work, generate,
/// count, fold, and the harness) must cover the process's CPU clock.
fn reconcile(label: &str, spans: &[Span], pass: &Pass, process_cpu: Option<u64>) -> Reconciliation {
    let l = layers(spans);
    let get = |name: &str| l.get(name).copied().unwrap_or_default();
    let client_ns = pass.samples.iter().sum::<f64>() * 1e6;
    let client_layers = [
        "wire.decode",
        "service.submit",
        "service.flush",
        "wire.encode",
    ];
    let covered: u64 = client_layers.iter().map(|n| get(n).wall).sum();
    let wall = 1.0 - covered as f64 / client_ns;
    println!(
        "{label} reconciliation, wall: client iterations {:.3} ms",
        client_ns / 1e6
    );
    for name in client_layers {
        println!(
            "  {name:<16} {:>10.3} ms  ({:>5.1}%)  spans {}",
            get(name).wall as f64 / 1e6,
            100.0 * get(name).wall as f64 / client_ns,
            get(name).spans
        );
    }
    let verdict = |r: f64, tolerance: f64| {
        let side = if r.abs() <= tolerance {
            "within"
        } else {
            "OUTSIDE"
        };
        format!(
            "unexplained {:.3}% ({side} the {:.0}% tolerance)",
            100.0 * r,
            100.0 * tolerance
        )
    };
    println!("  {}", verdict(wall, WALL_TOLERANCE));
    let cpu = process_cpu.map(|process| {
        let self_cpu = execute_self_cpu(spans);
        let parts = [
            ("wire.decode", get("wire.decode").cpu),
            ("service.submit", get("service.submit").cpu),
            ("execute.self", self_cpu),
            ("generate", get("generate").cpu),
            ("count", get("count").cpu),
            ("fold", get("fold").cpu),
            ("wire.encode", get("wire.encode").cpu),
            ("harness", get("harness").cpu),
        ];
        println!(
            "{label} reconciliation, CPU: process {:.3} ms ({:.2} CPUs busy over the pass)",
            process as f64 / 1e6,
            process as f64 / (pass.wall * 1e9)
        );
        for (name, ns) in parts {
            println!(
                "  {name:<16} {:>10.3} ms  ({:>5.1}%)",
                ns as f64 / 1e6,
                100.0 * ns as f64 / process as f64
            );
        }
        let covered: u64 = parts.iter().map(|(_, ns)| ns).sum();
        let residual = 1.0 - covered as f64 / process as f64;
        println!("  {}", verdict(residual, CPU_TOLERANCE));
        residual
    });
    Reconciliation { wall, cpu }
}

/// Layer metrics of an in-process traced pass: per-world layers over
/// every span (socket-warm's evaluations all happen while priming),
/// the client-thread layers over the timed pass.
fn inproc_layers(
    spans: &[Span],
    timed: &[Span],
    service: &AuditService,
) -> (Vec<Metric>, f64, f64) {
    let all = layers(spans);
    let own = layers(timed);
    let get =
        |l: &BTreeMap<&str, trace::LayerTime>, name: &str| l.get(name).copied().unwrap_or_default();
    let (generate, count, fold) = (get(&all, "generate"), get(&all, "count"), get(&all, "fold"));
    let (decode, encode, flush) = (
        get(&own, "wire.decode"),
        get(&own, "wire.encode"),
        get(&own, "service.flush"),
    );
    let worlds = generate.work;
    let us = |ns: u64| ns as f64 / 1e3;
    let stats = service.stats();
    let cache = service.cache_stats_total();
    let decode_us = mean(us(decode.wall), decode.spans);
    let encode_us = mean(us(encode.wall), encode.spans);
    let metrics = vec![
        m(
            "generate.us_per_world",
            mean(us(generate.cpu), worlds),
            "us",
        ),
        m("count.us_per_world", mean(us(count.cpu), worlds), "us"),
        m(
            "count.reads_per_world",
            mean(count.work as f64, worlds),
            "count",
        ),
        m("fold.us_per_world", mean(us(fold.cpu), worlds), "us"),
        m(
            "fold.scores_per_world",
            mean(fold.work as f64, worlds),
            "count",
        ),
        m(
            "execute.self_us_per_batch",
            mean(us(execute_self_cpu(timed)), flush.spans),
            "us",
        ),
        m(
            "worlds.unique_per_batch",
            mean(stats.unique_worlds as f64, stats.batches),
            "count",
        ),
        shown(
            "worlds.shared_frac",
            mean(stats.worlds_shared() as f64, stats.lane_worlds),
            "ratio",
        ),
        shown("cache.hit_rate", cache.hit_rate(), "ratio"),
        shown(
            "cache.replayed_per_request",
            mean(cache.worlds_replayed as f64, stats.requests_served),
            "count",
        ),
        m("cache.resident_bytes", cache.resident_bytes as f64, "bytes"),
        m("wire.decode_us", decode_us, "us"),
        m("wire.encode_us", encode_us, "us"),
        m(
            "wire.response_bytes",
            mean(encode.work as f64, encode.spans),
            "bytes",
        ),
        m("service.drain_us", mean(us(flush.wall), flush.spans), "us"),
    ];
    (metrics, decode_us, encode_us)
}

/// A traced in-process pass over a service whose worlds come from the
/// tracing evaluator. Socket-warm primes the mix first, untimed.
fn traced_inproc(
    spec: &Spec,
    budget: Budget,
    tracer: &Arc<Tracer>,
    checker: &mut Checker,
) -> (Pass, Vec<Metric>, Reconciliation, (f64, f64)) {
    let (prepared, _) = spec.prepare(spec.config);
    let evaluator = TracingEvaluator::new(Arc::new(prepared), Arc::clone(tracer));
    let mut service = spec.service().with_evaluator(Arc::new(evaluator));
    let handle = service
        .register(&spec.data.outcomes, &spec.data.regions, spec.config)
        .expect("auditable");
    let from = tracer.len();
    if spec.workload == Workload::SocketWarm {
        inproc_pass(
            &mut service,
            handle,
            spec,
            Budget::iterations(MIX_LINES),
            Some(tracer),
            checker,
        );
    }
    let replay_from = tracer.len();
    let (cpu0, tail0) = (process_cpu_ns(), worker_tail_cpu_ns());
    let pass = inproc_pass(&mut service, handle, spec, budget, Some(tracer), checker);
    let (process_cpu, tail) = (process_cpu_ns() - cpu0, worker_tail_cpu_ns() - tail0);
    // The workers' CPU from their last evaluation to their exit, as
    // one more span of the executor's own work.
    let now = tracer.now();
    tracer.push(&[Span {
        name: "execute.worker",
        id: tracer.next_id(),
        parent: 0,
        request: 0,
        thread: 0,
        start: now,
        end: now,
        cpu: tail,
        work: 0,
    }]);
    let spans = tracer.spans_since(from);
    let timed = &spans[replay_from - from..];
    let reconciled = reconcile("in-process", timed, &pass, Some(process_cpu));
    let (metrics, decode, encode) = inproc_layers(&spans, timed, &service);
    (pass, metrics, reconciled, (decode, encode))
}

fn cluster_layers(sys: &ClusterSys, spans: &[Span], pass: &Pass) -> (Vec<Metric>, Reconciliation) {
    let reconciled = reconcile("cluster", spans, pass, None);
    let batches = pass.samples.len() as u64;
    let timed = sys.timed.as_ref().expect("traced cluster system");
    let span_ns: Vec<u64> = spans
        .iter()
        .filter(|s| s.name == "cluster.span")
        .map(Span::dur)
        .collect();
    let calls = timed.calls();
    let bounds = sys.coordinator.shard_bounds().to_vec();
    let (mut count_us, mut codec_us, mut reply_bytes, mut replies) = (0.0, 0.0, 0u64, 0u64);
    let replayed = calls.len().min(MAX_REPLAYED_SPANS);
    for call in &calls[..replayed] {
        let (mut worst_count, mut worst_codec) = (0.0f64, 0.0f64);
        for (id, &(word_lo, word_hi)) in bounds.iter().enumerate() {
            let spec = SpanSpec {
                null_model: call.class.null_model,
                worldgen: call.class.worldgen,
                seed: call.class.seed,
                first: call.first,
                count: call.worlds,
                word_lo,
                word_hi,
            };
            let t = Instant::now();
            let partials = sys
                .counter
                .count_span(spec)
                .expect("coordinator spans are valid");
            worst_count = worst_count.max(t.elapsed().as_secs_f64() * 1e6);
            let t = Instant::now();
            let request = WorkerRequest::Count(sfcluster::CountRequest {
                id: id as u64,
                null_model: spec.null_model,
                seed: spec.seed,
                worldgen: spec.worldgen,
                first: spec.first as u64,
                count: spec.count as u64,
                word_lo: word_lo as u64,
                word_hi: word_hi as u64,
            })
            .to_json();
            let decoded = WorkerRequest::from_json(&request).expect("request round-trips");
            let reply = WorkerReply::Count {
                id: id as u64,
                counts: partials.counts,
                p_partials: partials.p_partials,
            }
            .to_json();
            let back = WorkerReply::from_json(&reply).expect("reply round-trips");
            worst_codec = worst_codec.max(t.elapsed().as_secs_f64() * 1e6);
            std::hint::black_box((decoded, back));
            reply_bytes += reply.len() as u64 + 1;
            replies += 1;
        }
        count_us += worst_count;
        codec_us += worst_codec;
    }
    let span_us = mean(
        span_ns.iter().sum::<u64>() as f64 / 1e3,
        span_ns.len() as u64,
    );
    let count_us = mean(count_us, replayed as u64);
    let codec_us = mean(codec_us, replayed as u64);
    let stats = sys.coordinator.stats();
    let metrics = vec![
        m("cluster.span_us", span_us, "us"),
        m(
            "cluster.spans_per_batch",
            mean(stats.spans as f64, batches),
            "count",
        ),
        m("cluster.remote_count_us", count_us, "us"),
        m("cluster.codec_us", codec_us, "us"),
        m(
            "cluster.reply_bytes",
            mean(reply_bytes as f64, replies),
            "bytes",
        ),
        m("cluster.wait_us", span_us - count_us - codec_us, "us"),
        shown("cluster.redispatches", stats.redispatches as f64, "count"),
        shown("cluster.conn_errors", stats.conn_errors as f64, "count"),
        shown(
            "cluster.degraded_local_spans",
            stats.degraded_local_spans as f64,
            "count",
        ),
    ];
    (metrics, reconciled)
}

fn net_layers(
    pass: &Pass,
    addr: SocketAddr,
    (decode_us, encode_us): (f64, f64),
    checker: &Checker,
) -> Vec<Metric> {
    let envelope = stats_probe(addr);
    let stats = envelope.and_then(|e| e.stats).unwrap_or_default();
    let client_us = median(&pass.samples) * 1e3;
    vec![
        m(
            "net.overhead_us",
            client_us - stats.drain_p50 as f64 - decode_us - encode_us,
            "us",
        ),
        m("net.server_drain_p50_us", stats.drain_p50 as f64, "us"),
        m("net.server_drain_p99_us", stats.drain_p99 as f64, "us"),
        shown("net.queue_depth", stats.queue_depth as f64, "count"),
        shown("net.busy_replies", checker.busy as f64, "count"),
    ]
}

/// `--trace 1`: per-layer metrics. The workload's own path runs
/// untraced, then traced (their difference is the tracing overhead);
/// the layers it does not touch are measured on its first requests.
fn traced_run(spec: &Spec, seconds: f64, trace_out: Option<&str>) -> Outcome {
    let tracer = Tracer::new();
    let mut checker = Checker::default();
    let (mut system, _, prepare_s) = setup(spec, &mut checker);
    let membership_ids = system.prepared().engine().total_membership_ids();
    let slice = Budget::timed(seconds / 4.0);
    let untraced = system.run(spec, slice, None, &mut checker);
    config_line(spec, &system, &checker);
    let mut metrics = vec![
        m("prepare.build_s", prepare_s, "s"),
        m("prepare.membership_ids", membership_ids as f64, "count"),
    ];
    // The in-process pass's residuals are reported; every pass's must
    // hold.
    let inproc: Reconciliation;
    let mut reconciled = Vec::new();

    // The workload's own path, traced.
    let mut wire = (0.0, 0.0);
    let traced_own = match spec.workload {
        Workload::SquaresCold | Workload::GridBatch => {
            drop(system);
            let (pass, layer, rec, decode_encode) =
                traced_inproc(spec, slice, &tracer, &mut checker);
            metrics.extend(layer);
            inproc = rec;
            wire = decode_encode;
            pass
        }
        Workload::SocketWarm => {
            let System::Socket(sys) = &system else {
                unreachable!()
            };
            let mut net_checker = Checker::default();
            let pass = socket_pass(
                sys.server.local_addr(),
                sys.handle,
                spec,
                SOCKET_CONNECTIONS,
                slice,
                Some(&tracer),
                &mut net_checker,
            );
            let (_, layer, rec, decode_encode) = traced_inproc(spec, slice, &tracer, &mut checker);
            metrics.extend(layer);
            inproc = rec;
            metrics.extend(net_layers(
                &pass,
                sys.server.local_addr(),
                decode_encode,
                &net_checker,
            ));
            checker.merge(net_checker);
            pass
        }
        Workload::ClusterGrid => {
            drop(system);
            let (mut sys, _) = cluster_system(spec, Some(&tracer));
            let from = tracer.len();
            let pass = inproc_pass(
                &mut sys.service,
                sys.handle,
                spec,
                slice,
                Some(&tracer),
                &mut checker,
            );
            let spans = tracer.spans_since(from);
            let (layer, rec) = cluster_layers(&sys, &spans, &pass);
            metrics.extend(layer);
            reconciled.push(rec);
            drop(sys);
            // Every cluster-grid batch is fresh, and each costs its
            // reference 12 audits, so the in-process pass is capped.
            let capped = Budget {
                max_iters: 32,
                ..slice
            };
            let (_, layer, rec, decode_encode) = traced_inproc(spec, capped, &tracer, &mut checker);
            metrics.extend(layer);
            inproc = rec;
            wire = decode_encode;
            pass
        }
    };
    let overhead_ms = median(&traced_own.samples) - median(&untraced.samples);

    // Layers off the workload's path, on its first requests.
    let probe = Budget::iterations(spec.probe_iterations());
    if spec.workload != Workload::SocketWarm {
        let mut net_checker = Checker::default();
        let (sys, _) = socket_system(spec);
        let addr = sys.server.local_addr();
        let pass = socket_pass(addr, sys.handle, spec, 1, probe, None, &mut net_checker);
        metrics.extend(net_layers(&pass, addr, wire, &net_checker));
        checker.merge(net_checker);
    }
    if spec.workload != Workload::ClusterGrid {
        let (mut sys, _) = cluster_system(spec, Some(&tracer));
        let from = tracer.len();
        let pass = inproc_pass(
            &mut sys.service,
            sys.handle,
            spec,
            probe,
            Some(&tracer),
            &mut checker,
        );
        let spans = tracer.spans_since(from);
        let (layer, rec) = cluster_layers(&sys, &spans, &pass);
        metrics.extend(layer);
        reconciled.push(rec);
    }
    metrics.push(m("trace.wall_residual_frac", inproc.wall, "ratio"));
    metrics.push(m(
        "trace.cpu_residual_frac",
        inproc.cpu.expect("in-process passes reconcile CPU"),
        "ratio",
    ));
    metrics.push(m("trace.overhead_ms", overhead_ms, "ms"));
    println!(
        "tracing overhead: traced p50 {:.4} ms - untraced p50 {:.4} ms = {overhead_ms:.4} ms",
        median(&traced_own.samples),
        median(&untraced.samples)
    );
    if let Some(path) = trace_out {
        match tracer.write_jsonl(std::path::Path::new(path)) {
            Ok(()) => println!("spans written to {path}"),
            Err(e) => eprintln!("could not write spans to {path}: {e}"),
        }
    }
    let all_within = inproc.within() && reconciled.iter().all(Reconciliation::within);
    if !all_within {
        println!("a traced pass does not reconcile within the tolerance");
    }
    verdict(spec, &checker, metrics, all_within)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]",
                Workload::ALL.map(Workload::name).join("|")
            );
            std::process::exit(2);
        }
    };
    let t = Instant::now();
    let spec = Spec::new(args.workload, args.seed);
    println!(
        "inputs: {} points, {} regions ({:.2} s to generate)",
        spec.data.outcomes.len(),
        spec.data.regions.len(),
        t.elapsed().as_secs_f64()
    );
    let outcome = if args.trace {
        traced_run(&spec, args.seconds, args.trace_out.as_deref())
    } else {
        timed_run(&spec, args.seconds)
    };
    let mut metrics = String::new();
    for metric in &outcome.metrics {
        println!("{} = {} {}", metric.name, metric.value, metric.unit);
        if !metric.listed {
            continue;
        }
        if !metrics.is_empty() {
            metrics.push(',');
        }
        // JSON has no NaN; a non-finite value is a harness bug, so say so.
        let value = if metric.value.is_finite() {
            metric.value
        } else {
            eprintln!("warning: {} is not finite", metric.name);
            0.0
        };
        metrics.push_str(&format!(
            "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
            metric.name, value, metric.unit
        ));
    }
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
        outcome.correct, outcome.attempted, outcome.failed
    );
}
