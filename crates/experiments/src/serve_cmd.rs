//! `serve`: the JSONL transport over one audit service — in-process,
//! listening, or connecting.
//!
//! The default mode reads [`RequestEnvelope`] lines
//! (`{"handle": 0, "request": {…}}`) from `--input <path>` (or
//! stdin), routes them through an [`AuditService`] hosting the
//! synthetic benchmark dataset, and writes exactly one
//! [`ResponseEnvelope`] line per input line to stdout, in input order:
//!
//! ```text
//! {"ticket": 0, "status": "ready", "report": {…}, "error": null}
//! {"ticket": null, "status": "rejected", "report": null, "error": "…", "code": "…"}
//! ```
//!
//! Stdout is *pure* JSONL (all narration goes to stderr), so the
//! output pipes straight into `jq`/`grep`-style consumers — the CI
//! smoke step does exactly that. Handles are assigned `0, 1, …` in
//! registration order; this harness registers one dataset, so request
//! lines address `"handle": 0` (announced on stderr).
//!
//! `--max-pending N` switches the drain policy from manual
//! (everything executes in one batch at EOF) to
//! [`DrainPolicy::MaxPending`], so batches execute mid-stream exactly
//! as a long-running deployment's would. Either way every accepted
//! ticket is ready once the final flush runs, and repeated request
//! lines are answered from the session's world cache (the closing
//! stderr summary prints the `ServerStats` line with the cache
//! counters).
//!
//! `--listen <addr>` hosts the same dataset behind the `sfnet` TCP
//! server instead: newline-delimited envelopes over the socket, a
//! worker pool (`--net-workers`), per-session backpressure
//! (`--queue-capacity` → `"busy"` envelopes), and wall-clock deadline
//! drains (`--deadline-ms`, driven by the timer thread). SIGINT stops
//! accepting, drains every accepted ticket, and prints the final
//! stats line to stderr. A connection's response transcript is
//! byte-identical to the default mode's stdout for the same lines.
//!
//! `--connect <addr>` is the matching client: it streams stdin (or
//! `--input`) lines to the socket, half-closes, and prints the
//! server's response lines to stdout — so
//! `serve --connect` composes with `diff` against `serve` exactly the
//! way CI's TCP smoke leg uses it.

use crate::common::Options;
use sfcluster::{CoordinatorConfig, DistributedEvaluator, FaultPlan, ShardWorker, SpanCounter};
use sfdata::synth::SynthConfig;
use sfnet::{write_line, AuditTcpServer, ExecutorConfig, NetExecutor, SystemClock};
use sfscan::outcomes::SpatialOutcomes;
use sfscan::prepared::{PreparedAudit, WorldEvaluator};
use sfscan::{AuditConfig, CountingStrategy, RegionSet};
use sfserve::{AuditService, DrainPolicy, ResponseEnvelope, SubmitError, Ticket};
use std::io::{BufRead, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// One input line's fate: a ticket to poll at the end, an immediate
/// typed rejection (rendered as a `"rejected"`/`"busy"` envelope with
/// its [`sfserve::ErrorCode`]), or a `{"stats": true}` metrics probe
/// (answered at render time, after the EOF flush, so the snapshot
/// covers every batch the transcript executed).
enum LineOutcome {
    Submitted(Ticket),
    Rejected(SubmitError),
    Stats,
}

/// The benchmark dataset every serve mode hosts (deterministic in
/// `--seed`/`--quick`, so server and reference transcripts agree).
fn dataset(opts: &Options) -> (SpatialOutcomes, RegionSet, AuditConfig) {
    let n = if opts.quick { 2_000 } else { 20_000 };
    let outcomes = SynthConfig {
        per_half: n / 2,
        ..SynthConfig::paper()
    }
    .generate(opts.seed);
    let regions = RegionSet::regular_grid(outcomes.expanded_bounding_box(), 16, 16);
    let base = opts.decorate(
        AuditConfig::new(Options::ALPHA)
            .with_worlds(opts.effective_worlds())
            .with_seed(opts.seed),
    );
    (outcomes, regions, base)
}

/// Dispatches on the serve mode flags.
pub fn run(opts: &Options) {
    if let Some(addr) = &opts.shard_worker {
        run_shard_worker(opts, addr);
    } else if let Some(addr) = &opts.connect {
        run_client(opts, addr);
    } else if let Some(addr) = &opts.listen {
        run_server(opts, addr);
    } else {
        run_inprocess(opts);
    }
}

/// Runs the in-process JSONL serving loop (the reference transcript).
/// With `--coordinator`, world evaluation for every batch routes
/// through the distributed shard coordinator instead of the local
/// engine — the transcript is bit-identical either way.
fn run_inprocess(opts: &Options) {
    // Unlike the figure harnesses, all narration goes to stderr:
    // stdout carries nothing but response envelopes.
    eprintln!("[serve] JSONL request/response envelopes over one AuditService");

    let (outcomes, regions, mut base) = dataset(opts);
    if opts.coordinator.is_some() {
        // The coordinator reduces blocked count partials; the span
        // counter refuses any other counting strategy.
        base = base.with_strategy(CountingStrategy::Blocked);
    }

    let mut service = match opts.max_pending {
        Some(limit) => AuditService::new().with_policy(DrainPolicy::MaxPending(limit)),
        None => AuditService::new(),
    };
    let evaluator = opts.coordinator.as_ref().map(|spec| {
        let addrs: Vec<String> = spec
            .split(',')
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .collect();
        let prepared = Arc::new(
            PreparedAudit::prepare(&outcomes, &regions, base)
                .expect("the synthetic benchmark dataset is auditable"),
        );
        let config = CoordinatorConfig {
            dispatch_timeout: opts.dispatch_timeout_ms.saturating_mul(1_000), // clock runs in µs
            ..CoordinatorConfig::default()
        };
        let evaluator = Arc::new(
            DistributedEvaluator::new(prepared, &addrs, config, Arc::new(SystemClock::new()))
                .unwrap_or_else(|e| panic!("--coordinator: {e}")),
        );
        eprintln!(
            "[serve] coordinator over {} worker(s), shard windows {:?}, \
             dispatch timeout {}ms",
            addrs.len(),
            evaluator.shard_bounds(),
            opts.dispatch_timeout_ms
        );
        service.set_evaluator(Some(evaluator.clone() as Arc<dyn WorldEvaluator>));
        evaluator
    });
    let handle = service
        .register(&outcomes, &regions, base)
        .expect("the synthetic benchmark dataset is auditable");
    eprintln!(
        "[serve] registered {} points x {} regions as handle {} \
         (request lines use \"handle\": {})",
        outcomes.len(),
        regions.len(),
        handle.0,
        handle.0
    );

    let outcomes_per_line = match &opts.input {
        Some(path) => {
            let file = std::fs::File::open(path)
                .unwrap_or_else(|e| panic!("cannot open --input {path}: {e}"));
            read_lines(std::io::BufReader::new(file), &mut service)
        }
        None => {
            eprintln!("[serve] reading JSONL requests from stdin");
            let stdin = std::io::stdin();
            let lock = stdin.lock();
            read_lines(lock, &mut service)
        }
    };

    // EOF: execute whatever the policy left queued, then answer every
    // line in input order.
    service.flush();
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let mut served = 0usize;
    let mut rejected = 0usize;
    for outcome in &outcomes_per_line {
        let envelope = match outcome {
            LineOutcome::Submitted(ticket) => {
                let wants_geojson = service.geojson_requested(*ticket);
                // take() claims the response outright — no
                // poll-then-take double clone of the embedded
                // simulated distribution.
                let envelope = match service.take(*ticket) {
                    Some(response) => {
                        served += 1;
                        ResponseEnvelope::ready(response)
                    }
                    None => ResponseEnvelope::from_status(*ticket, service.poll(*ticket)),
                };
                if wants_geojson {
                    envelope.with_geojson_findings()
                } else {
                    envelope
                }
            }
            LineOutcome::Rejected(error) => {
                rejected += 1;
                ResponseEnvelope::rejected(error)
            }
            LineOutcome::Stats => {
                ResponseEnvelope::stats_snapshot(service.stats(), service.cache_stats_total())
            }
        };
        writeln!(out, "{}", envelope.to_json()).expect("stdout is writable");
    }
    out.flush().expect("stdout is writable");
    eprintln!(
        "[serve] {} lines in, {} served, {} rejected; {}",
        outcomes_per_line.len(),
        served,
        rejected,
        service.stats()
    );
    if let Some(evaluator) = evaluator {
        let stats = evaluator.stats();
        eprintln!(
            "[serve] cluster: {} | health {:?}",
            serde_json::to_string(&stats).expect("cluster stats serialise"),
            (0..evaluator.shard_bounds().len())
                .map(|w| evaluator.worker_health(w))
                .collect::<Vec<_>>()
        );
    }
}

/// Feeds every input line to the service, recording each line's fate.
fn read_lines(reader: impl BufRead, service: &mut AuditService) -> Vec<LineOutcome> {
    let mut outcomes = Vec::new();
    for (i, line) in reader.lines().enumerate() {
        let line = line.unwrap_or_else(|e| panic!("cannot read request line {}: {e}", i + 1));
        if line.trim().is_empty() {
            continue;
        }
        if sfserve::is_stats_request(line.trim()) {
            outcomes.push(LineOutcome::Stats);
            continue;
        }
        outcomes.push(match service.submit_json(&line) {
            Ok(ticket) => LineOutcome::Submitted(ticket),
            Err(e) => {
                eprintln!("[serve] line {}: rejected: {e}", i + 1);
                LineOutcome::Rejected(e)
            }
        });
    }
    outcomes
}

/// Set by the SIGINT handler; polled by the `--listen` wait loop.
static SIGINT: AtomicBool = AtomicBool::new(false);

extern "C" fn on_sigint(_signum: i32) {
    // The only async-signal-safe thing worth doing: flip the flag.
    SIGINT.store(true, Ordering::SeqCst);
}

/// Installs the SIGINT handler via the raw libc `signal` symbol — no
/// vendored signal crate, and an atomic store is async-signal-safe.
#[cfg(unix)]
fn install_sigint() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT_NUM: i32 = 2;
    unsafe {
        signal(SIGINT_NUM, on_sigint as extern "C" fn(i32) as usize);
    }
}

#[cfg(not(unix))]
fn install_sigint() {
    // No portable handler: Ctrl-C terminates the process, the OS
    // reclaims the socket. Graceful drain needs unix.
}

/// Hosts the benchmark dataset behind the `sfnet` TCP server until
/// SIGINT, then shuts down gracefully (drain everything, answer every
/// accepted ticket, print final stats).
fn run_server(opts: &Options, addr: &str) {
    let (outcomes, regions, base) = dataset(opts);
    let policy = match (opts.deadline_ms, opts.max_pending) {
        (Some(ms), _) => DrainPolicy::Deadline(ms.saturating_mul(1_000)), // clock runs in µs
        (None, Some(limit)) => DrainPolicy::MaxPending(limit),
        (None, None) => DrainPolicy::Manual,
    };
    let executor = Arc::new(NetExecutor::new(
        ExecutorConfig {
            workers: opts.net_workers.max(1),
            queue_capacity: opts.queue_capacity,
            policy,
            ..ExecutorConfig::default()
        },
        Arc::new(SystemClock::new()),
    ));
    let handle = executor
        .register(&outcomes, &regions, base)
        .expect("the synthetic benchmark dataset is auditable");
    let server = AuditTcpServer::bind(addr, executor, Duration::from_millis(5))
        .unwrap_or_else(|e| panic!("cannot listen on {addr}: {e}"));
    eprintln!(
        "[serve] listening on {} — {} points x {} regions as handle {}, {:?}, workers={}, \
         queue_capacity={:?}",
        server.local_addr(),
        outcomes.len(),
        regions.len(),
        handle.0,
        policy,
        opts.net_workers.max(1),
        opts.queue_capacity,
    );

    install_sigint();
    while !SIGINT.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(50));
    }
    eprintln!("[serve] SIGINT: draining and shutting down");
    let stats = server.shutdown();
    eprintln!("[serve] final stats: {stats}");
}

/// Connects with a per-attempt timeout and a bounded number of
/// retries (short backoff between attempts), so a dead server fails
/// the client fast and loudly instead of hanging it forever.
fn connect_with_retry(addr: &str, timeout: Duration, retries: u32) -> std::net::TcpStream {
    use std::net::{TcpStream, ToSocketAddrs};
    let attempts = retries.max(1);
    let mut last_error = String::new();
    for attempt in 0..attempts {
        if attempt > 0 {
            let backoff = Duration::from_millis(200u64.saturating_mul(1 << attempt.min(4)));
            eprintln!(
                "[serve] connect attempt {}/{attempts} failed ({last_error}); \
                 retrying in {backoff:?}",
                attempt
            );
            std::thread::sleep(backoff);
        }
        let resolved = match addr.to_socket_addrs() {
            Ok(mut it) => it.next(),
            Err(e) => {
                last_error = format!("cannot resolve {addr}: {e}");
                continue;
            }
        };
        let Some(resolved) = resolved else {
            last_error = format!("{addr} resolves to no address");
            continue;
        };
        match TcpStream::connect_timeout(&resolved, timeout) {
            Ok(stream) => return stream,
            Err(e) => last_error = e.to_string(),
        }
    }
    panic!("cannot connect to {addr} after {attempts} attempt(s): {last_error}");
}

/// Streams the input lines to a live server and prints its response
/// lines to stdout — the socket client matching `run_inprocess`'s
/// stdout byte for byte against the same server-side dataset. Every
/// socket operation is bounded by `--io-timeout-ms` and the connect
/// is retried `--connect-retries` times, so a dead or wedged server
/// produces a clear error instead of an indefinite hang.
fn run_client(opts: &Options, addr: &str) {
    use std::io::ErrorKind;
    use std::net::Shutdown;
    let lines: Vec<String> = match &opts.input {
        Some(path) => {
            let file = std::fs::File::open(path)
                .unwrap_or_else(|e| panic!("cannot open --input {path}: {e}"));
            std::io::BufReader::new(file)
                .lines()
                .map(|l| l.expect("readable input"))
                .collect()
        }
        None => {
            eprintln!("[serve] reading JSONL requests from stdin");
            std::io::stdin()
                .lock()
                .lines()
                .map(|l| l.unwrap())
                .collect()
        }
    };
    let io_timeout = Duration::from_millis(opts.io_timeout_ms.max(1));
    let mut stream = connect_with_retry(addr, io_timeout, opts.connect_retries);
    stream
        .set_write_timeout(Some(io_timeout))
        .expect("socket accepts a write timeout");
    stream
        .set_read_timeout(Some(io_timeout))
        .expect("socket accepts a read timeout");
    stream
        .set_nodelay(true)
        .expect("socket accepts TCP_NODELAY");
    let sent = lines.len();
    for line in lines {
        write_line(&mut stream, line)
            .unwrap_or_else(|e| panic!("cannot send request line to {addr}: {e}"));
    }
    stream
        .shutdown(Shutdown::Write)
        .expect("write half-close signals EOF");
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let mut served = 0usize;
    for line in std::io::BufReader::new(stream).lines() {
        let line = line.unwrap_or_else(|e| {
            if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut {
                panic!(
                    "no response from {addr} within {}ms (--io-timeout-ms); giving up",
                    opts.io_timeout_ms
                );
            }
            panic!("cannot read response line from {addr}: {e}");
        });
        writeln!(out, "{line}").expect("stdout is writable");
        served += 1;
    }
    out.flush().expect("stdout is writable");
    eprintln!("[serve] {} lines sent, {} responses received", sent, served);
}

/// Hosts a count-partial shard worker: the same synthetic dataset,
/// prepared with blocked counting, served span-by-span to a
/// coordinator until SIGINT (or until a `--fault-plan` kill fires).
fn run_shard_worker(opts: &Options, addr: &str) {
    let (outcomes, regions, base) = dataset(opts);
    let base = base.with_strategy(CountingStrategy::Blocked);
    let prepared = Arc::new(
        PreparedAudit::prepare(&outcomes, &regions, base)
            .expect("the synthetic benchmark dataset is auditable"),
    );
    let counter =
        Arc::new(SpanCounter::new(prepared).expect("blocked counting is forced for shard workers"));
    let fault: Arc<FaultPlan> = Arc::new(match &opts.fault_plan {
        Some(spec) => spec.parse().unwrap_or_else(|e| panic!("--fault-plan: {e}")),
        None => FaultPlan::none(),
    });
    let fault_desc = if fault.is_empty() {
        "no faults".to_string()
    } else {
        format!("fault plan: {}", opts.fault_plan.as_deref().unwrap_or(""))
    };
    let mut worker = ShardWorker::bind(addr, counter, fault)
        .unwrap_or_else(|e| panic!("cannot bind shard worker on {addr}: {e}"));
    eprintln!(
        "[serve] shard worker on {} — {} points x {} regions, {}",
        worker.local_addr(),
        outcomes.len(),
        regions.len(),
        fault_desc
    );
    install_sigint();
    while !SIGINT.load(Ordering::SeqCst) && !worker.is_killed() {
        std::thread::sleep(Duration::from_millis(50));
    }
    if worker.is_killed() {
        eprintln!("[serve] kill-after fault fired; worker is down");
    } else {
        eprintln!("[serve] SIGINT: shutting down shard worker");
    }
    worker.shutdown();
    eprintln!(
        "[serve] worker stats: {}",
        serde_json::to_string(&worker.stats()).expect("worker stats serialise")
    );
}
