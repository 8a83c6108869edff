//! `serve-bench`: batched multi-audit serving vs rebuild-per-request,
//! warm-cache vs cold-batch serving, blocked vs scalar world counting,
//! and word-parallel vs scalar world *generation* on the same
//! workload.
//!
//! The serving layer's promise is that the expensive artifacts (index,
//! membership CSR, region totals) and the simulated worlds are shared
//! across a request stream — and, since the v2 [`AuditService`], across
//! *batches* via the per-session world cache. This benchmark queues a
//! mixed batch of audit requests (directions × alphas × seeds × budget
//! strategies), serves it five ways —
//!
//! * **rebuild**: a fresh [`Auditor`] per request (engine rebuilt every
//!   time, worlds generated per request),
//! * **batched**: one [`AuditService`] session, every request
//!   submitted (tickets) then flushed as a single cold batch,
//! * **warm**: the *same* requests resubmitted to the same session, so
//!   every world class replays its cached τ-stream — **zero** new
//!   simulated worlds, proven by `CacheStats`,
//! * **batched+blocked (scalar)**: a cold service with
//!   [`CountingStrategy::Blocked`] pinned to the historical
//!   [`WorldGen::Scalar`] stream, so every shared world is counted by
//!   masked popcounts over the Morton-blocked membership CSR (the
//!   pre-v2 baseline the word comparison is measured against), and
//! * **batched+blocked+word**: the same cold workload under
//!   [`WorldGen::Word`] — counting by popcnt *and* generation by bulk
//!   64-labels-per-pass Bernoulli draws written straight into the
//!   blocked layout words (the v2 fast path, and the default) —
//!
//! verifies all reports are **bit-identical** within their generator
//! version, isolates the per-world counting pass (scalar `count_at`
//! membership replay vs blocked popcnt sweep, asserted `>= 3x` at
//! full scale) *and* the per-world generation pass (scalar `gen_bool`
//! per point vs word-parallel bulk draws, asserted `>= 4x` at full
//! scale, with the cold word batch asserted `>= 2x` end to end), and
//! persists the machine-readable comparison so the performance
//! trajectory is tracked across PRs (`BENCH_PR9.json`; format
//! documented in the README's benchmark-artifact section).
//!
//! The sharded engine (PR 6) gets three sections of its own:
//!
//! * **sharded eval isolation** — the per-world τ fold alone,
//!   [`ScanEngine::eval`] with `fine` false (the plain full-CSR sweep)
//!   vs `fine` true (the shard-partial reduce) over the same word
//!   worlds, τ equality asserted per world;
//! * **single cold audit** — one request served by a sequential
//!   unsharded engine vs the parallel sharded engine, bit-identity
//!   asserted and the speedup asserted `>= 2.5x` at full scale on
//!   machines with at least 4 cores;
//! * **points scaling** — the same serial-vs-parallel single audit
//!   swept over dataset sizes, recorded as `scaling` rows.
//!
//! The pluggable-statistic layer (this PR) gets a **statistic
//! isolation** section: every [`Statistic`] scores the same word
//! worlds through [`ScanEngine::eval`], so the timing difference is
//! the per-region score fold alone (counting is shared). EqualOppTpr
//! is asserted bit-identical to BernoulliLlr over the same binary
//! stream (it is the same LLR on a conditioned
//! population), and MeanResidual — a genuinely different score — is
//! asserted finite and different.
//!
//! The serving-v3 network layer (PR 9) gets a **socket load** section:
//! a live [`sfnet::AuditTcpServer`] hosts the same dataset on an
//! ephemeral port, one cold client and then several concurrent warm
//! clients replay the same request mix over real TCP connections, and
//! every transcript is asserted **byte-identical** to the in-process
//! JSONL path (connection-local tickets plus batch-invariant reports
//! make the network, the worker pool, and the drain policy invisible
//! in the bytes). Drain-latency percentiles come from the executor's
//! wall clock, sustained RPS from the warm phase, and a capacity-1
//! probe server must shed overflow with `"busy"` envelopes instead of
//! queuing without bound.
//!
//! The counting-kernel layer (PR 7) gets a **kernel isolation**
//! section: every popcount kernel the CPU supports (scalar reference,
//! portable unrolled, AVX2 Harley–Seal, AVX-512 `vpopcntdq`) is timed
//! three ways — the raw dense-range popcount (where SIMD lives), the
//! per-world `count_all_into_with` sweep, and the fused multi-world
//! `count_all_many_into` sweep that loads each CSR run/mask once per
//! [`MAX_FUSED_WORLDS`]-world batch — with every count asserted equal
//! to the pinned scalar reference. The acceptance number is the
//! *scalar-kernel* fused sweep over the PR 6 per-world baseline
//! (asserted `>= 1.3x` at full scale: pure CSR-stream amortization, no
//! SIMD, no threads); SIMD popcount gains are reported always and
//! asserted only when the CPU feature is detected.
//!
//! The record also carries a `trajectory` block: the headline numbers
//! of every benchmarked PR so far (hardcoded from the committed
//! `BENCH_PR*.json` artifacts) plus this run, so one file shows the
//! performance history.

use crate::common::{banner, report_row, Options};
use serde::Serialize;
use sfdata::synth::SynthConfig;
use sfindex::{CountingKernel, MAX_FUSED_WORLDS};
use sfnet::{write_line, AuditTcpServer, ExecutorConfig, NetExecutor, SystemClock};
use sfscan::engine::ScanEngine;
use sfscan::prepared::{AuditRequest, PreparedAudit};
use sfscan::{
    AuditConfig, Auditor, CountingStrategy, Direction, McStrategy, NullModel, RegionSet, Statistic,
    WorldGen,
};
use sfserve::{
    AuditService, DatasetHandle, DrainPolicy, RequestEnvelope, ResponseEnvelope, WireStatus,
};
use std::io::{BufRead, BufReader};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The speedup the blocked counting path must clear over the scalar
/// membership replay at full scale (the PR 3 acceptance bar).
const COUNTING_SPEEDUP_TARGET: f64 = 3.0;

/// The cold world-generation speedup `WorldGen::Word` must clear over
/// `WorldGen::Scalar` on the blocked engine at full scale (the PR 5
/// acceptance bar)…
const WORLD_GEN_SPEEDUP_TARGET: f64 = 4.0;

/// …and the end-to-end cold-batch speedup of the word path over the
/// scalar path on the same blocked serving workload.
const WORD_BATCH_SPEEDUP_TARGET: f64 = 2.0;

/// The cold single-audit speedup the parallel sharded engine must
/// clear over the sequential unsharded engine at full scale (the PR 6
/// acceptance bar) — asserted only on machines with at least
/// [`MIN_CORES_FOR_SHARD_ASSERT`] cores, since the fan-out cannot beat
/// the sequential walk without hardware to fan out to.
const SINGLE_AUDIT_SPEEDUP_TARGET: f64 = 2.5;

/// Core floor for the single-audit speedup assertion.
const MIN_CORES_FOR_SHARD_ASSERT: usize = 4;

/// The speedup the fused multi-world sweep (scalar kernel — no SIMD,
/// no parallelism) must clear over the per-world blocked counting
/// baseline at full scale (the PR 7 acceptance bar). The gain is pure
/// CSR-stream amortization: each dense range and partial mask is
/// loaded once per [`MAX_FUSED_WORLDS`]-world batch instead of once
/// per world.
const FUSED_SPEEDUP_TARGET: f64 = 1.3;

/// The raw dense-range popcount speedup a *detected* SIMD kernel must
/// clear over the pinned scalar loop at full scale. Reported for every
/// supported kernel; asserted only for AVX2/AVX-512 when the CPU has
/// the feature (SIMD gains are reported always, asserted only when
/// detected).
const SIMD_POPCOUNT_TARGET: f64 = 1.05;

/// One `kernels` row: a supported popcount kernel's isolated timings
/// on this workload (all bit-identical to the scalar reference by
/// assertion; the columns differ only in speed).
#[derive(Debug, Clone, Serialize)]
struct KernelRow {
    /// Kernel name (`scalar`, `portable`, `avx2`, `avx512`).
    kernel: String,
    /// Raw dense-range popcount over the timed worlds' words, ms.
    popcount_ms: f64,
    /// Scalar popcount time / this kernel's — the SIMD gain.
    popcount_speedup: f64,
    /// Per-world `count_all_into_with` sweep under this kernel, ms.
    count_ms: f64,
    /// Per-world baseline `counting_blocked_ms` / `count_ms`.
    count_speedup: f64,
    /// Fused multi-world `count_all_many_into` sweep, ms.
    fused_ms: f64,
    /// Per-world baseline `counting_blocked_ms` / `fused_ms`.
    fused_speedup: f64,
}

/// One `statistics` row: a pluggable test statistic's isolated
/// world-evaluation timing on this workload (counting is shared; only
/// the per-region score fold differs).
#[derive(Debug, Clone, Serialize)]
struct StatisticRow {
    /// Statistic token (`bernoulli-llr`, `equal-opp-tpr`,
    /// `mean-residual`).
    statistic: String,
    /// `eval(statistic, …)` over the timed worlds, one at a time, ms.
    eval_ms: f64,
    /// BernoulliLlr eval time / this statistic's — the fold-swap cost
    /// (≈ 1.0 when the kernel abstraction is free).
    relative: f64,
}

/// One `scaling` sweep row: the serial-vs-sharded single cold audit
/// at one dataset size.
#[derive(Debug, Clone, Serialize)]
struct ScalingRow {
    /// Observations audited at this size.
    points: usize,
    /// Sequential unsharded single-audit serve time, milliseconds.
    serial_ms: f64,
    /// Parallel sharded single-audit serve time, milliseconds.
    parallel_ms: f64,
    /// `serial_ms / parallel_ms`.
    speedup: f64,
}

/// One `trajectory` row: a headline metric of a benchmarked PR
/// (hardcoded from that PR's committed `BENCH_PR*.json`) or of this
/// run.
#[derive(Debug, Clone, Serialize)]
struct TrajectoryPoint {
    /// Which PR measured it.
    pr: String,
    /// Metric name (matches the record field of that PR's artifact).
    metric: String,
    /// Measured value.
    value: f64,
}

/// Machine-readable benchmark record (written to `--out`,
/// `BENCH_PR9.json` by default).
#[derive(Debug, Clone, Serialize)]
struct ServeBenchRecord {
    /// What produced this record.
    benchmark: String,
    /// Cores available to the run (`std::thread::available_parallelism`);
    /// the shard assertions are gated on this.
    cores: usize,
    /// Observations audited.
    points: usize,
    /// Candidate regions scanned.
    regions: usize,
    /// Monte Carlo budget per request (`w − 1`).
    worlds_per_request: usize,
    /// Queued audit requests.
    requests: usize,
    /// World-sharing groups the batch planned into.
    groups: usize,
    /// Rebuild-per-request wall time, milliseconds.
    rebuild_ms: f64,
    /// Batched-serving wall time, milliseconds.
    batched_ms: f64,
    /// Batched serving with blocked counting, milliseconds.
    batched_blocked_ms: f64,
    /// One-time session registration (engine build) inside
    /// `batched_ms`, milliseconds.
    register_ms: f64,
    /// The same requests resubmitted to the warmed session, ms.
    warm_ms: f64,
    /// `(batched_ms − register_ms) / warm_ms` — what the cross-batch
    /// world cache saves a repeat batch, serve time vs serve time (a
    /// repeat never pays registration).
    warm_speedup: f64,
    /// Worlds simulated by the warm batch (asserted **0**).
    warm_unique_worlds: u64,
    /// Worlds the warm batch replayed from the session cache.
    warm_worlds_replayed: u64,
    /// Warm-batch group executions that hit the cache.
    warm_cache_hits: u64,
    /// Warm responses byte-equal to the cold ones (asserted).
    warm_bit_identical: bool,
    /// `rebuild_ms / batched_ms`.
    speedup: f64,
    /// `rebuild_ms / batched_blocked_ms`.
    blocked_speedup: f64,
    /// Rebuild path throughput, audits per second.
    rebuild_per_s: f64,
    /// Batched path throughput, audits per second.
    batched_per_s: f64,
    /// Batched+blocked throughput, audits per second.
    batched_blocked_per_s: f64,
    /// Worlds generated + counted by the rebuild path.
    rebuild_worlds: usize,
    /// Unique worlds generated + counted by the batched path.
    batched_unique_worlds: usize,
    /// Worlds answered from a shared stream instead of regenerated.
    worlds_shared: usize,
    /// Worlds early stopping saved across the batch.
    worlds_saved: usize,
    /// Reports bit-identical across all three paths.
    bit_identical: bool,
    /// Counting isolation: worlds timed in the scalar-vs-blocked pass.
    counting_worlds: usize,
    /// Scalar `count_at` membership replay over those worlds, ms.
    counting_scalar_ms: f64,
    /// Blocked masked-popcount sweep over the same worlds, ms.
    counting_blocked_ms: f64,
    /// `counting_scalar_ms / counting_blocked_ms` — the tentpole
    /// number; asserted `>= 3` at full scale.
    counting_speedup: f64,
    /// Measured mask density of the blocked compilation (member ids
    /// per touched 64-bit word under the Morton layout).
    blocked_ids_per_word: f64,
    /// Per-region counts identical between scalar and blocked on every
    /// timed world.
    counting_bit_identical: bool,
    /// The kernel `Auto` resolves to on this machine (what the
    /// production engines run with by default).
    kernel_auto: String,
    /// Worlds a fused CSR pass is ANDed against (`MAX_FUSED_WORLDS`).
    fused_width: usize,
    /// Per-kernel isolated timings (one row per kernel the CPU
    /// supports).
    kernels: Vec<KernelRow>,
    /// `counting_blocked_ms` / the *scalar-kernel* fused sweep — the
    /// PR 7 tentpole number: CSR-stream amortization alone, asserted
    /// `>= 1.3x` at full scale.
    fused_speedup: f64,
    /// Every kernel's popcounts, per-world counts, and fused counts
    /// identical to the pinned scalar reference (asserted).
    kernel_bit_identical: bool,
    /// Generation isolation: worlds timed in the scalar-vs-word pass.
    gen_worlds: usize,
    /// Scalar (`gen_bool` per point) world generation over those
    /// worlds on the blocked engine, Bernoulli null, ms.
    gen_scalar_ms: f64,
    /// Word-parallel bulk generation over the same configuration, ms.
    gen_word_ms: f64,
    /// `gen_scalar_ms / gen_word_ms` — the PR 5 tentpole number;
    /// asserted `>= 4` at full scale.
    gen_speedup: f64,
    /// Serve-only time of the cold blocked batch (scalar generation),
    /// ms — the word comparison's baseline.
    blocked_serve_ms: f64,
    /// Serve-only time of the same cold batch under `WorldGen::Word`,
    /// ms.
    word_serve_ms: f64,
    /// `blocked_serve_ms / word_serve_ms` — end-to-end cold-batch
    /// gain of word generation; asserted `>= 2` at full scale.
    word_batch_speedup: f64,
    /// Word-path reports bit-identical between the blocked service and
    /// a scalar-strategy prepared engine (per-world label sets agree
    /// across storage layouts), and word-world per-region counts
    /// identical between membership and blocked counting.
    word_bit_identical: bool,
    /// Shards the isolation engine was split into (≥ 2 so the
    /// shard-partial reduce is exercised even on one core).
    shards: usize,
    /// Sharded eval isolation: worlds timed in the plain-vs-sharded
    /// τ-fold pass.
    shard_eval_worlds: usize,
    /// `eval` with `fine` false (plain full-CSR sweep) over those
    /// worlds, ms.
    shard_eval_plain_ms: f64,
    /// `eval` with `fine` true (shard-partial reduce) over the same
    /// worlds, ms.
    shard_eval_sharded_ms: f64,
    /// `shard_eval_plain_ms / shard_eval_sharded_ms`.
    shard_eval_speedup: f64,
    /// Every timed world's τ fold identical between the two paths
    /// (asserted).
    shard_eval_bit_identical: bool,
    /// Single cold audit on the sequential unsharded engine, ms
    /// (serve only; engine build excluded).
    serial_audit_ms: f64,
    /// The same audit on the parallel sharded engine, ms.
    sharded_audit_ms: f64,
    /// `serial_audit_ms / sharded_audit_ms` — the PR 6 tentpole
    /// number; asserted `>= 2.5` at full scale on `>= 4` cores.
    single_audit_speedup: f64,
    /// Serial and sharded single-audit reports byte-equal after
    /// aligning the `shards`/`parallel` config knobs (asserted).
    sharded_bit_identical: bool,
    /// Statistic isolation: worlds timed in the per-kernel τ-fold pass.
    statistic_worlds: usize,
    /// Per-statistic isolated world-evaluation timings.
    statistics: Vec<StatisticRow>,
    /// Every statistic's τ finite on every timed world, and
    /// EqualOppTpr identical to BernoulliLlr over the same binary
    /// stream (asserted).
    statistic_bit_identical: bool,
    /// The serial-vs-sharded single audit swept over dataset sizes.
    scaling: Vec<ScalingRow>,
    /// Socket load: concurrent warm-phase client threads.
    net_clients: usize,
    /// Socket load: total accepted requests across both phases
    /// (`(1 + net_clients) × requests`, asserted against
    /// `requests_served`).
    net_requests: usize,
    /// Socket load: cold single-client phase wall time (connect, send
    /// the whole mix, read every response), milliseconds.
    net_cold_ms: f64,
    /// Socket load: warm multi-client phase wall time, milliseconds.
    net_warm_ms: f64,
    /// Socket load: sustained warm-phase throughput, requests per
    /// second across all clients.
    net_rps: f64,
    /// Socket load: median submit→drain latency on the executor's wall
    /// clock, microseconds.
    net_drain_p50_us: u64,
    /// Socket load: p99 submit→drain latency, microseconds.
    net_drain_p99_us: u64,
    /// Overload probe: `"busy"` envelopes a capacity-1 server answered
    /// while its only slot was occupied (asserted `> 0`).
    net_busy_lines: usize,
    /// Every socket transcript byte-equal to the in-process JSONL
    /// path's stdout for the same lines (asserted).
    net_bit_identical: bool,
    /// Headline numbers of every benchmarked PR plus this run.
    trajectory: Vec<TrajectoryPoint>,
}

/// The deterministic request mix: directions × alphas × seeds with a
/// sprinkle of early stopping — the shape of a realistic multi-tenant
/// queue (many cheap knob variations over one dataset).
fn request_mix(base: &AuditConfig, count: usize) -> Vec<AuditRequest> {
    let directions = [Direction::TwoSided, Direction::High, Direction::Low];
    let alphas = [0.05, 0.01];
    (0..count)
        .map(|i| {
            let mut request = AuditRequest::from_config(base)
                .with_direction(directions[i % directions.len()])
                .with_seed(base.seed + (i / 12) as u64);
            request.alpha = alphas[(i / 3) % alphas.len()];
            if i % 8 == 7 {
                request = request.with_mc_strategy(McStrategy::early_stop());
            }
            request
        })
        .collect()
}

/// One socket client: connect, send every line, half-close the write
/// side (the server's EOF/flush signal), read the full response
/// transcript. `TCP_NODELAY` and one write per line, like the server,
/// so the timings are the server's rather than this client's.
fn socket_replay(addr: SocketAddr, lines: &[String]) -> Vec<String> {
    let mut stream = TcpStream::connect(addr).expect("live server accepts");
    stream
        .set_nodelay(true)
        .expect("socket accepts TCP_NODELAY");
    for line in lines {
        write_line(&mut stream, line.clone()).expect("socket is writable");
    }
    stream
        .shutdown(Shutdown::Write)
        .expect("write half-close signals EOF");
    BufReader::new(stream)
        .lines()
        .map(|l| l.expect("socket is readable"))
        .collect()
}

/// Runs the benchmark and writes the JSON record.
pub fn run(opts: &Options) {
    banner("serve-bench: batched serving vs rebuild-per-request");

    let n = if opts.quick { 4_000 } else { 20_000 };
    // Default per-request budget: the CLI default of 999 worlds is a
    // sensible audit setting but overkill for a timing comparison, so
    // an *unset* --worlds is reduced; an explicit --worlds is honored
    // (and quick mode clamps loudly, like every figure harness).
    let default_worlds = Options::default().worlds;
    let worlds = if opts.worlds == default_worlds {
        if opts.quick {
            99
        } else {
            199
        }
    } else {
        opts.effective_worlds()
    };
    if worlds != opts.worlds {
        println!(
            "[serve-bench] note: running {worlds} worlds per request \
             (--worlds {} {})",
            opts.worlds,
            if opts.worlds == default_worlds {
                "is the default; pass an explicit value to override"
            } else {
                "clamped by --quick"
            }
        );
    }
    // The acceptance target is defined over >= 16 queued audits.
    let num_requests = opts.requests.max(16);
    if num_requests != opts.requests {
        println!(
            "[serve-bench] note: raising --requests {} to the 16-audit minimum",
            opts.requests
        );
    }
    let outcomes = SynthConfig {
        per_half: n / 2,
        ..SynthConfig::paper()
    }
    .generate(opts.seed);
    let regions = RegionSet::regular_grid(outcomes.expanded_bounding_box(), 16, 16);
    let base = opts.decorate(
        AuditConfig::new(Options::ALPHA)
            .with_worlds(worlds)
            .with_seed(opts.seed),
    );
    let requests = request_mix(&base, num_requests);
    println!(
        "[data] Synth: N={}, {} regions, {} requests x {} worlds",
        outcomes.len(),
        regions.len(),
        requests.len(),
        worlds
    );

    // Path A: rebuild the engine for every request (the pre-serving
    // architecture: one Auditor::audit call per request).
    let t = Instant::now();
    let rebuilt: Vec<_> = requests
        .iter()
        .map(|request| {
            Auditor::new(request.apply_to(base))
                .audit(&outcomes, &regions)
                .expect("auditable")
        })
        .collect();
    let rebuild_ms = t.elapsed().as_secs_f64() * 1e3;
    let rebuild_worlds: usize = rebuilt.iter().map(|r| r.worlds_evaluated).sum();

    // Path B: register once, submit everything (tickets), flush one
    // cold batch. Registration (the one-time engine build) is timed
    // separately so the warm comparison below is serve-vs-serve.
    let t = Instant::now();
    let mut service = AuditService::new();
    let handle = service
        .register(&outcomes, &regions, base)
        .expect("auditable");
    let register_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    for request in &requests {
        service.submit(handle, *request).expect("valid request");
    }
    service.flush();
    let responses = service.take_ready();
    let batched_serve_ms = t.elapsed().as_secs_f64() * 1e3;
    let batched_ms = register_ms + batched_serve_ms;
    let stats = service.stats();

    // Path B': the SAME requests against the warmed session — every
    // world class replays its cached τ-stream; nothing is simulated.
    let t = Instant::now();
    for request in &requests {
        service.submit(handle, *request).expect("valid request");
    }
    service.flush();
    let warm_responses = service.take_ready();
    let warm_ms = t.elapsed().as_secs_f64() * 1e3;
    let warm_stats = service.stats();
    let warm_unique_worlds = warm_stats.unique_worlds - stats.unique_worlds;
    let warm_worlds_replayed = warm_stats.worlds_replayed - stats.worlds_replayed;
    let warm_cache_hits = warm_stats.cache_hits - stats.cache_hits;
    let warm_bit_identical = responses
        .iter()
        .zip(&warm_responses)
        .all(|(a, b)| a.report == b.report);
    assert!(
        warm_bit_identical,
        "warm-cache responses must be bit-identical to the cold batch"
    );
    assert_eq!(
        warm_unique_worlds, 0,
        "a repeat batch must simulate ZERO new worlds ({warm_stats:?})"
    );
    assert!(warm_worlds_replayed > 0 && warm_cache_hits > 0);

    // Path C: a cold service with blocked world counting, pinned to
    // the historical Scalar generator — the pre-v2 baseline the word
    // comparison below is measured against (the default path no longer
    // runs Scalar anywhere). Register is timed separately so the word
    // comparison is serve-vs-serve.
    let blocked_base = base
        .with_strategy(CountingStrategy::Blocked)
        .with_worldgen(WorldGen::Scalar);
    let scalar_requests: Vec<AuditRequest> = requests
        .iter()
        .map(|r| r.with_worldgen(WorldGen::Scalar))
        .collect();
    let t = Instant::now();
    let mut blocked_service = AuditService::new();
    let blocked_handle = blocked_service
        .register(&outcomes, &regions, blocked_base)
        .expect("auditable");
    let blocked_register_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    for request in &scalar_requests {
        blocked_service
            .submit(blocked_handle, *request)
            .expect("valid request");
    }
    blocked_service.flush();
    let blocked_responses = blocked_service.take_ready();
    let blocked_serve_ms = t.elapsed().as_secs_f64() * 1e3;
    let batched_blocked_ms = blocked_register_ms + blocked_serve_ms;

    // Path D: the same cold workload under WorldGen::Word — blocked
    // popcnt counting plus word-parallel generation, the full v2 fast
    // path. Word worlds are a different (statistically equivalent)
    // stream, so these responses are compared against their own
    // scalar-strategy reference, not against Path C's.
    let word_requests: Vec<AuditRequest> = requests
        .iter()
        .map(|r| r.with_worldgen(WorldGen::Word))
        .collect();
    let mut word_service = AuditService::new();
    let word_handle = word_service
        .register(
            &outcomes,
            &regions,
            blocked_base.with_worldgen(WorldGen::Word),
        )
        .expect("auditable");
    let t = Instant::now();
    for request in &word_requests {
        word_service
            .submit(word_handle, *request)
            .expect("valid request");
    }
    word_service.flush();
    let word_responses = word_service.take_ready();
    let word_serve_ms = t.elapsed().as_secs_f64() * 1e3;
    let word_batch_speedup = blocked_serve_ms / word_serve_ms;

    // Word bit-identity across counting strategies: the blocked
    // service's word reports must equal a scalar-strategy prepared
    // engine's word reports (same physical labels, different storage
    // layout).
    let word_reference = PreparedAudit::prepare(&outcomes, &regions, base)
        .expect("auditable")
        .run_batch(&word_requests);
    let mut word_bit_identical = word_reference.iter().zip(&word_responses).all(|(a, b)| {
        let mut report = b.report.clone();
        report.config.strategy = a.config.strategy;
        *a == report
    });

    // Path C draws the Scalar stream, so its reference is a
    // scalar-worldgen rebuild, not Path A's word reports.
    let scalar_reference: Vec<_> = scalar_requests
        .iter()
        .map(|request| {
            Auditor::new(request.apply_to(base))
                .audit(&outcomes, &regions)
                .expect("auditable")
        })
        .collect();
    let bit_identical = rebuilt.iter().zip(&responses).all(|(a, b)| *a == b.report)
        && scalar_reference
            .iter()
            .zip(&blocked_responses)
            .all(|(a, b)| {
                // The report embeds its config; align the strategy knob so
                // the comparison checks the *results* are bit-identical.
                let mut report = b.report.clone();
                report.config.strategy = a.config.strategy;
                *a == report
            });
    assert!(
        bit_identical,
        "batched serving (word and blocked+scalar) must be bit-identical to sequential audits"
    );

    // Counting isolation: the per-world `p(R)` recount pass alone —
    // scalar `count_at` membership replay vs the blocked popcnt sweep
    // — over this workload's engine, regions, and world stream. The
    // engines expose the exact counting structures production serves
    // with, so the timed code is the production path, built once.
    let scalar_engine = ScanEngine::build_with(
        &outcomes,
        &regions,
        base.backend,
        CountingStrategy::Membership,
    )
    .expect("auditable");
    let blocked_engine =
        ScanEngine::build_with(&outcomes, &regions, base.backend, CountingStrategy::Blocked)
            .expect("auditable");
    let membership = scalar_engine
        .membership()
        .expect("membership strategy engines expose their lists");
    let blocked = blocked_engine
        .blocked()
        .expect("blocked strategy engines expose their masks");
    let counting_worlds = worlds;
    let mut scalar_counts = Vec::new();
    let mut blocked_counts = Vec::new();
    let mut counting_bit_identical = true;
    let mut counting_scalar_ms = 0.0f64;
    let mut counting_blocked_ms = 0.0f64;
    for w in 0..counting_worlds {
        // Same world drawn once per layout (identical RNG streams).
        let mut rng = sfstats::rng::world_rng(base.seed, w as u64);
        let world = scalar_engine.generate_world(NullModel::Bernoulli, &mut rng);
        let mut rng = sfstats::rng::world_rng(base.seed, w as u64);
        let blocked_world = blocked_engine.generate_world(NullModel::Bernoulli, &mut rng);

        let t = Instant::now();
        membership.count_all_into(&world, &mut scalar_counts);
        counting_scalar_ms += t.elapsed().as_secs_f64() * 1e3;

        let t = Instant::now();
        blocked.count_all_into(&blocked_world, &mut blocked_counts);
        counting_blocked_ms += t.elapsed().as_secs_f64() * 1e3;

        counting_bit_identical &= scalar_counts == blocked_counts;
    }
    assert!(
        counting_bit_identical,
        "blocked counting must be bit-identical to the scalar membership replay"
    );
    let counting_speedup = counting_scalar_ms / counting_blocked_ms;
    if !opts.quick {
        assert!(
            counting_speedup >= COUNTING_SPEEDUP_TARGET,
            "blocked counting speedup {counting_speedup:.2}x below the \
             {COUNTING_SPEEDUP_TARGET}x target"
        );
    }

    // Kernel isolation: the same per-world recount, swept over every
    // popcount kernel the CPU supports, in three shapes — the raw
    // dense-range popcount (where SIMD lives), the per-world
    // count_all_into sweep, and the fused multi-world sweep that loads
    // each CSR run/mask once per MAX_FUSED_WORLDS-world batch. Worlds
    // are pre-generated on the same RNG streams as the baseline above,
    // so every timing is counting-only over the identical workload.
    let kernel_auto = blocked_engine.kernel();
    let kernel_worlds: Vec<_> = (0..counting_worlds)
        .map(|w| {
            let mut rng = sfstats::rng::world_rng(base.seed, w as u64);
            blocked_engine.generate_world(NullModel::Bernoulli, &mut rng)
        })
        .collect();
    // Scalar per-region reference counts for every world, computed
    // once outside the timed loops; fused batches pre-sliced so the
    // timers see only counting work.
    let reference_counts: Vec<Vec<u64>> = kernel_worlds
        .iter()
        .map(|world| {
            let mut counts = Vec::new();
            blocked.count_all_into(world, &mut counts);
            counts
        })
        .collect();
    let fused_batches: Vec<Vec<_>> = kernel_worlds
        .chunks(MAX_FUSED_WORLDS)
        .map(|batch| batch.iter().collect())
        .collect();
    let reference_ones: u64 = kernel_worlds.iter().map(|w| w.count_ones()).sum();
    let popcount_reps = if opts.quick { 400 } else { 2_000 };
    let mut kernel_rows: Vec<KernelRow> = Vec::new();
    let mut kernel_bit_identical = true;
    let mut scalar_popcount_ms = f64::NAN;
    let mut fused_scalar_ms = f64::NAN;
    let mut matrix = Vec::new();
    for kernel in CountingKernel::ALL {
        if !kernel.is_supported() {
            continue;
        }
        // Raw popcount: the dense-range inner loop in isolation, over
        // every world's full word buffer, repeated so timer noise
        // averages out; the accumulated total pins bit-identity and
        // keeps the optimizer honest.
        let mut ones = 0u64;
        let t = Instant::now();
        for _ in 0..popcount_reps {
            for world in &kernel_worlds {
                ones += kernel.popcount(world.blocks());
            }
        }
        let popcount_ms = t.elapsed().as_secs_f64() * 1e3;
        kernel_bit_identical &= ones == reference_ones * popcount_reps as u64;

        // Per-world sweep under this kernel (timed), then an untimed
        // pass asserting every count against the scalar reference.
        let t = Instant::now();
        for world in &kernel_worlds {
            blocked.count_all_into_with(world, kernel, &mut blocked_counts);
        }
        let count_ms = t.elapsed().as_secs_f64() * 1e3;
        for (world, reference) in kernel_worlds.iter().zip(&reference_counts) {
            blocked.count_all_into_with(world, kernel, &mut blocked_counts);
            kernel_bit_identical &= blocked_counts == *reference;
        }

        // Fused multi-world sweep: one CSR pass per batch (timed),
        // then the same untimed bit-identity pass per batch entry.
        blocked.count_all_many_into(&fused_batches[0], kernel, &mut matrix);
        let t = Instant::now();
        for refs in &fused_batches {
            blocked.count_all_many_into(refs, kernel, &mut matrix);
        }
        let fused_ms = t.elapsed().as_secs_f64() * 1e3;
        for (c, refs) in fused_batches.iter().enumerate() {
            blocked.count_all_many_into(refs, kernel, &mut matrix);
            for (w, _) in refs.iter().enumerate() {
                let reference = &reference_counts[c * MAX_FUSED_WORLDS + w];
                for (r, &expected) in reference.iter().enumerate() {
                    kernel_bit_identical &= matrix[r * refs.len() + w] == expected;
                }
            }
        }

        if kernel == CountingKernel::Scalar {
            scalar_popcount_ms = popcount_ms;
            fused_scalar_ms = fused_ms;
        }
        kernel_rows.push(KernelRow {
            kernel: kernel.name().to_string(),
            popcount_ms,
            popcount_speedup: scalar_popcount_ms / popcount_ms,
            count_ms,
            count_speedup: counting_blocked_ms / count_ms,
            fused_ms,
            fused_speedup: counting_blocked_ms / fused_ms,
        });
    }
    assert!(
        kernel_bit_identical,
        "every kernel must reproduce the scalar reference counts bit for bit"
    );
    let fused_speedup = counting_blocked_ms / fused_scalar_ms;
    if !opts.quick {
        assert!(
            fused_speedup >= FUSED_SPEEDUP_TARGET,
            "fused multi-world sweep (scalar kernel) speedup {fused_speedup:.2}x \
             below the {FUSED_SPEEDUP_TARGET}x target over the per-world baseline"
        );
        for row in &kernel_rows {
            if row.kernel == "avx2" || row.kernel == "avx512" {
                assert!(
                    row.popcount_speedup >= SIMD_POPCOUNT_TARGET,
                    "{} popcount speedup {:.2}x below the {SIMD_POPCOUNT_TARGET}x \
                     target (feature is detected, so the gain is asserted)",
                    row.kernel,
                    row.popcount_speedup
                );
            }
        }
    }

    // Generation isolation: the per-world label-draw pass alone —
    // scalar `gen_bool` per point vs word-parallel bulk draws — on the
    // blocked engine (Bernoulli null), the exact configuration the v2
    // serve path runs cold. The drawn totals are accumulated so the
    // optimizer cannot elide a pass.
    let gen_worlds = worlds;
    let mut gen_scalar_ones = 0u64;
    let t = Instant::now();
    for w in 0..gen_worlds {
        let mut rng = sfstats::rng::world_rng(base.seed, w as u64);
        gen_scalar_ones += blocked_engine
            .generate_world_with(NullModel::Bernoulli, WorldGen::Scalar, &mut rng)
            .count_ones();
    }
    let gen_scalar_ms = t.elapsed().as_secs_f64() * 1e3;
    let mut gen_word_ones = 0u64;
    let t = Instant::now();
    for w in 0..gen_worlds {
        let mut rng = sfstats::rng::world_rng(base.seed, w as u64);
        gen_word_ones += blocked_engine
            .generate_world_with(NullModel::Bernoulli, WorldGen::Word, &mut rng)
            .count_ones();
    }
    let gen_word_ms = t.elapsed().as_secs_f64() * 1e3;
    assert!(gen_scalar_ones > 0 && gen_word_ones > 0);
    let gen_speedup = gen_scalar_ms / gen_word_ms;
    if !opts.quick {
        assert!(
            gen_speedup >= WORLD_GEN_SPEEDUP_TARGET,
            "word generation speedup {gen_speedup:.2}x below the \
             {WORLD_GEN_SPEEDUP_TARGET}x target"
        );
        assert!(
            word_batch_speedup >= WORD_BATCH_SPEEDUP_TARGET,
            "cold word batch speedup {word_batch_speedup:.2}x below the \
             {WORD_BATCH_SPEEDUP_TARGET}x target"
        );
    }

    // Word-world count integrity across layouts: the same word world,
    // generated by the scalar-strategy and blocked engines, must
    // produce identical per-region counts (the harness that pins the
    // cross-strategy bit-identity of the τ comparison above, at the
    // counting level).
    for w in 0..counting_worlds.min(64) {
        let mut rng = sfstats::rng::world_rng(base.seed, w as u64);
        let mw = scalar_engine.generate_world_with(NullModel::Bernoulli, WorldGen::Word, &mut rng);
        let mut rng = sfstats::rng::world_rng(base.seed, w as u64);
        let bw = blocked_engine.generate_world_with(NullModel::Bernoulli, WorldGen::Word, &mut rng);
        membership.count_all_into(&mw, &mut scalar_counts);
        blocked.count_all_into(&bw, &mut blocked_counts);
        word_bit_identical &= scalar_counts == blocked_counts;
    }
    assert!(
        word_bit_identical,
        "word worlds must be bit-identical across counting strategies"
    );

    // Sharded eval isolation: the per-world τ fold alone — the plain
    // full-CSR sweep vs the shard-partial popcnt reduce — on one
    // blocked engine carrying both paths. The shard count is floored
    // at 2 so the partial-sum reduce is exercised (and its
    // bit-identity asserted) even on a single-core machine.
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let shards = opts.shards.resolve(n.div_ceil(64)).max(2);
    let sharded_engine =
        ScanEngine::build_with(&outcomes, &regions, base.backend, CountingStrategy::Blocked)
            .expect("auditable")
            .with_shards(sfscan::Shards::Fixed(shards));
    let dirs = [Direction::TwoSided, Direction::High, Direction::Low];
    let statistic = sharded_engine.statistic();
    let shard_eval_worlds = worlds;
    let mut shard_eval_plain_ms = 0.0f64;
    let mut shard_eval_sharded_ms = 0.0f64;
    let mut shard_eval_bit_identical = true;
    let mut plain_taus = vec![0.0f64; dirs.len()];
    let mut sharded_taus = vec![0.0f64; dirs.len()];
    for w in 0..shard_eval_worlds {
        let mut rng = sfstats::rng::world_rng(base.seed, w as u64);
        let world =
            sharded_engine.generate_world_with(NullModel::Bernoulli, WorldGen::Word, &mut rng);

        let t = Instant::now();
        sharded_engine.eval(statistic, &[&world], &dirs, &mut plain_taus, false);
        shard_eval_plain_ms += t.elapsed().as_secs_f64() * 1e3;

        let t = Instant::now();
        sharded_engine.eval(statistic, &[&world], &dirs, &mut sharded_taus, true);
        shard_eval_sharded_ms += t.elapsed().as_secs_f64() * 1e3;

        shard_eval_bit_identical &= plain_taus == sharded_taus;
    }
    assert!(
        shard_eval_bit_identical,
        "the shard-partial reduce must reproduce the plain τ fold bit for bit"
    );
    let shard_eval_speedup = shard_eval_plain_ms / shard_eval_sharded_ms;

    // Statistic isolation: the per-world τ fold swept over every
    // pluggable test statistic, on identical word worlds over the same
    // blocked engine — so the timing difference is the score fold
    // alone (counting is shared by construction). EqualOppTpr — the
    // same Bernoulli LLR over a conditioned population — must score a
    // given binary stream identically to BernoulliLlr. MeanResidual is
    // a genuinely different statistic; its τ must be finite and is
    // reported, not compared.
    let statistic_worlds = worlds;
    let mut statistic_bit_identical = true;
    let mut statistic_rows: Vec<StatisticRow> = Vec::new();
    let mut llr_eval_ms = f64::NAN;
    let mut taus_by_statistic: Vec<Vec<f64>> = Vec::new();
    for statistic in Statistic::ALL {
        let mut taus = vec![0.0f64; dirs.len()];
        let mut all_taus = Vec::with_capacity(statistic_worlds * dirs.len());
        let t = Instant::now();
        for w in 0..statistic_worlds {
            let mut rng = sfstats::rng::world_rng(base.seed, w as u64);
            let world =
                blocked_engine.generate_world_with(NullModel::Bernoulli, WorldGen::Word, &mut rng);
            blocked_engine.eval(statistic, &[&world], &dirs, &mut taus, false);
            all_taus.extend_from_slice(&taus);
        }
        let eval_ms = t.elapsed().as_secs_f64() * 1e3;
        statistic_bit_identical &= all_taus.iter().all(|t| t.is_finite());
        if statistic == Statistic::BernoulliLlr {
            llr_eval_ms = eval_ms;
        }
        statistic_rows.push(StatisticRow {
            statistic: statistic.name().to_string(),
            eval_ms,
            relative: llr_eval_ms / eval_ms,
        });
        taus_by_statistic.push(all_taus);
    }
    // EqualOppTpr delegates to the same LLR scoring, so its τ stream
    // over identical worlds is bit-identical to BernoulliLlr's;
    // MeanResidual must genuinely differ.
    statistic_bit_identical &= taus_by_statistic[0] == taus_by_statistic[1];
    assert!(
        statistic_bit_identical,
        "τ must be finite and EqualOppTpr must reproduce the BernoulliLlr fold bit for bit"
    );
    assert_ne!(
        taus_by_statistic[0], taus_by_statistic[2],
        "mean-residual must score differently from the LLR statistics"
    );

    // Single cold audit: one request, sequential unsharded engine vs
    // the parallel sharded engine (the production default). Engine
    // builds are excluded so the comparison is serve-vs-serve; the
    // speedup is the PR 6 acceptance number, asserted at full scale
    // when there are cores to fan out to.
    let word_blocked = base.with_strategy(CountingStrategy::Blocked);
    let single_request = [AuditRequest::from_config(&word_blocked)];
    let serial_config = word_blocked
        .sequential()
        .with_shards(sfscan::Shards::Fixed(1));
    let single_audit = |config: sfscan::AuditConfig,
                        outcomes: &sfscan::SpatialOutcomes,
                        regions: &RegionSet|
     -> (f64, sfscan::AuditReport) {
        let prepared = PreparedAudit::prepare(outcomes, regions, config).expect("auditable");
        let t = Instant::now();
        let mut reports = prepared.run_batch(&single_request);
        (t.elapsed().as_secs_f64() * 1e3, reports.remove(0))
    };
    let (serial_audit_ms, serial_report) = single_audit(serial_config, &outcomes, &regions);
    let (sharded_audit_ms, sharded_report) = single_audit(word_blocked, &outcomes, &regions);
    let sharded_bit_identical = {
        let mut aligned = sharded_report.clone();
        aligned.config.shards = serial_report.config.shards;
        aligned.config.parallel = serial_report.config.parallel;
        serial_report == aligned
    };
    assert!(
        sharded_bit_identical,
        "the parallel sharded audit must be bit-identical to the sequential unsharded audit"
    );
    let single_audit_speedup = serial_audit_ms / sharded_audit_ms;
    if !opts.quick && cores >= MIN_CORES_FOR_SHARD_ASSERT {
        assert!(
            single_audit_speedup >= SINGLE_AUDIT_SPEEDUP_TARGET,
            "single-audit sharded speedup {single_audit_speedup:.2}x below the \
             {SINGLE_AUDIT_SPEEDUP_TARGET}x target on {cores} cores"
        );
    } else if cores < MIN_CORES_FOR_SHARD_ASSERT {
        println!(
            "[serve-bench] note: {cores} core(s) < {MIN_CORES_FOR_SHARD_ASSERT}; \
             the {SINGLE_AUDIT_SPEEDUP_TARGET}x single-audit assertion is skipped \
             (bit-identity still asserted)"
        );
    }

    // Points scaling: the same serial-vs-parallel single audit swept
    // over dataset sizes, so the artifact records where the fan-out
    // starts paying for its coordination.
    let sweep_sizes: &[usize] = if opts.quick {
        &[1_000, 2_000, 4_000]
    } else {
        &[2_500, 5_000, 10_000, 20_000]
    };
    let mut scaling = Vec::new();
    for &points in sweep_sizes {
        let sweep_outcomes = SynthConfig {
            per_half: points / 2,
            ..SynthConfig::paper()
        }
        .generate(opts.seed);
        let sweep_regions = RegionSet::regular_grid(sweep_outcomes.expanded_bounding_box(), 16, 16);
        let (serial_ms, a) = single_audit(serial_config, &sweep_outcomes, &sweep_regions);
        let (parallel_ms, mut b) = single_audit(word_blocked, &sweep_outcomes, &sweep_regions);
        b.config.shards = a.config.shards;
        b.config.parallel = a.config.parallel;
        assert_eq!(a, b, "scaling sweep at {points} points diverged");
        scaling.push(ScalingRow {
            points: sweep_outcomes.len(),
            serial_ms,
            parallel_ms,
            speedup: serial_ms / parallel_ms,
        });
    }

    // Socket load: the serving-v3 TCP front end under real client
    // traffic. One envelope line per request in the mix; the reference
    // transcript is exactly what `experiments serve` prints for these
    // lines on stdin (submit everything, flush at EOF, one envelope
    // per line in input order).
    let net_clients = 4usize;
    let net_lines: Vec<String> = requests
        .iter()
        .map(|r| RequestEnvelope::new(DatasetHandle(0), *r).to_json())
        .collect();
    let expected: Vec<String> = {
        let mut service = AuditService::new();
        let h = service
            .register(&outcomes, &regions, base)
            .expect("auditable");
        assert_eq!(h, DatasetHandle(0), "first registration is handle 0");
        let tickets: Vec<_> = net_lines
            .iter()
            .map(|line| service.submit_json(line).expect("valid request line"))
            .collect();
        service.flush();
        tickets
            .into_iter()
            .map(|t| ResponseEnvelope::ready(service.take(t).expect("flushed")).to_json())
            .collect()
    };

    // MaxPending(1) promotes every submission immediately, so the
    // drain-latency samples approximate per-request service latency
    // (queue wait included) instead of EOF-batch artifacts.
    let net_executor = Arc::new(NetExecutor::new(
        ExecutorConfig {
            workers: cores.clamp(1, 4),
            queue_capacity: None,
            policy: DrainPolicy::MaxPending(1),
        },
        Arc::new(SystemClock::new()),
    ));
    net_executor
        .register(&outcomes, &regions, base)
        .expect("auditable");
    let net_server = AuditTcpServer::bind("127.0.0.1:0", net_executor, Duration::from_millis(5))
        .expect("ephemeral port binds");
    let net_addr = net_server.local_addr();

    // Cold phase: one client pays every world class's simulation.
    let t = Instant::now();
    let cold_transcript = socket_replay(net_addr, &net_lines);
    let net_cold_ms = t.elapsed().as_secs_f64() * 1e3;
    let mut net_bit_identical = cold_transcript == expected;

    // Warm phase: concurrent clients replay the same mix; every world
    // class now replays from the session cache, and every client must
    // still read the exact reference bytes.
    let t = Instant::now();
    let warm_clients: Vec<_> = (0..net_clients)
        .map(|_| {
            let lines = net_lines.clone();
            std::thread::spawn(move || socket_replay(net_addr, &lines))
        })
        .collect();
    for client in warm_clients {
        net_bit_identical &= client.join().expect("client thread") == expected;
    }
    let net_warm_ms = t.elapsed().as_secs_f64() * 1e3;
    assert!(
        net_bit_identical,
        "every socket transcript must be byte-identical to the in-process JSONL path"
    );
    let net_rps = (net_clients * net_lines.len()) as f64 / (net_warm_ms / 1e3);
    let net_stats = net_server.shutdown();
    let net_requests = (net_clients + 1) * net_lines.len();
    assert_eq!(
        net_stats.requests_served, net_requests as u64,
        "the live server must answer every accepted request"
    );
    assert!(
        net_stats.worlds_replayed > 0 && net_stats.cache_hits > 0,
        "repeat traffic must replay from the session world cache ({net_stats:?})"
    );

    // Overload probe: one worker, one queue slot, manual drain — the
    // first line occupies the slot until EOF, so every further line
    // must bounce with a typed "busy" envelope instead of queuing.
    let probe_executor = Arc::new(NetExecutor::new(
        ExecutorConfig {
            workers: 1,
            queue_capacity: Some(1),
            policy: DrainPolicy::Manual,
        },
        Arc::new(SystemClock::new()),
    ));
    probe_executor
        .register(&outcomes, &regions, base)
        .expect("auditable");
    let probe_server =
        AuditTcpServer::bind("127.0.0.1:0", probe_executor, Duration::from_millis(5))
            .expect("ephemeral port binds");
    let probe_transcript = socket_replay(probe_server.local_addr(), &net_lines);
    probe_server.shutdown();
    assert_eq!(probe_transcript.len(), net_lines.len());
    let net_busy_lines = probe_transcript
        .iter()
        .filter(|line| {
            ResponseEnvelope::from_json(line)
                .expect("envelope decodes")
                .status
                == WireStatus::Busy
        })
        .count();
    assert!(
        net_busy_lines > 0,
        "a capacity-1 server must shed overflow with busy envelopes"
    );

    let groups = sfscan::prepared::ExecutionPlan::new(requests.clone())
        .groups()
        .len();
    // The headline numbers of every benchmarked PR (hardcoded from the
    // committed BENCH_PR*.json artifacts at the reference scale:
    // 20 000 points, 256 regions, 199 worlds, 24 requests) plus this
    // run, so one artifact carries the whole performance history.
    let point = |pr: &str, metric: &str, value: f64| TrajectoryPoint {
        pr: pr.to_string(),
        metric: metric.to_string(),
        value,
    };
    let trajectory = vec![
        point("PR2", "rebuild_ms", 1592.83),
        point("PR2", "batched_ms", 137.12),
        point("PR2", "speedup", 11.62),
        point("PR3", "counting_scalar_ms", 3.095),
        point("PR3", "counting_blocked_ms", 0.399),
        point("PR3", "counting_speedup", 7.75),
        point("PR4", "register_ms", 2.163),
        point("PR4", "warm_ms", 1.0014),
        point("PR4", "warm_speedup", 131.56),
        point("PR5", "counting_speedup", 10.24),
        point("PR5", "gen_speedup", 15.00),
        point("PR5", "word_batch_speedup", 6.566),
        point("PR5", "warm_speedup", 157.66),
        point("PR6", "speedup", 12.31),
        point("PR6", "counting_speedup", 7.50),
        point("PR6", "gen_speedup", 13.04),
        point("PR6", "word_batch_speedup", 6.26),
        point("PR6", "warm_speedup", 31.72),
        point("PR6", "single_audit_speedup", 1.18),
        point("PR7", "speedup", 13.03),
        point("PR7", "counting_speedup", 6.75),
        point("PR7", "gen_speedup", 13.84),
        point("PR7", "word_batch_speedup", 5.89),
        point("PR7", "warm_speedup", 30.31),
        point("PR7", "fused_speedup", 1.87),
        point("PR7", "popcount_speedup", 6.94),
        point("PR8", "speedup", 12.68),
        point("PR8", "counting_speedup", 7.39),
        point("PR8", "gen_speedup", 12.71),
        point("PR8", "word_batch_speedup", 6.11),
        point("PR8", "warm_speedup", 31.49),
        point("PR8", "single_audit_speedup", 0.98),
        point("PR8", "fused_speedup", 1.65),
        point("PR8", "popcount_speedup", 7.03),
        point("PR8", "statistic_fold_relative", 1.69),
        point("PR9", "speedup", rebuild_ms / batched_ms),
        point("PR9", "counting_speedup", counting_speedup),
        point("PR9", "gen_speedup", gen_speedup),
        point("PR9", "word_batch_speedup", word_batch_speedup),
        point("PR9", "warm_speedup", batched_serve_ms / warm_ms),
        point("PR9", "single_audit_speedup", single_audit_speedup),
        point("PR9", "fused_speedup", fused_speedup),
        point(
            "PR9",
            "popcount_speedup",
            kernel_rows
                .iter()
                .find(|r| r.kernel == kernel_auto.name())
                .map_or(1.0, |r| r.popcount_speedup),
        ),
        point(
            "PR9",
            "statistic_fold_relative",
            statistic_rows
                .iter()
                .find(|r| r.statistic == "mean-residual")
                .map_or(1.0, |r| r.relative),
        ),
        point("PR9", "net_rps", net_rps),
        point("PR9", "net_drain_p99_ms", net_stats.drain_p99 as f64 / 1e3),
    ];

    let record = ServeBenchRecord {
        benchmark: "serve-bench".to_string(),
        cores,
        points: outcomes.len(),
        regions: regions.len(),
        worlds_per_request: worlds,
        requests: requests.len(),
        groups,
        rebuild_ms,
        batched_ms,
        batched_blocked_ms,
        register_ms,
        warm_ms,
        warm_speedup: batched_serve_ms / warm_ms,
        warm_unique_worlds,
        warm_worlds_replayed,
        warm_cache_hits,
        warm_bit_identical,
        speedup: rebuild_ms / batched_ms,
        blocked_speedup: rebuild_ms / batched_blocked_ms,
        rebuild_per_s: requests.len() as f64 / (rebuild_ms / 1e3),
        batched_per_s: requests.len() as f64 / (batched_ms / 1e3),
        batched_blocked_per_s: requests.len() as f64 / (batched_blocked_ms / 1e3),
        rebuild_worlds,
        batched_unique_worlds: stats.unique_worlds as usize,
        worlds_shared: stats.worlds_shared() as usize,
        worlds_saved: stats.worlds_saved() as usize,
        bit_identical,
        counting_worlds,
        counting_scalar_ms,
        counting_blocked_ms,
        counting_speedup,
        blocked_ids_per_word: blocked.ids_per_word(),
        counting_bit_identical,
        kernel_auto: kernel_auto.name().to_string(),
        fused_width: MAX_FUSED_WORLDS,
        kernels: kernel_rows,
        fused_speedup,
        kernel_bit_identical,
        gen_worlds,
        gen_scalar_ms,
        gen_word_ms,
        gen_speedup,
        blocked_serve_ms,
        word_serve_ms,
        word_batch_speedup,
        word_bit_identical,
        shards,
        shard_eval_worlds,
        shard_eval_plain_ms,
        shard_eval_sharded_ms,
        shard_eval_speedup,
        shard_eval_bit_identical,
        serial_audit_ms,
        sharded_audit_ms,
        single_audit_speedup,
        sharded_bit_identical,
        statistic_worlds,
        statistics: statistic_rows,
        statistic_bit_identical,
        scaling,
        net_clients,
        net_requests,
        net_cold_ms,
        net_warm_ms,
        net_rps,
        net_drain_p50_us: net_stats.drain_p50,
        net_drain_p99_us: net_stats.drain_p99,
        net_busy_lines,
        net_bit_identical,
        trajectory,
    };

    report_row(
        "rebuild-per-request",
        "—",
        &format!("{rebuild_ms:.0} ms ({:.1} audits/s)", record.rebuild_per_s),
    );
    report_row(
        "batched shared engine",
        "—",
        &format!("{batched_ms:.0} ms ({:.1} audits/s)", record.batched_per_s),
    );
    report_row(
        "batched + blocked counting",
        "—",
        &format!(
            "{batched_blocked_ms:.0} ms ({:.1} audits/s)",
            record.batched_blocked_per_s
        ),
    );
    report_row(
        "warm cache (repeat batch)",
        "0 new worlds",
        &format!(
            "{warm_ms:.0} ms ({:.2}x over cold, {} replayed, {} simulated)",
            record.warm_speedup, record.warm_worlds_replayed, record.warm_unique_worlds
        ),
    );
    report_row(
        "speedup",
        ">= 3x target",
        &format!(
            "{:.2}x batched, {:.2}x blocked",
            record.speedup, record.blocked_speedup
        ),
    );
    report_row(
        "counting pass (scalar vs blocked)",
        ">= 3x target",
        &format!(
            "{:.2}x ({:.2} ms vs {:.2} ms over {} worlds, {:.1} ids/word)",
            record.counting_speedup,
            record.counting_scalar_ms,
            record.counting_blocked_ms,
            record.counting_worlds,
            record.blocked_ids_per_word
        ),
    );
    report_row(
        "fused multi-world sweep (scalar kernel)",
        &format!(">= {FUSED_SPEEDUP_TARGET}x target"),
        &format!(
            "{:.2}x ({:.2} ms vs {:.2} ms per-world, width {})",
            record.fused_speedup, fused_scalar_ms, record.counting_blocked_ms, record.fused_width
        ),
    );
    for row in &record.kernels {
        let target = if row.kernel == "avx2" || row.kernel == "avx512" {
            format!(">= {SIMD_POPCOUNT_TARGET}x popcount")
        } else {
            "—".to_string()
        };
        let auto_marker = if row.kernel == record.kernel_auto {
            " (auto)"
        } else {
            ""
        };
        report_row(
            &format!("  kernel {}{}", row.kernel, auto_marker),
            &target,
            &format!(
                "popcount {:.2}x, per-world {:.2}x, fused {:.2}x",
                row.popcount_speedup, row.count_speedup, row.fused_speedup
            ),
        );
    }
    report_row(
        "generation pass (scalar vs word)",
        ">= 4x target",
        &format!(
            "{:.2}x ({:.2} ms vs {:.2} ms over {} worlds)",
            record.gen_speedup, record.gen_scalar_ms, record.gen_word_ms, record.gen_worlds
        ),
    );
    report_row(
        "cold word batch (blocked+word vs blocked)",
        ">= 2x target",
        &format!(
            "{:.2}x ({:.0} ms vs {:.0} ms serve-only)",
            record.word_batch_speedup, record.word_serve_ms, record.blocked_serve_ms
        ),
    );
    report_row(
        "sharded eval (plain vs shard-partial)",
        "bit-identical",
        &format!(
            "{:.2}x ({:.2} ms vs {:.2} ms over {} worlds, {} shards)",
            record.shard_eval_speedup,
            record.shard_eval_plain_ms,
            record.shard_eval_sharded_ms,
            record.shard_eval_worlds,
            record.shards
        ),
    );
    for row in &record.statistics {
        report_row(
            &format!("  statistic {}", row.statistic),
            "bit-identical fold",
            &format!(
                "{:.2} ms over {} worlds ({:.2}x vs bernoulli-llr)",
                row.eval_ms, record.statistic_worlds, row.relative
            ),
        );
    }
    report_row(
        "single cold audit (serial vs sharded)",
        &format!(">= {SINGLE_AUDIT_SPEEDUP_TARGET}x on >= {MIN_CORES_FOR_SHARD_ASSERT} cores"),
        &format!(
            "{:.2}x ({:.1} ms vs {:.1} ms, {} core(s))",
            record.single_audit_speedup, record.serial_audit_ms, record.sharded_audit_ms, cores
        ),
    );
    for row in &record.scaling {
        report_row(
            &format!("  scaling @ {} points", row.points),
            "—",
            &format!(
                "{:.2}x ({:.1} ms serial vs {:.1} ms parallel)",
                row.speedup, row.serial_ms, row.parallel_ms
            ),
        );
    }
    report_row(
        "net: cold socket client",
        "byte-identical",
        &format!(
            "{:.0} ms for {} requests over TCP",
            record.net_cold_ms,
            net_lines.len()
        ),
    );
    report_row(
        &format!("net: warm x{} clients", record.net_clients),
        "byte-identical",
        &format!(
            "{:.0} ms, {:.1} req/s sustained",
            record.net_warm_ms, record.net_rps
        ),
    );
    report_row(
        "net: submit->drain latency",
        "—",
        &format!(
            "p50 {} us, p99 {} us ({} samples)",
            record.net_drain_p50_us, record.net_drain_p99_us, net_stats.drain_samples
        ),
    );
    report_row(
        "net: overload probe (capacity 1)",
        "busy envelopes",
        &format!(
            "{} busy of {} lines, {} served",
            record.net_busy_lines,
            net_lines.len(),
            net_lines.len() - record.net_busy_lines
        ),
    );
    report_row(
        "worlds generated",
        &format!("{rebuild_worlds} sequential"),
        &format!(
            "{} unique ({} shared, {} saved)",
            record.batched_unique_worlds, record.worlds_shared, record.worlds_saved
        ),
    );

    let json = serde_json::to_string_pretty(&record).expect("record serialises");
    std::fs::write(&opts.out, json + "\n")
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", opts.out));
    println!("[serve-bench] wrote {}", opts.out);
}
