//! The wire byte oracle: the compact and pretty JSON of every served
//! shape — audit reports (findings of every region kind, an infinite
//! critical value, an early stop, no findings, a real audit), every
//! response-envelope status with and without its optional fields,
//! request envelopes, every `AuditConfig` enum variant and every shard
//! worker request and reply — must equal the bytes recorded in
//! `tests/golden/wire.txt`.
//!
//! The fixture is a sequence of blocks, each a `=== <name>` header line
//! followed by the rendering (pretty renderings span several lines).

use spatial_fairness::cluster::{CountRequest, WorkerReply, WorkerRequest, WorkerStats};
use spatial_fairness::geo::ConvexPolygon;
use spatial_fairness::prelude::*;
use spatial_fairness::scan::{
    CacheStats, CountingStrategy, McStrategy, NullModel, RegionFinding, Shards, WorldGen,
};
use spatial_fairness::serve::{RequestEnvelope, ResponseEnvelope};

const FIXTURE: &str = include_str!("golden/wire.txt");

/// Floats chosen to exercise the number writer: integers, exact binary
/// fractions, shortest-digit ties, subnormals, extremes, signed zero
/// and the non-finite tokens.
fn edge_floats() -> Vec<f64> {
    vec![
        0.0,
        -0.0,
        1.0,
        -1.0,
        0.1,
        0.5,
        1.0 / 3.0,
        2.0 / 3.0,
        9.6,
        123_456.789,
        1e7,
        1e15,
        1e16,
        1e21,
        1e22,
        1e-5,
        1e-7,
        2.5e-8,
        f64::EPSILON,
        f64::MIN_POSITIVE,
        5e-324,
        f64::MAX,
        -f64::MAX,
        9_007_199_254_740_993.0,
        2_251_799_813_685_248.2,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
    ]
}

fn finding(index: usize, region: Region, center_id: Option<usize>) -> RegionFinding {
    RegionFinding {
        index,
        region,
        center_id,
        n: 400 + index as u64,
        p: 250 + index as u64,
        rate: (250 + index) as f64 / (400 + index) as f64,
        llr: 17.25 - index as f64 / 7.0,
    }
}

fn synthetic_report(config: AuditConfig, findings: Vec<RegionFinding>) -> AuditReport {
    let simulated: Vec<f64> = (0..config.worlds)
        .map(|w| 3.0 + (w as f64 * 0.618_033_988_749_895).fract() * 6.0)
        .collect();
    AuditReport {
        config,
        n_total: 20_000,
        p_total: 9_137,
        rate: 9_137.0 / 20_000.0,
        num_regions: 256,
        region_set: String::from("16x16 grid \"synthetic\"\tover [0,1]^2"),
        tau: 21.837_465_019_283_746,
        best_region_index: 3,
        p_value: 1.0 / (config.worlds as f64 + 1.0),
        critical_value: 9.612_347_5,
        findings,
        worlds_evaluated: config.worlds,
        simulated,
    }
}

fn real_report(config: AuditConfig) -> AuditReport {
    let points: Vec<Point> = (0..400)
        .map(|i| Point::new((i % 20) as f64 * 0.05 + 0.01, (i / 20) as f64 * 0.05 + 0.02))
        .collect();
    let labels: Vec<bool> = (0..400).map(|i| (i % 20) < 7 || i % 3 == 0).collect();
    let outcomes = SpatialOutcomes::new(points, labels).unwrap();
    let regions = RegionSet::regular_grid(Rect::from_coords(0.0, 0.0, 1.0, 1.0), 4, 4);
    Auditor::new(config).audit(&outcomes, &regions).unwrap()
}

fn reports() -> Vec<(String, AuditReport)> {
    let base = AuditConfig::new(0.05).with_worlds(19).with_seed(11);
    let all_kinds = vec![
        finding(
            3,
            Region::Rect(Rect::from_coords(0.25, 0.5, 0.3125, 0.5625)),
            None,
        ),
        finding(
            17,
            Region::Circle(Circle::new(Point::new(0.1, -2.75), 0.333)),
            Some(4),
        ),
        finding(
            40,
            Region::Polygon(ConvexPolygon::new(vec![
                Point::new(0.0, 0.0),
                Point::new(1.5, 0.1),
                Point::new(0.7, 2.0 / 3.0),
            ])),
            Some(0),
        ),
    ];
    let mut out = vec![(
        String::from("report-all-region-kinds"),
        synthetic_report(base, all_kinds),
    )];
    let mut infinite = synthetic_report(base, Vec::new());
    infinite.critical_value = f64::INFINITY;
    infinite.p_value = 1.0;
    out.push((String::from("report-infinite-critical"), infinite));
    let mut early = synthetic_report(
        base.with_worlds(999)
            .with_mc_strategy(McStrategy::EarlyStop { batch_size: 16 }),
        vec![finding(
            1,
            Region::Rect(Rect::from_coords(0.0, 0.0, 1e-3, 2e5)),
            None,
        )],
    );
    early.worlds_evaluated = 32;
    early.simulated.truncate(32);
    out.push((String::from("report-early-stop"), early));
    out.push((
        String::from("report-no-findings"),
        synthetic_report(base, Vec::new()),
    ));
    let mut edges = synthetic_report(base, Vec::new());
    edges.simulated = edge_floats();
    edges.worlds_evaluated = edges.simulated.len();
    out.push((String::from("report-edge-floats"), edges));
    out.push((String::from("report-real-audit"), real_report(base)));
    out.push((
        String::from("report-real-audit-early-stop"),
        real_report(
            base.with_worlds(199)
                .with_mc_strategy(McStrategy::EarlyStop { batch_size: 8 }),
        ),
    ));
    out
}

fn configs() -> Vec<(String, AuditConfig)> {
    let base = AuditConfig::new(0.005);
    let mut out = vec![(String::from("default"), base)];
    for direction in [Direction::TwoSided, Direction::High, Direction::Low] {
        out.push((format!("{direction:?}"), base.with_direction(direction)));
    }
    for null_model in [NullModel::Bernoulli, NullModel::Permutation] {
        out.push((format!("{null_model:?}"), base.with_null_model(null_model)));
    }
    for strategy in [
        CountingStrategy::Membership,
        CountingStrategy::Requery,
        CountingStrategy::Blocked,
        CountingStrategy::Auto,
    ] {
        out.push((format!("{strategy:?}"), base.with_strategy(strategy)));
    }
    for mc in [
        McStrategy::FullBudget,
        McStrategy::EarlyStop { batch_size: 64 },
    ] {
        out.push((format!("{mc:?}"), base.with_mc_strategy(mc)));
    }
    for worldgen in [WorldGen::Scalar, WorldGen::Word] {
        out.push((format!("{worldgen:?}"), base.with_worldgen(worldgen)));
    }
    for shards in [Shards::Auto, Shards::Fixed(1), Shards::Fixed(12)] {
        out.push((format!("{shards:?}"), base.with_shards(shards)));
    }
    for statistic in Statistic::ALL {
        out.push((format!("{statistic:?}"), base.with_statistic(statistic)));
    }
    out.push((
        String::from("odd-alpha-seed"),
        AuditConfig::new(0.123_456_789)
            .with_worlds(1)
            .with_seed(u64::MAX),
    ));
    out
}

fn envelopes() -> Vec<(String, ResponseEnvelope)> {
    let report = reports().swap_remove(0).1;
    let ready = ResponseEnvelope::ready(AuditResponse {
        ticket: Ticket(7),
        report: report.clone(),
    });
    let stats = ServerStats {
        requests_served: 12,
        batches: 3,
        unique_worlds: 2_997,
        worlds_replayed: 999,
        cache_hits: 1,
        lane_worlds: 11_988,
        budget_total: 11_988,
        queue_depth: 0,
        drain_p50: 410,
        drain_p99: 1_234,
        drain_samples: 12,
    };
    let cache = CacheStats {
        hits: 1,
        misses: 2,
        worlds_replayed: 999,
        worlds_simulated: 1_998,
        evictions: 0,
        resident_bytes: u64::MAX,
    };
    vec![
        (String::from("ready"), ready.clone()),
        (String::from("ready-geojson"), ready.with_geojson_findings()),
        (
            String::from("ready-geojson-no-findings"),
            ResponseEnvelope::ready(AuditResponse {
                ticket: Ticket(0),
                report: reports().swap_remove(3).1,
            })
            .with_geojson_findings(),
        ),
        (String::from("queued"), ResponseEnvelope::queued(Ticket(3))),
        (
            String::from("queued-geojson-noop"),
            ResponseEnvelope::queued(Ticket(4)).with_geojson_findings(),
        ),
        (
            String::from("rejected-unknown-handle"),
            ResponseEnvelope::rejected(&SubmitError::UnknownHandle(DatasetHandle(9))),
        ),
        (
            String::from("rejected-invalid"),
            ResponseEnvelope::rejected(&SubmitError::InvalidRequest {
                reason: String::from("worlds must be at most 1048576, got 1000000000000"),
            }),
        ),
        (
            String::from("rejected-malformed"),
            ResponseEnvelope::rejected(&SubmitError::Malformed {
                reason: String::from("serde error: unexpected character `n` at byte 0\n\"\\"),
            }),
        ),
        (String::from("busy"), ResponseEnvelope::busy(4, 4)),
        (
            String::from("unknown-ticket"),
            ResponseEnvelope::from_status(Ticket(99), Status::Unknown),
        ),
        (
            String::from("stats"),
            ResponseEnvelope::stats_snapshot(stats, cache),
        ),
        (
            String::from("stats-default"),
            ResponseEnvelope::stats_snapshot(ServerStats::default(), CacheStats::default()),
        ),
    ]
}

fn request_envelopes() -> Vec<(String, RequestEnvelope)> {
    let r = AuditRequest::new(0.005).with_worlds(99).with_seed(42);
    vec![
        (
            String::from("v2"),
            RequestEnvelope::new(DatasetHandle(0), r),
        ),
        (
            String::from("geojson"),
            RequestEnvelope::new(DatasetHandle(3), r).with_geojson(),
        ),
        (
            String::from("every-knob"),
            RequestEnvelope::new(
                DatasetHandle(u64::MAX),
                r.with_worldgen(WorldGen::Scalar)
                    .with_direction(Direction::Low)
                    .with_null_model(NullModel::Permutation)
                    .with_statistic(Statistic::EqualOppTpr)
                    .with_mc_strategy(McStrategy::EarlyStop { batch_size: 3 }),
            ),
        ),
    ]
}

fn worker_lines() -> Vec<(String, String, String)> {
    let pretty = |json: &str| {
        let value = serde_json::parse_value(json).unwrap();
        serde_json::to_string_pretty(&value).unwrap()
    };
    let mut out = Vec::new();
    let requests = [
        ("hello", WorkerRequest::Hello),
        (
            "count",
            WorkerRequest::Count(CountRequest {
                id: 7,
                null_model: NullModel::Permutation,
                seed: u64::MAX,
                worldgen: WorldGen::Word,
                first: 8,
                count: 4,
                word_lo: 16,
                word_hi: 64,
            }),
        ),
        ("stats", WorkerRequest::Stats),
        ("shutdown", WorkerRequest::Shutdown),
    ];
    for (name, request) in requests {
        let json = request.to_json();
        out.push((format!("worker-request-{name}"), pretty(&json), json));
    }
    let replies = [
        (
            "hello",
            WorkerReply::Hello {
                version: 1,
                num_points: 20_000,
                num_regions: 256,
                num_words: 313,
            },
        ),
        (
            "count",
            WorkerReply::Count {
                id: 7,
                counts: vec![0, 1, 64, u64::MAX, 18_446_744_073_709_551_614, 10, 9],
                p_partials: vec![31, 0],
            },
        ),
        (
            "count-empty",
            WorkerReply::Count {
                id: 0,
                counts: Vec::new(),
                p_partials: Vec::new(),
            },
        ),
        (
            "stats",
            WorkerReply::Stats(WorkerStats {
                requests: 5,
                spans: 3,
                worlds: 297,
                errors: 1,
                faults_injected: 0,
            }),
        ),
        (
            "err-with-id",
            WorkerReply::Err {
                id: Some(12),
                error: String::from("span out of range: first 90 + count 20 > 99"),
            },
        ),
        (
            "err-without-id",
            WorkerReply::Err {
                id: None,
                error: String::from("request line exceeds 1048576 bytes"),
            },
        ),
    ];
    for (name, reply) in replies {
        let json = reply.to_json();
        out.push((format!("worker-reply-{name}"), pretty(&json), json));
    }
    out
}

/// Renders every case as fixture blocks.
fn render() -> String {
    let mut out = String::new();
    let mut block = |name: &str, compact: String, pretty: String| {
        out.push_str(&format!("=== {name} (compact)\n{compact}\n"));
        out.push_str(&format!("=== {name} (pretty)\n{pretty}\n"));
    };
    for (name, report) in reports() {
        block(
            &name,
            serde_json::to_string(&report).unwrap(),
            serde_json::to_string_pretty(&report).unwrap(),
        );
    }
    for (name, envelope) in envelopes() {
        assert_eq!(
            envelope.to_json(),
            serde_json::to_string(&envelope).unwrap()
        );
        block(
            &format!("envelope-{name}"),
            envelope.to_json(),
            serde_json::to_string_pretty(&envelope).unwrap(),
        );
    }
    for (name, envelope) in request_envelopes() {
        block(
            &format!("request-{name}"),
            envelope.to_json(),
            serde_json::to_string_pretty(&envelope).unwrap(),
        );
    }
    for (name, config) in configs() {
        block(
            &format!("config-{name}"),
            serde_json::to_string(&config).unwrap(),
            serde_json::to_string_pretty(&config).unwrap(),
        );
    }
    for (name, pretty, compact) in worker_lines() {
        block(&name, compact, pretty);
    }
    out
}

/// Splits fixture text into `(header, body)` blocks.
fn blocks(text: &str) -> Vec<(&str, String)> {
    let mut out: Vec<(&str, String)> = Vec::new();
    for line in text.lines() {
        match line.strip_prefix("=== ") {
            Some(header) => out.push((header, String::new())),
            None => {
                let (_, body) = out.last_mut().expect("fixture starts with a header");
                if !body.is_empty() {
                    body.push('\n');
                }
                body.push_str(line);
            }
        }
    }
    out
}

#[test]
fn every_served_shape_renders_the_recorded_bytes() {
    let rendered = render();
    let (got, want) = (blocks(&rendered), blocks(FIXTURE));
    for ((name, body), (want_name, want_body)) in got.iter().zip(&want) {
        assert_eq!(name, want_name, "fixture block order changed");
        assert_eq!(body, want_body, "bytes of `{name}` changed");
    }
    assert_eq!(got.len(), want.len(), "fixture block count changed");
    assert_eq!(rendered, FIXTURE);
}
