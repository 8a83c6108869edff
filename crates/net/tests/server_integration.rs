//! End-to-end tests over real sockets: byte-identity with the
//! in-process JSONL path, backpressure under overload, deadline drains
//! under the real timer thread, no-lost-ticket graceful shutdown, and
//! closed-loop round trips free of the Nagle/delayed-ACK stall.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use sfgeo::{Point, Rect};
use sfnet::{
    write_line, AuditTcpServer, Clock, ExecutorConfig, ManualClock, NetExecutor, SystemClock,
    MAX_LINE_BYTES,
};
use sfscan::{AuditConfig, AuditRequest, Direction, RegionSet, SpatialOutcomes, WorldGen};
use sfserve::{
    AuditService, DatasetHandle, DrainPolicy, ErrorCode, RequestEnvelope, ResponseEnvelope,
    WireStatus,
};
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

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

fn request(seed: u64) -> AuditRequest {
    AuditRequest::new(0.05).with_worlds(99).with_seed(seed)
}

fn line_for(handle: u64, request: AuditRequest) -> String {
    RequestEnvelope::new(DatasetHandle(handle), request).to_json()
}

/// The mixed request stream every transcript test replays: cold audits
/// under both worldgens, a warm repeat, a direction variant, a GeoJSON
/// rendering, an unknown handle, an invalid request, a malformed line,
/// and a blank line (which produces no response at all).
fn mixed_stream() -> Vec<String> {
    let r = request(1);
    let mut invalid = RequestEnvelope::new(DatasetHandle(0), r);
    invalid.request.alpha = 5.0;
    vec![
        line_for(0, r),
        line_for(0, r.with_worldgen(WorldGen::Scalar)),
        String::new(),
        line_for(0, r), // warm repeat: cache replay, identical bytes
        line_for(0, r.with_direction(Direction::High)),
        RequestEnvelope::new(DatasetHandle(0), r.with_seed(2))
            .with_geojson()
            .to_json(),
        line_for(7, r), // unknown handle
        invalid.to_json(),
        String::from("not json"),
    ]
}

/// What `experiments serve` would print for this stream — the
/// in-process reference path, reimplemented exactly (submit each line,
/// flush at EOF, one envelope per non-blank line in input order).
fn inprocess_transcript(lines: &[String]) -> Vec<String> {
    inprocess_transcript_over(&grid(), lines)
}

fn inprocess_transcript_over(regions: &RegionSet, lines: &[String]) -> Vec<String> {
    let mut service = AuditService::new();
    let handle = service
        .register(&outcomes(500, 3), regions, base())
        .unwrap();
    assert_eq!(handle, DatasetHandle(0));
    let mut fates = Vec::new();
    for line in lines {
        if line.trim().is_empty() {
            continue;
        }
        fates.push(service.submit_json(line));
    }
    service.flush();
    fates
        .into_iter()
        .map(|fate| match fate {
            Ok(ticket) => {
                let wants_geojson = service.geojson_requested(ticket);
                let envelope = ResponseEnvelope::ready(service.take(ticket).unwrap());
                if wants_geojson {
                    envelope.with_geojson_findings()
                } else {
                    envelope
                }
                .to_json()
            }
            Err(error) => ResponseEnvelope::rejected(&error).to_json(),
        })
        .collect()
}

fn live_server(config: ExecutorConfig) -> AuditTcpServer {
    live_server_over(&grid(), config)
}

fn live_server_over(regions: &RegionSet, config: ExecutorConfig) -> AuditTcpServer {
    let executor = Arc::new(NetExecutor::new(config, Arc::new(SystemClock::new())));
    executor
        .register(&outcomes(500, 3), regions, base())
        .unwrap();
    AuditTcpServer::bind("127.0.0.1:0", executor, Duration::from_millis(5)).unwrap()
}

/// A server that drains every request as it arrives, as a
/// closed-loop client needs.
fn immediate_server(regions: &RegionSet) -> AuditTcpServer {
    live_server_over(
        regions,
        ExecutorConfig {
            workers: 1,
            queue_capacity: None,
            policy: DrainPolicy::MaxPending(1),
            ..ExecutorConfig::default()
        },
    )
}

/// A closed-loop client on one connection: `TCP_NODELAY`, one write
/// per request line, the next line sent only after the previous
/// response has arrived in full.
struct ClosedLoop {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl ClosedLoop {
    fn connect(addr: std::net::SocketAddr) -> Self {
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        ClosedLoop { stream, reader }
    }

    fn roundtrip(&mut self, line: &str) -> String {
        write_line(&mut self.stream, line.to_string()).unwrap();
        let mut response = String::new();
        self.reader.read_line(&mut response).unwrap();
        assert!(response.ends_with('\n'), "a whole line arrived");
        response.pop();
        response
    }
}

/// One delayed ACK holds a stalled response back ≈40 ms.
const DELAYED_ACK: Duration = Duration::from_millis(40);

/// Sends `lines`, half-closes the write side, reads every response.
fn roundtrip(addr: std::net::SocketAddr, lines: &[String]) -> Vec<String> {
    let mut stream = TcpStream::connect(addr).unwrap();
    for line in lines {
        writeln!(stream, "{line}").unwrap();
    }
    stream.shutdown(Shutdown::Write).unwrap();
    BufReader::new(stream).lines().map(|l| l.unwrap()).collect()
}

#[test]
fn socket_responses_are_byte_identical_to_the_inprocess_path() {
    let stream = mixed_stream();
    let expected = inprocess_transcript(&stream);
    assert_eq!(expected.len(), 8, "one line per non-blank input");

    let server = live_server(ExecutorConfig {
        workers: 2,
        queue_capacity: None,
        policy: DrainPolicy::Manual,
        ..ExecutorConfig::default()
    });
    let addr = server.local_addr();

    // Three concurrent clients replay the same stream; every one of
    // them must read the same bytes the stdin path would print —
    // concurrency, shared caching, and batching are invisible.
    let clients: Vec<_> = (0..3)
        .map(|_| {
            let stream = stream.clone();
            std::thread::spawn(move || roundtrip(addr, &stream))
        })
        .collect();
    for client in clients {
        let transcript = client.join().unwrap();
        assert_eq!(transcript, expected);
    }

    let stats = server.shutdown();
    assert_eq!(stats.requests_served, 15, "5 accepted lines x 3 clients");
    // The three clients' identical world classes were deduplicated —
    // within a batch (shared) or across batches (replayed from the
    // session cache), depending on how the flushes interleaved.
    assert!(stats.worlds_shared() + stats.worlds_replayed > 0);
}

#[test]
fn overload_is_rejected_with_busy_envelopes_not_unbounded_queuing() {
    // Capacity 1 with manual drain: the first line occupies the only
    // slot until EOF, so every further line bounces with "busy".
    let server = live_server(ExecutorConfig {
        workers: 1,
        queue_capacity: Some(1),
        policy: DrainPolicy::Manual,
        ..ExecutorConfig::default()
    });
    let lines = vec![
        line_for(0, request(1)),
        line_for(0, request(2)),
        line_for(0, request(3)),
    ];
    let transcript = roundtrip(server.local_addr(), &lines);
    assert_eq!(transcript.len(), 3);

    let first = ResponseEnvelope::from_json(&transcript[0]).unwrap();
    assert_eq!(first.status, WireStatus::Ready);
    for line in &transcript[1..] {
        let envelope = ResponseEnvelope::from_json(line).unwrap();
        assert_eq!(envelope.status, WireStatus::Busy, "{line}");
        assert_eq!(envelope.code, Some(ErrorCode::Busy));
        assert_eq!(envelope.ticket, None, "busy burns no ticket");
        assert!(line.contains("\"status\":\"busy\""), "{line}");
    }

    let stats = server.shutdown();
    assert_eq!(stats.requests_served, 1);
}

#[test]
fn deadline_fires_under_the_timer_thread_without_test_sleeps() {
    // The server's timer thread polls tick_now() every 5ms, but the
    // executor reads a ManualClock — so the deadline expires exactly
    // when the test says so, never by wall time.
    let clock = Arc::new(ManualClock::new());
    let executor = Arc::new(NetExecutor::new(
        ExecutorConfig {
            workers: 2,
            queue_capacity: None,
            policy: DrainPolicy::Deadline(1_000),
            ..ExecutorConfig::default()
        },
        Arc::clone(&clock) as Arc<dyn Clock>,
    ));
    executor
        .register(&outcomes(500, 3), &grid(), base())
        .unwrap();
    let server = AuditTcpServer::bind(
        "127.0.0.1:0",
        Arc::clone(&executor),
        Duration::from_millis(5),
    )
    .unwrap();

    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    writeln!(stream, "{}", line_for(0, request(1))).unwrap();
    stream.flush().unwrap();

    // Give the reader ample real time to enqueue, and the timer many
    // tick cycles at clock 0: the job must still be pending, because
    // the *manual* clock has not reached the deadline.
    let waited = std::time::Instant::now();
    while executor.pending_total() == 0 && waited.elapsed() < Duration::from_secs(5) {
        std::thread::yield_now();
    }
    assert_eq!(executor.pending_total(), 1, "accepted and queued");
    std::thread::sleep(Duration::from_millis(50));
    assert_eq!(
        executor.pending_total(),
        1,
        "many timer ticks at clock 0 drain nothing"
    );

    // Advance the injected clock past the deadline; the next timer
    // tick promotes and a worker serves. The blocking read is the
    // synchronisation — no sleep-and-hope on the serving side.
    clock.set(1_000);
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let envelope = ResponseEnvelope::from_json(line.trim()).unwrap();
    assert_eq!(envelope.status, WireStatus::Ready);

    // The drain latency was measured on the manual clock: submitted
    // at 0, drained at 1000.
    let stats = executor.stats();
    assert_eq!(stats.drain_samples, 1);
    assert_eq!(stats.drain_p50, 1_000);

    stream.shutdown(Shutdown::Both).unwrap();
    server.shutdown();
}

#[test]
fn oversized_line_is_rejected_with_a_typed_envelope_and_the_connection_closes() {
    // A client streams one line past the reader's byte cap. The server
    // must answer with a single typed `malformed` rejection naming the
    // cap and then close the connection — never buffer the line
    // without bound, never resynchronise mid-line.
    let server = live_server(ExecutorConfig {
        workers: 1,
        queue_capacity: None,
        policy: DrainPolicy::Manual,
        ..ExecutorConfig::default()
    });
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();

    // One unterminated line just past the cap. The server may reject
    // and close while we are still writing, so tolerate a broken pipe
    // on the tail — the read side of our socket stays valid.
    let chunk = vec![b'x'; 64 * 1024];
    let mut sent = 0usize;
    while sent <= MAX_LINE_BYTES {
        if stream.write_all(&chunk).is_err() {
            break;
        }
        sent += chunk.len();
    }
    let _ = stream.write_all(b"\n");
    let _ = stream.flush();

    let transcript: Vec<String> = BufReader::new(stream)
        .lines()
        .map_while(|l| l.ok())
        .collect();
    assert_eq!(transcript.len(), 1, "exactly one rejection, then EOF");
    let envelope = ResponseEnvelope::from_json(&transcript[0]).unwrap();
    assert_eq!(envelope.status, WireStatus::Rejected);
    assert_eq!(envelope.code, Some(ErrorCode::Malformed));
    assert_eq!(envelope.ticket, None);
    assert!(
        transcript[0].contains(&MAX_LINE_BYTES.to_string()),
        "the rejection names the byte cap: {}",
        transcript[0]
    );

    let stats = server.shutdown();
    assert_eq!(stats.requests_served, 0, "nothing was accepted");
}

#[test]
fn hostile_mix_gets_exactly_one_typed_reply_per_line_in_order() {
    // One connection carries a valid request, the metrics probe and
    // every kind of hostile line the decoder has to survive. Each
    // non-blank line gets one typed reply, in input order, and the
    // whole exchange stays fast even in a debug build: the 900 KB
    // string is parsed in linear time.
    let server = live_server(ExecutorConfig {
        workers: 1,
        queue_capacity: None,
        policy: DrainPolicy::MaxPending(1),
        ..ExecutorConfig::default()
    });
    let huge_string = format!(
        "{{\"handle\":0,\"request\":\"{}\"}}",
        "é".repeat(150_000) + &"x".repeat(600_000)
    );
    assert!(huge_string.len() > 880_000 && huge_string.len() < MAX_LINE_BYTES);
    let too_many_worlds =
        line_for(0, request(1)).replace("\"worlds\":99", "\"worlds\":1000000000000");
    assert!(too_many_worlds.contains("1000000000000"));
    let lines = vec![
        line_for(0, request(1)),
        String::from("{\"stats\":true}"),
        String::from("not json"),
        "[".repeat(800_000),
        huge_string,
        line_for(7, request(1)),
        too_many_worlds,
        String::new(),
    ];
    let start = Instant::now();
    let transcript = roundtrip(server.local_addr(), &lines);
    let elapsed = start.elapsed();

    let expected: [(WireStatus, Option<ErrorCode>); 7] = [
        (WireStatus::Ready, None),
        (WireStatus::Stats, None),
        (WireStatus::Rejected, Some(ErrorCode::Malformed)),
        (WireStatus::Rejected, Some(ErrorCode::Malformed)),
        (WireStatus::Rejected, Some(ErrorCode::Malformed)),
        (WireStatus::Rejected, Some(ErrorCode::UnknownHandle)),
        (WireStatus::Rejected, Some(ErrorCode::InvalidRequest)),
    ];
    assert_eq!(
        transcript.len(),
        expected.len(),
        "one reply per non-blank line"
    );
    for (i, (line, (status, code))) in transcript.iter().zip(expected).enumerate() {
        let envelope = ResponseEnvelope::from_json(line)
            .unwrap_or_else(|e| panic!("reply {i} is not an envelope ({e}): {line:.200}"));
        assert_eq!(
            (envelope.status, envelope.code),
            (status, code),
            "reply {i}"
        );
    }
    assert!(
        elapsed < Duration::from_secs(2),
        "the hostile mix took {elapsed:?}"
    );
    let stats = server.shutdown();
    assert_eq!(stats.requests_served, 1);
}

#[test]
fn stats_probe_lines_are_answered_inline_without_burning_tickets() {
    // `{"stats":true}` probes interleave with a real request; each
    // probe is answered in input order with a snapshot envelope, and
    // the real request's ticket numbering is unperturbed.
    let server = live_server(ExecutorConfig {
        workers: 1,
        queue_capacity: None,
        policy: DrainPolicy::Manual,
        ..ExecutorConfig::default()
    });
    let lines = vec![
        String::from(r#"{"stats":true}"#),
        line_for(0, request(1)),
        String::from(r#"{"stats":true}"#),
    ];
    let transcript = roundtrip(server.local_addr(), &lines);
    assert_eq!(transcript.len(), 3, "one response per line, in order");

    let cold = ResponseEnvelope::from_json(&transcript[0]).unwrap();
    assert_eq!(cold.status, WireStatus::Stats);
    assert_eq!(cold.ticket, None, "a probe burns no ticket");
    assert_eq!(
        cold.stats.unwrap().requests_served,
        0,
        "probed before any audit ran"
    );
    assert!(cold.cache.is_some());

    let audit = ResponseEnvelope::from_json(&transcript[1]).unwrap();
    assert_eq!(audit.status, WireStatus::Ready);
    assert_eq!(
        audit.ticket,
        Some(sfserve::Ticket(0)),
        "first real ticket is still 0"
    );

    // The trailing probe was answered inline at receipt — before the
    // EOF drain ran the audit — so it still reads zero served. Its
    // placement in the transcript (after the audit's response) is
    // sink ordering, not execution ordering.
    let warm = ResponseEnvelope::from_json(&transcript[2]).unwrap();
    assert_eq!(warm.status, WireStatus::Stats);
    assert!(warm.stats.is_some() && warm.cache.is_some());

    let stats = server.shutdown();
    assert_eq!(stats.requests_served, 1, "only the audit line was served");
}

#[test]
fn graceful_shutdown_answers_every_accepted_ticket() {
    // Manual drain and no client EOF: five accepted submissions sit
    // queued until the server itself shuts down. Graceful shutdown
    // must drain and deliver all five before closing — no lost
    // tickets.
    let server = live_server(ExecutorConfig {
        workers: 2,
        queue_capacity: None,
        policy: DrainPolicy::Manual,
        ..ExecutorConfig::default()
    });
    let addr = server.local_addr();
    let executor = Arc::clone(server.executor());

    let stream = TcpStream::connect(addr).unwrap();
    {
        let mut w = stream.try_clone().unwrap();
        for seed in 0..5 {
            writeln!(w, "{}", line_for(0, request(seed))).unwrap();
        }
        w.flush().unwrap();
        // No write-side shutdown: the connection stays open, nothing
        // drains on its own.
    }
    let reader = std::thread::spawn(move || {
        BufReader::new(stream)
            .lines()
            .map_while(|l| l.ok())
            .collect::<Vec<String>>()
    });

    // Wait until all five are queued server-side, then pull the plug.
    let waited = std::time::Instant::now();
    while executor.pending_total() < 5 && waited.elapsed() < Duration::from_secs(5) {
        std::thread::yield_now();
    }
    assert_eq!(executor.pending_total(), 5);
    let stats = server.shutdown();

    let transcript = reader.join().unwrap();
    assert_eq!(transcript.len(), 5, "every accepted ticket answered");
    for (i, line) in transcript.iter().enumerate() {
        let envelope = ResponseEnvelope::from_json(line).unwrap();
        assert_eq!(envelope.status, WireStatus::Ready, "{line}");
        assert_eq!(envelope.ticket, Some(sfserve::Ticket(i as u64)));
    }
    assert_eq!(stats.requests_served, 5);
    assert_eq!(stats.queue_depth, 0);
    assert_eq!(stats.drain_samples, 5);
}

#[test]
fn eof_waits_only_for_the_connections_own_responses() {
    // One worker, manual drain. Connection A pipelines slow 999-world
    // audits that sit queued; connection B sends only a stats probe
    // and half-closes. B's EOF makes A's queue runnable too, but B
    // must get its reply and its EOF while A's responses are still
    // outstanding — not after the whole executor has drained.
    let server = live_server(ExecutorConfig {
        workers: 1,
        queue_capacity: None,
        policy: DrainPolicy::Manual,
        ..ExecutorConfig::default()
    });
    let addr = server.local_addr();
    let executor = Arc::clone(server.executor());

    let slow = 120;
    let mut a = TcpStream::connect(addr).unwrap();
    for seed in 0..slow {
        let line = line_for(0, request(100 + seed).with_worlds(999));
        writeln!(a, "{line}").unwrap();
    }
    a.flush().unwrap();
    let waited = Instant::now();
    while executor.pending_total() < slow as usize && waited.elapsed() < Duration::from_secs(10) {
        std::thread::yield_now();
    }
    assert_eq!(
        executor.pending_total(),
        slow as usize,
        "A's audits are queued"
    );

    let probe = roundtrip(addr, &[String::from(r#"{"stats":true}"#)]);
    let served = executor.stats().requests_served;
    assert_eq!(probe.len(), 1, "one reply, then EOF");
    let reply = ResponseEnvelope::from_json(&probe[0]).unwrap();
    assert_eq!(reply.status, WireStatus::Stats);
    assert!(
        served < slow,
        "B's EOF waited until all {served} of A's audits were served"
    );

    a.shutdown(Shutdown::Write).unwrap();
    let transcript: Vec<String> = BufReader::new(a).lines().map(|l| l.unwrap()).collect();
    assert_eq!(transcript.len(), slow as usize, "A gets every response");
    for line in &transcript {
        let envelope = ResponseEnvelope::from_json(line).unwrap();
        assert_eq!(envelope.status, WireStatus::Ready, "{line}");
    }
    assert_eq!(server.shutdown().requests_served, slow);
}

/// Runs `1 + trips` round trips of `line` on one closed-loop
/// connection, each checked against the in-process transcript, and
/// returns the time the `trips` after the first (cache-priming) one
/// took.
fn timed_warm_round_trips(regions: &RegionSet, line: &str, trips: u32) -> Duration {
    let expected = inprocess_transcript_over(regions, &vec![line.to_string(); 1 + trips as usize]);
    let server = immediate_server(regions);
    let mut client = ClosedLoop::connect(server.local_addr());
    assert_eq!(client.roundtrip(line), expected[0]);
    let start = Instant::now();
    for expected in &expected[1..] {
        assert_eq!(&client.roundtrip(line), expected, "intact and in order");
    }
    let elapsed = start.elapsed();
    drop(client);
    assert_eq!(server.shutdown().requests_served, 1 + u64::from(trips));
    elapsed
}

#[test]
fn warm_round_trips_have_no_delayed_ack_stall() {
    // 999 worlds render a response well past one 8 KiB write buffer,
    // the size at which a response split from its newline stalls.
    let line = line_for(0, request(1).with_worlds(999));
    let bytes = inprocess_transcript(std::slice::from_ref(&line))[0].len();
    assert!(bytes > 8 * 1024, "{bytes} bytes");

    // With the stall every round trip costs a delayed ACK, ≈1 s for
    // 25 of them; without it each is a cache replay.
    let trips = 25;
    let elapsed = timed_warm_round_trips(&grid(), &line, trips);
    assert!(
        elapsed < DELAYED_ACK * trips / 4,
        "{trips} warm round trips took {elapsed:?}"
    );
}

#[test]
fn large_response_lines_have_no_delayed_ack_stall() {
    // A 32x32 grid with GeoJSON findings and 3,999 simulated τ
    // values: one response line larger than a loopback segment, so it
    // leaves in several segments.
    let regions = RegionSet::regular_grid(Rect::from_coords(0.0, 0.0, 10.0, 10.0), 32, 32);
    let line = RequestEnvelope::new(DatasetHandle(0), request(1).with_worlds(3_999))
        .with_geojson()
        .to_json();
    let bytes = inprocess_transcript_over(&regions, std::slice::from_ref(&line))[0].len();
    assert!(bytes > 64 * 1024, "{bytes} bytes");

    let trips = 5;
    let elapsed = timed_warm_round_trips(&regions, &line, trips);
    assert!(
        elapsed < DELAYED_ACK * trips,
        "{trips} warm {bytes}-byte round trips took {elapsed:?}"
    );
}
