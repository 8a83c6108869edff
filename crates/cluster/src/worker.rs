//! The shard worker: a TCP process serving count-partial spans.
//!
//! A worker wraps one [`SpanCounter`] behind the same newline-delimited
//! JSON framing the `sfnet` audit server speaks: one request line in,
//! one reply line out, per connection, in order. Every non-blank line
//! gets exactly one typed reply — a line that does not decode gets a
//! `malformed request` error and the connection stays open — while a
//! line that trims to nothing gets no reply and counts as no request,
//! as on the audit server. Workers are
//! stateless between requests — any worker can serve any span of any
//! word window, which is what lets the coordinator re-dispatch a
//! failed shard's span to a different worker (or compute it locally)
//! and still reduce bit-identical partials.
//!
//! A [`FaultPlan`] injects deterministic failures for the robustness
//! tests: delays, dropped connections, corrupt replies, and full
//! worker death (stop accepting, sever every connection).

use crate::compute::{SpanCounter, SpanSpec};
use crate::fault::FaultPlan;
use crate::wire::{WorkerReply, WorkerRequest, WorkerStats, PROTOCOL_VERSION};
use sfnet::read_bounded_line;
use std::io::{BufReader, ErrorKind, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Longest request line a worker accepts: the audit server's bound,
/// since both read through [`sfnet::read_bounded_line`] — anything
/// longer is answered with an error and the connection closed.
pub const MAX_LINE_BYTES: usize = sfnet::MAX_LINE_BYTES;

/// Poll interval for connection reads (bounds stop-flag latency).
const READ_POLL: Duration = Duration::from_millis(20);

#[derive(Debug, Default)]
struct StatCells {
    requests: AtomicU64,
    spans: AtomicU64,
    worlds: AtomicU64,
    errors: AtomicU64,
    faults_injected: AtomicU64,
}

impl StatCells {
    fn snapshot(&self) -> WorkerStats {
        WorkerStats {
            requests: self.requests.load(Ordering::SeqCst),
            spans: self.spans.load(Ordering::SeqCst),
            worlds: self.worlds.load(Ordering::SeqCst),
            errors: self.errors.load(Ordering::SeqCst),
            faults_injected: self.faults_injected.load(Ordering::SeqCst),
        }
    }
}

/// A running shard worker (see module docs). Dropping the handle does
/// not stop the worker; call [`ShardWorker::shutdown`].
#[derive(Debug)]
pub struct ShardWorker {
    local_addr: std::net::SocketAddr,
    stop: Arc<AtomicBool>,
    killed: Arc<AtomicBool>,
    stats: Arc<StatCells>,
    accept_thread: Option<JoinHandle<()>>,
}

/// Everything a connection thread needs, shared via `Arc`.
#[derive(Debug)]
struct WorkerShared {
    counter: Arc<SpanCounter>,
    fault: Arc<FaultPlan>,
    stats: Arc<StatCells>,
    stop: Arc<AtomicBool>,
    killed: Arc<AtomicBool>,
}

impl ShardWorker {
    /// Binds `addr` (e.g. `"127.0.0.1:0"`) and starts serving.
    pub fn bind(
        addr: &str,
        counter: Arc<SpanCounter>,
        fault: Arc<FaultPlan>,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let killed = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(StatCells::default());
        let shared = Arc::new(WorkerShared {
            counter,
            fault,
            stats: stats.clone(),
            stop: stop.clone(),
            killed: killed.clone(),
        });
        let accept_thread = std::thread::spawn(move || accept_loop(listener, shared));
        Ok(ShardWorker {
            local_addr,
            stop,
            killed,
            stats,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (for `"…:0"` binds).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.local_addr
    }

    /// Whether a `kill-after` fault has fired (the worker no longer
    /// accepts or serves).
    pub fn is_killed(&self) -> bool {
        self.killed.load(Ordering::SeqCst)
    }

    /// Counter snapshot.
    pub fn stats(&self) -> WorkerStats {
        self.stats.snapshot()
    }

    /// Stops accepting, severs connections, and joins the accept
    /// thread. Idempotent.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }

    /// Blocks until the worker stops (shutdown op, kill fault, or
    /// [`ShardWorker::shutdown`] from another thread).
    pub fn join(&mut self) {
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for ShardWorker {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<WorkerShared>) {
    let mut conn_threads: Vec<JoinHandle<()>> = Vec::new();
    while !shared.stop.load(Ordering::SeqCst) && !shared.killed.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let shared = shared.clone();
                conn_threads.push(std::thread::spawn(move || serve_conn(stream, &shared)));
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(READ_POLL);
            }
            Err(_) => break,
        }
        conn_threads.retain(|t| !t.is_finished());
    }
    // Connection threads observe the stop/killed flags within one
    // poll interval; joining bounds shutdown instead of leaking them.
    for t in conn_threads {
        let _ = t.join();
    }
}

/// Serves one connection until EOF, stop, kill, or an injected drop.
fn serve_conn(stream: TcpStream, shared: &WorkerShared) {
    if stream.set_read_timeout(Some(READ_POLL)).is_err() {
        return;
    }
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    // A poll timeout keeps a partial line in `line` and comes back
    // here, so the stop and kill flags are checked at least once per
    // poll interval even while a client holds a half-sent line.
    let mut line = Vec::new();
    loop {
        if shared.stop.load(Ordering::SeqCst) || shared.killed.load(Ordering::SeqCst) {
            return;
        }
        let eof = match read_bounded_line(&mut reader, &mut line) {
            Ok(0) => true,
            Ok(_) if line.ends_with(b"\n") => false,
            // Partial line: keep accumulating.
            Ok(_) => continue,
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                continue
            }
            Err(e) if e.kind() == ErrorKind::InvalidData => {
                // Oversized line: typed error, then hang up.
                let reply = WorkerReply::Err {
                    id: None,
                    error: format!("request line exceeds {MAX_LINE_BYTES} bytes"),
                };
                shared.stats.errors.fetch_add(1, Ordering::SeqCst);
                let _ = writeln!(writer, "{}", reply.to_json());
                return;
            }
            Err(_) => return,
        };
        // An unterminated final line before EOF still gets an answer.
        let text = String::from_utf8_lossy(&line);
        let trimmed = text.trim();
        if !trimmed.is_empty() && !serve_line(trimmed, &mut writer, shared) {
            return;
        }
        if eof {
            return;
        }
        line.clear();
    }
}

/// Decodes and serves one request line. Returns `false` when the
/// connection must close (drop fault, kill, shutdown op, write error).
fn serve_line(line: &str, writer: &mut TcpStream, shared: &WorkerShared) -> bool {
    shared.stats.requests.fetch_add(1, Ordering::SeqCst);
    let action = shared.fault.next_request();
    if action.is_fault() {
        shared.stats.faults_injected.fetch_add(1, Ordering::SeqCst);
    }
    if action.delay_ms > 0 {
        std::thread::sleep(Duration::from_millis(action.delay_ms));
    }
    if action.drop_connection {
        return false;
    }
    let reply = match WorkerRequest::from_json(line) {
        Ok(WorkerRequest::Hello) => WorkerReply::Hello {
            version: PROTOCOL_VERSION,
            num_points: shared.counter.num_points() as u64,
            num_regions: shared.counter.num_regions() as u64,
            num_words: shared.counter.num_label_words() as u64,
        },
        Ok(WorkerRequest::Stats) => WorkerReply::Stats(shared.stats.snapshot()),
        Ok(WorkerRequest::Shutdown) => {
            shared.stop.store(true, Ordering::SeqCst);
            return false;
        }
        Ok(WorkerRequest::Count(c)) => match shared.counter.count_span(SpanSpec {
            null_model: c.null_model,
            worldgen: c.worldgen,
            seed: c.seed,
            first: c.first as usize,
            count: c.count as usize,
            word_lo: c.word_lo as usize,
            word_hi: c.word_hi as usize,
        }) {
            Ok(partials) => {
                shared.stats.spans.fetch_add(1, Ordering::SeqCst);
                shared.stats.worlds.fetch_add(c.count, Ordering::SeqCst);
                WorkerReply::Count {
                    id: c.id,
                    counts: partials.counts,
                    p_partials: partials.p_partials,
                }
            }
            Err(e) => {
                shared.stats.errors.fetch_add(1, Ordering::SeqCst);
                WorkerReply::Err {
                    id: Some(c.id),
                    error: e.to_string(),
                }
            }
        },
        Err(e) => {
            shared.stats.errors.fetch_add(1, Ordering::SeqCst);
            WorkerReply::Err {
                id: None,
                error: format!("malformed request: {}", e.message),
            }
        }
    };
    let wire = if action.corrupt_reply {
        // A truncated prefix of the real reply: decodes on no parser,
        // exercising the coordinator's corrupt-reply re-dispatch.
        let full = reply.to_json();
        full[..full.len() / 2].to_string()
    } else {
        reply.to_json()
    };
    if writeln!(writer, "{wire}").is_err() || writer.flush().is_err() {
        return false;
    }
    if action.kill_after {
        shared.killed.store(true, Ordering::SeqCst);
        return false;
    }
    true
}
