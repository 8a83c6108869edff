//! The TCP front end: accept loop, per-connection reader/writer
//! threads, and the timer thread that drives deadline drains.
//!
//! Framing is the existing JSONL wire — newline-delimited
//! [`RequestEnvelope`](sfserve::RequestEnvelope) lines in,
//! [`ResponseEnvelope`](sfserve::ResponseEnvelope) lines out, one
//! response per non-blank request line, in request order. A client
//! that half-closes its write side (`nc -N`, or
//! `experiments serve --connect` at stdin EOF) makes every queued job
//! runnable, as the stdin path's EOF drain does, then receives every
//! response it is owed before the server closes the connection. It
//! does not wait for other connections' queued work.
//!
//! Every response line leaves in **one write**, its `\n` included
//! ([`write_line`]), and every accepted socket sets **`TCP_NODELAY`**.
//! Without both, a closed-loop client stalls ≈40 ms per request: a
//! line written as payload plus a separate 1-byte `\n` — or any
//! write whose tail is shorter than a segment — leaves a small
//! segment that Nagle's algorithm holds until the peer ACKs the data
//! before it, and the peer delays that ACK (≈40 ms on Linux) because
//! it is still waiting for the newline that ends the line. Clients
//! should frame their request lines the same way.
//!
//! Threading model (std::net only — no async runtime, no new deps):
//!
//! ```text
//! accept thread ──► per-connection reader ──► NetExecutor queues
//!                   per-connection writer ◄── worker pool (sinks)
//! timer thread  ──► executor.tick_now() every tick_interval
//! ```
//!
//! Shutdown ([`AuditTcpServer::shutdown`]) is graceful by
//! construction: stop accepting (the flag plus a self-connect to wake
//! the blocking `accept`), let every reader reach EOF or notice the
//! flag, drain all accepted jobs via the executor's own shutdown
//! (which promotes and executes everything), join the connection
//! threads — every writer has by then delivered every owed line — and
//! return the final [`ServerStats`].

use crate::executor::{ConnDriver, NetExecutor};
use sfserve::ServerStats;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// How often the reader polls the shutdown flag while its socket is
/// idle. Purely a responsiveness knob: a partial line survives the
/// timeout untouched, so slow writers are never corrupted.
const READ_POLL: Duration = Duration::from_millis(50);

/// Longest request line a connection may send (including the
/// newline). A line that grows past this — terminated or not — is
/// answered with a typed `Malformed` rejection envelope and the
/// connection is closed, instead of the reader's buffer growing
/// without bound. Matches the shard workers' bound.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// A live TCP audit server.
pub struct AuditTcpServer {
    executor: Arc<NetExecutor>,
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_handle: Option<std::thread::JoinHandle<()>>,
    timer_handle: Option<std::thread::JoinHandle<()>>,
    conns: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
}

impl AuditTcpServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts serving the executor's registered sessions. The timer
    /// thread calls [`NetExecutor::tick_now`] every `tick_interval` —
    /// reading the executor's injected [`Clock`](crate::Clock) — which
    /// is what makes
    /// [`DrainPolicy::Deadline`](sfserve::DrainPolicy::Deadline) fire
    /// on wall time.
    pub fn bind(
        addr: &str,
        executor: Arc<NetExecutor>,
        tick_interval: Duration,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let conns: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));

        let accept_handle = {
            let executor = Arc::clone(&executor);
            let shutdown = Arc::clone(&shutdown);
            let conns = Arc::clone(&conns);
            std::thread::spawn(move || {
                for stream in listener.incoming() {
                    if shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    let executor = Arc::clone(&executor);
                    let shutdown = Arc::clone(&shutdown);
                    let handle =
                        std::thread::spawn(move || serve_connection(stream, &executor, &shutdown));
                    // Join the connections that have closed since the
                    // last accept, so a long-lived server holds one
                    // handle per live connection, not one per
                    // connection ever accepted.
                    let mut conns = conns
                        .lock()
                        .expect("no thread panics holding the connection list");
                    let (finished, live): (Vec<_>, Vec<_>) = std::mem::take(&mut *conns)
                        .into_iter()
                        .partition(|h| h.is_finished());
                    *conns = live;
                    conns.push(handle);
                    drop(conns);
                    for handle in finished {
                        let _ = handle.join();
                    }
                }
            })
        };

        let timer_handle = {
            let executor = Arc::clone(&executor);
            let shutdown = Arc::clone(&shutdown);
            std::thread::spawn(move || {
                while !shutdown.load(Ordering::SeqCst) {
                    std::thread::sleep(tick_interval);
                    executor.tick_now();
                }
            })
        };

        Ok(AuditTcpServer {
            executor,
            local_addr,
            shutdown,
            accept_handle: Some(accept_handle),
            timer_handle: Some(timer_handle),
            conns,
        })
    }

    /// The bound address (resolves `:0` to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The executor behind the listener.
    pub fn executor(&self) -> &Arc<NetExecutor> {
        &self.executor
    }

    /// Graceful stop: no new connections, every accepted submission
    /// drained and answered, all threads joined. Returns the final
    /// cumulative stats.
    pub fn shutdown(mut self) -> ServerStats {
        self.stop();
        self.executor.stats()
    }

    fn stop(&mut self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wake the blocking accept() with a throwaway connection; the
        // loop re-checks the flag before handling it.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(handle) = self.accept_handle.take() {
            let _ = handle.join();
        }
        if let Some(handle) = self.timer_handle.take() {
            let _ = handle.join();
        }
        // Readers notice the flag within READ_POLL, seal their sinks,
        // and trigger the drain; joining the connection threads means
        // every owed response line has been written.
        let conns: Vec<_> = self.conns.lock().unwrap().drain(..).collect();
        for handle in conns {
            let _ = handle.join();
        }
        // Belt and braces: nothing above can have left a job queued,
        // but the executor's own shutdown re-drains and joins workers.
        self.executor.shutdown();
    }
}

impl Drop for AuditTcpServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Writes `line` and its terminating `\n` in a single `write_all`.
/// The newline is appended to the owned line, so a multi-KB response
/// is not copied into a second buffer first. With
/// `TCP_NODELAY` on the socket this leaves no small trailing segment
/// for Nagle's algorithm to hold back; see the module docs.
pub fn write_line(out: &mut impl Write, mut line: String) -> std::io::Result<()> {
    line.push('\n');
    out.write_all(line.as_bytes())
}

/// One connection, two threads: this (reader) thread feeds request
/// lines to the executor; the spawned writer thread emits response
/// lines in input order as they complete.
fn serve_connection(stream: TcpStream, executor: &Arc<NetExecutor>, shutdown: &Arc<AtomicBool>) {
    let mut driver = ConnDriver::new();
    let sink = driver.sink();
    // Best effort: without it responses still arrive, only late.
    let _ = stream.set_nodelay(true);

    let writer_handle = {
        let mut out = match stream.try_clone() {
            Ok(clone) => clone,
            Err(_) => return,
        };
        std::thread::spawn(move || {
            let mut seq = 0u64;
            while let Some(line) = sink.pop_next(seq) {
                seq += 1;
                // A failed write means the peer is gone: keep draining
                // the sink so completed jobs never block on a dead
                // connection.
                let _ = write_line(&mut out, line);
            }
        })
    };

    // Poll reads so a server shutdown is noticed on an idle socket.
    // Crucially, a timeout does NOT clear `line`: the bounded reader
    // appends whatever bytes arrived before the timeout, and the next
    // iteration keeps accumulating until the newline lands — or the
    // [`MAX_LINE_BYTES`] cap trips and the connection is rejected.
    let _ = stream.set_read_timeout(Some(READ_POLL));
    let mut reader = BufReader::new(stream);
    let mut line = Vec::new();
    loop {
        match read_bounded_line(&mut reader, &mut line) {
            Ok(0) => break, // EOF: client half-closed its write side.
            Ok(_) => {
                if line.ends_with(b"\n") {
                    driver.handle_line(executor, &String::from_utf8_lossy(&line));
                    line.clear();
                }
                // No newline yet: a partial final line; keep reading.
                // A true EOF next iteration returns Ok(0) and the
                // partial line is handled below.
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                if shutdown.load(Ordering::SeqCst) {
                    break;
                }
            }
            Err(e) if e.kind() == ErrorKind::InvalidData => {
                // Oversized line: one typed rejection envelope, then
                // hang up — resynchronising mid-line would silently
                // split one request into two.
                driver.reject_oversized(MAX_LINE_BYTES);
                line.clear();
                break;
            }
            Err(_) => break,
        }
    }
    if !line.is_empty() {
        // Final line without a trailing newline still gets an answer.
        driver.handle_line(executor, &String::from_utf8_lossy(&line));
    }

    // EOF drain: every queued job becomes runnable, as on the stdin
    // path, but the connection waits only for its own lines — the
    // writer ends once it has delivered every line the sealed sink
    // owes — and not for other connections' work.
    driver.finish();
    executor.promote_all();
    let _ = writer_handle.join();
}

/// Appends raw bytes to `line` until a newline, EOF, poll timeout, or
/// the [`MAX_LINE_BYTES`] cap. Mirrors `BufRead::read_until`'s contract
/// (returns bytes appended this call, `0` at EOF, partial data
/// survives a timeout) but checks the cap per buffer fill, so a
/// client streaming one endless line errors with `InvalidData` the
/// moment the cap is crossed instead of growing the buffer without
/// bound inside a single `read_until` call.
///
/// A poll timeout returns: `Ok(n)` with the bytes that arrived before
/// it, or the timeout error if none did. Either way `line` keeps the
/// partial line, and the caller checks its stop flags before calling
/// again — a client that sends half a line and goes quiet cannot pin
/// the caller inside this function. A complete line ends with `\n`.
///
/// The caller decodes the line once it is complete (or at EOF), so a
/// multi-byte character split across two buffer fills, or across a
/// timeout, survives intact.
pub fn read_bounded_line<R: BufRead>(reader: &mut R, line: &mut Vec<u8>) -> std::io::Result<usize> {
    let mut appended = 0usize;
    loop {
        let available = match reader.fill_buf() {
            Ok(buf) => buf,
            // Mid-line timeout: report what arrived; the caller keeps
            // `line` and the next call continues accumulating.
            Err(e) if appended > 0 => {
                let timed_out =
                    e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut;
                return if timed_out { Ok(appended) } else { Err(e) };
            }
            Err(e) => return Err(e),
        };
        if available.is_empty() {
            return Ok(appended); // EOF (possibly mid-line).
        }
        let (used, done) = match available.iter().position(|&b| b == b'\n') {
            Some(i) => (i + 1, true),
            None => (available.len(), false),
        };
        if line.len() + used > MAX_LINE_BYTES {
            reader.consume(used);
            return Err(std::io::Error::new(ErrorKind::InvalidData, "line too long"));
        }
        line.extend_from_slice(&available[..used]);
        reader.consume(used);
        appended += used;
        if done {
            return Ok(appended);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ExecutorConfig, SystemClock};
    use std::io::Read;

    #[test]
    fn a_character_split_across_buffer_fills_reads_back_intact() {
        let text = "{\"x\":\"é\"}\n";
        // Seven bytes per fill splits the two bytes of `é`.
        let mut reader = BufReader::with_capacity(7, text.as_bytes());
        let mut line = Vec::new();
        assert_eq!(
            read_bounded_line(&mut reader, &mut line).unwrap(),
            text.len()
        );
        assert_eq!(String::from_utf8_lossy(&line), text);
    }

    #[test]
    fn closed_connections_are_joined_at_the_next_accept() {
        let executor = Arc::new(NetExecutor::new(
            ExecutorConfig::default(),
            Arc::new(SystemClock::new()),
        ));
        let server = AuditTcpServer::bind("127.0.0.1:0", executor, Duration::from_millis(5))
            .expect("loopback bind");
        let all_finished = || {
            let conns = server.conns.lock().unwrap();
            conns.iter().all(|h| h.is_finished())
        };
        for round in 0..50 {
            let mut stream = TcpStream::connect(server.local_addr()).unwrap();
            write_line(&mut stream, String::from("{\"stats\":true}")).unwrap();
            stream.shutdown(std::net::Shutdown::Write).unwrap();
            let mut reply = String::new();
            stream.read_to_string(&mut reply).unwrap();
            assert!(reply.contains("\"status\":\"stats\""), "{reply}");
            drop(stream);
            // No connection is live now; only the one just accepted may
            // still be held, and the next accept reaps it.
            let retained = server.conns.lock().unwrap().len();
            assert!(retained <= 1, "round {round}: {retained} handles retained");
            let waited = std::time::Instant::now();
            while !all_finished() && waited.elapsed() < Duration::from_secs(5) {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    }
}
