//! One protocol connection: an eager reader thread feeding a bounded
//! event channel, and a driver loop that admits, executes and answers
//! requests.
//!
//! The reader thread exists for two reasons. First, the line cap: lines
//! are read through [`read_capped_line`], so a malicious client cannot
//! grow daemon memory without bound — an oversized line becomes one
//! `Oversized` event (status-1 response, connection survives). Second,
//! disconnect detection: the reader observes the socket's EOF the moment
//! the client vanishes, even while the driver is deep in a solve, and
//! cancels the in-flight request's token — the daemon stops computing
//! into a dead pipe instead of finishing a bound nobody will read. On
//! stdin EOF is the *normal* end of input (`echo req | cinderella serve`
//! must still answer), so stdin connections never cancel on EOF.

use super::Daemon;
use ipet_lp::CancelToken;
use ipet_trace::Json;
use std::io::{BufRead, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Request lines beyond this many bytes are refused (satellite of the
/// overload story: bounded queues *and* bounded lines).
pub(crate) const MAX_LINE_BYTES: usize = 1 << 20;

/// How many parsed-but-unprocessed lines the reader may buffer ahead.
/// Bounded so a pipelining client exerts backpressure on its own socket
/// instead of growing the daemon's heap.
const READ_AHEAD: usize = 64;

pub(crate) enum Event {
    Line(String),
    /// A line exceeded [`MAX_LINE_BYTES`]; its content was discarded.
    Oversized,
    Eof,
    /// Read error — treated like EOF except it always means the client is
    /// gone, never normal end of input.
    Gone,
}

/// State shared between a connection's driver and its reader thread.
pub(crate) struct ConnShared {
    /// True once the peer is known to be unreachable.
    gone: AtomicBool,
    /// The in-flight request's cancellation token, when one is running.
    current: Mutex<Option<CancelToken>>,
    /// Whether EOF means "client vanished" (sockets) or "end of input"
    /// (stdin).
    cancel_on_eof: bool,
}

impl ConnShared {
    pub fn new(cancel_on_eof: bool) -> Arc<ConnShared> {
        Arc::new(ConnShared {
            gone: AtomicBool::new(false),
            current: Mutex::new(None),
            cancel_on_eof,
        })
    }

    pub fn is_gone(&self) -> bool {
        self.gone.load(Ordering::Acquire)
    }

    fn mark_gone(&self) {
        self.gone.store(true, Ordering::Release);
        if let Some(token) = &*self.current.lock().expect("conn token") {
            token.cancel();
        }
    }

    fn set_current(&self, token: Option<CancelToken>) {
        let cancel_now = {
            let mut current = self.current.lock().expect("conn token");
            *current = token;
            // The client may have vanished before the token was installed.
            self.is_gone()
        };
        if cancel_now {
            self.mark_gone();
        }
    }
}

/// Reads one newline-terminated line, capping it at `cap` bytes. The
/// overflow is consumed (the stream stays line-synchronized) but never
/// buffered.
fn read_capped_line(reader: &mut impl BufRead, cap: usize) -> std::io::Result<Event> {
    let mut line: Vec<u8> = Vec::new();
    let mut over = false;
    loop {
        let buf = reader.fill_buf()?;
        if buf.is_empty() {
            // EOF. A final unterminated line still counts.
            return Ok(if over {
                Event::Oversized
            } else if line.is_empty() {
                Event::Eof
            } else {
                Event::Line(String::from_utf8_lossy(&line).into_owned())
            });
        }
        match buf.iter().position(|&b| b == b'\n') {
            Some(at) => {
                if !over && line.len() + at <= cap {
                    line.extend_from_slice(&buf[..at]);
                } else {
                    over = true;
                }
                reader.consume(at + 1);
                return Ok(if over {
                    Event::Oversized
                } else {
                    Event::Line(String::from_utf8_lossy(&line).into_owned())
                });
            }
            None => {
                let n = buf.len();
                if !over && line.len() + n <= cap {
                    line.extend_from_slice(buf);
                } else {
                    over = true;
                }
                reader.consume(n);
            }
        }
    }
}

/// Spawns the eager reader thread for one connection. The thread exits
/// when the stream ends or the driver hangs up the channel.
pub(crate) fn spawn_reader(
    mut reader: impl BufRead + Send + 'static,
    shared: Arc<ConnShared>,
) -> mpsc::Receiver<Event> {
    let (tx, rx) = mpsc::sync_channel::<Event>(READ_AHEAD);
    std::thread::Builder::new()
        .name("cinderella-conn-reader".into())
        .spawn(move || loop {
            match read_capped_line(&mut reader, MAX_LINE_BYTES) {
                Ok(Event::Eof) => {
                    if shared.cancel_on_eof {
                        shared.mark_gone();
                    }
                    let _ = tx.send(Event::Eof);
                    break;
                }
                Ok(event) => {
                    if tx.send(event).is_err() {
                        break; // driver closed the connection
                    }
                }
                Err(_) => {
                    shared.mark_gone();
                    let _ = tx.send(Event::Gone);
                    break;
                }
            }
        })
        .expect("spawn conn reader");
    rx
}

/// Why a connection ended.
#[derive(PartialEq)]
pub(crate) enum ConnEnd {
    /// Clean end of input.
    Eof,
    /// Client vanished (EOF mid-request, read error, or a failed write).
    Gone,
    /// The client asked the daemon to shut down.
    Shutdown,
    /// The daemon began draining; the connection was closed.
    Drained,
}

/// Drives one connection to completion: admit, execute, flush, answer.
pub(crate) fn drive(
    daemon: &Daemon,
    events: mpsc::Receiver<Event>,
    shared: &Arc<ConnShared>,
    out: &mut impl Write,
) -> ConnEnd {
    loop {
        if daemon.draining() {
            return ConnEnd::Drained;
        }
        let event = match events.recv_timeout(Duration::from_millis(50)) {
            Ok(event) => event,
            Err(mpsc::RecvTimeoutError::Timeout) => continue,
            Err(mpsc::RecvTimeoutError::Disconnected) => return ConnEnd::Eof,
        };
        match event {
            Event::Eof => return ConnEnd::Eof,
            Event::Gone => {
                daemon.counters.client_gone();
                return ConnEnd::Gone;
            }
            Event::Oversized => {
                daemon.counters.oversized();
                let refusal = super::error_response(
                    &Json::Null,
                    &format!("request line exceeds {MAX_LINE_BYTES} bytes"),
                );
                if !write_lines(daemon, out, &[refusal]) {
                    return ConnEnd::Gone;
                }
            }
            Event::Line(line) => {
                if line.trim().is_empty() {
                    continue;
                }
                match serve_line(daemon, &line, shared, out) {
                    LineEnd::Served => {}
                    LineEnd::Gone => return ConnEnd::Gone,
                    LineEnd::Shutdown => return ConnEnd::Shutdown,
                }
            }
        }
    }
}

enum LineEnd {
    Served,
    Gone,
    Shutdown,
}

/// Handles one request line: ops answer immediately (bypassing
/// admission — health checks must work *especially* under overload);
/// analysis requests go through admission, the watchdog and the shared
/// pool.
fn serve_line(
    daemon: &Daemon,
    line: &str,
    shared: &Arc<ConnShared>,
    out: &mut impl Write,
) -> LineEnd {
    let req = match ipet_trace::parse_json(line) {
        Ok(v) => v,
        Err(e) => {
            let err = super::error_response(&Json::Null, &format!("bad request: {e}"));
            return if write_lines(daemon, out, &[err]) { LineEnd::Served } else { LineEnd::Gone };
        }
    };
    match req.get("op").and_then(Json::as_str) {
        Some("shutdown") => {
            let ack = Json::Obj(vec![
                ("done".into(), Json::Bool(true)),
                ("status".into(), Json::Num(0.0)),
                ("shutdown".into(), Json::Bool(true)),
            ]);
            // Acknowledge first, then drain: the client deserves to know
            // its shutdown was accepted even though the daemon stops
            // accepting everything else.
            let _ = write_lines(daemon, out, &[ack]);
            daemon.begin_drain("shutdown requested");
            return LineEnd::Shutdown;
        }
        Some("health") => {
            let line = daemon.health_line();
            return if write_lines(daemon, out, &[line]) { LineEnd::Served } else { LineEnd::Gone };
        }
        Some("stats") => {
            let line = daemon.stats_line();
            return if write_lines(daemon, out, &[line]) { LineEnd::Served } else { LineEnd::Gone };
        }
        Some(other) => {
            let id = req.get("id").cloned().unwrap_or(Json::Null);
            let err = super::error_response(&id, &format!("unknown op {other:?}"));
            return if write_lines(daemon, out, &[err]) { LineEnd::Served } else { LineEnd::Gone };
        }
        None => {}
    }

    let id = req.get("id").cloned().unwrap_or(Json::Null);
    let permit = match daemon.admission.admit(&daemon.draining) {
        super::admission::Admit::Granted(permit) => permit,
        super::admission::Admit::Overloaded => {
            daemon.counters.shed();
            let refusal = shed_response(&id, "overloaded: in-flight and queue limits reached");
            return if write_lines(daemon, out, &[refusal]) {
                LineEnd::Served
            } else {
                LineEnd::Gone
            };
        }
        super::admission::Admit::Draining => {
            daemon.counters.shed();
            let refusal = shed_response(&id, "draining: daemon is shutting down");
            return if write_lines(daemon, out, &[refusal]) {
                LineEnd::Served
            } else {
                LineEnd::Gone
            };
        }
    };
    daemon.counters.request();

    // The token outlives the solve through three observers: the watchdog
    // (wall-clock deadline), the reader thread (client disconnect), and
    // the pool's workers (budget checkpoints).
    let token = CancelToken::new();
    shared.set_current(Some(token.clone()));
    let timer = daemon
        .cfg
        .timeout_ms
        .map(|ms| super::watchdog::RequestTimer::arm(Duration::from_millis(ms), token.clone()));
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        super::run_request(&req, daemon, &token)
    }));
    shared.set_current(None);
    let timed_out = timer.map(super::watchdog::RequestTimer::disarm).unwrap_or(false);
    if timed_out {
        daemon.counters.cancelled();
    }
    drop(permit);

    let responses = match result {
        Ok(Ok(responses)) => responses,
        Ok(Err(e)) => vec![super::error_response(&id, &e)],
        Err(_) => vec![super::error_response(
            &id,
            "internal panic; request isolated, daemon still serving",
        )],
    };

    // Write-through, and strictly *before* the response lines go out: once
    // the client has seen this request's `done` line, its solves are
    // already durable. Concurrent connections' flushes are serialized by
    // the store itself. A request that inserted or retired entries appends
    // just those records to the journal (one `fdatasync`); a replay that
    // changed nothing writes nothing.
    if let Some(store) = &daemon.store {
        if let Err(e) = store.flush() {
            eprintln!("cinderella: serve: store flush failed ({e}); continuing in memory");
        }
    }

    if shared.is_gone() {
        // The client vanished mid-solve; nothing to write, and whatever
        // exact solves completed before the cancellation are already
        // durable for the next client.
        daemon.counters.client_gone();
        return LineEnd::Gone;
    }
    if !write_lines(daemon, out, &responses) {
        return LineEnd::Gone;
    }
    LineEnd::Served
}

fn shed_response(id: &Json, message: &str) -> Json {
    Json::Obj(vec![
        ("id".into(), id.clone()),
        ("done".into(), Json::Bool(true)),
        ("status".into(), Json::Num(2.0)),
        ("shed".into(), Json::Bool(true)),
        ("error".into(), Json::Str(message.into())),
    ])
}

/// Writes response lines and flushes. A failed write means the client is
/// gone: the error is *not* swallowed — the connection is aborted and
/// counted — but it must not kill the daemon either.
fn write_lines(daemon: &Daemon, out: &mut impl Write, lines: &[Json]) -> bool {
    for line in lines {
        if writeln!(out, "{}", line.render()).is_err() {
            daemon.counters.client_gone();
            return false;
        }
    }
    if out.flush().is_err() {
        daemon.counters.client_gone();
        return false;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capped_reads_preserve_line_sync() {
        let long = "y".repeat(MAX_LINE_BYTES + 10);
        let text = format!("short\n{long}\nafter\n");
        let mut reader = std::io::BufReader::with_capacity(512, text.as_bytes());
        assert!(matches!(
            read_capped_line(&mut reader, MAX_LINE_BYTES),
            Ok(Event::Line(l)) if l == "short"
        ));
        assert!(matches!(read_capped_line(&mut reader, MAX_LINE_BYTES), Ok(Event::Oversized)));
        assert!(
            matches!(
                read_capped_line(&mut reader, MAX_LINE_BYTES),
                Ok(Event::Line(l)) if l == "after"
            ),
            "the line after an oversized one must parse normally"
        );
        assert!(matches!(read_capped_line(&mut reader, MAX_LINE_BYTES), Ok(Event::Eof)));
    }

    #[test]
    fn exactly_cap_sized_line_is_accepted() {
        let exact = "z".repeat(MAX_LINE_BYTES);
        let text = format!("{exact}\n");
        let mut reader = std::io::BufReader::new(text.as_bytes());
        assert!(matches!(
            read_capped_line(&mut reader, MAX_LINE_BYTES),
            Ok(Event::Line(l)) if l.len() == MAX_LINE_BYTES
        ));
    }

    #[test]
    fn unterminated_final_line_is_delivered() {
        let mut reader = std::io::BufReader::new("no newline".as_bytes());
        assert!(matches!(
            read_capped_line(&mut reader, MAX_LINE_BYTES),
            Ok(Event::Line(l)) if l == "no newline"
        ));
        assert!(matches!(read_capped_line(&mut reader, MAX_LINE_BYTES), Ok(Event::Eof)));
    }

    #[test]
    fn eof_on_a_cancelling_stream_fires_the_inflight_token() {
        let shared = ConnShared::new(true);
        let token = CancelToken::new();
        shared.set_current(Some(token.clone()));
        let events = spawn_reader(std::io::BufReader::new(&b""[..]), Arc::clone(&shared));
        assert!(matches!(events.recv().expect("eof event"), Event::Eof));
        assert!(token.is_cancelled(), "socket EOF must cancel the in-flight solve");
        assert!(shared.is_gone());
    }

    #[test]
    fn eof_on_stdin_like_stream_does_not_cancel() {
        let shared = ConnShared::new(false);
        let token = CancelToken::new();
        shared.set_current(Some(token.clone()));
        let events = spawn_reader(std::io::BufReader::new(&b""[..]), Arc::clone(&shared));
        assert!(matches!(events.recv().expect("eof event"), Event::Eof));
        assert!(!token.is_cancelled(), "stdin EOF is normal end of input");
        assert!(!shared.is_gone());
    }

    #[test]
    fn token_installed_after_disconnect_is_cancelled_immediately() {
        let shared = ConnShared::new(true);
        shared.mark_gone();
        let token = CancelToken::new();
        shared.set_current(Some(token.clone()));
        assert!(token.is_cancelled(), "a race between EOF and token install must not lose");
    }
}
