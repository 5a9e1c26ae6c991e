//! Retrying, keep-alive line-protocol client for both transports.
//!
//! `fusesim submit` (and the `serve_load` bench) drive the service
//! through this module: one [`request`] call sends one request line and
//! collects the response lines up to the protocol's terminal line.
//! Transient failures — connect errors, I/O deadlines, a `BUSY`
//! load-shedding reply — are retried with exponential backoff (a `BUSY`
//! carries its own `retry-after` hint, which is honored when it is
//! longer than the backoff). Authentication rejection is *not* retried:
//! a wrong token stays wrong.
//!
//! # Keep-alive
//!
//! Each thread keeps one idle connection, authenticated when a token is
//! configured and keyed by (endpoint, token); the next request on that
//! thread reuses it instead of paying a connect and an `AUTH` round trip.
//! A server may close an idle connection at any time (its read deadline
//! evicts quiet peers; it may restart), so when a reused connection turns
//! out to be closed before the first response byte arrives, the request
//! is sent once more on a fresh connection. That redial does not consume
//! a retry. A connection that fails in any other way — after part of a
//! response, or on a deadline — is a transient failure like any other.
//!
//! Re-sending a `SWEEP`, on a redial or a retry, is safe by construction:
//! cells are content-addressed and coalesced server-side, so a
//! re-submitted batch costs cache lookups, never duplicate simulations.

use std::cell::RefCell;
use std::io::{self, BufRead, BufReader};
use std::time::Duration;

use crate::proto;
use crate::transport::{Conn, Endpoint};

/// How a client dials and retries.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Where the service listens.
    pub endpoint: Endpoint,
    /// Shared token sent as the `AUTH` preamble (mandatory for TCP
    /// servers; `None` skips the preamble).
    pub auth_token: Option<String>,
    /// Per-attempt connect and I/O deadline.
    pub io_timeout: Duration,
    /// Additional attempts after the first; connect errors, I/O
    /// failures and `BUSY` shedding all consume one.
    pub retries: u32,
    /// First retry delay; doubles per retry. A `BUSY retry-after`
    /// longer than the current backoff takes precedence.
    pub backoff: Duration,
}

impl ClientConfig {
    /// Defaults: 30 s deadline, 3 retries, 50 ms initial backoff, no
    /// auth token.
    pub fn new(endpoint: Endpoint) -> ClientConfig {
        ClientConfig {
            endpoint,
            auth_token: None,
            io_timeout: Duration::from_secs(30),
            retries: 3,
            backoff: Duration::from_millis(50),
        }
    }
}

/// One attempt's outcome, before retry policy is applied.
enum Attempt {
    /// Full response collected (terminal line included).
    Done(Vec<String>),
    /// The server shed the request; retry after the given hint.
    Busy(u64),
}

/// Why an attempt failed, which decides what happens next.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Failure {
    /// Retrying cannot help (authentication rejected).
    Fatal,
    /// Retry after backoff.
    Transient,
    /// The peer had closed the connection before any response byte
    /// arrived, so the request can go out again at once on a fresh
    /// connection.
    Unanswered,
}

struct AttemptError {
    failure: Failure,
    message: String,
}

impl AttemptError {
    fn new(failure: Failure, message: String) -> AttemptError {
        AttemptError { failure, message }
    }
}

/// Sends one request line and returns the full response (terminal line
/// included), applying the retry policy in `cfg`.
///
/// # Errors
///
/// Authentication rejection (immediately), or the last transient
/// failure once the retry budget is exhausted.
pub fn request(cfg: &ClientConfig, line: &str) -> Result<Vec<String>, String> {
    let mut delay = cfg.backoff;
    let mut last = String::new();
    for attempt in 0..=cfg.retries {
        if attempt > 0 {
            std::thread::sleep(delay);
            delay = delay.saturating_mul(2);
        }
        match attempt_once(cfg, line) {
            Ok(Attempt::Done(lines)) => return Ok(lines),
            Ok(Attempt::Busy(retry_after_ms)) => {
                last = format!("server busy (retry-after={retry_after_ms}ms)");
                delay = delay.max(Duration::from_millis(retry_after_ms));
            }
            Err(e) if e.failure == Failure::Fatal => return Err(e.message),
            Err(e) => last = e.message,
        }
    }
    Err(format!(
        "request to {} failed after {} attempt(s): {last}",
        cfg.endpoint.describe(),
        cfg.retries + 1
    ))
}

/// One attempt: on this thread's idle connection when it has one for
/// `cfg`, else — or when that connection turns out to be closed — on a
/// fresh one.
fn attempt_once(cfg: &ClientConfig, line: &str) -> Result<Attempt, AttemptError> {
    if let Some(mut session) = Session::take_idle(cfg) {
        match session.exchange(line) {
            Err(e) if e.failure == Failure::Unanswered => {}
            outcome => return session.settle(outcome),
        }
    }
    let mut session = match Session::open(cfg)? {
        Opened::Ready(session) => session,
        Opened::Busy(retry_after_ms) => return Ok(Attempt::Busy(retry_after_ms)),
    };
    let outcome = session.exchange(line);
    session.settle(outcome)
}

thread_local! {
    /// This thread's idle keep-alive connection.
    static IDLE: RefCell<Option<Session>> = const { RefCell::new(None) };
}

/// An open connection, past its `AUTH` preamble when it has one.
struct Session {
    endpoint: Endpoint,
    token: Option<String>,
    io_timeout: Duration,
    writer: Conn,
    reader: BufReader<Conn>,
}

enum Opened {
    Ready(Session),
    /// The server refused the connection with `BUSY` (over capacity).
    Busy(u64),
}

impl Session {
    /// Dials `cfg.endpoint` and authenticates if a token is configured.
    fn open(cfg: &ClientConfig) -> Result<Opened, AttemptError> {
        let transient = |what: String, e: io::Error| {
            AttemptError::new(Failure::Transient, format!("{what}: {e}"))
        };
        let writer = cfg
            .endpoint
            .connect(cfg.io_timeout)
            .map_err(|e| transient(format!("connecting to {}", cfg.endpoint.describe()), e))?;
        set_deadlines(&writer, cfg.io_timeout)
            .map_err(|e| transient("setting deadlines".to_string(), e))?;
        let reader = BufReader::new(
            writer
                .try_clone()
                .map_err(|e| transient("cloning connection".to_string(), e))?,
        );
        let mut session = Session {
            endpoint: cfg.endpoint.clone(),
            token: cfg.auth_token.clone(),
            io_timeout: cfg.io_timeout,
            writer,
            reader,
        };
        if let Some(token) = &cfg.auth_token {
            session
                .writer
                .send_line(&format!("AUTH {token}"))
                .map_err(|e| io_failure(false, "sending AUTH", &e))?;
            let reply = session.read_line(false)?;
            if let Some(ms) = proto::parse_busy(&reply) {
                return Ok(Opened::Busy(ms));
            }
            if reply != proto::AUTH_OK {
                return Err(AttemptError::new(
                    Failure::Fatal,
                    format!(
                        "authentication rejected by {}: {reply}",
                        cfg.endpoint.describe()
                    ),
                ));
            }
        }
        Ok(Opened::Ready(session))
    }

    /// Takes this thread's idle session if it was opened for `cfg`'s
    /// endpoint and token; an idle session for anything else is closed.
    fn take_idle(cfg: &ClientConfig) -> Option<Session> {
        let mut session = IDLE.with(|idle| idle.borrow_mut().take())?;
        if session.endpoint != cfg.endpoint || session.token != cfg.auth_token {
            return None;
        }
        if session.io_timeout != cfg.io_timeout {
            set_deadlines(&session.writer, cfg.io_timeout).ok()?;
            session.io_timeout = cfg.io_timeout;
        }
        Some(session)
    }

    /// Sends `line` and collects its response.
    fn exchange(&mut self, line: &str) -> Result<Attempt, AttemptError> {
        self.writer
            .send_line(line)
            .map_err(|e| io_failure(false, "sending request", &e))?;
        let mut lines = Vec::new();
        loop {
            let reply = self.read_line(!lines.is_empty())?;
            if lines.is_empty() {
                if let Some(ms) = proto::parse_busy(&reply) {
                    return Ok(Attempt::Busy(ms));
                }
            }
            let terminal = is_terminal(&reply);
            lines.push(reply);
            if terminal {
                return Ok(Attempt::Done(lines));
            }
        }
    }

    /// Reads one response line; `answered` says whether earlier lines of
    /// this response already arrived.
    fn read_line(&mut self, answered: bool) -> Result<String, AttemptError> {
        let mut buf = Vec::new();
        match self.reader.read_until(b'\n', &mut buf) {
            Ok(0) => Err(io_failure(
                answered,
                "reading response",
                &io::Error::new(io::ErrorKind::UnexpectedEof, "connection closed by server"),
            )),
            Ok(_) => Ok(String::from_utf8_lossy(&buf).trim_end().to_string()),
            Err(e) => Err(io_failure(
                answered || !buf.is_empty(),
                "reading response",
                &e,
            )),
        }
    }

    /// Parks the session as this thread's idle connection if the server
    /// keeps the connection open after `outcome`, and passes `outcome` on.
    fn settle(self, outcome: Result<Attempt, AttemptError>) -> Result<Attempt, AttemptError> {
        let open = match &outcome {
            Ok(Attempt::Done(lines)) => lines.last().map(String::as_str) != Some("BYE"),
            Ok(Attempt::Busy(_)) => true,
            Err(_) => false,
        };
        if open {
            IDLE.with(|idle| *idle.borrow_mut() = Some(self));
        }
        outcome
    }
}

fn set_deadlines(conn: &Conn, timeout: Duration) -> io::Result<()> {
    conn.set_read_timeout(Some(timeout))?;
    conn.set_write_timeout(Some(timeout))
}

/// Classifies an I/O failure: the peer closing or resetting the
/// connection before any response byte arrived leaves the request
/// unanswered; anything else, a deadline included, is transient.
fn io_failure(answered: bool, what: &str, e: &io::Error) -> AttemptError {
    let closed = matches!(
        e.kind(),
        io::ErrorKind::UnexpectedEof
            | io::ErrorKind::BrokenPipe
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::NotConnected
    );
    let failure = if closed && !answered {
        Failure::Unanswered
    } else {
        Failure::Transient
    };
    AttemptError::new(failure, format!("{what}: {e}"))
}

/// The lines that end a response: `DONE` (sweep), `PONG`, `BYE`,
/// `STATS` and request-level `ERR - ` (per-cell `ERR <cell>` lines are
/// followed by more cells and a `DONE`).
fn is_terminal(line: &str) -> bool {
    line.starts_with("DONE")
        || line == "PONG"
        || line == "BYE"
        || line.starts_with("STATS")
        || line.starts_with("ERR - ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::Listener;
    use std::io::Read;

    #[test]
    fn terminal_lines_match_the_protocol() {
        assert!(is_terminal("DONE hits=1 misses=0 errors=0"));
        assert!(is_terminal("PONG"));
        assert!(is_terminal("BYE"));
        assert!(is_terminal("STATS entries=0 bytes=0"));
        assert!(is_terminal("ERR - unknown request \"NOPE\""));
        assert!(!is_terminal(
            "CELL ATAX/Dy-FUSE cached key=ab cycles=1 instructions=1"
        ));
        assert!(
            !is_terminal("ERR ATAX/Dy-FUSE unknown workload"),
            "per-cell errors are followed by more lines"
        );
    }

    /// Each request line reaches the peer whole in one `read()` — a line
    /// split into text and newline writes is held back by Nagle until
    /// the peer's delayed ACK — and the second request rides the first
    /// one's authenticated connection.
    #[test]
    fn each_line_arrives_in_one_read_and_the_connection_is_reused() {
        let listener = Listener::bind_tcp("127.0.0.1:0").unwrap();
        let mut cfg = ClientConfig::new(listener.endpoint());
        cfg.auth_token = Some("tok".to_string());
        cfg.io_timeout = Duration::from_secs(10);
        let client = std::thread::spawn(move || {
            let sweep = request(&cfg, "SWEEP A/B").unwrap();
            let ping = request(&cfg, "PING").unwrap();
            (sweep, ping)
        });
        let mut peer = listener.accept().unwrap();
        peer.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut reply = peer.try_clone().unwrap();
        let mut one_read = || {
            let mut buf = [0u8; 256];
            let n = peer.read(&mut buf).unwrap();
            String::from_utf8(buf[..n].to_vec()).unwrap()
        };
        assert_eq!(one_read(), "AUTH tok\n");
        reply.send_line(proto::AUTH_OK).unwrap();
        assert_eq!(one_read(), "SWEEP A/B\n");
        reply.send_line("DONE hits=0 misses=0 errors=0").unwrap();
        assert_eq!(one_read(), "PING\n", "no second dial, no second AUTH");
        reply.send_line("PONG").unwrap();
        let (sweep, ping) = client.join().unwrap();
        assert_eq!(sweep, vec!["DONE hits=0 misses=0 errors=0"]);
        assert_eq!(ping, vec!["PONG"]);
    }
}
