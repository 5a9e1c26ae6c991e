//! Transport abstraction: the batch service speaks one line protocol
//! over two byte streams — a local Unix socket and TCP.
//!
//! [`Listener`] is a bound server socket on either transport,
//! [`Conn`] an accepted (or dialed) connection, and [`Endpoint`] the
//! address a client connects to — which doubles as the server's
//! self-wake handle: a shutdown pokes every registered endpoint with a
//! throwaway connection so acceptors blocked in `accept` observe the
//! stop flag instead of waiting for a client that will never come.
//!
//! Both stream types expose the same deadline surface
//! (`SO_RCVTIMEO`/`SO_SNDTIMEO` via [`Conn::set_read_timeout`] /
//! [`Conn::set_write_timeout`]), which is what lets the server evict
//! dead clients instead of letting them pin handler threads.
//!
//! # Framing
//!
//! Every protocol write, on both sides, goes through [`Conn::send_line`]:
//! the text and its newline leave in one `write_all`, and TCP streams run
//! with `TCP_NODELAY` on both dial and accept. A line written as text
//! then `\n` in two writes stalls behind Nagle's algorithm until the
//! peer's delayed ACK fires — about 40 ms per request on Linux loopback.
//! The server reads request lines back through a bounded line reader
//! that caps their length ([`MAX_LINE_BYTES`]) and the time one line may
//! take to arrive.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{
    IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs,
};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Longest request line a server accepts, newline excluded. The largest
/// legal `SWEEP` — every workload under every configuration, as
/// `fusesim submit --workloads all --configs all` sends it — is about
/// 4 KiB; the rest is margin for longer names and repeated cells.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// Where a service listens, or where a client connects: one address
/// type covering both transports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// A filesystem Unix-socket path.
    Unix(PathBuf),
    /// A TCP `host:port` string, resolved at connect time.
    Tcp(String),
}

impl Endpoint {
    /// A Unix-socket endpoint at `path`.
    pub fn unix(path: impl Into<PathBuf>) -> Endpoint {
        Endpoint::Unix(path.into())
    }

    /// A TCP endpoint at `addr` (`host:port`).
    pub fn tcp(addr: impl Into<String>) -> Endpoint {
        Endpoint::Tcp(addr.into())
    }

    /// Human-readable `unix:<path>` / `tcp:<addr>` rendering.
    pub fn describe(&self) -> String {
        match self {
            Endpoint::Unix(p) => format!("unix:{}", p.display()),
            Endpoint::Tcp(a) => format!("tcp:{a}"),
        }
    }

    /// Dials the endpoint. TCP resolves the address, applies `timeout`
    /// as a connect deadline per resolved address and turns on
    /// `TCP_NODELAY`; Unix-socket connects are local rendezvous and use
    /// the plain connect.
    ///
    /// # Errors
    ///
    /// Resolution or connection failure (the last error when several
    /// resolved addresses all fail).
    pub fn connect(&self, timeout: Duration) -> io::Result<Conn> {
        match self {
            Endpoint::Unix(path) => UnixStream::connect(path).map(Conn::Unix),
            Endpoint::Tcp(addr) => {
                let mut last: Option<io::Error> = None;
                for sa in addr.to_socket_addrs()? {
                    match TcpStream::connect_timeout(&sa, timeout) {
                        Ok(s) => return Conn::tcp(s),
                        Err(e) => last = Some(e),
                    }
                }
                Err(last.unwrap_or_else(|| {
                    io::Error::new(
                        io::ErrorKind::InvalidInput,
                        format!("{addr}: resolved to no addresses"),
                    )
                }))
            }
        }
    }

    /// Best-effort poke: opens and immediately drops a connection so an
    /// acceptor blocked in `accept` wakes up and re-checks its stop
    /// flag. Errors are deliberately swallowed — if nobody is listening
    /// there is nobody left to wake.
    pub fn wake(&self) {
        let _ = self.connect(Duration::from_secs(1));
    }
}

/// A bound server socket on either transport.
pub enum Listener {
    /// Unix-socket listener plus the path to clean up on shutdown.
    Unix {
        /// The bound listener.
        listener: UnixListener,
        /// Where it is bound (removed by [`Listener::cleanup`]).
        path: PathBuf,
    },
    /// TCP listener.
    Tcp(TcpListener),
}

impl Listener {
    /// Binds a Unix socket at `path`, replacing a stale socket file from
    /// a previous run.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind_unix(path: &Path) -> io::Result<Listener> {
        let _ = std::fs::remove_file(path);
        Ok(Listener::Unix {
            listener: UnixListener::bind(path)?,
            path: path.to_path_buf(),
        })
    }

    /// Binds a TCP listener on `addr` (`host:port`; port 0 picks a free
    /// port — read it back from [`Listener::endpoint`]).
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind_tcp(addr: &str) -> io::Result<Listener> {
        TcpListener::bind(addr).map(Listener::Tcp)
    }

    /// The endpoint clients (and the shutdown wake) connect to. For a
    /// TCP listener bound on an unspecified address (`0.0.0.0` / `::`)
    /// the endpoint substitutes the loopback address, which is where a
    /// self-wake must dial.
    pub fn endpoint(&self) -> Endpoint {
        match self {
            Listener::Unix { path, .. } => Endpoint::Unix(path.clone()),
            Listener::Tcp(l) => {
                let addr = l
                    .local_addr()
                    .map(|a| connectable(a).to_string())
                    .unwrap_or_default();
                Endpoint::Tcp(addr)
            }
        }
    }

    /// Blocks until the next connection arrives (TCP connections get
    /// `TCP_NODELAY`).
    ///
    /// # Errors
    ///
    /// Propagates the accept failure (callers treat these as transient).
    pub fn accept(&self) -> io::Result<Conn> {
        match self {
            Listener::Unix { listener, .. } => listener.accept().map(|(s, _)| Conn::Unix(s)),
            Listener::Tcp(l) => l.accept().and_then(|(s, _)| Conn::tcp(s)),
        }
    }

    /// Removes a Unix socket file; no-op for TCP. Always safe to call.
    pub fn cleanup(&self) {
        if let Listener::Unix { path, .. } = self {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Rewrites an unspecified listen address to the loopback of the same
/// family, preserving the port — the address a local client can dial.
fn connectable(mut addr: SocketAddr) -> SocketAddr {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
            SocketAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
        });
    }
    addr
}

/// One accepted or dialed connection on either transport.
#[derive(Debug)]
pub enum Conn {
    /// Unix-socket stream.
    Unix(UnixStream),
    /// TCP stream.
    Tcp(TcpStream),
}

impl Conn {
    fn tcp(stream: TcpStream) -> io::Result<Conn> {
        stream.set_nodelay(true)?;
        Ok(Conn::Tcp(stream))
    }

    /// A second handle on the same socket (the server splits each
    /// connection into a buffered reader and writer).
    ///
    /// # Errors
    ///
    /// Propagates the descriptor duplication failure.
    pub fn try_clone(&self) -> io::Result<Conn> {
        match self {
            Conn::Unix(s) => s.try_clone().map(Conn::Unix),
            Conn::Tcp(s) => s.try_clone().map(Conn::Tcp),
        }
    }

    /// Read deadline (`None` blocks forever). Applies to the underlying
    /// socket, so clones share it.
    ///
    /// # Errors
    ///
    /// Propagates the socket-option failure.
    pub fn set_read_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
        match self {
            Conn::Unix(s) => s.set_read_timeout(dur),
            Conn::Tcp(s) => s.set_read_timeout(dur),
        }
    }

    /// Write deadline (`None` blocks forever). Applies to the underlying
    /// socket, so clones share it.
    ///
    /// # Errors
    ///
    /// Propagates the socket-option failure.
    pub fn set_write_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
        match self {
            Conn::Unix(s) => s.set_write_timeout(dur),
            Conn::Tcp(s) => s.set_write_timeout(dur),
        }
    }

    /// Shuts down one or both directions of the underlying socket, for
    /// every clone. Shutting down `Read` makes a read blocked on another
    /// clone return end-of-stream, which is how a server releases its
    /// idle connection handlers at shutdown.
    ///
    /// # Errors
    ///
    /// Propagates the socket failure (e.g. the peer is already gone).
    pub fn shutdown(&self, how: Shutdown) -> io::Result<()> {
        match self {
            Conn::Unix(s) => s.shutdown(how),
            Conn::Tcp(s) => s.shutdown(how),
        }
    }

    /// Writes `text` and its terminating newline in one `write_all` —
    /// the framing rule for every protocol write (see the module docs).
    /// `text` may hold several lines; only the last newline is added.
    ///
    /// # Errors
    ///
    /// Propagates the write failure (including an expired deadline).
    pub fn send_line(&mut self, text: &str) -> io::Result<()> {
        let mut frame = Vec::with_capacity(text.len() + 1);
        frame.extend_from_slice(text.as_bytes());
        frame.push(b'\n');
        self.write_all(&frame)
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Unix(s) => s.read(buf),
            Conn::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Unix(s) => s.write(buf),
            Conn::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Unix(s) => s.flush(),
            Conn::Tcp(s) => s.flush(),
        }
    }
}

/// What [`LineReader::next_line`] found.
pub(crate) enum Next<'a> {
    /// A complete line, newline stripped.
    Line(&'a [u8]),
    /// The peer closed, a read failed, or the line missed its deadline.
    Gone,
    /// The line grew past the cap before its newline arrived.
    TooLong,
}

/// Reads newline-terminated lines from an untrusted peer into one reused
/// buffer that never grows past `max` bytes. Each line — the wait for
/// its first byte included — must arrive whole within `timeout`: the
/// socket's read deadline shrinks to what is left of that budget
/// whenever a line spans several reads, so a peer trickling bytes with
/// no newline cannot hold the reader past it.
pub(crate) struct LineReader {
    inner: BufReader<Conn>,
    line: Vec<u8>,
    max: usize,
    timeout: Duration,
    /// The socket's read deadline is shorter than `timeout`.
    shortened: bool,
}

impl LineReader {
    /// Wraps `conn` and sets its read deadline to `timeout`.
    ///
    /// # Errors
    ///
    /// Propagates the socket-option failure.
    pub(crate) fn new(conn: Conn, max: usize, timeout: Duration) -> io::Result<LineReader> {
        conn.set_read_timeout(Some(timeout))?;
        Ok(LineReader {
            inner: BufReader::new(conn),
            line: Vec::new(),
            max,
            timeout,
            shortened: false,
        })
    }

    /// Reads the next line.
    pub(crate) fn next_line(&mut self) -> Next<'_> {
        self.line.clear();
        if self.shortened {
            if self.set_deadline(self.timeout).is_err() {
                return Next::Gone;
            }
            self.shortened = false;
        }
        let deadline = Instant::now() + self.timeout;
        loop {
            let chunk = match self.inner.fill_buf() {
                Ok([]) => return Next::Gone,
                Ok(chunk) => chunk,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return Next::Gone,
            };
            let newline = chunk.iter().position(|&b| b == b'\n');
            let take = newline.unwrap_or(chunk.len());
            let need = self.line.len() + take;
            if need > self.max {
                return Next::TooLong;
            }
            if need > self.line.capacity() {
                // Grow geometrically, but never past the cap.
                let grown = need.max(2 * self.line.capacity()).min(self.max);
                self.line.reserve_exact(grown - self.line.len());
            }
            self.line.extend_from_slice(&chunk[..take]);
            self.inner.consume(take + usize::from(newline.is_some()));
            if newline.is_some() {
                return Next::Line(&self.line);
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() || self.set_deadline(left).is_err() {
                return Next::Gone;
            }
            self.shortened = true;
        }
    }

    fn set_deadline(&self, dur: Duration) -> io::Result<()> {
        self.inner.get_ref().set_read_timeout(Some(dur))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoints_describe_both_transports() {
        assert_eq!(Endpoint::unix("/tmp/x.sock").describe(), "unix:/tmp/x.sock");
        assert_eq!(
            Endpoint::tcp("127.0.0.1:7000").describe(),
            "tcp:127.0.0.1:7000"
        );
    }

    #[test]
    fn unspecified_listen_addresses_become_connectable() {
        let v4: SocketAddr = "0.0.0.0:8080".parse().unwrap();
        assert_eq!(connectable(v4).to_string(), "127.0.0.1:8080");
        let v6: SocketAddr = "[::]:8080".parse().unwrap();
        assert_eq!(connectable(v6).to_string(), "[::1]:8080");
        let fixed: SocketAddr = "192.168.1.1:80".parse().unwrap();
        assert_eq!(
            connectable(fixed),
            fixed,
            "specified addresses pass through"
        );
    }

    #[test]
    fn tcp_listener_reports_a_dialable_endpoint() {
        let listener = Listener::bind_tcp("127.0.0.1:0").unwrap();
        let Endpoint::Tcp(addr) = listener.endpoint() else {
            panic!("tcp listener must report a tcp endpoint");
        };
        assert!(addr.starts_with("127.0.0.1:"), "{addr}");
        assert!(
            !addr.ends_with(":0"),
            "port 0 must resolve to the bound port"
        );
        // Dialing the reported endpoint reaches the listener, and both
        // ends run without Nagle.
        let client = listener.endpoint().connect(Duration::from_secs(5)).unwrap();
        let accepted = listener.accept().unwrap();
        for conn in [&client, &accepted] {
            let Conn::Tcp(s) = conn else {
                panic!("tcp connection expected");
            };
            assert!(s.nodelay().unwrap(), "TCP_NODELAY must be on");
        }
    }

    fn pair() -> (Conn, Conn) {
        let (a, b) = UnixStream::pair().unwrap();
        (Conn::Unix(a), Conn::Unix(b))
    }

    #[test]
    fn line_reader_frames_lines_and_caps_their_length() {
        const MAX: usize = 32;
        let (mut peer, conn) = pair();
        let mut reader = LineReader::new(conn, MAX, Duration::from_secs(10)).unwrap();
        peer.send_line("PING\nSWEEP a/b").unwrap();
        peer.write_all(&[b'x'; MAX + 1]).unwrap();
        assert!(matches!(reader.next_line(), Next::Line(b"PING")));
        assert!(matches!(reader.next_line(), Next::Line(b"SWEEP a/b")));
        assert!(matches!(reader.next_line(), Next::TooLong));
        assert!(
            reader.line.capacity() <= MAX,
            "buffer grew to {} past the {MAX}-byte cap",
            reader.line.capacity()
        );
    }

    /// A peer that trickles bytes with no newline, each gap well inside
    /// the read deadline, is cut off once the whole line's budget is
    /// spent — the per-read deadline alone would never fire.
    #[test]
    fn line_reader_deadline_covers_the_whole_line() {
        const MAX: usize = 1024;
        let timeout = Duration::from_millis(200);
        let (mut peer, conn) = pair();
        let mut reader = LineReader::new(conn, MAX, timeout).unwrap();
        let trickler = std::thread::spawn(move || {
            for _ in 0..100 {
                if peer.write_all(b"A").is_err() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(20));
            }
        });
        let start = Instant::now();
        assert!(matches!(reader.next_line(), Next::Gone));
        let took = start.elapsed();
        assert!(
            took >= timeout / 2 && took < Duration::from_secs(1),
            "cut off after {took:?}"
        );
        assert!(reader.line.capacity() <= MAX);
        drop(reader);
        trickler.join().unwrap();
    }
}
