#![warn(missing_docs)]
//! # xfd-transport
//!
//! The cluster's byte-stream layer: a pluggable [`Stream`]/[`Listener`]
//! pair with two dependency-free implementations — Unix domain sockets
//! (the original single-host transport) and TCP (multi-host) — plus the
//! framed wire protocol in [`frame`] that runs identically over either.
//!
//! The traits exist so the coordinator and worker never name a concrete
//! socket type: a connection is a `Box<dyn Stream>` however it was made,
//! and every guarantee the frame codec gives (every torn prefix is an
//! error, never a panic or a silent success) holds on both transports
//! because the codec only sees `Read`/`Write`.
//!
//! TCP connections are authenticated by a shared-secret token: both
//! `Join` and `Plan` carry a digest derived from the token (never the
//! token itself), each side checks the other's, and a mismatch is a typed
//! rejection — not a hang. Unix-socket clusters inherit the same check
//! with the default empty token; filesystem permissions on the socket
//! remain their real boundary.

pub mod frame;

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::time::Duration;

/// One established bidirectional connection, transport-agnostic. The
/// frame codec reads and writes through the `Read`/`Write` supertraits;
/// the extra methods are the small set of socket controls the cluster
/// needs (a cloned read half for the reader thread, handshake read
/// timeouts, and directional shutdown for teardown and fault injection).
pub trait Stream: Read + Write + Send {
    /// A second handle to the same connection (shared file descriptor),
    /// so a reader thread can own the read side while the opener keeps
    /// writing.
    fn try_clone_stream(&self) -> io::Result<Box<dyn Stream>>;

    /// Bound every subsequent read; `None` restores blocking reads.
    fn set_read_timeout(&self, dur: Option<Duration>) -> io::Result<()>;

    /// Half-close: signal EOF to the peer's reader while our reads stay
    /// open to drain its final frames.
    fn shutdown_write(&self) -> io::Result<()>;

    /// Full close of both directions — from the peer's perspective this
    /// is indistinguishable from a connection reset, which is exactly
    /// what the fault-injection paths want.
    fn shutdown_both(&self) -> io::Result<()>;
}

impl Stream for UnixStream {
    fn try_clone_stream(&self) -> io::Result<Box<dyn Stream>> {
        Ok(Box::new(self.try_clone()?))
    }

    fn set_read_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
        UnixStream::set_read_timeout(self, dur)
    }

    fn shutdown_write(&self) -> io::Result<()> {
        self.shutdown(std::net::Shutdown::Write)
    }

    fn shutdown_both(&self) -> io::Result<()> {
        self.shutdown(std::net::Shutdown::Both)
    }
}

impl Stream for TcpStream {
    fn try_clone_stream(&self) -> io::Result<Box<dyn Stream>> {
        Ok(Box::new(self.try_clone()?))
    }

    fn set_read_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
        TcpStream::set_read_timeout(self, dur)
    }

    fn shutdown_write(&self) -> io::Result<()> {
        self.shutdown(std::net::Shutdown::Write)
    }

    fn shutdown_both(&self) -> io::Result<()> {
        self.shutdown(std::net::Shutdown::Both)
    }
}

/// A bound, non-blocking accept source for incoming [`Stream`]s.
pub trait Listener: Send {
    /// Accept one pending connection; `Ok(None)` when none is waiting
    /// (the listener is non-blocking so accept loops can interleave
    /// liveness checks).
    fn accept_stream(&self) -> io::Result<Option<Box<dyn Stream>>>;

    /// The bound address, printable — for Unix sockets the path, for TCP
    /// the resolved `host:port` (which pins the ephemeral port when the
    /// caller bound port 0).
    fn local_label(&self) -> String;
}

struct UnixListenerImpl {
    inner: UnixListener,
    path: PathBuf,
}

impl Listener for UnixListenerImpl {
    fn accept_stream(&self) -> io::Result<Option<Box<dyn Stream>>> {
        // xfdlint:allow(deadline_discipline, reason = "listener accept blocks until a peer arrives by design; worker lifetime is bounded by the coordinator killing the process")
        match self.inner.accept() {
            Ok((stream, _)) => Ok(Some(Box::new(stream))),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(None),
            Err(e) => Err(e),
        }
    }

    fn local_label(&self) -> String {
        self.path.display().to_string()
    }
}

struct TcpListenerImpl {
    inner: TcpListener,
}

impl Listener for TcpListenerImpl {
    fn accept_stream(&self) -> io::Result<Option<Box<dyn Stream>>> {
        // xfdlint:allow(deadline_discipline, reason = "listener accept blocks until a peer arrives by design; worker lifetime is bounded by the coordinator killing the process")
        match self.inner.accept() {
            Ok((stream, _)) => {
                // Frames are small and latency-sensitive; never Nagle.
                stream.set_nodelay(true).ok();
                Ok(Some(Box::new(stream)))
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(None),
            Err(e) => Err(e),
        }
    }

    fn local_label(&self) -> String {
        self.inner
            .local_addr()
            .map_or_else(|_| "?".to_string(), |a| a.to_string())
    }
}

/// Where a cluster endpoint lives: a Unix socket path or a TCP
/// `host:port`. Constructing one is cheap; [`Endpoint::listen`] and
/// [`Endpoint::connect_timeout`] do the work.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// A Unix domain socket path (single host, spawned workers).
    Unix(PathBuf),
    /// A TCP `host:port` (multi-host, `worker --listen` peers).
    Tcp(String),
}

impl Endpoint {
    /// Bind and return a non-blocking listener.
    pub fn listen(&self) -> io::Result<Box<dyn Listener>> {
        match self {
            Endpoint::Unix(path) => {
                let inner = UnixListener::bind(path)?;
                inner.set_nonblocking(true)?;
                Ok(Box::new(UnixListenerImpl {
                    inner,
                    path: path.clone(),
                }))
            }
            Endpoint::Tcp(addr) => {
                let inner = TcpListener::bind(addr.as_str())?;
                inner.set_nonblocking(true)?;
                Ok(Box::new(TcpListenerImpl { inner }))
            }
        }
    }

    /// Connect with a deadline. Unix connects are effectively instant
    /// and ignore the timeout; TCP resolves the address and bounds the
    /// connect so an unroutable `--remote` cannot stall a coordinator
    /// past its handshake window.
    pub fn connect_timeout(&self, timeout: Duration) -> io::Result<Box<dyn Stream>> {
        match self {
            // xfdlint:allow(deadline_discipline, reason = "UnixStream has no connect-with-timeout; a local socket connect cannot hang on a live kernel")
            Endpoint::Unix(path) => Ok(Box::new(UnixStream::connect(path)?)),
            Endpoint::Tcp(addr) => {
                let mut last = io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("'{addr}' resolved to no address"),
                );
                for sa in addr.as_str().to_socket_addrs()? {
                    match TcpStream::connect_timeout(&sa, timeout) {
                        Ok(stream) => {
                            stream.set_nodelay(true).ok();
                            return Ok(Box::new(stream));
                        }
                        Err(e) => last = e,
                    }
                }
                Err(last)
            }
        }
    }
}

/// Domain-separation prefix for the `Join` auth digest.
const JOIN_AUTH_DOMAIN: &str = "xfd-join-auth|";
/// Domain-separation prefix for the `Plan` auth digest.
const PLAN_AUTH_DOMAIN: &str = "xfd-plan-auth|";

fn token_digest(domain: &str, token: &str) -> u128 {
    let mut bytes = Vec::with_capacity(domain.len() + token.len());
    bytes.extend_from_slice(domain.as_bytes());
    bytes.extend_from_slice(token.as_bytes());
    xfd_hash::digest_bytes(&bytes)
}

/// The digest a worker puts in its `Join` frame for `token`. The
/// coordinator recomputes it from its own token and rejects mismatches.
pub fn join_auth(token: &str) -> u128 {
    token_digest(JOIN_AUTH_DOMAIN, token)
}

/// The digest a coordinator puts in its `Plan` frame for `token`; the
/// domain prefix differs from [`join_auth`] so one side's frame can
/// never be replayed as the other's.
pub fn plan_auth(token: &str) -> u128 {
    token_digest(PLAN_AUTH_DOMAIN, token)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{read_frame, write_frame, Frame, PROTOCOL_VERSION};
    use std::time::Instant;

    #[test]
    fn auth_digests_are_token_and_direction_specific() {
        assert_ne!(join_auth("a"), join_auth("b"));
        assert_ne!(plan_auth("a"), plan_auth("b"));
        // Same token, different direction: not replayable.
        assert_ne!(join_auth("secret"), plan_auth("secret"));
        // Deterministic across calls (both ends derive independently).
        assert_eq!(join_auth("secret"), join_auth("secret"));
    }

    fn tcp_pair() -> (Box<dyn Stream>, Box<dyn Stream>) {
        let ep = Endpoint::Tcp("127.0.0.1:0".into());
        let listener = ep.listen().unwrap();
        let client = Endpoint::Tcp(listener.local_label())
            .connect_timeout(Duration::from_secs(5))
            .unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        let server = loop {
            if let Some(s) = listener.accept_stream().unwrap() {
                break s;
            }
            assert!(Instant::now() < deadline, "accept timed out");
            std::thread::sleep(Duration::from_millis(2));
        };
        (client, server)
    }

    #[test]
    fn frames_round_trip_over_loopback_tcp() {
        let (mut client, mut server) = tcp_pair();
        let frames = vec![
            Frame::Join {
                version: PROTOCOL_VERSION,
                index: 1,
                auth: join_auth("t"),
            },
            Frame::SegData {
                digest: 42,
                bytes: vec![7; 4096],
            },
            Frame::Ping,
            Frame::Shutdown,
        ];
        for f in &frames {
            write_frame(&mut client, f).unwrap();
        }
        client.shutdown_write().unwrap();
        for f in &frames {
            assert_eq!(read_frame(&mut server).unwrap().as_ref(), Some(f));
        }
        assert_eq!(read_frame(&mut server).unwrap(), None, "clean EOF");
    }

    #[test]
    fn every_tcp_prefix_truncation_is_an_error_not_a_hang() {
        // Encode one frame, then replay every strict prefix over a fresh
        // TCP connection: the reader must see a torn-frame error (EOF
        // mid-frame), never block forever and never panic.
        let mut wire = Vec::new();
        write_frame(
            &mut wire,
            &Frame::Pass {
                task_id: 9,
                config: vec![2, 2],
                task: vec![1, 2, 3, 4, 5],
            },
        )
        .unwrap();
        for cut in 1..wire.len() {
            let (mut client, mut server) = tcp_pair();
            server
                .set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            client.write_all(&wire[..cut]).unwrap();
            client.shutdown_both().unwrap();
            assert!(
                read_frame(&mut server).is_err(),
                "prefix of {cut} bytes must be a torn-frame error"
            );
        }
    }

    #[test]
    fn interleaved_torn_frame_errors_after_the_good_frame() {
        // A complete frame followed by a torn one on the same TCP stream:
        // the first decodes, the second errors at the tear.
        let good = Frame::Encode { digest: 7 };
        let mut wire = Vec::new();
        write_frame(&mut wire, &good).unwrap();
        let mut torn = Vec::new();
        write_frame(
            &mut torn,
            &Frame::Partial {
                digest: 8,
                bytes: vec![1; 64],
            },
        )
        .unwrap();
        wire.extend_from_slice(&torn[..torn.len() / 2]);

        let (mut client, mut server) = tcp_pair();
        client.write_all(&wire).unwrap();
        client.shutdown_both().unwrap();
        assert_eq!(read_frame(&mut server).unwrap(), Some(good));
        assert!(read_frame(&mut server).is_err(), "tear must surface");
    }

    #[test]
    fn unix_endpoint_listens_and_connects() {
        let path =
            std::env::temp_dir().join(format!("xfd-transport-test-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let listener = Endpoint::Unix(path.clone()).listen().unwrap();
        let mut client = Endpoint::Unix(path.clone())
            .connect_timeout(Duration::from_secs(1))
            .unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut server = loop {
            if let Some(s) = listener.accept_stream().unwrap() {
                break s;
            }
            assert!(Instant::now() < deadline);
            std::thread::sleep(Duration::from_millis(2));
        };
        write_frame(&mut client, &Frame::Pong).unwrap();
        assert_eq!(read_frame(&mut server).unwrap(), Some(Frame::Pong));
        let _ = std::fs::remove_file(&path);
    }
}
