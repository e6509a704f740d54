//! Single-threaded unix-socket server.
//!
//! One readiness-driven loop multiplexes every operator connection — no
//! threads, so the daemon needs none of the workspace's determinism
//! waivers (lint L3) and request handling is strictly serialized:
//! requests are applied in arrival order, which the fuzz harness relies
//! on for byte-equivalence with direct library calls.
//!
//! Protocol framing is one JSON line per request, one envelope line per
//! answer (see [`crate::protocol`]). Each turn accepts new connections
//! and, per connection, flushes queued replies, answers complete lines
//! and reads more input — all nonblocking. When a turn moves nothing the
//! loop blocks in `poll(2)` on the listener and every
//! connection, for at most the idle wait (1 ms under `--sim-clock`,
//! `daemon.tick_ms` on a wall clock), so a request is answered as soon
//! as it arrives. Between turns the loop ticks the [`DaemonCore`]
//! (advancing the log timeline on wall-clock daemons) and takes the
//! `SIGHUP` latch for file-based hot-reload; a `SIGHUP` also cuts the
//! wait short.
//!
//! No peer can stall the others:
//!
//! * **Reply queues.** Replies are appended to the connection's queue
//!   and written only as far as its socket accepts; the loop asks for
//!   `POLLOUT` while a queue is non-empty.
//! * **Backpressure.** While more than `MAX_QUEUED_BYTES` (256 KiB) of replies
//!   are queued, the connection's lines are left unanswered and its
//!   socket unread (no `POLLIN` interest), so a client that never reads
//!   fills only its own buffers.
//! * **Line cap.** A line longer than [`MAX_LINE_BYTES`] is answered with
//!   one `line-too-long` error envelope; the rest of it, up to its `\n`,
//!   is discarded and the connection stays usable.
//! * **Accept failures.** When `accept` fails (out of descriptors,
//!   typically) the open connections keep being served and accepting is
//!   retried after one idle wait; the error is logged once per streak.
//!
//! On `Stop` the stopping connection's queue is flushed (waiting on
//! `POLLOUT` for at most 5 s) before the loop returns,
//! so the `Stopping` reply reaches its client.

use crate::error::{DaemonError, DaemonResult};
use crate::poll::{PollFd, POLLIN, POLLOUT};
use crate::protocol::{encode_line, Envelope, Request};
use crate::runtime::DaemonCore;
use crate::signal::take_sighup;
use std::io::{self, ErrorKind, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Queued reply bytes above which a connection is neither read nor
/// answered until its client drains some.
const MAX_QUEUED_BYTES: usize = 256 * 1024;

/// Longest request line accepted, excluding its `\n`; far above any
/// request the CLI or the fuzzers emit (a few hundred bytes).
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// Longest wait for the stopping connection to take its last replies.
const STOP_FLUSH_LIMIT: Duration = Duration::from_secs(5);

/// Bytes read from one connection per turn.
const READ_CHUNK: usize = 16 * 1024;

/// One connected operator: its stream, unanswered input, and queued
/// replies.
struct Conn {
    stream: UnixStream,
    /// Input not yet answered: complete lines held back by backpressure,
    /// then at most one partial line.
    inbuf: Vec<u8>,
    /// `inbuf[..scanned]` is known to hold no `\n`, so each byte is
    /// scanned once however the line arrives.
    scanned: usize,
    /// An over-long line was answered with `line-too-long`; its remaining
    /// bytes up to the next `\n` are dropped unread.
    discarding: bool,
    /// Encoded replies not yet on the wire.
    out: Vec<u8>,
    /// The peer closed its write half: answer what arrived, flush, close.
    eof: bool,
}

impl Conn {
    fn new(stream: UnixStream) -> Self {
        Conn {
            stream,
            inbuf: Vec::new(),
            scanned: 0,
            discarding: false,
            out: Vec::new(),
            eof: false,
        }
    }

    fn backpressured(&self) -> bool {
        self.out.len() > MAX_QUEUED_BYTES
    }

    /// Whether the loop should read from this connection.
    fn wants_read(&self) -> bool {
        !self.eof && !self.backpressured()
    }

    /// Finished: the peer has hung up and every reply owed went out.
    fn done(&self) -> bool {
        self.eof && self.out.is_empty()
    }

    /// The readiness this connection waits for.
    fn interest(&self) -> PollFd {
        let mut events = 0;
        if self.wants_read() {
            events |= POLLIN;
        }
        if !self.out.is_empty() {
            events |= POLLOUT;
        }
        PollFd::new(&self.stream, events)
    }

    /// One turn: flush, answer, read once, answer, flush. Returns whether
    /// anything moved; stops answering as soon as the core is stopping.
    fn service(&mut self, core: &mut DaemonCore, chunk: &mut [u8]) -> DaemonResult<bool> {
        let mut moved = self.flush()?;
        moved |= self.answer(core)?;
        if self.wants_read() && !core.stopping() {
            moved |= self.read(chunk)?;
            moved |= self.answer(core)?;
        }
        moved |= self.flush()?;
        Ok(moved)
    }

    /// One nonblocking read into `inbuf`; `true` on data or end of stream.
    fn read(&mut self, chunk: &mut [u8]) -> io::Result<bool> {
        loop {
            match self.stream.read(chunk) {
                Ok(0) => {
                    self.eof = true;
                    return Ok(true);
                }
                Ok(n) => {
                    self.inbuf.extend_from_slice(&chunk[..n]);
                    return Ok(true);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Writes queued replies until the queue empties or the socket is
    /// full; `true` when any byte went out.
    fn flush(&mut self) -> io::Result<bool> {
        let mut sent = 0;
        while sent < self.out.len() {
            match self.stream.write(&self.out[sent..]) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => sent += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.out.drain(..sent);
        Ok(sent > 0)
    }

    /// Answers complete lines in arrival order while the reply queue is
    /// under its bound, then consumes the answered prefix in one go.
    /// Malformed lines get a structured `parse` error and over-long ones
    /// a `line-too-long` error instead of killing the connection.
    /// Returns whether any line was consumed.
    fn answer(&mut self, core: &mut DaemonCore) -> DaemonResult<bool> {
        let mut start = 0;
        while !self.backpressured() && !core.stopping() {
            let Some(offset) = self.inbuf[self.scanned..].iter().position(|&b| b == b'\n') else {
                self.scanned = self.inbuf.len();
                break;
            };
            let nl = self.scanned + offset;
            self.scanned = nl + 1;
            let line = &self.inbuf[start..nl];
            start = nl + 1;
            if std::mem::take(&mut self.discarding) {
                continue;
            }
            let envelope = if line.len() > MAX_LINE_BYTES {
                line_too_long()
            } else {
                let text = String::from_utf8_lossy(line);
                if text.trim().is_empty() {
                    continue;
                }
                match crate::protocol::decode_line::<Request>(&text) {
                    Ok(req) => core.handle(&req),
                    Err(e) => Envelope::err("parse", format!("bad request line: {e}")),
                }
            };
            queue_envelope(&mut self.out, &envelope)?;
        }
        let mut moved = start > 0;
        self.inbuf.drain(..start);
        self.scanned -= start;
        // Everything left is one partial line once the scan reached the
        // end; cap it (or keep dropping the tail of a capped one).
        if self.scanned == self.inbuf.len() && !self.inbuf.is_empty() {
            if self.discarding {
                self.inbuf.clear();
                self.scanned = 0;
                moved = true;
            } else if self.inbuf.len() > MAX_LINE_BYTES {
                queue_envelope(&mut self.out, &line_too_long())?;
                self.inbuf.clear();
                self.scanned = 0;
                self.discarding = true;
                moved = true;
            }
        }
        Ok(moved)
    }

    /// Flushes the queue, waiting on `POLLOUT` until it is empty or
    /// `limit` passes; `false` when replies were left undelivered.
    fn flush_within(&mut self, limit: Duration) -> bool {
        let deadline = Instant::now() + limit;
        loop {
            if self.flush().is_err() {
                return false;
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if self.out.is_empty() || left.is_zero() {
                return self.out.is_empty();
            }
            if crate::poll::wait(&mut [PollFd::new(&self.stream, POLLOUT)], left).is_err() {
                return false;
            }
        }
    }
}

fn line_too_long() -> Envelope {
    Envelope::err(
        "line-too-long",
        format!("request line exceeds {MAX_LINE_BYTES} bytes; discarded up to its newline"),
    )
}

/// Appends one envelope line to a reply queue.
fn queue_envelope(out: &mut Vec<u8>, envelope: &Envelope) -> DaemonResult<()> {
    out.extend_from_slice(encode_line(envelope)?.as_bytes());
    out.push(b'\n');
    Ok(())
}

/// Removes the socket file when the server leaves scope, clean exit or
/// not.
struct SocketGuard {
    path: PathBuf,
}

impl Drop for SocketGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Binds `socket`, refusing to clobber a live daemon: a connectable
/// socket means one is serving; a stale file (dead daemon) is removed.
fn claim_socket(socket: &Path) -> DaemonResult<UnixListener> {
    if socket.exists() {
        if UnixStream::connect(socket).is_ok() {
            return Err(DaemonError::Config(format!(
                "socket {} already has a live daemon (use `thriftyd stop` first)",
                socket.display()
            )));
        }
        let _ = std::fs::remove_file(socket);
    }
    Ok(UnixListener::bind(socket)?)
}

/// Serves `core` on `socket` until a `Stop` request drains it. Prints a
/// single ready line (`thriftyd: serving on <socket>`) once the socket
/// is claimed, which harnesses use as the startup barrier.
///
/// # Errors
/// Socket claim failures and daemon-fatal stepping errors; per-request
/// failures are answered as error envelopes and never end the loop.
pub fn serve(mut core: DaemonCore, socket: &Path) -> DaemonResult<()> {
    let listener = claim_socket(socket)?;
    listener.set_nonblocking(true)?;
    let _guard = SocketGuard {
        path: socket.to_path_buf(),
    };
    let idle = Duration::from_millis(if core.is_simulated() {
        1
    } else {
        core.config().daemon.tick_ms
    });
    println!("thriftyd: serving on {}", socket.display());
    std::io::stdout().flush()?;

    let mut conns: Vec<Conn> = Vec::new();
    let mut fds: Vec<PollFd> = Vec::new();
    let mut chunk = vec![0u8; READ_CHUNK];
    let mut accept_failing = false;
    loop {
        let mut progressed = false;

        if take_sighup() {
            match core.reload() {
                Ok(view) => eprintln!(
                    "thriftyd: SIGHUP reload: {}",
                    encode_line(&view).unwrap_or_else(|e| e.to_string())
                ),
                Err(e) => eprintln!("thriftyd: SIGHUP reload failed (config unchanged): {e}"),
            }
            progressed = true;
        }

        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    accept_failing = false;
                    if stream.set_nonblocking(true).is_ok() {
                        conns.push(Conn::new(stream));
                    }
                    progressed = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    accept_failing = false;
                    break;
                }
                Err(e) => {
                    // Out of descriptors, typically: keep serving the open
                    // connections and retry after one idle wait (the
                    // pending peer keeps the listener readable, so it
                    // stays out of that wait).
                    if !accept_failing {
                        eprintln!("thriftyd: accept failed, retrying: {e}");
                    }
                    accept_failing = true;
                    break;
                }
            }
        }

        let mut i = 0;
        while i < conns.len() {
            let keep = match conns[i].service(&mut core, &mut chunk) {
                Ok(moved) => {
                    progressed |= moved;
                    !conns[i].done()
                }
                // A broken peer only costs its own connection.
                Err(_) => false,
            };
            if core.stopping() {
                // Deliver the `Stopping` reply, give everyone else one
                // last nonblocking flush, then drop the listener and let
                // the guard remove the socket.
                if !conns[i].flush_within(STOP_FLUSH_LIMIT) {
                    eprintln!("thriftyd: the Stop reply could not be delivered");
                }
                for conn in &mut conns {
                    let _ = conn.flush();
                }
                return Ok(());
            }
            if keep {
                i += 1;
            } else {
                conns.swap_remove(i);
                progressed = true;
            }
        }

        core.tick()?;
        if !progressed {
            fds.clear();
            if !accept_failing {
                fds.push(PollFd::new(&listener, POLLIN));
            }
            fds.extend(conns.iter().map(Conn::interest));
            crate::poll::wait(&mut fds, idle)?;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DaemonConfig;
    use crate::protocol::{decode_line, Reply};
    use std::io::{BufRead, BufReader};
    use thrifty::clock::SimClock;

    fn sim_core() -> DaemonCore {
        let mut cfg = DaemonConfig::example();
        cfg.reconsolidation.auto = false;
        DaemonCore::from_config(cfg, None, Box::new(SimClock::default())).unwrap()
    }

    /// A server-side connection and the client end of its socket.
    fn pair() -> (Conn, UnixStream) {
        let (server, client) = UnixStream::pair().unwrap();
        server.set_nonblocking(true).unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        (Conn::new(server), client)
    }

    /// Services `conn` until a turn moves nothing.
    fn settle(conn: &mut Conn, core: &mut DaemonCore) {
        let mut chunk = vec![0u8; READ_CHUNK];
        while conn.service(core, &mut chunk).unwrap() {}
    }

    fn read_envelopes(client: &UnixStream, n: usize) -> Vec<Envelope> {
        let mut reader = BufReader::new(client);
        (0..n)
            .map(|_| {
                let mut line = String::new();
                reader.read_line(&mut line).unwrap();
                decode_line(&line).unwrap()
            })
            .collect()
    }

    fn error_kind(envelope: &Envelope) -> Option<&str> {
        envelope.error.as_ref().map(|e| e.kind.as_str())
    }

    #[test]
    fn a_line_one_byte_over_the_cap_is_refused_and_the_next_one_served() {
        let mut core = sim_core();
        let (mut conn, mut client) = pair();
        let mut input = vec![b'x'; MAX_LINE_BYTES + 1];
        input.extend_from_slice(b"\n\"Ping\"\n");
        client.write_all(&input).unwrap();
        settle(&mut conn, &mut core);
        let got = read_envelopes(&client, 2);
        assert_eq!(error_kind(&got[0]), Some("line-too-long"));
        assert_eq!(got[1].reply, Some(Reply::Pong));
    }

    #[test]
    fn a_line_at_the_cap_is_parsed_not_refused() {
        let mut core = sim_core();
        let (mut conn, mut client) = pair();
        let mut input = vec![b' '; MAX_LINE_BYTES - 6];
        input.extend_from_slice(b"\"Ping\"\n");
        assert_eq!(input.len(), MAX_LINE_BYTES + 1);
        client.write_all(&input).unwrap();
        settle(&mut conn, &mut core);
        assert_eq!(read_envelopes(&client, 1)[0].reply, Some(Reply::Pong));
    }

    #[test]
    fn an_endless_line_is_refused_once_and_never_buffered() {
        let mut core = sim_core();
        let (mut conn, mut client) = pair();
        let block = vec![b'y'; READ_CHUNK];
        for _ in 0..4 * MAX_LINE_BYTES / READ_CHUNK {
            client.write_all(&block).unwrap();
            settle(&mut conn, &mut core);
            assert!(conn.inbuf.len() <= MAX_LINE_BYTES, "{}", conn.inbuf.len());
        }
        client.write_all(b"\n\"Ping\"\n").unwrap();
        settle(&mut conn, &mut core);
        let got = read_envelopes(&client, 2);
        assert_eq!(error_kind(&got[0]), Some("line-too-long"));
        assert_eq!(got[1].reply, Some(Reply::Pong));
        assert!(conn.out.is_empty() && conn.inbuf.is_empty());
    }

    #[test]
    fn split_lines_and_garbage_keep_their_order() {
        let mut core = sim_core();
        let (mut conn, mut client) = pair();
        for piece in [
            &b"\"Pi"[..],
            b"ng\"\n\n  \nnot json\n\"Live",
            b"Tenants\"\n",
        ] {
            client.write_all(piece).unwrap();
            settle(&mut conn, &mut core);
        }
        let got = read_envelopes(&client, 3);
        assert_eq!(got[0].reply, Some(Reply::Pong));
        assert_eq!(error_kind(&got[1]), Some("parse"));
        assert!(matches!(got[2].reply, Some(Reply::Tenants { .. })));
    }

    #[test]
    fn a_client_that_never_reads_is_backpressured() {
        let mut core = sim_core();
        let (mut conn, mut client) = pair();
        client.set_nonblocking(true).unwrap();
        let request = b"\"Status\"\n".repeat(256);
        let mut stalled = false;
        for _ in 0..10_000 {
            match client.write(&request) {
                Ok(_) => settle(&mut conn, &mut core),
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    stalled = true;
                    break;
                }
                Err(e) => panic!("{e}"),
            }
        }
        assert!(stalled, "the server kept reading a client that never reads");
        assert!(conn.backpressured());
        assert!(!conn.wants_read());
        assert_eq!(conn.interest().events, POLLOUT);
    }
}
