//! The `thriftyd` path: a spawned `thriftyd start --sim-clock` driven by
//! one single-threaded open-loop client over one connection, and the same
//! request stream dispatched in process through `DaemonCore` for parity.

use crate::inputs::Phase;
use crate::stats::{peak_rss_mb, timed, Digest, Spans};
use std::collections::{BTreeMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};
use thrifty::clock::SimClock;
use thrifty::prelude::*;
use thrifty_daemon::config::DaemonConfig;
use thrifty_daemon::protocol::{decode_line, encode_line, Request};
use thrifty_daemon::runtime::DaemonCore;

/// One `Status` or `Telemetry` request lands at a seeded position in every
/// block of this many requests.
const PROBE_BLOCK: u64 = 250;
/// A phase fails when no reply arrives for this long.
const STALL: Duration = Duration::from_secs(20);
/// Client sleep between socket polls; bounds the timestamp error of a
/// reply (plus the scheduler's wake-up overshoot).
const POLL: Duration = Duration::from_micros(50);

fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The request stream: the log's first queries as `Submit`s, each preceded
/// by an `Advance` whenever its submit instant moves past the daemon's log
/// time (so in-flight work stays bounded), plus, when `probes`, one
/// `Status` or `Telemetry` (alternately) at a seeded position in every
/// block of [`PROBE_BLOCK`] requests. Returns encoded lines
/// (newline-terminated), `count` long unless the log runs out.
pub fn request_stream(
    log: &[IncomingQuery],
    tenants: &BTreeMap<TenantId, Tenant>,
    count: usize,
    seed: u64,
    probes: bool,
) -> Vec<String> {
    let mut out: Vec<Request> = Vec::with_capacity(count + 1);
    let probe_at = |block: u64| block * PROBE_BLOCK + mix(seed ^ block) % PROBE_BLOCK;
    let mut block = 0;
    let mut push = |out: &mut Vec<Request>, r: Request| {
        out.push(r);
        if probes && out.len() as u64 == probe_at(block) {
            out.push(if block % 2 == 0 {
                Request::Status
            } else {
                Request::Telemetry
            });
            block += 1;
        }
    };
    let mut now = 0u64;
    for q in log {
        if out.len() >= count {
            break;
        }
        let at = q.submit.as_ms();
        if at > now {
            push(&mut out, Request::Advance { ms: at - now });
            now = at;
        }
        let t = tenants[&q.tenant];
        push(
            &mut out,
            Request::Submit {
                tenant: t.id.0,
                template: q.template.0,
                data_gb: t.data_gb,
                nodes: t.nodes,
            },
        );
    }
    out.truncate(count);
    out.iter()
        .map(|r| encode_line(r).expect("requests encode") + "\n")
        .collect()
}

fn stop_line() -> String {
    encode_line(&Request::Stop).expect("requests encode") + "\n"
}

/// In-process dispatch of the stream (plus the final `Stop`) through
/// `DaemonCore` on a `SimClock`.
pub struct InProcess {
    pub digest: u64,
    /// Per-request decode + handle + encode seconds.
    pub service_secs: Vec<f64>,
    pub reply_bytes: u64,
}

/// Dispatches `lines` in process. Spans: `protocol.decode`,
/// `runtime.handle`, `protocol.encode`.
pub fn run_in_process(
    cfg: &DaemonConfig,
    lines: &[String],
    spans: &mut Spans,
) -> Result<InProcess, String> {
    let mut core = DaemonCore::from_config(cfg.clone(), None, Box::new(SimClock::default()))
        .map_err(|e| format!("in-process deploy failed: {e}"))?;
    let mut digest = Digest::new();
    let mut service_secs = Vec::with_capacity(lines.len() + 1);
    let mut reply_bytes = 0;
    for line in lines
        .iter()
        .map(String::as_str)
        .chain([stop_line().as_str()])
    {
        let (req, dec) = timed(|| decode_line::<Request>(line));
        let req = req.map_err(|e| format!("request does not decode: {e}"))?;
        let (env, handle) = timed(|| core.handle(&req));
        let (reply, enc) = timed(|| encode_line(&env));
        let reply = reply.map_err(|e| format!("reply does not encode: {e}"))?;
        spans.add("protocol.decode", dec);
        spans.add("runtime.handle", handle);
        spans.add("protocol.encode", enc);
        reply_bytes += reply.len() as u64 + 1;
        digest.bytes(reply.as_bytes());
        digest.bytes(b"\n");
        service_secs.push(dec + handle + enc);
    }
    Ok(InProcess {
        digest: digest.finish(),
        service_secs,
        reply_bytes,
    })
}

/// Latency samples of one open-loop phase.
#[derive(Default)]
pub struct PhaseOut {
    /// Reply time minus due time, ms.
    pub latency_ms: Vec<f64>,
    /// Send time minus due time, ms.
    pub lag_ms: Vec<f64>,
}

/// Outcome of the spawned-daemon run.
#[derive(Default)]
pub struct DaemonRun {
    pub start_secs: Vec<f64>,
    pub digest: u64,
    pub low: PhaseOut,
    pub high: PhaseOut,
    /// Per-request reply time minus send time, seconds (stream order).
    pub round_trip_secs: Vec<f64>,
    pub error_replies: u64,
    /// Requests never answered (daemon stalled, refused or died).
    pub unanswered: u64,
    pub bad_exits: u64,
    pub rss_mb: f64,
    /// `records` in the `Stop` reply.
    pub stop_records: u64,
    pub failure: Option<String>,
}

/// Removes the run's scratch directory (config and socket) however the
/// run ends.
struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Kills and reaps the daemon unless it was stopped cleanly.
struct DaemonProc(Option<Child>);

impl DaemonProc {
    fn pid(&self) -> Option<u32> {
        self.0.as_ref().map(Child::id)
    }

    /// Waits up to `limit` for a clean exit; `false` on a non-zero status
    /// or a timeout (the process is then killed).
    fn wait_clean(&mut self, limit: Duration) -> bool {
        let Some(mut child) = self.0.take() else {
            return false;
        };
        let deadline = Instant::now() + limit;
        loop {
            match child.try_wait() {
                Ok(Some(status)) => return status.success(),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2))
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return false;
                }
            }
        }
    }
}

impl Drop for DaemonProc {
    fn drop(&mut self) {
        if let Some(mut child) = self.0.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// One client connection with its partial-line buffer.
struct Conn {
    stream: UnixStream,
    buf: Vec<u8>,
    chunk: Vec<u8>,
}

impl Conn {
    /// Connects once `daemon` listens on `socket`; fails as soon as the
    /// daemon exits, or after `limit`.
    fn open(socket: &Path, daemon: &mut DaemonProc, limit: Duration) -> Result<Conn, String> {
        let deadline = Instant::now() + limit;
        loop {
            if let Some(Ok(Some(status))) = daemon.0.as_mut().map(Child::try_wait) {
                return Err(format!("daemon exited before listening: {status}"));
            }
            match UnixStream::connect(socket) {
                Ok(stream) => {
                    stream.set_nonblocking(true).map_err(|e| e.to_string())?;
                    return Ok(Conn {
                        stream,
                        buf: Vec::new(),
                        chunk: vec![0; 1 << 18],
                    });
                }
                Err(_) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_micros(500))
                }
                Err(e) => return Err(format!("daemon never listened: {e}")),
            }
        }
    }

    /// Reads whatever has arrived without blocking, calling `on_line` for
    /// every complete line with the instant the read returned. Socket
    /// receive timeouts tick in scheduler jiffies (milliseconds), far too
    /// coarse for sub-millisecond latencies, so callers poll this between
    /// short sleeps instead. `Ok(false)` when nothing was pending.
    fn read_some(
        &mut self,
        mut on_line: impl FnMut(&[u8], Instant) -> Result<(), String>,
    ) -> Result<bool, String> {
        let mut got = false;
        loop {
            match self.stream.read(&mut self.chunk) {
                // The daemon closes right after its `Stop` reply.
                Ok(0) if got => return Ok(true),
                Ok(0) => return Err("daemon closed the connection".to_string()),
                Ok(n) => {
                    let at = Instant::now();
                    got = true;
                    self.buf.extend_from_slice(&self.chunk[..n]);
                    while let Some(nl) = self.buf.iter().position(|&b| b == b'\n') {
                        let line: Vec<u8> = self.buf.drain(..=nl).collect();
                        on_line(&line, at)?;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(got),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e.to_string()),
            }
        }
    }

    /// Writes all of `bytes`, calling `on_block` whenever the socket is
    /// full so the caller can drain replies (the daemon blocks on its own
    /// writes to a client that stops reading).
    fn send(
        &mut self,
        bytes: &[u8],
        on_block: &mut dyn FnMut(&mut Conn) -> Result<(), String>,
    ) -> Result<(), String> {
        let mut off = 0;
        while off < bytes.len() {
            match self.stream.write(&bytes[off..]) {
                Ok(n) => off += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => on_block(self)?,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("request refused: {e}")),
            }
        }
        Ok(())
    }

    /// One request, waiting for its single reply line.
    fn round_trip(&mut self, line: &str) -> Result<Vec<u8>, String> {
        self.send(line.as_bytes(), &mut |_| {
            std::thread::sleep(POLL);
            Ok(())
        })?;
        let mut reply = None;
        let deadline = Instant::now() + Duration::from_secs(120);
        while reply.is_none() {
            if Instant::now() > deadline {
                return Err("no reply".to_string());
            }
            let got = self.read_some(|l, _| {
                reply = Some(l.to_vec());
                Ok(())
            })?;
            if !got {
                std::thread::sleep(POLL);
            }
        }
        Ok(reply.unwrap_or_default())
    }
}

/// Reply bookkeeping of one open-loop phase.
struct Tracker<'a> {
    /// `(due, sent)` of every request awaiting its reply, in send order.
    pending: VecDeque<(Instant, Instant)>,
    out: PhaseOut,
    run: &'a mut DaemonRun,
    digest: &'a mut Digest,
    last_reply: Instant,
}

impl Tracker<'_> {
    fn on_line(&mut self, line: &[u8], at: Instant) -> Result<(), String> {
        let (due, sent) = self
            .pending
            .pop_front()
            .ok_or_else(|| "reply without a request".to_string())?;
        self.out
            .latency_ms
            .push(at.duration_since(due).as_secs_f64() * 1e3);
        self.run
            .round_trip_secs
            .push(at.duration_since(sent).as_secs_f64());
        if line.starts_with(b"{\"ok\":false") {
            self.run.error_replies += 1;
        }
        self.digest.bytes(line);
        Ok(())
    }

    /// Drains arrived replies; fails once replies are owed but none came
    /// for [`STALL`].
    fn poll(&mut self, conn: &mut Conn) -> Result<bool, String> {
        let got = conn.read_some(|line, at| self.on_line(line, at))?;
        if got {
            self.last_reply = Instant::now();
        } else if !self.pending.is_empty() && self.last_reply.elapsed() > STALL {
            return Err(format!("{} requests unanswered", self.pending.len()));
        }
        Ok(got)
    }
}

/// Sends `lines` open loop at `phase.rate_per_s` — request `i` is due at
/// `start + i / rate` whether or not earlier replies have arrived — while
/// reading replies in between. Latency is timed from each due time.
fn open_loop(
    conn: &mut Conn,
    lines: &[String],
    phase: Phase,
    run: &mut DaemonRun,
    digest: &mut Digest,
) -> Result<PhaseOut, String> {
    let start = Instant::now() + Duration::from_millis(5);
    let due = |i: usize| start + Duration::from_secs_f64(i as f64 / phase.rate_per_s);
    let mut t = Tracker {
        pending: VecDeque::new(),
        out: PhaseOut::default(),
        run,
        digest,
        last_reply: Instant::now(),
    };
    let mut next = 0;
    while next < lines.len() || !t.pending.is_empty() {
        while next < lines.len() && due(next) <= Instant::now() {
            let sent = Instant::now();
            conn.send(lines[next].as_bytes(), &mut |c| {
                if !t.poll(c)? {
                    std::thread::sleep(POLL);
                }
                Ok(())
            })?;
            t.out
                .lag_ms
                .push(sent.duration_since(due(next)).as_secs_f64() * 1e3);
            t.pending.push_back((due(next), sent));
            next += 1;
        }
        if !t.poll(conn)? {
            let until_due = if next < lines.len() {
                due(next).saturating_duration_since(Instant::now())
            } else {
                POLL
            };
            std::thread::sleep(until_due.min(POLL));
        }
    }
    Ok(t.out)
}

/// Spawns `thriftyd start --sim-clock` in `dir` (which holds its config)
/// and returns it with a connection once it answers `Ping`.
fn start_daemon(bin: &Path, dir: &Path, run: &mut DaemonRun) -> Result<(DaemonProc, Conn), String> {
    let t0 = Instant::now();
    let child = Command::new(bin)
        .args([
            "start",
            "--config",
            "config.json",
            "--socket",
            "d.sock",
            "--sim-clock",
        ])
        .current_dir(dir)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
    let mut proc = DaemonProc(Some(child));
    let mut conn = Conn::open(&dir.join("d.sock"), &mut proc, Duration::from_secs(120))?;
    let pong = conn.round_trip(&(encode_line(&Request::Ping).expect("encodes") + "\n"))?;
    if !pong.starts_with(b"{\"ok\":true") {
        return Err("daemon did not answer Ping".to_string());
    }
    run.start_secs.push(t0.elapsed().as_secs_f64());
    Ok((proc, conn))
}

/// Sends `Stop`, waits for the drain reply and a clean exit.
fn stop_daemon(
    mut proc: DaemonProc,
    conn: &mut Conn,
    run: &mut DaemonRun,
) -> Result<Vec<u8>, String> {
    let reply = conn.round_trip(&stop_line())?;
    if !proc.wait_clean(Duration::from_secs(60)) {
        run.bad_exits += 1;
    }
    Ok(reply)
}

/// Runs the spawned-daemon measurement: `starts - 1` start/stop cycles for
/// repeated start-up times, then one daemon serving the low phase, the high
/// phase and the final `Stop`.
pub fn run_daemon(
    bin: &Path,
    work: &Path,
    cfg: &DaemonConfig,
    lines: &[String],
    low: Phase,
    high: Phase,
    starts: usize,
) -> DaemonRun {
    let mut run = DaemonRun::default();
    let dir = TempDir(work.join(format!("perfbench-{}", std::process::id())));
    let outcome = (|| -> Result<(), String> {
        std::fs::create_dir_all(&dir.0).map_err(|e| format!("scratch dir: {e}"))?;
        let text = serde_json::to_string(cfg).map_err(|e| format!("config encode: {e}"))?;
        std::fs::write(dir.0.join("config.json"), text).map_err(|e| format!("config: {e}"))?;
        for _ in 1..starts.max(1) {
            let (proc, mut conn) = start_daemon(bin, &dir.0, &mut run)?;
            stop_daemon(proc, &mut conn, &mut run)?;
        }
        let (proc, mut conn) = start_daemon(bin, &dir.0, &mut run)?;
        let mut digest = Digest::new();
        let split = low.requests.min(lines.len());
        let low_out = open_loop(&mut conn, &lines[..split], low, &mut run, &mut digest)?;
        run.low = low_out;
        let high_out = open_loop(&mut conn, &lines[split..], high, &mut run, &mut digest)?;
        run.high = high_out;
        run.rss_mb = peak_rss_mb(proc.pid()).unwrap_or(0.0);
        let reply = stop_daemon(proc, &mut conn, &mut run)?;
        digest.bytes(&reply);
        run.digest = digest.finish();
        let text = String::from_utf8_lossy(&reply);
        run.stop_records = text
            .split("\"records\":")
            .nth(1)
            .and_then(|t| {
                let digits: String = t.chars().take_while(char::is_ascii_digit).collect();
                digits.parse().ok()
            })
            .ok_or_else(|| format!("unexpected Stop reply: {text}"))?;
        Ok(())
    })();
    if let Err(e) = outcome {
        run.unanswered = (lines.len() as u64).saturating_sub(run.round_trip_secs.len() as u64);
        run.failure = Some(e);
    }
    run
}

#[cfg(test)]
mod tests {
    use super::*;
    use mppdb_sim::prelude::{SimDuration, SimTime, TemplateId};

    fn log(n: u64) -> (Vec<IncomingQuery>, BTreeMap<TenantId, Tenant>) {
        let tenant = Tenant::new(TenantId(7), 2, 200.0);
        let queries = (0..n)
            .map(|i| IncomingQuery {
                tenant: tenant.id,
                submit: SimTime::from_ms(1_000 * (i / 2)),
                template: TemplateId(9_000),
                baseline: SimDuration::from_ms_f64(10.0),
            })
            .collect();
        (queries, BTreeMap::from([(tenant.id, tenant)]))
    }

    #[test]
    fn the_stream_advances_sim_time_before_each_new_submit_instant() {
        let (queries, tenants) = log(600);
        let lines = request_stream(&queries, &tenants, 700, 3, false);
        assert_eq!(lines.len(), 700);
        assert!(lines.iter().all(|l| l.ends_with('\n')));
        let requests: Vec<Request> = lines.iter().map(|l| decode_line(l).unwrap()).collect();
        // Two submits share each instant; the clock moves 1 s between pairs.
        assert_eq!(
            requests[0],
            Request::Submit {
                tenant: 7,
                template: 9_000,
                data_gb: 200.0,
                nodes: 2
            }
        );
        assert_eq!(requests[2], Request::Advance { ms: 1_000 });
        assert!(!requests
            .iter()
            .any(|r| matches!(r, Request::Status | Request::Telemetry)));
    }

    #[test]
    fn probes_land_once_per_block_and_repeat_per_seed() {
        let (queries, tenants) = log(2_000);
        let lines = request_stream(&queries, &tenants, 1_000, 5, true);
        let probes = |lines: &[String]| {
            lines
                .iter()
                .enumerate()
                .filter(|(_, l)| l.starts_with("\"Status") || l.starts_with("\"Telemetry"))
                .map(|(i, _)| i)
                .collect::<Vec<_>>()
        };
        let at = probes(&lines);
        assert_eq!(at.len(), 4, "one probe per {PROBE_BLOCK} requests: {at:?}");
        for (block, &i) in at.iter().enumerate() {
            assert_eq!(i as u64 / PROBE_BLOCK, block as u64);
        }
        assert_eq!(request_stream(&queries, &tenants, 1_000, 5, true), lines);
        assert_ne!(
            probes(&request_stream(&queries, &tenants, 1_000, 6, true)),
            at
        );
    }
}
