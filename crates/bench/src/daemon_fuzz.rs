//! Daemon-mode lifecycle fuzz: the same seeded schedule, executed twice.
//!
//! [`fuzz_daemon`] generates one deterministic request schedule (time,
//! queries, registrations, deregistrations, cycles, node failures) and
//! runs it through
//!
//! 1. a **direct** in-process [`DaemonCore`] on a `SimClock` — plain
//!    library dispatch, no transport; and
//! 2. a **spawned `thriftyd --sim-clock` process** over its unix socket,
//!    the real daemon binary end to end;
//!
//! then asserts every answer envelope — success or structured error —
//! and the final service report are **byte-identical** across the two
//! paths. Under a simulated clock the only way time moves is an explicit
//! `Advance`/`Quiesce` request, so a request sequence is a complete
//! schedule and the daemon's socket/server layer must add exactly
//! nothing to the outcome.
//!
//! While the schedule runs, a second connection to the same daemon
//! misbehaves in one of four ways (`Adversary`, chosen by the seed).
//! It sends only read-only requests or lines that never complete, so the
//! main connection's transcript must still match direct dispatch byte
//! for byte, and every main request must be answered within
//! `REPLY_LIMIT` however the side client behaves.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use std::io::{ErrorKind, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::time::Duration;
use thrifty::clock::SimClock;
use thrifty_daemon::client::DaemonClient;
use thrifty_daemon::config::{DaemonConfig, TenantSection};
use thrifty_daemon::protocol::{encode_line, Request};
use thrifty_daemon::runtime::DaemonCore;

/// Steps per daemon-fuzz schedule (each step is one request).
const STEPS: u32 = 40;

/// Longest a main-connection request may wait for its answer; a daemon
/// stalled by the side client fails the seed instead of hanging it.
const REPLY_LIMIT: Duration = Duration::from_secs(30);

/// How the side connection misbehaves while a schedule runs.
#[derive(Clone, Copy, Debug)]
enum Adversary {
    /// Pipelines `Status` requests every step and never reads a reply.
    Pipeliner,
    /// Sends the first half of the next schedule line, holds it across
    /// one main request, then hangs up.
    HalfLine,
    /// Asks for about 1 MB of telemetry snapshots up front, more than
    /// the socket buffers and the daemon's reply-queue bound hold, then
    /// reads one byte per step.
    ByteReader,
    /// Asks for about 0.5 MB of reports and hangs up after the first
    /// byte, leaving the daemon with replies queued for a closed peer.
    MidReplyDrop,
}

impl Adversary {
    /// The side client of `seed`: the four modes in turn.
    fn for_seed(seed: u64) -> Self {
        match seed % 4 {
            0 => Adversary::Pipeliner,
            1 => Adversary::HalfLine,
            2 => Adversary::ByteReader,
            _ => Adversary::MidReplyDrop,
        }
    }
}

/// The misbehaving second connection of one daemon run.
struct SideClient {
    mode: Adversary,
    stream: Option<UnixStream>,
    /// Request bytes the socket has not taken yet (`Pipeliner`).
    pending: Vec<u8>,
    /// Reply bytes read so far (`ByteReader`, `MidReplyDrop`).
    got: Vec<u8>,
}

impl SideClient {
    fn connect(mode: Adversary, socket: &Path) -> std::io::Result<Self> {
        let mut stream = UnixStream::connect(socket)?;
        stream.set_read_timeout(Some(REPLY_LIMIT))?;
        stream.set_write_timeout(Some(REPLY_LIMIT))?;
        match mode {
            Adversary::Pipeliner => stream.set_nonblocking(true)?,
            Adversary::ByteReader => stream.write_all(&b"\"Telemetry\"\n".repeat(512))?,
            Adversary::HalfLine | Adversary::MidReplyDrop => {}
        }
        Ok(SideClient {
            mode,
            stream: Some(stream),
            pending: Vec::new(),
            got: Vec::new(),
        })
    }

    /// Misbehaves once more before main step `step` of `requests`; the
    /// one-shot modes act at the schedule's midpoint.
    fn before_step(&mut self, step: usize, requests: &[Request]) -> std::io::Result<()> {
        let Some(stream) = self.stream.as_mut() else {
            return Ok(());
        };
        let midpoint = requests.len() / 2;
        match self.mode {
            Adversary::Pipeliner => {
                if self.pending.is_empty() {
                    self.pending = b"\"Status\"\n".repeat(64);
                }
                match stream.write(&self.pending) {
                    Ok(n) => drop(self.pending.drain(..n)),
                    Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                    Err(e) => return Err(e),
                }
            }
            Adversary::HalfLine if step == midpoint => {
                let line = encode_line(&requests[step]).map_err(std::io::Error::other)?;
                stream.write_all(&line.as_bytes()[..line.len() / 2])?;
            }
            Adversary::HalfLine if step == midpoint + 1 => self.stream = None,
            Adversary::ByteReader => read_byte(stream, &mut self.got)?,
            Adversary::MidReplyDrop if step == midpoint => {
                stream.write_all(&b"\"Report\"\n".repeat(256))?;
                read_byte(stream, &mut self.got)?;
                self.stream = None;
            }
            Adversary::HalfLine | Adversary::MidReplyDrop => {}
        }
        Ok(())
    }

    /// What the side client read must be the start of a success
    /// envelope: replies arrive whole and in order, however slowly.
    fn check(&self) -> Result<(), String> {
        let want = b"{\"ok\":true,\"reply\":{";
        let n = self.got.len().min(want.len());
        if self.got[..n] == want[..n] {
            Ok(())
        } else {
            Err(format!(
                "{:?} side client read {:?}",
                self.mode,
                String::from_utf8_lossy(&self.got)
            ))
        }
    }
}

/// Deterministic digest of one daemon-vs-direct schedule.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct DaemonFuzzOutcome {
    /// The driving seed.
    pub seed: u64,
    /// Requests issued (shutdown handshake excluded).
    pub requests: usize,
    /// Requests answered with an error envelope (identically on both
    /// paths — clean rejections are part of the contract).
    pub errors: u64,
    /// The final service report both paths produced, serialized.
    pub report_json: String,
}

fn read_byte(stream: &mut UnixStream, got: &mut Vec<u8>) -> std::io::Result<()> {
    let mut byte = [0u8];
    stream.read_exact(&mut byte)?;
    got.push(byte[0]);
    Ok(())
}

/// The daemon config every fuzzed pair runs: the stock example with
/// manual re-consolidation cadence (cycles happen via explicit `Cycle`
/// requests, mirroring the lifecycle fuzz) and seed-varied data sizes.
fn fuzz_config(seed: u64) -> DaemonConfig {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x7A63_0F11_9C02_55B7);
    let mut cfg = DaemonConfig::example();
    cfg.reconsolidation.auto = false;
    for group in &mut cfg.groups {
        for member in &mut group.members {
            member.data_gb = rng.gen_range(40.0..250.0);
        }
    }
    cfg
}

/// Generates the seeded request schedule. Tenant liveness is tracked
/// locally and approximately — a request that the service refuses is
/// still a valid schedule entry, because both executors must refuse it
/// with the identical envelope.
fn schedule(seed: u64, cfg: &DaemonConfig) -> Vec<Request> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x51D6_E2C4_0B9A_73F5);
    let mut live: Vec<u32> = cfg
        .groups
        .iter()
        .flat_map(|g| g.members.iter().map(|m| m.id))
        .collect();
    let mut next_tenant = 500u32;
    let mut requests = Vec::with_capacity(STEPS as usize + 2);
    for _ in 0..STEPS {
        let roll = rng.gen_range(0u32..100);
        if roll < 30 {
            let ms = rng.gen_range(60_000u64..1_200_000);
            requests.push(if roll < 15 {
                Request::Advance { ms }
            } else {
                Request::Quiesce { ms }
            });
        } else if roll < 60 {
            let tenant = live[rng.gen_range(0..live.len())];
            requests.push(Request::Submit {
                tenant,
                template: 2,
                data_gb: rng.gen_range(20.0..200.0),
                nodes: 2,
            });
        } else if roll < 72 {
            requests.push(Request::Register(TenantSection {
                id: next_tenant,
                nodes: 2,
                data_gb: rng.gen_range(20.0..200.0),
            }));
            live.push(next_tenant);
            next_tenant += 1;
        } else if roll < 82 {
            if live.len() > 2 {
                let victim = live.swap_remove(rng.gen_range(0..live.len()));
                requests.push(Request::Deregister { id: victim });
            }
        } else if roll < 90 {
            requests.push(Request::InjectFailure {
                node: rng.gen_range(0u32..cfg.cluster.total_nodes as u32),
            });
        } else if roll < 95 {
            requests.push(Request::Cycle);
        } else {
            requests.push(if roll % 2 == 0 {
                Request::Status
            } else {
                Request::CutoverStatus
            });
        }
    }
    // Settle in-flight work so the final report is a quiescent one, then
    // fetch it — the byte-compared artifact.
    requests.push(Request::Quiesce { ms: 2 * 3_600_000 });
    requests.push(Request::Report);
    requests
}

/// Executes the schedule on an in-process [`DaemonCore`] (the direct
/// library path), returning one canonical envelope line per request.
fn run_direct(cfg: &DaemonConfig, requests: &[Request], seed: u64) -> Result<Vec<String>, String> {
    let mut core = DaemonCore::from_config(cfg.clone(), None, Box::new(SimClock::default()))
        .map_err(|e| format!("seed {seed}: direct deploy failed: {e}"))?;
    let mut lines = Vec::with_capacity(requests.len());
    for (step, req) in requests.iter().enumerate() {
        let envelope = core.handle(req);
        lines.push(
            encode_line(&envelope)
                .map_err(|e| format!("seed {seed} step {step}: direct encode: {e}"))?,
        );
    }
    Ok(lines)
}

/// Executes the schedule against a spawned `thriftyd --sim-clock` over
/// its socket, returning one canonical envelope line per request. The
/// daemon is stopped (drained) afterwards and must exit 0.
fn run_via_daemon(
    cfg: &DaemonConfig,
    requests: &[Request],
    seed: u64,
    bin: &PathBuf,
) -> Result<Vec<String>, String> {
    let dir = std::env::temp_dir().join(format!("thriftyd-fuzz-{}-{seed}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("seed {seed}: tmp dir: {e}"))?;
    let config_path = dir.join("thriftyd.json");
    let socket = dir.join("thriftyd.sock");
    let text = serde_json::to_string_pretty(cfg)
        .map_err(|e| format!("seed {seed}: config encode: {e}"))?;
    std::fs::write(&config_path, text).map_err(|e| format!("seed {seed}: config write: {e}"))?;

    let mut child = std::process::Command::new(bin)
        .arg("start")
        .arg("--config")
        .arg(&config_path)
        .arg("--socket")
        .arg(&socket)
        .arg("--sim-clock")
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn() // lint: allow(thread-spawn) — a child *process* (the daemon under test), joined below; no in-process threading.
        .map_err(|e| format!("seed {seed}: spawn {}: {e}", bin.display()))?;

    let outcome = (|| {
        let mut client = DaemonClient::connect_with_retry(&socket, 200, 25)
            .map_err(|e| format!("seed {seed}: daemon never came up: {e}"))?;
        client
            .set_timeout(Some(REPLY_LIMIT))
            .map_err(|e| format!("seed {seed}: {e}"))?;
        let mut side = SideClient::connect(Adversary::for_seed(seed), &socket)
            .map_err(|e| format!("seed {seed}: side client: {e}"))?;
        let mut lines = Vec::with_capacity(requests.len());
        for (step, req) in requests.iter().enumerate() {
            side.before_step(step, requests)
                .map_err(|e| format!("seed {seed} step {step}: {:?}: {e}", side.mode))?;
            let envelope = client
                .request_envelope(req)
                .map_err(|e| format!("seed {seed} step {step}: socket round trip: {e}"))?;
            lines.push(
                encode_line(&envelope)
                    .map_err(|e| format!("seed {seed} step {step}: daemon encode: {e}"))?,
            );
        }
        side.check().map_err(|e| format!("seed {seed}: {e}"))?;
        // The side client stays connected (a pipeliner still clogged)
        // while the main connection stops the daemon.
        client
            .stop()
            .map_err(|e| format!("seed {seed}: stop failed: {e}"))?;
        Ok(lines)
    })();

    let status = match outcome {
        Ok(_) => child
            .wait()
            .map_err(|e| format!("seed {seed}: wait failed: {e}"))?,
        Err(e) => {
            let _ = child.kill();
            let _ = child.wait();
            let _ = std::fs::remove_dir_all(&dir);
            return Err(e);
        }
    };
    let _ = std::fs::remove_dir_all(&dir);
    if !status.success() {
        return Err(format!(
            "seed {seed}: daemon exit status {status:?} after a clean stop"
        ));
    }
    outcome
}

/// Locates the `thriftyd` binary: `$THRIFTYD_BIN` wins, then siblings of
/// the current executable (`target/<profile>/thriftyd`, also found from
/// a test binary in `target/<profile>/deps/`).
pub fn find_thriftyd() -> Option<PathBuf> {
    if let Some(p) = std::env::var_os("THRIFTYD_BIN") {
        let p = PathBuf::from(p);
        return p.exists().then_some(p);
    }
    let exe = std::env::current_exe().ok()?;
    exe.ancestors()
        .skip(1)
        .take(3)
        .map(|dir| dir.join("thriftyd"))
        .find(|cand| cand.exists())
}

/// Runs one seeded schedule through both paths and byte-compares every
/// envelope.
///
/// # Errors
/// A human-readable description of the first divergence or failure.
pub fn fuzz_daemon(seed: u64, bin: &PathBuf) -> Result<DaemonFuzzOutcome, String> {
    let cfg = fuzz_config(seed);
    let requests = schedule(seed, &cfg);
    let direct = run_direct(&cfg, &requests, seed)?;
    let daemon = run_via_daemon(&cfg, &requests, seed, bin)?;
    if direct.len() != daemon.len() {
        return Err(format!(
            "seed {seed}: {} direct answers vs {} daemon answers",
            direct.len(),
            daemon.len()
        ));
    }
    for (step, (d, s)) in direct.iter().zip(daemon.iter()).enumerate() {
        if d != s {
            return Err(format!(
                "seed {seed} step {step}: paths diverged on {:?}\n  direct: {d}\n  daemon: {s}",
                requests[step]
            ));
        }
    }
    let errors = direct
        .iter()
        .filter(|line| line.starts_with("{\"ok\":false"))
        .count() as u64;
    let report_json = direct
        .last()
        .and_then(|line| {
            line.split_once("\"json\":")
                .map(|(_, tail)| tail.to_string())
        })
        .unwrap_or_default();
    Ok(DaemonFuzzOutcome {
        seed,
        requests: requests.len(),
        errors,
        report_json,
    })
}

/// Runs [`fuzz_daemon`] for every seed in `start..start + count`,
/// returning the failure messages (empty = pass). Seeds run through
/// [`par_map`](crate::parallel::par_map) — each schedule gets its own
/// daemon process, socket, and temp dir, so they are independent.
pub fn run_daemon_seed_range(start: u64, count: u64, bin: &PathBuf) -> Vec<String> {
    let seeds: Vec<u64> = (start..start + count).collect();
    let results = crate::parallel::par_map("fuzz:daemon-seeds", &seeds, |&seed| {
        fuzz_daemon(seed, bin).err()
    });
    results.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_schedule_is_deterministic_and_covers_the_lifecycle() {
        let cfg = fuzz_config(9);
        let a = schedule(9, &cfg);
        let b = schedule(9, &cfg);
        assert_eq!(a, b);
        assert!(a.iter().any(|r| matches!(r, Request::Submit { .. })));
        assert!(a.iter().any(|r| matches!(r, Request::Register(_))));
        assert!(a
            .iter()
            .any(|r| matches!(r, Request::Advance { .. } | Request::Quiesce { .. })));
        assert!(matches!(a.last(), Some(Request::Report)));
    }

    #[test]
    fn the_direct_path_is_deterministic_per_seed() {
        let cfg = fuzz_config(4);
        let requests = schedule(4, &cfg);
        let a = run_direct(&cfg, &requests, 4).unwrap();
        let b = run_direct(&cfg, &requests, 4).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn daemon_and_direct_paths_are_byte_identical() {
        // Needs the thriftyd binary; `cargo test -p thrifty-bench` alone
        // does not build sibling-crate binaries, so skip (CI's fault-fuzz
        // job builds thriftyd first and runs `fault_fuzz --daemon`).
        let Some(bin) = find_thriftyd() else {
            eprintln!("skipping: thriftyd binary not built (set THRIFTYD_BIN)");
            return;
        };
        // Seeds 0..4 run each side-client mode once.
        for seed in 0..4 {
            let outcome = fuzz_daemon(seed, &bin).unwrap();
            assert!(outcome.requests > STEPS as usize / 2);
            assert!(!outcome.report_json.is_empty());
        }
    }
}
