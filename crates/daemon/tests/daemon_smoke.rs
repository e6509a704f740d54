//! End-to-end smoke of the real `thriftyd` binary over its unix socket:
//! start → status → register → routable → hot-reload (one knob applied,
//! one rejected, one section refused) → telemetry reconciliation → stop
//! drains and exits 0. The full round trip runs under `--sim-clock`
//! (bulk loads take ~100 log-seconds, which `quiesce` crosses
//! instantly); a second test proves the wall-clock daemon serves and
//! rejects manual time.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};
use thrifty_daemon::client::DaemonClient;
use thrifty_daemon::config::DaemonConfig;
use thrifty_daemon::error::DaemonError;
use thrifty_daemon::protocol::{decode_line, Envelope, Reply};
use thrifty_daemon::server::MAX_LINE_BYTES;

/// Kills the daemon on drop so a failing assertion cannot leak a
/// process or a socket.
struct DaemonGuard {
    child: Child,
}

impl Drop for DaemonGuard {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

struct TestBed {
    dir: PathBuf,
    config_path: PathBuf,
    socket: PathBuf,
}

impl TestBed {
    fn new(name: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("thriftyd-{}-{}", name, std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        TestBed {
            config_path: dir.join("thriftyd.json"),
            socket: dir.join("thriftyd.sock"),
            dir,
        }
    }

    fn write_config(&self, cfg: &DaemonConfig) {
        std::fs::write(
            &self.config_path,
            serde_json::to_string_pretty(cfg).unwrap(),
        )
        .unwrap();
    }

    fn start(&self, sim_clock: bool) -> DaemonGuard {
        self.start_with_stderr(sim_clock, Stdio::null())
    }

    fn start_with_stderr(&self, sim_clock: bool, stderr: Stdio) -> DaemonGuard {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_thriftyd"));
        cmd.arg("start")
            .arg("--config")
            .arg(&self.config_path)
            .arg("--socket")
            .arg(&self.socket)
            .stdout(Stdio::null())
            .stderr(stderr);
        if sim_clock {
            cmd.arg("--sim-clock");
        }
        DaemonGuard {
            child: cmd.spawn().expect("spawn thriftyd"),
        }
    }

    fn connect(&self) -> DaemonClient {
        DaemonClient::connect_with_retry(&self.socket, 200, 25).expect("daemon comes up")
    }

    /// A raw connection for clients that misbehave on purpose.
    fn raw(&self) -> UnixStream {
        let stream = UnixStream::connect(&self.socket).expect("raw connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream
            .set_write_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream
    }
}

impl Drop for TestBed {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn base_config() -> DaemonConfig {
    let mut cfg = DaemonConfig::example();
    cfg.daemon.tick_ms = 5;
    cfg
}

/// Stops via the client and asserts the daemon process exits 0 and
/// removes its socket.
fn stop_and_reap(client: &mut DaemonClient, bed: &TestBed, mut guard: DaemonGuard) {
    client.stop().expect("stop drains");
    let status = guard.child.wait().expect("daemon reaped");
    assert!(status.success(), "daemon exit status: {status:?}");
    assert!(
        !bed.socket.exists(),
        "socket must be removed on clean shutdown"
    );
}

#[test]
fn sim_clock_full_round_trip() {
    let bed = TestBed::new("sim");
    let mut cfg = base_config();
    cfg.reconsolidation.auto = false;
    bed.write_config(&cfg);
    let guard = bed.start(true);
    let mut client = bed.connect();

    client.ping().expect("ping");
    let status = client.status().expect("status");
    assert_eq!(status.clock, "sim");
    assert_eq!(status.tenants.len(), 4);
    assert!(status.all_routable, "{status:?}");

    // Register: the tenant parks and bulk-loads; an hour of quiesced log
    // time is far beyond the Table 5.1 load latency.
    client.register(50, 2, 60.0).expect("register");
    assert!(client.status().expect("status").pending_registrations);
    client.quiesce(3_600_000).expect("quiesce");
    let status = client.status().expect("status");
    let t50 = status
        .tenants
        .iter()
        .find(|t| t.id == 50)
        .expect("tenant 50 is live");
    assert!(t50.routable, "{status:?}");
    assert!(status.all_routable);

    // The registered tenant serves queries.
    client.submit(50, 2, 30.0, 2).expect("submit");
    client.quiesce(600_000).expect("quiesce");

    // Hot-reload: sla_p is a live knob (applied), monitor_window_ms is
    // deploy-time (rejected by the service), cluster resize is a refused
    // section (rejected by the daemon).
    let mut edited = cfg.clone();
    edited.service.sla_p = 0.99;
    edited.service.monitor_window_ms = 8 * 3_600_000;
    edited.cluster.total_nodes = 40;
    bed.write_config(&edited);
    let view = client.reload().expect("reload");
    assert_eq!(view.delta.applied.len(), 1, "{view:?}");
    assert_eq!(view.delta.applied[0].knob, "sla_p");
    assert_eq!(view.delta.rejected.len(), 1, "{view:?}");
    assert_eq!(view.delta.rejected[0].change.knob, "monitor_window_ms");
    assert_eq!(view.rejected_sections.len(), 1, "{view:?}");
    assert_eq!(view.rejected_sections[0].section, "cluster");
    let knobs = client.status().expect("status").service;
    assert!((knobs.sla_p - 0.99).abs() < 1e-12);
    assert_eq!(knobs.monitor_window_ms, 4 * 3_600_000);

    // An invalid file is rejected wholesale and the daemon keeps serving
    // the previous configuration.
    let mut bad = edited.clone();
    bad.service.sla_p = 7.0;
    bed.write_config(&bad);
    match client.reload() {
        Err(DaemonError::Remote { kind, .. }) => assert_eq!(kind, "invalid-config"),
        other => panic!("invalid reload must fail remotely, got {other:?}"),
    }
    client.ping().expect("daemon survives a bad reload");
    assert!((client.status().expect("status").service.sla_p - 0.99).abs() < 1e-12);

    // Telemetry reconciles with everything this test did.
    let telemetry = client.telemetry().expect("telemetry");
    assert_eq!(telemetry.counter("config.reloads"), 1);
    assert_eq!(telemetry.counter("config.knobs_applied"), 1);
    assert_eq!(telemetry.counter("config.knobs_rejected"), 1);
    assert_eq!(telemetry.counter("tenants.registered"), 1);
    assert_eq!(telemetry.counter("queries.submitted"), 1);
    assert_eq!(telemetry.counter("queries.completed"), 1);

    let cutover = client.cutover_status().expect("cutover status");
    assert!(!cutover.active);
    assert_eq!(cutover.cycles_completed, 0);

    stop_and_reap(&mut client, &bed, guard);
}

#[test]
fn wall_clock_daemon_serves_and_rejects_manual_time() {
    let bed = TestBed::new("wall");
    bed.write_config(&base_config());
    let guard = bed.start(false);
    let mut client = bed.connect();

    client.ping().expect("ping");
    let status = client.status().expect("status");
    assert_eq!(status.clock, "wall");
    assert!(status.all_routable, "{status:?}");

    match client.advance(60_000) {
        Err(DaemonError::Remote { kind, .. }) => assert_eq!(kind, "clock"),
        other => panic!("wall daemons must reject manual time, got {other:?}"),
    }

    stop_and_reap(&mut client, &bed, guard);
}

#[test]
fn init_config_prints_the_example() {
    let out = Command::new(env!("CARGO_BIN_EXE_thriftyd"))
        .arg("init-config")
        .output()
        .expect("init-config runs");
    assert!(out.status.success());
    let parsed: DaemonConfig =
        serde_json::from_str(&String::from_utf8(out.stdout).unwrap()).expect("valid config JSON");
    assert_eq!(parsed, DaemonConfig::example());
}

#[test]
fn a_live_socket_refuses_a_second_daemon() {
    let bed = TestBed::new("claim");
    bed.write_config(&base_config());
    let guard = bed.start(true);
    let mut client = bed.connect();
    client.ping().expect("first daemon serves");

    let out = Command::new(env!("CARGO_BIN_EXE_thriftyd"))
        .arg("start")
        .arg("--config")
        .arg(&bed.config_path)
        .arg("--socket")
        .arg(&bed.socket)
        .arg("--sim-clock")
        .output()
        .expect("second daemon runs to completion");
    assert!(!out.status.success(), "second claim must fail");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("already has a live daemon"),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    client.ping().expect("first daemon unaffected");
    stop_and_reap(&mut client, &bed, guard);
}

fn read_envelope(reader: &mut impl BufRead) -> Envelope {
    let mut line = String::new();
    reader.read_line(&mut line).expect("an envelope line");
    decode_line(&line).expect("a well-formed envelope")
}

fn error_kind(envelope: &Envelope) -> Option<&str> {
    envelope.error.as_ref().map(|e| e.kind.as_str())
}

#[test]
fn a_client_that_never_reads_cannot_stall_another() {
    const PIPELINED: usize = 2_000;
    let bed = TestBed::new("stall");
    bed.write_config(&base_config());
    let guard = bed.start(true);
    let mut b = bed.connect();
    b.ping().expect("daemon serves");

    // A pipelines far more replies than a socket buffer holds, then
    // reads nothing; let the daemon take the whole pipeline.
    let a = bed.raw();
    (&a).write_all(&b"\"Ping\"\n".repeat(PIPELINED))
        .expect("pipeline written");
    std::thread::sleep(Duration::from_millis(200));

    b.set_timeout(Some(Duration::from_secs(1))).unwrap();
    let t0 = Instant::now();
    b.ping().expect("B is answered while A reads nothing");
    assert!(t0.elapsed() < Duration::from_secs(1), "{:?}", t0.elapsed());
    b.set_timeout(None).unwrap();

    // Every queued reply reaches A, in order, and nothing more.
    let mut reader = BufReader::new(&a);
    for i in 0..PIPELINED {
        assert_eq!(
            read_envelope(&mut reader).reply,
            Some(Reply::Pong),
            "reply {i}"
        );
    }
    (&a).write_all(b"\"LiveTenants\"\n").unwrap();
    assert!(matches!(
        read_envelope(&mut reader).reply,
        Some(Reply::Tenants { .. })
    ));

    stop_and_reap(&mut b, &bed, guard);
}

#[test]
fn a_peer_that_never_sends_a_newline_gets_one_error_and_no_buffer() {
    let bed = TestBed::new("endless");
    bed.write_config(&base_config());
    let guard = bed.start(true);
    let mut b = bed.connect();

    let a = bed.raw();
    let block = vec![b'z'; MAX_LINE_BYTES];
    for _ in 0..8 {
        (&a).write_all(&block).expect("the daemon keeps draining");
    }
    let mut reader = BufReader::new(&a);
    assert_eq!(
        error_kind(&read_envelope(&mut reader)),
        Some("line-too-long")
    );
    b.ping().expect("other clients are unaffected");

    // The newline ends the refused line; the next request is served.
    (&a).write_all(b"\n\"Ping\"\n").unwrap();
    assert_eq!(read_envelope(&mut reader).reply, Some(Reply::Pong));

    stop_and_reap(&mut b, &bed, guard);
}

#[test]
fn a_sighup_wakes_an_idle_daemon_at_once() {
    let bed = TestBed::new("sighup");
    let mut cfg = base_config();
    // An idle wait far longer than the test allows for the reload.
    cfg.daemon.tick_ms = 60_000;
    bed.write_config(&cfg);
    let log = bed.dir.join("stderr.log");
    let guard = bed.start_with_stderr(false, std::fs::File::create(&log).unwrap().into());
    let mut client = bed.connect();
    client.ping().expect("daemon serves");

    let mut edited = cfg.clone();
    edited.service.sla_p = 0.99;
    bed.write_config(&edited);
    let t0 = Instant::now();
    let kill = Command::new("kill")
        .arg("-HUP")
        .arg(guard.child.id().to_string())
        .status()
        .expect("kill runs");
    assert!(kill.success());
    while !std::fs::read_to_string(&log)
        .unwrap_or_default()
        .contains("SIGHUP reload:")
    {
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "no reload 5 s after SIGHUP"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!((client.status().expect("status").service.sla_p - 0.99).abs() < 1e-12);

    stop_and_reap(&mut client, &bed, guard);
}

#[test]
fn running_out_of_descriptors_costs_only_the_new_connections() {
    let bed = TestBed::new("emfile");
    bed.write_config(&base_config());
    // A descriptor limit far below the connections offered below.
    let child = Command::new("bash")
        .arg("-c")
        .arg(format!(
            "ulimit -n 16 && exec {} start --config {} --socket {} --sim-clock",
            env!("CARGO_BIN_EXE_thriftyd"),
            bed.config_path.display(),
            bed.socket.display()
        ))
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn thriftyd under a descriptor limit");
    let guard = DaemonGuard { child };
    let mut client = bed.connect();
    client.ping().expect("daemon serves");

    let flood: Vec<UnixStream> = (0..32).map(|_| bed.raw()).collect();
    std::thread::sleep(Duration::from_millis(200));
    client
        .ping()
        .expect("the daemon survives a full descriptor table");
    drop(flood);
    let mut late = bed.connect();
    late.ping().expect("freed descriptors are accepted again");

    stop_and_reap(&mut client, &bed, guard);
}
