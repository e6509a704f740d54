//! `perfbench` — runs one benchmark workload in this process and prints
//! one JSON line: digests, checks, end-to-end metrics and (with
//! `--trace 1`) per-layer metrics. `perfbench/run.py` builds this binary
//! and `thriftyd`, runs it, and prints the benchmark's result line.
//!
//! ```text
//! perfbench --workload <replay-100k|paper-week|daemon-rpc> --seed <n>
//!           --seconds <n> --trace <0|1> --thriftyd <path> [--smoke] [--no-daemon]
//! ```
//!
//! `--no-daemon` runs the in-process path only (the untraced half of a
//! traced run, which needs its replay throughput and digests).

mod daemon;
mod inproc;
mod inputs;
mod stats;

use inputs::{Corpus, Kind, Spec};
use stats::{fastest, median, quantile_sorted, steady, timed, Spans};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;
use thrifty::prelude::*;
use thrifty_daemon::config::DaemonConfig;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    thriftyd: PathBuf,
    smoke: bool,
    no_daemon: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags = BTreeMap::new();
    let (mut smoke, mut no_daemon) = (false, false);
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--no-daemon" => no_daemon = true,
            "--workload" | "--seed" | "--seconds" | "--trace" | "--thriftyd" => {
                let v = it.next().ok_or_else(|| format!("{a} needs a value"))?;
                flags.insert(a.trim_start_matches("--").to_string(), v.clone());
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let get = |k: &str| flags.get(k).ok_or_else(|| format!("missing --{k}"));
    Ok(Args {
        workload: get("workload")?.clone(),
        seed: get("seed")?
            .parse()
            .map_err(|_| "--seed must be an integer")?,
        seconds: get("seconds")?
            .parse()
            .map_err(|_| "--seconds must be a number")?,
        trace: match get("trace")?.as_str() {
            "0" => false,
            "1" => true,
            _ => return Err("--trace must be 0 or 1".to_string()),
        },
        thriftyd: PathBuf::from(get("thriftyd")?),
        smoke,
        no_daemon,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let Some(spec) = Spec::named(&args.workload, args.smoke) else {
        eprintln!("perfbench: unknown workload {}", args.workload);
        std::process::exit(2);
    };
    thrifty_bench::parallel::set_thread_override(Some(1));
    match run(&spec, &args) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {}: {e}", spec.name);
            std::process::exit(1);
        }
    }
}

/// JSON number (non-finite values become `null`).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// The result line's sections.
#[derive(Default)]
struct Out {
    metrics: Vec<(&'static str, f64, &'static str)>,
    samples: Vec<(&'static str, usize)>,
    checks: Vec<(&'static str, bool)>,
    digests: Vec<(&'static str, u64)>,
    detail: Vec<(&'static str, f64)>,
    attempted: u64,
    failed: u64,
}

impl Out {
    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    fn check(&mut self, name: &'static str, ok: bool) {
        self.checks.push((name, ok));
    }

    fn render(&self, spec: &Spec, args: &Args) -> String {
        fn obj<T>(items: &[(&str, T)], f: impl Fn(&T) -> String) -> String {
            let body: Vec<String> = items
                .iter()
                .map(|(n, v)| format!("\"{n}\":{}", f(v)))
                .collect();
            format!("{{{}}}", body.join(","))
        }
        let metrics: Vec<(&str, (f64, &str))> =
            self.metrics.iter().map(|&(n, v, u)| (n, (v, u))).collect();
        format!(
            "{{\"workload\":\"{}\",\"seed\":{},\"trace\":{},\"attempted\":{},\"failed\":{},\
             \"checks\":{},\"digests\":{},\"metrics\":{},\"samples\":{},\"detail\":{}}}",
            spec.name,
            args.seed,
            u8::from(args.trace),
            self.attempted,
            self.failed,
            obj(&self.checks, |ok| ok.to_string()),
            obj(&self.digests, |d| format!("\"{d:016x}\"")),
            obj(&metrics, |(v, u)| format!(
                "{{\"value\":{},\"unit\":\"{u}\"}}",
                num(*v)
            )),
            obj(&self.samples, |c| c.to_string()),
            obj(&self.detail, |v| num(*v)),
        )
    }
}

/// Seconds of daemon start-up and in-process dispatch the time budget
/// reserves besides the open-loop phases.
const DAEMON_OVERHEAD_S: f64 = 2.0;

/// Consecutive latency samples per window of [`windowed_p99`]: at least
/// ten samples lie beyond each window's p99.
const P99_WINDOW: usize = 1_000;

/// The smallest p99 over consecutive windows of [`P99_WINDOW`] samples.
/// Scheduling hiccups on the shared machine delay bursts of requests and
/// only ever raise a window's p99, so the least-disturbed window is the
/// steadiest estimate of the daemon's own tail. Costs every window pays (a
/// probe lands in each block of 250 requests) still show.
fn windowed_p99(samples: &[f64]) -> f64 {
    let windows = (samples.len() / P99_WINDOW).max(1);
    let size = (samples.len() / windows).max(1);
    let p99s: Vec<f64> = samples
        .chunks(size)
        .take(windows)
        .map(|w| {
            let mut w = w.to_vec();
            w.sort_by(f64::total_cmp);
            quantile_sorted(&w, 0.99)
        })
        .collect();
    fastest(&p99s)
}

fn percentile(samples: &[f64], q: f64) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    quantile_sorted(&s, q)
}

/// The planner runs repeatedly until this much time has passed, so that
/// fast planners are timed over many calls; a slow one runs once per
/// iteration and leaves the time to the replays.
const PLAN_MIN_S: f64 = 0.3;

/// Seconds of every planner call.
#[derive(Default)]
struct PlanTimes {
    secs: Vec<f64>,
}

/// Plans the deployment, timing at least one planner call into `times`.
fn timed_plan(spec: &Spec, corpus: &Corpus, times: &mut PlanTimes) -> DeploymentPlan {
    let start = Instant::now();
    let mut calls = 0;
    loop {
        let (plan, s) = timed(|| inputs::plan(spec, corpus));
        times.secs.push(s);
        calls += 1;
        if start.elapsed().as_secs_f64() >= PLAN_MIN_S || calls >= 200 {
            return plan;
        }
    }
}

/// The workload's inputs, generated `setup_reps` times.
struct Setup {
    corpus: Corpus,
    plan: DeploymentPlan,
    /// The `thriftyd` configuration hosting `plan`; the in-process service
    /// runs its service section too.
    daemon_cfg: DaemonConfig,
    log: Vec<IncomingQuery>,
    gen_secs: Vec<f64>,
    plan_times: PlanTimes,
    input_digest: u64,
}

fn setup(spec: &Spec, args: &Args, spans: &mut Spans, out: &mut Out) -> Setup {
    let mut gen_secs = Vec::new();
    let mut plan_times = PlanTimes::default();
    let mut digests = Vec::new();
    let mut built = None;
    for _ in 0..spec.setup_reps.max(1) {
        let (corpus, t_corpus) = timed(|| inputs::corpus(spec, args.seed, spans));
        let plan = timed_plan(spec, &corpus, &mut plan_times);
        let (log, t_log) = timed(|| inputs::query_log(spec, &corpus, &plan, spans));
        gen_secs.push(t_corpus + t_log);
        digests.push(inputs::inputs_digest(&corpus, &log));
        built = Some((corpus, plan, log));
    }
    out.check("inputs_repeat", digests.windows(2).all(|w| w[0] == w[1]));
    let (corpus, plan, log) = built.expect("at least one set-up repetition");
    Setup {
        daemon_cfg: inputs::daemon_config(spec, &corpus, &plan),
        corpus,
        plan,
        log,
        gen_secs,
        plan_times,
        input_digest: digests[0],
    }
}

/// What the in-process iterations measured.
struct InProcess {
    /// Success share of the replayed queries (records ÷ queries).
    ok_share: f64,
    deploy_secs: Vec<f64>,
    replay_secs: Vec<f64>,
    replay: inproc::ReplayOut,
    iterations: usize,
    traced_iterations: u64,
    grouping: (u64, u64, u64),
}

/// In-process iterations — plan, deploy, replay — run in slices that
/// bracket the daemon phases, so that [`steady`] times them across the
/// whole run rather than one stretch of it.
/// Traced runs keep the first iteration on the untraced `replay()` as the
/// digest reference for the stepped replays after it.
struct Iterations {
    service_cfg: ServiceConfig,
    total_nodes: usize,
    plan_digest: u64,
    /// In-process seconds the run may spend, over all slices.
    budget: f64,
    min_iters: usize,
    spent: f64,
    deploy_secs: Vec<f64>,
    replay_secs: Vec<f64>,
    digests: Vec<u64>,
    conserved: bool,
    plans_repeat: bool,
    grouping_equal: bool,
    grouping: (u64, u64, u64),
    traced_iterations: u64,
    last: Option<inproc::ReplayOut>,
    replayed: u64,
    queries_missing: u64,
    iterations: usize,
}

impl Iterations {
    fn new(spec: &Spec, args: &Args, s: &Setup) -> Result<Iterations, String> {
        let service_cfg = s.daemon_cfg.service_config().map_err(|e| e.to_string())?;
        let daemon_secs = if args.no_daemon {
            0.0
        } else {
            spec.daemon_phase_secs() + DAEMON_OVERHEAD_S
        };
        // Traced runs keep a quarter of the seconds for their stepped
        // replays even when the daemon phases alone fill the rest.
        let budget =
            (args.seconds - daemon_secs).max(if args.trace { args.seconds / 4.0 } else { 0.0 });
        Ok(Iterations {
            service_cfg,
            total_nodes: s.daemon_cfg.cluster.total_nodes,
            plan_digest: inproc::plan_digest(&s.plan),
            budget,
            min_iters: if args.trace { 2 } else { 1 },
            spent: 0.0,
            deploy_secs: Vec::new(),
            replay_secs: Vec::new(),
            digests: Vec::new(),
            conserved: true,
            plans_repeat: true,
            grouping_equal: true,
            grouping: (0, 0, 0),
            traced_iterations: 0,
            last: None,
            replayed: 0,
            queries_missing: 0,
            iterations: 0,
        })
    }

    /// Iterates until `share` of the budget is spent (and, on the last
    /// slice, at least the minimum number of iterations has run).
    fn run_slice(
        &mut self,
        share: f64,
        spec: &Spec,
        args: &Args,
        s: &mut Setup,
        spans: &mut Spans,
        out: &mut Out,
    ) -> Result<(), String> {
        let err = |e: ThriftyError| e.to_string();
        let until = self.budget * share;
        let min_iters = if share >= 1.0 { self.min_iters } else { 1 };
        let start = Instant::now();
        let spent_before = self.spent;
        while self.iterations < spec.max_iters
            && (self.iterations < min_iters || self.spent < until)
        {
            let traced = args.trace && self.iterations > 0;
            let plan = if traced && spec.kind == Kind::PaperWeek {
                let cfg = inputs::advisor_config(&s.corpus);
                let (plan, equal, counts) = inproc::advise_traced(&s.corpus.histories, cfg, spans);
                self.grouping_equal &= equal;
                self.grouping = counts;
                plan
            } else {
                timed_plan(spec, &s.corpus, &mut s.plan_times)
            };
            self.plans_repeat &= inproc::plan_digest(&plan) == self.plan_digest;
            let (service, secs) = timed(|| {
                ThriftyService::deploy(
                    &s.plan,
                    self.total_nodes,
                    s.corpus.templates.iter().copied(),
                    self.service_cfg.clone(),
                )
            });
            let service = service.map_err(err)?;
            self.deploy_secs.push(secs);
            let queries = s.log.clone();
            let r = if traced {
                spans.add("service.deploy", secs);
                self.traced_iterations += 1;
                inproc::replay_traced(service, queries, spans)
            } else {
                inproc::replay(service, queries)
            }
            .map_err(err)?;
            let missing = r.queries.saturating_sub(r.total) as u64;
            out.attempted += r.queries as u64;
            out.failed += missing;
            self.replayed += r.queries as u64;
            self.queries_missing += missing;
            self.conserved &= r.total == r.queries;
            if traced || !args.trace {
                self.replay_secs.push(r.secs);
            }
            self.digests.push(r.digest);
            self.last = Some(r);
            self.iterations += 1;
            self.spent = spent_before + start.elapsed().as_secs_f64();
        }
        Ok(())
    }

    /// Checks over all slices and, when traced, the layer probes that run
    /// once on the last replay.
    fn finish(
        self,
        spec: &Spec,
        args: &Args,
        s: &Setup,
        spans: &mut Spans,
        out: &mut Out,
    ) -> Result<InProcess, String> {
        let err = |e: ThriftyError| e.to_string();
        out.check("plan_repeat", self.plans_repeat);
        out.check(
            "replay_repeat",
            self.digests.windows(2).all(|w| w[0] == w[1]),
        );
        out.check("queries_conserved", self.conserved);
        let replay = self.last.ok_or("no in-process iteration ran")?;
        if args.trace {
            if spec.kind == Kind::PaperWeek {
                out.check("grouping_matches_advisor", self.grouping_equal);
            }
            inproc::op_stream(
                &replay.records,
                &s.plan,
                inputs::advisor_config(&s.corpus).replication,
                self.service_cfg.monitor_window_ms,
                spans,
            )
            .map_err(err)?;
            let completed = inproc::cluster_replay(
                &s.plan,
                self.total_nodes,
                &s.corpus.templates,
                &s.log,
                spans,
            )
            .map_err(err)?;
            out.check("cluster_replay_conserved", completed == s.log.len());
        }
        Ok(InProcess {
            ok_share: 1.0 - self.queries_missing as f64 / self.replayed.max(1) as f64,
            deploy_secs: self.deploy_secs,
            replay_secs: self.replay_secs,
            replay,
            iterations: self.iterations,
            traced_iterations: self.traced_iterations,
            grouping: self.grouping,
        })
    }
}

/// What the daemon path measured: the spawned daemon and in-process
/// `DaemonCore` dispatch of the same stream.
struct DaemonPath {
    /// Success share of the requests sent to the daemon.
    ok_share: f64,
    run: daemon::DaemonRun,
    direct: daemon::InProcess,
    spans: Spans,
    requests: usize,
}

fn daemon_path(spec: &Spec, args: &Args, s: &Setup, out: &mut Out) -> Result<DaemonPath, String> {
    let tenants: BTreeMap<TenantId, Tenant> = s
        .plan
        .groups
        .iter()
        .flat_map(|g| g.members.iter().map(|m| (m.id, *m)))
        .collect();
    let lines = daemon::request_stream(
        &s.log,
        &tenants,
        spec.low.requests + spec.high.requests,
        args.seed,
        spec.probes,
    );
    let mut spans = Spans::default();
    let direct = daemon::run_in_process(&s.daemon_cfg, &lines, &mut spans)?;
    let work = std::env::current_dir()
        .map_err(|e| e.to_string())?
        .join(".perfbench-tmp");
    let run = daemon::run_daemon(
        &args.thriftyd,
        &work,
        &s.daemon_cfg,
        &lines,
        spec.low,
        spec.high,
        spec.daemon_starts,
    );
    // Removed only when empty: a concurrent run may still use it.
    let _ = std::fs::remove_dir(&work);
    if let Some(f) = &run.failure {
        eprintln!("perfbench: {}: daemon: {f}", spec.name);
    }
    let submits = lines
        .iter()
        .filter(|l| l.starts_with("{\"Submit\""))
        .count() as u64;
    out.check("daemon_matches_in_process", run.digest == direct.digest);
    out.check("daemon_conserved", run.stop_records == submits);
    out.check("daemon_no_error_replies", run.error_replies == 0);
    out.check(
        "daemon_clean_exit",
        run.bad_exits == 0 && run.failure.is_none(),
    );
    let attempted = lines.len() as u64 + run.start_secs.len() as u64 * 2;
    let failed = run.error_replies + run.unanswered + run.bad_exits;
    out.attempted += attempted;
    out.failed += failed;
    out.digests.push(("daemon", direct.digest));
    Ok(DaemonPath {
        ok_share: 1.0 - failed as f64 / attempted.max(1) as f64,
        run,
        direct,
        spans,
        requests: lines.len(),
    })
}

fn run(spec: &Spec, args: &Args) -> Result<String, String> {
    let run_start = Instant::now();
    let mut spans = Spans::default();
    let mut out = Out::default();
    let mut s = setup(spec, args, &mut spans, &mut out);
    let mut iters = Iterations::new(spec, args, &s)?;
    iters.run_slice(0.5, spec, args, &mut s, &mut spans, &mut out)?;
    let dp = if args.no_daemon {
        None
    } else {
        Some(daemon_path(spec, args, &s, &mut out)?)
    };
    iters.run_slice(1.0, spec, args, &mut s, &mut spans, &mut out)?;
    let ip = iters.finish(spec, args, &s, &mut spans, &mut out)?;
    out.digests.extend([
        ("inputs", s.input_digest),
        ("plan", inproc::plan_digest(&s.plan)),
        ("replay", ip.replay.digest),
    ]);
    let empty = daemon::DaemonRun::default();
    let drun = dp.as_ref().map_or(&empty, |d| &d.run);

    out.metric(
        "setup_s",
        median(&s.gen_secs) + median(&ip.deploy_secs) + median(&drun.start_secs),
        "s",
    );
    // The worse of the two paths, so a failing daemon is not diluted by
    // millions of in-process queries.
    let daemon_ok = dp.as_ref().map_or(1.0, |d| d.ok_share);
    out.metric("ok_frac", ip.ok_share.min(daemon_ok), "frac");
    let rss = stats::peak_rss_mb(None).unwrap_or(0.0).max(drun.rss_mb);
    out.metric("peak_rss_mb", rss, "MiB");
    out.metric(
        "replay_qps",
        s.log.len() as f64 / steady(&ip.replay_secs),
        "1/s",
    );
    out.metric(
        "sla_met_frac",
        ip.replay.met as f64 / ip.replay.total.max(1) as f64,
        "frac",
    );
    out.metric("advise_s", steady(&s.plan_times.secs), "s");
    out.metric("plan_nodes", s.plan.nodes_used() as f64, "nodes");
    out.metric(
        "rpc_p50_ms_low",
        percentile(&drun.low.latency_ms, 0.5),
        "ms",
    );
    out.metric("rpc_p99_ms_low", windowed_p99(&drun.low.latency_ms), "ms");
    out.metric(
        "rpc_p50_ms_high",
        percentile(&drun.high.latency_ms, 0.5),
        "ms",
    );
    out.metric("rpc_p99_ms_high", windowed_p99(&drun.high.latency_ms), "ms");
    out.samples.extend([
        ("setup_s", s.gen_secs.len()),
        ("replay_qps", ip.replay_secs.len()),
        ("advise_s", s.plan_times.secs.len()),
        ("daemon_starts", drun.start_secs.len()),
        ("rpc_low", drun.low.latency_ms.len()),
        ("rpc_high", drun.high.latency_ms.len()),
    ]);
    if let (true, Some(dp)) = (args.trace, &dp) {
        per_layer(&mut out, &spans, dp, &ip, &s);
    }
    out.detail.extend([
        ("queries", s.log.len() as f64),
        ("iterations", ip.iterations as f64),
        (
            "daemon_requests",
            dp.as_ref().map_or(0, |d| d.requests) as f64,
        ),
        ("daemon_rss_mb", drun.rss_mb),
        ("generation_s", median(&s.gen_secs)),
        ("deploy_s", median(&ip.deploy_secs)),
        ("daemon_start_s", median(&drun.start_secs)),
        ("wall_s", run_start.elapsed().as_secs_f64()),
    ]);
    Ok(out.render(spec, args))
}

/// Per-layer metrics. `_ms` values are busy time per run of the stage,
/// `_ns` values busy time per call; layers a workload never enters read 0.
fn per_layer(out: &mut Out, spans: &Spans, dp: &DaemonPath, ip: &InProcess, s: &Setup) {
    let per_run_ms = |s: &Spans, layer: &str| {
        let (secs, calls) = s.get(layer);
        if calls == 0 {
            0.0
        } else {
            secs * 1e3 / calls as f64
        }
    };
    let ns = |layer: &str| spans.per_call_ns(layer);
    for (name, layer) in [
        ("workload.library_ms", "workload.library"),
        ("workload.histories_ms", "workload.histories"),
        ("workload.compose_log_ms", "workload.compose_log"),
    ] {
        out.metric(name, per_run_ms(spans, layer), "ms");
    }
    out.metric("workload.queries", s.log.len() as f64, "count");
    let intervals: usize = s.corpus.histories.iter().map(|h| h.intervals.len()).sum();
    out.metric("workload.intervals", intervals as f64, "count");
    for (name, layer) in [
        ("activity.vectorize_ms", "activity.vectorize"),
        ("grouping.step1_ms", "grouping.step1"),
        ("grouping.step2_ms", "grouping.step2"),
    ] {
        out.metric(name, per_run_ms(spans, layer), "ms");
    }
    out.metric("grouping.buckets", ip.grouping.0 as f64, "count");
    out.metric("grouping.largest_bucket", ip.grouping.1 as f64, "count");
    out.metric("grouping.groups", ip.grouping.2 as f64, "count");
    out.metric(
        "advisor.advise_ms",
        per_run_ms(spans, "advisor.advise"),
        "ms",
    );
    out.metric(
        "service.deploy_ms",
        per_run_ms(spans, "service.deploy"),
        "ms",
    );
    out.metric("service.advance_ns", ns("service.advance"), "ns");
    out.metric("service.submit_ns", ns("service.submit"), "ns");
    out.metric("service.drain_ms", per_run_ms(spans, "service.drain"), "ms");
    out.metric(
        "service.scaling_events",
        ip.replay.scaling_events as f64,
        "count",
    );
    out.metric("routing.route_ns", ns("routing.route"), "ns");
    out.metric("routing.complete_ns", ns("routing.complete"), "ns");
    let records = &ip.replay.records;
    let overflow = records
        .iter()
        .filter(|r| r.route == RouteKind::Overflow)
        .count();
    out.metric(
        "routing.overflow_frac",
        overflow as f64 / records.len().max(1) as f64,
        "frac",
    );
    for (name, layer) in [
        ("monitor.start_ns", "monitor.start"),
        ("monitor.finish_ns", "monitor.finish"),
        ("monitor.rt_ttp_ns", "monitor.rt_ttp"),
        ("billing.start_ns", "billing.start"),
        ("billing.finish_ns", "billing.finish"),
        ("cluster.submit_ns", "cluster.submit"),
        ("cluster.run_until_ns", "cluster.run_until"),
    ] {
        out.metric(name, ns(layer), "ns");
    }
    out.metric("sla.summary_ms", per_run_ms(spans, "sla.summary"), "ms");
    out.metric(
        "telemetry.snapshot_ms",
        per_run_ms(spans, "telemetry.snapshot"),
        "ms",
    );
    let decode = dp.spans.per_call_ns("protocol.decode");
    let encode = dp.spans.per_call_ns("protocol.encode");
    out.metric("protocol.decode_ns", decode, "ns");
    out.metric("protocol.encode_ns", encode, "ns");
    let replies = dp.direct.service_secs.len().max(1);
    out.metric(
        "protocol.reply_bytes",
        dp.direct.reply_bytes as f64 / replies as f64,
        "bytes",
    );
    out.metric(
        "runtime.handle_ns",
        dp.spans.per_call_ns("runtime.handle"),
        "ns",
    );
    // Socket round trip minus the in-process decode, handle and encode of
    // the same request: transport plus the server's poll sleep.
    let rt = &dp.run.round_trip_secs;
    let n = rt.len().min(dp.direct.service_secs.len());
    let wait: f64 = rt[..n]
        .iter()
        .zip(&dp.direct.service_secs[..n])
        .map(|(trip, service)| trip - service)
        .sum();
    out.metric("server.wait_ns", wait * 1e9 / n.max(1) as f64, "ns");
    let lag: Vec<f64> = dp
        .run
        .low
        .lag_ms
        .iter()
        .chain(&dp.run.high.lag_ms)
        .copied()
        .collect();
    out.metric("rpc.generator_lag_ms", percentile(&lag, 0.99), "ms");
    out.samples
        .push(("traced_iterations", ip.traced_iterations as usize));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hiccups_do_not_set_the_windowed_p99() {
        let mut samples: Vec<f64> = (0..5_000).map(|i| 1.0 + (i % 100) as f64 / 100.0).collect();
        // 60-request stalls inside three of the five windows.
        for start in [1_200, 2_500, 4_100] {
            for s in &mut samples[start..start + 60] {
                *s = 50.0;
            }
        }
        let p99 = windowed_p99(&samples);
        assert!((1.9..2.0).contains(&p99), "{p99}");
        assert!(percentile(&samples, 0.99) > 40.0);
    }
}
