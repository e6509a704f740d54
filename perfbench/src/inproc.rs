//! The in-process path: advise, deploy, replay — and, when traced, the
//! per-layer probes around each layer's public functions.

use crate::stats::{timed, Digest, Spans};
use mppdb_sim::prelude::{Cluster, ClusterConfig, QuerySpec, QueryTemplate, SimEvent, SimTime};
use std::collections::BTreeMap;
use thrifty::grouping::{split_size_bucket, two_step_buckets};
use thrifty::prelude::*;

/// What one replay produced.
pub struct ReplayOut {
    pub digest: u64,
    pub queries: usize,
    pub secs: f64,
    pub total: usize,
    pub met: usize,
    pub scaling_events: usize,
    pub records: Vec<SlaRecord>,
}

/// Digest over SLA records and their summary (the replay's output).
pub fn records_digest(records: &[SlaRecord], summary: &SlaSummary) -> u64 {
    let mut d = Digest::new();
    for r in records {
        d.u64(u64::from(r.tenant.0));
        d.u64(r.group as u64);
        d.u64(u64::from(r.template.0));
        d.u64(r.submit.as_ms());
        d.u64(r.achieved.as_ms());
        d.u64(r.baseline.as_ms());
        d.u64(r.normalized.to_bits());
        d.u64(u64::from(r.met));
        d.u64(r.route as u64);
    }
    d.u64(summary.total as u64);
    d.u64(summary.met as u64);
    d.finish()
}

/// Digest of a plan's groups (members and MPPDB sizes, in order).
pub fn plan_digest(plan: &DeploymentPlan) -> u64 {
    let mut d = Digest::new();
    for g in &plan.groups {
        d.u64(g.members.len() as u64);
        for m in &g.members {
            d.u64(u64::from(m.id.0));
        }
        for &n in &g.mppdb_nodes {
            d.u64(u64::from(n));
        }
    }
    d.finish()
}

/// Replays the log with [`ThriftyService::replay`], timing first submit to
/// final drain.
pub fn replay(mut service: ThriftyService, log: Vec<IncomingQuery>) -> ThriftyResult<ReplayOut> {
    let queries = log.len();
    let (report, secs) = timed(|| service.replay(log));
    let report = report?;
    Ok(ReplayOut {
        digest: records_digest(&report.records, &report.summary),
        queries,
        secs,
        total: report.summary.total,
        met: report.summary.met,
        scaling_events: report.scaling_events.len(),
        records: report.records,
    })
}

/// The same replay stepped by hand so each stage can be timed:
/// `service.advance` (completion delivery up to the submit instant),
/// `service.submit` (routing, `Cluster::submit`, monitor and meter start
/// hooks) and `service.drain`. Must give the digest of [`replay`].
pub fn replay_traced(
    mut service: ThriftyService,
    log: Vec<IncomingQuery>,
    spans: &mut Spans,
) -> ThriftyResult<ReplayOut> {
    let queries = log.len();
    let (stepped, secs) = timed(|| -> ThriftyResult<()> {
        let mut advance = 0.0;
        let mut submit = 0.0;
        for q in log {
            let (r, s) = timed(|| service.advance_log_time(q.submit));
            r?;
            advance += s;
            let (r, s) = timed(|| service.submit(q));
            r?;
            submit += s;
        }
        spans.add_n("service.advance", advance, queries as u64);
        spans.add_n("service.submit", submit, queries as u64);
        let (r, s) = timed(|| service.drain());
        spans.add("service.drain", s);
        r
    });
    stepped?;
    let summary = spans.span("sla.summary", || {
        SlaSummary::from_records(service.records())
    });
    let snapshot = spans.span("telemetry.snapshot", || service.telemetry_snapshot());
    std::hint::black_box(&snapshot);
    let report = service.into_report()?;
    Ok(ReplayOut {
        digest: records_digest(&report.records, &summary),
        queries,
        secs,
        total: summary.total,
        met: summary.met,
        scaling_events: report.scaling_events.len(),
        records: report.records,
    })
}

/// The advisor decomposed into its layers: vectorize, Step 1 buckets,
/// Step 2 splits. Returns the advisor's plan, whether the decomposed
/// grouping equals the advisor's own groups, and the bucket count, largest
/// bucket and group count.
pub fn advise_traced(
    histories: &[TenantHistory],
    cfg: AdvisorConfig,
    spans: &mut Spans,
) -> (DeploymentPlan, bool, (u64, u64, u64)) {
    let advice = spans.span("advisor.advise", || {
        DeploymentAdvisor::new(cfg).advise(histories)
    });
    let vectors: Vec<ActivityVector> = spans.span("activity.vectorize", || {
        histories
            .iter()
            .map(|h| ActivityVector::from_intervals(&h.intervals, cfg.epoch))
            .collect()
    });
    // The advisor's exclusion rule (no burst detector at the defaults).
    let mut tenants = Vec::new();
    let mut activities = Vec::new();
    for (h, v) in histories.iter().zip(vectors) {
        if v.active_ratio() > cfg.exclusion.max_active_ratio
            || h.tenant.data_gb > cfg.exclusion.max_data_gb
        {
            continue;
        }
        tenants.push(h.tenant);
        activities.push(v);
    }
    let problem = GroupingProblem::new(tenants, activities, cfg.replication, cfg.sla_p);
    let two_step = TwoStepConfig::default();
    let buckets = spans.span("grouping.step1", || two_step_buckets(&problem, two_step));
    let (groups, step2) = timed(|| {
        buckets
            .iter()
            .flat_map(|b| split_size_bucket(&problem, b, two_step))
            .collect::<Vec<_>>()
    });
    spans.add("grouping.step2", step2);
    let counts = (
        buckets.len() as u64,
        buckets.iter().map(Vec::len).max().unwrap_or(0) as u64,
        groups.len() as u64,
    );
    let equal = problem.tenants == advice.problem.tenants && groups == advice.solution.groups;
    (advice.plan, equal, counts)
}

/// Operation-stream replay of routing, the RT-TTP monitor and the billing
/// meter: the start/finish stream rebuilt from the SLA records is fed to
/// standalone instances sized like the deployment.
pub fn op_stream(
    records: &[SlaRecord],
    plan: &DeploymentPlan,
    replication: u32,
    window_ms: u64,
    spans: &mut Spans,
) -> ThriftyResult<()> {
    // Groups created by elastic scale-out have indices past the plan;
    // they are replayed with the plan's replica count.
    let groups = records
        .iter()
        .map(|r| r.group + 1)
        .max()
        .unwrap_or(0)
        .max(plan.groups.len());
    let mppdbs = |g: usize| {
        plan.groups
            .get(g)
            .map_or(replication as usize, |p| p.mppdb_nodes.len())
    };
    let mut routers: Vec<QueryRouter> = (0..groups).map(|g| QueryRouter::new(mppdbs(g))).collect();
    let mut monitors: Vec<GroupActivityMonitor> = (0..groups)
        .map(|g| GroupActivityMonitor::new(mppdbs(g) as u32, window_ms, 0))
        .collect();
    let mut meter = UsageMeter::new();

    // (instant, phase, record): finishes before starts at one instant,
    // except a zero-length query, whose finish follows its own start.
    let mut events: Vec<(u64, u8, usize)> = Vec::with_capacity(records.len() * 2);
    for (i, r) in records.iter().enumerate() {
        let start = r.submit.as_ms();
        let finish = start + r.achieved.as_ms();
        events.push((start, 1, i));
        events.push((finish, if finish == start { 2 } else { 0 }, i));
    }
    events.sort_unstable();

    let mut chosen = vec![0usize; records.len()];
    let (mut route, mut complete, mut m_start, mut m_finish, mut ttp, mut b_start, mut b_finish) =
        (0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0);
    let mut ttp_sink = 0.0;
    for &(at, phase, i) in &events {
        let r = &records[i];
        let g = r.group;
        if phase == 1 {
            let (decision, s) = timed(|| routers[g].route(r.tenant));
            route += s;
            chosen[i] = decision.mppdb;
            m_start += timed(|| monitors[g].on_query_start(r.tenant, at)).1;
            let (v, s) = timed(|| monitors[g].rt_ttp(at));
            ttp += s;
            ttp_sink += v;
            b_start += timed(|| meter.on_query_start(r.tenant, at)).1;
        } else {
            let (res, s) = timed(|| routers[g].complete(chosen[i], r.tenant));
            res?;
            complete += s;
            let (res, s) = timed(|| monitors[g].on_query_finish(r.tenant, at));
            res?;
            m_finish += s;
            let (res, s) = timed(|| meter.on_query_finish(r.tenant, at));
            res?;
            b_finish += s;
        }
    }
    std::hint::black_box(ttp_sink);
    let n = records.len() as u64;
    spans.add_n("routing.route", route, n);
    spans.add_n("routing.complete", complete, n);
    spans.add_n("monitor.start", m_start, n);
    spans.add_n("monitor.finish", m_finish, n);
    spans.add_n("monitor.rt_ttp", ttp, n);
    spans.add_n("billing.start", b_start, n);
    spans.add_n("billing.finish", b_finish, n);
    Ok(())
}

/// Bare-`Cluster` replay: the plan deployed by [`DeploymentMaster`] and
/// the log submitted straight to the simulator, each query routed by a
/// per-group [`QueryRouter`] (untimed) fed with the cluster's own
/// completions. Returns the number of completed queries, which must equal
/// the number submitted.
pub fn cluster_replay(
    plan: &DeploymentPlan,
    total_nodes: usize,
    templates: &[QueryTemplate],
    log: &[IncomingQuery],
    spans: &mut Spans,
) -> ThriftyResult<usize> {
    let mut cluster = Cluster::new(ClusterConfig::new(total_nodes));
    let deployment = DeploymentMaster::deploy(plan, &mut cluster)?;
    let offset = deployment.ready_at.as_ms();
    let mut home: BTreeMap<TenantId, (usize, Tenant)> = BTreeMap::new();
    for (gi, g) in plan.groups.iter().enumerate() {
        for m in &g.members {
            home.insert(m.id, (gi, *m));
        }
    }
    let templates: BTreeMap<_, _> = templates.iter().map(|t| (t.id, *t)).collect();
    let mut routers: Vec<QueryRouter> = deployment
        .instances
        .iter()
        .map(|i| QueryRouter::new(i.len()))
        .collect();
    let mut running = BTreeMap::new();
    let mut completed = 0usize;
    let mut deliver = |events: Vec<SimEvent>,
                       routers: &mut Vec<QueryRouter>,
                       running: &mut BTreeMap<_, (usize, usize)>|
     -> ThriftyResult<()> {
        for e in events {
            if let SimEvent::QueryCompleted(c) = e {
                completed += 1;
                if let Some((g, j)) = running.remove(&c.query) {
                    routers[g].complete(j, c.tenant)?;
                }
            }
        }
        Ok(())
    };
    let (mut run, mut submit) = (0.0, 0.0);
    for q in log {
        let (events, s) = timed(|| cluster.run_until(SimTime::from_ms(q.submit.as_ms() + offset)));
        run += s;
        deliver(events, &mut routers, &mut running)?;
        let (gi, tenant) = home[&q.tenant];
        let j = routers[gi].route(q.tenant).mppdb;
        let instance = deployment.instances[gi][j];
        let spec = QuerySpec::new(templates[&q.template], tenant.data_gb, tenant.id);
        let (res, s) = timed(|| cluster.submit(instance, spec));
        submit += s;
        running.insert(res?, (gi, j));
    }
    let (events, s) = timed(|| cluster.run_to_quiescence());
    run += s;
    deliver(events, &mut routers, &mut running)?;
    spans.add_n("cluster.submit", submit, log.len() as u64);
    spans.add_n("cluster.run_until", run, log.len() as u64 + 1);
    Ok(completed)
}
