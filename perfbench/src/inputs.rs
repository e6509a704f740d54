//! Workload definitions and their seeded inputs.
//!
//! Every workload is one deployment: tenant histories, a deployment plan,
//! a query log, and the `thriftyd` configuration that hosts the same plan.
//! The three workloads differ in shape (see `perfbench/README.md`):
//!
//! * `replay-100k` — 100k synthetic single-burst tenants on a direct plan
//!   (no grouping), elastic scaling off: per-tenant bookkeeping over
//!   100k-entry maps dominates the replay.
//! * `paper-week` — the §7.1 generator over a 7-day horizon, 2-step
//!   advisor at the Table 7.1 defaults, elastic scaling on.
//! * `daemon-rpc` — a few dozen synthetic tenants in groups of 4; the
//!   `thriftyd` socket path dominates everything it measures.

use crate::stats::{Digest, Spans};
use mppdb_sim::prelude::{isolated_latency_ms, QueryTemplate, SimDuration, SimTime, TemplateId};
use std::collections::BTreeMap;
use thrifty::prelude::*;
use thrifty_bench::experiments::scale;
use thrifty_daemon::config::{
    ClusterSection, DaemonConfig, DaemonSection, GroupSection, ReconSection, ServiceSection,
    TemplateSection, TenantSection,
};
use thrifty_workload::prelude::*;

/// How a workload gets its tenants and plan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Synthetic single-burst histories, direct plan of 25 per group.
    Replay100k,
    /// §7.1 corpus, 2-step advisor.
    PaperWeek,
    /// Synthetic histories, direct plan in groups of 4 with 2 replicas.
    DaemonRpc,
}

/// One open-loop phase of the daemon client: a fixed offered rate and a
/// fixed request count, so the request stream (and its digest) does not
/// depend on the run length.
#[derive(Clone, Copy, Debug)]
pub struct Phase {
    pub rate_per_s: f64,
    pub requests: usize,
}

/// A workload's sizes and settings.
#[derive(Clone, Debug)]
pub struct Spec {
    pub kind: Kind,
    pub name: &'static str,
    pub tenants: usize,
    /// Queries per tenant (synthetic logs only).
    pub per_tenant: usize,
    pub elastic: bool,
    /// Times the inputs are generated per run (`setup_s` takes the median).
    pub setup_reps: usize,
    /// Times `thriftyd` is started per run (`setup_s` takes the median).
    pub daemon_starts: usize,
    /// Upper bound on in-process iterations (small workloads finish early).
    pub max_iters: usize,
    /// Whether the daemon stream carries `Status`/`Telemetry` probes. Their
    /// replies grow with the deployment (at 100k tenants a `Status` takes
    /// ~60 ms and a `Telemetry` ~7 ms), so on the large deployments they
    /// would set the tail latency by where they fall; there the stream is
    /// tenant traffic only.
    pub probes: bool,
    pub low: Phase,
    pub high: Phase,
}

impl Spec {
    /// The named workload; `smoke` shrinks every size for the self-test.
    pub fn named(name: &str, smoke: bool) -> Option<Spec> {
        let low = Phase {
            rate_per_s: 700.0,
            requests: 5_000,
        };
        let high = Phase {
            rate_per_s: 4_000.0,
            requests: 6_000,
        };
        let mut spec = match name {
            "replay-100k" => Spec {
                kind: Kind::Replay100k,
                name: "replay-100k",
                tenants: 100_000,
                per_tenant: 4,
                elastic: false,
                setup_reps: 3,
                daemon_starts: 3,
                max_iters: 50,
                probes: false,
                low,
                high,
            },
            "paper-week" => Spec {
                kind: Kind::PaperWeek,
                name: "paper-week",
                tenants: 1_000,
                per_tenant: 0,
                elastic: true,
                setup_reps: 2,
                daemon_starts: 3,
                max_iters: 50,
                probes: false,
                low,
                high,
            },
            "daemon-rpc" => Spec {
                kind: Kind::DaemonRpc,
                name: "daemon-rpc",
                tenants: 48,
                per_tenant: 220,
                elastic: false,
                setup_reps: 5,
                daemon_starts: 5,
                max_iters: 1_000,
                probes: true,
                low: Phase {
                    rate_per_s: 700.0,
                    requests: 7_000,
                },
                high: Phase {
                    rate_per_s: 4_000.0,
                    requests: 12_000,
                },
            },
            _ => return None,
        };
        if smoke {
            spec.tenants = match spec.kind {
                Kind::Replay100k => 2_000,
                Kind::PaperWeek => 40,
                Kind::DaemonRpc => 12,
            };
            spec.per_tenant = spec.per_tenant.min(32);
            spec.setup_reps = 1;
            spec.daemon_starts = 1;
            spec.max_iters = 2;
            spec.low.requests = 150;
            spec.high.requests = 300;
        }
        Some(spec)
    }

    /// Wall seconds the two open-loop phases take when the generator keeps
    /// its schedule.
    pub fn daemon_phase_secs(&self) -> f64 {
        self.low.requests as f64 / self.low.rate_per_s
            + self.high.requests as f64 / self.high.rate_per_s
    }
}

/// Generated tenants: histories plus, for the §7.1 corpus, what is needed
/// to compose query logs.
pub struct Corpus {
    pub histories: Vec<TenantHistory>,
    pub templates: Vec<QueryTemplate>,
    generator: Option<(GenerationConfig, SessionLibrary, Vec<TenantSpec>)>,
    pub horizon_ms: u64,
}

/// The synthetic workloads' single template (the `scale` arm's profile).
fn synthetic_template() -> QueryTemplate {
    QueryTemplate::new(TemplateId(9_000), 600.0, 0.0)
}

/// Generates the workload's tenant histories. Spans: `workload.library_ms`
/// and `workload.histories_ms`.
pub fn corpus(spec: &Spec, seed: u64, spans: &mut Spans) -> Corpus {
    match spec.kind {
        Kind::Replay100k | Kind::DaemonRpc => Corpus {
            histories: spans.span("workload.histories", || {
                scale::synthetic_histories(seed, spec.tenants)
            }),
            templates: vec![synthetic_template()],
            generator: None,
            horizon_ms: scale::HORIZON_MS,
        },
        Kind::PaperWeek => {
            let cfg = GenerationConfig::small(seed, spec.tenants);
            let library = spans.span("workload.library", || SessionLibrary::generate(&cfg));
            let (specs, histories) = spans.span("workload.histories", || {
                let composer = Composer::new(&cfg, &library);
                let specs = composer.tenant_specs();
                let histories: Vec<TenantHistory> = specs
                    .iter()
                    .map(|s| {
                        TenantHistory::new(
                            Tenant::new(s.id, s.nodes, s.data_gb),
                            composer.busy_intervals(s),
                        )
                    })
                    .collect();
                (specs, histories)
            });
            let templates = Benchmark::ALL
                .iter()
                .flat_map(|&b| catalog(b).into_iter().map(|t| t.template))
                .collect();
            let horizon_ms = cfg.horizon_ms();
            Corpus {
                histories,
                templates,
                generator: Some((cfg, library, specs)),
                horizon_ms,
            }
        }
    }
}

/// The advisor configuration at the Table 7.1 defaults (R=3, P=0.999,
/// 10 s epochs) over the corpus horizon.
pub fn advisor_config(corpus: &Corpus) -> AdvisorConfig {
    AdvisorConfig::paper_default(corpus.horizon_ms)
}

/// Plans the deployment: the 2-step advisor on `paper-week`, a direct
/// linear plan on the synthetic workloads.
pub fn plan(spec: &Spec, corpus: &Corpus) -> DeploymentPlan {
    match spec.kind {
        Kind::Replay100k => scale::direct_plan(&corpus.histories),
        Kind::PaperWeek => {
            DeploymentAdvisor::new(advisor_config(corpus))
                .advise(&corpus.histories)
                .plan
        }
        Kind::DaemonRpc => groups_of(&corpus.histories, 4, 2),
    }
}

/// Direct plan: per node-size class (ascending), chunks of `size` tenants
/// share one group of `replicas` MPPDBs with `U = n_1`.
fn groups_of(histories: &[TenantHistory], size: usize, replicas: u32) -> DeploymentPlan {
    let mut sizes: Vec<u32> = histories.iter().map(|h| h.tenant.nodes).collect();
    sizes.sort_unstable();
    sizes.dedup();
    let mut groups = Vec::new();
    for n in sizes {
        let members: Vec<Tenant> = histories
            .iter()
            .map(|h| h.tenant)
            .filter(|t| t.nodes == n)
            .collect();
        for chunk in members.chunks(size) {
            groups.push(TenantGroupPlan::new(chunk.to_vec(), replicas, n));
        }
    }
    DeploymentPlan { groups }
}

/// Nodes in the shared pool: the plan plus spare nodes for elastic
/// scale-out where scaling is on.
fn total_nodes(spec: &Spec, plan: &DeploymentPlan) -> usize {
    let used = plan.nodes_used() as usize;
    if spec.elastic {
        used + used / 10 + 16
    } else {
        used
    }
}

/// The query log, sorted by `(submit, tenant)`, for the tenants the plan
/// deploys. Span: `workload.compose_log_ms`.
pub fn query_log(
    spec: &Spec,
    corpus: &Corpus,
    plan: &DeploymentPlan,
    spans: &mut Spans,
) -> Vec<IncomingQuery> {
    match &corpus.generator {
        None if spec.kind == Kind::DaemonRpc => spans.span("workload.compose_log", || {
            spaced_log(
                &corpus.histories,
                plan,
                spec.per_tenant,
                &corpus.templates[0],
            )
        }),
        None => spans.span("workload.compose_log", || {
            scale::query_log(&corpus.histories, spec.per_tenant, &corpus.templates[0])
        }),
        Some((cfg, library, specs)) => spans.span("workload.compose_log", || {
            let planned: std::collections::BTreeSet<TenantId> = plan
                .groups
                .iter()
                .flat_map(|g| g.members.iter().map(|m| m.id))
                .collect();
            let composer = Composer::new(cfg, library);
            let mut log: Vec<IncomingQuery> = specs
                .iter()
                .filter(|s| planned.contains(&s.id))
                .flat_map(|s| composer.compose_log(s).events)
                .map(|e| IncomingQuery {
                    tenant: e.tenant,
                    submit: e.submit,
                    template: e.template,
                    baseline: e.sla_latency,
                })
                .collect();
            log.sort_by_key(|q| (q.submit, q.tenant));
            log
        }),
    }
}

/// Spacing of one tenant's queries in [`spaced_log`]: three times the 60 s
/// a synthetic query runs alone, so a group of four keeps its two replicas
/// two-thirds busy.
const SPACING_MS: u64 = 180_000;

/// Extra spacing per position in the group: members drift against each
/// other, so the overlaps beyond two replicas recur throughout the log.
const DRIFT_MS: u64 = 1_000;

/// `per_tenant` queries per tenant in a pattern every group shares: member
/// `k` of a group starts `k` quarter-spacings after the group and submits
/// every [`SPACING_MS`] + `k`·[`DRIFT_MS`]. The seed places each group in
/// time (at its first member's burst start), so it shapes the request
/// stream while every group meets the same contention, and the SLA
/// outcome does not hinge on which seeded bursts happen to collide.
/// Sorted by `(submit, tenant)`.
fn spaced_log(
    histories: &[TenantHistory],
    plan: &DeploymentPlan,
    per_tenant: usize,
    template: &QueryTemplate,
) -> Vec<IncomingQuery> {
    let starts: BTreeMap<TenantId, u64> = histories
        .iter()
        .map(|h| (h.tenant.id, h.intervals[0].0))
        .collect();
    let mut log = Vec::with_capacity(histories.len() * per_tenant);
    for g in &plan.groups {
        let group_start = starts[&g.members[0].id];
        for (k, t) in (0u64..).zip(&g.members) {
            let start = group_start + k * SPACING_MS / 4;
            let spacing = SPACING_MS + k * DRIFT_MS;
            let baseline = SimDuration::from_ms_f64(isolated_latency_ms(
                template,
                t.data_gb,
                t.nodes as usize,
            ));
            for j in 0..per_tenant as u64 {
                log.push(IncomingQuery {
                    tenant: t.id,
                    submit: SimTime::from_ms(start + j * spacing),
                    template: template.id,
                    baseline,
                });
            }
        }
    }
    log.sort_unstable_by_key(|q| (q.submit, q.tenant));
    log
}

/// Digest of the generated inputs (histories and log), which must repeat
/// exactly across set-up repetitions.
pub fn inputs_digest(corpus: &Corpus, log: &[IncomingQuery]) -> u64 {
    let mut d = Digest::new();
    for h in &corpus.histories {
        d.u64(u64::from(h.tenant.id.0));
        d.u64(u64::from(h.tenant.nodes));
        d.u64(h.tenant.data_gb.to_bits());
        for &(s, e) in &h.intervals {
            d.u64(s);
            d.u64(e);
        }
    }
    for q in log {
        d.u64(u64::from(q.tenant.0));
        d.u64(q.submit.as_ms());
        d.u64(u64::from(q.template.0));
        d.u64(q.baseline.as_ms());
    }
    d.finish()
}

/// Service knobs shared by the in-process service and `thriftyd`.
fn service_section(spec: &Spec) -> ServiceSection {
    ServiceSection {
        sla_tolerance: SlaPolicy::default().tolerance,
        sla_p: 0.999,
        elastic_scaling: spec.elastic,
        monitor_window_ms: 24 * 3_600_000,
        scaling_epoch_ms: 10_000,
        scaling_check_interval_ms: 60_000,
        event_capacity: 256,
    }
}

/// The `thriftyd` configuration hosting `plan`: same templates, same
/// service knobs, manual re-consolidation cadence.
pub fn daemon_config(spec: &Spec, corpus: &Corpus, plan: &DeploymentPlan) -> DaemonConfig {
    DaemonConfig {
        cluster: ClusterSection {
            total_nodes: total_nodes(spec, plan),
        },
        templates: corpus
            .templates
            .iter()
            .map(|t| TemplateSection {
                id: t.id.0,
                cost_ms_per_gb: t.cost_ms_per_gb,
                serial_fraction: t.serial_fraction,
            })
            .collect(),
        groups: plan
            .groups
            .iter()
            .map(|g| GroupSection {
                replication: g.replication(),
                tuning_nodes: g.tuning_nodes(),
                members: g
                    .members
                    .iter()
                    .map(|m| TenantSection {
                        id: m.id.0,
                        nodes: m.nodes,
                        data_gb: m.data_gb,
                    })
                    .collect(),
            })
            .collect(),
        service: service_section(spec),
        reconsolidation: ReconSection {
            auto: false,
            interval_ms: 3_600_000,
            replication: 3,
            sla_p: 0.999,
            epoch_ms: 10_000,
            window_ms: 24 * 3_600_000,
        },
        daemon: DaemonSection { tick_ms: 50 },
    }
}
