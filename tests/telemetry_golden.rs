//! Golden digest of the serialized [`TelemetrySnapshot`].
//!
//! The snapshot JSON is part of the `thriftyd` wire format and of every
//! `BENCH_*.json`, so any refactor of the telemetry recorder must leave it
//! byte-identical. This test folds the snapshots of the service, lifecycle
//! and controller fuzz schedules over a fixed seed range, plus an
//! elastic-scaling replay with a mid-run hot-reload (with and without an
//! overflowing event ring), into one FNV-1a digest and pins it. A change
//! to the pinned constant is a change to the snapshot format and must be
//! deliberate.

use mppdb_sim::cost::isolated_latency_ms;
use mppdb_sim::query::{QueryTemplate, TemplateId};
use mppdb_sim::time::{SimDuration, SimTime};
use thrifty::prelude::*;
use thrifty::telemetry::TelemetrySnapshot;
use thrifty_bench::fuzz;

/// Seeds of each fuzz harness folded into the digest.
const SEEDS: std::ops::Range<u64> = 0..60;

/// FNV-1a 64-bit accumulator.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, data: &[u8]) {
        for &b in data {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn snapshot(&mut self, snap: &TelemetrySnapshot) {
        let json = serde_json::to_string(snap).expect("snapshot serializes");
        self.bytes(json.as_bytes());
        // Separator, so adjacent snapshots cannot run into each other.
        self.bytes(&[0xff]);
    }
}

/// The telemetry snapshot carried by a fuzz outcome's serialized report.
fn telemetry_of(report_json: &str) -> TelemetrySnapshot {
    serde_json::from_str::<ServiceReport>(report_json)
        .expect("fuzz report deserializes")
        .telemetry
}

/// Six 4-node tenants in one group; tenant 0 hammers from hour 8 so the
/// group scales out with a backlog to migrate. Half-way through the day
/// the configuration is hot-reloaded with one run-time knob (accepted)
/// and one deploy-time knob (rejected).
fn elastic_reload_snapshot(telemetry: TelemetryConfig) -> TelemetrySnapshot {
    let template = QueryTemplate::new(TemplateId(1), 60.0, 0.0);
    let baseline_ms = isolated_latency_ms(&template, 400.0, 4);
    let baseline = SimDuration::from_ms_f64(baseline_ms);
    let members: Vec<Tenant> = (0..6).map(|i| Tenant::new(TenantId(i), 4, 400.0)).collect();
    let plan = DeploymentPlan {
        groups: vec![TenantGroupPlan::new(members.clone(), 2, 4)],
    };
    let config = ServiceConfig::builder()
        .scaling_check_interval_ms(60_000)
        .telemetry(telemetry)
        .build()
        .expect("valid service config");
    let mut service = ThriftyService::deploy(&plan, 20, [template], config.clone()).unwrap();
    service.set_historical_activity(
        members
            .iter()
            .map(|m| (m.id, if m.id == TenantId(0) { 0.05 } else { 0.085 })),
    );

    let horizon_ms = 24 * 3_600_000u64;
    let mut queries = Vec::new();
    for t in 1..6u32 {
        let mut burst = u64::from(t) * 600_000;
        while burst < horizon_ms {
            for k in 0..100u64 {
                queries.push(IncomingQuery {
                    tenant: TenantId(t),
                    submit: SimTime::from_ms(burst + k * 12_000),
                    template: template.id,
                    baseline,
                });
            }
            burst += 4 * 3_600_000;
        }
    }
    let mut at = 8 * 3_600_000u64;
    while at < horizon_ms {
        queries.push(IncomingQuery {
            tenant: TenantId(0),
            submit: SimTime::from_ms(at),
            template: template.id,
            baseline,
        });
        // Twice the service rate for the first hour builds a backlog.
        let gap = if at < 9 * 3_600_000 { 0.5 } else { 1.2 };
        at += (baseline_ms * gap) as u64;
    }
    queries.sort_by_key(|q| (q.submit, q.tenant));

    let reload_at = SimTime::from_ms(horizon_ms / 2);
    let mut reloaded = false;
    for q in queries {
        if !reloaded && q.submit >= reload_at {
            let candidate = config
                .to_builder()
                .sla_p(0.99)
                .monitor_window_ms(config.monitor_window_ms / 2)
                .build()
                .expect("valid candidate");
            let delta = service.apply_config(candidate).unwrap();
            assert_eq!((delta.applied.len(), delta.rejected.len()), (1, 1));
            reloaded = true;
        }
        service.submit(q).unwrap();
    }
    assert!(reloaded, "the hot-reload must happen mid-run");
    let report = service.into_report().unwrap();
    let snap = report.telemetry;
    assert!(
        snap.counter("scaling.activated") >= 1,
        "the group must scale out"
    );
    assert!(
        snap.counter("queries.migrated") >= 1,
        "queued queries must migrate"
    );
    assert_eq!(snap.counter("config.reloads"), 1);
    snap
}

#[test]
fn telemetry_snapshot_digest_is_pinned() {
    let mut digest = Fnv::new();
    for seed in SEEDS {
        let service = fuzz::fuzz_service(seed).expect("service invariants hold");
        digest.snapshot(&telemetry_of(&service.report_json));
        let lifecycle = fuzz::fuzz_lifecycle(seed).expect("lifecycle invariants hold");
        digest.snapshot(&telemetry_of(&lifecycle.report_json));
        let controller = fuzz::fuzz_controller(seed).expect("controller invariants hold");
        digest.snapshot(&telemetry_of(&controller.report_json));
    }
    digest.snapshot(&elastic_reload_snapshot(TelemetryConfig::default()));
    // A small event ring: counters keep counting past the dropped events.
    let capped = elastic_reload_snapshot(TelemetryConfig::default().with_event_capacity(64));
    assert!(capped.dropped_events > 0, "the ring must overflow");
    digest.snapshot(&capped);
    assert_eq!(
        digest.0, 0x906e_38c6_22d7_ca2b,
        "the serialized TelemetrySnapshot changed (digest {:#018x})",
        digest.0
    );
}
