//! # thrifty — MPPDB-as-a-Service by Tenant-Driven Design
//!
//! A faithful reproduction of *Parallel Analytics as a Service* (Wong, He,
//! Lo — SIGMOD 2013): the Thrifty system, which consolidates thousands of
//! MPPDB tenants onto a shared cluster while guaranteeing each tenant the
//! query latency of its own dedicated `n_i`-node MPPDB for `P%` of the
//! time, with replication factor `R` for high availability.
//!
//! ## The Tenant-Driven Design (TDD)
//!
//! * **Cluster design** ([`design`]) — per tenant-group, `A` node groups
//!   each running one shared-process MPPDB sized for the group's largest
//!   member; group 0 is the tuning MPPDB with `U ≥ n_1` nodes.
//! * **Tenant placement** ([`design`]) — every member is replicated on all
//!   `A` MPPDBs (Property 1: replication factor `A`).
//! * **Query routing** ([`routing`]) — Algorithm 1 routes *active tenants*
//!   to exclusive MPPDBs; overflow is concurrently processed on MPPDB_0.
//!
//! ## Serving thousands of tenants
//!
//! Tenant grouping ([`grouping`]) splits the tenant population into groups
//! of a few tens of tenants such that at most `R` members are concurrently
//! active for `≥ P%` of epochs — the LIVBPwFC optimization problem, solved
//! by the paper's 2-step heuristic with FFD and an exact branch-and-bound
//! as references.
//!
//! ## Run time
//!
//! The Deployment Advisor ([`advisor`]) turns activity histories into a
//! deployment plan; the Deployment Master ([`master`]) materializes it on
//! the simulated cluster; [`service::ThriftyService`] replays tenant logs
//! through routing, SLA accounting ([`sla`]), RT-TTP monitoring
//! ([`monitor`]), and lightweight elastic scaling ([`scaling`]). Manual
//! tuning of `U` is modeled in [`tuning`].
//!
//! ```
//! use thrifty::prelude::*;
//!
//! // Two 4-node tenants with disjoint activity consolidate onto one
//! // tenant-group: R = 2 replicas of a 4-node MPPDB — 8 nodes for 8
//! // requested, plus the SLA guarantee and 2x replication for free.
//! let histories = vec![
//!     TenantHistory::new(Tenant::new(TenantId(0), 4, 400.0), vec![(0, 30_000)]),
//!     TenantHistory::new(Tenant::new(TenantId(1), 4, 400.0), vec![(60_000, 90_000)]),
//! ];
//! let advisor = DeploymentAdvisor::new(AdvisorConfig {
//!     replication: 2,
//!     sla_p: 0.999,
//!     epoch: EpochConfig::new(10_000, 120_000),
//!     algorithm: GroupingAlgorithm::TwoStep,
//!     exclusion: ExclusionPolicy::default(),
//! });
//! let advice = advisor.advise(&histories);
//! assert_eq!(advice.plan.groups.len(), 1);
//! assert_eq!(advice.plan.nodes_used(), 8);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// L4 (no-panic discipline): library code routes failures through
// `ThriftyError`; unwrap stays available in tests. Enforced alongside
// thrifty-lint, which additionally catches `.expect()`/`panic!`.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod activity;
pub mod advisor;
pub mod billing;
pub mod bursts;
pub mod clock;
pub mod design;
pub mod error;
pub mod grouping;
pub mod master;
pub mod metrics;
pub mod monitor;
pub mod reconsolidation;
pub mod routing;
pub mod scaling;
pub mod service;
pub mod sla;
pub mod telemetry;
pub mod tenant;
pub mod tuning;

/// Commonly used types, re-exported for glob import.
pub mod prelude {
    pub use crate::activity::{ActivityVector, EpochConfig};
    pub use crate::advisor::{
        Advice, AdvisorConfig, DeploymentAdvisor, ExclusionPolicy, GroupingAlgorithm,
    };
    pub use crate::billing::{Invoice, ProviderEconomics, Tariff, UsageMeter};
    pub use crate::bursts::{Burst, BurstDetector, RecurringBurst};
    pub use crate::clock::{ClockSource, SimClock};
    pub use crate::design::{DeploymentPlan, TenantGroupPlan};
    pub use crate::error::{ThriftyError, ThriftyResult};
    pub use crate::grouping::{
        exact_grouping, ffd_grouping, ffd_grouping_with, split_size_bucket, two_step_buckets,
        two_step_grouping, two_step_grouping_with, ActiveCountHistogram, FfdCapacity, FfdConfig,
        FfdOrder, GroupClosing, GroupingProblem, GroupingProblemBuilder, GroupingSolution,
        TenantGroup, TieBreaking, TwoStepConfig,
    };
    pub use crate::master::{Deployment, DeploymentMaster};
    pub use crate::metrics::ConsolidationReport;
    pub use crate::monitor::GroupActivityMonitor;
    pub use crate::reconsolidation::{
        BoundedPlan, ControllerConfig, CyclePlan, PlannedGroup, Reconsolidator, SkipCounts,
    };
    pub use crate::routing::{QueryRouter, Route, RouteKind};
    pub use crate::scaling::{identify_over_active, ScalingEvent};
    pub use crate::service::{
        ConfigDelta, IncomingQuery, KnobChange, RejectedKnob, ServiceConfig, ServiceConfigBuilder,
        ServiceReport, ThriftyService, TraceConfig, TtpSample,
    };
    pub use crate::sla::{SlaPolicy, SlaRecord, SlaSummary};
    pub use crate::telemetry::{
        InstanceUtilization, Telemetry, TelemetryConfig, TelemetryEvent, TelemetrySnapshot,
    };
    pub use crate::tenant::{Tenant, TenantHistory, TenantId};
    pub use crate::tuning::recommend_tuning_nodes;
}
