//! Deterministic service telemetry: counters derived from a structured
//! event stream.
//!
//! The service loop (and the simulated cluster underneath it) is a black
//! box without this module: the only outputs are the final SLA records.
//! Telemetry opens the hot paths — query routing, completions, elastic
//! scaling, node failures, re-consolidation — as a bounded stream of
//! [`TelemetryEvent`]s, each stamped with its **log-timeline** instant in
//! milliseconds. [`Telemetry::emit`] is the single recording call: it
//! folds the event into a fixed array of **counters** (the event→counter
//! table is the one `match` in `Telemetry::count`) and then appends it to
//! the stream. Completions, recorded through
//! [`Telemetry::emit_completion`], also feed two log-scale **histograms**
//! (power-of-two buckets, so recording is two integer additions and a
//! branch), and the only **gauge**, `groups`, is read from the service at
//! snapshot time.
//!
//! ## Determinism contract
//!
//! Every recorded value derives from *simulated* time and simulated state —
//! never from `Instant::now()` or any other wall-clock source. Two replays
//! of the same log therefore produce byte-identical
//! [`TelemetrySnapshot`]s, which is what lets `tests/determinism.rs`
//! compare serialized reports across thread counts.
//!
//! ## Overhead contract
//!
//! Under [`TelemetryConfig::disabled`], [`Telemetry::emit`] is one branch
//! on [`TelemetryConfig::enabled`]: no allocation, no counter update, no
//! event push. Enabled, an event costs one `match` and an array
//! increment per implied counter; no map lookup. The `sim_engine` bench
//! exercises the cluster without any core-side telemetry at all.

use crate::routing::RouteKind;
use crate::tenant::TenantId;
use mppdb_sim::instance::{InstanceId, MppdbInstance};
use mppdb_sim::node::NodeId;
use mppdb_sim::query::QueryId;
use mppdb_sim::time::SimTime;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Telemetry recording policy.
///
/// Construct via [`TelemetryConfig::default`] (everything on) or
/// [`TelemetryConfig::disabled`]; `with_event_capacity(0)` keeps the
/// counters and histograms but no events. The struct is
/// `#[non_exhaustive]` so new knobs can land without breaking callers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub struct TelemetryConfig {
    /// Master switch. Off = every recording call is a no-op.
    pub enabled: bool,
    /// Maximum number of retained events; once reached, further events
    /// are counted in [`TelemetrySnapshot::dropped_events`] instead of
    /// stored (their counters are still bumped). Bounds memory on
    /// multi-day replays.
    pub event_capacity: usize,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            enabled: true,
            event_capacity: 1 << 20,
        }
    }
}

impl TelemetryConfig {
    /// Telemetry fully off: every recording call reduces to one branch.
    pub fn disabled() -> Self {
        TelemetryConfig {
            enabled: false,
            event_capacity: 0,
        }
    }

    /// Caps the retained event stream at `capacity` events.
    pub fn with_event_capacity(mut self, capacity: usize) -> Self {
        self.event_capacity = capacity;
        self
    }
}

/// A log-scale histogram with power-of-two buckets.
///
/// Bucket 0 holds the value `0`; bucket `i ≥ 1` holds values in
/// `[2^(i-1), 2^i)`. Recording is O(1) and allocation-free once the
/// bucket vector has grown to the largest observed magnitude.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Histogram {
    fn bucket_index(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            (64 - value.leading_zeros()) as usize
        }
    }

    /// Records one observation.
    pub fn record(&mut self, value: u64) {
        let idx = Self::bucket_index(value);
        if self.buckets.len() <= idx {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += 1;
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// An upper bound for the `q`-quantile (`0.0 ..= 1.0`): the inclusive
    /// upper edge of the bucket containing the rank-`⌈q·count⌉`
    /// observation, clamped to the observed maximum.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                // Bucket i's inclusive upper edge is 2^i - 1; bucket 64
                // (values ≥ 2^63) tops out at u64::MAX.
                let upper = if i == 0 { 0 } else { u64::MAX >> (64 - i) };
                return upper.min(self.max).max(self.min);
            }
        }
        self.max
    }

    /// Freezes the histogram into its serializable form.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count,
            sum: self.sum,
            min: self.min,
            max: self.max,
            mean: self.mean(),
            p50: self.quantile(0.50),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
            buckets: self.buckets.clone(),
        }
    }
}

/// Serializable summary of one [`Histogram`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of all observations.
    pub sum: u64,
    /// Smallest observation (0 when empty).
    pub min: u64,
    /// Largest observation (0 when empty).
    pub max: u64,
    /// Arithmetic mean (0 when empty).
    pub mean: f64,
    /// Median upper bound (bucket resolution).
    pub p50: u64,
    /// 95th-percentile upper bound (bucket resolution).
    pub p95: u64,
    /// 99th-percentile upper bound (bucket resolution).
    pub p99: u64,
    /// Raw power-of-two bucket counts (see [`Histogram`]).
    pub buckets: Vec<u64>,
}

/// One structured event on the service's **log timeline** (`at_ms` is
/// milliseconds since the deployment went live). Variants mirror the
/// operational vocabulary of the paper's run-time chapters; the enum is
/// `#[non_exhaustive]` so new event kinds can be added without breaking
/// downstream matches.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum TelemetryEvent {
    /// A query entered the service.
    QuerySubmitted {
        /// Log-time instant in ms.
        at_ms: u64,
        /// Engine-assigned query id.
        query: QueryId,
        /// Submitting tenant.
        tenant: TenantId,
        /// Tenant-group serving the tenant.
        group: usize,
    },
    /// Algorithm 1 placed a query on an MPPDB.
    QueryRouted {
        /// Log-time instant in ms.
        at_ms: u64,
        /// Engine-assigned query id.
        query: QueryId,
        /// Submitting tenant.
        tenant: TenantId,
        /// Tenant-group serving the tenant.
        group: usize,
        /// Index of the chosen MPPDB within the group (0 = tuning MPPDB).
        mppdb: usize,
        /// Which routing rule fired (overflow = concurrent processing).
        kind: RouteKind,
    },
    /// A query finished and was graded against its SLA.
    QueryCompleted {
        /// Log-time instant in ms.
        at_ms: u64,
        /// Engine-assigned query id.
        query: QueryId,
        /// Submitting tenant.
        tenant: TenantId,
        /// Tenant-group that served the query.
        group: usize,
        /// Achieved latency in ms (from first submission).
        latency_ms: u64,
        /// Whether the SLA was met.
        met: bool,
    },
    /// A query was cancelled (elastic scaling migrates it by cancelling
    /// and resubmitting on the scale-out MPPDB).
    QueryCancelled {
        /// Log-time instant in ms.
        at_ms: u64,
        /// Engine-assigned query id.
        query: QueryId,
        /// Submitting tenant.
        tenant: TenantId,
        /// Tenant-group the query was cancelled in.
        group: usize,
    },
    /// A group's RT-TTP fell below `P` and over-active tenants were
    /// identified (Chapter 5.1); a scale-out MPPDB starts loading.
    ScalingTriggered {
        /// Log-time instant in ms.
        at_ms: u64,
        /// The group scaling out.
        group: usize,
        /// Number of over-active tenants selected to move.
        tenants: usize,
    },
    /// The scale-out MPPDB finished loading and took over its tenants.
    ScalingActivated {
        /// Log-time instant in ms.
        at_ms: u64,
        /// The parent group.
        group: usize,
        /// The freshly created scale-out group.
        new_group: usize,
    },
    /// An MPPDB instance was provisioned (start-up + bulk load began).
    InstanceProvisioned {
        /// Log-time instant in ms.
        at_ms: u64,
        /// The new instance.
        instance: InstanceId,
        /// Node count of the instance.
        nodes: usize,
    },
    /// An MPPDB instance was decommissioned and its nodes returned to the
    /// hibernated pool.
    InstanceDecommissioned {
        /// Log-time instant in ms.
        at_ms: u64,
        /// The decommissioned instance.
        instance: InstanceId,
    },
    /// A node failed; the owning instance (if any) stays online at
    /// reduced parallelism (Chapter 4.4).
    NodeFailed {
        /// Log-time instant in ms.
        at_ms: u64,
        /// The failed node.
        node: NodeId,
        /// The instance it served, if any.
        instance: Option<InstanceId>,
    },
    /// A replacement node joined an instance, restoring its parallelism.
    NodeReplaced {
        /// Log-time instant in ms.
        at_ms: u64,
        /// The restored instance.
        instance: InstanceId,
        /// The replacement node.
        node: NodeId,
    },
    /// A node failed while the free pool was empty: the replacement is
    /// queued until nodes return to the pool, and the instance runs
    /// degraded in the meantime.
    ReplacementDeferred {
        /// Log-time instant in ms.
        at_ms: u64,
        /// The degraded instance awaiting a spare.
        instance: InstanceId,
        /// The failed node still awaiting replacement.
        node: NodeId,
    },
    /// A queued (or interrupted) replacement was re-attempted: a spare
    /// began starting up for the degraded instance.
    ReplacementRetried {
        /// Log-time instant in ms.
        at_ms: u64,
        /// The instance being repaired.
        instance: InstanceId,
        /// The spare node now starting as the replacement.
        node: NodeId,
    },
    /// Elastic scaling moved a tenant to a scale-out group.
    TenantMigrated {
        /// Log-time instant in ms.
        at_ms: u64,
        /// The moved tenant.
        tenant: TenantId,
        /// The group it left.
        from_group: usize,
        /// The scale-out group now serving it.
        to_group: usize,
    },
    /// A tenant registered with the live service; its data starts bulk
    /// loading onto the park group's tuning MPPDB (Chapter 5.1: new
    /// tenants wait there until the next consolidation cycle).
    TenantRegistered {
        /// Log-time instant in ms.
        at_ms: u64,
        /// The new tenant.
        tenant: TenantId,
    },
    /// A tenant deregistered; its replicas were dropped in place and it
    /// leaves the next consolidation cycle's population.
    TenantDeregistered {
        /// Log-time instant in ms.
        at_ms: u64,
        /// The departed tenant.
        tenant: TenantId,
    },
    /// A bulk load of one tenant's data onto one instance began (Table 5.1
    /// delays; the old deployment keeps serving while it runs).
    BulkLoadStarted {
        /// Log-time instant in ms.
        at_ms: u64,
        /// The target instance.
        instance: InstanceId,
        /// The tenant being loaded.
        tenant: TenantId,
    },
    /// A bulk load finished; the tenant is queryable on the instance.
    BulkLoadFinished {
        /// Log-time instant in ms.
        at_ms: u64,
        /// The target instance.
        instance: InstanceId,
        /// The loaded tenant.
        tenant: TenantId,
    },
    /// An online re-consolidation cycle began: replacement tenant-groups
    /// start provisioning and bulk loading while the old deployment serves.
    ReconsolidationStarted {
        /// Log-time instant in ms.
        at_ms: u64,
        /// Monotone cycle number (1-based).
        cycle: u64,
        /// Tenant-groups being built.
        builds: usize,
        /// Old tenant-groups scheduled to retire at the end of the cycle.
        retiring: usize,
    },
    /// The re-consolidation cycle finished: every group cut over, stale
    /// replicas dropped, retired instances queued for decommission.
    ReconsolidationCompleted {
        /// Log-time instant in ms.
        at_ms: u64,
        /// Monotone cycle number (1-based).
        cycle: u64,
        /// Tenant-groups built by the cycle.
        groups_built: usize,
        /// Old tenant-groups retired by the cycle.
        groups_retired: usize,
    },
    /// Routing for one tenant-group atomically cut over to its freshly
    /// loaded replicas; queries in flight finish on their old instance.
    GroupCutover {
        /// Log-time instant in ms.
        at_ms: u64,
        /// The new tenant-group index.
        group: usize,
        /// Tenants now served by the new group.
        tenants: usize,
        /// Replica count (the plan's `A`) of the new group.
        replicas: usize,
    },
    /// The re-consolidation feedback controller adapted its cadence from
    /// the measured RT-TTP prediction error.
    ControllerAdapted {
        /// Log-time instant in ms.
        at_ms: u64,
        /// Cycle period after the adaptation.
        interval_ms: u64,
        /// Observation window after the adaptation (`0` = the service's
        /// full monitoring window).
        window_ms: u64,
        /// The error that drove the adaptation, in parts per million.
        error_ppm: u64,
    },
    /// A configuration hot-reload was applied to the live service (see
    /// [`ThriftyService::apply_config`](crate::service::ThriftyService::apply_config)).
    ConfigReloaded {
        /// Log-time instant in ms.
        at_ms: u64,
        /// Knob changes applied live.
        applied: usize,
        /// Knob changes rejected as deploy-time-only.
        rejected: usize,
    },
}

impl TelemetryEvent {
    /// The log-time instant of the event in ms.
    pub fn at_ms(&self) -> u64 {
        match *self {
            TelemetryEvent::QuerySubmitted { at_ms, .. }
            | TelemetryEvent::QueryRouted { at_ms, .. }
            | TelemetryEvent::QueryCompleted { at_ms, .. }
            | TelemetryEvent::QueryCancelled { at_ms, .. }
            | TelemetryEvent::ScalingTriggered { at_ms, .. }
            | TelemetryEvent::ScalingActivated { at_ms, .. }
            | TelemetryEvent::InstanceProvisioned { at_ms, .. }
            | TelemetryEvent::InstanceDecommissioned { at_ms, .. }
            | TelemetryEvent::NodeFailed { at_ms, .. }
            | TelemetryEvent::NodeReplaced { at_ms, .. }
            | TelemetryEvent::ReplacementDeferred { at_ms, .. }
            | TelemetryEvent::ReplacementRetried { at_ms, .. }
            | TelemetryEvent::TenantMigrated { at_ms, .. }
            | TelemetryEvent::TenantRegistered { at_ms, .. }
            | TelemetryEvent::TenantDeregistered { at_ms, .. }
            | TelemetryEvent::BulkLoadStarted { at_ms, .. }
            | TelemetryEvent::BulkLoadFinished { at_ms, .. }
            | TelemetryEvent::ReconsolidationStarted { at_ms, .. }
            | TelemetryEvent::ReconsolidationCompleted { at_ms, .. }
            | TelemetryEvent::GroupCutover { at_ms, .. }
            | TelemetryEvent::ControllerAdapted { at_ms, .. }
            | TelemetryEvent::ConfigReloaded { at_ms, .. } => at_ms,
        }
    }
}

/// Utilization and interference statistics of one MPPDB instance,
/// derived from the simulator's always-on [`mppdb_sim::instance::InstanceStats`]
/// accounting.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct InstanceUtilization {
    /// The instance.
    pub instance: InstanceId,
    /// Node count of the instance.
    pub nodes: usize,
    /// Simulated ms between instance creation and the snapshot.
    pub elapsed_ms: u64,
    /// Simulated ms with at least one query running.
    pub busy_ms: u64,
    /// `busy_ms / elapsed_ms` (0 when no time has elapsed).
    pub utilization: f64,
    /// Time-averaged concurrency (queue depth integral over elapsed time).
    pub avg_concurrency: f64,
    /// Peak concurrency ever observed.
    pub max_concurrency: u32,
    /// Queries submitted to this instance.
    pub submitted: u64,
    /// Queries completed on this instance.
    pub completed: u64,
    /// Queries cancelled (migration or decommission).
    pub cancelled: u64,
    /// Mean slowdown vs dedicated execution (1.0 = no interference).
    pub mean_slowdown: f64,
    /// Worst slowdown vs dedicated execution.
    pub max_slowdown: f64,
    /// Simulated ms spent in degraded mode (at least one failed node
    /// awaiting replacement), up to the snapshot instant.
    pub degraded_ms: u64,
}

impl InstanceUtilization {
    /// Builds the utilization view of one instance at simulated time `now`.
    ///
    /// The measurement window starts at the later of the instance's
    /// creation and `epoch` (the service-ready instant), so provisioning
    /// and bulk-load delays do not dilute the utilization ratio.
    pub fn from_instance(inst: &MppdbInstance, epoch: SimTime, now: SimTime) -> Self {
        let stats = inst.stats();
        let since = inst.created().max(epoch);
        let elapsed_ms = now.saturating_since(since).as_ms();
        let denom = elapsed_ms.max(1) as f64;
        InstanceUtilization {
            instance: inst.id(),
            nodes: inst.nodes().len(),
            elapsed_ms,
            busy_ms: stats.busy_ms,
            utilization: stats.busy_ms as f64 / denom,
            avg_concurrency: stats.concurrency_ms as f64 / denom,
            max_concurrency: stats.max_concurrency,
            submitted: stats.submitted,
            completed: stats.completed,
            cancelled: stats.cancelled,
            mean_slowdown: stats.mean_slowdown(),
            max_slowdown: stats.slowdown_max,
            degraded_ms: inst.degraded_ms_at(now),
        }
    }
}

/// Serializable freeze of everything the telemetry subsystem recorded:
/// the counters, the gauge and histograms, the per-instance utilization,
/// and the retained event stream. This is what
/// [`crate::service::ServiceReport`] carries and what lands in
/// `BENCH_<id>.json`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TelemetrySnapshot {
    /// Whether telemetry was enabled (all collections are empty if not).
    pub enabled: bool,
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram summaries by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Per-instance utilization (every instance ever created).
    pub instances: Vec<InstanceUtilization>,
    /// The retained event stream, in recording order.
    pub events: Vec<TelemetryEvent>,
    /// Events discarded after `event_capacity` was reached.
    pub dropped_events: u64,
}

impl TelemetrySnapshot {
    /// An empty snapshot (used when telemetry is disabled).
    pub fn empty(enabled: bool) -> Self {
        TelemetrySnapshot {
            enabled,
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            histograms: BTreeMap::new(),
            instances: Vec::new(),
            events: Vec::new(),
            dropped_events: 0,
        }
    }

    /// Counter value by name (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Events of the stream matching a predicate.
    pub fn events_where<'a>(
        &'a self,
        mut pred: impl FnMut(&TelemetryEvent) -> bool + 'a,
    ) -> impl Iterator<Item = &'a TelemetryEvent> {
        self.events.iter().filter(move |e| pred(e))
    }
}

/// Declares the counter ids and their names side by side, so each name
/// exists exactly once.
macro_rules! counters {
    ($($id:ident => $name:literal,)*) => {
        /// A counter id: an index into the recorder's counter array. The
        /// name is used only to build the snapshot.
        #[derive(Clone, Copy, Debug)]
        pub(crate) enum Counter {
            $($id,)*
        }

        /// Counter names, indexed by [`Counter`].
        const COUNTER_NAMES: &[&str] = &[$($name,)*];
    };
}

counters! {
    QueriesSubmitted => "queries.submitted",
    QueriesCompleted => "queries.completed",
    QueriesCancelled => "queries.cancelled",
    QueriesMigrated => "queries.migrated",
    RouteSticky => "route.sticky",
    RouteTuningFree => "route.tuning_free",
    RouteOtherFree => "route.other_free",
    RouteOverflow => "route.overflow",
    SlaMet => "sla.met",
    SlaViolated => "sla.violated",
    ScalingTriggered => "scaling.triggered",
    ScalingActivated => "scaling.activated",
    TenantsMigrated => "tenants.migrated",
    NodesFailed => "nodes.failed",
    NodesReplaced => "nodes.replaced",
    NodesReplacementDeferred => "nodes.replacement_deferred",
    NodesReplacementRetried => "nodes.replacement_retried",
    InstancesProvisioned => "instances.provisioned",
    InstancesDecommissioned => "instances.decommissioned",
    TenantsRegistered => "tenants.registered",
    TenantsDeregistered => "tenants.deregistered",
    BulkLoadsStarted => "bulk_loads.started",
    BulkLoadsFinished => "bulk_loads.finished",
    ReconsolidationStarted => "reconsolidation.started",
    ReconsolidationCompleted => "reconsolidation.completed",
    ReconsolidationTenantsMoved => "reconsolidation.tenants_moved",
    GroupsCutover => "groups.cutover",
    ControllerSkippedBusy => "controller.skipped_busy",
    ControllerSkippedNoop => "controller.skipped_noop",
    ControllerSkippedNodes => "controller.skipped_nodes",
    ControllerSkippedDeferred => "controller.skipped_deferred",
    ControllerAdaptShrink => "controller.adapt_shrink",
    ControllerAdaptGrow => "controller.adapt_grow",
    ControllerMovesDeferred => "controller.moves_deferred",
    ControllerBuildsCapped => "controller.builds_capped",
    ConfigReloads => "config.reloads",
    ConfigKnobsApplied => "config.knobs_applied",
    ConfigKnobsRejected => "config.knobs_rejected",
}

impl Counter {
    /// The counter's snapshot name.
    #[cfg(test)]
    pub(crate) fn name(self) -> &'static str {
        COUNTER_NAMES[self as usize]
    }
}

/// The live recorder owned by the service loop. Recording calls are
/// gated on [`TelemetryConfig::enabled`]; when disabled they reduce to a
/// single branch.
#[derive(Clone, Debug)]
pub struct Telemetry {
    config: TelemetryConfig,
    counters: [u64; COUNTER_NAMES.len()],
    latency_ms: Histogram,
    slowdown_pct: Histogram,
    events: Vec<TelemetryEvent>,
    dropped_events: u64,
}

impl Telemetry {
    /// Creates a recorder under the given policy.
    pub fn new(config: TelemetryConfig) -> Self {
        Telemetry {
            config,
            counters: [0; COUNTER_NAMES.len()],
            latency_ms: Histogram::default(),
            slowdown_pct: Histogram::default(),
            events: Vec::new(),
            dropped_events: 0,
        }
    }

    /// The active policy.
    pub fn config(&self) -> &TelemetryConfig {
        &self.config
    }

    /// Records one event: bumps the counters it implies, then appends it
    /// to the stream (counted as dropped once the capacity is reached —
    /// the counters are bumped either way). No-op when disabled.
    #[inline]
    pub fn emit(&mut self, event: TelemetryEvent) {
        if !self.config.enabled {
            return;
        }
        self.count(&event);
        if self.events.len() >= self.config.event_capacity {
            self.dropped_events += 1;
            return;
        }
        self.events.push(event);
    }

    /// Records a [`TelemetryEvent::QueryCompleted`] like [`Self::emit`],
    /// and feeds the completion histograms: `query.latency_ms` from the
    /// event and `query.slowdown_pct` (normalized latency × 100, which the
    /// event does not carry) from `slowdown_pct`.
    #[inline]
    pub fn emit_completion(&mut self, event: TelemetryEvent, slowdown_pct: u64) {
        if !self.config.enabled {
            return;
        }
        if let TelemetryEvent::QueryCompleted { latency_ms, .. } = event {
            self.latency_ms.record(latency_ms);
            self.slowdown_pct.record(slowdown_pct);
        }
        self.emit(event);
    }

    /// Bumps a counter that no event implies: the re-consolidation
    /// controller's decisions (`controller.*`) are the only ones.
    #[inline]
    pub(crate) fn bump(&mut self, counter: Counter, by: u64) {
        if self.config.enabled {
            self.counters[counter as usize] += by;
        }
    }

    /// The event→counter table: every counter except `controller.*` is a
    /// fold over the event stream.
    fn count(&mut self, event: &TelemetryEvent) {
        use Counter as C;
        use TelemetryEvent as E;
        let mut add = |c: C, n: u64| self.counters[c as usize] += n;
        match *event {
            E::QuerySubmitted { .. } => add(C::QueriesSubmitted, 1),
            E::QueryRouted { kind, .. } => add(
                match kind {
                    RouteKind::Sticky => C::RouteSticky,
                    RouteKind::TuningFree => C::RouteTuningFree,
                    RouteKind::OtherFree => C::RouteOtherFree,
                    RouteKind::Overflow => C::RouteOverflow,
                },
                1,
            ),
            E::QueryCompleted { met, .. } => {
                add(C::QueriesCompleted, 1);
                add(if met { C::SlaMet } else { C::SlaViolated }, 1);
            }
            // Cancellation only happens to migrate a query.
            E::QueryCancelled { .. } => {
                add(C::QueriesCancelled, 1);
                add(C::QueriesMigrated, 1);
            }
            E::ScalingTriggered { .. } => add(C::ScalingTriggered, 1),
            E::ScalingActivated { .. } => add(C::ScalingActivated, 1),
            E::InstanceProvisioned { .. } => add(C::InstancesProvisioned, 1),
            E::InstanceDecommissioned { .. } => add(C::InstancesDecommissioned, 1),
            E::NodeFailed { .. } => add(C::NodesFailed, 1),
            E::NodeReplaced { .. } => add(C::NodesReplaced, 1),
            E::ReplacementDeferred { .. } => add(C::NodesReplacementDeferred, 1),
            E::ReplacementRetried { .. } => add(C::NodesReplacementRetried, 1),
            E::TenantMigrated { .. } => add(C::TenantsMigrated, 1),
            E::TenantRegistered { .. } => add(C::TenantsRegistered, 1),
            E::TenantDeregistered { .. } => add(C::TenantsDeregistered, 1),
            E::BulkLoadStarted { .. } => add(C::BulkLoadsStarted, 1),
            E::BulkLoadFinished { .. } => add(C::BulkLoadsFinished, 1),
            E::ReconsolidationStarted { .. } => add(C::ReconsolidationStarted, 1),
            E::ReconsolidationCompleted { .. } => add(C::ReconsolidationCompleted, 1),
            E::GroupCutover { tenants, .. } => {
                add(C::GroupsCutover, 1);
                add(C::ReconsolidationTenantsMoved, tenants as u64);
            }
            E::ControllerAdapted { .. } => {}
            E::ConfigReloaded {
                applied, rejected, ..
            } => {
                add(C::ConfigReloads, 1);
                add(C::ConfigKnobsApplied, applied as u64);
                add(C::ConfigKnobsRejected, rejected as u64);
            }
        }
    }

    /// The retained events so far.
    pub fn events(&self) -> &[TelemetryEvent] {
        &self.events
    }

    /// Freezes the current state without consuming it (clones the event
    /// stream). `groups` is the live tenant-group count, reported as the
    /// `groups` gauge; instance utilization is filled in by the service,
    /// which owns the cluster.
    pub fn snapshot(&self, groups: usize) -> TelemetrySnapshot {
        if !self.config.enabled {
            return TelemetrySnapshot::empty(false);
        }
        let histograms = [
            ("query.latency_ms", &self.latency_ms),
            ("query.slowdown_pct", &self.slowdown_pct),
        ];
        TelemetrySnapshot {
            enabled: true,
            counters: COUNTER_NAMES
                .iter()
                .zip(self.counters)
                .map(|(name, value)| (name.to_string(), value))
                .collect(),
            gauges: BTreeMap::from([("groups".to_string(), groups as i64)]),
            histograms: histograms
                .into_iter()
                .filter(|(_, h)| h.count() > 0)
                .map(|(name, h)| (name.to_string(), h.snapshot()))
                .collect(),
            instances: Vec::new(),
            events: self.events.clone(),
            dropped_events: self.dropped_events,
        }
    }

    /// Like [`Self::snapshot`], but drains the retained event stream (the
    /// memory-heavy part) instead of cloning it. Counters and histograms
    /// stay cumulative across calls.
    pub fn take_snapshot(&mut self, groups: usize) -> TelemetrySnapshot {
        let events = std::mem::take(&mut self.events);
        let mut snap = self.snapshot(groups);
        if self.config.enabled {
            snap.events = events;
        }
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scaling_triggered(at_ms: u64) -> TelemetryEvent {
        TelemetryEvent::ScalingTriggered {
            at_ms,
            group: 0,
            tenants: 1,
        }
    }

    #[test]
    fn histogram_buckets_are_powers_of_two() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(1023), 10);
        assert_eq!(Histogram::bucket_index(1024), 11);
    }

    #[test]
    fn histogram_summary_statistics() {
        let mut h = Histogram::default();
        for v in [0u64, 1, 2, 3, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 1106);
        assert_eq!(h.quantile(0.0), 0);
        assert!(h.quantile(0.5) <= 3);
        assert_eq!(h.quantile(1.0), 1000);
        let s = h.snapshot();
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 1000);
        assert!((s.mean - 1106.0 / 6.0).abs() < 1e-9);
        assert_eq!(s.buckets.iter().sum::<u64>(), 6);
    }

    #[test]
    fn quantiles_are_upper_bounds_within_bucket_resolution() {
        let mut h = Histogram::default();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let p50 = h.quantile(0.5);
        assert!((500..=1023).contains(&p50), "p50 = {p50}");
        assert!(h.quantile(0.99) >= 990);
        assert!(h.quantile(1.0) == 1000);
    }

    #[test]
    fn quantiles_reach_the_top_bucket() {
        let mut h = Histogram::default();
        h.record(1);
        h.record(1 << 63);
        h.record(u64::MAX);
        assert_eq!(Histogram::bucket_index(1 << 63), 64);
        assert_eq!(h.quantile(0.0), 1);
        assert_eq!(h.quantile(0.5), u64::MAX);
        assert_eq!(h.quantile(1.0), u64::MAX);
        assert_eq!(h.snapshot().p99, u64::MAX);
    }

    #[test]
    fn counter_names_are_unique_and_complete() {
        let mut names = COUNTER_NAMES.to_vec();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), COUNTER_NAMES.len());
        assert_eq!(COUNTER_NAMES.len(), 38);
        assert_eq!(Counter::ConfigKnobsRejected.name(), "config.knobs_rejected");
    }

    #[test]
    fn counters_are_a_fold_over_the_emitted_events() {
        let mut t = Telemetry::new(TelemetryConfig::default());
        t.emit(TelemetryEvent::QueryRouted {
            at_ms: 0,
            query: QueryId(1),
            tenant: TenantId(0),
            group: 0,
            mppdb: 0,
            kind: RouteKind::Overflow,
        });
        t.emit(TelemetryEvent::QueryCancelled {
            at_ms: 1,
            query: QueryId(1),
            tenant: TenantId(0),
            group: 0,
        });
        t.emit(TelemetryEvent::GroupCutover {
            at_ms: 2,
            group: 1,
            tenants: 4,
            replicas: 2,
        });
        t.emit(TelemetryEvent::ConfigReloaded {
            at_ms: 3,
            applied: 2,
            rejected: 1,
        });
        t.emit(TelemetryEvent::ControllerAdapted {
            at_ms: 4,
            interval_ms: 10,
            window_ms: 0,
            error_ppm: 5,
        });
        t.bump(Counter::ControllerAdaptGrow, 1);
        let snap = t.snapshot(2);
        let nonzero: Vec<(&str, u64)> = snap
            .counters
            .iter()
            .filter(|(_, &v)| v > 0)
            .map(|(k, &v)| (k.as_str(), v))
            .collect();
        assert_eq!(
            nonzero,
            [
                ("config.knobs_applied", 2),
                ("config.knobs_rejected", 1),
                ("config.reloads", 1),
                ("controller.adapt_grow", 1),
                ("groups.cutover", 1),
                ("queries.cancelled", 1),
                ("queries.migrated", 1),
                ("reconsolidation.tenants_moved", 4),
                ("route.overflow", 1),
            ]
        );
        assert_eq!(snap.counters.len(), 38, "every counter is reported");
        assert_eq!(snap.gauges["groups"], 2);
        assert!(snap.histograms.is_empty(), "no completion yet");
        assert_eq!(snap.events.len(), 5);
    }

    #[test]
    fn disabled_telemetry_records_nothing() {
        let mut t = Telemetry::new(TelemetryConfig::disabled());
        t.emit(scaling_triggered(0));
        t.bump(Counter::ControllerSkippedBusy, 1);
        let snap = t.snapshot(1);
        assert!(!snap.enabled);
        assert!(snap.counters.is_empty());
        assert!(snap.gauges.is_empty());
        assert!(snap.events.is_empty());
        assert_eq!(snap.dropped_events, 0);
    }

    #[test]
    fn event_capacity_is_enforced_and_counted() {
        let mut t = Telemetry::new(TelemetryConfig::default().with_event_capacity(2));
        for i in 0..5u64 {
            t.emit(scaling_triggered(i));
        }
        assert_eq!(t.events().len(), 2);
        let snap = t.snapshot(1);
        assert_eq!(snap.events.len(), 2);
        assert_eq!(snap.dropped_events, 3);
        assert_eq!(
            snap.counter("scaling.triggered"),
            5,
            "dropped events still count"
        );
    }

    #[test]
    fn take_snapshot_drains_events_but_keeps_counters() {
        let mut t = Telemetry::new(TelemetryConfig::default());
        t.emit(scaling_triggered(1));
        let first = t.take_snapshot(1);
        assert_eq!(first.events.len(), 1);
        assert_eq!(first.counter("scaling.triggered"), 1);
        let second = t.take_snapshot(1);
        assert!(second.events.is_empty(), "events were drained");
        assert_eq!(
            second.counter("scaling.triggered"),
            1,
            "counters stay cumulative"
        );
    }

    #[test]
    fn snapshot_round_trips_through_serde() {
        let mut t = Telemetry::new(TelemetryConfig::default());
        t.emit(TelemetryEvent::QueryRouted {
            at_ms: 7,
            query: QueryId(1),
            tenant: TenantId(3),
            group: 0,
            mppdb: 1,
            kind: RouteKind::OtherFree,
        });
        t.emit_completion(
            TelemetryEvent::QueryCompleted {
                at_ms: 8,
                query: QueryId(1),
                tenant: TenantId(3),
                group: 0,
                latency_ms: 1234,
                met: true,
            },
            100,
        );
        t.emit(TelemetryEvent::NodeFailed {
            at_ms: 9,
            node: NodeId(4),
            instance: Some(InstanceId(0)),
        });
        let snap = t.snapshot(2);
        assert_eq!(snap.counter("sla.met"), 1);
        assert_eq!(snap.histograms["query.latency_ms"].max, 1234);
        assert_eq!(snap.histograms["query.slowdown_pct"].max, 100);
        let json = serde_json::to_string(&snap).unwrap();
        let back: TelemetrySnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.events[0].at_ms(), 7);
    }
}
