//! The operator wire protocol: line-delimited JSON over a unix socket.
//!
//! Every request is one [`Request`] serialized on a single line; every
//! answer is one [`Envelope`] line — `ok` plus a [`Reply`], or a
//! structured [`WireError`] with a stable machine-readable `kind`. The
//! derive shim's externally-tagged enum encoding makes the wire format
//! self-describing: `"Status"` for unit requests,
//! `{"Register": {...}}` for payloads.

use crate::config::TenantSection;
use crate::error::{service_error_kind, DaemonError, DaemonResult};
use serde::{Deserialize, Serialize};
use thrifty::service::ConfigDelta;
use thrifty::telemetry::TelemetrySnapshot;

/// A request to the daemon.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Full service status (tenants, groups, knobs in force).
    Status,
    /// Re-consolidation / cutover status.
    CutoverStatus,
    /// The full telemetry snapshot (counters, gauges, histograms,
    /// per-instance utilization, recent events).
    Telemetry,
    /// The serialized `ServiceReport` of the run so far.
    Report,
    /// Just the live tenant ids.
    LiveTenants,
    /// Register a tenant (parked on a tuning MPPDB until the next cycle).
    Register(TenantSection),
    /// Deregister a live tenant.
    Deregister {
        /// Tenant id.
        id: u32,
    },
    /// Submit one query on behalf of a tenant.
    Submit {
        /// Tenant id.
        tenant: u32,
        /// Template id (must be in the daemon's catalog).
        template: u32,
        /// Data volume the query scans, in GB.
        data_gb: f64,
        /// Node count of the tenant's dedicated baseline MPPDB.
        nodes: u32,
    },
    /// Kill a node at the current instant (fault injection).
    InjectFailure {
        /// Node id.
        node: u32,
    },
    /// Advance the simulated clock (sim-clock daemons only).
    Advance {
        /// Milliseconds to advance.
        ms: u64,
    },
    /// Advance the simulated clock and run in-flight work to quiescence
    /// (sim-clock daemons only).
    Quiesce {
        /// Milliseconds to advance.
        ms: u64,
    },
    /// Attempt one re-consolidation cycle now (manual-cadence daemons).
    Cycle,
    /// Re-read the config file and hot-apply the safe knob subset.
    Reload,
    /// Drain in-flight queries and shut down.
    Stop,
}

/// A successful answer.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Reply {
    /// `Ping` answer.
    Pong,
    /// `Status` answer.
    Status(StatusView),
    /// `CutoverStatus` answer.
    Cutover(CutoverView),
    /// `Telemetry` answer.
    Telemetry(TelemetrySnapshot),
    /// `Report` answer: the `ServiceReport` as a JSON document, kept as
    /// an opaque string so daemon-vs-direct byte comparison is exact.
    Report {
        /// Serialized `ServiceReport`.
        json: String,
    },
    /// `LiveTenants` answer.
    Tenants {
        /// Live tenant ids, ascending.
        ids: Vec<u32>,
    },
    /// `Register` answer.
    Registered {
        /// The registered tenant id.
        id: u32,
    },
    /// `Deregister` answer.
    Deregistered {
        /// The deregistered tenant id.
        id: u32,
    },
    /// `Submit` answer.
    Submitted,
    /// `InjectFailure` answer.
    FailureInjected {
        /// The failed node id.
        node: u32,
    },
    /// `Advance` / `Quiesce` answer.
    Advanced {
        /// Log time after the advance, in ms.
        log_now_ms: u64,
    },
    /// `Cycle` answer.
    Cycled {
        /// Whether a cycle actually started (a no-op plan, a busy
        /// service, or a dry node pool all skip).
        started: bool,
    },
    /// `Reload` answer.
    Reloaded(ReloadView),
    /// `Stop` answer, sent after the drain completes.
    Stopping {
        /// SLA records accumulated over the daemon's lifetime.
        records: u64,
    },
}

/// Full service status.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct StatusView {
    /// `"sim"` or `"wall"`.
    pub clock: String,
    /// The log instant where the service timeline starts, in ms.
    pub log_epoch_ms: u64,
    /// Current log time in ms.
    pub log_now_ms: u64,
    /// `log_now_ms - log_epoch_ms`.
    pub uptime_ms: u64,
    /// Whether every live tenant is currently routable.
    pub all_routable: bool,
    /// Registrations still bulk-loading or deferred.
    pub pending_registrations: bool,
    /// A re-consolidation cycle is executing.
    pub reconsolidation_active: bool,
    /// Re-consolidation cycles completed since start.
    pub cycles_completed: u64,
    /// Per-tenant status, ascending by id.
    pub tenants: Vec<TenantStatus>,
    /// Per-group status, by group index.
    pub groups: Vec<GroupStatus>,
    /// The service knobs currently in force (reflects hot-reloads).
    pub service: ServiceKnobs,
}

/// One tenant's routing status.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TenantStatus {
    /// Tenant id.
    pub id: u32,
    /// Serving group index, if any.
    pub group: Option<usize>,
    /// Parked on a tuning MPPDB awaiting its first cycle.
    pub parked: bool,
    /// Serving group exists, is not retired, and has replicas.
    pub routable: bool,
}

/// One tenant-group's runtime status.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct GroupStatus {
    /// Group index.
    pub index: usize,
    /// Member tenant ids.
    pub members: Vec<u32>,
    /// Live replica (MPPDB instance) count.
    pub instances: usize,
    /// Per-replica node size.
    pub node_size: u32,
    /// Retired by a cutover, draining in-flight work.
    pub retired: bool,
    /// Created by elastic scale-out.
    pub scale_out: bool,
}

/// The service knobs currently in force.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ServiceKnobs {
    /// SLA relative tolerance.
    pub sla_tolerance: f64,
    /// Performance guarantee `P`.
    pub sla_p: f64,
    /// Elastic scaling on/off.
    pub elastic_scaling: bool,
    /// RT-TTP window in ms.
    pub monitor_window_ms: u64,
    /// Over-active identification epoch in ms.
    pub scaling_epoch_ms: u64,
    /// Scaling check spacing in ms.
    pub scaling_check_interval_ms: u64,
}

/// Re-consolidation / cutover status.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CutoverView {
    /// A cycle is executing right now.
    pub active: bool,
    /// Cycles completed since start.
    pub cycles_completed: u64,
    /// Groups currently retired and draining.
    pub retiring_groups: Vec<usize>,
    /// Next due instant on the log timeline, in ms.
    pub next_due_ms: u64,
    /// Cycle period in force.
    pub interval_ms: u64,
    /// Observation window in force (0 = the service's monitor window).
    pub window_ms: u64,
    /// Due instants evaluated.
    pub evaluations: u64,
    /// Cycles the controller actually started.
    pub cycles_planned: u64,
    /// Skips: a previous cycle / registrations still in flight.
    pub skipped_busy: u64,
    /// Skips: the plan matched the current deployment.
    pub skipped_noop: u64,
    /// Skips: not enough free nodes to double-run rebuilt groups.
    pub skipped_insufficient_nodes: u64,
    /// Skips: every change was deferred by the churn bounds.
    pub skipped_deferred: u64,
    /// Moves deferred by hysteresis across all cycles.
    pub moves_deferred: u64,
    /// Builds capped by the per-cycle budget across all cycles.
    pub builds_capped: u64,
    /// Cadence adaptations applied.
    pub adaptations: u64,
}

/// The outcome of a hot-reload.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ReloadView {
    /// The service-knob diff: applied and rejected changes with reasons.
    pub delta: ConfigDelta,
    /// Deploy-time *sections* of the daemon config that differed and were
    /// refused wholesale (cluster, groups, templates, reconsolidation,
    /// daemon pacing).
    pub rejected_sections: Vec<RejectedSection>,
}

/// One refused deploy-time section.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RejectedSection {
    /// Section name (e.g. `"cluster"`).
    pub section: String,
    /// Why it cannot change without a restart.
    pub reason: String,
}

/// A structured wire error.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct WireError {
    /// Stable machine-readable kind (e.g. `invalid-config`, `clock`,
    /// `parse`, `line-too-long`).
    pub kind: String,
    /// Human-readable description.
    pub message: String,
}

/// One answer line: `ok` with a reply, or a structured error.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Envelope {
    /// Whether the request succeeded.
    pub ok: bool,
    /// The reply when `ok`.
    pub reply: Option<Reply>,
    /// The error when not.
    pub error: Option<WireError>,
}

impl Envelope {
    /// A success envelope.
    pub fn ok(reply: Reply) -> Self {
        Envelope {
            ok: true,
            reply: Some(reply),
            error: None,
        }
    }

    /// A structured error envelope.
    pub fn err(kind: &str, message: impl Into<String>) -> Self {
        Envelope {
            ok: false,
            reply: None,
            error: Some(WireError {
                kind: kind.to_string(),
                message: message.into(),
            }),
        }
    }

    /// An error envelope from a service failure, with its stable kind.
    pub fn service_err(e: &thrifty::error::ThriftyError) -> Self {
        Envelope::err(service_error_kind(e), e.to_string())
    }

    /// Unwraps the reply, converting a wire error into
    /// [`DaemonError::Remote`].
    ///
    /// # Errors
    /// [`DaemonError::Remote`] when the envelope carries an error, and
    /// [`DaemonError::Protocol`] when it is `ok` but reply-less.
    pub fn into_reply(self) -> DaemonResult<Reply> {
        if let Some(e) = self.error {
            return Err(DaemonError::Remote {
                kind: e.kind,
                message: e.message,
            });
        }
        self.reply
            .ok_or_else(|| DaemonError::Protocol("ok envelope without a reply".to_string()))
    }
}

/// Serializes one protocol value as a single line (no trailing newline).
///
/// # Errors
/// [`DaemonError::Json`] when the value cannot be encoded.
pub fn encode_line<T: Serialize + ?Sized>(value: &T) -> DaemonResult<String> {
    let s = serde_json::to_string(value)?;
    debug_assert!(!s.contains('\n'), "compact JSON is single-line");
    Ok(s)
}

/// Parses one protocol line.
///
/// # Errors
/// [`DaemonError::Json`] when the line is not valid JSON of the expected
/// shape.
pub fn decode_line<T: Deserialize>(line: &str) -> DaemonResult<T> {
    Ok(serde_json::from_str(line.trim())?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip_on_the_wire() {
        let reqs = vec![
            Request::Ping,
            Request::Status,
            Request::Register(TenantSection {
                id: 42,
                nodes: 2,
                data_gb: 120.0,
            }),
            Request::Submit {
                tenant: 42,
                template: 2,
                data_gb: 80.5,
                nodes: 2,
            },
            Request::Advance { ms: 60_000 },
            Request::Stop,
        ];
        for req in reqs {
            let line = encode_line(&req).unwrap();
            assert!(!line.contains('\n'));
            let back: Request = decode_line(&line).unwrap();
            assert_eq!(req, back);
        }
    }

    #[test]
    fn envelopes_round_trip_and_unwrap() {
        let ok = Envelope::ok(Reply::Advanced { log_now_ms: 9 });
        let back: Envelope = decode_line(&encode_line(&ok).unwrap()).unwrap();
        assert_eq!(
            back.into_reply().unwrap(),
            Reply::Advanced { log_now_ms: 9 }
        );

        let err = Envelope::err("clock", "wall-clock daemons cannot be advanced");
        let back: Envelope = decode_line(&encode_line(&err).unwrap()).unwrap();
        match back.into_reply() {
            Err(DaemonError::Remote { kind, .. }) => assert_eq!(kind, "clock"),
            other => panic!("expected remote error, got {other:?}"),
        }
    }
}
