//! Typed client for the `thriftyd` socket protocol, shared by the
//! operator CLI and the daemon-mode fuzz harness.

use crate::config::TenantSection;
use crate::error::{DaemonError, DaemonResult};
use crate::protocol::{
    decode_line, encode_line, CutoverView, Envelope, ReloadView, Reply, Request, StatusView,
};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::Duration;
use thrifty::telemetry::TelemetrySnapshot;

/// One connection to a running daemon. Requests are strictly
/// round-tripped: a request line goes out, one envelope line comes back.
pub struct DaemonClient {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl DaemonClient {
    /// Connects to the daemon socket.
    ///
    /// # Errors
    /// [`DaemonError::Io`] when nothing listens there.
    pub fn connect(socket: &Path) -> DaemonResult<Self> {
        let stream = UnixStream::connect(socket)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(DaemonClient {
            reader,
            writer: stream,
        })
    }

    /// Connects, retrying while the daemon is still claiming its socket
    /// (harnesses spawn `thriftyd` and race its startup).
    ///
    /// # Errors
    /// The last connection failure once `attempts` are exhausted.
    pub fn connect_with_retry(socket: &Path, attempts: u32, delay_ms: u64) -> DaemonResult<Self> {
        let mut last = DaemonError::Protocol("no connection attempts made".to_string());
        for _ in 0..attempts.max(1) {
            match Self::connect(socket) {
                Ok(client) => return Ok(client),
                Err(e) => last = e,
            }
            std::thread::sleep(Duration::from_millis(delay_ms));
        }
        Err(last)
    }

    /// Bounds how long one request may wait on the socket (`None` waits
    /// forever, the default), so a harness fails instead of hanging on
    /// a stalled daemon.
    ///
    /// # Errors
    /// [`DaemonError::Io`] for a zero duration.
    pub fn set_timeout(&self, timeout: Option<Duration>) -> DaemonResult<()> {
        self.writer.set_read_timeout(timeout)?;
        self.writer.set_write_timeout(timeout)?;
        Ok(())
    }

    /// One request/envelope round trip, error envelopes included — the
    /// primitive the fuzz harness byte-compares against direct
    /// [`DaemonCore`](crate::runtime::DaemonCore) dispatch.
    ///
    /// # Errors
    /// Transport failures and protocol violations only; a daemon-side
    /// error is a successfully-delivered envelope.
    pub fn request_envelope(&mut self, req: &Request) -> DaemonResult<Envelope> {
        let mut line = encode_line(req)?;
        line.push('\n');
        self.writer.write_all(line.as_bytes())?;
        self.writer.flush()?;
        let mut answer = String::new();
        let n = self.reader.read_line(&mut answer)?;
        if n == 0 {
            return Err(DaemonError::Protocol(
                "daemon closed the connection before answering".to_string(),
            ));
        }
        decode_line(&answer)
    }

    /// One raw request/reply round trip.
    ///
    /// # Errors
    /// Transport failures, protocol violations, and daemon-side errors
    /// (as [`DaemonError::Remote`] with the wire kind).
    pub fn request(&mut self, req: &Request) -> DaemonResult<Reply> {
        self.request_envelope(req)?.into_reply()
    }

    /// Liveness probe.
    ///
    /// # Errors
    /// See [`DaemonClient::request`].
    pub fn ping(&mut self) -> DaemonResult<()> {
        match self.request(&Request::Ping)? {
            Reply::Pong => Ok(()),
            other => Err(unexpected("Pong", &other)),
        }
    }

    /// Full service status.
    ///
    /// # Errors
    /// See [`DaemonClient::request`].
    pub fn status(&mut self) -> DaemonResult<StatusView> {
        match self.request(&Request::Status)? {
            Reply::Status(v) => Ok(v),
            other => Err(unexpected("Status", &other)),
        }
    }

    /// Re-consolidation / cutover status.
    ///
    /// # Errors
    /// See [`DaemonClient::request`].
    pub fn cutover_status(&mut self) -> DaemonResult<CutoverView> {
        match self.request(&Request::CutoverStatus)? {
            Reply::Cutover(v) => Ok(v),
            other => Err(unexpected("Cutover", &other)),
        }
    }

    /// The full telemetry snapshot.
    ///
    /// # Errors
    /// See [`DaemonClient::request`].
    pub fn telemetry(&mut self) -> DaemonResult<TelemetrySnapshot> {
        match self.request(&Request::Telemetry)? {
            Reply::Telemetry(v) => Ok(v),
            other => Err(unexpected("Telemetry", &other)),
        }
    }

    /// The serialized `ServiceReport` of the run so far.
    ///
    /// # Errors
    /// See [`DaemonClient::request`].
    pub fn report_json(&mut self) -> DaemonResult<String> {
        match self.request(&Request::Report)? {
            Reply::Report { json } => Ok(json),
            other => Err(unexpected("Report", &other)),
        }
    }

    /// Live tenant ids.
    ///
    /// # Errors
    /// See [`DaemonClient::request`].
    pub fn live_tenants(&mut self) -> DaemonResult<Vec<u32>> {
        match self.request(&Request::LiveTenants)? {
            Reply::Tenants { ids } => Ok(ids),
            other => Err(unexpected("Tenants", &other)),
        }
    }

    /// Registers a tenant.
    ///
    /// # Errors
    /// See [`DaemonClient::request`].
    pub fn register(&mut self, id: u32, nodes: u32, data_gb: f64) -> DaemonResult<()> {
        match self.request(&Request::Register(TenantSection { id, nodes, data_gb }))? {
            Reply::Registered { .. } => Ok(()),
            other => Err(unexpected("Registered", &other)),
        }
    }

    /// Deregisters a tenant.
    ///
    /// # Errors
    /// See [`DaemonClient::request`].
    pub fn deregister(&mut self, id: u32) -> DaemonResult<()> {
        match self.request(&Request::Deregister { id })? {
            Reply::Deregistered { .. } => Ok(()),
            other => Err(unexpected("Deregistered", &other)),
        }
    }

    /// Submits one query.
    ///
    /// # Errors
    /// See [`DaemonClient::request`].
    pub fn submit(
        &mut self,
        tenant: u32,
        template: u32,
        data_gb: f64,
        nodes: u32,
    ) -> DaemonResult<()> {
        match self.request(&Request::Submit {
            tenant,
            template,
            data_gb,
            nodes,
        })? {
            Reply::Submitted => Ok(()),
            other => Err(unexpected("Submitted", &other)),
        }
    }

    /// Kills a node at the current instant.
    ///
    /// # Errors
    /// See [`DaemonClient::request`].
    pub fn inject_failure(&mut self, node: u32) -> DaemonResult<()> {
        match self.request(&Request::InjectFailure { node })? {
            Reply::FailureInjected { .. } => Ok(()),
            other => Err(unexpected("FailureInjected", &other)),
        }
    }

    /// Advances a sim-clock daemon, returning the new log time in ms.
    ///
    /// # Errors
    /// See [`DaemonClient::request`]; wall-clock daemons answer a
    /// `clock` error.
    pub fn advance(&mut self, ms: u64) -> DaemonResult<u64> {
        match self.request(&Request::Advance { ms })? {
            Reply::Advanced { log_now_ms } => Ok(log_now_ms),
            other => Err(unexpected("Advanced", &other)),
        }
    }

    /// Advances a sim-clock daemon and runs to quiescence, returning the
    /// new log time in ms.
    ///
    /// # Errors
    /// See [`DaemonClient::advance`].
    pub fn quiesce(&mut self, ms: u64) -> DaemonResult<u64> {
        match self.request(&Request::Quiesce { ms })? {
            Reply::Advanced { log_now_ms } => Ok(log_now_ms),
            other => Err(unexpected("Advanced", &other)),
        }
    }

    /// Attempts one re-consolidation cycle; `true` when one started.
    ///
    /// # Errors
    /// See [`DaemonClient::request`].
    pub fn cycle(&mut self) -> DaemonResult<bool> {
        match self.request(&Request::Cycle)? {
            Reply::Cycled { started } => Ok(started),
            other => Err(unexpected("Cycled", &other)),
        }
    }

    /// Asks the daemon to re-read its config file and hot-apply the safe
    /// subset.
    ///
    /// # Errors
    /// See [`DaemonClient::request`].
    pub fn reload(&mut self) -> DaemonResult<ReloadView> {
        match self.request(&Request::Reload)? {
            Reply::Reloaded(v) => Ok(v),
            other => Err(unexpected("Reloaded", &other)),
        }
    }

    /// Drains and stops the daemon, returning its lifetime SLA record
    /// count.
    ///
    /// # Errors
    /// See [`DaemonClient::request`].
    pub fn stop(&mut self) -> DaemonResult<u64> {
        match self.request(&Request::Stop)? {
            Reply::Stopping { records } => Ok(records),
            other => Err(unexpected("Stopping", &other)),
        }
    }
}

fn unexpected(wanted: &str, got: &Reply) -> DaemonError {
    DaemonError::Protocol(format!("expected {wanted} reply, got {got:?}"))
}
