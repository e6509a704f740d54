//! Minimal `poll(2)` readiness wait for the event loop.
//!
//! Like [`crate::signal`], this binds the one C library symbol it needs
//! directly instead of pulling in `libc`: a `#[repr(C)]` [`PollFd`] array
//! and the `poll` entry point. The server builds one entry per socket
//! each time a turn makes no progress and blocks here until a socket is
//! ready, the timeout passes, or a signal (`SIGHUP`) interrupts the wait.

use std::ffi::{c_int, c_short, c_ulong};
use std::io;
use std::os::unix::io::AsRawFd;
use std::time::Duration;

/// Readable (or at end of stream).
pub(crate) const POLLIN: c_short = 0x001;
/// Writable without blocking.
pub(crate) const POLLOUT: c_short = 0x004;

/// One `struct pollfd`: the descriptor, the events asked for, and the
/// events the kernel reported.
#[repr(C)]
#[derive(Clone, Copy, Debug)]
pub(crate) struct PollFd {
    /// The descriptor.
    pub(crate) fd: c_int,
    /// Requested events ([`POLLIN`], [`POLLOUT`]).
    pub(crate) events: c_short,
    /// Reported events, filled in by [`wait`] (errors and hang-ups
    /// included even when not requested).
    pub(crate) revents: c_short,
}

impl PollFd {
    /// Interest in `events` on `socket`.
    pub(crate) fn new(socket: &impl AsRawFd, events: c_short) -> Self {
        PollFd {
            fd: socket.as_raw_fd(),
            events,
            revents: 0,
        }
    }
}

extern "C" {
    fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
}

/// Blocks until one of `fds` is ready or `timeout` passes, returning the
/// number of ready entries (0 on timeout). A signal arriving mid-wait
/// (`EINTR`) is an ordinary wake and also returns 0, so the caller's
/// next turn sees the `SIGHUP` latch at once.
///
/// # Errors
/// Any other `poll(2)` failure.
pub(crate) fn wait(fds: &mut [PollFd], timeout: Duration) -> io::Result<usize> {
    let ms = c_int::try_from(timeout.as_millis()).unwrap_or(c_int::MAX);
    let nfds = c_ulong::try_from(fds.len()).unwrap_or(c_ulong::MAX);
    // SAFETY: `poll` is the C library's readiness wait; `fds` is a live,
    // exclusively borrowed slice of `#[repr(C)]` `struct pollfd` values
    // and `nfds` is its length, so the kernel reads and writes only
    // within it, and nothing else is retained past the call.
    let ready = unsafe { poll(fds.as_mut_ptr(), nfds, ms) };
    if ready >= 0 {
        return Ok(usize::try_from(ready).unwrap_or(0));
    }
    let err = io::Error::last_os_error();
    if err.kind() == io::ErrorKind::Interrupted {
        Ok(0)
    } else {
        Err(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::os::unix::net::UnixStream;
    use std::time::Instant;

    #[test]
    fn a_readable_socket_wakes_the_wait_long_before_its_timeout() {
        let (mut tx, rx) = UnixStream::pair().unwrap();
        tx.write_all(b"x").unwrap();
        let mut fds = [PollFd::new(&rx, POLLIN)];
        let t0 = Instant::now();
        assert_eq!(wait(&mut fds, Duration::from_secs(10)).unwrap(), 1);
        assert!(t0.elapsed() < Duration::from_secs(1), "{:?}", t0.elapsed());
        assert_ne!(fds[0].revents & POLLIN, 0);
    }

    #[test]
    fn an_idle_socket_waits_out_the_timeout() {
        let (_tx, rx) = UnixStream::pair().unwrap();
        let mut fds = [PollFd::new(&rx, POLLIN)];
        let t0 = Instant::now();
        assert_eq!(wait(&mut fds, Duration::from_millis(20)).unwrap(), 0);
        assert!(t0.elapsed() >= Duration::from_millis(15));
        assert_eq!(fds[0].revents, 0);
    }

    #[test]
    fn a_fresh_socket_is_writable() {
        let (tx, _rx) = UnixStream::pair().unwrap();
        let mut fds = [PollFd::new(&tx, POLLOUT)];
        assert_eq!(wait(&mut fds, Duration::from_secs(10)).unwrap(), 1);
        assert_ne!(fds[0].revents & POLLOUT, 0);
    }
}
