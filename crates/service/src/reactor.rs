//! The readiness layer under the event-driven server: a thin poll
//! abstraction over nonblocking sockets — downstream connections and,
//! on a router, the upstream ones to its backends — plus the wake
//! channel other threads use to re-enter the event loop.
//!
//! Three pieces, all built on `std`:
//!
//! * [`PollFd`]/[`Poller`] — level-triggered readiness for a set of file
//!   descriptors. On Linux (x86_64/aarch64) this is the `ppoll(2)`
//!   syscall issued directly via an inline-assembly shim (`sys`) — no
//!   libc, no FFI crate. Everywhere else a portable fallback reports
//!   every descriptor ready after a short sleep; since the event loop
//!   treats readiness as a *hint* (every I/O call handles `WouldBlock`),
//!   spurious readiness is safe, just less efficient.
//! * [`WakePair`] — a Unix socket pair: the reactor parks in
//!   [`Poller::wait`] with the read end registered, and other threads (a
//!   node's solver pool, a router's prober handing back a dialed
//!   upstream socket) call [`Waker::wake`] after pushing a completion,
//!   so the loop resumes immediately instead of timing out.
//!
//! The abstraction is deliberately minimal — interest registration is
//! rebuilding the `PollFd` slice each iteration, which is `O(n)` exactly
//! like the kernel's own scan, so there is nothing to keep in sync.

use std::io::{self, Read, Write};
use std::net::TcpListener;
use std::os::unix::net::UnixStream;

/// Readiness interest/result flags, matching `poll(2)`.
pub const POLLIN: i16 = 0x001;
/// Writable-readiness flag.
pub const POLLOUT: i16 = 0x004;
/// Error condition (revents only).
pub const POLLERR: i16 = 0x008;
/// Peer hung up (revents only).
pub const POLLHUP: i16 = 0x010;
/// Invalid descriptor (revents only).
pub const POLLNVAL: i16 = 0x020;

/// One entry of a poll set: a raw descriptor, the events the caller is
/// interested in, and the events the kernel reported back.
///
/// The layout is exactly `struct pollfd`, so a `&mut [PollFd]` can be
/// handed to the kernel as-is.
#[repr(C)]
#[derive(Clone, Copy, Debug)]
pub struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

impl PollFd {
    /// An entry watching `fd` for `events` (`POLLIN | POLLOUT`).
    #[must_use]
    pub fn new(fd: i32, events: i16) -> PollFd {
        PollFd {
            fd,
            events,
            revents: 0,
        }
    }

    /// The reported readiness of this descriptor after a wait.
    #[must_use]
    pub fn revents(&self) -> i16 {
        self.revents
    }

    /// Whether any reported event intersects `mask`.
    #[must_use]
    pub fn ready(&self, mask: i16) -> bool {
        self.revents & (mask | POLLERR | POLLHUP | POLLNVAL) != 0
    }
}

/// The syscall shim: `ppoll(2)` through inline assembly, no libc.
///
/// Safety rests on two facts: the slice pointer/length pair we pass is a
/// live `&mut [PollFd]` whose `#[repr(C)]` layout matches the kernel's
/// `struct pollfd`, and `ppoll` writes only inside that array and the
/// (stack-owned) timespec. The signal mask is null, so no signal state
/// is touched.
#[allow(unsafe_code)]
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod sys {
    use super::PollFd;

    /// Kernel timespec for the ppoll timeout.
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    #[cfg(target_arch = "x86_64")]
    fn sys_ppoll(fds: *mut PollFd, nfds: usize, ts: *const Timespec) -> isize {
        const SYS_PPOLL: isize = 271;
        let ret: isize;
        // SAFETY: see the module docs — the pointers are live and
        // correctly sized for the whole call, and the clobbers are the
        // documented x86_64 syscall ABI (rcx/r11 + flags).
        unsafe {
            core::arch::asm!(
                "syscall",
                inlateout("rax") SYS_PPOLL => ret,
                in("rdi") fds,
                in("rsi") nfds,
                in("rdx") ts,
                in("r10") 0usize, // sigmask: null
                in("r8") 0usize,  // sigsetsize
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
        }
        ret
    }

    #[cfg(target_arch = "aarch64")]
    fn sys_ppoll(fds: *mut PollFd, nfds: usize, ts: *const Timespec) -> isize {
        const SYS_PPOLL: isize = 73;
        let ret: isize;
        // SAFETY: as above; aarch64 syscall ABI (x8 = nr, x0..x4 args).
        unsafe {
            core::arch::asm!(
                "svc 0",
                in("x8") SYS_PPOLL,
                inlateout("x0") fds as usize => ret,
                in("x1") nfds,
                in("x2") ts,
                in("x3") 0usize, // sigmask: null
                in("x4") 0usize, // sigsetsize
                options(nostack),
            );
        }
        ret
    }

    /// Blocks until a descriptor is ready or `timeout_ms` elapses;
    /// returns the number of ready descriptors (0 on timeout).
    pub fn poll(fds: &mut [PollFd], timeout_ms: u32) -> std::io::Result<usize> {
        let ts = Timespec {
            tv_sec: i64::from(timeout_ms / 1000),
            tv_nsec: i64::from(timeout_ms % 1000) * 1_000_000,
        };
        let ret = sys_ppoll(fds.as_mut_ptr(), fds.len(), &raw const ts);
        if ret >= 0 {
            return Ok(usize::try_from(ret).expect("non-negative"));
        }
        let errno = i32::try_from(-ret).expect("small errno");
        const EINTR: i32 = 4;
        if errno == EINTR {
            return Ok(0); // a signal interrupted the wait; just re-loop
        }
        Err(std::io::Error::from_raw_os_error(errno))
    }
}

/// How a [`Poller`] waits: the kernel syscall where available, the
/// sleep-and-assume-ready fallback everywhere else.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Backend {
    /// `ppoll(2)` via the [`sys`] shim.
    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    Kernel,
    /// Portable degraded mode: sleep briefly, then report every
    /// descriptor ready for exactly what it asked (the caller's
    /// `WouldBlock` handling filters the spurious ones).
    SleepScan,
}

/// Level-triggered readiness over a caller-built [`PollFd`] slice.
pub struct Poller {
    backend: Backend,
}

impl Default for Poller {
    fn default() -> Self {
        Poller::new()
    }
}

impl Poller {
    /// A poller using the best backend for this target.
    #[must_use]
    pub fn new() -> Poller {
        #[cfg(all(
            target_os = "linux",
            any(target_arch = "x86_64", target_arch = "aarch64")
        ))]
        {
            Poller {
                backend: Backend::Kernel,
            }
        }
        #[cfg(not(all(
            target_os = "linux",
            any(target_arch = "x86_64", target_arch = "aarch64")
        )))]
        {
            Poller {
                backend: Backend::SleepScan,
            }
        }
    }

    /// The portable fallback backend (used in tests; construction never
    /// fails, it is just slower than the kernel path).
    #[must_use]
    pub fn sleep_scan() -> Poller {
        Poller {
            backend: Backend::SleepScan,
        }
    }

    /// Waits until at least one descriptor is ready or `timeout_ms`
    /// elapses, filling in `revents`; returns the ready count (0 on
    /// timeout).
    ///
    /// # Errors
    ///
    /// Propagates the OS failure (never `EINTR`, which is swallowed and
    /// reported as a timeout).
    pub fn wait(&self, fds: &mut [PollFd], timeout_ms: u32) -> io::Result<usize> {
        for fd in fds.iter_mut() {
            fd.revents = 0;
        }
        match self.backend {
            #[cfg(all(
                target_os = "linux",
                any(target_arch = "x86_64", target_arch = "aarch64")
            ))]
            Backend::Kernel => sys::poll(fds, timeout_ms),
            Backend::SleepScan => {
                // Degraded portability mode: claim readiness after a
                // short nap. Correct (readiness is a hint) but burns a
                // little CPU; only used where the syscall shim is
                // unavailable.
                std::thread::sleep(std::time::Duration::from_millis(u64::from(
                    timeout_ms.min(1),
                )));
                for fd in fds.iter_mut() {
                    fd.revents = fd.events;
                }
                Ok(fds.len())
            }
        }
    }
}

/// A Unix socket pair waking a [`Poller`] from other threads.
///
/// The wake channel is a connected `socketpair(2)`
/// ([`UnixStream::pair`]): one call, no port and no handshake, and a
/// wake never crosses the TCP stack. The read end is nonblocking and
/// lives in the reactor's poll set; [`Waker`] clones share the write
/// end.
pub struct WakePair {
    reader: UnixStream,
    writer: UnixStream,
}

impl WakePair {
    /// Builds the connected pair.
    ///
    /// # Errors
    ///
    /// Propagates socket failures.
    pub fn new() -> io::Result<WakePair> {
        let (reader, writer) = UnixStream::pair()?;
        reader.set_nonblocking(true)?;
        writer.set_nonblocking(true)?;
        Ok(WakePair { reader, writer })
    }

    /// The descriptor to register with `POLLIN`.
    #[must_use]
    pub fn read_fd(&self) -> i32 {
        raw_fd(&self.reader)
    }

    /// A cloneable wake handle for solver threads.
    ///
    /// # Errors
    ///
    /// Propagates the descriptor clone failure.
    pub fn waker(&self) -> io::Result<Waker> {
        Ok(Waker {
            writer: self.writer.try_clone()?,
        })
    }

    /// Drains every pending wake byte (call once per loop iteration when
    /// the read end reports readable).
    pub fn drain(&mut self) {
        let mut buf = [0u8; 64];
        while let Ok(n) = self.reader.read(&mut buf) {
            if n == 0 {
                return; // all writers gone
            }
        }
    }
}

/// The writing side of a [`WakePair`]; one byte per wake, excess wakes
/// coalesce in the socket buffer.
pub struct Waker {
    writer: UnixStream,
}

impl Waker {
    /// Signals the reactor. A full socket buffer means wakes are already
    /// pending, so `WouldBlock` (and any other failure — the reactor is
    /// gone) is deliberately ignored.
    pub fn wake(&mut self) {
        let _ = self.writer.write(&[1u8]);
    }

    /// Another handle onto the same wake channel.
    ///
    /// # Errors
    ///
    /// Propagates the descriptor clone failure.
    pub fn try_clone(&self) -> io::Result<Waker> {
        Ok(Waker {
            writer: self.writer.try_clone()?,
        })
    }
}

/// The raw descriptor of a socket, for [`PollFd::new`].
#[must_use]
pub fn raw_fd<T: std::os::fd::AsRawFd>(socket: &T) -> i32 {
    socket.as_raw_fd()
}

/// The raw descriptor of a listener, for [`PollFd::new`].
#[must_use]
pub fn listener_fd(listener: &TcpListener) -> i32 {
    raw_fd(listener)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpStream;
    use std::time::{Duration, Instant};

    #[test]
    fn poll_times_out_on_an_idle_socket() {
        let pair = WakePair::new().unwrap();
        let poller = Poller::new();
        let mut fds = [PollFd::new(pair.read_fd(), POLLIN)];
        let start = Instant::now();
        let n = poller.wait(&mut fds, 50).unwrap();
        assert_eq!(n, 0, "no wake was sent");
        assert!(
            start.elapsed() >= Duration::from_millis(40),
            "must actually block"
        );
    }

    #[test]
    fn a_wake_makes_the_read_end_ready_and_drains() {
        let mut pair = WakePair::new().unwrap();
        let mut waker = pair.waker().unwrap();
        let poller = Poller::new();
        waker.wake();
        waker.wake(); // coalesces
        let mut fds = [PollFd::new(pair.read_fd(), POLLIN)];
        let n = poller.wait(&mut fds, 1000).unwrap();
        assert_eq!(n, 1);
        assert!(fds[0].ready(POLLIN));
        pair.drain();
        // Drained: the next wait times out again.
        let n = poller.wait(&mut fds, 20).unwrap();
        assert_eq!(n, 0);
    }

    #[test]
    fn wakes_cross_threads() {
        let mut pair = WakePair::new().unwrap();
        let waker = pair.waker().unwrap();
        let handle = std::thread::spawn(move || {
            let mut waker = waker.try_clone().unwrap();
            std::thread::sleep(Duration::from_millis(30));
            waker.wake();
        });
        let poller = Poller::new();
        let mut fds = [PollFd::new(pair.read_fd(), POLLIN)];
        let n = poller.wait(&mut fds, 2000).unwrap();
        assert_eq!(n, 1, "the cross-thread wake must arrive");
        pair.drain();
        handle.join().unwrap();
    }

    #[test]
    fn writable_sockets_report_pollout() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let stream = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let poller = Poller::new();
        let mut fds = [PollFd::new(raw_fd(&stream), POLLOUT)];
        let n = poller.wait(&mut fds, 1000).unwrap();
        assert_eq!(n, 1, "a fresh socket has send-buffer space");
        assert!(fds[0].ready(POLLOUT));
    }

    #[test]
    fn sleep_scan_fallback_reports_spurious_readiness() {
        let pair = WakePair::new().unwrap();
        let poller = Poller::sleep_scan();
        let mut fds = [PollFd::new(pair.read_fd(), POLLIN)];
        // No wake was sent, but the fallback claims readiness — the
        // contract is "hint", and WouldBlock handling filters it.
        let n = poller.wait(&mut fds, 5).unwrap();
        assert_eq!(n, 1);
        assert!(fds[0].ready(POLLIN));
    }
}
