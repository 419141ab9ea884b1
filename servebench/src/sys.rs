//! The few Linux calls the generator needs that `std` does not offer:
//! `ppoll` (readiness on several sockets with a nanosecond timeout),
//! `prctl(PR_SET_TIMERSLACK)` (so a sleeping generator wakes at the due
//! time, not up to 50 µs after it), `malloc_trim` (so resident memory
//! after set-up reflects live data, not heap the input generator freed)
//! and the CPU-time clocks (so the service's CPU can be told from the
//! generator's).
//! `std` already links libc, so the calls are declared directly.

use std::io;
use std::os::fd::RawFd;
use std::time::Duration;

/// Readable.
pub const POLLIN: i16 = 0x001;
/// Writable.
pub const POLLOUT: i16 = 0x004;

/// One `struct pollfd`.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct PollFd {
    fd: RawFd,
    events: i16,
    revents: i16,
}

impl PollFd {
    /// Interest in `events` on `fd`.
    pub fn new(fd: RawFd, events: i16) -> PollFd {
        PollFd {
            fd,
            events,
            revents: 0,
        }
    }

    /// Whether the kernel reported anything (readiness, error or hangup).
    pub fn ready(&self) -> bool {
        self.revents != 0
    }

    /// Whether the socket can take more bytes.
    pub fn writable(&self) -> bool {
        self.revents & POLLOUT != 0
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: u64,
        timeout: *const Timespec,
        sigmask: *const std::ffi::c_void,
    ) -> i32;
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
    fn malloc_trim(pad: usize) -> i32;
    fn clock_gettime(clock: i32, spec: *mut Timespec) -> i32;
}

fn cpu_clock(clock: i32) -> Duration {
    let mut spec = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `spec` is a live, exclusively borrowed timespec the call
    // fills in; the CPU-time clocks need nothing else.
    let rc = unsafe { clock_gettime(clock, &mut spec) };
    assert_eq!(rc, 0, "CPU-time clocks are available on Linux");
    Duration::new(spec.tv_sec as u64, spec.tv_nsec as u32)
}

/// CPU time consumed so far by every thread of this process.
pub fn process_cpu() -> Duration {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    cpu_clock(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time consumed so far by the calling thread.
pub fn thread_cpu() -> Duration {
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    cpu_clock(CLOCK_THREAD_CPUTIME_ID)
}

/// Waits until a descriptor in `fds` is ready or `timeout` passes
/// (`None` waits indefinitely). Returns the number of ready entries.
pub fn wait(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<usize> {
    let spec = timeout.map(|t| Timespec {
        tv_sec: i64::try_from(t.as_secs()).unwrap_or(i64::MAX),
        tv_nsec: i64::from(t.subsec_nanos()),
    });
    let spec_ptr = spec
        .as_ref()
        .map_or(std::ptr::null(), |s| s as *const Timespec);
    for fd in fds.iter_mut() {
        fd.revents = 0;
    }
    // SAFETY: `fds` is a live, exclusively borrowed slice of `#[repr(C)]`
    // pollfd structs whose length is passed alongside; `spec_ptr` is null
    // or points at `spec`, which outlives the call; a null sigmask keeps
    // the thread's signal mask.
    let n = unsafe {
        ppoll(
            fds.as_mut_ptr(),
            fds.len() as u64,
            spec_ptr,
            std::ptr::null(),
        )
    };
    if n < 0 {
        let err = io::Error::last_os_error();
        if err.kind() == io::ErrorKind::Interrupted {
            return Ok(0);
        }
        return Err(err);
    }
    Ok(n as usize)
}

/// Sets the calling thread's timer slack to 1 ns, so timed waits end
/// at their deadline. Best effort: a failure leaves the default slack,
/// which the reported generator lateness then shows.
pub fn tighten_timer_slack() {
    const PR_SET_TIMERSLACK: i32 = 29;
    // SAFETY: PR_SET_TIMERSLACK takes one integer argument and touches
    // only the calling thread's scheduling state.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0);
    }
}

/// Returns freed heap pages to the kernel.
pub fn trim_heap() {
    // SAFETY: glibc's malloc_trim only walks the allocator's own arenas.
    unsafe {
        malloc_trim(0);
    }
}

/// Resident set size of this process, in MiB.
pub fn rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmRSS:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
