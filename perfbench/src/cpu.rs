//! CPU time as the guest kernel accounts it. On a virtual machine the
//! hypervisor can take a busy vCPU away for a while (steal time); wall
//! clocks count that, CPU clocks do not. On the 2-vCPU VM the figures
//! were taken on, steal took 18–34% of a batch run's wall time and
//! varied over minutes, so wall-clock throughput moved by up to 30%
//! between runs of the same code while CPU time moved by a few percent.

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU seconds used so far by every thread of this process, exited
/// threads included.
pub fn process_s() -> f64 {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec` for the
    // duration of the call; the kernel writes exactly one.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc == 0 {
        ts.sec as f64 + ts.nsec as f64 * 1e-9
    } else {
        f64::NAN
    }
}

/// CPU seconds used so far by live thread `tid` of this process
/// (`sum_exec_runtime` from its schedstat); `None` once it has exited.
pub fn thread_s(tid: i32) -> Option<f64> {
    let text = std::fs::read_to_string(format!("/proc/self/task/{tid}/schedstat")).ok()?;
    let ns: f64 = text.split_whitespace().next()?.parse().ok()?;
    Some(ns * 1e-9)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clocks_advance_with_work() {
        let (p0, t0) = (process_s(), thread_s(0));
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(process_s() > p0);
        // Thread 0 is no thread: its schedstat does not exist.
        assert_eq!(t0, None);
        let me = std::fs::read_link("/proc/thread-self").unwrap();
        let tid: i32 = me.file_name().unwrap().to_str().unwrap().parse().unwrap();
        assert!(thread_s(tid).unwrap() > 0.0);
    }
}
