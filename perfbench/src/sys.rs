//! Process resource usage: CPU time of all threads, from `getrusage(2)`,
//! and peak resident memory, from `/proc/self/status`, with a per-item
//! restart of the peak.

#[cfg(not(all(target_os = "linux", target_env = "gnu", target_pointer_width = "64")))]
compile_error!("perfbench uses glibc and reads `struct rusage` with the 64-bit Linux layout");

/// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen
/// `long` counters.
#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn malloc_trim(pad: usize) -> i32;
}

const RUSAGE_SELF: i32 = 0;

fn rusage() -> Rusage {
    let mut r = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        rest: [0; 14],
    };
    // SAFETY: `r` is a live, writable `struct rusage` with the kernel's
    // 64-bit Linux layout, and RUSAGE_SELF is a valid `who`.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut r) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    r
}

/// User plus system CPU seconds used so far by every thread of this
/// process, finished threads included.
pub fn cpu_s() -> f64 {
    let r = rusage();
    let tv = |t: [i64; 2]| t[0] as f64 + t[1] as f64 * 1e-6;
    tv(r.utime) + tv(r.stime)
}

/// Peak resident set size of this process since it started or since the
/// last [`reset_peak_rss`], in MiB: the kernel's `VmHWM`. (`ru_maxrss`
/// is no substitute: it never drops below the peak of the process that
/// called `exec`, such as the Python launcher.)
///
/// # Panics
///
/// Panics if `/proc/self/status` cannot be read or has no `VmHWM` line.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse().ok())
        .expect("VmHWM in kB in /proc/self/status");
    kib / 1024.0
}

/// Restarts the peak resident set size from the current one (Linux
/// `clear_refs` value 5), so that the peak of each item is measured on
/// its own. Free heap memory is handed back to the system first;
/// otherwise what an earlier, larger item left cached in the heap
/// would count toward every later peak.
pub fn reset_peak_rss() -> std::io::Result<()> {
    // SAFETY: glibc's `malloc_trim` only returns free heap pages to the
    // kernel; no live allocation is touched.
    unsafe { malloc_trim(0) };
    std::fs::write("/proc/self/clear_refs", "5")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_and_rss_is_positive() {
        let before = cpu_s();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(x);
        assert!(cpu_s() > before);
        assert!(peak_rss_mib() > 0.0);
    }

    #[test]
    fn peak_rss_restarts_after_a_reset() {
        let big = vec![1u8; 64 << 20];
        std::hint::black_box(&big);
        let with_big = peak_rss_mib();
        drop(big);
        reset_peak_rss().expect("clear_refs is writable");
        assert!(peak_rss_mib() < with_big - 32.0);
    }
}
