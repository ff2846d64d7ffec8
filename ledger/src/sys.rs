//! Process-level meters read from the kernel: CPU time (`getrusage`),
//! peak resident memory (`VmHWM`, reset through `clear_refs`) and bytes
//! written (`wchar`). Linux only, like the service's durability layer.

use std::mem::MaybeUninit;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the ledger reads Linux /proc files and the 64-bit Linux `struct rusage`");

#[repr(C)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs.
#[repr(C)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    _rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// User + system CPU seconds consumed by the whole process so far,
/// every thread included (also the checker's scoped rayon threads,
/// whose usage the kernel folds into the process when they exit).
pub fn cpu_secs() -> f64 {
    let mut ru = MaybeUninit::<Rusage>::zeroed();
    // SAFETY: `Rusage` has the layout of the 64-bit Linux `struct
    // rusage` (checked by the compile_error above), the pointer is
    // valid for writes of that size, and getrusage(2) writes only it.
    let rc = unsafe { getrusage(RUSAGE_SELF, ru.as_mut_ptr()) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    // SAFETY: zero-initialised above and filled in by the kernel; every
    // bit pattern is a valid `Rusage` (plain integers).
    let ru = unsafe { ru.assume_init() };
    let secs = |t: &Timeval| t.tv_sec as f64 + t.tv_usec as f64 * 1e-6;
    secs(&ru.ru_utime) + secs(&ru.ru_stime)
}

fn status_kb(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or_else(|| panic!("{field} missing from /proc/self/status"))
}

/// Reset the peak-RSS watermark to the current RSS, so `VmHWM` covers
/// only what follows (setup garbage is not charged to the timed phase).
pub fn reset_peak_rss() {
    std::fs::write("/proc/self/clear_refs", "5").expect("write /proc/self/clear_refs");
}

/// Peak resident set since the last [`reset_peak_rss`], in MB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:") as f64 / 1024.0
}

/// Bytes this process has passed to `write`-family calls (`wchar` in
/// `/proc/self/io`), whether or not they reached the disk yet.
pub fn wchar() -> u64 {
    let io = std::fs::read_to_string("/proc/self/io").expect("read /proc/self/io");
    io.lines()
        .find_map(|l| l.strip_prefix("wchar:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("wchar missing from /proc/self/io")
}

/// Online CPUs, as the scheduler sees them.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
