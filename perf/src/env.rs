//! What the benchmark reads about the machine it runs on: process CPU
//! time, peak memory from `/proc/self`, and the environment block
//! printed above every report.

use std::path::Path;
use std::process::Command;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// Linux's id of the clock that counts this process's CPU time.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User + system CPU time of this process (all threads, ended ones
/// included), µs. `/proc/self/stat` holds the same sum in 10 ms ticks,
/// which is a twentieth of a short trial's run phase; the clock behind
/// it counts nanoseconds.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn process_cpu_us() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux, checked by the cfg above), and
    // clock_gettime writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID)");
    ts.tv_sec as u64 * 1_000_000 + ts.tv_nsec as u64 / 1_000
}

/// Restarts the peak the kernel keeps in `VmHWM` at the current
/// resident size, so each trial reports its own peak. Where the kernel
/// refuses, `VmHWM` stays the peak since the process started.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// Filesystem type of the mount that holds `path` (longest mount-point
/// prefix in `/proc/mounts`).
pub fn fs_type(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_dev, at, fs) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(at).then(|| (at.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

fn first_line(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// The environment block. `wal_dir` is where the disk workloads keep
/// their logs.
pub fn block(wal_dir: &Path, seed: u64, what: &str) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let fs = fs_type(wal_dir);
    let mut out = format!(
        "# environment\n\
         #   nproc            {nproc}\n\
         #   kernel           {}\n\
         #   rustc            {}\n\
         #   git commit       {}\n\
         #   wal dir          {} ({fs})\n\
         #   seed             {seed}\n\
         #   {what}\n\
         #   latencies are this sandbox's (page cache, virtual disk), not a device's\n",
        first_line("uname", &["-sr"]),
        first_line("rustc", &["--version"]),
        first_line("git", &["rev-parse", "--short", "HEAD"]),
        wal_dir.display(),
    );
    if matches!(fs.as_str(), "tmpfs" | "ramfs") {
        out.push_str(
            "#   WARNING: the wal dir is memory-backed, so fdatasync is free and the disk\n\
             #   workloads measure the same thing as grouped-mem\n",
        );
    }
    out
}
