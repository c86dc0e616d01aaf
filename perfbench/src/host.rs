//! Host and build record, plus the process counters the end-to-end
//! metrics read from `/proc/self`.

use scc_telemetry::Json;
use std::path::Path;

/// User + system CPU seconds of the whole process so far, every thread
/// included (exited ones too), at nanosecond resolution.
pub fn cpu_seconds() -> Option<f64> {
    cpu_clock(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU seconds of the calling thread. Time the thread spent runnable but
/// descheduled does not count, so short set-up steps read the same on a
/// busy host.
pub fn thread_cpu_seconds() -> Option<f64> {
    cpu_clock(CLOCK_THREAD_CPUTIME_ID)
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn cpu_clock(clock: i32) -> Option<f64> {
    /// `struct timespec` on 64-bit Linux.
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` that outlives the
    // call, and clock_gettime writes nothing but that struct.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    (rc == 0).then_some(ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9)
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn cpu_clock(_clock: i32) -> Option<f64> {
    None
}

/// Peak resident set size of the process (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The commit of the checkout the benchmark runs in, read from `.git`
/// without spawning git; `"unknown"` outside a git work tree.
pub fn git_commit(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (id, name) = l.split_once(' ')?;
                (name == reference).then(|| id.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Everything needed to tell whether two outputs are comparable: host,
/// compiler, build profile and features, resolved kernel choices, commit
/// and workload seed.
pub fn record(workload: &str, seed: u64, trace: bool) -> Json {
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    let tuning = scc_core::NativeTuning::default();
    Json::obj()
        .field("workload", Json::str(workload))
        .field("seed", Json::U64(seed))
        .field("trace", Json::Bool(trace))
        .field("host_cpus", Json::U64(cpus as u64))
        .field("rustc", Json::str(env!("PERFBENCH_RUSTC")))
        .field("profile", Json::str(env!("PERFBENCH_PROFILE")))
        .field("feature_simd", Json::Bool(cfg!(feature = "simd")))
        .field("kernel_backend", Json::str(tuning.kernel.resolve().name()))
        .field("fuse", Json::Bool(tuning.fuse.enabled()))
        .field("git_commit", Json::str(git_commit(Path::new("."))))
}
