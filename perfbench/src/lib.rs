//! The repository benchmark: three workloads that drive the program
//! through its public entry points, end-to-end metrics from untraced
//! runs, and per-layer metrics from a separate traced run. See
//! `README.md` in this directory.

pub mod film;
pub mod host;
pub mod metrics;
pub mod papersim;
pub mod replay;
pub mod serving;
pub mod spans;
pub mod stats;

use scc_telemetry::Json;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Workload names, as `--workload` takes them.
pub const WORKLOADS: [&str; 3] = ["film-native", "paper-sim", "serve-mixed"];

/// How many times set-up is repeated; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 21;

/// Pause between set-up repeats. A shared host's CPU speed swings by tens
/// of percent within fractions of a second; spreading the repeats over
/// two seconds makes their median a property of the run, not of one
/// moment.
const SETUP_SPACING: Duration = Duration::from_millis(100);

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    /// Measuring time; a workload runs whole repetitions until it is
    /// spent, and always at least one.
    pub seconds: f64,
    /// `false`: untraced, end-to-end metrics. `true`: the traced run,
    /// per-layer metrics.
    pub trace: bool,
    /// Shrink every workload to test size (self-tests only).
    pub smoke: bool,
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (frames, or sessions on `serve-mixed`).
    pub attempted: u64,
    /// Operations whose output check failed.
    pub failed: u64,
    /// Metric values by registry name.
    pub metrics: BTreeMap<String, f64>,
    /// Raw per-repetition host samples behind the medians.
    pub samples: BTreeMap<String, Vec<f64>>,
    /// One line per failed check.
    pub failures: Vec<String>,
    /// Chrome trace events (traced runs).
    pub trace_events: Vec<Json>,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Record host samples and set the metric to their median.
    pub fn set_median(&mut self, name: &str, samples: Vec<f64>) {
        self.set(name, stats::median(&samples));
        self.samples.insert(name.to_string(), samples);
    }

    /// Note a failed check that spoiled `ops` operations.
    pub fn fail(&mut self, ops: u64, why: String) {
        self.failed += ops;
        self.failures.push(why);
    }

    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Run the workload `opts` names.
pub fn run(opts: &Opts) -> Result<Outcome, String> {
    match opts.workload.as_str() {
        "film-native" => Ok(film::run(opts)),
        "paper-sim" => Ok(papersim::run(opts)),
        "serve-mixed" => Ok(serving::run(opts)),
        other => Err(format!(
            "unknown workload {other:?}; expected one of {}",
            WORKLOADS.join(", ")
        )),
    }
}

/// Median on-CPU seconds of `SETUP_REPEATS` calls of `f`, and the last
/// value. Set-up is single-threaded; its CPU time is its duration without
/// the preemptions a shared host adds.
pub fn timed_setup<T>(mut f: impl FnMut() -> T) -> (f64, T) {
    let mut secs = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for i in 0..SETUP_REPEATS {
        if i > 0 {
            std::thread::sleep(SETUP_SPACING);
        }
        let t0 = Instant::now();
        let c0 = host::thread_cpu_seconds();
        let v = std::hint::black_box(f());
        let wall = t0.elapsed().as_secs_f64();
        secs.push(match (c0, host::thread_cpu_seconds()) {
            (Some(a), Some(b)) => b - a,
            _ => wall,
        });
        last = Some(v);
    }
    (stats::median(&secs), last.expect("at least one set-up"))
}

/// One measured repetition: wall and process CPU seconds around `f`.
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, f64, f64) {
    let cpu0 = host::cpu_seconds().unwrap_or(0.0);
    let t0 = Instant::now();
    let v = std::hint::black_box(f());
    let wall = t0.elapsed().as_secs_f64();
    let cpu = host::cpu_seconds().unwrap_or(0.0) - cpu0;
    (v, wall, cpu)
}

/// True while a measuring window that started at `start` has time left.
pub fn window_open(start: Instant, seconds: f64) -> bool {
    start.elapsed() < Duration::from_secs_f64(seconds.max(0.0))
}

/// FNV-1a over a frame's bytes: the checksum every output check compares.
pub fn checksum(bytes: &[u8]) -> u64 {
    scc_serve::fnv1a(bytes)
}
