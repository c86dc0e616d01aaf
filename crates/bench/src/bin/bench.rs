//! Wall-clock benchmark runner: measures host-native pipeline throughput
//! and writes `BENCH_native_pipeline.json` so every PR has a perf
//! trajectory to compare against. The `recovery` mode instead sweeps the
//! supervised fail-stop scenario (kill time × arrangement, virtual time)
//! and writes `BENCH_recovery.json`.
//!
//! Usage:
//!   bench [--smoke] [--out PATH] [--frames N] [--size WxH]
//!         [--pipelines P]
//!   bench recovery [--smoke] [--out PATH] [--frames N] [--size WxH]
//!                  [--pipelines P] [--kills 10,50,150]
//!   bench autoplace [--smoke] [--out PATH] [--frames N] [--size WxH]
//!                   [--pipelines P]
//!   bench kernels [--smoke] [--out PATH] [--frames N] [--size WxH]
//!                 [--threads 1,2,4]
//!   bench tasks [--smoke] [--out PATH] [--frames N] [--size WxH]
//!               [--pipelines P]
//!   bench serving [--smoke] [--out PATH] [--size WxH] [--pipelines P]
//!                 [--sessions 8,16,32]
//!   bench dvfs [--smoke] [--out PATH] [--frames N] [--size WxH]
//!
//! `--smoke` shrinks everything to a seconds-long configuration for CI;
//! the defaults measure the paper's 400×400 silent-film geometry.
//! `autoplace` sweeps the stage-graph scheduler's placement against the
//! three fixed arrangements in virtual time and writes
//! `BENCH_autoplace.json`. `kernels` isolates the filter kernels
//! (scalar/simd × fused/unfused × threads, no render or transport) and
//! writes `BENCH_kernels.json`. An unknown mode word prints usage and
//! exits 2.

use scc_bench::autoplace::measure_autoplace;
use scc_bench::dvfs::measure_dvfs;
use scc_bench::kernels::measure_kernels;
use scc_bench::native_throughput::measure_native_throughput;
use scc_bench::recovery::measure_recovery;
use scc_bench::serving::measure_serving;
use scc_bench::standard_scene;
use scc_bench::tasks::measure_tasks;
use scc_core::{Fidelity, RunConfig};

/// Every mode: the word that selects it, the JSON file it writes unless
/// `--out` says otherwise, its default pipeline count, and the
/// measurement. The first, native throughput, has no word: it runs when
/// the first argument is absent or a flag.
type Mode = (&'static str, &'static str, u32, fn(&Opts) -> Outcome);
const MODES: [Mode; 7] = [
    ("", "BENCH_native_pipeline.json", 2, native),
    ("recovery", "BENCH_recovery.json", 3, recovery),
    ("autoplace", "BENCH_autoplace.json", 2, autoplace),
    ("kernels", "BENCH_kernels.json", 2, kernels),
    ("tasks", "BENCH_tasks.json", 2, tasks),
    ("serving", "BENCH_serving.json", 2, serving),
    ("dvfs", "BENCH_dvfs.json", 2, dvfs),
];

const USAGE: &str = "usage: bench [recovery|autoplace|kernels|tasks|serving|dvfs] \
                     [--smoke] [--out PATH] [--frames N] [--size WxH] [--pipelines P] \
                     [--threads a,b (kernels)] [--kills a,b (recovery)] \
                     [--sessions a,b (serving)]";

/// The parsed command line every mode reads.
struct Opts {
    args: Vec<String>,
    smoke: bool,
    width: u32,
    height: u32,
    frames: u64,
    pipelines: u32,
    threads: Vec<u32>,
}

impl Opts {
    fn smoke_tag(&self) -> &'static str {
        if self.smoke {
            " (smoke)"
        } else {
            ""
        }
    }

    /// The film configuration the pipeline modes measure.
    fn cfg(&self) -> RunConfig {
        RunConfig::builder()
            .pipelines(self.pipelines)
            .size(self.width, self.height)
            .frames(self.frames)
            .seed(0x51CC_F11F)
            .fidelity(Fidelity::Full)
            .build()
            .expect("bench configuration")
    }
}

/// What a mode hands back: its text table, its JSON, and the message of
/// the first gate it failed.
struct Outcome {
    text: String,
    json: String,
    fatal: Option<String>,
}

impl Outcome {
    /// `gates` pairs each gate's failure condition with the message
    /// printed when it holds; the first failure wins.
    fn new(text: String, json: String, gates: Vec<(bool, String)>) -> Outcome {
        let fatal = gates
            .into_iter()
            .find(|(failed, _)| *failed)
            .map(|(_, msg)| msg);
        Outcome { text, json, fatal }
    }
}

fn parse_flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

/// A comma-separated list flag, or `default` when absent.
fn parse_list<T: std::str::FromStr>(args: &[String], flag: &str, default: Vec<T>) -> Vec<T> {
    parse_flag(args, flag)
        .map(|v| {
            v.split(',')
                .map(|t| t.trim().parse().unwrap_or_else(|_| panic!("{flag} a,b,c")))
                .collect()
        })
        .unwrap_or(default)
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let (_, default_out, default_pipelines, run) =
        match args.first().filter(|a| !a.starts_with('-')) {
            None => MODES[0],
            Some(word) => match MODES[1..].iter().find(|m| m.0 == word) {
                Some(&mode) => {
                    args.remove(0);
                    mode
                }
                None => {
                    eprintln!("unknown bench mode '{word}'\n{USAGE}");
                    std::process::exit(2);
                }
            },
        };
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = parse_flag(&args, "--out").unwrap_or_else(|| default_out.into());

    let (mut width, mut height) = if smoke { (64, 64) } else { (400, 400) };
    if let Some(size) = parse_flag(&args, "--size") {
        let (w, h) = size.split_once('x').expect("--size WxH");
        width = w.parse().expect("width");
        height = h.parse().expect("height");
    }
    let frames: u64 = parse_flag(&args, "--frames")
        .map(|v| v.parse().expect("--frames N"))
        .unwrap_or(if smoke { 4 } else { 48 });
    let pipelines: u32 = parse_flag(&args, "--pipelines")
        .map(|v| v.parse().expect("--pipelines P"))
        .unwrap_or(default_pipelines);
    let default_threads = if smoke { vec![1, 2] } else { vec![1, 2, 4] };
    let threads = parse_list(&args, "--threads", default_threads);

    let outcome = run(&Opts {
        args,
        smoke,
        width,
        height,
        frames,
        pipelines,
        threads,
    });
    print!("{}", outcome.text);
    std::fs::write(&out_path, outcome.json).expect("write bench json");
    println!("wrote {out_path}");
    if let Some(msg) = outcome.fatal {
        eprintln!("FATAL: {msg}");
        std::process::exit(1);
    }
}

fn native(o: &Opts) -> Outcome {
    eprintln!(
        "measuring native throughput: {}x{} f={} p={}{}",
        o.width,
        o.height,
        o.frames,
        o.pipelines,
        o.smoke_tag(),
    );
    let report = measure_native_throughput(&o.cfg(), &standard_scene());
    Outcome::new(
        report.render_text(),
        report.to_json(),
        vec![(
            !report.output_consistent(),
            "native film differs from the sequential reference".into(),
        )],
    )
}

fn kernels(o: &Opts) -> Outcome {
    eprintln!(
        "measuring filter kernels: {}x{} f={} threads={:?}{}",
        o.width,
        o.height,
        o.frames,
        o.threads,
        o.smoke_tag(),
    );
    let report = measure_kernels(o.width, o.height, o.frames, 0x51CC_F11F, &o.threads);
    Outcome::new(
        report.render_text(),
        report.to_json(),
        vec![(
            !report.output_consistent,
            "a kernel variant changed pixels".into(),
        )],
    )
}

fn serving(o: &Opts) -> Outcome {
    let default = if o.smoke {
        vec![4, 8]
    } else {
        vec![16, 32, 64]
    };
    let session_counts: Vec<u32> = parse_list(&o.args, "--sessions", default);
    eprintln!(
        "measuring serving layer: {}x{} p={} sessions={session_counts:?}{}",
        o.width,
        o.height,
        o.pipelines,
        o.smoke_tag(),
    );
    let report = measure_serving(&o.cfg(), &standard_scene(), &session_counts);
    Outcome::new(
        report.render_text(),
        report.to_json(),
        vec![
            (
                !report.cache_transparent(),
                "the strip cache changed a pixel".into(),
            ),
            (
                !report.cache_speeds_up(),
                "sessions/s not strictly higher with the cache on".into(),
            ),
            (
                !report.ledger_balanced(),
                "the session ledger does not balance (silent shed)".into(),
            ),
        ],
    )
}

fn dvfs(o: &Opts) -> Outcome {
    eprintln!(
        "measuring dvfs power plane: film {}x{} f={} + wavefront{}",
        o.width,
        o.height,
        o.frames,
        o.smoke_tag(),
    );
    let report = measure_dvfs(&o.cfg(), &standard_scene());
    Outcome::new(
        report.render_text(),
        report.to_json(),
        vec![
            (
                !report.film_output_consistent,
                "a power plan changed a film pixel".into(),
            ),
            (
                !report.wavefront_digest_consistent,
                "a power plan or backend drifted the wavefront digest".into(),
            ),
            (
                !report.decision_parity,
                "governed decision traces split between sim and des".into(),
            ),
            (
                !report.governed_not_dominated,
                "the governor lost to every static split on time and energy".into(),
            ),
        ],
    )
}

fn tasks(o: &Opts) -> Outcome {
    eprintln!(
        "measuring task runtime vs static pipeline: {}x{} f={} p={}{}",
        o.width,
        o.height,
        o.frames,
        o.pipelines,
        o.smoke_tag(),
    );
    let report = measure_tasks(&o.cfg(), &standard_scene());
    Outcome::new(
        report.render_text(),
        report.to_json(),
        vec![
            (
                !report.output_consistent(),
                "the task runtime changed a pixel".into(),
            ),
            (
                !report.no_lost_tasks(),
                "the task ledger does not balance (lost tasks)".into(),
            ),
            (
                !report.spread_reduced(),
                "idle-quartile spread not reduced vs static".into(),
            ),
        ],
    )
}

fn autoplace(o: &Opts) -> Outcome {
    eprintln!(
        "measuring auto-placement vs fixed arrangements: {}x{} f={} p={}{}",
        o.width,
        o.height,
        o.frames,
        o.pipelines,
        o.smoke_tag(),
    );
    let report = measure_autoplace(&o.cfg(), &standard_scene());
    Outcome::new(
        report.render_text(),
        report.to_json(),
        vec![
            (
                !report.output_consistent,
                "the scheduler placement changed a pixel".into(),
            ),
            (
                report.speedup_vs_best_fixed < 0.99,
                format!(
                    "auto placement lost to a fixed arrangement ({:.3}x)",
                    report.speedup_vs_best_fixed
                ),
            ),
        ],
    )
}

fn recovery(o: &Opts) -> Outcome {
    let default = if o.smoke {
        vec![1, 5]
    } else {
        vec![10, 50, 150]
    };
    let kills: Vec<u64> = parse_list(&o.args, "--kills", default);
    eprintln!(
        "measuring supervised recovery: {}x{} f={} p={} kills={kills:?} ms{}",
        o.width,
        o.height,
        o.frames,
        o.pipelines,
        o.smoke_tag(),
    );
    let report = measure_recovery(&o.cfg(), &standard_scene(), &kills);
    Outcome::new(
        report.render_text(),
        report.to_json(),
        vec![(
            report.points.iter().any(|p| !p.bit_identical),
            "recovery damaged a frame".into(),
        )],
    )
}
