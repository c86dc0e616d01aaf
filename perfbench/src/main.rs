//! Benchmark entry point.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload film-native --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Prints a short report, then as its last line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. Writes the
//! full report (host record, raw samples, failed checks) and, for traced
//! runs, a Chrome trace under `.perfbench/`. Exits 1 when an output check
//! fails.

use perfbench::{host, metrics, spans, stats, Opts, Outcome};
use scc_telemetry::Json;
use std::path::Path;
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <film-native|paper-sim|serve-mixed> \
--seed <n> --seconds <s> --trace <0|1>";

/// Longest accepted `--seconds`.
const MAX_SECONDS: f64 = 86_400.0;

/// Where reports and Chrome traces go, relative to the working directory.
const OUT_DIR: &str = ".perfbench";

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Opts, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {value:?} is not {what}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("a seed"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("a duration"))?;
                if !(0.0..=MAX_SECONDS).contains(&s) {
                    return Err(bad("a duration of at most a day"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Opts {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        smoke: false,
    })
}

fn main() -> ExitCode {
    let opts = match parse(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match perfbench::run(&opts) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let record = host::record(&opts.workload, opts.seed, opts.trace);
    println!("# host {}", record.render_compact());
    let defs = if opts.trace {
        metrics::per_layer()
    } else {
        metrics::end_to_end()
    };
    for line in summary(&defs, &outcome) {
        println!("# {line}");
    }
    for why in &outcome.failures {
        println!("# FAILED {why}");
    }
    if let Err(e) = write_files(&opts, &record, &defs, &outcome) {
        eprintln!("perfbench: cannot write {OUT_DIR}: {e}");
    }
    let result = Json::obj()
        .field("correct", Json::Bool(outcome.correct()))
        .field("attempted", Json::U64(outcome.attempted))
        .field("failed", Json::U64(outcome.failed))
        .field("metrics", metrics::render(&defs, &outcome.metrics));
    println!("{}", result.render_compact());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One line per metric: value, unit, direction, and for host samples the
/// quartiles and sample count.
fn summary(defs: &[metrics::MetricDef], outcome: &Outcome) -> Vec<String> {
    defs.iter()
        .filter_map(|d| {
            let v = outcome.metrics.get(&d.name)?;
            let mut line = format!(
                "{:<34} {:>16.6} {:<6} ({} is better)",
                d.name,
                v,
                d.unit,
                d.better.name()
            );
            if let Some(s) = outcome.samples.get(&d.name) {
                let (q1, q3) = stats::quartiles(s);
                line += &format!(" q1 {q1:.6} q3 {q3:.6} n={}", s.len());
            }
            Some(line)
        })
        .collect()
}

fn write_files(
    opts: &Opts,
    record: &Json,
    defs: &[metrics::MetricDef],
    outcome: &Outcome,
) -> std::io::Result<()> {
    let dir = Path::new(OUT_DIR);
    std::fs::create_dir_all(dir)?;
    let stem = format!("{}-trace{}", opts.workload, if opts.trace { 1 } else { 0 });
    let samples = Json::Obj(
        outcome
            .samples
            .iter()
            .map(|(k, v)| {
                (
                    k.clone(),
                    Json::Arr(v.iter().map(|x| Json::F64(*x)).collect()),
                )
            })
            .collect(),
    );
    let report = Json::obj()
        .field("host", record.clone())
        .field("correct", Json::Bool(outcome.correct()))
        .field("attempted", Json::U64(outcome.attempted))
        .field("failed", Json::U64(outcome.failed))
        .field(
            "failures",
            Json::Arr(outcome.failures.iter().map(Json::str).collect()),
        )
        .field("metrics", metrics::render(defs, &outcome.metrics))
        .field("samples", samples);
    std::fs::write(dir.join(format!("{stem}.report.json")), report.render())?;
    if opts.trace {
        let doc = spans::chrome_document(outcome.trace_events.clone(), record.clone());
        std::fs::write(dir.join(format!("{}.trace.json", opts.workload)), doc)?;
    }
    Ok(())
}
