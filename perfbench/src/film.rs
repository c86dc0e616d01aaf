//! `film-native`: the silent film on real threads — `Backend::Native`,
//! one renderer feeding two pipelines, 400×400, full fidelity, default
//! `NativeTuning`. Render-bound batch work with backpressure through
//! bounded `rcce` channels.

use crate::replay::replay;
use crate::spans::chrome_event;
use crate::{host, measure, stats, timed_setup, window_open, Opts, Outcome};
use scc_core::{
    reference::reference_frames, run_with_scene, Backend, BackendReport, Fidelity, NativeReport,
    Phase, RunConfig, StageKind,
};
use scc_render::{CityConfig, Renderer, Scene};
use scc_telemetry::{names, Json};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Frames per repetition (the first frames of the standard walkthrough).
pub const FRAMES: u64 = 96;

/// The workload's run configuration for `seed`.
pub fn config(seed: u64, smoke: bool) -> RunConfig {
    let (side, frames) = if smoke { (96, 6) } else { (400, FRAMES) };
    RunConfig::builder()
        .pipelines(2)
        .size(side, side)
        .frames(frames)
        .fidelity(Fidelity::Full)
        .seed(seed)
        .build()
        .expect("film-native config is valid")
}

/// One native run: host wall and CPU seconds, and the delivered frames'
/// checksums.
struct Rep {
    wall: f64,
    cpu: f64,
    checksums: Vec<u64>,
    report: NativeReport,
}

fn run_once(cfg: &RunConfig, scene: &Arc<Scene>) -> Rep {
    let (out, wall, cpu) = measure(|| run_with_scene(cfg, Backend::Native, Arc::clone(scene)));
    let BackendReport::Native(mut report) = out.report else {
        unreachable!("the native backend returns a native report")
    };
    let checksums = report
        .frames
        .iter()
        .map(|f| crate::checksum(f.as_bytes()))
        .collect();
    // Checksums are all the checks need; free the pixels now.
    report.frames = Vec::new();
    Rep {
        wall,
        cpu,
        checksums,
        report,
    }
}

pub fn run(opts: &Opts) -> Outcome {
    let cfg = config(opts.seed, opts.smoke);
    let mut out = Outcome::default();
    let (setup_s, scene) = timed_setup(|| {
        let scene = Arc::new(Scene::city(CityConfig::default()));
        let renderer = Renderer::new(Arc::clone(&scene));
        cfg.validate().expect("valid config");
        std::hint::black_box(renderer.octree());
        scene
    });
    // Warm-up: thread start-up, allocator and page faults before timing.
    let mut warm = cfg.clone();
    warm.frames = 2;
    let _ = run_once(&warm, &scene);

    let frames = cfg.frames;
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let start = Instant::now();
    loop {
        untraced.push(run_once(&cfg, &scene));
        if opts.trace {
            let mut tcfg = cfg.clone();
            tcfg.trace = true;
            tcfg.telemetry = true;
            traced.push(run_once(&tcfg, &scene));
        }
        if !window_open(start, opts.seconds) {
            break;
        }
    }
    let peak_rss = host::peak_rss_mb();

    // ---- output checks (outside the timed region) ----------------------
    let reference: Vec<u64> = reference_frames(&cfg, Arc::clone(&scene))
        .iter()
        .map(|f| crate::checksum(f.as_bytes()))
        .collect();
    for (k, rep) in untraced.iter().chain(&traced).enumerate() {
        out.attempted += frames;
        let bad = (0..frames as usize)
            .filter(|&i| rep.checksums.get(i) != reference.get(i))
            .count() as u64;
        if bad > 0 {
            out.fail(
                bad,
                format!("run {k}: {bad} frames missing or differ from the reference"),
            );
        }
    }

    if opts.trace {
        let overhead = stats::median(&traced.iter().map(|r| r.wall).collect::<Vec<_>>())
            / stats::median(&untraced.iter().map(|r| r.wall).collect::<Vec<_>>())
            - 1.0;
        out.set("telemetry.overhead_pct", overhead * 100.0);
        let last = traced.last().expect("one traced run");
        native_layers(&last.report, &mut out);
        let r = replay(&cfg, Arc::clone(&scene));
        out.attempted += frames;
        if r.checksums != reference {
            out.fail(frames, "replay: frames differ from the reference".into());
        }
        r.record(&mut out);
        out.trace_events = r.log.chrome_events();
        out.trace_events.extend(native_events(&last.report));
    } else {
        out.set("setup_s", setup_s);
        out.set_median(
            "host_frames_per_s",
            untraced.iter().map(|r| frames as f64 / r.wall).collect(),
        );
        out.set_median(
            "host_cpu_ms_per_frame",
            untraced
                .iter()
                .map(|r| r.cpu * 1e3 / frames as f64)
                .collect(),
        );
        out.set("peak_rss_mb", peak_rss.unwrap_or(f64::NAN));
        out.set(
            "delivered_share",
            (out.attempted - out.failed) as f64 / out.attempted as f64,
        );
    }
    out
}

/// The traced run's per-stage phase totals, frame latency, pool reuse and
/// span accounting.
fn native_layers(report: &NativeReport, out: &mut Outcome) {
    let frames = report.host.frames;
    let Some(log) = report.trace.as_ref() else {
        out.fail(frames, "traced native run returned no trace".into());
        return;
    };
    let stages = [
        StageKind::Render,
        StageKind::Sepia,
        StageKind::Blur,
        StageKind::Scratch,
        StageKind::Flicker,
        StageKind::Swap,
        StageKind::Transfer,
    ];
    for kind in stages {
        for phase in [Phase::Compute, Phase::Send, Phase::Wait] {
            let secs = log.phase_total(kind, phase).as_secs_f64();
            out.set(&format!("native.{}.{}_s", kind.name(), phase.name()), secs);
        }
    }

    // Frame latency: render start to assembled frame.
    let mut first: BTreeMap<u64, u64> = BTreeMap::new();
    let mut last: BTreeMap<u64, u64> = BTreeMap::new();
    for e in log.events() {
        if e.kind == StageKind::Render {
            let t = first.entry(e.frame).or_insert(u64::MAX);
            *t = (*t).min(e.t0.as_ps());
        }
        if e.kind == StageKind::Transfer && e.phase == Phase::Compute {
            let t = last.entry(e.frame).or_insert(0);
            *t = (*t).max(e.t1.as_ps());
        }
    }
    let latencies: Vec<f64> = last
        .iter()
        .filter_map(|(f, &t1)| first.get(f).map(|&t0| (t1 - t0) as f64 / 1e9))
        .collect();
    out.set(
        "native.frame_latency_p50_ms",
        stats::percentile(&latencies, 0.50),
    );
    out.set(
        "native.frame_latency_p95_ms",
        stats::percentile(&latencies, 0.95),
    );

    let counter = |name: &str| {
        report
            .telemetry
            .as_ref()
            .and_then(|s| s.counter(name, &[]))
            .map(|c| c.value)
    };
    match (
        counter(names::POOL_RECYCLED_TOTAL),
        counter(names::POOL_FRESH_TOTAL),
    ) {
        (Some(recycled), Some(fresh)) => out.set(
            "native.pool_reuse_ratio",
            recycled as f64 / (recycled + fresh).max(1) as f64,
        ),
        _ => out.fail(frames, "traced native run exported no pool counters".into()),
    }

    // Layer accounting: per stage thread, phase spans + unattributed time
    // equal the wall, with spans that never overlap.
    let wall_ps = report.wall.as_nanos() as u64 * 1_000;
    let mut by_core: BTreeMap<u8, Vec<(u64, u64)>> = BTreeMap::new();
    for e in log.events() {
        by_core
            .entry(e.core)
            .or_default()
            .push((e.t0.as_ps(), e.t1.as_ps()));
    }
    let mut worst = 0.0f64;
    for (core, mut spans) in by_core {
        spans.sort_unstable();
        let overlaps = spans.windows(2).filter(|w| w[1].0 < w[0].1).count();
        let covered: u64 = spans.iter().map(|(a, b)| b - a).sum();
        if overlaps > 0 || covered > wall_ps {
            out.fail(
                frames,
                format!("native accounting: thread {core} spans overlap or exceed the wall"),
            );
        }
        let share = wall_ps.saturating_sub(covered) as f64 / wall_ps as f64;
        worst = worst.max(share);
    }
    out.set("native.unattributed_share", worst);
}

/// The native run's own phase spans as Chrome events (`pid` 2, one row per
/// stage thread).
fn native_events(report: &NativeReport) -> Vec<Json> {
    let Some(log) = report.trace.as_ref() else {
        return Vec::new();
    };
    log.events()
        .iter()
        .map(|e| {
            let name = format!("{}/{}", e.kind.name(), e.phase.name());
            let args = Json::obj().field("id", Json::U64(e.frame)).field(
                "pipeline",
                e.pipeline.map_or(Json::Null, |p| Json::U64(u64::from(p))),
            );
            chrome_event(
                &name,
                "native",
                e.t0.as_ps() / 1_000,
                e.t1.as_ps() / 1_000,
                2,
                u64::from(e.core),
                args,
            )
        })
        .collect()
}
