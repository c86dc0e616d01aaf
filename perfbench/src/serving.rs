//! `serve-mixed`: `scc_serve::serve` with the two-tenant mix of the
//! serving sweep — 96 sessions × 16 frames over a 200-pose span, a
//! 256-strip cache, a pool of 2, full fidelity. Open loop in virtual
//! time: sessions arrive per round whatever the backlog, so some are
//! shed.

use crate::spans::SpanLog;
use crate::{host, measure, stats, timed_setup, window_open, Opts, Outcome};
use scc_bench::serving::sweep_config;
use scc_core::reference::reference_frames;
use scc_core::{Fidelity, RunConfig};
use scc_render::{CityConfig, Renderer, Scene};
use scc_serve::cache::{FNV_OFFSET, FNV_PRIME};
use scc_serve::{generate_sessions, serve, ServeConfig, ServeReport, SessionFilm};
use std::sync::Arc;
use std::time::Instant;

pub const SESSIONS: u32 = 96;
pub const FRAMES_PER_SESSION: u32 = 16;
pub const POSE_SPAN: u64 = 200;
pub const POOL: u32 = 2;
pub const CACHE_STRIPS: u32 = 256;

/// The workload's serving configuration. The seed is the pipeline seed
/// (scratch and flicker randomness, so every frame's pixels); the session
/// mix is the serving sweep's own and stays fixed, so the hit/miss mix
/// the cache sees does not move with the seed.
pub fn config(seed: u64, smoke: bool) -> ServeConfig {
    let side = if smoke { 96 } else { 400 };
    let base = RunConfig::builder()
        .pipelines(2)
        .size(side, side)
        .fidelity(Fidelity::Full)
        .seed(seed)
        .build()
        .expect("serve-mixed pipeline config is valid");
    if smoke {
        let mut cfg = sweep_config(&base, 8, true, 4, POOL, 16);
        cfg.pose_span = 8;
        return cfg;
    }
    let mut cfg = sweep_config(
        &base,
        SESSIONS,
        true,
        FRAMES_PER_SESSION,
        POOL,
        CACHE_STRIPS,
    );
    cfg.pose_span = POSE_SPAN;
    cfg
}

struct Rep {
    wall: f64,
    cpu: f64,
    report: ServeReport,
    /// Completed sessions with their per-frame checksums, in id order.
    films: Vec<SessionFilm>,
    /// Frames the telemetry snapshot counted, when telemetry was on.
    telemetry_frames: Option<u64>,
}

fn run_once(cfg: &ServeConfig, scene: &Arc<Scene>, log: &mut SpanLog, name: &'static str) -> Rep {
    let span = log.open(name, 0, None);
    let (out, wall, cpu) = measure(|| serve(cfg, scene));
    log.close(span);
    let telemetry_frames = out.snapshot.as_ref().and_then(|s| {
        s.counter(scc_telemetry::names::SERVE_FRAMES_TOTAL, &[])
            .map(|c| c.value)
    });
    Rep {
        wall,
        cpu,
        report: out.report,
        films: out.films,
        telemetry_frames,
    }
}

pub fn run(opts: &Opts) -> Outcome {
    let cfg = config(opts.seed, opts.smoke);
    let mut out = Outcome::default();
    let (setup_s, scene) = timed_setup(|| {
        let scene = Arc::new(Scene::city(CityConfig::default()));
        let renderer = Renderer::new(Arc::clone(&scene));
        cfg.validate().expect("valid config");
        std::hint::black_box((renderer.octree(), generate_sessions(&cfg)));
        scene
    });
    let mut log = SpanLog::default();
    let mut traced_cfg = cfg.clone();
    traced_cfg.run.telemetry = true;

    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let start = Instant::now();
    loop {
        untraced.push(run_once(&cfg, &scene, &mut log, "serve.serve"));
        if opts.trace {
            traced.push(run_once(
                &traced_cfg,
                &scene,
                &mut log,
                "serve.serve.telemetry",
            ));
        }
        if !window_open(start, opts.seconds) {
            break;
        }
    }
    let peak_rss = host::peak_rss_mb();

    // ---- output checks (outside the timed region) ----------------------
    // Every served frame must equal the sequential, cache-less reference
    // frame of its pose: the cache may never move a pixel.
    let poses = untraced
        .iter()
        .chain(&traced)
        .flat_map(|r| &r.films)
        .map(|f| f.start_pose + f.checksums.len() as u64)
        .max()
        .unwrap_or(1);
    let mut rcfg = cfg.run.clone();
    rcfg.frames = poses;
    let span = log.open("serve.reference", 0, None);
    let reference: Vec<u64> = reference_frames(&rcfg, Arc::clone(&scene))
        .iter()
        .map(|f| crate::checksum(f.as_bytes()))
        .collect();
    log.close(span);
    let per_session = u64::from(cfg.tenants[0].frames_per_session);
    let film_hash = untraced[0].report.film_hash;
    let mut delivered = 0u64;
    let runs = untraced.iter().map(|r| (r, false));
    for (k, (rep, telemetry)) in runs.chain(traced.iter().map(|r| (r, true))).enumerate() {
        let r = &rep.report;
        out.attempted += r.admitted;
        let mut why = Vec::new();
        if r.completed + r.shed != r.admitted {
            why.push(format!(
                "ledger {} completed + {} shed != {} admitted",
                r.completed, r.shed, r.admitted
            ));
        }
        if r.frames_served != r.completed * per_session || rep.films.len() as u64 != r.completed {
            why.push(format!(
                "{} frames for {} sessions",
                r.frames_served, r.completed
            ));
        }
        let wrong = rep
            .films
            .iter()
            .filter(|f| {
                f.checksums.len() as u64 != per_session
                    || f.checksums
                        .iter()
                        .zip(f.start_pose..)
                        .any(|(c, pose)| Some(c) != reference.get(pose as usize))
            })
            .count();
        if wrong > 0 {
            why.push(format!("{wrong} sessions differ from the reference frames"));
        }
        if fold(&rep.films) != r.film_hash || r.film_hash != film_hash {
            why.push(format!(
                "film hash {:#x} does not match its frames or run 0",
                r.film_hash
            ));
        }
        if telemetry && rep.telemetry_frames != Some(r.frames_served) {
            why.push("telemetry snapshot frame count missing or wrong".into());
        }
        if why.is_empty() {
            delivered += r.completed;
        } else {
            out.fail(r.admitted, format!("run {k}: {}", why.join("; ")));
        }
    }
    if opts.trace {
        let walls = |reps: &[Rep]| stats::median(&reps.iter().map(|r| r.wall).collect::<Vec<_>>());
        out.set(
            "telemetry.overhead_pct",
            (walls(&traced) / walls(&untraced) - 1.0) * 100.0,
        );
        let r = &traced.last().expect("one traced run").report;
        out.set("serve.cache_hit_ratio", r.cache.hit_ratio());
        out.set("serve.cache_evictions", r.cache.evictions as f64);
        out.set("serve.unique_renders", r.unique_renders as f64);
        out.set(
            "serve.renders_per_frame",
            r.unique_renders as f64 / r.frames_served.max(1) as f64,
        );
        out.set("serve.rounds", r.rounds as f64);
        out.set("serve.contended_rounds", r.contended_rounds as f64);
        out.set("serve.shed", r.shed as f64);
        let depth = r
            .per_tenant
            .iter()
            .map(|t| t.max_queue_depth)
            .max()
            .unwrap_or(0);
        out.set("serve.max_queue_depth", depth as f64);
        out.set("sessions_per_s", r.sessions_per_sec);
        out.set("frame_latency_p50_ms", r.latency.p50 * 1e3);
        out.set("frame_latency_p99_ms", r.latency.p99 * 1e3);
        out.trace_events = log.chrome_events();
    } else {
        out.set("setup_s", setup_s);
        out.set_median(
            "host_frames_per_s",
            untraced
                .iter()
                .map(|r| r.report.frames_served as f64 / r.wall)
                .collect(),
        );
        out.set_median(
            "host_cpu_ms_per_frame",
            untraced
                .iter()
                .map(|r| r.cpu * 1e3 / r.report.frames_served as f64)
                .collect(),
        );
        out.set("peak_rss_mb", peak_rss.unwrap_or(f64::NAN));
        out.set("delivered_share", delivered as f64 / out.attempted as f64);
    }
    out
}

/// The serving report's film fingerprint: FNV over every completed
/// session's frame checksums, in session id order.
fn fold(films: &[SessionFilm]) -> u64 {
    films
        .iter()
        .flat_map(|f| &f.checksums)
        .fold(FNV_OFFSET, |h, &c| (h ^ c).wrapping_mul(FNV_PRIME))
}
