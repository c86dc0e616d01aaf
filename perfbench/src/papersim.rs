//! `paper-sim`: the paper on the simulator — `Backend::Sim`,
//! `Fidelity::TimingOnly`, 400×400, the full 400-frame walkthrough,
//! ordered arrangement. Twelve static Table I points (three renderer
//! modes × p ∈ {1, 2, 4, 7}) and three governed runs (each mode at p = 2
//! under the default closed-loop DVFS governor).

use crate::metrics::{MODE_NAMES, PIPELINES};
use crate::spans::SpanLog;
use crate::{host, measure, timed_setup, window_open, Opts, Outcome};
use scc_core::{
    run_with_scene, Backend, BackendReport, GovernorAction, GovernorTuning, PowerConfig,
    RendererMode, RunConfig, RunOutcome, StageKind,
};
use scc_render::{CityConfig, Renderer, Scene};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

/// Renderer modes in Table I row order (names in [`MODE_NAMES`]).
pub const MODES: [RendererMode; 3] = [
    RendererMode::SingleRenderer,
    RendererMode::PerPipelineRenderer,
    RendererMode::McpcRenderer,
];

/// Table I of the paper, the `paper (ordered)` rows, at p = 1, 2, 4, 7
/// (walkthrough seconds; rows in [`MODES`] order).
pub const PAPER_TABLE1: [[f64; 4]; 3] = [
    [208.0, 108.0, 103.0, 101.0],
    [236.0, 118.0, 68.0, 58.0],
    [231.0, 112.0, 54.0, 54.0],
];

/// One simulated run of the workload.
#[derive(Debug, Clone)]
pub struct Point {
    /// Index into [`MODES`].
    pub mode: usize,
    pub pipelines: u32,
    pub governed: bool,
    pub cfg: RunConfig,
}

impl Point {
    pub fn label(&self) -> String {
        let kind = if self.governed { "governed" } else { "static" };
        format!("{}.p{}.{kind}", MODE_NAMES[self.mode], self.pipelines)
    }
}

/// The twelve static points, then the three governed ones.
pub fn points(seed: u64, smoke: bool) -> Vec<Point> {
    let base = |mode: RendererMode, p: u32| {
        let b = RunConfig::builder().renderer(mode).pipelines(p).seed(seed);
        if smoke {
            b.frames(16)
        } else {
            b
        }
    };
    let mut pts = Vec::new();
    for (m, &mode) in MODES.iter().enumerate() {
        for p in PIPELINES {
            pts.push(Point {
                mode: m,
                pipelines: p,
                governed: false,
                cfg: base(mode, p)
                    .build()
                    .expect("static Table I config is valid"),
            });
        }
    }
    for (m, &mode) in MODES.iter().enumerate() {
        pts.push(Point {
            mode: m,
            pipelines: 2,
            governed: true,
            cfg: base(mode, 2)
                .power(PowerConfig::Governed(GovernorTuning::default()))
                .build()
                .expect("governed config is valid"),
        });
    }
    pts
}

/// What the benchmark keeps of one simulated run.
#[derive(Debug, Clone)]
pub struct Run {
    pub host_s: f64,
    pub cpu_s: f64,
    pub walkthrough_s: f64,
    pub frames: u64,
    pub energy_j: f64,
    pub mem_wait_s: f64,
    pub mem_bytes: u64,
    pub mem_imbalance: f64,
    pub noc_bytes: u64,
    pub noc_wait_s: f64,
    pub hostlink_bytes: u64,
    pub raises: u64,
    pub throttles: u64,
    pub cap_blocked: u64,
    pub telemetry_frames: Option<u64>,
}

fn summarize(out: &RunOutcome, host_s: f64, cpu_s: f64) -> Run {
    let BackendReport::Sim(r) = &out.report else {
        unreachable!("the sim backend returns a walkthrough report")
    };
    let count = |f: fn(&GovernorAction) -> bool| {
        r.dvfs_decisions.iter().filter(|d| f(&d.action)).count() as u64
    };
    Run {
        host_s,
        cpu_s,
        walkthrough_s: out.total_secs,
        frames: out.frames,
        energy_j: r.scc_energy_joules,
        mem_wait_s: r.platform.mem_wait_secs,
        mem_bytes: r.platform.mem_bytes,
        mem_imbalance: r.platform.mem_imbalance,
        noc_bytes: r.platform.noc_bytes,
        noc_wait_s: r.platform.noc_wait_secs,
        hostlink_bytes: r.platform.host_link.bytes,
        raises: count(|a| matches!(a, GovernorAction::Raise { .. })),
        throttles: count(|a| matches!(a, GovernorAction::Throttle { .. })),
        cap_blocked: count(|a| matches!(a, GovernorAction::CapBlocked { .. })),
        telemetry_frames: out.telemetry.as_ref().and_then(|s| {
            s.counter(scc_telemetry::names::FRAMES_TOTAL, &[])
                .map(|c| c.value)
        }),
    }
}

/// Run every point once, in order, through the public facade.
pub fn pass(points: &[Point], scene: &Arc<Scene>, telemetry: bool, log: &mut SpanLog) -> Vec<Run> {
    let name = if telemetry {
        "sim.run.telemetry"
    } else {
        "sim.run"
    };
    points
        .iter()
        .enumerate()
        .map(|(i, pt)| {
            let mut cfg = pt.cfg.clone();
            cfg.telemetry = telemetry;
            let span = log.open(name, i as u64, None);
            let (out, host_s, cpu_s) =
                measure(|| run_with_scene(&cfg, Backend::Sim, Arc::clone(scene)));
            log.close(span);
            summarize(&out, host_s, cpu_s)
        })
        .collect()
}

/// Mean absolute deviation, in percent, of the static points from the
/// paper's Table I.
pub fn table1_error_pct(points: &[Point], runs: &[Run]) -> f64 {
    let devs: Vec<f64> = points
        .iter()
        .zip(runs)
        .filter(|(pt, _)| !pt.governed)
        .map(|(pt, run)| {
            let col = PIPELINES
                .iter()
                .position(|&p| p == pt.pipelines)
                .expect("Table I column");
            let paper = PAPER_TABLE1[pt.mode][col];
            (run.walkthrough_s - paper).abs() / paper * 100.0
        })
        .collect();
    devs.iter().sum::<f64>() / devs.len() as f64
}

pub fn run(opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let (setup_s, (points, scene)) = timed_setup(|| {
        let scene = Arc::new(Scene::city(CityConfig::default()));
        let renderer = Renderer::new(Arc::clone(&scene));
        std::hint::black_box(renderer.octree());
        let pts = points(opts.seed, opts.smoke);
        for p in &pts {
            p.cfg.validate().expect("valid config");
        }
        (pts, scene)
    });
    let requested: u64 = points.iter().map(|p| p.cfg.frames).sum();
    let mut log = SpanLog::default();

    let mut passes = Vec::new();
    let mut telemetry_passes = Vec::new();
    let start = Instant::now();
    loop {
        passes.push(pass(&points, &scene, false, &mut log));
        if opts.trace {
            telemetry_passes.push(pass(&points, &scene, true, &mut log));
        }
        if !window_open(start, opts.seconds) {
            break;
        }
    }
    let peak_rss = host::peak_rss_mb();

    // ---- output checks (outside the timed region) ----------------------
    let reference = &passes[0];
    for (k, runs) in passes.iter().chain(&telemetry_passes).enumerate() {
        out.attempted += requested;
        for (pt, run) in points.iter().zip(runs) {
            if run.frames != pt.cfg.frames {
                out.fail(
                    pt.cfg.frames.saturating_sub(run.frames),
                    format!(
                        "pass {k} {}: {} of {} frames",
                        pt.label(),
                        run.frames,
                        pt.cfg.frames
                    ),
                );
            }
        }
        let same = runs
            .iter()
            .zip(reference)
            .all(|(a, b)| a.walkthrough_s.to_bits() == b.walkthrough_s.to_bits());
        if !same {
            out.fail(
                requested,
                format!("pass {k}: virtual time differs from pass 0"),
            );
        }
    }
    for runs in &telemetry_passes {
        for (pt, run) in points.iter().zip(runs) {
            if run.telemetry_frames != Some(run.frames) {
                out.fail(
                    pt.cfg.frames,
                    format!("{}: telemetry frame count missing", pt.label()),
                );
            }
        }
    }
    verify_pass(&points, &scene, reference, &mut out);

    if opts.trace {
        // Virtual-time numbers come from the telemetry pass; the check
        // above proved its walkthrough times equal to the untraced pass's.
        let traced = telemetry_passes.last().expect("one telemetry pass");
        let statics = || points.iter().zip(traced).filter(|(p, _)| !p.governed);
        let governed = || points.iter().zip(traced).filter(|(p, _)| p.governed);
        let untraced_s: f64 = passes.iter().flatten().map(|r| r.host_s).sum();
        let traced_s: f64 = telemetry_passes.iter().flatten().map(|r| r.host_s).sum();
        out.set(
            "telemetry.overhead_pct",
            (traced_s / untraced_s - 1.0) * 100.0,
        );
        let sum = |f: fn(&Run) -> f64| statics().map(|(_, r)| f(r)).sum::<f64>();
        out.set("sim.mem_wait_s", sum(|r| r.mem_wait_s));
        out.set("sim.mem_bytes", sum(|r| r.mem_bytes as f64));
        out.set(
            "sim.mem_imbalance",
            sum(|r| r.mem_imbalance) / statics().count() as f64,
        );
        out.set("sim.noc_bytes", sum(|r| r.noc_bytes as f64));
        out.set("sim.noc_wait_s", sum(|r| r.noc_wait_s));
        out.set("sim.hostlink_bytes", sum(|r| r.hostlink_bytes as f64));
        for (pt, run) in statics() {
            let name = format!(
                "sim.{}.p{}.walkthrough_s",
                MODE_NAMES[pt.mode], pt.pipelines
            );
            out.set(&name, run.walkthrough_s);
        }
        for (m, mode) in MODE_NAMES.iter().enumerate() {
            // Median over passes of the mode's static host seconds.
            let per_pass: Vec<f64> = passes
                .iter()
                .map(|runs| {
                    points
                        .iter()
                        .zip(runs)
                        .filter(|(p, _)| !p.governed && p.mode == m)
                        .map(|(_, r)| r.host_s)
                        .sum()
                })
                .collect();
            out.set_median(&format!("sim.{mode}.host_s"), per_pass);
        }
        out.set("table1_error_pct", table1_error_pct(&points, traced));
        let gsum = |f: fn(&Run) -> f64| governed().map(|(_, r)| f(r)).sum::<f64>();
        out.set("governed_walkthrough_s", gsum(|r| r.walkthrough_s));
        out.set("governed_energy_j", gsum(|r| r.energy_j));
        out.set("governor.raises", gsum(|r| r.raises as f64));
        out.set("governor.throttles", gsum(|r| r.throttles as f64));
        out.set("governor.cap_blocked", gsum(|r| r.cap_blocked as f64));
        for (pt, run) in governed() {
            out.set(
                &format!("governor.{}.energy_j", MODE_NAMES[pt.mode]),
                run.energy_j,
            );
        }
        out.trace_events = log.chrome_events();
    } else {
        out.set("setup_s", setup_s);
        let frames_of = |runs: &Vec<Run>| runs.iter().map(|r| r.frames).sum::<u64>() as f64;
        out.set_median(
            "host_frames_per_s",
            passes
                .iter()
                .map(|runs| frames_of(runs) / runs.iter().map(|r| r.host_s).sum::<f64>())
                .collect(),
        );
        out.set_median(
            "host_cpu_ms_per_frame",
            passes
                .iter()
                .map(|runs| runs.iter().map(|r| r.cpu_s).sum::<f64>() * 1e3 / frames_of(runs))
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

/// One `verify(true)` pass per point: the invariant checker (frame
/// conservation, energy identity, NoC flit audit) runs inside the
/// simulator and panics on a violation. Checks too that verification
/// leaves virtual time unchanged, and the per-stage ledger: busy + idle
/// is each stage's finish time (its last span's end), never past the
/// walkthrough, and exactly the walkthrough at the sink.
fn verify_pass(points: &[Point], scene: &Arc<Scene>, reference: &[Run], out: &mut Outcome) {
    for (pt, expect) in points.iter().zip(reference) {
        let mut cfg = pt.cfg.clone();
        cfg.verify = true;
        cfg.trace = true;
        let label = pt.label();
        let res = catch_unwind(AssertUnwindSafe(|| {
            run_with_scene(&cfg, Backend::Sim, Arc::clone(scene))
        }));
        let ran = match res {
            Ok(ran) => ran,
            Err(_) => {
                out.fail(cfg.frames, format!("{label}: invariant checker failed"));
                continue;
            }
        };
        if ran.total_secs.to_bits() != expect.walkthrough_s.to_bits() {
            out.fail(
                cfg.frames,
                format!("{label}: verify pass moved virtual time"),
            );
        }
        if let Some(why) = ledger_error(&ran) {
            out.fail(cfg.frames, format!("{label}: stage ledger: {why}"));
        }
    }
}

/// Relative tolerance of the stage-ledger identities: the ledger sums
/// hundreds of f64 terms, the trace adds integer picoseconds.
const LEDGER_TOLERANCE: f64 = 1e-9;

fn ledger_error(ran: &RunOutcome) -> Option<String> {
    let total = ran.total_secs;
    let Some(trace) = ran.trace.as_ref() else {
        return Some("traced run returned no trace".into());
    };
    let tol = LEDGER_TOLERANCE * total;
    for s in &ran.stage_reports {
        let accounted = s.busy_secs + s.idle_total_secs;
        if accounted > total + tol {
            return Some(format!(
                "{} busy + idle {accounted} > walkthrough {total}",
                s.kind.name()
            ));
        }
        if s.kind == StageKind::Transfer && (accounted - total).abs() > tol {
            return Some(format!(
                "sink busy + idle {accounted} != walkthrough {total}"
            ));
        }
        let finish = trace
            .events()
            .iter()
            .filter(|e| e.core == s.core_id)
            .map(|e| e.t1.as_secs_f64())
            .fold(None, |m: Option<f64>, t| Some(m.map_or(t, |m| m.max(t))));
        if let Some(finish) = finish {
            if (accounted - finish).abs() > tol {
                return Some(format!(
                    "{} busy + idle {accounted} != finish {finish}",
                    s.kind.name()
                ));
            }
        }
    }
    None
}
