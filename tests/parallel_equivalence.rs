//! Differential suite for the native runner's kernel tuning: for every
//! renderer mode, each point of the kernel-backend × fusion grid must
//! deliver every frame, byte-identical to the sequential reference. A
//! tuning knob that changes a pixel is a correctness bug dressed up as
//! a speedup.

use scc_core::{
    reference::reference_frames, run_native, Fidelity, FuseChoice, KernelChoice, NativeTuning,
    RendererMode, RunConfig,
};
use scc_filters::Image;
use scc_render::{CityConfig, Scene};
use scc_telemetry::names;
use std::sync::Arc;

fn scene() -> Arc<Scene> {
    Arc::new(Scene::city(CityConfig {
        side: 7,
        spacing: 8.0,
        seed: 29,
    }))
}

fn cfg(mode: RendererMode, tuning: NativeTuning) -> RunConfig {
    RunConfig::builder()
        .renderer(mode)
        .pipelines(2)
        .size(52, 44)
        .frames(4)
        .seed(0xCAFE_D00D)
        .fidelity(Fidelity::Full)
        .tuning(tuning)
        .build()
        .expect("valid config")
}

const MODES: [RendererMode; 3] = [
    RendererMode::SingleRenderer,
    RendererMode::PerPipelineRenderer,
    RendererMode::McpcRenderer,
];

const fn tune(kernel: KernelChoice, fuse: FuseChoice) -> NativeTuning {
    NativeTuning { kernel, fuse }
}

/// Both forced kernel backends × fusion off/on.
const TUNINGS: [NativeTuning; 4] = [
    tune(KernelChoice::Scalar, FuseChoice::Off),
    tune(KernelChoice::Scalar, FuseChoice::On),
    tune(KernelChoice::Simd, FuseChoice::Off),
    tune(KernelChoice::Simd, FuseChoice::On),
];

fn raw_frames(frames: &[Image]) -> Vec<&[u8]> {
    frames.iter().map(|f| f.as_bytes()).collect()
}

#[test]
fn tuning_is_invisible_in_every_renderer_mode() {
    for mode in MODES {
        let want = reference_frames(&cfg(mode, NativeTuning::default()), scene());
        assert_eq!(want.len(), 4, "{mode:?}: reference frame count");
        for tuning in TUNINGS {
            let native = run_native(&cfg(mode, tuning), scene());
            assert_eq!(
                native.frames.len(),
                want.len(),
                "{mode:?}/{tuning:?}: frame count changed"
            );
            assert_eq!(
                raw_frames(&native.frames),
                raw_frames(&want),
                "{mode:?}/{tuning:?}: pixels diverged from the sequential reference"
            );
        }
    }
}

#[test]
fn threaded_pooled_native_matches_sequential_reference() {
    // Not just self-consistent: the default native run (one thread per
    // stage, recycled buffers, auto kernel and fusion) still equals the
    // single-threaded sequential oracle, byte for byte.
    for mode in MODES {
        let c = cfg(mode, NativeTuning::default());
        let want = reference_frames(&c, scene());
        let native = run_native(&c, scene());
        assert!(
            native.pool_stats.recycled > 0,
            "{mode:?}: native run never recycled a buffer"
        );
        assert_eq!(
            raw_frames(&native.frames),
            raw_frames(&want),
            "{mode:?}: threaded+pooled native diverged from reference"
        );
    }
}

#[test]
fn telemetry_exports_both_pool_counters() {
    // The repository benchmark reads these two counters from a native
    // run and fails without them; steady state must recycle buffers.
    let c = RunConfig::builder()
        .pipelines(2)
        .size(96, 96)
        .frames(4)
        .fidelity(Fidelity::Full)
        .telemetry(true)
        .build()
        .expect("valid config");
    let report = run_native(&c, scene());
    let snap = report.telemetry.expect("telemetry requested");
    let counter = |name: &str| {
        snap.counter(name, &[])
            .unwrap_or_else(|| panic!("{name} not exported"))
            .value
    };
    let recycled = counter(names::POOL_RECYCLED_TOTAL);
    let fresh = counter(names::POOL_FRESH_TOTAL);
    assert!(recycled > 0, "steady state never recycled a buffer");
    assert_eq!(
        (recycled, fresh),
        (report.pool_stats.recycled, report.pool_stats.fresh),
        "exported counters disagree with the run's pool stats"
    );
}
