//! Cross-runner differential suite: the frame-major simulator, the
//! event-driven (DES) validator and the native thread runner must all
//! produce bit-identical frame checksums against the sequential
//! reference, for every renderer mode and every pipeline arrangement —
//! and the guarantee must survive injected message faults.

mod common;

use common::{cfg_with, checksums, oracle, scene, ARRANGEMENTS, MODES};
use scc_core::{
    run_des, run_native, Arrangement, FaultSpec, RendererMode, RunConfig, SimRunner, StallSpec,
};

fn cfg(mode: RendererMode, arr: Arrangement, pipelines: u32) -> RunConfig {
    cfg_with(mode, arr, pipelines, 3)
}

#[test]
fn sim_matches_reference_in_every_mode_and_arrangement() {
    for mode in MODES {
        for arr in ARRANGEMENTS {
            let c = cfg(mode, arr, 2);
            let want = oracle(&c);
            let report = SimRunner::new(c, scene()).run();
            assert_eq!(
                checksums(&report.outputs.expect("full fidelity")),
                want,
                "sim diverged: {mode:?}/{arr:?}"
            );
        }
    }
}

#[test]
fn native_matches_reference_in_every_mode_and_arrangement() {
    for mode in MODES {
        for arr in ARRANGEMENTS {
            let c = cfg(mode, arr, 2);
            let want = oracle(&c);
            let native = run_native(&c, scene());
            assert_eq!(
                checksums(&native.frames),
                want,
                "native diverged: {mode:?}/{arr:?}"
            );
        }
    }
}

#[test]
fn des_matches_reference_in_every_arrangement() {
    // The DES validator covers the single-renderer configuration; the
    // arrangement only moves stages between cores, so the data path must
    // be byte-stable across all three.
    for arr in ARRANGEMENTS {
        let c = cfg(RendererMode::SingleRenderer, arr, 3);
        let want = oracle(&c);
        let des = run_des(&c, scene());
        assert_eq!(
            checksums(&des.frames.expect("full fidelity")),
            want,
            "DES diverged: {arr:?}"
        );
    }
}

#[test]
fn all_three_runners_agree_with_each_other() {
    let c = cfg(RendererMode::SingleRenderer, Arrangement::Ordered, 2);
    let sim = SimRunner::new(c.clone(), scene()).run();
    let des = run_des(&c, scene());
    let native = run_native(&c, scene());
    let a = checksums(&sim.outputs.expect("frames"));
    let b = checksums(&des.frames.expect("frames"));
    let n = checksums(&native.frames);
    assert_eq!(a, b, "sim vs DES");
    assert_eq!(a, n, "sim vs native");
}

#[test]
fn chaos_walkthrough_delivers_every_frame() {
    // The headline robustness scenario across both executable runners:
    // 1% flit loss plus one permanently stalled filter core (sim), and
    // message drop/corruption (native) — zero lost frames everywhere.
    let mut c = cfg(RendererMode::SingleRenderer, Arrangement::Ordered, 3);
    let want = oracle(&c);
    c.fault = Some(FaultSpec {
        drop_rate: 0.01,
        stall: Some(StallSpec {
            pipeline: 0,
            stage: 1,
            at_ms: 0,
            for_ms: u64::MAX,
        }),
        ..FaultSpec::default()
    });
    let report = SimRunner::new(c.clone(), scene()).run();
    assert!(
        !report.degradations.is_empty(),
        "the stalled blur core must be failed over"
    );
    assert_eq!(
        checksums(&report.outputs.expect("frames")),
        want,
        "sim lost or damaged a frame under faults"
    );

    // Native: no core stalls (threads are real), message faults only,
    // with host-friendly timeouts, so retransmission and buffer
    // recycling overlap.
    let mut nc = c.clone();
    nc.fault = Some(FaultSpec {
        drop_rate: 0.02,
        corrupt_rate: 0.02,
        timeout_us: 100_000,
        retry_budget: 5,
        ..FaultSpec::default()
    });
    let native = run_native(&nc, scene());
    assert_eq!(
        checksums(&native.frames),
        want,
        "native lost or damaged a frame under faults"
    );
}

#[test]
fn same_fault_seed_reports_are_byte_identical() {
    let mut c = cfg(RendererMode::SingleRenderer, Arrangement::Ordered, 3);
    c.fault = Some(FaultSpec {
        drop_rate: 0.02,
        corrupt_rate: 0.01,
        delay_rate: 0.05,
        degraded_links: 2,
        degrade_factor: 0.6,
        stall: Some(StallSpec {
            pipeline: 2,
            stage: 3,
            at_ms: 5,
            for_ms: u64::MAX,
        }),
        ..FaultSpec::default()
    });
    let a = SimRunner::new(c.clone(), scene()).run();
    let b = SimRunner::new(c, scene()).run();
    assert_eq!(a.fingerprint(), b.fingerprint());
}
