//! Macro pipelining beyond rendering: the paper's §I claim ("the ideas
//! ... should easily translate to other problem domains") exercised on a
//! stream-processing workload — parse → compress → encrypt → checksum —
//! declared as a [`scc_core::GenericChainSpec`] and run through the
//! unified workload plane ([`scc_core::run`]), so the same spec gets the
//! power plane, telemetry, invariant checking, and both virtual-time
//! backends for free.
//!
//! ```sh
//! cargo run --release -p scc-core --example generic_pipeline
//! ```

use scc_core::{
    run, Backend, BackendReport, GenericChainSpec, GenericStageSpec, RunConfig, Workload,
};

fn spec() -> GenericChainSpec {
    // Per-item costs in P54C cycles per input byte, loosely modelled on
    // real software: parsing ~12 c/B, LZ-style compression ~90 c/B (the
    // bottleneck, like blur in the paper) with a 3x payload reduction,
    // encryption ~25 c/B, checksum ~4 c/B.
    GenericChainSpec {
        stages: vec![
            GenericStageSpec::compute("parse", 12.0),
            GenericStageSpec {
                read_factor: 1.0, // dictionary lookbacks
                out_factor: 1.0 / 3.0,
                ..GenericStageSpec::compute("compress", 90.0)
            },
            GenericStageSpec::compute("encrypt", 25.0),
            GenericStageSpec::compute("checksum", 4.0),
        ],
        items: 400,
        source_bytes: 256 * 1024,
    }
}

fn main() {
    let block = 256 * 1024u64;
    println!(
        "stream pipeline: 400 blocks of 256 KiB through parse -> compress -> encrypt -> checksum\n"
    );

    let cfg = RunConfig::builder()
        .workload(Workload::Generic(spec()))
        .verify(true)
        .build()
        .expect("valid config");
    let outcome = run(&cfg, Backend::Sim);
    let BackendReport::Generic(report) = &outcome.report else {
        unreachable!("workload runs return the generic report");
    };

    println!(
        "total {:.1} virtual seconds, throughput {:.1} blocks/s ({:.1} MB/s in), {:.1} W mean",
        report.total_secs,
        report.throughput(),
        report.throughput() * block as f64 / 1e6,
        report.mean_power
    );
    println!("\nper-stage (same structure as the paper's Figure 15):");
    for s in &report.stages {
        let idle = s.idle_ms.map(|q| q.median).unwrap_or(0.0);
        println!(
            "  {:<9} core {:>2}  utilisation {:>4.0}%  median wait {:>7.2} ms",
            s.name,
            s.core_id,
            s.utilisation * 100.0,
            idle
        );
    }

    // The same spec on the event-driven cross-validator: independent
    // scheduler, same chain, same output fingerprint.
    let des = run(&cfg, Backend::Des);
    let BackendReport::Generic(des_report) = &des.report else {
        unreachable!()
    };
    assert_eq!(des_report.output_digest, report.output_digest);
    println!(
        "\ncross-check: DES backend finishes in {:.1}s ({:+.2}% vs sim), identical output digest",
        des_report.total_secs,
        (des_report.total_secs / report.total_secs - 1.0) * 100.0
    );

    println!("\nAs in the rendering case study, throughput locks to the most");
    println!("expensive stage (compress), every other stage spends its time");
    println!("waiting, and the shape is independent of core placement.");
}
