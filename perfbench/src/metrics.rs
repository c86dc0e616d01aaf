//! The metric registry: every name the benchmark prints, with its unit
//! and direction. `BENCHMARK.json` at the repository root lists the same
//! names; a self-test keeps the two in step.

use scc_telemetry::Json;
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
}

fn def(name: impl Into<String>, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name: name.into(),
        unit,
        better,
    }
}

/// Renderer modes as they appear in metric names, in Table I row order.
pub const MODE_NAMES: [&str; 3] = ["single", "per_pipeline", "mcpc"];
/// Pipeline counts of the paper-sim static runs.
pub const PIPELINES: [u32; 4] = [1, 2, 4, 7];
/// Native pipeline stages, source to sink.
pub const NATIVE_STAGES: [&str; 7] = [
    "render", "sepia", "blur", "scratch", "flicker", "swap", "transfer",
];
/// The standard filter chain, in order.
pub const FILTERS: [&str; 5] = ["sepia", "blur", "scratch", "flicker", "swap"];

/// Metrics a user of the system sees; measured with tracing off.
pub fn end_to_end() -> Vec<MetricDef> {
    use Better::*;
    vec![
        def("setup_s", "s", Lower),
        def("host_frames_per_s", "1/s", Higher),
        def("host_cpu_ms_per_frame", "ms", Lower),
        def("peak_rss_mb", "MiB", Lower),
        def("delivered_share", "ratio", Higher),
    ]
}

/// Metrics of single layers; measured by the traced run. A layer a
/// workload does not exercise reports 0.
pub fn per_layer() -> Vec<MetricDef> {
    use Better::*;
    let mut m = vec![
        def("render.cull_s", "s", Lower),
        def("render.raster_s", "s", Lower),
        def("render.strips", "count", Higher),
        def("render.mpx_per_s", "Mpx/s", Higher),
        def("render.fill_ratio", "ratio", Higher),
        def("render.cull_keep_ratio", "ratio", Lower),
    ];
    for f in FILTERS {
        m.push(def(format!("filters.{f}_s"), "s", Lower));
    }
    m.push(def("filters.mpx_per_s", "Mpx/s", Higher));
    m.extend([
        def("rcce.send_s", "s", Lower),
        def("rcce.recv_s", "s", Lower),
        def("rcce.msgs", "count", Lower),
        def("rcce.bytes", "B", Lower),
        def("rcce.retries", "count", Lower),
    ]);
    for stage in NATIVE_STAGES {
        for phase in ["compute", "send", "wait"] {
            m.push(def(format!("native.{stage}.{phase}_s"), "s", Lower));
        }
    }
    m.extend([
        def("native.frame_latency_p50_ms", "ms", Lower),
        def("native.frame_latency_p95_ms", "ms", Lower),
        def("native.pool_reuse_ratio", "ratio", Higher),
        def("native.unattributed_share", "ratio", Lower),
        def("sim.mem_wait_s", "s", Lower),
        def("sim.mem_bytes", "B", Lower),
        def("sim.mem_imbalance", "ratio", Lower),
        def("sim.noc_bytes", "B", Lower),
        def("sim.noc_wait_s", "s", Lower),
        def("sim.hostlink_bytes", "B", Lower),
    ]);
    for mode in MODE_NAMES {
        for p in PIPELINES {
            m.push(def(format!("sim.{mode}.p{p}.walkthrough_s"), "s", Lower));
        }
    }
    for mode in MODE_NAMES {
        m.push(def(format!("sim.{mode}.host_s"), "s", Lower));
    }
    m.extend([
        def("table1_error_pct", "%", Lower),
        def("governed_walkthrough_s", "s", Lower),
        def("governed_energy_j", "J", Lower),
        def("governor.raises", "count", Lower),
        def("governor.throttles", "count", Higher),
        def("governor.cap_blocked", "count", Lower),
    ]);
    for mode in MODE_NAMES {
        m.push(def(format!("governor.{mode}.energy_j"), "J", Lower));
    }
    m.extend([
        def("serve.cache_hit_ratio", "ratio", Higher),
        def("serve.cache_evictions", "count", Lower),
        def("serve.unique_renders", "count", Lower),
        def("serve.renders_per_frame", "ratio", Lower),
        def("serve.rounds", "count", Lower),
        def("serve.contended_rounds", "count", Lower),
        def("serve.shed", "count", Lower),
        def("serve.max_queue_depth", "count", Lower),
        def("sessions_per_s", "1/s", Higher),
        def("frame_latency_p50_ms", "ms", Lower),
        def("frame_latency_p99_ms", "ms", Lower),
        def("telemetry.overhead_pct", "%", Lower),
    ]);
    m
}

/// Render `values` as the result's `metrics` object, in registry order.
/// A registry name the workload did not measure reads 0 (its layer does
/// no work on this workload); a measured name missing from the registry
/// is a bug in the benchmark and panics.
pub fn render(defs: &[MetricDef], values: &BTreeMap<String, f64>) -> Json {
    for name in values.keys() {
        assert!(
            defs.iter().any(|d| &d.name == name),
            "metric {name} is not in the registry"
        );
    }
    Json::Obj(
        defs.iter()
            .map(|d| {
                let v = values.get(&d.name).copied().unwrap_or(0.0);
                let entry = Json::obj()
                    .field("value", Json::F64(v))
                    .field("unit", Json::str(d.unit));
                (d.name.clone(), entry)
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let all: Vec<MetricDef> = end_to_end().into_iter().chain(per_layer()).collect();
        let mut names: Vec<&str> = all.iter().map(|d| d.name.as_str()).collect();
        names.sort_unstable();
        let n = names.len();
        names.dedup();
        assert_eq!(names.len(), n, "duplicate metric name");
        assert!(per_layer().len() <= 128);
        for d in &all {
            assert!(d.name.len() <= 64);
            assert!(d.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
            assert!(d.unit.len() <= 16);
        }
    }
}
