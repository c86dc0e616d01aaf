//! Host-native throughput measurement — the `BENCH_native_pipeline.json`
//! trajectory.
//!
//! Runs the native runner once on one configuration, records its
//! wall-clock frames/s and buffer-pool reuse, and checks the delivered
//! film against the sequential reference data path (a faster pipeline
//! that changes a pixel is a bug, not a speedup). The JSON is built on
//! `scc_telemetry::Json` (the vendored serde shim is a no-op marker), so
//! the schema lives here, in one place, deliberately flat — and when the
//! config enables telemetry, the run's full metric snapshot is embedded
//! under a `telemetry` key.

use scc_core::reference::reference_frames;
use scc_core::viz::frame_checksum;
use scc_core::{run_native, HostTiming, PoolStats, RunConfig};
use scc_render::Scene;
use scc_telemetry::{snapshot_to_tree, Json, Snapshot};
use std::fmt::Write as _;
use std::sync::Arc;

/// The measured run, ready to render as `BENCH_native_pipeline.json`.
#[derive(Debug, Clone)]
pub struct ThroughputReport {
    pub config: RunConfig,
    /// Logical CPUs of the measuring host, which every stage thread of
    /// the pipeline shares.
    pub host_cpus: u32,
    pub timing: HostTiming,
    /// FNV fold of all delivered frame checksums.
    pub output_checksum: u64,
    /// The same fold over the sequential reference film.
    pub reference_checksum: u64,
    pub pool_stats: PoolStats,
    /// Metric snapshot of the run, captured when the config enables
    /// telemetry; embedded in the JSON document.
    pub telemetry: Option<Snapshot>,
}

/// Fold per-frame checksums into one digest (FNV-1a over the u64s).
fn fold_checksums(frames: &[scc_filters::Image]) -> u64 {
    let mut acc: u64 = 0xcbf2_9ce4_8422_2325;
    for img in frames {
        for b in frame_checksum(img).to_le_bytes() {
            acc ^= b as u64;
            acc = acc.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    acc
}

/// Time one native run of `cfg` and fold the sequential reference film
/// for the pixel gate.
pub fn measure_native_throughput(cfg: &RunConfig, scene: &Arc<Scene>) -> ThroughputReport {
    let report = run_native(cfg, Arc::clone(scene));
    let reference = reference_frames(cfg, Arc::clone(scene));
    ThroughputReport {
        config: cfg.clone(),
        host_cpus: std::thread::available_parallelism()
            .map(|n| n.get() as u32)
            .unwrap_or(1),
        timing: report.host,
        output_checksum: fold_checksums(&report.frames),
        reference_checksum: fold_checksums(&reference),
        pool_stats: report.pool_stats,
        telemetry: report.telemetry,
    }
}

impl ThroughputReport {
    /// True when the native film equals the sequential reference.
    pub fn output_consistent(&self) -> bool {
        self.output_checksum == self.reference_checksum
    }

    /// Render the report as the `BENCH_native_pipeline.json` document.
    pub fn to_json(&self) -> String {
        let config = Json::obj()
            .field("renderer", Json::str(self.config.renderer.name()))
            .field("pipelines", Json::U64(u64::from(self.config.pipelines)))
            .field("width", Json::U64(u64::from(self.config.width)))
            .field("height", Json::U64(u64::from(self.config.height)))
            .field("frames", Json::U64(self.config.frames))
            .field("seed", Json::U64(self.config.seed));
        let point = Json::obj()
            .field("wall_secs", Json::F64(self.timing.wall_secs))
            .field("frames_per_sec", Json::F64(self.timing.frames_per_sec))
            .field("mpixels_per_sec", Json::F64(self.timing.mpixels_per_sec))
            .field(
                "output_checksum",
                Json::str(format!("{:#018x}", self.output_checksum)),
            )
            .field("pool_recycled", Json::U64(self.pool_stats.recycled))
            .field("pool_fresh", Json::U64(self.pool_stats.fresh));
        let mut doc = Json::obj()
            .field("bench", Json::str("native_pipeline"))
            .field("config", config)
            .field("host_cpus", Json::U64(u64::from(self.host_cpus)))
            .field("output_consistent", Json::Bool(self.output_consistent()))
            .field("points", Json::Arr(vec![point]));
        if let Some(snap) = &self.telemetry {
            doc = doc.field("telemetry", snapshot_to_tree(snap));
        }
        doc.render()
    }

    /// Plain-text table for the terminal.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "native pipeline throughput — {} p={} {}x{} f={} (host cpus: {})",
            self.config.renderer.name(),
            self.config.pipelines,
            self.config.width,
            self.config.height,
            self.config.frames,
            self.host_cpus,
        );
        let _ = writeln!(
            out,
            "{:>10} {:>10} {:>9} {:>14}",
            "wall_s", "frames/s", "Mpx/s", "pool reuse"
        );
        let _ = writeln!(
            out,
            "{:>10.3} {:>10.2} {:>9.2} {:>14}",
            self.timing.wall_secs,
            self.timing.frames_per_sec,
            self.timing.mpixels_per_sec,
            format!(
                "{}/{}",
                self.pool_stats.recycled,
                self.pool_stats.recycled + self.pool_stats.fresh
            ),
        );
        let _ = writeln!(
            out,
            "output {:#018x} {}",
            self.output_checksum,
            if self.output_consistent() {
                "matches the sequential reference"
            } else {
                "DIVERGED from the sequential reference!"
            }
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scc_core::Fidelity;
    use scc_render::CityConfig;

    fn tiny() -> (RunConfig, Arc<Scene>) {
        let cfg = RunConfig::builder()
            .pipelines(2)
            .size(32, 32)
            .frames(2)
            .seed(5)
            .fidelity(Fidelity::Full)
            .build()
            .expect("valid config");
        let scene = Arc::new(Scene::city(CityConfig {
            side: 4,
            spacing: 8.0,
            seed: 1,
        }));
        (cfg, scene)
    }

    #[test]
    fn sweep_is_consistent_and_json_well_formed() {
        let (cfg, scene) = tiny();
        let report = measure_native_throughput(&cfg, &scene);
        assert!(report.output_consistent(), "native film diverged");
        assert!(report.timing.frames_per_sec > 0.0);
        let json = report.to_json();
        for key in [
            "\"bench\": \"native_pipeline\"",
            "\"host_cpus\"",
            "\"frames_per_sec\"",
            "\"output_consistent\": true",
            "\"pool_recycled\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        // Balanced braces/brackets — cheap malformation guard.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        let text = report.render_text();
        assert!(text.contains("matches the sequential reference"));
    }
}
