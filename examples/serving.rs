//! Serving many viewers from one pipeline pool.
//!
//! Two tenants — a heavy "kiosk" fleet and a light "vip" tier — stream
//! overlapping walkthrough windows. The strip cache renders each pose
//! once no matter how many viewers request it; admission control keeps
//! the kiosk fleet from starving the vip tier; and every refused session
//! is a recorded shed, never a silent drop.
//!
//! Run with: `cargo run --release --example serving`

use scc_core::RunConfig;
use scc_serve::{serve_default, ServeConfig, TenantSpec};

fn main() {
    let cfg = ServeConfig {
        run: RunConfig::builder()
            .size(96, 64)
            .pipelines(2)
            .seed(11)
            .verify(true)
            .telemetry(true)
            .build()
            .expect("valid run config"),
        tenants: vec![
            TenantSpec::new("kiosk", 1, 24, 6),
            TenantSpec::new("vip", 3, 4, 6),
        ],
        shards: 2,
        pool: 4,
        cache_capacity: 128,
        cache_buckets: 64,
        queue_depth: 6,
        max_sessions: 16,
        batch_frames: 6,
        pose_span: 8,
        arrival_burst: 6,
        seed: 0xC0FFEE,
        keep_films: false,
    };

    let out = serve_default(&cfg);
    let r = &out.report;
    println!(
        "sessions: admitted={} completed={} shed={}",
        r.admitted, r.completed, r.shed
    );
    println!(
        "frames: {} served, {} unique renders, cache hit ratio {:.1}%",
        r.frames_served,
        r.unique_renders,
        100.0 * r.cache.hit_ratio()
    );
    println!(
        "throughput: {:.1} sessions/s, frame latency p50={:.1}ms p99={:.1}ms",
        r.sessions_per_sec,
        r.latency.p50 * 1e3,
        r.latency.p99 * 1e3
    );
    for t in &r.per_tenant {
        println!(
            "tenant {:<6} weight={} offered={} shed={} frames={} max-queue={}",
            t.name, t.weight, t.offered, t.shed, t.frames_completed, t.max_queue_depth
        );
    }
    for e in r.shed_events.iter().take(3) {
        println!(
            "shed example: session {} of tenant {} ({})",
            e.session,
            e.tenant,
            e.reason.name()
        );
    }
    assert_eq!(r.completed + r.shed, r.admitted, "ledger balances");
}
