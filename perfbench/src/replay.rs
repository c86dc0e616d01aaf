//! The layer replay: the benchmark calls each layer's public functions
//! itself, one span per call, over the same frames the native pipeline
//! produced — `render` (cull, raster), the standard `filters` chain, and
//! strip payloads through a two-rank `rcce` communicator.

use crate::metrics::FILTERS;
use crate::spans::SpanLog;
use crate::Outcome;
use scc_core::runner::native::encode_frame;
use scc_core::{Frame, RunConfig};
use scc_filters::{standard_chain, FrameCtx, Image, KernelBackend};
use scc_rcce::{communicator, MpbConfig};
use scc_render::{Renderer, Scene, Walkthrough};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Span names of the filter calls, in chain order.
const FILTER_SPANS: [&str; 5] = [
    "filters.sepia",
    "filters.blur",
    "filters.scratch",
    "filters.flicker",
    "filters.swap",
];

/// The replay's spans, its work counters, and the checksum of every
/// frame it reassembled.
pub struct Replay {
    pub log: SpanLog,
    pub checksums: Vec<u64>,
    /// Render calls (whole frames) and the pixels they produced.
    strips: u64,
    strip_pixels: u64,
    triangles_in: u64,
    triangles_filled: u64,
    triangles_kept: u64,
    scene_triangles: u64,
    msgs: u64,
    bytes: u64,
    retries: u64,
    /// Frames with a strip payload that did not arrive intact.
    transport_errors: u64,
}

/// Replay `cfg`'s frames through the layers, sequentially, with the
/// kernel backend the build resolves. The film-native plan runs one
/// filter per thread, so no pointwise fusion happens there; the replay
/// runs each stage's own kernel in the same way.
pub fn replay(cfg: &RunConfig, scene: Arc<Scene>) -> Replay {
    let backend: KernelBackend = cfg.tuning.kernel.resolve();
    let renderer = Renderer::new(scene);
    let walkthrough = Walkthrough::standard(cfg.width as f32 / cfg.height as f32);
    let chain = standard_chain();
    for (filter, name) in chain.iter().zip(FILTERS) {
        assert_eq!(filter.name(), name, "standard chain order changed");
    }
    let eps = communicator(2, 2, MpbConfig::default());
    let mut r = Replay {
        log: SpanLog::default(),
        checksums: Vec::with_capacity(cfg.frames as usize),
        strips: 0,
        strip_pixels: 0,
        triangles_in: 0,
        triangles_filled: 0,
        triangles_kept: 0,
        scene_triangles: renderer.scene().triangles.len() as u64,
        msgs: 0,
        bytes: 0,
        retries: 0,
        transport_errors: 0,
    };
    for f in 0..cfg.frames {
        let root = r.log.open("frame", f, None);
        let cam = walkthrough.camera(f);
        // The film's renderer mode renders whole frames and splits them
        // into strips; a frame is one strip covering every row.
        let (_, cull, _) = r.log.time("render.cull", f, Some(root), || {
            renderer.cull_strip(&cam, cfg.width, cfg.height, 0, cfg.height)
        });
        let (img, stats) = r.log.time("render.raster", f, Some(root), || {
            renderer.render_strip(&cam, cfg.width, cfg.height, 0, cfg.height)
        });
        r.strips += 1;
        r.strip_pixels += u64::from(cfg.width) * u64::from(cfg.height);
        r.triangles_kept += cull.triangles_out;
        r.triangles_in += stats.raster.triangles_in;
        r.triangles_filled += stats.raster.triangles_filled;

        let mut strips = Vec::with_capacity(cfg.pipelines as usize);
        let mut intact = true;
        for (mut info, mut img) in img.split_strips(cfg.pipelines) {
            let ctx = FrameCtx {
                frame_id: f,
                run_seed: cfg.seed,
                strip: info,
                full_width: cfg.width,
            };
            for (filter, span) in chain.iter().zip(FILTER_SPANS) {
                r.log.time(span, f, Some(root), || {
                    filter.apply_vectored(&mut img, &ctx, backend, 1)
                });
            }
            info = scc_filters::vswap::mirrored_info(info);

            let frame = Frame {
                id: f,
                strip: info,
                full_width: cfg.width,
                image: Some(img),
            };
            let payload = encode_frame(&frame);
            let sent = r
                .log
                .time("rcce.send", f, Some(root), || eps[0].send(1, payload));
            let got = r.log.time("rcce.recv", f, Some(root), || eps[1].recv(0));
            let img = frame.image.expect("strip pixels");
            // Wire format: crc32 (4 bytes) + header (32 bytes) + pixels.
            match (sent, got) {
                (Ok(()), Ok(bytes)) if bytes.len() >= 36 && bytes[36..] == *img.as_bytes() => {}
                _ => intact = false,
            }
            strips.push((info, img));
        }
        r.log.close(root);
        if !intact {
            r.transport_errors += 1;
        }
        r.checksums
            .push(crate::checksum(Image::assemble(&strips).as_bytes()));
    }
    for ep in &eps {
        let s = ep.stats();
        r.msgs += s.sent_messages.load(Ordering::Relaxed);
        r.bytes += s.sent_bytes.load(Ordering::Relaxed);
        r.retries += s.retransmissions.load(Ordering::Relaxed);
    }
    r
}

impl Replay {
    /// Fill the `render.*`, `filters.*` and `rcce.*` metrics.
    pub fn record(&self, out: &mut Outcome) {
        let log = &self.log;
        let mpx = self.strip_pixels as f64 / 1e6;
        let raster_s = log.total("render.raster");
        out.set("render.cull_s", log.total("render.cull"));
        out.set("render.raster_s", raster_s);
        out.set("render.strips", self.strips as f64);
        out.set("render.mpx_per_s", mpx / raster_s);
        out.set(
            "render.fill_ratio",
            self.triangles_filled as f64 / self.triangles_in.max(1) as f64,
        );
        out.set(
            "render.cull_keep_ratio",
            self.triangles_kept as f64 / (self.strips * self.scene_triangles).max(1) as f64,
        );
        let mut chain_s = 0.0;
        for (name, span) in FILTERS.iter().zip(FILTER_SPANS) {
            let s = log.total(span);
            chain_s += s;
            out.set(&format!("filters.{name}_s"), s);
        }
        out.set("filters.mpx_per_s", mpx / chain_s);
        out.set("rcce.send_s", log.total("rcce.send"));
        out.set("rcce.recv_s", log.total("rcce.recv"));
        out.set("rcce.msgs", self.msgs as f64);
        out.set("rcce.bytes", self.bytes as f64);
        out.set("rcce.retries", self.retries as f64);
        if self.transport_errors > 0 {
            out.fail(
                self.transport_errors,
                format!(
                    "replay: {} frames lost or corrupted a strip payload",
                    self.transport_errors
                ),
            );
        }
    }
}
