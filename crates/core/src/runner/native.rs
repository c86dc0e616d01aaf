//! Real-thread execution of the parallel macro pipeline.
//!
//! Runs the same stage graph as the simulator on the host machine: one OS
//! thread per stage, connected by `scc-rcce` endpoints (blocking
//! source-matched send/recv over bounded windows — the RCCE programming
//! model). Frames carry real pixels; the output is bit-identical to
//! [`crate::reference::reference_frames`]. Wall-clock timings demonstrate
//! genuine pipeline parallelism on the host, and per-stage receive-wait
//! statistics mirror the paper's Figure 15 measurement methodology.

use crate::frame::Frame;
use crate::metrics::HostTiming;
use crate::partition::StagePlan;
use crate::pool::{BufferPool, PoolStats};
use crate::spec::{RendererMode, RunConfig, StageKind};
use crate::trace::{Phase, TraceLog};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use scc_filters::{
    standard_chain, vswap, FusedPass, Image, KernelBackend, StripInfo, STANDARD_POINTWISE,
};
use scc_rcce::{communicator, crc32, Endpoint, MpbConfig, RcceError, Reliability};
use scc_render::{Renderer, Scene, Walkthrough};
use scc_sim::fault::{FaultConfig, FaultPlan};
use scc_sim::stats::Quartiles;
use scc_sim::{CoreId, SimTime};
use scc_telemetry::{names, TelemetrySink, IDLE_MS_BUCKETS};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Outcome of a native run.
#[derive(Debug)]
pub struct NativeReport {
    /// Wall-clock duration of the whole walkthrough.
    pub wall: Duration,
    /// Final frames as delivered to the visualisation client.
    pub frames: Vec<Image>,
    /// Per-stage receive-wait quartiles in milliseconds, keyed by
    /// (stage, pipeline).
    pub idle_ms: Vec<(StageKind, u32, Option<Quartiles>)>,
    /// Host wall-clock throughput (the bench trajectory's quantity).
    pub host: HostTiming,
    /// Buffer-pool reuse counters (all zero when pooling is off).
    pub pool_stats: PoolStats,
    /// Wall-clock phase spans per stage thread, present when
    /// [`RunConfig::trace`] is set. Times are nanoseconds since the run
    /// started, expressed on the same [`SimTime`] axis the simulator
    /// uses, so the Chrome exporter works unchanged.
    pub trace: Option<TraceLog>,
    /// Metrics and events recorded during the run
    /// ([`RunConfig::telemetry`]); `None` when telemetry is off.
    pub telemetry: Option<scc_telemetry::Snapshot>,
}

/// Per-thread span collector for the native runner: each stage thread
/// owns one and returns its log for merging after the join. When tracing
/// is off it records nothing.
struct SpanRecorder {
    on: bool,
    base: Instant,
    core: CoreId,
    kind: StageKind,
    pipeline: Option<u32>,
    log: TraceLog,
}

impl SpanRecorder {
    fn new(on: bool, base: Instant, rank: usize, kind: StageKind, pipeline: Option<u32>) -> Self {
        Self {
            on,
            base,
            core: CoreId::new(rank as u8),
            kind,
            pipeline,
            log: TraceLog::new(),
        }
    }

    fn span(&mut self, frame: u64, phase: Phase, from: Instant, to: Instant) {
        self.span_kind(self.kind, frame, phase, from, to);
    }

    /// Record a span under an explicit stage kind — a merged-group thread
    /// runs several stages back-to-back and labels each compute slice
    /// with the stage that did the work.
    fn span_kind(&mut self, kind: StageKind, frame: u64, phase: Phase, from: Instant, to: Instant) {
        if !self.on {
            return;
        }
        let t0 = SimTime::from_ns(from.duration_since(self.base).as_nanos() as u64);
        let t1 = SimTime::from_ns(to.duration_since(self.base).as_nanos() as u64);
        self.log
            .span(self.core, kind, self.pipeline, frame, phase, t0, t1);
    }

    fn into_log(self) -> TraceLog {
        self.log
    }
}

/// One executable unit of a merged group's stage list: a standalone
/// stage (stencils, or everything when fusion is off) or a maximal
/// pointwise run fused into a single memory traversal per row pair.
enum ExecSegment {
    Single(usize),
    Fused(FusedPass, Vec<usize>),
}

/// Split a merged group's stage list into execution segments. Fusion
/// applies only to runs of ≥ 2 consecutive pointwise stages — a lone
/// pointwise stage gains nothing from the fused program and keeps its
/// (backend-dispatched) standalone kernel. Blur is a stencil and always
/// stays standalone, so the legality envelope of the stage graph
/// (`StageClass::Pointwise` ⇔ `STANDARD_POINTWISE`) is what licenses
/// every fused segment.
fn exec_segments(stages: &[usize], backend: KernelBackend, fuse: bool) -> Vec<ExecSegment> {
    let pointwise = |j: usize| STANDARD_POINTWISE.get(j).copied().unwrap_or(false);
    let mut segs = Vec::new();
    let mut i = 0;
    while i < stages.len() {
        if fuse && pointwise(stages[i]) {
            let mut end = i + 1;
            while end < stages.len() && pointwise(stages[end]) {
                end += 1;
            }
            if end - i >= 2 {
                let idxs = stages[i..end].to_vec();
                let pass = FusedPass::from_standard_indices(&idxs, backend)
                    .expect("maximal pointwise run is fusable");
                segs.push(ExecSegment::Fused(pass, idxs));
                i = end;
                continue;
            }
        }
        segs.push(ExecSegment::Single(stages[i]));
        i += 1;
    }
    segs
}

/// Bytes before the pixels on the wire: the CRC plus the 32-byte header.
const FRAME_HEADER_BYTES: usize = 36;

/// Wire format: `crc32(rest) || header || RGBA payload`. The checksum
/// covers everything after itself, so a flipped bit anywhere — header or
/// pixels — is detected (a flip inside the CRC field itself simply makes
/// the stored value wrong).
///
/// One pass, one copy: header and pixels are written straight into the
/// message buffer behind a zeroed CRC field, which is then patched in
/// place with the checksum of bytes `4..`.
pub fn encode_frame(frame: &Frame) -> Bytes {
    let img = frame.image.as_ref().expect("native frames carry pixels");
    let mut buf = BytesMut::with_capacity(FRAME_HEADER_BYTES + img.as_bytes().len());
    buf.put_u32(0);
    buf.put_u64(frame.id);
    buf.put_u32(frame.strip.index);
    buf.put_u32(frame.strip.count);
    buf.put_u32(frame.strip.y0);
    buf.put_u32(frame.strip.height);
    buf.put_u32(frame.strip.full_height);
    buf.put_u32(frame.full_width);
    buf.put_slice(img.as_bytes());
    let crc = crc32(&buf[4..]);
    buf[..4].copy_from_slice(&crc.to_be_bytes());
    buf.freeze()
}

enum DecodeFailure {
    Truncated,
    SizeMismatch,
    Crc,
}

fn try_decode_pooled(mut b: Bytes, pool: &BufferPool) -> Result<Frame, DecodeFailure> {
    if b.len() < FRAME_HEADER_BYTES {
        return Err(DecodeFailure::Truncated);
    }
    let crc = b.get_u32();
    if crc32(&b) != crc {
        return Err(DecodeFailure::Crc);
    }
    let id = b.get_u64();
    let index = b.get_u32();
    let count = b.get_u32();
    let y0 = b.get_u32();
    let height = b.get_u32();
    let full_height = b.get_u32();
    let full_width = b.get_u32();
    let strip = StripInfo {
        index,
        count,
        y0,
        height,
        full_height,
    };
    let expect = full_width as usize * height as usize * 4;
    if b.len() != expect {
        return Err(DecodeFailure::SizeMismatch);
    }
    Ok(Frame {
        id,
        strip,
        full_width,
        image: Some(pool.acquire_filled(full_width, height, &b)),
    })
}

fn try_decode(b: Bytes) -> Result<Frame, DecodeFailure> {
    try_decode_pooled(b, &BufferPool::disabled())
}

/// Inverse of [`encode_frame`]; panics on malformed input.
pub fn decode_frame(b: Bytes) -> Frame {
    match try_decode(b) {
        Ok(frame) => frame,
        Err(DecodeFailure::Truncated) => panic!("truncated frame header"),
        Err(DecodeFailure::SizeMismatch) => panic!("payload size mismatch"),
        Err(DecodeFailure::Crc) => panic!("frame payload CRC mismatch"),
    }
}

/// Non-panicking decode for transports that may hand over damaged bytes:
/// any malformation — truncation, a size lie, or a CRC mismatch — comes
/// back as [`RcceError::Corrupt`] attributed to `src`.
pub fn decode_frame_checked(b: Bytes, src: usize) -> Result<Frame, RcceError> {
    try_decode(b).map_err(|_| RcceError::Corrupt { rank: src })
}

/// [`decode_frame_checked`] drawing the frame's pixel buffer from a
/// [`BufferPool`] instead of the allocator.
pub fn decode_frame_pooled(b: Bytes, src: usize, pool: &BufferPool) -> Result<Frame, RcceError> {
    try_decode_pooled(b, pool).map_err(|_| RcceError::Corrupt { rank: src })
}

fn send_bytes(ep: &Endpoint, reliable: bool, dst: usize, payload: Bytes) {
    if reliable {
        ep.send_reliable(dst, payload).expect("reliable send");
    } else {
        ep.send(dst, payload).expect("send");
    }
}

fn recv_bytes(ep: &Endpoint, reliable: bool, src: usize) -> Bytes {
    if reliable {
        ep.recv_reliable(src).expect("reliable recv")
    } else {
        ep.recv(src).expect("recv")
    }
}

/// Rank layout of the native communicator.
///
/// The scheduler plan shapes the interior: one rank (one OS thread) per
/// *group replica* per lane — a merged group's stages share a thread, a
/// replicated group gets one thread per replica. The fixed plan (five
/// singleton groups, one replica each) reproduces the historical
/// one-thread-per-stage layout exactly.
struct Ranks {
    sources: Vec<usize>,
    /// `groups[i][g]` — ranks of the replicas serving group `g` of lane
    /// `i`; frame `f` is handled by `groups[i][g][f % r]`.
    groups: Vec<Vec<Vec<usize>>>,
    transfer: usize,
    total: usize,
}

fn ranks(mode: RendererMode, p: usize, plan: &StagePlan) -> Ranks {
    let n_sources = match mode {
        RendererMode::PerPipelineRenderer => p,
        _ => 1,
    };
    let sources: Vec<usize> = (0..n_sources).collect();
    let mut next = n_sources;
    let groups: Vec<Vec<Vec<usize>>> = (0..p)
        .map(|_| {
            plan.groups
                .iter()
                .map(|g| {
                    let v: Vec<usize> = (next..next + g.replicas as usize).collect();
                    next += g.replicas as usize;
                    v
                })
                .collect()
        })
        .collect();
    Ranks {
        sources,
        groups,
        transfer: next,
        total: next + 1,
    }
}

/// Run the walkthrough natively. Frames always carry pixels (the
/// `fidelity` field of the config is ignored).
///
/// Deprecated in favour of the facade: new code should call
/// [`crate::run`] with [`crate::Backend::Native`], which wraps this
/// entry point unchanged and returns the backend-independent
/// [`crate::RunOutcome`] view. Kept public for callers that want the
/// raw [`NativeReport`] alone.
pub fn run_native(cfg: &RunConfig, scene: Arc<Scene>) -> NativeReport {
    cfg.validate().expect("invalid run configuration");
    assert_eq!(
        cfg.runtime,
        crate::spec::Runtime::Static,
        "the native backend runs the static pipeline only; \
         Runtime::Tasks is a sim/DES execution model"
    );
    let p = cfg.pipelines as usize;
    let plan = crate::partition::plan_for(cfg);
    let layout = ranks(cfg.renderer, p, &plan);
    // Window of 2 in-flight frames per channel: enough to pipeline,
    // small enough to exert RCCE-like backpressure.
    let mut endpoints = communicator(layout.total, 2, MpbConfig::default());
    // Fault injection switches every hop to the reliable (CRC + ack +
    // retry) protocol; the schedule itself is deterministic in the spec's
    // seed. Core stalls and link degradation are simulator-only notions —
    // the native threads see the message-level faults.
    let reliable = cfg.fault.is_some();
    // One sink shared by every stage thread and every RCCE endpoint, so
    // ARQ retries recorded inside the transport and stage metrics
    // recorded out here land in the same snapshot.
    let tel = TelemetrySink::from_enabled(cfg.telemetry);
    if tel.is_enabled() {
        for ep in endpoints.iter_mut() {
            ep.set_telemetry(tel.clone());
        }
    }
    if let Some(spec) = &cfg.fault {
        let plan = Arc::new(FaultPlan::new(FaultConfig {
            seed: spec.seed,
            drop_rate: spec.drop_rate,
            corrupt_rate: spec.corrupt_rate,
            delay_rate: spec.delay_rate,
            max_delay: SimTime::from_us(spec.max_delay_us),
            degraded_links: 0,
            degrade_factor: 1.0,
            stalls: Vec::new(),
            kills: Vec::new(),
        }));
        // Real threads on a loaded host need a wider ack window than the
        // simulator's virtual-time default.
        let policy = Reliability {
            timeout: Duration::from_micros(spec.timeout_us).max(Duration::from_millis(50)),
            retries: spec.retry_budget,
        };
        for ep in endpoints.iter_mut() {
            ep.set_fault_plan(Arc::clone(&plan));
            ep.set_reliability(policy);
        }
    }
    let mut eps: Vec<Option<Endpoint>> = endpoints.drain(..).map(Some).collect();

    let renderer = Arc::new(Renderer::new(scene));
    let bounds = Image::strip_bounds(cfg.height, cfg.pipelines);
    // One shared pool: a stage releasing its sent frame feeds the next
    // stage's decode, so steady state runs with a fixed set of buffers.
    let pool = BufferPool::from_enabled(cfg.tuning.buffer_pool);
    let kernel_threads = cfg.tuning.kernel_threads as usize;
    // Telemetry mirrors the span log into its event stream, so an
    // enabled sink collects spans even when the caller did not ask for a
    // trace in the report.
    let tracing = cfg.trace || tel.is_enabled();
    let start = Instant::now();
    let mut handles: Vec<thread::JoinHandle<TraceLog>> = Vec::new();
    // Wait samples, assembled frames (transfer only), span log, and the
    // number of frames this thread actually handled (a replica sees only
    // its stride's share).
    type StageResult = (Vec<Duration>, Option<Vec<Image>>, TraceLog, u64);
    let mut stage_handles: Vec<(StageKind, u32, thread::JoinHandle<StageResult>)> = Vec::new();

    // ---- source threads ----
    match cfg.renderer {
        RendererMode::SingleRenderer | RendererMode::McpcRenderer => {
            // One source renders full frames and scatters strips. In MCPC
            // mode this thread plays the MCPC renderer + connector pair —
            // functionally identical; only the platform timing differed.
            let ep = eps[layout.sources[0]].take().unwrap();
            let renderer = Arc::clone(&renderer);
            let cfg = cfg.clone();
            let pool = pool.clone();
            // Per-lane first-group replica ranks; frame f's strip goes to
            // replica f % r, which preserves strip order per lane.
            let filters0: Vec<Vec<usize>> = layout.groups.iter().map(|g| g[0].clone()).collect();
            let rank = layout.sources[0];
            handles.push(thread::spawn(move || {
                let mut rec = SpanRecorder::new(tracing, start, rank, StageKind::Render, None);
                let walkthrough = Walkthrough::standard(cfg.width as f32 / cfg.height as f32);
                for f in 0..cfg.frames {
                    let c0 = Instant::now();
                    let cam = walkthrough.camera(f);
                    let (img, _) = renderer.render_full(&cam, cfg.width, cfg.height);
                    let c1 = Instant::now();
                    for (i, (info, strip)) in
                        img.split_strips(cfg.pipelines).into_iter().enumerate()
                    {
                        let frame = Frame {
                            id: f,
                            strip: info,
                            full_width: cfg.width,
                            image: Some(strip),
                        };
                        let dst = filters0[i][(f % filters0[i].len() as u64) as usize];
                        send_bytes(&ep, reliable, dst, encode_frame(&frame));
                        pool.release(frame.image.expect("strip pixels"));
                    }
                    rec.span(f, Phase::Compute, c0, c1);
                    rec.span(f, Phase::Send, c1, Instant::now());
                    pool.release(img);
                }
                rec.into_log()
            }));
        }
        RendererMode::PerPipelineRenderer => {
            for (i, &rank) in layout.sources.iter().enumerate() {
                let ep = eps[rank].take().unwrap();
                let renderer = renderer.as_ref().clone_shared();
                let cfg = cfg.clone();
                let (y0, h) = bounds[i];
                let dsts: Vec<usize> = layout.groups[i][0].clone();
                let count = cfg.pipelines;
                let pool = pool.clone();
                handles.push(thread::spawn(move || {
                    let mut rec =
                        SpanRecorder::new(tracing, start, rank, StageKind::Render, Some(i as u32));
                    let walkthrough = Walkthrough::standard(cfg.width as f32 / cfg.height as f32);
                    for f in 0..cfg.frames {
                        let c0 = Instant::now();
                        let cam = walkthrough.camera(f);
                        let (strip, _) = renderer.render_strip(&cam, cfg.width, cfg.height, y0, h);
                        let c1 = Instant::now();
                        let frame = Frame {
                            id: f,
                            strip: StripInfo {
                                index: i as u32,
                                count,
                                y0,
                                height: h,
                                full_height: cfg.height,
                            },
                            full_width: cfg.width,
                            image: Some(strip),
                        };
                        let dst = dsts[(f % dsts.len() as u64) as usize];
                        send_bytes(&ep, reliable, dst, encode_frame(&frame));
                        rec.span(f, Phase::Compute, c0, c1);
                        rec.span(f, Phase::Send, c1, Instant::now());
                        pool.release(frame.image.expect("strip pixels"));
                    }
                    rec.into_log()
                }));
            }
        }
    }

    // ---- filter stage threads (one per group replica per lane) ----
    for i in 0..p {
        for (g, group) in plan.groups.iter().enumerate() {
            let r = group.replicas as usize;
            for k in 0..r {
                let rank = layout.groups[i][g][k];
                let ep = eps[rank].take().unwrap();
                let cfg = cfg.clone();
                // One upstream rank per sender replica; frame f arrives
                // from replica f % |src_ranks| (a single source counts
                // as one "replica").
                let src_ranks: Vec<usize> = if g == 0 {
                    match cfg.renderer {
                        RendererMode::PerPipelineRenderer => vec![layout.sources[i]],
                        _ => vec![layout.sources[0]],
                    }
                } else {
                    layout.groups[i][g - 1].clone()
                };
                let dst_ranks: Vec<usize> = if g + 1 < plan.groups.len() {
                    layout.groups[i][g + 1].clone()
                } else {
                    vec![layout.transfer]
                };
                let stages: Vec<usize> = group.stages().collect();
                let kind = StageKind::PIPELINE_FILTERS[group.start];
                let pool = pool.clone();
                stage_handles.push((
                    kind,
                    i as u32,
                    thread::spawn(move || {
                        let mut rec = SpanRecorder::new(tracing, start, rank, kind, Some(i as u32));
                        let chain = standard_chain();
                        let backend = cfg.tuning.kernel.resolve();
                        let segments = exec_segments(&stages, backend, cfg.tuning.fuse.enabled());
                        let mut handled = 0u64;
                        // Replica k owns frames f ≡ k (mod r) — the
                        // strip order within the lane never changes.
                        let mut f = k as u64;
                        while f < cfg.frames {
                            let w0 = Instant::now();
                            let src = src_ranks[(f % src_ranks.len() as u64) as usize];
                            let raw = recv_bytes(&ep, reliable, src);
                            let r0 = Instant::now();
                            // Decode (CRC verify + one pooled copy) is
                            // the handoff's cost, not the stage's: it is
                            // a Fetch span between the wait and compute.
                            let mut frame = decode_frame_pooled(raw, src, &pool)
                                .expect("frame survived transport");
                            let d0 = Instant::now();
                            let ctx = frame.ctx(cfg.seed);
                            rec.span(frame.id, Phase::Wait, w0, r0);
                            rec.span(frame.id, Phase::Fetch, r0, d0);
                            // A merged group's stages run back-to-back on
                            // this thread: internal hops are plain
                            // function calls, no message, no copy — and a
                            // fused pointwise run collapses further into
                            // one traversal of the strip.
                            let mut prev = d0;
                            for seg in &segments {
                                let img = frame.image.as_mut().expect("pixels");
                                match seg {
                                    ExecSegment::Single(j) => {
                                        chain[*j].apply_vectored(
                                            img,
                                            &ctx,
                                            backend,
                                            kernel_threads,
                                        );
                                        let now = Instant::now();
                                        rec.span_kind(
                                            StageKind::PIPELINE_FILTERS[*j],
                                            frame.id,
                                            Phase::Compute,
                                            prev,
                                            now,
                                        );
                                        prev = now;
                                    }
                                    ExecSegment::Fused(pass, idxs) => {
                                        pass.apply_chunked(img, &ctx, kernel_threads);
                                        let now = Instant::now();
                                        // One traversal served the whole
                                        // run: attribute an equal share of
                                        // the interval to each stage so
                                        // per-stage span totals stay
                                        // meaningful. Degenerate (empty)
                                        // sub-spans are skipped.
                                        let step = (now - prev) / idxs.len() as u32;
                                        for (n, &j) in idxs.iter().enumerate() {
                                            let t0 = prev + step * n as u32;
                                            let t1 = if n + 1 == idxs.len() {
                                                now
                                            } else {
                                                prev + step * (n as u32 + 1)
                                            };
                                            if t1 > t0 {
                                                rec.span_kind(
                                                    StageKind::PIPELINE_FILTERS[j],
                                                    frame.id,
                                                    Phase::Compute,
                                                    t0,
                                                    t1,
                                                );
                                            }
                                        }
                                        prev = now;
                                    }
                                }
                            }
                            let dst = dst_ranks[(f % dst_ranks.len() as u64) as usize];
                            send_bytes(&ep, reliable, dst, encode_frame(&frame));
                            rec.span(frame.id, Phase::Send, prev, Instant::now());
                            pool.release(frame.image.expect("pixels"));
                            handled += 1;
                            f += r as u64;
                        }
                        if cfg.verify {
                            if let Err(e) = ep.audit_arq() {
                                panic!("[arq-legality] {e}");
                            }
                        }
                        (ep.take_wait_samples(), None, rec.into_log(), handled)
                    }),
                ));
            }
        }
    }

    // ---- transfer thread (returns the assembled frames) ----
    {
        let rank = layout.transfer;
        let ep = eps[rank].take().unwrap();
        let cfg = cfg.clone();
        let pool = pool.clone();
        // Last-group replica ranks per lane; frame f's strip arrives
        // from replica f % r of that lane's tail group.
        let swap_ranks: Vec<Vec<usize>> = layout
            .groups
            .iter()
            .map(|g| g.last().unwrap().clone())
            .collect();
        stage_handles.push((
            StageKind::Transfer,
            0,
            thread::spawn(move || {
                let mut rec = SpanRecorder::new(tracing, start, rank, StageKind::Transfer, None);
                let mut out = Vec::with_capacity(cfg.frames as usize);
                for f in 0..cfg.frames {
                    // End of the last recorded span on this thread.
                    let mut mark = Instant::now();
                    let mut strips = Vec::with_capacity(swap_ranks.len());
                    // Per strip: a Wait span until `recv` returns, then a
                    // Fetch span for its decode.
                    for lane in &swap_ranks {
                        let r = lane[(f % lane.len() as u64) as usize];
                        let raw = recv_bytes(&ep, reliable, r);
                        let r0 = Instant::now();
                        let frame =
                            decode_frame_pooled(raw, r, &pool).expect("frame survived transport");
                        let d0 = Instant::now();
                        rec.span(f, Phase::Wait, mark, r0);
                        rec.span(f, Phase::Fetch, r0, d0);
                        mark = d0;
                        strips.push((
                            vswap::mirrored_info(frame.strip),
                            frame.image.expect("pixels"),
                        ));
                    }
                    // The assembled frame leaves with the report, so it
                    // cannot be pooled — but the strips can.
                    out.push(Image::assemble(&strips));
                    rec.span(f, Phase::Compute, mark, Instant::now());
                    for (_, strip) in strips {
                        pool.release(strip);
                    }
                }
                if cfg.verify {
                    if let Err(e) = ep.audit_arq() {
                        panic!("[arq-legality] {e}");
                    }
                }
                (
                    ep.take_wait_samples(),
                    Some(out),
                    rec.into_log(),
                    cfg.frames,
                )
            }),
        ));
    }

    let mut trace = tracing.then(TraceLog::new);
    for h in handles {
        let log = h.join().expect("source thread panicked");
        if let Some(t) = trace.as_mut() {
            t.merge(log);
        }
    }
    let mut frames = Vec::new();
    let mut idle_ms = Vec::new();
    for (kind, pl, h) in stage_handles {
        let (waits, out, log, handled) = h.join().expect("stage thread panicked");
        if let Some(out) = out {
            frames = out;
        }
        if let Some(t) = trace.as_mut() {
            t.merge(log);
        }
        let ms: Vec<f64> = waits.iter().map(|d| d.as_secs_f64() * 1e3).collect();
        if tel.is_enabled() {
            // The transfer stage is unpipelined; "-" matches the other
            // runners' label convention.
            let pl = if kind == StageKind::Transfer {
                "-".to_string()
            } else {
                pl.to_string()
            };
            let labels = [("pipeline", pl.as_str()), ("stage", kind.name())];
            if let Some(h) = tel.histogram(names::STAGE_IDLE_MS, &labels, IDLE_MS_BUCKETS) {
                for m in &ms {
                    h.observe(*m);
                }
            }
            tel.count(names::STAGE_FRAMES_TOTAL, &labels, handled);
        }
        idle_ms.push((kind, pl, Quartiles::from_samples(&ms)));
    }
    if let Some(t) = trace.as_mut() {
        t.sort_by_time();
    }

    let wall = start.elapsed();
    let host = HostTiming::from_wall(
        wall.as_secs_f64(),
        frames.len() as u64,
        cfg.width,
        cfg.height,
    );
    let pool_stats = pool.stats();
    if tel.is_enabled() {
        tel.count(names::FRAMES_TOTAL, &[], frames.len() as u64);
        tel.gauge(names::WALKTHROUGH_SECONDS, &[], wall.as_secs_f64());
        tel.gauge(names::HOST_FRAMES_PER_SEC, &[], host.frames_per_sec);
        tel.gauge(names::HOST_MPIXELS_PER_SEC, &[], host.mpixels_per_sec);
        tel.count(names::POOL_RECYCLED_TOTAL, &[], pool_stats.recycled);
        tel.count(names::POOL_FRESH_TOTAL, &[], pool_stats.fresh);
        if let Some(t) = trace.as_ref() {
            t.record_into(&tel);
        }
    }
    if !cfg.trace {
        trace = None;
    }
    NativeReport {
        wall,
        frames,
        idle_ms,
        host,
        pool_stats,
        trace,
        telemetry: tel.snapshot(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::reference_frames;
    use crate::spec::{Arrangement, Fidelity, NativeTuning};
    use scc_render::CityConfig;

    fn scene() -> Arc<Scene> {
        Arc::new(Scene::city(CityConfig {
            side: 8,
            spacing: 8.0,
            seed: 3,
        }))
    }

    fn cfg(mode: RendererMode, pipelines: u32, frames: u64) -> RunConfig {
        RunConfig::builder()
            .renderer(mode)
            .arrangement(Arrangement::Ordered)
            .pipelines(pipelines)
            .size(64, 64)
            .frames(frames)
            .seed(77)
            .fidelity(Fidelity::Full)
            .build()
            .expect("valid test config")
    }

    #[test]
    fn frame_codec_roundtrip() {
        let mut img = Image::new(8, 4);
        img.set(3, 2, [9, 8, 7, 6]);
        let frame = Frame {
            id: 42,
            strip: StripInfo {
                index: 1,
                count: 3,
                y0: 4,
                height: 4,
                full_height: 12,
            },
            full_width: 8,
            image: Some(img.clone()),
        };
        let decoded = decode_frame(encode_frame(&frame));
        assert_eq!(decoded.id, 42);
        assert_eq!(decoded.strip, frame.strip);
        assert_eq!(decoded.image.unwrap(), img);
    }

    #[test]
    fn encode_frame_wire_bytes_are_pinned() {
        // The exact layout perfbench's replay relies on (`bytes[36..]` are
        // the pixels): big-endian CRC over bytes 4.., then id, index,
        // count, y0, height, full_height, full_width, then RGBA rows.
        let mut img = Image::new(2, 2);
        img.set(0, 0, [1, 2, 3, 4]);
        img.set(1, 0, [5, 6, 7, 8]);
        img.set(0, 1, [9, 10, 11, 12]);
        img.set(1, 1, [13, 14, 15, 255]);
        let frame = Frame {
            id: 0x0102_0304_0506_0708,
            strip: StripInfo {
                index: 1,
                count: 2,
                y0: 2,
                height: 2,
                full_height: 4,
            },
            full_width: 2,
            image: Some(img),
        };
        #[rustfmt::skip]
        let expect: [u8; 52] = [
            0xE1, 0x06, 0xAB, 0xAD,
            1, 2, 3, 4, 5, 6, 7, 8,
            0, 0, 0, 1,  0, 0, 0, 2,  0, 0, 0, 2,
            0, 0, 0, 2,  0, 0, 0, 4,  0, 0, 0, 2,
            1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 255,
        ];
        assert_eq!(&encode_frame(&frame)[..], &expect[..]);

        // A full-size strip of the 400×400, p = 2 film.
        let mut strip = Image::new(400, 200);
        for y in 0..200u32 {
            for x in 0..400u32 {
                strip.set(x, y, [(x * 7 + y) as u8, (x ^ y) as u8, (x * y) as u8, 255]);
            }
        }
        let frame = Frame {
            id: 7,
            strip: StripInfo {
                index: 1,
                count: 2,
                y0: 200,
                height: 200,
                full_height: 400,
            },
            full_width: 400,
            image: Some(strip),
        };
        let wire = encode_frame(&frame);
        let fnv1a = wire.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
        assert_eq!(wire.len(), 320_036);
        assert_eq!(wire[..4], 0x31B4_1189u32.to_be_bytes());
        assert_eq!(fnv1a, 0xa808_5a10_f9fc_c572);
        assert_eq!(decode_frame(wire).image, frame.image);
    }

    #[test]
    #[should_panic(expected = "payload size mismatch")]
    fn codec_rejects_bad_payload() {
        // A correctly-checksummed message whose payload length lies about
        // the geometry: the CRC passes, the size check must still fire.
        let mut content = BytesMut::new();
        content.put_u64(0);
        // index, count, y0, height, full_height, full_width.
        for v in [0u32, 1, 0, 4, 4, 8] {
            content.put_u32(v);
        }
        content.put_slice(&[0u8; 3]);
        let mut b = BytesMut::new();
        b.put_u32(crc32(&content));
        b.put_slice(&content);
        decode_frame(b.freeze());
    }

    #[test]
    #[should_panic(expected = "frame payload CRC mismatch")]
    fn codec_rejects_flipped_pixel_bit() {
        let frame = Frame {
            id: 1,
            strip: StripInfo {
                index: 0,
                count: 1,
                y0: 0,
                height: 2,
                full_height: 2,
            },
            full_width: 2,
            image: Some(Image::new(2, 2)),
        };
        let mut raw = encode_frame(&frame).to_vec();
        let last = raw.len() - 1;
        raw[last] ^= 0x40;
        decode_frame(Bytes::from(raw));
    }

    #[test]
    fn checked_decode_reports_corruption_instead_of_panicking() {
        let frame = Frame {
            id: 9,
            strip: StripInfo {
                index: 0,
                count: 1,
                y0: 0,
                height: 1,
                full_height: 1,
            },
            full_width: 4,
            image: Some(Image::new(4, 1)),
        };
        let good = encode_frame(&frame);
        assert!(decode_frame_checked(good.clone(), 3).is_ok());
        let mut bad = good.to_vec();
        bad[20] ^= 1; // somewhere in the header
        assert!(matches!(
            decode_frame_checked(Bytes::from(bad), 3),
            Err(RcceError::Corrupt { rank: 3 })
        ));
        assert!(matches!(
            decode_frame_checked(Bytes::from(vec![1u8; 10]), 5),
            Err(RcceError::Corrupt { rank: 5 })
        ));
    }

    #[test]
    fn native_single_renderer_matches_reference() {
        let c = cfg(RendererMode::SingleRenderer, 2, 4);
        let native = run_native(&c, scene());
        let reference = reference_frames(&c, scene());
        assert_eq!(native.frames.len(), 4);
        assert_eq!(native.frames, reference, "native output != reference");
    }

    #[test]
    fn native_per_pipeline_renderer_matches_its_reference() {
        let c = cfg(RendererMode::PerPipelineRenderer, 3, 3);
        let native = run_native(&c, scene());
        let reference = reference_frames(&c, scene());
        assert_eq!(native.frames, reference);
    }

    #[test]
    fn native_mcpc_mode_matches_reference() {
        let c = cfg(RendererMode::McpcRenderer, 2, 3);
        let native = run_native(&c, scene());
        // The MCPC-mode data path renders full frames and splits — same
        // as the single-renderer reference.
        let mut ref_cfg = c.clone();
        ref_cfg.renderer = RendererMode::SingleRenderer;
        let reference = reference_frames(&ref_cfg, scene());
        assert_eq!(native.frames, reference);
    }

    #[test]
    fn native_auto_placement_matches_reference_all_modes() {
        // The scheduler plan on real threads: merged groups share a
        // thread, replicas stripe frames — the film must still equal the
        // sequential oracle bit-for-bit in every renderer mode.
        for mode in [
            RendererMode::SingleRenderer,
            RendererMode::PerPipelineRenderer,
            RendererMode::McpcRenderer,
        ] {
            let mut c = cfg(mode, 2, 5);
            c.auto_place = true;
            let native = run_native(&c, scene());
            let mut ref_cfg = c.clone();
            if mode == RendererMode::McpcRenderer {
                ref_cfg.renderer = RendererMode::SingleRenderer;
            }
            let reference = reference_frames(&ref_cfg, scene());
            assert_eq!(
                native.frames, reference,
                "{mode:?} diverged under auto placement"
            );
        }
    }

    #[test]
    fn native_auto_placement_survives_message_faults() {
        use crate::spec::FaultSpec;
        let mut c = cfg(RendererMode::SingleRenderer, 2, 4);
        c.auto_place = true;
        c.verify = true;
        c.fault = Some(FaultSpec {
            seed: 0xC1A05,
            drop_rate: 0.05,
            corrupt_rate: 0.05,
            timeout_us: 100_000,
            retry_budget: 5,
            ..FaultSpec::default()
        });
        let native = run_native(&c, scene());
        let mut clean = c.clone();
        clean.fault = None;
        clean.auto_place = false;
        let reference = reference_frames(&clean, scene());
        assert_eq!(native.frames, reference);
    }

    #[test]
    fn idle_stats_are_collected() {
        let c = cfg(RendererMode::SingleRenderer, 2, 6);
        let report = run_native(&c, scene());
        // 2 pipelines × 5 filters + transfer = 11 instrumented stages.
        assert_eq!(report.idle_ms.len(), 11);
        for (_, _, q) in &report.idle_ms {
            let q = q.expect("samples recorded");
            assert!(q.median >= 0.0);
        }
        assert!(report.wall > Duration::ZERO);
    }

    #[test]
    fn kernel_threads_and_pooling_do_not_change_output() {
        let base = cfg(RendererMode::SingleRenderer, 2, 3);
        let reference = reference_frames(&base, scene());
        for (threads, pooled) in [(1u32, false), (4, true), (4, false), (2, true)] {
            let mut c = base.clone();
            c.tuning = NativeTuning {
                kernel_threads: threads,
                buffer_pool: pooled,
                ..NativeTuning::default()
            };
            let report = run_native(&c, scene());
            assert_eq!(
                report.frames, reference,
                "threads={threads} pooled={pooled} diverged from reference"
            );
        }
    }

    #[test]
    fn pool_recycles_and_host_timing_is_populated() {
        let c = cfg(RendererMode::SingleRenderer, 2, 5);
        let report = run_native(&c, scene());
        let s = report.pool_stats;
        assert!(s.recycled > 0, "steady state must reuse buffers: {s:?}");
        assert!(s.returned > 0);
        assert_eq!(report.host.frames, 5);
        assert!(report.host.frames_per_sec > 0.0);
        assert!(report.host.wall_secs > 0.0);

        let mut unpooled = c.clone();
        unpooled.tuning.buffer_pool = false;
        let report = run_native(&unpooled, scene());
        assert_eq!(report.pool_stats, PoolStats::default());
    }

    #[test]
    fn trace_flag_yields_wall_clock_spans() {
        // Regression: `trace: true` used to be silently ignored by the
        // native runner — the report had no field to carry it at all.
        let mut c = cfg(RendererMode::SingleRenderer, 2, 3);
        c.trace = true;
        let report = run_native(&c, scene());
        let log = report.trace.expect("trace requested, trace delivered");
        assert!(!log.is_empty());
        // Every filter stage computed every frame on the wall clock.
        for kind in StageKind::PIPELINE_FILTERS {
            let busy = log.phase_total(kind, crate::trace::Phase::Compute);
            assert!(
                busy > SimTime::ZERO,
                "{} recorded no compute time",
                kind.name()
            );
        }
        // Spans stay within the measured wall-clock window and export to
        // the same Chrome format as the simulator's trace.
        let wall = SimTime::from_ns(report.wall.as_nanos() as u64);
        for e in log.events() {
            assert!(e.t0 < e.t1 && e.t1 <= wall);
        }
        let json = log.to_chrome_json();
        assert!(json.contains(r#""ph":"X""#) && json.contains("compute"));

        let untraced = run_native(&cfg(RendererMode::SingleRenderer, 2, 3), scene());
        assert!(untraced.trace.is_none(), "no trace unless requested");
    }

    #[test]
    fn decode_is_a_fetch_span_per_received_strip() {
        for auto_place in [false, true] {
            let mut c = cfg(RendererMode::SingleRenderer, 2, 4);
            c.trace = true;
            c.auto_place = auto_place;
            let report = run_native(&c, scene());
            let log = report.trace.expect("traced run");
            let mut by_core: std::collections::BTreeMap<u8, Vec<&crate::trace::TraceEvent>> =
                Default::default();
            for e in log.events() {
                by_core.entry(e.core).or_default().push(e);
            }
            let mut received = 0;
            for (core, mut spans) in by_core {
                spans.sort_by_key(|e| (e.t0, e.t1));
                assert!(
                    spans.windows(2).all(|w| w[0].t1 <= w[1].t0),
                    "core {core}: spans overlap (auto_place={auto_place})"
                );
                let fetches: Vec<_> = spans.iter().filter(|e| e.phase == Phase::Fetch).collect();
                let waits = spans.iter().filter(|e| e.phase == Phase::Wait).count();
                let frames: std::collections::BTreeSet<u64> =
                    spans.iter().map(|e| e.frame).collect();
                // Strips this thread received: the renderer none, the
                // transfer thread one per lane per frame, a filter
                // thread one per frame it handled.
                let strips = match spans[0].kind {
                    StageKind::Render => 0,
                    StageKind::Transfer => (c.pipelines as u64 * c.frames) as usize,
                    _ => frames.len(),
                };
                assert_eq!(fetches.len(), strips, "core {core} ({:?})", spans[0].kind);
                assert_eq!(waits, strips, "core {core}: one wait per received strip");
                // Each Fetch starts the instant its Wait ended (`recv`
                // returned) and its strip's frame is the wait's frame.
                for f in fetches {
                    assert!(spans
                        .iter()
                        .any(|w| w.phase == Phase::Wait && w.t1 == f.t0 && w.frame == f.frame));
                }
                received += strips;
            }
            if !auto_place {
                // 4 frames × 2 lanes into five filter threads + transfer.
                assert_eq!(received, 4 * 2 * 6);
            }
        }
    }

    #[test]
    fn deterministic_output_across_runs() {
        let c = cfg(RendererMode::SingleRenderer, 3, 3);
        let a = run_native(&c, scene());
        let b = run_native(&c, scene());
        assert_eq!(a.frames, b.frames);
    }

    #[test]
    fn native_run_survives_drops_and_corruption() {
        use crate::spec::FaultSpec;
        let mut c = cfg(RendererMode::SingleRenderer, 2, 3);
        c.verify = true; // every endpoint's ARQ ledger is audited at exit
        c.fault = Some(FaultSpec {
            seed: 0xC1A05,
            drop_rate: 0.05,
            corrupt_rate: 0.05,
            timeout_us: 100_000, // generous for a loaded 1-CPU host
            retry_budget: 5,
            ..FaultSpec::default()
        });
        let native = run_native(&c, scene());
        let mut clean = c.clone();
        clean.fault = None;
        let reference = reference_frames(&clean, scene());
        assert_eq!(
            native.frames, reference,
            "retry protocol must hide injected message faults"
        );
    }
}
