//! The benchmark's own span recorder: spans around the calls it makes
//! into each layer, kept in memory and written out as a Chrome trace when
//! the run ends.

use scc_telemetry::Json;
use std::time::Instant;

/// One timed call. `id` is the frame or session the call served; every
/// span of one frame shares it.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: Option<usize>,
    pub t0_ns: u64,
    pub t1_ns: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.t1_ns - self.t0_ns) as f64 / 1e9
    }
}

/// Spans in the order they were opened.
pub struct SpanLog {
    base: Instant,
    spans: Vec<Span>,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog {
            base: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl SpanLog {
    fn now_ns(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`SpanLog::close`].
    pub fn open(&mut self, name: &'static str, id: u64, parent: Option<usize>) -> usize {
        let t = self.now_ns();
        self.spans.push(Span {
            name,
            id,
            parent,
            t0_ns: t,
            t1_ns: t,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, span: usize) {
        self.spans[span].t1_ns = self.now_ns();
    }

    /// Run `f` inside a span named `name`.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let s = self.open(name, id, parent);
        let r = std::hint::black_box(f());
        self.close(s);
        r
    }

    /// Summed duration of every span named `name`, in seconds.
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .sum()
    }

    /// A span's duration minus the part of it its children cover. The
    /// benchmark's calls are sequential, so children never overlap.
    pub fn self_secs(&self, span: usize) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(span))
            .map(Span::secs)
            .sum();
        self.spans[span].secs() - children
    }

    /// Chrome trace events for these spans (`pid` 1, one thread), with
    /// the id, parent and self time in `args`.
    pub fn chrome_events(&self) -> Vec<Json> {
        self.spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let args = Json::obj()
                    .field("id", Json::U64(s.id))
                    .field(
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::U64(p as u64)),
                    )
                    .field("span", Json::U64(i as u64))
                    .field("self_us", Json::F64(self.self_secs(i) * 1e6));
                chrome_event(s.name, "replay", s.t0_ns, s.t1_ns, 1, 0, args)
            })
            .collect()
    }
}

/// One complete (`"ph": "X"`) Chrome trace event; times in nanoseconds.
pub fn chrome_event(
    name: &str,
    cat: &str,
    t0_ns: u64,
    t1_ns: u64,
    pid: u64,
    tid: u64,
    args: Json,
) -> Json {
    Json::obj()
        .field("name", Json::str(name))
        .field("cat", Json::str(cat))
        .field("ph", Json::str("X"))
        .field("ts", Json::F64(t0_ns as f64 / 1e3))
        .field("dur", Json::F64((t1_ns - t0_ns) as f64 / 1e3))
        .field("pid", Json::U64(pid))
        .field("tid", Json::U64(tid))
        .field("args", args)
}

/// A Chrome trace document (`chrome://tracing`, Perfetto) with the host
/// record under `otherData`.
pub fn chrome_document(events: Vec<Json>, record: Json) -> String {
    Json::obj()
        .field("traceEvents", Json::Arr(events))
        .field("displayTimeUnit", Json::str("ms"))
        .field("otherData", record)
        .render_compact()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut log = SpanLog::default();
        let root = log.open("frame", 7, None);
        log.time("child", 7, Some(root), || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        log.close(root);
        let child = log.total("child");
        assert!(child > 0.0);
        let own = log.self_secs(root);
        assert!((own + child - log.spans[root].secs()).abs() < 1e-12);
        assert_eq!(log.spans[1].id, 7);
    }
}
