//! Benchmark self-tests. The full-size Table I comparison simulates 24
//! walkthroughs; run the suite with `--release`:
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use perfbench::metrics::{end_to_end, per_layer, MetricDef, MODE_NAMES, PIPELINES};
use perfbench::{papersim, run, spans::SpanLog, Opts, Outcome, WORKLOADS};
use scc_core::{reference::reference_frames, Arrangement, RunConfig};
use std::collections::BTreeMap;
use std::sync::Arc;

fn smoke(workload: &str, seed: u64, trace: bool) -> Outcome {
    let opts = Opts {
        workload: workload.into(),
        seed,
        seconds: 0.0,
        trace,
        smoke: true,
    };
    run(&opts).expect("known workload")
}

fn names(defs: &[MetricDef]) -> Vec<String> {
    defs.iter().map(|d| d.name.clone()).collect()
}

#[test]
fn smoke_run_of_every_workload_completes_and_checks_out() {
    for w in WORKLOADS {
        for trace in [false, true] {
            let out = smoke(w, 7, trace);
            assert!(out.correct(), "{w} trace={trace}: {:?}", out.failures);
            assert!(out.attempted >= 1);
            let defs = if trace { per_layer() } else { end_to_end() };
            for name in out.metrics.keys() {
                assert!(names(&defs).contains(name), "{w}: stray metric {name}");
            }
            if !trace {
                // Every end-to-end metric is measured, finite and non-zero.
                for d in &defs {
                    let v = out.metrics[&d.name];
                    assert!(v.is_finite() && v > 0.0, "{w}: {} = {v}", d.name);
                }
            } else {
                assert!(!out.trace_events.is_empty(), "{w}: no trace spans");
                assert!(out.metrics.contains_key("telemetry.overhead_pct"));
            }
        }
    }
}

#[test]
fn another_seed_changes_the_inputs_but_not_the_metric_names() {
    let a = perfbench::film::config(1, true);
    let b = perfbench::film::config(2, true);
    let scene = scc_core::default_scene();
    let sums = |cfg: &RunConfig| -> Vec<u64> {
        reference_frames(cfg, Arc::clone(&scene))
            .iter()
            .map(|f| perfbench::checksum(f.as_bytes()))
            .collect()
    };
    assert_ne!(sums(&a), sums(&b), "the seed must reach the frames");
    assert_ne!(
        perfbench::serving::config(1, true).run.seed,
        perfbench::serving::config(2, true).run.seed
    );
    for w in WORKLOADS {
        for trace in [false, true] {
            let x: Vec<String> = smoke(w, 1, trace).metrics.into_keys().collect();
            let y: Vec<String> = smoke(w, 2, trace).metrics.into_keys().collect();
            assert_eq!(x, y, "{w} trace={trace}");
        }
    }
}

#[test]
fn metric_names_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = json::parse(&text);
    let listed = |key: &str| -> Vec<(String, String, String)> {
        doc.get(key)
            .and_then(json::Value::array)
            .expect(key)
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(json::Value::string).expect(k).to_string();
                (s("name"), s("unit"), s("better"))
            })
            .collect()
    };
    let ours = |defs: Vec<MetricDef>| -> Vec<(String, String, String)> {
        defs.into_iter()
            .map(|d| (d.name, d.unit.to_string(), d.better.name().to_string()))
            .collect()
    };
    assert_eq!(listed("end_to_end"), ours(end_to_end()));
    assert_eq!(listed("per_layer"), ours(per_layer()));
    let workloads: Vec<String> = doc
        .get("workloads")
        .and_then(json::Value::array)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(json::Value::string)
                .expect("name")
                .to_string()
        })
        .collect();
    assert_eq!(workloads, WORKLOADS);
}

#[test]
fn static_points_equal_the_ordered_column_of_experiments_fig9_to_fig11() {
    let scene = scc_bench::experiments::standard_scene();
    let seed = RunConfig::default().seed;
    let points: Vec<papersim::Point> = papersim::points(seed, false)
        .into_iter()
        .filter(|p| !p.governed)
        .collect();
    let runs = papersim::pass(&points, &scene, false, &mut SpanLog::default());
    let mut ours = BTreeMap::new();
    for (pt, r) in points.iter().zip(&runs) {
        ours.insert((MODE_NAMES[pt.mode], pt.pipelines), r.walkthrough_s);
    }
    let figures = [
        scc_bench::experiments::fig9(&scene),
        scc_bench::experiments::fig10(&scene),
        scc_bench::experiments::fig11(&scene),
    ];
    for (mode, fig) in MODE_NAMES.iter().zip(&figures) {
        for p in PIPELINES {
            let paper_point = fig
                .iter()
                .find(|s| s.arrangement == Arrangement::Ordered && s.pipelines == p)
                .expect("figure point");
            assert_eq!(
                ours[&(*mode, p)].to_bits(),
                paper_point.secs.to_bits(),
                "sim.{mode}.p{p}.walkthrough_s"
            );
        }
    }
}

/// Just enough JSON to read `BENCHMARK.json`.
mod json {
    #[derive(Debug)]
    pub enum Value {
        Null,
        Bool,
        Num,
        Str(String),
        Arr(Vec<Value>),
        Obj(Vec<(String, Value)>),
    }

    impl Value {
        pub fn get(&self, key: &str) -> Option<&Value> {
            match self {
                Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
        }
        pub fn array(&self) -> Option<&[Value]> {
            match self {
                Value::Arr(items) => Some(items),
                _ => None,
            }
        }
        pub fn string(&self) -> Option<&str> {
            match self {
                Value::Str(s) => Some(s),
                _ => None,
            }
        }
    }

    pub fn parse(text: &str) -> Value {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, p.s.len(), "trailing characters");
        v
    }

    struct Parser<'a> {
        s: &'a [u8],
        i: usize,
    }

    impl Parser<'_> {
        fn ws(&mut self) {
            while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
                self.i += 1;
            }
        }
        fn eat(&mut self, c: u8) {
            self.ws();
            assert_eq!(self.s[self.i], c, "expected {:?} at {}", c as char, self.i);
            self.i += 1;
        }
        fn peek(&mut self) -> u8 {
            self.ws();
            self.s[self.i]
        }
        fn value(&mut self) -> Value {
            match self.peek() {
                b'{' => {
                    self.eat(b'{');
                    let mut fields = Vec::new();
                    while self.peek() != b'}' {
                        let Value::Str(k) = self.value() else {
                            panic!("object key")
                        };
                        self.eat(b':');
                        fields.push((k, self.value()));
                        if self.peek() == b',' {
                            self.eat(b',');
                        }
                    }
                    self.eat(b'}');
                    Value::Obj(fields)
                }
                b'[' => {
                    self.eat(b'[');
                    let mut items = Vec::new();
                    while self.peek() != b']' {
                        items.push(self.value());
                        if self.peek() == b',' {
                            self.eat(b',');
                        }
                    }
                    self.eat(b']');
                    Value::Arr(items)
                }
                b'"' => {
                    self.i += 1;
                    let start = self.i;
                    while self.s[self.i] != b'"' {
                        assert_ne!(self.s[self.i], b'\\', "escapes are not used");
                        self.i += 1;
                    }
                    self.i += 1;
                    Value::Str(String::from_utf8(self.s[start..self.i - 1].to_vec()).unwrap())
                }
                b't' | b'f' | b'n' => {
                    let word_end = self.s[self.i..]
                        .iter()
                        .position(|c| !c.is_ascii_alphabetic())
                        .map_or(self.s.len(), |n| self.i + n);
                    let word = &self.s[self.i..word_end];
                    self.i = word_end;
                    match word {
                        b"true" | b"false" => Value::Bool,
                        b"null" => Value::Null,
                        _ => panic!("bad literal"),
                    }
                }
                _ => {
                    while self.i < self.s.len()
                        && (self.s[self.i].is_ascii_digit() || b"+-.eE".contains(&self.s[self.i]))
                    {
                        self.i += 1;
                    }
                    Value::Num
                }
            }
        }
    }
}
