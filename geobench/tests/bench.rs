//! The benchmark's own tests, at toy size:
//!
//! * every metric `BENCHMARK.json` names is emitted, with its unit, and no
//!   other;
//! * the five counted-cost metrics repeat exactly across runs and across
//!   pool widths 1 and 2;
//! * the oracle rejects a corrupted answer;
//! * the traced run's child-span builds are the service's own builds.

use std::path::PathBuf;
use std::process::Command;

use geobench::oracle::{check, Sample, PRELOAD_GEN};
use geobench::traced::{mesh_child_counts, shard_child_counts, KD_SEED, MESH_SEED};
use geobench::workload::{reader_batch, rng, Preload, Sizes, Stream, Workload, SHARDS, WORKLOADS};
use pwe_asym::cost::measure_default as measure;
use pwe_service::gen::{rt_point, MeshGen, ShardData, ShardGen};
use pwe_service::{Answer, GeometryService, NearestHit, Update};

/// A minimal JSON value, enough for `BENCHMARK.json` and the result line
/// (no string escapes occur in either).
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn parse(text: &str) -> Json {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, p.s.len(), "trailing input after JSON value");
        v
    }

    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(kv) => kv
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .unwrap_or_else(|| panic!("no key {key:?}")),
            _ => panic!("not an object"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            _ => panic!("not a string: {self:?}"),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.s.get(self.i).is_some_and(u8::is_ascii_whitespace) {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> bool {
        self.ws();
        let hit = self.s.get(self.i) == Some(&c);
        self.i += usize::from(hit);
        hit
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut kv = Vec::new();
                while !self.eat(b'}') {
                    let Json::Str(k) = self.value() else {
                        panic!("object key is not a string")
                    };
                    assert!(self.eat(b':'), "missing ':'");
                    kv.push((k, self.value()));
                    self.eat(b',');
                }
                Json::Obj(kv)
            }
            b'[' => {
                self.i += 1;
                let mut items = Vec::new();
                while !self.eat(b']') {
                    items.push(self.value());
                    self.eat(b',');
                }
                Json::Arr(items)
            }
            b'"' => {
                let start = self.i + 1;
                let len = self.s[start..]
                    .iter()
                    .position(|&c| c == b'"')
                    .expect("closed string");
                self.i = start + len + 1;
                Json::Str(String::from_utf8(self.s[start..start + len].to_vec()).expect("utf-8"))
            }
            b't' | b'f' => {
                let t = self.s[self.i] == b't';
                self.i += if t { 4 } else { 5 };
                Json::Bool(t)
            }
            _ => {
                let start = self.i;
                while self
                    .s
                    .get(self.i)
                    .is_some_and(|c| c.is_ascii_digit() || b"+-.eE".contains(c))
                {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).expect("ascii number");
                Json::Num(
                    text.parse()
                        .unwrap_or_else(|_| panic!("bad number {text:?}")),
                )
            }
        }
    }
}

fn benchmark_json() -> Json {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
}

/// `(name, unit)` of every metric in a `BENCHMARK.json` section.
fn declared(section: &str) -> Vec<(String, String)> {
    let Json::Arr(items) = benchmark_json().get(section).clone() else {
        panic!("{section} is not a list")
    };
    items
        .iter()
        .map(|m| {
            (
                m.get("name").str().to_string(),
                m.get("unit").str().to_string(),
            )
        })
        .collect()
}

/// Run the benchmark at toy size; returns the parsed result line.
fn run_toy(workload: &str, seed: u64, trace: bool, pool: Option<usize>) -> Json {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_geobench"));
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "0.5", "--trace", if trace { "1" } else { "0" }])
        .args(["--scale", "toy"]);
    if let Some(n) = pool {
        cmd.env("RAYON_NUM_THREADS", n.to_string());
    }
    let out = cmd.output().expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(out.status.success(), "{workload} failed:\n{stdout}");
    let result = Json::parse(stdout.lines().last().expect("a result line"));
    assert_eq!(result.get("correct"), &Json::Bool(true));
    assert_eq!(result.get("failed"), &Json::Num(0.0));
    result
}

fn emitted(result: &Json) -> Vec<(String, String)> {
    let Json::Obj(metrics) = result.get("metrics") else {
        panic!("metrics is not an object")
    };
    metrics
        .iter()
        .map(|(k, v)| (k.clone(), v.get("unit").str().to_string()))
        .collect()
}

#[test]
fn every_declared_metric_is_emitted_with_its_unit() {
    let workloads = benchmark_json().get("workloads").clone();
    let Json::Arr(workloads) = workloads else {
        panic!("workloads is not a list")
    };
    let names: Vec<&str> = workloads.iter().map(|w| w.get("name").str()).collect();
    let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    assert_eq!(
        names, known,
        "BENCHMARK.json lists the benchmark's workloads"
    );
    for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
        let mut want = declared(section);
        want.sort();
        for name in &names {
            let mut got = emitted(&run_toy(name, 7, trace, None));
            got.sort();
            assert_eq!(got, want, "{name}: {section} metrics and units");
        }
    }
}

#[test]
fn cost_counts_repeat_across_runs_and_pool_widths() {
    const COUNTS: [&str; 5] = [
        "setup_writes_per_elem",
        "setup_reads_per_elem",
        "apply_writes_per_update",
        "apply_reads_per_update",
        "query_reads_per_query",
    ];
    for wl in &WORKLOADS {
        let runs: Vec<Json> = [Some(1), Some(2), Some(2)]
            .into_iter()
            .map(|pool| run_toy(wl.name, 3, false, pool))
            .collect();
        for name in COUNTS {
            let values: Vec<&Json> = runs
                .iter()
                .map(|r| r.get("metrics").get(name).get("value"))
                .collect();
            assert!(
                values.windows(2).all(|w| w[0] == w[1]),
                "{}: {name} differs across runs or pool widths: {values:?}",
                wl.name
            );
        }
    }
}

#[test]
fn oracle_rejects_a_corrupted_answer() {
    let sizes = Sizes::TOY;
    let preload = Preload::generate(5, sizes);
    let svc = GeometryService::new(SHARDS);
    assert_eq!(svc.apply(&preload.batch).gen_id, PRELOAD_GEN);
    let wl = Workload::named("point-mix").expect("a workload");
    let mut r = rng(5, Stream::Reader);
    let queries = reader_batch(&mut r, &wl, sizes);
    let good = Sample {
        answers: svc.serve(&queries),
        queries,
    };
    assert_eq!(check(&preload, &[], std::slice::from_ref(&good)), 0);

    let corruptions: [fn(&mut Answer) -> bool; 3] = [
        |a| match a {
            Answer::Ids(ids) => {
                ids.push(u64::MAX);
                true
            }
            _ => false,
        },
        |a| match a {
            Answer::Nearest(Some(NearestHit { id, .. })) => {
                *id ^= 1;
                true
            }
            _ => false,
        },
        |a| match a {
            Answer::Located(Some(tri)) => {
                tri[0] ^= 1;
                true
            }
            _ => false,
        },
    ];
    for corrupt in corruptions {
        let mut bad = good.clone();
        let hit = bad.answers.answers.iter_mut().any(corrupt);
        assert!(hit, "the batch holds an answer of the corrupted kind");
        assert_eq!(check(&preload, &[], &[good.clone(), bad]), 1);
    }
    let mut wrong_gen = good.clone();
    wrong_gen.answers.gen_id += 1;
    assert_eq!(check(&preload, &[], &[wrong_gen]), 1);
}

/// The `kdtree` and `delaunay` child spans rebuild with copies of seeds that
/// are private to `pwe_service::gen`.  Builds count their reads and writes
/// exactly, so equal counts show that the child spans report the service's
/// own counted cost.  The Delaunay counts depend on the seed, so for the mesh
/// they also show that the copied seed still agrees; the k-d tree's counts do
/// not, so a drift of its seed could move only the `kdtree` span's time.
#[test]
fn child_span_builds_match_the_service_builds() {
    let preload = Preload::generate(5, Sizes::TOY);
    let mut d = ShardData::default();
    for u in &preload.batch.updates {
        match *u {
            Update::InsertInterval(iv) => d.intervals.push(iv),
            Update::InsertPoint { x, y, id } => d.points.push(rt_point(x, y, id)),
            _ => {}
        }
    }
    // Both services build an id map from a seeded permutation of their n
    // elements besides the structures: n reads and 2n writes.
    let with_perm = |(r, w): (u64, u64), n: usize| (r + n as u64, w + 2 * n as u64);

    let (_, whole) = measure(|| ShardGen::build(&d));
    let children = shard_child_counts(&d, KD_SEED);
    assert_eq!(
        (whole.reads, whole.writes),
        with_perm(children, d.points.len())
    );

    let ids: Vec<u64> = (0..preload.sites.len() as u64).collect();
    let (_, whole) = measure(|| MeshGen::build(&preload.sites, &ids));
    let child = mesh_child_counts(&preload.sites, MESH_SEED);
    assert_eq!(
        (whole.reads, whole.writes),
        with_perm(child, preload.sites.len())
    );
    assert_ne!(
        mesh_child_counts(&preload.sites, MESH_SEED ^ 1),
        child,
        "counts see the seed"
    );
}
