//! The repository's benchmark: four seeded workloads run from one process
//! through the public API that `ampc-cc` and `ampc-net` clients use.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload build-forest --seed 1 --seconds 24 --trace 0
//! ```
//!
//! Every workload builds services (`graph::io::load` + `ServiceBuilder::build`)
//! and drives closed-loop wire traffic against an in-process `ampc-net`
//! server (`workers = 2`); the workload decides where the measured seconds
//! go:
//!
//! * `build-forest` — repeated builds of a 2^20-vertex random forest
//!   (Algorithm 1, Theorem 1.1), each followed by 1 s of query frames beside
//!   insert batches on the new service;
//! * `build-general` — the same on a G(2^18, 2^20) random graph
//!   (Algorithm 2, Theorem 1.2);
//! * `serve-read` — epoch 0 of the forest is built during set-up; slices in
//!   which two connections send 1024-query frames alternate with inserts
//!   sent to a second service built from the same graph;
//! * `serve-mixed` — the same set-up; one connection sends query frames
//!   while the other sends 64-edge insert batches, moving the epoch.
//!
//! With `--trace 0` the result carries the end-to-end metrics; with
//! `--trace 1` it carries the per-layer metrics, from spans recorded around
//! every public call and from in-process replays of the server's per-frame
//! work. Output lines: a run header, detail lines, and last the result.

mod oracle;
mod probes;
mod spans;
mod stages;
mod stats;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{BufWriter, Write as _};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use ampc::rng::{derive_seed, SplitMix64};
use ampc::DhtBackend;
use ampc_cc::pipeline::PipelineSpec;
use ampc_graph::generators::{erdos_renyi_gnm, random_forest};
use ampc_graph::{Graph, Labeling, VertexId};
use ampc_query::workload::{self, Mix};
use ampc_query::Query;
use ampc_serve::ServiceHandle;

use oracle::Oracle;
use spans::Tracer;
use stages::{BuildSample, Served, Stream, Traffic};
use stats::{median, quantile};

/// Queries per wire frame.
const FRAME_QUERIES: usize = 1024;
/// Distinct query frames per run, sent round-robin.
const FRAMES: usize = 64;
/// Edges per insert batch.
const INSERT_EDGES: usize = 64;
/// Distinct insert batches per run. The insert stream sends them in order
/// and then again from the start, so the final epoch's partition is known
/// before the run: a pass over 256 batches takes tens of milliseconds.
const INSERT_BATCHES: usize = 256;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Fewest builds a build workload makes, whatever `--seconds` says.
const MIN_BUILDS: usize = 3;
/// Length of the burst of reads beside inserts that follows each build on
/// the build workloads.
const BURST: Duration = Duration::from_secs(1);
/// `serve-read` alternates reads and inserts in slices of these lengths.
const READ_SLICE: Duration = Duration::from_secs(2);
const INSERT_SLICE: Duration = Duration::from_millis(500);
/// Round trips of the loopback echo floor.
const ECHO_ROUND_TRIPS: usize = 2000;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    BuildForest,
    BuildGeneral,
    ServeRead,
    ServeMixed,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        Some(match s {
            "build-forest" => Workload::BuildForest,
            "build-general" => Workload::BuildGeneral,
            "serve-read" => Workload::ServeRead,
            "serve-mixed" => Workload::ServeMixed,
            _ => return None,
        })
    }

    fn name(self) -> &'static str {
        match self {
            Workload::BuildForest => "build-forest",
            Workload::BuildGeneral => "build-general",
            Workload::ServeRead => "serve-read",
            Workload::ServeMixed => "serve-mixed",
        }
    }

    /// The workload's graph: the forest for every workload but
    /// `build-general`.
    fn graph(self, seed: u64) -> Graph {
        let graph_seed = derive_seed(&[seed, 1]);
        match self {
            Workload::BuildGeneral => erdos_renyi_gnm(1 << 18, 1 << 20, graph_seed),
            _ => random_forest(1 << 20, 1 << 12, graph_seed),
        }
    }

    fn builds_in_setup(self) -> bool {
        matches!(self, Workload::ServeRead | Workload::ServeMixed)
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: u64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if s == 0 {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Attempted and failed operations: builds, frames, insert batches and
/// checks of the in-process engine.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn add(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    fn op(&mut self, ok: bool) {
        self.add(1, u64::from(!ok));
    }
}

/// Everything a set-up produces. The set-up is deterministic in the seed,
/// so repeating it only re-measures it.
struct Setup {
    graph: Graph,
    path: PathBuf,
    reference: Labeling,
    base: Oracle,
    last: Oracle,
    inserts: Vec<Vec<(VertexId, VertexId)>>,
    /// Serve workloads: the service whose epoch 0 was built here.
    service: Option<ServiceHandle>,
}

fn insert_batches(n: usize, seed: u64) -> Vec<Vec<(VertexId, VertexId)>> {
    let mut rng = SplitMix64::new(derive_seed(&[seed, 3]));
    (0..INSERT_BATCHES)
        .map(|_| {
            (0..INSERT_EDGES)
                .map(|_| {
                    (rng.next_below(n as u64) as VertexId, rng.next_below(n as u64) as VertexId)
                })
                .collect()
        })
        .collect()
}

/// Writes `g` as an edge list. Buffered: `graph::io::save` writes straight
/// to the file, one small write per line, which would make set-up time a
/// syscall count.
fn write_graph(g: &Graph, path: &Path) -> Result<(), String> {
    let file =
        std::fs::File::create(path).map_err(|e| format!("create {}: {e}", path.display()))?;
    let mut w = BufWriter::new(file);
    ampc_graph::io::write_edge_list(g, &mut w)
        .and_then(|()| w.flush())
        .map_err(|e| format!("write {}: {e}", path.display()))
}

/// Generates the workload's inputs from the seed, writes the edge list the
/// builds load, and computes the oracles; serve workloads also build the
/// service whose epoch 0 they query.
fn set_up(
    args: &Args,
    spec: &PipelineSpec,
    path: &Path,
    tracer: &Tracer,
    tally: &mut Tally,
    builds: &mut Vec<BuildSample>,
) -> Result<Setup, String> {
    let g = args.workload.graph(args.seed);
    write_graph(&g, path)?;
    let reference = ampc_graph::reference_components(&g);
    let base = Oracle::new(&g, &[]);
    let inserts = insert_batches(g.n(), args.seed);
    let all_inserted: Vec<_> = inserts.iter().flatten().copied().collect();
    let last = Oracle::new(&g, &all_inserted);
    let mut setup =
        Setup { graph: g, path: path.to_path_buf(), reference, base, last, inserts, service: None };
    if args.workload.builds_in_setup() {
        setup.service = Some(build(&setup, spec, tracer, tally, builds)?);
    }
    Ok(setup)
}

/// Query frames over the service's epoch 0, and the in-process engine's
/// answers to them, each checked against the union-find oracle.
fn frames_for(
    service: &ServiceHandle,
    base: &Oracle,
    seed: u64,
    tally: &mut Tally,
) -> (Vec<Vec<Query>>, Vec<Vec<u64>>) {
    let snap = service.snapshot();
    let queries = workload::generate(
        snap.index(),
        Mix::Uniform,
        FRAMES * FRAME_QUERIES,
        derive_seed(&[seed, 2]),
    );
    let frames: Vec<Vec<Query>> = queries.chunks(FRAME_QUERIES).map(<[Query]>::to_vec).collect();
    let engine = snap.engine();
    let expected: Vec<Vec<u64>> =
        frames.iter().map(|f| f.iter().map(|&q| engine.answer(q)).collect()).collect();
    for (frame, answers) in frames.iter().zip(&expected) {
        tally.op(oracle::exact(base, frame, answers));
    }
    (frames, expected)
}

/// Raw samples of the measured part of a run.
struct Measured {
    setup_s: Vec<f64>,
    builds: Vec<BuildSample>,
    /// The stream the read metrics come from: the read stage, or on
    /// `serve-mixed` the reads beside inserts.
    reads: Stream,
    inserts: Stream,
    stats: ampc::RunStats,
    /// `(n, m)` of the workload's graph, before any insert.
    graph_size: (usize, usize),
    epochs_published: u64,
}

fn git_rev() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else { return head };
    if let Ok(rev) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                l.strip_suffix(reference).and_then(|h| h.strip_suffix(' ')).map(str::to_string)
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Peak resident set of this process (VmHWM), MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// One timed build over the set-up's edge list, checked against its
/// union-find labeling.
fn build(
    setup: &Setup,
    spec: &PipelineSpec,
    tracer: &Tracer,
    tally: &mut Tally,
    builds: &mut Vec<BuildSample>,
) -> Result<ServiceHandle, String> {
    let (service, sample, ok) = stages::timed_build(&setup.path, spec, &setup.reference, tracer)?;
    tally.op(ok);
    builds.push(sample);
    Ok(service)
}

fn run(args: &Args, out: &mut Vec<String>) -> Result<bool, String> {
    let tracer = Tracer::new(args.trace);
    let spec = PipelineSpec::default()
        .with_backend(DhtBackend::parse("dense").expect("dense is a backend name"));
    let dir = PathBuf::from(".bench_build/perfbench-data");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(format!("{}-{}.txt", args.workload.name(), args.seed));
    let mut tally = Tally::default();
    let mut builds = Vec::new();

    // Set-up, several times: its median is `setup_s`.
    let mut setup_s = Vec::new();
    let mut setup: Option<Setup> = None;
    let mut spare = None;
    for i in 0..SETUPS {
        // Free the previous set-up's service before the next build, except
        // the one serve-read sends its inserts to.
        if let Some(mut previous) = setup.take() {
            if args.workload == Workload::ServeRead && i + 1 == SETUPS {
                spare = previous.service.take();
            }
        }
        let t0 = Instant::now();
        let s = set_up(args, &spec, &path, &tracer, &mut tally, &mut builds)?;
        let t1 = Instant::now();
        tracer.record("setup", 0, 0, tracer.at(t0), tracer.at(t1));
        setup_s.push((t1 - t0).as_secs_f64());
        setup = Some(s);
    }
    let mut setup = setup.expect("at least one set-up");
    eprintln!("perfbench: {} set up in {:.2} s", args.workload.name(), median(&setup_s));

    let seconds = Duration::from_secs(args.seconds);
    let deadline = Instant::now() + seconds;
    let mut service = match setup.service.take() {
        Some(service) => service,
        None => build(&setup, &spec, &tracer, &mut tally, &mut builds)?,
    };
    let (frames, expected) = frames_for(&service, &setup.base, args.seed, &mut tally);
    let traffic = Traffic {
        graph: &setup.graph,
        frames: &frames,
        expected: &expected,
        base: &setup.base,
        last: &setup.last,
        inserts: &setup.inserts,
    };
    let mut reads = Stream::default();
    let mut inserts = Stream::default();
    let mut closing = Stream::default();
    match args.workload {
        Workload::BuildForest | Workload::BuildGeneral => loop {
            // After each build, one connection reads beside one that
            // inserts, on the new service, so the wire samples are spread
            // over the whole run. Builds go on until the next one would
            // overrun the seconds, and never stop before the minimum.
            let t0 = Instant::now();
            let mut served = Served::start(&service)?;
            let (beside, batches) = served.insert(&traffic, BURST, &tracer);
            reads.append(beside);
            inserts.append(batches);
            closing.append(served.finish(&traffic));
            let last_build = builds.last().map_or(0.0, |b: &BuildSample| b.build_s);
            let iteration = t0.elapsed() + Duration::from_secs_f64(last_build);
            if builds.len() >= MIN_BUILDS && Instant::now() + iteration > deadline {
                break;
            }
            drop(service); // free the previous service before the next build
            service = build(&setup, &spec, &tracer, &mut tally, &mut builds)?;
        },
        Workload::ServeRead => {
            // Reads on epoch 0 alternate with insert bursts, beside reads,
            // sent to a second service over the same graph: the insert
            // samples are spread over the run and the timed reads never see
            // a journal epoch.
            let spare = spare.take().expect("serve-read keeps a second service");
            let target = Served::start(&service)?;
            let mut writes = Served::start(&spare)?;
            while Instant::now() < deadline {
                let left = deadline.saturating_duration_since(Instant::now());
                reads.append(target.read(&traffic, READ_SLICE.min(left), &tracer));
                let left = deadline.saturating_duration_since(Instant::now());
                let (beside, batches) = writes.insert(&traffic, INSERT_SLICE.min(left), &tracer);
                // The reads beside these inserts are checked and counted,
                // but their round trips are not the read metrics.
                tally.add(beside.attempted, beside.failed);
                inserts.append(batches);
            }
            closing.append(target.finish(&traffic));
            closing.append(writes.finish(&traffic));
        }
        Workload::ServeMixed => {
            let mut served = Served::start(&service)?;
            let (beside, batches) = served.insert(&traffic, seconds, &tracer);
            reads.append(beside);
            inserts.append(batches);
            closing.append(served.finish(&traffic));
        }
    }
    for stream in [&reads, &inserts, &closing] {
        tally.add(stream.attempted, stream.failed);
    }
    let snap = service.snapshot();
    let stats = snap.stats().clone();
    drop(snap);
    let epochs_published = service.current_epoch() + 1;
    let graph_size = (setup.graph.n(), setup.graph.m());
    let measured =
        Measured { setup_s, builds, reads, inserts, stats, graph_size, epochs_published };

    let e2e = end_to_end(&measured);
    let mut layers = BTreeMap::new();
    let mut samples: BTreeMap<&str, usize> = BTreeMap::new();
    samples.insert("setup_s", measured.setup_s.len());
    samples.insert("build_s", measured.builds.len());
    samples.insert("frame_rtt", measured.reads.rtt_us.len());
    samples.insert("insert_rtt", measured.inserts.rtt_us.len());
    if args.trace {
        // Before the replay, which inserts into `service`: the ceiling is
        // taken on the epoch the wire reads of `serve-read` run on.
        let batch_qps = probes::batch_qps(&service, &frames);
        let replay = probes::replay_frames(
            &service,
            &frames,
            &setup.inserts,
            args.workload == Workload::ServeMixed,
            &tracer,
        );
        tally.add(replay.frames, replay.mismatches);
        let floors = Floors {
            uf_s: probes::uf_floor_s(&setup.graph),
            chase_ns: probes::dht_chase_ns(setup.graph.n(), derive_seed(&[args.seed, 4])),
            loopback_us: probes::loopback_floor_us(FRAME_QUERIES, ECHO_ROUND_TRIPS)
                .map_err(|e| format!("loopback floor: {e}"))?,
            batch_qps,
        };
        samples.insert("replay_frames", replay.frames as usize);
        samples.insert("loopback_rtt", ECHO_ROUND_TRIPS);
        layers = per_layer(&measured, &e2e, &replay, &floors);
        out.push(reference_line(&e2e, &layers));
        out.extend(write_spans(args, &tracer.spans(), &e2e)?);
    }
    drop(service);
    let _ = std::fs::remove_file(&path);

    let correct = tally.failed == 0;
    out.insert(0, header_line(args, &samples));
    out.push(format!(
        "{{\"error_rate\": {}, \"attempted\": {}, \"failed\": {}}}",
        tally.failed as f64 / tally.attempted as f64,
        tally.attempted,
        tally.failed
    ));
    let metrics = if args.trace { &layers } else { &e2e };
    out.push(format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.attempted,
        tally.failed,
        metrics_json(metrics)
    ));
    Ok(correct)
}

type Metrics = BTreeMap<&'static str, (f64, &'static str)>;

fn end_to_end(m: &Measured) -> Metrics {
    let build_s: Vec<f64> = m.builds.iter().map(|b| b.build_s).collect();
    let (n, e) = m.graph_size;
    let mut out = Metrics::new();
    out.insert("setup_s", (median(&m.setup_s), "s"));
    out.insert("build_s", (median(&build_s), "s"));
    out.insert("ampc_rounds", (m.stats.rounds() as f64, "count"));
    out.insert("space_ratio", (m.stats.peak_total_space() as f64 / (n + e) as f64, "ratio"));
    out.insert("peak_rss_mb", (peak_rss_mb(), "MiB"));
    out.insert("qps", (m.reads.rate(), "1/s"));
    out.insert("frame_p50_us", (median(&m.reads.rtt_us), "us"));
    out.insert("frame_p90_us", (quantile(&m.reads.rtt_us, 0.9), "us"));
    out.insert("insert_p90_us", (quantile(&m.inserts.rtt_us, 0.9), "us"));
    out
}

struct Floors {
    uf_s: f64,
    chase_ns: f64,
    loopback_us: f64,
    batch_qps: f64,
}

fn per_layer(m: &Measured, e2e: &Metrics, r: &probes::FrameReplay, f: &Floors) -> Metrics {
    let pick = |get: fn(&BuildSample) -> f64| median(&m.builds.iter().map(get).collect::<Vec<_>>());
    let load_s = pick(|b| b.load_s);
    let pipeline_s = pick(|b| b.pipeline_s);
    let reads: usize = m.stats.per_round().iter().map(|r| r.reads).sum();
    let frame_p50 = e2e["frame_p50_us"].0;
    let attributed = r.encode_queries_us
        + r.decode_queries_us
        + r.pin_ns / 1e3
        + r.timed_pass_us
        + r.encode_answers_us
        + r.decode_answers_us;
    let mut out = Metrics::new();
    out.insert("graph.load_s", (load_s, "s"));
    out.insert("graph.uf_floor_s", (f.uf_s, "s"));
    out.insert("core.pipeline_s", (pipeline_s, "s"));
    out.insert("core.pipeline_vs_floor", (pipeline_s / f.uf_s, "ratio"));
    out.insert("ampc.rounds_executed", (m.stats.executed_rounds() as f64, "count"));
    out.insert("ampc.rounds_charged", (m.stats.charged_rounds() as f64, "count"));
    out.insert("ampc.reads", (reads as f64, "count"));
    out.insert("ampc.bytes_shuffled", (m.stats.total_bytes_shuffled() as f64, "bytes"));
    out.insert("ampc.ns_per_read", (pipeline_s * 1e9 / reads as f64, "ns"));
    out.insert("ampc.dht_chase_ns", (f.chase_ns, "ns"));
    out.insert("query.index_build_s", (pick(|b| b.index_s), "s"));
    out.insert("query.answer_us_per_frame", (r.answer_us, "us"));
    out.insert("query.batch_qps", (f.batch_qps, "1/s"));
    out.insert("obs.timed_pass_us_per_frame", (r.timed_pass_us, "us"));
    out.insert("obs.overhead_us_per_frame", (r.timed_pass_us - r.answer_us, "us"));
    out.insert("serve.pin_ns", (r.pin_ns, "ns"));
    out.insert("serve.insert_us", (r.insert_us, "us"));
    out.insert("serve.epochs_published", (m.epochs_published as f64, "count"));
    out.insert("net.encode_queries_us", (r.encode_queries_us, "us"));
    out.insert("net.decode_queries_us", (r.decode_queries_us, "us"));
    out.insert("net.encode_answers_us", (r.encode_answers_us, "us"));
    out.insert("net.decode_answers_us", (r.decode_answers_us, "us"));
    out.insert("net.loopback_floor_us", (f.loopback_us, "us"));
    out.insert("net.unattributed_us", (frame_p50 - attributed - f.loopback_us, "us"));
    out.insert("net.frame_p99_us", (quantile(&m.reads.rtt_us, 0.99), "us"));
    out.insert("net.insert_p50_us", (median(&m.inserts.rtt_us), "us"));
    out
}

/// Each end-to-end number beside the floor or ceiling it is read against,
/// and how much of it the layers account for.
fn reference_line(e2e: &Metrics, l: &Metrics) -> String {
    let v = |m: &Metrics, k: &str| m[k].0;
    let build_layers = v(l, "graph.load_s") + v(l, "core.pipeline_s") + v(l, "query.index_build_s");
    format!(
        "{{\"reference\": {{\"build_s\": {}, \"build_layers_s\": {}, \"build_coverage\": {}, \
         \"uf_floor_s\": {}, \"ns_per_read\": {}, \"dht_chase_ns\": {}, \"qps\": {}, \
         \"batch_qps\": {}, \"frame_p50_us\": {}, \"loopback_floor_us\": {}}}}}",
        v(e2e, "build_s"),
        build_layers,
        build_layers / v(e2e, "build_s"),
        v(l, "graph.uf_floor_s"),
        v(l, "ampc.ns_per_read"),
        v(l, "ampc.dht_chase_ns"),
        v(e2e, "qps"),
        v(l, "query.batch_qps"),
        v(e2e, "frame_p50_us"),
        v(l, "net.loopback_floor_us"),
    )
}

/// Writes the spans out and returns the `spans` and `e2e_traced` lines.
fn write_spans(args: &Args, spans: &[spans::Span], e2e: &Metrics) -> Result<[String; 2], String> {
    let dir = Path::new(".bench_build/perfbench-trace");
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(format!("{}-{}.jsonl", args.workload.name(), args.seed));
    std::fs::write(&path, spans::to_jsonl(spans))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    let traced = format!(
        "{{\"e2e_traced\": {}, \"trace_file\": \"{}\"}}",
        metrics_json(e2e),
        path.display()
    );
    Ok([span_line(spans), traced])
}

fn span_line(spans: &[spans::Span]) -> String {
    let mut s = String::from("{\"spans\": {");
    for (i, (name, t)) in spans::totals(spans).iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"count\": {}, \"total_ms\": {}, \"self_ms\": {}}}",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        );
    }
    s.push_str("}}");
    s
}

fn header_line(args: &Args, samples: &BTreeMap<&str, usize>) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let samples: Vec<String> = samples.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    format!(
        "{{\"header\": {{\"workload\": \"{}\", \"mode\": \"{}\", \"nproc\": {nproc}, \
         \"git_rev\": \"{}\", \"seed\": {}, \"seconds\": {}, \"backend\": \"dense\", \
         \"server_workers\": 2, \"samples\": {{{}}}}}}}",
        args.workload.name(),
        if args.trace { "traced" } else { "untraced" },
        git_rev(),
        args.seed,
        args.seconds,
        samples.join(", ")
    )
}

fn metrics_json(m: &Metrics) -> String {
    let fields: Vec<String> = m
        .iter()
        .map(|(name, (value, unit))| {
            let value = if value.is_finite() { format!("{value}") } else { "null".into() };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload build-forest|build-general|serve-read|serve-mixed \
                 --seed N --seconds S [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    let mut out = Vec::new();
    match run(&args, &mut out) {
        Ok(correct) => {
            let stdout = std::io::stdout();
            let mut lock = stdout.lock();
            for line in &out {
                let _ = writeln!(lock, "{line}");
            }
            let _ = lock.flush();
            if correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("perfbench: some operations failed their check");
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
