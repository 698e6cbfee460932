//! The timed stages a workload is made of: builds, and closed-loop wire
//! traffic against a running server.
//!
//! Every timing here is a raw per-operation sample the benchmark took
//! itself, around one public call: `graph::io::load`, `ServiceBuilder::build`,
//! `Connection::query_batch` or `Connection::insert_edges`.

use std::net::{SocketAddr, TcpListener};
use std::path::Path;
use std::time::{Duration, Instant};

use ampc_cc::pipeline::PipelineSpec;
use ampc_graph::{Graph, Labeling, VertexId};
use ampc_net::{serve, Connection, ServerConfig, ServerHandle};
use ampc_query::Query;
use ampc_serve::{JournalBudget, ServiceBuilder, ServiceHandle};

use crate::oracle::{self, Oracle};
use crate::spans::Tracer;

/// One build: `graph::io::load` then `ServiceBuilder::build`.
pub struct BuildSample {
    pub load_s: f64,
    pub build_s: f64,
    /// The pipeline's share of `ServiceBuilder::build`, as the service
    /// measured it (`PublishedIndex::pipeline_ms`).
    pub pipeline_s: f64,
    /// `ComponentIndex::from_run`'s share, validation included
    /// (`PublishedIndex::index_build_ms`).
    pub index_s: f64,
}

/// Loads the edge list at `path` and builds a service over it, publishing
/// epoch 0. The labeling is checked against `reference` afterwards, outside
/// the timed part; `ok` is false when it induces another partition.
pub fn timed_build(
    path: &Path,
    spec: &PipelineSpec,
    reference: &Labeling,
    tracer: &Tracer,
) -> Result<(ServiceHandle, BuildSample, bool), String> {
    let t0 = Instant::now();
    let g = ampc_graph::io::load(path).map_err(|e| format!("load {}: {e}", path.display()))?;
    let t1 = Instant::now();
    let service = ServiceBuilder::new(g)
        .spec(spec.clone())
        .journal_budget(JournalBudget::unbounded())
        .build()
        .map_err(|e| format!("ServiceBuilder::build: {e}"))?;
    let t2 = Instant::now();
    let snap = service.snapshot();
    let sample = BuildSample {
        load_s: (t1 - t0).as_secs_f64(),
        build_s: (t2 - t0).as_secs_f64(),
        pipeline_s: snap.pipeline_ms() / 1e3,
        index_s: snap.index_build_ms() / 1e3,
    };
    if tracer.on() {
        let (s0, s1, s2) = (tracer.at(t0), tracer.at(t1), tracer.at(t2));
        let root = tracer.record("build", 0, 0, s0, s2);
        tracer.record("graph.load", root, 0, s0, s1);
        let build = tracer.record("serve.build", root, 0, s1, s2);
        let pipeline_end = s1 + (sample.pipeline_s * 1e9) as u64;
        tracer.record_from_program("core.pipeline", build, s1, pipeline_end);
        let index_end = pipeline_end + (sample.index_s * 1e9) as u64;
        tracer.record_from_program("query.index_build", build, pipeline_end, index_end);
    }
    let ok = snap.labeling().same_partition(reference);
    drop(snap);
    Ok((service, sample, ok))
}

/// What the read and insert streams of a stage exchange with the server,
/// and the oracles their answers are checked against.
pub struct Traffic<'a> {
    /// The graph epoch 0 was built from.
    pub graph: &'a Graph,
    /// Query frames, sent round-robin.
    pub frames: &'a [Vec<Query>],
    /// The in-process engine's answers to each frame on epoch 0, already
    /// checked against `base`.
    pub expected: &'a [Vec<u64>],
    /// The oracle before any insert.
    pub base: &'a Oracle,
    /// The oracle after every batch of `inserts`.
    pub last: &'a Oracle,
    /// Insert batches, sent in order and then again from the start.
    pub inserts: &'a [Vec<(VertexId, VertexId)>],
}

/// Raw samples from one closed-loop stream.
#[derive(Default)]
pub struct Stream {
    /// Round-trip time of each completed request, µs.
    pub rtt_us: Vec<f64>,
    /// Queries (or edges) carried by the completed requests.
    pub items: u64,
    /// Wall time of the stream, s.
    pub wall_s: f64,
    /// Requests sent, completed or not.
    pub attempted: u64,
    pub failed: u64,
}

impl Stream {
    /// Adds a stream that ran beside this one: wall times overlap.
    fn absorb_parallel(&mut self, other: Stream) {
        let wall_s = self.wall_s.max(other.wall_s);
        self.append(other);
        self.wall_s = wall_s;
    }

    /// Adds a stream that ran after this one: wall times add up.
    pub fn append(&mut self, other: Stream) {
        self.rtt_us.extend(other.rtt_us);
        self.items += other.items;
        self.wall_s += other.wall_s;
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Completed items per second of wall time.
    pub fn rate(&self) -> f64 {
        self.items as f64 / self.wall_s
    }
}

/// How a query stream checks each frame's answers.
#[derive(Clone, Copy)]
enum Check {
    /// The epoch cannot move: answers must equal the expected ones.
    Static,
    /// Inserts run beside the stream: answers must lie between the base
    /// and final oracles.
    BesideInserts,
}

/// Sends query frames on one connection until `deadline`, starting at
/// frame `first`.
fn query_stream(
    addr: SocketAddr,
    traffic: &Traffic,
    first: usize,
    deadline: Instant,
    check: Check,
    tracer: &Tracer,
) -> Stream {
    let start = Instant::now();
    let mut out = Stream::default();
    let Ok(mut conn) = Connection::connect(addr) else {
        out.attempted = 1;
        out.failed = 1;
        return out;
    };
    let mut i = first;
    while Instant::now() < deadline {
        let f = i % traffic.frames.len();
        let frame = &traffic.frames[f];
        out.attempted += 1;
        let t0 = Instant::now();
        let reply = conn.query_batch(frame);
        let t1 = Instant::now();
        if tracer.on() {
            tracer.record("net.query_batch", 0, tracer.id(), tracer.at(t0), tracer.at(t1));
        }
        match reply {
            Ok(answers) => {
                out.rtt_us.push((t1 - t0).as_secs_f64() * 1e6);
                out.items += frame.len() as u64;
                let ok = match check {
                    Check::Static => answers == traffic.expected[f],
                    Check::BesideInserts => {
                        oracle::within(traffic.base, traffic.last, frame, &answers)
                    }
                };
                out.failed += u64::from(!ok);
            }
            Err(_) => {
                // One transport error costs one failed request, not the stream.
                out.failed += 1;
                match Connection::connect(addr) {
                    Ok(c) => conn = c,
                    Err(_) => break,
                }
            }
        }
        i += 1;
    }
    out.wall_s = start.elapsed().as_secs_f64();
    out
}

/// Sends insert batches on one connection until `deadline`, starting at
/// batch `first`.
fn insert_stream(
    addr: SocketAddr,
    traffic: &Traffic,
    first: u64,
    deadline: Instant,
    tracer: &Tracer,
) -> Stream {
    let start = Instant::now();
    let mut out = Stream::default();
    let Ok(mut conn) = Connection::connect(addr) else {
        out.attempted = 1;
        out.failed = 1;
        return out;
    };
    while Instant::now() < deadline {
        let batch =
            &traffic.inserts[((first + out.attempted) % traffic.inserts.len() as u64) as usize];
        out.attempted += 1;
        let t0 = Instant::now();
        let reply = conn.insert_edges(batch);
        let t1 = Instant::now();
        if tracer.on() {
            tracer.record("net.insert_edges", 0, tracer.id(), tracer.at(t0), tracer.at(t1));
        }
        match reply {
            Ok(report) if report.applied == batch.len() as u64 => {
                out.rtt_us.push((t1 - t0).as_secs_f64() * 1e6);
                out.items += batch.len() as u64;
            }
            Ok(_) => out.failed += 1,
            Err(_) => {
                out.failed += 1;
                match Connection::connect(addr) {
                    Ok(c) => conn = c,
                    Err(_) => break,
                }
            }
        }
    }
    out.wall_s = start.elapsed().as_secs_f64();
    out
}

/// A service behind a loopback `ampc-net` server with two workers, and the
/// number of insert batches sent to it so far.
pub struct Served {
    server: ServerHandle,
    addr: SocketAddr,
    sent: u64,
}

impl Served {
    pub fn start(service: &ServiceHandle) -> Result<Served, String> {
        let listener =
            TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind loopback listener: {e}"))?;
        let config = ServerConfig { workers: 2, ..ServerConfig::default() };
        let server =
            serve(service.clone(), listener, config).map_err(|e| format!("start server: {e}"))?;
        let addr = server.local_addr();
        Ok(Served { server, addr, sent: 0 })
    }

    /// Two closed-loop connections send query frames for `dur`, on an epoch
    /// that does not move.
    pub fn read(&self, traffic: &Traffic, dur: Duration, tracer: &Tracer) -> Stream {
        let deadline = Instant::now() + dur;
        let half = traffic.frames.len() / 2;
        let stream =
            |first| query_stream(self.addr, traffic, first, deadline, Check::Static, tracer);
        let mut out = Stream::default();
        std::thread::scope(|s| {
            let other = s.spawn(|| stream(half));
            out.absorb_parallel(stream(0));
            out.absorb_parallel(other.join().expect("query stream panicked"));
        });
        out
    }

    /// One connection sends insert batches for `dur`, going on from the
    /// last batch sent, while a second connection sends query frames.
    /// Returns `(reads, inserts)`.
    pub fn insert(
        &mut self,
        traffic: &Traffic,
        dur: Duration,
        tracer: &Tracer,
    ) -> (Stream, Stream) {
        let deadline = Instant::now() + dur;
        let (addr, first) = (self.addr, self.sent);
        let (reads, inserts) = std::thread::scope(|s| {
            let reads =
                s.spawn(|| query_stream(addr, traffic, 0, deadline, Check::BesideInserts, tracer));
            let inserts = insert_stream(addr, traffic, first, deadline, tracer);
            (reads.join().expect("query stream panicked"), inserts)
        });
        self.sent += inserts.attempted;
        (reads, inserts)
    }

    /// Sends every frame once more and checks each answer exactly against
    /// the oracle of the base graph plus every batch sent, then shuts the
    /// server down.
    pub fn finish(mut self, traffic: &Traffic) -> Stream {
        let sent = self.sent as usize;
        let prefix;
        let last = if sent >= traffic.inserts.len() {
            traffic.last
        } else {
            let edges: Vec<_> = traffic.inserts[..sent].iter().flatten().copied().collect();
            prefix = Oracle::new(traffic.graph, &edges);
            &prefix
        };
        let mut out = Stream { attempted: traffic.frames.len() as u64, ..Stream::default() };
        match Connection::connect(self.addr) {
            Ok(mut conn) => {
                for frame in traffic.frames {
                    let ok = matches!(conn.query_batch(frame),
                        Ok(answers) if oracle::exact(last, frame, &answers));
                    out.failed += u64::from(!ok);
                }
            }
            Err(_) => out.failed = out.attempted,
        }
        self.server.shutdown();
        out
    }
}
