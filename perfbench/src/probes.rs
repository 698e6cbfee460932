//! Per-layer replays and floors for the traced run.
//!
//! The server's internal stages cannot be timed from outside the program,
//! so the traced run replays, in-process and after the wire stages have
//! ended, the public functions a server worker calls for each frame —
//! `decode_queries`, `ServiceHandle::snapshot`, `throughput::timed_pass`,
//! `encode_answers` — together with the client's `encode_queries` and
//! `decode_answers`, over the same frames. The floors are what the layer
//! numbers are read against: a sequential union-find over the same graph, a
//! random pointer chase over `DenseDht` at the same n, and a bare
//! `std::net` echo of the same frame sizes.

use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use ampc::{AmpcConfig, AmpcSystem, DenseDht, DhtBackend, Key};
use ampc_graph::{Graph, VertexId};
use ampc_net::protocol::{
    decode_answers, decode_queries, encode_answers, encode_queries, HEADER_LEN, QUERY_WIRE_LEN,
};
use ampc_obs::{HistId, Histogram};
use ampc_query::throughput::timed_pass;
use ampc_query::Query;
use ampc_serve::ServiceHandle;

use crate::spans::Tracer;
use crate::stats::median;

/// Passes over the frame pool the frame replay makes.
const FRAME_PASSES: usize = 16;

/// Medians of the per-frame replay, plus the insert replay beside it.
pub struct FrameReplay {
    pub encode_queries_us: f64,
    pub decode_queries_us: f64,
    pub pin_ns: f64,
    pub answer_us: f64,
    pub timed_pass_us: f64,
    pub encode_answers_us: f64,
    pub decode_answers_us: f64,
    pub insert_us: f64,
    /// Replayed frames whose round-tripped answers differed from the
    /// answers `timed_pass` produced.
    pub mismatches: u64,
    pub frames: u64,
}

fn us(t0: Instant, t1: Instant) -> f64 {
    (t1 - t0).as_secs_f64() * 1e6
}

/// Replays the server's per-frame work over `frames`. With
/// `beside_inserts`, a second thread replays `inserts` through
/// `ServiceHandle::insert_edges` for as long as the frame replay runs, so
/// pins race publishes as they do on the wire; otherwise the same number
/// of insert batches is replayed after the frames.
pub fn replay_frames(
    service: &ServiceHandle,
    frames: &[Vec<Query>],
    inserts: &[Vec<(VertexId, VertexId)>],
    beside_inserts: bool,
    tracer: &Tracer,
) -> FrameReplay {
    let done = AtomicBool::new(false);
    let (mut enc_q, mut dec_q, mut pin, mut answer, mut timed, mut enc_a, mut dec_a) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut mismatches = 0u64;
    let hist = Histogram::new();
    let mut frame_replay = || {
        for pass in 0..FRAME_PASSES {
            for (f, frame) in frames.iter().enumerate() {
                let t0 = Instant::now();
                let bytes = encode_queries(frame);
                let t1 = Instant::now();
                let queries = decode_queries(&bytes).expect("replayed frame decodes");
                let t2 = Instant::now();
                let snap = service.snapshot();
                let engine = snap.engine();
                let t3 = Instant::now();
                // The plain answer loop and timed_pass read the same index
                // lines; alternate which goes first so neither always runs
                // on the cache the other warmed.
                let plain = |engine: &ampc_query::QueryEngine| {
                    let t = Instant::now();
                    let mut acc = 0u64;
                    for &q in &queries {
                        acc = acc.wrapping_add(engine.answer(q));
                    }
                    black_box(acc);
                    us(t, Instant::now())
                };
                let mut answers = Vec::with_capacity(queries.len());
                let mut timed_pass_us = |engine: &ampc_query::QueryEngine| {
                    let t = Instant::now();
                    let global = ampc_obs::hist(HistId::NetServiceNs);
                    timed_pass(engine, &queries, &hist, global, |a| answers.push(a));
                    us(t, Instant::now())
                };
                let (plain_us, tp_us) = if pass % 2 == 0 {
                    let p = plain(&engine);
                    (p, timed_pass_us(&engine))
                } else {
                    let tp = timed_pass_us(&engine);
                    (plain(&engine), tp)
                };
                drop(snap);
                let t4 = Instant::now();
                let payload = encode_answers(&answers);
                let t5 = Instant::now();
                let back = decode_answers(&payload).expect("replayed answers decode");
                let t6 = Instant::now();
                if back != answers {
                    mismatches += 1;
                }
                enc_q.push(us(t0, t1));
                dec_q.push(us(t1, t2));
                pin.push((t3 - t2).as_nanos() as f64);
                answer.push(plain_us);
                timed.push(tp_us);
                enc_a.push(us(t4, t5));
                dec_a.push(us(t5, t6));
                if tracer.on() {
                    let frame_id = (3 << 32) | (pass * frames.len() + f + 1) as u64;
                    let root =
                        tracer.record("replay.frame", 0, frame_id, tracer.at(t0), tracer.at(t6));
                    tracer.record(
                        "net.encode_queries",
                        root,
                        frame_id,
                        tracer.at(t0),
                        tracer.at(t1),
                    );
                    tracer.record(
                        "net.decode_queries",
                        root,
                        frame_id,
                        tracer.at(t1),
                        tracer.at(t2),
                    );
                    tracer.record("serve.snapshot", root, frame_id, tracer.at(t2), tracer.at(t3));
                    tracer.record(
                        "net.encode_answers",
                        root,
                        frame_id,
                        tracer.at(t4),
                        tracer.at(t5),
                    );
                    tracer.record(
                        "net.decode_answers",
                        root,
                        frame_id,
                        tracer.at(t5),
                        tracer.at(t6),
                    );
                }
            }
        }
    };
    let insert_replay = |until_done: bool| {
        let mut samples = Vec::new();
        let batches = if until_done { usize::MAX } else { FRAME_PASSES * frames.len() };
        for i in 0..batches {
            if until_done && done.load(Ordering::Acquire) {
                break;
            }
            let batch = &inserts[i % inserts.len()];
            let t0 = Instant::now();
            let ok = service.insert_edges(batch).is_ok();
            let t1 = Instant::now();
            if ok {
                samples.push(us(t0, t1));
            }
            tracer.record("serve.insert_edges", 0, 0, tracer.at(t0), tracer.at(t1));
        }
        samples
    };
    let insert_samples = if beside_inserts {
        std::thread::scope(|s| {
            let writer = s.spawn(|| insert_replay(true));
            frame_replay();
            done.store(true, Ordering::Release);
            writer.join().expect("insert replay panicked")
        })
    } else {
        frame_replay();
        insert_replay(false)
    };
    FrameReplay {
        encode_queries_us: median(&enc_q),
        decode_queries_us: median(&dec_q),
        pin_ns: median(&pin),
        answer_us: median(&answer),
        timed_pass_us: median(&timed),
        encode_answers_us: median(&enc_a),
        decode_answers_us: median(&dec_a),
        insert_us: median(&insert_samples),
        mismatches,
        frames: (FRAME_PASSES * frames.len()) as u64,
    }
}

/// In-process `answer_batch` over every frame: the ceiling wire q/s is read
/// against. Median q/s over several passes.
pub fn batch_qps(service: &ServiceHandle, frames: &[Vec<Query>]) -> f64 {
    let snap = service.snapshot();
    let engine = snap.engine();
    let mut buf = vec![0u64; frames.first().map_or(0, Vec::len)];
    let total: usize = frames.iter().map(Vec::len).sum();
    let rates: Vec<f64> = (0..8)
        .map(|_| {
            let t0 = Instant::now();
            for frame in frames {
                buf.resize(frame.len(), 0);
                engine.answer_batch(frame, &mut buf).expect("buffer sized to the frame");
                black_box(&buf);
            }
            total as f64 / t0.elapsed().as_secs_f64()
        })
        .collect();
    median(&rates)
}

/// Sequential union-find over `g` (`reference_components`), median of 3.
pub fn uf_floor_s(g: &Graph) -> f64 {
    let runs: Vec<f64> = (0..3)
        .map(|_| {
            let t0 = Instant::now();
            black_box(ampc_graph::reference_components(g));
            t0.elapsed().as_secs_f64()
        })
        .collect();
    median(&runs)
}

/// Random pointer chase over a `DenseDht` holding one Sattolo cycle of `n`
/// successors: one machine, no thread pool, so the figure is the latency
/// of one adaptive read. Median ns/read over 3 passes.
pub fn dht_chase_ns(n: usize, seed: u64) -> f64 {
    const WALKS: usize = 1 << 14;
    const HOPS: usize = 64;
    let mut perm: Vec<u64> = (0..n as u64).collect();
    let mut rng = ampc::rng::SplitMix64::new(seed);
    for i in (1..n).rev() {
        perm.swap(i, rng.next_below(i as u64) as usize);
    }
    let mut succ = vec![0u64; n];
    for i in 0..n {
        succ[perm[i] as usize] = perm[(i + 1) % n];
    }
    let cfg = AmpcConfig::default()
        .with_machines(1)
        .with_parallel(false)
        .with_seed(seed)
        .with_backend(DhtBackend::Dense { cap: n });
    let mut sys: AmpcSystem<u64, DenseDht<u64>> =
        AmpcSystem::new(cfg, succ.iter().enumerate().map(|(i, &s)| (Key::new(0, i as u64), s)));
    let starts: Vec<u64> =
        (0..WALKS as u64).map(|j| j * (n / WALKS).max(1) as u64 % n as u64).collect();
    let passes: Vec<f64> = (0..3)
        .map(|_| {
            let t0 = Instant::now();
            let out = sys
                .round("pointer-chase", &starts, |ctx, &start| {
                    let mut cur = start;
                    for _ in 0..HOPS {
                        cur = *ctx.read(Key::new(0, cur)).expect("cycle successor");
                    }
                    Some(cur)
                })
                .expect("pointer-chase round");
            black_box(out.results);
            t0.elapsed().as_secs_f64() * 1e9 / (WALKS * HOPS) as f64
        })
        .collect();
    median(&passes)
}

/// Round trips of a bare `std::net` echo over loopback with the byte counts
/// of one query frame and its answer frame, written the way the protocol
/// writes them (header, then payload, on a no-delay socket). Median µs.
pub fn loopback_floor_us(queries_per_frame: usize, round_trips: usize) -> std::io::Result<f64> {
    let request = vec![7u8; queries_per_frame * QUERY_WIRE_LEN];
    let response = vec![9u8; queries_per_frame * 8];
    let listener = TcpListener::bind("127.0.0.1:0")?;
    // Connect before the echo thread starts, so a failed connect cannot
    // leave it blocked in accept.
    let mut conn = TcpStream::connect(listener.local_addr()?)?;
    conn.set_nodelay(true)?;
    std::thread::scope(|s| {
        let echo = s.spawn(|| -> std::io::Result<()> {
            let (mut peer, _) = listener.accept()?;
            peer.set_nodelay(true)?;
            let mut header = [0u8; HEADER_LEN];
            let mut body = vec![0u8; request.len()];
            loop {
                if let Err(e) = peer.read_exact(&mut header) {
                    return if e.kind() == std::io::ErrorKind::UnexpectedEof {
                        Ok(())
                    } else {
                        Err(e)
                    };
                }
                peer.read_exact(&mut body)?;
                peer.write_all(&header)?;
                peer.write_all(&response)?;
                peer.flush()?;
            }
        });
        let mut client = || -> std::io::Result<Vec<f64>> {
            let header = [1u8; HEADER_LEN];
            let mut reply = vec![0u8; HEADER_LEN + response.len()];
            let mut samples = Vec::with_capacity(round_trips);
            for _ in 0..round_trips {
                let t0 = Instant::now();
                conn.write_all(&header)?;
                conn.write_all(&request)?;
                conn.flush()?;
                conn.read_exact(&mut reply)?;
                samples.push(us(t0, Instant::now()));
            }
            Ok(samples)
        };
        let samples = client();
        // Closing the socket ends the echo loop.
        drop(conn);
        let echoed = echo.join().expect("echo thread panicked");
        let samples = samples?;
        echoed?;
        Ok(median(&samples))
    })
}
