//! The traced run: per-layer metrics measured from outside, by timing the
//! benchmark's calls into each layer's public functions.
//!
//! Every workload reports the same metric set ([`Layers`]); each metric is
//! measured on the workload's own specs, lines and daemon configuration.

use crate::check::{
    reference_answers, request_line, response_matches, same_result, solution_valid,
};
use crate::daemon::{self, Daemon};
use crate::report::Outcome;
use crate::serve::{self, Ctx, ServeWorkload};
use crate::stats::median;
use crate::trace::{layer_times, Tracer};
use crate::workload::{cold_chunk, requests, resolve_all, Mix};
use chain2l_core::{
    kernel_for, Algorithm, Engine, EngineStats, ScenarioFingerprint, SegmentCalculator, Solution,
    TableArena,
};
use chain2l_service::client;
use chain2l_service::frame::FrameDecoder;
use chain2l_service::protocol::{
    encode_request, encode_response, parse_request, parse_response, resolve_spec, Request,
    Response, SolveResult, SolveSpec,
};
use std::hint::black_box;
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::time::{Duration, Instant};

/// Every per-layer metric; each workload fills all of them.
#[derive(Debug, Default)]
pub struct Layers {
    pub segment_new_ms: f64,
    pub two_level_compute_ms: f64,
    pub partial_compute_ms: f64,
    pub reconstruct_ms: f64,
    pub candidates: f64,
    pub simd_block_frac: f64,
    pub arena_pooled_frac: f64,
    pub arena_parked_mb: f64,
    pub batch_over_seq: f64,
    pub engine_hit_us: f64,
    pub fingerprint_us: f64,
    pub hit_frac: f64,
    pub reused: f64,
    pub extended: f64,
    pub cold: f64,
    pub evicted: f64,
    pub hit_skew: f64,
    pub codec: Codec,
    pub rtt_unloaded_us: f64,
    pub shed: f64,
    pub respawns: f64,
    pub late_p99_ms: f64,
    pub backlog_max: f64,
    pub overhead_pct: f64,
    pub lat_p999_light_ms: f64,
}

impl Layers {
    /// Round trip minus the codec and engine self-times on its path: the
    /// client encodes and the parent and the shard each decode a frame,
    /// parse and resolve the request; the parent fingerprints and re-encodes
    /// it; the shard hits its engine and encodes the response, which the
    /// parent and the client each decode and parse (and the parent
    /// re-encodes once more).
    pub fn hop_residual_us(&self) -> f64 {
        let c = &self.codec;
        self.rtt_unloaded_us
            - (2.0 * c.encode_request_us
                + 2.0 * c.parse_request_us
                + 2.0 * c.resolve_spec_us
                + self.fingerprint_us
                + self.engine_hit_us
                + 2.0 * c.encode_response_us
                + 2.0 * c.parse_response_us
                + 3.0 * c.frame_decode_us)
    }

    pub fn emit(&self, o: &mut Outcome) {
        o.metric("segment.new_ms", self.segment_new_ms, "ms");
        o.metric("kernel.two_level.compute_ms", self.two_level_compute_ms, "ms");
        o.metric("kernel.partial.compute_ms", self.partial_compute_ms, "ms");
        o.metric("kernel.reconstruct_ms", self.reconstruct_ms, "ms");
        o.metric("kernel.candidates", self.candidates, "count");
        o.metric("kernel.simd_block_frac", self.simd_block_frac, "ratio");
        o.metric("arena.pooled_frac", self.arena_pooled_frac, "ratio");
        o.metric("arena.parked_mb", self.arena_parked_mb, "MB");
        o.metric("pool.batch_over_seq", self.batch_over_seq, "ratio");
        o.metric("engine.hit_us", self.engine_hit_us, "us");
        o.metric("cache.fingerprint_us", self.fingerprint_us, "us");
        o.metric("engine.hit_frac", self.hit_frac, "ratio");
        o.metric("engine.reused", self.reused, "count");
        o.metric("engine.extended", self.extended, "count");
        o.metric("engine.cold", self.cold, "count");
        o.metric("cache.evicted", self.evicted, "count");
        o.metric("shard.hit_skew", self.hit_skew, "ratio");
        o.metric("protocol.encode_request_us", self.codec.encode_request_us, "us");
        o.metric("protocol.parse_request_us", self.codec.parse_request_us, "us");
        o.metric("protocol.resolve_spec_us", self.codec.resolve_spec_us, "us");
        o.metric("protocol.encode_response_us", self.codec.encode_response_us, "us");
        o.metric("protocol.parse_response_us", self.codec.parse_response_us, "us");
        o.metric("frame.decode_us", self.codec.frame_decode_us, "us");
        o.metric("serve.rtt_unloaded_us", self.rtt_unloaded_us, "us");
        o.metric("serve.hop_residual_us", self.hop_residual_us(), "us");
        o.metric("server.shed", self.shed, "count");
        o.metric("server.respawns", self.respawns, "count");
        o.metric("loadgen.late_p99_ms", self.late_p99_ms, "ms");
        o.metric("loadgen.backlog_max", self.backlog_max, "count");
        o.metric("trace.overhead_pct", self.overhead_pct, "%");
        o.metric("fail_frac", o.failed as f64 / o.attempted.max(1) as f64, "ratio");
        o.metric("lat_p999_ms.light", self.lat_p999_light_ms, "ms");
    }
}

/// Runs `f` repeatedly for at least `budget` and returns the mean
/// microseconds per call.  Calls to µs-scale functions are timed in bulk:
/// a clock read per call would be a sizeable part of what it measures.
fn mean_us(budget: Duration, count: usize, mut f: impl FnMut(usize)) -> f64 {
    let start = Instant::now();
    let mut calls = 0usize;
    while calls == 0 || start.elapsed() < budget {
        for i in 0..count {
            f(i);
        }
        calls += count;
    }
    start.elapsed().as_secs_f64() * 1e6 / calls as f64
}

#[derive(Debug, Default)]
pub struct Codec {
    pub encode_request_us: f64,
    pub parse_request_us: f64,
    pub resolve_spec_us: f64,
    pub encode_response_us: f64,
    pub parse_response_us: f64,
    pub frame_decode_us: f64,
}

/// Times the protocol and frame layers on the workload's own lines.
pub fn codec_probe(specs: &[SolveSpec], answers: &[SolveResult], tracer: &Tracer) -> Codec {
    let budget = Duration::from_millis(25);
    let n = specs.len();
    let requests: Vec<Request> = specs
        .iter()
        .enumerate()
        .map(|(i, s)| Request::Solve { id: 1_000_000 + i as u64, spec: s.clone() })
        .collect();
    let request_lines: Vec<String> = requests.iter().map(encode_request).collect();
    let responses: Vec<Response> = answers
        .iter()
        .enumerate()
        .map(|(i, r)| Response::Solve { id: 1_000_000 + i as u64, result: r.clone() })
        .collect();
    let response_lines: Vec<String> = responses.iter().map(encode_response).collect();
    let mut stream: Vec<u8> = Vec::new();
    for l in &response_lines {
        stream.extend_from_slice(l.as_bytes());
        stream.push(b'\n');
    }
    let timed = |name: &'static str, f: &mut dyn FnMut(usize)| {
        tracer.span(name, None, |_| mean_us(budget, n, f))
    };
    Codec {
        encode_request_us: timed("protocol.encode_request", &mut |i| {
            black_box(encode_request(&requests[i]));
        }),
        parse_request_us: timed("protocol.parse_request", &mut |i| {
            black_box(parse_request(&request_lines[i]).is_ok());
        }),
        resolve_spec_us: timed("protocol.resolve_spec", &mut |i| {
            black_box(resolve_spec(&specs[i]).is_ok());
        }),
        encode_response_us: timed("protocol.encode_response", &mut |i| {
            black_box(encode_response(&responses[i]));
        }),
        parse_response_us: timed("protocol.parse_response", &mut |i| {
            black_box(parse_response(&response_lines[i]).is_ok());
        }),
        frame_decode_us: tracer.span("frame.decode", None, |_| {
            mean_us(budget, 1, |_| {
                let mut d = FrameDecoder::new();
                d.push(&stream);
                while let Some(frame) = d.next_frame() {
                    black_box(frame.is_ok());
                }
            }) / n as f64
        }),
    }
}

/// Kernel-level replay of cold solves: `SegmentCalculator::new`, then the
/// algorithm's kernel `compute` and `reconstruct` — the steps the engine
/// runs on a cold miss — each in its own span under a `solve` span.
/// Returns `(candidates, simd_blocks, scalar_fallbacks, wrong answers)`.
fn kernel_replay(
    specs: &[SolveSpec],
    expected: &[SolveResult],
    tracer: &Tracer,
) -> (u64, u64, u64, u64) {
    let arena = TableArena::new();
    let (mut candidates, mut simd, mut scalar, mut wrong) = (0, 0, 0, 0);
    for ((scenario, algorithm), want) in resolve_all(specs).iter().zip(expected) {
        let n = scenario.task_count();
        let kernel = kernel_for(*algorithm);
        let compute = match algorithm {
            Algorithm::SingleLevel | Algorithm::TwoLevel => "kernel.two_level.compute",
            _ => "kernel.partial.compute",
        };
        tracer.span("solve", None, |id| {
            let calc = tracer.span("segment.new", Some(id), |_| SegmentCalculator::new(scenario));
            let state = tracer.span(compute, Some(id), |_| kernel.compute(&calc, n, &arena));
            let schedule = tracer
                .span("kernel.reconstruct", Some(id), |_| kernel.reconstruct(&calc, &state, n));
            let stats = state.statistics();
            candidates += stats.candidates_examined;
            simd += stats.simd_blocks;
            scalar += stats.scalar_fallbacks;
            let solution = Solution::new(state.expected_makespan(n), schedule, scenario, stats);
            if !same_result(&SolveResult::from_solution(&solution), want) {
                wrong += 1;
            }
            state.recycle(&arena);
        });
    }
    (candidates, simd, scalar, wrong)
}

/// Sequential `Engine::solve` over `specs` on a fresh engine: total seconds.
fn sequential_seconds(specs: &[SolveSpec], tracer: &Tracer) -> f64 {
    let engine = Engine::new();
    let start = Instant::now();
    for (scenario, algorithm) in resolve_all(specs) {
        tracer.span("engine.solve", None, |_| black_box(engine.solve(&scenario, algorithm)));
    }
    start.elapsed().as_secs_f64()
}

/// In-process probes shared by all workloads, on `specs`.  Returns the
/// statistics of the engine right after the `solve_batch` half of the pool
/// probe (they stand for the engine layer when no daemon is involved).
fn in_process(
    specs: &[SolveSpec],
    expected: &[SolveResult],
    tracer: &Tracer,
    layers: &mut Layers,
    outcome: &mut Outcome,
) -> EngineStats {
    let (candidates, simd, scalar, wrong) = kernel_replay(specs, expected, tracer);
    outcome.count(specs.len() as u64, wrong);
    let t = layer_times(&tracer.spans());
    let mean = |name: &str| t.get(name).map_or(0.0, |l| l.mean_ms());
    layers.segment_new_ms = mean("segment.new");
    layers.two_level_compute_ms = mean("kernel.two_level.compute");
    layers.partial_compute_ms = mean("kernel.partial.compute");
    layers.reconstruct_ms = mean("kernel.reconstruct");
    layers.candidates = candidates as f64;
    layers.simd_block_frac = simd as f64 / (simd + scalar).max(1) as f64;

    let sequential = sequential_seconds(specs, tracer);
    let batch_engine = Engine::new();
    let reqs = requests(specs);
    let batch = tracer.span("pool.solve_batch", None, |_| {
        let start = Instant::now();
        black_box(batch_engine.solve_batch(&reqs));
        start.elapsed().as_secs_f64()
    });
    layers.batch_over_seq = batch / sequential;
    let batch_stats = batch_engine.stats();

    let resolved = resolve_all(specs);
    let budget = Duration::from_millis(25);
    layers.engine_hit_us = tracer.span("engine.hit", None, |_| {
        mean_us(budget, resolved.len(), |i| {
            black_box(batch_engine.solve(&resolved[i].0, resolved[i].1));
        })
    });
    layers.fingerprint_us = tracer.span("cache.fingerprint", None, |_| {
        mean_us(budget, resolved.len(), |i| {
            black_box(ScenarioFingerprint::new(&resolved[i].0, resolved[i].1));
        })
    });
    layers.codec = codec_probe(specs, expected, tracer);
    batch_stats
}

fn engine_layers_from(stats: &EngineStats, layers: &mut Layers) {
    let c = &stats.cache;
    layers.hit_frac = c.hits as f64 / (c.hits + c.misses).max(1) as f64;
    layers.reused = stats.reused as f64;
    layers.extended = stats.extended as f64;
    layers.cold = stats.cold() as f64;
    layers.evicted = c.evictions as f64;
    layers.hit_skew = 1.0;
    layers.arena_pooled_frac = stats.arena.hit_rate();
    layers.arena_parked_mb = stats.arena.pooled_bytes as f64 / (1u64 << 20) as f64;
}

fn engine_layers_from_daemon(addr: &str, layers: &mut Layers) -> io::Result<()> {
    let shards = daemon::shard_stats(addr)?;
    let sum = |f: fn(&daemon::ShardStats) -> f64| shards.iter().map(f).sum::<f64>();
    let (hits, misses) = (sum(|s| s.hits), sum(|s| s.misses));
    layers.hit_frac = hits / (hits + misses).max(1.0);
    layers.reused = sum(|s| s.reused);
    layers.extended = sum(|s| s.extended);
    layers.cold = sum(|s| s.cold);
    layers.evicted = sum(|s| s.evicted);
    let loads: Vec<f64> = shards.iter().map(|s| s.hits + s.misses).collect();
    let mean_load = loads.iter().sum::<f64>() / loads.len().max(1) as f64;
    layers.hit_skew = loads.iter().cloned().fold(0.0, f64::max) / mean_load.max(1.0);
    let checkouts = sum(|s| s.checkouts);
    layers.arena_pooled_frac = sum(|s| s.checkouts * s.pooled_pct / 100.0) / checkouts.max(1.0);
    layers.arena_parked_mb = sum(|s| s.parked_kib) / 1024.0;
    let health = client::health(addr)?;
    layers.shed = health.shed as f64;
    layers.respawns = health.respawns as f64;
    Ok(())
}

/// Median round trip of one request at a time on one connection (µs),
/// cycling through the first `count` specs; every answer is checked.
fn rtt_probe(
    ctx: &Ctx,
    count: usize,
    budget: Duration,
    tracer: &Tracer,
    outcome: &mut Outcome,
) -> io::Result<f64> {
    let stream = TcpStream::connect(ctx.addr)?;
    stream.set_nodelay(true)?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let mut samples = Vec::new();
    let mut line = String::new();
    let start = Instant::now();
    let mut id = 0u64;
    while samples.len() < 200 || start.elapsed() < budget {
        let spec = id as usize % count;
        let request = request_line(id, &ctx.specs[spec]);
        let open = tracer.open("serve.rtt", None);
        let t = Instant::now();
        writer.write_all(request.as_bytes())?;
        line.clear();
        reader.read_line(&mut line)?;
        samples.push(t.elapsed().as_secs_f64() * 1e6);
        tracer.close(open);
        outcome.count(1, u64::from(!response_matches(line.trim_end(), &ctx.expected[spec])));
        id += 1;
    }
    Ok(median(&samples))
}

fn write_trace(tracer: &Tracer, dir: &Path, name: &str, seed: u64, outcome: &mut Outcome) {
    let path = dir.join(format!("{name}-seed{seed}.jsonl"));
    match tracer.write_jsonl(&path) {
        Ok(()) => outcome.note(format!("spans written to {}", path.display())),
        Err(e) => outcome.note(format!("spans not written ({e})")),
    }
}

/// Probe specs of a serve workload: the most requested ones.
fn probe_specs(specs: &[SolveSpec]) -> &[SolveSpec] {
    &specs[..specs.len().min(48)]
}

/// The traced run of a serve workload (its daemon is up and warm).
pub fn serve_traced(
    w: &ServeWorkload,
    ctx: &mut Ctx,
    seconds: f64,
    outcome: &mut Outcome,
) -> io::Result<()> {
    let tracer = Tracer::new(Instant::now());
    let mut layers = Layers::default();
    let plain = ctx.phase(w.light_rps, 0.15 * seconds, None)?;
    let traced = ctx.phase(w.light_rps, 0.15 * seconds, Some(&tracer))?;
    let heavy = ctx.phase(w.heavy_rps, 0.15 * seconds, Some(&tracer))?;
    for p in [&plain, &traced, &heavy] {
        outcome.count(p.attempted, p.failed);
    }
    layers.overhead_pct = 100.0 * (traced.latency.p50 - plain.latency.p50) / plain.latency.p50;
    layers.lat_p999_light_ms = plain.latency.p999;
    layers.late_p99_ms = heavy.late.p99;
    layers.backlog_max = heavy.result.backlog_max as f64;
    outcome.note(format!(
        "light untraced: {}; traced: {}; heavy traced: {}",
        plain.latency.describe(),
        traced.latency.describe(),
        heavy.latency.describe()
    ));
    engine_layers_from_daemon(ctx.addr, &mut layers)?;
    let probe = probe_specs(ctx.specs);
    let budget = Duration::from_secs_f64(0.05 * seconds);
    layers.rtt_unloaded_us = rtt_probe(ctx, probe.len(), budget, &tracer, outcome)?;
    // The engine-layer counters come from the daemon, not from the
    // in-process batch engine.
    in_process(probe, &ctx.expected[..probe.len()], &tracer, &mut layers, outcome);
    layers.emit(outcome);
    write_trace(&tracer, &crate::trace_dir(), w.name, ctx.seed, outcome);
    Ok(())
}

/// The traced run of `cold_batch`.  The kernels are replayed on the first
/// chunk; the serve layers, which this workload does not use, are measured
/// on a daemon serving the chunk's eight smallest specs once cached.
pub fn cold_traced(bin: &Path, seed: u64, seconds: f64, outcome: &mut Outcome) -> io::Result<()> {
    let tracer = Tracer::new(Instant::now());
    let mut layers = Layers::default();
    let specs = cold_chunk(seed, 0);
    // The reference: the chunk solved by `Engine::solve` in sequence.  Its
    // answers, once validated, are what the kernel replay must match.
    let engine = Engine::new();
    let solved: Vec<_> = resolve_all(&specs)
        .into_iter()
        .map(|(scenario, algorithm)| {
            let solution = engine.solve(&scenario, algorithm);
            (scenario, algorithm, solution)
        })
        .collect();
    let invalid = solved.iter().filter(|(s, a, solution)| !solution_valid(s, *a, solution)).count();
    outcome.count(specs.len() as u64, invalid as u64);
    let expected: Vec<SolveResult> =
        solved.iter().map(|(_, _, s)| SolveResult::from_solution(s)).collect();
    let stats = in_process(&specs, &expected, &tracer, &mut layers, outcome);
    // Overhead: sequential `Engine::solve` passes over the chunk on fresh
    // engines, with and without a span per solve, in ABBA order so drift in
    // machine speed and any first-or-second effect fall on both.
    let pass = |traced: bool| {
        let engine = Engine::new();
        let start = Instant::now();
        for (scenario, algorithm, _) in &solved {
            if traced {
                tracer
                    .span("engine.solve", None, |_| black_box(engine.solve(scenario, *algorithm)));
            } else {
                black_box(engine.solve(scenario, *algorithm));
            }
        }
        start.elapsed().as_secs_f64()
    };
    let (mut plain, mut spanned) = (Vec::new(), Vec::new());
    for round in 0..4 {
        let order = if round % 2 == 0 { [false, true] } else { [true, false] };
        for traced in order {
            let seconds = pass(traced);
            if traced {
                spanned.push(seconds)
            } else {
                plain.push(seconds)
            }
        }
    }
    let (traced, untraced) = (median(&spanned), median(&plain));
    layers.overhead_pct = 100.0 * (traced - untraced) / untraced;
    engine_layers_from(&stats, &mut layers);

    let mut small: Vec<SolveSpec> = specs.clone();
    small.sort_by_key(|s| s.tasks);
    small.truncate(8);
    let small_expected = reference_answers(&small);
    let (daemon, _) = Daemon::boot(bin, serve::SHARDS, None)?;
    let mix = Mix::Uniform(small.len());
    let mut ctx = Ctx {
        addr: &daemon.addr,
        specs: &small,
        mix: &mix,
        expected: &small_expected,
        seed,
        phases: 0,
    };
    let warm = ctx.phase(100.0, 0.1, None)?;
    let light = ctx.phase(serve::HOT.light_rps, 0.1 * seconds, Some(&tracer))?;
    for p in [&warm, &light] {
        outcome.count(p.attempted, p.failed);
    }
    layers.late_p99_ms = light.late.p99;
    layers.backlog_max = light.result.backlog_max as f64;
    layers.lat_p999_light_ms = light.latency.p999;
    let budget = Duration::from_secs_f64(0.05 * seconds);
    layers.rtt_unloaded_us = rtt_probe(&ctx, small.len(), budget, &tracer, outcome)?;
    let health = client::health(&daemon.addr)?;
    layers.shed = health.shed as f64;
    layers.respawns = health.respawns as f64;
    daemon.stop()?;
    outcome.note(format!("serve probe on the 8 smallest specs: {}", light.latency.describe()));
    layers.emit(outcome);
    write_trace(&tracer, &crate::trace_dir(), "cold_batch", seed, outcome);
    Ok(())
}
