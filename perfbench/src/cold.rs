//! The `cold_batch` workload: distinct scenarios solved in-process, every
//! solve a cache miss, so the kernels do all the work.

use crate::check::solution_valid;
use crate::daemon::own_rss_mb;
use crate::report::Outcome;
use crate::stats::{self, Summary};
use crate::workload::{cold_chunk, requests, resolve_all};
use chain2l_core::{Engine, Solution, SolveRequest};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Counts the solutions that fail validation.
fn invalid(requests: &[SolveRequest], solutions: &[Arc<Solution>]) -> u64 {
    requests
        .iter()
        .zip(solutions)
        .filter(|(r, s)| !solution_valid(&r.scenario, r.algorithm, s))
        .count() as u64
}

/// One caller solving the chunk with `Engine::solve` on one fresh engine,
/// one solve in flight.  Returns each solve's latency (ms), the wall time
/// (s) and the number of invalid solutions.
fn one_caller_chunk(reqs: &[SolveRequest]) -> (Vec<f64>, f64, u64) {
    let engine = Engine::new();
    let mut latencies = Vec::with_capacity(reqs.len());
    let mut bad = 0;
    let start = Instant::now();
    for r in reqs {
        let t = Instant::now();
        let solution = engine.solve(&r.scenario, r.algorithm);
        latencies.push(t.elapsed().as_secs_f64() * 1e3);
        bad += u64::from(!solution_valid(&r.scenario, r.algorithm, &solution));
    }
    (latencies, start.elapsed().as_secs_f64(), bad)
}

/// Accumulated solves and seconds of one way of solving chunks.
#[derive(Default)]
struct Tally {
    solves: u64,
    seconds: f64,
    latencies: Vec<f64>,
}

impl Tally {
    fn rate(&self) -> f64 {
        self.solves as f64 / self.seconds
    }
}

pub fn run(seed: u64, seconds: f64) -> Outcome {
    let mut outcome = Outcome::default();

    // Set-up of a batch: resolve its input specs into scenarios and create
    // the engine, as `chain2l batch` does before its one solve_batch call
    // (for 8 chunks' worth of specs, so the time is well above clock noise).
    // One set-up per round, so `setup_s` samples the whole run.
    let first: Vec<_> = (0..8).flat_map(|k| cold_chunk(seed, k)).collect();
    let mut setups = Vec::new();

    // Rounds of two chunks each — one through solve_batch, one with one
    // caller — until the time is spent, so both ways of solving sample the
    // whole run.  Every chunk is new and every engine fresh: all solves are
    // cold.
    // Resident memory is sampled every 2 ms; `peak_rss_mb` is the median of
    // the round peaks over the second half of the run.  The resident set
    // grows over the first few rounds, as freed tables stay with the
    // allocator and the arena, and then levels off; a median that takes in
    // the early rounds lands on that rising edge and moves with the round
    // count.  (The process-lifetime peak is the largest of many random
    // overlaps of big solves and varies too much.)
    let (mut batch, mut one) = (Tally::default(), Tally::default());
    let mut round_peaks = Vec::new();
    let peak_kib = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                peak_kib.fetch_max((own_rss_mb() * 1024.0) as u64, Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(2));
            }
        });
        let start = Instant::now();
        let mut chunk = 0;
        while chunk == 0 || start.elapsed().as_secs_f64() < seconds {
            let t = Instant::now();
            black_box((resolve_all(&first), Engine::new()));
            setups.push(t.elapsed().as_secs_f64());
            let reqs = requests(&cold_chunk(seed, chunk));
            let engine = Engine::new();
            let t = Instant::now();
            let solutions = engine.solve_batch(&reqs);
            batch.seconds += t.elapsed().as_secs_f64();
            batch.solves += reqs.len() as u64;
            let hits = engine.stats().cache.hits;
            outcome.count(reqs.len() as u64, invalid(&reqs, &solutions) + hits);
            let reqs = requests(&cold_chunk(seed, chunk + 1));
            let (latencies, wall, bad) = one_caller_chunk(&reqs);
            outcome.count(reqs.len() as u64, bad);
            one.solves += reqs.len() as u64;
            one.seconds += wall;
            one.latencies.extend(latencies);
            round_peaks.push(peak_kib.swap(0, Ordering::Relaxed) as f64 / 1024.0);
            chunk += 2;
        }
        stop.store(true, Ordering::Relaxed);
    });
    outcome.note(format!(
        "solve_batch: {} solves, {:.3} s, {:.2} solves/s",
        batch.solves,
        batch.seconds,
        batch.rate()
    ));
    let peaks: Vec<String> = round_peaks.iter().map(|mb| format!("{mb:.1}")).collect();
    outcome.note(format!("resident peak per round (MB): {}", peaks.join(" ")));
    let light = Summary::of(std::mem::take(&mut one.latencies));
    outcome.note(format!("1 caller: {:.2} solves/s, per solve {}", one.rate(), light.describe()));

    outcome.metric("setup_s", stats::median(&setups), "s");
    outcome.metric("lat_p50_ms.light", light.p50, "ms");
    outcome.metric("peak_rss_mb", stats::median(&round_peaks[round_peaks.len() / 2..]), "MB");
    outcome.diagnostic("solves_per_s", batch.rate(), "1/s");
    outcome.diagnostic("lat_p99_ms.light", light.p99, "ms");
    outcome
}
