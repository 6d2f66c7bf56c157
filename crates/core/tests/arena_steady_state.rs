//! A bounded engine on a repeating mixed-shape stream of cold solves must
//! reach an arena steady state after one pass: later passes make no fresh
//! checkouts and park no more bytes.
//!
//! The stream mixes chain sizes whose tables share a capacity class without
//! sharing a length, which is where a pool that hands an undersized buffer
//! to a larger request regrows it, strands it one class up and refills the
//! hole with a fresh allocation — parked memory then climbs with every pass.
//! The solves run on a one-thread pool so the checkout/return order, and
//! hence the counts, are deterministic.

use chain2l_core::{Algorithm, ArenaStats, Engine, EngineLimits};
use chain2l_model::platform::scr;
use chain2l_model::{Scenario, WeightPattern};

const ALGORITHMS: [Algorithm; 4] = [
    Algorithm::SingleLevel,
    Algorithm::TwoLevel,
    Algorithm::TwoLevelPartial,
    Algorithm::TwoLevelPartialRefined,
];

/// Solves every (platform, n, algorithm) of one pass cold: the pass's own
/// total weight gives every chain a weight prefix no earlier solve had.
fn run_pass(engine: &Engine, pass: u32) {
    let before = engine.stats();
    // A tiny per-pass offset: two passes' per-task weights W/n and W'/n'
    // can only meet for n = n', which the offset rules out.
    let total_weight = 25_000.0 + 0.37 * f64::from(pass);
    for platform in [scr::hera(), scr::atlas()] {
        for n in (10..=43).step_by(3) {
            let scenario =
                Scenario::paper_setup(&platform, &WeightPattern::Uniform, n, total_weight).unwrap();
            for algorithm in ALGORITHMS {
                engine.solve(&scenario, algorithm);
            }
        }
    }
    let after = engine.stats();
    assert_eq!(after.cold() - before.cold(), 2 * 12 * 4, "pass {pass}: every solve must be cold");
}

#[test]
fn repeating_cold_stream_reaches_an_arena_steady_state_after_one_pass() {
    let pool = rayon::ThreadPoolBuilder::new().num_threads(1).build().unwrap();
    pool.install(|| {
        let engine = Engine::with_limits(EngineLimits::entry_cap(128));
        run_pass(&engine, 0);
        let warm = engine.arena_stats();
        let fresh = |s: ArenaStats| s.checkouts - s.pool_hits;
        for pass in 1..3 {
            run_pass(&engine, pass);
            let stats = engine.arena_stats();
            assert!(stats.checkouts > warm.checkouts);
            assert_eq!(
                fresh(stats),
                fresh(warm),
                "pass {pass}: {} fresh checkout(s) after warmup",
                fresh(stats) - fresh(warm)
            );
            assert_eq!(
                stats.pooled_bytes, warm.pooled_bytes,
                "pass {pass}: parked bytes moved from {} to {}",
                warm.pooled_bytes, stats.pooled_bytes
            );
            assert_eq!(stats.trimmed, 0, "the byte cap must not be what bounds the pool");
        }
    });
}
