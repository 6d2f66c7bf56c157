//! Seeded inputs of the three workloads: the `cold_batch` scenario list, the
//! `hot_serve` spec set, the `zipf_serve` spec universe and popularity
//! sampler, and the open-loop due-time schedule.
//!
//! Everything here is a pure function of the seed, so a run can be repeated
//! exactly; the program under test only ever sees the generated specs.

use chain2l_core::{Algorithm, ScenarioFingerprint, SolveRequest};
use chain2l_model::Scenario;
use chain2l_service::protocol::{resolve_spec, SolveSpec};
use std::time::Duration;

pub const PLATFORMS: [&str; 4] = ["hera", "atlas", "coastal", "coastal-ssd"];
pub const PATTERNS: [&str; 3] = ["uniform", "decrease", "highlow"];
pub const ALGORITHMS: [&str; 4] = ["adv*", "admv*", "admv", "admv-refined"];

/// SplitMix64: small, fast and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    /// An independent stream for one purpose of one seed.
    pub fn derive(seed: u64, stream: u64) -> Self {
        let mut base = Rng::new(seed);
        let mix = base.next_u64() ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03);
        Rng::new(mix)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

fn spec(platform: &str, pattern: &str, tasks: usize, weight: f64, algorithm: &str) -> SolveSpec {
    SolveSpec {
        platform: platform.to_string(),
        pattern: pattern.to_string(),
        tasks,
        weight,
        algorithm: algorithm.to_string(),
    }
}

/// Resolves specs exactly as the daemon does.  Every generated spec is
/// valid, so a failure here is a bug in the generator.
pub fn resolve_all(specs: &[SolveSpec]) -> Vec<(Scenario, Algorithm)> {
    specs.iter().map(|s| resolve_spec(s).expect("generated specs are valid")).collect()
}

pub fn requests(specs: &[SolveSpec]) -> Vec<SolveRequest> {
    resolve_all(specs).into_iter().map(|(s, a)| SolveRequest::new(s, a)).collect()
}

/// Scenarios in one `cold_batch` chunk: every algorithm × platform × pattern.
pub const COLD_CHUNK: usize = ALGORITHMS.len() * PLATFORMS.len() * PATTERNS.len();

/// Shard workers of the serve workloads' daemon.
pub const SHARDS: usize = 2;

/// A total weight drawn from ±10 % around the paper's 25 000 s: continuous,
/// so no two generated specs share a fingerprint or a weight prefix.
fn total_weight(rng: &mut Rng) -> f64 {
    25_000.0 * (0.9 + 0.2 * rng.unit())
}

/// The shard the daemon routes `spec` to (fingerprint hash modulo shards).
pub fn shard_of(spec: &SolveSpec) -> usize {
    let (scenario, algorithm) = resolve_spec(spec).expect("generated specs are valid");
    (ScenarioFingerprint::stable_hash_of(&scenario, algorithm) % SHARDS as u64) as usize
}

/// Chunk `index` of the `cold_batch` list.
///
/// Each chunk covers every algorithm, platform and pattern once and gives
/// each algorithm the same twelve sizes, `n = 40, 45, …, 95`, in a fixed
/// assignment to cells; the seed draws the total weights and the order.
/// Every chunk of every seed thus holds the same mix of solves, so the
/// per-solve percentiles do not move with the seed, while no two entries of
/// a run share a fingerprint or a weight prefix, so every solve is cold.
pub fn cold_chunk(seed: u64, index: u64) -> Vec<SolveSpec> {
    let mut rng = Rng::derive(seed, 1_000 + index);
    let cells = PLATFORMS.len() * PATTERNS.len();
    let mut out = Vec::with_capacity(COLD_CHUNK);
    for (a, algorithm) in ALGORITHMS.into_iter().enumerate() {
        for cell in 0..cells {
            let (platform, pattern) =
                (PLATFORMS[cell / PATTERNS.len()], PATTERNS[cell % PATTERNS.len()]);
            // 5 is coprime to the 12 cells: a permutation of the sizes.
            let band = (5 * cell + 7 * a) % cells;
            out.push(spec(platform, pattern, 40 + 5 * band, total_weight(&mut rng), algorithm));
        }
    }
    rng.shuffle(&mut out);
    out
}

/// Orders `specs` so that consecutive entries alternate between the two
/// shards (seeded order within each shard; the surplus of the larger shard
/// goes last).  Load then splits between the shards the same way for every
/// seed, instead of depending on where the hash puts the few most requested
/// specs.
fn alternate_shards(specs: Vec<SolveSpec>, rng: &mut Rng) -> Vec<SolveSpec> {
    let mut pools: Vec<Vec<SolveSpec>> = vec![Vec::new(); SHARDS];
    for s in specs {
        pools[shard_of(&s)].push(s);
    }
    for pool in &mut pools {
        rng.shuffle(pool);
        pool.reverse();
    }
    let mut out = Vec::new();
    while pools.iter().any(|p| !p.is_empty()) {
        for pool in &mut pools {
            out.extend(pool.pop());
        }
    }
    out
}

/// Specs in the `hot_serve` set.
pub const HOT_SPECS: usize = 16;

/// The `hot_serve` spec set: 16 distinct specs, all cache hits once warm,
/// eight routed to each shard.
pub fn hot_specs(seed: u64) -> Vec<SolveSpec> {
    let mut rng = Rng::derive(seed, 2);
    let mut per_shard = [0usize; SHARDS];
    let mut out = Vec::with_capacity(HOT_SPECS);
    while out.len() < HOT_SPECS {
        let i = out.len();
        let candidate = spec(
            PLATFORMS[i % PLATFORMS.len()],
            PATTERNS[rng.below(PATTERNS.len())],
            30 + rng.below(11),
            total_weight(&mut rng),
            ALGORITHMS[(i / PLATFORMS.len()) % ALGORITHMS.len()],
        );
        let shard = shard_of(&candidate);
        if per_shard[shard] < HOT_SPECS / SHARDS {
            per_shard[shard] += 1;
            out.push(candidate);
        }
    }
    alternate_shards(out, &mut rng)
}

/// Size of the `zipf_serve` universe.
pub const ZIPF_UNIVERSE: usize = 400;
/// Weak-scaling ladders in the universe, and rungs per ladder.
const LADDERS: usize = 20;
const RUNGS: usize = 8;
/// Independent specs per ladder: sizes `n = 10, 13, …, 43`, three per
/// algorithm.
const SINGLES: usize = 12;

/// The `zipf_serve` universe, in popularity-rank order (rank 0 is the most
/// requested).
///
/// `LADDERS × RUNGS` entries are weak-scaling ladders — uniform pattern,
/// fixed integral per-task weight, `n = 8, 12, …, 36` — whose smaller rungs
/// are bitwise weight prefixes of the larger ones, so the engine's reuse and
/// extend routes occur.  The rest are independent specs of fixed sizes and
/// algorithms.  The seed draws platforms, patterns, weights and the rank
/// order, which alternates between the two shards.
pub fn zipf_universe(seed: u64) -> Vec<SolveSpec> {
    let mut rng = Rng::derive(seed, 3);
    let mut out = Vec::with_capacity(ZIPF_UNIVERSE);
    for ladder in 0..LADDERS {
        let platform = PLATFORMS[ladder % PLATFORMS.len()];
        let algorithm = ALGORITHMS[(ladder / PLATFORMS.len()) % ALGORITHMS.len()];
        let per_task = (300 + rng.below(700)) as f64;
        for rung in 0..RUNGS {
            let tasks = 8 + 4 * rung;
            out.push(spec(platform, "uniform", tasks, per_task * tasks as f64, algorithm));
        }
        for k in 0..SINGLES {
            out.push(spec(
                PLATFORMS[rng.below(PLATFORMS.len())],
                PATTERNS[rng.below(PATTERNS.len())],
                10 + 3 * k,
                total_weight(&mut rng),
                ALGORITHMS[k % ALGORITHMS.len()],
            ));
        }
    }
    alternate_shards(out, &mut rng)
}

/// Zipf(`s`) over ranks `0..n`: `P(k) ∝ 1 / (k + 1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for k in 0..n {
            total += 1.0 / ((k + 1) as f64).powf(s);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c <= u).min(self.cdf.len() - 1)
    }
}

/// Which spec each request of a load phase asks for.
pub enum Mix {
    /// Uniformly over `n` specs.
    Uniform(usize),
    /// By Zipf popularity over the universe.
    Zipf(Zipf),
}

impl Mix {
    pub fn draw(&self, rng: &mut Rng, count: usize) -> Vec<u32> {
        (0..count)
            .map(|_| match self {
                Mix::Uniform(n) => rng.below(*n) as u32,
                Mix::Zipf(z) => z.sample(rng) as u32,
            })
            .collect()
    }
}

/// Fixed-rate open-loop arrivals: request `i` is due `i / rate` seconds
/// after the phase starts, whatever happened to earlier requests.
pub fn due_offsets(rate: f64, seconds: f64) -> Vec<Duration> {
    let count = (rate * seconds).round().max(1.0) as u64;
    (0..count).map(|i| Duration::from_nanos((i as f64 * 1e9 / rate) as u64)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn prefix(a: &[f64], b: &[f64]) -> bool {
        a.len() <= b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
    }

    #[test]
    fn same_seed_same_inputs() {
        assert_eq!(cold_chunk(7, 0), cold_chunk(7, 0));
        assert_eq!(hot_specs(7), hot_specs(7));
        assert_eq!(zipf_universe(7), zipf_universe(7));
        assert_ne!(cold_chunk(7, 0), cold_chunk(8, 0));
        assert_ne!(cold_chunk(7, 0), cold_chunk(7, 1));
        let z = Zipf::new(50, 1.2);
        let draw = |seed| Mix::Zipf(z.clone()).draw(&mut Rng::new(seed), 100);
        assert_eq!(draw(3), draw(3));
        assert_ne!(draw(3), draw(4));
    }

    #[test]
    fn cold_chunks_cover_every_cell_and_n_range() {
        let chunk = cold_chunk(11, 0);
        assert_eq!(chunk.len(), COLD_CHUNK);
        let cells: HashSet<(String, String, String)> = chunk
            .iter()
            .map(|s| (s.platform.clone(), s.pattern.clone(), s.algorithm.clone()))
            .collect();
        assert_eq!(cells.len(), COLD_CHUNK);
        for algorithm in ALGORITHMS {
            let mut sizes: Vec<usize> =
                chunk.iter().filter(|s| s.algorithm == algorithm).map(|s| s.tasks).collect();
            sizes.sort_unstable();
            assert_eq!(sizes, (0..12).map(|k| 40 + 5 * k).collect::<Vec<_>>(), "{algorithm}");
        }
    }

    #[test]
    fn cold_entries_share_no_fingerprint_or_weight_prefix() {
        let specs: Vec<SolveSpec> = (0..12).flat_map(|i| cold_chunk(5, i)).collect();
        let resolved = resolve_all(&specs);
        let prints: HashSet<u64> =
            resolved.iter().map(|(s, a)| ScenarioFingerprint::stable_hash_of(s, *a)).collect();
        assert_eq!(prints.len(), resolved.len());
        for (i, (a, alg_a)) in resolved.iter().enumerate() {
            for (b, alg_b) in &resolved[i + 1..] {
                if alg_a == alg_b && a.platform.name == b.platform.name {
                    let (wa, wb) = (a.chain.weights(), b.chain.weights());
                    assert!(!prefix(wa, wb) && !prefix(wb, wa));
                }
            }
        }
    }

    #[test]
    fn zipf_universe_is_distinct_and_has_prefix_ladders() {
        let universe = zipf_universe(9);
        assert_eq!(universe.len(), ZIPF_UNIVERSE);
        let resolved = resolve_all(&universe);
        let prints: HashSet<u64> =
            resolved.iter().map(|(s, a)| ScenarioFingerprint::stable_hash_of(s, *a)).collect();
        assert_eq!(prints.len(), ZIPF_UNIVERSE);
        let prefixed = resolved
            .iter()
            .filter(|(a, alg)| {
                resolved.iter().any(|(b, alg_b)| {
                    alg == alg_b
                        && a.platform.name == b.platform.name
                        && a.task_count() < b.task_count()
                        && prefix(a.chain.weights(), b.chain.weights())
                })
            })
            .count();
        assert!(prefixed >= LADDERS * (RUNGS - 1), "{prefixed}");
    }

    #[test]
    fn serve_specs_alternate_between_shards() {
        let hot = hot_specs(3);
        assert_eq!(hot.len(), HOT_SPECS);
        assert!(hot.iter().enumerate().all(|(i, s)| shard_of(s) == i % SHARDS));
        let universe = zipf_universe(3);
        let head = universe.len() - 40;
        assert!(universe[..head].iter().enumerate().all(|(i, s)| shard_of(s) == i % SHARDS));
    }

    #[test]
    fn zipf_sampler_follows_its_law() {
        let z = Zipf::new(400, 1.2);
        let mut rng = Rng::new(1);
        let mut counts = vec![0u32; 400];
        let draws = 200_000;
        for _ in 0..draws {
            counts[z.sample(&mut rng)] += 1;
        }
        let norm: f64 = (1..=400).map(|k| 1.0 / (k as f64).powf(1.2)).sum();
        for k in [0usize, 1, 4, 19] {
            let expected = draws as f64 / ((k + 1) as f64).powf(1.2) / norm;
            let got = counts[k] as f64;
            assert!((got - expected).abs() < 0.05 * expected, "rank {k}: {got} vs {expected}");
        }
        assert!(counts.windows(2).take(5).all(|w| w[0] > w[1]));
    }

    #[test]
    fn due_times_are_evenly_spaced_from_zero() {
        let due = due_offsets(4_000.0, 0.5);
        assert_eq!(due.len(), 2_000);
        assert_eq!(due[0], Duration::ZERO);
        assert_eq!(due[1], Duration::from_micros(250));
        assert_eq!(due[1_999], Duration::from_micros(499_750));
        assert!(due.windows(2).all(|w| w[1] > w[0]));
        assert_eq!(due_offsets(10.0, 0.01).len(), 1);
    }
}
