//! Shared solution cache and batch solver service.
//!
//! The §IV harness re-solves the same `(platform, pattern, n, T)` scenarios
//! dozens of times across figure panels and sweeps: every count panel of
//! Figure 5 repeats the cells of its makespan panel, and the ablation sweeps
//! revisit grid cells at their default parameter values.  [`SolutionCache`]
//! memoizes those solves behind a canonical [`ScenarioFingerprint`] so each
//! distinct `(scenario, algorithm)` dynamic program runs **exactly once**,
//! even under concurrent access: entries are initialised through a per-entry
//! [`OnceLock`], so racing threads block on the single in-flight solve
//! instead of duplicating it.
//!
//! [`SolutionCache::solve_batch`] is the service-style entry point: it
//! accepts many [`SolveRequest`]s at once, solves the misses on the
//! work-stealing pool ([`rayon::scope`]) and returns the solutions in request
//! order.  Hit/miss statistics ([`CacheStats`]) make the sharing observable,
//! which is how the harness proves that repeated cells are served from cache.
//!
//! Because every optimizer in this crate is a deterministic pure function of
//! the scenario and algorithm, cached and uncached solves are bit-identical —
//! the cache can never change results, only skip recomputation.

use crate::incremental::IncrementalSolver;
use crate::lru::LruList;
use crate::solution::Solution;
use crate::{optimize, Algorithm};
use chain2l_model::Scenario;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Canonical fingerprint of one `(scenario, algorithm)` solve.
///
/// The fingerprint captures exactly the inputs the optimizers read: the
/// platform error rates, every field of the resilience cost model, the task
/// weight vector (as exact `f64` bit patterns) and the algorithm — which also
/// fixes the tail-accounting cost model (`Algorithm::TwoLevelPartial` vs.
/// `Algorithm::TwoLevelPartialRefined`).  Presentation-only fields — the
/// platform `name` and `nodes`, and the raw platform checkpoint costs that
/// [`chain2l_model::ResilienceCosts`] has already absorbed — are deliberately
/// excluded, so a renamed but otherwise identical platform still hits.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ScenarioFingerprint {
    pub(crate) lambda_fail_stop: u64,
    pub(crate) lambda_silent: u64,
    pub(crate) costs: [u64; 7],
    pub(crate) weights: Vec<u64>,
    pub(crate) algorithm: Algorithm,
}

/// The seven cost-model fields in fingerprint order, as `f64` bit patterns.
fn cost_bits(scenario: &Scenario) -> [u64; 7] {
    let c = &scenario.costs;
    [
        c.disk_checkpoint.to_bits(),
        c.memory_checkpoint.to_bits(),
        c.disk_recovery.to_bits(),
        c.memory_recovery.to_bits(),
        c.guaranteed_verification.to_bits(),
        c.partial_verification.to_bits(),
        c.partial_recall.to_bits(),
    ]
}

/// FNV-1a over the fingerprint byte stream (shared by [`ScenarioFingerprint::stable_hash`]
/// and the allocation-free [`ScenarioFingerprint::stable_hash_of`] — both
/// must digest exactly the same bytes).
fn stable_digest(
    lambda_fail_stop: u64,
    lambda_silent: u64,
    costs: &[u64; 7],
    weights: impl Iterator<Item = u64>,
    algorithm: Algorithm,
) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    eat(&lambda_fail_stop.to_le_bytes());
    eat(&lambda_silent.to_le_bytes());
    for c in costs {
        eat(&c.to_le_bytes());
    }
    for w in weights {
        eat(&w.to_le_bytes());
    }
    eat(algorithm.label().as_bytes());
    hash
}

impl ScenarioFingerprint {
    /// Deterministic, process-stable 64-bit digest of the fingerprint
    /// (FNV-1a over every field).
    ///
    /// Unlike `Hash`/`RandomState`, the digest is identical across processes
    /// and runs, which is what the service layer's shard routing requires:
    /// the parent daemon and every worker must agree on
    /// `stable_hash() % shard_count` without sharing hasher state.
    pub fn stable_hash(&self) -> u64 {
        stable_digest(
            self.lambda_fail_stop,
            self.lambda_silent,
            &self.costs,
            self.weights.iter().copied(),
            self.algorithm,
        )
    }

    /// [`Self::stable_hash`] computed directly from the scenario, without
    /// materialising a fingerprint — the allocation-free lookup key of the
    /// cache's hit path (`stable_hash_of(s, a) == ScenarioFingerprint::new(s, a).stable_hash()`
    /// by construction: both digest the same byte stream).
    pub fn stable_hash_of(scenario: &Scenario, algorithm: Algorithm) -> u64 {
        stable_digest(
            scenario.platform.lambda_fail_stop.to_bits(),
            scenario.platform.lambda_silent.to_bits(),
            &cost_bits(scenario),
            scenario.chain.weights().iter().map(|w| w.to_bits()),
            algorithm,
        )
    }

    /// Whether this fingerprint is exactly the one [`Self::new`] would
    /// compute for `(scenario, algorithm)` — field-by-field bitwise
    /// comparison, no allocation.
    pub fn matches(&self, scenario: &Scenario, algorithm: Algorithm) -> bool {
        self.algorithm == algorithm
            && self.lambda_fail_stop == scenario.platform.lambda_fail_stop.to_bits()
            && self.lambda_silent == scenario.platform.lambda_silent.to_bits()
            && self.costs == cost_bits(scenario)
            && self.weights.len() == scenario.chain.weights().len()
            && self
                .weights
                .iter()
                .zip(scenario.chain.weights())
                .all(|(stored, w)| *stored == w.to_bits())
    }

    /// Computes the fingerprint of `scenario` solved with `algorithm`.
    pub fn new(scenario: &Scenario, algorithm: Algorithm) -> Self {
        Self {
            lambda_fail_stop: scenario.platform.lambda_fail_stop.to_bits(),
            lambda_silent: scenario.platform.lambda_silent.to_bits(),
            costs: cost_bits(scenario),
            weights: scenario.chain.weights().iter().map(|w| w.to_bits()).collect(),
            algorithm,
        }
    }
}

/// One request of a [`SolutionCache::solve_batch`] call.
#[derive(Debug, Clone)]
pub struct SolveRequest {
    /// The scenario to optimize.
    pub scenario: Scenario,
    /// The algorithm to run on it.
    pub algorithm: Algorithm,
}

impl SolveRequest {
    /// Bundles a scenario with the algorithm to run on it.
    pub fn new(scenario: Scenario, algorithm: Algorithm) -> Self {
        Self { scenario, algorithm }
    }
}

/// Aggregate cache statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Requests that found an existing entry (served without re-solving).
    pub hits: u64,
    /// Requests that created a new entry; each one ran the DP exactly once.
    pub misses: u64,
    /// Number of distinct fingerprints currently cached.
    pub entries: usize,
    /// Entries evicted by the configured [`CacheLimits`].
    pub evictions: u64,
    /// Approximate bytes held by the cached entries (fingerprint + solution
    /// estimate; see [`CacheLimits::max_bytes`]).
    pub approx_bytes: usize,
}

impl CacheStats {
    /// Fraction of requests served from cache (`0.0` before any request).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

impl std::fmt::Display for CacheStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} hits, {} misses ({:.1} % hit rate), {} entries ({} evicted, ~{} KiB)",
            self.hits,
            self.misses,
            self.hit_rate() * 100.0,
            self.entries,
            self.evictions,
            self.approx_bytes / 1024
        )
    }
}

/// A per-fingerprint slot; the `OnceLock` guarantees the solve runs once.
type CacheEntry = Arc<OnceLock<Arc<Solution>>>;

/// Capacity bounds of a [`SolutionCache`] (both unbounded by default).
///
/// When either bound is exceeded the least-recently-used entries are
/// evicted first; an in-flight entry that is evicted simply finishes for
/// its current waiters and is forgotten — eviction can never change a
/// result, only force a future re-solve.
///
/// Victim selection walks an intrusive doubly-linked recency list
/// ([`crate::lru::LruList`]): O(1) per eviction, and the hit path's only
/// bookkeeping is an O(1), allocation-free relink — the zero-allocation
/// hit-path guarantee (`tests/alloc_free.rs`) holds at any cap.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheLimits {
    /// Maximum number of cached entries (`None` = unbounded).
    pub max_entries: Option<usize>,
    /// Approximate byte budget (`None` = unbounded).  Entry sizes are
    /// estimated from the fingerprint and schedule footprint — the cache
    /// does not measure the allocator, it bounds growth.
    pub max_bytes: Option<usize>,
}

/// One cached fingerprint: the entry, its recency-list node and its size
/// estimate.
struct Slot {
    fingerprint: ScenarioFingerprint,
    entry: CacheEntry,
    lru_id: usize,
    approx_bytes: usize,
}

/// The cache's bucketed store, keyed by the process-stable fingerprint
/// digest so the hit path never materialises a fingerprint (collisions are
/// resolved by exact comparison inside the bucket).  Recency lives in an
/// intrusive [`LruList`]; `lru_hashes[slot.lru_id]` maps a list node back
/// to its bucket, so evicting the tail is O(1) plus a scan of one
/// (almost always single-entry) bucket.
#[derive(Default)]
struct Store {
    buckets: HashMap<u64, Vec<Slot>>,
    lru: LruList,
    /// Bucket hash of each recency node, indexed by node id (slab-stable).
    lru_hashes: Vec<u64>,
    entries: usize,
    approx_bytes: usize,
}

impl Store {
    /// The slot cached for `(scenario, algorithm)` under its digest `hash`,
    /// found by allocation-free comparison.
    fn slot(&self, hash: u64, scenario: &Scenario, algorithm: Algorithm) -> Option<&Slot> {
        self.buckets.get(&hash)?.iter().find(|slot| slot.fingerprint.matches(scenario, algorithm))
    }

    /// Links a fresh recency node for the slot being inserted under `hash`.
    fn lru_insert(&mut self, hash: u64) -> usize {
        let id = self.lru.push_front();
        if id == self.lru_hashes.len() {
            self.lru_hashes.push(hash);
        } else {
            self.lru_hashes[id] = hash;
        }
        id
    }

    /// Evicts least-recently-used slots until both limits hold, sparing the
    /// node `spare` (the one the caller just inserted).  Returns the number
    /// of evictions.
    fn enforce(&mut self, limits: &CacheLimits, spare: usize) -> u64 {
        let over = |store: &Store| {
            limits.max_entries.is_some_and(|cap| store.entries > cap)
                || limits.max_bytes.is_some_and(|cap| store.approx_bytes > cap)
        };
        let mut evicted = 0;
        while over(self) {
            let victim = match self.lru.tail() {
                Some(id) if id != spare => id,
                _ => break,
            };
            let hash = self.lru_hashes[victim];
            let bucket = self.buckets.get_mut(&hash).expect("victim's bucket present");
            let index =
                bucket.iter().position(|slot| slot.lru_id == victim).expect("victim in bucket");
            let slot = bucket.swap_remove(index);
            if bucket.is_empty() {
                self.buckets.remove(&hash);
            }
            self.lru.remove(victim);
            self.entries -= 1;
            self.approx_bytes -= slot.approx_bytes;
            evicted += 1;
        }
        evicted
    }
}

/// Size estimate of one cached entry: fingerprint weights, the solution
/// struct and its schedule actions (one byte-sized action per boundary),
/// plus fixed bookkeeping overhead.
fn approx_entry_bytes(n: usize) -> usize {
    160 + 16 * n
}

/// Concurrency-safe, memoizing solver front-end (see the module docs).
///
/// Share one cache (`&SolutionCache` is all the API needs) across figure
/// panels, sweeps and batch calls to deduplicate their scenario solves.
///
/// # Examples
///
/// ```
/// use chain2l_core::cache::SolutionCache;
/// use chain2l_core::Algorithm;
/// use chain2l_model::platform::scr;
/// use chain2l_model::{Scenario, WeightPattern};
///
/// let cache = SolutionCache::new();
/// let s = Scenario::paper_setup(&scr::hera(), &WeightPattern::Uniform, 10, 25_000.0).unwrap();
/// let first = cache.solve(&s, Algorithm::TwoLevel);
/// let second = cache.solve(&s, Algorithm::TwoLevel);
/// assert_eq!(first.expected_makespan, second.expected_makespan);
/// let stats = cache.stats();
/// assert_eq!((stats.misses, stats.hits), (1, 1));
/// ```
#[derive(Default)]
pub struct SolutionCache {
    store: Mutex<Store>,
    limits: CacheLimits,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    /// When present, cache misses are solved through the incremental-in-`n`
    /// solver instead of a from-scratch [`optimize`] call.
    incremental: Option<IncrementalSolver>,
}

impl std::fmt::Debug for SolutionCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SolutionCache")
            .field("stats", &self.stats())
            .field("limits", &self.limits)
            .finish()
    }
}

impl SolutionCache {
    /// Creates an empty, unbounded cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty cache bounded by `limits`: when the entry count or
    /// the approximate byte footprint exceeds its cap, least-recently-used
    /// entries are evicted (observable through [`CacheStats::evictions`]).
    pub fn with_limits(limits: CacheLimits) -> Self {
        Self { limits, ..Self::default() }
    }

    /// Creates a cache whose misses run through an [`IncrementalSolver`]:
    /// prefix-compatible scenarios (e.g. an ascending weak-scaling `n`-sweep)
    /// extend the previous solve's DP tables instead of starting over.
    ///
    /// Expected makespans and schedules are bit-identical to the plain cache
    /// — the incremental kernels perform the same arithmetic on the same
    /// inputs — so swapping constructors can never change results, only the
    /// amount of work (observable through [`Self::incremental_stats`]).
    /// Misses within one context solve serially (they share tables), so
    /// prefer [`SolutionCache::new`] for workloads with no prefix overlap.
    pub fn new_incremental() -> Self {
        Self { incremental: Some(IncrementalSolver::new()), ..Self::default() }
    }

    /// Path statistics of the backing incremental solver, if any.
    pub fn incremental_stats(&self) -> Option<crate::IncrementalStats> {
        self.incremental.as_ref().map(IncrementalSolver::stats)
    }

    /// Returns the optimal solution for `(scenario, algorithm)`, running the
    /// dynamic program at most once per fingerprint.
    ///
    /// Concurrent callers with the same fingerprint block on the single
    /// in-flight solve instead of duplicating it.
    pub fn solve(&self, scenario: &Scenario, algorithm: Algorithm) -> Arc<Solution> {
        self.solve_with(scenario, algorithm, || match &self.incremental {
            Some(solver) => solver.solve(scenario, algorithm),
            None => optimize(scenario, algorithm),
        })
    }

    /// The memoization primitive behind [`Self::solve`]: returns the cached
    /// solution for `(scenario, algorithm)`, running `solve` at most once per
    /// fingerprint to produce it.
    ///
    /// `solve` must be a deterministic pure function of the scenario and
    /// algorithm (every solver in this crate is), otherwise the cache would
    /// make results dependent on request order.  [`crate::Engine`] plugs its
    /// strategy router in here.
    ///
    /// The hit path performs **zero heap allocations**: the lookup key is
    /// the process-stable digest streamed straight off the scenario
    /// ([`ScenarioFingerprint::stable_hash_of`]), bucket collisions are
    /// resolved by the allocation-free [`ScenarioFingerprint::matches`], and
    /// the cached `Arc` is cloned — which is what makes a warm
    /// [`crate::Engine::solve`] allocation-free end to end (proved by the
    /// counting-allocator test in `tests/alloc_free.rs`).
    pub fn solve_with(
        &self,
        scenario: &Scenario,
        algorithm: Algorithm,
        solve: impl FnOnce() -> Solution,
    ) -> Arc<Solution> {
        let hash = ScenarioFingerprint::stable_hash_of(scenario, algorithm);
        let entry = {
            let mut store = self.store.lock().expect("cache store poisoned");
            let hit =
                store.slot(hash, scenario, algorithm).map(|slot| (slot.lru_id, slot.entry.clone()));
            match hit {
                Some((lru_id, entry)) => {
                    store.lru.touch(lru_id);
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    entry
                }
                None => {
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    let fingerprint = ScenarioFingerprint::new(scenario, algorithm);
                    let entry: CacheEntry = Arc::new(OnceLock::new());
                    let approx_bytes = approx_entry_bytes(scenario.task_count());
                    let lru_id = store.lru_insert(hash);
                    store.buckets.entry(hash).or_default().push(Slot {
                        fingerprint,
                        entry: entry.clone(),
                        lru_id,
                        approx_bytes,
                    });
                    store.entries += 1;
                    store.approx_bytes += approx_bytes;
                    let evicted = store.enforce(&self.limits, lru_id);
                    if evicted > 0 {
                        self.evictions.fetch_add(evicted, Ordering::Relaxed);
                    }
                    entry
                }
            }
        };
        // Outside the store lock: other fingerprints stay unblocked while
        // the (possibly expensive) DP runs.
        entry.get_or_init(|| Arc::new(solve())).clone()
    }

    /// Returns the cached solution for `(scenario, algorithm)` only when its
    /// solve has already **finished**; never solves and never blocks.
    ///
    /// A finished entry counts exactly one hit and is touched in the recency
    /// list, like the hit arm of [`Self::solve_with`].  An absent entry, or
    /// one whose solve is still in flight, returns `None` and counts nothing
    /// — the caller is expected to follow up with [`Self::solve_with`],
    /// which then counts that request's hit or miss.  Same store lock, same
    /// allocation-free lookup as the hit path of [`Self::solve_with`].
    pub fn cached(&self, scenario: &Scenario, algorithm: Algorithm) -> Option<Arc<Solution>> {
        let hash = ScenarioFingerprint::stable_hash_of(scenario, algorithm);
        let mut store = self.store.lock().expect("cache store poisoned");
        let (lru_id, solution) = store
            .slot(hash, scenario, algorithm)
            .and_then(|slot| Some((slot.lru_id, slot.entry.get()?.clone())))?;
        store.lru.touch(lru_id);
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(solution)
    }

    /// Solves every request and returns the solutions **in request order**,
    /// running the misses concurrently on the work-stealing pool.
    ///
    /// Duplicate requests within one batch (and requests already cached) are
    /// served from the shared entry — each distinct fingerprint is still
    /// solved exactly once.
    pub fn solve_batch(&self, requests: &[SolveRequest]) -> Vec<Arc<Solution>> {
        let mut results: Vec<Option<Arc<Solution>>> = requests.iter().map(|_| None).collect();
        rayon::scope(|s| {
            for (slot, request) in results.iter_mut().zip(requests) {
                s.spawn(move |_| *slot = Some(self.solve(&request.scenario, request.algorithm)));
            }
        });
        results.into_iter().map(|r| r.expect("scope joined all solves")).collect()
    }

    /// Hit/miss/entry statistics accumulated since construction.
    pub fn stats(&self) -> CacheStats {
        let (entries, approx_bytes) = {
            let store = self.store.lock().expect("cache store poisoned");
            (store.entries, store.approx_bytes)
        };
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries,
            evictions: self.evictions.load(Ordering::Relaxed),
            approx_bytes,
        }
    }

    /// Number of distinct fingerprints cached.
    pub fn len(&self) -> usize {
        self.store.lock().expect("cache store poisoned").entries
    }

    /// True when no solve has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot view of every *settled* entry as `(fingerprint, solution)`
    /// pairs, ordered least- to most-recently used.
    ///
    /// Entries whose solve is still in flight (unset `OnceLock`) are skipped
    /// — `get()` never blocks, so exporting can never serialize behind a
    /// cold solve.  Re-inserting the pairs in the returned order through
    /// [`Self::restore_entry`] reproduces the recency order exactly.
    pub(crate) fn export_entries(&self) -> Vec<(ScenarioFingerprint, Arc<Solution>)> {
        let store = self.store.lock().expect("cache store poisoned");
        let mut out = Vec::with_capacity(store.entries);
        for lru_id in store.lru.iter_lru() {
            let hash = store.lru_hashes[lru_id];
            let Some(bucket) = store.buckets.get(&hash) else { continue };
            let Some(slot) = bucket.iter().find(|slot| slot.lru_id == lru_id) else { continue };
            if let Some(solution) = slot.entry.get() {
                out.push((slot.fingerprint.clone(), solution.clone()));
            }
        }
        out
    }

    /// Re-installs one snapshot-restored entry with its solution already
    /// settled, inserting at the most-recently-used position.
    ///
    /// Counts toward the entry/byte limits (evicting if needed) but not
    /// toward hits or misses — a restore is neither.  Returns `false` when
    /// the fingerprint is already cached (the existing entry wins).
    pub(crate) fn restore_entry(
        &self,
        fingerprint: ScenarioFingerprint,
        solution: Arc<Solution>,
    ) -> bool {
        let hash = fingerprint.stable_hash();
        let approx_bytes = approx_entry_bytes(fingerprint.weights.len());
        let mut store = self.store.lock().expect("cache store poisoned");
        if store
            .buckets
            .get(&hash)
            .is_some_and(|bucket| bucket.iter().any(|slot| slot.fingerprint == fingerprint))
        {
            return false;
        }
        let entry: CacheEntry = Arc::new(OnceLock::new());
        let _ = entry.set(solution);
        let lru_id = store.lru_insert(hash);
        store.buckets.entry(hash).or_default().push(Slot {
            fingerprint,
            entry,
            lru_id,
            approx_bytes,
        });
        store.entries += 1;
        store.approx_bytes += approx_bytes;
        let evicted = store.enforce(&self.limits, lru_id);
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
        true
    }

    /// Drops every cached entry (the hit/miss/eviction counters keep
    /// accumulating).
    pub fn clear(&self) {
        let mut store = self.store.lock().expect("cache store poisoned");
        store.buckets.clear();
        store.lru = LruList::new();
        store.lru_hashes.clear();
        store.entries = 0;
        store.approx_bytes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chain2l_model::platform::scr;
    use chain2l_model::WeightPattern;

    fn hera_uniform(n: usize) -> Scenario {
        Scenario::paper_setup(&scr::hera(), &WeightPattern::Uniform, n, 25_000.0).unwrap()
    }

    #[test]
    fn fingerprint_ignores_presentation_fields() {
        let s = hera_uniform(10);
        let mut renamed_platform = scr::hera();
        renamed_platform.name = "Hera (renamed)".to_string();
        renamed_platform.nodes = 1;
        let renamed =
            Scenario::paper_setup(&renamed_platform, &WeightPattern::Uniform, 10, 25_000.0)
                .unwrap();
        assert_eq!(
            ScenarioFingerprint::new(&s, Algorithm::TwoLevel),
            ScenarioFingerprint::new(&renamed, Algorithm::TwoLevel)
        );
    }

    #[test]
    fn fingerprint_distinguishes_every_optimizer_input() {
        let base = ScenarioFingerprint::new(&hera_uniform(10), Algorithm::TwoLevel);
        // Different algorithm.
        assert_ne!(base, ScenarioFingerprint::new(&hera_uniform(10), Algorithm::SingleLevel));
        // Different chain.
        assert_ne!(base, ScenarioFingerprint::new(&hera_uniform(11), Algorithm::TwoLevel));
        // Different cost model.
        let mut costs_changed = hera_uniform(10);
        costs_changed.costs.partial_recall = 0.5;
        assert_ne!(base, ScenarioFingerprint::new(&costs_changed, Algorithm::TwoLevel));
        // Different rates.
        let scaled = scr::hera().with_scaled_rates(2.0).unwrap();
        let scaled = Scenario::paper_setup(&scaled, &WeightPattern::Uniform, 10, 25_000.0).unwrap();
        assert_ne!(base, ScenarioFingerprint::new(&scaled, Algorithm::TwoLevel));
    }

    #[test]
    fn solve_memoizes_and_counts_hits() {
        let cache = SolutionCache::new();
        let s = hera_uniform(12);
        let direct = optimize(&s, Algorithm::TwoLevel);
        let first = cache.solve(&s, Algorithm::TwoLevel);
        let second = cache.solve(&s, Algorithm::TwoLevel);
        assert!(Arc::ptr_eq(&first, &second), "hit must return the cached allocation");
        assert_eq!(direct.expected_makespan.to_bits(), first.expected_makespan.to_bits());
        assert_eq!(direct.schedule, first.schedule);
        assert_eq!(direct.stats, first.stats);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
        assert_eq!(cache.len(), 1);
        assert!(!cache.is_empty());
    }

    #[test]
    fn solve_batch_preserves_order_and_dedups() {
        let cache = SolutionCache::new();
        let requests = vec![
            SolveRequest::new(hera_uniform(8), Algorithm::TwoLevel),
            SolveRequest::new(hera_uniform(10), Algorithm::SingleLevel),
            SolveRequest::new(hera_uniform(8), Algorithm::TwoLevel), // duplicate of #0
            SolveRequest::new(hera_uniform(8), Algorithm::SingleLevel),
        ];
        let solutions = cache.solve_batch(&requests);
        assert_eq!(solutions.len(), 4);
        assert!(Arc::ptr_eq(&solutions[0], &solutions[2]));
        for (req, sol) in requests.iter().zip(&solutions) {
            let direct = optimize(&req.scenario, req.algorithm);
            assert_eq!(direct.expected_makespan.to_bits(), sol.expected_makespan.to_bits());
            assert_eq!(direct.schedule, sol.schedule);
        }
        let stats = cache.stats();
        assert_eq!(stats.misses, 3, "three distinct fingerprints");
        assert_eq!(stats.hits, 1, "the duplicate is served from cache");
        // A second identical batch is all hits.
        let again = cache.solve_batch(&requests);
        assert!(Arc::ptr_eq(&solutions[1], &again[1]));
        assert_eq!(cache.stats().misses, 3);
    }

    #[test]
    fn clear_drops_entries_but_keeps_counters() {
        let cache = SolutionCache::new();
        let s = hera_uniform(6);
        cache.solve(&s, Algorithm::TwoLevel);
        cache.clear();
        assert!(cache.is_empty());
        cache.solve(&s, Algorithm::TwoLevel);
        let stats = cache.stats();
        assert_eq!(stats.misses, 2, "cleared entry must be re-solved");
    }

    #[test]
    fn incremental_cache_is_bit_identical_and_reports_reuse() {
        let platform = scr::hera();
        let costs = chain2l_model::ResilienceCosts::paper_defaults(&platform);
        let weak = |n: usize| {
            Scenario::new(
                chain2l_model::TaskChain::from_weights(vec![500.0; n]).unwrap(),
                platform.clone(),
                costs,
            )
            .unwrap()
        };
        let cache = SolutionCache::new_incremental();
        assert!(SolutionCache::new().incremental_stats().is_none());
        for n in [4usize, 9, 18] {
            let sol = cache.solve(&weak(n), Algorithm::TwoLevel);
            let direct = optimize(&weak(n), Algorithm::TwoLevel);
            assert_eq!(direct.expected_makespan.to_bits(), sol.expected_makespan.to_bits());
            assert_eq!(direct.schedule, sol.schedule);
        }
        let inc = cache.incremental_stats().expect("incremental mode");
        assert_eq!((inc.cold_solves, inc.extensions), (1, 2));
        // Memoization still applies on top.
        cache.solve(&weak(9), Algorithm::TwoLevel);
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.incremental_stats().unwrap().extensions, 2);
    }

    #[test]
    fn streaming_hash_and_matches_agree_with_materialised_fingerprints() {
        let scenarios = [hera_uniform(5), hera_uniform(9)];
        let algorithms = [Algorithm::TwoLevel, Algorithm::TwoLevelPartial];
        for s in &scenarios {
            for a in algorithms {
                let fingerprint = ScenarioFingerprint::new(s, a);
                assert_eq!(
                    fingerprint.stable_hash(),
                    ScenarioFingerprint::stable_hash_of(s, a),
                    "streamed digest must equal the materialised one"
                );
                assert!(fingerprint.matches(s, a));
                for other in &scenarios {
                    for b in algorithms {
                        if (other.task_count(), b) != (s.task_count(), a) {
                            assert!(!fingerprint.matches(other, b));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn entry_cap_evicts_least_recently_used_entries() {
        let cache =
            SolutionCache::with_limits(CacheLimits { max_entries: Some(2), max_bytes: None });
        let (a, b, c) = (hera_uniform(4), hera_uniform(5), hera_uniform(6));
        cache.solve(&a, Algorithm::TwoLevel);
        cache.solve(&b, Algorithm::TwoLevel);
        // Touch `a` so `b` becomes the least recently used…
        cache.solve(&a, Algorithm::TwoLevel);
        // …and inserting `c` evicts `b`, not `a`.
        cache.solve(&c, Algorithm::TwoLevel);
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.evictions), (2, 1), "{stats:?}");
        cache.solve(&a, Algorithm::TwoLevel);
        assert_eq!(cache.stats().hits, 2, "a must still be cached");
        cache.solve(&b, Algorithm::TwoLevel);
        assert_eq!(cache.stats().misses, 4, "b must have been evicted and re-solved");
        assert_eq!(cache.stats().evictions, 2, "re-inserting b evicts again");
    }

    #[test]
    fn cached_returns_only_finished_entries_and_counts_one_hit() {
        let cache = SolutionCache::new();
        let s = hera_uniform(7);
        assert!(cache.cached(&s, Algorithm::TwoLevel).is_none());
        assert_eq!(cache.stats(), CacheStats::default(), "an absent entry counts nothing");
        let solved = cache.solve(&s, Algorithm::TwoLevel);
        let hit = cache.cached(&s, Algorithm::TwoLevel).expect("finished entry");
        assert!(Arc::ptr_eq(&solved, &hit), "a hit returns the cached allocation");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1), "{stats:?}");
        // Another algorithm on the same scenario is a different fingerprint.
        assert!(cache.cached(&s, Algorithm::SingleLevel).is_none());
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn cached_skips_an_entry_whose_solve_is_in_flight() {
        let cache = SolutionCache::new();
        let s = hera_uniform(6);
        let (started_tx, started_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let (shared, scenario) = (&cache, &s);
        std::thread::scope(|scope| {
            let solver = scope.spawn(move || {
                shared.solve_with(scenario, Algorithm::TwoLevel, || {
                    started_tx.send(()).unwrap();
                    release_rx.recv().unwrap();
                    optimize(scenario, Algorithm::TwoLevel)
                })
            });
            started_rx.recv().unwrap();
            assert!(cache.cached(&s, Algorithm::TwoLevel).is_none(), "must not block");
            assert_eq!((cache.stats().hits, cache.stats().misses), (0, 1));
            release_tx.send(()).unwrap();
            let solved = solver.join().unwrap();
            let hit = cache.cached(&s, Algorithm::TwoLevel).expect("now finished");
            assert!(Arc::ptr_eq(&solved, &hit));
        });
        assert_eq!((cache.stats().hits, cache.stats().misses), (1, 1));
    }

    #[test]
    fn cached_hits_keep_the_same_eviction_order_as_solve_hits() {
        let cache =
            SolutionCache::with_limits(CacheLimits { max_entries: Some(2), max_bytes: None });
        let (a, b, c) = (hera_uniform(4), hera_uniform(5), hera_uniform(6));
        cache.solve(&a, Algorithm::TwoLevel);
        cache.solve(&b, Algorithm::TwoLevel);
        // Touch `a` through `cached` (where `entry_cap_evicts_…` uses
        // `solve`): `b` becomes the least recently used…
        assert!(cache.cached(&a, Algorithm::TwoLevel).is_some());
        // …and inserting `c` evicts `b`, not `a`.
        cache.solve(&c, Algorithm::TwoLevel);
        assert!(cache.cached(&a, Algorithm::TwoLevel).is_some(), "a must still be cached");
        assert!(cache.cached(&b, Algorithm::TwoLevel).is_none(), "b must have been evicted");
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.evictions), (2, 1), "{stats:?}");
        assert_eq!((stats.hits, stats.misses), (2, 3), "{stats:?}");
    }

    #[test]
    fn byte_cap_bounds_the_approximate_footprint() {
        let budget = 2 * super::approx_entry_bytes(10);
        let cache =
            SolutionCache::with_limits(CacheLimits { max_entries: None, max_bytes: Some(budget) });
        for n in 4..10 {
            cache.solve(&hera_uniform(n), Algorithm::SingleLevel);
        }
        let stats = cache.stats();
        assert!(stats.approx_bytes <= budget, "{stats:?}");
        assert!(stats.entries >= 1 && stats.entries <= 2, "{stats:?}");
        assert!(stats.evictions >= 4, "{stats:?}");
        // Results are still correct after heavy eviction.
        let sol = cache.solve(&hera_uniform(4), Algorithm::SingleLevel);
        let direct = optimize(&hera_uniform(4), Algorithm::SingleLevel);
        assert_eq!(sol.expected_makespan.to_bits(), direct.expected_makespan.to_bits());
    }

    #[test]
    fn hit_rate_is_zero_not_nan_before_any_lookup() {
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
        assert_eq!(SolutionCache::new().stats().hit_rate(), 0.0);
    }

    #[test]
    fn stable_hash_is_deterministic_and_input_sensitive() {
        let base = ScenarioFingerprint::new(&hera_uniform(10), Algorithm::TwoLevel);
        assert_eq!(
            base.stable_hash(),
            ScenarioFingerprint::new(&hera_uniform(10), Algorithm::TwoLevel).stable_hash()
        );
        for other in [
            ScenarioFingerprint::new(&hera_uniform(11), Algorithm::TwoLevel),
            ScenarioFingerprint::new(&hera_uniform(10), Algorithm::SingleLevel),
        ] {
            assert_ne!(base.stable_hash(), other.stable_hash());
        }
    }

    #[test]
    fn stats_display_is_readable() {
        let stats = CacheStats { hits: 3, misses: 1, entries: 1, evictions: 0, approx_bytes: 2048 };
        let text = stats.to_string();
        assert!(text.contains("3 hits"), "{text}");
        assert!(text.contains("75.0 % hit rate"), "{text}");
    }
}
