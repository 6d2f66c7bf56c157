//! The serve workloads, `hot_serve` and `zipf_serve`: open-loop traffic
//! against `chain2l serve --shards 2`, run as a child process.

use crate::check::{count_failures, reference_answers, request_line};
use crate::daemon::{self, Daemon};
use crate::layers;
use crate::openloop::{closed_loop, open_loop, PhaseResult};
use crate::report::Outcome;
use crate::stats::{self, Summary};
use crate::trace::Tracer;
use crate::workload::{due_offsets, hot_specs, zipf_universe, Mix, Rng, Zipf, ZIPF_UNIVERSE};
use chain2l_service::client;
use chain2l_service::protocol::{SolveResult, SolveSpec};
use std::io;
use std::path::Path;

pub use crate::workload::SHARDS;

/// Offered-rate growth between ladder steps above the heavy rate, and the
/// most steps a run takes.
const LADDER_FACTOR: f64 = 1.15;
const LADDER_STEPS: usize = 6;

pub struct ServeWorkload {
    pub name: &'static str,
    pub cache_cap: Option<usize>,
    /// Offered rates of the light and heavy phases (requests/s): for
    /// `hot_serve` about 30 % and 60 % of its capacity on a 2-core machine,
    /// for `zipf_serve` about 20 % and 50 % (see `ZIPF`).
    pub light_rps: f64,
    pub heavy_rps: f64,
    /// The p99 latency limit that defines `max_rps_p99`.
    pub p99_limit_ms: f64,
    /// Sender lateness (p99) that never counts as late: solver threads
    /// preempt the sender for a few ms on 2 cores.
    pub late_limit_ms: f64,
}

pub const HOT: ServeWorkload = ServeWorkload {
    name: "hot_serve",
    cache_cap: None,
    light_rps: 8_000.0,
    heavy_rps: 16_000.0,
    p99_limit_ms: 5.0,
    late_limit_ms: 1.5,
};

/// At 3 000 requests/s the light p50 sat where hits start to wait behind
/// misses: a few percent of CPU steal doubled it.  At 2 000 it held within
/// 3 % at 4 % steal.
pub const ZIPF: ServeWorkload = ServeWorkload {
    name: "zipf_serve",
    cache_cap: Some(128),
    light_rps: 2_000.0,
    heavy_rps: 5_000.0,
    p99_limit_ms: 50.0,
    late_limit_ms: 10.0,
};

/// The specs of a workload and the mix requests draw from.
pub fn specs_and_mix(w: &ServeWorkload, seed: u64) -> (Vec<SolveSpec>, Mix) {
    if w.cache_cap.is_some() {
        (zipf_universe(seed), Mix::Zipf(Zipf::new(ZIPF_UNIVERSE, 1.2)))
    } else {
        let specs = hot_specs(seed);
        let n = specs.len();
        (specs, Mix::Uniform(n))
    }
}

/// One load phase's inputs: which spec each request asks for, and its line.
pub struct Traffic {
    pub spec_of: Vec<u32>,
    pub lines: Vec<String>,
}

impl Traffic {
    pub fn new(specs: &[SolveSpec], mix: &Mix, rng: &mut Rng, count: usize) -> Traffic {
        let spec_of = mix.draw(rng, count);
        let lines = spec_of
            .iter()
            .enumerate()
            .map(|(id, &s)| request_line(id as u64, &specs[s as usize]))
            .collect();
        Traffic { spec_of, lines }
    }
}

/// Everything a phase needs besides its rate.
pub struct Ctx<'a> {
    pub addr: &'a str,
    pub specs: &'a [SolveSpec],
    pub mix: &'a Mix,
    pub expected: &'a [SolveResult],
    pub seed: u64,
    pub phases: u64,
}

pub struct Phase {
    pub result: PhaseResult,
    pub latency: Summary,
    pub late: Summary,
    pub attempted: u64,
    pub failed: u64,
}

impl Ctx<'_> {
    /// Runs one open-loop phase and checks every answer.
    pub fn phase(&mut self, rate: f64, seconds: f64, tracer: Option<&Tracer>) -> io::Result<Phase> {
        self.phases += 1;
        let due = due_offsets(rate, seconds);
        let mut rng = Rng::derive(self.seed, 100 + self.phases);
        let traffic = Traffic::new(self.specs, self.mix, &mut rng, due.len());
        let result = open_loop(self.addr, &traffic.lines, &due, tracer)?;
        let failed = count_failures(&result.responses, &traffic.spec_of, self.expected);
        Ok(Phase {
            latency: Summary::of(result.latency_ms.clone()),
            late: Summary::of(result.late_ms.clone()),
            attempted: due.len() as u64,
            failed,
            result,
        })
    }
}

fn describe(outcome: &mut Outcome, label: &str, rate: f64, p: &Phase) {
    outcome.note(format!(
        "{label} @ {rate:.0} rps: latency {}; sender late p99 {:.3} ms; backlog max {} (at end {}); failed {}/{}",
        p.latency.describe(),
        p.late.p99,
        p.result.backlog_max,
        p.result.backlog_at_end,
        p.failed,
        p.attempted
    ));
}

/// `r*` where the p99 crosses `limit`, interpolating `ln p99` linearly in
/// the rate between a passing point and the failing point above it.
pub fn crossing(pass: (f64, f64), fail: (f64, f64), limit: f64) -> f64 {
    let ((r1, p1), (r2, p2)) = (pass, fail);
    if p2 <= p1 || p1 <= 0.0 {
        return r1;
    }
    let t = ((limit.ln() - p1.ln()) / (p2.ln() - p1.ln())).clamp(0.0, 1.0);
    r1 + t * (r2 - r1)
}

/// The generator ran late when its own lateness p99 exceeds 80 % of the
/// latency p99 it measured (and the workload's floor): the tail is then
/// mostly the sender's delay.  A host that stalls the whole VM delays
/// sender and daemon alike and leaves the ratio lower; a sender that cannot
/// keep up drives it toward 1.
fn generator_late(w: &ServeWorkload, late_p99: f64, p99: f64) -> bool {
    late_p99 > w.late_limit_ms.max(0.8 * p99)
}

/// The highest rate meeting the limit: the crossing between the highest
/// passing rate and the failing rate above it.
fn max_rate(points: &mut [(f64, f64, bool)], limit: f64, outcome: &mut Outcome) -> f64 {
    points.sort_by(|a, b| a.0.total_cmp(&b.0));
    match points.iter().rposition(|p| p.2) {
        None => {
            outcome
                .note("max_rps_p99: no step met the limit; extrapolated below the lowest".into());
            points[0].0 * (limit / points[0].1).min(1.0)
        }
        Some(i) if i + 1 == points.len() => {
            outcome.note("max_rps_p99: no step above the highest passing one".into());
            points[i].0
        }
        Some(i) => crossing((points[i].0, points[i].1), (points[i + 1].0, points[i + 1].1), limit),
    }
}

fn median_of(phases: &[Phase], f: fn(&Phase) -> f64) -> f64 {
    stats::median(&phases.iter().map(f).collect::<Vec<_>>())
}

/// One offered rate's ladder point from its segments: the median p99, and
/// whether most segments met the limit.
fn point(w: &ServeWorkload, rate: f64, segments: &[Phase]) -> (f64, f64, bool) {
    let met = segments.iter().filter(|p| meets(w, rate, p)).count();
    (rate, median_of(segments, |p| p.latency.p99), 2 * met > segments.len())
}

fn meets(w: &ServeWorkload, rate: f64, p: &Phase) -> bool {
    // A backlog of more than one limit's worth of arrivals at the last send
    // is growing faster than the daemon drains it.
    p.failed == 0
        && p.latency.p99 <= w.p99_limit_ms
        && (p.result.backlog_at_end as f64) <= rate * w.p99_limit_ms / 1e3
        && !generator_late(w, p.late.p99, p.latency.p99)
}

pub fn run(
    w: &ServeWorkload,
    bin: &Path,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> io::Result<Outcome> {
    let mut outcome = Outcome::default();
    let (specs, mix) = specs_and_mix(w, seed);
    let expected = reference_answers(&specs);
    let (daemon, first_boot_s) = Daemon::boot(bin, SHARDS, w.cache_cap)?;
    let mut ctx =
        Ctx { addr: &daemon.addr, specs: &specs, mix: &mix, expected: &expected, seed, phases: 0 };

    let warm = ctx.phase(w.light_rps, 0.1 * seconds, None)?;
    outcome.count(warm.attempted, warm.failed);
    describe(&mut outcome, "warmup", w.light_rps, &warm);

    if trace {
        layers::serve_traced(w, &mut ctx, seconds, &mut outcome)?;
    } else {
        let boots = Boots { bin, daemon: &daemon, first_s: first_boot_s };
        measure(w, &mut ctx, &boots, seconds, &mut outcome)?;
    }
    let health = client::health(&daemon.addr)?;
    outcome.note(format!("daemon health: shed {}, respawns {}", health.shed, health.respawns));
    for (i, s) in daemon::shard_stats(&daemon.addr)?.iter().enumerate() {
        outcome.note(format!("shard {i}: {s:?}"));
    }
    daemon.stop()?;
    Ok(outcome)
}

/// Pipelined requests per connection in the closed loop.
const WINDOW: usize = 64;

/// Segments each measured phase is split into.  Segments of the closed
/// loop, the light and the heavy phase alternate, each on fresh
/// connections, and each metric is the median over its segments (the
/// light p50 the lower tercile): a stretch of host noise then shifts a few
/// segments rather than the result, and every metric samples the whole run.
const SEGMENTS: usize = 9;

/// Segments per ladder step.
const STEP_SEGMENTS: usize = 3;

/// The measured daemon and how to boot more of its kind.
struct Boots<'a> {
    bin: &'a Path,
    daemon: &'a Daemon,
    /// Set-up time of the measured daemon.
    first_s: f64,
}

fn measure(
    w: &ServeWorkload,
    ctx: &mut Ctx,
    boots: &Boots,
    seconds: f64,
    outcome: &mut Outcome,
) -> io::Result<()> {
    let seg = seconds / SEGMENTS as f64;
    let mut rng = Rng::derive(ctx.seed, 99);
    let spec_of = ctx.mix.draw(&mut rng, 1 << 21);
    let (mut closed, mut light, mut heavy) = (Vec::new(), Vec::new(), Vec::new());
    let mut setups = vec![boots.first_s];
    for _ in 0..SEGMENTS {
        // One more boot per segment, so `setup_s` samples the whole run.
        let (extra, boot_s) = Daemon::boot(boots.bin, SHARDS, w.cache_cap)?;
        extra.stop()?;
        setups.push(boot_s);
        // Saturation throughput: the pipelined pattern of `chain2l batch --remote`.
        let (responses, rate) = closed_loop(ctx.addr, WINDOW, 0.1 * seg, |id| {
            request_line(id as u64, &ctx.specs[spec_of[id % spec_of.len()] as usize])
        })?;
        let sof: Vec<u32> = (0..responses.len()).map(|id| spec_of[id % spec_of.len()]).collect();
        let failed = count_failures(&responses, &sof, ctx.expected);
        outcome.count(responses.len() as u64, failed);
        outcome.note(format!(
            "closed loop, window {} x 2: {rate:.1} answers/s, failed {failed}/{}",
            WINDOW,
            sof.len()
        ));
        closed.push(rate);
        for (label, rate, out) in
            [("light", w.light_rps, &mut light), ("heavy", w.heavy_rps, &mut heavy)]
        {
            let p = ctx.phase(rate, 0.2 * seg, None)?;
            outcome.count(p.attempted, p.failed);
            describe(outcome, label, rate, &p);
            out.push(p);
        }
    }
    outcome.metric("setup_s", stats::median(&setups), "s");
    // The lower tercile over segments, not the median: CPU steal on a shared
    // host comes in episodes of several seconds that can slow half a run
    // (one `zipf_serve` run at 8 % steal read 2.1-3.1 ms in five segments
    // and 1.14-1.18 ms in the other four), while a slower daemon slows
    // every segment and still shows.
    let light_p50: Vec<f64> = light.iter().map(|p| p.latency.p50).collect();
    outcome.metric("lat_p50_ms.light", stats::lower_tercile(&light_p50), "ms");
    // Read before the ladder, whose length varies: memory then reflects
    // the same traffic in every run.
    outcome.metric("peak_rss_mb", boots.daemon.peak_rss_mb(), "MB");

    let mut points = Vec::new();
    for (label, rate, phases) in [("light", w.light_rps, &light), ("heavy", w.heavy_rps, &heavy)] {
        let (p99, late) = (median_of(phases, |p| p.latency.p99), median_of(phases, |p| p.late.p99));
        if generator_late(w, late, p99) {
            outcome.reject(format!(
                "{label}: sender late p99 {late:.3} ms against latency p99 {p99:.3} ms"
            ));
        }
        points.push(point(w, rate, phases));
    }

    // Ladder on the grid heavy × 1.15^k: up from heavy while steps meet the
    // limit, or down from light while they miss it.
    let direction = match (points[0].2, points[1].2) {
        (_, true) => Some((w.heavy_rps, LADDER_FACTOR)),
        (false, false) => Some((w.light_rps, 1.0 / LADDER_FACTOR)),
        (true, false) => None,
    };
    if let Some((mut rate, factor)) = direction {
        let climbing = factor > 1.0;
        for _ in 0..LADDER_STEPS {
            rate *= factor;
            let mut step = Vec::with_capacity(STEP_SEGMENTS);
            for _ in 0..STEP_SEGMENTS {
                let p = ctx.phase(rate, 0.025 * seconds, None)?;
                outcome.count(p.attempted, p.failed);
                describe(outcome, "ladder", rate, &p);
                step.push(p);
            }
            let point = point(w, rate, &step);
            points.push(point);
            let pass = point.2;
            if pass != climbing {
                break;
            }
        }
    }
    let max_rps = max_rate(&mut points, w.p99_limit_ms, outcome);

    outcome.diagnostic("solves_per_s", stats::median(&closed), "1/s");
    outcome.diagnostic("lat_p99_ms.light", median_of(&light, |p| p.latency.p99), "ms");
    outcome.diagnostic("lat_p50_ms.heavy", median_of(&heavy, |p| p.latency.p50), "ms");
    outcome.diagnostic("lat_p99_ms.heavy", median_of(&heavy, |p| p.latency.p99), "ms");
    outcome.diagnostic("max_rps_p99", max_rps, "1/s");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_rate_uses_the_highest_passing_step() {
        let mut o = Outcome::default();
        let mut pts =
            vec![(200.0, 1.0, true), (100.0, 9.0, false), (400.0, 4.0, false), (300.0, 1.5, true)];
        assert_eq!(max_rate(&mut pts, 3.0, &mut o), crossing((300.0, 1.5), (400.0, 4.0), 3.0));
        let mut all_pass = vec![(100.0, 1.0, true), (200.0, 2.0, true)];
        assert_eq!(max_rate(&mut all_pass, 3.0, &mut o), 200.0);
        let mut none = vec![(200.0, 8.0, false), (100.0, 6.0, false)];
        assert_eq!(max_rate(&mut none, 3.0, &mut o), 50.0);
    }

    #[test]
    fn crossing_interpolates_log_p99() {
        assert_eq!(crossing((100.0, 1.0), (200.0, 4.0), 2.0), 150.0);
        assert_eq!(crossing((100.0, 1.0), (200.0, 4.0), 8.0), 200.0);
        assert_eq!(crossing((100.0, 3.0), (200.0, 2.0), 2.5), 100.0);
    }

    #[test]
    fn traffic_is_determined_by_the_seed() {
        let (specs, mix) = specs_and_mix(&ZIPF, 4);
        let a = Traffic::new(&specs, &mix, &mut Rng::derive(4, 101), 500);
        let b = Traffic::new(&specs, &mix, &mut Rng::derive(4, 101), 500);
        assert_eq!(a.spec_of, b.spec_of);
        assert_eq!(a.lines, b.lines);
        assert!(a.lines[7].contains("\"id\":7,"));
    }
}
