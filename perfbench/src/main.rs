//! chain2l benchmark: one command, three workloads, every end-to-end metric
//! by name with its unit, every output checked (see README.md).
//!
//! ```text
//! chain2l-perfbench --workload <cold_batch|hot_serve|zipf_serve> --seed <n>
//!                   --seconds <s> --trace <0|1> --bin <path to chain2l>
//! ```
//!
//! With `--trace 0` the result line carries the end-to-end metrics; with
//! `--trace 1` it carries the per-layer metrics of a traced run.

mod check;
mod cold;
mod daemon;
mod layers;
mod openloop;
mod report;
mod serve;
mod stats;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

/// Where traced runs write their spans.
pub fn trace_dir() -> PathBuf {
    std::env::var_os("PERFBENCH_TRACE_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(".bench_build/perfbench-traces"))
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    bin: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut bin) = (None, None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => trace = Some(value == "1"),
            "--bin" => bin = Some(PathBuf::from(value)),
            other => return Err(format!("unknown option {other}")),
        }
    }
    let seconds: f64 = seconds.unwrap_or(20.0);
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
        bin: bin.ok_or("--bin is required")?,
    })
}

/// `(steal, total)` CPU jiffies since boot, from `/proc/stat`.
fn cpu_jiffies() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

fn provenance(args: &Args, steal_pct: f64) -> String {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unset".into());
    let (shards, cache_cap) = match args.workload.as_str() {
        "hot_serve" => (serve::SHARDS.to_string(), "none".to_string()),
        "zipf_serve" => {
            (serve::SHARDS.to_string(), format!("{}", serve::ZIPF.cache_cap.unwrap_or(0)))
        }
        _ => ("0".to_string(), "none".to_string()),
    };
    format!(
        "provenance: {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"git_rev\": \"{}\", \
         \"source_digest\": \"{}\", \"rustc\": \"{}\", \"nproc\": {}, \"rayon_num_threads\": \"{}\", \
         \"simd_enabled\": {}, \"shards\": {shards}, \"cache_cap\": \"{cache_cap}\", \"cpu_steal_pct\": {steal_pct:.1}}}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        env("PERFBENCH_GIT_REV"),
        env("PERFBENCH_SOURCE_DIGEST"),
        env("PERFBENCH_RUSTC"),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        env("RAYON_NUM_THREADS"),
        chain2l_core::simd_enabled(),
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("chain2l-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let before = cpu_jiffies();
    let outcome = match (args.workload.as_str(), args.trace) {
        ("cold_batch", false) => Ok(cold::run(args.seed, args.seconds)),
        ("cold_batch", true) => {
            let mut o = report::Outcome::default();
            layers::cold_traced(&args.bin, args.seed, args.seconds, &mut o).map(|()| o)
        }
        ("hot_serve", trace) => serve::run(&serve::HOT, &args.bin, args.seed, args.seconds, trace),
        ("zipf_serve", trace) => {
            serve::run(&serve::ZIPF, &args.bin, args.seed, args.seconds, trace)
        }
        (other, _) => {
            eprintln!("chain2l-perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    match outcome {
        Ok(o) => {
            for note in &o.notes {
                println!("{note}");
            }
            if let Some(why) = &o.invalid {
                println!("run rejected: {why}");
            }
            // CPU time the hypervisor gave to other guests during the run:
            // a high value means the figures measure a contended host.
            let after = cpu_jiffies();
            let steal_pct =
                100.0 * (after.0 - before.0) as f64 / (after.1 - before.1).max(1) as f64;
            println!("{}", provenance(&args, steal_pct));
            println!("{}", o.result_line());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("chain2l-perfbench: {}: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}
