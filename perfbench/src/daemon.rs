//! The `chain2l serve` daemon as a child process: boot, query, stop, and
//! read its memory high-water mark.

use chain2l_service::client;
use std::io::{self, BufRead, BufReader};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

pub struct Daemon {
    child: Child,
    pub addr: String,
    drain: Option<JoinHandle<()>>,
}

impl Daemon {
    /// Spawns `chain2l serve` on an ephemeral port and returns it with its
    /// set-up time: from spawn until its first `ping` is answered.
    pub fn boot(bin: &Path, shards: usize, cache_cap: Option<usize>) -> io::Result<(Daemon, f64)> {
        let start = Instant::now();
        let mut command = Command::new(bin);
        command.args(["serve", "--addr", "127.0.0.1:0", "--shards", &shards.to_string()]);
        if let Some(cap) = cache_cap {
            command.args(["--cache-cap", &cap.to_string()]);
        }
        let mut child =
            command.stdin(Stdio::null()).stdout(Stdio::null()).stderr(Stdio::piped()).spawn()?;
        let mut reader = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut line = String::new();
        let addr = reader
            .read_line(&mut line)
            .ok()
            .and_then(|_| line.split("listening on ").nth(1))
            .and_then(|rest| rest.split_whitespace().next())
            .map(str::to_string);
        // Keep draining stderr so the daemon never blocks on a full pipe.
        let drain = std::thread::spawn(move || {
            let mut sink = String::new();
            while reader.read_line(&mut sink).map(|n| n > 0).unwrap_or(false) {
                sink.clear();
            }
        });
        let mut daemon = Daemon { child, addr: String::new(), drain: Some(drain) };
        daemon.addr = addr.ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidData, format!("no listening line: {line:?}"))
        })?;
        client::ping(&daemon.addr)?;
        Ok((daemon, start.elapsed().as_secs_f64()))
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Process ids of the daemon and its shard workers.
    pub fn pids(&self) -> Vec<u32> {
        let pid = self.pid();
        let children =
            std::fs::read_to_string(format!("/proc/{pid}/task/{pid}/children")).unwrap_or_default();
        std::iter::once(pid)
            .chain(children.split_whitespace().filter_map(|p| p.parse().ok()))
            .collect()
    }

    /// Peak resident memory of the daemon plus its shards (MiB).
    pub fn peak_rss_mb(&self) -> f64 {
        self.pids().into_iter().map(peak_rss_mb_of).sum()
    }

    /// Graceful shutdown; kills the daemon if it has not exited in time.
    pub fn stop(mut self) -> io::Result<()> {
        let result = client::shutdown(&self.addr);
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if self.child.try_wait()?.is_some() {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        self.reap();
        result
    }

    fn reap(&mut self) {
        if !matches!(self.child.try_wait(), Ok(Some(_))) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.reap();
    }
}

/// A memory field of `/proc/<pid>/status` in MiB (0 when unreadable).
fn status_mb(pid: &str, field: &str) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Peak resident memory (`VmHWM`) of a process in MiB.
pub fn peak_rss_mb_of(pid: u32) -> f64 {
    status_mb(&pid.to_string(), "VmHWM:")
}

/// Current resident memory (`VmRSS`) of this process in MiB.
pub fn own_rss_mb() -> f64 {
    status_mb("self", "VmRSS:")
}

/// One shard's engine statistics, parsed from the `stats` op's text.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ShardStats {
    pub hits: f64,
    pub misses: f64,
    pub evicted: f64,
    pub reused: f64,
    pub extended: f64,
    pub cold: f64,
    pub checkouts: f64,
    pub pooled_pct: f64,
    pub parked_kib: f64,
}

/// The number that ends right before `marker` in `text`.
fn number_before(text: &str, marker: &str) -> Option<f64> {
    let head = &text[..text.find(marker)?];
    let token = head.rsplit(|c: char| c.is_whitespace() || c == '(' || c == '~').next()?;
    token.parse().ok()
}

pub fn parse_shard_stats(line: &str) -> Option<ShardStats> {
    let arena = &line[line.find("arena:")?..];
    Some(ShardStats {
        hits: number_before(line, " hits,")?,
        misses: number_before(line, " misses")?,
        evicted: number_before(line, " evicted")?,
        reused: number_before(line, " reused")?,
        extended: number_before(line, " extended")?,
        cold: number_before(line, " cold (pruned)")? + number_before(line, " cold (exhaustive)")?,
        checkouts: number_before(arena, " checkouts")?,
        pooled_pct: number_before(arena, " % pooled")?,
        parked_kib: number_before(arena, " KiB parked")?,
    })
}

/// Per-shard statistics of a running daemon, in shard order.
pub fn shard_stats(addr: &str) -> io::Result<Vec<ShardStats>> {
    let (_, detail) = client::stats(addr)?;
    detail
        .lines()
        .filter(|l| l.starts_with("shard "))
        .map(|l| {
            parse_shard_stats(l).ok_or_else(|| {
                io::Error::new(io::ErrorKind::InvalidData, format!("unparsed stats line: {l}"))
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use chain2l_core::{Algorithm, Engine};
    use chain2l_model::platform::scr;
    use chain2l_model::{Scenario, WeightPattern};

    #[test]
    fn parses_the_engine_stats_line() {
        let engine = Engine::new();
        let s = |n| {
            Scenario::paper_setup(&scr::hera(), &WeightPattern::Uniform, n, 500.0 * n as f64)
                .unwrap()
        };
        engine.solve(&s(8), Algorithm::TwoLevel);
        engine.solve(&s(12), Algorithm::TwoLevel);
        engine.solve(&s(10), Algorithm::TwoLevel);
        engine.solve(&s(10), Algorithm::TwoLevel);
        let line = format!("shard 0: {}", engine.stats());
        let parsed = parse_shard_stats(&line).expect(&line);
        assert_eq!(parsed.hits, 1.0);
        assert_eq!(parsed.misses, 3.0);
        assert_eq!((parsed.cold, parsed.extended, parsed.reused), (1.0, 1.0, 1.0));
        assert_eq!(parsed.evicted, 0.0);
        assert!(parsed.checkouts > 0.0 && parsed.pooled_pct >= 0.0);
    }
}
