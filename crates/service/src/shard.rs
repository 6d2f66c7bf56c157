//! The shard worker process: one [`Engine`] per process, serving NDJSON
//! requests over a loopback TCP socket through a non-blocking readiness
//! loop.
//!
//! A worker binds an ephemeral `127.0.0.1` port, announces it to the parent
//! daemon with one [`protocol::encode_hello`] line on stdout, and then
//! multiplexes every connection on a single [`mio_lite::Poll`] loop: frames
//! are decoded as they arrive (partial frames tolerated), solves whose
//! answer is already cached are answered on the loop, and the rest are
//! dispatched to a small solver-thread pool sharing the process's [`Engine`]
//! (whose own cache and retained DP tables are this shard's disjoint slice
//! of the fingerprint space — the parent only routes a fingerprint here when
//! `stable_hash() % shards` says so), and responses complete **out of
//! order** as solves finish.  Each connection releases its responses in
//! request order through the [`crate::frame::Conn`] sequence window, so a
//! worker's response stream is a deterministic function of its request
//! stream regardless of solver-thread timing.
//!
//! Control frames (`ping` / `stats` / malformed input), unresolvable specs
//! and cache hits whose solve has finished ([`Engine::cached`]) are answered
//! inline on the event loop; a solve that is absent or still in flight goes
//! to the pool, so the loop never blocks on one, and re-enters the loop
//! through a `UnixStream::pair` waker when done.
//!
//! Lifecycle: the worker exits when it receives a `shutdown` frame (sent by
//! the parent during graceful shutdown, acknowledged and flushed first)
//! **or** when its stdin reaches EOF — the parent holds the write end of
//! that pipe, so even a `kill -9`'d parent takes its orphans down with it.

// lint: allow-file(panic-expect: a poisoned jobs/done lock or condvar means a solver thread already panicked; propagating tears the worker down, which the parent daemon detects and reroutes)

use crate::frame::{Conn, FrameError};
use crate::persist::Persister;
use crate::protocol::{self, Request, Response, SolveResult};
use chain2l_core::{Algorithm, Engine, EngineLimits, Solution};
use chain2l_model::Scenario;
use mio_lite::{Events, Interest, Poll, Token};
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::TcpListener;
use std::os::unix::net::UnixStream;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Per-connection inflight window of a worker.  Deliberately generous: the
/// parent daemon multiplexes many clients onto one link and applies the
/// per-client backpressure itself; the worker window only bounds worst-case
/// reorder-buffer memory.
const WORKER_WINDOW: u64 = 4096;

const LISTENER: Token = Token(0);
const WAKER: Token = Token(1);
const CONN_BASE: usize = 2;

/// Computes the response to one request line; never panics, whatever the
/// line contains.
pub fn respond(line: &str, engine: &Engine) -> Response {
    match protocol::parse_request(line) {
        Err(e) => Response::Error { id: protocol::best_effort_id(line), message: e.to_string() },
        Ok(Request::Ping { id }) => Response::Pong { id },
        Ok(Request::Stats { id }) => {
            Response::Stats { id, shards: 1, detail: engine.stats().to_string() }
        }
        Ok(Request::Shutdown { id }) => Response::ShuttingDown { id },
        // Health is answered by the daemon from its supervision state; a
        // worker reached directly has no shard fleet to report on.
        Ok(Request::Health { id }) => {
            Response::Error { id, message: "health is a daemon-level op".into() }
        }
        Ok(Request::Solve { id, spec }) => match protocol::resolve_spec(&spec) {
            Err(message) => Response::Error { id, message },
            Ok((scenario, algorithm)) => solved(id, &engine.solve(&scenario, algorithm)),
        },
    }
}

fn solved(id: u64, solution: &Solution) -> Response {
    Response::Solve { id, result: SolveResult::from_solution(solution) }
}

/// One solve handed to the pool, already parsed and resolved by the event
/// loop; `gen` guards against a connection slot being reused while the
/// solve was in flight.
struct Job {
    slot: usize,
    gen: u64,
    seq: u64,
    id: u64,
    scenario: Scenario,
    algorithm: Algorithm,
}

/// One finished solve travelling back to the event loop.
struct Done {
    slot: usize,
    gen: u64,
    seq: u64,
    line: String,
}

#[derive(Default)]
struct PoolQueue {
    jobs: Mutex<VecDeque<Job>>,
    ready: Condvar,
}

/// Number of solver threads: enough to keep pipelined requests from
/// serialising, bounded so the per-solve rayon pools are not oversubscribed.
fn solver_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get().min(8)).unwrap_or(1)
}

struct ConnSlot {
    conn: Conn,
    gen: u64,
}

/// Runs an unbounded shard worker until shutdown (see [`run_shard_with`]).
pub fn run_shard() -> std::io::Result<()> {
    run_shard_with(EngineLimits::default())
}

/// Runs a shard worker until shutdown (see the module docs), with the
/// worker's [`Engine`] bounded by `limits` — this is what
/// `chain2l serve --internal-shard [--cache-cap N]` and the `chain2l-shard`
/// binary execute, and how `chain2l serve --cache-cap N` bounds every
/// shard's solution cache and retained DP tables.
pub fn run_shard_with(limits: EngineLimits) -> std::io::Result<()> {
    run_shard_persistent(limits, None)
}

/// Runs a shard worker with optional warm-start persistence: when a
/// [`Persister`] is given, the worker loads its snapshot before serving,
/// snapshots periodically in the background, and takes a final snapshot on
/// every exit path (graceful shutdown and parent death alike).
pub fn run_shard_persistent(
    limits: EngineLimits,
    persister: Option<Arc<Persister>>,
) -> std::io::Result<()> {
    // Workers inherit the daemon's failpoint schedule through the
    // environment (`spawn_shard` forwards `--failpoints`); each worker
    // process arms its own independent per-site streams.
    chain2l_core::failpoint::configure_from_env()
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e))?;
    let listener = TcpListener::bind(("127.0.0.1", 0))?;
    listener.set_nonblocking(true)?;
    let port = listener.local_addr()?.port();
    {
        let mut out = std::io::stdout().lock();
        writeln!(out, "{}", protocol::encode_hello(port))?;
        out.flush()?;
    }
    let engine = Arc::new(Engine::with_limits(limits));
    if let Some(persister) = &persister {
        persister.boot_load(&engine);
        persister.spawn_periodic(&engine);
    }
    // Tie this process's lifetime to the parent's: stdin EOF means the
    // parent is gone (it holds the pipe's write end), so exit instead of
    // leaking an orphan listener — after one last snapshot, so even a
    // `kill -9`'d daemon restarts warm with everything its workers learned.
    {
        let engine = Arc::clone(&engine);
        let persister = persister.clone();
        std::thread::spawn(move || {
            let mut sink = [0u8; 256];
            let mut stdin = std::io::stdin().lock();
            loop {
                match stdin.read(&mut sink) {
                    Ok(0) | Err(_) => {
                        if let Some(persister) = &persister {
                            persister.snapshot_now(&engine);
                        }
                        std::process::exit(0);
                    }
                    Ok(_) => {}
                }
            }
        });
    }
    let queue = Arc::new(PoolQueue::default());
    let done: Arc<Mutex<Vec<Done>>> = Arc::new(Mutex::new(Vec::new()));
    let (wake_rx, wake_tx) = UnixStream::pair()?;
    wake_rx.set_nonblocking(true)?;
    wake_tx.set_nonblocking(true)?;
    for _ in 0..solver_threads() {
        let engine = Arc::clone(&engine);
        let queue = Arc::clone(&queue);
        let done = Arc::clone(&done);
        let wake = wake_tx.try_clone()?;
        std::thread::spawn(move || solver_loop(&engine, &queue, &done, &wake));
    }

    let mut poll = Poll::new()?;
    let mut events = Events::with_capacity(64);
    poll.register(&listener, LISTENER, Interest::READABLE)?;
    poll.register(&wake_rx, WAKER, Interest::READABLE)?;

    let mut slots: Vec<Option<ConnSlot>> = Vec::new();
    let mut next_gen: u64 = 0;
    // Set once a shutdown response is queued: (slot, gen) to flush, then exit.
    let mut shutting_down: Option<(usize, u64)> = None;

    loop {
        // Recompute every connection's interest from its window and buffer
        // state (level-triggered readiness: interest *is* the loop's
        // backpressure valve).
        for (index, slot) in slots.iter().enumerate() {
            if let Some(slot) = slot {
                let mut interest = Interest::NONE; // closure is always observed
                if slot.conn.wants_read(WORKER_WINDOW) {
                    interest = interest | Interest::READABLE;
                }
                if slot.conn.wants_write() {
                    interest = interest | Interest::WRITABLE;
                }
                poll.reregister(&slot.conn.stream, Token(CONN_BASE + index), interest)?;
            }
        }
        poll.poll(&mut events, Some(Duration::from_millis(500)))?;
        let fired: Vec<(Token, bool, bool)> =
            events.iter().map(|e| (e.token(), e.is_readable(), e.is_writable())).collect();
        for (token, readable, writable) in fired {
            match token {
                LISTENER => accept_new(&listener, &mut poll, &mut slots, &mut next_gen)?,
                WAKER => {
                    drain_waker(&wake_rx);
                    let finished: Vec<Done> = std::mem::take(&mut *done.lock().expect("done"));
                    for item in finished {
                        if let Some(slot) = slots.get_mut(item.slot).and_then(Option::as_mut) {
                            if slot.gen == item.gen {
                                slot.conn.complete(item.seq, &item.line);
                                // Window space freed: decoded frames may now
                                // be admissible again.
                                pump(slot, item.slot, &engine, &queue, &mut shutting_down);
                            }
                        }
                    }
                }
                Token(t) if t >= CONN_BASE => {
                    let index = t - CONN_BASE;
                    let mut dead = false;
                    if let Some(slot) = slots.get_mut(index).and_then(Option::as_mut) {
                        if readable {
                            dead = slot.conn.fill().is_err();
                        }
                        if !dead {
                            pump(slot, index, &engine, &queue, &mut shutting_down);
                        }
                        if !dead && writable {
                            dead = slot.conn.flush_out().is_err();
                        }
                    }
                    if dead {
                        close_slot(&mut poll, &mut slots, index);
                    }
                }
                _ => {}
            }
        }
        // Opportunistic flush (completions queue bytes outside write events)
        // and closure of fully-drained connections.
        for index in 0..slots.len() {
            let mut drop_it = false;
            if let Some(slot) = slots.get_mut(index).and_then(Option::as_mut) {
                let failed = slot.conn.wants_write() && slot.conn.flush_out().is_err();
                let drained = slot.conn.read_closed
                    && slot.conn.inflight() == 0
                    && !slot.conn.wants_write()
                    && slot.conn.decoder.buffered() == 0;
                drop_it = failed || drained;
            }
            if drop_it {
                close_slot(&mut poll, &mut slots, index);
            }
        }
        if let Some((index, gen)) = shutting_down {
            let flushed = match slots.get(index).and_then(Option::as_ref) {
                Some(slot) => slot.gen != gen || !slot.conn.wants_write(),
                None => true, // the requester vanished; nothing left to flush
            };
            if flushed {
                if let Some(persister) = &persister {
                    persister.snapshot_now(&engine);
                }
                std::process::exit(0);
            }
        }
    }
}

fn accept_new(
    listener: &TcpListener,
    poll: &mut Poll,
    slots: &mut Vec<Option<ConnSlot>>,
    next_gen: &mut u64,
) -> std::io::Result<()> {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                let conn = match Conn::new(stream) {
                    Ok(conn) => conn,
                    Err(_) => continue,
                };
                *next_gen += 1;
                let slot = ConnSlot { conn, gen: *next_gen };
                let index = slots.iter().position(Option::is_none).unwrap_or_else(|| {
                    slots.push(None);
                    slots.len() - 1
                });
                poll.register(&slot.conn.stream, Token(CONN_BASE + index), Interest::READABLE)?;
                // lint: allow(panic-index: `index` is a position hit or `slots.len() - 1` after a push)
                slots[index] = Some(slot);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return Ok(()),
        }
    }
}

fn close_slot(poll: &mut Poll, slots: &mut [Option<ConnSlot>], index: usize) {
    if let Some(slot) = slots.get_mut(index).and_then(Option::take) {
        let _ = poll.deregister(&slot.conn.stream);
    }
}

/// Admits decoded frames while the window has room: solves that are not yet
/// cached go to the pool, everything else — finished cache hits included —
/// is answered inline (still through the sequence window, so inline answers
/// cannot overtake earlier pooled solves on the connection's stream).
fn pump(
    slot: &mut ConnSlot,
    index: usize,
    engine: &Engine,
    queue: &PoolQueue,
    shutting_down: &mut Option<(usize, u64)>,
) {
    while slot.conn.inflight() < WORKER_WINDOW {
        let frame = match slot.conn.decoder.next_frame() {
            Some(frame) => frame,
            None => break,
        };
        let seq = slot.conn.accept_seq();
        match frame {
            Err(err) => {
                let response = Response::Error { id: 0, message: frame_error_message(&err) };
                slot.conn.complete(seq, &protocol::encode_response(&response));
            }
            Ok(line) => {
                let response = match protocol::parse_request(&line) {
                    Ok(Request::Solve { id, spec }) => match protocol::resolve_spec(&spec) {
                        Err(message) => Response::Error { id, message },
                        Ok((scenario, algorithm)) => {
                            if let Some(solution) = engine.cached(&scenario, algorithm) {
                                solved(id, &solution)
                            } else {
                                // Absent or still being solved: the pool
                                // solves or waits, never the loop.
                                let job = Job {
                                    slot: index,
                                    gen: slot.gen,
                                    seq,
                                    id,
                                    scenario,
                                    algorithm,
                                };
                                queue.jobs.lock().expect("jobs").push_back(job);
                                queue.ready.notify_one();
                                continue;
                            }
                        }
                    },
                    _ => respond(&line, engine),
                };
                if matches!(response, Response::ShuttingDown { .. }) {
                    *shutting_down = Some((index, slot.gen));
                }
                slot.conn.complete(seq, &protocol::encode_response(&response));
            }
        }
    }
}

pub(crate) fn frame_error_message(err: &FrameError) -> String {
    format!("unreadable frame: {err}")
}

fn solver_loop(engine: &Engine, queue: &PoolQueue, done: &Mutex<Vec<Done>>, wake: &UnixStream) {
    loop {
        let job = {
            let mut jobs = queue.jobs.lock().expect("jobs");
            loop {
                if let Some(job) = jobs.pop_front() {
                    break job;
                }
                jobs = queue.ready.wait(jobs).expect("jobs");
            }
        };
        let solution = engine.solve(&job.scenario, job.algorithm);
        let line = protocol::encode_response(&solved(job.id, &solution));
        done.lock().expect("done").push(Done { slot: job.slot, gen: job.gen, seq: job.seq, line });
        // A full wake pipe is fine: the loop drains the queue on any byte.
        let mut tx = wake;
        let _ = tx.write(&[1]);
    }
}

fn drain_waker(wake_rx: &UnixStream) {
    let mut sink = [0u8; 256];
    let mut rx = wake_rx;
    while matches!(rx.read(&mut sink), Ok(n) if n > 0) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use chain2l_core::{optimize, Algorithm};
    use chain2l_model::platform::scr;
    use chain2l_model::{Scenario, WeightPattern};

    #[test]
    fn respond_never_panics_and_solves_correctly() {
        let engine = Engine::new();
        // Malformed lines get error responses with best-effort ids.
        for bad in ["", "garbage", "{\"v\":9,\"id\":1,\"op\":\"ping\"}", "{\"v\":1,\"id\":2}"] {
            match respond(bad, &engine) {
                Response::Error { .. } => {}
                other => panic!("`{bad}` should error, got {other:?}"),
            }
        }
        // A valid solve matches the direct optimizer bit for bit.
        let line = protocol::encode_request(&Request::Solve {
            id: 11,
            spec: protocol::SolveSpec {
                platform: "atlas".into(),
                pattern: "decrease".into(),
                tasks: 9,
                weight: 25_000.0,
                algorithm: "admv*".into(),
            },
        });
        let scenario =
            Scenario::paper_setup(&scr::atlas(), &WeightPattern::Decrease, 9, 25_000.0).unwrap();
        let direct = optimize(&scenario, Algorithm::TwoLevel);
        match respond(&line, &engine) {
            Response::Solve { id, result } => {
                assert_eq!(id, 11);
                assert_eq!(result.expected_makespan.to_bits(), direct.expected_makespan.to_bits());
                assert_eq!(result.disk, direct.counts.disk_checkpoints as u64);
            }
            other => panic!("unexpected {other:?}"),
        }
        // An invalid scenario errors but keeps the engine usable.
        let invalid = line.replace("\"tasks\":9", "\"tasks\":0");
        assert!(matches!(respond(&invalid, &engine), Response::Error { id: 11, .. }));
        assert!(matches!(respond(&line, &engine), Response::Solve { .. }));
    }
}
