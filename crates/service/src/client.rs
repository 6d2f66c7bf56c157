//! Client side of the daemon protocol: remote batch solving with
//! fault-tolerant retry, and the control operations (`ping` / `stats` /
//! `health` / `shutdown`).
//!
//! [`solve_batch`] pipelines every request over one connection through a
//! non-blocking readiness loop — writes and reads interleave on one thread,
//! so a large batch can never deadlock on full TCP buffers — and returns
//! the outcomes **in request order**.  The daemon answers pipelined
//! requests out of order as shards finish; the echoed ids put them back.
//! Per-request failures (e.g. an unknown platform) come back as
//! `Err(message)` entries without poisoning the rest of the batch.
//!
//! Transport failures no longer fail the call: [`solve_batch_with`]
//! reconnects and **resends only the unanswered requests**, with
//! exponential backoff and deterministic seeded jitter between attempts
//! (see [`backoff_schedule`] — the whole schedule is a pure function of the
//! seed, so retry timing is reproducible).  Resending is sound because a
//! solve is a pure function of its spec: a request the daemon answered
//! into a dead connection recomputes (or cache-hits) to the identical
//! result on the new connection.  Responses shed by an overloaded daemon
//! (`error:"overloaded"`) are retried the same way.  Every request carries
//! its own deadline ([`ClientConfig::request_timeout`], measured from when
//! it is first sent, surviving reconnects); an expired deadline surfaces as
//! the typed [`ClientError::Timeout`] naming the request id.

use crate::frame::Conn;
use crate::protocol::{self, HealthReport, Request, Response, SolveResult, SolveSpec};
use chain2l_core::failpoint;
use mio_lite::{Events, Interest, Poll, Token};
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Generous per-request deadline default: no solve in the evaluation grid
/// takes minutes, so a silent daemon is a hung daemon and the client should
/// say so instead of blocking forever.
const DEFAULT_REQUEST_TIMEOUT: Duration = Duration::from_secs(300);

/// Default retry budget: enough to ride out a worker respawn and a burst of
/// shedding without turning a dead daemon into a minutes-long hang.
const DEFAULT_MAX_RETRIES: u32 = 4;

/// Default backoff base / cap (milliseconds).
const DEFAULT_BACKOFF_BASE_MS: u64 = 50;
const DEFAULT_BACKOFF_CAP_MS: u64 = 2_000;

/// Retry behaviour of the batch client.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Per-request deadline, measured from the moment the request is first
    /// sent; reconnects and resends do **not** reset it.
    pub request_timeout: Duration,
    /// Reconnect-and-resend attempts after the initial one (0 = fail fast).
    pub max_retries: u32,
    /// First backoff delay in milliseconds (doubles per attempt).
    pub backoff_base_ms: u64,
    /// Upper bound on any single backoff delay in milliseconds.
    pub backoff_cap_ms: u64,
    /// Seed of the deterministic backoff jitter (see [`backoff_schedule`]).
    pub retry_seed: u64,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            request_timeout: DEFAULT_REQUEST_TIMEOUT,
            max_retries: DEFAULT_MAX_RETRIES,
            backoff_base_ms: DEFAULT_BACKOFF_BASE_MS,
            backoff_cap_ms: DEFAULT_BACKOFF_CAP_MS,
            retry_seed: 0,
        }
    }
}

/// Why a batch call failed, beyond per-request daemon errors.
#[derive(Debug)]
pub enum ClientError {
    /// Could not establish (or re-establish) a connection.
    Connect {
        /// Connection attempts made, including the failed one.
        attempts: u32,
        /// The error from the last attempt.
        last: io::Error,
    },
    /// The transport died mid-batch and the retry budget ran out.
    Transport {
        /// Connection attempts made, including the failed one.
        attempts: u32,
        /// The error from the last attempt.
        last: io::Error,
    },
    /// Request `id` blew its per-request deadline.
    Timeout {
        /// The wire id (request-order index) of the expired request.
        id: u64,
        /// The per-request deadline it was given.
        waited: Duration,
    },
    /// The daemon spoke the protocol wrong (fatal; never retried).
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Connect { attempts, last } => {
                write!(f, "connect failed after {attempts} attempt(s): {last}")
            }
            ClientError::Transport { attempts, last } => {
                write!(f, "transport failed after {attempts} attempt(s): {last}")
            }
            ClientError::Timeout { id, waited } => {
                write!(f, "request {id} timed out after {:.1}s", waited.as_secs_f64())
            }
            ClientError::Protocol(message) => write!(f, "protocol error: {message}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<ClientError> for io::Error {
    fn from(e: ClientError) -> io::Error {
        let kind = match &e {
            ClientError::Connect { last, .. } | ClientError::Transport { last, .. } => last.kind(),
            ClientError::Timeout { .. } => io::ErrorKind::TimedOut,
            ClientError::Protocol(_) => io::ErrorKind::InvalidData,
        };
        io::Error::new(kind, e.to_string())
    }
}

impl ClientError {
    /// Whether another attempt could succeed (connection/transport faults
    /// are transient; timeouts and protocol violations are not).
    fn transient(&self) -> bool {
        matches!(self, ClientError::Connect { .. } | ClientError::Transport { .. })
    }
}

/// A completed batch plus its fault-tolerance counters.
#[derive(Debug)]
pub struct BatchReport {
    /// Per-request outcomes, in request order.
    pub outcomes: Vec<Result<SolveResult, String>>,
    /// Reconnect-and-resend attempts that were needed (0 = clean run).
    pub retries: u32,
    /// `overloaded` responses absorbed (each was re-sent and, unless the
    /// retry budget ran out, eventually answered).
    pub shed: u64,
}

// ---------------------------------------------------------------------------
// Deterministic backoff.

/// Expands `seed` so nearby seeds produce unrelated jitter streams
/// (splitmix64 finalizer).
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The full retry-delay schedule in milliseconds, as a **pure function** of
/// its inputs: attempt `k` waits an exponentially grown base
/// (`base_ms << k`, saturating, capped at `cap_ms`) with deterministic
/// jitter drawn from `seed` into the upper half of that range
/// (`[delay/2, delay]` — "equal jitter", so delays never collapse to zero
/// and never exceed the cap).  Two clients with different seeds desynchronise
/// their retry storms; the same seed replays the exact same schedule, which
/// is what makes fault-injection runs reproducible.
pub fn backoff_schedule(seed: u64, attempts: u32, base_ms: u64, cap_ms: u64) -> Vec<u64> {
    let cap = cap_ms.max(1);
    let mut state = mix(seed ^ 0x9e37_79b9_7f4a_7c15);
    (0..attempts)
        .map(|k| {
            let grown = if k >= 63 { u64::MAX } else { base_ms.saturating_mul(1u64 << k) };
            let delay = grown.clamp(1, cap);
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let floor = delay - delay / 2;
            floor + (state >> 11) % (delay / 2 + 1)
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Control operations (one request, one response, fresh connection).

fn invalid(message: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

/// Sends one request and reads its response over a fresh connection.
pub fn request_once(addr: &str, request: &Request) -> io::Result<Response> {
    failpoint::fail_io("client.connect")?;
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(DEFAULT_REQUEST_TIMEOUT))?;
    let mut writer = BufWriter::new(stream.try_clone()?);
    failpoint::fail_io("client.write")?;
    writeln!(writer, "{}", protocol::encode_request(request))?;
    writer.flush()?;
    failpoint::fail_io("client.read")?;
    let mut line = String::new();
    if BufReader::new(stream).read_line(&mut line)? == 0 {
        return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "daemon closed the connection"));
    }
    protocol::parse_response(line.trim_end()).map_err(|e| invalid(e.to_string()))
}

/// Liveness probe.
pub fn ping(addr: &str) -> io::Result<()> {
    match request_once(addr, &Request::Ping { id: 1 })? {
        Response::Pong { .. } => Ok(()),
        Response::Error { message, .. } => Err(invalid(message)),
        other => Err(invalid(format!("unexpected response {other:?}"))),
    }
}

/// Fetches the daemon's aggregated per-shard statistics.
pub fn stats(addr: &str) -> io::Result<(u64, String)> {
    match request_once(addr, &Request::Stats { id: 1 })? {
        Response::Stats { shards, detail, .. } => Ok((shards, detail)),
        Response::Error { message, .. } => Err(invalid(message)),
        other => Err(invalid(format!("unexpected response {other:?}"))),
    }
}

/// Fetches the daemon's supervision health report (per-shard liveness,
/// respawn totals, shedding and inflight counters).
pub fn health(addr: &str) -> io::Result<HealthReport> {
    match request_once(addr, &Request::Health { id: 1 })? {
        Response::Health { report, .. } => Ok(report),
        Response::Error { message, .. } => Err(invalid(message)),
        other => Err(invalid(format!("unexpected response {other:?}"))),
    }
}

/// Asks the daemon to shut down gracefully.
pub fn shutdown(addr: &str) -> io::Result<()> {
    match request_once(addr, &Request::Shutdown { id: 1 })? {
        Response::ShuttingDown { .. } => Ok(()),
        Response::Error { message, .. } => Err(invalid(message)),
        other => Err(invalid(format!("unexpected response {other:?}"))),
    }
}

// ---------------------------------------------------------------------------
// Batch solving with retry.

/// Solves every spec on the daemon at `addr` with default retry behaviour
/// and returns the outcomes in request order (see the module docs).
pub fn solve_batch(
    addr: &str,
    specs: &[SolveSpec],
) -> io::Result<Vec<Result<SolveResult, String>>> {
    Ok(solve_batch_with(addr, specs, &ClientConfig::default())?.outcomes)
}

/// What one connection attempt produced (fatal failures come back as
/// `Err(ClientError)` instead).
enum Attempt {
    /// Every outstanding request got a final answer.
    Done,
    /// The daemon shed this many of the resent requests; they stay
    /// unanswered and want a retry after backoff.
    Shed(u64),
}

/// [`solve_batch`] with explicit retry configuration; returns the
/// fault-tolerance counters alongside the outcomes.
pub fn solve_batch_with(
    addr: &str,
    specs: &[SolveSpec],
    config: &ClientConfig,
) -> Result<BatchReport, ClientError> {
    let mut outcomes: Vec<Option<Result<SolveResult, String>>> =
        specs.iter().map(|_| None).collect();
    if specs.is_empty() {
        return Ok(BatchReport { outcomes: Vec::new(), retries: 0, shed: 0 });
    }
    let mut deadlines: Vec<Option<Instant>> = specs.iter().map(|_| None).collect();
    let schedule = backoff_schedule(
        config.retry_seed,
        config.max_retries,
        config.backoff_base_ms,
        config.backoff_cap_ms,
    );
    let mut retries = 0u32;
    let mut shed = 0u64;
    loop {
        let attempts = retries + 1;
        match run_attempt(addr, specs, &mut outcomes, &mut deadlines, config, attempts) {
            Ok(Attempt::Done) => {
                return Ok(BatchReport { outcomes: seal(outcomes), retries, shed });
            }
            Ok(Attempt::Shed(n)) => {
                shed += n;
                if retries >= config.max_retries {
                    // Budget exhausted with requests still being shed: fail
                    // those requests individually; the rest of the batch is
                    // already answered.
                    for slot in outcomes.iter_mut() {
                        if slot.is_none() {
                            *slot = Some(Err(protocol::OVERLOADED.to_string()));
                        }
                    }
                    return Ok(BatchReport { outcomes: seal(outcomes), retries, shed });
                }
            }
            Err(e) if e.transient() && retries < config.max_retries => {}
            Err(e) => return Err(e),
        }
        let delay = schedule.get(retries as usize).copied().unwrap_or(config.backoff_cap_ms);
        std::thread::sleep(Duration::from_millis(delay));
        retries += 1;
    }
}

/// Finalizes the per-request slots once every request is answered.  A
/// still-empty slot would be a bookkeeping bug; report it as a per-request
/// error rather than panicking mid-batch.
fn seal(outcomes: Vec<Option<Result<SolveResult, String>>>) -> Vec<Result<SolveResult, String>> {
    outcomes
        .into_iter()
        .map(|o| o.unwrap_or_else(|| Err("request was never answered".to_string())))
        .collect()
}

/// One connection attempt: connect, send every still-unanswered request,
/// and pump the readiness loop until they are all answered (or shed, or the
/// transport dies, or a deadline expires).
fn run_attempt(
    addr: &str,
    specs: &[SolveSpec],
    outcomes: &mut [Option<Result<SolveResult, String>>],
    deadlines: &mut [Option<Instant>],
    config: &ClientConfig,
    attempts: u32,
) -> Result<Attempt, ClientError> {
    let connect_err = |last: io::Error| ClientError::Connect { attempts, last };
    let transport_err = |last: io::Error| ClientError::Transport { attempts, last };
    let proto_err = |m: String| ClientError::Protocol(m);

    failpoint::fail_io("client.connect").map_err(connect_err)?;
    let stream = TcpStream::connect(addr).map_err(connect_err)?;
    // `Conn::new` also turns Nagle off for the pipelined request frames.
    let mut conn = Conn::new(stream).map_err(connect_err)?;
    let resend: Vec<usize> =
        outcomes.iter().enumerate().filter(|(_, o)| o.is_none()).map(|(i, _)| i).collect();
    let now = Instant::now();
    for (i, (spec, deadline)) in specs.iter().zip(deadlines.iter_mut()).enumerate() {
        if !matches!(outcomes.get(i), Some(None)) {
            continue;
        }
        // The deadline starts at the *first* send and survives resends.
        deadline.get_or_insert(now + config.request_timeout);
        conn.push_line(&protocol::encode_request(&Request::Solve {
            id: i as u64,
            spec: spec.clone(),
        }));
    }

    let mut poll = Poll::new().map_err(connect_err)?;
    let mut events = Events::with_capacity(4);
    poll.register(&conn.stream, Token(0), Interest::READABLE | Interest::WRITABLE)
        .map_err(connect_err)?;

    // Answered this attempt (final results *and* sheds); sheds keep their
    // outcome slot empty so the next attempt resends them.
    let mut answered = vec![false; specs.len()];
    let mut pending = resend.len();
    let mut shed_now = 0u64;
    while pending > 0 {
        for &i in &resend {
            if answered.get(i).copied().unwrap_or(true) {
                continue;
            }
            if let Some(deadline) = deadlines.get(i).copied().flatten() {
                if Instant::now() >= deadline {
                    return Err(ClientError::Timeout {
                        id: i as u64,
                        waited: config.request_timeout,
                    });
                }
            }
        }
        let mut interest = Interest::READABLE;
        if conn.wants_write() {
            interest = interest | Interest::WRITABLE;
        }
        poll.reregister(&conn.stream, Token(0), interest).map_err(transport_err)?;
        poll.poll(&mut events, Some(Duration::from_millis(100))).map_err(transport_err)?;
        for event in &events {
            if event.is_readable() {
                failpoint::fail_io("client.read")
                    .and_then(|()| conn.fill().map(|_| ()))
                    .map_err(transport_err)?;
            }
            if event.is_writable() && conn.wants_write() {
                failpoint::fail_io("client.write")
                    .and_then(|()| conn.flush_out())
                    .map_err(transport_err)?;
            }
        }
        while let Some(frame) = conn.decoder.next_frame() {
            let line = frame.map_err(|e| proto_err(format!("bad response frame: {e}")))?;
            let response = protocol::parse_response(&line)
                .map_err(|e| proto_err(format!("bad response frame: {e}")))?;
            let id = response.id() as usize;
            let (Some(flag), Some(slot)) = (answered.get_mut(id), outcomes.get_mut(id)) else {
                return Err(proto_err(format!("response for unknown request id {id}")));
            };
            if *flag && !resend.contains(&id) {
                return Err(proto_err(format!("response for unknown request id {id}")));
            }
            if *flag || slot.is_some() {
                return Err(proto_err(format!("duplicate response for request id {id}")));
            }
            *flag = true;
            pending -= 1;
            if response.is_overloaded() {
                shed_now += 1; // slot stays empty: resend after backoff
                continue;
            }
            *slot = Some(match response {
                Response::Solve { result, .. } => Ok(result),
                Response::Error { message, .. } => Err(message),
                other => return Err(proto_err(format!("unexpected response {other:?}"))),
            });
        }
        if pending > 0 && conn.read_closed {
            return Err(transport_err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!("daemon closed the connection with {pending} responses outstanding"),
            )));
        }
    }
    if shed_now > 0 {
        Ok(Attempt::Shed(shed_now))
    } else {
        Ok(Attempt::Done)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_schedule_is_pure_and_bounded() {
        let a = backoff_schedule(42, 8, 50, 2_000);
        let b = backoff_schedule(42, 8, 50, 2_000);
        assert_eq!(a, b, "same seed must replay the same schedule");
        assert_ne!(a, backoff_schedule(43, 8, 50, 2_000), "different seed, different jitter");
        for (k, &delay) in a.iter().enumerate() {
            let cap = 2_000u64.min(50u64.saturating_mul(1 << k));
            assert!(delay >= cap - cap / 2 && delay <= cap, "attempt {k}: {delay} vs cap {cap}");
        }
    }

    #[test]
    fn client_error_maps_to_io_error_kinds() {
        let timeout = ClientError::Timeout { id: 9, waited: Duration::from_secs(3) };
        assert!(timeout.to_string().contains("request 9"), "{timeout}");
        let e: io::Error = timeout.into();
        assert_eq!(e.kind(), io::ErrorKind::TimedOut);
        let proto: io::Error = ClientError::Protocol("bad".into()).into();
        assert_eq!(proto.kind(), io::ErrorKind::InvalidData);
        assert!(!ClientError::Protocol("bad".into()).transient());
        let lost = ClientError::Transport {
            attempts: 2,
            last: io::Error::new(io::ErrorKind::UnexpectedEof, "gone"),
        };
        assert!(lost.transient());
    }
}
