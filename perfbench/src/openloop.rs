//! The load generator: open-loop fixed-rate arrivals over two connections,
//! plus a closed pipelined loop for saturation throughput.
//!
//! Open loop: the calling thread sends; one receiver thread blocks in
//! `poll(2)` on both connections.  The sender sleeps until the next due
//! time and then writes every request that is due, so it never waits past
//! a due time or behind a response; each request's latency runs from its
//! due time to the read that delivered its response, so a stall is charged
//! to every request it delays.  The sender's lateness (write start minus
//! due time) and the backlog (sent minus answered) are reported, so a run
//! whose generator could not keep up is recognised and rejected.

use crate::trace::{Span, Tracer};
use chain2l_service::frame::FrameDecoder;
use mio_lite::{Events, Interest, Poll, Token};
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const CONNECTIONS: usize = 2;

/// Outcome of one load phase.  Vectors are indexed by request id.
pub struct PhaseResult {
    /// Due-to-response latency of each answered request (ms).
    pub latency_ms: Vec<f64>,
    /// Sender lateness of each request (ms).
    pub late_ms: Vec<f64>,
    /// The response line of each request, `None` when none arrived.
    pub responses: Vec<Option<String>>,
    /// Largest number of sent-but-unanswered requests seen by the sender.
    pub backlog_max: u64,
    /// Unanswered requests when the last one was sent.
    pub backlog_at_end: u64,
}

/// The id echoed in a response line, without parsing the rest.
pub fn response_id(line: &str) -> Option<u64> {
    let rest = &line[line.find("\"id\":")? + 5..];
    let end = rest.find(|c: char| !c.is_ascii_digit()).unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn connect(addr: &str) -> io::Result<Vec<TcpStream>> {
    (0..CONNECTIONS)
        .map(|_| {
            let s = TcpStream::connect(addr)?;
            s.set_nodelay(true)?;
            Ok(s)
        })
        .collect()
}

/// Receiver side shared by both loops: reads whatever is ready on any
/// connection and hands each complete line to `on_line` with the instant
/// its read returned.
struct Receiver {
    poll: Poll,
    events: Events,
    streams: Vec<TcpStream>,
    decoders: Vec<FrameDecoder>,
    open: usize,
    buf: Vec<u8>,
}

impl Receiver {
    fn new(streams: Vec<TcpStream>) -> io::Result<Receiver> {
        let mut poll = Poll::new()?;
        for (i, s) in streams.iter().enumerate() {
            poll.register(s, Token(i), Interest::READABLE)?;
        }
        let open = streams.len();
        let decoders = streams.iter().map(|_| FrameDecoder::new()).collect();
        Ok(Receiver {
            poll,
            events: Events::with_capacity(8),
            streams,
            decoders,
            open,
            buf: vec![0; 1 << 16],
        })
    }

    /// One readiness wait (at most `timeout`) and the reads it allows.
    /// Returns the reads' spans when `trace` is set.
    fn step(
        &mut self,
        timeout: Duration,
        mut on_line: impl FnMut(usize, String, Instant),
        trace: Option<&mut Vec<(Instant, Instant, Instant)>>,
    ) -> io::Result<()> {
        self.poll.poll(&mut self.events, Some(timeout))?;
        let ready: Vec<usize> = self.events.iter().map(|e| e.token().0).collect();
        let mut marks = Vec::new();
        for conn in ready {
            let read_start = Instant::now();
            let n = match self.streams[conn].read(&mut self.buf) {
                Ok(n) => n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            let at = Instant::now();
            if n == 0 {
                self.poll.deregister(&self.streams[conn])?;
                self.open -= 1;
                continue;
            }
            self.decoders[conn].push(&self.buf[..n]);
            while let Some(frame) = self.decoders[conn].next_frame() {
                // A frame error is reported as an empty line: it matches no
                // request and so counts as a failure where it is checked.
                on_line(conn, frame.unwrap_or_default(), at);
            }
            marks.push((read_start, at, Instant::now()));
        }
        if let Some(t) = trace {
            t.extend(marks);
        }
        Ok(())
    }
}

/// What the receiver thread hands back: each request's response instant
/// and line, and the `(read start, read end, decode end)` marks of its reads.
type Received = (Vec<Option<Instant>>, Vec<Option<String>>, Vec<(Instant, Instant, Instant)>);

/// Longest wait for the last responses after the final send.
const DRAIN: Duration = Duration::from_secs(5);

/// Sends `lines[i]` (newline-terminated) at `due[i]` after the start,
/// request `i` on connection `i % 2`.  Request ids must equal indices.
pub fn open_loop(
    addr: &str,
    lines: &[String],
    due: &[Duration],
    tracer: Option<&Tracer>,
) -> io::Result<PhaseResult> {
    let total = lines.len();
    let streams = connect(addr)?;
    let mut writers: Vec<TcpStream> =
        streams.iter().map(TcpStream::try_clone).collect::<io::Result<_>>()?;
    let answered = Arc::new(AtomicU64::new(0));
    let sent = Arc::new(AtomicU64::new(0));
    let done_sending = Arc::new(AtomicBool::new(false));
    // Lead time so the receiver is polling before the first request is due.
    let start = Instant::now() + Duration::from_millis(5);

    let recv = {
        let (answered, sent, done_sending) = (answered.clone(), sent.clone(), done_sending.clone());
        let traced = tracer.is_some();
        std::thread::spawn(move || -> io::Result<Received> {
            let mut rx = Receiver::new(streams)?;
            let mut at_of: Vec<Option<Instant>> = vec![None; total];
            let mut responses: Vec<Option<String>> = vec![None; total];
            let mut marks = Vec::new();
            let mut count = 0u64;
            let mut drain_deadline = None;
            while rx.open > 0 {
                rx.step(
                    Duration::from_millis(20),
                    |_, line, at| {
                        if let Some(id) =
                            response_id(&line).map(|id| id as usize).filter(|&id| id < total)
                        {
                            if responses[id].is_none() {
                                at_of[id] = Some(at);
                                responses[id] = Some(line);
                                count += 1;
                            }
                        }
                    },
                    traced.then_some(&mut marks),
                )?;
                answered.store(count, Ordering::Release);
                if done_sending.load(Ordering::Acquire) {
                    if count >= sent.load(Ordering::Acquire) {
                        break;
                    }
                    let deadline = *drain_deadline.get_or_insert_with(|| Instant::now() + DRAIN);
                    if Instant::now() > deadline {
                        break;
                    }
                }
            }
            Ok((at_of, responses, marks))
        })
    };

    let mut late_ms = vec![0.0; total];
    let mut bufs: Vec<Vec<u8>> = vec![Vec::new(); CONNECTIONS];
    let (mut backlog_max, mut backlog_at_end) = (0u64, 0u64);
    let mut writes: Vec<(Instant, Instant)> = Vec::new();
    let mut send_error = None;
    let mut i = 0;
    while i < total {
        let now = Instant::now();
        let due_i = start + due[i];
        if due_i > now {
            std::thread::sleep(due_i - now);
            continue;
        }
        let first = i;
        while i < total && start + due[i] <= now {
            bufs[i % CONNECTIONS].extend_from_slice(lines[i].as_bytes());
            i += 1;
        }
        let write_start = Instant::now();
        for j in first..i {
            late_ms[j] = write_start.saturating_duration_since(start + due[j]).as_secs_f64() * 1e3;
        }
        sent.store(i as u64, Ordering::Release);
        for (w, buf) in writers.iter_mut().zip(bufs.iter_mut()) {
            if !buf.is_empty() {
                if let Err(e) = w.write_all(buf) {
                    send_error.get_or_insert(e);
                }
                buf.clear();
            }
        }
        if tracer.is_some() {
            writes.push((write_start, Instant::now()));
        }
        let backlog = (i as u64).saturating_sub(answered.load(Ordering::Acquire));
        backlog_max = backlog_max.max(backlog);
        backlog_at_end = backlog;
        if send_error.is_some() {
            break;
        }
    }
    done_sending.store(true, Ordering::Release);
    let joined = recv.join().expect("receiver thread panicked");
    drop(writers);
    if let Some(e) = send_error {
        return Err(e);
    }
    let (at_of, responses, marks) = joined?;
    let latency_ms: Vec<f64> = at_of
        .iter()
        .zip(due)
        .filter_map(|(at, d)| {
            at.map(|at| at.saturating_duration_since(start + *d).as_secs_f64() * 1e3)
        })
        .collect();
    if let Some(t) = tracer {
        let mut spans: Vec<Span> = Vec::with_capacity(total + writes.len() + 2 * marks.len());
        let base = t.reserve((total + writes.len() + 2 * marks.len()) as u32);
        let mut id = base;
        let mut next = || {
            id += 1;
            id - 1
        };
        for (at, d) in at_of.iter().zip(due) {
            if let Some(at) = at {
                let (s, e) = (t.ns(start + *d), t.ns(*at));
                spans.push(Span {
                    id: next(),
                    parent: None,
                    name: "request",
                    start_ns: s,
                    end_ns: e,
                });
            }
        }
        for (s, e) in writes {
            spans.push(Span {
                id: next(),
                parent: None,
                name: "client.write",
                start_ns: t.ns(s),
                end_ns: t.ns(e),
            });
        }
        for (s, read_end, e) in marks {
            let read = next();
            spans.push(Span {
                id: read,
                parent: None,
                name: "client.read",
                start_ns: t.ns(s),
                end_ns: t.ns(e),
            });
            spans.push(Span {
                id: next(),
                parent: Some(read),
                name: "frame.decode",
                start_ns: t.ns(read_end),
                end_ns: t.ns(e),
            });
        }
        t.extend(spans);
    }
    Ok(PhaseResult { latency_ms, late_ms, responses, backlog_max, backlog_at_end })
}

/// Closed pipelined loop: `window` requests outstanding per connection,
/// each response releasing the next request, for `seconds`.  Request `i`
/// is `line_of(i)`.  Returns the answered lines (id order) and the rate of
/// answers per second.
pub fn closed_loop(
    addr: &str,
    window: usize,
    seconds: f64,
    line_of: impl Fn(usize) -> String,
) -> io::Result<(Vec<Option<String>>, f64)> {
    let streams = connect(addr)?;
    let mut writers: Vec<TcpStream> =
        streams.iter().map(TcpStream::try_clone).collect::<io::Result<_>>()?;
    let mut rx = Receiver::new(streams)?;
    let mut responses: Vec<Option<String>> = Vec::new();
    let mut next = 0usize;
    let start = Instant::now();
    for _ in 0..window {
        for w in writers.iter_mut() {
            w.write_all(line_of(next).as_bytes())?;
            responses.push(None);
            next += 1;
        }
    }
    let stop = start + Duration::from_secs_f64(seconds);
    let mut in_time = 0u64;
    let mut outstanding = next;
    let mut end = start;
    let mut to_send: Vec<usize> = Vec::new();
    while outstanding > 0 && rx.open > 0 {
        rx.step(
            Duration::from_millis(20),
            |conn, line, at| {
                if let Some(id) =
                    response_id(&line).map(|id| id as usize).filter(|&id| id < responses.len())
                {
                    if responses[id].is_none() {
                        responses[id] = Some(line);
                        outstanding -= 1;
                        if at <= stop {
                            in_time += 1;
                            end = at;
                            to_send.push(conn);
                        }
                    }
                }
            },
            None,
        )?;
        for conn in to_send.drain(..) {
            writers[conn].write_all(line_of(next).as_bytes())?;
            responses.push(None);
            next += 1;
            outstanding += 1;
        }
        if Instant::now() > stop + DRAIN {
            break;
        }
    }
    let elapsed = end.saturating_duration_since(start).as_secs_f64().max(1e-9);
    Ok((responses, in_time as f64 / elapsed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_the_echoed_id() {
        assert_eq!(response_id("{\"v\":2,\"id\":1234,\"op\":\"solve\"}"), Some(1234));
        assert_eq!(response_id("{\"v\":2,\"id\":0}"), Some(0));
        assert_eq!(response_id("{\"v\":2}"), None);
        assert_eq!(response_id(""), None);
    }
}
