//! NDJSON frame decoding and buffered non-blocking connection plumbing for
//! the event-driven daemon.
//!
//! [`FrameDecoder`] turns an arbitrary byte stream into complete NDJSON
//! lines: frames may arrive split at any byte boundary and interleaved with
//! other connections' traffic, and the decoder yields exactly the same
//! frames as if each had arrived whole (property-tested in
//! `tests/frame_robustness.rs`).  A frame that cannot be a valid line —
//! longer than [`MAX_FRAME`] bytes or not UTF-8 — is reported as a
//! [`FrameError`] for *that frame only*; the decoder resynchronises at the
//! next newline and the connection stays usable.
//!
//! [`Conn`] wraps a non-blocking `TcpStream` with the decoder, an outbound
//! byte queue and the **ordered-delivery window**: every accepted frame gets
//! a per-connection sequence number, responses are completed out of order
//! (whenever their solve finishes) but are released into the socket strictly
//! in request order.  The window size bounds `accepted − delivered`, which
//! simultaneously caps the reorder buffer and provides backpressure — a
//! connection at its limit simply stops being read until responses drain.

// lint: allow-file(panic-index: buffer cursors (`scanned`, `out_pos`, read length `n`) are maintained <= len by construction; property tests in tests/frame_robustness.rs pin the invariant)

use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::TcpStream;

/// Upper bound on one NDJSON frame; no legitimate protocol line comes close
/// (the longest solve frame is under 300 bytes), so anything larger is a
/// protocol violation reported as [`FrameError::Oversize`].
pub const MAX_FRAME: usize = 64 * 1024;

/// Outbound-buffer high-water mark: a connection whose unread responses
/// exceed this stops being read (backpressure on slow consumers).
pub(crate) const OUT_HIGH_WATER: usize = 256 * 1024;

/// Why one frame could not be decoded (the stream itself stays decodable).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The frame exceeded [`MAX_FRAME`] bytes before its newline arrived;
    /// the decoder discards bytes until the next newline.
    Oversize,
    /// The frame's bytes are not valid UTF-8.
    NotUtf8,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Oversize => {
                write!(f, "frame exceeds the {MAX_FRAME}-byte limit")
            }
            FrameError::NotUtf8 => write!(f, "frame is not valid UTF-8"),
        }
    }
}

/// Incremental splitter of a byte stream into NDJSON lines (see the module
/// docs for the exact tolerance guarantees).
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Prefix of `buf` already scanned for a newline (so repeated partial
    /// pushes do not rescan from the start).
    scanned: usize,
    /// Set after an oversize frame: drop bytes until the next newline.
    discarding: bool,
}

impl FrameDecoder {
    /// An empty decoder.
    pub fn new() -> FrameDecoder {
        FrameDecoder::default()
    }

    /// Appends freshly-read bytes to the decode buffer.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet yielded as frames.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Pops the next complete frame, skipping blank lines; `None` means the
    /// buffer holds at most one partial frame and more bytes are needed.
    pub fn next_frame(&mut self) -> Option<Result<String, FrameError>> {
        loop {
            if self.discarding {
                match self.buf.iter().position(|&b| b == b'\n') {
                    Some(pos) => {
                        self.buf.drain(..=pos);
                        self.scanned = 0;
                        self.discarding = false;
                    }
                    None => {
                        self.buf.clear();
                        self.scanned = 0;
                        return None;
                    }
                }
                continue;
            }
            match self.buf[self.scanned..].iter().position(|&b| b == b'\n') {
                Some(offset) => {
                    let end = self.scanned + offset;
                    let mut line: Vec<u8> = self.buf.drain(..=end).collect();
                    line.pop(); // the newline
                    if line.len() > MAX_FRAME {
                        // A terminated line can still exceed the limit when
                        // it arrives in one large read: same error, but no
                        // discard phase — the newline is already consumed.
                        self.scanned = 0;
                        return Some(Err(FrameError::Oversize));
                    }
                    if line.last() == Some(&b'\r') {
                        line.pop();
                    }
                    self.scanned = 0;
                    match String::from_utf8(line) {
                        Ok(text) if text.trim().is_empty() => continue,
                        Ok(text) => return Some(Ok(text)),
                        Err(_) => return Some(Err(FrameError::NotUtf8)),
                    }
                }
                None => {
                    self.scanned = self.buf.len();
                    if self.buf.len() > MAX_FRAME {
                        self.buf.clear();
                        self.scanned = 0;
                        self.discarding = true;
                        return Some(Err(FrameError::Oversize));
                    }
                    return None;
                }
            }
        }
    }
}

/// One buffered non-blocking connection in an event loop: decoder in,
/// ordered-delivery window out.
#[derive(Debug)]
pub(crate) struct Conn {
    pub(crate) stream: TcpStream,
    pub(crate) decoder: FrameDecoder,
    out: Vec<u8>,
    out_pos: usize,
    next_accept: u64,
    next_deliver: u64,
    held: BTreeMap<u64, String>,
    /// The peer closed its write half (or the transport failed): no more
    /// frames will be accepted, but queued responses still flush.
    pub(crate) read_closed: bool,
}

impl Conn {
    /// Wraps `stream`, switching it to non-blocking mode with Nagle's
    /// algorithm off: responses are small and already coalesced per loop
    /// turn in the outbound buffer, so holding one back until the peer ACKs
    /// the previous segment only adds a round trip of latency.
    pub(crate) fn new(stream: TcpStream) -> io::Result<Conn> {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            stream,
            decoder: FrameDecoder::new(),
            out: Vec::new(),
            out_pos: 0,
            next_accept: 0,
            next_deliver: 0,
            held: BTreeMap::new(),
            read_closed: false,
        })
    }

    /// Assigns the sequence number of the next accepted frame.
    pub(crate) fn accept_seq(&mut self) -> u64 {
        let seq = self.next_accept;
        self.next_accept += 1;
        seq
    }

    /// Completes the response for `seq`; consecutive completed responses are
    /// released into the outbound buffer in sequence order.  The response
    /// the window is waiting for goes straight to the buffer; only
    /// out-of-order ones are copied into the reorder buffer.
    pub(crate) fn complete(&mut self, seq: u64, line: &str) {
        if seq != self.next_deliver {
            self.held.insert(seq, line.to_string());
            return;
        }
        self.push_line(line);
        self.next_deliver += 1;
        while let Some(ready) = self.held.remove(&self.next_deliver) {
            self.out.extend_from_slice(ready.as_bytes());
            self.out.push(b'\n');
            self.next_deliver += 1;
        }
    }

    /// Frames accepted but not yet released to the socket buffer.
    pub(crate) fn inflight(&self) -> u64 {
        self.next_accept - self.next_deliver
    }

    /// Whether the loop should read from this connection: the peer is still
    /// sending, the inflight window has room and the outbound buffer is not
    /// backed up.
    pub(crate) fn wants_read(&self, window: u64) -> bool {
        !self.read_closed && self.inflight() < window && self.pending_out() < OUT_HIGH_WATER
    }

    /// Whether undelivered bytes are queued.
    pub(crate) fn wants_write(&self) -> bool {
        self.pending_out() > 0
    }

    /// Bytes queued but not yet accepted by the socket.
    pub(crate) fn pending_out(&self) -> usize {
        self.out.len() - self.out_pos
    }

    /// Reads until `WouldBlock` (bounded per call so one firehose connection
    /// cannot starve the loop), feeding the decoder.  Returns `Ok(true)` if
    /// any bytes arrived; EOF sets [`Conn::read_closed`].
    pub(crate) fn fill(&mut self) -> io::Result<bool> {
        let mut any = false;
        let mut chunk = [0u8; 16 * 1024];
        for _ in 0..8 {
            // Failpoint `frame.read`: bounds this read attempt (`short`,
            // exercising split-frame decoding) or fails it (`err`).  The
            // bound applies to the *syscall*, never to bytes already read —
            // unread bytes stay in the socket buffer for the next attempt.
            let limit = chain2l_core::failpoint::short_len("frame.read", chunk.len())?;
            match self.stream.read(&mut chunk[..limit]) {
                Ok(0) => {
                    self.read_closed = true;
                    break;
                }
                Ok(n) => {
                    self.decoder.push(&chunk[..n]);
                    any = true;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(any)
    }

    /// Writes queued bytes until `WouldBlock` or the queue empties.
    pub(crate) fn flush_out(&mut self) -> io::Result<()> {
        while self.out_pos < self.out.len() {
            // Failpoint `frame.write`: bounds this write attempt (`short`,
            // exercising partial-write resumption) or fails it (`err`).
            let limit =
                chain2l_core::failpoint::short_len("frame.write", self.out.len() - self.out_pos)?;
            match self.stream.write(&self.out[self.out_pos..self.out_pos + limit]) {
                Ok(0) => {
                    return Err(io::Error::new(io::ErrorKind::WriteZero, "peer stopped reading"))
                }
                Ok(n) => self.out_pos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        if self.out_pos == self.out.len() {
            self.out.clear();
            self.out_pos = 0;
        }
        Ok(())
    }

    /// Appends a raw line to the outbound buffer, bypassing the sequence
    /// window (used by shard links, whose frames are matched by id).
    pub(crate) fn push_line(&mut self, line: &str) {
        self.out.extend_from_slice(line.as_bytes());
        self.out.push(b'\n');
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::net::TcpListener;

    /// A `Conn` over one end of a loopback connection (the other end is
    /// returned so it stays open).
    fn loopback_conn() -> (Conn, TcpStream) {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        (Conn::new(accepted).unwrap(), peer)
    }

    #[test]
    fn new_connections_disable_nagle() {
        let (conn, _peer) = loopback_conn();
        assert!(conn.stream.nodelay().unwrap());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Responses completed in any order — in-order completions that take
        /// the direct path interleaved with out-of-order ones that wait in
        /// the reorder buffer — are released in sequence order, each as soon
        /// as every earlier one has completed.
        #[test]
        fn mixed_in_order_and_out_of_order_completions_release_in_sequence(
            count in 1usize..24,
            keys in proptest::collection::vec(0u32..1000, 24),
            in_order in proptest::collection::vec(0u8..2, 24),
        ) {
            let (mut conn, _peer) = loopback_conn();
            // A shuffled completion order, then pull some sequence numbers
            // forward to complete exactly when the window expects them.
            let mut order: Vec<u64> = (0..count).map(|_| conn.accept_seq()).collect();
            order.sort_by_key(|&seq| keys[seq as usize]);
            let mut done = vec![false; count];
            let mut expected = Vec::new();
            let mut released = 0;
            while !order.is_empty() {
                let pos = order
                    .iter()
                    .position(|&seq| seq == conn.next_deliver && in_order[seq as usize] == 1)
                    .unwrap_or(0);
                let seq = order.remove(pos);
                conn.complete(seq, &format!("response {seq}"));
                done[seq as usize] = true;
                while released < count && done[released] {
                    expected.extend_from_slice(format!("response {released}\n").as_bytes());
                    released += 1;
                }
                prop_assert_eq!(&conn.out, &expected);
                prop_assert_eq!(conn.inflight(), (count - released) as u64);
                prop_assert_eq!(conn.held.len(), done.iter().filter(|&&d| d).count() - released);
            }
            prop_assert_eq!(released, count);
        }
    }

    fn frames(decoder: &mut FrameDecoder) -> Vec<Result<String, FrameError>> {
        std::iter::from_fn(|| decoder.next_frame()).collect()
    }

    #[test]
    fn split_frames_decode_like_whole_frames() {
        let mut whole = FrameDecoder::new();
        whole.push(b"{\"a\":1}\n\n{\"b\":2}\r\n{\"c\":3}\n");
        let expected = frames(&mut whole);

        let mut split = FrameDecoder::new();
        let mut got = Vec::new();
        for byte in b"{\"a\":1}\n\n{\"b\":2}\r\n{\"c\":3}\n" {
            split.push(&[*byte]);
            got.extend(frames(&mut split));
        }
        assert_eq!(got, expected);
        assert_eq!(
            expected,
            vec![
                Ok("{\"a\":1}".to_string()),
                Ok("{\"b\":2}".to_string()),
                Ok("{\"c\":3}".to_string())
            ]
        );
    }

    #[test]
    fn oversize_frames_error_once_and_resynchronise() {
        let mut decoder = FrameDecoder::new();
        decoder.push(&vec![b'x'; MAX_FRAME + 1]);
        assert_eq!(decoder.next_frame(), Some(Err(FrameError::Oversize)));
        assert_eq!(decoder.next_frame(), None, "still discarding");
        decoder.push(b"still the same doomed frame");
        assert_eq!(decoder.next_frame(), None);
        decoder.push(b"\n{\"ok\":1}\n");
        assert_eq!(decoder.next_frame(), Some(Ok("{\"ok\":1}".to_string())));
    }

    #[test]
    fn non_utf8_frames_poison_only_themselves() {
        let mut decoder = FrameDecoder::new();
        decoder.push(b"\xff\xfe\n{\"fine\":true}\n");
        assert_eq!(decoder.next_frame(), Some(Err(FrameError::NotUtf8)));
        assert_eq!(decoder.next_frame(), Some(Ok("{\"fine\":true}".to_string())));
        assert_eq!(decoder.next_frame(), None);
    }
}
