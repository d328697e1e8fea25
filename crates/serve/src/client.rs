//! The client library: one blocking TCP connection speaking the frame
//! protocol. Used by `memgaze serve`/`memgaze query`, the load
//! generator, and the tests; anything the server can say maps back to
//! a typed [`ServeError`] here.
//!
//! [`Client::pipeline`] opens a windowed ingest: up to W pushes stay
//! outstanding on the wire before the oldest ack is awaited, which
//! keeps the server's group-commit batcher fed from a single
//! connection. The protocol needs no new frames for this — responses
//! arrive in strict request order — but the client verifies each ack
//! against its oldest outstanding push and surfaces any pairing
//! violation as [`ServeError::AckMismatch`] rather than trusting a
//! stream it can no longer line up.

use std::collections::VecDeque;
use std::net::TcpStream;
use std::time::Duration;

use dcp_support::bytes::Bytes;

use crate::error::ServeError;
use crate::wire::{
    encode_request, parse_ingest_ack, parse_response, read_frame, write_frame, Request, Response,
    MAX_FRAME,
};

/// A connected client. One request/response in flight at a time.
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connect with a default 10 s read timeout.
    pub fn connect(addr: &str) -> Result<Self, ServeError> {
        Self::connect_with_timeout(addr, Duration::from_secs(10))
    }

    /// Connect with an explicit read timeout — the client-side guard
    /// against a server that stops mid-frame.
    pub fn connect_with_timeout(addr: &str, timeout: Duration) -> Result<Self, ServeError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(timeout))?;
        // Request/response over small frames: Nagle only adds latency.
        stream.set_nodelay(true)?;
        Ok(Self { stream })
    }

    /// One round trip: write the request frame, read exactly one
    /// response frame. Server-side ERR frames come back as the typed
    /// error they encode.
    pub fn call(&mut self, req: &Request) -> Result<String, ServeError> {
        match self.call_raw(req)? {
            Response::Ok(text) => Ok(text),
            Response::Err(code, msg) => Err(ServeError::from_wire(code, msg)),
            // A binary body where text was expected means the peer is
            // answering a different request than we sent.
            Response::Data(_) => Err(ServeError::BadKind(crate::wire::kind::DATA)),
        }
    }

    /// One round trip returning the raw response variant (the `PARTIAL`
    /// path needs the binary `DATA` body).
    pub fn call_raw(&mut self, req: &Request) -> Result<Response, ServeError> {
        let (k, body) = encode_request(req);
        write_frame(&mut self.stream, k, &body)?;
        let (rk, rbody) = read_frame(&mut self.stream, MAX_FRAME)?
            .ok_or_else(|| ServeError::Io("connection closed before response".to_string()))?;
        parse_response(rk, rbody)
    }

    pub fn ping(&mut self) -> Result<String, ServeError> {
        self.call(&Request::Ping)
    }

    /// Send one encoded DCPB bundle into `set`. Pass `seq` to pin a
    /// deterministic merge position under concurrent ingest.
    pub fn ingest(&mut self, set: &str, seq: Option<u64>, bundle: Bytes) -> Result<String, ServeError> {
        self.call(&Request::Ingest { set: set.to_string(), seq, bundle })
    }

    pub fn query(&mut self, q: &str) -> Result<String, ServeError> {
        self.call(&Request::Query(q.to_string()))
    }

    pub fn stats(&mut self) -> Result<String, ServeError> {
        self.call(&Request::Stats)
    }

    /// The named set's commit epoch on this shard (router cache keying).
    pub fn epoch(&mut self, set: &str) -> Result<u64, ServeError> {
        let text = self.call(&Request::Epoch(set.to_string()))?;
        text.trim()
            .parse()
            .map_err(|_| ServeError::Io(format!("malformed epoch response {text:?}")))
    }

    /// Fetch the named set's shard-local partial (an encoded
    /// [`crate::store::SetPartial`] payload).
    pub fn partial(&mut self, set: &str) -> Result<Bytes, ServeError> {
        match self.call_raw(&Request::Partial(set.to_string()))? {
            Response::Data(bytes) => Ok(bytes),
            Response::Err(code, msg) => Err(ServeError::from_wire(code, msg)),
            Response::Ok(_) => Err(ServeError::BadKind(crate::wire::kind::OK)),
        }
    }

    /// Ask the server to drain and exit. The OK response means the
    /// drain has begun, not that it has finished.
    pub fn shutdown(&mut self) -> Result<String, ServeError> {
        self.call(&Request::Shutdown)
    }

    /// Start a windowed ingest: up to `window` pushes outstanding
    /// before the oldest ack must be read. The pipeline borrows the
    /// connection; [`IngestPipeline::drain`] returns it to strict
    /// request/response use.
    pub fn pipeline(&mut self, window: usize) -> IngestPipeline<'_> {
        IngestPipeline { client: self, window: window.max(1), outstanding: VecDeque::new() }
    }
}

/// One acknowledged ingest: the slot the server committed it at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ack {
    pub set: String,
    pub seq: u64,
    pub epoch: u64,
}

/// A windowed ingest in progress. Every push is matched FIFO against
/// the response stream; per-bundle refusals (budget, duplicate seq, …)
/// come back as `Err` *items* and the window keeps moving, while
/// transport or pairing failures are the outer `Err` and poison the
/// connection.
pub struct IngestPipeline<'a> {
    client: &'a mut Client,
    window: usize,
    /// Oldest-first (set, seq) of pushes whose acks are still owed.
    outstanding: VecDeque<(String, Option<u64>)>,
}

impl IngestPipeline<'_> {
    /// Send one bundle. If the window was full, first reads (and
    /// returns) the oldest outstanding ack — so the caller sees every
    /// ack exactly once across `push` and `drain`.
    #[allow(clippy::type_complexity)]
    pub fn push(
        &mut self,
        set: &str,
        seq: Option<u64>,
        bundle: Bytes,
    ) -> Result<Option<Result<Ack, ServeError>>, ServeError> {
        let acked = if self.outstanding.len() >= self.window {
            Some(self.read_ack()?)
        } else {
            None
        };
        let (k, body) =
            encode_request(&Request::Ingest { set: set.to_string(), seq, bundle });
        write_frame(&mut self.client.stream, k, &body)?;
        self.outstanding.push_back((set.to_string(), seq));
        Ok(acked)
    }

    /// Pushes sent but not yet acknowledged. After a transport error a
    /// caller that wants at-least-once delivery must re-send this many
    /// trailing bundles (the server's duplicate-seq refusal makes the
    /// retry idempotent for explicit sequences).
    pub fn outstanding(&self) -> usize {
        self.outstanding.len()
    }

    /// Await every outstanding ack, oldest first, ending the window.
    pub fn drain(&mut self) -> Result<Vec<Result<Ack, ServeError>>, ServeError> {
        let mut acks = Vec::with_capacity(self.outstanding.len());
        while !self.outstanding.is_empty() {
            acks.push(self.read_ack()?);
        }
        Ok(acks)
    }

    /// Read one response and pair it with the oldest outstanding push.
    /// Inner `Err` = the server refused that bundle (typed, relayed
    /// verbatim); outer `Err` = the stream itself can no longer be
    /// trusted (transport failure or an ack that does not match).
    fn read_ack(&mut self) -> Result<Result<Ack, ServeError>, ServeError> {
        let (expect_set, expect_seq) =
            self.outstanding.pop_front().expect("read_ack with nothing outstanding");
        let (k, body) = read_frame(&mut self.client.stream, MAX_FRAME)?
            .ok_or_else(|| ServeError::Io("connection closed before ack".to_string()))?;
        match parse_response(k, body)? {
            Response::Ok(text) => {
                let (set, seq, epoch) = parse_ingest_ack(&text).ok_or_else(|| {
                    ServeError::AckMismatch(format!("unparseable ack body {text:?}"))
                })?;
                if set != expect_set {
                    return Err(ServeError::AckMismatch(format!(
                        "ack for set '{set}' where set '{expect_set}' was next"
                    )));
                }
                if let Some(want) = expect_seq {
                    if seq != want {
                        return Err(ServeError::AckMismatch(format!(
                            "ack for seq {seq} where seq {want} was next in set '{set}'"
                        )));
                    }
                }
                Ok(Ok(Ack { set, seq, epoch }))
            }
            Response::Err(code, msg) => Ok(Err(ServeError::from_wire(code, msg))),
            // A binary body can only answer PARTIAL, which a pipeline
            // never sends.
            Response::Data(_) => Err(ServeError::AckMismatch(
                "binary DATA frame where an ingest ack was expected".to_string(),
            )),
        }
    }
}
