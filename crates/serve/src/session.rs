//! The session loop the daemon and the router share.
//!
//! Sessions run on dedicated OS threads — deliberately NOT on the
//! compute pool. A session blocks on socket reads, so as a pool task it
//! would hold a worker for the connection's lifetime and starve compute
//! (and under `DCP_THREADS=0` the pool has no workers at all).
//!
//! [`serve`] owns everything that is the same on both binaries: the
//! nonblocking accept poll, the fixed set of session threads pulling
//! sockets off one queue, the drain and join, socket set-up, frame read
//! and parse, the ingest read-ahead group, the `ShuttingDown` refusal,
//! `PING`, `SHUTDOWN`, and the response write. What a request *means*
//! is the [`Handler`]'s: the daemon answers from its store, the router
//! scatters to its shards.
//!
//! Robustness posture per connection: a read timeout bounds how long a
//! quiet peer can hold a session thread, [`MAX_FRAME`] bounds
//! allocation, and every read or parse failure turns into one
//! best-effort ERR frame before the connection closes. A SHUTDOWN
//! control frame flips the drain flag: the acceptor stops taking
//! sockets, sessions refuse new queries and ingests, and [`serve`]
//! joins every session thread before returning — no request is
//! abandoned mid-response.

use std::io::ErrorKind;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::channel;
use std::sync::Arc;
use std::time::Duration;

use dcp_support::bytes::Bytes;
use dcp_support::sync::Mutex;

use crate::error::ServeError;
use crate::wire::{encode_response, parse_request, read_frame, write_frame, Request, Response, MAX_FRAME};

/// Cap on the bytes one session gathers into a single ingest group from
/// its socket read-ahead (the record count is bounded by
/// [`Handler::ingest_group`]).
const GROUP_READ_BYTES: usize = 8 << 20;

/// How long the acceptor sleeps when no connection is ready, or when
/// the process cannot take one right now.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(5);

/// One INGEST request's fields: set, client sequence, DCPB bundle.
pub(crate) type IngestItem = (String, Option<u64>, Bytes);

/// What a binary does with the requests the shared loop hands it.
pub(crate) trait Handler: Send + Sync + 'static {
    /// Per-connection state, made when a session starts.
    type Session;

    fn session(&self) -> Self::Session;

    /// Most INGEST frames one session drains from its socket into one
    /// [`Handler::ingest`] call. 1 never reads ahead.
    fn ingest_group(&self) -> usize;

    /// Answer a gathered ingest group: one response per item, in order.
    fn ingest(&self, session: &mut Self::Session, group: Vec<IngestItem>) -> Vec<Response>;

    /// Answer `STATS`, `QUERY`, `EPOCH` or `PARTIAL`; the loop answers
    /// every other kind itself.
    fn request(&self, session: &mut Self::Session, req: Request) -> Response;
}

pub(crate) fn err_response(e: &ServeError) -> Response {
    Response::Err(e.code(), e.to_string())
}

/// Accept and serve until the drain flag is set, then drain: stop
/// accepting, let every session finish, and join the session threads.
/// A failure of the listener itself drains the same way before it is
/// returned.
pub(crate) fn serve<H: Handler>(
    listener: &TcpListener,
    handler: &Arc<H>,
    sessions: usize,
    read_timeout: Duration,
    shutdown: &Arc<AtomicBool>,
) -> Result<(), ServeError> {
    listener.set_nonblocking(true)?;
    let (tx, rx) = channel::<TcpStream>();
    let rx = Arc::new(Mutex::new(rx));
    let workers: Vec<_> = (0..sessions.max(1))
        .map(|_| {
            let rx = Arc::clone(&rx);
            let handler = Arc::clone(handler);
            let shutdown = Arc::clone(shutdown);
            std::thread::spawn(move || loop {
                // Holding the receiver lock only while waiting keeps the
                // other session threads free to pull their own sockets.
                let next = rx.lock().recv();
                match next {
                    Ok(stream) => run_session(stream, &*handler, &shutdown, read_timeout),
                    Err(_) => return, // sender dropped: drain complete
                }
            })
        })
        .collect();
    // Nonblocking accept poll so the drain flag is honoured even when no
    // client ever connects again.
    let mut served = Ok(());
    while !shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                if tx.send(stream).is_err() {
                    break;
                }
            }
            Err(e) if accept_backs_off(&e) => std::thread::sleep(ACCEPT_BACKOFF),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => {
                shutdown.store(true, Ordering::SeqCst);
                served = Err(e.into());
            }
        }
    }
    // Dropping the sender ends every worker's recv loop once the queued
    // sockets (in-flight sessions) are fully served.
    drop(tx);
    for w in workers {
        let _ = w.join();
    }
    served
}

/// Accept failures that say nothing is wrong with the listener: no
/// connection is ready, the process or host is out of descriptors,
/// buffers or memory for now, or the peer gave up before its connection
/// was taken. Each clears by itself — when a session closes its socket,
/// say — so the acceptor waits and tries again instead of dying with
/// every queued session in it.
fn accept_backs_off(e: &std::io::Error) -> bool {
    // EMFILE and ENFILE have the same numbers on every Unix; ENOBUFS
    // does not, and std gives none of the three an `ErrorKind`.
    const ENFILE: i32 = 23;
    const EMFILE: i32 = 24;
    #[cfg(target_os = "linux")]
    const ENOBUFS: i32 = 105;
    #[cfg(not(target_os = "linux"))]
    const ENOBUFS: i32 = 55;
    matches!(
        e.kind(),
        ErrorKind::WouldBlock | ErrorKind::ConnectionAborted | ErrorKind::OutOfMemory
    ) || (cfg!(unix) && matches!(e.raw_os_error(), Some(ENFILE | EMFILE | ENOBUFS)))
}

fn respond(stream: &mut TcpStream, resp: &Response) -> Result<(), ServeError> {
    let (k, body) = encode_response(resp);
    write_frame(stream, k, &body)
}

/// The next request on a stream; `Ok(None)` is a clean EOF at a frame
/// boundary.
type Next = Result<Option<Request>, ServeError>;

fn next_request(stream: &mut TcpStream) -> Next {
    read_frame(stream, MAX_FRAME)?.map(|(k, body)| parse_request(k, body)).transpose()
}

/// Does the socket have bytes ready to read right now? Used by the
/// ingest read-ahead: never block waiting for more of a window, only
/// drain what the client has already pipelined.
fn socket_has_data(stream: &TcpStream) -> bool {
    if stream.set_nonblocking(true).is_err() {
        return false;
    }
    let mut probe = [0u8; 1];
    let ready = matches!(stream.peek(&mut probe), Ok(n) if n > 0);
    // A socket stuck nonblocking would break the normal read path;
    // treat failure to restore as no-data so the caller falls back to
    // the blocking read and surfaces the error there.
    if stream.set_nonblocking(false).is_err() {
        return false;
    }
    ready
}

/// Gather an ingest group: `first` plus every INGEST frame the client
/// has already pipelined onto the socket, bounded by count and bytes.
/// Also returns what ended the read-ahead, if it read past the group: a
/// non-ingest request, EOF, or a read or parse failure.
fn read_ahead(stream: &mut TcpStream, first: IngestItem, cap: usize) -> (Vec<IngestItem>, Option<Next>) {
    let mut group_bytes = first.2.len();
    let mut group = vec![first];
    while group.len() < cap && group_bytes < GROUP_READ_BYTES && socket_has_data(stream) {
        match next_request(stream) {
            Ok(Some(Request::Ingest { set, seq, bundle })) => {
                group_bytes += bundle.len();
                group.push((set, seq, bundle));
            }
            next => return (group, Some(next)),
        }
    }
    (group, None)
}

/// Serve one connection until clean EOF, protocol error, or shutdown.
fn run_session<H: Handler>(
    mut stream: TcpStream,
    handler: &H,
    shutdown: &AtomicBool,
    timeout: Duration,
) {
    // The listener is nonblocking for the shutdown poll; make sure the
    // accepted socket is not (inheritance is platform-dependent). No
    // Nagle: responses are single frames and latency is the product.
    if stream.set_nonblocking(false).is_err()
        || stream.set_read_timeout(Some(timeout)).is_err()
        || stream.set_nodelay(true).is_err()
    {
        return;
    }
    let mut session = handler.session();
    // What the ingest read-ahead read past its group waits here for the
    // next loop turn.
    let mut carried: Option<Next> = None;
    loop {
        let req = match carried.take().unwrap_or_else(|| next_request(&mut stream)) {
            Ok(Some(r)) => r,
            Ok(None) => return, // clean EOF at a frame boundary
            Err(e) => {
                // Best effort: the peer may already be gone. An
                // unparseable frame means framing sync may be lost, so
                // the rest of the stream is not trusted either.
                let _ = respond(&mut stream, &err_response(&e));
                return;
            }
        };
        let resp = match req {
            Request::Ping => Response::Ok("pong".to_string()),
            Request::Shutdown => {
                shutdown.store(true, Ordering::SeqCst);
                let _ = respond(&mut stream, &Response::Ok("draining".to_string()));
                return;
            }
            // Epoch is a read path like Query: refused while draining so
            // a router never caches against a dying shard's epoch.
            Request::Query(_) | Request::Ingest { .. } | Request::Epoch(_) | Request::Partial(_)
                if shutdown.load(Ordering::SeqCst) =>
            {
                err_response(&ServeError::ShuttingDown)
            }
            Request::Ingest { set, seq, bundle } => {
                let (group, next) =
                    read_ahead(&mut stream, (set, seq, bundle), handler.ingest_group().max(1));
                // Every frame gathered so far was well-formed, so its
                // ack (or per-item error) goes out in request order
                // before any read-ahead failure is reported.
                for resp in handler.ingest(&mut session, group) {
                    if respond(&mut stream, &resp).is_err() {
                        return;
                    }
                }
                carried = next;
                continue;
            }
            req => handler.request(&mut session, req),
        };
        if respond(&mut stream, &resp).is_err() {
            return;
        }
    }
}
