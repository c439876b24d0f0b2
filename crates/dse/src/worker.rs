//! Scale-out sweep execution: a coordinator sharding the point list
//! over worker processes (or threads) speaking the [`crate::proto`]
//! wire protocol.
//!
//! # Topology
//!
//! The coordinator spawns N workers through a caller-supplied
//! transport factory. Each worker gets a `hello` (spec by name + hash,
//! options, fail plan), answers `ready`, and then pulls **leases** —
//! contiguous point-index ranges carved from the spec's enumeration
//! order. Work-stealing happens at the lease queue: a fast worker that
//! finishes its range simply pulls the next one, so a slow point never
//! idles the fleet (the same injector discipline as the in-process
//! pool, at range granularity to amortize framing).
//!
//! Two transports ship in-tree:
//!
//! * [`process_spawner`] — `hlstb sweep-worker` child processes over
//!   stdin/stdout pipe pairs (what `hlstb sweep --workers N` uses);
//! * [`thread_spawner`] — in-process worker threads over loopback
//!   byte pipes, used by the determinism tests and benchmarks.
//!
//! Both hand the coordinator a [`WorkerLink`] — a pair of anonymous
//! ordered byte streams — which is the entire transport contract; a
//! TCP socket satisfies it verbatim.
//!
//! # Byte-identical splice
//!
//! Workers evaluate points through the same [`PointRunner`] the
//! in-process pool uses and stream each completed point back in
//! checkpoint-record form (canonical JSON verbatim, keyed by content
//! key). The coordinator validates the key against its own
//! [`PointRunner::key`] table and splices the embedded bytes into the
//! report unchanged — so `--workers N` output is byte-identical to a
//! serial uncached run for the same reason checkpoint resume is.
//!
//! # Failure handling
//!
//! A worker that dies (EOF, kill, torn frame, key mismatch, version
//! skew) surfaces as a typed [`PointError::Io`]-family verdict on its
//! stream; the coordinator marks the lane dead, re-enqueues every
//! leased-but-unreceived index, and the surviving workers absorb the
//! re-issued ranges. If every lane dies, the coordinator evaluates the
//! remainder inline — the sweep completes (byte-identically) as long
//! as the coordinator itself lives.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Read, Write};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::checkpoint::{self, Checkpoint, RestoredSet};
use crate::engine::{PointRunner, ProgressMeter, Recovery, SweepOptions, SweepOutcome};
use crate::error::PointError;
use crate::proto::{self, FromWorker, ToWorker};
use crate::report::{PointRecord, SweepReport};
use crate::spec::SweepSpec;

fn io_err(what: impl std::fmt::Display) -> PointError {
    PointError::Io {
        message: format!("worker: {what}"),
    }
}

/// Deterministic worker-death injection (the process analogue of
/// [`crate::FailPlan`]): the matching worker emits `after` points,
/// then writes a torn partial frame and dies — exercising the
/// coordinator's corrupt-frame detection and lease re-issue for real.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerFail {
    /// The worker lane id that dies.
    pub worker: u32,
    /// Points the worker emits successfully before dying.
    pub after: usize,
}

impl WorkerFail {
    /// The environment variable the CLI reads:
    /// `HLSTB_WORKER_FAIL="<worker>:<after>"`.
    pub const ENV: &'static str = "HLSTB_WORKER_FAIL";

    /// Parses `"<worker>:<after>"`.
    pub fn parse(s: &str) -> Option<WorkerFail> {
        let (w, a) = s.split_once(':')?;
        Some(WorkerFail {
            worker: w.trim().parse().ok()?,
            after: a.trim().parse().ok()?,
        })
    }

    /// Reads [`ENV`](Self::ENV); `None` when unset or malformed.
    pub fn from_env() -> Option<WorkerFail> {
        std::env::var(Self::ENV).ok().and_then(|s| Self::parse(&s))
    }
}

// ---------------------------------------------------------------------------
// Loopback byte pipe (the in-process transport).

#[derive(Default)]
struct PipeState {
    buf: VecDeque<u8>,
    closed: bool,
}

type PipeShared = Arc<(Mutex<PipeState>, Condvar)>;

/// The write half of a loopback pipe. Dropping it closes the pipe
/// (readers see EOF), mirroring a process's stdout going away.
pub struct PipeWriter(PipeShared);

/// The read half of a loopback pipe. Dropping it makes further writes
/// fail with `BrokenPipe`, mirroring a dead peer.
pub struct PipeReader(PipeShared);

/// An anonymous in-memory byte pipe: ordered, blocking reads, EOF on
/// writer drop. The loopback stand-in for a process pipe or socket.
pub fn pipe() -> (PipeWriter, PipeReader) {
    let shared: PipeShared = Arc::new((Mutex::new(PipeState::default()), Condvar::new()));
    (PipeWriter(Arc::clone(&shared)), PipeReader(shared))
}

fn pipe_lock(shared: &PipeShared) -> std::sync::MutexGuard<'_, PipeState> {
    shared.0.lock().unwrap_or_else(|e| e.into_inner())
}

impl Write for PipeWriter {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        let mut st = pipe_lock(&self.0);
        if st.closed {
            return Err(std::io::Error::new(
                std::io::ErrorKind::BrokenPipe,
                "loopback peer closed",
            ));
        }
        st.buf.extend(data);
        self.0 .1.notify_all();
        Ok(data.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl Drop for PipeWriter {
    fn drop(&mut self) {
        pipe_lock(&self.0).closed = true;
        self.0 .1.notify_all();
    }
}

impl Read for PipeReader {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        let mut st = pipe_lock(&self.0);
        loop {
            // Drain strictly from what the buffer holds *now*: a
            // writer that closed between the wakeup and this check
            // must surface as EOF (n == 0), never as fabricated
            // bytes, so re-test emptiness on every wakeup.
            if !st.buf.is_empty() {
                let n = st.buf.len().min(out.len());
                for (slot, byte) in out.iter_mut().zip(st.buf.drain(..n)) {
                    *slot = byte;
                }
                return Ok(n);
            }
            if st.closed {
                return Ok(0);
            }
            st = self.0 .1.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }
}

impl Drop for PipeReader {
    fn drop(&mut self) {
        pipe_lock(&self.0).closed = true;
        self.0 .1.notify_all();
    }
}

// ---------------------------------------------------------------------------
// Transport links and factories.

/// One worker's transport as the coordinator sees it: a byte sink
/// toward the worker, a byte source from it, and (for process
/// transports) the child handle for kill/reap.
pub struct WorkerLink {
    /// Coordinator → worker stream.
    pub to: Box<dyn Write + Send>,
    /// Worker → coordinator stream.
    pub from: Box<dyn BufRead + Send>,
    /// The child process, when the transport is a process pipe.
    pub child: Option<std::process::Child>,
    /// The raw socket, when the transport is TCP: kept so an abandoned
    /// lane can be hard-shut (both directions), which is what tells a
    /// still-alive worker on the far end to give up or redial.
    pub sock: Option<std::net::TcpStream>,
}

/// A transport factory: called once per worker lane id.
pub type SpawnFn<'a> = dyn FnMut(u32) -> Result<WorkerLink, PointError> + 'a;

/// A [`WorkerLink`] factory running [`worker_loop`] on an in-process
/// thread over loopback pipes — the protocol-exercising transport the
/// determinism tests and benchmarks use (no processes, same frames).
/// `fail` injects a worker death exactly as [`WorkerFail::from_env`]
/// would in a real worker process.
pub fn thread_spawner(
    fail: Option<WorkerFail>,
) -> impl FnMut(u32) -> Result<WorkerLink, PointError> {
    move |_w| {
        let (coord_to_worker, worker_input) = pipe();
        let (worker_output, coord_from_worker) = pipe();
        std::thread::spawn(move || {
            // A worker death (injected or real) is reported on the
            // coordinator's stream; the thread itself just ends.
            let _ = worker_loop(BufReader::new(worker_input), worker_output, fail);
        });
        Ok(WorkerLink {
            to: Box::new(coord_to_worker),
            from: Box::new(BufReader::new(coord_from_worker)),
            child: None,
            sock: None,
        })
    }
}

/// A [`WorkerLink`] factory spawning `exe worker_arg` child processes
/// with piped stdin/stdout (stderr inherited, environment inherited).
pub fn process_spawner(
    exe: std::path::PathBuf,
    worker_arg: &'static str,
) -> impl FnMut(u32) -> Result<WorkerLink, PointError> {
    move |w| {
        let mut child = std::process::Command::new(&exe)
            .arg(worker_arg)
            .stdin(std::process::Stdio::piped())
            .stdout(std::process::Stdio::piped())
            .spawn()
            .map_err(|e| io_err(format!("spawn worker {w} ({}): {e}", exe.display())))?;
        let to = child
            .stdin
            .take()
            .ok_or_else(|| io_err("worker child has no stdin"))?;
        let from = child
            .stdout
            .take()
            .ok_or_else(|| io_err("worker child has no stdout"))?;
        Ok(WorkerLink {
            to: Box::new(to),
            from: Box::new(BufReader::new(from)),
            child: Some(child),
            sock: None,
        })
    }
}

/// Wraps one accepted TCP connection as a coordinator-side lane: the
/// two stream halves are clones of the same socket, and the socket
/// itself rides along for hard shutdown on lane abandonment.
fn tcp_link(sock: std::net::TcpStream) -> Result<WorkerLink, PointError> {
    let _ = sock.set_nodelay(true);
    let clone = |what| {
        sock.try_clone()
            .map_err(|e| io_err(format!("clone accepted socket ({what}): {e}")))
    };
    Ok(WorkerLink {
        to: Box::new(clone("write half")?),
        from: Box::new(BufReader::new(clone("read half")?)),
        child: None,
        sock: Some(sock),
    })
}

// ---------------------------------------------------------------------------
// The worker side.

fn write_frame(out: &mut dyn Write, frame: &str) -> Result<(), PointError> {
    let mut line = String::with_capacity(frame.len() + 1);
    line.push_str(frame);
    line.push('\n');
    out.write_all(line.as_bytes())
        .and_then(|()| out.flush())
        .map_err(|e| io_err(format!("write frame: {e}")))
}

/// How a worker session ended without an error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionEnd {
    /// The coordinator sent `shutdown`: the sweep is over.
    Shutdown,
    /// The stream ended without a shutdown frame — the coordinator
    /// vanished or dropped the connection. A connect-mode worker
    /// answers this by redialing; a pipe-mode worker just exits.
    Eof,
}

/// The worker half of the protocol, generic over the transport's byte
/// streams (process stdio, loopback pipes, a socket): handshake, then
/// evaluate leases point by point through a [`PointRunner`] — the same
/// evaluator the in-process pool uses — streaming each result back as
/// a checkpoint-format frame, until `shutdown` or input EOF.
///
/// # Errors
///
/// [`PointError::Io`] on a malformed coordinator frame or a dead
/// output stream; [`PointError::Panic`] on an injected [`WorkerFail`]
/// death. Either way the error is for the *caller's* exit code — the
/// coordinator learns of it from the stream going quiet or torn.
pub fn worker_loop(
    input: impl BufRead,
    output: impl Write,
    fail: Option<WorkerFail>,
) -> Result<SessionEnd, PointError> {
    worker_session(input, output, fail, &mut false)
}

/// [`worker_loop`] plus a handshake flag for the connect-mode redial
/// policy: `handshaken` is set once the hello was accepted and `ready`
/// went out, so the caller can tell a broken session (redial) from a
/// rejected handshake (fatal — a version-skewed or garbage coordinator
/// will not improve on the next dial).
fn worker_session(
    mut input: impl BufRead,
    mut output: impl Write,
    fail: Option<WorkerFail>,
    handshaken: &mut bool,
) -> Result<SessionEnd, PointError> {
    let mut line = String::new();
    let read_line = |input: &mut dyn BufRead, line: &mut String| -> Result<bool, PointError> {
        line.clear();
        let n = input
            .read_line(line)
            .map_err(|e| io_err(format!("read frame: {e}")))?;
        Ok(n > 0)
    };
    if !read_line(&mut input, &mut line)? {
        return Ok(SessionEnd::Eof); // coordinator vanished before hello
    }
    let hello = match proto::decode_to_worker(&line) {
        Ok(ToWorker::Hello(h)) => *h,
        Ok(_) => {
            let e = io_err("expected hello as the first frame");
            let _ = write_frame(&mut output, &proto::encode_error(e.message()));
            return Err(e);
        }
        Err(e) => {
            // Best-effort rejection report (version skew, unresolvable
            // spec) so the coordinator logs *why* before the lane dies.
            let _ = write_frame(&mut output, &proto::encode_error(e.message()));
            return Err(e);
        }
    };
    hlstb_trace::events::set_worker(hello.worker);
    let death = fail.filter(|f| f.worker == hello.worker).map(|f| f.after);
    let runner = PointRunner::new(&hello.spec, &hello.opts, hello.fail_plan.clone());
    write_frame(
        &mut output,
        &proto::encode_ready(hello.worker, runner.len()),
    )?;
    *handshaken = true;
    let mut emitted = 0usize;
    loop {
        if !read_line(&mut input, &mut line)? {
            return Ok(SessionEnd::Eof); // coordinator closed the stream
        }
        match proto::decode_to_worker(&line)? {
            ToWorker::Hello(_) => return Err(io_err("unexpected second hello")),
            ToWorker::Shutdown => return Ok(SessionEnd::Shutdown),
            ToWorker::Lease { start, end } => {
                if start > end || end > runner.len() {
                    write_frame(
                        &mut output,
                        &proto::encode_error(&format!(
                            "lease [{start}, {end}) out of range (points: {})",
                            runner.len()
                        )),
                    )?;
                    return Err(io_err("lease out of range"));
                }
                for i in start..end {
                    runner.scheduled(i);
                    let (record, _) = runner.eval(i);
                    let frame =
                        proto::encode_point(runner.key(i), i, &record.canonical_point_json());
                    if death == Some(emitted) {
                        // Die mid-record: write a torn prefix (no
                        // newline), flush, and stop — what a kill -9
                        // between write and newline looks like.
                        let torn = &frame[..frame.len() * 2 / 3];
                        let _ = output.write_all(torn.as_bytes());
                        let _ = output.flush();
                        return Err(PointError::Panic {
                            message: format!(
                                "injected worker {} death after {emitted} points",
                                hello.worker
                            ),
                        });
                    }
                    write_frame(&mut output, &frame)?;
                    emitted += 1;
                }
                let stats = proto::DoneStats {
                    points: emitted as u64,
                    retries: runner.retries(),
                    cache: runner.cache().map(crate::cache::ArtifactCache::stats),
                };
                write_frame(&mut output, &proto::encode_done(start, end, &stats))?;
            }
        }
    }
}

/// The entry point behind a `sweep-worker` argv subcommand: speak the
/// protocol over real stdin/stdout, honoring [`WorkerFail::ENV`].
/// Returns the process exit code (0 clean, 3 on a protocol error or
/// injected death).
pub fn worker_main() -> i32 {
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    match worker_loop(stdin.lock(), stdout.lock(), WorkerFail::from_env()) {
        Ok(_) => 0,
        Err(e) => {
            eprintln!("sweep-worker: {}: {}", e.kind(), e.message());
            3
        }
    }
}

/// Capped exponential redial delay for [`worker_connect`].
fn backoff(attempt: u32) -> Duration {
    Duration::from_millis((50u64 << attempt.min(4)).min(500))
}

/// Dials `addr` and serves sweep sessions until the coordinator sends
/// `shutdown`. The connection attempt and any post-handshake stream
/// drop redial with bounded exponential backoff (a sweep coordinator
/// that is still listening treats the new connection as a fresh lane
/// and re-issues whatever the dead lane had leased — results already
/// streamed are kept, so nothing completed is recomputed). Fatal
/// conditions never redial: a rejected handshake (version skew,
/// unknown designs) or an injected [`WorkerFail`] death, which
/// simulates a real process kill.
///
/// # Errors
///
/// [`PointError::Io`] once `MAX_DIALS` consecutive dial failures
/// accumulate (the counter resets on every completed handshake), or
/// the fatal conditions above.
pub fn worker_connect(addr: &str, fail: Option<WorkerFail>) -> Result<(), PointError> {
    /// Consecutive failed dial/handshake attempts before giving up.
    const MAX_DIALS: u32 = 6;
    let mut failures = 0u32;
    loop {
        let sock = match std::net::TcpStream::connect(addr) {
            Ok(s) => s,
            Err(e) => {
                failures += 1;
                if failures >= MAX_DIALS {
                    return Err(io_err(format!(
                        "connect {addr}: {e} (gave up after {failures} attempts)"
                    )));
                }
                std::thread::sleep(backoff(failures));
                continue;
            }
        };
        let _ = sock.set_nodelay(true);
        let reader = sock
            .try_clone()
            .map_err(|e| io_err(format!("clone socket: {e}")))?;
        let mut handshaken = false;
        let result = worker_session(BufReader::new(reader), &sock, fail, &mut handshaken);
        if handshaken {
            failures = 0;
        }
        match result {
            Ok(SessionEnd::Shutdown) => return Ok(()),
            Ok(SessionEnd::Eof) => {
                eprintln!("sweep-worker: {addr} closed without shutdown; redialing");
            }
            Err(e) if handshaken && e.kind() == "io" => {
                eprintln!("sweep-worker: session error: {}; redialing", e.message());
            }
            Err(e) => return Err(e),
        }
        failures += 1;
        if failures >= MAX_DIALS {
            return Err(io_err(format!(
                "gave up on {addr} after {failures} consecutive broken sessions"
            )));
        }
        std::thread::sleep(backoff(failures));
    }
}

/// The entry point behind `sweep-worker --connect <addr>`: like
/// [`worker_main`] but over a dialed TCP stream with redial. Returns
/// the process exit code (0 clean, 3 on error or injected death).
pub fn worker_connect_main(addr: &str) -> i32 {
    match worker_connect(addr, WorkerFail::from_env()) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("sweep-worker: {}: {}", e.kind(), e.message());
            3
        }
    }
}

// ---------------------------------------------------------------------------
// The coordinator side.

enum LaneEvent {
    Frame(FromWorker),
    Corrupt(PointError),
    Eof,
}

/// Everything the coordinator's event loop can be woken by: a frame
/// (or death) on an existing lane, or — in listen mode — a newly
/// accepted connection to attach as a fresh lane.
enum CoordEvent {
    Lane(usize, LaneEvent),
    Link(Box<WorkerLink>),
}

struct Lane {
    to: Option<Box<dyn Write + Send>>,
    child: Option<std::process::Child>,
    sock: Option<std::net::TcpStream>,
    /// Leased indices not yet received back.
    outstanding: Vec<usize>,
    live: bool,
    ready: bool,
    /// Latest cumulative session counters from the lane's `done`
    /// frames (fleet aggregation sums these at sweep end).
    stats: proto::DoneStats,
    /// The lane's reader thread has signed off (sent `Eof` or
    /// `Corrupt`); the wind-down drain waits on this so the final
    /// `done` frame of every lane is counted.
    reader_done: bool,
    /// When the lane was attached — the listen-mode handshake deadline
    /// measures `hello` completion from here.
    attached_at: Instant,
}

impl Lane {
    fn dead() -> Lane {
        Lane {
            to: None,
            child: None,
            sock: None,
            outstanding: Vec::new(),
            live: false,
            ready: false,
            stats: proto::DoneStats::default(),
            reader_done: true,
            attached_at: Instant::now(),
        }
    }
}

/// Where the coordinator's lanes come from: a fixed set built up front
/// by a transport factory (processes, loopback threads), or a TCP
/// listener that keeps accepting workers — including replacements for
/// dead lanes — for as long as work remains.
enum LaneSource<'s, 'f> {
    Fixed {
        workers: usize,
        spawn: &'s mut SpawnFn<'f>,
    },
    Listen {
        listener: std::net::TcpListener,
        hello_timeout: Duration,
    },
}

/// Writes the hello and starts the reader thread for one new lane,
/// whose id is its slot in `lanes` (listen-mode reconnects therefore
/// get fresh ids — a returning worker is indistinguishable from a new
/// one, by design).
fn attach_lane(
    lanes: &mut Vec<Lane>,
    link: WorkerLink,
    hello_for: &dyn Fn(u32) -> String,
    tx: &mpsc::Sender<CoordEvent>,
) {
    let w = lanes.len();
    let mut to = link.to;
    let hello_ok = write_frame(to.as_mut(), &hello_for(w as u32)).is_ok();
    let mut from = link.from;
    let tx = tx.clone();
    std::thread::spawn(move || {
        let mut line = String::new();
        loop {
            line.clear();
            match from.read_line(&mut line) {
                Ok(0) => {
                    let _ = tx.send(CoordEvent::Lane(w, LaneEvent::Eof));
                    break;
                }
                Ok(_) if !line.ends_with('\n') => {
                    // A final line with no newline is a peer killed
                    // mid-record.
                    let _ = tx.send(CoordEvent::Lane(
                        w,
                        LaneEvent::Corrupt(io_err("torn frame at stream end")),
                    ));
                    break;
                }
                Ok(_) => match proto::decode_from_worker(&line) {
                    Ok(f) => {
                        if tx.send(CoordEvent::Lane(w, LaneEvent::Frame(f))).is_err() {
                            break;
                        }
                    }
                    Err(e) => {
                        let _ = tx.send(CoordEvent::Lane(w, LaneEvent::Corrupt(e)));
                        break;
                    }
                },
                Err(e) => {
                    let _ = tx.send(CoordEvent::Lane(
                        w,
                        LaneEvent::Corrupt(io_err(format!("read: {e}"))),
                    ));
                    break;
                }
            }
        }
    });
    lanes.push(Lane {
        to: Some(to),
        child: link.child,
        sock: link.sock,
        outstanding: Vec::new(),
        live: hello_ok,
        ready: false,
        stats: proto::DoneStats::default(),
        reader_done: false,
        attached_at: Instant::now(),
    });
}

/// Splits `indices` (sorted, unique) into contiguous `[start, end)`
/// leases of at most `chunk` points and appends them to the queue.
fn enqueue_leases(queue: &mut VecDeque<(usize, usize)>, indices: &[usize], chunk: usize) {
    let mut i = 0;
    while i < indices.len() {
        let start = indices[i];
        let mut len = 1;
        while i + len < indices.len() && indices[i + len] == start + len && len < chunk {
            len += 1;
        }
        queue.push_back((start, start + len));
        i += len;
    }
}

/// Runs `spec` sharded over `workers` worker lanes built by `spawn`,
/// splicing streamed results byte-identically (see the module docs).
/// `opts.cache`, `opts.point_budget`, and `opts.retries` ship to the
/// workers in the handshake; `opts.threads` is reported in the
/// envelope but each worker evaluates its leases serially — the lane
/// count is the parallelism. Checkpoint/resume and the fail plan in
/// `recovery` work exactly as in [`crate::run_sweep_with`].
///
/// # Errors
///
/// [`PointError::Io`] on checkpoint open/read failures or
/// `keep_designs` (designs cannot cross a process boundary). Worker
/// deaths are *not* errors: their leases are re-issued to surviving
/// lanes, and with no lanes left the coordinator evaluates the
/// remainder inline.
pub fn run_sweep_workers(
    spec: &SweepSpec,
    opts: &SweepOptions,
    recovery: &Recovery,
    workers: usize,
    spawn: &mut SpawnFn<'_>,
) -> Result<SweepOutcome, PointError> {
    coordinate(
        spec,
        opts,
        recovery,
        LaneSource::Fixed {
            workers: workers.max(1),
            spawn,
        },
    )
}

/// Runs `spec` sharded over TCP workers that dial into `listener`
/// (`hlstb sweep --listen` + `hlstb sweep-worker --connect`): every
/// accepted connection becomes a fresh lane, a dropped connection's
/// leases are re-issued, and the coordinator keeps accepting
/// replacement workers until the sweep completes — a worker killed
/// mid-lease plus a redial still splices byte-identically, exactly the
/// fixed-transport dead-worker path. The listener closes when the
/// sweep finishes; stragglers see refused connections and give up on
/// their own bounded redial budget. No authentication: LAN semantics,
/// with the `hello` design content hash as the integrity check.
///
/// # Errors
///
/// As [`run_sweep_workers`], plus listener address failures.
pub fn run_sweep_listen(
    spec: &SweepSpec,
    opts: &SweepOptions,
    recovery: &Recovery,
    listener: std::net::TcpListener,
) -> Result<SweepOutcome, PointError> {
    run_sweep_listen_with_timeout(spec, opts, recovery, listener, DEFAULT_HELLO_TIMEOUT)
}

/// The default listen-mode handshake deadline: generous for a LAN, yet
/// bounded — a silent TCP connect can pin a reader thread for at most
/// this long.
pub const DEFAULT_HELLO_TIMEOUT: Duration = Duration::from_secs(10);

/// [`run_sweep_listen`] with an explicit handshake deadline: an
/// accepted connection that has not completed `hello` within
/// `hello_timeout` is dropped (socket shut down, reader released) and
/// counted, so a stuck or hostile dialer cannot wedge the accept path.
pub fn run_sweep_listen_with_timeout(
    spec: &SweepSpec,
    opts: &SweepOptions,
    recovery: &Recovery,
    listener: std::net::TcpListener,
    hello_timeout: Duration,
) -> Result<SweepOutcome, PointError> {
    coordinate(
        spec,
        opts,
        recovery,
        LaneSource::Listen {
            listener,
            hello_timeout,
        },
    )
}

fn coordinate(
    spec: &SweepSpec,
    opts: &SweepOptions,
    recovery: &Recovery,
    source: LaneSource<'_, '_>,
) -> Result<SweepOutcome, PointError> {
    let sweep_span = hlstb_trace::span("dse.sweep");
    let t0 = Instant::now();
    if opts.keep_designs {
        return Err(io_err(
            "scale-out sweeps cannot keep designs (they cannot cross a process boundary)",
        ));
    }
    let expected_workers = match &source {
        LaneSource::Fixed { workers, .. } => *workers,
        LaneSource::Listen { .. } => 0,
    };
    // Fixed-transport lanes handshake over pipes the coordinator just
    // created; only listen-mode lanes face an untrusted network, so
    // only they get a handshake deadline.
    let hello_deadline = match &source {
        LaneSource::Fixed { .. } => None,
        LaneSource::Listen { hello_timeout, .. } => Some(*hello_timeout),
    };
    // The same runner that keys checkpoint lines and wire frames also
    // evaluates whatever no live worker is left to take.
    let runner = PointRunner::new(spec, opts, recovery.fail_plan.clone());
    let n = runner.len();
    let restored_set = match (&recovery.checkpoint, recovery.resume) {
        (Some(path), true) => Some(RestoredSet::load(path)?),
        (None, true) => {
            return Err(PointError::Io {
                message: "resume requested without a checkpoint path".into(),
            })
        }
        _ => None,
    };
    let writer = match &recovery.checkpoint {
        Some(path) => Some(Checkpoint::open_append(path)?),
        None => None,
    };
    let meter = opts.progress.then(|| ProgressMeter::new(n, t0));
    hlstb_trace::events::emit("sweep.begin", None, |e| {
        e.u64("points", n as u64)
            .volatile_u64("threads", opts.threads as u64)
            .volatile_u64("workers", expected_workers as u64)
            .volatile_bool("cache", opts.cache);
    });

    let mut results: Vec<Option<PointRecord>> = (0..n).map(|_| None).collect();
    let mut restored_count = 0usize;
    let checkpoint_errors = AtomicUsize::new(0);
    // Dead-lane lease re-issues (transport recovery) — reported
    // separately from `fleet_retries` (per-point transient retries the
    // workers themselves performed, summed from their `done` frames).
    let mut reissued: u64 = 0;
    let mut fleet_retries: u64 = 0;
    let mut fleet_cache = crate::cache::CacheStats::default();
    let mut lanes_seen = expected_workers;
    if let Some(set) = &restored_set {
        for (i, slot) in results.iter_mut().enumerate() {
            let hit = set
                .lookup(runner.key(i), i)
                .and_then(checkpoint::record_from_canonical);
            if let Some(record) = hit {
                runner.scheduled(i);
                hlstb_trace::events::emit("point.restored", Some(i as u64), |_| {});
                if let Some(m) = &meter {
                    m.tick(&record, 0, reissued, None);
                }
                *slot = Some(record);
                restored_count += 1;
            }
        }
    }
    let needed: Vec<usize> = (0..n).filter(|&i| results[i].is_none()).collect();
    let mut remaining = needed.len();

    if remaining > 0 {
        // Listen mode has no fixed lane count; size leases as if a
        // small fleet will dial in (re-issue handles the rest).
        let fanout = if expected_workers > 0 {
            expected_workers
        } else {
            4
        };
        let chunk = (needed.len() / (fanout * 4)).clamp(1, 32);
        let mut queue: VecDeque<(usize, usize)> = VecDeque::new();
        enqueue_leases(&mut queue, &needed, chunk);

        // Build the lanes; each gets a reader thread forwarding
        // decoded frames (or its death) onto one mpsc channel. In
        // listen mode, an accept thread feeds new links into the same
        // channel for as long as the sweep runs.
        let (tx, rx) = mpsc::channel::<CoordEvent>();
        let mut lanes: Vec<Lane> = Vec::new();
        let hello_for = |w: u32| proto::encode_hello(w, spec, opts, recovery.fail_plan.as_ref());
        let wait_for_lanes = matches!(source, LaneSource::Listen { .. });
        let mut accept_stop: Option<(
            Arc<AtomicBool>,
            std::net::SocketAddr,
            std::thread::JoinHandle<()>,
        )> = None;
        match source {
            LaneSource::Fixed { workers, spawn } => {
                for w in 0..workers {
                    match spawn(w as u32) {
                        Ok(link) => attach_lane(&mut lanes, link, &hello_for, &tx),
                        Err(e) => {
                            eprintln!("sweep: spawning worker {w} failed: {}", e.message());
                            lanes.push(Lane::dead());
                        }
                    }
                }
            }
            LaneSource::Listen { listener, .. } => {
                let addr = listener
                    .local_addr()
                    .map_err(|e| io_err(format!("listener address: {e}")))?;
                let stop = Arc::new(AtomicBool::new(false));
                let thread_stop = Arc::clone(&stop);
                let thread_tx = tx.clone();
                let handle = std::thread::spawn(move || loop {
                    match listener.accept() {
                        Ok((sock, _peer)) => {
                            // The wind-down self-connect lands here;
                            // the flag tells it apart from a worker.
                            if thread_stop.load(Ordering::Relaxed) {
                                break;
                            }
                            match tcp_link(sock) {
                                Ok(link) => {
                                    if thread_tx.send(CoordEvent::Link(Box::new(link))).is_err() {
                                        break;
                                    }
                                }
                                Err(e) => {
                                    eprintln!("sweep: accepting worker: {}", e.message());
                                }
                            }
                        }
                        Err(e) => {
                            eprintln!("sweep: listener: {e}");
                            break;
                        }
                    }
                });
                accept_stop = Some((stop, addr, handle));
            }
        }

        // One lane's death: kill/close it, reclaim its leases.
        fn fail_lane(
            lanes: &mut [Lane],
            w: usize,
            why: &str,
            queue: &mut VecDeque<(usize, usize)>,
            chunk: usize,
            reissued: &mut u64,
        ) {
            if !lanes[w].live {
                return;
            }
            lanes[w].live = false;
            lanes[w].to = None;
            if let Some(child) = &mut lanes[w].child {
                let _ = child.kill();
            }
            if let Some(sock) = lanes[w].sock.take() {
                // Hard shutdown both directions: an abandoned-but-
                // alive TCP worker must see its stream die (its next
                // write fails, prompting a redial as a fresh lane)
                // rather than keep streaming into an untrusted lane.
                let _ = sock.shutdown(std::net::Shutdown::Both);
            }
            let pending = std::mem::take(&mut lanes[w].outstanding);
            *reissued += pending.len() as u64;
            eprintln!(
                "sweep: worker {w} died ({why}); re-issuing {} leased points",
                pending.len()
            );
            hlstb_trace::events::emit_volatile("worker.dead", None, |e| {
                e.volatile_u64("worker", w as u64)
                    .volatile_str("why", why)
                    .volatile_u64("reissued", pending.len() as u64);
            });
            enqueue_leases(queue, &pending, chunk);
        }

        // Hand leases to every idle ready lane.
        fn pump(
            lanes: &mut [Lane],
            queue: &mut VecDeque<(usize, usize)>,
            chunk: usize,
            reissued: &mut u64,
        ) {
            loop {
                let mut progressed = false;
                for w in 0..lanes.len() {
                    if !(lanes[w].live && lanes[w].ready && lanes[w].outstanding.is_empty()) {
                        continue;
                    }
                    let Some((start, end)) = queue.pop_front() else {
                        return;
                    };
                    let frame = proto::encode_lease(start, end);
                    let ok = lanes[w]
                        .to
                        .as_mut()
                        .is_some_and(|to| write_frame(to.as_mut(), &frame).is_ok());
                    if ok {
                        lanes[w].outstanding = (start..end).collect();
                        hlstb_trace::events::emit_volatile("worker.lease", None, |e| {
                            e.volatile_u64("worker", w as u64)
                                .volatile_u64("start", start as u64)
                                .volatile_u64("end", end as u64);
                        });
                    } else {
                        queue.push_front((start, end));
                        fail_lane(lanes, w, "lease write failed", queue, chunk, reissued);
                    }
                    progressed = true;
                }
                if !progressed {
                    return;
                }
            }
        }

        let mut hello_timeouts: u64 = 0;
        // Fixed mode ends when the work or the lanes run out; listen
        // mode never gives up on lanes — it waits for (re)connects
        // until the work is done.
        while remaining > 0 && (wait_for_lanes || lanes.iter().any(|l| l.live)) {
            pump(&mut lanes, &mut queue, chunk, &mut reissued);
            if remaining == 0 || !(wait_for_lanes || lanes.iter().any(|l| l.live)) {
                break;
            }
            // While any accepted connection is mid-handshake, poll
            // instead of blocking so a silent dialer is dropped at its
            // deadline rather than pinning the loop (and its reader
            // thread) on a connection that will never speak.
            let mid_handshake =
                hello_deadline.is_some() && lanes.iter().any(|l| l.live && !l.ready);
            let coord_event = if mid_handshake {
                match rx.recv_timeout(Duration::from_millis(25)) {
                    Ok(ev) => Some(ev),
                    Err(mpsc::RecvTimeoutError::Timeout) => None,
                    Err(mpsc::RecvTimeoutError::Disconnected) => break,
                }
            } else {
                match rx.recv() {
                    Ok(ev) => Some(ev),
                    Err(_) => break,
                }
            };
            if let Some(timeout) = hello_deadline {
                for w in 0..lanes.len() {
                    if lanes[w].live && !lanes[w].ready && lanes[w].attached_at.elapsed() >= timeout
                    {
                        hello_timeouts += 1;
                        hlstb_trace::counter("dse.worker.hello_timeout", 1);
                        fail_lane(
                            &mut lanes,
                            w,
                            "hello timeout",
                            &mut queue,
                            chunk,
                            &mut reissued,
                        );
                    }
                }
            }
            let Some(coord_event) = coord_event else {
                continue;
            };
            let (w, event) = match coord_event {
                CoordEvent::Link(link) => {
                    attach_lane(&mut lanes, *link, &hello_for, &tx);
                    continue;
                }
                CoordEvent::Lane(w, event) => (w, event),
            };
            match event {
                LaneEvent::Frame(FromWorker::Ready {
                    points: worker_points,
                    ..
                }) => {
                    if worker_points == n {
                        lanes[w].ready = true;
                    } else {
                        fail_lane(
                            &mut lanes,
                            w,
                            &format!("resolved {worker_points} points, coordinator has {n}"),
                            &mut queue,
                            chunk,
                            &mut reissued,
                        );
                    }
                }
                LaneEvent::Frame(FromWorker::Point {
                    key,
                    index,
                    canonical,
                }) => {
                    if index >= n || key != runner.key(index) {
                        fail_lane(
                            &mut lanes,
                            w,
                            "point frame key/index mismatch",
                            &mut queue,
                            chunk,
                            &mut reissued,
                        );
                    } else if results[index].is_some() {
                        // Duplicate of an already-spliced point
                        // (re-issue race); drop it.
                        lanes[w].outstanding.retain(|&x| x != index);
                    } else if let Some(record) = checkpoint::record_from_canonical(&canonical) {
                        if let Some(ck) = &writer {
                            runner.checkpoint(ck, index, &canonical, &checkpoint_errors);
                        }
                        if let Some(m) = &meter {
                            let retries = lanes.iter().map(|l| l.stats.retries).sum();
                            m.tick(&record, retries, reissued, None);
                        }
                        results[index] = Some(record);
                        lanes[w].outstanding.retain(|&x| x != index);
                        remaining -= 1;
                    } else {
                        fail_lane(
                            &mut lanes,
                            w,
                            "unparseable canonical payload",
                            &mut queue,
                            chunk,
                            &mut reissued,
                        );
                    }
                }
                LaneEvent::Frame(FromWorker::Done { stats, .. }) => {
                    // Counters are cumulative per session, so the
                    // latest snapshot supersedes the previous one.
                    hlstb_trace::events::emit_volatile("worker.done", None, |e| {
                        e.volatile_u64("worker", w as u64)
                            .volatile_u64("points", stats.points)
                            .volatile_u64("retries", stats.retries);
                        if let Some(c) = &stats.cache {
                            e.volatile_u64("hits", c.hits())
                                .volatile_u64("misses", c.misses())
                                .volatile_u64("coalesced", c.coalesced());
                        }
                    });
                    lanes[w].stats = stats;
                }
                LaneEvent::Frame(FromWorker::Error { message }) => {
                    fail_lane(&mut lanes, w, &message, &mut queue, chunk, &mut reissued);
                }
                LaneEvent::Corrupt(e) => {
                    lanes[w].reader_done = true;
                    fail_lane(&mut lanes, w, e.message(), &mut queue, chunk, &mut reissued);
                }
                LaneEvent::Eof => {
                    lanes[w].reader_done = true;
                    fail_lane(
                        &mut lanes,
                        w,
                        "stream ended unexpectedly",
                        &mut queue,
                        chunk,
                        &mut reissued,
                    );
                }
            }
        }

        if hello_timeouts > 0 {
            eprintln!("sweep: dropped {hello_timeouts} connection(s) that never completed hello");
        }

        // Stop accepting before the polite shutdowns: set the flag,
        // then self-connect to unblock `accept()` so the thread joins.
        if let Some((stop, addr, handle)) = accept_stop.take() {
            stop.store(true, Ordering::Relaxed);
            let _ = std::net::TcpStream::connect(addr);
            let _ = handle.join();
        }

        // Wind down: polite shutdown, close streams, reap children.
        for lane in &mut lanes {
            if let Some(to) = &mut lane.to {
                let _ = write_frame(to.as_mut(), &proto::encode_shutdown());
            }
            lane.to = None;
            if let Some(mut child) = lane.child.take() {
                let _ = child.wait();
            }
        }

        // Drain until every lane's reader signs off (each sends exactly
        // one Eof/Corrupt before exiting): the final cumulative `done`
        // frame per lane is usually still queued when the splice loop
        // breaks at `remaining == 0`, and dropping it would undercount
        // the fleet stats and the trace-view lane table.
        let drain_deadline = std::time::Instant::now() + Duration::from_secs(5);
        while lanes.iter().any(|l| !l.reader_done) {
            let timeout = drain_deadline.saturating_duration_since(std::time::Instant::now());
            let Ok(coord_event) = rx.recv_timeout(timeout) else {
                break;
            };
            match coord_event {
                CoordEvent::Lane(w, LaneEvent::Frame(FromWorker::Done { stats, .. })) => {
                    hlstb_trace::events::emit_volatile("worker.done", None, |e| {
                        e.volatile_u64("worker", w as u64)
                            .volatile_u64("points", stats.points)
                            .volatile_u64("retries", stats.retries);
                        if let Some(c) = &stats.cache {
                            e.volatile_u64("hits", c.hits())
                                .volatile_u64("misses", c.misses())
                                .volatile_u64("coalesced", c.coalesced());
                        }
                    });
                    lanes[w].stats = stats;
                }
                CoordEvent::Lane(w, LaneEvent::Eof)
                | CoordEvent::Lane(w, LaneEvent::Corrupt(_)) => {
                    lanes[w].reader_done = true;
                }
                // Late dialers and stray frames past the finish line:
                // the work is done, drop them.
                _ => {}
            }
        }

        // Fleet aggregation: sum the latest per-lane session counters.
        // A lane that died mid-lease keeps the stats of its last done
        // frame; work it redid on another lane is counted where it
        // actually ran.
        lanes_seen = if wait_for_lanes {
            lanes.len()
        } else {
            expected_workers
        };
        for lane in &lanes {
            fleet_retries += lane.stats.retries;
            if let Some(c) = &lane.stats.cache {
                fleet_cache.merge(c);
            }
        }

        // Every lane died with work left: finish inline so the sweep
        // still completes (and stays byte-identical — same evaluator).
        if remaining > 0 {
            eprintln!("sweep: no live workers left; evaluating {remaining} points inline");
            for (i, slot) in results.iter_mut().enumerate() {
                if slot.is_some() {
                    continue;
                }
                runner.scheduled(i);
                let (record, _) = runner.eval(i);
                if let Some(ck) = &writer {
                    runner.checkpoint(ck, i, &record.canonical_point_json(), &checkpoint_errors);
                }
                if let Some(m) = &meter {
                    m.tick(
                        &record,
                        fleet_retries + runner.retries(),
                        reissued,
                        runner.cache(),
                    );
                }
                *slot = Some(record);
            }
            fleet_retries += runner.retries();
            if let Some(c) = runner.cache() {
                fleet_cache.merge(&c.stats());
            }
        }
    }

    if let Some(m) = &meter {
        m.finish();
    }
    let mut records = Vec::with_capacity(n);
    let mut cpu = Duration::ZERO;
    for slot in results {
        let record = slot.expect("every point resolved");
        cpu += record.wall;
        records.push(record);
    }
    hlstb_trace::counter("dse.points", records.len() as u64);
    hlstb_trace::events::emit("sweep.end", None, |e| {
        e.u64("points", records.len() as u64)
            .u64(
                "failures",
                records.iter().filter(|r| r.outcome.is_err()).count() as u64,
            )
            .volatile_u64("wall_ms", t0.elapsed().as_millis() as u64)
            .volatile_u64("retries", fleet_retries)
            .volatile_u64("reissued", reissued);
    });
    sweep_span.end();
    Ok(SweepOutcome {
        report: SweepReport {
            points: records,
            threads: opts.threads.max(1),
            workers: lanes_seen,
            cache: opts.cache.then_some(fleet_cache),
            wall: t0.elapsed(),
            cpu,
            restored: restored_count,
            retries: fleet_retries,
            reissued,
            checkpoint_degraded: writer.as_ref().is_some_and(Checkpoint::degraded),
        },
        designs: (0..n).map(|_| None).collect(),
        checkpoint_write_errors: checkpoint_errors.into_inner(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};

    #[test]
    fn worker_fail_parses_and_rejects() {
        assert_eq!(
            WorkerFail::parse("1:2"),
            Some(WorkerFail {
                worker: 1,
                after: 2
            })
        );
        assert_eq!(
            WorkerFail::parse(" 3 : 0 "),
            Some(WorkerFail {
                worker: 3,
                after: 0
            })
        );
        assert_eq!(WorkerFail::parse("nope"), None);
        assert_eq!(WorkerFail::parse("1:x"), None);
    }

    #[test]
    fn loopback_pipe_orders_bytes_and_signals_eof() {
        let (mut w, mut r) = pipe();
        w.write_all(b"hello ").unwrap();
        w.write_all(b"world").unwrap();
        drop(w);
        let mut s = String::new();
        r.read_to_string(&mut s).unwrap();
        assert_eq!(s, "hello world");
    }

    #[test]
    fn loopback_write_after_reader_drop_is_broken_pipe() {
        let (mut w, r) = pipe();
        drop(r);
        let e = w.write_all(b"x").unwrap_err();
        assert_eq!(e.kind(), std::io::ErrorKind::BrokenPipe);
    }

    #[test]
    fn enqueue_leases_chunks_contiguous_runs() {
        let mut q = VecDeque::new();
        enqueue_leases(&mut q, &[0, 1, 2, 5, 6, 9], 2);
        assert_eq!(Vec::from(q), vec![(0, 2), (2, 3), (5, 7), (9, 10)]);
    }

    #[test]
    fn worker_loop_rejects_a_leading_non_hello_frame() {
        let input = format!("{}\n", proto::encode_lease(0, 1));
        let mut out = Vec::new();
        let err = worker_loop(input.as_bytes(), &mut out, None).unwrap_err();
        assert_eq!(err.kind(), "io");
    }
}
