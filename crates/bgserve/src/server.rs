//! The service node: endpoint plumbing, session threads, the run
//! slots that cap how many simulations run at once, and the steward
//! threads that run them.
//!
//! Layout mirrors the real machine's control system: the listener is
//! the service node's front door (one thread per connected submitter),
//! and the monitor file is the rack's status display — appended one
//! line per publish so `bgtop` can tail it live. Like CNK, the service
//! puts nothing between a job and the hardware: no scheduler thread, no
//! batching window, no timer, and no host work a request does not need.
//!
//! * Each reply goes out in one `write`, its lines and their newlines
//!   together.
//! * A cache hit is answered on the session's own reader thread:
//!   parse, key, lookup, then `accepted`, `telemetry` and `result` in
//!   one write.
//! * A submission that must simulate (a miss, or a `--paranoid`
//!   re-run of a hit) goes to a steward thread, which runs the job the
//!   moment it holds one of `threads` run slots. Slots are granted in
//!   arrival order, so a short miss never waits behind a long job while
//!   a slot is free. The steward writes the job's `telemetry` and
//!   `result` in one write, then parks: the next such job wakes a
//!   parked steward instead of starting a thread.
//!
//! Jobs are *live* (the CNK property that the service node can watch
//! and steer running work, not just collect exit codes). What is live
//! is kept in one place, the [`Live`] table: one row per open session,
//! one row per admitted job, and the monitor that shows them, behind
//! one lock and one condvar. Every bookkeeping step is one operation on
//! it:
//!
//! * each job that must simulate holds a [`CancelToken`] in its row;
//!   `{"op":"cancel","job":N}` from any session looks the row up and
//!   sets it, and the run winds down cleanly at its next poll — or
//!   never starts, if the token is set by the time its slot comes up;
//! * per-job `timeout_cycles` / `timeout_wall_ms` budgets yield a
//!   `timeout` outcome the same way;
//! * `progress_cycles` streams `progress` lines mid-run, and each
//!   report's position lands in the job's row;
//! * a session whose peer disconnects (reader EOF or a failed write)
//!   cancels its rows that still hold a token and logs one structured
//!   `session-drop` monitor event; the session closes once none of its
//!   rows are left;
//! * cancelled/timed-out results are **never** memoized — the cache
//!   only ever holds completed, deterministic triples;
//! * every published monitor snapshot renders the table as its `state`
//!   object (`server → sessions/<id> → jobs/<id>`, children in numeric
//!   order) for `bgtop --sessions`. It holds live work only: a job's
//!   row goes once the publish that shows it done is out, and a
//!   session's row goes when its reader thread exits.
//!
//! Determinism note: scheduling never affects results. Each job is a
//! self-contained simulation, so when it runs and what runs beside it
//! are invisible in its `(outcome, final cycle, digest)` triple — the
//! selfcheck and integration tests assert exactly that against one-shot
//! runs. The progress hook is digest-, cycle-, and profile-neutral by
//! construction (pinned by proptest), so a job submitted with
//! `progress_cycles` reports the same triple as one without.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::io::{BufReader, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bench::json::Writer;
use bench::monitor::Monitor;
use bgcheck::program::Program;
use bgcheck::runner::{run_mode_live, RunRecord};
use bgsim::machine::{CancelCause, LiveHook, ProgressCtl, ProgressReport, ProgressSink};
use bgsim::telemetry::ProfileSnapshot;
use bgsim::CancelToken;

use crate::cache::{CachedResult, ResultCache};
use crate::key::JobKey;
use crate::proto::{self, Request, StatusSnapshot, SubmitReq};

/// Minimum host time between mid-run monitor publishes triggered by
/// progress reports (completions always publish immediately).
const PROGRESS_PUBLISH_MS: u64 = 200;

/// Where the server listens (and clients connect).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Endpoint {
    Unix(PathBuf),
    Tcp(String),
}

impl Endpoint {
    /// `unix:/path`, `tcp:host:port`, or a bare path (treated as unix).
    pub fn parse(s: &str) -> Result<Endpoint, String> {
        if let Some(p) = s.strip_prefix("unix:") {
            if p.is_empty() {
                return Err("unix: endpoint is missing a socket path".to_string());
            }
            return Ok(Endpoint::Unix(PathBuf::from(p)));
        }
        if let Some(a) = s.strip_prefix("tcp:") {
            if a.is_empty() {
                return Err("tcp: endpoint is missing a host:port address".to_string());
            }
            return Ok(Endpoint::Tcp(a.to_string()));
        }
        if s.is_empty() {
            return Err("empty endpoint".to_string());
        }
        if s.contains('/') || !s.contains(':') {
            return Ok(Endpoint::Unix(PathBuf::from(s)));
        }
        Err(format!(
            "ambiguous endpoint {s:?}: prefix with unix: or tcp:"
        ))
    }

    pub fn label(&self) -> String {
        match self {
            Endpoint::Unix(p) => format!("unix:{}", p.display()),
            Endpoint::Tcp(a) => format!("tcp:{a}"),
        }
    }

    /// Connect a client stream to this endpoint.
    pub fn connect(&self) -> std::io::Result<Stream> {
        match self {
            Endpoint::Unix(p) => std::os::unix::net::UnixStream::connect(p).map(Stream::Unix),
            Endpoint::Tcp(a) => std::net::TcpStream::connect(a.as_str()).map(Stream::Tcp),
        }
    }
}

/// A connected byte stream of either flavor.
pub enum Stream {
    Unix(std::os::unix::net::UnixStream),
    Tcp(std::net::TcpStream),
}

impl Stream {
    pub fn try_clone(&self) -> std::io::Result<Stream> {
        match self {
            Stream::Unix(s) => s.try_clone().map(Stream::Unix),
            Stream::Tcp(s) => s.try_clone().map(Stream::Tcp),
        }
    }
}

impl std::io::Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Stream::Unix(s) => s.read(buf),
            Stream::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Stream::Unix(s) => s.write(buf),
            Stream::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Stream::Unix(s) => s.flush(),
            Stream::Tcp(s) => s.flush(),
        }
    }
}

enum Listener {
    Unix(std::os::unix::net::UnixListener),
    Tcp(std::net::TcpListener),
}

impl Listener {
    fn accept(&self) -> std::io::Result<Stream> {
        match self {
            Listener::Unix(l) => l.accept().map(|(s, _)| Stream::Unix(s)),
            Listener::Tcp(l) => l.accept().map(|(s, _)| Stream::Tcp(s)),
        }
    }
}

fn bind(ep: &Endpoint) -> Result<Listener, String> {
    match ep {
        Endpoint::Unix(path) => {
            match std::os::unix::net::UnixListener::bind(path) {
                Ok(l) => Ok(Listener::Unix(l)),
                Err(e) if e.kind() == std::io::ErrorKind::AddrInUse => {
                    // A previous server that died without cleanup leaves
                    // a stale socket file. Live servers answer a connect;
                    // stale ones refuse — only then reclaim the path.
                    if std::os::unix::net::UnixStream::connect(path).is_ok() {
                        return Err(format!("{} is already being served", path.display()));
                    }
                    std::fs::remove_file(path)
                        .map_err(|e| format!("removing stale socket: {e}"))?;
                    std::os::unix::net::UnixListener::bind(path)
                        .map(Listener::Unix)
                        .map_err(|e| format!("bind {}: {e}", path.display()))
                }
                Err(e) => Err(format!("bind {}: {e}", path.display())),
            }
        }
        Endpoint::Tcp(addr) => std::net::TcpListener::bind(addr.as_str())
            .map(Listener::Tcp)
            .map_err(|e| format!("bind {addr}: {e}")),
    }
}

/// Server configuration.
pub struct ServeOpts {
    pub endpoint: Endpoint,
    /// Run slots: how many simulations may run at once. A miss (or a
    /// `--paranoid` re-run) starts the moment it holds a slot, and slots
    /// are granted in arrival order. Cache hits need no slot.
    pub threads: usize,
    pub cache_cap: usize,
    /// Optional persistent cache tier directory.
    pub cache_dir: Option<PathBuf>,
    /// Re-run every cache hit and verify the stored triple.
    pub paranoid: bool,
    /// Optional live monitor stream for `bgtop`.
    pub monitor: Option<Monitor>,
}

impl ServeOpts {
    pub fn new(endpoint: Endpoint) -> ServeOpts {
        ServeOpts {
            endpoint,
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            cache_cap: 256,
            cache_dir: None,
            paranoid: false,
            monitor: None,
        }
    }
}

struct Stats {
    submitted: AtomicU64,
    completed: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    paranoid_checks: AtomicU64,
    paranoid_failures: AtomicU64,
    cancelled: AtomicU64,
    timeouts: AtomicU64,
    session_drops: AtomicU64,
}

/// The service's one table of live work: a row per open session, a row
/// per admitted job, and the monitor that shows them with the profile
/// of every fresh run merged in. It sits behind [`State::live`], beside
/// the one condvar [`State::settled`]; no step holds it across a job.
struct Live {
    /// The server's own values in the rendered state.
    endpoint: String,
    threads: usize,
    /// Each session's peer: `open`; `closed` once the reader saw it go
    /// with nothing in flight; `dropped` if it went with jobs in flight,
    /// which were cancelled.
    sessions: BTreeMap<u64, &'static str>,
    jobs: BTreeMap<u64, JobRow>,
    monitor: Option<Monitor>,
    /// Profiles of every fresh run, merged commutatively (same rule as
    /// shard merging).
    merged: ProfileSnapshot,
    /// Throttle for mid-run (progress-driven) publishes.
    last_progress_publish: Instant,
}

/// One admitted job, from its admission until its last write is out.
struct JobRow {
    session: u64,
    /// Held while the job may still be cancelled: from before its
    /// `accepted` line until just before its last write. A hit answered
    /// inline never holds one.
    token: Option<CancelToken>,
    kernel: &'static str,
    mode: &'static str,
    /// `hit` or `miss`.
    cache: &'static str,
    phase: Cow<'static, str>,
    /// The last progress report: cycle, events, live threads.
    progress: Option<(u64, u64, usize)>,
}

impl Live {
    fn new(endpoint: String, threads: usize, monitor: Option<Monitor>) -> Live {
        Live {
            endpoint,
            threads,
            sessions: BTreeMap::new(),
            jobs: BTreeMap::new(),
            monitor,
            merged: ProfileSnapshot::default(),
            last_progress_publish: Instant::now(),
        }
    }

    /// Append one snapshot line, its `state` rendered from the table.
    fn publish(&mut self, done: u64, total: u64) {
        let Some(mut m) = self.monitor.take() else {
            return;
        };
        let state = |w: &mut Writer| self.write_state(w);
        m.publish(done as usize, total as usize, &self.merged, Some(&state));
        self.monitor = Some(m);
    }

    /// Write the table as a `{"values":{...},"children":{...}}` tree:
    /// the server, each session as `sessions/<id>`, each of its jobs as
    /// `jobs/<id>`. Values are strings in key order; children come in
    /// numeric order.
    fn write_state(&self, w: &mut Writer) {
        w.obj().key("values").obj();
        w.key("endpoint").str(&self.endpoint);
        w.key("threads").u64_str(self.threads as u64);
        w.end_obj().key("children").obj();
        // A job's session row stays until the job's row is gone, so
        // every job renders under its own session.
        let mut rows: Vec<(u64, &JobRow)> = self.jobs.iter().map(|(&id, r)| (id, r)).collect();
        rows.sort_by_key(|&(id, r)| (r.session, id));
        let mut rows = rows.into_iter().peekable();
        for (sid, peer) in &self.sessions {
            w.key(&format!("sessions/{sid}")).obj();
            w.key("values").obj().key("peer").str(peer);
            w.end_obj().key("children").obj();
            while let Some((id, row)) = rows.next_if(|(_, r)| r.session == *sid) {
                w.key(&format!("jobs/{id}"));
                row.write(w);
            }
            w.end_obj().end_obj();
        }
        w.end_obj().end_obj();
    }
}

impl JobRow {
    fn write(&self, w: &mut Writer) {
        w.obj().key("values").obj();
        w.key("cache").str(self.cache);
        if let Some((cycle, events, _)) = self.progress {
            w.key("cycle").u64_str(cycle).key("events").u64_str(events);
        }
        w.key("kernel").str(self.kernel);
        if let Some((_, _, live_threads)) = self.progress {
            w.key("live_threads").u64_str(live_threads as u64);
        }
        w.key("mode").str(self.mode).key("phase").str(&self.phase);
        w.end_obj().key("children").obj().end_obj().end_obj();
    }
}

struct State {
    endpoint: Endpoint,
    paranoid: bool,
    stop: AtomicBool,
    next_job: AtomicU64,
    next_session: AtomicU64,
    cache: Mutex<ResultCache>,
    stats: Stats,
    live: Mutex<Live>,
    /// Signalled when a job row of a session that is closing leaves.
    settled: Condvar,
    slots: RunSlots,
    stewards: Arc<Stewards>,
}

impl State {
    fn status(&self) -> StatusSnapshot {
        let (cache_entries, disk_write_errors) = self
            .cache
            .lock()
            .map(|c| (c.len() as u64, c.disk_write_errors()))
            .unwrap_or((0, 0));
        StatusSnapshot {
            submitted: self.stats.submitted.load(Ordering::Relaxed),
            completed: self.stats.completed.load(Ordering::Relaxed),
            cache_entries,
            disk_write_errors,
            cache_hits: self.stats.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.stats.cache_misses.load(Ordering::Relaxed),
            paranoid_checks: self.stats.paranoid_checks.load(Ordering::Relaxed),
            paranoid_failures: self.stats.paranoid_failures.load(Ordering::Relaxed),
            cancelled: self.stats.cancelled.load(Ordering::Relaxed),
            timeouts: self.stats.timeouts.load(Ordering::Relaxed),
            session_drops: self.stats.session_drops.load(Ordering::Relaxed),
        }
    }

    /// The table is only touched in short sections, never across a job,
    /// so a poisoned lock still guards consistent rows.
    fn live(&self) -> MutexGuard<'_, Live> {
        self.live.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Set job `id`'s token if its row still holds one.
    fn cancel(&self, id: u64) -> bool {
        let live = self.live();
        let token = live.jobs.get(&id).and_then(|row| row.token.as_ref());
        token.map(CancelToken::cancel).is_some()
    }

    /// Mirror a progress report into job `id`'s row, and publish the
    /// table without counting a completion — throttled, so a fast
    /// progress cadence cannot turn the monitor file into a hot loop.
    fn progress(&self, id: u64, r: &ProgressReport) {
        let done = self.stats.completed.load(Ordering::Relaxed);
        let total = self.stats.submitted.load(Ordering::Relaxed);
        let mut live = self.live();
        if let Some(row) = live.jobs.get_mut(&id) {
            row.progress = Some((r.cycle, r.events, r.live_threads));
        }
        if live.monitor.is_none()
            || live.last_progress_publish.elapsed() < Duration::from_millis(PROGRESS_PUBLISH_MS)
        {
            return;
        }
        live.last_progress_publish = Instant::now();
        live.publish(done, total);
    }

    /// Wait until none of session `sid`'s job rows are left, then
    /// remove its own row.
    fn close_session(&self, sid: u64) {
        let mut live = self.live();
        while live.jobs.values().any(|row| row.session == sid) {
            live = self
                .settled
                .wait(live)
                .unwrap_or_else(PoisonError::into_inner);
        }
        live.sessions.remove(&sid);
    }
}

/// Per-connection state shared between the session reader thread and
/// its submit stewards: one writer (all response lines serialize
/// through its mutex) and the dead-peer latch.
struct SessionShared {
    id: u64,
    writer: Mutex<Stream>,
    dead: AtomicBool,
}

/// Write `text` (one line, or several joined by newlines) to the session
/// peer. On failure the peer is declared dead exactly once: every
/// in-flight job of the session is cancelled and a single
/// `session-drop` event lands in the monitor stream — instead of one
/// write error per telemetry line.
fn send_shared(state: &State, shared: &SessionShared, text: String) -> std::io::Result<()> {
    if shared.dead.load(Ordering::SeqCst) {
        return Err(std::io::ErrorKind::BrokenPipe.into());
    }
    let res = match shared.writer.lock() {
        Ok(mut w) => send_line(&mut w, text),
        Err(_) => Err(std::io::ErrorKind::Other.into()),
    };
    if res.is_err() {
        drop_session(state, shared);
    }
    res
}

/// Latch the session dead (idempotent), cancel its rows that still hold
/// a token, and record how it ended in its row + the monitor stream.
fn drop_session(state: &State, shared: &SessionShared) {
    if shared.dead.swap(true, Ordering::SeqCst) {
        return;
    }
    let mut live = state.live();
    let mut cancelled = 0u64;
    for row in live.jobs.values().filter(|row| row.session == shared.id) {
        if let Some(t) = &row.token {
            t.cancel();
            cancelled += 1;
        }
    }
    if let Some(peer) = live.sessions.get_mut(&shared.id) {
        *peer = if cancelled == 0 { "closed" } else { "dropped" };
    }
    if cancelled > 0 {
        state.stats.session_drops.fetch_add(1, Ordering::Relaxed);
        if let Some(m) = live.monitor.as_mut() {
            let mut w = Writer::default();
            w.obj().key("event").str("session-drop");
            w.key("session").u64(shared.id);
            w.key("jobs_cancelled").u64(cancelled).end_obj();
            m.event(&w.finish());
        }
    }
}

/// The run-slot gate: at most `n` simulations hold a slot at once, and
/// waiting jobs are granted slots in arrival order (a ticket queue).
struct RunSlots {
    queue: Mutex<Tickets>,
    turn: Condvar,
}

struct Tickets {
    /// Slots not held by a running job.
    free: usize,
    /// The next ticket to hand out.
    issued: u64,
    /// The oldest ticket still waiting for its turn.
    head: u64,
}

/// A held run slot, given back on drop.
struct Slot<'a>(&'a RunSlots);

impl RunSlots {
    fn new(n: usize) -> RunSlots {
        RunSlots {
            queue: Mutex::new(Tickets {
                free: n.max(1),
                issued: 0,
                head: 0,
            }),
            turn: Condvar::new(),
        }
    }

    /// The counters are only touched in the short sections below, never
    /// across a job, so a poisoned lock still guards consistent values.
    fn lock(&self) -> MutexGuard<'_, Tickets> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Wait for this caller's turn and a free slot. `None`: `cancel` was
    /// set by the time the slot came up — the job must not run; its turn
    /// passes on and the slot stays free.
    fn acquire(&self, cancel: Option<&CancelToken>) -> Option<Slot<'_>> {
        let mut q = self.lock();
        let ticket = q.issued;
        q.issued += 1;
        while q.head != ticket || q.free == 0 {
            q = self.turn.wait(q).unwrap_or_else(PoisonError::into_inner);
        }
        q.head += 1;
        let run = !cancel.is_some_and(CancelToken::is_cancelled);
        if run {
            q.free -= 1;
        }
        // The next ticket's turn has come, and it may find a slot free.
        if q.issued > q.head {
            self.turn.notify_all();
        }
        run.then(|| Slot(self))
    }
}

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        let mut q = self.0.lock();
        q.free += 1;
        if q.issued > q.head {
            self.0.turn.notify_all();
        }
    }
}

/// One job for a steward thread.
type Task = Box<dyn FnOnce() + Send>;

/// The steward threads. Each runs one job at a time, so a steward
/// blocked writing to a slow reader holds up only its own job (and its
/// run slot only while it simulates). A steward that finishes drops the
/// job and parks on a one-job channel of its own; the next job goes to
/// the steward that parked last instead of to a new thread. At most
/// `cap` stewards park; any other exits.
struct Stewards {
    cap: usize,
    pool: Mutex<Pool>,
}

struct Pool {
    /// The channel of each parked steward, the last parked on top.
    parked: Vec<SyncSender<Task>>,
    /// Every steward thread started and not yet seen to exit.
    threads: Vec<JoinHandle<()>>,
    /// Set at shutdown: no steward parks any more.
    closed: bool,
}

impl Stewards {
    fn new(cap: usize) -> Arc<Stewards> {
        Arc::new(Stewards {
            cap,
            pool: Mutex::new(Pool {
                parked: Vec::new(),
                threads: Vec::new(),
                closed: false,
            }),
        })
    }

    /// The pool is only touched in the short sections below, never
    /// across a job, so a poisoned lock still guards consistent values.
    fn lock(&self) -> MutexGuard<'_, Pool> {
        self.pool.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Run `task` on the steward that parked last, or on a new steward
    /// when none is parked.
    fn run(self: &Arc<Self>, task: Task) {
        let parked = self.lock().parked.pop();
        if let Some(steward) = parked {
            // Its one-job channel is empty, so this never blocks.
            steward
                .send(task)
                .expect("a parked steward waits on its channel until it is handed a job");
            return;
        }
        let me = Arc::clone(self);
        let thread = std::thread::spawn(move || me.serve(task));
        let mut pool = self.lock();
        pool.threads.retain(|t| !t.is_finished());
        pool.threads.push(thread);
    }

    /// A steward's life: its first job, then each job it is handed
    /// while parked.
    fn serve(&self, first: Task) {
        let mut next = Some(first);
        while let Some(task) = next {
            task();
            next = self.park();
        }
    }

    /// Wait for the next job. `None`: `cap` stewards are parked already,
    /// or the server is shutting down, so this steward exits.
    fn park(&self) -> Option<Task> {
        let (tx, rx) = sync_channel(1);
        {
            let mut pool = self.lock();
            if pool.closed || pool.parked.len() >= self.cap {
                return None;
            }
            pool.parked.push(tx);
        }
        rx.recv().ok()
    }

    /// Shutdown, once no session is left: release the parked stewards
    /// and wait for every steward to exit.
    fn close(&self) {
        let threads = {
            let mut pool = self.lock();
            pool.closed = true;
            pool.parked.clear();
            std::mem::take(&mut pool.threads)
        };
        for t in threads {
            let _ = t.join();
        }
    }
}

fn cached_of(rec: &RunRecord, profile: Option<ProfileSnapshot>) -> CachedResult {
    CachedResult {
        kernel: rec.kernel.to_string(),
        mode: rec.mode.clone(),
        outcome: rec.outcome.clone(),
        final_cycle: rec.final_cycle,
        digest: rec.digest,
        coverage: rec.coverage,
        profile,
    }
}

/// Write `text` and its final newline with one `write_all`: one write
/// system call per reply, however many lines it holds.
fn send_line(w: &mut Stream, mut text: String) -> std::io::Result<()> {
    text.push('\n');
    w.write_all(text.as_bytes())?;
    w.flush()
}

/// Build the progress sink for one job: mirror each report's position
/// into the job's row, stream a `progress` line per report, and bail
/// out (cancelling the run) the moment the peer is unreachable.
fn progress_sink(job: &Job) -> Box<dyn ProgressSink> {
    let (state, shared, id) = (Arc::clone(&job.state), Arc::clone(&job.shared), job.id);
    Box::new(move |r: &ProgressReport| {
        state.progress(id, r);
        if shared.dead.load(Ordering::SeqCst) {
            return ProgressCtl::Cancel(CancelCause::Requested);
        }
        if send_shared(&state, &shared, proto::progress_line(id, r)).is_err() {
            return ProgressCtl::Cancel(CancelCause::Requested);
        }
        ProgressCtl::Continue
    })
}

/// Admit one submission on the session's reader thread. A cache hit is
/// answered right here unless `--paranoid` asks for a re-run; a job that
/// must simulate gets a row holding its cancel token, its `accepted`
/// line and a steward, which waits for a run slot.
fn admit(state: &Arc<State>, shared: &Arc<SessionShared>, req: SubmitReq) -> std::io::Result<()> {
    let program = match req.to_program() {
        Ok(p) => p,
        Err(e) => return send_shared(state, shared, proto::error_line(&e)),
    };
    let key = JobKey::of(req.kernel, &program);
    let id = state.next_job.fetch_add(1, Ordering::Relaxed) + 1;
    state.stats.submitted.fetch_add(1, Ordering::Relaxed);
    let hit = state
        .cache
        .lock()
        .ok()
        .and_then(|mut c| c.get(key.digest()));
    let (count, cache) = match hit {
        Some(_) => (&state.stats.cache_hits, "hit"),
        None => (&state.stats.cache_misses, "miss"),
    };
    count.fetch_add(1, Ordering::Relaxed);
    let row = |token, phase: &'static str| JobRow {
        session: shared.id,
        token,
        kernel: req.kernel.label(),
        mode: req.mode.label(),
        cache,
        phase: phase.into(),
        progress: None,
    };
    if let Some(entry) = hit.as_ref().filter(|_| !state.paranoid) {
        let job = Job::start(state, shared, id, &key, row(None, "done"));
        let tail = job.reply_hit(entry, "off");
        return job.send(proto::accepted_line(id, &job.key_hex) + "\n" + &tail);
    }

    // The row holds the cancel token *before* `accepted` goes out: a
    // client that cancels immediately after reading `accepted` must
    // find it.
    let token = CancelToken::new();
    let job = Job::start(state, shared, id, &key, row(Some(token.clone()), "queued"));
    job.send(proto::accepted_line(id, &job.key_hex))?;
    state
        .stewards
        .run(Box::new(move || job.steward(req, program, token, hit)));
    Ok(())
}

/// One admitted submission: its id and cache key, and the session its
/// lines go to. Its row in the live table lives exactly as long.
struct Job {
    state: Arc<State>,
    shared: Arc<SessionShared>,
    id: u64,
    kd: u64,
    key_hex: String,
}

impl Drop for Job {
    /// A job drops after the publish that shows it finished (or after
    /// its peer vanished before it started), so its row can go: the
    /// table holds live work only. A session that is closing waits for
    /// exactly this.
    fn drop(&mut self) {
        let mut live = self.state.live();
        let Some(row) = live.jobs.remove(&self.id) else {
            return;
        };
        if live.sessions.get(&row.session) != Some(&"open") {
            self.state.settled.notify_all();
        }
    }
}

impl Job {
    /// Put the job's row in the live table.
    fn start(
        state: &Arc<State>,
        shared: &Arc<SessionShared>,
        id: u64,
        key: &JobKey,
        row: JobRow,
    ) -> Job {
        state.live().jobs.insert(id, row);
        Job {
            state: Arc::clone(state),
            shared: Arc::clone(shared),
            id,
            kd: key.digest(),
            key_hex: key.hex(),
        }
    }

    fn send(&self, text: String) -> std::io::Result<()> {
        send_shared(&self.state, &self.shared, text)
    }

    /// Take the row's cancel token: the job can no longer be cancelled.
    fn deregister(&self) {
        if let Some(row) = self.state.live().jobs.get_mut(&self.id) {
            row.token = None;
        }
    }

    fn set_phase(&self, phase: &'static str) {
        if let Some(row) = self.state.live().jobs.get_mut(&self.id) {
            row.phase = phase.into();
        }
    }

    /// Count the job finished (completed, cancelled, or failed alike),
    /// show `phase` in its row, fold a fresh run's profile into the
    /// aggregate, and publish.
    fn finish(&self, phase: impl Into<Cow<'static, str>>, fresh_profile: Option<&ProfileSnapshot>) {
        let stats = &self.state.stats;
        let done = stats.completed.fetch_add(1, Ordering::Relaxed) + 1;
        let total = stats.submitted.load(Ordering::Relaxed);
        let mut live = self.state.live();
        if let Some(row) = live.jobs.get_mut(&self.id) {
            row.phase = phase.into();
        }
        if let Some(p) = fresh_profile {
            live.merged.merge(p);
        }
        live.publish(done, total);
    }

    /// The tail of a cache hit: mark the job done, then render the
    /// stored telemetry snapshot and the `result` line. The monitor
    /// update is published before anything is written: a client that
    /// acts on the result must find the stream already current.
    fn reply_hit(&self, entry: &CachedResult, paranoid: &str) -> String {
        self.finish("done", None);
        let result = proto::result_line(self.id, entry, true, paranoid, &self.key_hex);
        match &entry.profile {
            Some(p) => proto::telemetry_line(self.id, p) + "\n" + &result,
            None => result,
        }
    }

    /// A steward's job: verify a paranoid hit or run a miss, then write
    /// the job's last lines in one write. Progress lines go out inline
    /// while it runs. The job is deregistered BEFORE that write, because
    /// the moment the client reads its result it may hang up, and a
    /// clean close racing a not-yet-deregistered job would be miscounted
    /// as a session drop.
    fn steward(
        self,
        req: SubmitReq,
        program: Program,
        token: CancelToken,
        hit: Option<CachedResult>,
    ) {
        let tail = match &hit {
            Some(entry) => self.verify(&req, &program, entry, token),
            None => self.simulate(&req, &program, token),
        };
        self.deregister();
        let _ = self.send(tail);
    }

    /// `--paranoid`: re-run a hit fresh in the requested mode and compare
    /// triples before the cached answer is released (after an `error`
    /// line on a mismatch). The re-run takes its slot and runs under the
    /// job's cancel token, so a client that cancels or hangs up frees
    /// the slot; a verification cancelled before or during its re-run
    /// answers `cancelled`, like a miss.
    fn verify(
        &self,
        req: &SubmitReq,
        program: &Program,
        entry: &CachedResult,
        token: CancelToken,
    ) -> String {
        let stats = &self.state.stats;
        self.set_phase("paranoid");
        stats.paranoid_checks.fetch_add(1, Ordering::Relaxed);
        let fresh = self.state.slots.acquire(Some(&token)).map(|_slot| {
            let live = LiveHook {
                cancel: Some(token.clone()),
                ..LiveHook::default()
            };
            run_mode_live(program, req.kernel, req.mode, live)
        });
        let failure = match fresh {
            // Cancelled before the slot came up, or during the re-run.
            None => return self.answer_cancelled(req),
            Some(Ok((rec, _))) if rec.outcome == "cancelled" && token.is_cancelled() => {
                return self.answer_cancelled(req);
            }
            Some(Ok((rec, _)))
                if (rec.outcome.clone(), rec.final_cycle, rec.digest) == entry.triple() =>
            {
                None
            }
            Some(Ok((rec, _))) => Some(format!(
                "paranoid mismatch on key {}: cached outcome={} cycle={} \
                 digest={:016x}, fresh outcome={} cycle={} digest={:016x}",
                self.key_hex,
                entry.outcome,
                entry.final_cycle,
                entry.digest,
                rec.outcome,
                rec.final_cycle,
                rec.digest
            )),
            Some(Err(e)) => Some(format!("paranoid re-run failed: {e}")),
        };
        let Some(detail) = failure else {
            return self.reply_hit(entry, "ok");
        };
        stats.paranoid_failures.fetch_add(1, Ordering::Relaxed);
        proto::error_line(&detail) + "\n" + &self.reply_hit(entry, "mismatch")
    }

    /// A miss: run live as soon as a slot is free, cache a completed
    /// triple, and answer with the run's telemetry and result.
    /// Interrupted outcomes (`cancelled`, `timeout`) are reported but
    /// never cached.
    fn simulate(&self, req: &SubmitReq, program: &Program, token: CancelToken) -> String {
        let (state, id) = (&self.state, self.id);
        let sink = req.live.progress_cycles.map(|_| progress_sink(self));
        let ran = state.slots.acquire(Some(&token)).map(|_slot| {
            self.set_phase("running");
            let live = LiveHook {
                interval_cycles: req.live.progress_cycles.unwrap_or(0),
                sink,
                cancel: Some(token.clone()),
                timeout_cycles: req.live.timeout_cycles,
                timeout_wall: req.live.timeout_wall_ms.map(Duration::from_millis),
            };
            run_mode_live(program, req.kernel, req.mode, live)
        });
        match ran {
            // Cancelled while still queued: never simulated a cycle.
            None => self.answer_cancelled(req),
            Some(Ok((rec, snap))) => {
                let interrupted = rec.outcome == "cancelled" || rec.outcome == "timeout";
                let entry = cached_of(&rec, Some(snap.clone()));
                if interrupted {
                    // A cancelled/timed-out triple is a truncation
                    // artifact, not the job's answer — memoizing it would
                    // poison every future lookup of this key.
                    if rec.outcome == "timeout" {
                        state.stats.timeouts.fetch_add(1, Ordering::Relaxed);
                    } else {
                        state.stats.cancelled.fetch_add(1, Ordering::Relaxed);
                    }
                } else if let Ok(mut c) = state.cache.lock() {
                    c.insert(self.kd, entry.clone());
                }
                self.finish(rec.outcome.clone(), Some(&snap));
                let result = proto::result_line(id, &entry, false, "off", &self.key_hex);
                proto::telemetry_line(id, &snap) + "\n" + &result
            }
            Some(Err(e)) => {
                // Failed runs are not cached: the failure may be transient
                // (e.g. resource pressure) and a retry should re-execute.
                self.finish("error", None);
                proto::error_line(&e)
            }
        }
    }

    /// The answer to a job cancelled before its run finished: counted
    /// as cancelled, with an all-zero triple that is never cached.
    fn answer_cancelled(&self, req: &SubmitReq) -> String {
        self.state.stats.cancelled.fetch_add(1, Ordering::Relaxed);
        let entry = CachedResult {
            kernel: req.kernel.label().to_string(),
            mode: req.mode.label().to_string(),
            outcome: "cancelled".to_string(),
            final_cycle: 0,
            digest: 0,
            coverage: 0,
            profile: None,
        };
        self.finish("cancelled", None);
        proto::result_line(self.id, &entry, false, "off", &self.key_hex)
    }
}

/// Wake the accept loop so it can observe the stop flag.
fn poke(ep: &Endpoint) {
    let _ = ep.connect();
}

fn session(stream: Stream, state: Arc<State>) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let sid = state.next_session.fetch_add(1, Ordering::Relaxed);
    state.live().sessions.insert(sid, "open");
    let shared = Arc::new(SessionShared {
        id: sid,
        writer: Mutex::new(stream),
        dead: AtomicBool::new(false),
    });
    // Jobs that must simulate run on stewards so the reader keeps
    // consuming requests mid-job — that is what lets one connection
    // interleave `status`, `cancel` and cache hits with its own (or
    // anyone's) running work.
    let mut reader = BufReader::new(read_half);
    let mut buf = Vec::new();
    loop {
        // A line over `proto::MAX_LINE` is answered with one `error` and
        // closes the session, so no client can make the server buffer
        // more than that per session.
        match proto::read_line(&mut reader, &mut buf) {
            Ok(true) => {}
            Ok(false) => break,
            Err(e) => {
                if e.kind() == std::io::ErrorKind::InvalidData {
                    let detail = format!(
                        "request line exceeds the {}-byte limit; closing the session",
                        proto::MAX_LINE
                    );
                    let _ = send_shared(&state, &shared, proto::error_line(&detail));
                }
                break;
            }
        }
        let line = String::from_utf8_lossy(&buf);
        if line.trim().is_empty() {
            continue;
        }
        let res = match proto::parse_request(&line) {
            Err(e) => send_shared(&state, &shared, proto::error_line(&e)),
            Ok(Request::Ping) => send_shared(&state, &shared, proto::pong_line()),
            Ok(Request::Status) => {
                send_shared(&state, &shared, proto::status_line(&state.status()))
            }
            Ok(Request::Shutdown) => {
                let _ = send_shared(&state, &shared, proto::shutting_down_line());
                state.stop.store(true, Ordering::SeqCst);
                poke(&state.endpoint);
                break;
            }
            Ok(Request::Cancel { job }) => {
                let cancelled = state.cancel(job);
                send_shared(&state, &shared, proto::cancel_ack_line(job, cancelled))
            }
            Ok(Request::Submit(req)) => admit(&state, &shared, req),
        };
        if res.is_err() {
            break; // client went away mid-response
        }
    }
    // Reader EOF (peer closed or vanished) or shutdown: cancel whatever
    // this session still has in flight, then wait for its stewards to
    // wind those jobs down.
    drop_session(&state, &shared);
    state.close_session(sid);
}

/// A running server. Dropping the handle does not stop the server; a
/// client `shutdown` request (or [`ServerHandle::shutdown`]) does.
pub struct ServerHandle {
    endpoint: Endpoint,
    accept: JoinHandle<()>,
}

impl ServerHandle {
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// Ask the server to stop (via the protocol) and wait for it.
    pub fn shutdown(self) -> Result<(), String> {
        let mut c = crate::client::Client::connect(&self.endpoint)?;
        c.shutdown()?;
        self.join()
    }

    /// Wait for the server to exit (after a client-initiated shutdown).
    pub fn join(self) -> Result<(), String> {
        self.accept
            .join()
            .map_err(|_| "accept loop panicked".to_string())
    }
}

/// Bind the endpoint and start serving in background threads. The
/// listener is bound synchronously: once this returns, clients may
/// connect.
pub fn spawn(opts: ServeOpts) -> Result<ServerHandle, String> {
    let listener = bind(&opts.endpoint)?;
    let threads = opts.threads.max(1);
    let state = Arc::new(State {
        endpoint: opts.endpoint.clone(),
        paranoid: opts.paranoid,
        stop: AtomicBool::new(false),
        next_job: AtomicU64::new(0),
        next_session: AtomicU64::new(0),
        cache: Mutex::new(ResultCache::new(opts.cache_cap, opts.cache_dir)),
        stats: Stats {
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            paranoid_checks: AtomicU64::new(0),
            paranoid_failures: AtomicU64::new(0),
            cancelled: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
            session_drops: AtomicU64::new(0),
        },
        live: Mutex::new(Live::new(opts.endpoint.label(), threads, opts.monitor)),
        settled: Condvar::new(),
        slots: RunSlots::new(threads),
        stewards: Stewards::new(threads),
    });

    let endpoint = opts.endpoint;
    let ep = endpoint.clone();
    let accept = std::thread::spawn(move || {
        let mut sessions = Vec::new();
        loop {
            let stream = match listener.accept() {
                Ok(s) => s,
                Err(_) => break,
            };
            if state.stop.load(Ordering::SeqCst) {
                break;
            }
            let st = Arc::clone(&state);
            sessions.push(std::thread::spawn(move || session(stream, st)));
            sessions.retain(|h| !h.is_finished());
        }
        for h in sessions {
            let _ = h.join();
        }
        state.stewards.close();
        if let Endpoint::Unix(path) = &ep {
            let _ = std::fs::remove_file(path);
        }
    });

    Ok(ServerHandle { endpoint, accept })
}

/// Bind and serve until a client requests shutdown (the CLI entry).
pub fn serve(opts: ServeOpts) -> Result<(), String> {
    spawn(opts)?.join()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoint_parse_grammar() {
        assert_eq!(
            Endpoint::parse("unix:/tmp/x.sock"),
            Ok(Endpoint::Unix(PathBuf::from("/tmp/x.sock")))
        );
        assert_eq!(
            Endpoint::parse("/tmp/x.sock"),
            Ok(Endpoint::Unix(PathBuf::from("/tmp/x.sock")))
        );
        assert_eq!(
            Endpoint::parse("tcp:127.0.0.1:7070"),
            Ok(Endpoint::Tcp("127.0.0.1:7070".to_string()))
        );
        assert!(Endpoint::parse("").is_err());
        assert!(Endpoint::parse("host:7070").is_err());
        assert_eq!(
            Endpoint::parse("bgserve.sock"),
            Ok(Endpoint::Unix(PathBuf::from("bgserve.sock")))
        );
    }

    #[test]
    fn endpoint_parse_rejects_empty_addresses() {
        // "unix:" used to parse to an empty path and "tcp:" to an empty
        // address — both failed much later with a confusing connect
        // error. They are rejected up front now, with the missing part
        // named.
        let unix = Endpoint::parse("unix:").unwrap_err();
        assert!(unix.contains("socket path"), "{unix}");
        let tcp = Endpoint::parse("tcp:").unwrap_err();
        assert!(tcp.contains("host:port"), "{tcp}");
    }

    #[test]
    fn the_table_renders_sessions_and_jobs_in_numeric_order() {
        let mut live = Live::new("unix:/tmp/\"q\".sock".to_string(), 2, None);
        live.sessions.insert(11, "dropped");
        live.sessions.insert(3, "open");
        let row = |session, cache, phase| JobRow {
            session,
            token: None,
            kernel: "cnk",
            mode: "fast",
            cache,
            phase: Cow::Borrowed(phase),
            progress: None,
        };
        live.jobs.insert(2, row(3, "hit", "done"));
        live.jobs.insert(4, row(11, "miss", "cancelled"));
        live.jobs.insert(
            10,
            JobRow {
                token: Some(CancelToken::new()),
                kernel: "fwk",
                mode: "heap",
                progress: Some((123_456, 789, 3)),
                ..row(3, "miss", "running")
            },
        );
        let mut w = Writer::default();
        live.write_state(&mut w);
        // String keys would put sessions/11 before sessions/3 and jobs/10
        // before jobs/2; job 4 renders under its own session, after
        // session 3's job 10.
        assert_eq!(
            w.finish(),
            concat!(
                r#"{"values":{"endpoint":"unix:/tmp/\"q\".sock","threads":"2"},"children":{"#,
                r#""sessions/3":{"values":{"peer":"open"},"children":{"#,
                r#""jobs/2":{"values":{"cache":"hit","kernel":"cnk","mode":"fast","phase":"done"},"children":{}},"#,
                r#""jobs/10":{"values":{"cache":"miss","cycle":"123456","events":"789","kernel":"fwk","#,
                r#""live_threads":"3","mode":"heap","phase":"running"},"children":{}}}},"#,
                r#""sessions/11":{"values":{"peer":"dropped"},"children":{"#,
                r#""jobs/4":{"values":{"cache":"miss","kernel":"cnk","mode":"fast","phase":"cancelled"},"children":{}}}}}}"#,
            )
        );
    }

    /// Spin until the gate has handed out `n` tickets.
    fn wait_issued(slots: &RunSlots, n: u64) {
        while slots.lock().issued < n {
            std::thread::yield_now();
        }
    }

    #[test]
    fn run_slots_cap_holders_and_fill_every_slot() {
        const N: usize = 3;
        let slots = RunSlots::new(N);
        let holders = std::sync::atomic::AtomicUsize::new(0);
        let peak = std::sync::atomic::AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 * N {
                s.spawn(|| {
                    let _slot = slots.acquire(None).expect("no token: never skipped");
                    let now = holders.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    // Hold the slot until N are held at once; the deadline
                    // turns an under-admitting gate into a failure, not a hang.
                    let deadline = Instant::now() + Duration::from_secs(10);
                    while peak.load(Ordering::SeqCst) < N && Instant::now() < deadline {
                        std::thread::yield_now();
                    }
                    holders.fetch_sub(1, Ordering::SeqCst);
                });
            }
        });
        assert_eq!(peak.load(Ordering::SeqCst), N);
        assert_eq!(slots.lock().free, N, "every slot came back");
    }

    #[test]
    fn run_slots_are_granted_in_arrival_order() {
        let slots = RunSlots::new(1);
        let held = slots.acquire(None);
        let order = Mutex::new(Vec::new());
        std::thread::scope(|s| {
            for i in 0..4u64 {
                let (slots, order) = (&slots, &order);
                s.spawn(move || {
                    let _slot = slots.acquire(None);
                    order.lock().unwrap().push(i);
                });
                // The next waiter arrives only once this one has its ticket.
                wait_issued(slots, i + 2);
            }
            drop(held);
        });
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn a_waiter_cancelled_before_its_slot_comes_up_never_runs() {
        let slots = RunSlots::new(1);
        let held = slots.acquire(None);
        let token = CancelToken::new();
        let ran = AtomicBool::new(false);
        std::thread::scope(|s| {
            let waiter = s.spawn(|| {
                slots
                    .acquire(Some(&token))
                    .map(|_slot| ran.store(true, Ordering::SeqCst))
            });
            wait_issued(&slots, 2);
            token.cancel();
            drop(held);
            assert!(waiter.join().unwrap().is_none(), "skipped, not run");
        });
        assert!(!ran.load(Ordering::SeqCst));
        // Its turn passed on, and the slot it never took is still free.
        let q = slots.lock();
        assert_eq!((q.free, q.head, q.issued), (1, 2, 2));
    }

    /// Spin until `cond` holds of the steward pool; the deadline turns a
    /// steward that never parks or exits into a failure, not a hang.
    fn wait_pool(stewards: &Stewards, what: &str, cond: impl Fn(&Pool) -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !cond(&stewards.lock()) {
            assert!(Instant::now() < deadline, "no steward {what}");
            std::thread::yield_now();
        }
    }

    fn running(pool: &Pool) -> usize {
        pool.threads.iter().filter(|t| !t.is_finished()).count()
    }

    #[test]
    fn a_parked_steward_runs_each_next_job_on_one_thread() {
        let stewards = Stewards::new(1);
        let (tx, rx) = std::sync::mpsc::channel();
        let mut ran_on = Vec::new();
        for _ in 0..8 {
            let tx = tx.clone();
            stewards.run(Box::new(move || {
                tx.send(std::thread::current().id()).unwrap()
            }));
            ran_on.push(rx.recv().unwrap());
            // The next job is handed over only once this one's steward
            // has parked.
            wait_pool(&stewards, "parked", |p| p.parked.len() == 1);
        }
        assert!(ran_on.iter().all(|&t| t == ran_on[0]), "{ran_on:?}");
        assert_ne!(ran_on[0], std::thread::current().id());
        assert_eq!(stewards.lock().threads.len(), 1, "one thread ever started");
        // Shutdown releases the parked steward, or this join never returns.
        stewards.close();
        assert!(stewards.lock().parked.is_empty());
    }

    #[test]
    fn a_steward_that_finishes_beyond_the_cap_exits() {
        let stewards = Stewards::new(1);
        let (started, starts) = std::sync::mpsc::channel();
        let mut release = Vec::new();
        for _ in 0..2 {
            let (go, wait) = std::sync::mpsc::channel::<()>();
            let started = started.clone();
            stewards.run(Box::new(move || {
                started.send(()).unwrap();
                wait.recv().unwrap();
            }));
            release.push(go);
        }
        // Both jobs run at once: none was parked for the second, so it
        // got a steward of its own.
        starts.recv().unwrap();
        starts.recv().unwrap();
        assert_eq!(running(&stewards.lock()), 2);
        release[0].send(()).unwrap();
        wait_pool(&stewards, "parked", |p| p.parked.len() == 1);
        // The one parking place is taken, so the second steward exits.
        release[1].send(()).unwrap();
        wait_pool(&stewards, "exited", |p| running(p) == 1);
        assert_eq!(stewards.lock().parked.len(), 1);
        stewards.close();
    }
}
