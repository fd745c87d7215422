//! The daemon: TCP accept loop, request routing, the fair scheduler over
//! the shared [`WorkerPool`], and clean shutdown.
//!
//! # Lifecycle
//!
//! [`Daemon::bind`] opens the state directory (rebuilding the registry
//! from persisted jobs) and binds the listener; [`Daemon::start`] spawns
//! the accept and scheduler threads and returns a [`DaemonHandle`].
//! Shutdown — via `POST /shutdown`, [`DaemonHandle::shutdown`], or
//! dropping the handle — raises the global stop, interrupts every running
//! job at its next task boundary, joins the runners (so journals are
//! flushed and statuses settled), closes every event stream, and joins
//! the accept/scheduler threads. An interrupted job's journal plus its
//! persisted spec are all a restarted daemon needs to resume it.
//!
//! # Scheduling
//!
//! Jobs queue FIFO. When a job reaches the head, the scheduler grants it
//! `min(desired, max(1, total / (waiting + 1)))` workers — `desired`
//! being the submitted config's worker count (0 = the whole pool) — so a
//! lone job gets everything while a busy daemon converges to equal
//! shares. The grant only sizes the engine's thread pool; results are
//! worker-count-invariant, so fairness never changes a report.

use crate::http::{
    read_request, respond_bytes, respond_error, respond_json, ChunkedWriter, Request,
};
use crate::jobs::{
    event_done, event_failed, event_interrupted, event_started, run_job, JobObserver, JobOutcome,
    JobState, JobStatus, Registry,
};
use crate::pool::WorkerPool;
use crate::spec::JobSpec;
use bdlfi::{RunControl, RunMeta, RunObserver};
use serde::{Deserialize, Value};
use std::collections::VecDeque;
use std::io::Read;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Where specs, journals and reports live.
    pub state_dir: PathBuf,
    /// Worker-pool budget (0 = one per core).
    pub workers: usize,
    /// Journal fsync cadence passed to every job's checkpoint spec.
    pub sync_every: usize,
}

struct QueueEntry {
    job: Arc<JobState>,
    resume: bool,
}

struct Inner {
    registry: Registry,
    pool: Arc<WorkerPool>,
    sync_every: usize,
    shutdown: AtomicBool,
    queue: Mutex<VecDeque<QueueEntry>>,
    queue_cv: Condvar,
    runners: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Inner {
    fn enqueue(&self, job: Arc<JobState>, resume: bool) {
        self.queue
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push_back(QueueEntry { job, resume });
        self.queue_cv.notify_all();
    }
}

/// A bound-but-not-yet-started daemon.
pub struct Daemon {
    inner: Arc<Inner>,
    listener: TcpListener,
    addr: SocketAddr,
}

impl Daemon {
    /// Opens the state directory and binds `addr` (use port 0 to let the
    /// OS pick).
    ///
    /// # Errors
    ///
    /// A message describing the state-dir or bind failure.
    pub fn bind(addr: &str, cfg: &ServeConfig) -> Result<Daemon, String> {
        let registry = Registry::open(&cfg.state_dir)?;
        let listener = TcpListener::bind(addr).map_err(|e| format!("cannot bind {addr}: {e}"))?;
        let local = listener
            .local_addr()
            .map_err(|e| format!("cannot resolve bound address: {e}"))?;
        Ok(Daemon {
            inner: Arc::new(Inner {
                registry,
                pool: Arc::new(WorkerPool::new(cfg.workers)),
                sync_every: cfg.sync_every.max(1),
                shutdown: AtomicBool::new(false),
                queue: Mutex::new(VecDeque::new()),
                queue_cv: Condvar::new(),
                runners: Mutex::new(Vec::new()),
            }),
            listener,
            addr: local,
        })
    }

    /// The bound address (resolved port when 0 was requested).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Spawns the accept and scheduler threads.
    #[must_use]
    pub fn start(self) -> DaemonHandle {
        let inner = Arc::clone(&self.inner);
        let listener = self.listener;
        let accept = std::thread::spawn(move || accept_loop(&listener, &inner));
        let inner = Arc::clone(&self.inner);
        let sched = std::thread::spawn(move || scheduler_loop(&inner));
        DaemonHandle {
            inner: self.inner,
            addr: self.addr,
            accept: Some(accept),
            sched: Some(sched),
        }
    }
}

/// A running daemon; shut down explicitly or by dropping.
pub struct DaemonHandle {
    inner: Arc<Inner>,
    addr: SocketAddr,
    accept: Option<std::thread::JoinHandle<()>>,
    sched: Option<std::thread::JoinHandle<()>>,
}

impl DaemonHandle {
    /// The bound address.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Whether shutdown has been requested (e.g. via `POST /shutdown`).
    #[must_use]
    pub fn shutdown_requested(&self) -> bool {
        self.inner.shutdown.load(Ordering::Relaxed)
    }

    /// Stops accepting, interrupts running jobs at their next task
    /// boundary, joins every runner (journals flushed, statuses settled),
    /// closes all event streams, and joins the service threads.
    /// Idempotent.
    pub fn shutdown(&mut self) {
        self.inner.shutdown.store(true, Ordering::Relaxed);
        for job in self.inner.registry.list() {
            job.stop.store(true, Ordering::Relaxed);
        }
        self.inner.queue_cv.notify_all();
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(500));
        if let Some(t) = self.accept.take() {
            let _ = t.join();
        }
        if let Some(t) = self.sched.take() {
            let _ = t.join();
        }
        let runners = std::mem::take(
            &mut *self
                .inner
                .runners
                .lock()
                .unwrap_or_else(PoisonError::into_inner),
        );
        for t in runners {
            let _ = t.join();
        }
        // Jobs that never ran (still queued) need their streams ended too.
        for job in self.inner.registry.list() {
            if job.status() == JobStatus::Queued {
                job.set_status(JobStatus::Interrupted);
            }
            job.events.close();
        }
    }
}

impl Drop for DaemonHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: &TcpListener, inner: &Arc<Inner>) {
    loop {
        let conn = listener.accept();
        if inner.shutdown.load(Ordering::Relaxed) {
            return;
        }
        let Ok((stream, _peer)) = conn else { continue };
        let inner = Arc::clone(inner);
        // Connection threads are detached: each ends once its (possibly
        // streaming) response completes, and shutdown closes every event
        // log, which unblocks any streaming reader.
        std::thread::spawn(move || handle_connection(stream, &inner));
    }
}

fn scheduler_loop(inner: &Arc<Inner>) {
    loop {
        let (entry, waiting) = {
            let mut queue = inner.queue.lock().unwrap_or_else(PoisonError::into_inner);
            loop {
                if inner.shutdown.load(Ordering::Relaxed) {
                    return;
                }
                if let Some(entry) = queue.pop_front() {
                    break (entry, queue.len());
                }
                let (guard, _timeout) = inner
                    .queue_cv
                    .wait_timeout(queue, Duration::from_millis(100))
                    .unwrap_or_else(PoisonError::into_inner);
                queue = guard;
            }
        };
        let QueueEntry { job, resume } = entry;
        if job.stop.load(Ordering::Relaxed) {
            // Cancelled while queued: settle without running.
            job.set_status(JobStatus::Interrupted);
            job.events.push(event_interrupted(0, job.spec.tasks()));
            job.events.close();
            continue;
        }
        let total = inner.pool.total();
        let desired = match job.spec.config().workers {
            0 => total,
            n => n.min(total),
        };
        let fair = (total / (waiting + 1)).max(1);
        let want = desired.min(fair);
        let Some(grant) = inner.pool.acquire_owned(want, &inner.shutdown) else {
            // Shutdown raced the acquire; leave the job queued on disk.
            return;
        };
        let runner_inner = Arc::clone(inner);
        let runner = std::thread::spawn(move || {
            let workers = grant.workers();
            run_one(&runner_inner, &job, resume, workers);
            drop(grant);
        });
        let mut runners = reap_finished(inner);
        runners.push(runner);
    }
}

/// Joins every runner that has exited and returns the locked list of the
/// rest: an exited thread keeps its stack resident until joined, so a
/// long-lived daemon must not hold one handle per job it ever ran.
fn reap_finished(inner: &Inner) -> std::sync::MutexGuard<'_, Vec<std::thread::JoinHandle<()>>> {
    let mut runners = inner.runners.lock().unwrap_or_else(PoisonError::into_inner);
    let (finished, live): (Vec<_>, Vec<_>) = std::mem::take(&mut *runners)
        .into_iter()
        .partition(|t| t.is_finished());
    *runners = live;
    for t in finished {
        // A runner contains its driver's panics (`run_one`), so a join
        // error would only repeat what the job's status already says.
        let _ = t.join();
    }
    runners
}

/// Executes one admitted job on the current thread and settles its
/// status, events, report file and attempt accounting.
fn run_one(inner: &Arc<Inner>, job: &Arc<JobState>, resume: bool, workers: usize) {
    job.events.reopen();
    job.set_status(JobStatus::Running);
    job.events.push(event_started(resume, workers));
    let observer = Arc::new(JobObserver::new(Arc::clone(job)));
    let mut ctl = RunControl::default().observing(Arc::clone(&observer) as Arc<dyn RunObserver>);
    ctl.stop = Some(Arc::clone(&job.stop));
    let journal = inner.registry.journal_path(&job.id);
    let started = Instant::now();
    // The drivers are panic-free on validated specs, but a daemon must
    // not lose its scheduler to a bug in a driver: contain any panic and
    // convert it to a failed job.
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_job(job, workers, &ctl, &journal, resume, inner.sync_every)
    }))
    .unwrap_or_else(|panic| {
        let detail = panic
            .downcast_ref::<&str>()
            .map(ToString::to_string)
            .or_else(|| panic.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "opaque panic".to_string());
        JobOutcome::Failed(format!("driver panicked: {detail}"))
    });
    match outcome {
        JobOutcome::Done { report, meta } => match persist_report(inner, &job.id, &report) {
            Ok(()) => {
                job.add_attempt(meta);
                job.set_status(JobStatus::Done);
                job.events.push(event_done());
                // A done job is never resumed, so its log is final: move
                // it to disk. Should that fail, it simply stays in memory.
                let _ = job.events.spill_to(&inner.registry.events_path(&job.id));
            }
            Err(e) => {
                job.set_status(JobStatus::Failed(e.clone()));
                job.events.push(event_failed(&e));
            }
        },
        JobOutcome::Interrupted { completed, tasks } => {
            // Synthesize this attempt's accounting: the driver returned an
            // error, so there is no report-borne RunMeta for it.
            let elapsed = started.elapsed().as_secs_f64();
            job.add_attempt(RunMeta {
                tasks: completed,
                workers,
                elapsed_secs: elapsed,
                tasks_per_sec: if elapsed > 0.0 {
                    completed as f64 / elapsed
                } else {
                    0.0
                },
                seed: job.spec.config().seed,
                resumed_from: None,
                delta_hits: 0,
                delta_fallbacks: 0,
                truncated_tail: false,
            });
            job.set_status(JobStatus::Interrupted);
            job.events.push(event_interrupted(completed, tasks));
        }
        JobOutcome::Failed(msg) => {
            job.set_status(JobStatus::Failed(msg.clone()));
            job.events.push(event_failed(&msg));
        }
    }
    job.events.close();
}

/// Writes the report file atomically (tmp + rename), so a restart never
/// mistakes a half-written report for a completed job.
fn persist_report(inner: &Arc<Inner>, id: &str, report: &Value) -> Result<(), String> {
    let text =
        serde_json::to_string(report).map_err(|e| format!("cannot serialize report: {e}"))?;
    let path = inner.registry.report_path(id);
    let tmp = path.with_extension("json.tmp");
    std::fs::write(&tmp, text).map_err(|e| format!("cannot write report: {e}"))?;
    std::fs::rename(&tmp, &path).map_err(|e| format!("cannot install report: {e}"))?;
    Ok(())
}

fn handle_connection(mut stream: TcpStream, inner: &Arc<Inner>) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    // Keep-alive: serve requests off this connection until the client
    // asks to close (or hangs up, idles out, or a response fails).
    loop {
        let req = match read_request(&mut stream) {
            Ok(Some(req)) => req,
            Ok(None) => return,
            Err(e) => {
                let _ = respond_error(&mut stream, 400, &e.0, true);
                drain_and_close(stream);
                return;
            }
        };
        if route(&mut stream, &req, inner) || inner.shutdown.load(Ordering::Relaxed) {
            return;
        }
    }
}

/// The most a refused connection's unread bytes are drained before close.
const DRAIN_CAP: usize = 64 * 1024;
/// How long a refused connection's unread bytes are drained before close.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(1);

/// Closes a connection whose request was refused with bytes still unread
/// (a chunked body, an oversized head): half-closes it so the response
/// reaches the client, then reads and discards what the client still
/// sends, until EOF, [`DRAIN_CAP`] bytes or [`DRAIN_TIMEOUT`]. Closing
/// with unread bytes instead makes the kernel reset the connection, and
/// the client can lose the response.
fn drain_and_close(mut stream: TcpStream) {
    let _ = stream.shutdown(Shutdown::Write);
    let deadline = Instant::now() + DRAIN_TIMEOUT;
    let mut buf = [0u8; 4096];
    let mut drained = 0;
    while drained < DRAIN_CAP {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() || stream.set_read_timeout(Some(left)).is_err() {
            return;
        }
        match stream.read(&mut buf) {
            Ok(0) | Err(_) => return,
            Ok(n) => drained += n,
        }
    }
}

/// Dispatches one request; returns whether the connection must close
/// afterwards (client asked, the response streamed, or a write failed).
fn route(stream: &mut TcpStream, req: &Request, inner: &Arc<Inner>) -> bool {
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    // Event streams end by closing the connection (their framing says so
    // in the response head), so they always finish the exchange.
    let streaming = matches!(
        (req.method.as_str(), segments.as_slice()),
        ("GET", ["jobs", _, "events"])
    );
    let close = req.close || streaming;
    let result = match (req.method.as_str(), segments.as_slice()) {
        ("GET", ["healthz"]) => respond_json(stream, 200, r#"{"ok":true}"#, close),
        ("POST", ["shutdown"]) => {
            inner.shutdown.store(true, Ordering::Relaxed);
            for job in inner.registry.list() {
                job.stop.store(true, Ordering::Relaxed);
            }
            inner.queue_cv.notify_all();
            respond_json(stream, 202, r#"{"ok":true,"shutting_down":true}"#, close)
        }
        ("POST", ["jobs"]) => submit(stream, &req.body, inner, close),
        ("GET", ["jobs"]) => {
            let items: Vec<Value> = inner.registry.list().iter().map(|j| j.summary()).collect();
            let body =
                serde_json::to_string(&Value::Array(items)).unwrap_or_else(|_| "[]".to_string());
            respond_json(stream, 200, &body, close)
        }
        ("GET", ["jobs", id]) => match inner.registry.get(id) {
            Some(job) => {
                let mut summary = job.summary();
                if let Value::Object(entries) = &mut summary {
                    entries.push((
                        "resumable".to_string(),
                        Value::Bool(inner.registry.journal_path(id).exists()),
                    ));
                }
                let body = serde_json::to_string(&summary).unwrap_or_else(|_| "{}".to_string());
                respond_json(stream, 200, &body, close)
            }
            None => respond_error(stream, 404, "no such job", close),
        },
        ("POST", ["jobs", id, "cancel"]) => match inner.registry.get(id) {
            Some(job) => {
                job.stop.store(true, Ordering::Relaxed);
                respond_json(stream, 202, r#"{"ok":true}"#, close)
            }
            None => respond_error(stream, 404, "no such job", close),
        },
        ("POST", ["jobs", id, "resume"]) => match inner.registry.get(id) {
            Some(job) => {
                let status = job.status();
                if status.is_restartable() {
                    job.stop.store(false, Ordering::Relaxed);
                    job.set_status(JobStatus::Queued);
                    job.events.reopen();
                    let resume = inner.registry.journal_path(id).exists();
                    inner.enqueue(Arc::clone(&job), resume);
                    let body = format!(r#"{{"ok":true,"resumed_from_journal":{resume}}}"#);
                    respond_json(stream, 202, &body, close)
                } else {
                    respond_error(
                        stream,
                        409,
                        &format!("job is {}, not resumable", status.as_str()),
                        close,
                    )
                }
            }
            None => respond_error(stream, 404, "no such job", close),
        },
        ("GET", ["jobs", id, "report"]) => match inner.registry.get(id) {
            Some(_) => match std::fs::read_to_string(inner.registry.report_path(id)) {
                Ok(body) => respond_json(stream, 200, &body, close),
                Err(_) => respond_error(stream, 404, "no report yet", close),
            },
            None => respond_error(stream, 404, "no such job", close),
        },
        ("GET", ["jobs", id, "journal"]) => match inner.registry.get(id) {
            // The raw journal bytes — how a coordinator collects a shard
            // for `bdlfi-merge`. Read as one buffer so the response is a
            // consistent snapshot even while the job is appending.
            Some(_) => match std::fs::read(inner.registry.journal_path(id)) {
                Ok(bytes) => respond_bytes(stream, 200, "application/x-ndjson", &bytes, close),
                Err(_) => respond_error(stream, 404, "no journal yet", close),
            },
            None => respond_error(stream, 404, "no such job", close),
        },
        ("GET", ["jobs", id, "events"]) => match inner.registry.get(id) {
            Some(job) => stream_events(stream, &job),
            None => respond_error(stream, 404, "no such job", close),
        },
        _ => respond_error(stream, 404, "no such endpoint", close),
    };
    close || result.is_err()
}

fn submit(
    stream: &mut TcpStream,
    body: &[u8],
    inner: &Arc<Inner>,
    close: bool,
) -> std::io::Result<()> {
    let Ok(text) = std::str::from_utf8(body) else {
        return respond_error(stream, 400, "body is not valid UTF-8", close);
    };
    let value: Value = match serde_json::from_str(text) {
        Ok(v) => v,
        Err(e) => {
            return respond_error(stream, 400, &format!("body is not valid JSON: {e}"), close)
        }
    };
    let spec = match JobSpec::from_json_value(&value) {
        Ok(s) => s,
        Err(e) => return respond_error(stream, 400, &format!("bad job spec: {e}"), close),
    };
    match inner.registry.submit(spec) {
        Ok(job) => {
            inner.enqueue(Arc::clone(&job), false);
            let body = serde_json::to_string(&job.summary()).unwrap_or_else(|_| "{}".to_string());
            respond_json(stream, 202, &body, close)
        }
        Err((client_fault, msg)) => {
            respond_error(stream, if client_fault { 400 } else { 500 }, &msg, close)
        }
    }
}

/// Streams a job's event log as chunked NDJSON: full history first (so a
/// reattached client sees replayed results too), then live lines until
/// the log closes at a terminal status.
fn stream_events(stream: &mut TcpStream, job: &Arc<JobState>) -> std::io::Result<()> {
    let mut w = ChunkedWriter::begin(stream)?;
    let mut from = 0usize;
    loop {
        let (lines, closed) = job.events.wait_from(from);
        let drained = lines.is_empty();
        for line in lines {
            from += 1;
            w.send_line(&line)?;
        }
        if closed && drained {
            return w.finish();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client;
    use crate::spec::tests::small_spec;
    use serde::Serialize;

    #[test]
    fn finished_runners_are_joined_not_kept() {
        let dir = std::env::temp_dir().join(format!("bdlfi-serve-reap-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = ServeConfig {
            state_dir: dir.clone(),
            workers: 1,
            sync_every: 1,
        };
        let handle = Daemon::bind("127.0.0.1:0", &cfg).unwrap().start();
        let addr = handle.addr().to_string();
        let body = serde_json::to_string(&small_spec().to_json_value()).unwrap();
        for _ in 0..4 {
            let resp =
                client::request(&addr, "POST", "/jobs", Some(&body), Duration::from_secs(10))
                    .unwrap();
            assert_eq!(resp.status, 202, "{}", resp.body);
            let id: Value = serde_json::from_str(&resp.body).unwrap();
            let id = id.get("id").and_then(Value::as_str).unwrap().to_string();
            // The events stream ends when the job settles.
            let events = client::request(
                &addr,
                "GET",
                &format!("/jobs/{id}/events"),
                None,
                Duration::from_secs(60),
            )
            .unwrap();
            assert!(events.body.contains(r#""event":"done""#), "{}", events.body);
        }
        // Each scheduled job reaped the runners that had exited before it;
        // one more reap leaves at most the pool's share of live handles.
        let left = reap_finished(&handle.inner).len();
        assert!(
            left <= handle.inner.pool.total(),
            "{left} runner handles kept"
        );
        drop(handle);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
