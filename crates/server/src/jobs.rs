//! Job lifecycle: the registry, per-job state and event streams, the
//! [`bdlfi::RunObserver`] that turns engine results into live diagnostics,
//! and the driver dispatch that actually runs a job.
//!
//! Persistence model: every job writes three files under the daemon's
//! state directory —
//!
//! * `<id>.spec.json` — the submitted [`JobSpec`], written at submit time;
//! * `<id>.journal.jsonl` — the engine's checkpoint journal, appended
//!   while the job runs (fingerprinted over the spec, so it stays valid
//!   across daemon restarts and worker-grant changes);
//! * `<id>.report.json` — the final driver report, written on completion.
//!
//! A restarted daemon rebuilds its registry from these files alone: a
//! report means `done`, a journal without a report means `interrupted`
//! (resumable via `POST /jobs/<id>/resume`), a bare spec means the job
//! never produced a result and can be re-run from scratch. In-memory
//! attempt accounting does not survive restarts; the report's own
//! `run_meta` is the durable record.
//!
//! Everything in this module runs on request or runner paths: no panics,
//! poisoned locks are taken over with [`PoisonError::into_inner`].

use crate::spec::{
    build_workload, check_buildable, job_fingerprint, DriverSpec, JobSpec, SpecError,
};
use bdlfi::{
    run_campaign, run_campaign_adaptive, run_campaign_shard, run_layerwise, run_layerwise_shard,
    run_sweep, run_sweep_shard, CampaignConfig, CheckpointSpec, EngineError, GoldenModel,
    RunControl, RunMeta, RunObserver, ShardError,
};
use bdlfi_data::Dataset;
use bdlfi_faults::BernoulliBitFlip;
use serde::{Deserialize, Number, Serialize, Value};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobStatus {
    /// Accepted and waiting for pool workers.
    Queued,
    /// Currently executing on the pool.
    Running,
    /// Finished; the report file exists.
    Done,
    /// Stopped before completion (cancel, shutdown, or a daemon crash);
    /// the journal makes it resumable.
    Interrupted,
    /// The driver failed; the message says why.
    Failed(String),
}

impl JobStatus {
    /// The status as its wire string.
    #[must_use]
    pub fn as_str(&self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Done => "done",
            JobStatus::Interrupted => "interrupted",
            JobStatus::Failed(_) => "failed",
        }
    }

    /// Whether the job can accept a `resume` request.
    #[must_use]
    pub fn is_restartable(&self) -> bool {
        matches!(self, JobStatus::Interrupted | JobStatus::Failed(_))
    }
}

/// An append-only log of NDJSON event lines with blocking readers: the
/// backing store of `GET /jobs/<id>/events`. Closing wakes all readers
/// and marks the stream terminal; a resumed job reopens it.
///
/// A log that will never grow again (a `done` job's) can be spilled to a
/// file ([`EventLog::spill_to`]), after which readers are served from the
/// file and the daemon keeps none of its lines in memory.
#[derive(Debug, Default)]
pub struct EventLog {
    inner: Mutex<LogInner>,
    cv: Condvar,
}

#[derive(Debug, Default)]
struct LogInner {
    lines: Vec<String>,
    closed: bool,
    /// The file holding every line once spilled; `lines` is then empty.
    spilled: Option<PathBuf>,
}

impl EventLog {
    /// Appends one event line and wakes waiting readers.
    pub fn push(&self, line: String) {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.lines.push(line);
        self.cv.notify_all();
    }

    /// Marks the stream terminal (job reached a terminal status for now).
    pub fn close(&self) {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.closed = true;
        self.cv.notify_all();
    }

    /// Un-terminates the stream when a job is resumed or re-run.
    pub fn reopen(&self) {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.closed = false;
    }

    /// Closes the log for good and moves its lines to `path` (written to a
    /// temporary file, then renamed into place). Not synced: the file only
    /// relieves memory, and a restarted daemon never reads it. On an I/O
    /// error the lines stay in memory and the log stays readable.
    ///
    /// # Errors
    ///
    /// The I/O error that kept the lines in memory.
    pub fn spill_to(&self, path: &Path) -> std::io::Result<()> {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.closed = true;
        self.cv.notify_all();
        let mut text = String::with_capacity(inner.lines.iter().map(|l| l.len() + 1).sum());
        for line in &inner.lines {
            text.push_str(line);
            text.push('\n');
        }
        let tmp = path.with_extension("jsonl.tmp");
        std::fs::write(&tmp, text)?;
        std::fs::rename(&tmp, path)?;
        inner.lines = Vec::new();
        inner.spilled = Some(path.to_path_buf());
        Ok(())
    }

    /// Blocks until lines beyond `from` exist (returning them) or the log
    /// is closed with none pending (returning an empty `Vec`). The bool
    /// is the closed flag at return time. A spilled log answers from its
    /// file; if the file cannot be read, the stream ends there.
    pub fn wait_from(&self, from: usize) -> (Vec<String>, bool) {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(path) = &inner.spilled {
                let text = std::fs::read_to_string(path).unwrap_or_default();
                return (text.lines().skip(from).map(str::to_string).collect(), true);
            }
            if inner.lines.len() > from {
                return (inner.lines[from..].to_vec(), inner.closed);
            }
            if inner.closed {
                return (Vec::new(), true);
            }
            let (guard, _timeout) = self
                .cv
                .wait_timeout(inner, std::time::Duration::from_millis(200))
                .unwrap_or_else(PoisonError::into_inner);
            inner = guard;
        }
    }
}

/// One job known to the daemon.
#[derive(Debug)]
pub struct JobState {
    /// The job id (`job-000001`, …), also the state-file stem.
    pub id: String,
    /// The validated spec it was submitted with.
    pub spec: JobSpec,
    /// The journal fingerprint derived from the spec.
    pub fingerprint: String,
    /// Raised to interrupt the job at the next task boundary.
    pub stop: Arc<AtomicBool>,
    /// The NDJSON event stream.
    pub events: EventLog,
    status: Mutex<JobStatus>,
    attempts: Mutex<Vec<RunMeta>>,
}

impl JobState {
    fn new(id: String, spec: JobSpec, status: JobStatus) -> Arc<JobState> {
        let fingerprint = job_fingerprint(&spec);
        Arc::new(JobState {
            id,
            spec,
            fingerprint,
            stop: Arc::new(AtomicBool::new(false)),
            events: EventLog::default(),
            status: Mutex::new(status),
            attempts: Mutex::new(Vec::new()),
        })
    }

    /// The job's current status.
    #[must_use]
    pub fn status(&self) -> JobStatus {
        self.status
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Moves the job to `status`.
    pub fn set_status(&self, status: JobStatus) {
        *self.status.lock().unwrap_or_else(PoisonError::into_inner) = status;
    }

    /// Records one attempt's engine accounting (a completed run's
    /// `run_meta`, or a synthesized partial meta after an interrupt).
    pub fn add_attempt(&self, meta: RunMeta) {
        self.attempts
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(meta);
    }

    /// This session's attempts, oldest first.
    #[must_use]
    pub fn attempts(&self) -> Vec<RunMeta> {
        self.attempts
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Pools all attempts with [`RunMeta::try_merged_with`]. Attempts of
    /// one job share the spec's engine seed, so a mismatch here means
    /// corrupted accounting — surfaced as the typed error, never a panic.
    ///
    /// Replayed results are counted by every attempt that replays them,
    /// so the pooled `tasks` can exceed the job's task count; it measures
    /// delivered results, not distinct tasks.
    ///
    /// # Errors
    ///
    /// [`EngineError::MetaSeedMismatch`] if the recorded attempts disagree
    /// on the engine seed.
    pub fn pooled_meta(&self) -> Result<Option<RunMeta>, EngineError> {
        let attempts = self.attempts();
        let mut iter = attempts.into_iter();
        let Some(first) = iter.next() else {
            return Ok(None);
        };
        let mut total = first;
        for meta in iter {
            total = total.try_merged_with(meta)?;
        }
        Ok(Some(total))
    }

    /// The job as a JSON summary for `GET /jobs` and `GET /jobs/<id>`.
    #[must_use]
    pub fn summary(&self) -> Value {
        let status = self.status();
        let mut entries = vec![
            ("id".to_string(), Value::String(self.id.clone())),
            (
                "status".to_string(),
                Value::String(status.as_str().to_string()),
            ),
            (
                "tasks".to_string(),
                Value::Number(Number::U(self.spec.tasks() as u64)),
            ),
            (
                "fingerprint".to_string(),
                Value::String(self.fingerprint.clone()),
            ),
        ];
        if let JobStatus::Failed(err) = &status {
            entries.push(("error".to_string(), Value::String(err.clone())));
        }
        let attempts = self.attempts();
        if !attempts.is_empty() {
            entries.push((
                "attempts".to_string(),
                Value::Array(attempts.iter().map(Serialize::to_json_value).collect()),
            ));
            match self.pooled_meta() {
                Ok(Some(total)) => entries.push(("total".to_string(), total.to_json_value())),
                Ok(None) => {}
                Err(e) => {
                    entries.push(("accounting_error".to_string(), Value::String(e.to_string())))
                }
            }
        }
        Value::Object(entries)
    }
}

/// The daemon's collection of jobs, backed by the state directory.
#[derive(Debug)]
pub struct Registry {
    state_dir: PathBuf,
    jobs: Mutex<BTreeMap<String, Arc<JobState>>>,
    next: AtomicUsize,
}

impl Registry {
    /// Opens (creating if needed) a state directory and rebuilds the
    /// registry from the spec/journal/report files found there. Rebuilt
    /// jobs are never auto-started: completed ones are `done`, everything
    /// else is `interrupted` awaiting an explicit resume.
    ///
    /// # Errors
    ///
    /// I/O errors creating or scanning the directory, or a spec file that
    /// no longer parses/validates (state-dir corruption is a startup
    /// error, not something to silently skip).
    pub fn open(state_dir: &Path) -> Result<Registry, String> {
        std::fs::create_dir_all(state_dir)
            .map_err(|e| format!("cannot create state dir {}: {e}", state_dir.display()))?;
        let mut jobs = BTreeMap::new();
        let mut max_id = 0usize;
        let entries = std::fs::read_dir(state_dir)
            .map_err(|e| format!("cannot read state dir {}: {e}", state_dir.display()))?;
        for entry in entries {
            let entry = entry.map_err(|e| format!("cannot scan state dir: {e}"))?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(id) = name.strip_suffix(".spec.json") else {
                continue;
            };
            let text = std::fs::read_to_string(entry.path())
                .map_err(|e| format!("cannot read {name}: {e}"))?;
            let value: Value =
                serde_json::from_str(&text).map_err(|e| format!("bad spec file {name}: {e}"))?;
            let spec =
                JobSpec::from_json_value(&value).map_err(|e| format!("bad spec {name}: {e}"))?;
            spec.validate()
                .map_err(|e| format!("stored spec {name} no longer validates: {e}"))?;
            if let Some(n) = id
                .strip_prefix("job-")
                .and_then(|digits| digits.parse::<usize>().ok())
            {
                max_id = max_id.max(n);
            }
            let status = if state_dir.join(format!("{id}.report.json")).exists() {
                JobStatus::Done
            } else {
                JobStatus::Interrupted
            };
            let job = JobState::new(id.to_string(), spec, status.clone());
            if status == JobStatus::Done {
                job.events.close();
            }
            jobs.insert(id.to_string(), job);
        }
        Ok(Registry {
            state_dir: state_dir.to_path_buf(),
            jobs: Mutex::new(jobs),
            next: AtomicUsize::new(max_id + 1),
        })
    }

    /// The directory job state lives in.
    #[must_use]
    pub fn state_dir(&self) -> &Path {
        &self.state_dir
    }

    /// The journal path of a job.
    #[must_use]
    pub fn journal_path(&self, id: &str) -> PathBuf {
        self.state_dir.join(format!("{id}.journal.jsonl"))
    }

    /// The report path of a job.
    #[must_use]
    pub fn report_path(&self, id: &str) -> PathBuf {
        self.state_dir.join(format!("{id}.report.json"))
    }

    /// Where a done job's event log is spilled.
    #[must_use]
    pub fn events_path(&self, id: &str) -> PathBuf {
        self.state_dir.join(format!("{id}.events.jsonl"))
    }

    /// Validates and accepts a new job: assigns an id, persists the spec,
    /// and registers it as `queued`.
    ///
    /// # Errors
    ///
    /// [`SpecError`] for invalid specs (client error) or a persistence
    /// failure message (server error) — distinguished by the bool, `true`
    /// meaning client fault.
    pub fn submit(&self, spec: JobSpec) -> Result<Arc<JobState>, (bool, String)> {
        spec.validate().map_err(|e| (true, e.to_string()))?;
        // Site emptiness must fail the *submit*, so probe it here on an
        // untrained build; the runner builds (and trains) its own.
        check_buildable(&spec).map_err(|e| (true, e.to_string()))?;
        let id = format!("job-{:06}", self.next.fetch_add(1, Ordering::Relaxed));
        let text = serde_json::to_string(&spec.to_json_value())
            .map_err(|e| (false, format!("cannot serialize spec: {e}")))?;
        std::fs::write(self.state_dir.join(format!("{id}.spec.json")), text)
            .map_err(|e| (false, format!("cannot persist spec: {e}")))?;
        let job = JobState::new(id.clone(), spec, JobStatus::Queued);
        job.events.push(event_queued());
        self.jobs
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(id, Arc::clone(&job));
        Ok(job)
    }

    /// Looks up a job by id.
    #[must_use]
    pub fn get(&self, id: &str) -> Option<Arc<JobState>> {
        self.jobs
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(id)
            .cloned()
    }

    /// All jobs, in id order.
    #[must_use]
    pub fn list(&self) -> Vec<Arc<JobState>> {
        self.jobs
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .values()
            .cloned()
            .collect()
    }
}

fn print_value(v: &Value) -> String {
    serde_json::to_string(v).unwrap_or_else(|_| "null".to_string())
}

fn event_queued() -> String {
    r#"{"event":"queued"}"#.to_string()
}

/// The `started` event: emitted when a runner picks the job up.
#[must_use]
pub fn event_started(resumed: bool, workers: usize) -> String {
    print_value(&Value::Object(vec![
        ("event".to_string(), Value::String("started".to_string())),
        ("resumed".to_string(), Value::Bool(resumed)),
        (
            "workers".to_string(),
            Value::Number(Number::U(workers as u64)),
        ),
    ]))
}

/// The terminal `done` event.
#[must_use]
pub fn event_done() -> String {
    r#"{"event":"done"}"#.to_string()
}

/// The terminal `interrupted` event.
#[must_use]
pub fn event_interrupted(completed: usize, tasks: usize) -> String {
    print_value(&Value::Object(vec![
        (
            "event".to_string(),
            Value::String("interrupted".to_string()),
        ),
        (
            "completed".to_string(),
            Value::Number(Number::U(completed as u64)),
        ),
        ("tasks".to_string(), Value::Number(Number::U(tasks as u64))),
    ]))
}

/// The terminal `failed` event.
#[must_use]
pub fn event_failed(error: &str) -> String {
    print_value(&Value::Object(vec![
        ("event".to_string(), Value::String("failed".to_string())),
        ("error".to_string(), Value::String(error.to_string())),
    ]))
}

/// The per-job [`RunObserver`]: forwards every delivered result (replayed
/// and live) to the event stream and maintains per-chain traces so it can
/// publish pooled mixing diagnostics as the campaign runs.
#[derive(Debug)]
pub struct JobObserver {
    job: Arc<JobState>,
    traces: Mutex<Vec<Vec<f64>>>,
    delivered: AtomicUsize,
}

impl JobObserver {
    /// An observer feeding `job`'s event log.
    #[must_use]
    pub fn new(job: Arc<JobState>) -> JobObserver {
        JobObserver {
            job,
            traces: Mutex::new(Vec::new()),
            delivered: AtomicUsize::new(0),
        }
    }

    /// How many results (replayed + live) have been delivered so far.
    #[must_use]
    pub fn delivered(&self) -> usize {
        self.delivered.load(Ordering::Relaxed)
    }

    fn samples_of(value: &Value) -> Option<Vec<f64>> {
        let arr = value.get("samples")?.as_array()?;
        arr.iter().map(Value::as_f64).collect()
    }

    /// Updates the trace store from one result value and returns the
    /// pooled diagnostics when traces exist.
    fn diagnostics_for(&self, task_id: usize, value: &Value) -> Option<Value> {
        // A sweep/layerwise result embeds a finished campaign report:
        // republish that report's own completeness verdict for the point.
        if let Some(c) = value
            .get("report")
            .and_then(|r| r.get("completeness"))
            .or_else(|| value.get("completeness"))
        {
            return Some(c.clone());
        }
        let mut traces = self.traces.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(samples) = Self::samples_of(value) {
            // Fixed-budget campaign: one chain outcome per task.
            if traces.len() <= task_id {
                traces.resize(task_id + 1, Vec::new());
            }
            if let Some(slot) = traces.get_mut(task_id) {
                *slot = samples;
            }
        } else if let Some(items) = value.as_array() {
            // Adaptive campaign: each segment journals a snapshot of every
            // chain, cumulative from the start.
            let snapshot: Option<Vec<Vec<f64>>> = items.iter().map(Self::samples_of).collect();
            *traces = snapshot?;
        } else {
            return None;
        }
        let slices: Vec<&[f64]> = traces
            .iter()
            .filter(|t| !t.is_empty())
            .map(Vec::as_slice)
            .collect();
        if slices.is_empty() {
            return None;
        }
        let report = bdlfi::assess_slices(&slices, &self.job.spec.config().criteria);
        Some(report.to_json_value())
    }
}

impl RunObserver for JobObserver {
    fn on_result(&self, task_id: usize, tasks: usize, value: &Value) {
        let delivered = self.delivered.fetch_add(1, Ordering::Relaxed) + 1;
        self.job.events.push(print_value(&Value::Object(vec![
            ("event".to_string(), Value::String("result".to_string())),
            ("task".to_string(), Value::Number(Number::U(task_id as u64))),
            ("tasks".to_string(), Value::Number(Number::U(tasks as u64))),
            ("value".to_string(), value.clone()),
        ])));
        if let Some(diag) = self.diagnostics_for(task_id, value) {
            let mut entries = vec![
                (
                    "event".to_string(),
                    Value::String("diagnostics".to_string()),
                ),
                (
                    "completed".to_string(),
                    Value::Number(Number::U(delivered as u64)),
                ),
                ("tasks".to_string(), Value::Number(Number::U(tasks as u64))),
            ];
            if let Some(fields) = diag.as_object() {
                entries.extend(fields.iter().cloned());
            }
            self.job.events.push(print_value(&Value::Object(entries)));
        }
    }
}

/// How one run of a job ended.
#[derive(Debug)]
pub enum JobOutcome {
    /// The driver completed; the report (tagged with its kind) and its
    /// engine accounting.
    Done {
        /// `{"kind": ..., "report": ...}`.
        report: Value,
        /// The run's `run_meta`.
        meta: RunMeta,
    },
    /// The stop flag interrupted the run at a task boundary.
    Interrupted {
        /// Results delivered before the stop.
        completed: usize,
        /// The run's full task count.
        tasks: usize,
    },
    /// The driver failed.
    Failed(String),
}

fn tagged_report(kind: &str, report: Value, meta: RunMeta) -> JobOutcome {
    JobOutcome::Done {
        report: Value::Object(vec![
            ("kind".to_string(), Value::String(kind.to_string())),
            ("report".to_string(), report),
        ]),
        meta,
    }
}

fn engine_outcome(e: EngineError) -> JobOutcome {
    match e {
        EngineError::Interrupted { completed, tasks } => {
            JobOutcome::Interrupted { completed, tasks }
        }
        other => JobOutcome::Failed(other.to_string()),
    }
}

/// Builds the job's workload and runs its driver to completion,
/// interruption, or failure. `workers` is the pool grant for this run —
/// it overrides the submitted config's worker count (results are
/// worker-count-invariant, so this never changes the report).
#[must_use]
pub fn run_job(
    job: &JobState,
    workers: usize,
    ctl: &RunControl,
    journal: &Path,
    resume: bool,
    sync_every: usize,
) -> JobOutcome {
    let ckpt = CheckpointSpec {
        path: journal.to_path_buf(),
        fingerprint: job.fingerprint.clone(),
        resume,
        sync_every,
        allow_complete: false,
    };
    run_driver(&job.spec, workers, ctl, &ckpt)
}

/// Builds the spec's workload and dispatches its driver (whole-campaign
/// or one shard of it) against `ckpt`. `ckpt.fingerprint` must be the
/// spec's base (shard-stripped) [`job_fingerprint`] — the shard path
/// derives its per-shard journal fingerprint from it. Also the finalize
/// entry point `bdlfi-merge` uses to turn a merged shard journal into a
/// report, via [`CheckpointSpec::finalizing`].
#[must_use]
pub fn run_driver(
    spec: &JobSpec,
    workers: usize,
    ctl: &RunControl,
    ckpt: &CheckpointSpec,
) -> JobOutcome {
    let workload = match build_workload(&spec.scenario) {
        Ok(w) => w,
        Err(SpecError(msg)) => return JobOutcome::Failed(format!("workload build failed: {msg}")),
    };
    let mut cfg = *spec.config();
    cfg.workers = workers;
    let ctl = ctl.clone().checkpointed(ckpt.clone());
    // The representation is chosen once; every driver is generic over it.
    match workload.quant {
        Some(qm) => dispatch(spec, qm, workload.eval, &cfg, &ctl),
        None => dispatch(spec, workload.model, workload.eval, &cfg, &ctl),
    }
}

/// The layer prefixes as the layerwise drivers take them.
fn layer_refs(layers: &[String]) -> Vec<&str> {
    layers.iter().map(String::as_str).collect()
}

/// Runs the spec's driver, or one shard of it, over either golden
/// network, journaling to the spec `ctl` carries. A shard's deliverable is
/// its journal (collect it via `GET /jobs/<id>/journal`); its report is a
/// small summary with the shard coordinates and engine accounting.
fn dispatch<N: GoldenModel>(
    spec: &JobSpec,
    net: N,
    eval: Arc<Dataset>,
    cfg: &CampaignConfig,
    ctl: &RunControl,
) -> JobOutcome {
    let sites = &spec.scenario.sites;
    let bind = |net: N, eval| {
        let fault = Arc::new(BernoulliBitFlip::new(spec.scenario.flip_probability));
        net.bind(eval, sites, fault)
    };

    if let Some(shard) = spec.shard {
        let (count, index) = (shard.count, shard.index);
        let result = match &spec.driver {
            DriverSpec::Campaign { .. } => {
                run_campaign_shard(&bind(net, eval), cfg, count, index, ctl)
            }
            DriverSpec::Sweep { ps, .. } => {
                run_sweep_shard(&net, &eval, sites, ps, cfg, count, index, ctl)
            }
            DriverSpec::Layerwise { layers, budget, .. } => run_layerwise_shard(
                &net,
                &eval,
                &layer_refs(layers),
                *budget,
                cfg,
                count,
                index,
                ctl,
            ),
            DriverSpec::AdaptiveCampaign { .. } => {
                // Unreachable past validation; refuse rather than panic.
                return JobOutcome::Failed("adaptive campaigns cannot be sharded".to_string());
            }
        };
        return match result {
            Ok(meta) => {
                let summary = Value::Object(vec![
                    ("index".to_string(), Value::Number(Number::U(index as u64))),
                    ("count".to_string(), Value::Number(Number::U(count as u64))),
                    ("meta".to_string(), meta.to_json_value()),
                ]);
                tagged_report("shard", summary, meta)
            }
            Err(ShardError::Engine(e)) => engine_outcome(e),
            Err(other) => JobOutcome::Failed(other.to_string()),
        };
    }

    let done = match &spec.driver {
        DriverSpec::Campaign { .. } => run_campaign(&bind(net, eval), cfg, ctl)
            .map(|r| ("campaign", r.run_meta, r.to_json_value())),
        DriverSpec::AdaptiveCampaign {
            max_samples_per_chain,
            ..
        } => run_campaign_adaptive(&bind(net, eval), cfg, *max_samples_per_chain, ctl)
            .map(|r| ("campaign", r.run_meta, r.to_json_value())),
        DriverSpec::Sweep { ps, .. } => run_sweep(&net, &eval, sites, ps, cfg, ctl)
            .map(|r| ("sweep", r.run_meta, r.to_json_value())),
        DriverSpec::Layerwise { layers, budget, .. } => {
            run_layerwise(&net, &eval, &layer_refs(layers), *budget, cfg, ctl)
                .map(|r| ("layerwise", r.run_meta, r.to_json_value()))
        }
    };
    match done {
        Ok((kind, meta, report)) => tagged_report(kind, report, meta),
        Err(e) => engine_outcome(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::tests::small_spec;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "bdlfi-serve-jobs-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn submit_persists_and_restart_recovers_status() {
        let dir = tmp_dir("restart");
        let reg = Registry::open(&dir).unwrap();
        let job = reg.submit(small_spec()).unwrap();
        assert_eq!(job.status(), JobStatus::Queued);
        let id = job.id.clone();

        // Pretend the job finished: a report file appears.
        std::fs::write(reg.report_path(&id), "{}").unwrap();
        let reg2 = Registry::open(&dir).unwrap();
        assert_eq!(reg2.get(&id).unwrap().status(), JobStatus::Done);

        // Without a report, a restarted registry treats it as interrupted.
        std::fs::remove_file(reg.report_path(&id)).unwrap();
        let reg3 = Registry::open(&dir).unwrap();
        assert_eq!(reg3.get(&id).unwrap().status(), JobStatus::Interrupted);

        // Ids keep counting upward after a restart.
        let job2 = reg3.submit(small_spec()).unwrap();
        assert!(job2.id > id);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn submit_rejects_invalid_specs_as_client_errors() {
        let dir = tmp_dir("invalid");
        let reg = Registry::open(&dir).unwrap();
        let mut spec = small_spec();
        spec.scenario.flip_probability = 2.0;
        let (client_fault, _) = reg.submit(spec).unwrap_err();
        assert!(client_fault);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn run_job_completes_and_observer_streams_diagnostics() {
        let dir = tmp_dir("run");
        let reg = Registry::open(&dir).unwrap();
        let job = reg.submit(small_spec()).unwrap();
        let observer = Arc::new(JobObserver::new(Arc::clone(&job)));
        let ctl = RunControl::default().observing(Arc::clone(&observer) as Arc<dyn RunObserver>);
        let outcome = run_job(&job, 1, &ctl, &reg.journal_path(&job.id), false, 1);
        let JobOutcome::Done { report, meta } = outcome else {
            panic!("expected completion");
        };
        assert_eq!(report.get("kind").and_then(Value::as_str), Some("campaign"));
        assert_eq!(meta.tasks, 2);
        assert_eq!(observer.delivered(), 2);
        let (lines, _) = job.events.wait_from(0);
        assert!(lines.iter().any(|l| l.contains("\"event\":\"result\"")));
        assert!(lines
            .iter()
            .any(|l| l.contains("\"event\":\"diagnostics\"")));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn event_log_reader_crosses_the_spill_unchanged() {
        use std::sync::mpsc::channel;
        let dir = std::env::temp_dir().join(format!("bdlfi-spill-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("job-000001.events.jsonl");
        let log = Arc::new(EventLog::default());
        let lines: Vec<String> = (0..6)
            .map(|i| format!(r#"{{"event":"result","chain":{i}}}"#))
            .collect();
        for line in &lines[..2] {
            log.push(line.clone());
        }
        let (read_tx, read_rx) = channel();
        let (spilled_tx, spilled_rx) = channel::<()>();
        let reader = {
            let log = Arc::clone(&log);
            std::thread::spawn(move || {
                // Read what exists before the spill, then wait for it.
                let (mut seen, closed) = log.wait_from(0);
                assert!(!closed);
                read_tx.send(seen.len()).unwrap();
                spilled_rx.recv().unwrap();
                loop {
                    let (more, closed) = log.wait_from(seen.len());
                    let drained = more.is_empty();
                    seen.extend(more);
                    if closed && drained {
                        return seen;
                    }
                }
            })
        };
        assert_eq!(read_rx.recv().unwrap(), 2);
        for line in &lines[2..] {
            log.push(line.clone());
        }
        log.spill_to(&path).unwrap();
        assert!(log.inner.lock().unwrap().lines.is_empty());
        spilled_tx.send(()).unwrap();
        assert_eq!(reader.join().unwrap(), lines);
        let expected: String = lines.iter().map(|l| format!("{l}\n")).collect();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), expected);
        assert_eq!(log.wait_from(0), (lines.clone(), true));
        assert_eq!(log.wait_from(6), (Vec::new(), true));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn event_log_readers_drain_after_close() {
        let log = EventLog::default();
        log.push("a".to_string());
        let (lines, closed) = log.wait_from(0);
        assert_eq!(lines, vec!["a".to_string()]);
        assert!(!closed);
        log.close();
        let (rest, closed) = log.wait_from(1);
        assert!(rest.is_empty());
        assert!(closed);
    }
}
