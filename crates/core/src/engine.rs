//! The unified fault-evaluation engine: one worker pool, one seed
//! discipline, one streaming-result contract for every campaign driver.
//!
//! The paper's pipeline is "evaluate many fault configurations, then
//! reason statistically about the results", and point (3) of its case for
//! BDLFI is that those evaluations need only *inference*, so they
//! parallelise trivially. Before this module existed, every driver —
//! MCMC campaigns, sweeps, layerwise studies, boundary maps, the
//! traditional-FI baselines — hand-rolled its own model cloning, RNG
//! seeding, threading and result collection. [`EvalEngine`] consolidates
//! all of that:
//!
//! * a **bounded worker pool** (at most
//!   [`std::thread::available_parallelism`] scoped threads) with a chunked
//!   atomic task queue, so expensive tasks do not serialise the batch;
//! * **per-worker state** built once per worker by an `init` closure —
//!   drivers hand each worker a cloned [`crate::FaultyModel`] (the clone
//!   shares the golden prefix-activation cache, evaluation data and fault
//!   model behind `Arc`s, so a worker costs one network's weights);
//! * a **deterministic seed discipline**: task `i` receives an RNG seeded
//!   with [`seed_stream`]`(engine_seed, i)`, so results are a pure
//!   function of `(seed, task_id)` and therefore bit-identical at any
//!   worker count — the determinism contract the equivalence tests pin;
//! * an **ordered streaming sink** ([`EvalSink`]): results are delivered
//!   to the sink in task order as they complete (a small reorder buffer
//!   holds out-of-order finishers), enabling incremental aggregation and
//!   progress counting without `Mutex<Vec<_>>` plumbing in drivers;
//! * [`RunMeta`] throughput accounting (tasks, workers, elapsed seconds,
//!   tasks/sec) embedded in every driver report for cross-run comparison.

use crate::checkpoint::{CheckpointError, CheckpointHeader, CheckpointWriter, ShardInfo};
use crate::shard::{ShardError, ShardPlan};
use bdlfi_bayes::seed_stream;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Why an engine run did not complete normally. Every variant is
/// *recoverable*: an interrupted or failed campaign leaves its journal (if
/// any) synced, so the caller can report, retry, or resume instead of
/// aborting the process.
#[derive(Debug)]
pub enum EngineError {
    /// Cooperative cancellation: the stop flag was raised (or the
    /// `stop_after` watermark reached) and the engine drained cleanly.
    /// `completed` results were delivered (and journaled, when
    /// checkpointing) — resuming runs only the remaining tasks.
    Interrupted {
        /// Results delivered to the sink before the stop, in task order.
        completed: usize,
        /// The full task count of the run.
        tasks: usize,
    },
    /// A task closure panicked; the run drained and no further tasks ran.
    TaskPanicked {
        /// The task whose closure panicked.
        task_id: usize,
        /// The panic payload, when it carried a message.
        detail: String,
    },
    /// An engine-internal lock was poisoned (a panic elsewhere corrupted
    /// shared state).
    Poisoned(&'static str),
    /// The checkpoint journal could not be written, read, or resumed from.
    Checkpoint(CheckpointError),
    /// A task reported a driver-level failure (e.g. a nested engine run
    /// was interrupted or its sink failed).
    Task {
        /// The task that failed.
        task_id: usize,
        /// The failure, boxed to keep the variant small.
        source: Box<EngineError>,
    },
    /// [`RunMeta::try_merged_with`] pooled accounting from runs over
    /// different engine seeds — the metas describe different campaigns.
    MetaSeedMismatch {
        /// The seed of the meta being merged into.
        expected: u64,
        /// The seed of the meta being merged.
        found: u64,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Interrupted { completed, tasks } => {
                write!(f, "run interrupted after {completed} of {tasks} tasks")
            }
            EngineError::TaskPanicked { task_id, detail } => {
                write!(f, "task {task_id} panicked: {detail}")
            }
            EngineError::Poisoned(what) => write!(f, "engine poisoned: {what}"),
            EngineError::Checkpoint(e) => write!(f, "{e}"),
            EngineError::Task { task_id, source } => {
                write!(f, "task {task_id} failed: {source}")
            }
            EngineError::MetaSeedMismatch { expected, found } => {
                write!(
                    f,
                    "cannot pool run accounting across engine seeds: {expected} vs {found}"
                )
            }
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Checkpoint(e) => Some(e),
            EngineError::Task { source, .. } => Some(source.as_ref()),
            _ => None,
        }
    }
}

impl From<CheckpointError> for EngineError {
    fn from(e: CheckpointError) -> Self {
        EngineError::Checkpoint(e)
    }
}

/// How an engine run (and, transitively, the campaign driver above it) is
/// controlled: a shared stop flag a signal handler or supervisor can
/// raise, a deterministic `stop_after` watermark for tests, a streaming
/// observer, and the checkpoint journal the run writes. The engine checks
/// between tasks and drains cleanly — delivered results stay delivered
/// (and journaled), and the run returns [`EngineError::Interrupted`].
/// Every driver takes one `&RunControl` last; [`RunControl::new`] runs
/// to completion without a journal.
#[derive(Clone, Default)]
pub struct RunControl {
    /// Raise to request a stop at the next task boundary.
    pub stop: Option<Arc<AtomicBool>>,
    /// Stop once this many results (including replayed ones) have been
    /// delivered — a deterministic kill switch for resume tests.
    pub stop_after: Option<usize>,
    /// Observer notified of every delivered result of a checkpointed run
    /// (replayed entries on resume, then live completions, in task
    /// order). `None` — the default — costs nothing: values are only
    /// serialized for observation when an observer is attached.
    pub observer: Option<Arc<dyn RunObserver>>,
    /// Where the run journals its results. `None` — the default — runs
    /// without a journal; shard runs require one (it is their output).
    pub checkpoint: Option<CheckpointSpec>,
}

impl fmt::Debug for RunControl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RunControl")
            .field("stop", &self.stop)
            .field("stop_after", &self.stop_after)
            .field("observer", &self.observer.is_some())
            .field("checkpoint", &self.checkpoint)
            .finish()
    }
}

impl RunControl {
    /// A control that never stops.
    #[must_use]
    pub fn new() -> Self {
        RunControl::default()
    }

    /// A control wired to a shared stop flag.
    #[must_use]
    pub fn with_stop(flag: Arc<AtomicBool>) -> Self {
        RunControl {
            stop: Some(flag),
            ..RunControl::default()
        }
    }

    /// A control that stops after `n` delivered results.
    #[must_use]
    pub fn stop_after(n: usize) -> Self {
        RunControl {
            stop_after: Some(n),
            ..RunControl::default()
        }
    }

    /// The same control with a streaming observer attached.
    #[must_use]
    pub fn observing(mut self, observer: Arc<dyn RunObserver>) -> Self {
        self.observer = Some(observer);
        self
    }

    /// The same control, journaling the run to `spec`.
    #[must_use]
    pub fn checkpointed(mut self, spec: CheckpointSpec) -> Self {
        self.checkpoint = Some(spec);
        self
    }

    /// The same control, its journal bound to `derive()` when it names no
    /// fingerprint — how every driver defaults its journal identity.
    #[must_use]
    pub fn or_fingerprint(&self, derive: impl FnOnce() -> String) -> Self {
        let mut ctl = self.clone();
        if let Some(spec) = &mut ctl.checkpoint {
            if spec.fingerprint.is_empty() {
                spec.fingerprint = derive();
            }
        }
        ctl
    }

    /// The journal of a shard run, which is the shard's whole output: a
    /// control without one is refused before anything runs.
    pub(crate) fn shard_journal(&self) -> Result<&CheckpointSpec, ShardError> {
        self.checkpoint.as_ref().ok_or_else(|| ShardError::Plan {
            detail: "a shard run needs a checkpoint journal (RunControl::checkpointed)".to_string(),
        })
    }

    fn stop_requested(&self) -> bool {
        self.stop
            .as_ref()
            .is_some_and(|s| s.load(Ordering::Relaxed))
    }
}

/// Observes a checkpointed run from outside the sink: called once per
/// delivered result — replayed journal entries first on resume, then live
/// completions, in task order — with the value as the JSON it is (or
/// would be) journaled as. This is the streaming hook the campaign server
/// hangs job-event feeds and live diagnostics off; drivers keep their
/// private [`CollectSink`]s untouched.
///
/// Calls happen inside the engine's ordered delivery path, so
/// implementations must be quick and must never panic or block
/// indefinitely (push into a queue, notify a condvar).
pub trait RunObserver: Send + Sync {
    /// Result `task_id` of a `tasks`-task run became durable with `value`.
    /// For open-ended (segmented) runs `tasks` is the segment budget.
    fn on_result(&self, task_id: usize, tasks: usize, value: &serde::Value);
}

/// Where (and how) a checkpointed run journals its results.
#[derive(Debug, Clone)]
pub struct CheckpointSpec {
    /// The journal file.
    pub path: PathBuf,
    /// [`crate::checkpoint::fingerprint`] of the driver + config, binding
    /// the journal to one campaign identity.
    pub fingerprint: String,
    /// Resume from an existing journal (replay + continue) instead of
    /// creating a fresh one.
    pub resume: bool,
    /// Fsync the journal once every this many appends.
    pub sync_every: usize,
    /// With `resume`, reopen an already-complete journal for pure replay
    /// (zero live tasks) instead of raising
    /// [`CheckpointError::AlreadyComplete`] — the finalize path that
    /// assembles a report from a merged shard journal.
    pub allow_complete: bool,
}

impl CheckpointSpec {
    /// A fresh-journal spec with the default sync batch (32 appends).
    #[must_use]
    pub fn new(path: impl Into<PathBuf>, fingerprint: String) -> Self {
        CheckpointSpec {
            path: path.into(),
            fingerprint,
            resume: false,
            sync_every: 32,
            allow_complete: false,
        }
    }

    /// The same spec, resuming from the existing journal.
    #[must_use]
    pub fn resuming(mut self) -> Self {
        self.resume = true;
        self
    }

    /// The same spec, resuming and accepting an already-complete journal:
    /// every result replays, no task runs, and the driver assembles its
    /// report exactly as an uninterrupted run would.
    #[must_use]
    pub fn finalizing(mut self) -> Self {
        self.resume = true;
        self.allow_complete = true;
        self
    }
}

/// Execution metadata of one engine run, embedded in every driver report.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RunMeta {
    /// Number of tasks executed.
    pub tasks: usize,
    /// Worker threads the pool ran with.
    pub workers: usize,
    /// Wall-clock duration of the run in seconds.
    pub elapsed_secs: f64,
    /// Throughput: tasks (fault configurations, chains, …) per second.
    pub tasks_per_sec: f64,
    /// The engine seed the per-task RNG streams were derived from.
    pub seed: u64,
    /// When the run resumed from a checkpoint journal: how many task
    /// results were replayed rather than recomputed.
    pub resumed_from: Option<usize>,
    /// Evaluations served by the sparse-delta path during this run.
    pub delta_hits: u64,
    /// Evaluations routed to the exact fallback (incremental dense path)
    /// during this run.
    pub delta_fallbacks: u64,
    /// When resuming: the journal ended in a torn final line (the
    /// expected artifact of a kill between batched fsyncs) that was
    /// truncated away before the resume continued.
    pub truncated_tail: bool,
}

// The vendored serde derive cannot mark struct fields optional, so RunMeta
// implements the traits by hand: reports serialized before they carried a
// `run_meta` field deserialize with `RunMeta::default()` in its place.
impl Serialize for RunMeta {
    fn to_json_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("tasks".to_string(), self.tasks.to_json_value()),
            ("workers".to_string(), self.workers.to_json_value()),
            (
                "elapsed_secs".to_string(),
                self.elapsed_secs.to_json_value(),
            ),
            (
                "tasks_per_sec".to_string(),
                self.tasks_per_sec.to_json_value(),
            ),
            ("seed".to_string(), self.seed.to_json_value()),
            (
                "resumed_from".to_string(),
                self.resumed_from.to_json_value(),
            ),
            ("delta_hits".to_string(), self.delta_hits.to_json_value()),
            (
                "delta_fallbacks".to_string(),
                self.delta_fallbacks.to_json_value(),
            ),
            (
                "truncated_tail".to_string(),
                self.truncated_tail.to_json_value(),
            ),
        ])
    }
}

impl Deserialize for RunMeta {
    fn from_json_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let entries = v
            .as_object()
            .ok_or_else(|| serde::DeError::expected("object", "RunMeta"))?;
        Ok(RunMeta {
            tasks: serde::from_field(entries, "tasks", "RunMeta")?,
            workers: serde::from_field(entries, "workers", "RunMeta")?,
            elapsed_secs: serde::from_field(entries, "elapsed_secs", "RunMeta")?,
            tasks_per_sec: serde::from_field(entries, "tasks_per_sec", "RunMeta")?,
            seed: serde::from_field(entries, "seed", "RunMeta")?,
            resumed_from: serde::from_field(entries, "resumed_from", "RunMeta")?,
            // Added after reports already existed in the wild: absent means
            // the producing run predates the sparse-delta path.
            delta_hits: opt_counter(entries, "delta_hits")?,
            delta_fallbacks: opt_counter(entries, "delta_fallbacks")?,
            // Also late additions: absent means the run predates torn-tail
            // recovery (so nothing was ever truncated).
            truncated_tail: opt_flag(entries, "truncated_tail")?,
        })
    }

    fn missing_field_default() -> Option<Self> {
        Some(RunMeta::default())
    }
}

/// Reads a counter field that older reports do not carry: absent means 0.
/// (The vendored serde errors on missing non-`Option` fields, so the
/// back-compat default has to live here.)
fn opt_counter(entries: &[(String, serde::Value)], name: &str) -> Result<u64, serde::DeError> {
    match entries.iter().find(|(k, _)| k == name) {
        Some((_, v)) => u64::from_json_value(v),
        None => Ok(0),
    }
}

/// Like [`opt_counter`] for boolean flags: absent means `false`.
fn opt_flag(entries: &[(String, serde::Value)], name: &str) -> Result<bool, serde::DeError> {
    match entries.iter().find(|(k, _)| k == name) {
        Some((_, v)) => bool::from_json_value(v),
        None => Ok(false),
    }
}

impl RunMeta {
    /// Pools this run's accounting with a later run over the same engine
    /// seed — used by segmented drivers (adaptive campaigns) that issue
    /// several engine runs per report, and by the campaign server's
    /// per-job accounting across resume attempts.
    ///
    /// **Serial-segments assumption:** `tasks_per_sec` is recomputed from
    /// the *summed* wall-clock, which is only meaningful when the merged
    /// segments ran back to back (as the adaptive driver's do, and as a
    /// job's interrupt/resume attempts do). Segments that overlapped in
    /// time — e.g. a daemon running two runs concurrently — would
    /// double-count wall-clock and understate throughput; do not pool
    /// those with this method.
    ///
    /// Both metas must describe runs over the same engine seed: anything
    /// else is pooling accounting across different campaigns. That is a
    /// debug assertion here; server request paths use
    /// [`RunMeta::try_merged_with`], which surfaces it as a typed error
    /// instead.
    #[must_use]
    pub fn merged_with(self, later: RunMeta) -> RunMeta {
        debug_assert_eq!(
            self.seed, later.seed,
            "RunMeta::merged_with across engine seeds ({} vs {})",
            self.seed, later.seed
        );
        let tasks = self.tasks + later.tasks;
        let elapsed_secs = self.elapsed_secs + later.elapsed_secs;
        RunMeta {
            tasks,
            workers: self.workers.max(later.workers),
            elapsed_secs,
            tasks_per_sec: if elapsed_secs > 0.0 {
                tasks as f64 / elapsed_secs
            } else {
                0.0
            },
            seed: self.seed,
            // Summing (None counts as 0) makes the merge commutative and
            // associative, so an N-way shard merge is deterministic
            // regardless of arrival order. A single interrupt-then-resume
            // pair still pools to the resume's replay count, since the
            // interrupted attempt has `resumed_from: None`.
            resumed_from: match (self.resumed_from, later.resumed_from) {
                (None, None) => None,
                (a, b) => Some(a.unwrap_or(0) + b.unwrap_or(0)),
            },
            delta_hits: self.delta_hits + later.delta_hits,
            delta_fallbacks: self.delta_fallbacks + later.delta_fallbacks,
            truncated_tail: self.truncated_tail || later.truncated_tail,
        }
    }

    /// [`RunMeta::merged_with`] with the seed check surfaced as a typed
    /// [`EngineError::MetaSeedMismatch`] instead of a debug assertion —
    /// the form the campaign server uses on request paths, where bad
    /// accounting must become an error response, never a crash.
    ///
    /// # Errors
    ///
    /// [`EngineError::MetaSeedMismatch`] when the two metas come from
    /// runs over different engine seeds.
    pub fn try_merged_with(self, later: RunMeta) -> Result<RunMeta, EngineError> {
        if self.seed != later.seed {
            return Err(EngineError::MetaSeedMismatch {
                expected: self.seed,
                found: later.seed,
            });
        }
        Ok(self.merged_with(later))
    }

    /// Pools the accounting of N runs over the same engine seed — the
    /// shard-merge form of [`RunMeta::try_merged_with`]. Every pooled
    /// field is commutative and associative (sums, maxes, OR), so the
    /// result is identical for every arrival order of the shards.
    /// Returns `None` for an empty iterator.
    ///
    /// # Errors
    ///
    /// [`EngineError::MetaSeedMismatch`] when any two metas come from
    /// runs over different engine seeds.
    pub fn try_merged_many(
        metas: impl IntoIterator<Item = RunMeta>,
    ) -> Result<Option<RunMeta>, EngineError> {
        let mut iter = metas.into_iter();
        let Some(first) = iter.next() else {
            return Ok(None);
        };
        iter.try_fold(first, RunMeta::try_merged_with).map(Some)
    }
}

/// Receives task results *in task order* as they complete.
///
/// The engine guarantees `accept(0, _)`, `accept(1, _)`, … exactly once
/// each, in order, regardless of which workers finish first — so sinks can
/// aggregate incrementally (running means, per-bit counters, progress
/// bars) without buffering or locking of their own.
pub trait EvalSink<T> {
    /// Consumes the result of task `task_id`.
    ///
    /// # Errors
    ///
    /// A sink may fail recoverably (e.g. streaming results to a file that
    /// ran out of space); the engine drains and surfaces the error instead
    /// of panicking.
    fn accept(&mut self, task_id: usize, value: T) -> Result<(), EngineError>;
}

/// The simplest sink: collects every result into a `Vec` in task order.
#[derive(Debug)]
pub struct CollectSink<T> {
    items: Vec<T>,
}

impl<T> CollectSink<T> {
    /// An empty sink.
    #[must_use]
    pub fn new() -> Self {
        CollectSink { items: Vec::new() }
    }

    /// The collected results, in task order.
    #[must_use]
    pub fn into_inner(self) -> Vec<T> {
        self.items
    }
}

impl<T> Default for CollectSink<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EvalSink<T> for CollectSink<T> {
    fn accept(&mut self, task_id: usize, value: T) -> Result<(), EngineError> {
        debug_assert_eq!(task_id, self.items.len(), "sink delivery out of order");
        self.items.push(value);
        Ok(())
    }
}

/// A sink that discards every result. Shard runners use it: a shard's
/// deliverable is its journal, and the report is assembled later by the
/// merge-and-finalize path, so nothing needs collecting in-process.
#[derive(Debug, Default)]
pub struct NullSink;

impl<T> EvalSink<T> for NullSink {
    fn accept(&mut self, _task_id: usize, _value: T) -> Result<(), EngineError> {
        Ok(())
    }
}

/// Per-task context handed to the task closure: the task's index and its
/// private, deterministically derived RNG stream.
pub struct TaskCtx {
    /// Index of this task in `0..tasks`.
    pub task_id: usize,
    /// RNG seeded with `seed_stream(engine_seed, task_id)` — never shared
    /// between tasks, so results cannot depend on execution interleaving.
    pub rng: StdRng,
}

/// The shared evaluation executor. See the module docs for the contract.
#[derive(Debug, Clone, Copy)]
pub struct EvalEngine {
    seed: u64,
    workers: usize,
}

/// Receives each delivered result before the sink — the hook the
/// checkpoint writer plugs into. Deliveries arrive in task order, so the
/// journal is always a contiguous result prefix.
trait Journal<T> {
    fn record(&mut self, task_id: usize, value: &T) -> Result<(), CheckpointError>;
    fn sync(&mut self) -> Result<(), CheckpointError>;
}

/// The no-op journal plain (non-checkpointed) runs use.
struct NoJournal;

impl<T> Journal<T> for NoJournal {
    fn record(&mut self, _task_id: usize, _value: &T) -> Result<(), CheckpointError> {
        Ok(())
    }
    fn sync(&mut self) -> Result<(), CheckpointError> {
        Ok(())
    }
}

impl<T: Serialize> Journal<T> for CheckpointWriter {
    fn record(&mut self, task_id: usize, value: &T) -> Result<(), CheckpointError> {
        self.append(task_id, value)
    }
    fn sync(&mut self) -> Result<(), CheckpointError> {
        CheckpointWriter::sync(self)
    }
}

/// Journal wrapper that feeds every recorded result to a [`RunObserver`]
/// before delegating — the adapter that lets streaming consumers (the
/// campaign server's job event feeds) see results the moment they enter
/// the ordered delivery path, without touching the drivers' private sinks.
struct Observed<'o, J> {
    inner: J,
    observer: Option<&'o Arc<dyn RunObserver>>,
    tasks: usize,
}

impl<T: Serialize, J: Journal<T>> Journal<T> for Observed<'_, J> {
    fn record(&mut self, task_id: usize, value: &T) -> Result<(), CheckpointError> {
        if let Some(obs) = self.observer {
            obs.on_result(task_id, self.tasks, &value.to_json_value());
        }
        self.inner.record(task_id, value)
    }
    fn sync(&mut self) -> Result<(), CheckpointError> {
        self.inner.sync()
    }
}

/// Reorder buffer + journal + sink behind one lock: workers insert
/// completions and drain the contiguous prefix (journal first, then sink).
struct Delivery<'s, T, S: ?Sized, J> {
    next: usize,
    pending: BTreeMap<usize, T>,
    sink: &'s mut S,
    journal: &'s mut J,
    error: Option<EngineError>,
}

fn panic_detail(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

impl EvalEngine {
    /// An engine whose per-task RNG streams derive from `seed`, using all
    /// available cores.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        EvalEngine { seed, workers: 0 }
    }

    /// An engine with an explicit worker-thread count (`0` = all available
    /// cores). Results are identical for every worker count; this knob
    /// exists for the determinism tests and for serial baselines.
    #[must_use]
    pub fn with_workers(seed: u64, workers: usize) -> Self {
        EvalEngine { seed, workers }
    }

    /// The seed the per-task streams derive from.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The worker count a run over `tasks` tasks would use.
    #[must_use]
    pub fn workers_for(&self, tasks: usize) -> usize {
        let cap = if self.workers == 0 {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        } else {
            self.workers
        };
        cap.min(tasks).max(1)
    }

    /// Runs `tasks` tasks on the pool and streams results into `sink` in
    /// task order.
    ///
    /// `init` builds each worker's private state once (typically a cloned
    /// `FaultyModel` or network); `task` is then called for every task the
    /// worker claims, with that state and the task's [`TaskCtx`]. For the
    /// worker-count-invariance guarantee to hold, `task` must leave the
    /// worker state as it found it (fault evaluations restore weights via
    /// the XOR involution, so this is the natural driver behaviour).
    ///
    /// # Panics
    ///
    /// Propagates panics from `init`, `task` or the sink (as well as any
    /// [`EngineError`] a sink returns — plain runs have no recovery
    /// story; use [`EvalEngine::run_checkpointed`] for fallible runs).
    pub fn run<W, T, I, F, S>(&self, tasks: usize, init: I, task: F, sink: &mut S) -> RunMeta
    where
        T: Send,
        I: Fn() -> W + Sync,
        F: Fn(&mut W, &mut TaskCtx) -> T + Sync,
        S: EvalSink<T> + Send + ?Sized,
    {
        let started = Instant::now();
        match self.run_inner(
            0,
            tasks,
            0,
            &init,
            &|w: &mut W, ctx: &mut TaskCtx| Ok(task(w, ctx)),
            sink,
            &mut NoJournal,
            &RunControl::default(),
            started,
        ) {
            Ok(meta) => meta,
            Err(EngineError::TaskPanicked { task_id, detail }) => {
                // bdlfi-lint: allow(BD010) -- `run` is the documented panicking convenience wrapper (see `# Panics`); fallible callers use `run_checkpointed`
                panic!("task {task_id} panicked: {detail}")
            }
            // bdlfi-lint: allow(BD010) -- same documented `# Panics` API boundary as above
            Err(e) => panic!("engine run failed: {e}"),
        }
    }

    /// [`EvalEngine::run`] with cooperative cancellation and an optional
    /// durable checkpoint journal, both read from `ctl`.
    ///
    /// With a [`RunControl::checkpoint`], every delivered result is
    /// appended to a crash-safe JSONL journal *in task order* (fsync'd in
    /// batches and on stop). On `resume`, the journal's
    /// fingerprint/seed/task-count are verified, the journaled results are
    /// replayed into `sink` (marked in [`RunMeta::resumed_from`]) and only
    /// the remaining tasks execute — bit-identical to an uninterrupted
    /// run, because each task is a pure function of `(engine_seed,
    /// task_id)`.
    ///
    /// `task` returns a `Result` so nested engine runs (drivers that run a
    /// campaign per task) can surface their own interruptions/failures;
    /// the first error drains the pool and is returned.
    ///
    /// # Errors
    ///
    /// [`EngineError::Interrupted`] when `ctl` stopped the run (delivered
    /// results are journaled; resume to finish), plus every failure mode
    /// of the journal, the sink, and the tasks.
    #[allow(clippy::missing_panics_doc)] // replay delivers < tasks entries
    pub fn run_checkpointed<W, T, I, F, S>(
        &self,
        tasks: usize,
        init: I,
        task: F,
        sink: &mut S,
        ctl: &RunControl,
    ) -> Result<RunMeta, EngineError>
    where
        T: Send + Serialize + Deserialize,
        I: Fn() -> W + Sync,
        F: Fn(&mut W, &mut TaskCtx) -> Result<T, EngineError> + Sync,
        S: EvalSink<T> + Send + ?Sized,
    {
        let started = Instant::now();
        let Some(spec) = &ctl.checkpoint else {
            let mut journal = Observed {
                inner: NoJournal,
                observer: ctl.observer.as_ref(),
                tasks,
            };
            return self.run_inner(0, tasks, 0, &init, &task, sink, &mut journal, ctl, started);
        };
        self.run_journaled(
            0, tasks, tasks, None, &init, &task, sink, ctl, spec, started,
        )
    }

    /// Runs shard `index` of `plan`: the shard's global task range
    /// executes with its **global** task ids (so every task draws the same
    /// seed stream it would in an unsharded run), journaled to the
    /// mandatory shard journal `ctl` carries, whose header holds the
    /// shard's [`ShardInfo`] and binds [`ShardPlan::shard_fingerprint`] —
    /// the engine writes every per-shard fingerprint, so the journal's own
    /// fingerprint is ignored here (the plan carries the unsharded one).
    /// Resume semantics — replay, torn-tail truncation,
    /// [`RunMeta::resumed_from`] — are exactly those of
    /// [`EvalEngine::run_checkpointed`], scoped to the shard's range.
    /// [`RunMeta::tasks`] is the shard length; observers see the plan's
    /// total as the task count.
    ///
    /// # Errors
    ///
    /// [`ShardError::Plan`] when `ctl` carries no journal (nothing is
    /// written); [`ShardError::IndexOutOfRange`] for an index outside the
    /// plan; otherwise [`ShardError::Engine`] wrapping the failure modes
    /// of [`EvalEngine::run_checkpointed`] (`Interrupted::completed`
    /// counts this shard's delivered results).
    pub fn run_shard_checkpointed<W, T, I, F, S>(
        &self,
        plan: &ShardPlan,
        index: usize,
        init: I,
        task: F,
        sink: &mut S,
        ctl: &RunControl,
    ) -> Result<RunMeta, ShardError>
    where
        T: Send + Serialize + Deserialize,
        I: Fn() -> W + Sync,
        F: Fn(&mut W, &mut TaskCtx) -> Result<T, EngineError> + Sync,
        S: EvalSink<T> + Send + ?Sized,
    {
        let started = Instant::now();
        let journal = ctl.shard_journal()?;
        let shard = plan.info(index)?;
        let range = plan.range(index)?;
        let spec = CheckpointSpec {
            fingerprint: plan.shard_fingerprint(index),
            ..journal.clone()
        };
        Ok(self.run_journaled(
            range.start,
            range.end,
            shard.total,
            Some(shard),
            &init,
            &task,
            sink,
            ctl,
            &spec,
            started,
        )?)
    }

    /// The journaled half of both checkpointed entry points: create or
    /// resume the journal for tasks `lo..hi` (headered with `shard` when
    /// sharded), replay its entries, then execute the remainder.
    #[allow(clippy::too_many_arguments)]
    fn run_journaled<W, T, I, F, S>(
        &self,
        lo: usize,
        hi: usize,
        total: usize,
        shard: Option<ShardInfo>,
        init: &I,
        task: &F,
        sink: &mut S,
        ctl: &RunControl,
        spec: &CheckpointSpec,
        started: Instant,
    ) -> Result<RunMeta, EngineError>
    where
        T: Send + Serialize + Deserialize,
        I: Fn() -> W + Sync,
        F: Fn(&mut W, &mut TaskCtx) -> Result<T, EngineError> + Sync,
        S: EvalSink<T> + Send + ?Sized,
    {
        let header = CheckpointHeader {
            fingerprint: spec.fingerprint.clone(),
            seed: self.seed,
            tasks: hi - lo,
            shard,
        };
        let (writer, replay) = if spec.resume {
            let (writer, replay) = CheckpointWriter::resume_with(
                &spec.path,
                &header,
                spec.sync_every,
                spec.allow_complete,
            )?;
            (writer, Some(replay))
        } else {
            (
                CheckpointWriter::create(&spec.path, &header, spec.sync_every)?,
                None,
            )
        };
        let truncated_tail = replay.as_ref().is_some_and(|r| r.truncated_tail);
        let replayed = replay.map(|r| r.values).unwrap_or_default();
        let start = lo + replayed.len();
        assert!(
            start < hi || hi == lo || spec.allow_complete,
            "resume rejects complete journals"
        );
        for (i, v) in replayed.iter().enumerate() {
            if let Some(obs) = &ctl.observer {
                obs.on_result(lo + i, total, v);
            }
            let value = T::from_json_value(v).map_err(|e| CheckpointError::Corrupt {
                line: i + 2,
                detail: format!("journaled value does not deserialize: {e}"),
            })?;
            sink.accept(lo + i, value)?;
        }
        let mut journal = Observed {
            inner: writer,
            observer: ctl.observer.as_ref(),
            tasks: total,
        };
        let mut meta =
            self.run_inner(lo, hi, start, init, task, sink, &mut journal, ctl, started)?;
        if start > lo {
            meta.resumed_from = Some(start - lo);
        }
        meta.truncated_tail = truncated_tail;
        Ok(meta)
    }

    /// The one execution path under both `run` flavours: tasks
    /// `start..hi` of the run's range `lo..hi` execute (the journal
    /// already covers `lo..start`), results are delivered in task order to
    /// `journal` then `sink`, and `ctl` is consulted at every task
    /// boundary. Unsharded runs have `lo == 0`; shard runs offset the
    /// range so every task keeps its global id (and seed stream), while
    /// all counts reported outward — `Interrupted::completed`,
    /// [`RunMeta::tasks`], the `stop_after` watermark — stay relative to
    /// the range.
    #[allow(clippy::too_many_arguments)]
    fn run_inner<W, T, I, F, S, J>(
        &self,
        lo: usize,
        hi: usize,
        start: usize,
        init: &I,
        task: &F,
        sink: &mut S,
        journal: &mut J,
        ctl: &RunControl,
        started: Instant,
    ) -> Result<RunMeta, EngineError>
    where
        T: Send,
        I: Fn() -> W + Sync,
        F: Fn(&mut W, &mut TaskCtx) -> Result<T, EngineError> + Sync,
        S: EvalSink<T> + Send + ?Sized,
        J: Journal<T> + Send,
    {
        let workers = self.workers_for(hi - start);
        if hi == start {
            journal.sync()?;
            return Ok(self.meta(hi - lo, workers, started));
        }
        let stop_at = lo.saturating_add(ctl.stop_after.unwrap_or(usize::MAX));

        if workers == 1 {
            // Serial fast path — bit-identical to the pooled path because
            // every task owns its seed stream.
            let mut state = init();
            for i in start..hi {
                if ctl.stop_requested() || i >= stop_at {
                    journal.sync()?;
                    return Err(EngineError::Interrupted {
                        completed: i - lo,
                        tasks: hi - lo,
                    });
                }
                let mut ctx = self.ctx(i);
                let value = match catch_unwind(AssertUnwindSafe(|| task(&mut state, &mut ctx))) {
                    Ok(Ok(v)) => v,
                    Ok(Err(e)) => {
                        journal.sync()?;
                        return Err(EngineError::Task {
                            task_id: i,
                            source: Box::new(e),
                        });
                    }
                    Err(payload) => {
                        journal.sync()?;
                        return Err(EngineError::TaskPanicked {
                            task_id: i,
                            detail: panic_detail(payload),
                        });
                    }
                };
                journal.record(i, &value)?;
                sink.accept(i, value)?;
            }
            journal.sync()?;
            return Ok(self.meta(hi - lo, 1, started));
        }

        // Chunked atomic queue: big enough chunks to amortise contention,
        // small enough that long tasks do not serialise the batch.
        let chunk = ((hi - start) / (workers * 4)).max(1);
        let next = AtomicUsize::new(start);
        // Raised on stop/error: workers stop claiming and drain out.
        let abort = AtomicBool::new(false);
        // Distinguishes a cooperative stop from an error drain.
        let interrupted = AtomicBool::new(false);
        let delivery = Mutex::new(Delivery {
            next: start,
            pending: BTreeMap::new(),
            sink,
            journal,
            error: None,
        });

        std::thread::scope(|scope| {
            for _ in 0..workers {
                let next = &next;
                let abort = &abort;
                let interrupted = &interrupted;
                let delivery = &delivery;
                scope.spawn(move || {
                    let mut state = init();
                    loop {
                        if abort.load(Ordering::Relaxed) {
                            return;
                        }
                        let claim = next.fetch_add(chunk, Ordering::Relaxed);
                        if claim >= hi {
                            return;
                        }
                        for i in claim..(claim + chunk).min(hi) {
                            if abort.load(Ordering::Relaxed) {
                                return;
                            }
                            if ctl.stop_requested() {
                                interrupted.store(true, Ordering::Relaxed);
                                abort.store(true, Ordering::Relaxed);
                                return;
                            }
                            let mut ctx = self.ctx(i);
                            let outcome =
                                catch_unwind(AssertUnwindSafe(|| task(&mut state, &mut ctx)));
                            let Ok(mut d) = delivery.lock() else {
                                abort.store(true, Ordering::Relaxed);
                                return;
                            };
                            match outcome {
                                Ok(Ok(v)) => {
                                    d.pending.insert(i, v);
                                }
                                Ok(Err(e)) => {
                                    d.error.get_or_insert(EngineError::Task {
                                        task_id: i,
                                        source: Box::new(e),
                                    });
                                    abort.store(true, Ordering::Relaxed);
                                    return;
                                }
                                Err(payload) => {
                                    d.error.get_or_insert(EngineError::TaskPanicked {
                                        task_id: i,
                                        detail: panic_detail(payload),
                                    });
                                    abort.store(true, Ordering::Relaxed);
                                    return;
                                }
                            }
                            // Drain the contiguous prefix: journal, then
                            // sink, stopping at the watermark.
                            while d.error.is_none() {
                                if d.next >= stop_at {
                                    interrupted.store(true, Ordering::Relaxed);
                                    abort.store(true, Ordering::Relaxed);
                                    break;
                                }
                                let id = d.next;
                                let Some(v) = d.pending.remove(&id) else {
                                    break;
                                };
                                if let Err(e) = d.journal.record(id, &v) {
                                    d.error = Some(e.into());
                                    abort.store(true, Ordering::Relaxed);
                                    break;
                                }
                                if let Err(e) = d.sink.accept(id, v) {
                                    d.error = Some(e);
                                    abort.store(true, Ordering::Relaxed);
                                    break;
                                }
                                d.next += 1;
                            }
                        }
                    }
                });
            }
        });

        let d = delivery
            .into_inner()
            .map_err(|_| EngineError::Poisoned("engine delivery lock"))?;
        let completed = d.next - lo;
        let sync_result = d.journal.sync();
        if let Some(e) = d.error {
            return Err(e);
        }
        sync_result?;
        if interrupted.load(Ordering::Relaxed) {
            return Err(EngineError::Interrupted {
                completed,
                tasks: hi - lo,
            });
        }
        assert_eq!(
            completed,
            hi - lo,
            "engine delivered {completed} of {} tasks",
            hi - lo
        );
        Ok(self.meta(hi - lo, workers, started))
    }

    /// Maps owned `items` through `f` on the pool, returning outputs in
    /// input order. Item `i` runs as task `i` (same seed discipline as
    /// [`EvalEngine::run`]); this is the fan-out primitive for drivers
    /// whose tasks carry distinct payloads (per-layer campaigns, sweep
    /// points, MCMC chain workers moved through a segment).
    pub fn map<I, T, F>(&self, items: Vec<I>, f: F) -> (Vec<T>, RunMeta)
    where
        I: Send,
        T: Send,
        F: Fn(&mut TaskCtx, I) -> T + Sync,
    {
        let slots: Vec<Mutex<Option<I>>> = items.into_iter().map(|i| Mutex::new(Some(i))).collect();
        let mut sink = CollectSink::new();
        let meta = self.run(
            slots.len(),
            || (),
            |(), ctx| {
                // A poisoned slot only means another worker panicked while
                // holding the lock; the item inside is still intact, so
                // recover it rather than cascading the panic.
                // bdlfi-lint: allow(BD010) -- in-bounds by construction: `slots` has one entry per task id the dispatcher hands out
                let mut slot = slots[ctx.task_id]
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                let item = slot
                    .take()
                    // bdlfi-lint: allow(BD010) -- unreachable by construction: run_inner's atomic counter hands out each task id exactly once
                    .expect("engine task claimed twice");
                f(ctx, item)
            },
            &mut sink,
        );
        (sink.into_inner(), meta)
    }

    fn ctx(&self, task_id: usize) -> TaskCtx {
        TaskCtx {
            task_id,
            rng: StdRng::seed_from_u64(seed_stream(self.seed, task_id as u64)),
        }
    }

    fn meta(&self, tasks: usize, workers: usize, started: Instant) -> RunMeta {
        let elapsed_secs = started.elapsed().as_secs_f64();
        RunMeta {
            tasks,
            workers,
            elapsed_secs,
            tasks_per_sec: if elapsed_secs > 0.0 {
                tasks as f64 / elapsed_secs
            } else {
                0.0
            },
            seed: self.seed,
            resumed_from: None,
            delta_hits: 0,
            delta_fallbacks: 0,
            truncated_tail: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngExt;

    /// Records the arrival order of task ids.
    struct OrderSink(Vec<usize>);
    impl EvalSink<u64> for OrderSink {
        fn accept(&mut self, task_id: usize, _value: u64) -> Result<(), EngineError> {
            self.0.push(task_id);
            Ok(())
        }
    }

    fn draws(workers: usize, tasks: usize, seed: u64) -> Vec<u64> {
        let engine = EvalEngine::with_workers(seed, workers);
        let mut sink = CollectSink::new();
        engine.run(tasks, || (), |(), ctx| ctx.rng.random::<u64>(), &mut sink);
        sink.into_inner()
    }

    #[test]
    fn sink_receives_results_in_task_order() {
        for workers in [1, 2, 5] {
            let engine = EvalEngine::with_workers(0, workers);
            let mut sink = OrderSink(Vec::new());
            engine.run(137, || (), |(), ctx| ctx.task_id as u64, &mut sink);
            assert_eq!(sink.0, (0..137).collect::<Vec<_>>(), "workers={workers}");
        }
    }

    #[test]
    fn results_are_invariant_to_worker_count() {
        let serial = draws(1, 100, 42);
        for workers in [2, 3, 8] {
            assert_eq!(draws(workers, 100, 42), serial, "workers={workers}");
        }
    }

    #[test]
    fn tasks_get_disjoint_rng_streams() {
        let d = draws(4, 256, 7);
        let unique: std::collections::HashSet<_> = d.iter().collect();
        assert_eq!(unique.len(), d.len());
    }

    #[test]
    fn different_seeds_give_different_streams() {
        assert_ne!(draws(2, 32, 1), draws(2, 32, 2));
        assert_eq!(draws(2, 32, 1), draws(2, 32, 1));
    }

    #[test]
    fn init_runs_once_per_worker_and_state_persists() {
        let inits = AtomicUsize::new(0);
        let engine = EvalEngine::with_workers(0, 3);
        let mut sink = CollectSink::new();
        engine.run(
            64,
            || {
                inits.fetch_add(1, Ordering::SeqCst);
                0usize // per-worker task counter
            },
            |count, _ctx| {
                *count += 1;
                *count
            },
            &mut sink,
        );
        let inits = inits.load(Ordering::SeqCst);
        assert!(inits <= 3, "{inits} inits for 3 workers");
        // Every task ran against a persistent worker state: a worker that
        // processed k tasks delivered exactly the values 1..=k, so the
        // pooled multiset has non-increasing occurrence counts, starting
        // from one `1` per active worker. (A worker may legitimately see
        // zero tasks if another drains the queue first.)
        let values = sink.into_inner();
        assert_eq!(values.len(), 64);
        let max = *values.iter().max().expect("non-empty");
        let mut counts = vec![0usize; max + 1];
        for &v in &values {
            counts[v] += 1;
        }
        let active = counts[1];
        assert!(
            (1..=inits).contains(&active),
            "{active} active workers for {inits} inits"
        );
        for v in 1..max {
            assert!(
                counts[v] >= counts[v + 1],
                "counter gap at {v}: {} < {}",
                counts[v],
                counts[v + 1]
            );
        }
    }

    #[test]
    fn map_preserves_input_order_and_consumes_each_item_once() {
        let engine = EvalEngine::with_workers(9, 4);
        let items: Vec<String> = (0..50).map(|i| format!("item-{i}")).collect();
        let (out, meta) = engine.map(items, |ctx, s| format!("{s}@{}", ctx.task_id));
        assert_eq!(out.len(), 50);
        for (i, s) in out.iter().enumerate() {
            assert_eq!(s, &format!("item-{i}@{i}"));
        }
        assert_eq!(meta.tasks, 50);
    }

    #[test]
    fn zero_tasks_is_a_no_op() {
        let engine = EvalEngine::new(0);
        let mut sink = CollectSink::<u64>::new();
        let meta = engine.run(0, || (), |(), _| 0u64, &mut sink);
        assert_eq!(meta.tasks, 0);
        assert!(sink.into_inner().is_empty());
    }

    #[test]
    fn worker_count_is_bounded_by_tasks_and_request() {
        let engine = EvalEngine::with_workers(0, 8);
        assert_eq!(engine.workers_for(3), 3);
        assert_eq!(engine.workers_for(100), 8);
        let auto = EvalEngine::new(0);
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(auto.workers_for(1_000_000), cores);
    }

    #[test]
    #[should_panic]
    fn task_panics_propagate() {
        let engine = EvalEngine::with_workers(0, 2);
        let mut sink = CollectSink::new();
        engine.run(
            8,
            || (),
            |(), ctx| {
                assert!(ctx.task_id != 5, "boom");
                ctx.task_id
            },
            &mut sink,
        );
    }

    fn ckpt_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("bdlfi_engine_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn stop_after_interrupts_and_resume_is_bit_identical() {
        let reference = draws(1, 64, 11);
        for workers in [1, 4] {
            let dir = ckpt_dir(&format!("resume_{workers}"));
            let spec = CheckpointSpec::new(dir.join("j.jsonl"), "fp".to_string());
            let engine = EvalEngine::with_workers(11, workers);

            let mut sink = CollectSink::new();
            let err = engine
                .run_checkpointed(
                    64,
                    || (),
                    |(), ctx| Ok(ctx.rng.random::<u64>()),
                    &mut sink,
                    &RunControl::stop_after(20).checkpointed(spec.clone()),
                )
                .unwrap_err();
            let completed = match err {
                EngineError::Interrupted { completed, tasks } => {
                    assert_eq!(tasks, 64);
                    completed
                }
                other => panic!("expected Interrupted, got {other}"),
            };
            assert!(completed >= 20, "stopped before the watermark");
            assert!(completed < 64, "never stopped");
            // The sink saw exactly the journaled prefix.
            assert_eq!(sink.into_inner().as_slice(), &reference[..completed]);

            let mut sink = CollectSink::new();
            let meta = engine
                .run_checkpointed(
                    64,
                    || (),
                    |(), ctx| Ok(ctx.rng.random::<u64>()),
                    &mut sink,
                    &RunControl::new().checkpointed(spec.clone().resuming()),
                )
                .unwrap();
            assert_eq!(meta.resumed_from, Some(completed));
            assert_eq!(sink.into_inner(), reference, "workers={workers}");
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn stop_flag_interrupts_promptly() {
        let flag = Arc::new(AtomicBool::new(true)); // raised before the run
        let engine = EvalEngine::with_workers(0, 2);
        let mut sink = CollectSink::new();
        let err = engine
            .run_checkpointed(
                32,
                || (),
                |(), ctx| Ok(ctx.task_id),
                &mut sink,
                &RunControl::with_stop(flag),
            )
            .unwrap_err();
        assert!(matches!(err, EngineError::Interrupted { .. }), "{err}");
    }

    #[test]
    fn task_errors_surface_without_panicking() {
        let engine = EvalEngine::with_workers(0, 2);
        let mut sink = CollectSink::new();
        let err = engine
            .run_checkpointed(
                16,
                || (),
                |(), ctx| {
                    if ctx.task_id == 7 {
                        Err(EngineError::Poisoned("simulated"))
                    } else {
                        Ok(ctx.task_id)
                    }
                },
                &mut sink,
                &RunControl::new(),
            )
            .unwrap_err();
        assert!(matches!(err, EngineError::Task { task_id: 7, .. }), "{err}");
    }

    #[test]
    fn checkpointed_panic_is_a_typed_error() {
        let engine = EvalEngine::with_workers(0, 2);
        let mut sink = CollectSink::new();
        let err = engine
            .run_checkpointed(
                8,
                || (),
                |(), ctx| {
                    assert!(ctx.task_id != 5, "boom");
                    Ok(ctx.task_id)
                },
                &mut sink,
                &RunControl::new(),
            )
            .unwrap_err();
        assert!(
            matches!(err, EngineError::TaskPanicked { task_id: 5, .. }),
            "{err}"
        );
    }

    #[test]
    fn run_meta_roundtrips_resumed_from() {
        let meta = RunMeta {
            tasks: 4,
            workers: 2,
            elapsed_secs: 1.0,
            tasks_per_sec: 4.0,
            seed: 3,
            resumed_from: Some(2),
            delta_hits: 7,
            delta_fallbacks: 1,
            truncated_tail: true,
        };
        let back = RunMeta::from_json_value(&meta.to_json_value()).unwrap();
        assert_eq!(back, meta);
        // Reports serialized before the field existed deserialize to None.
        let legacy = serde::Value::Object(vec![
            ("tasks".to_string(), 4usize.to_json_value()),
            ("workers".to_string(), 2usize.to_json_value()),
            ("elapsed_secs".to_string(), 1.0f64.to_json_value()),
            ("tasks_per_sec".to_string(), 4.0f64.to_json_value()),
            ("seed".to_string(), 3u64.to_json_value()),
        ]);
        let from_legacy = RunMeta::from_json_value(&legacy).unwrap();
        assert_eq!(from_legacy.resumed_from, None);
        // Counter fields added later default to zero on legacy reports.
        assert_eq!(from_legacy.delta_hits, 0);
        assert_eq!(from_legacy.delta_fallbacks, 0);
        assert!(!from_legacy.truncated_tail);
    }

    #[test]
    fn meta_reports_throughput() {
        let engine = EvalEngine::with_workers(3, 2);
        let mut sink = CollectSink::new();
        let meta = engine.run(32, || (), |(), ctx| ctx.task_id, &mut sink);
        assert_eq!(meta.tasks, 32);
        assert_eq!(meta.workers, 2);
        assert_eq!(meta.seed, 3);
        assert!(meta.elapsed_secs >= 0.0);
        assert!(meta.tasks_per_sec > 0.0);
        let merged = meta.merged_with(meta);
        assert_eq!(merged.tasks, 64);
        assert_eq!(merged.seed, 3);
    }
}
