//! `serve-int8`: int8 adaptive-campaign jobs through an in-process
//! `bdlfi-serve` daemon.
//!
//! Why it exists: it is the only workload that goes through the server,
//! the journal and the int8 path. Two closed-loop clients, each holding at
//! most one connection at a time, submit jobs to a daemon bound on
//! 127.0.0.1:0 with a pool of one worker and `sync_every: 1` (the binary's
//! defaults) over a fresh state dir. Each op is one job: `POST /jobs` of a
//! `quantized: true` `AdaptiveCampaign` spec, then its event stream read
//! to `done`. Job phases are timed from event arrival, never by polling.
//!
//! Per-layer metrics it is meant to move: `server.submit_ms`,
//! `server.build_workload_ms` (the submit-time probe the runner repeats),
//! `server.queue_wait_ms`, `server.first_result_ms`, `server.run_s`,
//! `checkpoint.journal_bytes`, `checkpoint.append_ms`,
//! `checkpoint.sync_ms`, `quant.quantize_ms`, `quant.eval_us`,
//! `quant.delta_hit_ratio`, `tensor.i8_gops`,
//! `campaign.samples_to_certify` and `server.http_errors`.

use crate::common::{
    chains_of, count_delta, count_overhead, deadline, lane, op_seed, probe_seed, replay_assess,
    replay_f32, replay_journal, replay_quant, secs, snapshot_chains, Ctx, Outcome,
};
use crate::stream::read_events;
use crate::trace::Tracer;
use bdlfi::{
    CampaignConfig, CampaignReport, CheckpointSpec, CompletenessCriteria, FaultyModel,
    KernelChoice, RunControl,
};
use bdlfi_bayes::{seed_stream, ChainConfig};
use bdlfi_data::{gaussian_blobs, Dataset};
use bdlfi_faults::{BernoulliBitFlip, SiteSpec};
use bdlfi_serve::client;
use bdlfi_serve::spec::{build_workload, DatasetSpec, DriverSpec, ModelSpec, ScenarioSpec};
use bdlfi_serve::{
    job_fingerprint, run_driver, Daemon, DaemonHandle, JobOutcome, JobSpec, ServeConfig,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Number, Serialize, Value};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Concurrent closed-loop clients.
const CLIENTS: usize = 2;
/// Fresh daemons timed per run (their median is `setup_s`).
const SETUPS: usize = 120;
/// Samples per chain per segment.
const SEGMENT: usize = 50;
/// Chains per campaign.
const CHAINS: usize = 4;
/// Per-bit flip probability of the jobs' fault model.
const P: f64 = 1e-3;
/// Configurations drawn per traced op for the replays.
const REPLAY_CONFIGS: usize = 16;
/// Bound on any single HTTP read.
const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// The scenario constant: the jobs' dataset and training seeds.
const SCENARIO: u64 = 8;

/// The job of op `k`: the fixed scenario with the op's campaign seed.
fn job(seed: u64, k: usize) -> JobSpec {
    JobSpec {
        scenario: ScenarioSpec {
            dataset: DatasetSpec {
                examples: 600,
                classes: 3,
                spread: 1.25,
                seed: seed_stream(SCENARIO, lane::DATA),
                train_frac: 0.5,
            },
            model: ModelSpec {
                hidden: vec![32],
                epochs: 10,
                batch_size: 32,
                lr: 0.1,
                momentum: 0.9,
                seed: seed_stream(SCENARIO, lane::MODEL),
            },
            quantized: true,
            sites: SiteSpec::AllParams,
            flip_probability: P,
        },
        driver: DriverSpec::AdaptiveCampaign {
            config: CampaignConfig {
                chains: CHAINS,
                chain: ChainConfig {
                    burn_in: 10,
                    samples: SEGMENT,
                    thin: 1,
                },
                kernel: KernelChoice::Prior,
                seed: op_seed(seed, k),
                criteria: CompletenessCriteria::default(),
                workers: 1,
            },
            max_samples_per_chain: 4000,
        },
        shard: None,
    }
}

/// Binds and starts a daemon over `state_dir` and waits for its first
/// `200` on `/healthz`.
fn start_daemon(state_dir: &Path) -> Result<DaemonHandle, String> {
    let cfg = ServeConfig {
        state_dir: state_dir.to_path_buf(),
        workers: 1,
        sync_every: 1,
    };
    let handle = Daemon::bind("127.0.0.1:0", &cfg)?.start();
    let addr = handle.addr().to_string();
    let health = client::request(&addr, "GET", "/healthz", None, IO_TIMEOUT)?;
    if health.status != 200 {
        return Err(format!("/healthz answered {}", health.status));
    }
    Ok(handle)
}

/// What one op observed, kept for its check and (traced) its replays:
/// event arrivals by kind, not the event lines, so a run's own memory
/// does not grow with the chain snapshots the daemon streams.
struct OpRecord {
    k: usize,
    id: String,
    submitted: Instant,
    accepted: Instant,
    /// `(arrival, event kind)` in stream order.
    events: Vec<(Instant, String)>,
    /// Per-chain sample counts from the last `result` event.
    chain_lens: Option<Vec<usize>>,
    http_errors: usize,
    error: Option<String>,
}

impl OpRecord {
    fn first(&self, kind: &str) -> Option<Instant> {
        self.events.iter().find(|e| e.1 == kind).map(|e| e.0)
    }

    fn done(&self) -> Option<Instant> {
        self.events.last().filter(|e| e.1 == "done").map(|e| e.0)
    }
}

/// One op: submit the job (one connection), then read its events to the
/// terminal event (a second connection, opened after the first closed).
fn one_op(addr: &str, seed: u64, k: usize) -> OpRecord {
    let body = serde_json::to_string(&job(seed, k).to_json_value());
    let submitted = Instant::now();
    let mut rec = OpRecord {
        k,
        id: String::new(),
        submitted,
        accepted: submitted,
        events: Vec::new(),
        chain_lens: None,
        http_errors: 0,
        error: None,
    };
    let body = match body {
        Ok(b) => b,
        Err(e) => {
            rec.error = Some(format!("cannot encode spec: {e}"));
            return rec;
        }
    };
    let resp = client::request(addr, "POST", "/jobs", Some(&body), IO_TIMEOUT);
    rec.accepted = Instant::now();
    let id = match resp {
        Ok(r) if (200..300).contains(&r.status) => serde_json::from_str::<Value>(&r.body)
            .ok()
            .and_then(|v| v.get("id").and_then(Value::as_str).map(str::to_string)),
        Ok(r) => {
            rec.http_errors += 1;
            rec.error = Some(format!("POST /jobs answered {}: {}", r.status, r.body));
            return rec;
        }
        Err(e) => {
            rec.http_errors += 1;
            rec.error = Some(format!("POST /jobs failed: {e}"));
            return rec;
        }
    };
    let Some(id) = id else {
        rec.error = Some("submit response has no id".to_string());
        return rec;
    };
    rec.id = id;
    match read_events(addr, &rec.id, IO_TIMEOUT) {
        Ok(events) => {
            rec.chain_lens = events
                .iter()
                .rev()
                .find(|e| e.kind == "result")
                .and_then(|e| serde_json::from_str::<Value>(&e.line).ok())
                .and_then(|v| v.get("value").and_then(snapshot_chains))
                .map(|chains| chains.iter().map(Vec::len).collect());
            rec.events = events.into_iter().map(|e| (e.at, e.kind)).collect();
        }
        Err(e) => {
            rec.http_errors += 1;
            rec.error = Some(e);
        }
    }
    rec
}

/// The stream check of one op: it ended with `done`, and carried one
/// `result` per segment of the certified chains. Returns the
/// configurations the job evaluated and its latency (submit → `done`).
fn check_stream(rec: &OpRecord) -> Result<(u64, f64), String> {
    if let Some(e) = &rec.error {
        return Err(e.clone());
    }
    let Some(done) = rec.done() else {
        let last = rec.events.last().map_or("nothing", |e| e.1.as_str());
        return Err(format!("stream of {} ended with {last}, not done", rec.id));
    };
    let lens = rec.chain_lens.as_ref().ok_or("no parsable result event")?;
    let len = lens.first().copied().unwrap_or(0);
    if lens.len() != CHAINS || lens.iter().any(|&n| n != len) {
        return Err(format!("result chains hold {lens:?} samples"));
    }
    let results = rec.events.iter().filter(|e| e.1 == "result").count();
    if results != len.div_ceil(SEGMENT) {
        return Err(format!(
            "{results} result events for {len} samples per chain"
        ));
    }
    let latency = done.saturating_duration_since(rec.submitted).as_secs_f64();
    Ok(((len * CHAINS) as u64, latency))
}

/// Runs the closed-loop clients over ops `0, 1, …` until `end`. With
/// `paired`, each client submits every op a second time right after the
/// first, for its traced repeat; the pair meets the same daemon load.
fn clients(addr: &str, seed: u64, end: Instant, paired: bool) -> Vec<(OpRecord, Option<OpRecord>)> {
    let next = AtomicUsize::new(0);
    let records = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for _ in 0..CLIENTS {
            s.spawn(|| {
                while Instant::now() < end {
                    let k = next.fetch_add(1, Ordering::Relaxed);
                    let op = one_op(addr, seed, k);
                    let repeat = paired.then(|| one_op(addr, seed, k));
                    records
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .push((op, repeat));
                }
            });
        }
    });
    let mut records = records.into_inner().unwrap_or_else(PoisonError::into_inner);
    records.sort_by_key(|r| r.0.k);
    records
}

/// Scrubs `run_meta` and worker counts the way `serve_smoke` normalizes
/// reports before a byte comparison.
fn normalized(report: &Value) -> Result<String, String> {
    fn scrub(v: &mut Value) {
        match v {
            Value::Object(entries) => {
                for (key, val) in entries.iter_mut() {
                    if key == "run_meta" {
                        *val = Value::Null;
                    } else if key == "workers" {
                        *val = Value::Number(Number::U(0));
                    } else {
                        scrub(val);
                    }
                }
            }
            Value::Array(items) => items.iter_mut().for_each(scrub),
            _ => {}
        }
    }
    let mut v = report.clone();
    scrub(&mut v);
    serde_json::to_string(&v).map_err(|e| format!("cannot encode report: {e}"))
}

/// Compares the daemon's report of op `rec` with an in-process
/// `run_driver` of the same spec, normalized, byte for byte.
fn check_against_driver(addr: &str, rec: &OpRecord, seed: u64, dir: &Path) -> Result<(), String> {
    let served = client::request(
        addr,
        "GET",
        &format!("/jobs/{}/report", rec.id),
        None,
        IO_TIMEOUT,
    )?;
    if served.status != 200 {
        return Err(format!("GET report answered {}", served.status));
    }
    let served: Value = serde_json::from_str(&served.body).map_err(|e| e.to_string())?;
    let spec = job(seed, rec.k);
    let ckpt = CheckpointSpec::new(dir.join("driver.journal.jsonl"), job_fingerprint(&spec));
    let local = match run_driver(&spec, 1, &RunControl::default(), &ckpt) {
        JobOutcome::Done { report, .. } => report,
        JobOutcome::Interrupted { .. } => return Err("in-process driver interrupted".to_string()),
        JobOutcome::Failed(e) => return Err(format!("in-process driver failed: {e}")),
    };
    if normalized(&served)? != normalized(&local)? {
        return Err(format!(
            "report of {} differs from the in-process run_driver",
            rec.id
        ));
    }
    Ok(())
}

/// Runs the workload: timed daemon set-ups, the clients for
/// `ctx.seconds`, shutdown, more set-ups. When tracing, the clients
/// submit every op twice, and once they have stopped each repeat's
/// spans are built from its event arrivals and its replays run alone.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    // Half the set-ups run before the clients (the last of them serves
    // the run), half after it, so their samples span the run.
    let mut serving: Option<(DaemonHandle, PathBuf)> = None;
    for i in 0..SETUPS / 2 {
        let (handle, dir, dt) = timed_daemon(ctx, i)?;
        out.setups.push(dt);
        if let Some((mut old, old_dir)) = serving.replace((handle, dir)) {
            old.shutdown();
            let _ = std::fs::remove_dir_all(&old_dir);
        }
    }
    let Some((mut handle, state_dir)) = serving else {
        return Err("no daemon started".to_string());
    };
    let addr = handle.addr().to_string();

    let first_submit = Instant::now();
    let end = deadline(first_submit, ctx.seconds);
    let records = clients(&addr, ctx.seed, end, ctx.tracer.enabled());
    let last_done = records
        .iter()
        .filter_map(|(op, _)| op.done())
        .max()
        .unwrap_or(first_submit);
    out.busy_s = last_done
        .saturating_duration_since(first_submit)
        .as_secs_f64();

    let check_dir = ctx.scratch.join("driver");
    std::fs::create_dir_all(&check_dir).map_err(|e| format!("cannot create check dir: {e}"))?;
    for (rec, repeat) in &records {
        let mut checked = check_stream(rec);
        if rec.k == 0 {
            checked = checked
                .and_then(|n| check_against_driver(&addr, rec, ctx.seed, &check_dir).map(|()| n));
        }
        let checked = match checked {
            Ok((n, latency)) => {
                out.op_s.push(latency);
                out.configs += n;
                match repeat {
                    Some(repeat) => traced_op(ctx, &addr, latency, repeat),
                    None => Ok(()),
                }
            }
            Err(e) => {
                out.op_s.push(f64::NAN);
                Err(e)
            }
        };
        out.record(rec.k, checked);
    }

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&state_dir);
    for i in SETUPS / 2..SETUPS {
        let (mut handle, dir, dt) = timed_daemon(ctx, i)?;
        out.setups.push(dt);
        handle.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
    Ok(out)
}

/// Set-up `i`: a daemon over a fresh state dir, timed from `Daemon::bind`
/// to its first `200`.
fn timed_daemon(ctx: &Ctx, i: usize) -> Result<(DaemonHandle, PathBuf, f64), String> {
    let dir = ctx.scratch.join(format!("state-{i}"));
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create state dir: {e}"))?;
    let t = Instant::now();
    let handle = start_daemon(&dir)?;
    Ok((handle, dir, secs(t)))
}

/// The traced repeat of an op whose untraced run took `untraced_s`:
/// its stream check, the tracing overhead of the pair, its spans from
/// event arrivals, then its replays. Runs once the clients have stopped,
/// so the replays never overlap a job.
fn traced_op(ctx: &Ctx, addr: &str, untraced_s: f64, repeat: &OpRecord) -> Result<(), String> {
    let (_, latency) = check_stream(repeat)?;
    count_overhead(&ctx.tracer, repeat.k, untraced_s, latency);
    trace_op(&ctx.tracer, repeat);
    replay_op(ctx, &ctx.tracer, addr, repeat)
}

/// Spans of one op from its submit round trip and event arrivals.
fn trace_op(tr: &Tracer, rec: &OpRecord) {
    let k = rec.k;
    tr.count("server.http_errors", k, rec.http_errors as f64);
    let Some(done) = rec.done() else {
        return;
    };
    let job = tr.interval("serve.job", k, None, rec.submitted, done);
    tr.interval("server.submit", k, job, rec.submitted, rec.accepted);
    if let Some(started) = rec.first("started") {
        tr.interval("server.queue_wait", k, job, rec.accepted, started);
        tr.interval("server.run", k, job, started, done);
        if let Some(first) = rec.first("result") {
            tr.interval("server.first_result", k, None, started, first);
        }
        let mut prev = started;
        for (at, _) in rec.events.iter().filter(|e| e.1 == "result") {
            tr.interval("engine.task", k, None, prev, *at);
            prev = *at;
        }
    }
}

/// The per-layer replays of one finished job on its own inputs: journal
/// and report fetched from the daemon, `build_workload`, the int8 and
/// f32 layer calls on its trained model, and `assess` per segment. The
/// f32 delta tally comes from the replay, the int8 one from the job
/// report's `run_meta`.
fn replay_op(ctx: &Ctx, tr: &Tracer, addr: &str, rec: &OpRecord) -> Result<(), String> {
    let k = rec.k;
    let spec = job(ctx.seed, k);
    let get = |what: &str| -> Result<String, String> {
        let r = client::request(
            addr,
            "GET",
            &format!("/jobs/{}/{what}", rec.id),
            None,
            IO_TIMEOUT,
        )?;
        if r.status == 200 {
            Ok(r.body)
        } else {
            Err(format!("GET {what} answered {}", r.status))
        }
    };

    let journal = get("journal")?;
    tr.count("checkpoint.journal_bytes", k, journal.len() as f64);
    let mut values = Vec::new();
    for line in journal.lines().skip(1).filter(|l| !l.is_empty()) {
        let v: Value = serde_json::from_str(line).map_err(|e| format!("journal line: {e}"))?;
        values.push(
            v.get("value")
                .cloned()
                .ok_or("journal entry has no value")?,
        );
    }
    let path = ctx.scratch.join(format!("replay-{k}.jsonl"));
    replay_journal(tr, k, &path, &values, op_seed(ctx.seed, k))?;

    let tagged: Value = serde_json::from_str(&get("report")?).map_err(|e| e.to_string())?;
    let report = tagged
        .get("report")
        .map(CampaignReport::from_json_value)
        .ok_or("report is not tagged")?
        .map_err(|e| format!("report does not parse: {e}"))?;
    tr.count("faults.flips", k, report.mean_flips);
    tr.count("campaign.samples", k, report.total_samples() as f64);
    let meta = &report.run_meta;
    count_delta(tr, k, true, (meta.delta_hits, meta.delta_fallbacks));
    replay_assess(
        tr,
        k,
        &chains_of(&report),
        SEGMENT,
        &CompletenessCriteria::default(),
    );

    let workload = tr
        .span("server.build_workload", k, None, |_| {
            build_workload(&spec.scenario)
        })
        .map_err(|e| e.to_string())?;
    let probe = probe_seed(ctx.seed, k);
    replay_quant(
        tr,
        k,
        &workload.model,
        train_split(&spec.scenario.dataset).inputs(),
        &workload.eval,
        &SiteSpec::AllParams,
        P,
        probe,
        REPLAY_CONFIGS,
    )?;
    let fm = FaultyModel::new(
        workload.model.clone(),
        Arc::clone(&workload.eval),
        &SiteSpec::AllParams,
        Arc::new(BernoulliBitFlip::new(P)),
    );
    let tally = replay_f32(
        tr,
        k,
        &fm,
        &workload.model,
        &workload.eval,
        probe,
        REPLAY_CONFIGS,
    )?;
    count_delta(tr, k, false, tally);
    Ok(())
}

/// The job's train split, generated and split as `build_workload` does:
/// the calibration input of its `quantize_model`.
fn train_split(d: &DatasetSpec) -> Dataset {
    let mut rng = StdRng::seed_from_u64(d.seed);
    let data = gaussian_blobs(d.examples, d.classes, d.spread as f32, &mut rng);
    data.split(d.train_frac, &mut rng).0
}
