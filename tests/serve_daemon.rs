//! End-to-end tests for `bdlfi-serve`: submit over HTTP, stream results
//! and diagnostics, interrupt by dropping the daemon mid-flight, restart
//! a fresh daemon on the same state directory, resume over HTTP, and
//! byte-compare the resumed report against an uninterrupted one.

use bdlfi_bayes::ChainConfig;
use bdlfi_serve::client;
use bdlfi_serve::spec::{DatasetSpec, DriverSpec, JobSpec, ModelSpec, ScenarioSpec};
use bdlfi_serve::{Daemon, DaemonHandle, ServeConfig};
use serde::{Number, Serialize, Value};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use bdlfi_faults::SiteSpec;
use bdlfi_suite::core::CampaignConfig;

struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("bdlfi-serve-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn start_daemon(state_dir: &Path, workers: usize) -> DaemonHandle {
    let cfg = ServeConfig {
        state_dir: state_dir.to_path_buf(),
        workers,
        sync_every: 1,
    };
    Daemon::bind("127.0.0.1:0", &cfg)
        .expect("daemon binds on an ephemeral port")
        .start()
}

fn spec_json(spec: &JobSpec) -> String {
    serde_json::to_string(&spec.to_json_value()).unwrap()
}

/// A campaign sized so chains take long enough that a shutdown lands
/// between task boundaries, yet the whole job stays under a second.
fn slow_spec(seed: u64) -> JobSpec {
    JobSpec {
        scenario: ScenarioSpec {
            dataset: DatasetSpec {
                examples: 200,
                classes: 3,
                spread: 0.6,
                seed: 21,
                train_frac: 0.7,
            },
            model: ModelSpec {
                hidden: vec![16],
                epochs: 4,
                batch_size: 32,
                lr: 0.1,
                momentum: 0.9,
                seed: 22,
            },
            quantized: false,
            sites: SiteSpec::AllParams,
            flip_probability: 1e-3,
        },
        driver: DriverSpec::Campaign {
            config: CampaignConfig {
                chains: 4,
                chain: ChainConfig {
                    burn_in: 5,
                    samples: 400,
                    thin: 1,
                },
                seed,
                workers: 1,
                ..CampaignConfig::default()
            },
        },
        shard: None,
    }
}

fn submit(addr: &str, spec: &JobSpec) -> String {
    let resp = client::request(
        addr,
        "POST",
        "/jobs",
        Some(&spec_json(spec)),
        Duration::from_secs(10),
    )
    .expect("submit request completes");
    assert_eq!(resp.status, 202, "submit rejected: {}", resp.body);
    let summary: Value = serde_json::from_str(&resp.body).unwrap();
    summary
        .get("id")
        .and_then(Value::as_str)
        .expect("submit response carries the job id")
        .to_string()
}

fn job_status(addr: &str, id: &str) -> String {
    let resp = client::request(
        addr,
        "GET",
        &format!("/jobs/{id}"),
        None,
        Duration::from_secs(10),
    )
    .expect("status request completes");
    assert_eq!(resp.status, 200, "status failed: {}", resp.body);
    let summary: Value = serde_json::from_str(&resp.body).unwrap();
    summary
        .get("status")
        .and_then(Value::as_str)
        .expect("summary carries a status")
        .to_string()
}

fn wait_status(addr: &str, id: &str, want: &str, timeout: Duration) {
    let deadline = Instant::now() + timeout;
    loop {
        let got = job_status(addr, id);
        if got == want {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "job {id} stuck at {got}, wanted {want}"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
}

fn fetch_report(addr: &str, id: &str) -> Value {
    let resp = client::request(
        addr,
        "GET",
        &format!("/jobs/{id}/report"),
        None,
        Duration::from_secs(10),
    )
    .expect("report request completes");
    assert_eq!(resp.status, 200, "no report for {id}: {}", resp.body);
    serde_json::from_str(&resp.body).unwrap()
}

/// Reports from different attempts must agree on everything except
/// execution metadata; null out `run_meta` and the granted worker count
/// before comparing serialized bytes.
fn normalized_report_bytes(report: &Value) -> String {
    fn scrub(v: &mut Value) {
        if let Value::Object(entries) = v {
            for (key, val) in entries.iter_mut() {
                if key == "run_meta" {
                    *val = Value::Null;
                } else if key == "workers" {
                    *val = Value::Number(Number::U(0));
                } else {
                    scrub(val);
                }
            }
        } else if let Value::Array(items) = v {
            for item in items.iter_mut() {
                scrub(item);
            }
        }
    }
    let mut scrubbed = report.clone();
    scrub(&mut scrubbed);
    serde_json::to_string(&scrubbed).unwrap()
}

#[test]
fn two_concurrent_jobs_stream_results_and_diagnostics_to_completion() {
    let scratch = Scratch::new("concurrent");
    let handle = start_daemon(scratch.path(), 2);
    let addr = handle.addr().to_string();

    let a = submit(&addr, &slow_spec(501));
    let b = submit(&addr, &slow_spec(502));

    // Stream both event logs concurrently; each blocks until terminal.
    let streams: Vec<_> = [a.clone(), b.clone()]
        .into_iter()
        .map(|id| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                client::request(
                    &addr,
                    "GET",
                    &format!("/jobs/{id}/events"),
                    None,
                    Duration::from_secs(120),
                )
                .expect("event stream completes")
            })
        })
        .collect();
    let mut live = Vec::new();
    for stream in streams {
        let resp = stream.join().unwrap();
        assert_eq!(resp.status, 200);
        live.push(resp.body.clone());
        let results = resp
            .body
            .lines()
            .filter(|l| l.contains(r#""event":"result""#))
            .count();
        assert_eq!(results, 4, "one result per chain:\n{}", resp.body);
        assert!(
            resp.body.contains(r#""event":"diagnostics""#),
            "live diagnostics missing:\n{}",
            resp.body
        );
        assert!(
            resp.body.contains(r#""event":"done""#),
            "terminal done event missing:\n{}",
            resp.body
        );
    }
    wait_status(&addr, &a, "done", Duration::from_secs(10));
    wait_status(&addr, &b, "done", Duration::from_secs(10));

    // A done job's log moves to `<id>.events.jsonl`; replaying it from
    // there gives the bytes the live readers saw.
    for (id, body) in [&a, &b].into_iter().zip(&live) {
        let spilled = scratch.path().join(format!("{id}.events.jsonl"));
        let deadline = Instant::now() + Duration::from_secs(10);
        while !spilled.exists() {
            assert!(Instant::now() < deadline, "{id}'s log was never spilled");
            std::thread::sleep(Duration::from_millis(25));
        }
        let replay = client::request(
            &addr,
            "GET",
            &format!("/jobs/{id}/events"),
            None,
            Duration::from_secs(10),
        )
        .expect("replayed event stream completes");
        assert_eq!(replay.status, 200);
        assert_eq!(
            &replay.body, body,
            "{id}: replay differs from the live stream"
        );
    }

    // Both reports exist and differ (different campaign seeds).
    let ra = fetch_report(&addr, &a);
    let rb = fetch_report(&addr, &b);
    assert_eq!(ra.get("kind").and_then(Value::as_str), Some("campaign"));
    assert_ne!(
        normalized_report_bytes(&ra),
        normalized_report_bytes(&rb),
        "distinct seeds must yield distinct campaigns"
    );
}

#[test]
fn daemon_drop_interrupts_and_restart_resumes_byte_identical() {
    // Reference: the same spec run to completion without interruption.
    let reference = {
        let scratch = Scratch::new("reference");
        let handle = start_daemon(scratch.path(), 1);
        let addr = handle.addr().to_string();
        let id = submit(&addr, &slow_spec(700));
        wait_status(&addr, &id, "done", Duration::from_secs(120));
        fetch_report(&addr, &id)
    };

    let scratch = Scratch::new("interrupt");
    let id;
    {
        let mut handle = start_daemon(scratch.path(), 1);
        let addr = handle.addr().to_string();
        id = submit(&addr, &slow_spec(700));
        // Wait for the first journaled result, then shut down mid-job —
        // exactly what losing the daemon process does to a running study.
        client::await_in_stream(
            &addr,
            &format!("/jobs/{id}/events"),
            r#""event":"result""#,
            1,
            Duration::from_secs(60),
        )
        .expect("job makes progress before the interrupt");
        handle.shutdown();
    }

    // A fresh daemon on the same state directory recovers the job as
    // interrupted and resumable, and resumes it from its journal.
    let handle = start_daemon(scratch.path(), 1);
    let addr = handle.addr().to_string();
    let resp = client::request(
        &addr,
        "GET",
        &format!("/jobs/{id}"),
        None,
        Duration::from_secs(10),
    )
    .unwrap();
    assert_eq!(resp.status, 200);
    let summary: Value = serde_json::from_str(&resp.body).unwrap();
    assert_eq!(
        summary.get("status").and_then(Value::as_str),
        Some("interrupted"),
        "restart must recover the interrupted status: {}",
        resp.body
    );
    assert_eq!(
        summary.get("resumable").and_then(|v| match v {
            Value::Bool(b) => Some(*b),
            _ => None,
        }),
        Some(true),
        "journal must survive the restart: {}",
        resp.body
    );

    let resp = client::request(
        &addr,
        "POST",
        &format!("/jobs/{id}/resume"),
        None,
        Duration::from_secs(10),
    )
    .unwrap();
    assert_eq!(resp.status, 202, "resume rejected: {}", resp.body);
    assert!(
        resp.body.contains(r#""resumed_from_journal":true"#),
        "resume must pick up the journal: {}",
        resp.body
    );
    wait_status(&addr, &id, "done", Duration::from_secs(120));

    let resumed = fetch_report(&addr, &id);
    assert_eq!(
        normalized_report_bytes(&resumed),
        normalized_report_bytes(&reference),
        "resumed report must be byte-identical to an uninterrupted run"
    );

    // The event log is in-memory, so the restarted daemon's stream is
    // rebuilt from the journal: the resumed attempt replays the journaled
    // results through the observer before computing the rest, so a client
    // attaching after the restart still sees every chain's result.
    let resp = client::request(
        &addr,
        "GET",
        &format!("/jobs/{id}/events"),
        None,
        Duration::from_secs(30),
    )
    .unwrap();
    assert!(
        resp.body.contains(r#""event":"started","resumed":true"#),
        "resumed attempt must announce itself: {}",
        resp.body
    );
    let results = resp
        .body
        .lines()
        .filter(|l| l.contains(r#""event":"result""#))
        .count();
    assert_eq!(results, 4, "replayed + fresh results:\n{}", resp.body);
    assert!(resp.body.contains(r#""event":"done""#));
}

#[test]
fn bad_submissions_and_unknown_jobs_get_typed_http_errors() {
    let scratch = Scratch::new("errors");
    let handle = start_daemon(scratch.path(), 1);
    let addr = handle.addr().to_string();

    let resp = client::request(
        &addr,
        "POST",
        "/jobs",
        Some("{not json"),
        Duration::from_secs(10),
    )
    .unwrap();
    assert_eq!(resp.status, 400);

    let mut invalid = slow_spec(1);
    invalid.scenario.flip_probability = 2.0;
    let resp = client::request(
        &addr,
        "POST",
        "/jobs",
        Some(&spec_json(&invalid)),
        Duration::from_secs(10),
    )
    .unwrap();
    assert_eq!(
        resp.status, 400,
        "out-of-range spec must 400: {}",
        resp.body
    );

    // Unknown sites fail pre-flight (the drivers would panic on them).
    let mut bad_sites = slow_spec(2);
    bad_sites.scenario.sites = SiteSpec::LayerParams {
        prefix: "nonexistent_layer".to_string(),
    };
    let resp = client::request(
        &addr,
        "POST",
        "/jobs",
        Some(&spec_json(&bad_sites)),
        Duration::from_secs(10),
    )
    .unwrap();
    assert_eq!(resp.status, 400, "unknown sites must 400: {}", resp.body);

    for (method, path) in [
        ("GET", "/jobs/job-999999"),
        ("POST", "/jobs/job-999999/cancel"),
        ("POST", "/jobs/job-999999/resume"),
        ("GET", "/jobs/job-999999/report"),
        ("GET", "/nope"),
    ] {
        let resp = client::request(&addr, method, path, None, Duration::from_secs(10)).unwrap();
        assert_eq!(resp.status, 404, "{method} {path}: {}", resp.body);
    }

    let resp = client::request(&addr, "GET", "/healthz", None, Duration::from_secs(10)).unwrap();
    assert_eq!(resp.status, 200);
    drop(handle);
}

#[test]
fn chunked_submission_draws_one_400_and_a_closed_connection() {
    use std::io::{Read, Write};
    let scratch = Scratch::new("chunked");
    let handle = start_daemon(scratch.path(), 1);
    let mut stream = std::net::TcpStream::connect(handle.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let body = spec_json(&slow_spec(3));
    let request = format!(
        "POST /jobs HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n{:x}\r\n{body}\r\n0\r\n\r\n",
        body.len()
    );
    stream.write_all(request.as_bytes()).unwrap();
    // The daemon answers once and closes; it must neither start a job
    // from an empty body nor parse the chunks as a second request. It
    // drains the unread chunks before closing, so the reply ends in a
    // clean EOF, never a connection reset.
    let mut replies = Vec::new();
    let mut buf = [0u8; 4096];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => replies.extend_from_slice(&buf[..n]),
            Err(e) => panic!("reading the reply: {e}"),
        }
    }
    let replies = String::from_utf8_lossy(&replies);
    assert_eq!(replies.matches("HTTP/1.1 ").count(), 1, "{replies}");
    assert!(replies.starts_with("HTTP/1.1 400 "), "{replies}");
    let resp = client::request(
        &handle.addr().to_string(),
        "GET",
        "/jobs",
        None,
        Duration::from_secs(10),
    )
    .unwrap();
    assert!(
        !resp.body.contains("job-"),
        "no job was created: {}",
        resp.body
    );
    drop(handle);
}
