//! Crash-safe campaign journals: the persistence layer behind
//! checkpoint/resume.
//!
//! A long fault-injection campaign is thousands of independent,
//! deterministic tasks (every task is a pure function of
//! `(campaign_seed, task_id)` — the engine's seed discipline). That makes
//! a *result journal* a complete checkpoint: record each finished task's
//! result in task order, and an interrupted campaign resumes by replaying
//! the journal into its sink and computing only the remaining tasks. The
//! resumed report is bit-identical to an uninterrupted run.
//!
//! The journal is a JSONL file:
//!
//! ```text
//! {"magic":"bdlfi-checkpoint","version":1,"fingerprint":"9f…","seed":42,"tasks":128}
//! {"task":0,"value":…}
//! {"task":1,"value":…}
//! ```
//!
//! * The **header** binds the journal to one campaign: a [`fingerprint`]
//!   of the driver name + serialized config, the engine seed, and the task
//!   count (`0` for open-ended segment journals). It is written to a
//!   temporary file, fsync'd, and atomically renamed into place, so a
//!   journal either exists with a valid header or not at all.
//! * **Entries** are appended one line per completed task, in task order,
//!   and fsync'd in batches (plus once on stop/completion), bounding the
//!   work lost to a crash to the unsynced tail.
//! * The **reader** is strict about everything a crash cannot produce: any
//!   malformed interior line, invalid UTF-8 on a complete line, or
//!   out-of-order entry is a typed [`CheckpointError::Corrupt`], a header
//!   that does not match the resuming campaign is a
//!   [`CheckpointError::Mismatch`], and resuming a journal that already
//!   covers every task is [`CheckpointError::AlreadyComplete`] — never a
//!   panic, never a silent partial report.
//! * The one thing a crash *does* produce — a torn **final** line, the
//!   unsynced tail of an append cut short between batched fsyncs — is not
//!   corruption. The reader discards it, reports `truncated_tail: true` in
//!   [`JournalContents`], and [`CheckpointWriter::resume`] truncates the
//!   file back to the last complete entry before appending, so a killed
//!   process always auto-resumes its own journal.

use serde::Serialize;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{BufRead, Write};
use std::path::{Path, PathBuf};

/// Magic string identifying a BDLFI checkpoint journal.
const MAGIC: &str = "bdlfi-checkpoint";
/// Current journal format version.
const VERSION: u64 = 1;

/// Why a journal could not be written, read, or resumed from.
#[derive(Debug)]
pub enum CheckpointError {
    /// The underlying file operation failed.
    Io(std::io::Error),
    /// A journal line failed to parse or was out of order (1-based line).
    Corrupt {
        /// 1-based line number of the offending line.
        line: usize,
        /// What was wrong with it.
        detail: String,
    },
    /// The journal header does not match the resuming campaign.
    Mismatch {
        /// Which header field disagreed.
        field: &'static str,
        /// The value the resuming campaign expected.
        expected: String,
        /// The value found in the journal.
        found: String,
    },
    /// The journal already covers every task — there is nothing to resume.
    AlreadyComplete {
        /// The task count the journal covers.
        tasks: usize,
    },
    /// A header or entry could not be serialized for the journal.
    Encode {
        /// What failed to encode.
        detail: String,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::Corrupt { line, detail } => {
                write!(f, "corrupt checkpoint journal at line {line}: {detail}")
            }
            CheckpointError::Mismatch {
                field,
                expected,
                found,
            } => write!(
                f,
                "checkpoint {field} mismatch: campaign has {expected}, journal has {found}"
            ),
            CheckpointError::AlreadyComplete { tasks } => {
                write!(
                    f,
                    "checkpoint already complete: all {tasks} tasks journaled"
                )
            }
            CheckpointError::Encode { detail } => {
                write!(f, "checkpoint serialization failed: {detail}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// A shard journal's place in a sharded campaign, stored in the header.
///
/// A sharded run splits the driver's ordered task space `0..total` into
/// `count` contiguous ranges; shard `index` owns `start..start + tasks`
/// (its header's `tasks` field is the shard *length*). Entries in a shard
/// journal carry **global** task ids, so merging shards is raw
/// concatenation of their entry regions under an unsharded header — the
/// merged journal is byte-identical to a single-process journal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardInfo {
    /// This shard's position in the plan, `0..count`.
    pub index: usize,
    /// Total number of shards in the plan.
    pub count: usize,
    /// First global task id this shard owns.
    pub start: usize,
    /// Total task count of the whole (unsharded) campaign.
    pub total: usize,
}

/// The identity a journal is bound to, stored in its header line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointHeader {
    /// [`fingerprint`] of the driver name + campaign configuration.
    pub fingerprint: String,
    /// The engine seed the per-task RNG streams derive from.
    pub seed: u64,
    /// Total task count; `0` marks an open-ended (segment) journal, for
    /// which [`CheckpointError::AlreadyComplete`] is never raised. For a
    /// shard journal this is the shard *length*, not the campaign total.
    pub tasks: usize,
    /// `Some` marks a shard journal covering a sub-range of a sharded
    /// campaign; `None` (and absent from the header line, keeping old
    /// journals readable) is a whole-campaign journal.
    pub shard: Option<ShardInfo>,
}

impl CheckpointHeader {
    pub(crate) fn to_json_line(&self) -> Result<String, CheckpointError> {
        let mut fields = vec![
            ("magic".to_string(), MAGIC.to_string().to_json_value()),
            ("version".to_string(), VERSION.to_json_value()),
            ("fingerprint".to_string(), self.fingerprint.to_json_value()),
            ("seed".to_string(), self.seed.to_json_value()),
            ("tasks".to_string(), self.tasks.to_json_value()),
        ];
        if let Some(s) = &self.shard {
            fields.push((
                "shard".to_string(),
                serde::Value::Object(vec![
                    ("index".to_string(), s.index.to_json_value()),
                    ("count".to_string(), s.count.to_json_value()),
                    ("start".to_string(), s.start.to_json_value()),
                    ("total".to_string(), s.total.to_json_value()),
                ]),
            ));
        }
        serde_json::to_string(&serde::Value::Object(fields)).map_err(|e| CheckpointError::Encode {
            detail: format!("journal header: {e}"),
        })
    }

    /// First global task id of this journal's range (`0` unless sharded).
    #[must_use]
    pub fn base(&self) -> usize {
        self.shard.map_or(0, |s| s.start)
    }

    fn parse(line: &str) -> Result<Self, CheckpointError> {
        let corrupt = |detail: String| CheckpointError::Corrupt { line: 1, detail };
        let v: serde::Value =
            serde_json::from_str(line).map_err(|e| corrupt(format!("unparseable header: {e}")))?;
        let magic = v
            .get("magic")
            .and_then(serde::Value::as_str)
            .ok_or_else(|| corrupt("header missing `magic`".to_string()))?;
        if magic != MAGIC {
            return Err(corrupt(format!(
                "not a checkpoint journal (magic `{magic}`)"
            )));
        }
        let version = v
            .get("version")
            .and_then(serde::Value::as_u64)
            .ok_or_else(|| corrupt("header missing `version`".to_string()))?;
        if version != VERSION {
            return Err(CheckpointError::Mismatch {
                field: "version",
                expected: VERSION.to_string(),
                found: version.to_string(),
            });
        }
        let fingerprint = v
            .get("fingerprint")
            .and_then(serde::Value::as_str)
            .ok_or_else(|| corrupt("header missing `fingerprint`".to_string()))?
            .to_string();
        let seed = v
            .get("seed")
            .and_then(serde::Value::as_u64)
            .ok_or_else(|| corrupt("header missing `seed`".to_string()))?;
        let tasks =
            v.get("tasks")
                .and_then(serde::Value::as_u64)
                .ok_or_else(|| corrupt("header missing `tasks`".to_string()))? as usize;
        let shard = match v.get("shard") {
            None => None,
            Some(s) => {
                let field = |name: &str| {
                    s.get(name)
                        .and_then(serde::Value::as_u64)
                        .ok_or_else(|| corrupt(format!("header shard info missing `{name}`")))
                };
                Some(ShardInfo {
                    index: field("index")? as usize,
                    count: field("count")? as usize,
                    start: field("start")? as usize,
                    total: field("total")? as usize,
                })
            }
        };
        Ok(CheckpointHeader {
            fingerprint,
            seed,
            tasks,
            shard,
        })
    }

    pub(crate) fn verify_matches(
        &self,
        expected: &CheckpointHeader,
    ) -> Result<(), CheckpointError> {
        let mismatch = |field, expected: &dyn fmt::Display, found: &dyn fmt::Display| {
            Err(CheckpointError::Mismatch {
                field,
                expected: expected.to_string(),
                found: found.to_string(),
            })
        };
        if self.fingerprint != expected.fingerprint {
            return mismatch("fingerprint", &expected.fingerprint, &self.fingerprint);
        }
        if self.seed != expected.seed {
            return mismatch("seed", &expected.seed, &self.seed);
        }
        if self.tasks != expected.tasks {
            return mismatch("tasks", &expected.tasks, &self.tasks);
        }
        if self.shard != expected.shard {
            let show = |s: &Option<ShardInfo>| match s {
                None => "unsharded".to_string(),
                Some(s) => format!(
                    "shard {}/{} starting at task {} of {}",
                    s.index, s.count, s.start, s.total
                ),
            };
            return mismatch("shard", &show(&expected.shard), &show(&self.shard));
        }
        Ok(())
    }
}

/// FNV-1a 64-bit fingerprint of a driver name + its serialized
/// configuration — the identity check that stops a journal from being
/// replayed into a campaign with a different config, model or seed
/// derivation.
pub fn fingerprint<C: Serialize + ?Sized>(driver: &str, config: &C) -> String {
    let json = serde_json::to_string(config).unwrap_or_default();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in driver.as_bytes().iter().chain(json.as_bytes()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// The fingerprint binding a driver's journal to its identity — the one
/// place every driver derives it. Hashes the driver `tag` followed by the
/// workload's representation `namespace`
/// ([`crate::FaultWorkload::NAMESPACE`]: `""` for f32, `"_quant"` for
/// int8, so the two representations' journals never cross-resume) over
/// the serialized `identity`, with the `workers` field of every top-level
/// config in it pinned to 0: results are bit-identical at every worker
/// count, so a journal written at `workers: 1` resumes, finalizes and
/// shard-merges under any other.
pub fn journal_fingerprint<I: Serialize + ?Sized>(
    tag: &str,
    namespace: &str,
    identity: &I,
) -> String {
    let pin = |v: &mut serde::Value| {
        if let serde::Value::Object(fields) = v {
            for (_, workers) in fields.iter_mut().filter(|(name, _)| name == "workers") {
                *workers = 0usize.to_json_value();
            }
        }
    };
    let mut identity = identity.to_json_value();
    match &mut identity {
        serde::Value::Array(items) => items.iter_mut().for_each(pin),
        config => pin(config),
    }
    fingerprint(&format!("{tag}{namespace}"), &identity)
}

/// Everything [`read_journal`] recovers from a journal file.
#[derive(Debug)]
pub struct JournalContents {
    /// The validated header line.
    pub header: CheckpointHeader,
    /// The journaled result values, in task order. A torn final line is
    /// *not* included.
    pub values: Vec<serde::Value>,
    /// True when the file ended in a torn (newline-less) final line — the
    /// expected artifact of a crash between batched fsyncs. The torn bytes
    /// are discarded; `values` stops at the last complete entry.
    pub truncated_tail: bool,
    /// Byte length of the journal prefix ending at the last complete
    /// entry. Equal to the file length unless `truncated_tail` is set.
    pub complete_len: u64,
}

/// Reads and validates a journal line by line: returns its header, the
/// journaled result values in task order, and whether a torn final line
/// (crash artifact) was discarded.
///
/// A line is *complete* only when it is newline-terminated: appends write
/// the entry and its `\n` together, so truncation by a crash can only ever
/// leave the final line without one. A complete line that fails UTF-8
/// validation or JSON parsing, or is out of order, cannot come from a
/// crash and is hard [`CheckpointError::Corrupt`]. The header is installed
/// atomically (fsync + rename), so a torn header is also `Corrupt`.
///
/// # Errors
///
/// [`CheckpointError::Io`] if the file cannot be read,
/// [`CheckpointError::Corrupt`] as described above.
pub fn read_journal(path: &Path) -> Result<JournalContents, CheckpointError> {
    let mut reader = std::io::BufReader::new(File::open(path)?);
    let mut buf = Vec::new();

    let n = reader.read_until(b'\n', &mut buf)?;
    if n == 0 {
        return Err(CheckpointError::Corrupt {
            line: 1,
            detail: "empty journal (no header)".to_string(),
        });
    }
    if buf.last() != Some(&b'\n') {
        return Err(CheckpointError::Corrupt {
            line: 1,
            detail: "unterminated header line".to_string(),
        });
    }
    let text = std::str::from_utf8(&buf[..n - 1]).map_err(|_| CheckpointError::Corrupt {
        line: 1,
        detail: "header is not valid UTF-8".to_string(),
    })?;
    let header = CheckpointHeader::parse(text)?;
    let mut complete_len = n as u64;

    let mut values = Vec::new();
    let mut line_no = 1usize;
    let mut truncated_tail = false;
    loop {
        buf.clear();
        let n = reader.read_until(b'\n', &mut buf)?;
        if n == 0 {
            break;
        }
        line_no += 1;
        if buf.last() != Some(&b'\n') {
            // A final line without its newline is the unsynced tail of an
            // append cut short by a crash; resume recomputes that task.
            truncated_tail = true;
            break;
        }
        values.push(parse_entry(&buf[..n - 1], line_no, values.len(), &header)?);
        complete_len += n as u64;
    }
    Ok(JournalContents {
        header,
        values,
        truncated_tail,
        complete_len,
    })
}

/// Validates one complete (newline-terminated) entry line.
fn parse_entry(
    bytes: &[u8],
    line_no: usize,
    idx: usize,
    header: &CheckpointHeader,
) -> Result<serde::Value, CheckpointError> {
    let corrupt = |detail: String| CheckpointError::Corrupt {
        line: line_no,
        detail,
    };
    if bytes.is_empty() {
        return Err(corrupt("empty entry line".to_string()));
    }
    let line = std::str::from_utf8(bytes)
        .map_err(|e| corrupt(format!("entry is not valid UTF-8: {e}")))?;
    let v: serde::Value =
        serde_json::from_str(line).map_err(|e| corrupt(format!("unparseable entry: {e}")))?;
    let task = v
        .get("task")
        .and_then(serde::Value::as_u64)
        .ok_or_else(|| corrupt("entry missing `task`".to_string()))? as usize;
    // Shard journals carry global task ids offset by the shard's start.
    let expected = header.base() + idx;
    if task != expected {
        return Err(corrupt(format!(
            "entry for task {task} where task {expected} was expected"
        )));
    }
    let value = v
        .get("value")
        .ok_or_else(|| corrupt("entry missing `value`".to_string()))?;
    if header.tasks > 0 && task >= header.base() + header.tasks {
        return Err(corrupt(format!(
            "entry for task {task} beyond task count {}",
            header.base() + header.tasks
        )));
    }
    Ok(value.clone())
}

/// What [`CheckpointWriter::resume`] recovered for replay.
#[derive(Debug)]
pub struct Replay {
    /// The journaled result values, in task order.
    pub values: Vec<serde::Value>,
    /// True when a torn final line was discarded and the journal truncated
    /// back to its last complete entry (kill-mid-append recovery).
    pub truncated_tail: bool,
}

/// Appends completed-task results to a journal, fsync'ing in batches.
///
/// Created via [`CheckpointWriter::create`] (fresh journal, atomic header
/// install) or [`CheckpointWriter::resume`] (validate + replay an existing
/// journal, then continue appending).
#[derive(Debug)]
pub struct CheckpointWriter {
    file: File,
    base: usize,
    entries: usize,
    unsynced: usize,
    sync_every: usize,
}

impl CheckpointWriter {
    /// Creates a fresh journal at `path`: the header is written to a
    /// sibling temporary file, fsync'd, and renamed into place, so a
    /// half-written header can never be observed at `path`.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] on any filesystem failure.
    pub fn create(
        path: &Path,
        header: &CheckpointHeader,
        sync_every: usize,
    ) -> Result<Self, CheckpointError> {
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        let tmp = tmp_path(path);
        let mut file = File::create(&tmp)?;
        writeln!(file, "{}", header.to_json_line()?)?;
        file.sync_all()?;
        std::fs::rename(&tmp, path)?;
        // The handle follows the inode across the rename, so appends after
        // this point land in the installed journal.
        Ok(CheckpointWriter {
            file,
            base: header.base(),
            entries: 0,
            unsynced: 0,
            sync_every: sync_every.max(1),
        })
    }

    /// Opens an existing journal for appending: validates it, checks its
    /// header against `expected`, and returns the journaled values (in
    /// task order) for replay. A torn final line — the expected artifact
    /// of a crash between batched fsyncs — is truncated away (the file is
    /// cut back to the last complete entry before the append handle opens)
    /// and surfaced as [`Replay::truncated_tail`].
    ///
    /// # Errors
    ///
    /// Everything [`read_journal`] raises, [`CheckpointError::Mismatch`]
    /// when the header disagrees with `expected`, and
    /// [`CheckpointError::AlreadyComplete`] when a closed-ended journal
    /// already covers all of its tasks.
    pub fn resume(
        path: &Path,
        expected: &CheckpointHeader,
        sync_every: usize,
    ) -> Result<(Self, Replay), CheckpointError> {
        Self::resume_with(path, expected, sync_every, false)
    }

    /// [`CheckpointWriter::resume`] with the already-complete check under
    /// caller control: `allow_complete: true` reopens a finished journal
    /// for pure replay (zero tasks left to run) instead of raising
    /// [`CheckpointError::AlreadyComplete`] — the finalize path a merged
    /// shard journal is assembled into a report through.
    ///
    /// # Errors
    ///
    /// As [`CheckpointWriter::resume`], minus `AlreadyComplete` when
    /// `allow_complete` is set.
    pub fn resume_with(
        path: &Path,
        expected: &CheckpointHeader,
        sync_every: usize,
        allow_complete: bool,
    ) -> Result<(Self, Replay), CheckpointError> {
        let contents = read_journal(path)?;
        contents.header.verify_matches(expected)?;
        if !allow_complete
            && contents.header.tasks > 0
            && contents.values.len() >= contents.header.tasks
        {
            return Err(CheckpointError::AlreadyComplete {
                tasks: contents.header.tasks,
            });
        }
        if contents.truncated_tail {
            // Drop the torn bytes so the next append starts on a clean
            // line; fsync before appending so the truncation cannot be
            // reordered after new entries.
            let tail = OpenOptions::new().write(true).open(path)?;
            tail.set_len(contents.complete_len)?;
            tail.sync_data()?;
        }
        let file = OpenOptions::new().append(true).open(path)?;
        let writer = CheckpointWriter {
            file,
            base: contents.header.base(),
            entries: contents.values.len(),
            unsynced: 0,
            sync_every: sync_every.max(1),
        };
        Ok((
            writer,
            Replay {
                values: contents.values,
                truncated_tail: contents.truncated_tail,
            },
        ))
    }

    /// The number of entries the journal holds (replayed + appended).
    #[must_use]
    pub fn entries(&self) -> usize {
        self.entries
    }

    /// Appends the result of `task_id`, which must be the next task in
    /// order. Fsyncs once every `sync_every` appends; call
    /// [`CheckpointWriter::sync`] to force the tail out (on stop or
    /// completion).
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] on write failure,
    /// [`CheckpointError::Corrupt`] if `task_id` is out of order (an
    /// engine-invariant violation surfaced as an error rather than a
    /// corrupted journal).
    pub fn append<T: Serialize + ?Sized>(
        &mut self,
        task_id: usize,
        value: &T,
    ) -> Result<(), CheckpointError> {
        if task_id != self.base + self.entries {
            return Err(CheckpointError::Corrupt {
                line: self.entries + 2,
                detail: format!(
                    "append of task {task_id} where task {} was expected",
                    self.base + self.entries
                ),
            });
        }
        let obj = serde::Value::Object(vec![
            ("task".to_string(), task_id.to_json_value()),
            ("value".to_string(), value.to_json_value()),
        ]);
        let line = serde_json::to_string(&obj).map_err(|e| CheckpointError::Encode {
            detail: format!("task {task_id} entry: {e}"),
        })?;
        writeln!(self.file, "{line}")?;
        self.entries += 1;
        self.unsynced += 1;
        if self.unsynced >= self.sync_every {
            self.sync()?;
        }
        Ok(())
    }

    /// Forces any unsynced appends to disk.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] if the fsync fails.
    pub fn sync(&mut self) -> Result<(), CheckpointError> {
        if self.unsynced > 0 {
            self.file.sync_data()?;
            self.unsynced = 0;
        }
        Ok(())
    }
}

fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_default();
    name.push(".tmp");
    path.with_file_name(name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Deserialize;

    fn unique_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("bdlfi_ckpt_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn header(tasks: usize) -> CheckpointHeader {
        CheckpointHeader {
            fingerprint: fingerprint("test-driver", &42u64),
            seed: 7,
            tasks,
            shard: None,
        }
    }

    fn shard_header(tasks: usize, shard: ShardInfo) -> CheckpointHeader {
        CheckpointHeader {
            shard: Some(shard),
            ..header(tasks)
        }
    }

    #[test]
    fn write_read_roundtrip_in_task_order() {
        let dir = unique_dir("roundtrip");
        let path = dir.join("j.jsonl");
        let mut w = CheckpointWriter::create(&path, &header(3), 2).unwrap();
        for i in 0..3usize {
            w.append(i, &(i as u64 * 10)).unwrap();
        }
        w.sync().unwrap();
        let contents = read_journal(&path).unwrap();
        assert_eq!(contents.header, header(3));
        assert!(!contents.truncated_tail);
        assert_eq!(
            contents.complete_len,
            std::fs::metadata(&path).unwrap().len()
        );
        let back: Vec<u64> = contents
            .values
            .iter()
            .map(|v| u64::from_json_value(v).unwrap())
            .collect();
        assert_eq!(back, vec![0, 10, 20]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_replays_and_continues() {
        let dir = unique_dir("resume");
        let path = dir.join("j.jsonl");
        let mut w = CheckpointWriter::create(&path, &header(4), 32).unwrap();
        w.append(0, &1u64).unwrap();
        w.append(1, &2u64).unwrap();
        w.sync().unwrap();
        drop(w);

        let (mut w, replay) = CheckpointWriter::resume(&path, &header(4), 32).unwrap();
        assert_eq!(replay.values.len(), 2);
        assert!(!replay.truncated_tail);
        assert_eq!(w.entries(), 2);
        w.append(2, &3u64).unwrap();
        w.append(3, &4u64).unwrap();
        w.sync().unwrap();
        let contents = read_journal(&path).unwrap();
        assert_eq!(contents.values.len(), 4);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_final_line_is_truncated_and_resumed() {
        let dir = unique_dir("torn_tail");
        let path = dir.join("j.jsonl");
        let mut w = CheckpointWriter::create(&path, &header(4), 32).unwrap();
        w.append(0, &1u64).unwrap();
        w.append(1, &2u64).unwrap();
        w.sync().unwrap();
        drop(w);
        // Simulate a kill between batched fsyncs: chop the last line
        // mid-JSON. The reader must stop at the last complete entry.
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() - 5]).unwrap();
        let contents = read_journal(&path).unwrap();
        assert!(contents.truncated_tail);
        assert_eq!(contents.values.len(), 1);

        let (mut w, replay) = CheckpointWriter::resume(&path, &header(4), 32).unwrap();
        assert!(replay.truncated_tail);
        assert_eq!(replay.values.len(), 1);
        assert_eq!(w.entries(), 1);
        // The torn bytes are gone: re-appending task 1 yields a journal
        // byte-identical to one that never tore.
        w.append(1, &2u64).unwrap();
        w.sync().unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), text);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_multibyte_utf8_tail_is_truncated_not_io() {
        let dir = unique_dir("torn_utf8");
        let path = dir.join("j.jsonl");
        let mut w = CheckpointWriter::create(&path, &header(3), 32).unwrap();
        w.append(0, &"plain".to_string()).unwrap();
        w.append(1, &"émod\u{00e9}".to_string()).unwrap();
        w.sync().unwrap();
        drop(w);
        // Cut inside the final entry's last multi-byte code point: the
        // file is no longer valid UTF-8, which used to surface as an
        // opaque Io error from read_to_string.
        let bytes = std::fs::read(&path).unwrap();
        assert!(bytes.iter().any(|&b| b > 127), "fixture must be multi-byte");
        std::fs::write(&path, &bytes[..bytes.len() - 4]).unwrap();
        let contents = read_journal(&path).unwrap();
        assert!(contents.truncated_tail);
        assert_eq!(contents.values.len(), 1);
        let (w, replay) = CheckpointWriter::resume(&path, &header(3), 32).unwrap();
        assert!(replay.truncated_tail);
        assert_eq!(w.entries(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn interior_torn_line_stays_corrupt() {
        let dir = unique_dir("interior");
        let path = dir.join("j.jsonl");
        let mut w = CheckpointWriter::create(&path, &header(4), 32).unwrap();
        w.append(0, &1u64).unwrap();
        w.append(1, &2u64).unwrap();
        w.sync().unwrap();
        drop(w);
        // Damage an interior line but keep its newline: truncation by a
        // crash cannot produce this, so it is hard corruption.
        let text = std::fs::read_to_string(&path).unwrap();
        let damaged = text.replacen("{\"task\":0", "{\"task#:0", 1);
        assert_ne!(damaged, text);
        std::fs::write(&path, damaged).unwrap();
        match read_journal(&path) {
            Err(CheckpointError::Corrupt { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn interior_invalid_utf8_line_is_corrupt_with_line_number() {
        let dir = unique_dir("interior_utf8");
        let path = dir.join("j.jsonl");
        let mut w = CheckpointWriter::create(&path, &header(4), 32).unwrap();
        w.append(0, &1u64).unwrap();
        w.append(1, &2u64).unwrap();
        w.sync().unwrap();
        drop(w);
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a byte of the first entry line (line 2) to an invalid
        // UTF-8 sequence, newline intact.
        let header_end = bytes.iter().position(|&b| b == b'\n').unwrap();
        bytes[header_end + 2] = 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        match read_journal(&path) {
            Err(CheckpointError::Corrupt { line, detail }) => {
                assert_eq!(line, 2);
                assert!(detail.contains("UTF-8"), "detail: {detail}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn complete_but_unparseable_final_line_stays_corrupt() {
        let dir = unique_dir("final_complete");
        let path = dir.join("j.jsonl");
        let mut w = CheckpointWriter::create(&path, &header(4), 32).unwrap();
        w.append(0, &1u64).unwrap();
        w.sync().unwrap();
        drop(w);
        // A newline-terminated garbage line was fully written — that is
        // not a crash artifact and must not be silently dropped.
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("{broken\n");
        std::fs::write(&path, text).unwrap();
        assert!(matches!(
            read_journal(&path),
            Err(CheckpointError::Corrupt { line: 3, .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_header_is_corrupt_not_truncated() {
        let dir = unique_dir("torn_header");
        let path = dir.join("j.jsonl");
        drop(CheckpointWriter::create(&path, &header(4), 32).unwrap());
        // The header is installed atomically, so a newline-less header
        // means real corruption, not a crash artifact.
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text.trim_end()).unwrap();
        assert!(matches!(
            read_journal(&path),
            Err(CheckpointError::Corrupt { line: 1, .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn out_of_order_entry_is_corrupt() {
        let dir = unique_dir("order");
        let path = dir.join("j.jsonl");
        let w = CheckpointWriter::create(&path, &header(4), 32).unwrap();
        drop(w);
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("{\"task\":1,\"value\":5}\n");
        std::fs::write(&path, text).unwrap();
        assert!(matches!(
            read_journal(&path),
            Err(CheckpointError::Corrupt { line: 2, .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fingerprint_and_seed_mismatches_are_typed() {
        let dir = unique_dir("mismatch");
        let path = dir.join("j.jsonl");
        drop(CheckpointWriter::create(&path, &header(4), 32).unwrap());

        let mut other = header(4);
        other.fingerprint = fingerprint("test-driver", &43u64);
        assert!(matches!(
            CheckpointWriter::resume(&path, &other, 32),
            Err(CheckpointError::Mismatch {
                field: "fingerprint",
                ..
            })
        ));

        let mut other = header(4);
        other.seed = 8;
        assert!(matches!(
            CheckpointWriter::resume(&path, &other, 32),
            Err(CheckpointError::Mismatch { field: "seed", .. })
        ));

        let other = header(5);
        assert!(matches!(
            CheckpointWriter::resume(&path, &other, 32),
            Err(CheckpointError::Mismatch { field: "tasks", .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_after_complete_is_typed() {
        let dir = unique_dir("complete");
        let path = dir.join("j.jsonl");
        let mut w = CheckpointWriter::create(&path, &header(2), 32).unwrap();
        w.append(0, &1u64).unwrap();
        w.append(1, &2u64).unwrap();
        w.sync().unwrap();
        drop(w);
        assert!(matches!(
            CheckpointWriter::resume(&path, &header(2), 32),
            Err(CheckpointError::AlreadyComplete { tasks: 2 })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_ended_journals_never_report_complete() {
        let dir = unique_dir("open");
        let path = dir.join("j.jsonl");
        let mut w = CheckpointWriter::create(&path, &header(0), 32).unwrap();
        w.append(0, &1u64).unwrap();
        w.sync().unwrap();
        drop(w);
        let (_, replay) = CheckpointWriter::resume(&path, &header(0), 32).unwrap();
        assert_eq!(replay.values.len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_journal_is_an_io_error() {
        let dir = unique_dir("missing");
        assert!(matches!(
            read_journal(&dir.join("nope.jsonl")),
            Err(CheckpointError::Io(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn out_of_order_append_is_rejected() {
        let dir = unique_dir("append_order");
        let path = dir.join("j.jsonl");
        let mut w = CheckpointWriter::create(&path, &header(4), 32).unwrap();
        w.append(0, &1u64).unwrap();
        assert!(matches!(
            w.append(2, &3u64),
            Err(CheckpointError::Corrupt { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fingerprint_depends_on_driver_and_config() {
        assert_ne!(fingerprint("a", &1u64), fingerprint("b", &1u64));
        assert_ne!(fingerprint("a", &1u64), fingerprint("a", &2u64));
        assert_eq!(fingerprint("a", &1u64), fingerprint("a", &1u64));
    }

    #[test]
    fn journal_fingerprint_pins_workers_and_namespaces_representations() {
        #[derive(Serialize)]
        struct Cfg {
            seed: u64,
            workers: usize,
        }
        let at = |workers| Cfg { seed: 5, workers };
        let pinned = fingerprint("d", &(at(0), 7u64));
        assert_eq!(journal_fingerprint("d", "", &(at(3), 7u64)), pinned);
        assert_eq!(
            journal_fingerprint("d", "", &at(3)),
            fingerprint("d", &at(0))
        );
        assert_eq!(
            journal_fingerprint("d", "_quant", &(at(1), 7u64)),
            fingerprint("d_quant", &(at(0), 7u64))
        );
        assert_ne!(journal_fingerprint("d", "_quant", &(at(0), 7u64)), pinned);
    }

    #[test]
    fn shard_header_roundtrips_with_global_task_ids() {
        let dir = unique_dir("shard_roundtrip");
        let path = dir.join("s.jsonl");
        let info = ShardInfo {
            index: 1,
            count: 2,
            start: 5,
            total: 9,
        };
        let mut w = CheckpointWriter::create(&path, &shard_header(4, info), 32).unwrap();
        // Entries carry global ids: this shard owns 5..9.
        for i in 5..9usize {
            w.append(i, &(i as u64)).unwrap();
        }
        w.sync().unwrap();
        let contents = read_journal(&path).unwrap();
        assert_eq!(contents.header.shard, Some(info));
        assert_eq!(contents.header.base(), 5);
        assert_eq!(contents.values.len(), 4);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shard_append_rejects_local_ids() {
        let dir = unique_dir("shard_local");
        let path = dir.join("s.jsonl");
        let info = ShardInfo {
            index: 1,
            count: 2,
            start: 5,
            total: 9,
        };
        let mut w = CheckpointWriter::create(&path, &shard_header(4, info), 32).unwrap();
        assert!(matches!(
            w.append(0, &1u64),
            Err(CheckpointError::Corrupt { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shard_entry_beyond_range_is_corrupt() {
        let dir = unique_dir("shard_beyond");
        let path = dir.join("s.jsonl");
        let info = ShardInfo {
            index: 0,
            count: 2,
            start: 0,
            total: 4,
        };
        let w = CheckpointWriter::create(&path, &shard_header(2, info), 32).unwrap();
        drop(w);
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str(
            "{\"task\":0,\"value\":1}\n{\"task\":1,\"value\":2}\n{\"task\":2,\"value\":3}\n",
        );
        std::fs::write(&path, text).unwrap();
        assert!(matches!(
            read_journal(&path),
            Err(CheckpointError::Corrupt { line: 4, .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shard_info_mismatch_is_typed() {
        let dir = unique_dir("shard_mismatch");
        let path = dir.join("s.jsonl");
        let info = ShardInfo {
            index: 0,
            count: 2,
            start: 0,
            total: 4,
        };
        drop(CheckpointWriter::create(&path, &shard_header(2, info), 32).unwrap());
        let other = ShardInfo { index: 1, ..info };
        assert!(matches!(
            CheckpointWriter::resume(&path, &shard_header(2, other), 32),
            Err(CheckpointError::Mismatch { field: "shard", .. })
        ));
        assert!(matches!(
            CheckpointWriter::resume(&path, &header(2), 32),
            Err(CheckpointError::Mismatch { field: "shard", .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_with_allow_complete_reopens_finished_journals() {
        let dir = unique_dir("allow_complete");
        let path = dir.join("j.jsonl");
        let mut w = CheckpointWriter::create(&path, &header(2), 32).unwrap();
        w.append(0, &1u64).unwrap();
        w.append(1, &2u64).unwrap();
        w.sync().unwrap();
        drop(w);
        let (w, replay) = CheckpointWriter::resume_with(&path, &header(2), 32, true).unwrap();
        assert_eq!(replay.values.len(), 2);
        assert_eq!(w.entries(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }
}
