//! Distributed sharded campaigns: the shard planner and the strict
//! journal-merge verifier.
//!
//! The engine's seed discipline makes every task result a pure function
//! of `(campaign_seed, task_id)`, and journals are fingerprinted JSONL —
//! so a driver's ordered task space `0..n` can be split across N
//! processes (or machines) and reassembled without losing the
//! bit-identical-report guarantee:
//!
//! * A [`ShardPlan`] partitions `0..tasks` into `count` contiguous,
//!   balanced ranges and derives each shard's journal fingerprint from
//!   the *unsharded* journal fingerprint plus the shard count and index
//!   ([`ShardPlan::shard_fingerprint`]), so shards of different plans —
//!   or different positions in the same plan — can never be confused.
//! * Each shard runs the normal engine path over its sub-range
//!   ([`crate::engine::EvalEngine::run_shard_checkpointed`]), writing the
//!   shard journal its `RunControl` carries — a shard run without one is
//!   refused as [`ShardError::Plan`] — whose entries carry **global** task
//!   ids and whose header records its [`crate::checkpoint::ShardInfo`]. Crash-safe
//!   resume — replay, torn-tail truncate-and-resume — works per shard,
//!   exactly as for whole-campaign journals.
//! * [`merge_shards`] stitches N shard journals into one journal under
//!   the unsharded header. Because entries already carry global ids in
//!   the single-process serialization, the merge is raw byte
//!   concatenation of the validated entry regions: the merged journal is
//!   **byte-for-byte identical** to the journal a single-process run
//!   writes. Overlap, gap, count/index mismatch, fingerprint mismatch,
//!   duplicate or missing shards, torn tails and short shards are all
//!   typed [`ShardError`]s — never panics, matching the checkpoint
//!   reader's standards.
//!
//! A merged journal turns into a report through the driver's one entry
//! point, its [`crate::engine::RunControl`] journaling to the merged file
//! with [`crate::engine::CheckpointSpec::finalizing`]: every entry
//! replays, zero tasks run, and the assembled report is the
//! single-process code path verbatim.

use crate::checkpoint::{fingerprint, read_journal, CheckpointError, CheckpointHeader, ShardInfo};
use crate::engine::EngineError;
use std::fmt;
use std::io::Write;
use std::ops::Range;
use std::path::{Path, PathBuf};

/// Why a shard plan could not be built, a shard could not run, or a set
/// of shard journals could not be merged. Every variant is typed and
/// recoverable; nothing on this path panics.
#[derive(Debug)]
pub enum ShardError {
    /// The plan parameters are unusable (zero shards, more shards than
    /// tasks, …).
    Plan {
        /// What was wrong with the requested plan.
        detail: String,
    },
    /// A shard index outside `0..count` was addressed.
    IndexOutOfRange {
        /// The offending index.
        index: usize,
        /// The plan's shard count.
        count: usize,
    },
    /// A journal offered to the merge carries no shard info — it is a
    /// whole-campaign journal, not a shard.
    NotAShard {
        /// The offending journal.
        path: PathBuf,
    },
    /// A shard journal belongs to a plan with a different shard count.
    CountMismatch {
        /// The offending journal.
        path: PathBuf,
        /// The merging plan's shard count.
        expected: usize,
        /// The count recorded in the journal.
        found: usize,
    },
    /// A shard journal belongs to a campaign with a different total task
    /// count.
    TotalMismatch {
        /// The offending journal.
        path: PathBuf,
        /// The merging plan's total task count.
        expected: usize,
        /// The total recorded in the journal.
        found: usize,
    },
    /// A shard journal was written under a different engine seed.
    SeedMismatch {
        /// The offending journal.
        path: PathBuf,
        /// The merging plan's seed.
        expected: u64,
        /// The seed recorded in the journal.
        found: u64,
    },
    /// A shard journal's fingerprint does not match the plan's derived
    /// fingerprint for its claimed index — it is a shard of a *different*
    /// campaign or plan.
    FingerprintMismatch {
        /// The shard index the journal claims.
        index: usize,
        /// The fingerprint the plan derives for that index.
        expected: String,
        /// The fingerprint found in the journal.
        found: String,
    },
    /// Two journals claim the same shard index.
    DuplicateShard {
        /// The index claimed twice.
        index: usize,
    },
    /// No journal covers this shard index.
    MissingShard {
        /// The uncovered index.
        index: usize,
    },
    /// A shard's claimed range starts before the previous shard's range
    /// ends — the shards overlap.
    Overlap {
        /// The index whose range overlaps its predecessor.
        index: usize,
    },
    /// A shard's claimed range starts after the previous shard's range
    /// ends — the task space has a hole. `index == count` marks a gap
    /// after the final shard.
    Gap {
        /// The index before which the gap opens.
        index: usize,
    },
    /// A shard journal ends in a torn final line. The merge refuses it:
    /// resume the shard (which truncates and recomputes the torn task)
    /// before merging.
    TornTail {
        /// The shard whose journal is torn.
        index: usize,
    },
    /// A shard journal holds fewer entries than its range — the shard has
    /// not finished. Resume it to completion before merging.
    Incomplete {
        /// The unfinished shard.
        index: usize,
        /// Entries present.
        have: usize,
        /// Entries its range requires.
        want: usize,
    },
    /// A shard journal could not be read or validated.
    Checkpoint(CheckpointError),
    /// A shard run failed inside the engine.
    Engine(EngineError),
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::Plan { detail } => write!(f, "invalid shard plan: {detail}"),
            ShardError::IndexOutOfRange { index, count } => {
                write!(f, "shard index {index} out of range for {count} shards")
            }
            ShardError::NotAShard { path } => {
                write!(f, "{} is not a shard journal", path.display())
            }
            ShardError::CountMismatch {
                path,
                expected,
                found,
            } => write!(
                f,
                "{} belongs to a {found}-shard plan, not {expected}",
                path.display()
            ),
            ShardError::TotalMismatch {
                path,
                expected,
                found,
            } => write!(
                f,
                "{} covers a {found}-task campaign, not {expected}",
                path.display()
            ),
            ShardError::SeedMismatch {
                path,
                expected,
                found,
            } => write!(
                f,
                "{} was written under engine seed {found}, not {expected}",
                path.display()
            ),
            ShardError::FingerprintMismatch {
                index,
                expected,
                found,
            } => write!(
                f,
                "shard {index} fingerprint mismatch: plan derives {expected}, journal has {found}"
            ),
            ShardError::DuplicateShard { index } => {
                write!(f, "two journals claim shard {index}")
            }
            ShardError::MissingShard { index } => {
                write!(f, "no journal covers shard {index}")
            }
            ShardError::Overlap { index } => {
                write!(f, "shard {index} overlaps its predecessor's range")
            }
            ShardError::Gap { index } => {
                write!(f, "task space has a gap before shard {index}")
            }
            ShardError::TornTail { index } => write!(
                f,
                "shard {index} ends in a torn line; resume it before merging"
            ),
            ShardError::Incomplete { index, have, want } => write!(
                f,
                "shard {index} is incomplete: {have} of {want} entries; resume it before merging"
            ),
            ShardError::Checkpoint(e) => write!(f, "{e}"),
            ShardError::Engine(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ShardError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ShardError::Checkpoint(e) => Some(e),
            ShardError::Engine(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CheckpointError> for ShardError {
    fn from(e: CheckpointError) -> Self {
        ShardError::Checkpoint(e)
    }
}

impl From<EngineError> for ShardError {
    fn from(e: EngineError) -> Self {
        ShardError::Engine(e)
    }
}

impl From<std::io::Error> for ShardError {
    fn from(e: std::io::Error) -> Self {
        ShardError::Checkpoint(CheckpointError::Io(e))
    }
}

/// A deterministic partition of a driver's ordered task space `0..tasks`
/// into `count` contiguous, balanced ranges, bound to the campaign's
/// unsharded journal fingerprint and engine seed.
///
/// Every participant — shard runners, the merge verifier, the finalize
/// step — derives the same plan from the same `(fingerprint, seed,
/// tasks, count)`, so no plan file needs distributing: the spec that
/// identifies the campaign identifies the plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    fingerprint: String,
    seed: u64,
    tasks: usize,
    count: usize,
}

impl ShardPlan {
    /// Builds a plan splitting `tasks` tasks into `count` shards.
    /// `fingerprint` is the campaign's **unsharded** journal fingerprint
    /// (what a single-process run of the same spec binds).
    ///
    /// # Errors
    ///
    /// [`ShardError::Plan`] when `count` is zero, `tasks` is zero, or
    /// there are more shards than tasks (an empty shard could never
    /// produce a valid closed journal).
    pub fn new(
        fingerprint: String,
        seed: u64,
        tasks: usize,
        count: usize,
    ) -> Result<Self, ShardError> {
        let plan_err = |detail: String| Err(ShardError::Plan { detail });
        if count == 0 {
            return plan_err("shard count must be positive".to_string());
        }
        if tasks == 0 {
            return plan_err("cannot shard an empty task space".to_string());
        }
        if count > tasks {
            return plan_err(format!(
                "{count} shards over {tasks} tasks leaves empty shards"
            ));
        }
        Ok(ShardPlan {
            fingerprint,
            seed,
            tasks,
            count,
        })
    }

    /// The unsharded journal fingerprint the plan derives from.
    #[must_use]
    pub fn base_fingerprint(&self) -> &str {
        &self.fingerprint
    }

    /// The engine seed every shard runs under.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Total task count of the whole campaign.
    #[must_use]
    pub fn tasks(&self) -> usize {
        self.tasks
    }

    /// Number of shards in the plan.
    #[must_use]
    pub fn count(&self) -> usize {
        self.count
    }

    /// The contiguous global task range shard `index` owns. Ranges are
    /// balanced — lengths differ by at most one, longer shards first —
    /// and tile `0..tasks` exactly in index order.
    ///
    /// # Errors
    ///
    /// [`ShardError::IndexOutOfRange`] when `index >= count`.
    pub fn range(&self, index: usize) -> Result<Range<usize>, ShardError> {
        if index >= self.count {
            return Err(ShardError::IndexOutOfRange {
                index,
                count: self.count,
            });
        }
        let base_len = self.tasks / self.count;
        let rem = self.tasks % self.count;
        let start = index * base_len + index.min(rem);
        let len = base_len + usize::from(index < rem);
        Ok(start..start + len)
    }

    /// The [`ShardInfo`] shard `index`'s journal header carries.
    ///
    /// # Errors
    ///
    /// [`ShardError::IndexOutOfRange`] when `index >= count`.
    pub fn info(&self, index: usize) -> Result<ShardInfo, ShardError> {
        let range = self.range(index)?;
        Ok(ShardInfo {
            index,
            count: self.count,
            start: range.start,
            total: self.tasks,
        })
    }

    /// The journal fingerprint shard `index` binds: derived from the
    /// unsharded fingerprint plus the shard count and index, so journals
    /// of different plans (or different positions within one plan) can
    /// never be merged or cross-resumed by mistake.
    #[must_use]
    pub fn shard_fingerprint(&self, index: usize) -> String {
        let base = self.fingerprint.as_str();
        let count = self.count as u64;
        fingerprint("shard", &(base.to_string(), count, index as u64))
    }

    /// The header of the merged (unsharded) journal the plan reassembles
    /// into — identical to the header a single-process run writes.
    #[must_use]
    pub fn merged_header(&self) -> CheckpointHeader {
        CheckpointHeader {
            fingerprint: self.fingerprint.clone(),
            seed: self.seed,
            tasks: self.tasks,
            shard: None,
        }
    }
}

/// What [`merge_shards`] produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MergeSummary {
    /// Task entries in the merged journal (the plan's total).
    pub tasks: usize,
    /// Shard journals consumed.
    pub shards: usize,
    /// Byte length of the merged journal.
    pub bytes: u64,
}

/// Stitches the `count` shard journals of `plan` into one whole-campaign
/// journal at `out`, byte-for-byte identical to the journal a
/// single-process run of the same campaign writes.
///
/// Every journal is strictly validated first — shard info present,
/// count/total/seed/fingerprint against the plan, no duplicates, no torn
/// tails, complete coverage of each claimed range, and the claimed ranges
/// must tile `0..tasks` exactly (overlaps and gaps are typed errors).
/// Only then is the merged journal assembled, by concatenating the
/// validated entry regions verbatim under the unsharded header, written
/// to a sibling temporary file and atomically renamed into place. As a
/// final self-check the merged journal is re-read and re-validated
/// end-to-end.
///
/// `shard_paths` may be in any order; shards are stitched in index order.
///
/// # Errors
///
/// Every [`ShardError`] variant described above; [`ShardError::Checkpoint`]
/// for unreadable or corrupt journals.
pub fn merge_shards(
    plan: &ShardPlan,
    shard_paths: &[PathBuf],
    out: &Path,
) -> Result<MergeSummary, ShardError> {
    // Validate every journal and slot it by claimed index.
    let mut slots: Vec<Option<(&PathBuf, crate::checkpoint::JournalContents)>> =
        (0..plan.count).map(|_| None).collect();
    for path in shard_paths {
        let contents = read_journal(path)?;
        let Some(info) = contents.header.shard else {
            return Err(ShardError::NotAShard { path: path.clone() });
        };
        if info.count != plan.count {
            return Err(ShardError::CountMismatch {
                path: path.clone(),
                expected: plan.count,
                found: info.count,
            });
        }
        if info.total != plan.tasks {
            return Err(ShardError::TotalMismatch {
                path: path.clone(),
                expected: plan.tasks,
                found: info.total,
            });
        }
        if contents.header.seed != plan.seed {
            return Err(ShardError::SeedMismatch {
                path: path.clone(),
                expected: plan.seed,
                found: contents.header.seed,
            });
        }
        if info.index >= plan.count {
            return Err(ShardError::IndexOutOfRange {
                index: info.index,
                count: plan.count,
            });
        }
        let expected_fp = plan.shard_fingerprint(info.index);
        if contents.header.fingerprint != expected_fp {
            return Err(ShardError::FingerprintMismatch {
                index: info.index,
                expected: expected_fp,
                found: contents.header.fingerprint.clone(),
            });
        }
        if contents.truncated_tail {
            return Err(ShardError::TornTail { index: info.index });
        }
        if contents.values.len() < contents.header.tasks {
            return Err(ShardError::Incomplete {
                index: info.index,
                have: contents.values.len(),
                want: contents.header.tasks,
            });
        }
        let slot = slots
            .get_mut(info.index)
            .ok_or(ShardError::IndexOutOfRange {
                index: info.index,
                count: plan.count,
            })?;
        if slot.is_some() {
            return Err(ShardError::DuplicateShard { index: info.index });
        }
        *slot = Some((path, contents));
    }

    // Every index covered, and the claimed ranges tile 0..tasks exactly.
    let mut cursor = 0usize;
    for (index, slot) in slots.iter().enumerate() {
        let Some((_, contents)) = slot else {
            return Err(ShardError::MissingShard { index });
        };
        let start = contents.header.base();
        if start < cursor {
            return Err(ShardError::Overlap { index });
        }
        if start > cursor {
            return Err(ShardError::Gap { index });
        }
        cursor = start + contents.header.tasks;
    }
    if cursor != plan.tasks {
        return Err(ShardError::Gap { index: plan.count });
    }

    // Stitch: unsharded header line, then each shard's entry bytes
    // verbatim, in index order — written to a temp file and renamed in,
    // like the checkpoint writer's own header install.
    let mut tmp_name = out
        .file_name()
        .map(std::ffi::OsString::from)
        .unwrap_or_default();
    tmp_name.push(".tmp");
    let tmp = out.with_file_name(tmp_name);
    let mut file = std::fs::File::create(&tmp)?;
    writeln!(file, "{}", plan.merged_header().to_json_line()?)?;
    for slot in &slots {
        let Some((path, contents)) = slot else {
            // Unreachable: the coverage walk above errored on any hole.
            continue;
        };
        let bytes = std::fs::read(path)?;
        let header_end =
            bytes
                .iter()
                .position(|&b| b == b'\n')
                .ok_or_else(|| CheckpointError::Corrupt {
                    line: 1,
                    detail: format!("{} lost its header mid-merge", path.display()),
                })?;
        let end = (contents.complete_len as usize).min(bytes.len());
        if header_end + 1 < end {
            file.write_all(&bytes[header_end + 1..end])?;
        }
    }
    file.sync_all()?;
    std::fs::rename(&tmp, out)?;

    // Self-check: the merged journal must re-validate as a complete
    // unsharded journal (global ids contiguous across the seams).
    let merged = read_journal(out)?;
    merged.header.verify_matches(&plan.merged_header())?;
    if merged.truncated_tail || merged.values.len() != plan.tasks {
        return Err(ShardError::Incomplete {
            index: plan.count,
            have: merged.values.len(),
            want: plan.tasks,
        });
    }
    Ok(MergeSummary {
        tasks: plan.tasks,
        shards: plan.count,
        bytes: merged.complete_len,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::CheckpointWriter;

    fn unique_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("bdlfi_shard_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn plan(tasks: usize, count: usize) -> ShardPlan {
        ShardPlan::new("basefp".to_string(), 7, tasks, count).unwrap()
    }

    /// Writes shard `index`'s complete journal under `plan`, with entry
    /// values equal to their global task id.
    fn write_shard(dir: &Path, plan: &ShardPlan, index: usize) -> PathBuf {
        let path = dir.join(format!("shard{index}.jsonl"));
        let range = plan.range(index).unwrap();
        let header = CheckpointHeader {
            fingerprint: plan.shard_fingerprint(index),
            seed: plan.seed(),
            tasks: range.len(),
            shard: Some(plan.info(index).unwrap()),
        };
        let mut w = CheckpointWriter::create(&path, &header, 32).unwrap();
        for i in range {
            w.append(i, &(i as u64)).unwrap();
        }
        w.sync().unwrap();
        path
    }

    /// The single-process journal the merge must reproduce byte-for-byte.
    fn write_reference(dir: &Path, plan: &ShardPlan) -> PathBuf {
        let path = dir.join("reference.jsonl");
        let mut w = CheckpointWriter::create(&path, &plan.merged_header(), 32).unwrap();
        for i in 0..plan.tasks() {
            w.append(i, &(i as u64)).unwrap();
        }
        w.sync().unwrap();
        path
    }

    #[test]
    fn ranges_are_balanced_and_tile_the_task_space() {
        for (tasks, count) in [(10, 3), (8, 8), (100, 7), (5, 1)] {
            let p = plan(tasks, count);
            let mut cursor = 0usize;
            let mut lens = Vec::new();
            for i in 0..count {
                let r = p.range(i).unwrap();
                assert_eq!(r.start, cursor, "tasks={tasks} count={count} i={i}");
                assert!(!r.is_empty());
                lens.push(r.len());
                cursor = r.end;
            }
            assert_eq!(cursor, tasks);
            let max = lens.iter().max().unwrap();
            let min = lens.iter().min().unwrap();
            assert!(max - min <= 1, "unbalanced: {lens:?}");
        }
    }

    #[test]
    fn bad_plans_are_typed_errors() {
        assert!(matches!(
            ShardPlan::new("f".into(), 0, 10, 0),
            Err(ShardError::Plan { .. })
        ));
        assert!(matches!(
            ShardPlan::new("f".into(), 0, 0, 1),
            Err(ShardError::Plan { .. })
        ));
        assert!(matches!(
            ShardPlan::new("f".into(), 0, 3, 4),
            Err(ShardError::Plan { .. })
        ));
        assert!(matches!(
            plan(10, 3).range(3),
            Err(ShardError::IndexOutOfRange { index: 3, count: 3 })
        ));
    }

    #[test]
    fn shard_fingerprints_are_distinct_per_index_count_and_base() {
        let p = plan(10, 3);
        assert_ne!(p.shard_fingerprint(0), p.shard_fingerprint(1));
        let p2 = plan(10, 2);
        assert_ne!(p.shard_fingerprint(0), p2.shard_fingerprint(0));
        let other = ShardPlan::new("otherfp".to_string(), 7, 10, 3).unwrap();
        assert_ne!(p.shard_fingerprint(0), other.shard_fingerprint(0));
        // And none equals the base fingerprint itself.
        assert_ne!(p.shard_fingerprint(0), p.base_fingerprint());
    }

    #[test]
    fn merge_reproduces_the_single_process_journal_byte_for_byte() {
        let dir = unique_dir("merge_ok");
        let p = plan(10, 3);
        let mut paths: Vec<PathBuf> = (0..3).map(|i| write_shard(&dir, &p, i)).collect();
        // Arrival order must not matter.
        paths.reverse();
        let out = dir.join("merged.jsonl");
        let summary = merge_shards(&p, &paths, &out).unwrap();
        assert_eq!(summary.tasks, 10);
        assert_eq!(summary.shards, 3);
        let reference = write_reference(&dir, &p);
        assert_eq!(
            std::fs::read(&out).unwrap(),
            std::fs::read(&reference).unwrap(),
            "merged journal differs from single-process journal"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_and_duplicate_shards_are_typed() {
        let dir = unique_dir("missing_dup");
        let p = plan(10, 3);
        let s0 = write_shard(&dir, &p, 0);
        let s1 = write_shard(&dir, &p, 1);
        let out = dir.join("merged.jsonl");
        assert!(matches!(
            merge_shards(&p, &[s0.clone(), s1.clone()], &out),
            Err(ShardError::MissingShard { index: 2 })
        ));
        let s1_copy = dir.join("shard1_copy.jsonl");
        std::fs::copy(&s1, &s1_copy).unwrap();
        assert!(matches!(
            merge_shards(&p, &[s0, s1, s1_copy], &out),
            Err(ShardError::DuplicateShard { index: 1 })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn foreign_and_mismatched_journals_are_typed() {
        let dir = unique_dir("mismatch");
        let p = plan(10, 3);
        let out = dir.join("merged.jsonl");

        // An unsharded journal is not a shard.
        let plain = write_reference(&dir, &p);
        assert!(matches!(
            merge_shards(&p, &[plain], &out),
            Err(ShardError::NotAShard { .. })
        ));

        // A shard of a 2-way plan offered to a 3-way merge.
        let p2 = plan(10, 2);
        let foreign = write_shard(&dir, &p2, 0);
        assert!(matches!(
            merge_shards(&p, &[foreign], &out),
            Err(ShardError::CountMismatch {
                expected: 3,
                found: 2,
                ..
            })
        ));

        // A shard of a different campaign total.
        let p_total = ShardPlan::new("basefp".to_string(), 7, 12, 3).unwrap();
        let other_total = write_shard(&dir, &p_total, 0);
        assert!(matches!(
            merge_shards(&p, &[other_total], &out),
            Err(ShardError::TotalMismatch {
                expected: 10,
                found: 12,
                ..
            })
        ));

        // Same shape, different seed.
        let p_seed = ShardPlan::new("basefp".to_string(), 8, 10, 3).unwrap();
        let other_seed = write_shard(&dir, &p_seed, 0);
        assert!(matches!(
            merge_shards(&p, &[other_seed], &out),
            Err(ShardError::SeedMismatch {
                expected: 7,
                found: 8,
                ..
            })
        ));

        // Same shape and seed, different base fingerprint.
        let p_fp = ShardPlan::new("otherfp".to_string(), 7, 10, 3).unwrap();
        let other_fp = write_shard(&dir, &p_fp, 0);
        assert!(matches!(
            merge_shards(&p, &[other_fp], &out),
            Err(ShardError::FingerprintMismatch { index: 0, .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_and_incomplete_shards_are_refused() {
        let dir = unique_dir("torn");
        let p = plan(10, 2);
        let s0 = write_shard(&dir, &p, 0);
        let s1 = write_shard(&dir, &p, 1);
        let out = dir.join("merged.jsonl");

        // Chop shard 1's last line mid-JSON: torn tail.
        let text = std::fs::read_to_string(&s1).unwrap();
        std::fs::write(&s1, &text[..text.len() - 3]).unwrap();
        assert!(matches!(
            merge_shards(&p, &[s0.clone(), s1.clone()], &out),
            Err(ShardError::TornTail { index: 1 })
        ));

        // Drop the torn line entirely: complete lines, short journal.
        let keep: Vec<&str> = text.lines().collect();
        let short = keep[..keep.len() - 1].join("\n") + "\n";
        std::fs::write(&s1, short).unwrap();
        assert!(matches!(
            merge_shards(&p, &[s0, s1], &out),
            Err(ShardError::Incomplete {
                index: 1,
                have: 4,
                want: 5
            })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn overlap_and_gap_are_typed() {
        let dir = unique_dir("tiling");
        let p = plan(10, 2);
        let out = dir.join("merged.jsonl");

        // Hand-craft shard 1 claiming a start inside shard 0's range.
        // Its fingerprint and count/total match the plan, so only the
        // tiling check can reject it.
        let overlap_path = dir.join("overlap.jsonl");
        let info = ShardInfo {
            index: 1,
            count: 2,
            start: 3,
            total: 10,
        };
        let header = CheckpointHeader {
            fingerprint: p.shard_fingerprint(1),
            seed: p.seed(),
            tasks: 5,
            shard: Some(info),
        };
        let mut w = CheckpointWriter::create(&overlap_path, &header, 32).unwrap();
        for i in 3..8usize {
            w.append(i, &(i as u64)).unwrap();
        }
        w.sync().unwrap();
        let s0 = write_shard(&dir, &p, 0);
        assert!(matches!(
            merge_shards(&p, &[s0.clone(), overlap_path], &out),
            Err(ShardError::Overlap { index: 1 })
        ));

        // And one starting past shard 0's end: a gap.
        let gap_path = dir.join("gap.jsonl");
        let info = ShardInfo {
            index: 1,
            count: 2,
            start: 7,
            total: 10,
        };
        let header = CheckpointHeader {
            fingerprint: p.shard_fingerprint(1),
            seed: p.seed(),
            tasks: 3,
            shard: Some(info),
        };
        let mut w = CheckpointWriter::create(&gap_path, &header, 32).unwrap();
        for i in 7..10usize {
            w.append(i, &(i as u64)).unwrap();
        }
        w.sync().unwrap();
        assert!(matches!(
            merge_shards(&p, &[s0, gap_path], &out),
            Err(ShardError::Gap { index: 1 })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }
}
