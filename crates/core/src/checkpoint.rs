//! Checkpoint/resume for seed sweeps.
//!
//! A multi-minute [`crate::differential::fault_sweep`] should survive an
//! interruption the way the system it checks survives device faults: an
//! interrupted sweep resumes where it left off and produces a final report
//! byte-identical to an uninterrupted run's. The mechanism is a
//! [`SweepCheckpoint`]: per shard, the count of completed seeds (each
//! shard walks its contiguous chunk in ascending order, so one cursor
//! suffices) plus the shard's accumulated outcomes and telemetry.
//! Checkpoints are dependency-free JSON (`sweep-checkpoint/v1`, rendered
//! with [`obs::json`]) and every write goes through a temp-file-and-rename
//! ([`write_atomic`]), so a kill at any moment leaves either the previous
//! or the next complete checkpoint on disk — never a torn one.
//!
//! Soundness of resume rests on two facts the rest of the repo already
//! enforces: every check is a pure function of its seed (so replaying the
//! remainder is equivalent to having never stopped), and per-shard
//! counters are summed on merge (so restored partial counters extend
//! order-insensitively).

use crate::differential::DiffError;
use obs::json::{parse, Value};
use obs::Counters;
use riscv_spec::{MmioEvent, MmioEventKind};
use std::path::Path;

/// Running state of one shard: the resume cursor plus everything the
/// shard has concluded so far. `done` seeds have been fully classified;
/// on resume the shard skips exactly that many and continues.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ShardProgress {
    /// Seeds completed in this shard (contiguous from the shard's start).
    pub done: u64,
    /// Seeds that passed.
    pub conclusive: u64,
    /// Seeds discarded as inconclusive.
    pub inconclusive: u64,
    /// Failing seeds with their classified errors.
    pub failures: Vec<(u64, DiffError)>,
    /// Seeds whose check panicked, with the panic payload.
    pub panicked: Vec<(u64, String)>,
    /// The shard's telemetry registry at the cursor.
    pub counters: Counters,
}

/// A whole sweep's progress: geometry (so resume can refuse a mismatched
/// sweep) plus one [`ShardProgress`] per shard.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepCheckpoint {
    /// Workload tag supplied by the harness (e.g. `"fault_sweep"`).
    pub tag: String,
    /// First seed of the sweep.
    pub start: u64,
    /// Total seeds in the sweep.
    pub total: u64,
    /// Shard count.
    pub shards: usize,
    /// Seeds per shard (last shard may run fewer).
    pub chunk: u64,
    /// Per-shard progress, shard 0 first.
    pub shard_states: Vec<ShardProgress>,
}

impl SweepCheckpoint {
    /// An empty checkpoint for a sweep about to start.
    pub fn fresh(tag: &str, start: u64, total: u64, shards: usize, chunk: u64) -> SweepCheckpoint {
        SweepCheckpoint {
            tag: tag.to_string(),
            start,
            total,
            shards,
            chunk,
            shard_states: vec![ShardProgress::default(); shards],
        }
    }

    /// Seeds completed across all shards.
    pub fn completed(&self) -> u64 {
        self.shard_states.iter().map(|s| s.done).sum()
    }

    /// Checks that this checkpoint belongs to a sweep over `seeds` with
    /// `shards` requested shards, split the way
    /// [`crate::differential::resilient_sweep`] splits it. Resuming under a
    /// different geometry would misattribute cursors to the wrong seeds; a
    /// different tag means a different workload entirely.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first mismatch.
    pub fn validate(
        &self,
        seeds: std::ops::Range<u64>,
        shards: usize,
        tag: Option<&str>,
    ) -> Result<(), String> {
        let (start, total) = (seeds.start, seeds.end.saturating_sub(seeds.start));
        let (shards, chunk) = crate::differential::sweep_geometry(&seeds, shards);
        if let Some(tag) = tag {
            if self.tag != tag {
                return Err(format!(
                    "checkpoint tag {:?} does not match this sweep's tag {tag:?}",
                    self.tag
                ));
            }
        }
        if (self.start, self.total, self.shards, self.chunk) != (start, total, shards, chunk) {
            return Err(format!(
                "checkpoint geometry (start {}, total {}, shards {}, chunk {}) does not match \
                 this sweep (start {start}, total {total}, shards {shards}, chunk {chunk}); \
                 rerun with the original --seeds/--shards",
                self.start, self.total, self.shards, self.chunk
            ));
        }
        if self.shard_states.len() != self.shards {
            return Err(format!(
                "checkpoint carries {} shard states for {} shards",
                self.shard_states.len(),
                self.shards
            ));
        }
        Ok(())
    }

    /// Serializes the checkpoint (`sweep-checkpoint/v1`).
    pub fn to_json(&self) -> Value {
        let shard = |s: &ShardProgress| {
            Value::obj()
                .field("done", Value::UInt(s.done))
                .field("conclusive", Value::UInt(s.conclusive))
                .field("inconclusive", Value::UInt(s.inconclusive))
                .field(
                    "failures",
                    Value::Arr(
                        s.failures
                            .iter()
                            .map(|(seed, e)| {
                                Value::obj()
                                    .field("seed", Value::UInt(*seed))
                                    .field("error", error_to_json(e))
                            })
                            .collect(),
                    ),
                )
                .field(
                    "panicked",
                    Value::Arr(
                        s.panicked
                            .iter()
                            .map(|(seed, payload)| {
                                Value::obj()
                                    .field("seed", Value::UInt(*seed))
                                    .field("payload", Value::Str(payload.clone()))
                            })
                            .collect(),
                    ),
                )
                .field(
                    "counters",
                    Value::Obj(
                        s.counters
                            .iter()
                            .map(|(k, v)| (k.to_string(), Value::UInt(v)))
                            .collect(),
                    ),
                )
        };
        Value::obj()
            .field("schema", Value::Str("sweep-checkpoint/v1".into()))
            .field("tag", Value::Str(self.tag.clone()))
            .field("start", Value::UInt(self.start))
            .field("total", Value::UInt(self.total))
            .field("shards", Value::UInt(self.shards as u64))
            .field("chunk", Value::UInt(self.chunk))
            .field(
                "shard_states",
                Value::Arr(self.shard_states.iter().map(shard).collect()),
            )
    }

    /// Parses a checkpoint document back.
    ///
    /// # Errors
    ///
    /// A message naming the malformed field.
    pub fn from_json(v: &Value) -> Result<SweepCheckpoint, String> {
        if v.get("schema").and_then(Value::as_str) != Some("sweep-checkpoint/v1") {
            return Err("not a sweep-checkpoint/v1 document".to_string());
        }
        let mut cp = SweepCheckpoint {
            tag: str_field(v, "tag")?.to_string(),
            start: uint_field(v, "start")?,
            total: uint_field(v, "total")?,
            shards: uint_field(v, "shards")? as usize,
            chunk: uint_field(v, "chunk")?,
            shard_states: Vec::new(),
        };
        for s in arr_field(v, "shard_states")? {
            let mut shard = ShardProgress {
                done: uint_field(s, "done")?,
                conclusive: uint_field(s, "conclusive")?,
                inconclusive: uint_field(s, "inconclusive")?,
                ..ShardProgress::default()
            };
            for f in arr_field(s, "failures")? {
                let e = f.get("error").ok_or("failure record without error")?;
                shard
                    .failures
                    .push((uint_field(f, "seed")?, error_from_json(e)?));
            }
            for p in arr_field(s, "panicked")? {
                shard
                    .panicked
                    .push((uint_field(p, "seed")?, str_field(p, "payload")?.to_string()));
            }
            match s.get("counters") {
                Some(Value::Obj(pairs)) => {
                    for (name, value) in pairs {
                        match value {
                            // Counter names parsed from a file are not
                            // `'static`; obs interns each distinct name
                            // once for the life of the process.
                            Value::UInt(n) => shard.counters.set(obs::intern(name), *n),
                            other => {
                                return Err(format!("counter {name}: expected uint, got {other:?}"))
                            }
                        }
                    }
                }
                other => return Err(format!("shard counters: expected object, got {other:?}")),
            }
            cp.shard_states.push(shard);
        }
        Ok(cp)
    }

    /// Loads and parses a checkpoint file.
    ///
    /// # Errors
    ///
    /// I/O errors and malformed documents, as a printable message.
    pub fn load(path: &Path) -> Result<SweepCheckpoint, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read checkpoint {}: {e}", path.display()))?;
        let doc =
            parse(&text).map_err(|e| format!("checkpoint {} is not JSON: {e}", path.display()))?;
        SweepCheckpoint::from_json(&doc).map_err(|e| format!("checkpoint {}: {e}", path.display()))
    }

    /// Writes the checkpoint atomically (see [`write_atomic`]).
    ///
    /// # Errors
    ///
    /// The underlying I/O error, as a printable message.
    pub fn write_atomic(&self, path: &Path) -> Result<(), String> {
        write_atomic(path, &self.to_json().render())
    }
}

/// Writes `text` to `path` atomically: the bytes land in `<path>.tmp`
/// first and are renamed over the target, so a reader (or a process kill)
/// never observes a torn file — the property `--resume` relies on.
///
/// # Errors
///
/// The underlying I/O error, as a printable message.
pub fn write_atomic(path: &Path, text: &str) -> Result<(), String> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, format!("{text}\n"))
        .map_err(|e| format!("write {}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, path)
        .map_err(|e| format!("rename {} -> {}: {e}", tmp.display(), path.display()))
}

/// One MMIO event as JSON (`{"kind": "ld"|"st", "addr", "value"}`).
pub(crate) fn event_to_json(e: &MmioEvent) -> Value {
    Value::obj()
        .field(
            "kind",
            Value::Str(match e.kind {
                MmioEventKind::Load => "ld".into(),
                MmioEventKind::Store => "st".into(),
            }),
        )
        .field("addr", Value::UInt(e.addr as u64))
        .field("value", Value::UInt(e.value as u64))
}

fn event_from_json(v: &Value) -> Result<MmioEvent, String> {
    let addr = uint_field(v, "addr")? as u32;
    let value = uint_field(v, "value")? as u32;
    match v.get("kind").and_then(Value::as_str) {
        Some("ld") => Ok(MmioEvent::load(addr, value)),
        Some("st") => Ok(MmioEvent::store(addr, value)),
        other => Err(format!("event kind: expected \"ld\"/\"st\", got {other:?}")),
    }
}

fn opt_event_to_json(e: &Option<MmioEvent>) -> Value {
    match e {
        Some(e) => event_to_json(e),
        None => Value::Null,
    }
}

fn opt_event_from_json(v: Option<&Value>) -> Result<Option<MmioEvent>, String> {
    match v {
        None | Some(Value::Null) => Ok(None),
        Some(e) => event_from_json(e).map(Some),
    }
}

/// A [`DiffError`] as JSON, round-trippable through [`error_from_json`]
/// so checkpointed failures survive a resume structurally (not just as
/// display strings).
pub(crate) fn error_to_json(e: &DiffError) -> Value {
    let kind = |k: &str| Value::obj().field("kind", Value::Str(k.into()));
    match e {
        DiffError::SourceUb(m) => kind("source_ub").field("msg", Value::Str(m.clone())),
        DiffError::CompileError(m) => kind("compile_error").field("msg", Value::Str(m.clone())),
        DiffError::MachineError(m) => kind("machine_error").field("msg", Value::Str(m.clone())),
        DiffError::MachineTimeout => kind("machine_timeout"),
        DiffError::TraceMismatch {
            index,
            source,
            machine,
        } => kind("trace_mismatch")
            .field("index", Value::UInt(*index as u64))
            .field("source", opt_event_to_json(source))
            .field("machine", opt_event_to_json(machine)),
        DiffError::SpecViolation {
            matched,
            total,
            model,
        } => kind("spec_violation")
            .field("matched", Value::UInt(*matched as u64))
            .field("total", Value::UInt(*total as u64))
            .field("model", Value::Str((*model).to_string())),
        DiffError::WorkloadIncomplete {
            delivered,
            expected,
        } => kind("workload_incomplete")
            .field("delivered", Value::UInt(*delivered))
            .field("expected", Value::UInt(*expected)),
    }
}

/// Parses an error back from [`error_to_json`] form.
pub(crate) fn error_from_json(v: &Value) -> Result<DiffError, String> {
    let msg = |v: &Value| str_field(v, "msg").map(str::to_string);
    match v.get("kind").and_then(Value::as_str) {
        Some("source_ub") => Ok(DiffError::SourceUb(msg(v)?)),
        Some("compile_error") => Ok(DiffError::CompileError(msg(v)?)),
        Some("machine_error") => Ok(DiffError::MachineError(msg(v)?)),
        Some("machine_timeout") => Ok(DiffError::MachineTimeout),
        Some("trace_mismatch") => Ok(DiffError::TraceMismatch {
            index: uint_field(v, "index")? as usize,
            source: opt_event_from_json(v.get("source"))?,
            machine: opt_event_from_json(v.get("machine"))?,
        }),
        Some("spec_violation") => Ok(DiffError::SpecViolation {
            matched: uint_field(v, "matched")? as usize,
            total: uint_field(v, "total")? as usize,
            // The in-memory field is `&'static str`; intern the parsed
            // model name to restore that.
            model: obs::intern(str_field(v, "model")?),
        }),
        Some("workload_incomplete") => Ok(DiffError::WorkloadIncomplete {
            delivered: uint_field(v, "delivered")?,
            expected: uint_field(v, "expected")?,
        }),
        other => Err(format!("unknown error kind {other:?}")),
    }
}

fn uint_field(v: &Value, field: &str) -> Result<u64, String> {
    match v.get(field) {
        Some(&Value::UInt(n)) => Ok(n),
        other => Err(format!("field {field}: expected uint, got {other:?}")),
    }
}

fn str_field<'a>(v: &'a Value, field: &str) -> Result<&'a str, String> {
    v.get(field)
        .and_then(Value::as_str)
        .ok_or_else(|| format!("field {field}: expected string"))
}

fn arr_field<'a>(v: &'a Value, field: &str) -> Result<&'a [Value], String> {
    v.get(field)
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("field {field}: expected array"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_errors() -> Vec<DiffError> {
        vec![
            DiffError::SourceUb("fuel".into()),
            DiffError::CompileError("bad".into()),
            DiffError::MachineError("trap".into()),
            DiffError::MachineTimeout,
            DiffError::TraceMismatch {
                index: 12,
                source: Some(MmioEvent::load(0x1000_0000, 7)),
                machine: None,
            },
            DiffError::SpecViolation {
                matched: 3,
                total: 9,
                model: "pipelined",
            },
            DiffError::WorkloadIncomplete {
                delivered: 1,
                expected: 3,
            },
        ]
    }

    #[test]
    fn errors_round_trip_through_json() {
        for e in sample_errors() {
            let text = error_to_json(&e).render();
            let back =
                error_from_json(&parse(&text).expect("valid JSON")).expect("error parses back");
            // DiffError has no PartialEq (it holds free-form strings);
            // compare the canonical JSON instead.
            assert_eq!(error_to_json(&back).render(), text);
        }
    }

    #[test]
    fn checkpoints_round_trip_through_json() {
        let mut shard = ShardProgress {
            done: 5,
            conclusive: 3,
            inconclusive: 1,
            ..ShardProgress::default()
        };
        shard.failures.push((4, DiffError::MachineTimeout));
        shard.panicked.push((2, "index out of bounds".into()));
        shard.counters.add("core.diff.retry_attempts", 2);
        let cp = SweepCheckpoint {
            tag: "fault_sweep".into(),
            start: 0,
            total: 10,
            shards: 2,
            chunk: 5,
            shard_states: vec![shard, ShardProgress::default()],
        };
        let text = cp.to_json().render();
        let back = SweepCheckpoint::from_json(&parse(&text).expect("valid JSON"))
            .expect("checkpoint parses back");
        assert_eq!(back.to_json().render(), text);
        assert_eq!(back.completed(), 5);
        assert_eq!(back.tag, "fault_sweep");
        assert_eq!(
            back.shard_states[0]
                .counters
                .get("core.diff.retry_attempts"),
            2
        );
    }

    #[test]
    fn validate_refuses_mismatches() {
        let cp = SweepCheckpoint::fresh("fault_sweep", 0, 10, 2, 5);
        assert!(cp.validate(0..10, 2, Some("fault_sweep")).is_ok());
        assert!(cp.validate(0..10, 2, None).is_ok());
        assert!(cp.validate(0..10, 2, Some("other")).is_err());
        assert!(cp.validate(1..11, 2, Some("fault_sweep")).is_err());
        assert!(cp.validate(0..12, 2, Some("fault_sweep")).is_err());
        assert!(cp.validate(0..10, 4, Some("fault_sweep")).is_err());
    }

    #[test]
    fn atomic_write_replaces_not_appends() {
        let dir = std::env::temp_dir().join("lightbulb-checkpoint-test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("cp.json");
        write_atomic(&path, "first").expect("write");
        write_atomic(&path, "second").expect("write");
        let text = std::fs::read_to_string(&path).expect("read back");
        assert_eq!(text, "second\n");
        assert!(
            !path.with_extension("tmp").exists(),
            "tmp file renamed away"
        );
        std::fs::remove_file(&path).ok();
    }
}
