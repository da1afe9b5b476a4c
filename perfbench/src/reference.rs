//! The recorded reference outputs every op is checked against
//! (`reference.json`, written by `perfbench --record`).

use lightbulb_system::obs::json::{self, Value};
use std::collections::BTreeMap;

/// Deterministic sweep counters of one fault-plan seed.
pub type Fingerprint = BTreeMap<String, u64>;

/// The recorded outcome of triaging one planted failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TriageRef {
    /// Error kind of the minimal plan's failure (`triage::error_kind`).
    pub error: String,
    /// Event index the failure is reported at: `matched` of a spec
    /// violation, the divergence site otherwise.
    pub index: u64,
    /// The minimal plan's atoms, rendered with `{:?}`.
    pub minimal: Vec<String>,
    pub probes: u64,
}

/// The recorded outcome of one cold-boot refinement check.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RefinementRef {
    pub events: u64,
    pub impl_cycles: u64,
    pub impl_retired: u64,
    pub spec_cycles: u64,
}

/// The recorded per-op totals of the driver proofs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProofCounts {
    pub obligations: u64,
    pub paths: u64,
    pub solver_queries: u64,
}

#[derive(Clone, Debug, Default)]
pub struct Reference {
    /// Per-seed sweep fingerprints for plan seeds `0..len`.
    pub sweep: Vec<Fingerprint>,
    /// Liveness and safety plants, indexed by plant seed.
    pub liveness: Vec<TriageRef>,
    pub safety: Vec<TriageRef>,
    /// Refinement checks, indexed by traffic seed.
    pub refinement: Vec<RefinementRef>,
    pub proofs: Option<ProofCounts>,
}

pub const SCHEMA: &str = "perfbench-reference/v1";

fn uint(v: &Value, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Value::as_f64)
        .map(|f| f as u64)
        .ok_or_else(|| format!("reference: missing number `{key}`"))
}

fn arr<'a>(v: &'a Value, key: &str) -> Result<&'a [Value], String> {
    v.get(key)
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("reference: missing array `{key}`"))
}

impl TriageRef {
    fn to_json(&self) -> Value {
        Value::obj()
            .field("error", Value::Str(self.error.clone()))
            .field("index", Value::UInt(self.index))
            .field(
                "minimal",
                Value::Arr(self.minimal.iter().cloned().map(Value::Str).collect()),
            )
            .field("probes", Value::UInt(self.probes))
    }

    fn from_json(v: &Value) -> Result<TriageRef, String> {
        Ok(TriageRef {
            error: v
                .get("error")
                .and_then(Value::as_str)
                .ok_or("reference: triage entry without `error`")?
                .to_string(),
            index: uint(v, "index")?,
            minimal: arr(v, "minimal")?
                .iter()
                .map(|a| a.as_str().map(str::to_string))
                .collect::<Option<_>>()
                .ok_or("reference: non-string minimal atom")?,
            probes: uint(v, "probes")?,
        })
    }
}

impl Reference {
    pub fn to_json(&self) -> Value {
        let fp = |f: &Fingerprint| {
            f.iter()
                .fold(Value::obj(), |o, (k, v)| o.field(k, Value::UInt(*v)))
        };
        let mut doc = Value::obj()
            .field("schema", Value::Str(SCHEMA.into()))
            .field("sweep", Value::Arr(self.sweep.iter().map(fp).collect()))
            .field(
                "liveness",
                Value::Arr(self.liveness.iter().map(TriageRef::to_json).collect()),
            )
            .field(
                "safety",
                Value::Arr(self.safety.iter().map(TriageRef::to_json).collect()),
            )
            .field(
                "refinement",
                Value::Arr(
                    self.refinement
                        .iter()
                        .map(|r| {
                            Value::obj()
                                .field("events", Value::UInt(r.events))
                                .field("impl_cycles", Value::UInt(r.impl_cycles))
                                .field("impl_retired", Value::UInt(r.impl_retired))
                                .field("spec_cycles", Value::UInt(r.spec_cycles))
                        })
                        .collect(),
                ),
            );
        if let Some(p) = self.proofs {
            doc = doc.field(
                "proofs",
                Value::obj()
                    .field("obligations", Value::UInt(p.obligations))
                    .field("paths", Value::UInt(p.paths))
                    .field("solver_queries", Value::UInt(p.solver_queries)),
            );
        }
        doc
    }

    pub fn parse(text: &str) -> Result<Reference, String> {
        let doc = json::parse(text).map_err(|e| format!("reference: {e:?}"))?;
        if doc.get("schema").and_then(Value::as_str) != Some(SCHEMA) {
            return Err(format!("reference: schema is not {SCHEMA}"));
        }
        let sweep = arr(&doc, "sweep")?
            .iter()
            .map(|s| match s {
                Value::Obj(pairs) => pairs
                    .iter()
                    .map(|(k, v)| Some((k.clone(), v.as_f64()? as u64)))
                    .collect::<Option<Fingerprint>>()
                    .ok_or_else(|| "reference: non-numeric sweep counter".to_string()),
                _ => Err("reference: sweep entry is not an object".to_string()),
            })
            .collect::<Result<_, _>>()?;
        let triage = |key| {
            arr(&doc, key)?
                .iter()
                .map(TriageRef::from_json)
                .collect::<Result<Vec<_>, _>>()
        };
        let refinement = arr(&doc, "refinement")?
            .iter()
            .map(|r| {
                Ok(RefinementRef {
                    events: uint(r, "events")?,
                    impl_cycles: uint(r, "impl_cycles")?,
                    impl_retired: uint(r, "impl_retired")?,
                    spec_cycles: uint(r, "spec_cycles")?,
                })
            })
            .collect::<Result<_, String>>()?;
        let proofs = match doc.get("proofs") {
            Some(p) => Some(ProofCounts {
                obligations: uint(p, "obligations")?,
                paths: uint(p, "paths")?,
                solver_queries: uint(p, "solver_queries")?,
            }),
            None => None,
        };
        Ok(Reference {
            sweep,
            liveness: triage("liveness")?,
            safety: triage("safety")?,
            refinement,
            proofs,
        })
    }

    pub fn load(path: &std::path::Path) -> Result<Reference, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Reference::parse(&text)
    }
}
