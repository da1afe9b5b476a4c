//! Shared machinery: the op loop, per-layer accumulators, span tracing
//! with Chrome export, and small statistics helpers.

use lightbulb_system::compiler::CompiledProgram;
use lightbulb_system::devices::{FaultPlan, FrameFault, TrafficGen};
use lightbulb_system::integration::{FaultSweepConfig, LightbulbRun, ProcessorKind};
use lightbulb_system::obs::json::Value;
use lightbulb_system::obs::{chrome, Event};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Times `f`, returning its result and the elapsed milliseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64() * 1e3)
}

/// SplitMix64: the benchmark's own input generator, so that inputs depend
/// only on `--seed` and on nothing the program under test might change.
pub fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seeds come in families of a thousand: `0..1000` is family 0, the
/// default seed's, and `1000..2000` family 1, the held-out seed's; other
/// seeds wrap onto these two. A family fixes a workload's input set; the
/// seed within it fixes the order of the run's first pass over that set.
pub const FAMILIES: u64 = 2;

/// Input `k` of a run over a family's input set of `len` items, as an
/// index into the recorded inputs of all families. The first pass visits
/// the family's items from the seed's rotation; later passes visit them in
/// their recorded order. Every run of a family therefore does the same
/// work, whatever its seed, up to where its time budget ends.
pub fn input_index(seed: u64, len: usize, k: u64) -> usize {
    let family = ((seed / 1000) % FAMILIES) as usize;
    let k = k as usize;
    let within = if k < len {
        (splitmix(seed) as usize % len + k) % len
    } else {
        k % len
    };
    family * len + within
}

/// The median of `values` (the mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    (v[(n - 1) / 2] + v[n / 2]) / 2.0
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One recorded span: a call into a layer's public function.
#[derive(Clone, Debug)]
struct Span {
    cat: &'static str,
    name: &'static str,
    start_us: u64,
    dur_us: u64,
    id: u64,
    parent: u64,
    op: u64,
}

/// In-memory span recorder for the traced run. Spans nest through an
/// explicit stack; each carries its parent's id and the op it belongs to,
/// and all of them are written out once, when the run ends.
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<(usize, Instant)>,
    op: u64,
}

/// Handle of an open span, returned by [`Tracer::begin`].
#[must_use = "close the span with Tracer::end"]
pub struct Open(usize);

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    /// Sets the op id stamped on spans opened from now on.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    pub fn begin(&mut self, cat: &'static str, name: &'static str) -> Open {
        let now = Instant::now();
        let parent = self.open.last().map_or(0, |&(i, _)| self.spans[i].id);
        let idx = self.spans.len();
        self.spans.push(Span {
            cat,
            name,
            start_us: now.duration_since(self.t0).as_micros() as u64,
            dur_us: 0,
            id: idx as u64 + 1,
            parent,
            op: self.op,
        });
        self.open.push((idx, now));
        Open(idx)
    }

    /// Closes `span` (which must be the innermost open one) and returns
    /// its duration in milliseconds.
    pub fn end(&mut self, span: Open) -> f64 {
        let (idx, start) = self.open.pop().expect("end without begin");
        assert_eq!(idx, span.0, "spans must close innermost first");
        let d = start.elapsed();
        self.spans[idx].dur_us = d.as_micros() as u64;
        d.as_secs_f64() * 1e3
    }

    /// Runs `f` inside a span and returns its result and duration in ms.
    pub fn span<T>(
        &mut self,
        cat: &'static str,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let s = self.begin(cat, name);
        let out = f();
        let ms = self.end(s);
        (out, ms)
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// The spans as a Chrome trace document (`obs::chrome`), each with
    /// `args.op` (the shared op id), `args.span` and `args.parent`.
    pub fn chrome(&self) -> Value {
        let events: Vec<Event> = self
            .spans
            .iter()
            .map(|s| Event::span(s.start_us, s.dur_us, s.cat, s.name).with_arg("op", s.op))
            .collect();
        let mut doc = chrome::document(&events);
        if let Value::Obj(fields) = &mut doc {
            for (key, value) in fields.iter_mut() {
                let (true, Value::Arr(items)) = (key == "traceEvents", value) else {
                    continue;
                };
                for (item, s) in items.iter_mut().zip(&self.spans) {
                    let Value::Obj(pairs) = item else { continue };
                    for (k, v) in pairs.iter_mut() {
                        if k == "args" {
                            *v = std::mem::replace(v, Value::Null)
                                .field("span", Value::UInt(s.id))
                                .field("parent", Value::UInt(s.parent));
                        }
                    }
                }
            }
        }
        doc
    }
}

/// Set-up repeats after each op of an untraced run.
pub const SETUP_REPEATS: usize = 3;

/// One processor model's run of a fault plan, as `fault_check_plan` makes
/// it, with its spans' times.
pub struct PlanRun {
    /// The run whose trace the check matches.
    pub run: LightbulbRun,
    /// Time of the quick pass plus the rerun, if any, in ms.
    pub ms: f64,
    /// Time of the full-budget rerun, when the quick pass left the
    /// workload unfinished.
    pub rerun_ms: Option<f64>,
}

/// Runs `plan` on `kind` the way `fault_check_plan` does, each run inside
/// a span: the plan seed's traffic, a quick pass, and a full-budget rerun
/// when the quick pass left the workload unfinished and the budget allows
/// more cycles.
pub fn run_plan(
    tr: &mut Tracer,
    plan: &FaultPlan,
    cfg: &FaultSweepConfig,
    image: &CompiledProgram,
    kind: ProcessorKind,
) -> PlanRun {
    let mut gen = TrafficGen::new(plan.seed);
    let frames: Vec<Vec<u8>> = (0..cfg.frames).map(|i| gen.command(i % 2 == 0)).collect();
    let dropped = plan
        .frame_faults
        .iter()
        .filter(|(i, f)| (*i as usize) < cfg.frames && matches!(f, FrameFault::Drop))
        .count() as u64;
    let done = |r: &LightbulbRun| {
        r.report.counters.get("board.lan9250.frames_delivered") >= cfg.frames as u64 - dropped
            && r.report.counters.get("board.lan9250.frames_pending") == 0
    };
    let cat = match kind {
        ProcessorKind::SpecMachine => "riscv",
        _ => "processor",
    };
    let mut sys = cfg.system;
    sys.processor = kind;
    let (quick, ms) = tr.span(cat, "run_faulted", || {
        sys.run_faulted(image, plan, &frames, cfg.quick_cycles)
    });
    if done(&quick) || cfg.max_cycles <= cfg.quick_cycles {
        return PlanRun {
            run: quick,
            ms,
            rerun_ms: None,
        };
    }
    let (full, rerun_ms) = tr.span(cat, "run_faulted_rerun", || {
        sys.run_faulted(image, plan, &frames, cfg.max_cycles)
    });
    PlanRun {
        run: full,
        ms: ms + rerun_ms,
        rerun_ms: Some(rerun_ms),
    }
}

/// The state of one benchmark run: the op loop's clock and limits, the
/// end-to-end samples, and (in a traced run) the per-layer accumulators.
pub struct Run {
    pub seed: u64,
    started: Instant,
    seconds: Duration,
    max_ops: u64,
    /// Latency samples in ms per op: one per op, or one per op group
    /// ([`Run::record_group`]).
    pub op_ms: Vec<f64>,
    /// Wall time spent inside ops, ms.
    pub busy_ms: f64,
    /// Set-up samples in ms: the set-up before the first op, then
    /// [`SETUP_REPEATS`] more after every op of an untraced run, so that
    /// the samples spread over the whole run as the op samples do.
    pub setup_ms: Vec<f64>,
    /// Repeats the workload's set-up and returns its time in ms.
    pub resetup: Option<Box<dyn Fn() -> f64>>,
    pub attempted: u64,
    pub failed: u64,
    /// Why ops failed; printed on stderr.
    pub failures: Vec<String>,
    /// Per-layer sums over all ops of the traced run.
    pub sums: BTreeMap<&'static str, f64>,
    /// Counters fixed by the run's first op (the workload fingerprint).
    pub fingerprint: BTreeMap<&'static str, f64>,
    pub tracer: Option<Tracer>,
}

impl Run {
    pub fn new(seed: u64, seconds: f64, max_ops: Option<u64>, traced: bool) -> Run {
        Run {
            seed,
            started: Instant::now(),
            seconds: Duration::from_secs_f64(seconds),
            max_ops: max_ops.unwrap_or(u64::MAX),
            op_ms: Vec::new(),
            busy_ms: 0.0,
            setup_ms: Vec::new(),
            resetup: None,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            sums: BTreeMap::new(),
            fingerprint: BTreeMap::new(),
            tracer: traced.then(Tracer::new),
        }
    }

    /// Restarts the clock: called once set-up is done.
    pub fn start(&mut self) {
        self.started = Instant::now();
        if let Some(t) = &mut self.tracer {
            t.t0 = self.started;
        }
    }

    /// Whether to start another op: the time budget is not used up and
    /// the op cap (smoke runs) is not reached.
    pub fn more(&self) -> bool {
        self.attempted < self.max_ops && self.started.elapsed() < self.seconds
    }

    /// Records one op's latency and its output check.
    pub fn record(&mut self, ms: f64, check: Result<(), String>) {
        self.record_group(1, ms, check);
    }

    /// Records `n` ops checked together in `ms` (a sweep chunk): one
    /// latency sample of `ms / n`.
    pub fn record_group(&mut self, n: u64, ms: f64, check: Result<(), String>) {
        self.count(n, ms, check);
        self.op_ms.push(ms / n as f64);
    }

    fn count(&mut self, n: u64, ms: f64, check: Result<(), String>) {
        self.busy_ms += ms;
        self.attempted += n;
        if let Err(e) = check {
            self.failed += n;
            self.failures.push(e);
        }
        if let Some(setup) = &self.resetup {
            for _ in 0..SETUP_REPEATS {
                self.setup_ms.push(setup());
            }
        }
    }

    /// Adds `v` to the per-layer sum `key`.
    pub fn add(&mut self, key: &'static str, v: f64) {
        *self.sums.entry(key).or_insert(0.0) += v;
    }

    /// Adds `v` to fingerprint counter `key` while the run's first op is
    /// running (`first_op`); later ops leave the fingerprint alone.
    pub fn fingerprint_add(&mut self, first_op: bool, key: &'static str, v: u64) {
        if first_op {
            *self.fingerprint.entry(key).or_insert(0.0) += v as f64;
        }
    }

    pub fn ops_per_s(&self) -> f64 {
        self.attempted as f64 / (self.busy_ms / 1e3)
    }

    pub fn sum(&self, key: &str) -> f64 {
        self.sums.get(key).copied().unwrap_or(0.0)
    }
}

/// Per-layer metrics a traced run reports, in output order: name, unit,
/// and how the value is derived from the run's sums.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("compiler.compile_ms", "ms"),
    ("compiler.instructions", "count"),
    ("lightbulb.spec_build_ms", "ms"),
    ("proglogic.match_ms", "ms"),
    ("proglogic.events_matched", "count"),
    ("proglogic.match_ns_per_event", "ns"),
    ("proglogic.match_pct", "%"),
    ("proglogic.prefix_search_ms", "ms"),
    ("processor.pipeline_ms", "ms"),
    ("processor.pipeline_mcycles_per_s", "Mcycles/s"),
    ("processor.pipeline_cycles", "count"),
    ("processor.pipeline_retired", "count"),
    ("processor.rerun_frac", "fraction"),
    ("processor.rerun_ms", "ms"),
    ("processor.replay_ms", "ms"),
    ("processor.replay_events", "count"),
    ("riscv.specmachine_ms", "ms"),
    ("riscv.specmachine_instret", "count"),
    ("core.op_ms", "ms"),
    ("core.triage_probes", "count"),
    ("core.triage_probe_ms", "ms"),
    ("core.triage_locate_ms", "ms"),
    ("core.retried_seeds", "count"),
    ("core.seed_residual_ms", "ms"),
    ("proglogic.symexec_ms", "ms"),
    ("proglogic.solver_ms", "ms"),
    ("proglogic.solver_queries", "count"),
    ("proglogic.obligations", "count"),
    ("proglogic.paths", "count"),
    ("devices.faults_injected", "count"),
    ("lightbulb.driver_retries", "count"),
    ("lightbulb.driver_reinits", "count"),
    ("processor.stall_raw", "count"),
    ("processor.btb_miss", "count"),
    ("trace.ops_per_s", "1/s"),
];

/// Fingerprint counters: fixed by the run's first op, so they repeat
/// exactly for a given seed and must not move under a change that only
/// speeds a layer up.
const FINGERPRINT: &[&str] = &[
    "devices.faults_injected",
    "lightbulb.driver_retries",
    "lightbulb.driver_reinits",
    "processor.stall_raw",
    "processor.btb_miss",
    "compiler.instructions",
];

/// Derives every [`PER_LAYER`] value from a traced run. Sums are reported
/// per op; rates and ratios are taken over the sums.
pub fn per_layer(run: &Run) -> BTreeMap<&'static str, f64> {
    let ops = run.attempted.max(1) as f64;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let mut out = BTreeMap::new();
    for &(name, _) in PER_LAYER {
        let v = match name {
            "proglogic.match_ns_per_event" => ratio(
                run.sum("proglogic.match_ms") * 1e6,
                run.sum("proglogic.events_matched"),
            ),
            "proglogic.match_pct" => {
                ratio(run.sum("proglogic.match_ms") * 100.0, run.sum("core.op_ms"))
            }
            "processor.pipeline_mcycles_per_s" => ratio(
                run.sum("processor.pipeline_cycles"),
                run.sum("processor.pipeline_ms") * 1e3,
            ),
            "processor.rerun_frac" => {
                ratio(run.sum("processor.reruns"), run.sum("processor.quick_runs"))
            }
            "trace.ops_per_s" => run.ops_per_s(),
            n if FINGERPRINT.contains(&n) => run.fingerprint.get(n).copied().unwrap_or(0.0),
            n => run.sum(n) / ops,
        };
        out.insert(name, v);
    }
    out
}
