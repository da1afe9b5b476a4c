//! Interpreter and differential-tester throughput: the measured effect of
//! the predecoded-instruction cache, batched stepping, and the sharded
//! differential sweep. `--json` prints a `bench-report/v1` record on
//! stdout (the committed one is `BENCH_spec_throughput.json`).
//!
//! Five execution cores run the same booted lightbulb image for a fixed
//! instruction budget: the spec machine with the decode cache (the default
//! everyone now gets), the seed configuration (cache off, per-step loop),
//! the single-cycle hardware model, the pipelined hardware model, and the
//! single-cycle replay (`processor::replay_trace` of a pipelined run's
//! trace, recorded outside the timer, counting the replayed core's
//! retired instructions). Each row is the fastest of `REPS` runs taken in
//! turn with the other cores, timed in thread CPU time (wall clock off
//! 64-bit Linux). In the same rounds the streaming trace monitor checks
//! the quick-pass traces of fault-sweep plan seeds 0–7 on both machine
//! models, one cold `Monitor` per seed as the sweep builds it; its events
//! per second over the cached spec machine's steps per second is the
//! matcher ratio the `bench_gate` bin gates. The differential section
//! times the same 40-seed compiler sweep serially and sharded across every
//! hardware thread, and self-checks that the sharded sweep's counter
//! report is byte-for-byte deterministic across runs. Without `--json` it
//! prints the EXPERIMENTS.md block rendered from the record it would emit.

use std::time::Instant;

use bench::{cli, counters_json, emit_json, experiments, JSON};
use lightbulb_system::devices::{Board, FaultPlan, SpiConfig, TrafficGen};
use lightbulb_system::integration::differential::{
    check_compiler_differential, default_shards, parallel_sweep,
};
use lightbulb_system::integration::{build_image, FaultSweepConfig, ProcessorKind, SystemConfig};
use lightbulb_system::lightbulb::good_hl_trace;
use lightbulb_system::processor::{replay_trace, PipelineConfig, Pipelined, SingleCycle};
use lightbulb_system::proglogic::trace::Monitor;
use lightbulb_system::riscv::{Memory, MmioEvent, SpecMachine};
use obs::json::Value;

const STEPS: u64 = 2_000_000;
/// Timed repetitions per core; each row reports the fastest.
const REPS: u32 = 15;
const RAM: u32 = 0x1_0000;
const DIFF_SEEDS: std::ops::Range<u64> = 0..40;
/// Fault-sweep plan seeds whose traces the matcher row checks.
const MATCH_SEEDS: std::ops::Range<u64> = 0..8;

struct Row {
    config: &'static str,
    retired: u64,
    secs: f64,
}

impl Row {
    fn rate(&self) -> f64 {
        self.retired as f64 / self.secs
    }
}

/// Seconds of CPU time the calling thread has used. Unlike wall-clock
/// time it does not count the time other work on a shared host holds the
/// CPU, so the core rows (and the ratios between them that
/// the `bench_gate` bin checks) hold still on a busy machine.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn thread_cpu_secs() -> f64 {
    /// `struct timespec` on 64-bit Linux.
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `timespec` for the duration of
    // the call, and the clock id is a constant Linux defines.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Elsewhere, wall-clock seconds since the first call.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn thread_cpu_secs() -> f64 {
    static START: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    START.get_or_init(Instant::now).elapsed().as_secs_f64()
}

/// Times each core's run (build the core, run it, return its retired
/// count) `REPS` times in thread CPU time and keeps each core's fastest
/// run. The cores take turns within every round, so each core's runs
/// spread over the whole measurement and a slow spell slows every row
/// alike instead of setting one row.
fn best_of_interleaved(cores: &mut [(&'static str, &mut dyn FnMut() -> u64)]) -> Vec<Row> {
    let mut best: Vec<Option<Row>> = cores.iter().map(|_| None).collect();
    for _ in 0..REPS {
        for ((config, run), best) in cores.iter_mut().zip(&mut best) {
            let t0 = thread_cpu_secs();
            let retired = run();
            let secs = thread_cpu_secs() - t0;
            if best.as_ref().is_none_or(|b| secs < b.secs) {
                *best = Some(Row {
                    config,
                    retired,
                    secs,
                });
            }
        }
    }
    best.into_iter().map(|b| b.expect("REPS > 0")).collect()
}

fn booted_spec(words: &[u32], icache: bool) -> SpecMachine<Board> {
    let mut m = SpecMachine::new(Memory::with_size(RAM), Board::new(SpiConfig::default()));
    m.set_icache_enabled(icache);
    m.load_program(0, words);
    m
}

fn booted_pipelined(bytes: &[u8]) -> Pipelined<Board> {
    Pipelined::new(
        bytes,
        RAM,
        Board::new(SpiConfig::default()),
        PipelineConfig::default(),
    )
}

/// The quick-pass traces of every seed in [`MATCH_SEEDS`], pipelined
/// then spec machine, as the fault sweep records them.
fn sweep_traces() -> Vec<[Vec<MmioEvent>; 2]> {
    let cfg = FaultSweepConfig::default();
    let image = build_image(&cfg.system);
    MATCH_SEEDS
        .map(|seed| {
            let plan = FaultPlan::from_seed(seed);
            let mut gen = TrafficGen::new(seed);
            let frames: Vec<Vec<u8>> = (0..cfg.frames).map(|i| gen.command(i % 2 == 0)).collect();
            [ProcessorKind::Pipelined, ProcessorKind::SpecMachine].map(|processor| {
                let sys = SystemConfig {
                    processor,
                    ..cfg.system
                };
                sys.run_faulted(&image, &plan, &frames, cfg.quick_cycles)
                    .events
            })
        })
        .collect()
}

fn main() {
    let json = cli(env!("CARGO_BIN_NAME"), &[JSON]).has("--json");
    let image = build_image(&SystemConfig::default());
    let words = image.words();
    let bytes = image.bytes();

    // Warm-up: fault the image in so the first measured row isn't taxed.
    booted_spec(&words, true)
        .run_block(STEPS / 4)
        .expect("lightbulb runs clean");

    let spec = good_hl_trace(FaultSweepConfig::default().system.driver);
    let traces = sweep_traces();
    let mut recorded = booted_pipelined(&bytes);
    recorded.run(STEPS);
    let (events, halted) = (recorded.mem.events(), recorded.halted);

    // Decode-cache hit/miss counts are deterministic, so any timed run's do.
    let (mut hits, mut misses) = (0, 0);
    let mut rows = best_of_interleaved(&mut [
        ("spec cached (run_block + decode cache)", &mut || {
            let mut m = booted_spec(&words, true);
            m.run_block(STEPS).expect("lightbulb runs clean");
            (hits, misses) = (m.stats.icache_hits, m.stats.icache_misses);
            m.instret
        }),
        ("spec uncached (seed: per-step fetch+decode)", &mut || {
            let mut m = booted_spec(&words, false);
            for _ in 0..STEPS {
                m.step().expect("lightbulb runs clean");
            }
            m.instret
        }),
        ("single-cycle hardware model", &mut || {
            let mut sc = SingleCycle::new(&bytes, RAM, Board::new(SpiConfig::default()));
            sc.run_block(STEPS);
            sc.retired
        }),
        ("pipelined hardware model", &mut || {
            let mut pipe = booted_pipelined(&bytes);
            pipe.run(STEPS);
            pipe.retired
        }),
        ("single-cycle replay", &mut || {
            replay_trace(&bytes, RAM, &events, Board::claims, halted, STEPS)
                .expect("the pipelined trace replays")
                .retired
        }),
        ("trace monitor (cold per seed)", &mut || {
            let mut events = 0;
            for pair in &traces {
                let mut monitor = Monitor::new(&spec);
                for t in pair {
                    assert_eq!(monitor.first_violation(t), None, "sweep traces are good");
                    events += t.len() as u64;
                }
            }
            events
        }),
    ]);
    let matcher = rows.pop().expect("the matcher row");
    let match_ratio = matcher.rate() / rows[0].rate();

    let speedup = rows[0].rate() / rows[1].rate();

    // Differential sweep: serial vs sharded, plus a determinism self-check
    // (two sharded runs must publish byte-identical counter reports).
    let shards = default_shards();
    let t0 = Instant::now();
    let serial = parallel_sweep(DIFF_SEEDS, 1, |p| check_compiler_differential(p, false));
    let serial_secs = t0.elapsed().as_secs_f64();
    serial.expect_clean("serial differential");

    let t0 = Instant::now();
    let sharded = parallel_sweep(DIFF_SEEDS, shards, |p| {
        check_compiler_differential(p, false)
    });
    let sharded_secs = t0.elapsed().as_secs_f64();
    sharded.expect_clean("sharded differential");

    let again = parallel_sweep(DIFF_SEEDS, shards, |p| {
        check_compiler_differential(p, false)
    });
    let report_a = counters_json(&sharded.counters).render();
    let report_b = counters_json(&again.counters).render();
    let deterministic = report_a == report_b;
    assert!(deterministic, "sharded sweep reports must be reproducible");

    let cores = Value::Arr(
        rows.iter()
            .map(|r| {
                Value::obj()
                    .field("config", Value::Str(r.config.to_string()))
                    .field("retired", Value::UInt(r.retired))
                    .field("seconds", Value::Float(r.secs))
                    .field("steps_per_sec", Value::Float(r.rate()))
            })
            .collect(),
    );
    let data = Value::obj()
        .field(
            "workload",
            Value::Str("lightbulb boot + polling loop".into()),
        )
        .field("step_budget", Value::UInt(STEPS))
        .field("cores", cores)
        .field("cached_vs_seed_speedup", Value::Float(speedup))
        .field(
            "matcher",
            Value::obj()
                .field("config", Value::Str(matcher.config.to_string()))
                .field("seeds", Value::UInt(MATCH_SEEDS.end - MATCH_SEEDS.start))
                .field("events", Value::UInt(matcher.retired))
                .field("seconds", Value::Float(matcher.secs))
                .field("events_per_sec", Value::Float(matcher.rate()))
                .field("vs_cached_spec", Value::Float(match_ratio)),
        )
        .field(
            "icache",
            Value::obj()
                .field("hits", Value::UInt(hits))
                .field("misses", Value::UInt(misses)),
        )
        .field(
            "differential",
            Value::obj()
                .field("seeds", Value::UInt(DIFF_SEEDS.end - DIFF_SEEDS.start))
                .field("serial_seconds", Value::Float(serial_secs))
                .field("sharded_seconds", Value::Float(sharded_secs))
                .field("shards", Value::UInt(shards as u64))
                .field("deterministic", Value::Bool(deterministic))
                .field("counters", counters_json(&sharded.counters)),
        );
    if json {
        emit_json("spec_throughput", data);
        return;
    }
    experiments::print_blocks("spec_throughput", data);
    println!(
        "differential sweep ({} seeds): serial {serial_secs:.2} s, {shards}-shard \
         {sharded_secs:.2} s; reports byte-identical across runs",
        DIFF_SEEDS.end - DIFF_SEEDS.start
    );
}
