//! The executable analogue of `end2end_lightbulb` (§5.9).
//!
//! The paper's theorem: for any memory holding the lightbulb binary at
//! address 0, every trace of the pipelined processor is (related to) a
//! *prefix* of a trace satisfying `goodHlTrace`. The prefix closure
//! matters because the theorem holds at every moment of execution, with no
//! notion of a loop iteration having "completed".
//!
//! [`end_to_end_lightbulb`] checks exactly that statement on a concrete
//! run: build the image, run the chosen processor against the board under
//! a traffic workload, and feed the recorded MMIO trace to a
//! [`Monitor`] for `goodHlTrace`. On failure the monitor reports *where*
//! the trace stopped matching — the debugging affordance a failed `Qed`
//! never gives you.

use crate::system::{LightbulbRun, SystemConfig};
use lightbulb::good_hl_trace;
use proglogic::trace::Monitor;
use riscv_spec::MmioEvent;

/// Why an end-to-end check failed.
#[derive(Clone, Debug)]
pub enum EndToEndError {
    /// The machine aborted (software-contract violation on the spec
    /// machine).
    MachineError {
        /// The spec machine's error message.
        error: String,
        /// Cycles (retired instructions) executed before the abort.
        cycles: u64,
        /// The pc at the abort.
        pc: u32,
    },
    /// The trace is not a prefix of any `goodHlTrace` member.
    SpecViolation {
        /// Length of the longest matching prefix.
        matched: usize,
        /// Total events recorded.
        total: usize,
        /// The first few events after the match point.
        tail: Vec<MmioEvent>,
    },
    /// The lightbulb history differs from what the workload commands.
    WrongActuation {
        /// Expected on/off sequence.
        expected: Vec<bool>,
        /// Observed sequence.
        observed: Vec<bool>,
    },
}

impl std::fmt::Display for EndToEndError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EndToEndError::MachineError { error, cycles, pc } => {
                write!(
                    f,
                    "machine error after {cycles} cycles at pc 0x{pc:08x}: {error}"
                )
            }
            EndToEndError::SpecViolation {
                matched,
                total,
                tail,
            } => write!(
                f,
                "trace stops matching goodHlTrace at event {matched} of {total}; next: {tail:?}"
            ),
            EndToEndError::WrongActuation { expected, observed } => {
                write!(
                    f,
                    "actuation mismatch: expected {expected:?}, observed {observed:?}"
                )
            }
        }
    }
}

impl std::error::Error for EndToEndError {}

/// A successful end-to-end check.
#[derive(Clone, Debug)]
pub struct IntegrationReport {
    /// The run itself.
    pub run: LightbulbRun,
    /// Events checked against the specification.
    pub events_checked: usize,
    /// Whether the whole trace (not merely a prefix) is a member — true
    /// when the run stopped between interactions.
    pub complete_member: bool,
}

/// Runs the system under `frames` for `max_cycles` and checks the
/// end-to-end statement.
///
/// `expected` — when `Some`, additionally requires the lightbulb's write
/// history to equal the given on/off sequence (what the valid commands in
/// the workload demand).
///
/// # Errors
///
/// See [`EndToEndError`].
pub fn end_to_end_lightbulb(
    config: &SystemConfig,
    frames: &[Vec<u8>],
    max_cycles: u64,
    expected: Option<&[bool]>,
) -> Result<IntegrationReport, EndToEndError> {
    let run = config.run(frames, max_cycles);
    if let Some(e) = &run.error {
        return Err(EndToEndError::MachineError {
            error: e.clone(),
            cycles: run.cycles,
            pc: run.report.final_pc,
        });
    }
    let spec = good_hl_trace(config.driver);
    let mut monitor = Monitor::new(&spec);
    if let Some(matched) = monitor.first_violation(&run.events) {
        let tail = run.events[matched..run.events.len().min(matched + 8)].to_vec();
        return Err(EndToEndError::SpecViolation {
            matched,
            total: run.events.len(),
            tail,
        });
    }
    if let Some(expected) = expected {
        if run.bulb_history != expected {
            return Err(EndToEndError::WrongActuation {
                expected: expected.to_vec(),
                observed: run.bulb_history.clone(),
            });
        }
    }
    let complete_member = monitor.accepting();
    Ok(IntegrationReport {
        events_checked: run.events.len(),
        complete_member,
        run,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::ProcessorKind;
    use devices::workload::{Malformation, TrafficGen};

    // Cycle budgets: boot completes within ~100k pipelined cycles and each
    // small packet costs ~70k more; keeping budgets tight also keeps the
    // recorded traces short enough for fast spec matching.
    const BOOT: u64 = 250_000;

    #[test]
    fn the_end_to_end_theorem_holds_on_a_quiet_network() {
        let report = end_to_end_lightbulb(&SystemConfig::default(), &[], BOOT, Some(&[])).unwrap();
        assert!(report.events_checked > 100);
    }

    #[test]
    fn the_end_to_end_theorem_holds_under_valid_commands() {
        let mut gen = TrafficGen::new(71);
        let frames = vec![gen.command(true), gen.command(false)];
        let report = end_to_end_lightbulb(
            &SystemConfig::default(),
            &frames,
            BOOT + 200_000,
            Some(&[true, false]),
        )
        .unwrap();
        assert!(!report.run.bulb_on);
    }

    #[test]
    fn the_end_to_end_theorem_holds_under_attack() {
        let mut gen = TrafficGen::new(73);
        let frames: Vec<Vec<u8>> = Malformation::ALL
            .iter()
            .map(|k| gen.malformed(*k))
            .collect();
        let report =
            end_to_end_lightbulb(&SystemConfig::default(), &frames, BOOT + 400_000, Some(&[]))
                .unwrap();
        assert!(!report.run.bulb_on, "no attack may touch the bulb");
    }

    #[test]
    fn the_check_also_passes_on_the_spec_machine() {
        // The spec machine additionally verifies the software contract
        // (alignment, XAddrs, MMIO ranges) at every instruction.
        let mut gen = TrafficGen::new(79);
        let config = SystemConfig {
            processor: ProcessorKind::SpecMachine,
            ..SystemConfig::default()
        };
        end_to_end_lightbulb(&config, &[gen.command(true)], 400_000, Some(&[true])).unwrap();
    }

    #[test]
    fn a_corrupted_trace_is_rejected_with_a_location() {
        // Sanity-check the checker itself: inject a rogue GPIO event into
        // an otherwise good trace.
        let config = SystemConfig::default();
        let mut run = config.run(&[], BOOT);
        assert!(run.error.is_none());
        run.events.push(MmioEvent::store(
            lightbulb::layout::GPIO_OUTPUT_VAL,
            lightbulb::layout::LIGHTBULB_MASK,
        ));
        let spec = good_hl_trace(config.driver);
        assert!(!spec.matches_prefix(&run.events));
        let matched = spec.longest_matching_prefix(&run.events);
        assert_eq!(
            matched,
            run.events.len() - 1,
            "violation localized to the rogue event"
        );
    }
}
