//! Seeded, deterministic fault injection for the device stack.
//!
//! The paper's driver proofs are stated against a *nondeterministic* device
//! spec: `lan_init`'s timeout loops exist because the LAN9250 is allowed to
//! answer `BYTE_TEST` with junk forever, and the correctness theorem only
//! promises good behaviour on traces the device spec admits (§3, §4.3).
//! Our executable models are normally maximally well-behaved, which leaves
//! every recovery path in the drivers untested. A [`FaultPlan`] closes that
//! gap: it is a pure-data schedule of device misbehaviour, derived from a
//! seed, that `Spi`/`Lan9250`/`Board` consult at well-defined points.
//!
//! Two properties are load-bearing:
//!
//! - **Determinism.** A plan is a function of its seed alone, and every
//!   trigger is keyed on an *interaction count* (the Nth completed wire
//!   exchange, the Nth byte actually delivered to the CPU, the Nth read of
//!   a specific register, the Nth injected frame) — never on device ticks
//!   or wall time. Interaction counts are reproducible run-to-run and
//!   shard-count-invariant, which is what lets `differential::fault_sweep`
//!   replay the same plan against the spec machine and the pipelined
//!   processor.
//! - **Zero cost when absent.** [`FaultPlan::none`] compiles down to a
//!   single `bool` test on the device hot paths, so the fault layer cannot
//!   regress the throughput numbers in `BENCH_spec_throughput.json`.

use obs::json::Value;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// What happens to one injected Ethernet frame on its way into the RX FIFO.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameFault {
    /// The frame is silently lost (never enters the FIFO).
    Drop,
    /// Only the first `n` bytes arrive.
    Truncate(usize),
    /// One byte at `offset % len` is flipped with `xor`.
    Corrupt { offset: usize, xor: u8 },
}

/// A deterministic schedule of device misbehaviour.
///
/// All index fields are sorted ascending by their trigger count. The plan
/// is split into `WireFaults` (owned by the SPI controller) and
/// `LanFaults` (owned by the LAN9250 model) when a board is built with
/// [`crate::Board::with_faults`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// The seed this plan was derived from (0 for hand-built plans).
    pub seed: u64,
    /// `BYTE_TEST` answers junk (`0xFFFF_FFFF`) for this many reads.
    pub byte_test_junk_reads: u32,
    /// `HW_CFG` reports not-ready for this many reads.
    pub hw_cfg_notready_reads: u32,
    /// `MAC_CSR_CMD` reports busy for this many reads.
    pub mac_busy_reads: u32,
    /// `RX_FIFO_INF` read indices that report a phantom pending frame
    /// (a spurious RX-pending flag with nothing behind it).
    pub spurious_rx_reads: Vec<u64>,
    /// `(exchange index, xor)`: the MISO byte of that completed wire
    /// exchange is corrupted. MOSI is never touched — the chip still sees
    /// what the driver sent.
    pub wire_garbage: Vec<(u64, u8)>,
    /// `(delivered-byte index, extra reads)`: once that many RX bytes have
    /// been delivered to the CPU, the next `extra reads` of `RXDATA` are
    /// forced empty (the controller stalls).
    pub rx_stalls: Vec<(u64, u32)>,
    /// `(injection index, fault)`: what happens to the Nth injected frame.
    pub frame_faults: Vec<(u64, FrameFault)>,
}

/// The `lan_init` per-phase poll budget is `layout::INIT_TIMEOUT + 1 = 65`
/// reads; register-fault magnitudes below are calibrated against it so a
/// plan forces at most two failed init attempts on one register, which a
/// driver with `LAN_INIT_RETRIES = 3` always survives.
const INIT_POLL_BUDGET: u32 = 65;

/// Longest stall a plan may schedule. Must stay below one full timed-out
/// pipelined readword (7 gets x 65 polls = 455 reads) so stalled bytes
/// never pile past the 8-deep RX FIFO and start dropping — drops would be
/// timing- (and therefore model-) dependent.
const MAX_STALL_READS: u32 = 400;

impl FaultPlan {
    /// The empty plan: no faults, and (via [`FaultPlan::is_none`]) a
    /// single-branch check on the device hot paths.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// True when the plan schedules nothing at all.
    pub fn is_none(&self) -> bool {
        self.byte_test_junk_reads == 0
            && self.hw_cfg_notready_reads == 0
            && self.mac_busy_reads == 0
            && self.spurious_rx_reads.is_empty()
            && self.wire_garbage.is_empty()
            && self.rx_stalls.is_empty()
            && self.frame_faults.is_empty()
    }

    /// Total number of scheduled fault events (an upper bound on what a
    /// run can actually inject).
    pub fn scheduled(&self) -> u64 {
        (self.byte_test_junk_reads + self.hw_cfg_notready_reads + self.mac_busy_reads) as u64
            + self.spurious_rx_reads.len() as u64
            + self.wire_garbage.len() as u64
            + self.rx_stalls.iter().map(|(_, n)| *n as u64).sum::<u64>()
            + self.frame_faults.len() as u64
    }

    /// Derives a plan from a seed. Same seed ⇒ same plan, on every model.
    ///
    /// The distribution is calibrated so every plan is *recoverable* by the
    /// hardened drivers: at most one register gets a "hard" fault (longer
    /// than one poll budget, forcing failed init attempts), capped at two
    /// budgets' worth; stalls are bounded by `MAX_STALL_READS`.
    pub fn from_seed(seed: u64) -> FaultPlan {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15);
        let mut plan = FaultPlan {
            seed,
            ..FaultPlan::default()
        };

        // One register misbehaves per plan: softly (absorbed by a single
        // poll loop) or hard (needs retry), or not at all.
        let soft = 1..=(INIT_POLL_BUDGET - 5);
        let hard = (INIT_POLL_BUDGET + 1)..=(2 * INIT_POLL_BUDGET);
        match rng.random_range(0..7u32) {
            0 => plan.byte_test_junk_reads = rng.random_range(soft),
            1 => plan.byte_test_junk_reads = rng.random_range(hard),
            2 => plan.hw_cfg_notready_reads = rng.random_range(soft),
            3 => plan.hw_cfg_notready_reads = rng.random_range(hard),
            4 => plan.mac_busy_reads = rng.random_range(soft),
            5 => plan.mac_busy_reads = rng.random_range(hard),
            _ => {}
        }

        // Transient MISO garbage on a few wire exchanges.
        for _ in 0..rng.random_range(0..=5u32) {
            plan.wire_garbage
                .push((rng.random_range(0..3000), rng.random_range(1..=255u8)));
        }
        plan.wire_garbage.sort_unstable();

        // At most two RX stalls, far enough apart that they never overlap
        // (a stall only arms after deliveries resume).
        for _ in 0..rng.random_range(0..=2u32) {
            plan.rx_stalls.push((
                rng.random_range(0..1200),
                rng.random_range(1..=MAX_STALL_READS),
            ));
        }
        plan.rx_stalls.sort_unstable();
        plan.rx_stalls.dedup_by_key(|(i, _)| *i);

        // Spurious RX-pending flags early in the run.
        for _ in 0..rng.random_range(0..=2u32) {
            plan.spurious_rx_reads.push(rng.random_range(0..80));
        }
        plan.spurious_rx_reads.sort_unstable();
        plan.spurious_rx_reads.dedup();

        // Frame-level faults on the first few injected frames.
        for idx in 0..4u64 {
            if rng.random_range(0..4u32) == 0 {
                let fault = match rng.random_range(0..3u32) {
                    0 => FrameFault::Drop,
                    1 => FrameFault::Truncate(rng.random_range(0..60)),
                    _ => FrameFault::Corrupt {
                        offset: rng.random_range(0..64),
                        xor: rng.random_range(1..=255u8),
                    },
                };
                plan.frame_faults.push((idx, fault));
            }
        }

        plan
    }

    /// Decomposes the plan into its independent triggers, in a canonical
    /// order (register faults first, then each scheduled list in field
    /// order). Every atom can be removed without disturbing the others —
    /// triggers are keyed on interaction counts the *drivers* produce, not
    /// on one another — which is what makes delta-debugging over sub-plans
    /// sound: `from_atoms` of any subset is a well-formed plan whose
    /// remaining triggers fire exactly as they did in the original.
    pub fn atoms(&self) -> Vec<FaultAtom> {
        let mut out = Vec::new();
        if self.byte_test_junk_reads != 0 {
            out.push(FaultAtom::ByteTestJunk(self.byte_test_junk_reads));
        }
        if self.hw_cfg_notready_reads != 0 {
            out.push(FaultAtom::HwCfgNotReady(self.hw_cfg_notready_reads));
        }
        if self.mac_busy_reads != 0 {
            out.push(FaultAtom::MacBusy(self.mac_busy_reads));
        }
        out.extend(
            self.spurious_rx_reads
                .iter()
                .map(|&i| FaultAtom::SpuriousRx(i)),
        );
        out.extend(
            self.wire_garbage
                .iter()
                .map(|&(i, x)| FaultAtom::WireGarbage(i, x)),
        );
        out.extend(
            self.rx_stalls
                .iter()
                .map(|&(i, n)| FaultAtom::RxStall(i, n)),
        );
        out.extend(
            self.frame_faults
                .iter()
                .map(|&(i, f)| FaultAtom::Frame(i, f)),
        );
        out
    }

    /// Recomposes a plan from a subset of another plan's [`FaultPlan::atoms`]
    /// (delta debugging's "apply this candidate"). Schedules are re-sorted
    /// into the field invariants (ascending trigger indices); duplicate
    /// register atoms keep the largest magnitude, and duplicate scheduled
    /// indices are dropped where the originating field dedups them.
    /// `from_atoms(p.seed, &p.atoms()) == p` holds for every seeded plan.
    pub fn from_atoms(seed: u64, atoms: &[FaultAtom]) -> FaultPlan {
        let mut plan = FaultPlan {
            seed,
            ..FaultPlan::default()
        };
        for atom in atoms {
            match *atom {
                FaultAtom::ByteTestJunk(n) => {
                    plan.byte_test_junk_reads = plan.byte_test_junk_reads.max(n)
                }
                FaultAtom::HwCfgNotReady(n) => {
                    plan.hw_cfg_notready_reads = plan.hw_cfg_notready_reads.max(n)
                }
                FaultAtom::MacBusy(n) => plan.mac_busy_reads = plan.mac_busy_reads.max(n),
                FaultAtom::SpuriousRx(i) => plan.spurious_rx_reads.push(i),
                FaultAtom::WireGarbage(i, x) => plan.wire_garbage.push((i, x)),
                FaultAtom::RxStall(i, n) => plan.rx_stalls.push((i, n)),
                FaultAtom::Frame(i, f) => plan.frame_faults.push((i, f)),
            }
        }
        plan.spurious_rx_reads.sort_unstable();
        plan.spurious_rx_reads.dedup();
        plan.wire_garbage.sort_unstable();
        plan.rx_stalls.sort_unstable();
        plan.rx_stalls.dedup_by_key(|(i, _)| *i);
        plan.frame_faults.sort_by_key(|(i, _)| *i);
        plan
    }

    /// Serializes the plan as a dependency-free JSON object (the format
    /// triage artifacts and `fault_sweep --replay-plan` exchange).
    pub fn to_json(&self) -> Value {
        let pair = |a: u64, b: u64| Value::Arr(vec![Value::UInt(a), Value::UInt(b)]);
        let frame = |(at, fault): &(u64, FrameFault)| {
            let obj = Value::obj().field("at", Value::UInt(*at));
            match fault {
                FrameFault::Drop => obj.field("kind", Value::Str("drop".into())),
                FrameFault::Truncate(n) => obj
                    .field("kind", Value::Str("truncate".into()))
                    .field("len", Value::UInt(*n as u64)),
                FrameFault::Corrupt { offset, xor } => obj
                    .field("kind", Value::Str("corrupt".into()))
                    .field("offset", Value::UInt(*offset as u64))
                    .field("xor", Value::UInt(*xor as u64)),
            }
        };
        Value::obj()
            .field("seed", Value::UInt(self.seed))
            .field(
                "byte_test_junk_reads",
                Value::UInt(self.byte_test_junk_reads as u64),
            )
            .field(
                "hw_cfg_notready_reads",
                Value::UInt(self.hw_cfg_notready_reads as u64),
            )
            .field("mac_busy_reads", Value::UInt(self.mac_busy_reads as u64))
            .field(
                "spurious_rx_reads",
                Value::Arr(
                    self.spurious_rx_reads
                        .iter()
                        .map(|&i| Value::UInt(i))
                        .collect(),
                ),
            )
            .field(
                "wire_garbage",
                Value::Arr(
                    self.wire_garbage
                        .iter()
                        .map(|&(i, x)| pair(i, x as u64))
                        .collect(),
                ),
            )
            .field(
                "rx_stalls",
                Value::Arr(
                    self.rx_stalls
                        .iter()
                        .map(|&(i, n)| pair(i, n as u64))
                        .collect(),
                ),
            )
            .field(
                "frame_faults",
                Value::Arr(self.frame_faults.iter().map(frame).collect()),
            )
    }

    /// Parses a plan back from [`FaultPlan::to_json`] output.
    ///
    /// # Errors
    ///
    /// A human-readable message naming the malformed field.
    pub fn from_json(v: &Value) -> Result<FaultPlan, String> {
        fn uint(v: &Value, field: &str) -> Result<u64, String> {
            match v.get(field) {
                Some(&Value::UInt(n)) => Ok(n),
                other => Err(format!(
                    "fault plan field {field}: expected uint, got {other:?}"
                )),
            }
        }
        fn uint_of(v: &Value, what: &str) -> Result<u64, String> {
            match v {
                Value::UInt(n) => Ok(*n),
                other => Err(format!("{what}: expected uint, got {other:?}")),
            }
        }
        fn arr<'a>(v: &'a Value, field: &str) -> Result<&'a [Value], String> {
            v.get(field)
                .and_then(Value::as_arr)
                .ok_or_else(|| format!("fault plan field {field}: expected array"))
        }
        fn pairs(v: &Value, field: &str) -> Result<Vec<(u64, u64)>, String> {
            arr(v, field)?
                .iter()
                .map(|p| match p.as_arr() {
                    Some([a, b]) => Ok((uint_of(a, field)?, uint_of(b, field)?)),
                    _ => Err(format!("fault plan field {field}: expected [uint, uint]")),
                })
                .collect()
        }
        let mut plan = FaultPlan {
            seed: uint(v, "seed")?,
            byte_test_junk_reads: uint(v, "byte_test_junk_reads")? as u32,
            hw_cfg_notready_reads: uint(v, "hw_cfg_notready_reads")? as u32,
            mac_busy_reads: uint(v, "mac_busy_reads")? as u32,
            ..FaultPlan::default()
        };
        for i in arr(v, "spurious_rx_reads")? {
            plan.spurious_rx_reads
                .push(uint_of(i, "spurious_rx_reads")?);
        }
        for (i, x) in pairs(v, "wire_garbage")? {
            plan.wire_garbage.push((i, x as u8));
        }
        for (i, n) in pairs(v, "rx_stalls")? {
            plan.rx_stalls.push((i, n as u32));
        }
        for f in arr(v, "frame_faults")? {
            let at = uint(f, "at")?;
            let fault = match f.get("kind").and_then(Value::as_str) {
                Some("drop") => FrameFault::Drop,
                Some("truncate") => FrameFault::Truncate(uint(f, "len")? as usize),
                Some("corrupt") => FrameFault::Corrupt {
                    offset: uint(f, "offset")? as usize,
                    xor: uint(f, "xor")? as u8,
                },
                other => return Err(format!("frame fault kind: {other:?}")),
            };
            plan.frame_faults.push((at, fault));
        }
        Ok(plan)
    }

    /// The wire-level half of the plan, for the SPI controller.
    pub(crate) fn wire_faults(&self) -> WireFaults {
        WireFaults {
            active: !self.wire_garbage.is_empty() || !self.rx_stalls.is_empty(),
            garbage: self.wire_garbage.clone(),
            stalls: self.rx_stalls.clone(),
            next_garbage: 0,
            next_stall: 0,
            stall_left: 0,
            exchanges: 0,
            delivered: 0,
            injected: 0,
        }
        .armed()
    }

    /// The chip-level half of the plan, for the LAN9250 model.
    pub(crate) fn lan_faults(&self) -> LanFaults {
        LanFaults {
            active: self.byte_test_junk_reads != 0
                || self.hw_cfg_notready_reads != 0
                || self.mac_busy_reads != 0
                || !self.spurious_rx_reads.is_empty()
                || !self.frame_faults.is_empty(),
            byte_test_junk: self.byte_test_junk_reads,
            hw_cfg_notready: self.hw_cfg_notready_reads,
            mac_busy: self.mac_busy_reads,
            spurious_rx: self.spurious_rx_reads.clone(),
            frame_faults: self.frame_faults.clone(),
            next_spurious: 0,
            next_frame_fault: 0,
            byte_test_reads: 0,
            hw_cfg_reads: 0,
            mac_cmd_reads: 0,
            fifo_inf_reads: 0,
            frames_seen: 0,
            injected: 0,
        }
    }
}

/// One independently removable trigger of a [`FaultPlan`] — the unit the
/// triage minimizer subsets over ([`FaultPlan::atoms`] /
/// [`FaultPlan::from_atoms`]). A register fault is one atom carrying its
/// whole magnitude; scheduled lists contribute one atom per entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultAtom {
    /// `BYTE_TEST` answers junk for this many reads.
    ByteTestJunk(u32),
    /// `HW_CFG` reports not-ready for this many reads.
    HwCfgNotReady(u32),
    /// `MAC_CSR_CMD` reports busy for this many reads.
    MacBusy(u32),
    /// A phantom RX-pending flag at this `RX_FIFO_INF` read index.
    SpuriousRx(u64),
    /// `(exchange index, xor)` MISO corruption.
    WireGarbage(u64, u8),
    /// `(delivered-byte index, forced-empty reads)` RX stall.
    RxStall(u64, u32),
    /// `(injection index, fault)` frame-level fault.
    Frame(u64, FrameFault),
}

/// Runtime state for the wire-level faults, owned by [`crate::Spi`].
#[derive(Clone, Debug)]
pub(crate) struct WireFaults {
    active: bool,
    garbage: Vec<(u64, u8)>,
    stalls: Vec<(u64, u32)>,
    next_garbage: usize,
    next_stall: usize,
    stall_left: u32,
    exchanges: u64,
    delivered: u64,
    /// Fault events actually injected so far.
    pub(crate) injected: u64,
}

impl WireFaults {
    /// True when any wire fault is scheduled; the *only* check on the SPI
    /// hot paths.
    #[inline]
    pub(crate) fn is_active(&self) -> bool {
        self.active
    }

    /// Arms a stall scheduled at delivered-index 0 (before any delivery).
    fn armed(mut self) -> WireFaults {
        self.check_arm();
        self
    }

    fn check_arm(&mut self) {
        if let Some((at, reads)) = self.stalls.get(self.next_stall).copied() {
            if at == self.delivered {
                self.stall_left = reads;
                self.next_stall += 1;
            }
        }
    }

    /// Filters the MISO byte of a completed exchange. Called once per
    /// exchange, in wire order, so the exchange index is model-invariant.
    pub(crate) fn on_exchange(&mut self, miso: u8) -> u8 {
        let idx = self.exchanges;
        self.exchanges += 1;
        let mut out = miso;
        while let Some((at, xor)) = self.garbage.get(self.next_garbage).copied() {
            if at != idx {
                break;
            }
            out ^= xor;
            self.next_garbage += 1;
            self.injected += 1;
        }
        out
    }

    /// True when a stall forces this `RXDATA` read to come back empty
    /// regardless of FIFO contents. Each forced read consumes stall budget,
    /// so consumption is keyed on reads-while-stalled — identical across
    /// models because no model can pop a byte while the stall holds.
    pub(crate) fn stall_read(&mut self) -> bool {
        if self.stall_left > 0 {
            self.stall_left -= 1;
            self.injected += 1;
            true
        } else {
            false
        }
    }

    /// Records a byte actually delivered to the CPU and arms any stall
    /// scheduled at the new delivered count.
    pub(crate) fn on_delivered(&mut self) {
        self.delivered += 1;
        self.check_arm();
    }
}

/// Runtime state for the chip-level faults, owned by [`crate::Lan9250`].
#[derive(Clone, Debug)]
pub(crate) struct LanFaults {
    active: bool,
    byte_test_junk: u32,
    hw_cfg_notready: u32,
    mac_busy: u32,
    spurious_rx: Vec<u64>,
    frame_faults: Vec<(u64, FrameFault)>,
    next_spurious: usize,
    next_frame_fault: usize,
    byte_test_reads: u64,
    hw_cfg_reads: u64,
    mac_cmd_reads: u64,
    fifo_inf_reads: u64,
    frames_seen: u64,
    /// Fault events actually injected so far.
    pub(crate) injected: u64,
}

impl LanFaults {
    /// True when any chip fault is scheduled; the *only* check on the
    /// register-read hot path.
    #[inline]
    pub(crate) fn is_active(&self) -> bool {
        self.active
    }

    /// `Some(junk)` when this `BYTE_TEST` read is still in the junk window.
    pub(crate) fn byte_test(&mut self) -> Option<u32> {
        self.byte_test_reads += 1;
        if self.byte_test_reads <= self.byte_test_junk as u64 {
            self.injected += 1;
            Some(0xFFFF_FFFF)
        } else {
            None
        }
    }

    /// `Some(0)` when this `HW_CFG` read still reports not-ready.
    pub(crate) fn hw_cfg(&mut self) -> Option<u32> {
        self.hw_cfg_reads += 1;
        if self.hw_cfg_reads <= self.hw_cfg_notready as u64 {
            self.injected += 1;
            Some(0)
        } else {
            None
        }
    }

    /// `Some(busy)` when this `MAC_CSR_CMD` read still reports busy.
    pub(crate) fn mac_csr_cmd(&mut self, busy: u32) -> Option<u32> {
        self.mac_cmd_reads += 1;
        if self.mac_cmd_reads <= self.mac_busy as u64 {
            self.injected += 1;
            Some(busy)
        } else {
            None
        }
    }

    /// True when this `RX_FIFO_INF` read should report a phantom frame.
    /// The schedule slot is consumed whether or not the phantom fires (a
    /// real frame pending at that read masks it), keeping counts seeded.
    pub(crate) fn spurious_rx(&mut self, really_pending: bool) -> bool {
        let idx = self.fifo_inf_reads;
        self.fifo_inf_reads += 1;
        match self.spurious_rx.get(self.next_spurious) {
            Some(&at) if at == idx => {
                self.next_spurious += 1;
                if really_pending {
                    false
                } else {
                    self.injected += 1;
                    true
                }
            }
            _ => false,
        }
    }

    /// The fault (if any) scheduled for the frame being injected now.
    pub(crate) fn frame_fault(&mut self) -> Option<FrameFault> {
        let idx = self.frames_seen;
        self.frames_seen += 1;
        match self.frame_faults.get(self.next_frame_fault) {
            Some(&(at, fault)) if at == idx => {
                self.next_frame_fault += 1;
                self.injected += 1;
                Some(fault)
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_none() {
        assert!(FaultPlan::none().is_none());
        assert_eq!(FaultPlan::none().scheduled(), 0);
        assert!(!FaultPlan::none().wire_faults().is_active());
        assert!(!FaultPlan::none().lan_faults().is_active());
    }

    #[test]
    fn from_seed_is_deterministic() {
        for seed in 0..256u64 {
            assert_eq!(FaultPlan::from_seed(seed), FaultPlan::from_seed(seed));
        }
    }

    #[test]
    fn schedules_are_sorted_and_bounded() {
        for seed in 0..512u64 {
            let p = FaultPlan::from_seed(seed);
            assert!(p.wire_garbage.windows(2).all(|w| w[0].0 <= w[1].0));
            assert!(p.rx_stalls.windows(2).all(|w| w[0].0 < w[1].0));
            assert!(p.spurious_rx_reads.windows(2).all(|w| w[0] < w[1]));
            assert!(p.frame_faults.windows(2).all(|w| w[0].0 < w[1].0));
            assert!(p.rx_stalls.iter().all(|(_, n)| *n <= MAX_STALL_READS));
            // At most one register fault, capped at two poll budgets, so
            // bounded retries always recover.
            let regs = [
                p.byte_test_junk_reads,
                p.hw_cfg_notready_reads,
                p.mac_busy_reads,
            ];
            assert!(regs.iter().filter(|r| **r != 0).count() <= 1);
            assert!(regs.iter().all(|r| *r <= 2 * INIT_POLL_BUDGET));
        }
    }

    #[test]
    fn stall_budget_counts_reads() {
        let plan = FaultPlan {
            rx_stalls: vec![(0, 3)],
            ..FaultPlan::default()
        };
        let mut w = plan.wire_faults();
        assert!(w.is_active());
        assert!(w.stall_read());
        assert!(w.stall_read());
        assert!(w.stall_read());
        assert!(!w.stall_read());
        assert_eq!(w.injected, 3);
    }

    #[test]
    fn atoms_round_trip_for_seeded_plans() {
        for seed in 0..512u64 {
            let p = FaultPlan::from_seed(seed);
            let atoms = p.atoms();
            assert!(!atoms.is_empty() || p.is_none());
            assert_eq!(FaultPlan::from_atoms(p.seed, &atoms), p, "seed {seed}");
        }
    }

    #[test]
    fn from_atoms_of_a_subset_is_a_sub_plan() {
        let p = FaultPlan::from_seed(42);
        let atoms = p.atoms();
        for skip in 0..atoms.len() {
            let subset: Vec<FaultAtom> = atoms
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != skip)
                .map(|(_, a)| *a)
                .collect();
            let sub = FaultPlan::from_atoms(p.seed, &subset);
            assert_eq!(sub.atoms(), subset, "subsets re-decompose to themselves");
            assert!(sub.scheduled() <= p.scheduled());
        }
    }

    #[test]
    fn json_round_trips_seeded_and_hand_plans() {
        let hand = FaultPlan {
            seed: 7,
            byte_test_junk_reads: 3,
            frame_faults: vec![
                (0, FrameFault::Drop),
                (1, FrameFault::Truncate(9)),
                (
                    2,
                    FrameFault::Corrupt {
                        offset: 5,
                        xor: 0xA5,
                    },
                ),
            ],
            rx_stalls: vec![(10, 20)],
            wire_garbage: vec![(3, 0xFF)],
            spurious_rx_reads: vec![1, 2],
            ..FaultPlan::default()
        };
        for p in (0..64).map(FaultPlan::from_seed).chain([hand]) {
            let text = p.to_json().render();
            let back = FaultPlan::from_json(&obs::json::parse(&text).expect("valid JSON"))
                .expect("plan parses back");
            assert_eq!(back, p);
        }
    }

    #[test]
    fn garbage_composes_at_one_index() {
        let plan = FaultPlan {
            wire_garbage: vec![(1, 0x0F), (1, 0xF0)],
            ..FaultPlan::default()
        };
        let mut w = plan.wire_faults();
        assert_eq!(w.on_exchange(0x00), 0x00);
        assert_eq!(w.on_exchange(0x00), 0xFF);
        assert_eq!(w.on_exchange(0x00), 0x00);
    }
}
