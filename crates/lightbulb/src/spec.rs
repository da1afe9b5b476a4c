//! The top-level trace specification (§3.1 of the paper):
//!
//! ```text
//! goodHlTrace :=
//!   BootSeq +++ ((EX b: bool, Recv b +++ LightbulbCmd b)
//!                ||| RecvInvalid ||| PollNone) ^*
//! ```
//!
//! Every predicate here is a set of MMIO traces at the processor's bus
//! interface — the same `("ld"/"st", addr, value)` triples every machine
//! model in the workspace records — built from the regex-like combinators
//! of `proglogic::trace`.
//!
//! The specification is *lax* where the paper's is lax (it does not parse
//! IP headers out of the byte stream) and precise where safety demands it:
//!
//! * `LightbulbCmd b` only ever appears after `Recv b` with the **same**
//!   `b`, and `Recv b` pins the received command byte — the RXDATA read
//!   delivering byte offset 42 of the frame (word 10, lane 2) — to carry
//!   `b` in its low bit. A trace in which the lightbulb switches without a
//!   matching command, or opposite to the command, does not match.
//! * `RecvInvalid` and `PollNone` contain no GPIO events at all, so
//!   malformed traffic provably (checkably) cannot actuate anything.
//! * `BootSeq` requires the mandated bring-up: a `BYTE_TEST` read
//!   observing the magic value, an `HW_CFG` read observing READY, and the
//!   MAC receive-enable sequence, before any packet interaction.
//!
//! # Recoverable failures
//!
//! The paper's device spec is nondeterministic — the LAN9250 may answer
//! `BYTE_TEST` with junk forever, which is why the drivers carry timeout
//! loops at all (§4.3). With the hardened drivers (`lan_init_retry`,
//! `lan_recover`) the top-level spec classifies and accepts *recoverable*
//! failure traces as well:
//!
//! * [`boot_seq_robust`] — bring-up as a bounded chain of attempts: each
//!   failed attempt (polls exhausting their budget, exchanges timing out)
//!   is followed by a FIFO drain and a fresh attempt, ending in either a
//!   successful `BootSeq` tail or a final give-up.
//! * [`recv_error`]` ⋅ `[`reinit`] — an RX interaction whose SPI
//!   exchanges time out, followed by drain-and-reinit. The lightbulb GPIO
//!   appears in **none** of the failure predicates, so the safety story is
//!   unchanged: even under faults, actuation requires a received command.
//!
//! The failure predicates are deliberately lax (any values, optional
//! bytes) — laxity can only over-accept GPIO-free wire noise, never a
//! rogue actuation. Prefix closure is preserved: every prefix of an
//! accepted recovery trace is a prefix of the spec.

use crate::app::DriverOptions;
use crate::layout::{self, lan};
use proglogic::trace::{ld_if, st_if, TracePred};

/// Maximum polls a driver flag-wait can issue (timeout budget + the
/// initial read).
const MAX_POLLS: usize = layout::SPI_TIMEOUT as usize + 2;

fn tx_busy() -> TracePred {
    ld_if(layout::SPI_TXDATA, "full", |v| v & layout::SPI_FLAG != 0)
}

fn tx_ready() -> TracePred {
    ld_if(layout::SPI_TXDATA, "room", |v| v & layout::SPI_FLAG == 0)
}

fn rx_empty() -> TracePred {
    ld_if(layout::SPI_RXDATA, "empty", |v| v & layout::SPI_FLAG != 0)
}

fn rx_byte(name: &str, f: impl Fn(u8) -> bool + Send + Sync + 'static) -> TracePred {
    ld_if(layout::SPI_RXDATA, name, move |v| {
        v & layout::SPI_FLAG == 0 && f(v as u8)
    })
}

fn cs(assert: bool) -> TracePred {
    st_if(
        layout::SPI_CSMODE,
        if assert { "cs+" } else { "cs-" },
        move |v| (v & 1 == 1) == assert,
    )
}

/// `spi_put(b)`: wait for room, write the byte (any byte when `None`).
fn put(byte: Option<u8>) -> TracePred {
    let write = match byte {
        Some(b) => st_if(layout::SPI_TXDATA, &format!("tx={b:#04x}"), move |v| {
            v as u8 == b
        }),
        None => st_if(layout::SPI_TXDATA, "tx", |_| true),
    };
    let name = match byte {
        Some(b) => format!("put({b:#04x})"),
        None => "put(_)".to_string(),
    };
    tx_busy()
        .at_most(MAX_POLLS)
        .then(&tx_ready())
        .then(&write)
        .named(&name)
}

/// `spi_get()`: wait for and read one response byte satisfying `f`.
fn get(name: &str, f: impl Fn(u8) -> bool + Send + Sync + 'static) -> TracePred {
    rx_empty()
        .at_most(MAX_POLLS)
        .then(&rx_byte(name, f))
        .named(&format!("get[{name}]"))
}

fn get_any() -> TracePred {
    get("rx", |_| true)
}

/// A named predicate over one received data byte.
type BytePred = Option<(&'static str, fn(u8) -> bool)>;

/// One LAN9250 register read with per-data-byte predicates.
fn lan_read(opts: DriverOptions, addr: u16, data: [BytePred; 4]) -> TracePred {
    let hi = (addr >> 8) as u8;
    let lo = (addr & 0xFF) as u8;
    let data_gets: Vec<TracePred> = data
        .into_iter()
        .map(|p| match p {
            Some((name, f)) => get(name, f),
            None => get_any(),
        })
        .collect();
    let mut parts = vec![cs(true)];
    if opts.pipelined_spi {
        // Queue the 7 command bytes, then drain 3 junk + 4 data responses.
        parts.push(put(Some(layout::CMD_READ as u8)));
        parts.push(put(Some(hi)));
        parts.push(put(Some(lo)));
        for _ in 0..4 {
            parts.push(put(Some(0)));
        }
        for _ in 0..3 {
            parts.push(get_any());
        }
        parts.extend(data_gets);
    } else {
        // Interleaved: each byte is a put immediately followed by a get.
        parts.push(put(Some(layout::CMD_READ as u8)));
        parts.push(get_any());
        parts.push(put(Some(hi)));
        parts.push(get_any());
        parts.push(put(Some(lo)));
        parts.push(get_any());
        for dg in data_gets {
            parts.push(put(Some(0)));
            parts.push(dg);
        }
    }
    parts.push(cs(false));
    let labels: Vec<String> = data
        .iter()
        .map(|p| p.map_or("_", |(n, _)| n).to_string())
        .collect();
    TracePred::all(parts).named(&format!("lan_read(0x{addr:02x}; {})", labels.join(",")))
}

/// One LAN9250 register write of a known value.
fn lan_write(opts: DriverOptions, addr: u16, value: u32) -> TracePred {
    let bytes = [
        layout::CMD_WRITE as u8,
        (addr >> 8) as u8,
        (addr & 0xFF) as u8,
        value as u8,
        (value >> 8) as u8,
        (value >> 16) as u8,
        (value >> 24) as u8,
    ];
    let mut parts = vec![cs(true)];
    if opts.pipelined_spi {
        for b in bytes {
            parts.push(put(Some(b)));
        }
        for _ in 0..7 {
            parts.push(get_any());
        }
    } else {
        for b in bytes {
            parts.push(put(Some(b)));
            parts.push(get_any());
        }
    }
    parts.push(cs(false));
    TracePred::all(parts).named(&format!("lan_write(0x{addr:02x}, {value:#x})"))
}

fn lan_read_any(opts: DriverOptions, addr: u16) -> TracePred {
    lan_read(opts, addr, [None, None, None, None])
}

/// A fault-tolerant `spi_get`: bounded polling, then either a delivered
/// byte of any value (wire garbage is admissible) or nothing at all (the
/// timeout path).
fn get_ft() -> TracePred {
    rx_empty()
        .at_most(MAX_POLLS)
        .then(&rx_byte("rx?", |_| true).or(&TracePred::eps()))
        .named("get_ft")
}

/// A LAN9250 register read whose exchanges may time out: the command bytes
/// still go out (the TX queue never fills), but any response byte may be
/// missing or garbage.
fn lan_read_ft(opts: DriverOptions, addr: u16) -> TracePred {
    let hi = (addr >> 8) as u8;
    let lo = (addr & 0xFF) as u8;
    let mut parts = vec![cs(true)];
    if opts.pipelined_spi {
        for b in [layout::CMD_READ as u8, hi, lo, 0, 0, 0, 0] {
            parts.push(put(Some(b)));
        }
        for _ in 0..7 {
            parts.push(get_ft());
        }
    } else {
        for b in [layout::CMD_READ as u8, hi, lo, 0, 0, 0, 0] {
            parts.push(put(Some(b)));
            parts.push(get_ft());
        }
    }
    parts.push(cs(false));
    TracePred::all(parts).named(&format!("lan_read_ft(0x{addr:02x})"))
}

/// A LAN9250 register write whose junk responses may time out. The written
/// value is still pinned — faults corrupt what the driver *sees*, never
/// what it sends.
fn lan_write_ft(opts: DriverOptions, addr: u16, value: u32) -> TracePred {
    let bytes = [
        layout::CMD_WRITE as u8,
        (addr >> 8) as u8,
        (addr & 0xFF) as u8,
        value as u8,
        (value >> 8) as u8,
        (value >> 16) as u8,
        (value >> 24) as u8,
    ];
    let mut parts = vec![cs(true)];
    if opts.pipelined_spi {
        for b in bytes {
            parts.push(put(Some(b)));
        }
        for _ in 0..7 {
            parts.push(get_ft());
        }
    } else {
        for b in bytes {
            parts.push(put(Some(b)));
            parts.push(get_ft());
        }
    }
    parts.push(cs(false));
    TracePred::all(parts).named(&format!("lan_write_ft(0x{addr:02x}, {value:#x})"))
}

/// The `spi_drain` recovery helper on the wire: a bounded run of RXDATA
/// reads (stale bytes or the terminating empty read).
fn drain_reads() -> TracePred {
    let rx_read = ld_if(layout::SPI_RXDATA, "drain", |_| true);
    rx_read
        .at_most(layout::SPI_DRAIN_BUDGET as usize + 1)
        .named("spi_drain")
}

/// `BootSeq`: GPIO setup plus the Ethernet controller's mandated
/// bring-up incantations (§3.1).
pub fn boot_seq(opts: DriverOptions) -> TracePred {
    let gpio_en = st_if(layout::GPIO_OUTPUT_EN, "enable-bulb", |v| {
        v == layout::LIGHTBULB_MASK
    });
    // Poll BYTE_TEST until the magic value appears, byte by byte.
    let byte_test_magic = lan_read(
        opts,
        lan::BYTE_TEST,
        [
            Some(("magic0", |b| b == 0x21)),
            Some(("magic1", |b| b == 0x43)),
            Some(("magic2", |b| b == 0x65)),
            Some(("magic3", |b| b == 0x87)),
        ],
    );
    let byte_test_poll = lan_read_any(opts, lan::BYTE_TEST)
        .at_most(layout::INIT_TIMEOUT as usize + 1)
        .then(&byte_test_magic);
    // Poll HW_CFG until READY (bit 27 = bit 3 of byte 3).
    let hw_cfg_ready = lan_read(
        opts,
        lan::HW_CFG,
        [None, None, None, Some(("ready", |b| b & 0x08 != 0))],
    );
    let hw_cfg_poll = lan_read_any(opts, lan::HW_CFG)
        .at_most(layout::INIT_TIMEOUT as usize + 1)
        .then(&hw_cfg_ready);
    // MAC receive enable through the CSR indirection, then wait not-busy.
    let mac = lan_write(opts, lan::MAC_CSR_DATA, layout::MAC_CR_RXEN).then(&lan_write(
        opts,
        lan::MAC_CSR_CMD,
        layout::MAC_CSR_BUSY | layout::MAC_CR,
    ));
    let cmd_idle = lan_read(
        opts,
        lan::MAC_CSR_CMD,
        [None, None, None, Some(("idle", |b| b & 0x80 == 0))],
    );
    let cmd_poll = lan_read_any(opts, lan::MAC_CSR_CMD)
        .at_most(layout::INIT_TIMEOUT as usize + 1)
        .then(&cmd_idle);
    TracePred::all([
        gpio_en,
        byte_test_poll,
        hw_cfg_poll,
        mac,
        cmd_poll,
        link_check(opts),
    ])
}

/// The bring-up link-integrity check: the nonce written to `MAC_CSR_DATA`
/// and read back byte-for-byte.
fn link_check(opts: DriverOptions) -> TracePred {
    let nonce = layout::LINK_CHECK_NONCE;
    let echo = lan_read(
        opts,
        lan::MAC_CSR_DATA,
        [
            Some(("nonce0", |b| b == layout::LINK_CHECK_NONCE as u8)),
            Some(("nonce1", |b| b == (layout::LINK_CHECK_NONCE >> 8) as u8)),
            Some(("nonce2", |b| b == (layout::LINK_CHECK_NONCE >> 16) as u8)),
            Some(("nonce3", |b| b == (layout::LINK_CHECK_NONCE >> 24) as u8)),
        ],
    );
    lan_write(opts, lan::MAC_CSR_DATA, nonce)
        .then(&echo)
        .named("link_check")
}

/// One *successful* `lan_init` attempt under faults: the polls may cycle
/// through fault-tolerant reads (timed-out exchanges mid-poll are fine —
/// the driver only inspects the final read of each poll), but each phase
/// ends with the strict success read of `boot_seq`, and the MAC writes
/// complete cleanly (a timed-out write would have failed the attempt).
fn init_attempt_ok(opts: DriverOptions) -> TracePred {
    let budget = layout::INIT_TIMEOUT as usize + 1;
    let byte_test_magic = lan_read(
        opts,
        lan::BYTE_TEST,
        [
            Some(("magic0", |b| b == 0x21)),
            Some(("magic1", |b| b == 0x43)),
            Some(("magic2", |b| b == 0x65)),
            Some(("magic3", |b| b == 0x87)),
        ],
    );
    let byte_test_poll = lan_read_ft(opts, lan::BYTE_TEST)
        .at_most(budget)
        .then(&byte_test_magic);
    let hw_cfg_ready = lan_read(
        opts,
        lan::HW_CFG,
        [None, None, None, Some(("ready", |b| b & 0x08 != 0))],
    );
    let hw_cfg_poll = lan_read_ft(opts, lan::HW_CFG)
        .at_most(budget)
        .then(&hw_cfg_ready);
    let mac = lan_write(opts, lan::MAC_CSR_DATA, layout::MAC_CR_RXEN).then(&lan_write(
        opts,
        lan::MAC_CSR_CMD,
        layout::MAC_CSR_BUSY | layout::MAC_CR,
    ));
    let cmd_idle = lan_read(
        opts,
        lan::MAC_CSR_CMD,
        [None, None, None, Some(("idle", |b| b & 0x80 == 0))],
    );
    let cmd_poll = lan_read_ft(opts, lan::MAC_CSR_CMD)
        .at_most(budget)
        .then(&cmd_idle);
    TracePred::all([byte_test_poll, hw_cfg_poll, mac, cmd_poll, link_check(opts)])
        .named("init_attempt_ok")
}

/// One *failed* `lan_init` attempt: phases short-circuit once a poll gives
/// up, so the trace is a tail of fault-tolerant frames per phase.
/// Deliberately lax — there is no GPIO event anywhere in it — except that
/// it is never empty: `lan_init` always issues its first `BYTE_TEST` read,
/// so one drain's reads cannot be split across several empty attempts.
fn init_attempt_fail(opts: DriverOptions) -> TracePred {
    let budget = layout::INIT_TIMEOUT as usize + 2;
    let opt = |p: &TracePred| p.or(&TracePred::eps());
    let byte_test = lan_read_ft(opts, lan::BYTE_TEST);
    TracePred::all([
        byte_test.then(&byte_test.at_most(budget - 1)),
        lan_read_ft(opts, lan::HW_CFG).at_most(budget),
        opt(&lan_write_ft(opts, lan::MAC_CSR_DATA, layout::MAC_CR_RXEN)),
        opt(&lan_write_ft(
            opts,
            lan::MAC_CSR_CMD,
            layout::MAC_CSR_BUSY | layout::MAC_CR,
        )),
        lan_read_ft(opts, lan::MAC_CSR_CMD).at_most(budget),
        opt(&lan_write_ft(
            opts,
            lan::MAC_CSR_DATA,
            layout::LINK_CHECK_NONCE,
        )),
        opt(&lan_read_ft(opts, lan::MAC_CSR_DATA)),
    ])
    .named("init_attempt_fail")
}

/// The `lan_init_retry` shape: up to `LAN_INIT_RETRIES` failed attempts,
/// each followed by a drain, ending in a successful attempt or a final
/// give-up (after which the app loop keeps polling and re-entering
/// recovery — still GPIO-free).
fn init_retry_tail(opts: DriverOptions) -> TracePred {
    let ok = init_attempt_ok(opts);
    let fail = init_attempt_fail(opts);
    let drain = drain_reads();
    let mut tail = ok.or(&fail);
    for _ in 0..layout::LAN_INIT_RETRIES {
        tail = ok.or(&fail.then(&drain).then(&tail));
    }
    tail.named("init_retry_tail")
}

/// `BootSeq` under faults: GPIO setup, then the bounded retry chain. Every
/// clean `boot_seq` trace is also a `boot_seq_robust` trace.
pub fn boot_seq_robust(opts: DriverOptions) -> TracePred {
    let gpio_en = st_if(layout::GPIO_OUTPUT_EN, "enable-bulb", |v| {
        v == layout::LIGHTBULB_MASK
    });
    gpio_en
        .then(&init_retry_tail(opts))
        .named("boot_seq_robust")
}

/// `PollNone`: the RX FIFO information read reporting no pending frames
/// (status-FIFO count byte — byte 2 — is zero).
pub fn poll_none(opts: DriverOptions) -> TracePred {
    lan_read(
        opts,
        lan::RX_FIFO_INF,
        [None, None, Some(("no-frames", |b| b == 0)), None],
    )
}

fn poll_avail(opts: DriverOptions) -> TracePred {
    lan_read(
        opts,
        lan::RX_FIFO_INF,
        [None, None, Some(("frames>0", |b| b != 0)), None],
    )
}

fn data_word_any(opts: DriverOptions) -> TracePred {
    lan_read_any(opts, lan::RX_DATA_FIFO)
}

/// The data word carrying the command byte: frame byte offset 42 = word
/// 10, lane 2, whose low bit is the on/off command `b`.
fn data_word_cmd(opts: DriverOptions, b: bool) -> TracePred {
    let pred: fn(u8) -> bool = if b { |x| x & 1 == 1 } else { |x| x & 1 == 0 };
    lan_read(
        opts,
        lan::RX_DATA_FIFO,
        [None, None, Some(("cmd", pred)), None],
    )
}

/// Maximum data words per accepted frame (1520-byte buffer).
const MAX_DATA_WORDS: usize = (layout::RX_BUFFER_BYTES as usize).div_ceil(4);

/// `Recv b`: a frame is announced, its status is read, and its contents
/// are streamed out — with the command byte carrying `b`.
pub fn recv(opts: DriverOptions, b: bool) -> TracePred {
    // One word node, shared by every position it appears at.
    let word = data_word_any(opts);
    poll_avail(opts)
        .then(&lan_read_any(opts, lan::RX_STATUS_FIFO))
        .then(&TracePred::all(vec![word.clone(); 10]))
        .then(&data_word_cmd(opts, b))
        .then(&word.at_most(MAX_DATA_WORDS - 11))
}

/// `LightbulbCmd b`: the read-modify-write of the GPIO output register
/// leaving the lightbulb pin equal to `b`.
pub fn lightbulb_cmd(b: bool) -> TracePred {
    let set_pin = st_if(
        layout::GPIO_OUTPUT_VAL,
        if b { "bulb=on" } else { "bulb=off" },
        move |v| (v & layout::LIGHTBULB_MASK != 0) == b,
    );
    ld_if(layout::GPIO_OUTPUT_VAL, "gpio-read", |_| true).then(&set_pin)
}

/// `RecvInvalid`: a frame is announced and then either discarded by the
/// datapath control (length guard) or streamed out and dropped — with no
/// GPIO interaction whatsoever. The discard write is fault-tolerant: the
/// driver ignores its error and still reports the frame rejected.
pub fn recv_invalid(opts: DriverOptions) -> TracePred {
    let discard = lan_write_ft(opts, lan::RX_DP_CTRL, layout::RX_DP_DISCARD);
    let word = data_word_any(opts);
    let consume = word.then(&word.at_most(MAX_DATA_WORDS - 1));
    poll_avail(opts)
        .then(&lan_read_any(opts, lan::RX_STATUS_FIFO))
        .then(&discard.or(&consume))
}

/// `RecvError`: an RX interaction whose SPI exchanges time out — the FIFO
/// information read alone, or with a status read and a bounded run of data
/// words, any of them incomplete. No GPIO events anywhere. The app loop
/// always follows this with [`reinit`].
pub fn recv_error(opts: DriverOptions) -> TracePred {
    let status_and_data = lan_read_ft(opts, lan::RX_STATUS_FIFO)
        .then(&lan_read_ft(opts, lan::RX_DATA_FIFO).at_most(MAX_DATA_WORDS));
    lan_read_ft(opts, lan::RX_FIFO_INF)
        .then(&status_and_data.or(&TracePred::eps()))
        .named("recv_error")
}

/// `Reinit`: the `lan_recover` shape — drain the wire, then the bounded
/// bring-up retry chain.
pub fn reinit(opts: DriverOptions) -> TracePred {
    drain_reads().then(&init_retry_tail(opts)).named("reinit")
}

/// `goodHlTrace`: the complete top-level specification — §3.1 extended
/// with classified recoverable failures:
///
/// ```text
/// goodHlTrace :=
///   BootSeqRobust +++ ((EX b: bool, Recv b +++ LightbulbCmd b)
///                      ||| RecvInvalid ||| PollNone
///                      ||| (RecvError +++ Reinit)) ^*
/// ```
///
/// Every trace the clean §3.1 spec accepts is accepted here, and the
/// safety property is preserved verbatim: `LightbulbCmd b` still only
/// appears immediately after `Recv b` with the same `b`.
pub fn good_hl_trace(opts: DriverOptions) -> TracePred {
    let step = TracePred::ex_bool(move |b| recv(opts, b).then(&lightbulb_cmd(b)))
        .or(&recv_invalid(opts))
        .or(&poll_none(opts))
        .or(&recv_error(opts).then(&reinit(opts)));
    boot_seq_robust(opts).then(&step.star())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::{lightbulb_program, DriverOptions};
    use crate::ext::MmioBridge;
    use bedrock2::semantics::Interp;
    use devices::workload::{Malformation, TrafficGen};
    use devices::Board;
    use riscv_spec::{Memory, MmioEvent};

    fn run_system(opts: DriverOptions, frames: &[Vec<u8>], loops: usize) -> (Vec<MmioEvent>, bool) {
        run_faulted(opts, &devices::FaultPlan::none(), frames, loops)
    }

    fn run_faulted(
        opts: DriverOptions,
        plan: &devices::FaultPlan,
        frames: &[Vec<u8>],
        loops: usize,
    ) -> (Vec<MmioEvent>, bool) {
        let p = lightbulb_program(opts);
        let mut i = Interp::new(
            &p,
            Memory::with_size(0x1_0000),
            MmioBridge::new(Board::with_faults(devices::SpiConfig::default(), plan)),
        );
        let out = i
            .call("lightbulb_init", &[])
            .expect("lightbulb_init must run UB-free");
        if plan.is_none() {
            assert_eq!(out, vec![0], "clean init must succeed");
        }
        for f in frames {
            i.ext.dev.inject_frame(f);
        }
        for _ in 0..loops {
            i.call("lightbulb_loop", &[])
                .expect("lightbulb_loop must run UB-free");
        }
        let on = i.ext.dev.lightbulb_on();
        (i.ext.events, on)
    }

    #[test]
    fn boot_alone_matches() {
        let opts = DriverOptions::default();
        let (trace, _) = run_system(opts, &[], 0);
        assert!(
            boot_seq(opts).matches(&trace),
            "boot trace must match BootSeq"
        );
        assert!(good_hl_trace(opts).matches(&trace));
    }

    #[test]
    fn idle_polling_matches() {
        let opts = DriverOptions::default();
        let (trace, on) = run_system(opts, &[], 3);
        assert!(!on);
        assert!(good_hl_trace(opts).matches(&trace));
    }

    #[test]
    fn valid_command_matches_with_the_right_bit() {
        let opts = DriverOptions::default();
        let mut gen = TrafficGen::new(41);
        let (trace, on) = run_system(opts, &[gen.command(true)], 1);
        assert!(on);
        assert!(good_hl_trace(opts).matches(&trace));
    }

    #[test]
    fn malformed_traffic_matches_as_invalid() {
        let opts = DriverOptions::default();
        let mut gen = TrafficGen::new(43);
        let frames = vec![
            gen.malformed(Malformation::WrongPort),
            gen.malformed(Malformation::TooShort),
        ];
        let (trace, on) = run_system(opts, &frames, 2);
        assert!(!on);
        assert!(good_hl_trace(opts).matches(&trace));
    }

    #[test]
    fn spec_rejects_rogue_actuation() {
        // Take a legitimate boot+poll trace and append a GPIO write that no
        // received command justifies: the spec must refuse it.
        let opts = DriverOptions::default();
        let (mut trace, _) = run_system(opts, &[], 1);
        assert!(good_hl_trace(opts).matches(&trace));
        trace.push(MmioEvent::load(layout::GPIO_OUTPUT_VAL, 0));
        trace.push(MmioEvent::store(
            layout::GPIO_OUTPUT_VAL,
            layout::LIGHTBULB_MASK,
        ));
        assert!(
            !good_hl_trace(opts).matches(&trace),
            "actuation without a command must not match"
        );
        assert!(
            !good_hl_trace(opts).matches_prefix(&trace),
            "…not even as a prefix"
        );
    }

    #[test]
    fn spec_rejects_inverted_commands() {
        // Flip the GPIO write of a real "on" interaction to "off": the
        // EX-bound b no longer matches the received command byte.
        let opts = DriverOptions::default();
        let mut gen = TrafficGen::new(47);
        let (mut trace, on) = run_system(opts, &[gen.command(true)], 1);
        assert!(on);
        let last = trace.len() - 1;
        assert_eq!(trace[last].addr, layout::GPIO_OUTPUT_VAL);
        trace[last].value &= !layout::LIGHTBULB_MASK; // claim we switched off
        assert!(
            !good_hl_trace(opts).matches(&trace),
            "a trace actuating opposite to the command must not match"
        );
    }

    #[test]
    fn prefixes_of_good_traces_match_as_prefixes() {
        let opts = DriverOptions::default();
        let mut gen = TrafficGen::new(53);
        let (trace, _) = run_system(opts, &[gen.command(true)], 1);
        let spec = good_hl_trace(opts);
        // Sample a handful of prefix lengths including mid-interaction.
        for k in [
            1,
            trace.len() / 3,
            trace.len() / 2,
            trace.len() - 1,
            trace.len(),
        ] {
            assert!(spec.matches_prefix(&trace[..k]), "prefix of length {k}");
        }
    }

    #[test]
    fn delayed_readiness_recovery_is_classified_and_accepted() {
        // A hard BYTE_TEST fault (more junk reads than one poll budget)
        // forces at least one failed attempt; the retry then succeeds and a
        // command still switches the bulb. The whole trace, failure
        // included, must satisfy the extended spec — and boot_seq alone
        // must NOT accept it (it is genuinely a new trace class).
        let opts = DriverOptions::default();
        let plan = devices::FaultPlan {
            byte_test_junk_reads: 80,
            ..devices::FaultPlan::default()
        };
        let mut gen = TrafficGen::new(61);
        let (trace, on) = run_faulted(opts, &plan, &[gen.command(true)], 1);
        assert!(on, "the bulb must still switch after recovery");
        let spec = good_hl_trace(opts);
        assert!(spec.matches(&trace), "recovery trace must be accepted");
        assert!(
            !boot_seq(opts).matches_prefix(&trace),
            "the clean BootSeq must not absorb a failed attempt"
        );
        // Prefix closure holds on failure traces too.
        for k in [1, trace.len() / 4, trace.len() / 2, trace.len() - 1] {
            assert!(spec.matches_prefix(&trace[..k]), "prefix of length {k}");
        }
    }

    #[test]
    fn rx_stall_reinit_is_classified_and_accepted() {
        // An RX stall long enough to time an exchange out mid-run: the app
        // loop sees code 3, drains, re-inits, and a later command works.
        let opts = DriverOptions::default();
        // Index 400 lands after boot (~50 delivered bytes) and the first
        // command frame (~140 more), inside the later idle polling.
        let plan = devices::FaultPlan {
            rx_stalls: vec![(400, 300)],
            ..devices::FaultPlan::default()
        };
        let mut gen = TrafficGen::new(67);
        let p = lightbulb_program(opts);
        let mut i = Interp::new(
            &p,
            Memory::with_size(0x1_0000),
            MmioBridge::new(Board::with_faults(devices::SpiConfig::default(), &plan)),
        );
        assert_eq!(i.call("lightbulb_init", &[]).unwrap(), vec![0]);
        i.ext.dev.inject_frame(&gen.command(true));
        i.call("lightbulb_loop", &[]).unwrap();
        assert!(i.ext.dev.lightbulb_on());
        // Poll until the stall arms, then a few more loops so its whole
        // budget drains and recovery completes (one stalled status read
        // burns more than the budget). The bulb must hold its state
        // throughout.
        let mut polls = 0;
        while i.ext.dev.faults_injected() == 0 && polls < 120 {
            i.call("lightbulb_loop", &[]).unwrap();
            assert!(i.ext.dev.lightbulb_on(), "bulb must hold state");
            polls += 1;
        }
        for _ in 0..5 {
            i.call("lightbulb_loop", &[]).unwrap();
            assert!(i.ext.dev.lightbulb_on(), "bulb must hold state");
        }
        i.ext.dev.inject_frame(&gen.command(false));
        i.call("lightbulb_loop", &[]).unwrap();
        assert!(!i.ext.dev.lightbulb_on(), "post-recovery command works");
        assert!(i.ext.dev.faults_injected() > 0, "the stall really fired");
        assert!(good_hl_trace(opts).matches(&i.ext.events));
    }

    #[test]
    fn spec_rejects_rogue_actuation_after_recovery() {
        // Even inside a recovery-rich trace, an unjustified GPIO write must
        // not match — the failure predicates contain no GPIO events.
        let opts = DriverOptions::default();
        let plan = devices::FaultPlan {
            byte_test_junk_reads: 80,
            ..devices::FaultPlan::default()
        };
        let (mut trace, _) = run_faulted(opts, &plan, &[], 1);
        assert!(good_hl_trace(opts).matches(&trace));
        trace.push(MmioEvent::load(layout::GPIO_OUTPUT_VAL, 0));
        trace.push(MmioEvent::store(
            layout::GPIO_OUTPUT_VAL,
            layout::LIGHTBULB_MASK,
        ));
        assert!(!good_hl_trace(opts).matches(&trace));
        assert!(!good_hl_trace(opts).matches_prefix(&trace));
    }

    /// `t` with `n` copies of `e` inserted at `at`.
    fn spliced(t: &[MmioEvent], at: usize, e: MmioEvent, n: usize) -> Vec<MmioEvent> {
        let mut out = t.to_vec();
        out.splice(at..at, std::iter::repeat_n(e, n));
        out
    }

    #[test]
    fn a_flag_wait_past_its_poll_budget_is_refused_at_that_read() {
        // Busy reads spliced into the first TXDATA flag-wait of a clean
        // run: up to MAX_POLLS of them are a timeout poll the driver can
        // issue, one more is not, and the monitor must say so at exactly
        // that read.
        let opts = DriverOptions::default();
        let (trace, _) = run_system(opts, &[], 1);
        let busy = MmioEvent::load(layout::SPI_TXDATA, layout::SPI_FLAG);
        let wait = trace
            .iter()
            .position(|e| e.kind == riscv_spec::MmioEventKind::Load && e.addr == busy.addr)
            .expect("a TXDATA flag-wait");
        let already = trace[wait..].iter().take_while(|e| **e == busy).count();
        let spec = good_hl_trace(opts);
        let full = spliced(&trace, wait, busy, MAX_POLLS - already);
        assert_eq!(spec.longest_matching_prefix(&full), full.len());
        let over = spliced(&trace, wait, busy, MAX_POLLS + 1 - already);
        assert_eq!(spec.longest_matching_prefix(&over), wait + MAX_POLLS);
    }

    #[test]
    fn a_drain_past_its_budget_is_refused_at_that_read() {
        // The first `spi_drain` of a recovery run — the RXDATA reads
        // between a failed attempt's last chip-select release and the
        // next attempt's — padded with copies of its first read: up to
        // SPI_DRAIN_BUDGET + 1 reads are a drain the driver can issue, one
        // more is not, and `goodHlTrace` must say so at exactly that read.
        let opts = DriverOptions::default();
        let plan = devices::FaultPlan {
            byte_test_junk_reads: 80,
            ..devices::FaultPlan::default()
        };
        let (trace, _) = run_faulted(opts, &plan, &[], 0);
        let is_rx = |e: &MmioEvent| {
            e.kind == riscv_spec::MmioEventKind::Load && e.addr == layout::SPI_RXDATA
        };
        let start = trace
            .windows(2)
            .position(|w| w[0].addr == layout::SPI_CSMODE && w[0].value & 1 == 0 && is_rx(&w[1]))
            .expect("a drain after a failed attempt")
            + 1;
        let len = trace[start..].iter().take_while(|e| is_rx(e)).count();
        let budget = layout::SPI_DRAIN_BUDGET as usize + 1;
        let spec = good_hl_trace(opts);
        let full = spliced(&trace, start, trace[start], budget - len);
        assert_eq!(spec.longest_matching_prefix(&full), full.len());
        let over = spliced(&trace, start, trace[start], budget + 1 - len);
        assert_eq!(spec.longest_matching_prefix(&over), start + budget);
    }

    #[test]
    fn pipelined_configuration_has_its_own_matching_spec() {
        let opts = DriverOptions {
            timeouts: true,
            pipelined_spi: true,
        };
        let mut gen = TrafficGen::new(59);
        let (trace, on) = run_system(opts, &[gen.command(true)], 1);
        assert!(on);
        assert!(good_hl_trace(opts).matches(&trace));
        // And the interleaved spec must NOT accept the pipelined trace.
        assert!(!good_hl_trace(DriverOptions::default()).matches(&trace));
    }
}
