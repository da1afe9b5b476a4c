//! The board: all peripherals behind one MMIO handler.
//!
//! Base addresses replicate the FE310 memory map the paper's stack used
//! (§5.1): GPIO at `0x1001_2000`, SPI1 at `0x1002_4000`. The [`Board`]
//! plugs into every machine model in the workspace — the `riscv-spec`
//! machine, both processor models, and (via the `lightbulb` crate's
//! bridge) the Bedrock2 interpreter — which is what lets one device model
//! stand behind every layer's testing.

use crate::faults::FaultPlan;
use crate::gpio::Gpio;
use crate::lan9250::Lan9250;
use crate::spi::{Spi, SpiConfig};
use obs::Counters;
use riscv_spec::{AccessSize, MmioHandler};

/// Base address of the GPIO block.
pub const GPIO_BASE: u32 = 0x1001_2000;
/// Base address of the SPI controller.
pub const SPI_BASE: u32 = 0x1002_4000;
/// Size of each peripheral's MMIO window.
pub const WINDOW: u32 = 0x1000;

/// The lightbulb platform: SPI-attached LAN9250 plus GPIO.
#[derive(Clone, Debug)]
pub struct Board {
    /// SPI controller with the Ethernet controller behind it.
    pub spi: Spi<Lan9250>,
    /// The GPIO block driving the lightbulb.
    pub gpio: Gpio,
    /// Total device ticks elapsed.
    pub ticks: u64,
}

impl Default for Board {
    fn default() -> Board {
        Board::new(SpiConfig::default())
    }
}

impl Board {
    /// A freshly powered-on board.
    pub fn new(spi_config: SpiConfig) -> Board {
        Board::with_faults(spi_config, &FaultPlan::none())
    }

    /// A board whose devices misbehave according to `plan`: the wire-level
    /// faults go to the SPI controller, the chip-level ones to the LAN9250.
    /// With [`FaultPlan::none`] this is exactly [`Board::new`].
    pub fn with_faults(spi_config: SpiConfig, plan: &FaultPlan) -> Board {
        Board {
            spi: Spi::with_faults(Lan9250::with_faults(plan), spi_config, plan),
            gpio: Gpio::new(),
            ticks: 0,
        }
    }

    /// Fault events actually injected so far, across both device layers.
    pub fn faults_injected(&self) -> u64 {
        self.spi.faults_injected() + self.spi.slave.faults_injected()
    }

    /// Queues an Ethernet frame at the network interface.
    pub fn inject_frame(&mut self, frame: &[u8]) {
        self.spi.slave.inject_frame(frame);
    }

    /// Whether the lightbulb is currently on.
    pub fn lightbulb_on(&self) -> bool {
        self.gpio.lightbulb_on()
    }

    /// The MMIO address ranges this board claims, for specifications and
    /// replay handlers.
    pub fn mmio_ranges() -> [(u32, u32); 2] {
        [
            (GPIO_BASE, GPIO_BASE + WINDOW),
            (SPI_BASE, SPI_BASE + WINDOW),
        ]
    }

    /// Exports the board's activity as `board.*` named counters.
    pub fn counters(&self) -> Counters {
        let mut c = Counters::new();
        c.set("board.ticks", self.ticks);
        c.set("board.spi.bytes_tx", self.spi.stats.bytes_tx);
        c.set("board.spi.bytes_rx", self.spi.stats.bytes_rx);
        c.set("board.spi.bytes_dropped", self.spi.stats.bytes_dropped);
        c.set("board.spi.busy_ticks", self.spi.stats.busy_ticks);
        c.set(
            "board.lan9250.frames_delivered",
            self.spi.slave.frames_delivered,
        );
        c.set(
            "board.lan9250.frames_discarded",
            self.spi.slave.frames_discarded,
        );
        c.set(
            "board.lan9250.frames_pending",
            self.spi.slave.frames_pending() as u64,
        );
        c.set("devices.faults.injected", self.faults_injected());
        c
    }

    /// True when `addr` is inside one of the board's windows.
    #[inline]
    pub fn claims(addr: u32) -> bool {
        Board::mmio_ranges()
            .iter()
            .any(|(lo, hi)| (*lo..*hi).contains(&addr))
    }
}

impl MmioHandler for Board {
    #[inline]
    fn is_mmio(&self, addr: u32, _size: AccessSize) -> bool {
        Board::claims(addr)
    }

    fn load(&mut self, addr: u32, _size: AccessSize) -> u32 {
        if (GPIO_BASE..GPIO_BASE + WINDOW).contains(&addr) {
            self.gpio.read(addr - GPIO_BASE)
        } else if (SPI_BASE..SPI_BASE + WINDOW).contains(&addr) {
            self.spi.read(addr - SPI_BASE)
        } else {
            0
        }
    }

    fn store(&mut self, addr: u32, _size: AccessSize, value: u32) {
        if (GPIO_BASE..GPIO_BASE + WINDOW).contains(&addr) {
            self.gpio.write(addr - GPIO_BASE, value);
        } else if (SPI_BASE..SPI_BASE + WINDOW).contains(&addr) {
            self.spi.write(addr - SPI_BASE, value);
        }
    }

    fn tick(&mut self) {
        self.ticks += 1;
        self.spi.tick();
    }

    fn tick_n(&mut self, n: u64) {
        self.ticks += n;
        self.spi.tick_n(n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gpio;
    use crate::spi;

    #[test]
    fn routing_reaches_both_devices() {
        let mut b = Board::default();
        b.store(GPIO_BASE + gpio::OUTPUT_EN, AccessSize::Word, 2);
        b.store(GPIO_BASE + gpio::OUTPUT_VAL, AccessSize::Word, 2);
        assert!(b.lightbulb_on());
        assert_eq!(b.load(SPI_BASE + spi::RXDATA, AccessSize::Word), spi::FLAG);
    }

    #[test]
    fn claims_exactly_the_windows() {
        assert!(Board::claims(GPIO_BASE));
        assert!(Board::claims(SPI_BASE + 0xFFF));
        assert!(!Board::claims(SPI_BASE + 0x1000));
        assert!(!Board::claims(0));
        assert!(!Board::claims(0x2000_0000));
    }

    #[test]
    fn spi_transfer_end_to_end_through_the_bus() {
        let mut b = Board::default();
        for _ in 0..32 {
            b.tick(); // LAN9250 power-up
        }
        // Read BYTE_TEST through SPI MMIO, byte by byte.
        b.store(SPI_BASE + spi::CSMODE, AccessSize::Word, 1);
        let mut xchg = |byte: u8| -> u8 {
            b.store(SPI_BASE + spi::TXDATA, AccessSize::Word, byte as u32);
            loop {
                b.tick();
                let v = b.load(SPI_BASE + spi::RXDATA, AccessSize::Word);
                if v & spi::FLAG == 0 {
                    return v as u8;
                }
            }
        };
        xchg(0x03);
        xchg(0x00);
        xchg(0x64);
        let mut v = 0u32;
        for lane in 0..4 {
            v |= (xchg(0) as u32) << (8 * lane);
        }
        b.store(SPI_BASE + spi::CSMODE, AccessSize::Word, 0);
        assert_eq!(v, crate::lan9250::BYTE_TEST_MAGIC);
    }
}
