//! The architectural register file and the scoreboard interlock.

/// A 32-entry register file with the `x0 = 0` convention enforced at both
/// read and write ports.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RegFile {
    regs: [u32; 32],
}

impl Default for RegFile {
    fn default() -> RegFile {
        RegFile::new()
    }
}

impl RegFile {
    /// All-zero register file (the reset state).
    pub fn new() -> RegFile {
        RegFile { regs: [0; 32] }
    }

    /// Read port.
    ///
    /// # Panics
    ///
    /// Panics if `r >= 32`.
    #[inline]
    pub fn read(&self, r: u8) -> u32 {
        assert!(r < 32);
        if r == 0 {
            0
        } else {
            self.regs[r as usize]
        }
    }

    /// Write port; writes to `x0` are discarded.
    ///
    /// # Panics
    ///
    /// Panics if `r >= 32`.
    #[inline]
    pub fn write(&mut self, r: u8, v: u32) {
        assert!(r < 32);
        if r != 0 {
            self.regs[r as usize] = v;
        }
    }

    /// Snapshot of all registers (index 0 reads as zero).
    pub fn snapshot(&self) -> [u32; 32] {
        self.regs
    }
}

/// Per-register busy bits: a register is busy from the cycle an
/// instruction writing it is dispatched until that instruction writes
/// back. The decode stage stalls on busy sources or destinations, the
/// classic in-order interlock of the Kami processor (`sbFlags`).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Scoreboard {
    busy: [bool; 32],
}

impl Scoreboard {
    /// All-clear scoreboard.
    pub fn new() -> Scoreboard {
        Scoreboard::default()
    }

    /// True when `r` has an in-flight writer. `x0` is never busy (it has
    /// no real writers).
    #[inline]
    pub fn is_busy(&self, r: u8) -> bool {
        r != 0 && self.busy[r as usize]
    }

    /// Marks `r` busy at dispatch; marking `x0` is a no-op.
    #[inline]
    pub fn set_busy(&mut self, r: u8) {
        if r != 0 {
            self.busy[r as usize] = true;
        }
    }

    /// Clears `r` at write-back.
    #[inline]
    pub fn clear(&mut self, r: u8) {
        self.busy[r as usize] = false;
    }

    /// True when no register is busy (pipeline drained).
    pub fn all_clear(&self) -> bool {
        !self.busy.iter().any(|b| *b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn x0_reads_zero_and_ignores_writes() {
        let mut rf = RegFile::new();
        rf.write(0, 99);
        assert_eq!(rf.read(0), 0);
        rf.write(5, 42);
        assert_eq!(rf.read(5), 42);
    }

    #[test]
    fn scoreboard_tracks_busy() {
        let mut sb = Scoreboard::new();
        assert!(sb.all_clear());
        sb.set_busy(7);
        assert!(sb.is_busy(7));
        assert!(!sb.is_busy(8));
        sb.clear(7);
        assert!(sb.all_clear());
    }

    #[test]
    fn x0_is_never_busy() {
        let mut sb = Scoreboard::new();
        sb.set_busy(0);
        assert!(!sb.is_busy(0));
        assert!(sb.all_clear());
    }

    #[test]
    #[should_panic]
    fn out_of_range_read_panics() {
        RegFile::new().read(32);
    }
}
