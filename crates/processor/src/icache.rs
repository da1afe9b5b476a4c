//! The eagerly-filled instruction cache (§5.5, §5.6).
//!
//! At reset the entire BRAM contents are copied into the cache ("we added
//! logic to fetch instructions eagerly from main memory into an
//! interface-compatible instruction cache … upon reset"). The cache does
//! **not** observe later stores — that is the stale-instruction hazard the
//! XAddrs software discipline exists for. `fence.i` refills it.
//!
//! Alongside each cached word the simulation keeps its decoded
//! [`Instruction`], computed whenever the word is filled, so the pipeline's
//! decode stage reads operands instead of re-decoding every cycle. The
//! decoded table is a pure function of the cached words — filled at reset,
//! re-decoded on every refill — so it is invisible to every observer and
//! inherits the cache's staleness exactly.

use kami::BeMemory;
use riscv_spec::{decode, Instruction};

/// A full-image instruction cache.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ICache {
    words: Vec<u32>,
    /// `decode(words[i])` for every slot.
    insts: Vec<Instruction>,
    /// Number of refills performed (1 at reset, +1 per `fence.i`).
    pub fills: u64,
}

impl ICache {
    /// Reset-time eager fill from RAM.
    pub fn fill(ram: &BeMemory) -> ICache {
        let words = ram.words().to_vec();
        let insts = words.iter().map(|&w| decode(w)).collect();
        ICache {
            words,
            insts,
            fills: 1,
        }
    }

    fn slot(&self, pc: u32) -> usize {
        ((pc as usize) / 4) % self.words.len()
    }

    /// Fetches the instruction word at `pc` (low bits and high bits masked,
    /// like the backing BRAM).
    pub fn fetch(&self, pc: u32) -> u32 {
        self.words[self.slot(pc)]
    }

    /// The decoded form of [`ICache::fetch`]'s word.
    pub fn fetch_decoded(&self, pc: u32) -> Instruction {
        self.insts[self.slot(pc)]
    }

    /// `fence.i`: resynchronize with RAM, re-decoding every changed word.
    pub fn refill(&mut self, ram: &BeMemory) {
        for ((word, inst), &new) in self.words.iter_mut().zip(&mut self.insts).zip(ram.words()) {
            if *word != new {
                *word = new;
                *inst = decode(new);
            }
        }
        self.fills += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_does_not_observe_stores() {
        let mut ram = BeMemory::with_size(16);
        ram.write(0, 0x11, 0xF);
        let mut ic = ICache::fill(&ram);
        assert_eq!(ic.fetch(0), 0x11);
        ram.write(0, 0x22, 0xF);
        assert_eq!(ic.fetch(0), 0x11, "stale by design until fence.i");
        ic.refill(&ram);
        assert_eq!(ic.fetch(0), 0x22);
        assert_eq!(ic.fills, 2);
    }

    #[test]
    fn decoded_slots_follow_the_cached_words() {
        use riscv_spec::{encode, Reg};
        let old = Instruction::Addi {
            rd: Reg::X5,
            rs1: Reg::X0,
            imm: 7,
        };
        let new = Instruction::Addi {
            rd: Reg::X5,
            rs1: Reg::X0,
            imm: 9,
        };
        let mut ram = BeMemory::with_size(16);
        ram.write(8, encode(&old), 0xF);
        let mut ic = ICache::fill(&ram);
        assert_eq!(ic.fetch_decoded(8), old);
        ram.write(8, encode(&new), 0xF);
        assert_eq!(ic.fetch_decoded(8), old, "stale until fence.i");
        ic.refill(&ram);
        assert_eq!(ic.fetch_decoded(8), new);
        assert_eq!(ic.fetch_decoded(8 + 16), new);
    }

    #[test]
    fn fetch_masks_address_bits() {
        let mut ram = BeMemory::with_size(16);
        ram.write(4, 0xAB, 0xF);
        let ic = ICache::fill(&ram);
        assert_eq!(ic.fetch(4), 0xAB);
        assert_eq!(ic.fetch(5), 0xAB);
        assert_eq!(ic.fetch(4 + 16), 0xAB);
    }
}
