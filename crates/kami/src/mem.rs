//! A word-addressed memory port with byte enables.
//!
//! The baseline Kami processor only supported word accesses; supporting
//! `lb`/`sb` required adding byte-enable signals to the memory interface
//! (§5.5). [`BeMemory`] is that interface: every access names a word
//! address and a 4-bit byte-enable mask. The hardware models perform only
//! such accesses; narrower architectural accesses are realized by masks and
//! shifts in the datapath, exactly as in RTL.

/// Word-addressed memory with byte-enable writes. Addresses wrap modulo the
/// memory size (hardware has no notion of "out of bounds"; the *software*
/// contract's undefined behavior shows up as wrapping here, §5.8).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BeMemory {
    words: Vec<u32>,
}

impl BeMemory {
    /// Zero-initialized memory of `bytes` bytes (rounded up to a word).
    pub fn with_size(bytes: u32) -> BeMemory {
        BeMemory {
            words: vec![0; (bytes as usize).div_ceil(4)],
        }
    }

    /// Memory initialized from a byte image.
    pub fn from_image(image: &[u8], bytes: u32) -> BeMemory {
        let mut m = BeMemory::with_size(bytes);
        for (i, b) in image.iter().enumerate() {
            let w = i / 4;
            let sh = (i % 4) * 8;
            m.words[w] = (m.words[w] & !(0xFF << sh)) | ((*b as u32) << sh);
        }
        m
    }

    /// Size in bytes.
    pub fn size(&self) -> u32 {
        (self.words.len() * 4) as u32
    }

    #[inline]
    fn index(&self, addr: u32) -> usize {
        // Word address, wrapping modulo the memory size: high address bits
        // are simply ignored, as in the Kami model (§5.8).
        ((addr as usize) / 4) % self.words.len()
    }

    /// Reads the word containing byte address `addr` (low 2 bits ignored).
    #[inline]
    pub fn read(&self, addr: u32) -> u32 {
        self.words[self.index(addr)]
    }

    /// Writes the bytes of `value` selected by the 4-bit `byte_enable`
    /// mask into the word containing `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `byte_enable` has bits above the low 4 set.
    #[inline]
    pub fn write(&mut self, addr: u32, value: u32, byte_enable: u8) {
        assert!(byte_enable <= 0xF, "byte enable is a 4-bit mask");
        let i = self.index(addr);
        let mut w = self.words[i];
        for lane in 0..4 {
            if byte_enable >> lane & 1 == 1 {
                let sh = lane * 8;
                w = (w & !(0xFF << sh)) | (value & (0xFF << sh));
            }
        }
        self.words[i] = w;
    }

    /// The full contents as bytes (little-endian), for end-of-run
    /// comparison against other machine models.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.words.len() * 4);
        for w in &self.words {
            out.extend_from_slice(&w.to_le_bytes());
        }
        out
    }

    /// A snapshot of the raw words (used by the instruction cache's eager
    /// reset-time fill, §5.5).
    pub fn words(&self) -> &[u32] {
        &self.words
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_enables_select_lanes() {
        let mut m = BeMemory::with_size(16);
        m.write(0, 0xAABB_CCDD, 0b1111);
        assert_eq!(m.read(0), 0xAABB_CCDD);
        m.write(0, 0x0000_00EE, 0b0001);
        assert_eq!(m.read(0), 0xAABB_CCEE);
        m.write(0, 0x1122_0000, 0b1100);
        assert_eq!(m.read(0), 0x1122_CCEE);
    }

    #[test]
    fn addresses_wrap() {
        let mut m = BeMemory::with_size(16);
        m.write(4, 7, 0xF);
        assert_eq!(m.read(4 + 16), 7, "high address bits are ignored");
        assert_eq!(m.read(5), 7, "low 2 bits are ignored");
    }

    #[test]
    fn image_round_trips() {
        let img = [1u8, 2, 3, 4, 5];
        let m = BeMemory::from_image(&img, 8);
        assert_eq!(m.read(0), 0x0403_0201);
        assert_eq!(m.read(4), 0x0000_0005);
        assert_eq!(&m.to_bytes()[..5], &img);
    }

    #[test]
    #[should_panic(expected = "4-bit mask")]
    fn oversized_byte_enable_panics() {
        BeMemory::with_size(4).write(0, 0, 0x1F);
    }
}
