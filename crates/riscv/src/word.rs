//! Operations on 32-bit machine words.
//!
//! All arithmetic in the ISA (and in the Bedrock2 source language, which
//! shares the machine's word type — the *bitwidth* parameter of Table 2 in
//! the paper) is modular arithmetic on `u32`, with signed views where an
//! instruction calls for them. These helpers centralize the places where
//! signedness and the RISC-V division convention matter.

/// Sign-extend the low `bits` bits of `value` to a full 32-bit word.
///
/// # Panics
///
/// Panics if `bits` is 0 or greater than 32.
///
/// # Examples
///
/// ```
/// use riscv_spec::word::sign_extend;
/// assert_eq!(sign_extend(0xFFF, 12), 0xFFFF_FFFF);
/// assert_eq!(sign_extend(0x7FF, 12), 0x7FF);
/// ```
#[inline]
pub fn sign_extend(value: u32, bits: u32) -> u32 {
    assert!((1..=32).contains(&bits), "bit width out of range: {bits}");
    if bits == 32 {
        return value;
    }
    let shift = 32 - bits;
    (((value << shift) as i32) >> shift) as u32
}

/// Sign-extend a byte loaded from memory (`lb`).
#[inline]
pub fn sext8(v: u32) -> u32 {
    v as u8 as i8 as i32 as u32
}

/// Sign-extend a halfword loaded from memory (`lh`).
#[inline]
pub fn sext16(v: u32) -> u32 {
    v as u16 as i16 as i32 as u32
}

/// Signed less-than, as used by `slt`, `slti`, `blt`, and `bge`.
#[inline]
pub fn lts(a: u32, b: u32) -> bool {
    (a as i32) < (b as i32)
}

/// Unsigned less-than, as used by `sltu`, `sltiu`, `bltu`, and `bgeu`.
#[inline]
pub fn ltu(a: u32, b: u32) -> bool {
    a < b
}

/// Arithmetic (sign-propagating) right shift; only the low 5 bits of the
/// shift amount are used, as RISC-V specifies.
#[inline]
pub fn sra(a: u32, shamt: u32) -> u32 {
    ((a as i32) >> (shamt & 31)) as u32
}

/// Logical right shift; only the low 5 bits of the shift amount are used.
#[inline]
pub fn srl(a: u32, shamt: u32) -> u32 {
    a >> (shamt & 31)
}

/// Left shift; only the low 5 bits of the shift amount are used.
#[inline]
pub fn sll(a: u32, shamt: u32) -> u32 {
    a << (shamt & 31)
}

/// Upper 32 bits of the signed×signed 64-bit product (`mulh`).
#[inline]
pub fn mulh(a: u32, b: u32) -> u32 {
    (((a as i32 as i64) * (b as i32 as i64)) >> 32) as u32
}

/// Upper 32 bits of the signed×unsigned 64-bit product (`mulhsu`).
#[inline]
pub fn mulhsu(a: u32, b: u32) -> u32 {
    (((a as i32 as i64) * (b as u64 as i64)) >> 32) as u32
}

/// Upper 32 bits of the unsigned×unsigned 64-bit product (`mulhu`).
#[inline]
pub fn mulhu(a: u32, b: u32) -> u32 {
    (((a as u64) * (b as u64)) >> 32) as u32
}

/// Signed division with the RISC-V conventions: division by zero yields
/// `-1`, and the overflowing case `i32::MIN / -1` yields `i32::MIN`.
///
/// Note that Bedrock2's source semantics leave division by zero
/// *unspecified* while its compiler assumes the RISC-V result (footnote 3 of
/// the paper); this function is that concrete RISC-V result.
#[inline]
pub fn div(a: u32, b: u32) -> u32 {
    let (a, b) = (a as i32, b as i32);
    if b == 0 {
        u32::MAX
    } else if a == i32::MIN && b == -1 {
        i32::MIN as u32
    } else {
        (a / b) as u32
    }
}

/// Unsigned division; division by zero yields all-ones.
#[inline]
pub fn divu(a: u32, b: u32) -> u32 {
    a.checked_div(b).unwrap_or(u32::MAX)
}

/// Signed remainder with the RISC-V conventions: remainder by zero yields
/// the dividend, and `i32::MIN rem -1` yields 0.
#[inline]
pub fn rem(a: u32, b: u32) -> u32 {
    let (a, b) = (a as i32, b as i32);
    if b == 0 {
        a as u32
    } else if a == i32::MIN && b == -1 {
        0
    } else {
        (a % b) as u32
    }
}

/// Unsigned remainder; remainder by zero yields the dividend.
#[inline]
pub fn remu(a: u32, b: u32) -> u32 {
    a.checked_rem(b).unwrap_or(a)
}

/// True when `addr` is a multiple of `align` (which must be a power of two).
#[inline]
pub fn is_aligned(addr: u32, align: u32) -> bool {
    debug_assert!(align.is_power_of_two());
    addr & (align - 1) == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sign_extend_widths() {
        assert_eq!(sign_extend(0b1, 1), u32::MAX);
        assert_eq!(sign_extend(0b0, 1), 0);
        assert_eq!(sign_extend(0x800, 12), 0xFFFF_F800);
        assert_eq!(sign_extend(0x8_0000, 20), 0xFFF8_0000);
        assert_eq!(sign_extend(0x7_FFFF, 20), 0x7_FFFF);
        assert_eq!(sign_extend(0xDEAD_BEEF, 32), 0xDEAD_BEEF);
    }

    #[test]
    #[should_panic(expected = "bit width out of range")]
    fn sign_extend_zero_width_panics() {
        sign_extend(0, 0);
    }

    #[test]
    fn byte_and_half_extension() {
        assert_eq!(sext8(0x80), 0xFFFF_FF80);
        assert_eq!(sext8(0x7F), 0x7F);
        assert_eq!(sext16(0x8000), 0xFFFF_8000);
        assert_eq!(sext16(0x7FFF), 0x7FFF);
    }

    #[test]
    fn comparisons() {
        assert!(lts(u32::MAX, 0)); // -1 < 0 signed
        assert!(!ltu(u32::MAX, 0)); // max !< 0 unsigned
        assert!(ltu(0, 1));
        assert!(lts(0x8000_0000, 0x7FFF_FFFF)); // INT_MIN < INT_MAX
    }

    #[test]
    fn shifts_mask_amount() {
        assert_eq!(sll(1, 33), 2); // shamt masked to 1
        assert_eq!(srl(4, 33), 2);
        assert_eq!(sra(0x8000_0000, 31), u32::MAX);
        assert_eq!(sra(0x8000_0000, 63), u32::MAX); // masked to 31
    }

    #[test]
    fn mul_upper_halves() {
        assert_eq!(mulhu(u32::MAX, u32::MAX), 0xFFFF_FFFE);
        assert_eq!(mulh(u32::MAX, u32::MAX), 0); // (-1)*(-1)=1, high 0
        assert_eq!(mulh(0x8000_0000, 2), u32::MAX); // INT_MIN*2 = -2^32
        assert_eq!(mulhsu(u32::MAX, 2), u32::MAX); // -1 * 2 = -2, high = -1
    }

    #[test]
    fn riscv_division_conventions() {
        assert_eq!(div(7, 0), u32::MAX);
        assert_eq!(divu(7, 0), u32::MAX);
        assert_eq!(rem(7, 0), 7);
        assert_eq!(remu(7, 0), 7);
        assert_eq!(div(i32::MIN as u32, u32::MAX), i32::MIN as u32);
        assert_eq!(rem(i32::MIN as u32, u32::MAX), 0);
        assert_eq!(div(u32::MAX, 2), 0); // -1 / 2 = 0 signed
        assert_eq!(divu(u32::MAX, 2), 0x7FFF_FFFF);
        assert_eq!(rem((-7i32) as u32, 3), (-1i32) as u32);
    }

    #[test]
    fn alignment() {
        assert!(is_aligned(0, 4));
        assert!(is_aligned(8, 4));
        assert!(!is_aligned(2, 4));
        assert!(is_aligned(2, 2));
        assert!(is_aligned(1, 1));
    }
}
