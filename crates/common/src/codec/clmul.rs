//! The carry-less-multiply CRC-32 kernel for x86-64 CPUs with
//! `pclmulqdq` (Gopal et al., "Fast CRC Computation for Generic
//! Polynomials Using PCLMULQDQ Instruction", Intel, 2009), through
//! `std::arch`. It computes the register [`super::Crc32`] keeps, for the
//! same reflected IEEE polynomial as the slice-by-8 tables, which stay
//! the portable kernel and the reference. This module holds the crate's
//! only `unsafe` code.
//!
//! A 128-bit register `x` stands for the message still to be reduced.
//! Folding moves it `d` bits forward as
//! `x.lo · (x^(d+32) mod P) ⊕ x.hi · (x^(d−32) mod P)`, XORed onto the
//! block at that distance. At the end one multiply takes 128 bits to
//! 64, one more to 32, and a Barrett reduction gives the register.
//! Every constant is bit-reflected like the data and shifted left one;
//! a test derives each from the polynomial.

#![allow(unsafe_code)]

use std::arch::x86_64::{
    __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi128_si32, _mm_cvtsi32_si128,
    _mm_loadu_si128, _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
};

/// Shortest input [`super::Crc32::update`] hands the kernel. Below it
/// the two kernels tie (measured on a 2-vCPU x86-64 Xeon guest): the
/// final reduction costs about what it saves, and up to 15 leading bytes
/// go through the tables anyway. Begin and commit record bodies are 21
/// bytes and stay on the tables; update bodies, about 60 bytes, gain
/// about 2×, a 1 KiB page about 12×.
pub(super) const MIN_LEN: usize = 32;

/// Fold across 64 bytes, four lanes apart: x^(4·128+32) and
/// x^(4·128−32) mod P.
pub(super) const K1: i64 = 0x1_5444_2bd4;
pub(super) const K2: i64 = 0x1_c6e4_1596;
/// Fold across 16 bytes: x^(128+32) and x^(128−32) mod P.
pub(super) const K3: i64 = 0x1_7519_97d0;
pub(super) const K4: i64 = 0x0_ccaa_009e;
/// From 64 bits to 32: x^64 mod P.
pub(super) const K5: i64 = 0x1_63cd_6124;
/// Barrett reduction: P itself and μ = x^64 div P.
pub(super) const P: i64 = 0x1_db71_0641;
pub(super) const MU: i64 = 0x1_f701_1641;

#[cfg(test)]
thread_local! {
    /// Inputs the kernel folded on this thread.
    pub(super) static CALLS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// `data` folded into the register `crc` by the kernel, for any length;
/// `None` on a CPU without `pclmulqdq`.
pub(super) fn update(crc: u32, data: &[u8]) -> Option<u32> {
    if !std::is_x86_feature_detected!("pclmulqdq") {
        return None;
    }
    #[cfg(test)]
    CALLS.with(|n| n.set(n.get() + 1));
    // SAFETY: the CPU has `pclmulqdq`, checked just above.
    Some(unsafe { fold_all(crc, data) })
}

/// A 16-byte block, loaded little-endian.
#[inline(always)]
fn load(block: &[u8]) -> __m128i {
    let block: &[u8; 16] = block.try_into().expect("a 16-byte block");
    // SAFETY: `block` is 16 readable bytes, and the unaligned load asks
    // nothing of their alignment.
    unsafe { _mm_loadu_si128(block.as_ptr().cast()) }
}

/// `x` folded onto `block` with the distance constants `k`.
///
/// # Safety
///
/// The CPU must have `pclmulqdq`.
#[target_feature(enable = "pclmulqdq")]
#[inline]
unsafe fn fold(x: __m128i, block: __m128i, k: __m128i) -> __m128i {
    let lo = _mm_clmulepi64_si128(x, k, 0x00);
    let hi = _mm_clmulepi64_si128(x, k, 0x11);
    _mm_xor_si128(_mm_xor_si128(block, lo), hi)
}

/// [`update`] once the CPU is known to have the instruction.
///
/// # Safety
///
/// The CPU must have `pclmulqdq`.
#[target_feature(enable = "pclmulqdq")]
unsafe fn fold_all(crc: u32, data: &[u8]) -> u32 {
    if data.len() < 16 {
        return super::update_tables(crc, data);
    }
    // The bytes in front of the last whole blocks go through the tables;
    // the register then XORs into the first block's first four bytes.
    let lead = data.len() % 16;
    let crc = super::update_tables(crc, &data[..lead]);
    let data = &data[lead..];
    let mut x = _mm_xor_si128(load(&data[..16]), _mm_cvtsi32_si128(crc as i32));
    let mut rest = &data[16..];

    let k3k4 = _mm_set_epi64x(K4, K3);
    if rest.len() >= 48 {
        // Four independent lanes keep the multiplier busy.
        let k1k2 = _mm_set_epi64x(K2, K1);
        let mut lanes = [
            x,
            load(&rest[..16]),
            load(&rest[16..32]),
            load(&rest[32..48]),
        ];
        let mut quads = rest[48..].chunks_exact(64);
        for q in &mut quads {
            for (lane, b) in lanes.iter_mut().zip(q.chunks_exact(16)) {
                *lane = fold(*lane, load(b), k1k2);
            }
        }
        rest = quads.remainder();
        x = lanes[0];
        for &lane in &lanes[1..] {
            x = fold(x, lane, k3k4);
        }
    }
    for b in rest.chunks_exact(16) {
        x = fold(x, load(b), k3k4);
    }

    let low32 = _mm_set_epi32(0, 0, 0, -1);
    // 128 bits to 96, then to 64.
    let x = _mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x10), _mm_srli_si128(x, 8));
    let x = _mm_xor_si128(
        _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5), 0x00),
        _mm_srli_si128(x, 4),
    );
    // Barrett: the register is the upper half of x ⊕ ⌊x·μ⌋·P.
    let pmu = _mm_set_epi64x(MU, P);
    let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low32), pmu, 0x10);
    let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), pmu, 0x00);
    _mm_cvtsi128_si32(_mm_srli_si128(_mm_xor_si128(x, t2), 4)) as u32
}
