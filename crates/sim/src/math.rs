//! The samplers' elementary functions: branch-free `ln`, `cos(2π·u)` and
//! `exp` kernels in pure Rust.
//!
//! Every per-request draw the engine makes (exponential inter-arrival and
//! think times, the Box–Muller lognormal demand, the geometric burst, the
//! per-interval jitter) goes through these three functions instead of the
//! host's libm. Two things follow:
//!
//! * **Host independence.** The kernels use only `+ − × ÷`, `sqrt` and
//!   bit manipulation — no data-dependent branches, no fused multiply-add,
//!   no `unsafe`, no target features — so their bits are fixed by IEEE-754
//!   round-to-nearest alone, whatever libm, OS or vector width the host
//!   has. The simulation digests no longer depend on which libm the binary
//!   links.
//! * **Speed.** Each kernel inlines into its call site, and the engine's
//!   lookahead fills (standard exponentials, `LcWorkload`'s staged demand
//!   fill) run them over whole chunks, which LLVM is free to vectorize.
//!
//! Each kernel is specialised to its call sites' domain (see the function
//! docs); outside it the result is unspecified rather than checked.
//!
//! The polynomial coefficients are the published minimax sets of fdlibm
//! (Sun Microsystems, 1993; `e_log.c`, `e_exp.c`, `k_cos.c`, `k_sin.c`,
//! as carried by FreeBSD msun and musl), copied with their hex bit
//! patterns; a unit test checks every decimal literal against its hex.

// The decimal literals are fdlibm's, verbatim (21 significant digits).
#![allow(clippy::excessive_precision)]

/// `1.5 · 2⁵²`: for `|x| < 2⁵¹`, `(x + SHIFT) − SHIFT` is `x` rounded to
/// the nearest integer (ties to even), and the low mantissa bits of
/// `x + SHIFT` hold that integer.
const SHIFT: f64 = 6_755_399_441_055_744.0;

/// `ln 2` split so `k · LN2_HI` is exact for `|k| < 2¹¹`
/// (fdlibm `ln2_hi`/`ln2_lo`: 0x3fe62e42_fee00000, 0x3dea39ef_35793c76).
const LN2_HI: f64 = 6.931_471_803_691_238_164_90e-01;
const LN2_LO: f64 = 1.908_214_929_270_587_700_02e-10;
/// `1 / ln 2` (fdlibm `invln2`: 0x3ff71547_652b82fe).
const INV_LN2: f64 = std::f64::consts::LOG2_E;

// fdlibm e_log.c: ln(1+f) = f − f²/2 + s·(f²/2 + R(s²)), s = f/(2+f).
const LG1: f64 = 6.666_666_666_666_735_130e-01; // 3FE55555 55555593
const LG2: f64 = 3.999_999_999_940_941_908e-01; // 3FD99999 9997FA04
const LG3: f64 = 2.857_142_874_366_239_149e-01; // 3FD24924 94229359
const LG4: f64 = 2.222_219_843_214_978_396e-01; // 3FCC71C5 1D8E78AF
const LG5: f64 = 1.818_357_216_161_805_012e-01; // 3FC74664 96CB03DE
const LG6: f64 = 1.531_383_769_920_937_332e-01; // 3FC39A09 D078C69F
const LG7: f64 = 1.479_819_860_511_658_591e-01; // 3FC2F112 DF3E5244

// fdlibm e_exp.c: exp(r) = 1 + r + r·c/(2 − c), c = r − r²·P(r²).
const P1: f64 = 1.666_666_666_666_660_190_37e-01; // 3FC55555 5555553E
const P2: f64 = -2.777_777_777_701_559_338_42e-03; // BF66C16C 16BEBD93
const P3: f64 = 6.613_756_321_437_934_361_17e-05; // 3F11566A AF25DE2C
const P4: f64 = -1.653_390_220_546_525_153_90e-06; // BEBBBD41 C5D26BF1
const P5: f64 = 4.138_136_797_057_238_460_39e-08; // 3E663769 72BEA4D0

// fdlibm k_cos.c on [−π/4, π/4].
const C1: f64 = 4.166_666_666_666_660_190_37e-02; // 3FA55555 5555554C
const C2: f64 = -1.388_888_888_887_410_957_49e-03; // BF56C16C 16C15177
const C3: f64 = 2.480_158_728_947_672_941_78e-05; // 3EFA01A0 19CB1590
const C4: f64 = -2.755_731_435_139_066_330_35e-07; // BE927E4F 809C52AD
const C5: f64 = 2.087_572_321_298_174_827_90e-09; // 3E21EE9E BDB4B1C4
const C6: f64 = -1.135_964_755_778_819_482_65e-11; // BDA8FAE9 BE8838D4

// fdlibm k_sin.c on [−π/4, π/4].
const S1: f64 = -1.666_666_666_666_663_243_48e-01; // BFC55555 55555549
const S2: f64 = 8.333_333_333_322_489_461_24e-03; // 3F811111 1110F8A6
const S3: f64 = -1.984_126_982_985_794_931_34e-04; // BF2A01A0 19C161D5
const S4: f64 = 2.755_731_370_707_006_767_89e-06; // 3EC71DE3 57B1FE7D
const S5: f64 = -2.505_076_025_340_686_341_95e-08; // BE5AE5E6 8A2B9CEB
const S6: f64 = 1.589_690_995_211_550_102_21e-10; // 3DE5D93A 5ACFD57C

/// Natural logarithm of a positive, normal, finite `x`.
///
/// The call sites are `ln(1 − U)` of a 53-bit uniform (so `x` in
/// `[2⁻⁵³, 1]`) and a few build-time constants (`ln(median)`,
/// `ln(1 − 1/burst_mean)`). fdlibm's `e_log.c` without its special-case
/// branches: `x = 2ᵏ·m` with `m` in `[√2/2, √2)` by integer arithmetic on
/// the high word, then a degree-14 odd minimax in `s = (m−1)/(m+1)`.
/// `ln(1) = 0` exactly. Within 1 ulp of the correctly rounded result.
#[inline]
pub fn ln(x: f64) -> f64 {
    let bits = x.to_bits();
    // Bias the high word so the exponent field rounds m into [√2/2, √2).
    let hx = ((bits >> 32) as u32).wrapping_add(0x3ff0_0000 - 0x3fe6_a09e);
    let k = (hx >> 20) as i32 - 0x3ff;
    let hx = (hx & 0x000f_ffff) + 0x3fe6_a09e;
    let m = f64::from_bits((u64::from(hx) << 32) | (bits & 0xffff_ffff));
    let f = m - 1.0;
    let hfsq = 0.5 * f * f;
    let s = f / (2.0 + f);
    let z = s * s;
    let w = z * z;
    let t1 = w * (LG2 + w * (LG4 + w * LG6));
    let t2 = z * (LG1 + w * (LG3 + w * (LG5 + w * LG7)));
    let dk = f64::from(k);
    s * (hfsq + (t2 + t1)) + dk * LN2_LO - hfsq + f + dk * LN2_HI
}

/// `e^x` for `x` in `[−708, 709]` (results stay normal or overflow-free).
///
/// The call sites are the lognormal demand exponent `μ + σz` and the
/// jitter exponent `σz`: a few units either side of zero. fdlibm's
/// `e_exp.c` with its range branches replaced by one reduction:
/// `k = round(x / ln 2)` by adding and subtracting `1.5·2⁵²`, `r = x − k·ln 2` in
/// hi/lo parts, a degree-5 minimax in `r²`, then `2ᵏ` built from bits.
/// Within 1 ulp of the correctly rounded result.
#[inline]
pub fn exp(x: f64) -> f64 {
    let t = x * INV_LN2 + SHIFT;
    let kf = t - SHIFT;
    let hi = x - kf * LN2_HI;
    let lo = kf * LN2_LO;
    let r = hi - lo;
    let rr = r * r;
    let c = r - rr * (P1 + rr * (P2 + rr * (P3 + rr * (P4 + rr * P5))));
    let y = 1.0 + (r * c / (2.0 - c) - lo + hi);
    // k sits in the low mantissa bits of t; 2^k is its biased exponent.
    let k = t.to_bits().wrapping_sub(SHIFT.to_bits());
    y * f64::from_bits(k.wrapping_add(0x3ff) << 52)
}

/// `cos(2π·u)` for `u` in `[0, 1)` — the Box–Muller angle.
///
/// The quadrant reduction happens in `u`-space, where it is exact:
/// `n = round(4u)` and `r = 4u − n` in `[−½, ½]` carry no rounding, so the
/// only error before the polynomial is one rounding of `r·π/2`. (Computing
/// `cos(τ·u)` first rounds `τ·u`, which costs up to half an ulp of `2π`
/// near cos's zeros.) Both fdlibm kernels run on `x = r·π/2` and the
/// result is selected and signed by bit masks on `n mod 4`:
/// `cos x`, `−sin x`, `−cos x`, `sin x`.
/// Within 2⁻⁵⁰ absolute of `cos(2πu)`.
#[inline]
pub fn cos_2pi(u: f64) -> f64 {
    let q = 4.0 * u;
    let t = q + SHIFT;
    let r = q - (t - SHIFT);
    let n = t.to_bits().wrapping_sub(SHIFT.to_bits());
    let x = r * std::f64::consts::FRAC_PI_2;
    let z = x * x;
    let w = z * z;
    // k_cos(x, 0).
    let rc = z * (C1 + z * (C2 + z * C3)) + w * w * (C4 + z * (C5 + z * C6));
    let hz = 0.5 * z;
    let wc = 1.0 - hz;
    let cos = wc + (((1.0 - wc) - hz) + z * rc);
    // k_sin(x, 0, 0).
    let rs = S2 + z * (S3 + z * S4) + z * w * (S5 + z * S6);
    let sin = x + z * x * (S1 + z * rs);
    // Odd quadrants take sin; quadrants 1 and 2 flip the sign.
    let pick_sin = (n & 1).wrapping_neg();
    let sign = ((n + 1) & 2) << 62;
    f64::from_bits(((sin.to_bits() & pick_sin) | (cos.to_bits() & !pick_sin)) ^ sign)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;

    /// Distance in units in the last place between two finite doubles.
    fn ulps(a: f64, b: f64) -> u64 {
        fn key(x: f64) -> i64 {
            let b = x.to_bits() as i64;
            if b < 0 {
                i64::MIN - b
            } else {
                b
            }
        }
        key(a).abs_diff(key(b))
    }

    /// FNV-1a over the output bits.
    fn fnv(outputs: impl Iterator<Item = f64>) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for x in outputs {
            for b in x.to_bits().to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    /// Draws per kernel in the error-bound tests.
    const DRAWS: usize = 10_000_000;

    #[test]
    fn coefficients_match_their_published_bit_patterns() {
        let table: [(f64, u64); 27] = [
            (LN2_HI, 0x3fe62e42_fee00000),
            (LN2_LO, 0x3dea39ef_35793c76),
            (INV_LN2, 0x3ff71547_652b82fe),
            (LG1, 0x3FE55555_55555593),
            (LG2, 0x3FD99999_9997FA04),
            (LG3, 0x3FD24924_94229359),
            (LG4, 0x3FCC71C5_1D8E78AF),
            (LG5, 0x3FC74664_96CB03DE),
            (LG6, 0x3FC39A09_D078C69F),
            (LG7, 0x3FC2F112_DF3E5244),
            (P1, 0x3FC55555_5555553E),
            (P2, 0xBF66C16C_16BEBD93),
            (P3, 0x3F11566A_AF25DE2C),
            (P4, 0xBEBBBD41_C5D26BF1),
            (P5, 0x3E663769_72BEA4D0),
            (C1, 0x3FA55555_5555554C),
            (C2, 0xBF56C16C_16C15177),
            (C3, 0x3EFA01A0_19CB1590),
            (C4, 0xBE927E4F_809C52AD),
            (C5, 0x3E21EE9E_BDB4B1C4),
            (C6, 0xBDA8FAE9_BE8838D4),
            (S1, 0xBFC55555_55555549),
            (S2, 0x3F811111_1110F8A6),
            (S3, 0xBF2A01A0_19C161D5),
            (S4, 0x3EC71DE3_57B1FE7D),
            (S5, 0xBE5AE5E6_8A2B9CEB),
            (S6, 0x3DE5D93A_5ACFD57C),
        ];
        for (i, (c, bits)) in table.iter().enumerate() {
            assert_eq!(c.to_bits(), *bits, "coefficient {i}: {c:e}");
        }
    }

    #[test]
    fn exact_points() {
        assert_eq!(ln(1.0).to_bits(), 0);
        assert_eq!(exp(0.0), 1.0);
        assert_eq!(cos_2pi(0.0), 1.0);
        assert_eq!(cos_2pi(0.5), -1.0);
        assert_eq!(cos_2pi(0.25).abs(), 0.0);
        assert_eq!(cos_2pi(0.75).abs(), 0.0);
        assert_eq!(ln(2.0), std::f64::consts::LN_2);
        assert_eq!(ln(0.5), -std::f64::consts::LN_2);
    }

    /// `ln(1 − U)` over 10⁷ uniform draws (the exponential, Box–Muller and
    /// burst call sites), plus the build-time constants' wider range.
    #[test]
    fn ln_within_one_ulp_at_its_call_sites() {
        let mut rng = SimRng::seed(0x1a);
        let mut worst = 0;
        for _ in 0..DRAWS {
            let x = 1.0 - rng.uniform();
            worst = worst.max(ulps(ln(x), x.ln()));
        }
        for _ in 0..100_000 {
            // Medians and burst constants: 1e-6 .. 1e6.
            let x = 10f64.powf(rng.uniform_in(-6.0, 6.0));
            worst = worst.max(ulps(ln(x), x.ln()));
        }
        assert!(worst <= 1, "ln off by {worst} ulp");
    }

    /// `exp` over 10⁷ draws on [−3, 10]: uniform across the range and the
    /// lognormal exponent `ln(37) − σ²/2 + σz` of the presets.
    #[test]
    fn exp_within_one_ulp_at_its_call_sites() {
        let mut rng = SimRng::seed(0x2b);
        let mut worst = 0;
        for i in 0..DRAWS {
            let x = if i % 2 == 0 {
                rng.uniform_in(-3.0, 10.0)
            } else {
                let u1 = 1.0 - rng.uniform();
                let u2 = rng.uniform();
                let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
                (37.0f64.ln() - 0.245 + 0.7 * z).clamp(-3.0, 10.0)
            };
            worst = worst.max(ulps(exp(x), x.exp()));
        }
        assert!(worst <= 1, "exp off by {worst} ulp");
        assert!(exp(-708.0) > 0.0 && exp(709.0).is_finite());
    }

    #[test]
    fn cos_2pi_within_2_pow_minus_50_of_std() {
        let mut rng = SimRng::seed(0x3c);
        let mut worst = 0.0f64;
        for _ in 0..DRAWS {
            let u = rng.uniform();
            worst = worst.max((cos_2pi(u) - (std::f64::consts::TAU * u).cos()).abs());
        }
        assert!(worst <= 2f64.powi(-50), "cos_2pi off by {worst:e}");
    }

    /// One FNV hash of 10⁶ outputs per kernel, pinned: a host, compiler or
    /// code-generation difference that moves any bit fails here first.
    #[test]
    fn output_hashes_are_pinned() {
        let mut rng = SimRng::seed(0x4d);
        let ln_hash = fnv((0..1_000_000).map(|_| ln(1.0 - rng.uniform())));
        let exp_hash = fnv((0..1_000_000).map(|_| exp(rng.uniform_in(-3.0, 10.0))));
        let cos_hash = fnv((0..1_000_000).map(|_| cos_2pi(rng.uniform())));
        assert_eq!(
            [ln_hash, exp_hash, cos_hash],
            [
                0x29bb_d8d5_25f8_a1af,
                0x0c3d_d080_fe89_8073,
                0xf2fa_f886_e8db_fe26
            ],
            "kernel output hashes moved: {ln_hash:016x} {exp_hash:016x} {cos_hash:016x}"
        );
    }
}
