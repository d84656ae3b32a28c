//! Exact dyadic-rational arithmetic over `i128`.
//!
//! Every finite `f64` is exactly `m · 2^e` for integers `m`, `e`, so any
//! constraint coefficient or objective coefficient the solver saw can be
//! represented *exactly* as a dyadic rational `num / 2^shift`. The checker
//! converts each coefficient once — by decomposing the IEEE-754 bit pattern,
//! never by floating-point arithmetic — and then works in integers only.
//!
//! Each conversion and each operation costs O(1): a result is normalized
//! by stripping its common power of two in one shift (the numerator's
//! trailing zero bits, capped at the shift), not one bit at a time, so
//! an integer coefficient, which decomposes as `mantissa / 2^k` with `k`
//! up to 52, costs the same as any other.
//!
//! Operations are checked: anything that would overflow `i128` reports
//! `None`, which the certifier surfaces as an explicit `Overflow` rejection
//! rather than a silently wrong verdict. In practice IPET coefficients are
//! small integers (block costs, `±1` flow terms, loop bounds), so the
//! dyadic denominators are `2^0` and overflow is unreachable.

use std::cmp::Ordering;

/// A dyadic rational `num / 2^shift`, normalized so `shift` is minimal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rat {
    num: i128,
    shift: u32,
}

/// Left-shifts with overflow detection (`i128::checked_shl` only checks the
/// shift *amount*, not value overflow).
fn shl_checked(n: i128, s: u32) -> Option<i128> {
    if n == 0 || s == 0 {
        return Some(n);
    }
    if s >= 127 {
        return None;
    }
    n.checked_mul(1i128 << s)
}

impl Rat {
    /// The rational zero.
    pub const ZERO: Rat = Rat { num: 0, shift: 0 };

    /// An exact integer.
    pub fn from_int(n: i128) -> Rat {
        Rat { num: n, shift: 0 }
    }

    /// Decomposes a finite `f64` into its exact dyadic value by inspecting
    /// the IEEE-754 bit pattern. Returns `None` for NaN and infinities.
    /// This is the only place a float enters the checker, and no
    /// floating-point arithmetic happens here — only bit manipulation.
    pub fn from_f64(v: f64) -> Option<Rat> {
        let bits = v.to_bits();
        let negative = bits >> 63 == 1;
        let exp_bits = ((bits >> 52) & 0x7ff) as i32;
        let frac = (bits & ((1u64 << 52) - 1)) as i128;
        if exp_bits == 0x7ff {
            return None; // NaN or infinity
        }
        // value = mantissa * 2^e
        let (mantissa, e) = if exp_bits == 0 {
            (frac, -1074) // subnormal (or zero)
        } else {
            (frac | (1i128 << 52), exp_bits - 1075)
        };
        let mantissa = if negative { -mantissa } else { mantissa };
        let rat = if e >= 0 {
            Rat { num: shl_checked(mantissa, e as u32)?, shift: 0 }
        } else {
            Rat { num: mantissa, shift: (-e) as u32 }
        };
        Some(rat.normalized())
    }

    /// Strips common factors of two so equal values compare bit-equal and
    /// shifts stay small: all of them at once, as many as the numerator's
    /// trailing zero bits allow and the shift holds. The low `k` bits are
    /// zero, so the arithmetic shift divides exactly, negative numerators
    /// included.
    fn normalized(self) -> Rat {
        if self.num == 0 {
            return Rat::ZERO;
        }
        let k = self.num.trailing_zeros().min(self.shift);
        Rat { num: self.num >> k, shift: self.shift - k }
    }

    /// Exact sum; `None` on overflow.
    pub fn add_checked(self, other: Rat) -> Option<Rat> {
        let shift = self.shift.max(other.shift);
        let a = shl_checked(self.num, shift - self.shift)?;
        let b = shl_checked(other.num, shift - other.shift)?;
        Some(Rat { num: a.checked_add(b)?, shift }.normalized())
    }

    /// Exact product with an integer; `None` on overflow.
    pub fn mul_int(self, k: i128) -> Option<Rat> {
        Some(Rat { num: self.num.checked_mul(k)?, shift: self.shift }.normalized())
    }

    /// Exact three-way comparison; `None` on (alignment) overflow.
    pub fn cmp_exact(self, other: Rat) -> Option<Ordering> {
        let shift = self.shift.max(other.shift);
        let a = shl_checked(self.num, shift - self.shift)?;
        let b = shl_checked(other.num, shift - other.shift)?;
        Some(a.cmp(&b))
    }

    /// The exact integer value, when the rational is an integer.
    pub fn as_int(self) -> Option<i128> {
        if self.shift == 0 {
            Some(self.num)
        } else {
            None // normalized: shift > 0 means the value is fractional
        }
    }

    /// Renders the exact value (`num` or `num/2^shift`).
    pub fn render(self) -> String {
        if self.shift == 0 {
            format!("{}", self.num)
        } else {
            format!("{}/2^{}", self.num, self.shift)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integers_convert_exactly() {
        for v in [0.0, 1.0, -1.0, 42.0, 1_000_000.0, -987_654.0] {
            let r = Rat::from_f64(v).unwrap();
            assert_eq!(r, Rat::from_int(v as i128), "{v}");
            assert_eq!(r.as_int(), Some(v as i128));
        }
    }

    #[test]
    fn dyadic_fractions_convert_exactly() {
        // 0.5 = 1/2, 0.75 = 3/4, -2.25 = -9/4
        assert_eq!(Rat::from_f64(0.5).unwrap(), Rat { num: 1, shift: 1 });
        assert_eq!(Rat::from_f64(0.75).unwrap(), Rat { num: 3, shift: 2 });
        assert_eq!(Rat::from_f64(-2.25).unwrap(), Rat { num: -9, shift: 2 });
        // 0.1 is NOT 1/10 in binary; it must still convert exactly to
        // whatever dyadic the f64 actually holds, and 10 * 0.1 != 1.
        let tenth = Rat::from_f64(0.1).unwrap();
        assert_ne!(tenth.mul_int(10).unwrap(), Rat::from_int(1));
    }

    #[test]
    fn non_finite_is_refused() {
        assert_eq!(Rat::from_f64(f64::NAN), None);
        assert_eq!(Rat::from_f64(f64::INFINITY), None);
        assert_eq!(Rat::from_f64(f64::NEG_INFINITY), None);
    }

    #[test]
    fn arithmetic_is_exact() {
        let half = Rat::from_f64(0.5).unwrap();
        let quarter = Rat::from_f64(0.25).unwrap();
        assert_eq!(half.add_checked(quarter).unwrap(), Rat::from_f64(0.75).unwrap());
        assert_eq!(half.add_checked(half).unwrap(), Rat::from_int(1));
        assert_eq!(half.mul_int(6).unwrap(), Rat::from_int(3));
        assert_eq!(half.cmp_exact(quarter), Some(Ordering::Greater));
        assert_eq!(half.cmp_exact(half), Some(Ordering::Equal));
    }

    #[test]
    fn overflow_is_reported_not_wrapped() {
        let big = Rat::from_int(i128::MAX);
        assert_eq!(big.mul_int(2), None);
        assert_eq!(big.add_checked(Rat::from_int(1)), None);
        // Aligning a tiny denominator against a huge numerator overflows.
        let tiny = Rat { num: 1, shift: 120 };
        assert_eq!(big.add_checked(tiny), None);
    }

    #[test]
    fn subnormals_convert() {
        let min_sub = f64::from_bits(1); // smallest positive subnormal
        let r = Rat::from_f64(min_sub).unwrap();
        assert_eq!(r, Rat { num: 1, shift: 1074 });
    }

    /// The arithmetic as it stood with a normalization that strips one
    /// factor of two per loop iteration: the reference the properties
    /// below hold the single-step normalization to. Values are
    /// `(num, shift)` pairs.
    mod reference {
        use super::shl_checked;
        use std::cmp::Ordering;

        pub fn normalized(mut num: i128, mut shift: u32) -> (i128, u32) {
            if num == 0 {
                return (0, 0);
            }
            while shift > 0 && num % 2 == 0 {
                num /= 2;
                shift -= 1;
            }
            (num, shift)
        }

        pub fn from_f64(v: f64) -> Option<(i128, u32)> {
            let bits = v.to_bits();
            let exp_bits = ((bits >> 52) & 0x7ff) as i32;
            let frac = (bits & ((1u64 << 52) - 1)) as i128;
            if exp_bits == 0x7ff {
                return None;
            }
            let (mantissa, e) =
                if exp_bits == 0 { (frac, -1074) } else { (frac | (1i128 << 52), exp_bits - 1075) };
            let mantissa = if bits >> 63 == 1 { -mantissa } else { mantissa };
            if e >= 0 {
                Some(normalized(shl_checked(mantissa, e as u32)?, 0))
            } else {
                Some(normalized(mantissa, (-e) as u32))
            }
        }

        fn aligned(a: (i128, u32), b: (i128, u32)) -> Option<(i128, i128, u32)> {
            let shift = a.1.max(b.1);
            Some((shl_checked(a.0, shift - a.1)?, shl_checked(b.0, shift - b.1)?, shift))
        }

        pub fn add_checked(a: (i128, u32), b: (i128, u32)) -> Option<(i128, u32)> {
            let (x, y, shift) = aligned(a, b)?;
            Some(normalized(x.checked_add(y)?, shift))
        }

        pub fn mul_int(a: (i128, u32), k: i128) -> Option<(i128, u32)> {
            Some(normalized(a.0.checked_mul(k)?, a.1))
        }

        pub fn cmp_exact(a: (i128, u32), b: (i128, u32)) -> Option<Ordering> {
            let (x, y, _) = aligned(a, b)?;
            Some(x.cmp(&y))
        }
    }

    mod properties {
        use super::{reference, Rat};
        use proptest::prelude::*;

        fn parts(r: Rat) -> (i128, u32) {
            (r.num, r.shift)
        }

        /// `f64` bit patterns: any at all, subnormals (and zeros) of either
        /// sign, and integers of every magnitude, which every IPET
        /// coefficient is.
        fn float_bits() -> impl Strategy<Value = u64> {
            prop_oneof![
                any::<u64>(),
                any::<u64>().prop_map(|b| b & 0x800f_ffff_ffff_ffff),
                (any::<i32>(), 0u32..32).prop_map(|(i, r)| ((i >> r) as f64).to_bits()),
            ]
        }

        /// Numerators of every magnitude, many with trailing zero bits.
        fn numerator() -> impl Strategy<Value = i128> {
            (any::<i64>(), any::<u64>(), 0u32..128, 0u32..128)
                .prop_map(|(hi, lo, r, t)| ((((hi as i128) << 64) | lo as i128) >> r) << t)
        }

        /// Normalized operands: from random `(num, shift)` pairs, or from
        /// random `f64` values.
        fn operand() -> impl Strategy<Value = Rat> {
            prop_oneof![
                (numerator(), 0u32..140).prop_map(|(num, shift)| Rat { num, shift }.normalized()),
                float_bits().prop_map(|b| Rat::from_f64(f64::from_bits(b)).unwrap_or(Rat::ZERO)),
            ]
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(4096))]

            #[test]
            fn from_f64_matches_the_reference(bits in float_bits()) {
                let v = f64::from_bits(bits);
                prop_assert_eq!(Rat::from_f64(v).map(parts), reference::from_f64(v));
            }

            #[test]
            fn normalization_matches_the_reference(num in numerator(), shift in 0u32..1200) {
                prop_assert_eq!(
                    parts(Rat { num, shift }.normalized()),
                    reference::normalized(num, shift)
                );
            }

            #[test]
            fn arithmetic_matches_the_reference(
                a in operand(),
                b in operand(),
                k in prop_oneof![any::<i64>().prop_map(i128::from), numerator()],
            ) {
                let (pa, pb) = (parts(a), parts(b));
                prop_assert_eq!(a.add_checked(b).map(parts), reference::add_checked(pa, pb));
                prop_assert_eq!(a.mul_int(k).map(parts), reference::mul_int(pa, k));
                prop_assert_eq!(a.cmp_exact(b), reference::cmp_exact(pa, pb));
            }
        }
    }
}
