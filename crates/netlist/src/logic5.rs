//! Roth-style 5-valued logic for deterministic test generation.
//!
//! `D` means good-machine 1 / faulty-machine 0, `Db` the reverse. Values
//! with only one side known are pessimistically widened to `X`, which
//! keeps the calculus sound (a found test is a real test) at the price of
//! possibly exploring more decisions.

/// One of the five composite values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum V5 {
    /// 0 in both machines.
    Zero,
    /// 1 in both machines.
    One,
    /// Unknown.
    X,
    /// Good 1, faulty 0.
    D,
    /// Good 0, faulty 1.
    Db,
}

/// Every value, in discriminant order (the operation tables' index).
const ALL: [V5; 5] = [V5::Zero, V5::One, V5::X, V5::D, V5::Db];

impl V5 {
    /// Builds from separate good/faulty components, widening one-sided
    /// knowledge to `X`.
    pub const fn from_pair(good: Option<bool>, faulty: Option<bool>) -> V5 {
        match (good, faulty) {
            (Some(true), Some(true)) => V5::One,
            (Some(false), Some(false)) => V5::Zero,
            (Some(true), Some(false)) => V5::D,
            (Some(false), Some(true)) => V5::Db,
            _ => V5::X,
        }
    }

    /// The good-machine component.
    pub const fn good(self) -> Option<bool> {
        match self {
            V5::Zero | V5::Db => Some(false),
            V5::One | V5::D => Some(true),
            V5::X => None,
        }
    }

    /// The faulty-machine component.
    pub const fn faulty(self) -> Option<bool> {
        match self {
            V5::Zero | V5::D => Some(false),
            V5::One | V5::Db => Some(true),
            V5::X => None,
        }
    }

    /// Whether the value carries a fault effect.
    pub fn is_fault_effect(self) -> bool {
        matches!(self, V5::D | V5::Db)
    }

    /// A plain binary value.
    pub fn of_bool(b: bool) -> V5 {
        if b {
            V5::One
        } else {
            V5::Zero
        }
    }

    /// Logical complement.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> V5 {
        match self {
            V5::Zero => V5::One,
            V5::One => V5::Zero,
            V5::X => V5::X,
            V5::D => V5::Db,
            V5::Db => V5::D,
        }
    }

    /// 5-valued AND.
    #[inline]
    pub fn and(self, other: V5) -> V5 {
        AND[self as usize][other as usize]
    }

    /// 5-valued OR.
    #[inline]
    pub fn or(self, other: V5) -> V5 {
        OR[self as usize][other as usize]
    }

    /// 5-valued XOR.
    #[inline]
    pub fn xor(self, other: V5) -> V5 {
        XOR[self as usize][other as usize]
    }

    /// 5-valued 2:1 mux (`sel ? a : b`).
    #[inline]
    pub fn mux(sel: V5, a: V5, b: V5) -> V5 {
        MUX[sel as usize][a as usize][b as usize]
    }
}

// The binary operations are tabulated at compile time from their
// definitions on separate good/faulty components, so the search's hot
// loop does one lookup per gate.
const AND: [[V5; 5]; 5] = table2(0);
const OR: [[V5; 5]; 5] = table2(1);
const XOR: [[V5; 5]; 5] = table2(2);
const MUX: [[[V5; 5]; 5]; 5] = mux_table();

/// The table of AND (`op` 0), OR (1) or XOR (2).
const fn table2(op: u8) -> [[V5; 5]; 5] {
    let mut t = [[V5::X; 5]; 5];
    let mut i = 0;
    while i < 5 {
        let mut j = 0;
        while j < 5 {
            let (a, b) = (ALL[i], ALL[j]);
            t[i][j] = V5::from_pair(op3(op, a.good(), b.good()), op3(op, a.faulty(), b.faulty()));
            j += 1;
        }
        i += 1;
    }
    t
}

const fn mux_table() -> [[[V5; 5]; 5]; 5] {
    let mut t = [[[V5::X; 5]; 5]; 5];
    let mut s = 0;
    while s < 5 {
        let mut i = 0;
        while i < 5 {
            let mut j = 0;
            while j < 5 {
                let (sel, a, b) = (ALL[s], ALL[i], ALL[j]);
                t[s][i][j] = V5::from_pair(
                    mux3(sel.good(), a.good(), b.good()),
                    mux3(sel.faulty(), a.faulty(), b.faulty()),
                );
                j += 1;
            }
            i += 1;
        }
        s += 1;
    }
    t
}

const fn op3(op: u8, a: Option<bool>, b: Option<bool>) -> Option<bool> {
    match op {
        0 => and3(a, b),
        1 => or3(a, b),
        _ => xor3(a, b),
    }
}

const fn and3(a: Option<bool>, b: Option<bool>) -> Option<bool> {
    match (a, b) {
        (Some(false), _) | (_, Some(false)) => Some(false),
        (Some(true), Some(true)) => Some(true),
        _ => None,
    }
}

const fn or3(a: Option<bool>, b: Option<bool>) -> Option<bool> {
    match (a, b) {
        (Some(true), _) | (_, Some(true)) => Some(true),
        (Some(false), Some(false)) => Some(false),
        _ => None,
    }
}

const fn xor3(a: Option<bool>, b: Option<bool>) -> Option<bool> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x != y),
        _ => None,
    }
}

const fn mux3(sel: Option<bool>, a: Option<bool>, b: Option<bool>) -> Option<bool> {
    match sel {
        Some(true) => a,
        Some(false) => b,
        None => match (a, b) {
            (Some(x), Some(y)) if x == y => Some(x),
            _ => None,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_match_the_component_definitions() {
        let pair = |f: fn(Option<bool>, Option<bool>) -> Option<bool>, a: V5, b: V5| {
            V5::from_pair(f(a.good(), b.good()), f(a.faulty(), b.faulty()))
        };
        for a in ALL {
            for b in ALL {
                assert_eq!(a.and(b), pair(and3, a, b), "{a:?} and {b:?}");
                assert_eq!(a.or(b), pair(or3, a, b), "{a:?} or {b:?}");
                assert_eq!(a.xor(b), pair(xor3, a, b), "{a:?} xor {b:?}");
                for s in ALL {
                    let want = V5::from_pair(
                        mux3(s.good(), a.good(), b.good()),
                        mux3(s.faulty(), a.faulty(), b.faulty()),
                    );
                    assert_eq!(V5::mux(s, a, b), want, "mux({s:?}, {a:?}, {b:?})");
                }
            }
        }
    }

    #[test]
    fn controlling_values_dominate_x_and_d() {
        assert_eq!(V5::Zero.and(V5::X), V5::Zero);
        assert_eq!(V5::Zero.and(V5::D), V5::Zero);
        assert_eq!(V5::One.or(V5::Db), V5::One);
    }

    #[test]
    fn d_propagates_through_noncontrolling() {
        assert_eq!(V5::D.and(V5::One), V5::D);
        assert_eq!(V5::Db.or(V5::Zero), V5::Db);
        assert_eq!(V5::D.xor(V5::Zero), V5::D);
        assert_eq!(V5::D.xor(V5::One), V5::Db);
    }

    #[test]
    fn d_meets_dbar() {
        assert_eq!(V5::D.and(V5::Db), V5::Zero);
        assert_eq!(V5::D.or(V5::Db), V5::One);
        assert_eq!(V5::D.xor(V5::D), V5::Zero);
    }

    #[test]
    fn not_flips_d() {
        assert_eq!(V5::D.not(), V5::Db);
        assert_eq!(V5::X.not(), V5::X);
    }

    #[test]
    fn mux_with_unknown_select_agreement() {
        assert_eq!(V5::mux(V5::X, V5::One, V5::One), V5::One);
        assert_eq!(V5::mux(V5::X, V5::One, V5::Zero), V5::X);
        assert_eq!(V5::mux(V5::One, V5::D, V5::Zero), V5::D);
        assert_eq!(V5::mux(V5::Zero, V5::D, V5::Db), V5::Db);
    }

    #[test]
    fn mixed_pairs_widen_to_x() {
        assert_eq!(V5::from_pair(Some(true), None), V5::X);
        assert_eq!(V5::from_pair(None, Some(false)), V5::X);
    }

    #[test]
    fn d_through_mux_select() {
        // A fault effect on the select with equal data stays hidden.
        assert_eq!(V5::mux(V5::D, V5::One, V5::One), V5::One);
        // With differing data it shows.
        assert_eq!(V5::mux(V5::D, V5::One, V5::Zero), V5::D);
    }
}
