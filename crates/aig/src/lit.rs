//! Literals and variables.
//!
//! An AIG literal packs a node index ("variable") and a complement flag into
//! a single `u32`, following the AIGER convention: `lit = 2 * var + compl`.
//! Literal `0` is the constant **false**, literal `1` the constant **true**.

use std::fmt;
use std::ops::Not;

/// Index of an AIG node (primary input, AND gate, or the constant node 0).
pub type Var = u32;

/// A possibly-complemented reference to an AIG node.
///
/// `Lit` is a thin wrapper over the AIGER integer encoding: the low bit is
/// the complement flag, the remaining bits are the node index. The constant
/// node always has index 0, so [`Lit::FALSE`] is `0` and [`Lit::TRUE`] is `1`.
///
/// ```
/// use aig::Lit;
/// let a = Lit::from_var(3, false);
/// assert_eq!(a.var(), 3);
/// assert!(!a.is_compl());
/// assert_eq!((!a).var(), 3);
/// assert!((!a).is_compl());
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Lit(pub(crate) u32);

impl Lit {
    /// The constant-false literal (node 0, non-complemented).
    pub const FALSE: Lit = Lit(0);
    /// The constant-true literal (node 0, complemented).
    pub const TRUE: Lit = Lit(1);
    /// Sentinel used internally for "no literal" (e.g. PI fanin slots).
    pub(crate) const NONE: Lit = Lit(u32::MAX);

    /// Builds a literal from a node index and a complement flag.
    #[inline]
    pub fn from_var(var: Var, compl: bool) -> Lit {
        debug_assert!(var < u32::MAX / 2);
        Lit(var << 1 | compl as u32)
    }

    /// The raw AIGER encoding of this literal.
    #[inline]
    pub fn raw(self) -> u32 {
        self.0
    }

    /// The node index this literal refers to.
    #[inline]
    pub fn var(self) -> Var {
        self.0 >> 1
    }

    /// Whether the literal is complemented.
    #[inline]
    pub fn is_compl(self) -> bool {
        self.0 & 1 != 0
    }

    /// The non-complemented literal of the same node.
    #[inline]
    pub fn regular(self) -> Lit {
        Lit(self.0 & !1)
    }

    /// XORs the complement flag with `compl` (no-op when `compl` is false).
    #[inline]
    pub fn xor_compl(self, compl: bool) -> Lit {
        Lit(self.0 ^ compl as u32)
    }

    /// True if this is one of the two constant literals.
    #[inline]
    pub fn is_const(self) -> bool {
        self.var() == 0
    }
}

impl Not for Lit {
    type Output = Lit;
    #[inline]
    fn not(self) -> Lit {
        Lit(self.0 ^ 1)
    }
}

impl fmt::Debug for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == Lit::NONE {
            return write!(f, "Lit(NONE)");
        }
        write!(
            f,
            "{}{}",
            if self.is_compl() { "!" } else { "" },
            self.var()
        )
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_var_compl() {
        for var in [0u32, 1, 2, 77, 1 << 20] {
            for compl in [false, true] {
                let l = Lit::from_var(var, compl);
                assert_eq!(l.var(), var);
                assert_eq!(l.is_compl(), compl);
            }
        }
    }

    #[test]
    fn constants() {
        assert_eq!(Lit::FALSE.raw(), 0);
        assert_eq!(Lit::TRUE.raw(), 1);
        assert_eq!(!Lit::FALSE, Lit::TRUE);
        assert!(Lit::FALSE.is_const() && Lit::TRUE.is_const());
        assert!(!Lit::from_var(1, false).is_const());
    }

    #[test]
    fn complement_ops() {
        let l = Lit::from_var(5, false);
        assert_eq!(!!l, l);
        assert_eq!(l.xor_compl(true), !l);
        assert_eq!(l.xor_compl(false), l);
        assert_eq!((!l).regular(), l);
    }

    #[test]
    fn display() {
        assert_eq!(format!("{}", Lit::from_var(4, true)), "!4");
        assert_eq!(format!("{}", Lit::from_var(4, false)), "4");
    }
}
