//! Plaintext predicates as formulated by the data owner.

use crate::schema::AttrId;
use serde::{Deserialize, Serialize};

/// A comparison operator. Per the paper (§3.1, footnote 3), the service
/// provider *cannot* distinguish which of the four operators a trapdoor
/// carries — they are all processed by the same algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ComparisonOp {
    /// `X > c`
    Gt,
    /// `X < c`
    Lt,
    /// `X ≥ c`
    Ge,
    /// `X ≤ c`
    Le,
}

impl ComparisonOp {
    /// Evaluates `value op bound`.
    #[inline]
    pub(crate) fn eval(self, value: u64, bound: u64) -> bool {
        match self {
            ComparisonOp::Gt => value > bound,
            ComparisonOp::Lt => value < bound,
            ComparisonOp::Ge => value >= bound,
            ComparisonOp::Le => value <= bound,
        }
    }

    /// Stable wire encoding used inside trapdoor payloads and snapshots.
    pub fn code(self) -> u64 {
        match self {
            ComparisonOp::Gt => 0,
            ComparisonOp::Lt => 1,
            ComparisonOp::Ge => 2,
            ComparisonOp::Le => 3,
        }
    }

    /// Inverse of [`ComparisonOp::code`].
    pub fn from_code(code: u64) -> Option<Self> {
        match code {
            0 => Some(ComparisonOp::Gt),
            1 => Some(ComparisonOp::Lt),
            2 => Some(ComparisonOp::Ge),
            3 => Some(ComparisonOp::Le),
            _ => None,
        }
    }

    /// All four operators (test helper).
    pub const ALL: [ComparisonOp; 4] = [
        ComparisonOp::Gt,
        ComparisonOp::Lt,
        ComparisonOp::Ge,
        ComparisonOp::Le,
    ];
}

/// A plaintext selection predicate over one attribute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Predicate {
    /// `attr op bound`.
    Comparison {
        /// Attribute the predicate concerns.
        attr: AttrId,
        /// The comparison operator (hidden from SP inside the trapdoor).
        op: ComparisonOp,
        /// The user-defined parameter (hidden from SP inside the trapdoor).
        bound: u64,
    },
    /// `lo ≤ attr ≤ hi` — the BETWEEN operator (paper Appendix A). SP *can*
    /// tell a BETWEEN trapdoor from a comparison trapdoor (different
    /// processing algorithm), but not its bounds.
    Between {
        /// Attribute the predicate concerns.
        attr: AttrId,
        /// Inclusive lower bound.
        lo: u64,
        /// Inclusive upper bound.
        hi: u64,
    },
}

impl Predicate {
    /// Shorthand for a comparison predicate.
    pub fn cmp(attr: AttrId, op: ComparisonOp, bound: u64) -> Self {
        Predicate::Comparison { attr, op, bound }
    }

    /// Shorthand for a BETWEEN predicate.
    pub fn between(attr: AttrId, lo: u64, hi: u64) -> Self {
        Predicate::Between { attr, lo, hi }
    }

    /// The attribute this predicate concerns.
    pub fn attr(&self) -> AttrId {
        match self {
            Predicate::Comparison { attr, .. } | Predicate::Between { attr, .. } => *attr,
        }
    }

    /// Plaintext evaluation (data-owner side / test oracle).
    #[inline]
    pub fn eval(&self, value: u64) -> bool {
        match self {
            Predicate::Comparison { op, bound, .. } => op.eval(value, *bound),
            Predicate::Between { lo, hi, .. } => *lo <= value && value <= *hi,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comparison_semantics() {
        assert!(ComparisonOp::Gt.eval(5, 4));
        assert!(!ComparisonOp::Gt.eval(4, 4));
        assert!(ComparisonOp::Ge.eval(4, 4));
        assert!(ComparisonOp::Lt.eval(3, 4));
        assert!(!ComparisonOp::Lt.eval(4, 4));
        assert!(ComparisonOp::Le.eval(4, 4));
    }

    #[test]
    fn op_code_roundtrip() {
        for op in ComparisonOp::ALL {
            assert_eq!(ComparisonOp::from_code(op.code()), Some(op));
        }
        assert_eq!(ComparisonOp::from_code(9), None);
    }

    #[test]
    fn predicate_eval() {
        let p = Predicate::cmp(0, ComparisonOp::Lt, 10);
        assert!(p.eval(9));
        assert!(!p.eval(10));
        let b = Predicate::between(1, 3, 7);
        assert_eq!(b.attr(), 1);
        assert!(b.eval(3));
        assert!(b.eval(7));
        assert!(!b.eval(2));
        assert!(!b.eval(8));
    }
}
