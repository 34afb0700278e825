//! Scalar expressions and predicates over tuples.
//!
//! An [`Expr`] addresses attributes by *flat* index: for multi-variable
//! queries the tuples of all range variables are laid out one after
//! another, and the TQuel layer resolves names to indices during
//! semantic analysis.  Evaluation reads through [`AttrSource`], so a
//! caller can present the bound rows of several variables as one flat
//! tuple without concatenating them.

use std::fmt;

use chronos_core::error::{CoreError, CoreResult};
use chronos_core::tuple::Tuple;
use chronos_core::value::Value;

/// Comparison operators.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    fn holds(self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        matches!(
            (self, ord),
            (CmpOp::Eq, Equal)
                | (CmpOp::Ne, Less)
                | (CmpOp::Ne, Greater)
                | (CmpOp::Lt, Less)
                | (CmpOp::Le, Less)
                | (CmpOp::Le, Equal)
                | (CmpOp::Gt, Greater)
                | (CmpOp::Ge, Greater)
                | (CmpOp::Ge, Equal)
        )
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad(match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        })
    }
}

/// Attribute values addressed by flat index: a [`Tuple`], or a view
/// over several tuples laid out one after another.
pub trait AttrSource {
    /// The value at flat index `idx`, if there is one.
    fn attr(&self, idx: usize) -> Option<&Value>;
}

impl AttrSource for Tuple {
    fn attr(&self, idx: usize) -> Option<&Value> {
        self.try_get(idx)
    }
}

/// A scalar expression over a flat tuple.
#[derive(Clone, PartialEq, Debug)]
pub enum Expr {
    /// The value at a flat attribute index.
    Attr(usize),
    /// A constant.
    Const(Value),
}

impl Expr {
    /// Evaluates to a value.
    pub fn eval<'a, A: AttrSource + ?Sized>(&'a self, tuple: &'a A) -> CoreResult<&'a Value> {
        match self {
            Expr::Attr(i) => tuple
                .attr(*i)
                .ok_or_else(|| CoreError::Invalid(format!("attribute index {i} out of range"))),
            Expr::Const(v) => Ok(v),
        }
    }
}

/// A boolean predicate over a flat tuple.
#[derive(Clone, PartialEq, Debug)]
pub enum Predicate {
    /// Always true (empty `where` clause).
    True,
    /// Comparison of two scalar expressions.
    Cmp(CmpOp, Expr, Expr),
    /// Conjunction.
    And(Box<Predicate>, Box<Predicate>),
    /// Disjunction.
    Or(Box<Predicate>, Box<Predicate>),
    /// Negation.
    Not(Box<Predicate>),
}

impl Predicate {
    /// Evaluates against a flat tuple.
    pub fn eval<A: AttrSource + ?Sized>(&self, tuple: &A) -> CoreResult<bool> {
        match self {
            Predicate::True => Ok(true),
            Predicate::Cmp(op, a, b) => {
                let (a, b) = (a.eval(tuple)?, b.eval(tuple)?);
                if a.attr_type() != b.attr_type() {
                    return Err(CoreError::Invalid(format!(
                        "cannot compare {} with {}",
                        a.attr_type(),
                        b.attr_type()
                    )));
                }
                Ok(op.holds(a.cmp(b)))
            }
            Predicate::And(a, b) => Ok(a.eval(tuple)? && b.eval(tuple)?),
            Predicate::Or(a, b) => Ok(a.eval(tuple)? || b.eval(tuple)?),
            Predicate::Not(a) => Ok(!a.eval(tuple)?),
        }
    }

    /// Calls `f` with the flat index of every attribute the predicate
    /// reads.
    pub fn for_each_attr(&self, f: &mut impl FnMut(usize)) {
        match self {
            Predicate::True => {}
            Predicate::Cmp(_, a, b) => {
                for e in [a, b] {
                    if let Expr::Attr(i) = e {
                        f(*i);
                    }
                }
            }
            Predicate::And(a, b) | Predicate::Or(a, b) => {
                a.for_each_attr(f);
                b.for_each_attr(f);
            }
            Predicate::Not(a) => a.for_each_attr(f),
        }
    }

    /// Convenience: `attr = constant` (the paper's
    /// `where f.name = "Merrie"`).
    pub fn attr_eq(idx: usize, v: impl Into<Value>) -> Predicate {
        Predicate::Cmp(CmpOp::Eq, Expr::Attr(idx), Expr::Const(v.into()))
    }

    /// Conjunction builder.
    #[must_use]
    pub fn and(self, other: Predicate) -> Predicate {
        Predicate::And(Box::new(self), Box::new(other))
    }

    /// Disjunction builder.
    #[must_use]
    pub fn or(self, other: Predicate) -> Predicate {
        Predicate::Or(Box::new(self), Box::new(other))
    }

    /// Negation builder.
    #[must_use]
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Predicate {
        Predicate::Not(Box::new(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chronos_core::tuple::tuple;

    #[test]
    fn comparisons() {
        let t = tuple(["Merrie", "full"]);
        assert!(Predicate::attr_eq(0, "Merrie").eval(&t).unwrap());
        assert!(!Predicate::attr_eq(0, "Tom").eval(&t).unwrap());
        let lt = Predicate::Cmp(CmpOp::Lt, Expr::Attr(1), Expr::Const("zzz".into()));
        assert!(lt.eval(&t).unwrap());
        let ge = Predicate::Cmp(CmpOp::Ge, Expr::Attr(0), Expr::Const("Merrie".into()));
        assert!(ge.eval(&t).unwrap());
        let ne = Predicate::Cmp(CmpOp::Ne, Expr::Attr(0), Expr::Attr(1));
        assert!(ne.eval(&t).unwrap());
    }

    #[test]
    fn boolean_connectives() {
        let t = tuple(["Merrie", "full"]);
        let p = Predicate::attr_eq(0, "Merrie").and(Predicate::attr_eq(1, "full"));
        assert!(p.eval(&t).unwrap());
        let q = Predicate::attr_eq(0, "Tom").or(Predicate::attr_eq(1, "full"));
        assert!(q.eval(&t).unwrap());
        assert!(!q.clone().not().eval(&t).unwrap());
        assert!(Predicate::True.eval(&t).unwrap());
    }

    #[test]
    fn type_mismatch_is_an_error() {
        let t = tuple(["Merrie", "full"]);
        let bad = Predicate::Cmp(CmpOp::Eq, Expr::Attr(0), Expr::Const(Value::Int(3)));
        assert!(bad.eval(&t).is_err());
    }

    #[test]
    fn for_each_attr_lists_every_read() {
        let p =
            Predicate::attr_eq(2, "x")
                .or(Predicate::Cmp(CmpOp::Lt, Expr::Attr(0), Expr::Attr(5)).not());
        let mut read = Vec::new();
        p.for_each_attr(&mut |i| read.push(i));
        assert_eq!(read, vec![2, 0, 5]);
    }

    #[test]
    fn out_of_range_attr_is_an_error() {
        let t = tuple(["Merrie"]);
        assert!(Predicate::attr_eq(5, "x").eval(&t).is_err());
    }
}
