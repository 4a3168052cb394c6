//! The enabling-condition expression language and its three-valued
//! (Kleene) partial evaluation.
//!
//! Eager evaluation of enabling conditions (§4, "Optimizations in the
//! Prequalifying Phase") rests on one property: evaluating a condition
//! over a *partial* snapshot — where some attributes have not stabilized
//! yet — must be **monotone**: if partial evaluation returns a definite
//! `True`/`False`, the final evaluation over the complete snapshot
//! returns the same answer. Kleene three-valued logic gives exactly
//! this: unstable attributes evaluate to [`Tri::Unknown`], conjunction
//! short-circuits on `False`, disjunction on `True`.
//!
//! Two different "don't know" notions coexist and must not be conflated:
//!
//! * an **unstable** attribute (task not finished, condition undecided)
//!   yields `Unknown` — the condition may still change;
//! * a **null** value ⊥ (disabled attribute, missing data) is a *stable*
//!   value; comparisons against ⊥ are *decided* `False` (so conditions
//!   always evaluate once their inputs stabilize, per §2's requirement
//!   that tasks run even with ⊥ inputs).

use std::collections::BTreeSet;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::schema::AttrId;
use crate::value::Value;

/// Kleene truth value.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Tri {
    /// Definitely false (stable under refinement).
    False,
    /// Not yet determined; may become `True` or `False`.
    Unknown,
    /// Definitely true (stable under refinement).
    True,
}

impl Tri {
    /// Kleene conjunction.
    pub fn and(self, other: Tri) -> Tri {
        use Tri::*;
        match (self, other) {
            (False, _) | (_, False) => False,
            (True, True) => True,
            _ => Unknown,
        }
    }

    /// Kleene disjunction.
    pub fn or(self, other: Tri) -> Tri {
        use Tri::*;
        match (self, other) {
            (True, _) | (_, True) => True,
            (False, False) => False,
            _ => Unknown,
        }
    }

    /// Kleene negation.
    #[allow(clippy::should_implement_trait)] // deliberate: Kleene ¬, not std ops
    pub fn not(self) -> Tri {
        match self {
            Tri::True => Tri::False,
            Tri::False => Tri::True,
            Tri::Unknown => Tri::Unknown,
        }
    }

    /// Is this a definite answer?
    pub fn is_decided(self) -> bool {
        self != Tri::Unknown
    }

    /// Lift a two-valued bool.
    pub fn from_bool(b: bool) -> Tri {
        if b {
            Tri::True
        } else {
            Tri::False
        }
    }

    /// Definite truth, if decided.
    pub fn as_bool(self) -> Option<bool> {
        match self {
            Tri::True => Some(true),
            Tri::False => Some(false),
            Tri::Unknown => None,
        }
    }
}

/// Comparison operators of the condition language.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CmpOp {
    /// Equality (⊥ never equals anything).
    Eq,
    /// Inequality.
    Ne,
    /// Strictly less.
    Lt,
    /// Less or equal.
    Le,
    /// Strictly greater.
    Gt,
    /// Greater or equal.
    Ge,
}

impl CmpOp {
    fn apply(self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        match self {
            CmpOp::Eq => ord == Equal,
            CmpOp::Ne => ord != Equal,
            CmpOp::Lt => ord == Less,
            CmpOp::Le => ord != Greater,
            CmpOp::Gt => ord == Greater,
            CmpOp::Ge => ord != Less,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        f.write_str(s)
    }
}

/// A scalar term: either a literal or an attribute reference.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Term {
    /// A constant value.
    Const(Value),
    /// The value of an attribute (⊥ if the attribute is disabled).
    Attr(AttrId),
}

impl Term {
    fn collect_refs(&self, out: &mut BTreeSet<AttrId>) {
        if let Term::Attr(a) = self {
            out.insert(*a);
        }
    }
}

/// An enabling-condition expression.
///
/// Conditions in the paper are conjunctions/disjunctions of predicates;
/// this AST is closed under nesting so user-authored flows (Figure 1)
/// can express conditions like
/// `(boy_item_in_cart) OR (child_item_in_cart AND bought_boy_item)`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Expr {
    /// A constant truth value.
    Lit(bool),
    /// An attribute interpreted as a boolean predicate: `True` iff the
    /// stable value is truthy; ⊥ is `False`.
    Truthy(AttrId),
    /// `IsNull(a)`: true iff the attribute stabilized to ⊥ (disabled or
    /// null-valued). Decided only once the attribute is stable.
    IsNull(AttrId),
    /// Comparison between two terms. Any ⊥ operand (or incomparable
    /// types) decides the predicate `False`.
    Cmp {
        /// Operator.
        op: CmpOp,
        /// Left operand.
        lhs: Term,
        /// Right operand.
        rhs: Term,
    },
    /// Negation.
    Not(Box<Expr>),
    /// N-ary Kleene conjunction (empty = `True`).
    And(Vec<Expr>),
    /// N-ary Kleene disjunction (empty = `False`).
    Or(Vec<Expr>),
}

/// How an attribute looks to the evaluator at a point in time.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum AttrView<'a> {
    /// The attribute has not stabilized; its value may still appear.
    Unstable,
    /// The attribute stabilized to this value (⊥ for disabled).
    Stable(&'a Value),
}

/// A source of attribute views for evaluation: typically a runtime
/// instance (partial) or a complete snapshot (total).
pub trait ValueEnv {
    /// Current view of attribute `a`.
    fn view(&self, a: AttrId) -> AttrView<'_>;
}

/// A `ValueEnv` over a slice of optional stable values: `None` means
/// unstable, `Some(v)` stable with value `v`.
impl ValueEnv for [Option<Value>] {
    fn view(&self, a: AttrId) -> AttrView<'_> {
        match self.get(a.index()).and_then(|o| o.as_ref()) {
            None => AttrView::Unstable,
            Some(v) => AttrView::Stable(v),
        }
    }
}

impl Expr {
    /// Shorthand: conjunction of two expressions, flattening nested
    /// `And`s to keep trees shallow.
    pub fn and(self, other: Expr) -> Expr {
        match (self, other) {
            (Expr::Lit(true), e) | (e, Expr::Lit(true)) => e,
            (Expr::And(mut a), Expr::And(b)) => {
                a.extend(b);
                Expr::And(a)
            }
            (Expr::And(mut a), e) => {
                a.push(e);
                Expr::And(a)
            }
            (e, Expr::And(mut b)) => {
                b.insert(0, e);
                Expr::And(b)
            }
            (a, b) => Expr::And(vec![a, b]),
        }
    }

    /// Shorthand: disjunction, flattening nested `Or`s.
    pub fn or(self, other: Expr) -> Expr {
        match (self, other) {
            (Expr::Lit(false), e) | (e, Expr::Lit(false)) => e,
            (Expr::Or(mut a), Expr::Or(b)) => {
                a.extend(b);
                Expr::Or(a)
            }
            (Expr::Or(mut a), e) => {
                a.push(e);
                Expr::Or(a)
            }
            (e, Expr::Or(mut b)) => {
                b.insert(0, e);
                Expr::Or(b)
            }
            (a, b) => Expr::Or(vec![a, b]),
        }
    }

    /// Predicate helper: `attr op const`.
    pub fn cmp_const(attr: AttrId, op: CmpOp, v: impl Into<Value>) -> Expr {
        Expr::Cmp {
            op,
            lhs: Term::Attr(attr),
            rhs: Term::Const(v.into()),
        }
    }

    /// Predicate helper: `attr1 op attr2`.
    pub fn cmp_attrs(a: AttrId, op: CmpOp, b: AttrId) -> Expr {
        Expr::Cmp {
            op,
            lhs: Term::Attr(a),
            rhs: Term::Attr(b),
        }
    }

    /// The set of attributes this expression reads (the *enabling flow*
    /// in-edges of the guarded attribute).
    pub fn references(&self) -> BTreeSet<AttrId> {
        let mut out = BTreeSet::new();
        self.collect_refs(&mut out);
        out
    }

    fn collect_refs(&self, out: &mut BTreeSet<AttrId>) {
        match self {
            Expr::Lit(_) => {}
            Expr::Truthy(a) | Expr::IsNull(a) => {
                out.insert(*a);
            }
            Expr::Cmp { lhs, rhs, .. } => {
                lhs.collect_refs(out);
                rhs.collect_refs(out);
            }
            Expr::Not(e) => e.collect_refs(out),
            Expr::And(es) | Expr::Or(es) => {
                for e in es {
                    e.collect_refs(out);
                }
            }
        }
    }

    /// Number of AST nodes (used to bound propagation cost).
    pub fn size(&self) -> usize {
        match self {
            Expr::Lit(_) | Expr::Truthy(_) | Expr::IsNull(_) => 1,
            Expr::Cmp { .. } => 1,
            Expr::Not(e) => 1 + e.size(),
            Expr::And(es) | Expr::Or(es) => 1 + es.iter().map(Expr::size).sum::<usize>(),
        }
    }

    /// Three-valued evaluation against a (possibly partial) environment.
    ///
    /// Guarantee (monotonicity): if this returns `True` or `False`, then
    /// evaluation against any refinement of `env` — in particular the
    /// complete snapshot — returns the same answer. Property-tested in
    /// this crate's test suite.
    pub fn eval<E: ValueEnv + ?Sized>(&self, env: &E) -> Tri {
        match self {
            Expr::Lit(b) => Tri::from_bool(*b),
            Expr::Truthy(a) => match env.view(*a) {
                AttrView::Unstable => Tri::Unknown,
                AttrView::Stable(v) => Tri::from_bool(v.truthy()),
            },
            Expr::IsNull(a) => match env.view(*a) {
                AttrView::Unstable => Tri::Unknown,
                AttrView::Stable(v) => Tri::from_bool(v.is_null()),
            },
            Expr::Cmp { op, lhs, rhs } => {
                let l = match term_view(lhs, env) {
                    None => return Tri::Unknown,
                    Some(v) => v,
                };
                let r = match term_view(rhs, env) {
                    None => return Tri::Unknown,
                    Some(v) => v,
                };
                Tri::from_bool(cmp_values(*op, l, r))
            }
            Expr::Not(e) => e.eval(env).not(),
            Expr::And(es) => {
                let mut acc = Tri::True;
                for e in es {
                    acc = acc.and(e.eval(env));
                    if acc == Tri::False {
                        break; // short-circuit: decided regardless of rest
                    }
                }
                acc
            }
            Expr::Or(es) => {
                let mut acc = Tri::False;
                for e in es {
                    acc = acc.or(e.eval(env));
                    if acc == Tri::True {
                        break;
                    }
                }
                acc
            }
        }
    }

    /// Two-valued evaluation against a *complete* environment (every
    /// referenced attribute stable). Panics if anything is unstable —
    /// callers use this only on complete snapshots.
    pub fn eval_complete<E: ValueEnv + ?Sized>(&self, env: &E) -> bool {
        match self.eval(env) {
            Tri::True => true,
            Tri::False => false,
            Tri::Unknown => panic!("eval_complete on a partial environment"),
        }
    }
}

/// A comparison between two stable operands. ⊥ or incomparable types
/// decide `False`, including for `Ne`, which is otherwise the negation
/// of `Eq` (SQL-like: ⊥ != x is unknown in SQL, but the paper requires
/// decidability once stable, so it is grounded to `False`).
pub(crate) fn cmp_values(op: CmpOp, l: &Value, r: &Value) -> bool {
    match op {
        CmpOp::Eq => l.loose_eq(r) == Some(true),
        CmpOp::Ne => l.loose_eq(r) == Some(false),
        _ => l.partial_cmp_val(r).is_some_and(|ord| op.apply(ord)),
    }
}

fn term_view<'e, E: ValueEnv + ?Sized>(term: &'e Term, env: &'e E) -> Option<&'e Value> {
    match term {
        Term::Const(v) => Some(v),
        Term::Attr(a) => match env.view(*a) {
            AttrView::Unstable => None,
            AttrView::Stable(v) => Some(v),
        },
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Lit(b) => write!(f, "{b}"),
            Expr::Truthy(a) => write!(f, "a{}", a.index()),
            Expr::IsNull(a) => write!(f, "isnull(a{})", a.index()),
            Expr::Cmp { op, lhs, rhs } => {
                let t = |t: &Term| match t {
                    Term::Const(v) => v.to_string(),
                    Term::Attr(a) => format!("a{}", a.index()),
                };
                write!(f, "{} {op} {}", t(lhs), t(rhs))
            }
            Expr::Not(e) => write!(f, "!({e})"),
            Expr::And(es) => {
                write!(f, "(")?;
                for (i, e) in es.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ∧ ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, ")")
            }
            Expr::Or(es) => {
                write!(f, "(")?;
                for (i, e) in es.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ∨ ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, ")")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn aid(i: usize) -> AttrId {
        AttrId::from_index(i)
    }

    fn env(vals: Vec<Option<Value>>) -> Vec<Option<Value>> {
        vals
    }

    #[test]
    fn kleene_tables() {
        use Tri::*;
        assert_eq!(True.and(Unknown), Unknown);
        assert_eq!(False.and(Unknown), False);
        assert_eq!(Unknown.and(Unknown), Unknown);
        assert_eq!(True.or(Unknown), True);
        assert_eq!(False.or(Unknown), Unknown);
        assert_eq!(Unknown.not(), Unknown);
        assert_eq!(True.not(), False);
        assert!(True.is_decided());
        assert!(!Unknown.is_decided());
        assert_eq!(True.as_bool(), Some(true));
        assert_eq!(Unknown.as_bool(), None);
    }

    #[test]
    fn unstable_attr_is_unknown() {
        let e = Expr::cmp_const(aid(0), CmpOp::Lt, 10i64);
        let partial = env(vec![None]);
        assert_eq!(e.eval(partial.as_slice()), Tri::Unknown);
    }

    #[test]
    fn stable_null_decides_false() {
        let e = Expr::cmp_const(aid(0), CmpOp::Lt, 10i64);
        let stable_null = env(vec![Some(Value::Null)]);
        assert_eq!(e.eval(stable_null.as_slice()), Tri::False);
        // And Eq/Ne against ⊥ are also decided.
        let eq = Expr::cmp_const(aid(0), CmpOp::Eq, 10i64);
        let ne = Expr::cmp_const(aid(0), CmpOp::Ne, 10i64);
        assert_eq!(eq.eval(stable_null.as_slice()), Tri::False);
        assert_eq!(ne.eval(stable_null.as_slice()), Tri::False);
    }

    #[test]
    fn is_null_detects_disabled() {
        let e = Expr::IsNull(aid(0));
        assert_eq!(e.eval(env(vec![None]).as_slice()), Tri::Unknown);
        assert_eq!(e.eval(env(vec![Some(Value::Null)]).as_slice()), Tri::True);
        assert_eq!(
            e.eval(env(vec![Some(Value::Int(1))]).as_slice()),
            Tri::False
        );
    }

    #[test]
    fn conjunction_short_circuits_on_false() {
        // a0 unstable, a1 stable and failing: AND must decide False.
        let e = Expr::And(vec![
            Expr::cmp_const(aid(1), CmpOp::Gt, 100i64),
            Expr::cmp_const(aid(0), CmpOp::Lt, 10i64),
        ]);
        let partial = env(vec![None, Some(Value::Int(5))]);
        assert_eq!(e.eval(partial.as_slice()), Tri::False);
    }

    #[test]
    fn disjunction_short_circuits_on_true() {
        let e = Expr::Or(vec![
            Expr::cmp_const(aid(1), CmpOp::Lt, 100i64),
            Expr::cmp_const(aid(0), CmpOp::Lt, 10i64),
        ]);
        let partial = env(vec![None, Some(Value::Int(5))]);
        assert_eq!(e.eval(partial.as_slice()), Tri::True);
    }

    #[test]
    fn paper_example_db_load_short_circuit() {
        // "at least one coat has score > 80 OR db load < 95%": knowing
        // db_load=90 alone decides the condition True even though the
        // hit-list score is not computed yet (§4's motivating example
        // runs the other way: db_load decides the inventory check).
        let score = aid(0);
        let db_load = aid(1);
        let cond =
            Expr::cmp_const(score, CmpOp::Gt, 80i64).or(Expr::cmp_const(db_load, CmpOp::Lt, 95i64));
        let partial = env(vec![None, Some(Value::Int(90))]);
        assert_eq!(cond.eval(partial.as_slice()), Tri::True);
    }

    #[test]
    fn references_collects_all_attrs() {
        let e = Expr::And(vec![
            Expr::cmp_attrs(aid(3), CmpOp::Le, aid(1)),
            Expr::Or(vec![Expr::Truthy(aid(2)), Expr::IsNull(aid(3))]),
            Expr::Not(Box::new(Expr::Lit(false))),
        ]);
        let refs: Vec<usize> = e.references().iter().map(|a| a.index()).collect();
        assert_eq!(refs, vec![1, 2, 3]);
    }

    #[test]
    fn size_counts_nodes() {
        let e = Expr::And(vec![
            Expr::Lit(true),
            Expr::Not(Box::new(Expr::Truthy(aid(0)))),
        ]);
        assert_eq!(e.size(), 4);
    }

    #[test]
    fn builders_flatten() {
        let a = Expr::Truthy(aid(0));
        let b = Expr::Truthy(aid(1));
        let c = Expr::Truthy(aid(2));
        match a.clone().and(b.clone()).and(c.clone()) {
            Expr::And(es) => assert_eq!(es.len(), 3),
            other => panic!("expected flat And, got {other:?}"),
        }
        match a.clone().or(b).or(c) {
            Expr::Or(es) => assert_eq!(es.len(), 3),
            other => panic!("expected flat Or, got {other:?}"),
        }
        // Identity elements vanish.
        assert_eq!(Expr::Lit(true).and(a.clone()), a);
        assert_eq!(Expr::Lit(false).or(a.clone()), a);
    }

    #[test]
    fn incomparable_types_decide_false() {
        let e = Expr::cmp_const(aid(0), CmpOp::Lt, 10i64);
        let v = env(vec![Some(Value::str("not a number"))]);
        assert_eq!(e.eval(v.as_slice()), Tri::False);
    }

    #[test]
    #[should_panic(expected = "partial environment")]
    fn eval_complete_rejects_partial() {
        let e = Expr::Truthy(aid(0));
        let partial = env(vec![None]);
        e.eval_complete(partial.as_slice());
    }

    #[test]
    fn display_is_readable() {
        let e = Expr::cmp_const(aid(0), CmpOp::Lt, 10i64).and(Expr::IsNull(aid(1)));
        assert_eq!(e.to_string(), "(a0 < 10 ∧ isnull(a1))");
    }
}
