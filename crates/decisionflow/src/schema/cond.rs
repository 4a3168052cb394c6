//! Enabling conditions compiled for incremental Kleene evaluation.
//!
//! [`SchemaBuilder::build`](super::SchemaBuilder::build) flattens every
//! enabling condition into one node array shared by all instances:
//!
//! * leaves — `Truthy`, `IsNull` and `Cmp`, each with its attribute
//!   operands, and `Lit` for a condition that folds to a constant;
//! * inner nodes — `And`/`Or` with their child count, and `Not`;
//! * per attribute, the leaves that read it.
//!
//! An instance keeps one [`Slot`] per node. When an attribute
//! stabilizes, only the leaves that read it are evaluated, and a
//! decided leaf settles its ancestors by counting: an `And` decides
//! `False` on its first `False` child and `True` once no child is
//! open (dually for `Or`). Every node decides at most once, so an
//! instance evaluates each predicate at most once, and the verdict of a
//! condition's root always equals [`Expr::eval`] of that condition over
//! the instance's current snapshot.

use crate::expr::{cmp_values, CmpOp, Expr, Term, Tri};
use crate::schema::{AttrDef, AttrId, Lists};
use crate::state::AttrState;
use crate::value::Value;

const NO_PARENT: u32 = u32::MAX;
/// Operand encoding: an attribute index, or with this bit set an index
/// into [`CondGraph::consts`].
const CONST_BIT: u32 = 1 << 31;

#[derive(Clone, Copy, Debug)]
enum Kind {
    Lit(bool),
    Truthy(u32),
    IsNull(u32),
    Cmp(CmpOp, u32, u32),
    /// Child count.
    And(u32),
    /// Child count.
    Or(u32),
    Not,
}

#[derive(Clone, Copy, Debug)]
struct Node {
    parent: u32,
    kind: Kind,
}

/// One node's state within an instance: 0 is `False`, 1 is `True`, and
/// `k ≥ 2` is undecided with `k − 2` children still open.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Slot(u32);

impl Slot {
    fn decided(b: bool) -> Slot {
        Slot(b as u32)
    }

    fn open(children: u32) -> Slot {
        Slot(children + 2)
    }

    fn is_decided(self) -> bool {
        self.0 < 2
    }

    fn verdict(self) -> Tri {
        match self.0 {
            0 => Tri::False,
            1 => Tri::True,
            _ => Tri::Unknown,
        }
    }
}

/// Every enabling condition of a schema as one node array (see the
/// module docs).
pub(crate) struct CondGraph {
    nodes: Box<[Node]>,
    /// The slots of a fresh instance, copied at reset so a build does
    /// not walk the node array.
    init: Box<[Slot]>,
    consts: Box<[Value]>,
    /// `roots[a]` is the node of `a`'s condition.
    roots: Box<[u32]>,
    /// The leaves reading each attribute, in node order.
    readers: Lists<u32>,
}

impl CondGraph {
    /// Flatten the conditions of `attrs`, whose references were
    /// already checked to be in range.
    pub(crate) fn compile(attrs: &[AttrDef]) -> CondGraph {
        let mut c = Compiler {
            readers: vec![Vec::new(); attrs.len()],
            ..Compiler::default()
        };
        let roots = attrs
            .iter()
            .map(|def| c.add(&def.enabling, NO_PARENT))
            .collect();
        let init = c
            .nodes
            .iter()
            .map(|n| match n.kind {
                Kind::Lit(b) => Slot::decided(b),
                Kind::And(k) | Kind::Or(k) => Slot::open(k),
                _ => Slot::open(0),
            })
            .collect();
        CondGraph {
            init,
            nodes: c.nodes.into(),
            consts: c.consts.into(),
            roots,
            readers: Lists::new(c.readers.iter().map(Vec::as_slice)),
        }
    }

    /// Reset `slots` to a fresh instance: nothing stable yet, constant
    /// conditions decided.
    pub(crate) fn reset(&self, slots: &mut Vec<Slot>) {
        slots.clear();
        slots.extend_from_slice(&self.init);
    }

    /// The verdict of `a`'s condition: [`Expr::eval`] over the snapshot
    /// that `slots` has followed.
    pub(crate) fn verdict(&self, slots: &[Slot], a: AttrId) -> Tri {
        slots[self.roots[a.index()] as usize].verdict()
    }

    /// Attribute `a` just stabilized (`state[a]` is stable and
    /// `values[a]` final): evaluate the undecided leaves that read it.
    pub(crate) fn stabilized(
        &self,
        slots: &mut [Slot],
        a: AttrId,
        state: &[AttrState],
        values: &[Value],
    ) {
        for &leaf in self.readers.get(a.index()) {
            let node = self.nodes[leaf as usize];
            // A decided parent no longer listens to this leaf.
            if node.parent != NO_PARENT && slots[node.parent as usize].is_decided() {
                continue;
            }
            let verdict = match node.kind {
                Kind::Truthy(x) => values[x as usize].truthy(),
                Kind::IsNull(x) => values[x as usize].is_null(),
                Kind::Cmp(op, l, r) => {
                    let operand = |o: u32| {
                        if o & CONST_BIT != 0 {
                            Some(&self.consts[(o & !CONST_BIT) as usize])
                        } else if state[o as usize].is_stable() {
                            Some(&values[o as usize])
                        } else {
                            None
                        }
                    };
                    match (operand(l), operand(r)) {
                        (Some(l), Some(r)) => cmp_values(op, l, r),
                        _ => continue, // the other operand is still unstable
                    }
                }
                Kind::Lit(_) | Kind::And(_) | Kind::Or(_) | Kind::Not => {
                    unreachable!("only leaves read attributes")
                }
            };
            self.settle(slots, leaf, verdict);
        }
    }

    /// Decide `node` and carry the decision up while it decides
    /// ancestors.
    fn settle(&self, slots: &mut [Slot], mut node: u32, mut verdict: bool) {
        loop {
            slots[node as usize] = Slot::decided(verdict);
            let parent = self.nodes[node as usize].parent;
            if parent == NO_PARENT {
                return;
            }
            let slot = &mut slots[parent as usize];
            if slot.is_decided() {
                return;
            }
            match self.nodes[parent as usize].kind {
                Kind::Not => verdict = !verdict,
                // A child that agrees with the identity element only
                // closes; the absorbing element decides the parent.
                Kind::And(_) | Kind::Or(_) => {
                    let absorbing = matches!(self.nodes[parent as usize].kind, Kind::Or(_));
                    if verdict != absorbing {
                        slot.0 -= 1;
                        if slot.0 > 2 {
                            return; // children still open
                        }
                    }
                }
                Kind::Lit(_) | Kind::Truthy(_) | Kind::IsNull(_) | Kind::Cmp(..) => {
                    unreachable!("leaves have no children")
                }
            }
            node = parent;
        }
    }
}

#[derive(Default)]
struct Compiler {
    nodes: Vec<Node>,
    consts: Vec<Value>,
    /// Per attribute, the leaves that read it, in node order.
    readers: Vec<Vec<u32>>,
}

impl Compiler {
    /// Append `e` (constants folded) under `parent`; returns its node.
    fn add(&mut self, e: &Expr, parent: u32) -> u32 {
        if let Some(b) = constant(e) {
            return self.push(parent, Kind::Lit(b));
        }
        match e {
            Expr::Lit(_) => unreachable!("folded above"),
            Expr::Truthy(a) => self.leaf(parent, Kind::Truthy(attr(*a)), &[*a]),
            Expr::IsNull(a) => self.leaf(parent, Kind::IsNull(attr(*a)), &[*a]),
            Expr::Cmp { op, lhs, rhs } => {
                let mut refs = Vec::with_capacity(2);
                let l = self.operand(lhs, &mut refs);
                let r = self.operand(rhs, &mut refs);
                refs.dedup();
                self.leaf(parent, Kind::Cmp(*op, l, r), &refs)
            }
            Expr::Not(inner) => {
                let me = self.push(parent, Kind::Not);
                self.add(inner, me);
                me
            }
            Expr::And(es) | Expr::Or(es) => {
                // Constant children are identities here: an absorbing
                // one would have folded the whole node.
                let open: Vec<&Expr> = es.iter().filter(|e| constant(e).is_none()).collect();
                let k = u32::try_from(open.len()).expect("condition too wide");
                let me = self.push(
                    parent,
                    if matches!(e, Expr::And(_)) {
                        Kind::And(k)
                    } else {
                        Kind::Or(k)
                    },
                );
                for child in open {
                    self.add(child, me);
                }
                me
            }
        }
    }

    fn push(&mut self, parent: u32, kind: Kind) -> u32 {
        let id = u32::try_from(self.nodes.len()).expect("condition graph too large");
        assert!(id != NO_PARENT, "condition graph too large");
        self.nodes.push(Node { parent, kind });
        id
    }

    fn leaf(&mut self, parent: u32, kind: Kind, refs: &[AttrId]) -> u32 {
        let me = self.push(parent, kind);
        for &a in refs {
            self.readers[a.index()].push(me);
        }
        me
    }

    fn operand(&mut self, t: &Term, refs: &mut Vec<AttrId>) -> u32 {
        match t {
            Term::Attr(a) => {
                refs.push(*a);
                attr(*a)
            }
            Term::Const(v) => {
                let i = u32::try_from(self.consts.len())
                    .ok()
                    .filter(|i| i & CONST_BIT == 0)
                    .expect("too many condition constants");
                self.consts.push(v.clone());
                i | CONST_BIT
            }
        }
    }
}

fn attr(a: AttrId) -> u32 {
    let i = a.index() as u32;
    assert!(i & CONST_BIT == 0, "attribute index out of operand range");
    i
}

/// The verdict of `e` if it reads no attribute that could change it.
fn constant(e: &Expr) -> Option<bool> {
    match e {
        Expr::Lit(b) => Some(*b),
        Expr::Truthy(_) | Expr::IsNull(_) => None,
        Expr::Cmp { op, lhs, rhs } => match (lhs, rhs) {
            (Term::Const(l), Term::Const(r)) => Some(cmp_values(*op, l, r)),
            _ => None,
        },
        Expr::Not(inner) => constant(inner).map(|b| !b),
        Expr::And(es) => fold(es, false),
        Expr::Or(es) => fold(es, true),
    }
}

/// Constant verdict of an `And` (`absorbing = false`) or `Or`
/// (`absorbing = true`): the absorbing element if any child is
/// constantly absorbing, the identity if every child is constant.
fn fold(es: &[Expr], absorbing: bool) -> Option<bool> {
    let mut all_constant = true;
    for e in es {
        match constant(e) {
            Some(b) if b == absorbing => return Some(absorbing),
            Some(_) => {}
            None => all_constant = false,
        }
    }
    all_constant.then_some(!absorbing)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::Task;

    fn aid(i: usize) -> AttrId {
        AttrId::from_index(i)
    }

    fn attrs(conds: Vec<Expr>) -> Vec<AttrDef> {
        conds
            .into_iter()
            .enumerate()
            .map(|(i, enabling)| AttrDef {
                name: format!("a{i}"),
                task: Task::const_query(1, 0i64),
                inputs: vec![],
                enabling,
                target: false,
            })
            .collect()
    }

    /// Stabilize attributes one at a time and compare every root with
    /// `Expr::eval` after each step.
    fn check(conds: Vec<Expr>, order: &[(usize, Value)]) {
        let defs = attrs(conds);
        let g = CondGraph::compile(&defs);
        let n = defs.len();
        let mut slots = Vec::new();
        g.reset(&mut slots);
        let mut state = vec![AttrState::Uninitialized; n];
        let mut values = vec![Value::Null; n];
        let mut env: Vec<Option<Value>> = vec![None; n];
        let agree = |slots: &[Slot], env: &[Option<Value>]| {
            for (i, d) in defs.iter().enumerate() {
                assert_eq!(
                    g.verdict(slots, aid(i)),
                    d.enabling.eval(env),
                    "condition {} over {env:?}",
                    d.enabling
                );
            }
        };
        agree(&slots, &env);
        for (a, v) in order {
            state[*a] = if v.is_null() {
                AttrState::Disabled
            } else {
                AttrState::Value
            };
            values[*a] = v.clone();
            env[*a] = Some(v.clone());
            g.stabilized(&mut slots, aid(*a), &state, &values);
            agree(&slots, &env);
        }
    }

    #[test]
    fn constants_fold_at_compile() {
        let defs = attrs(vec![
            Expr::Lit(true),
            Expr::And(vec![]),
            Expr::Or(vec![]),
            Expr::And(vec![Expr::Truthy(aid(0)), Expr::Lit(false)]),
            Expr::Not(Box::new(Expr::Cmp {
                op: CmpOp::Lt,
                lhs: Term::Const(Value::Int(1)),
                rhs: Term::Const(Value::Int(2)),
            })),
        ]);
        let g = CondGraph::compile(&defs);
        let mut slots = Vec::new();
        g.reset(&mut slots);
        let got: Vec<Tri> = (0..defs.len()).map(|i| g.verdict(&slots, aid(i))).collect();
        use Tri::*;
        assert_eq!(got, vec![True, True, False, False, False]);
        assert!(
            (0..defs.len()).all(|i| g.readers.get(i).is_empty()),
            "folded conditions read nothing"
        );
    }

    #[test]
    fn nested_connectives_follow_eval() {
        let x = aid(0);
        let y = aid(1);
        let z = aid(2);
        let conds = vec![
            Expr::Lit(true),
            Expr::Lit(true),
            Expr::Lit(true),
            Expr::Not(Box::new(Expr::And(vec![
                Expr::Or(vec![Expr::IsNull(x), Expr::Truthy(y)]),
                Expr::Not(Box::new(Expr::cmp_attrs(x, CmpOp::Le, z))),
                Expr::Lit(true),
            ]))),
            Expr::Or(vec![
                Expr::cmp_attrs(y, CmpOp::Eq, y),
                Expr::And(vec![Expr::cmp_const(z, CmpOp::Ne, "s"), Expr::IsNull(y)]),
            ]),
        ];
        check(
            conds.clone(),
            &[
                (1, Value::Bool(false)),
                (0, Value::Null),
                (2, Value::Float(f64::NAN)),
            ],
        );
        check(
            conds.clone(),
            &[(2, Value::str("s")), (0, Value::Int(3)), (1, Value::Int(0))],
        );
        check(
            conds,
            &[(0, Value::Int(1)), (2, Value::Int(2)), (1, Value::Null)],
        );
    }
}
