//! The runtime evaluates enabling conditions incrementally: each schema
//! compiles its conditions into one node array, and an instance
//! evaluates a predicate only when the attributes it reads stabilize.
//! The verdict it reads must be exactly what `Expr::eval` says over the
//! same snapshot, or eager decisions (and with them work, waste and
//! journals) would change.
//!
//! The drivers below complete in-flight tasks in a seeded random order
//! and, after construction and after every completion, compare
//! `InstanceRuntime::verdict` with `Expr::eval` for every attribute.
//! Debug builds also check the same equality inside the runtime at
//! every point where it consults a verdict mid-propagation. A second
//! property checks that the O(1) `in_flight_count` matches a recount.

use std::sync::Arc;

use decision_flows::dflowgen::{generate, PatternParams};
use decision_flows::prelude::{
    complete_snapshot, AttrId, AttrState, CmpOp, Expr, FinalState, InstanceRuntime, Schema,
    SchemaBuilder, SourceValues, Strategy as EngineStrategy, Task, Term, Value,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Every attribute's incremental verdict equals `Expr::eval` now.
fn assert_verdicts(schema: &Schema, rt: &InstanceRuntime, when: &str) {
    for a in schema.attr_ids() {
        let expr = &schema.attr(a).enabling;
        assert_eq!(
            rt.verdict(a),
            expr.eval(rt),
            "{when}: verdict of {a:?} ({expr}) under {}",
            rt.strategy()
        );
    }
}

/// In-flight tasks recounted from the per-attribute flags.
fn recount(schema: &Schema, rt: &InstanceRuntime) -> usize {
    schema.attr_ids().filter(|&a| rt.is_in_flight(a)).count()
}

/// Run one instance to completion, launching what the strategy selects
/// and completing a random in-flight task at every step; check verdicts
/// and the in-flight count after every step, and the targets at the end.
fn drive(schema: &Arc<Schema>, strategy: EngineStrategy, sources: &SourceValues, rng: &mut StdRng) {
    let mut rt = InstanceRuntime::new(Arc::clone(schema), strategy, sources).expect("sources ok");
    assert_verdicts(schema, &rt, "after construction");
    let mut in_flight: Vec<(AttrId, Value)> = Vec::new();
    let mut cands = Vec::new();
    loop {
        if !rt.is_complete() {
            rt.candidates_into(&mut cands);
            decision_flows::decisionflow::engine::scheduler::select_into(
                schema,
                strategy,
                &mut cands,
                rt.in_flight_count(),
            );
            for &a in &cands {
                let inputs = rt.launch(a);
                in_flight.push((a, schema.attr(a).task.compute(&inputs)));
                assert_eq!(rt.in_flight_count(), recount(schema, &rt));
            }
        }
        if in_flight.is_empty() {
            break;
        }
        let (a, v) = in_flight.swap_remove(rng.gen_range(0..in_flight.len()));
        rt.complete(a, v);
        assert_eq!(rt.in_flight_count(), in_flight.len());
        assert_eq!(rt.in_flight_count(), recount(schema, &rt));
        assert_verdicts(schema, &rt, "after a completion");
    }
    assert!(rt.is_complete(), "stalled: {:?}", rt.stalled());
    // Targets agree with the oracle; values compare by fingerprint so
    // that a NaN target equals itself.
    let snap = complete_snapshot(schema, sources).expect("sources ok");
    for &t in schema.targets() {
        let got = rt.stable_value(t).map(Value::fingerprint);
        let want = (snap.state(t) == FinalState::Value).then(|| snap.value(t).fingerprint());
        assert_eq!(
            got.filter(|_| rt.state(t) == AttrState::Value),
            want,
            "{strategy} diverged from the oracle on {t:?}"
        );
    }
}

fn strategies() -> Vec<EngineStrategy> {
    [0u8, 50, 100]
        .into_iter()
        .flat_map(EngineStrategy::all_at)
        .collect()
}

#[test]
fn dflowgen_flows_under_all_strategies() {
    let mut rng = StdRng::seed_from_u64(0xC0D);
    for (i, pct_enabled) in [25u32, 50, 75, 100].into_iter().enumerate() {
        let params = PatternParams {
            nb_nodes: 32,
            nb_rows: 4,
            pct_enabled,
            ..PatternParams::default()
        };
        for seed in 0..6u64 {
            let g = generate(params, seed * 31 + i as u64).expect("valid pattern");
            let source = g.schema.sources()[0];
            let mut bindings = vec![g.sources.clone()];
            for _ in 0..2 {
                let mut sv = SourceValues::new();
                sv.set(
                    source,
                    Value::Float(rng.gen_range(0..10_000) as f64 / 100.0),
                );
                bindings.push(sv);
            }
            for sv in &bindings {
                for s in strategies() {
                    drive(&g.schema, s, sv, &mut rng);
                }
            }
        }
    }
}

/// A condition over earlier attributes, generated by proptest and then
/// resolved against the schema under construction.
#[derive(Debug, Clone)]
enum CondPlan {
    Lit(bool),
    Truthy(usize),
    IsNull(usize),
    CmpConst(usize, u8, u8),
    CmpAttrs(usize, u8, usize),
    ConstCmp(u8, u8, usize),
    Not(Box<CondPlan>),
    And(Vec<CondPlan>),
    Or(Vec<CondPlan>),
}

fn arb_cond(depth: u32) -> BoxedStrategy<CondPlan> {
    let leaf = prop_oneof![
        any::<bool>().prop_map(CondPlan::Lit),
        any::<usize>().prop_map(CondPlan::Truthy),
        any::<usize>().prop_map(CondPlan::IsNull),
        (any::<usize>(), any::<u8>(), any::<u8>())
            .prop_map(|(a, o, c)| CondPlan::CmpConst(a, o, c)),
        (any::<usize>(), any::<u8>(), any::<usize>())
            .prop_map(|(a, o, b)| CondPlan::CmpAttrs(a, o, b)),
        (any::<u8>(), any::<u8>(), any::<usize>())
            .prop_map(|(c, o, a)| CondPlan::ConstCmp(c, o, a)),
    ];
    if depth == 0 {
        leaf.boxed()
    } else {
        prop_oneof![
            3 => leaf,
            1 => arb_cond(depth - 1).prop_map(|e| CondPlan::Not(Box::new(e))),
            1 => prop::collection::vec(arb_cond(depth - 1), 0..4).prop_map(CondPlan::And),
            1 => prop::collection::vec(arb_cond(depth - 1), 0..4).prop_map(CondPlan::Or),
        ]
        .boxed()
    }
}

fn op(o: u8) -> CmpOp {
    [
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
    ][o as usize % 6]
}

/// Operand values of every kind the condition language meets: ⊥,
/// strings, booleans, integers, floats and NaN.
fn value_of(code: u8) -> Value {
    match code % 7 {
        0 => Value::Null,
        1 => Value::str(["", "a", "b"][code as usize % 3]),
        2 => Value::Bool(code.is_multiple_of(2)),
        3 => Value::Int(code as i64 % 5 - 2),
        4 => Value::Float((code % 5) as f64 - 1.5),
        5 => Value::Float(f64::NAN),
        _ => Value::Int(1),
    }
}

fn resolve(plan: &CondPlan, earlier: &[AttrId]) -> Expr {
    if earlier.is_empty() {
        return Expr::Lit(true);
    }
    let pick = |i: usize| earlier[i % earlier.len()];
    match plan {
        CondPlan::Lit(b) => Expr::Lit(*b),
        CondPlan::Truthy(i) => Expr::Truthy(pick(*i)),
        CondPlan::IsNull(i) => Expr::IsNull(pick(*i)),
        CondPlan::CmpConst(i, o, c) => Expr::cmp_const(pick(*i), op(*o), value_of(*c)),
        CondPlan::CmpAttrs(i, o, j) => Expr::cmp_attrs(pick(*i), op(*o), pick(*j)),
        CondPlan::ConstCmp(c, o, i) => Expr::Cmp {
            op: op(*o),
            lhs: Term::Const(value_of(*c)),
            rhs: Term::Attr(pick(*i)),
        },
        CondPlan::Not(e) => Expr::Not(Box::new(resolve(e, earlier))),
        CondPlan::And(es) => Expr::And(es.iter().map(|e| resolve(e, earlier)).collect()),
        CondPlan::Or(es) => Expr::Or(es.iter().map(|e| resolve(e, earlier)).collect()),
    }
}

/// Two sources, then one attribute per plan, each returning a value of
/// the planned kind under a condition over earlier attributes; the
/// last attribute and every third one are targets.
fn build(
    plans: &[(CondPlan, u8, u64, usize)],
    source_codes: (u8, u8),
) -> (Arc<Schema>, SourceValues) {
    let mut b = SchemaBuilder::new();
    let mut sv = SourceValues::new();
    let mut ids = Vec::new();
    for (k, code) in [source_codes.0, source_codes.1].into_iter().enumerate() {
        let s = b.source(format!("s{k}"));
        sv.set(s, value_of(code));
        ids.push(s);
    }
    for (i, (cond, code, cost, input)) in plans.iter().enumerate() {
        let v = value_of(*code);
        let inputs = vec![ids[*input % ids.len()]];
        let a = b.attr(
            format!("q{i}"),
            Task::query(*cost, move |_| v.clone()),
            inputs,
            resolve(cond, &ids),
        );
        if i % 3 == 2 || i + 1 == plans.len() {
            b.mark_target(a);
        }
        ids.push(a);
    }
    (Arc::new(b.build().expect("acyclic by construction")), sv)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Nested `Not`/`And`/`Or` (empty ones too), `IsNull`/`Truthy`,
    /// attribute-against-attribute and constant-against-attribute
    /// comparisons over ⊥, `Str`, `Bool` and NaN operands.
    #[test]
    fn hand_built_conditions_follow_eval(
        plans in prop::collection::vec((arb_cond(3), any::<u8>(), 0u64..4, any::<usize>()), 1..12),
        sources in (any::<u8>(), any::<u8>()),
        seed in any::<u64>(),
    ) {
        let (schema, sv) = build(&plans, sources);
        let mut rng = StdRng::seed_from_u64(seed);
        for s in strategies() {
            drive(&schema, s, &sv, &mut rng);
        }
    }
}
