//! Seeded inputs: dflowgen flows with source variants, hand-built
//! multi-arm flows with per-label source walks, and the
//! complete-snapshot oracle for every input, computed at set-up.

use std::sync::Arc;
use std::time::{Duration, Instant};

use decisionflow::engine::{InstanceRuntime, Strategy};
use decisionflow::prelude::{
    complete_snapshot, AttrId, AttrState, CmpOp, Expr, FinalState, Schema, SchemaBuilder,
    SourceValues, Task, Value,
};
use decisionflow::report::ExecutionRecord;
use dflowgen::PatternParams;

/// SplitMix64: the benchmark's only source of randomness.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and a stream tag.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(mix(seed, stream))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0, 0)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A fair coin.
    pub fn coin(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }
}

/// A 64-bit finalizer mix of `h` and `x`.
pub fn mix(h: u64, x: u64) -> u64 {
    let mut z = h ^ x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The two strategies requests alternate between.
pub fn strategies() -> [Strategy; 2] {
    ["PCE100".parse().unwrap(), "PSE100".parse().unwrap()]
}

/// The oracle's verdict on one target attribute.
#[derive(Clone, Debug, PartialEq)]
pub enum Expect {
    /// Enabled, with this value.
    Value(Value),
    /// Disabled.
    Disabled,
}

/// Target verdicts of one input.
pub type Oracle = Vec<(AttrId, Expect)>;

/// Compute the oracle for `sources` from the complete snapshot.
pub fn oracle(schema: &Schema, sources: &SourceValues) -> Oracle {
    let snap = complete_snapshot(schema, sources).expect("benchmark inputs are valid");
    schema
        .targets()
        .iter()
        .map(|&t| {
            let e = match snap.state(t) {
                FinalState::Value => Expect::Value(snap.value(t).clone()),
                FinalState::Disabled => Expect::Disabled,
            };
            (t, e)
        })
        .collect()
}

fn agrees(expect: &Oracle, state: impl Fn(AttrId) -> (AttrState, Option<Value>)) -> bool {
    expect.iter().all(|(t, e)| match (state(*t), e) {
        ((AttrState::Value, Some(v)), Expect::Value(want)) => v == *want,
        ((AttrState::Disabled, _), Expect::Disabled) => true,
        _ => false,
    })
}

/// Does a server result's record match the oracle?
pub fn record_agrees(record: &ExecutionRecord, expect: &Oracle) -> bool {
    agrees(expect, |t| {
        let o = &record.attrs[t.index()];
        (o.state, o.value.clone())
    })
}

/// Does an in-process runtime match the oracle?
pub fn runtime_agrees(rt: &InstanceRuntime, expect: &Oracle) -> bool {
    agrees(expect, |t| (rt.state(t), rt.stable_value(t).cloned()))
}

/// A registered flow and every input the workload binds it with.
pub struct Flow {
    /// Registration name.
    pub name: String,
    /// The schema the server runs.
    pub schema: Arc<Schema>,
    /// Source bindings, one per variant.
    pub variants: Vec<SourceValues>,
    /// Oracle per variant.
    pub expect: Vec<Oracle>,
}

/// Seed of the dflowgen flow shapes. Shapes are a fixed corpus: with
/// them drawn per seed, the mean Work of 256 flows still moved ±4%
/// from seed to seed, more than a run's own spread. The run seed draws
/// the source bindings, the request order and the arrival times.
const SHAPE_SEED: u64 = 0x5EED;

/// `count` dflowgen flows (`nb_nodes` 32, `nb_rows` 4, `pct_enabled`
/// 75) with `variants` source bindings each: the canonical one and
/// seeded random others. With a non-zero `unit_delay`, task bodies
/// sleep `cost × unit_delay` before hashing.
pub fn dflowgen_flows(seed: u64, count: usize, variants: usize, unit_delay: Duration) -> Vec<Flow> {
    let params = PatternParams {
        nb_nodes: 32,
        nb_rows: 4,
        pct_enabled: 75,
        ..PatternParams::default()
    };
    let mut shapes = Rng::new(SHAPE_SEED, 0xF10);
    let mut rng = Rng::new(seed, 0xF11);
    (0..count)
        .map(|i| {
            let g = dflowgen::generate(params, shapes.next_u64()).expect("valid pattern");
            let source = g.schema.sources()[0];
            let mut vs = vec![g.sources.clone()];
            while vs.len() < variants {
                let mut s = SourceValues::new();
                s.set(source, Value::Float(rng.below(10_000) as f64 / 100.0));
                vs.push(s);
            }
            let expect = vs.iter().map(|s| oracle(&g.schema, s)).collect();
            let schema = if unit_delay.is_zero() {
                g.schema
            } else {
                g.with_unit_delay(unit_delay).schema
            };
            Flow {
                name: format!("f{i}"),
                schema,
                variants: vs,
                expect,
            }
        })
        .collect()
}

/// Deterministic CPU-bound body: `rounds` mixing steps over the inputs.
fn spin_hash(salt: u64, rounds: u32, ins: &[Value]) -> Value {
    let mut h = salt;
    for v in ins {
        h = mix(h, v.fingerprint());
    }
    for r in 0..rounds {
        h = mix(h, u64::from(r));
    }
    Value::Float((h % 10_000) as f64 / 100.0)
}

/// Arms per multi-arm flow.
pub const ARMS: usize = 6;

/// Distinct values each arm's source takes: wide, so a rebound arm
/// computes afresh unless it returns to a recent binding.
const SOURCE_POOL: i64 = 1 << 20;

/// A flow of [`ARMS`] independent arms joined by one target; every body
/// busy-waits `delay` on the clock, then hashes. Arm `i`:
/// `x0 = h(s_i)`, `x1 = h(x0)`, `x2 = h(x0)` enabled iff `x1 < 60`
/// (ready before its condition is decided, so speculation can waste
/// it), `x3 = h(x1, x2)`; the target hashes every `x3`. Rebinding one
/// source re-executes one arm and the target. Attribute names carry
/// `idx`, so flows differ in schema fingerprint as well as in bodies:
/// the snapshot store and the memo table key on the fingerprint.
pub fn armed_schema(idx: usize, salt: u64, rounds: u32, delay: Duration) -> Arc<Schema> {
    let mut b = SchemaBuilder::new();
    let body = |k: u64| {
        let s = mix(salt, k);
        Task::query(1, move |ins: &[Value]| {
            let until = Instant::now() + delay;
            while Instant::now() < until {
                std::hint::spin_loop();
            }
            spin_hash(s, rounds, ins)
        })
    };
    let mut tips = Vec::new();
    for i in 0..ARMS as u64 {
        let s = b.source(format!("m{idx}_s{i}"));
        let x0 = b.attr(
            format!("m{idx}_x{i}_0"),
            body(i * 8),
            vec![s],
            Expr::Lit(true),
        );
        let x1 = b.attr(
            format!("m{idx}_x{i}_1"),
            body(i * 8 + 1),
            vec![x0],
            Expr::Lit(true),
        );
        let x2 = b.attr(
            format!("m{idx}_x{i}_2"),
            body(i * 8 + 2),
            vec![x0],
            Expr::cmp_const(x1, CmpOp::Lt, 60.0),
        );
        let x3 = b.attr(
            format!("m{idx}_x{i}_3"),
            body(i * 8 + 3),
            vec![x1, x2],
            Expr::Lit(true),
        );
        tips.push(x3);
    }
    let t = b.attr(format!("m{idx}_join"), body(999), tips, Expr::Lit(true));
    b.mark_target(t);
    Arc::new(b.build().expect("multi-arm flow is well-formed"))
}

/// One label of the resubmission workload: a flow and a walk of source
/// bindings in which consecutive steps differ in exactly one source.
pub struct Label {
    /// The label string.
    pub name: String,
    /// Index of its flow.
    pub flow: usize,
    /// Walk positions `0..=M`.
    pub walk: Vec<SourceValues>,
    /// Oracle per walk position.
    pub expect: Vec<Oracle>,
}

impl Label {
    /// Walk position of the label's `n`-th submission. Every step
    /// rebinds one source; a run that outlasts the walk stops here
    /// rather than turn back into bindings it has seen.
    pub fn position(&self, n: usize) -> usize {
        assert!(
            n < self.walk.len(),
            "label {} submitted {} times, past its walk of {} positions",
            self.name,
            n + 1,
            self.walk.len()
        );
        n
    }
}

/// `labels` labels spread over `flows` schemas, each with a walk of
/// `steps` one-source rebinds.
pub fn labels(seed: u64, schemas: &[Arc<Schema>], labels: usize, steps: usize) -> Vec<Label> {
    let mut rng = Rng::new(seed, 0x1ABE1);
    (0..labels)
        .map(|l| {
            let flow = l % schemas.len();
            let schema = &schemas[flow];
            let srcs = schema.sources().to_vec();
            let mut cur: Vec<i64> = srcs
                .iter()
                .map(|_| rng.below(SOURCE_POOL as usize) as i64)
                .collect();
            let bind = |vals: &[i64]| {
                let mut s = SourceValues::new();
                for (&a, &v) in srcs.iter().zip(vals) {
                    s.set(a, Value::Int(v));
                }
                s
            };
            let mut prev = cur.clone();
            let mut walk = vec![bind(&cur)];
            for _ in 0..steps {
                // Half the steps put an arm back to its previous value,
                // which the memo table still holds; half draw a fresh one.
                let arm = rng.below(srcs.len());
                let next = if rng.coin() && prev[arm] != cur[arm] {
                    prev[arm]
                } else {
                    (cur[arm] + 1 + rng.below(SOURCE_POOL as usize - 1) as i64) % SOURCE_POOL
                };
                prev[arm] = cur[arm];
                cur[arm] = next;
                walk.push(bind(&cur));
            }
            let expect = walk.iter().map(|s| oracle(schema, s)).collect();
            Label {
                name: format!("entity-{l}"),
                flow,
                walk,
                expect,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walk_steps_rebind_one_source() {
        let schema = armed_schema(0, 1, 4, Duration::ZERO);
        let ls = labels(7, &[Arc::clone(&schema)], 1, 3);
        let l = &ls[0];
        assert_eq!(l.walk.len(), 4);
        assert_eq!(
            (0..4).map(|n| l.position(n)).collect::<Vec<_>>(),
            [0, 1, 2, 3]
        );
        assert!(std::panic::catch_unwind(|| l.position(4)).is_err());
        // Consecutive walk steps differ in exactly one source.
        for w in l.walk.windows(2) {
            let diff = schema
                .sources()
                .iter()
                .filter(|&&a| w[0].get(a) != w[1].get(a))
                .count();
            assert_eq!(diff, 1);
        }
    }

    #[test]
    fn oracle_matches_in_process_runs() {
        let flows = dflowgen_flows(3, 2, 3, Duration::ZERO);
        for f in &flows {
            for (v, e) in f.variants.iter().zip(&f.expect) {
                for s in strategies() {
                    let rt = InstanceRuntime::new(f.schema.clone(), s, v).unwrap();
                    let out = decisionflow::prelude::Request::with_schema(f.schema.clone())
                        .sources(v.clone())
                        .strategy(s)
                        .run()
                        .unwrap();
                    assert!(runtime_agrees(&out.outcome.runtime, e));
                    drop(rt);
                }
            }
        }
    }
}
