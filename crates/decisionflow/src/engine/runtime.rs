//! Per-instance runtime state and the **Propagation Algorithm**.
//!
//! This module implements the prequalifying phase of §4: it maintains
//! the extended snapshot (attribute states + values), performs *eager
//! evaluation* of enabling conditions under Kleene semantics, and runs
//! **forward propagation** (DISABLED/ENABLED facts flowing down the
//! graph) and **backward propagation** (detecting attributes whose
//! stabilization is no longer required for the targets — *unneeded*
//! attributes) incrementally as task results arrive.
//!
//! ### Cost
//!
//! Every dependency edge is "killed" at most once over the lifetime of
//! an instance, and each kill is O(1). Enabling conditions are compiled
//! at schema build into one node array (`schema::cond`): when an
//! attribute stabilizes, only the predicates that read it are
//! evaluated, and their verdicts settle the enclosing `And`/`Or`/`Not`
//! nodes by counting. Each predicate is therefore evaluated at most
//! once per instance and each connective decides at most once, so
//! condition evaluation costs O(total condition size) over the whole
//! instance, and reading a condition's verdict is O(1). The whole
//! algorithm is linear in the size of the decision flow, matching the
//! paper's claim; the `propagation_steps` metric exposes the actual step
//! count and a Criterion bench verifies linearity empirically.
//!
//! ### Neededness accounting
//!
//! `need_count[a]` counts the *live reasons* attribute `a` must still
//! stabilize:
//!
//! * one for each data edge `a → c` where consumer `c` is needed, has
//!   not produced a value, and whose condition is not decided false
//!   (if `c` may still run, its inputs must stabilize first — even to ⊥);
//! * one for each enabling edge `a → c` where `c` is needed and `c`'s
//!   condition is still undecided;
//! * one if `a` is a target that has not stabilized.
//!
//! Each reason dies exactly once (condition decided; task computed;
//! consumer unneeded; target stable), so counts only decrease — the
//! needed set shrinks monotonically. When a count reaches zero the
//! attribute is *unneeded*: it is evicted from the candidate pool and
//! its own in-edges are killed, cascading backwards.

use std::collections::VecDeque;
use std::sync::Arc;

use crate::engine::metrics::InstanceMetrics;
use crate::engine::scheduler;
use crate::engine::strategy::Strategy;
use crate::expr::{AttrView, Tri, ValueEnv};
use crate::journal::{Event, JournalSink};
use crate::schema::cond::Slot;
use crate::schema::{AttrId, Schema};
use crate::snapshot::{CompleteSnapshot, FinalState, SnapshotError, SourceValues};
use crate::state::AttrState;
use crate::value::Value;

/// Engine options beyond the paper's four strategy letters, used for
/// ablation studies.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RuntimeOptions {
    /// Disable backward propagation (unneeded detection) while keeping
    /// eager forward propagation — quantifies backward's contribution.
    pub disable_backward: bool,
}

/// Reusable allocation scratch for [`InstanceRuntime`] construction.
///
/// Building a runtime allocates a dozen per-attribute vectors; on the
/// server's submission hot path that cost is paid once per instance.
/// A scratch holds those buffers after an instance retires
/// ([`InstanceRuntime::reclaim`]) so the next construction on the same
/// shard ([`InstanceRuntime::with_options_retained_in`]) reuses the
/// capacity instead of round-tripping the allocator. A `Default`
/// scratch is empty and behaves exactly like allocating fresh.
#[derive(Default)]
pub struct RuntimeScratch {
    state: Vec<AttrState>,
    values: Vec<Value>,
    cond: Vec<Tri>,
    cond_slots: Vec<Slot>,
    pending_inputs: Vec<u32>,
    pending_refs: Vec<u32>,
    in_flight: Vec<bool>,
    need_count: Vec<u32>,
    enab_edges_dead: Vec<bool>,
    data_edges_dead: Vec<bool>,
    target_alive: Vec<bool>,
    pool: Vec<AttrId>,
    in_pool: Vec<bool>,
    stable_queue: VecDeque<AttrId>,
}

impl RuntimeScratch {
    /// Reset every buffer to the initial runtime state for `schema`,
    /// reusing existing capacity.
    fn reset(&mut self, schema: &Schema) {
        fn refill<T: Clone>(v: &mut Vec<T>, n: usize, x: T) {
            v.clear();
            v.resize(n, x);
        }
        let n = schema.len();
        refill(&mut self.state, n, AttrState::Uninitialized);
        refill(&mut self.values, n, Value::Null);
        refill(&mut self.cond, n, Tri::Unknown);
        schema.conds().reset(&mut self.cond_slots);
        refill(&mut self.pending_inputs, n, 0);
        refill(&mut self.pending_refs, n, 0);
        refill(&mut self.in_flight, n, false);
        refill(&mut self.need_count, n, 0);
        refill(&mut self.enab_edges_dead, n, false);
        refill(&mut self.data_edges_dead, n, false);
        refill(&mut self.target_alive, n, false);
        refill(&mut self.in_pool, n, false);
        self.pool.clear();
        self.stable_queue.clear();
    }
}

/// The runtime of one decision-flow instance.
pub struct InstanceRuntime {
    schema: Arc<Schema>,
    core: Core,
}

/// Everything mutable about an instance. Kept apart from the schema so
/// the propagation methods borrow `&Schema` next to `&mut Core` instead
/// of cloning the `Arc` on every call.
struct Core {
    strategy: Strategy,
    options: RuntimeOptions,

    state: Vec<AttrState>,
    /// Stable values (⊥ for DISABLED) and cached speculative results
    /// for COMPUTED attributes.
    values: Vec<Value>,
    /// The condition verdicts the runtime has acted on.
    cond: Vec<Tri>,
    /// Per-node state of the schema's compiled conditions: the live
    /// verdict of every condition over the current snapshot.
    cond_slots: Vec<Slot>,
    /// Unstable data inputs remaining, per attribute.
    pending_inputs: Vec<u32>,
    /// Unstable enabling references remaining, per attribute.
    pending_refs: Vec<u32>,
    in_flight: Vec<bool>,
    /// Number of `true` entries of `in_flight`.
    in_flight_count: usize,

    need_count: Vec<u32>,
    enab_edges_dead: Vec<bool>,
    data_edges_dead: Vec<bool>,
    target_alive: Vec<bool>,
    unstable_targets: u32,

    pool: Vec<AttrId>,
    in_pool: Vec<bool>,

    /// Newly stable attributes awaiting propagation.
    stable_queue: VecDeque<AttrId>,
    /// Attributes adopted pre-stabilized from a prior snapshot
    /// ([`InstanceRuntime::with_options_retained`]); 0 on cold runs.
    retained: u32,
    metrics: InstanceMetrics,
    /// Flight recorder for the journal subsystem. `None` (the default)
    /// keeps the hot path at a single branch per event site.
    sink: Option<Box<dyn JournalSink>>,
    /// Number of the next journaled `Round` frame: counts the rounds
    /// [`InstanceRuntime::round`] recorded so far.
    rounds: u32,
}

/// The runtime cannot make progress although targets are unstable —
/// indicates a schema or engine invariant violation (never expected on
/// validated schemas; surfaced as an error for diagnosability).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stalled {
    /// Targets still unstable at the stall.
    pub unstable_targets: Vec<String>,
}

impl std::fmt::Display for Stalled {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "execution stalled with unstable targets: {:?}",
            self.unstable_targets
        )
    }
}

impl std::error::Error for Stalled {}

impl ValueEnv for InstanceRuntime {
    fn view(&self, a: AttrId) -> AttrView<'_> {
        self.core.view(a)
    }
}

impl ValueEnv for Core {
    fn view(&self, a: AttrId) -> AttrView<'_> {
        if self.state[a.index()].is_stable() {
            AttrView::Stable(&self.values[a.index()])
        } else {
            AttrView::Unstable
        }
    }
}

impl InstanceRuntime {
    /// Create the runtime for one instance: binds source values,
    /// initializes the needed counts, and runs initial propagation
    /// (source stabilization + eager evaluation of every condition
    /// decidable from constants and sources alone).
    pub fn new(
        schema: Arc<Schema>,
        strategy: Strategy,
        sources: &SourceValues,
    ) -> Result<Self, SnapshotError> {
        Self::with_options(schema, strategy, sources, RuntimeOptions::default())
    }

    /// Like [`InstanceRuntime::new`] with explicit ablation options.
    pub fn with_options(
        schema: Arc<Schema>,
        strategy: Strategy,
        sources: &SourceValues,
        options: RuntimeOptions,
    ) -> Result<Self, SnapshotError> {
        Self::build(
            schema,
            strategy,
            sources,
            &[],
            options,
            None,
            RuntimeScratch::default(),
        )
    }

    /// Delta-resubmission construction: like
    /// [`InstanceRuntime::with_options`], but every `(attr, state,
    /// value)` entry of `retained` is **adopted** from a prior
    /// instance's stabilized outcome instead of recomputed — the
    /// attribute starts pre-stabilized (emitting an
    /// [`Event::Retained`] frame when recording) and only the
    /// downstream-of-delta cone executes. Callers guarantee the
    /// entries are valid splice-ins: non-source attributes with a
    /// stable state (`Value`/`Disabled`) whose every transitive
    /// dependency is itself retained or an unchanged source — exactly
    /// what [`plan_delta`](crate::statestore::plan_delta) produces.
    pub fn with_options_retained(
        schema: Arc<Schema>,
        strategy: Strategy,
        sources: &SourceValues,
        retained: &[(AttrId, AttrState, Value)],
        options: RuntimeOptions,
        sink: Option<Box<dyn JournalSink>>,
    ) -> Result<Self, SnapshotError> {
        Self::build(
            schema,
            strategy,
            sources,
            retained,
            options,
            sink,
            RuntimeScratch::default(),
        )
    }

    /// Like [`InstanceRuntime::with_options_retained`], building into a
    /// reclaimed [`RuntimeScratch`].
    pub fn with_options_retained_in(
        scratch: RuntimeScratch,
        schema: Arc<Schema>,
        strategy: Strategy,
        sources: &SourceValues,
        retained: &[(AttrId, AttrState, Value)],
        options: RuntimeOptions,
        sink: Option<Box<dyn JournalSink>>,
    ) -> Result<Self, SnapshotError> {
        Self::build(schema, strategy, sources, retained, options, sink, scratch)
    }

    fn build(
        schema: Arc<Schema>,
        strategy: Strategy,
        sources: &SourceValues,
        retained: &[(AttrId, AttrState, Value)],
        options: RuntimeOptions,
        sink: Option<Box<dyn JournalSink>>,
        mut scratch: RuntimeScratch,
    ) -> Result<Self, SnapshotError> {
        sources.validate(&schema)?;
        scratch.reset(&schema);
        let mut core = Core {
            strategy,
            options,
            state: scratch.state,
            values: scratch.values,
            cond: scratch.cond,
            cond_slots: scratch.cond_slots,
            pending_inputs: scratch.pending_inputs,
            pending_refs: scratch.pending_refs,
            in_flight: scratch.in_flight,
            in_flight_count: 0,
            need_count: scratch.need_count,
            enab_edges_dead: scratch.enab_edges_dead,
            data_edges_dead: scratch.data_edges_dead,
            target_alive: scratch.target_alive,
            unstable_targets: 0,
            pool: scratch.pool,
            in_pool: scratch.in_pool,
            stable_queue: scratch.stable_queue,
            retained: 0,
            metrics: InstanceMetrics::new(),
            sink,
            rounds: 0,
        };
        core.initialize(&schema, sources, retained);
        Ok(InstanceRuntime { schema, core })
    }

    /// Strip this runtime's per-attribute buffers into a
    /// [`RuntimeScratch`] for reuse by a later construction. The
    /// runtime stays safe to query (`is_complete`, `metrics`) but its
    /// snapshot views are hollowed out, so callers take any final
    /// [`ExecutionRecord`](crate::report::ExecutionRecord) *before*
    /// reclaiming. Intended for retired instances — the server calls it
    /// when the last reference to a finished instance drops.
    pub fn reclaim(&mut self) -> RuntimeScratch {
        let c = &mut self.core;
        RuntimeScratch {
            state: std::mem::take(&mut c.state),
            values: std::mem::take(&mut c.values),
            cond: std::mem::take(&mut c.cond),
            cond_slots: std::mem::take(&mut c.cond_slots),
            pending_inputs: std::mem::take(&mut c.pending_inputs),
            pending_refs: std::mem::take(&mut c.pending_refs),
            in_flight: std::mem::take(&mut c.in_flight),
            need_count: std::mem::take(&mut c.need_count),
            enab_edges_dead: std::mem::take(&mut c.enab_edges_dead),
            data_edges_dead: std::mem::take(&mut c.data_edges_dead),
            target_alive: std::mem::take(&mut c.target_alive),
            pool: std::mem::take(&mut c.pool),
            in_pool: std::mem::take(&mut c.in_pool),
            stable_queue: std::mem::take(&mut c.stable_queue),
        }
    }

    /// Is a journal sink attached?
    #[inline]
    pub fn recording(&self) -> bool {
        self.core.recording()
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The schema this instance runs.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// The strategy in force.
    pub fn strategy(&self) -> Strategy {
        self.core.strategy
    }

    /// Current state of `a`.
    pub fn state(&self, a: AttrId) -> AttrState {
        self.core.state[a.index()]
    }

    /// The condition verdict for `a` that the runtime has acted on.
    pub fn cond(&self, a: AttrId) -> Tri {
        self.core.cond[a.index()]
    }

    /// The Kleene verdict of `a`'s enabling condition over the current
    /// snapshot, kept incrementally: it always equals
    /// `schema.attr(a).enabling.eval(self)`. It can be decided before
    /// [`cond`](Self::cond) is, for example under a naive strategy,
    /// which acts on a condition only once all its references are
    /// stable.
    pub fn verdict(&self, a: AttrId) -> Tri {
        self.schema.conds().verdict(&self.core.cond_slots, a)
    }

    /// Stable value of `a`, if `a` has stabilized.
    pub fn stable_value(&self, a: AttrId) -> Option<&Value> {
        if self.core.state[a.index()].is_stable() {
            Some(&self.core.values[a.index()])
        } else {
            None
        }
    }

    /// Is `a` still needed for instance completion? (Always true under
    /// the naive option or with backward propagation disabled.)
    pub fn is_needed(&self, a: AttrId) -> bool {
        self.core.is_needed(a)
    }

    /// Is the task for `a` currently executing?
    pub fn is_in_flight(&self, a: AttrId) -> bool {
        self.core.in_flight[a.index()]
    }

    /// All target attributes stable ⇒ the instance is complete.
    pub fn is_complete(&self) -> bool {
        self.core.unstable_targets == 0
    }

    /// Execution counters.
    pub fn metrics(&self) -> &InstanceMetrics {
        &self.core.metrics
    }

    /// How many attributes were adopted pre-stabilized from a prior
    /// snapshot ([`InstanceRuntime::with_options_retained`]). 0 on
    /// cold (non-delta) runs.
    pub fn retained_count(&self) -> u32 {
        self.core.retained
    }

    /// Number of tasks currently in flight.
    pub fn in_flight_count(&self) -> usize {
        self.core.in_flight_count
    }

    // ------------------------------------------------------------------
    // Prequalifier interface
    // ------------------------------------------------------------------

    /// The candidate attribute pool: prequalified tasks eligible for
    /// scheduling right now. Invalid entries are pruned; entries that
    /// may become eligible again later are retained.
    pub fn candidates(&mut self) -> Vec<AttrId> {
        let mut out = Vec::with_capacity(self.core.pool.len());
        self.candidates_into(&mut out);
        out
    }

    /// [`candidates`](Self::candidates) into a caller-owned buffer
    /// (cleared first): the scheduling loop reuses one buffer across
    /// rounds instead of allocating per round. The pool itself is
    /// compacted in place.
    pub fn candidates_into(&mut self, out: &mut Vec<AttrId>) {
        let c = &mut self.core;
        out.clear();
        let mut w = 0;
        for idx in 0..c.pool.len() {
            let a = c.pool[idx];
            if c.is_candidate(a) {
                c.pool[w] = a;
                w += 1;
                out.push(a);
            } else {
                // A candidate leaves the pool for good when its fate is
                // sealed: stable, launched, computed, or unneeded. Only
                // those are ever inserted, so eviction is permanent.
                c.in_pool[a.index()] = false;
            }
        }
        c.pool.truncate(w);
    }

    /// One scheduling round — the prequalify + schedule step of the
    /// three-phase loop: reads the candidate pool into `picks`, keeps
    /// the prefix [`scheduler::select_into`] allows given the tasks
    /// already in flight, and launches each pick in order. On return
    /// `picks` holds the launched attributes; their task bodies read
    /// [`input_values`](Self::input_values).
    ///
    /// When a journal sink is attached and the pool was non-empty, the
    /// round is journaled as one [`Event::Round`] frame (pool and
    /// picks) ahead of the `Launch` frames it causes. The pool is
    /// cloned only then, so an unrecorded round allocates nothing
    /// beyond `picks`' capacity.
    pub fn round(&mut self, picks: &mut Vec<AttrId>) {
        self.candidates_into(picks);
        let c = &mut self.core;
        let pool = (c.recording() && !picks.is_empty()).then(|| picks.clone());
        scheduler::select_into(&self.schema, c.strategy, picks, c.in_flight_count);
        if let Some(candidates) = pool {
            let round = c.rounds;
            c.rounds += 1;
            c.emit(Event::Round {
                round,
                candidates,
                picked: picks.clone(),
            });
        }
        for &a in picks.iter() {
            self.commit_launch(a);
        }
    }

    /// Commit to executing `a`'s task: records the work (queries are
    /// never cancelled once sent) and returns the input values for the
    /// task body. Panics if `a` is not a valid candidate.
    pub fn launch(&mut self, a: AttrId) -> Vec<Value> {
        self.commit_launch(a);
        self.input_values(a)
    }

    fn commit_launch(&mut self, a: AttrId) {
        let c = &mut self.core;
        assert!(c.is_candidate(a), "launch of non-candidate {a:?}");
        c.in_flight[a.index()] = true;
        c.in_flight_count += 1;
        let cost = self.schema.cost(a);
        c.metrics.launched += 1;
        c.metrics.work += cost;
        if c.recording() {
            c.emit(Event::Launch { attr: a, cost });
        }
    }

    /// Stable input values for `a`'s task, in declaration order. Panics
    /// unless every input has stabilized.
    pub fn input_values(&self, a: AttrId) -> Vec<Value> {
        let mut out = Vec::with_capacity(self.schema.attr(a).inputs.len());
        self.input_values_into(a, &mut out);
        out
    }

    /// [`input_values`](Self::input_values) into a caller-owned buffer
    /// (cleared first), so a driver that runs task bodies in place
    /// reuses one buffer across launches.
    pub(crate) fn input_values_into(&self, a: AttrId, out: &mut Vec<Value>) {
        out.clear();
        out.extend(self.schema.attr(a).inputs.iter().map(|&i| {
            assert!(
                self.core.state[i.index()].is_stable(),
                "input {i:?} of {a:?} not stable"
            );
            self.core.values[i.index()].clone()
        }));
    }

    /// Deliver the result of `a`'s task and run incremental
    /// propagation. The fate of the value depends on the condition:
    /// decided true ⇒ stable VALUE; still unknown ⇒ COMPUTED
    /// (speculative); decided false ⇒ the work was wasted.
    pub fn complete(&mut self, a: AttrId, v: Value) {
        let (schema, c) = (&*self.schema, &mut self.core);
        let i = a.index();
        assert!(c.in_flight[i], "completion for task not in flight: {a:?}");
        if c.recording() {
            c.emit(Event::Complete {
                attr: a,
                value: v.clone(),
            });
        }
        c.in_flight[i] = false;
        c.in_flight_count -= 1;
        // The task has produced its value: its inputs are no longer
        // needed on account of `a`.
        c.kill_data_in_edges(schema, a);
        match c.cond[i] {
            Tri::True => {
                c.metrics.useful_completions += 1;
                c.mark_stable(schema, a, AttrState::Value, v);
            }
            Tri::Unknown => {
                debug_assert!(c.state[i].can_advance_to(AttrState::Computed));
                c.state[i] = AttrState::Computed;
                c.values[i] = v;
            }
            Tri::False => {
                // Disabled while the query was running: discard.
                debug_assert_eq!(c.state[i], AttrState::Disabled);
                c.metrics.wasted_completions += 1;
                c.metrics.wasted_work += schema.cost(a);
            }
        }
        c.drain_propagation(schema);
    }

    /// Check agreement with the declarative oracle on every **target**
    /// attribute — the correctness criterion of §2.
    pub fn agrees_with(&self, snap: &CompleteSnapshot) -> bool {
        self.schema
            .targets()
            .iter()
            .all(|&t| match (self.state(t), snap.state(t)) {
                (AttrState::Value, FinalState::Value) => {
                    self.core.values[t.index()] == *snap.value(t)
                }
                (AttrState::Disabled, FinalState::Disabled) => true,
                _ => false,
            })
    }

    /// Build the stall diagnostic (for drivers that detect no progress).
    pub fn stalled(&self) -> Stalled {
        Stalled {
            unstable_targets: self
                .schema
                .targets()
                .iter()
                .filter(|&&t| !self.state(t).is_stable())
                .map(|&t| self.schema.attr(t).name.clone())
                .collect(),
        }
    }
}

impl Core {
    fn initialize(
        &mut self,
        schema: &Schema,
        sources: &SourceValues,
        retained: &[(AttrId, AttrState, Value)],
    ) {
        // Dependency counters.
        for a in schema.attr_ids() {
            let i = a.index();
            self.pending_inputs[i] = schema.attr(a).inputs.len() as u32;
            self.pending_refs[i] = schema.enabling_refs(a).len() as u32;
        }
        // Needed counts: every edge alive, every target unstable.
        for a in schema.attr_ids() {
            let mut count = 0u32;
            count += schema.data_consumers(a).len() as u32;
            count += schema.enabling_consumers(a).len() as u32;
            if schema.attr(a).target {
                count += 1;
                self.target_alive[a.index()] = true;
                self.unstable_targets += 1;
            }
            self.need_count[a.index()] = count;
        }
        // Delta splice-in: adopt retained outcomes from a prior
        // snapshot before anything else stabilizes, so `Retained`
        // frames form a strict prefix of the tape. Phase 1 pins every
        // terminal state first (no attribute is half-adopted when the
        // edge kills below cascade through `dec_need`); phase 2 then
        // retires the adopted attributes' in-edges through the normal
        // exactly-once kill discipline, which re-derives unneededness
        // for prior-unneeded attributes and feeds forward propagation
        // into the re-executed cone via the stable queue.
        for &(a, st, ref v) in retained {
            let i = a.index();
            debug_assert!(st.is_stable(), "retained {a:?} in unstable state {st:?}");
            debug_assert!(!schema.is_source(a), "sources are rebound, never retained");
            debug_assert!(
                self.state[i].can_advance_to(st),
                "illegal adoption {:?} -> {st:?} for {a:?}",
                self.state[i]
            );
            if self.recording() {
                self.emit(Event::Retained {
                    attr: a,
                    state: st,
                    value: v.clone(),
                });
            }
            self.state[i] = st;
            self.values[i] = v.clone();
            self.stabilize_conds(schema, a);
            self.cond[i] = if st == AttrState::Disabled {
                Tri::False
            } else {
                Tri::True
            };
            self.retained += 1;
            if self.target_alive[i] {
                self.target_alive[i] = false;
                self.unstable_targets -= 1;
                self.dec_need(schema, a);
            }
            self.stable_queue.push_back(a);
        }
        for &(a, _, _) in retained {
            self.kill_enabling_in_edges(schema, a);
            self.kill_data_in_edges(schema, a);
        }
        // Attributes with no data inputs are READY from the start.
        for a in schema.attr_ids() {
            if !schema.is_source(a) && self.pending_inputs[a.index()] == 0 {
                self.on_inputs_ready(a);
            }
        }
        // Sources stabilize immediately with their bound values; their
        // (vacuous) conditions are True.
        for &s in schema.sources() {
            self.cond[s.index()] = Tri::True;
            // invariant: sources.validate ran before the engine started.
            let v = sources.get(s).expect("validated").clone();
            self.mark_stable(schema, s, AttrState::Value, v);
        }
        self.drain_propagation(schema);
        // Eager init: decide every condition that is already decidable.
        // Under `P` this applies Kleene short-circuiting to all
        // conditions; under `N` only conditions with zero unstable
        // references are consulted (their value is then exact).
        for &a in schema.topo_order() {
            if schema.is_source(a) || self.cond[a.index()].is_decided() {
                continue;
            }
            let decidable = self.strategy.propagate || self.pending_refs[a.index()] == 0;
            if decidable {
                if let Some(b) = self.consult(schema, a).as_bool() {
                    self.decide_cond(schema, a, b);
                    self.drain_propagation(schema);
                }
            }
        }
        self.drain_propagation(schema);
    }

    /// Forward an event to the journal sink, if one is attached. Call
    /// sites guard with [`Core::recording`] before building events that
    /// clone values.
    #[inline]
    fn emit(&mut self, event: Event) {
        if let Some(sink) = &mut self.sink {
            sink.record(event);
        }
    }

    #[inline]
    fn recording(&self) -> bool {
        self.sink.is_some()
    }

    /// Read the verdict of `c`'s condition: one propagation step, O(1).
    fn consult(&mut self, schema: &Schema, c: AttrId) -> Tri {
        self.metrics.propagation_steps += 1;
        let verdict = schema.conds().verdict(&self.cond_slots, c);
        debug_assert_eq!(
            verdict,
            schema.attr(c).enabling.eval(self),
            "incremental verdict of {c:?} diverged from Expr::eval"
        );
        verdict
    }

    fn is_needed(&self, a: AttrId) -> bool {
        if !self.strategy.propagate || self.options.disable_backward {
            return true;
        }
        self.need_count[a.index()] > 0
    }

    fn is_candidate(&self, a: AttrId) -> bool {
        let i = a.index();
        if self.state[i].is_stable()
            || self.in_flight[i]
            || self.state[i].has_value()
            || self.pending_inputs[i] > 0
        {
            return false;
        }
        if !self.is_needed(a) {
            return false;
        }
        match self.cond[i] {
            Tri::True => true,
            Tri::Unknown => self.strategy.speculative,
            Tri::False => false,
        }
    }

    fn pool_insert(&mut self, a: AttrId) {
        if !self.in_pool[a.index()] && self.is_candidate(a) {
            self.in_pool[a.index()] = true;
            self.pool.push(a);
        }
    }

    /// `a` just became stable: bring the compiled conditions that read
    /// it up to date, so every condition's verdict follows the snapshot.
    fn stabilize_conds(&mut self, schema: &Schema, a: AttrId) {
        schema
            .conds()
            .stabilized(&mut self.cond_slots, a, &self.state, &self.values);
    }

    /// Transition `a` to a stable state and queue forward propagation.
    fn mark_stable(&mut self, schema: &Schema, a: AttrId, st: AttrState, v: Value) {
        let i = a.index();
        debug_assert!(st.is_stable());
        debug_assert!(
            self.state[i].can_advance_to(st),
            "illegal transition {:?} -> {st:?} for {a:?}",
            self.state[i]
        );
        self.state[i] = st;
        if self.recording() {
            self.emit(Event::Stabilized {
                attr: a,
                state: st,
                value: v.clone(),
            });
        }
        self.values[i] = v;
        self.stabilize_conds(schema, a);
        if self.target_alive[i] {
            self.target_alive[i] = false;
            self.unstable_targets -= 1;
            self.dec_need(schema, a);
        }
        self.stable_queue.push_back(a);
    }

    /// Forward propagation: drain newly stable attributes, updating
    /// consumer readiness and (eagerly) consulting consumer conditions.
    fn drain_propagation(&mut self, schema: &Schema) {
        while let Some(a) = self.stable_queue.pop_front() {
            // Data consumers: one fewer unstable input.
            for &c in schema.data_consumers(a) {
                self.metrics.propagation_steps += 1;
                let pc = &mut self.pending_inputs[c.index()];
                debug_assert!(*pc > 0);
                *pc -= 1;
                if *pc == 0 {
                    self.on_inputs_ready(c);
                }
            }
            // Enabling consumers: maybe act on their condition.
            for &c in schema.enabling_consumers(a) {
                self.metrics.propagation_steps += 1;
                let pr = &mut self.pending_refs[c.index()];
                debug_assert!(*pr > 0);
                *pr -= 1;
                if self.cond[c.index()].is_decided() {
                    continue;
                }
                let consult = if self.strategy.propagate {
                    true // eager: act on every new fact
                } else {
                    self.pending_refs[c.index()] == 0 // naive: exact only
                };
                if consult {
                    if let Some(b) = self.consult(schema, c).as_bool() {
                        if self.pending_refs[c.index()] > 0 {
                            self.metrics.eager_decisions += 1;
                        }
                        self.decide_cond(schema, c, b);
                    }
                }
            }
        }
    }

    /// All data inputs of `c` just became stable.
    fn on_inputs_ready(&mut self, c: AttrId) {
        let i = c.index();
        if self.state[i].is_stable() {
            return; // disabled before inputs settled
        }
        match self.cond[i] {
            Tri::True => {
                debug_assert!(self.state[i].can_advance_to(AttrState::ReadyEnabled));
                self.state[i] = AttrState::ReadyEnabled;
                self.pool_insert(c);
            }
            Tri::Unknown => {
                debug_assert!(self.state[i].can_advance_to(AttrState::Ready));
                self.state[i] = AttrState::Ready;
                self.pool_insert(c); // pool_insert re-checks speculative
            }
            Tri::False => unreachable!("condition false implies already stable"),
        }
    }

    /// Record a condition verdict and apply its consequences.
    fn decide_cond(&mut self, schema: &Schema, c: AttrId, verdict: bool) {
        let i = c.index();
        debug_assert_eq!(self.cond[i], Tri::Unknown);
        if self.recording() {
            let eager = self.pending_refs[i] > 0;
            self.emit(Event::CondDecided {
                attr: c,
                verdict,
                eager,
            });
        }
        self.cond[i] = Tri::from_bool(verdict);
        // The condition is settled: its referenced attributes are no
        // longer needed on account of `c`.
        self.kill_enabling_in_edges(schema, c);
        if verdict {
            match self.state[i] {
                AttrState::Uninitialized => self.state[i] = AttrState::Enabled,
                AttrState::Ready => {
                    self.state[i] = AttrState::ReadyEnabled;
                    self.pool_insert(c);
                }
                AttrState::Computed => {
                    // Speculation paid off: the cached value becomes final.
                    self.metrics.useful_completions += 1;
                    let v = std::mem::take(&mut self.values[i]);
                    self.mark_stable(schema, c, AttrState::Value, v);
                }
                other => unreachable!("cond decided on state {other:?}"),
            }
        } else {
            self.metrics.disabled += 1;
            // Disabled: data inputs are no longer needed on account of c.
            self.kill_data_in_edges(schema, c);
            if self.state[i] == AttrState::Computed {
                // Speculation wasted.
                self.metrics.wasted_completions += 1;
                self.metrics.wasted_work += schema.cost(c);
            }
            self.mark_stable(schema, c, AttrState::Disabled, Value::Null);
        }
    }

    fn kill_enabling_in_edges(&mut self, schema: &Schema, c: AttrId) {
        if std::mem::replace(&mut self.enab_edges_dead[c.index()], true) {
            return;
        }
        for &r in schema.enabling_refs(c) {
            self.metrics.propagation_steps += 1;
            self.dec_need(schema, r);
        }
    }

    fn kill_data_in_edges(&mut self, schema: &Schema, c: AttrId) {
        if std::mem::replace(&mut self.data_edges_dead[c.index()], true) {
            return;
        }
        for &r in &schema.attr(c).inputs {
            self.metrics.propagation_steps += 1;
            self.dec_need(schema, r);
        }
    }

    /// Backward propagation: one live reason for `r` died. Allocates
    /// only when `r` becomes unneeded and the release cascades.
    fn dec_need(&mut self, schema: &Schema, r: AttrId) {
        if !self.strategy.propagate || self.options.disable_backward {
            return;
        }
        if !self.release(r) {
            return;
        }
        let mut stack = Vec::new();
        self.unneeded(schema, r, &mut stack);
        while let Some(r) = stack.pop() {
            if self.release(r) {
                self.unneeded(schema, r, &mut stack);
            }
        }
    }

    /// Drop one reason for `r`; true when `r` just became unneeded.
    fn release(&mut self, r: AttrId) -> bool {
        let i = r.index();
        debug_assert!(self.need_count[i] > 0, "need_count underflow at {r:?}");
        self.need_count[i] -= 1;
        self.need_count[i] == 0 && !self.state[i].is_stable()
    }

    /// `r` is unneeded: it will never be launched (the pool check
    /// excludes it) and need not stabilize. Its own dependencies are
    /// pushed for release in turn.
    fn unneeded(&mut self, schema: &Schema, r: AttrId, stack: &mut Vec<AttrId>) {
        let i = r.index();
        self.metrics.unneeded_detected += 1;
        self.emit(Event::Unneeded { attr: r });
        if !std::mem::replace(&mut self.enab_edges_dead[i], true) {
            for &x in schema.enabling_refs(r) {
                self.metrics.propagation_steps += 1;
                stack.push(x);
            }
        }
        if !std::mem::replace(&mut self.data_edges_dead[i], true) {
            for &x in &schema.attr(r).inputs {
                self.metrics.propagation_steps += 1;
                stack.push(x);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{CmpOp, Expr};
    use crate::schema::SchemaBuilder;
    use crate::snapshot::complete_snapshot;
    use crate::task::Task;

    fn strat(s: &str) -> Strategy {
        s.parse().unwrap()
    }

    /// The give_promo cascade of §4: expendable_income = 0 disables
    /// give_promo, which disables the presentation chain, which makes
    /// promo_hit_list unneeded.
    ///
    ///   income(src) ─enab→ give_promo(target-ish gate)
    ///   hit_list(query) ─data→ images(query) ─data→ assembly(target)
    ///   give_promo ─enab→ images, assembly
    fn promo_like() -> (Arc<Schema>, SourceValues, AttrId, AttrId, AttrId) {
        let mut b = SchemaBuilder::new();
        let income = b.source("income");
        let give = b.attr(
            "give_promo",
            Task::const_query(1, true),
            vec![],
            Expr::cmp_const(income, CmpOp::Gt, 0i64),
        );
        let hit = b.attr(
            "hit_list",
            Task::const_query(5, "coats"),
            vec![],
            Expr::Lit(true),
        );
        let images = b.attr(
            "images",
            Task::const_query(3, "img"),
            vec![hit],
            Expr::Truthy(give),
        );
        let asm = b.attr(
            "assembly",
            Task::const_query(2, "page"),
            vec![images],
            Expr::Truthy(give),
        );
        b.mark_target(asm);
        let schema = Arc::new(b.build().unwrap());
        let mut sv = SourceValues::new();
        sv.set(income, 0i64);
        (schema, sv, give, hit, asm)
    }

    #[test]
    fn forward_propagation_disables_cascade() {
        let (schema, sv, give, _hit, asm) = promo_like();
        let rt = InstanceRuntime::new(schema, strat("PCE0"), &sv).unwrap();
        // income=0 decides give_promo's condition false at init;
        // the Truthy(give_promo)=⊥ conditions downstream follow.
        assert_eq!(rt.state(give), AttrState::Disabled);
        assert_eq!(rt.state(asm), AttrState::Disabled);
        assert!(rt.is_complete(), "target disabled ⇒ instance complete");
        assert_eq!(rt.metrics().work, 0, "nothing was ever launched");
    }

    #[test]
    fn backward_propagation_detects_unneeded_hit_list() {
        let (schema, sv, _give, hit, _asm) = promo_like();
        let mut rt = InstanceRuntime::new(schema, strat("PCE0"), &sv).unwrap();
        // hit_list is enabled (condition true) and ready, but its only
        // consumer is disabled: backward propagation prunes it.
        assert!(!rt.is_needed(hit));
        assert!(rt.candidates().is_empty());
        assert!(rt.metrics().unneeded_detected >= 1);
    }

    #[test]
    fn naive_mode_keeps_unneeded_in_pool() {
        let (schema, sv, _give, hit, _asm) = promo_like();
        let mut rt = InstanceRuntime::new(schema, strat("NCE0"), &sv).unwrap();
        // Even naive mode decides give_promo (no unstable refs) and the
        // downstream conditions; but hit_list stays in the pool.
        assert!(rt.is_needed(hit), "naive mode never prunes");
        let pool = rt.candidates();
        assert_eq!(pool, vec![hit]);
    }

    #[test]
    fn enabled_path_executes_and_agrees_with_oracle() {
        let (schema, _sv, give, hit, asm) = promo_like();
        let mut sv = SourceValues::new();
        sv.set(schema.lookup("income").unwrap(), 500i64);
        let mut rt = InstanceRuntime::new(Arc::clone(&schema), strat("PCE100"), &sv).unwrap();
        // Drive to completion manually: launch every candidate, deliver.
        let mut guard = 0;
        while !rt.is_complete() {
            guard += 1;
            assert!(guard < 100, "runaway loop");
            let cands = rt.candidates();
            assert!(
                !cands.is_empty() || rt.in_flight_count() > 0,
                "stalled: {:?}",
                rt.stalled()
            );
            for a in cands {
                let inputs = rt.launch(a);
                let v = schema.attr(a).task.compute(&inputs);
                rt.complete(a, v);
            }
        }
        let snap = complete_snapshot(&schema, &sv).unwrap();
        assert!(rt.agrees_with(&snap));
        assert_eq!(rt.stable_value(asm), Some(&Value::str("page")));
        assert_eq!(rt.state(give), AttrState::Value);
        assert_eq!(rt.state(hit), AttrState::Value);
        // Work = 1 + 5 + 3 + 2.
        assert_eq!(rt.metrics().work, 11);
        assert_eq!(rt.metrics().useful_completions, 4);
        assert_eq!(rt.metrics().wasted_completions, 0);
    }

    /// Schema where speculation helps: target needs q2, whose condition
    /// depends on a slow gate; q2's inputs are ready immediately.
    fn speculative_schema() -> (Arc<Schema>, SourceValues) {
        let mut b = SchemaBuilder::new();
        let s = b.source("s");
        let gate = b.attr("gate", Task::const_query(10, 1i64), vec![], Expr::Lit(true));
        let q2 = b.attr(
            "q2",
            Task::const_query(4, "payload"),
            vec![s],
            Expr::cmp_const(gate, CmpOp::Gt, 0i64),
        );
        let t = b.synthesis("t", vec![q2], Expr::Lit(true), |v| v[0].clone());
        b.mark_target(t);
        let schema = Arc::new(b.build().unwrap());
        let mut sv = SourceValues::new();
        sv.set(s, 1i64);
        (schema, sv)
    }

    #[test]
    fn conservative_pool_excludes_ready_unknown() {
        let (schema, sv) = speculative_schema();
        let q2 = schema.lookup("q2").unwrap();
        let gate = schema.lookup("gate").unwrap();
        let mut rt = InstanceRuntime::new(schema, strat("PCE100"), &sv).unwrap();
        assert_eq!(
            rt.state(q2),
            AttrState::Ready,
            "inputs stable, cond unknown"
        );
        let pool = rt.candidates();
        assert_eq!(pool, vec![gate], "conservative: only READY+ENABLED");
    }

    #[test]
    fn speculative_pool_includes_ready_and_resolves_to_value() {
        let (schema, sv) = speculative_schema();
        let q2 = schema.lookup("q2").unwrap();
        let gate = schema.lookup("gate").unwrap();
        let mut rt = InstanceRuntime::new(Arc::clone(&schema), strat("PSE100"), &sv).unwrap();
        let pool = rt.candidates();
        assert!(pool.contains(&q2) && pool.contains(&gate));
        // Launch q2 speculatively; it completes while gate is pending.
        let inputs = rt.launch(q2);
        let v = schema.attr(q2).task.compute(&inputs);
        rt.complete(q2, v);
        assert_eq!(rt.state(q2), AttrState::Computed);
        assert_eq!(rt.stable_value(q2), None, "speculative value not stable");
        // Now the gate completes; q2's condition decides true and the
        // cached value becomes final.
        let inputs = rt.launch(gate);
        let v = schema.attr(gate).task.compute(&inputs);
        rt.complete(gate, v);
        assert_eq!(rt.state(q2), AttrState::Value);
        assert_eq!(rt.stable_value(q2), Some(&Value::str("payload")));
        assert_eq!(rt.metrics().wasted_completions, 0);
    }

    #[test]
    fn speculation_wasted_when_condition_fails() {
        let (schema, sv) = speculative_schema();
        let q2 = schema.lookup("q2").unwrap();
        let gate = schema.lookup("gate").unwrap();
        let mut rt = InstanceRuntime::new(Arc::clone(&schema), strat("PSE100"), &sv).unwrap();
        rt.candidates();
        let inputs = rt.launch(q2);
        let v = schema.attr(q2).task.compute(&inputs);
        rt.complete(q2, v);
        // Gate returns 0 ⇒ q2's condition (gate > 0) is false.
        rt.launch(gate);
        rt.complete(gate, Value::Int(0));
        assert_eq!(rt.state(q2), AttrState::Disabled);
        assert_eq!(rt.metrics().wasted_completions, 1);
        assert_eq!(rt.metrics().wasted_work, 4);
        // Target runs with ⊥ input.
        let t = schema.lookup("t").unwrap();
        let pool = rt.candidates();
        assert_eq!(pool, vec![t]);
    }

    #[test]
    fn disable_mid_flight_discards_result() {
        let (schema, sv) = speculative_schema();
        let q2 = schema.lookup("q2").unwrap();
        let gate = schema.lookup("gate").unwrap();
        let mut rt = InstanceRuntime::new(Arc::clone(&schema), strat("PSE100"), &sv).unwrap();
        rt.candidates();
        // Launch q2 speculatively, then resolve the gate to false
        // while q2 is still in flight.
        let _ = rt.launch(q2);
        let _ = rt.launch(gate);
        rt.complete(gate, Value::Int(0));
        assert_eq!(rt.state(q2), AttrState::Disabled, "disabled mid-flight");
        // Completion arrives late; it is discarded.
        rt.complete(q2, Value::str("late"));
        assert_eq!(rt.stable_value(q2), Some(&Value::Null));
        assert_eq!(rt.metrics().wasted_completions, 1);
    }

    #[test]
    fn eager_or_decides_before_all_refs_stable() {
        // cond(q) = (slow > 80) OR (fast < 95): fast alone decides.
        let mut b = SchemaBuilder::new();
        let _s = b.source("s");
        let slow = b.attr(
            "slow",
            Task::const_query(100, 10i64),
            vec![],
            Expr::Lit(true),
        );
        let fast = b.attr("fast", Task::const_query(1, 90i64), vec![], Expr::Lit(true));
        let q = b.attr(
            "q",
            Task::const_query(1, "ok"),
            vec![],
            Expr::cmp_const(slow, CmpOp::Gt, 80i64).or(Expr::cmp_const(fast, CmpOp::Lt, 95i64)),
        );
        b.mark_target(q);
        let schema = Arc::new(b.build().unwrap());
        let mut sv = SourceValues::new();
        sv.set(schema.lookup("s").unwrap(), 0i64);
        let mut rt = InstanceRuntime::new(Arc::clone(&schema), strat("PCE100"), &sv).unwrap();
        rt.candidates();
        let f = schema.lookup("fast").unwrap();
        let inputs = rt.launch(f);
        rt.complete(f, schema.attr(f).task.compute(&inputs));
        let q = schema.lookup("q").unwrap();
        assert_eq!(rt.cond(q), Tri::True, "OR short-circuited on fast");
        assert!(rt.metrics().eager_decisions >= 1);
        // `slow` is now unneeded: q's condition is decided and nothing
        // else consumes it.
        assert!(!rt.is_needed(schema.lookup("slow").unwrap()));
    }

    #[test]
    fn naive_mode_waits_for_all_refs() {
        let mut b = SchemaBuilder::new();
        let _s = b.source("s");
        let slow = b.attr(
            "slow",
            Task::const_query(100, 10i64),
            vec![],
            Expr::Lit(true),
        );
        let fast = b.attr("fast", Task::const_query(1, 90i64), vec![], Expr::Lit(true));
        let q = b.attr(
            "q",
            Task::const_query(1, "ok"),
            vec![],
            Expr::cmp_const(slow, CmpOp::Gt, 80i64).or(Expr::cmp_const(fast, CmpOp::Lt, 95i64)),
        );
        b.mark_target(q);
        let schema = Arc::new(b.build().unwrap());
        let mut sv = SourceValues::new();
        sv.set(schema.lookup("s").unwrap(), 0i64);
        let mut rt = InstanceRuntime::new(Arc::clone(&schema), strat("NCE100"), &sv).unwrap();
        rt.candidates();
        let f = schema.lookup("fast").unwrap();
        let inputs = rt.launch(f);
        rt.complete(f, schema.attr(f).task.compute(&inputs));
        assert_eq!(rt.cond(q), Tri::Unknown, "naive: no short-circuit");
        assert_eq!(rt.metrics().eager_decisions, 0);
        // Must execute `slow` before q's condition decides.
        let inputs = rt.launch(slow);
        rt.complete(slow, schema.attr(slow).task.compute(&inputs));
        assert_eq!(rt.cond(q), Tri::True);
    }

    #[test]
    fn ablation_forward_only_keeps_everything_needed() {
        let (schema, sv, _give, hit, _asm) = promo_like();
        let mut rt = InstanceRuntime::with_options(
            schema,
            strat("PCE0"),
            &sv,
            RuntimeOptions {
                disable_backward: true,
            },
        )
        .unwrap();
        assert!(rt.is_needed(hit), "backward disabled: no pruning");
        // Forward propagation still decided everything downstream.
        assert!(rt.is_complete());
        assert_eq!(rt.candidates(), vec![hit]);
    }

    #[test]
    fn launch_of_non_candidate_panics() {
        let (schema, sv) = speculative_schema();
        let q2 = schema.lookup("q2").unwrap();
        let mut rt = InstanceRuntime::new(schema, strat("PCE100"), &sv).unwrap();
        rt.candidates();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| rt.launch(q2)));
        assert!(r.is_err(), "q2 is READY but not enabled under C");
    }

    #[test]
    fn sources_missing_is_reported() {
        let (schema, _sv, ..) = promo_like();
        let empty = SourceValues::new();
        assert!(InstanceRuntime::new(schema, strat("PCE0"), &empty).is_err());
    }

    #[test]
    fn duplicate_data_inputs_count_with_multiplicity() {
        // q lists the same input twice: pending_inputs must start at 2
        // and drain exactly twice, and the task body receives both
        // copies in order.
        let mut b = SchemaBuilder::new();
        let s = b.source("s");
        let x = b.attr("x", Task::const_query(2, 21i64), vec![], Expr::Lit(true));
        let q = b.attr(
            "q",
            Task::query(1, |ins| {
                Value::Int(
                    ins[0].as_f64().unwrap_or(0.0) as i64 + ins[1].as_f64().unwrap_or(0.0) as i64,
                )
            }),
            vec![x, x],
            Expr::Lit(true),
        );
        b.mark_target(q);
        let schema = Arc::new(b.build().unwrap());
        let mut sv = SourceValues::new();
        sv.set(s, 0i64);
        let mut rt = InstanceRuntime::new(Arc::clone(&schema), strat("PCE100"), &sv).unwrap();
        assert_eq!(rt.state(q), AttrState::Enabled, "x not stable yet");
        let inputs = rt.launch(x);
        rt.complete(x, schema.attr(x).task.compute(&inputs));
        assert_eq!(rt.state(q), AttrState::ReadyEnabled);
        let inputs = rt.launch(q);
        assert_eq!(inputs, vec![Value::Int(21), Value::Int(21)]);
        rt.complete(q, schema.attr(q).task.compute(&inputs));
        assert_eq!(rt.stable_value(q), Some(&Value::Int(42)));
        let snap = complete_snapshot(&schema, &sv).unwrap();
        assert!(rt.agrees_with(&snap));
    }

    #[test]
    fn attr_as_both_data_input_and_enabling_ref() {
        // x feeds q as data AND gates it: two distinct edges, both
        // killed independently without double decrement.
        let mut b = SchemaBuilder::new();
        let s = b.source("s");
        let x = b.attr("x", Task::const_query(1, 5i64), vec![], Expr::Lit(true));
        let q = b.attr(
            "q",
            Task::const_query(1, "ran"),
            vec![x],
            Expr::cmp_const(x, CmpOp::Gt, 10i64),
        );
        b.mark_target(q);
        let schema = Arc::new(b.build().unwrap());
        let mut sv = SourceValues::new();
        sv.set(s, 0i64);
        let mut rt = InstanceRuntime::new(Arc::clone(&schema), strat("PCE100"), &sv).unwrap();
        let inputs = rt.launch(x);
        rt.complete(x, schema.attr(x).task.compute(&inputs));
        // x=5 fails the gate: q disabled, instance complete, no work on q.
        assert_eq!(rt.state(q), AttrState::Disabled);
        assert!(rt.is_complete());
        assert_eq!(rt.metrics().work, 1);
        let snap = complete_snapshot(&schema, &sv).unwrap();
        assert!(rt.agrees_with(&snap));
    }

    #[test]
    fn multi_target_partial_disable_prunes_only_dead_branch() {
        // Two targets t1, t2 behind separate chains; t1's chain
        // disables, t2's survives. The t1 chain must be pruned while
        // the t2 chain executes.
        let mut b = SchemaBuilder::new();
        let s = b.source("s");
        let gate1 = b.attr("gate1", Task::const_query(1, 0i64), vec![], Expr::Lit(true));
        let work1 = b.attr("work1", Task::const_query(9, "w1"), vec![], Expr::Lit(true));
        let t1 = b.attr(
            "t1",
            Task::const_query(1, "t1"),
            vec![work1],
            Expr::cmp_const(gate1, CmpOp::Gt, 0i64),
        );
        let work2 = b.attr(
            "work2",
            Task::const_query(2, "w2"),
            vec![s],
            Expr::Lit(true),
        );
        let t2 = b.attr(
            "t2",
            Task::const_query(1, "t2"),
            vec![work2],
            Expr::Lit(true),
        );
        b.mark_target(t1);
        b.mark_target(t2);
        let schema = Arc::new(b.build().unwrap());
        let mut sv = SourceValues::new();
        sv.set(s, 1i64);
        // Sequential earliest-first: gate1 resolves before work1 would
        // launch, so backward propagation prunes the dead branch. (At
        // 100% parallelism work1 launches at t=0 and its work is
        // committed — pruning only saves what has not been sent.)
        let out = crate::engine::run_unit_time(&schema, strat("PCE0"), &sv).unwrap();
        assert_eq!(out.runtime.state(t1), AttrState::Disabled);
        assert_eq!(out.runtime.stable_value(t2), Some(&Value::str("t2")));
        // work1 (cost 9) must have been pruned: total = gate1 + work2 + t2.
        assert_eq!(out.metrics.work, 1 + 2 + 1, "work1 pruned as unneeded");
        assert!(!out.runtime.is_needed(work1));
        let snap = complete_snapshot(&schema, &sv).unwrap();
        assert!(out.runtime.agrees_with(&snap));
        // Contrast: full parallelism commits work1 before the gate fails.
        let out100 = crate::engine::run_unit_time(&schema, strat("PCE100"), &sv).unwrap();
        assert_eq!(out100.metrics.work, 13);
        assert!(out100.runtime.agrees_with(&snap));
    }

    #[test]
    fn isnull_gate_on_disabled_attr_enables_consumer() {
        // q is enabled precisely BECAUSE x is disabled (fallback path).
        let mut b = SchemaBuilder::new();
        let s = b.source("s");
        let x = b.attr("x", Task::const_query(3, 1i64), vec![], Expr::Lit(false));
        let q = b.attr(
            "q",
            Task::const_query(1, "fallback"),
            vec![],
            Expr::IsNull(x),
        );
        b.mark_target(q);
        let schema = Arc::new(b.build().unwrap());
        let mut sv = SourceValues::new();
        sv.set(s, 0i64);
        let out = crate::engine::run_unit_time(&schema, strat("PCE0"), &sv).unwrap();
        assert_eq!(out.runtime.stable_value(q), Some(&Value::str("fallback")));
        assert_eq!(out.metrics.work, 1, "x never ran; only q did");
    }
}
