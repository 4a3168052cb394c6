//! The frame vocabulary of the execution journal.
//!
//! A journal is a sequence of [`Frame`]s, each stamping one [`Event`]
//! with a monotonic logical clock. Events capture every control
//! decision the engine makes while executing one decision-flow
//! instance — scheduling rounds with their candidate pools, task
//! launches and completions, condition verdicts, unneeded detections,
//! and stabilizations — which is exactly the information needed to
//! re-execute the instance deterministically and to audit *why* each
//! attribute ended in its terminal state.

use serde::{Deserialize, Serialize};

use crate::schema::AttrId;
use crate::state::AttrState;
use crate::value::Value;

/// Monotonic logical clock: the index of a frame in its journal.
/// Wall-clock time never enters a journal, so replay is exact.
pub type Clock = u64;

/// One recorded engine event, stamped with its logical clock.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Frame {
    /// Logical timestamp (dense, starting at 0).
    pub clock: Clock,
    /// What happened.
    pub event: Event,
}

/// An engine control decision worth recording.
///
/// Events split into two classes:
///
/// * **driver events** ([`Event::Round`], [`Event::Complete`]) mark
///   the only nondeterministic inputs of an execution — when the
///   driver ran a scheduling round, and in which order the external
///   system returned results. The runtime emits `Round` from its
///   [`round`](crate::engine::InstanceRuntime::round) step; replay
///   runs a live round at each recorded one and verifies the frame it
///   emits, and re-injects completions from the journal.
/// * **engine events** (the rest) are deterministic consequences the
///   runtime emits itself; replay re-derives them and cross-checks
///   them frame-by-frame against the journal.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Event {
    /// A scheduling round: the prequalified candidate pool presented to
    /// the scheduler and the subset it picked for launch. Emitted only
    /// by [`InstanceRuntime::round`](crate::engine::InstanceRuntime::round),
    /// ahead of the `Launch` frames of its picks.
    Round {
        /// Dense scheduling-round counter.
        round: u32,
        /// Candidate pool, in pool order (deterministic).
        candidates: Vec<AttrId>,
        /// Scheduler picks, in launch order.
        picked: Vec<AttrId>,
    },
    /// A task launch: work committed (queries are never recalled).
    Launch {
        /// The attribute whose task launched.
        attr: AttrId,
        /// Estimated cost charged to the Work metric.
        cost: u64,
    },
    /// A task completion delivered to the runtime, with the produced
    /// value. Delivery order is the nondeterministic input replay
    /// re-injects.
    Complete {
        /// The attribute whose task completed.
        attr: AttrId,
        /// The value the task body produced.
        value: Value,
    },
    /// An enabling-condition verdict (the propagation verdicts
    /// ENABLED/DISABLED; UNNEEDED is [`Event::Unneeded`]).
    CondDecided {
        /// The attribute whose condition decided.
        attr: AttrId,
        /// `true` = ENABLED, `false` = DISABLED.
        verdict: bool,
        /// Decided eagerly, i.e. before all referenced attributes
        /// stabilized (Kleene short-circuit — only under `P`).
        eager: bool,
    },
    /// Backward propagation proved the attribute unneeded for target
    /// stabilization.
    Unneeded {
        /// The pruned attribute.
        attr: AttrId,
    },
    /// An attribute reached a stable state.
    Stabilized {
        /// The stabilized attribute.
        attr: AttrId,
        /// Terminal state: `Value` or `Disabled`.
        state: AttrState,
        /// Final value (⊥ for `Disabled`).
        value: Value,
    },
    /// An attribute adopted its terminal state from a prior instance
    /// snapshot during a delta resubmission
    /// ([`Request::delta`](crate::api::Request::delta)) instead of
    /// being computed. Retained frames form a strict prefix of the
    /// tape: the engine splices them in at construction, before any
    /// source stabilizes.
    Retained {
        /// The retained attribute.
        attr: AttrId,
        /// Terminal state carried over: `Value` or `Disabled`.
        state: AttrState,
        /// Carried-over value (⊥ for `Disabled`).
        value: Value,
    },
}

impl Event {
    /// Short tag for audit rendering.
    pub fn tag(&self) -> &'static str {
        match self {
            Event::Round { .. } => "round",
            Event::Launch { .. } => "launch",
            Event::Complete { .. } => "complete",
            Event::CondDecided { .. } => "cond",
            Event::Unneeded { .. } => "unneeded",
            Event::Stabilized { .. } => "stable",
            Event::Retained { .. } => "retained",
        }
    }

    /// Is this a driver event (nondeterministic input replay must
    /// re-inject) rather than an engine event (deterministic output
    /// replay re-derives)?
    pub fn is_driver_event(&self) -> bool {
        matches!(self, Event::Round { .. } | Event::Complete { .. })
    }
}
