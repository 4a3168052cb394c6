//! The decision-flow execution engine (§3–§4).
//!
//! The engine follows the paper's three-phase loop, re-entered every
//! time new attribute values arrive:
//!
//! 1. **Evaluation** — incorporate new values into the snapshot
//!    ([`InstanceRuntime::complete`]); exit when all targets stable.
//! 2. **Prequalifying** — the Propagation Algorithm identifies eligible
//!    candidates and eliminates unneeded ones
//!    ([`InstanceRuntime::candidates`]).
//! 3. **Scheduling** — the heuristics pick which candidates to launch
//!    ([`scheduler::select`]).
//!
//! Phases 2 and 3 run as one step, [`InstanceRuntime::round`]: it reads
//! the pool, selects under `%Permitted`, launches the picks, and
//! journals the round when a sink is attached. Every driver calls it —
//! [`unit_exec::run_unit_time`] on an infinite-resource unit-time
//! clock, the sharded server, the `dflowperf` simulation against the
//! finite-resource database, and journal replay — so none of them
//! schedules or records a round by hand.

pub mod metrics;
pub mod runtime;
pub mod scheduler;
pub mod strategy;
pub mod unit_exec;

pub use metrics::{InstanceMetrics, ServerStats, ShardGauges, ShardStats};
pub use runtime::{InstanceRuntime, RuntimeOptions, RuntimeScratch, Stalled};
pub use strategy::{Heuristic, ParseStrategyError, Strategy};
pub use unit_exec::{run_unit_time, run_unit_time_with_options, ExecError, UnitOutcome};
