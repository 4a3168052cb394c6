//! Layer replay: sampled instances of a workload driven through the
//! engine's public functions in the server's order, timing each call.
//! Nothing inside the program is instrumented.

use std::collections::VecDeque;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use decisionflow::engine::{scheduler, InstanceRuntime, RuntimeOptions, Strategy};
use decisionflow::journal::{schema_fingerprint, JournalWriter, SharedJournalWriter};
use decisionflow::prelude::{
    plan_delta, AttrId, EventStore, InstanceSnapshot, MemoTable, Schema, SourceValues, StateStore,
    StoreEvent, Value,
};
use decisionflow::report::ExecutionRecord;
use decisionflow::store::{PersistedRequest, SealOutcome};

use crate::inputs::{runtime_agrees, Oracle};

/// One instance to replay.
pub struct Sample<'a> {
    /// Registration name of the schema.
    pub name: &'a str,
    /// The schema.
    pub schema: &'a Arc<Schema>,
    /// Source bindings.
    pub sources: &'a SourceValues,
    /// Strategy.
    pub strategy: Strategy,
    /// Snapshot key.
    pub label: &'a str,
    /// Oracle for the instance.
    pub expect: &'a Oracle,
}

/// Accumulated replay timings (ns totals) and counts.
#[derive(Default, Debug)]
pub struct Replay {
    /// Instances replayed.
    pub instances: u64,
    /// Instances that disagreed with the oracle.
    pub mismatches: u64,
    pub fingerprint_ns: u64,
    pub build_ns: u64,
    pub prequalify_ns: u64,
    pub schedule_ns: u64,
    pub launch_ns: u64,
    pub complete_ns: u64,
    pub rounds: u64,
    pub record_ns: u64,
    pub encode_ns: u64,
    pub frames: u64,
    pub journal_bytes: u64,
    pub append_ns: u64,
    pub syncs: u64,
    pub sync_ns: u64,
    pub capture_ns: u64,
    pub commit_ns: u64,
    pub lookups: u64,
    pub lookup_ns: u64,
    pub plans: u64,
    pub plan_delta_ns: u64,
    pub memo_lookups: u64,
    pub memo_lookup_ns: u64,
    /// WAL bytes the replay store wrote.
    pub wal_bytes: u64,
}

fn ns(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Replays instances against a snapshot store, memo table and event
/// store the benchmark owns.
pub struct Replayer {
    state: StateStore,
    memo: MemoTable,
    store: EventStore,
    next_id: u64,
    /// Totals so far.
    pub totals: Replay,
}

impl Replayer {
    /// A replayer whose event store lives in `wal_dir`.
    pub fn open(wal_dir: &Path) -> Replayer {
        Replayer {
            state: StateStore::new(1),
            memo: MemoTable::new(1, 1 << 16),
            store: EventStore::open(wal_dir).expect("open replay event store"),
            next_id: 1,
            totals: Replay::default(),
        }
    }

    /// Replay one instance end to end.
    pub fn run(&mut self, s: &Sample<'_>) {
        let t = &mut self.totals;
        t.instances += 1;
        let opts = RuntimeOptions::default();

        // Route: schema fingerprint, then the snapshot and delta plan.
        let t0 = Instant::now();
        let fp = schema_fingerprint(s.schema);
        t.fingerprint_ns += ns(t0);
        let t0 = Instant::now();
        let prior = self.state.lookup(fp, s.label);
        t.lookup_ns += ns(t0);
        t.lookups += 1;
        let retained = match &prior {
            Some(p) => {
                let t0 = Instant::now();
                let plan = plan_delta(s.schema, p, s.sources).expect("same schema");
                t.plan_delta_ns += ns(t0);
                t.plans += 1;
                plan.retained
            }
            None => Vec::new(),
        };

        // Runtime build and the scheduling loop, one worker: prequalify,
        // schedule and launch a round, run one task, complete it.
        let t0 = Instant::now();
        let mut rt = InstanceRuntime::with_options_retained(
            Arc::clone(s.schema),
            s.strategy,
            s.sources,
            &retained,
            opts,
            None,
        )
        .expect("valid sources");
        t.build_ns += ns(t0);
        let mut cands: Vec<AttrId> = Vec::new();
        let mut queue: VecDeque<(AttrId, Vec<Value>)> = VecDeque::new();
        loop {
            let t0 = Instant::now();
            rt.candidates_into(&mut cands);
            t.prequalify_ns += ns(t0);
            let t0 = Instant::now();
            scheduler::select_into(s.schema, rt.strategy(), &mut cands, rt.in_flight_count());
            t.schedule_ns += ns(t0);
            if !cands.is_empty() {
                t.rounds += 1;
                let t0 = Instant::now();
                for &a in cands.iter() {
                    queue.push_back((a, rt.launch(a)));
                }
                t.launch_ns += ns(t0);
            }
            if rt.is_complete() {
                break;
            }
            let (a, inputs) = queue
                .pop_front()
                .expect("an incomplete runtime has work in flight");
            let t0 = Instant::now();
            let hit = self.memo.lookup(fp, a, &inputs);
            t.memo_lookup_ns += ns(t0);
            t.memo_lookups += 1;
            let v = match hit {
                Some(v) => v,
                None => {
                    let v = s.schema.attr(a).task.compute(&inputs);
                    self.memo.insert(fp, a, inputs, v.clone());
                    v
                }
            };
            let t0 = Instant::now();
            rt.complete(a, v);
            t.complete_ns += ns(t0);
        }
        if !runtime_agrees(&rt, s.expect) {
            t.mismatches += 1;
        }

        // Completion: record, snapshot capture and commit.
        let t0 = Instant::now();
        let record = ExecutionRecord::from_runtime(&rt, 0);
        t.record_ns += ns(t0);
        std::hint::black_box(&record);
        let t0 = Instant::now();
        let snap = InstanceSnapshot::capture(&rt, s.label);
        t.capture_ns += ns(t0);
        let t0 = Instant::now();
        self.state.commit(snap);
        t.commit_ns += ns(t0);

        // Journal: the same instance recorded, then encoded.
        let writer = SharedJournalWriter::new(JournalWriter::new(s.schema, s.strategy, s.sources));
        let mut rec = InstanceRuntime::with_options_retained(
            Arc::clone(s.schema),
            s.strategy,
            s.sources,
            &retained,
            opts,
            Some(Box::new(writer.clone())),
        )
        .expect("valid sources");
        drive(&mut rec, s.schema);
        let t0 = Instant::now();
        let journal = writer.snapshot(0);
        let json = journal.to_json();
        t.encode_ns += ns(t0);
        t.frames += journal.frames.len() as u64;
        t.journal_bytes += json.len() as u64;

        // WAL: acceptance, every frame, the seal; then a barrier.
        let id = self.next_id;
        self.next_id += 1;
        let request = PersistedRequest {
            instance_id: id,
            schema: s.name.to_string(),
            strategy: s.strategy.to_string(),
            disable_backward: false,
            schema_fingerprint: fp,
            sources: decisionflow::journal::bind_sources(s.schema, s.sources),
            label: Some(s.label.to_string()),
            deadline_ms: None,
        };
        let t0 = Instant::now();
        self.store
            .append(0, StoreEvent::RequestAccepted { request })
            .expect("append");
        for frame in journal.frames {
            self.store
                .append(
                    0,
                    StoreEvent::FrameAppended {
                        instance_id: id,
                        attempt: 0,
                        frame,
                    },
                )
                .expect("append");
        }
        self.store
            .append(
                0,
                StoreEvent::InstanceSealed {
                    instance_id: id,
                    attempt: 0,
                    outcome: SealOutcome::Completed,
                },
            )
            .expect("append");
        t.append_ns += ns(t0);
        let t0 = Instant::now();
        self.store.sync().expect("sync");
        t.sync_ns += ns(t0);
        t.syncs += 1;
    }

    /// Finish: flush the store and take the WAL size.
    pub fn finish(self) -> Replay {
        let mut t = self.totals;
        let dir = self.store.dir().to_path_buf();
        drop(self.store);
        t.wal_bytes = crate::meta::dir_bytes(&dir);
        t
    }
}

/// Run a runtime to completion without timing (the journal pass).
fn drive(rt: &mut InstanceRuntime, schema: &Schema) {
    let mut cands = Vec::new();
    let mut queue: VecDeque<(AttrId, Vec<Value>)> = VecDeque::new();
    loop {
        rt.candidates_into(&mut cands);
        scheduler::select_into(schema, rt.strategy(), &mut cands, rt.in_flight_count());
        for &a in cands.iter() {
            queue.push_back((a, rt.launch(a)));
        }
        if rt.is_complete() {
            return;
        }
        let (a, inputs) = queue.pop_front().expect("work in flight");
        let v = schema.attr(a).task.compute(&inputs);
        rt.complete(a, v);
    }
}
