//! Durable event store: crash recovery and time-travel replay,
//! end-to-end through `EngineServer::builder().durable(dir)`.
//!
//! The crash model is **prefix truncation**: a kill can only lose a
//! suffix of the write-ahead log (fsync-ordered appends never leave
//! holes), so chopping the lane's byte stream at an arbitrary offset —
//! at a record boundary or mid-record — reproduces every state a real
//! SIGKILL can leave behind. For deterministic boundaries and random
//! cuts alike, a reopened server must:
//!
//! * tolerate the torn tail (warnings, never errors);
//! * partition the surviving accepted instances into sealed + pending
//!   with no overlap and no loss;
//! * re-execute exactly the pending ones once (`recover_pending` is
//!   latched; already-sealed instances keep their attempt-0 tape);
//! * end fully sealed, fsck-clean, with every sealed journal replaying
//!   through the `ReplayEngine` — and first-life journals that
//!   survived the cut byte-identical to their pre-crash capture.
//!
//! A durable instance hands its tape to the lane in one piece, with
//! its seal. The seal-time tests check what that leaves on disk under
//! concurrent load and all 8 strategies: contiguous tapes with dense
//! clocks right before their seal, a panicking instance's partial tape
//! before its `Abandoned` seal, and no frame that landed after the
//! seal.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use decision_flows::decisionflow::journal::{Event, Frame};
use decision_flows::decisionflow::store;
use decision_flows::dflowgen::{generate, GeneratedFlow, PatternParams};
use decision_flows::prelude::Strategy;
use decision_flows::prelude::*;
use proptest::prelude::*;

/// Fresh scratch directory for one store; removed on clean test exit,
/// left behind on panic for post-mortem `dflow-store fsck`.
fn scratch(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "dflow-durability-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn pattern(nodes: usize, pct: u32) -> PatternParams {
    PatternParams {
        nb_nodes: nodes,
        nb_rows: 3,
        pct_enabled: pct,
        ..Default::default()
    }
}

/// One shard so the store has exactly one WAL lane: the log is a
/// single totally-ordered byte stream and "truncate at offset N" is
/// unambiguous.
fn open_server(dir: &Path) -> EngineServer {
    EngineServer::builder()
        .shards(1)
        .workers_per_shard(2)
        .strategy("PSE100".parse().unwrap())
        .durable(dir)
        .build()
        .expect("open store")
}

/// Run `count` durable instances to completion, one at a time so the
/// lane's record order follows submission order. Returns each
/// instance's id with its live-captured tape bytes.
fn first_life(
    dir: &Path,
    schema: &Arc<Schema>,
    sources: &SourceValues,
    count: u64,
) -> Vec<(u64, Vec<u8>)> {
    let server = open_server(dir);
    server.register("f", Arc::clone(schema));
    let mut lives = Vec::new();
    for _ in 0..count {
        let ticket = server
            .submit(
                Request::named("f")
                    .sources(sources.clone())
                    .durable(true)
                    .record_journal(true),
            )
            .expect("durable submit");
        let id = ticket.instance_id();
        let result = ticket.wait().expect("instance completes");
        let journal = result.journal.expect("journal requested");
        lives.push((id, tape(&journal)));
    }
    lives
}

fn tape(journal: &Journal) -> Vec<u8> {
    let mut bytes = Vec::new();
    journal.write_stream(&mut bytes).expect("serialize tape");
    bytes
}

/// Lane 0's segment files in append order, with their byte contents.
fn lane0_segments(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
    let mut segs: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("store dir")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("wal-000-") && n.ends_with(".seg"))
        })
        .collect();
    segs.sort();
    segs.into_iter()
        .map(|p| {
            let bytes = std::fs::read(&p).expect("read segment");
            (p, bytes)
        })
        .collect()
}

/// Chop the lane's concatenated byte stream at `cut`: segments wholly
/// past the cut are deleted, the one containing it is truncated.
fn truncate_lane(dir: &Path, cut: u64) {
    let mut consumed = 0u64;
    for (path, bytes) in lane0_segments(dir) {
        let len = bytes.len() as u64;
        if consumed >= cut {
            std::fs::remove_file(&path).expect("drop post-cut segment");
        } else if consumed + len > cut {
            std::fs::write(&path, &bytes[..(cut - consumed) as usize]).expect("truncate segment");
        }
        consumed += len;
    }
}

/// Offsets (into the lane's concatenated stream) at which each WAL
/// record ends, decoded from the `[len u32 LE][crc u32 LE][payload]`
/// framing. Offset 0 is included: "crash before anything committed".
fn record_boundaries(dir: &Path) -> Vec<u64> {
    let stream: Vec<u8> = lane0_segments(dir)
        .into_iter()
        .flat_map(|(_, bytes)| bytes)
        .collect();
    let mut boundaries = vec![0u64];
    let mut at = 0usize;
    while at + 8 <= stream.len() {
        let len = u32::from_le_bytes(stream[at..at + 4].try_into().unwrap()) as usize;
        at += 8 + len;
        assert!(at <= stream.len(), "first life left a torn record");
        boundaries.push(at as u64);
    }
    boundaries
}

/// Crash a fully-sealed store at byte `cut`, then drive it through
/// the full recovery protocol, checking every invariant listed in the
/// module docs. `lives` holds each first-life instance's tape.
fn crash_and_recover(dir: &Path, schema: &Arc<Schema>, lives: &[(u64, Vec<u8>)], cut: u64) {
    truncate_lane(dir, cut);

    // Reopen: the torn tail and any acceptance-less construction
    // frames must come back as warnings, never as a refusal to open.
    let server = open_server(dir);
    let recovered = server.store().expect("durable server").recovered().clone();
    let sealed: BTreeMap<u64, u32> = recovered
        .sealed
        .iter()
        .map(|s| (s.instance_id, s.attempt))
        .collect();
    let pending: Vec<u64> = recovered
        .pending
        .iter()
        .map(|p| p.request.instance_id)
        .collect();
    for (id, attempt) in &sealed {
        assert_eq!(
            *attempt, 0,
            "instance {id} sealed pre-crash on its first attempt"
        );
        assert!(
            !pending.contains(id),
            "instance {id} both sealed and pending"
        );
    }
    let submitted: Vec<u64> = lives.iter().map(|(id, _)| *id).collect();
    for id in sealed.keys().chain(&pending) {
        assert!(submitted.contains(id), "unknown instance {id} recovered");
    }
    // New ids must never collide with anything on file.
    let max_on_file = sealed.keys().chain(&pending).max().copied();
    if let Some(max) = max_on_file {
        assert!(
            recovered.next_instance_id > max,
            "id counter resumes past the log"
        );
    }

    // Exactly-once re-execution: one ticket per pending instance, in
    // id order, and the latch makes a second call a no-op.
    server.register("f", Arc::clone(schema));
    let tickets = server.recover_pending().expect("recovery re-enqueues");
    let recovered_ids: Vec<u64> = tickets.iter().map(|t| t.instance_id()).collect();
    assert_eq!(
        recovered_ids, pending,
        "recovery re-executes exactly the pending set"
    );
    assert!(
        server
            .recover_pending()
            .expect("latched call succeeds")
            .is_empty(),
        "second recover_pending must re-enqueue nothing"
    );
    for ticket in tickets {
        ticket.wait().expect("re-executed instance completes");
    }
    drop(server);

    // Second reopen: everything the truncated log accepted is sealed —
    // zero accepted-instance loss, nothing executed twice.
    let state = store::inspect(dir).expect("post-recovery store opens");
    assert!(
        state.pending.is_empty(),
        "no pending instances after recovery"
    );
    let resealed: BTreeMap<u64, u32> = state
        .sealed
        .iter()
        .map(|s| (s.instance_id, s.attempt))
        .collect();
    let mut accepted: Vec<u64> = sealed.keys().chain(&pending).copied().collect();
    accepted.sort_unstable();
    assert_eq!(
        resealed.keys().copied().collect::<Vec<_>>(),
        accepted,
        "every accepted instance is sealed after recovery"
    );
    for (id, attempt) in &resealed {
        if sealed.contains_key(id) {
            assert_eq!(*attempt, 0, "pre-crash seal of {id} survives untouched");
        } else {
            assert!(
                *attempt >= 1,
                "re-executed instance {id} seals a bumped attempt"
            );
        }
    }
    let report = store::fsck(dir).expect("fsck scans");
    assert!(
        report.ok(),
        "only warnings after recovery:\n{}",
        report.to_text()
    );

    // Time travel: every sealed journal replays, and tapes sealed
    // before the crash are byte-identical to their live capture.
    for (id, attempt) in &resealed {
        let journal = store::fetch_journal(dir, *id).expect("sealed journal reconstructs");
        if *attempt == 0 {
            let (_, live) = lives
                .iter()
                .find(|(lid, _)| lid == id)
                .expect("known instance");
            assert_eq!(
                &tape(&journal),
                live,
                "instance {id} tape drifted across the crash"
            );
        }
        let outcome = ReplayEngine::new(Arc::clone(schema), journal)
            .expect("journal header valid")
            .replay()
            .expect("recovered journal replays without divergence");
        assert!(
            outcome.frames_verified > 0,
            "replay of {id} verified its frames"
        );
    }
    let _ = std::fs::remove_dir_all(dir);
}

/// Time-travel baseline, no crash: the journal reconstructed from the
/// WAL is byte-for-byte the journal the live execution captured, and
/// it replays cleanly.
#[test]
fn fetch_journal_matches_live_capture_byte_for_byte() {
    let flow = generate(pattern(18, 60), 7_001).expect("valid pattern");
    let dir = scratch("tape");
    let lives = first_life(&dir, &flow.schema, &flow.sources, 6);
    for (id, live) in &lives {
        let journal = store::fetch_journal(&dir, *id).expect("sealed journal reconstructs");
        assert_eq!(
            &tape(&journal),
            live,
            "instance {id}: WAL tape != live tape"
        );
        ReplayEngine::new(Arc::clone(&flow.schema), journal)
            .expect("journal header valid")
            .replay()
            .expect("fetched journal replays");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Deterministic tears: exactly at a record boundary (the clean-crash
/// case) and a few bytes past one (a torn record). Both first-life
/// stores are byte-copies of the same run, so the two cuts exercise
/// the same log.
#[test]
fn tears_at_record_boundaries_and_mid_record_recover() {
    let flow = generate(pattern(16, 50), 4_400).expect("valid pattern");
    let master = scratch("boundary-master");
    let lives = first_life(&master, &flow.schema, &flow.sources, 4);
    let boundaries = record_boundaries(&master);
    assert!(boundaries.len() > 4, "four instances leave several records");

    let mid_boundary = boundaries[boundaries.len() / 2];
    let torn = boundaries[boundaries.len() / 2] + 5;
    let everything = *boundaries.last().unwrap();
    for (tag, cut) in [
        ("clean", mid_boundary),
        ("torn", torn),
        ("nothing-lost", everything),
        ("all-lost", 0),
    ] {
        let dir = scratch(&format!("boundary-{tag}"));
        copy_store(&master, &dir);
        crash_and_recover(&dir, &flow.schema, &lives, cut);
    }
    let _ = std::fs::remove_dir_all(&master);
}

/// Regression: within a lane, every instance's lifecycle record (its
/// acceptance, or the requeue of a later attempt) must hit the log
/// before any frame of that attempt. Building a runtime streams its
/// eager-initialization frames, so a submit path that prepared first
/// would let a crash persist frames for an instance that was never
/// durably accepted — and the orphans could be mis-attributed if the
/// id were ever reissued.
#[test]
fn lifecycle_records_precede_frames_on_disk() {
    let flow = generate(pattern(14, 70), 9_900).expect("valid pattern");
    let dir = scratch("record-order");
    let lives = first_life(&dir, &flow.schema, &flow.sources, 3);
    let mut seen: Vec<(u64, u32)> = Vec::new();
    let mut frames = 0u64;
    for (path, bytes) in lane0_segments(&dir) {
        let (records, defect) = store::wal::scan_segment(&bytes);
        assert!(
            defect.is_none(),
            "clean shutdown leaves no defect in {path:?}"
        );
        for record in records {
            let text = std::str::from_utf8(&record.payload).expect("utf8 payload");
            let event: store::StoreEvent = serde::json::from_str(text).expect("store event");
            match event {
                store::StoreEvent::RequestAccepted { request } => {
                    seen.push((request.instance_id, 0));
                }
                store::StoreEvent::RequestRequeued {
                    instance_id,
                    attempt,
                } => {
                    seen.push((instance_id, attempt));
                }
                store::StoreEvent::FrameAppended {
                    instance_id,
                    attempt,
                    ..
                } => {
                    frames += 1;
                    assert!(
                        seen.contains(&(instance_id, attempt)),
                        "frame for instance {instance_id} attempt {attempt} precedes \
                         its lifecycle record on disk"
                    );
                }
                _ => {}
            }
        }
    }
    assert_eq!(
        seen.len(),
        lives.len(),
        "one lifecycle record per submitted instance"
    );
    assert!(frames > 0, "durable instances leave frames");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every record on lane 0, decoded, in append order.
fn lane0_records(dir: &Path) -> Vec<StoreEvent> {
    let mut events = Vec::new();
    for (path, bytes) in lane0_segments(dir) {
        let (records, defect) = store::wal::scan_segment(&bytes);
        assert!(defect.is_none(), "clean run leaves no defect in {path:?}");
        for record in records {
            let text = std::str::from_utf8(&record.payload).expect("utf8 payload");
            events.push(serde::json::from_str(text).expect("store event"));
        }
    }
    events
}

/// Each sealed instance's tape as lane 0 holds it, checking the
/// seal-time hand-off on the way: an instance's frames form one
/// contiguous run with clocks 0, 1, 2, …, its seal follows the last of
/// them at once, and no instance seals twice.
fn sealed_tapes(dir: &Path) -> BTreeMap<u64, (Vec<Frame>, SealOutcome)> {
    let mut tapes = BTreeMap::new();
    let mut open: Option<(u64, u32, Vec<Frame>)> = None;
    for event in lane0_records(dir) {
        match event {
            StoreEvent::FrameAppended {
                instance_id,
                attempt,
                frame,
            } => {
                let (id, at, frames) =
                    open.get_or_insert_with(|| (instance_id, attempt, Vec::new()));
                assert_eq!(
                    (*id, *at),
                    (instance_id, attempt),
                    "a frame of instance {instance_id} inside the tape of instance {id}"
                );
                assert_eq!(
                    frame.clock,
                    frames.len() as u64,
                    "instance {instance_id}: clocks run 0, 1, 2, …"
                );
                frames.push(frame);
            }
            StoreEvent::InstanceSealed {
                instance_id,
                attempt,
                outcome,
            } => {
                let frames = match open.take() {
                    Some((id, at, frames)) => {
                        assert_eq!(
                            (id, at),
                            (instance_id, attempt),
                            "seal of instance {instance_id} right after the tape of {id}"
                        );
                        frames
                    }
                    None => Vec::new(),
                };
                assert!(
                    tapes.insert(instance_id, (frames, outcome)).is_none(),
                    "instance {instance_id} sealed twice"
                );
            }
            other => assert!(open.is_none(), "{other:?} inside an instance's tape"),
        }
    }
    assert!(open.is_none(), "a tape on disk without its seal");
    tapes
}

/// `s ─► g, m ─► t` where `t`'s condition `g < 0` is false: the
/// instance completes (its target disabled) as soon as the fast `g`
/// lands, while the slow `m`, launched in the same round under every
/// strategy, is still running — a straggler completing after the seal.
fn straggler_flow() -> (Arc<Schema>, SourceValues) {
    let mut b = SchemaBuilder::new();
    let s = b.source("s");
    let g = b.query("g", 1, vec![s], Expr::Lit(true), |ins| {
        Value::Int(ins[0].as_f64().unwrap_or(0.0) as i64 + 1)
    });
    let m = b.query("m", 1, vec![s], Expr::Lit(true), |ins| {
        std::thread::sleep(Duration::from_millis(2));
        Value::Int(ins[0].as_f64().unwrap_or(0.0) as i64 * 2)
    });
    let t = b.synthesis(
        "t",
        vec![g, m],
        Expr::cmp_const(g, CmpOp::Lt, 0i64),
        |ins| ins[1].clone(),
    );
    b.mark_target(t);
    let mut sources = SourceValues::new();
    sources.set(s, 5i64);
    (Arc::new(b.build().expect("valid schema")), sources)
}

/// Sleep-bound dflowgen flows, whose task bodies take real time so a
/// multi-worker shard runs several instances (and a speculative
/// instance's tasks) at once, plus the [`straggler_flow`].
fn timed_flows() -> Vec<(Arc<Schema>, SourceValues)> {
    [(16_001u64, 40u32), (16_002, 75)]
        .into_iter()
        .map(|(seed, pct)| {
            let flow = generate(pattern(16, pct), seed)
                .expect("valid pattern")
                .with_unit_delay(Duration::from_micros(20));
            (flow.schema, flow.sources)
        })
        .chain(std::iter::once(straggler_flow()))
        .collect()
}

/// Submit every timed flow three times under each of the 8 strategies
/// (at %Permitted 100, so every candidate of a round launches) as one
/// batch on a durable 1 shard × 4 worker server, and wait for
/// all of it. Returns each instance's id with its result.
fn run_matrix(dir: &Path, record_journal: bool) -> Vec<(u64, InstanceResult)> {
    let flows = timed_flows();
    let server = EngineServer::builder()
        .shards(1)
        .workers_per_shard(4)
        .durable(dir)
        .build()
        .expect("open store");
    let mut requests = Vec::new();
    for (i, (schema, sources)) in flows.iter().enumerate() {
        server.register(format!("f{i}"), Arc::clone(schema));
        for strategy in Strategy::all_at(100) {
            for _ in 0..3 {
                requests.push(
                    Request::named(format!("f{i}"))
                        .sources(sources.clone())
                        .strategy(strategy)
                        .durable(true)
                        .record_journal(record_journal),
                );
            }
        }
    }
    let tickets = server
        .submit_many(requests)
        .expect("batch accepted")
        .into_tickets();
    let results: Vec<(u64, InstanceResult)> = tickets
        .into_iter()
        .map(|t| (t.instance_id(), t.wait().expect("instance completes")))
        .collect();
    server
        .store()
        .expect("durable server")
        .sync()
        .expect("sync");
    results
}

/// Under concurrent load every sealed tape is one contiguous run on
/// the lane, right before its seal, and reconstructs as the journal.
#[test]
fn sealed_tapes_are_contiguous_on_the_lane() {
    let dir = scratch("contiguous");
    let results = run_matrix(&dir, false);
    let tapes = sealed_tapes(&dir);
    assert_eq!(tapes.len(), results.len(), "one seal per instance");
    for (id, _) in &results {
        let (frames, outcome) = &tapes[id];
        assert_eq!(*outcome, SealOutcome::Completed);
        assert!(!frames.is_empty(), "instance {id} left no frames");
        let journal = store::fetch_journal(&dir, *id).expect("sealed journal reconstructs");
        assert_eq!(&journal.frames, frames, "instance {id}: fetched tape");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A task completion that lands after the instance completed (a
/// speculative straggler) is in neither tape: the frames on disk are
/// exactly the live journal's.
#[test]
fn frames_on_disk_equal_the_live_journal() {
    let dir = scratch("stragglers");
    let results = run_matrix(&dir, true);
    let tapes = sealed_tapes(&dir);
    let mut stragglers = 0usize;
    for (id, result) in &results {
        let live = &result.journal.as_ref().expect("journal requested").frames;
        assert_eq!(&tapes[id].0, live, "instance {id}: disk tape != live tape");
        let completed: Vec<AttrId> = live
            .iter()
            .filter_map(|f| match f.event {
                Event::Complete { attr, .. } => Some(attr),
                _ => None,
            })
            .collect();
        stragglers += live
            .iter()
            .filter(|f| matches!(f.event, Event::Launch { attr, .. } if !completed.contains(&attr)))
            .count();
    }
    assert!(
        stragglers > 0,
        "no launch was still running at any seal; the matrix tests nothing"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// `flow` with its target's task body replaced by one that panics.
fn with_panicking_target(flow: &GeneratedFlow) -> Arc<Schema> {
    let mut b = SchemaBuilder::new();
    for a in flow.schema.attr_ids() {
        let def = flow.schema.attr(a);
        let id = if def.task.is_source() {
            b.source(def.name.clone())
        } else {
            let task = if def.target {
                Task::query(def.task.cost(), |_: &[Value]| {
                    panic!("target body exploded")
                })
            } else {
                def.task.clone()
            };
            b.attr(
                def.name.clone(),
                task,
                def.inputs.clone(),
                def.enabling.clone(),
            )
        };
        assert_eq!(id, a, "rebuild preserves attribute ids");
        if def.target {
            b.mark_target(id);
        }
    }
    Arc::new(b.build().expect("rebuilt schema stays valid"))
}

/// An instance whose task body panics is abandoned: the lane holds the
/// tape it recorded up to then (the target launched, never completed)
/// and then its `Abandoned` seal.
#[test]
fn panicking_body_leaves_partial_tape_then_abandoned_seal() {
    let flow = generate(pattern(14, 100), 17_001).expect("valid pattern");
    let schema = with_panicking_target(&flow);
    let target = schema
        .attr_ids()
        .find(|&a| schema.attr(a).target)
        .expect("flow has a target");
    let dir = scratch("abandoned");
    let server = open_server(&dir);
    server.register("doomed", Arc::clone(&schema));
    let mut ids = Vec::new();
    for strategy in Strategy::all_at(50) {
        let ticket = server
            .submit(
                Request::named("doomed")
                    .sources(flow.sources.clone())
                    .strategy(strategy)
                    .durable(true),
            )
            .expect("durable submit");
        ids.push(ticket.instance_id());
        assert!(ticket.wait().is_err(), "{strategy}: instance abandoned");
    }
    server
        .store()
        .expect("durable server")
        .sync()
        .expect("sync");
    let tapes = sealed_tapes(&dir);
    assert_eq!(tapes.len(), ids.len(), "one seal per instance");
    for id in ids {
        let (frames, outcome) = &tapes[&id];
        assert_eq!(*outcome, SealOutcome::Abandoned, "instance {id}");
        let launched = frames
            .iter()
            .any(|f| matches!(f.event, Event::Launch { attr, .. } if attr == target));
        let completed = frames
            .iter()
            .any(|f| matches!(f.event, Event::Complete { attr, .. } if attr == target));
        assert!(
            launched && !completed,
            "instance {id}: partial tape ends with the target in flight"
        );
        let journal = store::fetch_journal(&dir, id).expect("abandoned journal reconstructs");
        assert_eq!(
            &journal.frames, frames,
            "instance {id}: fetched partial tape"
        );
    }
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

fn copy_store(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).expect("create copy dir");
    for entry in std::fs::read_dir(from).expect("read store dir") {
        let path = entry.expect("dir entry").path();
        if path.is_file() {
            std::fs::copy(&path, to.join(path.file_name().unwrap())).expect("copy segment");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random flows, random cut offsets: whatever byte the "crash"
    /// lands on, recovery upholds the exactly-once protocol.
    #[test]
    fn random_truncation_recovers_exactly_once(seed in any::<u64>(), cut_seed in any::<u64>()) {
        let flow = generate(pattern(10 + (seed % 12) as usize, (seed % 101) as u32), seed)
            .expect("valid pattern");
        let dir = scratch("random");
        let lives = first_life(&dir, &flow.schema, &flow.sources, 5);
        let total: u64 = lane0_segments(&dir).iter().map(|(_, b)| b.len() as u64).sum();
        crash_and_recover(&dir, &flow.schema, &lives, cut_seed % (total + 1));
    }
}
