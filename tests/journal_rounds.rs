//! Scheduling rounds on the tape.
//!
//! Every driver — the in-process executor, the server pump, the
//! durable server's write-ahead log — journals a scheduling round
//! through the one `InstanceRuntime::round` step. These tests pin down
//! the framing that step guarantees and the divergences replay reports
//! when a recorded round disagrees with the live one:
//!
//! * on all three tapes, `Round.round` numbers run 0, 1, 2, … with no
//!   gaps, and every `Round` is followed at once by exactly
//!   `picked.len()` `Launch` frames in pick order — across all 8
//!   strategies at %Permitted 0, 50 and 100;
//! * a tampered `Round` diverges at its own clock: a changed pool is a
//!   candidate mismatch, the same pool with other picks a pick
//!   mismatch, and a `Round` where the live pool is empty is a
//!   candidate mismatch with an empty replayed pool (not a hang).

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use decision_flows::decisionflow::journal::{Event, Frame};
use decision_flows::decisionflow::store;
use decision_flows::dflowgen::{generate, GeneratedFlow, PatternParams};
use decision_flows::prelude::*;

const PERMITTED: [u8; 3] = [0, 50, 100];

fn flows() -> Vec<GeneratedFlow> {
    [(12_001u64, 25u32), (12_002, 60), (12_003, 100)]
        .into_iter()
        .map(|(seed, pct_enabled)| {
            let params = PatternParams {
                nb_nodes: 20,
                nb_rows: 4,
                pct_enabled,
                ..Default::default()
            };
            generate(params, seed).expect("valid pattern")
        })
        .collect()
}

/// The framing matrix: every flow, registered as `f{i}`, under every
/// strategy.
fn matrix() -> (Vec<GeneratedFlow>, Vec<(usize, Strategy)>) {
    let flows = flows();
    let cells = (0..flows.len())
        .flat_map(|i| {
            PERMITTED
                .into_iter()
                .flat_map(Strategy::all_at)
                .map(move |s| (i, s))
        })
        .collect();
    (flows, cells)
}

/// Assert the round framing of one tape; `what` names it in failures.
fn assert_round_framing(journal: &Journal, what: &str) {
    let frames = &journal.frames;
    let mut next_round = 0u32;
    let mut launches_in_rounds = 0usize;
    for (i, frame) in frames.iter().enumerate() {
        let Event::Round { round, picked, .. } = &frame.event else {
            continue;
        };
        assert_eq!(*round, next_round, "{what}: round number at clock {i}");
        next_round += 1;
        let launched: Vec<AttrId> = frames[i + 1..]
            .iter()
            .map_while(|f| match f.event {
                Event::Launch { attr, .. } => Some(attr),
                _ => None,
            })
            .collect();
        assert_eq!(
            &launched, picked,
            "{what}: launches after the round at clock {i}"
        );
        launches_in_rounds += launched.len();
    }
    let launches = frames
        .iter()
        .filter(|f| matches!(f.event, Event::Launch { .. }))
        .count();
    assert_eq!(
        launches, launches_in_rounds,
        "{what}: launch outside a round"
    );
}

fn scratch_dir() -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "dflow-journal-rounds-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A 1 shard × 1 worker server with the matrix flows registered.
fn one_by_one(flows: &[GeneratedFlow], durable: Option<&PathBuf>) -> EngineServer {
    let mut builder = EngineServer::builder().shards(1).workers_per_shard(1);
    if let Some(dir) = durable {
        builder = builder.durable(dir);
    }
    let server = builder.build().expect("server builds");
    for (i, flow) in flows.iter().enumerate() {
        server.register(format!("f{i}"), Arc::clone(&flow.schema));
    }
    server
}

fn request(flows: &[GeneratedFlow], i: usize, strategy: Strategy) -> Request {
    Request::named(format!("f{i}"))
        .sources(flows[i].sources.clone())
        .strategy(strategy)
}

#[test]
fn in_process_journals_frame_rounds_densely() {
    let (flows, cells) = matrix();
    for (i, strategy) in cells {
        let journal = Request::with_schema(Arc::clone(&flows[i].schema))
            .sources(flows[i].sources.clone())
            .strategy(strategy)
            .record_journal(true)
            .run()
            .unwrap_or_else(|e| panic!("{strategy} failed: {e}"))
            .journal
            .expect("journal requested");
        assert_round_framing(&journal, &format!("in-process {strategy}"));
    }
}

#[test]
fn server_captures_frame_rounds_densely() {
    let (flows, cells) = matrix();
    let server = one_by_one(&flows, None);
    for (i, strategy) in cells {
        let journal = server
            .submit(request(&flows, i, strategy).record_journal(true))
            .expect("submit")
            .wait()
            .expect("instance completes")
            .journal
            .expect("journal requested");
        assert_round_framing(&journal, &format!("server {strategy}"));
    }
}

#[test]
fn durable_reconstructions_frame_rounds_densely() {
    let (flows, cells) = matrix();
    let dir = scratch_dir();
    let mut ids = Vec::new();
    {
        let server = one_by_one(&flows, Some(&dir));
        let tickets: Vec<_> = cells
            .into_iter()
            .map(|(i, strategy)| {
                let ticket = server
                    .submit(request(&flows, i, strategy).durable(true))
                    .expect("durable submit");
                (ticket, strategy)
            })
            .collect();
        for (ticket, strategy) in tickets {
            ids.push((ticket.instance_id(), strategy));
            ticket.wait().expect("instance completes");
        }
    }
    for (id, strategy) in ids {
        let journal = store::fetch_journal(&dir, id).expect("sealed journal reconstructs");
        assert_round_framing(&journal, &format!("durable {strategy} (instance {id})"));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `s` fans out to three queries of distinct cost, all read by the
/// target: under PCE100 the first round picks all three at once.
fn fanout_tape() -> (Arc<Schema>, Journal) {
    let mut b = SchemaBuilder::new();
    let s = b.source("s");
    let qs: Vec<AttrId> = [3u64, 1, 2]
        .iter()
        .enumerate()
        .map(|(i, &cost)| {
            b.attr(
                format!("q{i}"),
                Task::const_query(cost, i as i64),
                vec![s],
                Expr::Lit(true),
            )
        })
        .collect();
    let t = b.attr("t", Task::const_query(1, 9i64), qs, Expr::Lit(true));
    b.mark_target(t);
    let schema = Arc::new(b.build().expect("valid schema"));
    let mut sources = SourceValues::new();
    sources.set(s, 1i64);
    let journal = Request::with_schema(Arc::clone(&schema))
        .sources(sources)
        .strategy("PCE100".parse().expect("strategy"))
        .record_journal(true)
        .run()
        .expect("runs")
        .journal
        .expect("journal requested");
    (schema, journal)
}

/// Index of the first `Round` frame, which must launch several tasks.
fn first_round(journal: &Journal) -> usize {
    let idx = journal
        .frames
        .iter()
        .position(|f| matches!(f.event, Event::Round { .. }))
        .expect("tape has a round");
    let Event::Round {
        candidates, picked, ..
    } = &journal.frames[idx].event
    else {
        unreachable!()
    };
    assert!(picked.len() >= 2, "fixture round launches several tasks");
    assert_eq!(picked.len(), candidates.len(), "PCE100 launches its pool");
    idx
}

fn replay_err(schema: &Arc<Schema>, journal: Journal) -> Divergence {
    ReplayEngine::new(Arc::clone(schema), journal)
        .expect("header valid")
        .replay()
        .expect_err("tampered tape must diverge")
}

#[test]
fn tampered_candidates_are_a_candidate_mismatch() {
    let (schema, journal) = fanout_tape();
    let idx = first_round(&journal);
    let mut tampered = journal.clone();
    let Event::Round { candidates, .. } = &mut tampered.frames[idx].event else {
        unreachable!()
    };
    let recorded = candidates[1..].to_vec();
    *candidates = recorded.clone();
    let div = replay_err(&schema, tampered);
    assert_eq!(div.clock, Some(idx as u64));
    let DivergenceKind::CandidateMismatch {
        recorded: r,
        replayed,
    } = div.kind
    else {
        panic!("expected a candidate mismatch, got {:?}", div.kind)
    };
    assert_eq!(r, recorded);
    assert_eq!(replayed.len(), recorded.len() + 1);
}

#[test]
fn tampered_picks_are_a_pick_mismatch() {
    let (schema, journal) = fanout_tape();
    let idx = first_round(&journal);
    let tampers: [fn(&mut Vec<AttrId>); 2] = [|p| p.reverse(), |p| p.truncate(p.len() - 1)];
    for tamper in tampers {
        let mut tampered = journal.clone();
        let Event::Round { picked, .. } = &mut tampered.frames[idx].event else {
            unreachable!()
        };
        let original = picked.clone();
        tamper(picked);
        let recorded = picked.clone();
        let div = replay_err(&schema, tampered);
        assert_eq!(div.clock, Some(idx as u64));
        assert_eq!(
            div.kind,
            DivergenceKind::PickMismatch {
                recorded,
                replayed: original,
            }
        );
    }
}

#[test]
fn round_over_an_empty_live_pool_is_a_candidate_mismatch() {
    let (schema, journal) = fanout_tape();
    let idx = first_round(&journal);
    let Event::Round { picked, .. } = &journal.frames[idx].event else {
        unreachable!()
    };
    // Right after the first round's launches every candidate is in
    // flight, so the live pool is empty until the next completion.
    let at = idx + 1 + picked.len();
    let mut tampered = journal.clone();
    tampered.frames.insert(
        at,
        Frame {
            clock: at as u64,
            event: Event::Round {
                round: 1,
                candidates: vec![schema.lookup("t").expect("target")],
                picked: Vec::new(),
            },
        },
    );
    for (clock, frame) in tampered.frames.iter_mut().enumerate().skip(at + 1) {
        frame.clock = clock as u64;
    }
    // Replay on its own thread, so a replay that waits forever for the
    // live engine to emit the round fails here instead of hanging.
    let (tx, rx) = std::sync::mpsc::channel();
    let replayed = Arc::clone(&schema);
    std::thread::spawn(move || tx.send(replay_err(&replayed, tampered)));
    let div = rx
        .recv_timeout(Duration::from_secs(30))
        .expect("replay returns instead of waiting for the round");
    assert_eq!(div.clock, Some(at as u64));
    assert_eq!(
        div.kind,
        DivergenceKind::CandidateMismatch {
            recorded: vec![schema.lookup("t").expect("target")],
            replayed: Vec::new(),
        }
    );
}
