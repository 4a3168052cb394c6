//! Load generation from one thread: the closed loop (a fixed number of
//! requests outstanding, results taken in submission order) and the
//! open loop (Poisson arrivals at a fixed rate, latency timed from each
//! request's due time), plus the accounting both share.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use decisionflow::prelude::{EngineServer, InstanceResult, Request, ServerGone, Ticket};

use crate::inputs::{record_agrees, Oracle, Rng};
use crate::stats::{self, Latency, Phase};
use crate::trace::{RequestSpan, Tracer};

/// The latency limit, and the deadline every open-loop request carries.
pub const LIMIT: Duration = Duration::from_millis(100);

/// Hands the generator its next request.
pub trait Source<'a> {
    /// The next request for generator `slot`, with its oracle and the
    /// trace slot of the schema copy it targets.
    fn next(&mut self, slot: usize) -> (Request, &'a Oracle, u32);
}

/// Outcome accounting: every attempt ends completed or failed.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    /// Requests issued.
    pub attempted: u64,
    /// Results delivered and matching the oracle.
    pub completed: u64,
    /// Refusals, `ServerGone` and oracle mismatches.
    pub failed: u64,
    /// Of `failed`: oracle mismatches.
    pub mismatches: u64,
    /// Completions later than [`LIMIT`].
    pub late: u64,
    /// Latency of every completion, ms.
    pub lat_ms: Vec<f64>,
    /// Paper Work summed over completions.
    pub work: u64,
    /// Wasted speculative work summed over completions.
    pub wasted: u64,
    /// Tasks launched summed over completions.
    pub launched: u64,
    /// Unneeded attributes detected summed over completions.
    pub unneeded: u64,
}

impl Tally {
    /// Account one result of a request due at `due` and submitted at
    /// `submitted`; its latency is timed from the due time. Returns the
    /// server-side elapsed time of a correct completion.
    pub fn absorb(
        &mut self,
        res: Result<InstanceResult, ServerGone>,
        expect: &Oracle,
        due: Instant,
        submitted: Instant,
    ) -> Option<Duration> {
        match res {
            Err(ServerGone) => {
                self.failed += 1;
                None
            }
            Ok(r) if !record_agrees(&r.record, expect) => {
                self.failed += 1;
                self.mismatches += 1;
                None
            }
            Ok(r) => {
                self.completed += 1;
                let lat = stats::due_latency(due, submitted, r.elapsed);
                if lat > LIMIT {
                    self.late += 1;
                }
                self.lat_ms.push(lat.as_secs_f64() * 1e3);
                let m = &r.record.metrics;
                self.work += m.work;
                self.wasted += m.wasted_work;
                self.launched += u64::from(m.launched);
                self.unneeded += u64::from(m.unneeded_detected);
                Some(r.elapsed)
            }
        }
    }

    /// Account one in-process run.
    pub fn absorb_local(&mut self, ok: bool, work: u64, wasted: u64) {
        self.attempted += 1;
        if ok {
            self.completed += 1;
            self.work += work;
            self.wasted += wasted;
        } else {
            self.failed += 1;
            self.mismatches += 1;
        }
    }

    /// Fold another tally's counts and samples into this one.
    pub fn merge(&mut self, o: &Tally) {
        self.attempted += o.attempted;
        self.completed += o.completed;
        self.failed += o.failed;
        self.mismatches += o.mismatches;
        self.late += o.late;
        self.lat_ms.extend_from_slice(&o.lat_ms);
        self.work += o.work;
        self.wasted += o.wasted;
        self.launched += o.launched;
        self.unneeded += o.unneeded;
    }

    /// Fold only another tally's outcome counts into this one.
    pub fn merge_counts(&mut self, o: &Tally) {
        self.attempted += o.attempted;
        self.completed += o.completed;
        self.failed += o.failed;
        self.mismatches += o.mismatches;
    }

    fn per(&self, x: u64) -> f64 {
        x as f64 / self.completed.max(1) as f64
    }

    /// Mean Work per completion.
    pub fn work_per(&self) -> f64 {
        self.per(self.work)
    }

    /// Mean wasted work per completion.
    pub fn wasted_per(&self) -> f64 {
        self.per(self.wasted)
    }

    /// Mean launches per completion.
    pub fn launched_per(&self) -> f64 {
        self.per(self.launched)
    }

    /// Mean unneeded attributes per completion.
    pub fn unneeded_per(&self) -> f64 {
        self.per(self.unneeded)
    }

    /// Share of attempts that failed or finished late.
    pub fn failed_frac(&self) -> f64 {
        (self.failed + self.late) as f64 / self.attempted.max(1) as f64
    }
}

/// Generator-side spans of a traced run.
pub struct Spans<'t> {
    /// The tracer whose epoch the spans use.
    pub tracer: &'t Tracer,
    /// One span per completed request.
    pub requests: Vec<RequestSpan>,
    /// `Request` building, ns.
    pub request_ns: Vec<f64>,
    /// `EngineServer::submit`, ns.
    pub submit_ns: Vec<f64>,
    /// Ticket wait, ns.
    pub wait_ns: Vec<f64>,
}

impl<'t> Spans<'t> {
    /// Empty spans over `tracer`.
    pub fn new(tracer: &'t Tracer) -> Spans<'t> {
        Spans {
            tracer,
            requests: Vec::new(),
            request_ns: Vec::new(),
            submit_ns: Vec::new(),
            wait_ns: Vec::new(),
        }
    }
}

struct Pending<'a> {
    ticket: Ticket,
    meta: Meta<'a>,
}

#[derive(Clone, Copy)]
struct Meta<'a> {
    expect: &'a Oracle,
    slot: usize,
    trace_slot: u32,
    due: Instant,
    submit_start: Instant,
    submit_end: Instant,
}

fn ns(d: Duration) -> f64 {
    d.as_nanos() as f64
}

/// Build and submit one request; a refusal is counted as failed.
fn issue<'a>(
    server: &EngineServer,
    src: &mut dyn Source<'a>,
    slot: usize,
    due: Instant,
    tally: &mut Tally,
    spans: &mut Option<&mut Spans<'_>>,
) -> Option<Pending<'a>> {
    let t0 = Instant::now();
    let (req, expect, trace_slot) = src.next(slot);
    let submit_start = Instant::now();
    let submitted = server.submit(req);
    let submit_end = Instant::now();
    tally.attempted += 1;
    if let Some(s) = spans {
        s.request_ns.push(ns(submit_start - t0));
        s.submit_ns.push(ns(submit_end - submit_start));
    }
    match submitted {
        Ok(ticket) => Some(Pending {
            ticket,
            meta: Meta {
                expect,
                slot,
                trace_slot,
                due,
                submit_start,
                submit_end,
            },
        }),
        Err(_) => {
            tally.failed += 1;
            None
        }
    }
}

fn settle(
    p: Meta<'_>,
    res: Result<InstanceResult, ServerGone>,
    tally: &mut Tally,
    spans: &mut Option<&mut Spans<'_>>,
    lags_ms: &mut Vec<f64>,
) {
    let lag = stats::generator_lag(p.due, p.submit_start);
    lags_ms.push(lag.as_secs_f64() * 1e3);
    if let Some(elapsed) = tally.absorb(res, p.expect, p.due, p.submit_start) {
        if let Some(s) = spans {
            let start = s.tracer.ns(p.submit_start);
            s.requests.push(RequestSpan {
                slot: p.trace_slot,
                submit_start: start,
                submit_end: s.tracer.ns(p.submit_end),
                done: start + elapsed.as_nanos() as u64,
            });
        }
    }
}

/// Closed loop: keep `slots` requests outstanding until `window` has
/// passed, then drain. Returns completions per second over the loop.
pub fn closed_loop<'a>(
    server: &EngineServer,
    slots: usize,
    window: Duration,
    src: &mut dyn Source<'a>,
    tally: &mut Tally,
    mut spans: Option<&mut Spans<'_>>,
) -> f64 {
    let start = Instant::now();
    let until = start + window;
    let before = tally.completed;
    let mut q: VecDeque<Pending<'a>> = VecDeque::with_capacity(slots);
    let mut lags = Vec::new();
    for slot in 0..slots {
        q.extend(issue(server, src, slot, Instant::now(), tally, &mut spans));
    }
    while let Some(Pending { ticket, meta }) = q.pop_front() {
        let t0 = Instant::now();
        let res = ticket.wait();
        if let Some(s) = spans.as_mut() {
            s.wait_ns.push(ns(t0.elapsed()));
        }
        let slot = meta.slot;
        settle(meta, res, tally, &mut spans, &mut lags);
        if Instant::now() < until {
            q.extend(issue(server, src, slot, Instant::now(), tally, &mut spans));
        }
    }
    (tally.completed - before) as f64 / start.elapsed().as_secs_f64()
}

/// What an open-loop phase leaves besides its [`Phase`].
pub struct OpenRun {
    /// The phase summary.
    pub phase: Phase,
    /// Completions within [`LIMIT`] per second of the phase.
    pub goodput: f64,
    /// Due-time latency of every completion, ms.
    pub lat_ms: Vec<f64>,
    /// Generator lag per request, ms.
    pub lags_ms: Vec<f64>,
    /// Phase start and end (after the drain).
    pub window: (Instant, Instant),
}

fn outstanding(server: &EngineServer) -> f64 {
    server
        .stats()
        .shards
        .iter()
        .map(|s| s.submitted as f64 - s.completed as f64 - s.abandoned as f64)
        .sum()
}

/// Take the oldest outstanding result, waiting until `until` (or for
/// as long as it takes). Returns whether one was taken.
fn collect<'a>(
    q: &mut VecDeque<Pending<'a>>,
    free: &mut Vec<usize>,
    phase: &mut Tally,
    spans: &mut Option<&mut Spans<'_>>,
    lags: &mut Vec<f64>,
    until: Option<Instant>,
) -> bool {
    let Some(p) = q.front() else {
        return false;
    };
    // Without a deadline, wait as long as it takes.
    let t0 = Instant::now();
    let d = until.unwrap_or_else(|| t0 + Duration::from_secs(3600));
    let waited = p.ticket.wait_deadline(d);
    if let Some(s) = spans.as_mut() {
        s.wait_ns.push(ns(t0.elapsed()));
    }
    let res = match waited {
        Ok(None) if until.is_some() => return false,
        Ok(None) => Err(ServerGone),
        Ok(Some(r)) => Ok(r),
        Err(g) => Err(g),
    };
    let p = q.pop_front().expect("front exists").meta;
    if p.slot != usize::MAX {
        free.push(p.slot);
    }
    settle(p, res, phase, spans, lags);
    true
}

/// Open loop: Poisson arrivals at `rate`/s for `span`, then drain.
/// `slots` is the pool of trace slots (0 for an untraced run).
#[allow(clippy::too_many_arguments)]
pub fn open_phase<'a>(
    server: &EngineServer,
    rate: f64,
    span: Duration,
    rng: &mut Rng,
    slots: usize,
    src: &mut dyn Source<'a>,
    tally: &mut Tally,
    mut spans: Option<&mut Spans<'_>>,
) -> OpenRun {
    let count = (rate * span.as_secs_f64()).round() as usize;
    let offsets = stats::poisson_offsets(count, span.as_secs_f64(), || rng.unit());
    let mut phase = Tally::default();
    let mut free: Vec<usize> = (0..slots).rev().collect();
    let mut q: VecDeque<Pending<'a>> = VecDeque::new();
    let mut lags = Vec::with_capacity(count);
    let mut backlog = Vec::new();
    let base = outstanding(server);
    let t0 = Instant::now() + Duration::from_millis(2);
    let tick = Duration::from_millis(20);
    let mut next_sample = t0;
    for off in offsets {
        let due = t0 + Duration::from_secs_f64(off);
        loop {
            let now = Instant::now();
            if now >= next_sample {
                backlog.push(((now - t0).as_secs_f64(), outstanding(server) - base));
                next_sample += tick;
            }
            if now >= due {
                break;
            }
            let until = due.min(next_sample);
            if !collect(
                &mut q,
                &mut free,
                &mut phase,
                &mut spans,
                &mut lags,
                Some(until),
            ) {
                let now = Instant::now();
                if q.is_empty() && until > now {
                    std::thread::sleep(until - now);
                }
            }
        }
        let slot = free.pop().unwrap_or(usize::MAX);
        let pending = issue(server, src, slot, due, &mut phase, &mut spans);
        match pending {
            Some(p) => q.push_back(p),
            None => {
                if slot != usize::MAX {
                    free.push(slot);
                }
            }
        }
    }
    while collect(&mut q, &mut free, &mut phase, &mut spans, &mut lags, None) {}
    let end = Instant::now();
    let secs = (end - t0).as_secs_f64();
    let in_time = phase.completed - phase.late;
    let run = OpenRun {
        phase: Phase {
            rate,
            achieved: phase.completed as f64 / secs,
            latency: Latency::of(&phase.lat_ms),
            backlog_slope: stats::backlog_slope(&backlog),
            failed: (phase.failed + phase.late) as usize,
            attempted: phase.attempted as usize,
        },
        goodput: in_time as f64 / span.as_secs_f64(),
        lat_ms: phase.lat_ms.clone(),
        lags_ms: lags,
        window: (t0, end),
    };
    tally.merge(&phase);
    run
}
