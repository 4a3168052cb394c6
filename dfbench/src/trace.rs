//! Outside-in tracing for the traced run: task bodies the benchmark
//! wraps record their start, end and worker thread, and the generator
//! records spans around `Request` building, `EngineServer::submit` and
//! the ticket wait. Spans stay in memory until the run ends.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use decisionflow::prelude::{Schema, SchemaBuilder, Task, Value};

use crate::stats::{mean, median};

/// Slot of a body whose request is not attributed to one instance.
pub const UNTRACKED: u32 = u32::MAX;

/// One task body execution.
#[derive(Clone, Copy, Debug)]
pub struct BodySpan {
    /// Generator slot of the request the body belongs to.
    pub slot: u32,
    /// Hash of the worker thread's id.
    pub thread: u64,
    /// Start, ns since the tracer's epoch.
    pub start: u64,
    /// End, ns since the tracer's epoch.
    pub end: u64,
}

/// One traced request, as the generator saw it.
#[derive(Clone, Copy, Debug)]
pub struct RequestSpan {
    /// Generator slot (the schema copy it ran on).
    pub slot: u32,
    /// `submit` called, ns since epoch.
    pub submit_start: u64,
    /// `submit` returned, ns since epoch.
    pub submit_end: u64,
    /// Server-side completion: submit start plus the result's elapsed.
    pub done: u64,
}

/// Span store shared by the generator and the wrapped task bodies.
pub struct Tracer {
    epoch: Instant,
    bodies: Mutex<Vec<BodySpan>>,
}

impl Tracer {
    /// A fresh tracer whose epoch is now.
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            bodies: Mutex::new(Vec::with_capacity(1 << 20)),
        })
    }

    /// `t` as ns since the epoch.
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Drain every body span recorded so far.
    pub fn take_bodies(&self) -> Vec<BodySpan> {
        std::mem::take(&mut *self.bodies.lock().expect("no body panics while recording"))
    }

    /// A copy of `schema` whose every task body records a [`BodySpan`]
    /// under `slot`. Ids, names, costs, inputs, conditions and values
    /// are unchanged.
    pub fn wrap(self: &Arc<Tracer>, schema: &Schema, slot: u32) -> Arc<Schema> {
        let mut b = SchemaBuilder::new();
        for a in schema.attr_ids() {
            let def = schema.attr(a);
            let id = match &def.task {
                Task::Source => b.source(def.name.clone()),
                task => {
                    let inner = task.clone();
                    let tracer = Arc::clone(self);
                    let body = move |ins: &[Value]| {
                        let start = Instant::now();
                        let v = inner.compute(ins);
                        let end = Instant::now();
                        tracer
                            .bodies
                            .lock()
                            .expect("no body panics while recording")
                            .push(BodySpan {
                                slot,
                                thread: thread_key(),
                                start: tracer.ns(start),
                                end: tracer.ns(end),
                            });
                        v
                    };
                    let wrapped = match task {
                        Task::Synthesis { cost, .. } => Task::synthesis_with_cost(*cost, body),
                        _ => Task::query(task.cost(), body),
                    };
                    b.attr(
                        def.name.clone(),
                        wrapped,
                        def.inputs.clone(),
                        def.enabling.clone(),
                    )
                }
            };
            if def.target {
                b.mark_target(id);
            }
        }
        Arc::new(b.build().expect("wrapped schema stays valid"))
    }
}

fn thread_key() -> u64 {
    let mut h = DefaultHasher::new();
    std::thread::current().id().hash(&mut h);
    h.finish()
}

/// Per-instance server self-times derived from body and request spans.
#[derive(Clone, Debug, Default)]
pub struct ServerSelfTimes {
    /// Median ns from an instance's first body being ready to run (its
    /// `submit` returned and its worker finished the body before) to
    /// that body starting.
    pub first_task_ns: f64,
    /// Mean worker ns between consecutive bodies of any instance on one
    /// thread, over gaps while some request was outstanding.
    pub task_gap_ns: f64,
    /// Median ns from an instance's last body, or a later body of
    /// another instance on the same thread, ending to its completion.
    pub result_ns: f64,
    /// Mean body duration, ns.
    pub body_ns: f64,
}

/// Body spans of each worker thread, in time order.
struct Timelines(HashMap<u64, Vec<BodySpan>>);

impl Timelines {
    fn of(bodies: &[BodySpan]) -> Timelines {
        let mut by_thread: HashMap<u64, Vec<BodySpan>> = HashMap::new();
        for b in bodies {
            by_thread.entry(b.thread).or_default().push(*b);
        }
        for v in by_thread.values_mut() {
            v.sort_by_key(|b| b.start);
        }
        Timelines(by_thread)
    }

    /// The latest end, at or before `t`, of a body on `thread`. Bodies
    /// of one thread never overlap, so ends follow starts.
    fn last_end(&self, thread: u64, t: u64) -> Option<u64> {
        let v = self.0.get(&thread)?;
        let i = v.partition_point(|b| b.end <= t);
        i.checked_sub(1).map(|i| v[i].end)
    }
}

/// Attribute bodies to requests by slot and time window and derive the
/// server's self-times. A worker runs the bodies of every outstanding
/// instance from one queue, so waits are measured per thread: time a
/// worker spent in another instance's body is not the server's own.
/// Bodies of untracked requests count toward the thread timelines and
/// the body duration only.
pub fn self_times(requests: &[RequestSpan], bodies: &[BodySpan]) -> ServerSelfTimes {
    let threads = Timelines::of(bodies);
    let mut by_slot: HashMap<u32, Vec<BodySpan>> = HashMap::new();
    for b in bodies {
        by_slot.entry(b.slot).or_default().push(*b);
    }
    for v in by_slot.values_mut() {
        v.sort_by_key(|b| b.start);
    }
    let (mut first, mut result) = (Vec::new(), Vec::new());
    for r in requests.iter().filter(|r| r.slot != UNTRACKED) {
        let Some(spans) = by_slot.get(&r.slot) else {
            continue;
        };
        let lo = spans.partition_point(|b| b.start < r.submit_start);
        let mine: Vec<&BodySpan> = spans[lo..]
            .iter()
            .take_while(|b| b.start <= r.done)
            .filter(|b| b.end <= r.done)
            .collect();
        let (Some(f), Some(l)) = (mine.first(), mine.iter().max_by_key(|b| b.end)) else {
            continue;
        };
        let ready = threads
            .last_end(f.thread, f.start)
            .map_or(r.submit_end, |e| e.max(r.submit_end));
        first.push(f.start.saturating_sub(ready) as f64);
        let freed = threads.last_end(l.thread, r.done).unwrap_or(l.end);
        result.push(r.done.saturating_sub(freed.max(l.end)) as f64);
    }
    // A gap counts while a request was outstanding across it, so a
    // worker idle between measurement blocks is not counted.
    let mut open: Vec<(u64, u64)> = requests.iter().map(|r| (r.submit_end, r.done)).collect();
    open.sort_unstable();
    let mut latest_done = Vec::with_capacity(open.len());
    let mut m = 0;
    for &(_, done) in &open {
        m = m.max(done);
        latest_done.push(m);
    }
    let outstanding = |a: u64, b: u64| {
        let i = open.partition_point(|&(s, _)| s <= a);
        i > 0 && latest_done[i - 1] >= b
    };
    let mut gaps = Vec::new();
    for v in threads.0.values() {
        for w in v.windows(2) {
            if w[1].start >= w[0].end && outstanding(w[0].end, w[1].start) {
                gaps.push((w[1].start - w[0].end) as f64);
            }
        }
    }
    let durations: Vec<f64> = bodies.iter().map(|b| (b.end - b.start) as f64).collect();
    let median_or_zero = |v: &[f64]| if v.is_empty() { 0.0 } else { median(v) };
    ServerSelfTimes {
        first_task_ns: median_or_zero(&first),
        task_gap_ns: mean(&gaps),
        result_ns: median_or_zero(&result),
        body_ns: mean(&durations),
    }
}

/// Share of `workers × window_ns` that task bodies kept busy.
pub fn busy_share(bodies: &[BodySpan], workers: usize, window_ns: u64) -> f64 {
    let busy: u64 = bodies.iter().map(|b| b.end - b.start).sum();
    busy as f64 / (workers as f64 * window_ns.max(1) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_measure_per_worker_thread() {
        let body = |slot, thread, start, end| BodySpan {
            slot,
            thread,
            start,
            end,
        };
        let req = |slot, submit_start, submit_end, done| RequestSpan {
            slot,
            submit_start,
            submit_end,
            done,
        };
        let requests = [
            req(0, 100, 110, 200),
            req(1, 105, 120, 300),
            req(2, 390, 395, 450),
        ];
        let bodies = [
            // Thread 1 runs slots 0 and 1 interleaved, back to back.
            body(0, 1, 130, 140),
            body(1, 1, 140, 150),
            body(0, 1, 150, 170),
            body(1, 1, 170, 250),
            // Idle with nothing outstanding, then a later request of
            // slot 0: not a gap.
            body(0, 1, 600, 610),
            // Thread 2 runs slot 2 with a 20 ns gap.
            body(2, 2, 400, 410),
            body(2, 2, 430, 440),
        ];
        let t = self_times(&requests, &bodies);
        // first: slot 0 130-110=20; slot 1's body waited on slot 0's,
        // which ended at 140: 0; slot 2 400-395=5.
        assert_eq!(t.first_task_ns, 5.0);
        // result: 200-170=30, 300-250=50, 450-440=10.
        assert_eq!(t.result_ns, 30.0);
        // Interleaved bodies leave no gap; thread 2's gap is 20.
        assert_eq!(t.task_gap_ns, 5.0);
        assert!((busy_share(&bodies[..4], 1, 200) - 0.6).abs() < 1e-12);
    }
}
