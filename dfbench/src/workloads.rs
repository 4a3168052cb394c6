//! The three workloads. Each builds its inputs from the seed, times
//! server set-up, measures end-to-end metrics with tracing off, and in
//! a traced run also yields the per-layer metrics.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use decisionflow::prelude::{EngineServer, InstanceSnapshot, Request, Schema};

use crate::drive::{self, closed_loop, open_phase, Source, Spans, Tally, LIMIT};
use crate::inputs::{self, strategies, Flow, Label, Oracle, Rng};
use crate::meta;
use crate::replay::{Replay, Replayer, Sample};
use crate::stats::{self, mean, median, Latency};
use crate::trace::{self, Tracer, UNTRACKED};

/// Run-wide settings.
pub struct Ctx {
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Directory for this run's write-ahead logs.
    pub wal_root: PathBuf,
}

impl Ctx {
    fn secs(&self, share: f64) -> Duration {
        Duration::from_secs_f64(self.seconds * share)
    }

    fn wal_dir(&self, name: &str) -> PathBuf {
        self.wal_root.join(name)
    }
}

/// The end-to-end metrics of one workload.
#[derive(Clone, Debug)]
pub struct E2E {
    /// Median server set-up time, s.
    pub setup_s: f64,
    /// Completed instances per second on the server.
    pub throughput: f64,
    /// Completed instances per second in-process.
    pub inproc_throughput: f64,
    /// Median latency, ms: the median of block medians.
    pub p50_ms: f64,
    /// 99th-percentile latency, ms: the median of block p99s.
    pub p99_ms: f64,
    /// Every latency sample pooled, for the tail-rule percentile.
    pub pooled: Latency,
    /// Highest fixed rate meeting the limit, as achieved.
    pub slo_rate: f64,
    /// Mean paper Work per instance.
    pub work_per_instance: f64,
    /// Mean wasted speculative work per instance.
    pub wasted_per_instance: f64,
    /// One minus the share of attempts failed or late.
    pub success_frac: f64,
    /// Peak resident memory, MiB.
    pub peak_rss_mb: f64,
}

/// Everything one run yields.
pub struct Outcome {
    /// End-to-end metrics (untraced run).
    pub e2e: Option<E2E>,
    /// Per-layer metrics (traced run): name, value, unit.
    pub layers: Vec<(String, f64, &'static str)>,
    /// Outcome accounting over every request of the run.
    pub tally: Tally,
    /// Extra readings for the run record.
    pub notes: Vec<(String, String)>,
}

/// Server set-ups timed at each sampling point of a run. Points are
/// spread over the run, so `setup_s` sees the same host as the rest.
const SETUPS_PER_POINT: usize = 4;

/// Server set-up times; `setup_s` is their median.
#[derive(Default)]
struct Setups(Vec<f64>);

impl Setups {
    /// Time one set-up.
    fn time<T>(&mut self, build: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let built = build();
        self.0.push(t0.elapsed().as_secs_f64());
        built
    }

    /// Time [`SETUPS_PER_POINT`] set-ups, dropping what they build.
    fn sample<T>(&mut self, mut build: impl FnMut() -> T) {
        for _ in 0..SETUPS_PER_POINT {
            drop(self.time(&mut build));
        }
    }

    fn median(&self) -> f64 {
        median(&self.0)
    }
}

/// Record one block's median, and its p99 when at least ten samples
/// lie beyond it.
fn block_latency(lat_ms: &[f64], p50s: &mut Vec<f64>, p99s: &mut Vec<f64>) {
    if lat_ms.is_empty() {
        return;
    }
    let l = Latency::of(lat_ms);
    p50s.push(l.p50_ms);
    if l.p99_supported() {
        p99s.push(l.p99_ms);
    }
}

/// Latency figures from blocks: the medians of block medians and of
/// block p99s; a run too short for any block to support p99 falls
/// back to the pooled samples.
fn blocked_latency(p50s: &[f64], p99s: &[f64], pooled: &Latency) -> (f64, f64) {
    let p99 = if p99s.is_empty() {
        pooled.p99_ms
    } else {
        median(p99s)
    };
    (median(p50s), p99)
}

/// Names of the traced schema copies and the copies, per flow.
type Copies<'c> = (&'c [Vec<String>], &'c [Vec<Arc<Schema>>]);

/// Names `"<flow>#<slot>"` of the traced schema copies, per flow.
fn copy_names(flows: &[Flow], slots: usize) -> Vec<Vec<String>> {
    flows
        .iter()
        .map(|f| {
            (0..slots)
                .map(|s| format!("{}#{s}", f.name))
                .chain(std::iter::once(format!("{}#u", f.name)))
                .collect()
        })
        .collect()
}

/// Wrapped copies of every flow for every slot (the last is untracked).
fn wrapped_copies(
    tracer: &Arc<Tracer>,
    schemas: &[Arc<Schema>],
    slots: usize,
) -> Vec<Vec<Arc<Schema>>> {
    schemas
        .iter()
        .map(|s| {
            (0..slots)
                .map(|k| tracer.wrap(s, k as u32))
                .chain(std::iter::once(tracer.wrap(s, UNTRACKED)))
                .collect()
        })
        .collect()
}

fn register_all(server: &EngineServer, flows: &[Flow], copies: Option<Copies<'_>>) {
    for f in flows {
        server.register(f.name.clone(), Arc::clone(&f.schema));
    }
    if let Some((names, schemas)) = copies {
        for (ns, ss) in names.iter().zip(schemas) {
            for (n, s) in ns.iter().zip(ss) {
                server.register(n.clone(), Arc::clone(s));
            }
        }
    }
}

/// Uniform random (flow, variant) requests, strategies alternating.
struct FlowSource<'a> {
    flows: &'a [Flow],
    copies: Option<&'a [Vec<String>]>,
    rng: Rng,
    n: usize,
    deadline: bool,
}

impl<'a> FlowSource<'a> {
    fn new(flows: &'a [Flow], seed: u64, stream: u64) -> FlowSource<'a> {
        FlowSource {
            flows,
            copies: None,
            rng: Rng::new(seed, stream),
            n: 0,
            deadline: false,
        }
    }

    fn pick(&mut self) -> (usize, usize, decisionflow::engine::Strategy) {
        let f = self.rng.below(self.flows.len());
        let v = self.rng.below(self.flows[f].variants.len());
        self.n += 1;
        (f, v, strategies()[self.n % 2])
    }
}

impl<'a> Source<'a> for FlowSource<'a> {
    fn next(&mut self, slot: usize) -> (Request, &'a Oracle, u32) {
        let (f, v, strategy) = self.pick();
        let flow = &self.flows[f];
        let (name, tslot) = match self.copies {
            None => (flow.name.clone(), UNTRACKED),
            Some(c) => {
                let last = c[f].len() - 1;
                let k = slot.min(last);
                let tslot = if k == last { UNTRACKED } else { k as u32 };
                (c[f][k].clone(), tslot)
            }
        };
        let mut req = Request::named(name)
            .sources(flow.variants[v].clone())
            .strategy(strategy);
        if self.deadline {
            req = req.deadline(LIMIT);
        }
        (req, &flow.expect[v], tslot)
    }
}

/// In-process runs of the same request stream for `window`.
fn inproc_block(src: &mut FlowSource<'_>, window: Duration, tally: &mut Tally) -> f64 {
    let start = Instant::now();
    let mut n = 0u64;
    while start.elapsed() < window {
        let (f, v, strategy) = src.pick();
        let flow = &src.flows[f];
        let report = Request::with_schema(Arc::clone(&flow.schema))
            .sources(flow.variants[v].clone())
            .strategy(strategy)
            .run();
        match report {
            Ok(r) => tally.absorb_local(
                inputs::runtime_agrees(&r.outcome.runtime, &flow.expect[v]),
                r.outcome.metrics.work,
                r.outcome.metrics.wasted_work,
            ),
            Err(_) => tally.absorb_local(false, 0, 0),
        }
        n += 1;
    }
    n as f64 / start.elapsed().as_secs_f64()
}

/// Replay sampled requests of `src` for `window`.
fn replay_flows(ctx: &Ctx, flows: &[Flow], window: Duration) -> Replay {
    let mut rp = Replayer::open(&ctx.wal_dir("replay"));
    let mut src = FlowSource::new(flows, ctx.seed, 0x5EA);
    let start = Instant::now();
    while start.elapsed() < window || rp.totals.instances < 8 {
        let (f, v, strategy) = src.pick();
        let flow = &flows[f];
        rp.run(&Sample {
            name: &flow.name,
            schema: &flow.schema,
            sources: &flow.variants[v],
            strategy,
            label: &flow.name,
            expect: &flow.expect[v],
        });
    }
    rp.finish()
}

/// Per-layer metrics from the replay.
fn replay_layers(r: &Replay, out: &mut Vec<(String, f64, &'static str)>, store_bytes: Option<f64>) {
    let n = r.instances.max(1) as f64;
    let per = |x: u64, d: u64| x as f64 / d.max(1) as f64;
    let mut put = |name: &str, v: f64, unit: &'static str| out.push((name.to_string(), v, unit));
    put("journal.fingerprint_ns", r.fingerprint_ns as f64 / n, "ns");
    put("engine.build_ns", r.build_ns as f64 / n, "ns");
    put("engine.prequalify_ns", r.prequalify_ns as f64 / n, "ns");
    put("engine.schedule_ns", r.schedule_ns as f64 / n, "ns");
    put("engine.launch_ns", r.launch_ns as f64 / n, "ns");
    put("engine.complete_ns", r.complete_ns as f64 / n, "ns");
    put("engine.rounds_per_instance", r.rounds as f64 / n, "count");
    put("report.record_ns", r.record_ns as f64 / n, "ns");
    put("journal.encode_ns", r.encode_ns as f64 / n, "ns");
    put("journal.frames_per_instance", r.frames as f64 / n, "count");
    put(
        "journal.bytes_per_instance",
        r.journal_bytes as f64 / n,
        "bytes",
    );
    put("store.append_ns", r.append_ns as f64 / n, "ns");
    put("store.sync_ns", per(r.sync_ns, r.syncs), "ns");
    put(
        "store.bytes_per_instance",
        store_bytes.unwrap_or(r.wal_bytes as f64 / n),
        "bytes",
    );
    put("statestore.lookup_ns", per(r.lookup_ns, r.lookups), "ns");
    put(
        "statestore.plan_delta_ns",
        per(r.plan_delta_ns, r.plans),
        "ns",
    );
    put("statestore.capture_ns", r.capture_ns as f64 / n, "ns");
    put("statestore.commit_ns", r.commit_ns as f64 / n, "ns");
    put(
        "statestore.memo_lookup_ns",
        per(r.memo_lookup_ns, r.memo_lookups),
        "ns",
    );
}

/// Per-layer metrics from generator spans and body spans.
#[allow(clippy::too_many_arguments)]
fn span_layers(
    spans: &Spans<'_>,
    bodies: &[trace::BodySpan],
    workers: usize,
    window_ns: u64,
    tally: &Tally,
    backlog_growth: f64,
    generator_lag_ms: f64,
    overload_goodput: f64,
    out: &mut Vec<(String, f64, &'static str)>,
) {
    let st = trace::self_times(&spans.requests, bodies);
    let mut put = |name: &str, v: f64, unit: &'static str| out.push((name.to_string(), v, unit));
    put("api.request_ns", mean(&spans.request_ns), "ns");
    put("server.submit_ns", mean(&spans.submit_ns), "ns");
    put("server.wait_ns", mean(&spans.wait_ns), "ns");
    put("server.first_task_ns", st.first_task_ns, "ns");
    put("server.task_gap_ns", st.task_gap_ns, "ns");
    put("server.result_ns", st.result_ns, "ns");
    put("task.body_ns", st.body_ns, "ns");
    put(
        "task.busy_share",
        trace::busy_share(bodies, workers, window_ns),
        "ratio",
    );
    put("server.backlog_growth", backlog_growth, "1/s");
    put("server.generator_lag_ms", generator_lag_ms, "ms");
    put("server.overload_goodput", overload_goodput, "1/s");
    put(
        "engine.launched_per_instance",
        tally.launched_per(),
        "count",
    );
    put(
        "engine.wasted_ratio",
        tally.wasted as f64 / tally.work.max(1) as f64,
        "ratio",
    );
    put(
        "engine.unneeded_per_instance",
        tally.unneeded_per(),
        "count",
    );
}

fn statestore_layers(server: &EngineServer, out: &mut Vec<(String, f64, &'static str)>) {
    let reg = server.state_store().registry();
    let reused = reg.counter("delta_reused").get() as f64;
    let reexec = reg.counter("delta_reexecuted").get() as f64;
    let (hits, misses) = server
        .memo()
        .map_or((0.0, 0.0), |m| (m.hits() as f64, m.misses() as f64));
    out.push((
        "statestore.delta_reuse_ratio".into(),
        if reused + reexec > 0.0 {
            reused / (reused + reexec)
        } else {
            0.0
        },
        "ratio",
    ));
    out.push((
        "statestore.memo_hit_ratio".into(),
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        },
        "ratio",
    ));
    out.push((
        "statestore.snapshots".into(),
        server.state_store().len() as f64,
        "count",
    ));
}

fn overhead(
    out: &mut Vec<(String, f64, &'static str)>,
    plain: f64,
    traced: f64,
    lower_better: bool,
) {
    let pct = if lower_better {
        (traced - plain) / plain * 100.0
    } else {
        (plain - traced) / plain * 100.0
    };
    out.push(("trace.overhead_pct".into(), pct, "%"));
}

// ---------------------------------------------------------------------------
// cpu_closed
// ---------------------------------------------------------------------------

/// dflowgen flows per run.
const FLOWS: usize = 256;
/// Requests outstanding in the `cpu_closed` loop: deep enough that the
/// worker rarely idles waiting on the generator's wake-up.
const CPU_SLOTS: usize = 16;
/// Measurement blocks per closed-loop run.
const BLOCKS: usize = 20;

fn cpu_server(flows: &[Flow], copies: Option<Copies<'_>>) -> EngineServer {
    let s = EngineServer::builder()
        .shards(1)
        .workers_per_shard(1)
        .build()
        .expect("build server");
    register_all(&s, flows, copies);
    s
}

struct ClosedRun {
    throughput: f64,
    inproc: f64,
    p50s: Vec<f64>,
    p99s: Vec<f64>,
    tally: Tally,
    checks: Tally,
}

/// Alternate server and in-process blocks; medians of the block rates.
/// `between` runs after every block.
fn cpu_measure(
    server: &EngineServer,
    flows: &[Flow],
    seed: u64,
    span: Duration,
    copies: Option<&[Vec<String>]>,
    mut spans: Option<&mut Spans<'_>>,
    between: &mut dyn FnMut(),
) -> ClosedRun {
    let mut src = FlowSource::new(flows, seed, 0xC1);
    src.copies = copies;
    let mut local = FlowSource::new(flows, seed, 0xC1);
    let mut checks = Tally::default();
    let block = span / BLOCKS as u32;
    // Warm caches and lazy set-up; counted for correctness only.
    closed_loop(server, CPU_SLOTS, block / 4, &mut src, &mut checks, None);
    inproc_block(&mut local, block / 4, &mut checks);
    let mut tally = Tally::default();
    let mut inproc_tally = Tally::default();
    let (mut rates, mut inproc) = (Vec::new(), Vec::new());
    let (mut p50s, mut p99s) = (Vec::new(), Vec::new());
    for _ in 0..BLOCKS {
        let sp = spans.as_deref_mut();
        let before = tally.lat_ms.len();
        rates.push(closed_loop(
            server,
            CPU_SLOTS,
            block * 3 / 5,
            &mut src,
            &mut tally,
            sp,
        ));
        block_latency(&tally.lat_ms[before..], &mut p50s, &mut p99s);
        inproc.push(inproc_block(&mut local, block * 2 / 5, &mut inproc_tally));
        between();
    }
    checks.merge_counts(&inproc_tally);
    ClosedRun {
        throughput: median(&rates),
        inproc: median(&inproc),
        p50s,
        p99s,
        tally,
        checks,
    }
}

/// Completions within [`LIMIT`] per second of a closed loop.
fn in_time_rate(throughput: f64, tally: &Tally) -> f64 {
    throughput * (1.0 - tally.late as f64 / tally.completed.max(1) as f64)
}

fn closed_e2e(setup_s: f64, run: &ClosedRun) -> E2E {
    let pooled = Latency::of(&run.tally.lat_ms);
    let (p50_ms, p99_ms) = blocked_latency(&run.p50s, &run.p99s, &pooled);
    E2E {
        setup_s,
        throughput: run.throughput,
        inproc_throughput: run.inproc,
        slo_rate: in_time_rate(run.throughput, &run.tally),
        p50_ms,
        p99_ms,
        pooled,
        work_per_instance: run.tally.work_per(),
        wasted_per_instance: run.tally.wasted_per(),
        success_frac: 1.0 - run.tally.failed_frac(),
        peak_rss_mb: meta::peak_rss_mb(),
    }
}

/// `cpu_closed`: pure-hash dflowgen flows, 1 shard × 1 worker, closed
/// loop; the same inputs in-process.
pub fn cpu_closed(ctx: &Ctx, traced: bool) -> Outcome {
    let flows = inputs::dflowgen_flows(ctx.seed, FLOWS, 4, Duration::ZERO);
    let mut notes = vec![("server".into(), "1 shard x 1 worker".into())];
    if !traced {
        let mut setups = Setups::default();
        setups.sample(|| cpu_server(&flows, None));
        let server = setups.time(|| cpu_server(&flows, None));
        let run = cpu_measure(
            &server,
            &flows,
            ctx.seed,
            ctx.secs(0.9),
            None,
            None,
            &mut || setups.sample(|| cpu_server(&flows, None)),
        );
        let mut tally = run.tally.clone();
        tally.merge_counts(&run.checks);
        let e2e = closed_e2e(setups.median(), &run);
        notes.push((
            "server_over_inproc_ns_ratio".into(),
            format!("{}", e2e.inproc_throughput / e2e.throughput),
        ));
        return Outcome {
            e2e: Some(e2e),
            layers: Vec::new(),
            tally,
            notes,
        };
    }
    let tracer = Tracer::new();
    let schemas: Vec<Arc<Schema>> = flows.iter().map(|f| Arc::clone(&f.schema)).collect();
    let names = copy_names(&flows, CPU_SLOTS);
    let copies = wrapped_copies(&tracer, &schemas, CPU_SLOTS);
    let server = cpu_server(&flows, Some((&names, &copies)));
    let plain = cpu_measure(
        &server,
        &flows,
        ctx.seed,
        ctx.secs(0.35),
        None,
        None,
        &mut || {},
    );
    tracer.take_bodies();
    let mut spans = Spans::new(&tracer);
    let t0 = Instant::now();
    let traced_run = cpu_measure(
        &server,
        &flows,
        ctx.seed,
        ctx.secs(0.35),
        Some(&names),
        Some(&mut spans),
        &mut || {},
    );
    let window = tracer.ns(Instant::now()) - tracer.ns(t0);
    let bodies = tracer.take_bodies();
    let mut layers = Vec::new();
    let goodput = in_time_rate(traced_run.throughput, &traced_run.tally);
    span_layers(
        &spans,
        &bodies,
        1,
        window,
        &traced_run.tally,
        0.0,
        0.0,
        goodput,
        &mut layers,
    );
    let rp = replay_flows(ctx, &flows, ctx.secs(0.2));
    replay_layers(&rp, &mut layers, None);
    statestore_layers(&server, &mut layers);
    overhead(&mut layers, plain.throughput, traced_run.throughput, false);
    layers.push((
        "server.inproc_cost_ratio".into(),
        plain.inproc / plain.throughput,
        "ratio",
    ));
    let mut tally = plain.tally.clone();
    tally.merge_counts(&plain.checks);
    tally.merge_counts(&traced_run.tally);
    tally.merge_counts(&traced_run.checks);
    add_replay_checks(&mut tally, &rp);
    Outcome {
        e2e: None,
        layers,
        tally,
        notes,
    }
}

fn add_replay_checks(tally: &mut Tally, rp: &Replay) {
    tally.attempted += rp.instances;
    tally.completed += rp.instances - rp.mismatches;
    tally.failed += rp.mismatches;
    tally.mismatches += rp.mismatches;
}

// ---------------------------------------------------------------------------
// io_open
// ---------------------------------------------------------------------------

/// Offered rates, instances/s: two below capacity, one above. The
/// server reached 700–1200/s at the overload rate on a shared 2-vCPU
/// virtual machine, so both lower rates stay well under the knee.
pub const IO_RATES: [f64; 3] = [200.0, 400.0, 2000.0];
/// Trace slots in the open loop.
const OPEN_SLOTS: usize = 64;
/// Requests the 400/s window issues at least, so that its p99 rests on
/// ten samples beyond it.
const MIN_WINDOW: f64 = 1100.0;
/// Windows at 200/s; the latency figures are their medians.
const LOW_WINDOWS: usize = 5;

fn io_server(flows: &[Flow], copies: Option<Copies<'_>>) -> EngineServer {
    let s = EngineServer::builder()
        .shards(2)
        .workers_per_shard(4)
        .build()
        .expect("build server");
    register_all(&s, flows, copies);
    s
}

/// Several open-loop windows at one rate, read as one phase: every
/// window's samples pooled, the backlog slope of the median window.
fn pooled_phase(rate: f64, windows: &[&drive::OpenRun]) -> stats::Phase {
    let lat: Vec<f64> = windows
        .iter()
        .flat_map(|r| r.lat_ms.iter().copied())
        .collect();
    let of =
        |f: fn(&stats::Phase) -> f64| -> Vec<f64> { windows.iter().map(|r| f(&r.phase)).collect() };
    stats::Phase {
        rate,
        achieved: mean(&of(|p| p.achieved)),
        latency: Latency::of(&lat),
        backlog_slope: median(&of(|p| p.backlog_slope)),
        failed: windows.iter().map(|r| r.phase.failed).sum(),
        attempted: windows.iter().map(|r| r.phase.attempted).sum(),
    }
}

/// `io_open`: flows whose bodies sleep 100µs per cost unit, 2 shards ×
/// 4 workers, Poisson arrivals at fixed rates.
pub fn io_open(ctx: &Ctx, traced: bool) -> Outcome {
    let flows = inputs::dflowgen_flows(ctx.seed, FLOWS, 4, Duration::from_micros(100));
    let mut notes = vec![
        ("server".into(), "2 shards x 4 workers".into()),
        ("rates_per_s".into(), format!("{IO_RATES:?}")),
    ];
    let tracer = Tracer::new();
    let schemas: Vec<Arc<Schema>> = flows.iter().map(|f| Arc::clone(&f.schema)).collect();
    let (names, copies) = if traced {
        (
            copy_names(&flows, OPEN_SLOTS),
            wrapped_copies(&tracer, &schemas, OPEN_SLOTS),
        )
    } else {
        (Vec::new(), Vec::new())
    };
    let reg = traced.then_some((&names[..], &copies[..]));
    let mut setups = Setups::default();
    setups.sample(|| io_server(&flows, reg));
    let server = setups.time(|| io_server(&flows, reg));
    let mut rng = Rng::new(ctx.seed, 0xA77);
    let mut src = FlowSource::new(&flows, ctx.seed, 0x10);
    src.deadline = true;
    let mut tally = Tally::default();
    let [low, mid, over] = IO_RATES;
    // Warm-up at the low rate; counted for correctness only.
    let mut checks = Tally::default();
    open_phase(
        &server,
        low,
        ctx.secs(0.03),
        &mut rng,
        0,
        &mut src,
        &mut checks,
        None,
    );
    // A window at `rate` lasting `share` of the run; at 400/s at least
    // long enough for p99 to rest on ten samples beyond it.
    let span = |rate: f64, share: f64| {
        let least = if rate == mid { MIN_WINDOW / rate } else { 0.0 };
        Duration::from_secs_f64((ctx.seconds * share).max(least))
    };
    let mut plain_p50 = f64::NAN;
    let (plan, slots) = if traced {
        // Traced: one untraced low window first, for the overhead.
        let plain = open_phase(
            &server,
            low,
            span(low, 0.15),
            &mut rng,
            0,
            &mut src,
            &mut tally,
            None,
        );
        plain_p50 = plain.phase.latency.p50_ms;
        src.copies = Some(&names);
        (vec![(low, 0.15), (mid, 0.15), (over, 0.05)], OPEN_SLOTS)
    } else {
        let mut plan = vec![(low, 0.1); LOW_WINDOWS];
        plan.push((mid, 0.1));
        plan.push((over, 0.06));
        (plan, 0)
    };
    tracer.take_bodies();
    let mut spans = Spans::new(&tracer);
    let mut runs: Vec<drive::OpenRun> = Vec::new();
    let mut mid_bodies = Vec::new();
    let mut rss_below = 0.0;
    for &(rate, share) in &plan {
        if rate == over {
            // The overload backlog's size follows the host's speed, so
            // memory is read before it.
            rss_below = meta::peak_rss_mb();
        }
        // The traced run's spans and bodies come from the 400/s window.
        let sp = (traced && rate == mid).then_some(&mut spans);
        runs.push(open_phase(
            &server,
            rate,
            span(rate, share),
            &mut rng,
            slots,
            &mut src,
            &mut tally,
            sp,
        ));
        let bodies = tracer.take_bodies();
        if rate == mid {
            mid_bodies = bodies;
        }
        if !traced {
            setups.sample(|| io_server(&flows, None));
        }
    }
    let limit_ms = LIMIT.as_secs_f64() * 1e3;
    let at = |rate: f64| -> Vec<&drive::OpenRun> {
        runs.iter().filter(|r| r.phase.rate == rate).collect()
    };
    let lows = at(low);
    let mid_run = at(mid)[0];
    let over_run = at(over)[0];
    let low_phase = pooled_phase(low, &lows);
    let summaries = [
        low_phase.clone(),
        mid_run.phase.clone(),
        over_run.phase.clone(),
    ];
    let slo = stats::slo_phase(&summaries, limit_ms).map_or(0.0, |p| p.achieved);
    let low_lags: Vec<f64> = lows
        .iter()
        .flat_map(|r| r.lags_ms.iter().copied())
        .collect();
    let lags = [&low_lags, &mid_run.lags_ms, &over_run.lags_ms];
    for ((p, name), lag) in summaries.iter().zip(["low", "mid", "over"]).zip(lags) {
        notes.push((
            format!("phase_{name}"),
            format!(
                "rate={} achieved={:.1} n={} p50_ms={:.3} p99_ms={:.3} tail_p{}_ms={:.3} backlog_slope={:.2} late_or_failed={} lag_p99_ms={:.3}",
                p.rate,
                p.achieved,
                p.latency.n,
                p.latency.p50_ms,
                p.latency.p99_ms,
                p.latency.tail_pct.unwrap_or(50.0),
                p.latency.tail_ms,
                p.backlog_slope,
                p.failed,
                p99(lag),
            ),
        ));
    }
    notes.push((
        "overload_throughput_per_s".into(),
        over_run.phase.achieved.to_string(),
    ));
    notes.push((
        "overload_goodput_per_s".into(),
        over_run.goodput.to_string(),
    ));

    if !traced {
        let mut local = FlowSource::new(&flows, ctx.seed, 0x11);
        let inproc = inproc_block(&mut local, ctx.secs(0.1), &mut checks);
        let late_or_failed = low_phase.failed + mid_run.phase.failed;
        let attempted = low_phase.attempted + mid_run.phase.attempted;
        let p50s: Vec<f64> = lows.iter().map(|r| r.phase.latency.p50_ms).collect();
        let e2e = E2E {
            setup_s: setups.median(),
            throughput: mid_run.phase.achieved,
            inproc_throughput: inproc,
            p50_ms: median(&p50s),
            p99_ms: low_phase.latency.p99_ms,
            pooled: low_phase.latency.clone(),
            slo_rate: slo,
            work_per_instance: tally.work_per(),
            wasted_per_instance: tally.wasted_per(),
            success_frac: 1.0 - late_or_failed as f64 / attempted.max(1) as f64,
            peak_rss_mb: rss_below,
        };
        tally.merge_counts(&checks);
        return Outcome {
            e2e: Some(e2e),
            layers: Vec::new(),
            tally,
            notes,
        };
    }

    let window = tracer.ns(mid_run.window.1) - tracer.ns(mid_run.window.0);
    let mut layers = Vec::new();
    span_layers(
        &spans,
        &mid_bodies,
        server.worker_count(),
        window,
        &tally,
        mid_run.phase.backlog_slope,
        p99(&mid_run.lags_ms),
        over_run.goodput,
        &mut layers,
    );
    let rp = replay_flows(ctx, &flows, ctx.secs(0.1));
    replay_layers(&rp, &mut layers, None);
    statestore_layers(&server, &mut layers);
    overhead(&mut layers, plain_p50, lows[0].phase.latency.p50_ms, true);
    let mut local = FlowSource::new(&flows, ctx.seed, 0x11);
    let inproc = inproc_block(&mut local, ctx.secs(0.05), &mut checks);
    layers.push((
        "server.inproc_cost_ratio".into(),
        inproc / over_run.phase.achieved,
        "ratio",
    ));
    tally.merge_counts(&checks);
    add_replay_checks(&mut tally, &rp);
    Outcome {
        e2e: None,
        layers,
        tally,
        notes,
    }
}

/// Nearest-rank p99 of unsorted samples (0 for none).
fn p99(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    stats::percentile(&v, 99.0)
}

// ---------------------------------------------------------------------------
// durable_resubmit
// ---------------------------------------------------------------------------

/// Requests outstanding in the `durable_resubmit` loop: enough that the
/// WAL's group commits batch several instances per fsync.
const DURABLE_SLOTS: usize = 4;
/// Multi-arm flows in the resubmission workload.
const ARMED_FLOWS: usize = 4;
/// Labels over those flows.
const LABELS: usize = 32;
/// One-source rebinds per label walk, per measured second: about five
/// times the rate at which the server loop submits one label, so a run
/// does not reach the end of its walk. [`Label::position`] fails loudly
/// if one does, rather than change the workload.
const WALK_PER_SECOND: f64 = 128.0;
/// Mixing rounds per task body.
const SPIN: u32 = 400;
/// Busy-wait per task body, standing in for a remote query: it makes
/// the loop's rate follow the work the memo table and delta plans
/// avoid. A wait on the clock takes the same wall time however fast
/// the CPU runs, which drifted ±20% over tens of seconds on a shared
/// 2-vCPU virtual machine, and it has no wake-up delay, which follows
/// the host's load.
const BODY_WAIT: Duration = Duration::from_micros(200);
/// Memo table capacity: room for the previous value of every arm a walk
/// step puts back, so hits follow the walk, not eviction timing.
const MEMO: usize = 1 << 16;

/// Per-label resubmissions: slot `j` owns labels `j, j+K, …`, so one
/// label never has two requests outstanding.
struct LabelSource<'a> {
    labels: &'a [Label],
    names: Vec<Vec<String>>,
    traced: bool,
    submitted: Vec<usize>,
    cursor: Vec<usize>,
    rng: Rng,
    n: usize,
}

impl<'a> LabelSource<'a> {
    fn new(labels: &'a [Label], names: Vec<Vec<String>>, seed: u64) -> LabelSource<'a> {
        LabelSource {
            labels,
            names,
            traced: false,
            submitted: vec![0; labels.len()],
            cursor: vec![0; DURABLE_SLOTS],
            rng: Rng::new(seed, 0xD17A),
            n: 0,
        }
    }
}

impl<'a> Source<'a> for LabelSource<'a> {
    fn next(&mut self, slot: usize) -> (Request, &'a Oracle, u32) {
        let owned = (self.labels.len() - slot).div_ceil(DURABLE_SLOTS);
        let l = slot + DURABLE_SLOTS * (self.cursor[slot] % owned);
        self.cursor[slot] += 1;
        let label = &self.labels[l];
        let k = self.submitted[l];
        self.submitted[l] += 1;
        let pos = label.position(k);
        self.n += 1;
        let (name, tslot) = if self.traced {
            (self.names[label.flow][slot].clone(), slot as u32)
        } else {
            (self.names[label.flow][DURABLE_SLOTS + 1].clone(), UNTRACKED)
        };
        let mut req = Request::named(name)
            .sources(label.walk[pos].clone())
            .strategy(strategies()[self.n % 2])
            .label(label.name.clone())
            .durable(true);
        // Every label's first submission is cold; later ones rebind one
        // source, half as deltas and half as cold reruns.
        if k > 0 && self.rng.coin() {
            req = req.delta_by_label();
        }
        (req, &label.expect[pos], tslot)
    }
}

/// In-process counterpart: cold runs and explicit-snapshot deltas.
fn durable_inproc(
    labels: &[Label],
    schemas: &[Arc<Schema>],
    state: &mut [(usize, Option<Arc<InstanceSnapshot>>)],
    rng: &mut Rng,
    window: Duration,
    tally: &mut Tally,
) -> f64 {
    let start = Instant::now();
    let mut n = 0usize;
    while start.elapsed() < window {
        let l = n % labels.len();
        let label = &labels[l];
        let (k, prior) = &mut state[l];
        let pos = label.position(*k);
        *k += 1;
        let mut req = Request::with_schema(Arc::clone(&schemas[label.flow]))
            .sources(label.walk[pos].clone())
            .strategy(strategies()[n % 2]);
        if let (true, Some(p)) = (rng.coin(), prior.as_ref()) {
            req = req.delta(Arc::clone(p));
        }
        match req.run() {
            Ok(r) => {
                let ok = inputs::runtime_agrees(&r.outcome.runtime, &label.expect[pos]);
                *prior = Some(Arc::new(InstanceSnapshot::capture(
                    &r.outcome.runtime,
                    label.name.clone(),
                )));
                tally.absorb_local(ok, r.outcome.metrics.work, r.outcome.metrics.wasted_work);
            }
            Err(_) => tally.absorb_local(false, 0, 0),
        }
        n += 1;
    }
    n as f64 / start.elapsed().as_secs_f64()
}

fn durable_server(
    dir: &Path,
    schemas: &[Arc<Schema>],
    names: &[Vec<String>],
    copies: &[Vec<Arc<Schema>>],
) -> EngineServer {
    let s = EngineServer::builder()
        .shards(1)
        .workers_per_shard(1)
        .durable(dir)
        .memoize(MEMO)
        .build()
        .expect("open durable server");
    for (f, schema) in schemas.iter().enumerate() {
        s.register(names[f][DURABLE_SLOTS + 1].clone(), Arc::clone(schema));
        for (n, c) in names[f].iter().zip(&copies[f]) {
            s.register(n.clone(), Arc::clone(c));
        }
    }
    s
}

/// `durable_resubmit`: multi-arm CPU-bound flows on a durable, memoized
/// 1 × 1 server, closed loop over labels.
pub fn durable_resubmit(ctx: &Ctx, traced: bool) -> Outcome {
    let mut rng = Rng::new(ctx.seed, 0xA4);
    let salts: Vec<u64> = (0..ARMED_FLOWS).map(|_| rng.next_u64()).collect();
    let schemas: Vec<Arc<Schema>> = salts
        .iter()
        .enumerate()
        .map(|(i, &salt)| inputs::armed_schema(i, salt, SPIN, BODY_WAIT))
        .collect();
    // The oracle runs the same flows without the wait.
    let quick: Vec<Arc<Schema>> = salts
        .iter()
        .enumerate()
        .map(|(i, &salt)| inputs::armed_schema(i, salt, SPIN, Duration::ZERO))
        .collect();
    let walk = (ctx.seconds * WALK_PER_SECOND).ceil() as usize;
    let labels = inputs::labels(ctx.seed, &quick, LABELS, walk);
    let tracer = Tracer::new();
    // Per flow: DURABLE_SLOTS traced copies, the untracked copy, and the
    // plain schema's name last.
    let names: Vec<Vec<String>> = (0..ARMED_FLOWS)
        .map(|f| {
            (0..DURABLE_SLOTS)
                .map(|k| format!("arm{f}#{k}"))
                .chain([format!("arm{f}#u"), format!("arm{f}")])
                .collect()
        })
        .collect();
    let copies = if traced {
        wrapped_copies(&tracer, &schemas, DURABLE_SLOTS)
    } else {
        vec![Vec::new(); ARMED_FLOWS]
    };
    // Each timed set-up opens its store over a fresh directory.
    let mut setups = Setups::default();
    let sample_setups = |setups: &mut Setups| {
        for _ in 0..SETUPS_PER_POINT {
            let dir = ctx.wal_dir(&format!("setup-{}", setups.0.len()));
            drop(setups.time(|| durable_server(&dir, &schemas, &names, &copies)));
            let _ = std::fs::remove_dir_all(&dir);
        }
    };
    sample_setups(&mut setups);
    let wal = ctx.wal_dir("server");
    let server = durable_server(&wal, &schemas, &names, &copies);
    let store = Arc::clone(server.store().expect("durable server has a store"));
    let mut src = LabelSource::new(&labels, names.clone(), ctx.seed);
    let mut checks = Tally::default();
    // Seed every label cold; counted for correctness only.
    while src.submitted.contains(&0) {
        closed_loop(
            &server,
            DURABLE_SLOTS,
            Duration::ZERO,
            &mut src,
            &mut checks,
            None,
        );
    }
    store.sync().expect("sync");
    let mut local_state: Vec<(usize, Option<Arc<InstanceSnapshot>>)> =
        vec![(0, None); labels.len()];
    let mut local_rng = Rng::new(ctx.seed, 0x10C);
    durable_inproc(
        &labels,
        &schemas,
        &mut local_state,
        &mut local_rng,
        ctx.secs(0.02),
        &mut checks,
    );

    let measure = |src: &mut LabelSource<'_>,
                   span: Duration,
                   local_state: &mut Vec<(usize, Option<Arc<InstanceSnapshot>>)>,
                   local_rng: &mut Rng,
                   checks: &mut Tally,
                   mut spans: Option<&mut Spans<'_>>,
                   between: &mut dyn FnMut()|
     -> (ClosedRun, Vec<f64>) {
        let block = span / BLOCKS as u32;
        let mut tally = Tally::default();
        let (mut rates, mut inproc, mut syncs) = (Vec::new(), Vec::new(), Vec::new());
        let (mut p50s, mut p99s) = (Vec::new(), Vec::new());
        for _ in 0..BLOCKS {
            let start = Instant::now();
            let before = tally.completed;
            let lat_before = tally.lat_ms.len();
            closed_loop(
                &server,
                DURABLE_SLOTS,
                block * 3 / 5,
                src,
                &mut tally,
                spans.as_deref_mut(),
            );
            let t0 = Instant::now();
            store.sync().expect("sync");
            syncs.push(t0.elapsed().as_secs_f64() * 1e9);
            rates.push((tally.completed - before) as f64 / start.elapsed().as_secs_f64());
            block_latency(&tally.lat_ms[lat_before..], &mut p50s, &mut p99s);
            inproc.push(durable_inproc(
                &labels,
                &schemas,
                local_state,
                local_rng,
                block * 2 / 5,
                checks,
            ));
            between();
        }
        let run = ClosedRun {
            throughput: median(&rates),
            inproc: median(&inproc),
            p50s,
            p99s,
            tally,
            checks: Tally::default(),
        };
        (run, syncs)
    };

    let notes = vec![
        (
            "server".into(),
            "1 shard x 1 worker, durable, memoized".into(),
        ),
        (
            "wal_dir".into(),
            ".bench_wal/<pid>/server (inside the checkout)".into(),
        ),
    ];
    if !traced {
        let (run, syncs) = measure(
            &mut src,
            ctx.secs(0.85),
            &mut local_state,
            &mut local_rng,
            &mut checks,
            None,
            &mut || sample_setups(&mut setups),
        );
        let wal_bytes = meta::dir_bytes(&wal);
        let e2e = closed_e2e(setups.median(), &run);
        let mut tally = run.tally;
        tally.merge_counts(&checks);
        let mut notes = notes;
        notes.push(("final_sync_ns_median".into(), median(&syncs).to_string()));
        notes.push(("wal_bytes".into(), wal_bytes.to_string()));
        return Outcome {
            e2e: Some(e2e),
            layers: Vec::new(),
            tally,
            notes,
        };
    }

    let (plain, _) = measure(
        &mut src,
        ctx.secs(0.35),
        &mut local_state,
        &mut local_rng,
        &mut checks,
        None,
        &mut || {},
    );
    tracer.take_bodies();
    src.traced = true;
    let mut spans = Spans::new(&tracer);
    let t0 = Instant::now();
    let (traced_run, _) = measure(
        &mut src,
        ctx.secs(0.35),
        &mut local_state,
        &mut local_rng,
        &mut checks,
        Some(&mut spans),
        &mut || {},
    );
    let window = tracer.ns(Instant::now()) - tracer.ns(t0);
    let bodies = tracer.take_bodies();
    let mut layers = Vec::new();
    let goodput = in_time_rate(traced_run.throughput, &traced_run.tally);
    span_layers(
        &spans,
        &bodies,
        1,
        window,
        &traced_run.tally,
        0.0,
        0.0,
        goodput,
        &mut layers,
    );
    statestore_layers(&server, &mut layers);
    store.sync().expect("sync");
    let durable_instances: u64 = src.submitted.iter().map(|&k| k as u64).sum();
    let server_wal_per = meta::dir_bytes(&wal) as f64 / durable_instances.max(1) as f64;
    // Replay the label walks in order, so lookups hit and plans run.
    let mut rp = Replayer::open(&ctx.wal_dir("replay"));
    let mut n = 0usize;
    let start = Instant::now();
    while start.elapsed() < ctx.secs(0.2) || n < 8 {
        let l = n % labels.len();
        let label = &labels[l];
        let pos = label.position(n / labels.len());
        rp.run(&Sample {
            name: &names[label.flow][DURABLE_SLOTS + 1],
            schema: &schemas[label.flow],
            sources: &label.walk[pos],
            strategy: strategies()[n % 2],
            label: &label.name,
            expect: &label.expect[pos],
        });
        n += 1;
    }
    let rp = rp.finish();
    replay_layers(&rp, &mut layers, Some(server_wal_per));
    overhead(&mut layers, plain.throughput, traced_run.throughput, false);
    layers.push((
        "server.inproc_cost_ratio".into(),
        plain.inproc / plain.throughput,
        "ratio",
    ));
    let mut tally = plain.tally;
    tally.merge_counts(&traced_run.tally);
    tally.merge_counts(&checks);
    add_replay_checks(&mut tally, &rp);
    drop(server);
    Outcome {
        e2e: None,
        layers,
        tally,
        notes,
    }
}
