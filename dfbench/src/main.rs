//! `dfbench`: the decision-flow benchmark.
//!
//! ```text
//! dfbench --workload <cpu_closed|io_open|durable_resubmit> --seed <n>
//!         --seconds <s> --trace <0|1>
//! ```
//!
//! Builds the workload's inputs from the seed, measures for about
//! `--seconds` seconds and checks every result against the
//! complete-snapshot oracle. Standard output ends with two JSON lines:
//! the run record (metadata and extra readings), then the result
//! `{"correct", "attempted", "failed", "metrics"}` whose metrics are the
//! end-to-end metrics with `--trace 0` and the per-layer metrics with
//! `--trace 1`. The exit code is 1 when any check fails: an oracle
//! mismatch, attempts that do not add up, or a metric that is not
//! finite. Write-ahead logs go to `.bench_wal/<pid>/` under the
//! working directory and are removed at exit.

mod drive;
mod inputs;
mod meta;
mod replay;
mod stats;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use workloads::{Ctx, Outcome};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("expected a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("expected 0 < seconds <= 600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn metrics_json(metrics: &[(String, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            format!(
                "{}: {{\"value\": {v}, \"unit\": {}}}",
                json_str(name),
                json_str(unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn e2e_metrics(e: &workloads::E2E) -> Vec<(String, f64, &'static str)> {
    vec![
        ("setup_s".into(), e.setup_s, "s"),
        ("throughput".into(), e.throughput, "1/s"),
        ("inproc_throughput".into(), e.inproc_throughput, "1/s"),
        ("latency_p50_ms".into(), e.p50_ms, "ms"),
        ("slo_rate".into(), e.slo_rate, "1/s"),
        ("work_per_instance".into(), e.work_per_instance, "units"),
        ("wasted_per_instance".into(), e.wasted_per_instance, "units"),
        ("success_frac".into(), e.success_frac, "ratio"),
        ("peak_rss_mb".into(), e.peak_rss_mb, "MiB"),
    ]
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let run: fn(&Ctx, bool) -> Outcome = match args.workload.as_str() {
        "cpu_closed" => workloads::cpu_closed,
        "io_open" => workloads::io_open,
        "durable_resubmit" => workloads::durable_resubmit,
        other => {
            eprintln!("dfbench: unknown workload {other:?}");
            return ExitCode::from(2);
        }
    };
    let root = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    let wal_root = root.join(".bench_wal").join(std::process::id().to_string());
    let _ = std::fs::remove_dir_all(&wal_root);
    if let Err(e) = std::fs::create_dir_all(&wal_root) {
        eprintln!("dfbench: cannot create {}: {e}", wal_root.display());
        return ExitCode::from(1);
    }
    let wal_fs = meta::filesystem(&wal_root);
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        wal_root: wal_root.clone(),
    };
    let started = std::time::Instant::now();
    let out = run(&ctx, args.trace);
    let wall = started.elapsed().as_secs_f64();
    let _ = std::fs::remove_dir_all(&wal_root);
    let _ = std::fs::remove_dir(root.join(".bench_wal"));

    let metrics = match &out.e2e {
        Some(e) => e2e_metrics(e),
        None => out.layers.clone(),
    };
    let t = &out.tally;
    let accounted = t.attempted == t.completed + t.failed;
    let finite = metrics.iter().all(|(_, v, _)| v.is_finite());
    let correct = t.mismatches == 0 && accounted && finite && t.attempted > 0;

    let mut record = vec![
        ("workload".to_string(), json_str(&args.workload)),
        ("seed".into(), args.seed.to_string()),
        ("seconds".into(), args.seconds.to_string()),
        ("trace".into(), u8::from(args.trace).to_string()),
        ("cores".into(), meta::cores().to_string()),
        ("git_commit".into(), json_str(&meta::git_commit(&root))),
        ("wal_filesystem".into(), json_str(&wal_fs)),
        ("wall_s".into(), wall.to_string()),
        ("mismatches".into(), t.mismatches.to_string()),
        ("late".into(), t.late.to_string()),
        ("failed_frac".into(), t.failed_frac().to_string()),
    ];
    if let Some(e) = &out.e2e {
        // The tail is reported but not gated: on a shared virtual
        // machine its run-to-run spread exceeds any bound the benchmark
        // may set.
        record.push(("latency_p99_ms".into(), e.p99_ms.to_string()));
        record.push(("latency_samples".into(), e.pooled.n.to_string()));
        record.push((
            "latency_tail_pct".into(),
            e.pooled.tail_pct.unwrap_or(50.0).to_string(),
        ));
        record.push(("latency_tail_ms".into(), e.pooled.tail_ms.to_string()));
    }
    for (k, v) in &out.notes {
        record.push((k.clone(), json_str(v)));
    }
    let body: Vec<String> = record
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    println!("{{\"run\": {{{}}}}}", body.join(", "));
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        t.attempted,
        t.failed,
        metrics_json(&metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "dfbench: run failed its checks: {} oracle mismatches, {} attempted, {} completed, {} failed",
            t.mismatches, t.attempted, t.completed, t.failed
        );
        ExitCode::from(1)
    }
}
