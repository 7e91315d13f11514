//! Serving benchmark for PBDS.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sof-hot|tpch-cold|sof-write-mix|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run sets its workload up (several times, reporting the median),
//! serves it through `PbdsServer` / `PbdsSession` for `--seconds`, then
//! checks every answer against plain execution and, on the durable
//! workload, that a crashed-and-reopened server holds exactly the
//! acknowledged writes. `--trace 1` adds a second, traced run of the same
//! inputs whose per-layer spans come from replaying each query's decision
//! chain (see `layers`). The last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end metrics
//! untraced, the per-layer metrics traced. Any failed check, mechanism gate
//! or operation makes the exit code non-zero.

mod check;
mod drive;
mod layers;
mod stats;
mod workload;

use check::{check_outputs, check_recovered, OutputCheck};
use drive::{measure, Measured};
use layers::OP_METRICS;
use pbds_core::{Action, CatalogStats, CommitStats, Engine, MetricsSnapshot, PbdsServer};
use pbds_persist::{read_records, read_snapshot, SNAPSHOT_FILE, WAL_FILE};
use pbds_storage::{Database, Value};
use stats::{histogram_delta_quantile, median, peak_rss_mb, percentile, ratio};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;
use workload::{server_config, start_server, warm_up, Inputs, Workload};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Reopens of the crashed directory; `recovery_s` is their median.
const RECOVERY_REPS: usize = 5;
/// The open-loop writer is behind schedule, and the run invalid, once it
/// submits a mutation this late.
const MAX_LATENESS_S: f64 = 1.0;
/// Scratch space for durability directories, under the working directory.
const SCRATCH_DIR: &str = ".perfbench_tmp";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 25.0,
        trace: false,
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? == 1,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    match workload.as_deref() {
        Some("all") => {}
        Some(name) => {
            args.workload =
                Some(Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?)
        }
        None => return Err("--workload is required".into()),
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(workload) = args.workload else {
        return run_all(&args);
    };
    let scratch =
        PathBuf::from(SCRATCH_DIR).join(format!("{}-{}", workload.name(), std::process::id()));
    let report = run(workload, &args, &scratch);
    let _ = std::fs::remove_dir_all(&scratch);
    let _ = std::fs::remove_dir(SCRATCH_DIR); // only if no other run uses it
    match report {
        Ok(r) => r.print(args.trace),
        Err(e) => {
            eprintln!("perfbench {}: {e}", workload.name());
            ExitCode::FAILURE
        }
    }
}

/// Run every workload, each in its own process so peak memory stays per
/// workload; exits non-zero if any of them does.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in Workload::ALL {
        println!("== {}", w.name());
        let status = std::process::Command::new(&exe)
            .args(["--workload", w.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        ok &= status.is_ok_and(|s| s.success());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One set-up plus measured interval plus checks.
struct Pass {
    setup_s: Vec<f64>,
    generate_s: Vec<f64>,
    m: Measured,
    peak_rss_mb: f64,
    catalog: (CatalogStats, CatalogStats),
    metrics: (MetricsSnapshot, MetricsSnapshot),
    commits: (CommitStats, CommitStats),
    captures_lifetime: u64,
    backlog_s: f64,
    check: OutputCheck,
    recovery: Option<Recovery>,
    problems: Vec<String>,
}

struct Recovery {
    open_s: Vec<f64>,
    wal_replayed: usize,
    snapshot_read_s: f64,
    wal_read_s: f64,
    dir_bytes: u64,
    db: Arc<Database>,
}

fn run_pass(workload: Workload, args: &Args, dir: &Path, traced: bool) -> Result<Pass, String> {
    let mut setup_s = Vec::new();
    let mut generate_s = Vec::new();
    let mut last: Option<(Inputs, PbdsServer)> = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let sw = Instant::now();
        let inputs = Inputs::generate(workload, args.seed, args.seconds);
        generate_s.push(sw.elapsed().as_secs_f64());
        let server = start_server(workload, &inputs.db, dir)?;
        warm_up(workload, &server, &inputs.pools)?;
        setup_s.push(sw.elapsed().as_secs_f64());
        last = Some((inputs, server));
    }
    let (inputs, server) = last.expect("at least one set-up");

    let start_db = server.db();
    let before = (
        server.catalog().stats(),
        server.metrics_snapshot(),
        server.commit_stats(),
    );
    let m = measure(&server, &inputs, workload.sessions(), args.seconds, traced);
    let peak_rss_mb = peak_rss_mb();
    let sw = Instant::now();
    server.drain();
    let backlog_s = sw.elapsed().as_secs_f64();
    let captures_lifetime = server.capture_totals().0;
    let after = (
        server.catalog().stats(),
        server.metrics_snapshot(),
        server.commit_stats(),
    );
    // Crash: drop without `shutdown`, so nothing is checkpointed on the way
    // out and recovery has to replay the WAL tail.
    drop(server);
    let recovery = workload.durable().then(|| recover(dir)).transpose()?;

    let engine = Engine::new(server_config().profile);
    let check = check_outputs(&engine, &inputs, &start_db, &m.queries, &m.writes);
    let mut problems = check.problems.clone();
    if let Some(r) = &recovery {
        problems.extend(check_recovered(&r.db, &check.final_db));
    }
    if m.max_lateness_s > MAX_LATENESS_S {
        problems.push(format!(
            "run invalid: the open-loop writer fell {:.3} s behind schedule",
            m.max_lateness_s
        ));
    }
    Ok(Pass {
        setup_s,
        generate_s,
        m,
        peak_rss_mb,
        catalog: (before.0, after.0),
        metrics: (before.1, after.1),
        commits: (before.2, after.2),
        captures_lifetime,
        backlog_s,
        check,
        recovery,
        problems,
    })
}

/// Time raw snapshot and WAL reads on a copy of the crashed directory, then
/// reopen the directory itself several times.
fn recover(dir: &Path) -> Result<Recovery, String> {
    let io = |e: std::io::Error| format!("{dir:?}: {e}");
    let copy = dir.with_extension("copy");
    std::fs::create_dir_all(&copy).map_err(io)?;
    let mut dir_bytes = 0;
    for entry in std::fs::read_dir(dir).map_err(io)? {
        let entry = entry.map_err(io)?;
        dir_bytes += entry.metadata().map_err(io)?.len();
        std::fs::copy(entry.path(), copy.join(entry.file_name())).map_err(io)?;
    }
    let sw = Instant::now();
    read_snapshot(&copy.join(SNAPSHOT_FILE)).map_err(|e| format!("read snapshot: {e}"))?;
    let snapshot_read_s = sw.elapsed().as_secs_f64();
    let sw = Instant::now();
    read_records(&copy.join(WAL_FILE)).map_err(|e| format!("read WAL: {e}"))?;
    let wal_read_s = sw.elapsed().as_secs_f64();
    std::fs::remove_dir_all(&copy).map_err(io)?;

    let mut open_s = Vec::new();
    let mut last = None;
    for _ in 0..RECOVERY_REPS {
        drop(last.take());
        let sw = Instant::now();
        let server = PbdsServer::open(dir, server_config()).map_err(|e| format!("reopen: {e}"))?;
        open_s.push(sw.elapsed().as_secs_f64());
        last = Some(server);
    }
    let server = last.expect("at least one reopen");
    Ok(Recovery {
        open_s,
        wal_replayed: server.recovery_report().map_or(0, |r| r.wal_replayed),
        snapshot_read_s,
        wal_read_s,
        dir_bytes,
        db: server.db(),
    })
}

/// Bytes of user data in a database: 8 per number, the length of strings.
fn user_bytes(db: &Database) -> u64 {
    db.table_names()
        .into_iter()
        .filter_map(|t| db.table(t).ok())
        .flat_map(|t| t.rows().iter().flatten())
        .map(|v| match v {
            Value::Int(_) | Value::Float(_) => 8,
            Value::Str(s) => s.len() as u64,
            Value::Bool(_) => 1,
            Value::Null => 0,
        })
        .sum()
}

/// A named metric with its unit.
type Metric = (&'static str, f64, &'static str);

struct Report {
    workload: Workload,
    attempted: u64,
    failed: u64,
    checked: usize,
    problems: Vec<String>,
    end_to_end: Vec<Metric>,
    per_layer: Vec<Metric>,
}

fn run(workload: Workload, args: &Args, scratch: &Path) -> Result<Report, String> {
    std::fs::create_dir_all(scratch).map_err(|e| format!("{scratch:?}: {e}"))?;
    let plain = run_pass(workload, args, &scratch.join("db"), false)?;
    let traced = if args.trace {
        Some(run_pass(workload, args, &scratch.join("db"), true)?)
    } else {
        None
    };

    let mut problems = plain.problems.clone();
    let gates = gates(workload, &plain);
    problems.extend(gates);
    let (mut attempted, mut failed) = counts(&plain);
    if let Some(t) = &traced {
        problems.extend(t.problems.iter().map(|p| format!("traced run: {p}")));
        let (a, f) = counts(t);
        attempted += a;
        failed += f;
    }
    Ok(Report {
        workload,
        attempted,
        failed,
        checked: plain.check.distinct_keys,
        problems,
        end_to_end: end_to_end(&plain),
        per_layer: per_layer(&plain, traced.as_ref()),
    })
}

fn counts(p: &Pass) -> (u64, u64) {
    let attempted = p.m.queries.len() + p.m.writes.len();
    let failed = p.m.queries.iter().filter(|q| q.served.is_none()).count()
        + p.m.writes.iter().filter(|w| w.outcome.is_none()).count();
    (attempted as u64, failed as u64)
}

/// Query latencies in ms, a failed serve counting above any limit.
fn latencies_ms(p: &Pass) -> Vec<f64> {
    p.m.queries
        .iter()
        .map(|q| match q.served {
            Some(_) => q.latency_s * 1e3,
            None => f64::INFINITY,
        })
        .collect()
}

/// The bounded tail percentile is p95: on a 2-vCPU host the write mix's
/// p99 spread by up to a third across seeds of the same code. The p99 is
/// still reported, among the per-layer metrics.
fn end_to_end(p: &Pass) -> Vec<Metric> {
    let lat = latencies_ms(p);
    let ok = p.m.queries.iter().filter(|q| q.served.is_some()).count();
    vec![
        ("query_p50_ms", percentile(&lat, 0.50), "ms"),
        ("query_p95_ms", percentile(&lat, 0.95), "ms"),
        ("queries_per_s", ratio(ok as f64, p.m.wall_s), "1/s"),
        ("setup_s", median(&p.setup_s), "s"),
        ("peak_rss_mb", p.peak_rss_mb, "MB"),
    ]
}

fn gates(workload: Workload, p: &Pass) -> Vec<String> {
    let g = counters(p);
    let mut failed = Vec::new();
    let mut require = |ok: bool, what: &str| {
        if !ok {
            failed.push(format!("mechanism gate failed: {what}"));
        }
    };
    match workload {
        Workload::SofHot => {
            require(g.rows_vs_plain < 1.0, "exec.rows_scanned_vs_plain < 1");
            require(g.hit_ratio > 0.0, "catalog.hit_ratio > 0");
        }
        Workload::TpchCold => {
            require(g.captures > 0.0, "provenance.captures > 0");
            require(g.evictions > 0.0, "catalog.evictions > 0");
        }
        Workload::SofWriteMix => {
            require(
                g.mutations_per_batch >= 1.0,
                "server.mutations_per_batch >= 1",
            );
            require(g.fsyncs > 0.0, "persist.fsyncs > 0");
        }
    }
    failed
}

/// The program's own counters, as deltas over the measured interval.
struct Counters {
    lookups: f64,
    uses: f64,
    rows_vs_plain: f64,
    hit_ratio: f64,
    captures: f64,
    evictions: f64,
    mutations_per_batch: f64,
    fsyncs: f64,
}

fn counters(p: &Pass) -> Counters {
    let (c0, c1) = &p.catalog;
    let (k0, k1) = &p.commits;
    let served = || p.m.queries.iter().filter_map(|q| q.served.as_ref());
    let served_rows: u64 = served().map(|s| s.rows_scanned).sum();
    let hits = (c1.hits - c0.hits) as f64;
    let lookups = ((c1.hits + c1.misses) - (c0.hits + c0.misses)) as f64;
    let counter = |name: &str| {
        (p.metrics.1.counter(name).unwrap_or(0) - p.metrics.0.counter(name).unwrap_or(0)) as f64
    };
    Counters {
        lookups,
        uses: served().filter(|s| s.action == Action::UseSketch).count() as f64,
        rows_vs_plain: ratio(served_rows as f64, p.check.plain_rows_scanned as f64),
        hit_ratio: ratio(hits, lookups),
        captures: counter("pbds_captures_done"),
        evictions: (c1.evictions - c0.evictions) as f64,
        mutations_per_batch: ratio(
            (k1.mutations_committed - k0.mutations_committed) as f64,
            (k1.batched_commits - k0.batched_commits) as f64,
        ),
        fsyncs: (k1.fsyncs - k0.fsyncs) as f64,
    }
}

fn per_layer(p: &Pass, traced: Option<&Pass>) -> Vec<Metric> {
    let g = counters(p);
    let (c0, c1) = &p.catalog;
    let served: Vec<_> =
        p.m.queries
            .iter()
            .filter_map(|q| q.served.as_ref())
            .collect();
    let n = served.len() as f64;
    let sum = |f: fn(&drive::Served) -> u64| served.iter().map(|s| f(s)).sum::<u64>() as f64;
    let hist = |name: &str, q: f64| {
        histogram_delta_quantile(
            p.metrics.0.histograms.get(name),
            p.metrics.1.histograms.get(name),
            q,
        )
    };
    let acks: Vec<f64> = p.m.writes.iter().map(|w| w.ack_s * 1e3).collect();
    let ops = p.m.queries.len() + p.m.writes.len();
    let (_, failed) = counts(p);
    let mut out: Vec<Metric> = vec![
        ("query_p99_ms", percentile(&latencies_ms(p), 0.99), "ms"),
        ("write_ack_p50_ms", percentile(&acks, 0.50), "ms"),
        ("write_ack_p99_ms", percentile(&acks, 0.99), "ms"),
        (
            "recovery_s",
            p.recovery.as_ref().map_or(0.0, |r| median(&r.open_s)),
            "s",
        ),
        ("failed_ratio", ratio(failed as f64, ops as f64), "ratio"),
        ("gen.max_lateness_ms", p.m.max_lateness_s * 1e3, "ms"),
        ("workloads.generate_s", median(&p.generate_s), "s"),
        ("catalog.hit_ratio", g.hit_ratio, "ratio"),
        (
            "catalog.memo_hit_ratio",
            ratio((c1.memo_hits - c0.memo_hits) as f64, g.lookups),
            "ratio",
        ),
        ("catalog.evictions", g.evictions, "count"),
        ("catalog.bytes", c1.bytes as f64, "bytes"),
        (
            "catalog.extended",
            (c1.extended - c0.extended) as f64,
            "count",
        ),
        (
            "catalog.invalidated",
            (c1.invalidated - c0.invalidated) as f64,
            "count",
        ),
        (
            "exec.rows_scanned_per_query",
            ratio(sum(|s| s.rows_scanned), n),
            "rows",
        ),
        ("exec.rows_scanned_vs_plain", g.rows_vs_plain, "ratio"),
        (
            "exec.blocks_skipped_ratio",
            ratio(sum(|s| s.blocks_skipped), sum(|s| s.blocks_total)),
            "ratio",
        ),
        (
            "exec.intermediate_rows_per_query",
            ratio(sum(|s| s.intermediate_rows), n),
            "rows",
        ),
        ("provenance.captures", g.captures, "count"),
        (
            "provenance.capture_p50_ms",
            hist("pbds_capture_seconds", 0.50) * 1e3,
            "ms",
        ),
        (
            "provenance.capture_p99_ms",
            hist("pbds_capture_seconds", 0.99) * 1e3,
            "ms",
        ),
        (
            "provenance.uses_per_capture",
            ratio(g.uses, p.captures_lifetime as f64),
            "ratio",
        ),
        ("server.capture_backlog_s", p.backlog_s, "s"),
        ("server.mutations_per_batch", g.mutations_per_batch, "ratio"),
        ("persist.fsyncs", g.fsyncs, "count"),
        (
            "persist.fsync_p99_ms",
            hist("pbds_wal_fsync_seconds", 0.99) * 1e3,
            "ms",
        ),
        (
            "persist.bytes_per_user_byte",
            p.recovery
                .as_ref()
                .map_or(0.0, |r| ratio(r.dir_bytes as f64, user_bytes(&r.db) as f64)),
            "ratio",
        ),
        (
            "persist.snapshot_read_s",
            p.recovery.as_ref().map_or(0.0, |r| r.snapshot_read_s),
            "s",
        ),
        (
            "persist.wal_read_s",
            p.recovery.as_ref().map_or(0.0, |r| r.wal_read_s),
            "s",
        ),
        (
            "persist.wal_replayed",
            p.recovery.as_ref().map_or(0.0, |r| r.wal_replayed as f64),
            "count",
        ),
    ];
    if let Some(t) = traced {
        let l = &t.m.layers;
        out.extend([
            ("storage.first_touch_ms", l.first_touch.mean_ms(), "ms"),
            ("storage.epochs_seen", l.first_touch.n as f64, "count"),
            ("safety.choose_ms", l.safety.mean_ms(), "ms"),
            ("tuning.estimate_ms", l.estimate.mean_ms(), "ms"),
            (
                "tuning.gate_plain_share",
                ratio(l.gate_plain as f64, l.serve.n as f64),
                "ratio",
            ),
            ("catalog.reuse_check_ms", l.reuse.mean_ms(), "ms"),
            ("instrument.apply_ms", l.instrument.mean_ms(), "ms"),
            ("exec.execute_ms.plain", l.exec_plain.mean_ms(), "ms"),
            ("exec.execute_ms.sketch", l.exec_sketch.mean_ms(), "ms"),
        ]);
        for (name, s) in OP_METRICS.into_iter().zip(l.ops_s) {
            out.push((name, ratio(s * 1e3, l.explained as f64), "ms"));
        }
        let traced_p50 = percentile(&latencies_ms(t), 0.5);
        out.extend([
            ("server.serve_ms", l.serve.mean_ms(), "ms"),
            (
                "server.submit_ms",
                ratio(
                    t.m.submit_s.iter().sum::<f64>() * 1e3,
                    t.m.submit_s.len() as f64,
                ),
                "ms",
            ),
            (
                "trace.overhead_p50_ms",
                traced_p50 - percentile(&latencies_ms(p), 0.5),
                "ms",
            ),
            (
                "trace.unattributed_share",
                1.0 - ratio(l.chain_s, l.serve.total_s),
                "ratio",
            ),
        ]);
    }
    out
}

impl Report {
    fn print(&self, trace: bool) -> ExitCode {
        println!(
            "workload {} (nproc {}, {} distinct answers checked)",
            self.workload.name(),
            nproc(),
            self.checked
        );
        for (name, value, unit) in self.end_to_end.iter().chain(&self.per_layer) {
            println!("  {name:<34} {value:>14.4} {unit}");
        }
        for p in &self.problems {
            println!("  FAIL {p}");
        }
        let correct = self.problems.is_empty();
        let shown = if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        let metrics: Vec<String> = shown
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(*value)
                )
            })
            .collect();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
        if correct && self.failed == 0 {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }
}

/// JSON has no infinities; a failed request's infinite latency becomes the
/// largest finite number.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        format!("{}", f64::MAX)
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
