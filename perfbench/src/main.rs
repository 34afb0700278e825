//! End-to-end and per-layer benchmark of ChronosDB's TQuel query
//! service.  See `perfbench/README.md` for the workloads, the metrics
//! and the layer map.
//!
//! ```text
//! perfbench --workload lookup|report|ingest --seed N --seconds S --trace 0|1
//! ```
//!
//! Prints one `name value unit` line per metric, then, as the last
//! line, a JSON object `{"correct", "attempted", "failed", "metrics"}`
//! carrying the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics (`--trace 1`).  Exits 1 on any wrong answer or failed check.

mod check;
mod classify;
mod oracle;
mod setup;
mod spans;
mod stats;
mod traced;
mod wire;
mod workload;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use chronos_core::chronon::Chronon;
use chronos_core::clock::ManualClock;
use chronos_db::Database;
use chronos_obs::metrics::{HistogramSnapshot, MetricsSnapshot};

use crate::check::Verdict;
use crate::classify::Class;
use crate::setup::{dir_bytes, file_len, Live, SetupCost, StealMeter};
use crate::stats::{calmest_half, median, tail};
use crate::traced::{Attribution, Plain, TraceLog};
use crate::wire::ConnRun;
use crate::workload::{History, Workload};

/// Measured seconds per round: each round runs on a fresh set-up.  The
/// timings come from the calmer half of the rounds (see
/// [`stats::calmest_half`]); short rounds keep `ingest`'s growth small
/// and give that choice more rounds to choose from.
const ROUND_SECONDS: f64 = 3.0;
/// Throughput is the median completion rate over windows of this
/// length, across the calm rounds; a partial last window is dropped.
const WINDOW_SECONDS: f64 = 0.5;
/// Fewest rounds per run.
const MIN_ROUNDS: usize = 3;
/// Reopens after each round; `recovery_s` is the median of the calm
/// rounds' reopens.  Each takes tens of milliseconds.
const REOPENS: usize = 6;
/// Pings for `net.rtt_us`.
const PINGS: usize = 200;
/// Paired reads for `net.self_us`.
const NET_PROBES: usize = 300;
/// Named layers must account for at least this share of every class's
/// traced request time (the rest is glue between the layer calls).
const CLOSURE_MIN: f64 = 0.90;
/// Where runs keep their databases and span logs, under the working
/// directory.
const WORK_DIR: &str = ".perfbench";

struct Args {
    workload: Workload,
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
        let value = it.next().ok_or_else(|| format!("{flag} takes a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds out of range: {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let code = match parse_args().and_then(|args| {
        let root = PathBuf::from(WORK_DIR).join(format!("run-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).map_err(|e| format!("{}: {e}", root.display()))?;
        let result = measure(&args, &root);
        let _ = std::fs::remove_dir_all(&root);
        result
    }) {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("perfbench: {e}");
            2
        }
    };
    std::process::exit(code);
}

/// One metric for the report and the JSON line.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

/// The JSON line's end-to-end metrics, in `BENCHMARK.json` order.
/// `recovery_s` is a report line only: on the read-only workloads a
/// reopen replays no log, and its tens of milliseconds follow the
/// host's speed more than the program's.
const END_TO_END: [&str; 6] = [
    "throughput_ops_s",
    "read_p50_ms",
    "read_p99_ms",
    "setup_s",
    "disk_bytes_per_version",
    "peak_rss_mb",
];

/// The JSON line's per-layer metrics, in `BENCHMARK.json` order.
const PER_LAYER: [&str; 31] = [
    "net.rtt_us",
    "net.self_us",
    "net.bytes_out_per_op",
    "session.read_us",
    "session.write_us",
    "session.lower_us",
    "tquel.parse_us",
    "tquel.analyze_us",
    "tquel.exec_self_us",
    "tquel.examined_per_row",
    "tquel.render_us",
    "tquel.render_bytes_per_op",
    "cache.hit_rate",
    "cache.invalidations_per_commit",
    "cache.evictions_per_op",
    "provider.scan_us",
    "storage.scan_us",
    "storage.rows_scanned_per_read",
    "storage.txns_replayed_per_scan",
    "storage.segment_skip_rate",
    "engine.queue_wait_us",
    "engine.apply_us",
    "engine.fsync_us",
    "engine.batch_size",
    "engine.read_lock_wait_us",
    "wal.fsyncs_per_commit",
    "wal.bytes_per_commit",
    "checkpoint.s",
    "recovery.wal_bytes",
    "trace.overhead_pct",
    "trace.closure_pct",
];

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn mean(xs: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = xs.into_iter().fold((0.0, 0u64), |(s, n), x| (s + x, n + 1));
    ratio(sum, n as f64)
}

/// One round: a fresh set-up, the measured run, the answer checks and
/// the reopens.
struct Round {
    cost: SetupCost,
    times: RunTimes,
    /// Highest resident set sampled during the run.
    peak_rss_mb: f64,
    reopen_s: Vec<f64>,
    /// WAL bytes the reopens replayed.
    wal_at_reopen: u64,
    disk_bytes: u64,
    versions: usize,
    steal: Steal,
}

/// The host's steal ticks per second during a round's set-up, and from
/// its measured run to its last reopen (the reopens are too short to
/// rank on their own); `None` where the host does not report steal time.
struct Steal {
    setup: Option<f64>,
    run: Option<f64>,
}

fn measure(args: &Args, root: &Path) -> Result<bool, String> {
    let history = History::generate(args.seed);
    let n_rounds = ((args.seconds / ROUND_SECONDS).ceil() as usize).max(MIN_ROUNDS);
    let seconds = args.seconds / n_rounds as f64;
    let mut verdict = Verdict::default();
    let mut rounds = Vec::with_capacity(n_rounds);
    let mut layer = Vec::new();
    for round in 0..n_rounds {
        let meter = StealMeter::start();
        let (live, cost) = setup::build(&history, &root.join(format!("db{round}")))?;
        let setup_steal = meter.per_s();
        let addr = live.server.addr();
        let before = live.engine.stats().metrics;
        let wal_before = file_len(&live.dir.join("wal"));
        let meter = StealMeter::start();
        let (runs, peak_rss_mb) = wire::run(addr, args.workload, args.seed, &history, seconds);
        let after = live.engine.stats().metrics;
        let wal_after = file_len(&live.dir.join("wal"));
        verdict.absorb(check::responses(&runs, &history.oracle, history.last));
        let versions: usize = live.engine.with_db(|db| {
            db.relation_names()
                .iter()
                .filter_map(|n| db.relation(n))
                .map(|r| r.stored_tuples())
                .sum()
        });
        if args.trace && round + 1 == n_rounds {
            let rtt = wire::ping_rtt_ns(addr, PINGS)?;
            let net = wire::net_self_ns(addr, &live.engine, &runs, NET_PROBES)?;
            let replay = replay(args.workload, &history, root, &live, &runs, &cost)?;
            verdict.absorb(replay.verdict(&runs, args.workload));
            verdict.absorb(closure(&replay.attribution));
            let spans: Vec<_> = replay.traced.iter().flat_map(|l| l.spans.clone()).collect();
            let path = Path::new(WORK_DIR).join(format!("spans-{}.tsv", args.workload.name()));
            spans::write_tsv(&path, &spans).map_err(|e| format!("{}: {e}", path.display()))?;
            print_attribution(&replay.attribution);
            layer = per_layer(&LayerInputs {
                runs: &runs,
                before: &before,
                after: &after,
                wal_run: wal_after.saturating_sub(wal_before),
                setup: &cost,
                rtt_ns: rtt,
                net_self_ns: net,
                replay: &replay,
            });
        }
        let dir = live.stop();
        let disk_bytes = dir_bytes(&dir);
        let wal_at_reopen = file_len(&dir.join("wal"));
        let mut reopen_s = Vec::new();
        for _ in 0..REOPENS {
            let clock = Arc::new(ManualClock::new(Chronon::new(0)));
            let t0 = Instant::now();
            let db = Database::open(&dir, clock).map_err(|e| format!("reopen: {e}"))?;
            reopen_s.push(t0.elapsed().as_secs_f64());
            verdict.absorb(check::durable(&db, &runs));
        }
        let run_steal = meter.per_s();
        std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        rounds.push(Round {
            cost,
            times: timed(&runs),
            peak_rss_mb,
            reopen_s,
            wal_at_reopen,
            disk_bytes,
            versions,
            steal: Steal {
                setup: setup_steal,
                run: run_steal,
            },
        });
    }
    if args.trace {
        let checkpoints: Vec<f64> = rounds.iter().map(|r| r.cost.checkpoint_s).collect();
        layer.extend([
            Metric {
                name: "checkpoint.s",
                value: median(&checkpoints).unwrap_or(0.0),
                unit: "s",
            },
            Metric {
                name: "recovery.wal_bytes",
                value: rounds.last().map_or(0, |r| r.wal_at_reopen) as f64,
                unit: "B",
            },
        ]);
    }

    let e2e = end_to_end(&rounds, verdict.errors);
    for m in e2e.iter().chain(&layer) {
        println!("{:<32} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for note in &verdict.notes {
        eprintln!("check: {note}");
    }
    let correct = verdict.errors.clean();
    let (names, metrics): (&[&str], &[Metric]) = if args.trace {
        (&PER_LAYER, &layer)
    } else {
        (&END_TO_END, &e2e)
    };
    let mut fields = Vec::new();
    for name in names {
        let m = metrics
            .iter()
            .find(|m| m.name == *name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !m.value.is_finite() {
            return Err(format!("metric {name} is not finite: {}", m.value));
        }
        fields.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        verdict.errors.attempted,
        verdict.errors.failed + verdict.errors.wrong,
        fields.join(", ")
    );
    Ok(correct)
}

/// Fails the run when the named layers do not account for a class's
/// traced time, or self times do not add up to it.
fn closure(by: &BTreeMap<Class, Attribution>) -> Verdict {
    let mut v = Verdict::default();
    for (class, a) in by {
        let drift = a.self_sum().abs_diff(a.total_ns) as f64;
        if a.attributed() < CLOSURE_MIN || drift > 0.01 * a.total_ns as f64 {
            v.wrong(format!(
                "closure failed for {}: layers account for {:.1}% of {} ns, self times sum to {} ns",
                class.name(),
                100.0 * a.attributed(),
                a.total_ns,
                a.self_sum()
            ));
        }
    }
    v
}

/// What a round keeps of its run once its answers are checked, so that
/// the requests and replies of earlier rounds do not count in a later
/// round's peak RSS.
struct RunTimes {
    /// Class and wire latency (ns) of each timed, answered request.
    ops: Vec<(Class, u64)>,
    /// Completion rate in each full window since the round's start:
    /// (completions − 1) over the time between the window's first and
    /// last completion.
    windows: Vec<f64>,
}

/// The timings of a round's run.
fn timed(runs: &[ConnRun]) -> RunTimes {
    let answered: Vec<&wire::Outcome> = runs
        .iter()
        .flat_map(|r| &r.outcomes)
        .filter(|o| o.timed && o.ok)
        .collect();
    let ops = answered.iter().map(|o| (o.req.class, o.lat_ns)).collect();
    let Some(start) = runs.iter().filter_map(|r| r.start).min() else {
        return RunTimes {
            ops,
            windows: Vec::new(),
        };
    };
    let end = runs.iter().filter_map(|r| r.end).max().unwrap_or(start);
    let full = ((end - start).as_secs_f64() / WINDOW_SECONDS).floor() as usize;
    // (completions, first, last) per window, in seconds since `start`.
    let mut windows = vec![(0u64, f64::INFINITY, 0.0f64); full];
    for o in &answered {
        let at = (o.done - start).as_secs_f64();
        if let Some(w) = windows.get_mut((at / WINDOW_SECONDS) as usize) {
            *w = (w.0 + 1, w.1.min(at), w.2.max(at));
        }
    }
    let windows = windows
        .into_iter()
        .filter(|&(n, first, last)| n >= 2 && last > first)
        .map(|(n, first, last)| (n - 1) as f64 / (last - first))
        .collect();
    RunTimes { ops, windows }
}

/// Sorted latencies, in ms, of the outcomes whose class passes `pred`.
fn latencies_ms(ops: &[(Class, u64)], pred: impl Fn(Class) -> bool) -> Vec<f64> {
    let mut v: Vec<f64> = ops
        .iter()
        .filter(|&&(class, _)| pred(class))
        .map(|&(_, lat_ns)| lat_ns as f64 / 1e6)
        .collect();
    v.sort_by(f64::total_cmp);
    v
}

/// The rounds a phase's timings come from: the calmer half by the
/// host's steal time during that phase, or every round where the host
/// does not report it.  Another guest taking this machine's CPUs slows
/// set-ups, requests and reopens alike, for seconds at a time; the calm
/// rounds show what the program costs.
fn calm_rounds(rounds: &[Round], phase: fn(&Steal) -> Option<f64>) -> Vec<&Round> {
    match rounds
        .iter()
        .map(|r| phase(&r.steal))
        .collect::<Option<Vec<_>>>()
    {
        Some(rates) => calmest_half(&rates)
            .into_iter()
            .map(|i| &rounds[i])
            .collect(),
        None => rounds.iter().collect(),
    }
}

/// End-to-end metrics.  Timings come from the calm rounds: the median
/// read pools their samples, the read tail is the median of their
/// tails, throughput is their median window, recovery is the median of
/// their reopens; set-up is the median over the rounds calm in set-up.
/// Disk and memory are medians over every round.
fn end_to_end(rounds: &[Round], errors: stats::ErrorCount) -> Vec<Metric> {
    let calm = calm_rounds(rounds, |s| s.run);
    let mut ops = Vec::new();
    let mut windows = Vec::new();
    for r in &calm {
        ops.extend_from_slice(&r.times.ops);
        windows.extend_from_slice(&r.times.windows);
    }
    let reads = latencies_ms(&ops, Class::is_read);
    // The read tail is each calm round's, then their median: one round
    // with a stall cannot set it.
    let round_tails: Vec<stats::Tail> = calm
        .iter()
        .filter_map(|r| tail(&latencies_ms(&r.times.ops, Class::is_read), 99.0))
        .collect();
    let writes = latencies_ms(&ops, Class::is_write);
    let of_rounds = |f: fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    let mut out = vec![
        Metric {
            name: "throughput_ops_s",
            value: median(&windows).unwrap_or(0.0),
            unit: "1/s",
        },
        Metric {
            name: "read_p50_ms",
            value: median(&reads).unwrap_or(0.0),
            unit: "ms",
        },
        Metric {
            name: "read_p99_ms",
            value: median(&round_tails.iter().map(|t| t.value).collect::<Vec<_>>()).unwrap_or(0.0),
            unit: "ms",
        },
        Metric {
            name: "setup_s",
            value: median(
                &calm_rounds(rounds, |s| s.setup)
                    .iter()
                    .map(|r| r.cost.total_s)
                    .collect::<Vec<_>>(),
            )
            .unwrap_or(0.0),
            unit: "s",
        },
        Metric {
            name: "recovery_s",
            value: median(
                &calm
                    .iter()
                    .flat_map(|r| r.reopen_s.clone())
                    .collect::<Vec<_>>(),
            )
            .unwrap_or(0.0),
            unit: "s",
        },
        Metric {
            name: "disk_bytes_per_version",
            value: of_rounds(|r| ratio(r.disk_bytes as f64, r.versions as f64)).unwrap_or(0.0),
            unit: "B",
        },
        Metric {
            name: "peak_rss_mb",
            value: of_rounds(|r| r.peak_rss_mb).unwrap_or(0.0),
            unit: "MB",
        },
    ];
    // Reported, but not in the JSON line: each exists on some
    // workloads only.
    for class in Class::MEASURED {
        if let Some(p50) = median(&latencies_ms(&ops, |c| c == class)) {
            out.push(Metric {
                name: class_p50_name(class),
                value: p50,
                unit: "ms",
            });
        }
    }
    if let Some(t) = tail(&writes, 99.0) {
        out.push(Metric {
            name: "write_p99_ms",
            value: t.value,
            unit: "ms",
        });
    }
    out.push(Metric {
        name: "error_rate",
        value: errors.rate(),
        unit: "ratio",
    });
    let steal = |phase: fn(&Steal) -> Option<f64>| {
        let rates: Vec<String> = rounds
            .iter()
            .map(|r| phase(&r.steal).map_or("-".into(), |s| format!("{s:.0}")))
            .collect();
        rates.join(" ")
    };
    println!(
        "# {} rounds, steal ticks/s in set-up [{}], run [{}]; run timings from {} calm rounds: {} timed ops, {} windows of {WINDOW_SECONDS} s; reads {} (tail p{} in {} rounds), writes {} (tail p{})",
        rounds.len(),
        steal(|s| s.setup),
        steal(|s| s.run),
        calm.len(),
        ops.len(),
        windows.len(),
        reads.len(),
        round_tails.iter().map(|t| t.pct).fold(f64::NAN, f64::min),
        round_tails.len(),
        writes.len(),
        tail(&writes, 99.0).map_or(0.0, |t| t.pct),
    );
    out
}

fn class_p50_name(c: Class) -> &'static str {
    match c {
        Class::Current => "current_p50_ms",
        Class::AsOf => "asof_p50_ms",
        Class::When => "when_p50_ms",
        Class::Join => "join_p50_ms",
        Class::Append => "append_p50_ms",
        Class::Replace => "replace_p50_ms",
        Class::Other => "other_p50_ms",
    }
}

/// The in-process replays of a wire run.
struct Replay {
    /// Through `EngineSession::run` (the server's path).
    plain: Vec<Vec<Plain>>,
    /// Through the public calls, without spans.
    bare: Vec<TraceLog>,
    /// Through the public calls, with spans.
    traced: Vec<TraceLog>,
    attribution: BTreeMap<Class, Attribution>,
    /// `EngineSession::run` time of each modification measured for
    /// `session.write_us`.
    writes_ns: Vec<u64>,
    /// Engine counters over exactly those modifications.
    write_stages: MetricsSnapshot,
}

/// Replays `runs` three times.  Read-only workloads replay on the
/// measured database; `ingest` replays each time on a fresh set-up, so
/// every write lands on the state it was generated against.  Without
/// modifications in the stream, `session.write_us` covers the set-up's.
fn replay(
    workload: Workload,
    history: &History,
    root: &Path,
    live: &Live,
    runs: &[ConnRun],
    setup: &SetupCost,
) -> Result<Replay, String> {
    if workload != Workload::Ingest {
        let (plain, bare, traced) = (
            traced::sessions(&live.engine, runs)?,
            traced::calls(&live.engine, runs, false)?,
            traced::calls(&live.engine, runs, true)?,
        );
        return Ok(Replay {
            attribution: traced::attribute(&traced),
            plain,
            bare,
            traced,
            writes_ns: setup.staff_write_ns.clone(),
            write_stages: setup.staff_stats.clone(),
        });
    }
    let fresh =
        |tag: &str| -> Result<Live, String> { Ok(setup::build(history, &root.join(tag))?.0) };
    let l = fresh("plain")?;
    let before = l.engine.stats().metrics;
    let plain = traced::sessions(&l.engine, runs)?;
    let write_stages = l.engine.stats().metrics.since(&before);
    l.stop();
    let l = fresh("bare")?;
    let bare = traced::calls(&l.engine, runs, false)?;
    l.stop();
    let l = fresh("traced")?;
    let traced = traced::calls(&l.engine, runs, true)?;
    l.stop();
    let writes_ns = plain
        .iter()
        .flatten()
        .filter(|p| p.class.is_write())
        .map(|p| p.run_ns)
        .collect();
    Ok(Replay {
        attribution: traced::attribute(&traced),
        plain,
        bare,
        traced,
        writes_ns,
        write_stages,
    })
}

impl Replay {
    /// On read-only workloads, every replay must render byte-identical
    /// responses to the wire's.
    fn verdict(&self, runs: &[ConnRun], workload: Workload) -> Verdict {
        let mut v = Verdict::default();
        if workload == Workload::Ingest {
            return v;
        }
        for (c, run) in runs.iter().enumerate() {
            for (i, o) in run.outcomes.iter().enumerate() {
                let same = self.plain[c][i].hash == o.hash
                    && self.bare[c].requests[i].hash == o.hash
                    && self.traced[c].requests[i].hash == o.hash;
                if o.ok && !same {
                    v.wrong(format!("replay differs from the wire: {}", o.req.text));
                }
            }
        }
        v
    }
}

struct LayerInputs<'a> {
    runs: &'a [ConnRun],
    before: &'a MetricsSnapshot,
    after: &'a MetricsSnapshot,
    wal_run: u64,
    setup: &'a SetupCost,
    rtt_ns: Vec<u64>,
    net_self_ns: Vec<f64>,
    replay: &'a Replay,
}

fn hist_mean_us(h: &HistogramSnapshot) -> f64 {
    ratio(h.total_ns as f64, h.samples as f64) / 1e3
}

/// Mean commit-path time per commit of `m`: queue wait, lock wait,
/// apply, fsync and acknowledgement (apply, fsync and ack are recorded
/// per batch and spread over its commits).
fn engine_us_per_commit(m: &MetricsSnapshot) -> f64 {
    let stages = [
        &m.commit_queue_wait,
        &m.commit_lock_wait,
        &m.commit_apply,
        &m.commit_fsync,
        &m.commit_ack,
    ];
    let total_ns: u64 = stages.iter().map(|h| h.total_ns).sum();
    ratio(total_ns as f64, m.commits as f64) / 1e3
}

fn per_layer(x: &LayerInputs) -> Vec<Metric> {
    let (b, a) = (x.before, x.after);
    let outcomes: Vec<_> = x.runs.iter().flat_map(|r| &r.outcomes).collect();
    let requests = outcomes.len() as f64;
    let reads_sent = outcomes.iter().filter(|o| o.req.class.is_read()).count() as f64;
    let d = |f: fn(&MetricsSnapshot) -> u64| f(a).saturating_sub(f(b)) as f64;
    // The commit path is measured over the run's commits or, on the
    // read-only workloads, over the set-up's (the engine's whole life).
    let run = a.since(b);
    let (scope, wal_bytes) = if run.commits > 0 {
        (run, x.wal_run as f64)
    } else {
        (a.clone(), x.setup.wal_bytes as f64)
    };
    let commits = scope.commits as f64;

    let r = x.replay;
    let plain_reads: Vec<&Plain> = r
        .plain
        .iter()
        .flatten()
        .filter(|p| p.class.is_read())
        .collect();
    let session_write_us = mean(r.writes_ns.iter().map(|&n| n as f64)) / 1e3;

    let mut reads = Attribution::default();
    let mut storage = (0u64, 0u64);
    for (class, at) in &r.attribution {
        storage.0 += at.storage_scans;
        storage.1 += at.storage_scan_ns;
        if class.is_read() {
            reads.n += at.n;
            reads.total_ns += at.total_ns;
            for (k, v) in &at.self_ns {
                *reads.self_ns.entry(k).or_default() += v;
            }
        }
    }
    let per_read_us = |layer: &str| {
        ratio(
            reads.self_ns.get(layer).copied().unwrap_or(0) as f64,
            reads.n as f64,
        ) / 1e3
    };
    let traced_reads: Vec<_> = r
        .traced
        .iter()
        .flat_map(|l| &l.requests)
        .filter(|t| t.class.is_read())
        .collect();
    let bare_read_ns = mean(
        r.bare
            .iter()
            .flat_map(|l| &l.requests)
            .filter(|t| t.class.is_read())
            .map(|t| t.total_ns as f64),
    );
    let traced_read_ns = mean(traced_reads.iter().map(|t| t.total_ns as f64));
    let examined: u64 = traced_reads.iter().map(|t| t.examined).sum();
    let returned: u64 = traced_reads.iter().map(|t| t.rows.max(1)).sum();
    let rendered: u64 = traced_reads.iter().map(|t| t.bytes).sum();
    let provider_scans = r
        .traced
        .iter()
        .flat_map(|l| &l.spans)
        .filter(|s| s.name == "provider.scan")
        .count() as f64;
    let closure = r
        .attribution
        .values()
        .map(Attribution::attributed)
        .fold(1.0f64, f64::min);
    let hits = d(|m| m.cache_hits);
    let misses = d(|m| m.cache_misses);
    let seg_hits = d(|m| m.segment_hits);
    let seg_skips = d(|m| m.segment_skips);
    let rtt = x.rtt_ns.iter().map(|&n| n as f64).collect::<Vec<_>>();
    let m = |name: &'static str, value: f64, unit: &'static str| Metric { name, value, unit };
    vec![
        m("net.rtt_us", median(&rtt).unwrap_or(0.0) / 1e3, "us"),
        m(
            "net.self_us",
            median(&x.net_self_ns).unwrap_or(0.0) / 1e3,
            "us",
        ),
        m(
            "net.bytes_out_per_op",
            ratio(d(|m| m.net_bytes_out), d(|m| m.net_requests)),
            "B",
        ),
        m(
            "session.read_us",
            mean(plain_reads.iter().map(|p| p.run_ns as f64)) / 1e3,
            "us",
        ),
        m("session.write_us", session_write_us, "us"),
        m(
            "session.lower_us",
            session_write_us - engine_us_per_commit(&r.write_stages),
            "us",
        ),
        m("tquel.parse_us", per_read_us("tquel.parse"), "us"),
        m("tquel.analyze_us", per_read_us("tquel.analyze"), "us"),
        m("tquel.exec_self_us", per_read_us("tquel.exec"), "us"),
        m(
            "tquel.examined_per_row",
            ratio(examined as f64, returned as f64),
            "ratio",
        ),
        m("tquel.render_us", per_read_us("tquel.render"), "us"),
        m(
            "tquel.render_bytes_per_op",
            ratio(rendered as f64, traced_reads.len() as f64),
            "B",
        ),
        m("cache.hit_rate", ratio(hits, hits + misses), "ratio"),
        m(
            "cache.invalidations_per_commit",
            ratio(scope.cache_invalidations as f64, commits),
            "ratio",
        ),
        m(
            "cache.evictions_per_op",
            ratio(d(|m| m.cache_evictions), requests),
            "ratio",
        ),
        m(
            "provider.scan_us",
            ratio(
                reads.self_ns.get("provider.scan").copied().unwrap_or(0) as f64,
                provider_scans,
            ) / 1e3,
            "us",
        ),
        m(
            "storage.scan_us",
            ratio(storage.1 as f64, storage.0 as f64) / 1e3,
            "us",
        ),
        m(
            "storage.rows_scanned_per_read",
            ratio(d(|m| m.heap_rows_scanned), reads_sent),
            "count",
        ),
        m(
            "storage.txns_replayed_per_scan",
            ratio(d(|m| m.rollback_txns_replayed), misses),
            "count",
        ),
        m(
            "storage.segment_skip_rate",
            ratio(seg_skips, seg_hits + seg_skips),
            "ratio",
        ),
        m(
            "engine.queue_wait_us",
            hist_mean_us(&scope.commit_queue_wait),
            "us",
        ),
        m("engine.apply_us", hist_mean_us(&scope.commit_apply), "us"),
        m("engine.fsync_us", hist_mean_us(&scope.commit_fsync), "us"),
        m(
            "engine.batch_size",
            ratio(
                scope.group_batch_size.total_ns as f64,
                scope.group_batch_size.samples as f64,
            ),
            "count",
        ),
        m(
            "engine.read_lock_wait_us",
            hist_mean_us(&a.read_lock_wait.since(&b.read_lock_wait)),
            "us",
        ),
        m(
            "wal.fsyncs_per_commit",
            ratio(scope.wal_fsyncs as f64, commits),
            "ratio",
        ),
        m("wal.bytes_per_commit", ratio(wal_bytes, commits), "B"),
        m(
            "trace.overhead_pct",
            100.0 * ratio(traced_read_ns - bare_read_ns, bare_read_ns),
            "%",
        ),
        m("trace.closure_pct", 100.0 * closure, "%"),
    ]
}

fn print_attribution(by: &BTreeMap<Class, Attribution>) {
    println!("# traced self time per request, us (closure: named layers / total)");
    for (class, a) in by {
        let n = a.n.max(1) as f64;
        let layers: Vec<String> = traced::LAYERS
            .iter()
            .filter_map(|l| {
                a.self_ns
                    .get(l)
                    .map(|v| format!("{l}={:.1}", *v as f64 / n / 1e3))
            })
            .collect();
        println!(
            "# {:<8} n={:<6} total={:>9.1} closure={:>5.1}% {}",
            class.name(),
            a.n,
            a.total_ns as f64 / n / 1e3,
            100.0 * a.attributed(),
            layers.join(" ")
        );
    }
}
