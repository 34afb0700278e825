//! Set-up: a fresh database directory, the default engine, the seeded
//! history, one checkpoint, and the TCP query service on loopback —
//! what `chronos --serve` runs, with a manual clock for deterministic
//! commit times and no tuning knob touched.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use chronos_core::chronon::Chronon;
use chronos_core::clock::ManualClock;
use chronos_db::{Database, Engine, ExecOutcome, QueryServer};
use chronos_obs::metrics::MetricsSnapshot;

use crate::workload::{History, CREATE, CREATE_DAY, RANGES};

/// A running database with its service.
pub struct Live {
    /// The database directory.
    pub dir: PathBuf,
    /// The engine.
    pub engine: Arc<Engine>,
    /// The TCP service.
    pub server: QueryServer,
}

/// What set-up cost.
#[derive(Clone, Debug, Default)]
pub struct SetupCost {
    /// Wall time of the whole set-up.
    pub total_s: f64,
    /// Wall time of the checkpoint.
    pub checkpoint_s: f64,
    /// `EngineSession::run` time of each `staff` modification.
    pub staff_write_ns: Vec<u64>,
    /// Engine counters right after the `staff` modifications, which
    /// are the engine's first commits.
    pub staff_stats: MetricsSnapshot,
    /// WAL bytes the set-up wrote before the checkpoint truncated it.
    pub wal_bytes: u64,
}

fn err(what: &str, e: impl std::fmt::Display) -> String {
    format!("{what}: {e}")
}

/// Builds the seeded database in `dir` (which must not exist yet).
pub fn build(h: &History, dir: &Path) -> Result<(Live, SetupCost), String> {
    let started = Instant::now();
    let clock = Arc::new(ManualClock::new(Chronon::new(CREATE_DAY)));
    let db = Database::open(dir, clock.clone()).map_err(|e| err("open", e))?;
    let engine = Engine::start(db);
    let mut cost = SetupCost::default();
    {
        let mut session = engine.session();
        session.run(CREATE).map_err(|e| err("create", e))?;
        session.run(RANGES).map_err(|e| err("ranges", e))?;
        for s in &h.staff {
            clock.advance_to(s.day);
            let t = Instant::now();
            let out = session.run(&s.text).map_err(|e| err(&s.text, e))?;
            cost.staff_write_ns.push(t.elapsed().as_nanos() as u64);
            match out.as_slice() {
                [ExecOutcome::Appended(t)] if *t == s.day => {}
                [ExecOutcome::Replaced(1)] => {}
                other => return Err(format!("{}: unexpected outcome {other:?}", s.text)),
            }
        }
    }
    cost.staff_stats = engine.stats().metrics;
    for tx in &h.faculty {
        clock.advance_to(tx.tx_time);
        let t = engine
            .commit("faculty", &tx.ops)
            .map_err(|e| err("commit", e))?;
        if t != tx.tx_time {
            return Err(format!("commit landed at {t}, expected {}", tx.tx_time));
        }
    }
    cost.wal_bytes = file_len(&dir.join("wal"));
    let checkpoint = Instant::now();
    engine.checkpoint().map_err(|e| err("checkpoint", e))?;
    cost.checkpoint_s = checkpoint.elapsed().as_secs_f64();
    let server =
        QueryServer::serve(Arc::clone(&engine), "127.0.0.1:0").map_err(|e| err("serve", e))?;
    cost.total_s = started.elapsed().as_secs_f64();
    Ok((
        Live {
            dir: dir.to_path_buf(),
            engine,
            server,
        },
        cost,
    ))
}

impl Live {
    /// Stops the service and the engine and waits for their threads;
    /// the directory stays.
    pub fn stop(self) -> PathBuf {
        self.server.shutdown();
        self.engine.shutdown();
        self.dir
    }
}

/// The host's steal time so far, in clock ticks summed over every CPU:
/// time this machine's CPUs were runnable but given to other guests.
/// `None` where `/proc/stat` has no steal column.
pub fn steal_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let cpu = stat.lines().next()?.strip_prefix("cpu ")?;
    cpu.split_whitespace().nth(7)?.parse().ok()
}

/// Counts the host's steal time over an interval.
pub struct StealMeter {
    at: Instant,
    ticks: Option<u64>,
}

impl StealMeter {
    /// Starts counting now.
    pub fn start() -> StealMeter {
        StealMeter {
            at: Instant::now(),
            ticks: steal_ticks(),
        }
    }

    /// Steal ticks per second since [`start`](Self::start); `None`
    /// where the host does not report steal time.
    pub fn per_s(&self) -> Option<f64> {
        let (from, to) = (self.ticks?, steal_ticks()?);
        Some(to.saturating_sub(from) as f64 / self.at.elapsed().as_secs_f64())
    }
}

/// Length of a file, 0 when absent.
pub fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map(|m| m.len()).unwrap_or(0)
}

/// Bytes of every file under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(_) => e.metadata().map(|m| m.len()).unwrap_or(0),
            Err(_) => 0,
        })
        .sum()
}
