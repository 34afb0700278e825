//! The measured run: a closed loop over the TCP service.
//!
//! Each connection sends its next request as soon as the previous
//! reply arrives (zero think time): the protocol is blocking
//! request/response per connection, so callers wait for replies and a
//! closed loop is the honest model.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use std::sync::Arc;

use chronos_db::net::render_outcomes;
use chronos_db::{Engine, QueryClient};

use crate::workload::{affected_rows, Check, History, Request, Stream, Workload, RANGES};

/// Connections of the closed loop.
pub const CONNECTIONS: u64 = 2;
/// Requests each connection sends before timing starts (cache fill).
pub const WARMUP: usize = 40;
/// `ingest` grows the relation it reads, so its cost depends on how
/// many writes came before: each connection sends a fixed number of
/// requests, this many per second of `--seconds` (about the rate a
/// 2-core host sustains), so every run of a seed issues the same
/// operations.
pub const INGEST_PER_CONN_S: f64 = 280.0;
/// A fixed-work run that has not finished after this many times
/// `--seconds` stops where it is.
const FIXED_WORK_CAP: f64 = 6.0;

/// What one request did.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// The request.
    pub req: Request,
    /// Wire latency.
    pub lat_ns: u64,
    /// Sent after warm-up.
    pub timed: bool,
    /// When the reply arrived.
    pub done: Instant,
    /// Answered with status ok.
    pub ok: bool,
    /// Hash of the response body.
    pub hash: u64,
    /// The body, kept where the answer check needs it: the first
    /// response to each distinct oracle-checked text, and every
    /// response on `ingest`.
    pub body: Option<String>,
}

/// One connection's run.
#[derive(Default)]
pub struct ConnRun {
    /// Every request, warm-up first.
    pub outcomes: Vec<Outcome>,
    /// When timing started.
    pub start: Option<Instant>,
    /// When the last timed reply arrived.
    pub end: Option<Instant>,
    /// A transport error that ended the connection early.
    pub broken: Option<String>,
}

/// Hash of a response body.
pub fn body_hash(body: &str) -> u64 {
    let mut h = DefaultHasher::new();
    body.hash(&mut h);
    h.finish()
}

/// How often the run samples the process's resident set.
const RSS_SAMPLE: Duration = Duration::from_millis(20);

/// The process's resident set, in kB (0 where `/proc` is unavailable).
fn rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmRSS:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// Runs every connection's stream after warm-up: for `seconds`, or on
/// `ingest` for a fixed number of requests.  Also returns the highest
/// resident set sampled meanwhile, in MB.
pub fn run(
    addr: SocketAddr,
    workload: Workload,
    seed: u64,
    history: &History,
    seconds: f64,
) -> (Vec<ConnRun>, f64) {
    let barrier = Barrier::new(CONNECTIONS as usize);
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let mut peak = rss_kb();
            while !done.load(Ordering::Relaxed) {
                std::thread::sleep(RSS_SAMPLE);
                peak = peak.max(rss_kb());
            }
            peak as f64 / 1024.0
        });
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|conn| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut stream = Stream::new(workload, seed, conn, history);
                    let budget = (workload == Workload::Ingest)
                        .then(|| (seconds * INGEST_PER_CONN_S).round() as usize);
                    connection(addr, &mut stream, barrier, seconds, budget)
                })
            })
            .collect();
        let runs = handles
            .into_iter()
            .map(|h| h.join().expect("connection thread panicked"))
            .collect();
        done.store(true, Ordering::Relaxed);
        (runs, sampler.join().expect("sampler thread panicked"))
    })
}

fn connection(
    addr: SocketAddr,
    stream: &mut Stream,
    barrier: &Barrier,
    seconds: f64,
    budget: Option<usize>,
) -> ConnRun {
    let mut out = ConnRun::default();
    let mut client = match QueryClient::connect(&addr.to_string()) {
        Ok(c) => c,
        Err(e) => {
            out.broken = Some(format!("connect: {e}"));
            barrier.wait();
            return out;
        }
    };
    match client.execute(RANGES) {
        Ok(r) if r.ok => {}
        other => {
            out.broken = Some(format!("range declarations: {other:?}"));
            barrier.wait();
            return out;
        }
    }
    let mut seen: HashSet<String> = HashSet::new();
    let mut send = |client: &mut QueryClient, timed: bool, out: &mut ConnRun| -> bool {
        let req = stream.next_request();
        let t0 = Instant::now();
        let resp = client.execute(&req.text);
        let lat_ns = t0.elapsed().as_nanos() as u64;
        let resp = match resp {
            Ok(r) => r,
            Err(e) => {
                out.broken = Some(format!("{}: {e}", req.text));
                out.outcomes.push(Outcome {
                    req,
                    lat_ns,
                    timed,
                    done: Instant::now(),
                    ok: false,
                    hash: 0,
                    body: None,
                });
                return false;
            }
        };
        if req.class.is_write() && resp.ok {
            stream.observe(&req, affected_rows(&resp.body).unwrap_or(0));
        }
        let keep = match &req.check {
            Check::Oracle(_) => seen.insert(req.text.clone()),
            _ => true,
        };
        out.outcomes.push(Outcome {
            lat_ns,
            timed,
            done: t0 + Duration::from_nanos(lat_ns),
            ok: resp.ok,
            hash: body_hash(&resp.body),
            body: keep.then_some(resp.body),
            req,
        });
        true
    };
    let mut alive = true;
    for _ in 0..WARMUP {
        alive = alive && send(&mut client, false, &mut out);
    }
    barrier.wait();
    let start = Instant::now();
    let cap = if budget.is_some() {
        FIXED_WORK_CAP
    } else {
        1.0
    };
    let deadline = start + Duration::from_secs_f64(seconds * cap);
    out.start = Some(start);
    let mut sent = 0;
    while alive && Instant::now() < deadline && budget.is_none_or(|b| sent < b) {
        alive = send(&mut client, true, &mut out);
        sent += 1;
        out.end = Some(Instant::now());
    }
    out
}

/// Round trips of `n` pings on a fresh connection.
pub fn ping_rtt_ns(addr: SocketAddr, n: usize) -> Result<Vec<u64>, String> {
    let mut client = QueryClient::connect(&addr.to_string()).map_err(|e| e.to_string())?;
    (0..n)
        .map(|_| {
            let t0 = Instant::now();
            match client.ping() {
                Ok(true) => Ok(t0.elapsed().as_nanos() as u64),
                other => Err(format!("ping: {other:?}")),
            }
        })
        .collect()
}

/// Network and service-loop cost per read: its wire latency minus the
/// in-process `EngineSession::run` + `render_outcomes` of the same
/// statement, paired on one otherwise idle connection.  Each statement
/// runs once in-process first, so both sides read a warm cache.
pub fn net_self_ns(
    addr: SocketAddr,
    engine: &Arc<Engine>,
    runs: &[ConnRun],
    n: usize,
) -> Result<Vec<f64>, String> {
    let mut client = QueryClient::connect(&addr.to_string()).map_err(|e| e.to_string())?;
    client.execute(RANGES).map_err(|e| e.to_string())?;
    let mut session = engine.session();
    session.run(RANGES).map_err(|e| e.to_string())?;
    let mut local = |text: &str| -> Result<u64, String> {
        let t0 = Instant::now();
        session.refresh();
        let out = session.run(text).map_err(|e| format!("{text}: {e}"))?;
        std::hint::black_box(render_outcomes(&out));
        Ok(t0.elapsed().as_nanos() as u64)
    };
    let reads = runs
        .iter()
        .flat_map(|r| &r.outcomes)
        .filter(|o| o.req.class.is_read())
        .take(n);
    let mut out = Vec::with_capacity(n);
    for o in reads {
        let text = o.req.text.as_str();
        local(text)?;
        let t0 = Instant::now();
        let resp = client.execute(text).map_err(|e| format!("{text}: {e}"))?;
        let wire = t0.elapsed().as_nanos() as u64;
        if !resp.ok {
            return Err(format!("{text}: {}", resp.body));
        }
        out.push(wire as f64 - local(text)? as f64);
    }
    Ok(out)
}
