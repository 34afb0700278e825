//! In-process replays of a wire run's request stream.
//!
//! * [`sessions`] runs each request through `EngineSession::run` and
//!   `render_outcomes` — the server's work without the network.
//! * [`calls`] runs each retrieve through the public calls in the
//!   server's order — `parse_program`, `analyze_retrieve`,
//!   `execute_plan` over a provider that clamps to the session pin
//!   exactly as the server's snapshot provider does, `render_outcomes`
//!   — with a benchmark-side span around each; modifications go through
//!   `EngineSession::run`.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Instant;

use chronos_core::chronon::Chronon;
use chronos_core::schema::RelationClass;
use chronos_db::net::render_outcomes;
use chronos_db::{is_system, Database, Engine, ExecOutcome};
use chronos_tquel::analyze::analyze_retrieve;
use chronos_tquel::ast::Statement;
use chronos_tquel::exec::execute_plan;
use chronos_tquel::parser::parse_program;
use chronos_tquel::provider::{AsOfSpec, RelationInfo, RelationProvider, SourceRow};
use chronos_tquel::TquelResult;

use crate::classify::{classify, Class};
use crate::spans::{self_times, Span, SpanLog};
use crate::wire::{body_hash, ConnRun};
use crate::workload::RANGES;

/// One request replayed without tracing.
#[derive(Clone, Debug)]
pub struct Plain {
    /// Class.
    pub class: Class,
    /// `EngineSession::run` time.
    pub run_ns: u64,
    /// Hash of the rendered body.
    pub hash: u64,
}

fn requests(runs: &[ConnRun]) -> Vec<Vec<(Class, String)>> {
    runs.iter()
        .map(|r| {
            r.outcomes
                .iter()
                .map(|o| (o.req.class, o.req.text.clone()))
                .collect()
        })
        .collect()
}

/// Replays every connection's requests through `EngineSession::run`,
/// one thread per connection.
pub fn sessions(engine: &Arc<Engine>, runs: &[ConnRun]) -> Result<Vec<Vec<Plain>>, String> {
    let streams = requests(runs);
    std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter()
            .map(|reqs| {
                scope.spawn(move || {
                    let mut session = engine.session();
                    session.run(RANGES).map_err(|e| e.to_string())?;
                    reqs.iter()
                        .map(|(class, text)| {
                            let t0 = Instant::now();
                            session.refresh();
                            let out = session.run(text).map_err(|e| format!("{text}: {e}"))?;
                            let run_ns = t0.elapsed().as_nanos() as u64;
                            Ok(Plain {
                                class: *class,
                                run_ns,
                                hash: body_hash(&render_outcomes(&out)),
                            })
                        })
                        .collect::<Result<Vec<_>, String>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay thread panicked"))
            .collect()
    })
}

/// A provider that reads what the server's snapshot provider reads —
/// transaction-time relations clamped to the pin — and spans each scan.
struct TimedProvider<'a> {
    db: &'a Database,
    pin: Chronon,
    log: &'a RefCell<SpanLog>,
    req: u64,
    parent: Cell<Option<usize>>,
    /// Rows of each scan, in scan order.
    scanned: RefCell<Vec<u64>>,
}

/// The coordinate a pinned scan reads (the server's clamping rule).
fn clamp(
    db: &Database,
    relation: &str,
    as_of: Option<&AsOfSpec>,
    pin: Chronon,
) -> Option<AsOfSpec> {
    let clamps = !is_system(relation)
        && matches!(
            RelationProvider::info(db, relation).map(|i| i.class),
            Some(RelationClass::StaticRollback | RelationClass::Temporal)
        );
    if !clamps {
        return as_of.copied();
    }
    Some(match as_of {
        None => AsOfSpec::At(pin),
        Some(AsOfSpec::At(t)) => AsOfSpec::At((*t).min(pin)),
        Some(AsOfSpec::Through(a, b)) => AsOfSpec::Through((*a).min(pin), (*b).min(pin)),
    })
}

impl RelationProvider for TimedProvider<'_> {
    fn info(&self, relation: &str) -> Option<RelationInfo> {
        RelationProvider::info(self.db, relation)
    }

    fn scan(&self, relation: &str, as_of: Option<&AsOfSpec>) -> TquelResult<Arc<Vec<SourceRow>>> {
        let spec = clamp(self.db, relation, as_of, self.pin);
        let id = self
            .log
            .borrow_mut()
            .enter("provider.scan", self.req, self.parent.get());
        let rows = RelationProvider::scan(self.db, relation, spec.as_ref());
        self.log.borrow_mut().exit(id);
        if let Ok(r) = &rows {
            self.scanned.borrow_mut().push(r.len() as u64);
        }
        rows
    }

    fn estimated_rows(&self, relation: &str) -> Option<u64> {
        RelationProvider::estimated_rows(self.db, relation)
    }
}

/// One request of the traced replay.
#[derive(Clone, Debug)]
pub struct Traced {
    /// Class (from the parsed statement).
    pub class: Class,
    /// Wall time of the whole request.
    pub total_ns: u64,
    /// Request id, `conn << 32 | index`.
    pub req: u64,
    /// Rows returned (retrieves).
    pub rows: u64,
    /// Product of the scan sizes (retrieves).
    pub examined: u64,
    /// Rendered bytes (retrieves).
    pub bytes: u64,
    /// Hash of the rendered body (retrieves).
    pub hash: u64,
}

/// One connection's traced replay.
pub struct TraceLog {
    /// Requests in order.
    pub requests: Vec<Traced>,
    /// Every span.
    pub spans: Vec<Span>,
}

/// The root span of an uncached storage scan, timed outside requests.
pub const STORAGE_SCAN: &str = "storage.scan";

/// Parses a program of exactly one statement.
fn single(text: &str) -> Result<Statement, String> {
    let mut stmts = parse_program(text).map_err(|e| e.to_string())?;
    match stmts.len() {
        1 => Ok(stmts.remove(0)),
        n => Err(format!("{n} statements, expected one")),
    }
}

/// Span names of a request tree, in the order the report lists them.
pub const LAYERS: [&str; 8] = [
    "request",
    "tquel.parse",
    "engine.read_lock",
    "tquel.analyze",
    "tquel.exec",
    "provider.scan",
    "tquel.render",
    "session.write",
];

/// Replays every connection's requests through the public calls, one
/// thread per connection, with spans when `spans` is set (and, beside
/// each retrieve, an uncached storage scan of its coordinates); without,
/// only each request's total is timed.  `req` ids are
/// `conn << 32 | index`.
pub fn calls(engine: &Arc<Engine>, runs: &[ConnRun], spans: bool) -> Result<Vec<TraceLog>, String> {
    let streams = requests(runs);
    let epoch = Instant::now();
    std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter()
            .enumerate()
            .map(|(conn, reqs)| {
                scope.spawn(move || replay_traced(engine, conn as u64, reqs, epoch, spans))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay thread panicked"))
            .collect()
    })
}

fn replay_traced(
    engine: &Arc<Engine>,
    conn: u64,
    reqs: &[(Class, String)],
    epoch: Instant,
    spans: bool,
) -> Result<TraceLog, String> {
    let mut session = engine.session();
    session.run(RANGES).map_err(|e| e.to_string())?;
    let ranges: HashMap<String, String> = [("f", "faculty"), ("a", "staff"), ("b", "staff")]
        .into_iter()
        .map(|(v, r)| (v.to_string(), r.to_string()))
        .collect();
    let log = RefCell::new(SpanLog::new(epoch, spans));
    let mut out = Vec::with_capacity(reqs.len());
    for (i, (gen_class, text)) in reqs.iter().enumerate() {
        let req = conn << 32 | i as u64;
        let started = Instant::now();
        if gen_class.is_write() {
            // The session parses, lowers and commits a modification.
            let root = log.borrow_mut().enter("request", req, None);
            let id = log.borrow_mut().enter("session.write", req, Some(root));
            session.refresh();
            let done = session.run(text);
            log.borrow_mut().exit(id);
            log.borrow_mut().exit(root);
            let total_ns = started.elapsed().as_nanos() as u64;
            done.map_err(|e| format!("{text}: {e}"))?;
            // Cross-check the class, outside the tree.
            let class = single(text)
                .map(|s| classify(&s))
                .map_err(|e| format!("{text}: {e}"))?;
            if class != *gen_class {
                return Err(format!(
                    "{text}: classed {class:?}, generated as {gen_class:?}"
                ));
            }
            out.push(Traced {
                class,
                total_ns,
                req,
                rows: 0,
                examined: 0,
                bytes: 0,
                hash: 0,
            });
            continue;
        }
        let root = log.borrow_mut().enter("request", req, None);
        let id = log.borrow_mut().enter("tquel.parse", req, Some(root));
        let stmt = single(text);
        log.borrow_mut().exit(id);
        let stmt = stmt.map_err(|e| format!("{text}: {e}"))?;
        let class = classify(&stmt);
        let Statement::Retrieve(r) = &stmt else {
            return Err(format!(
                "{text}: generated as {gen_class:?}, not a retrieve"
            ));
        };
        if class != *gen_class {
            return Err(format!(
                "{text}: classed {class:?}, generated as {gen_class:?}"
            ));
        }
        let pin = engine
            .durable_watermark()
            .unwrap_or(Chronon::new(i64::MIN / 4));
        let lock = log.borrow_mut().enter("engine.read_lock", req, Some(root));
        let (result, examined, plan) = engine.with_db(|db| -> Result<_, String> {
            log.borrow_mut().exit(lock);
            let provider = TimedProvider {
                db,
                pin,
                log: &log,
                req,
                parent: Cell::new(None),
                scanned: RefCell::new(Vec::new()),
            };
            let id = log.borrow_mut().enter("tquel.analyze", req, Some(root));
            let plan = analyze_retrieve(r, &ranges, &provider);
            log.borrow_mut().exit(id);
            let plan = plan.map_err(|e| format!("{text}: {e}"))?;
            let id = log.borrow_mut().enter("tquel.exec", req, Some(root));
            provider.parent.set(Some(id));
            let result = execute_plan(&plan, &provider);
            log.borrow_mut().exit(id);
            let examined = provider.scanned.borrow().iter().product::<u64>();
            Ok((result.map_err(|e| format!("{text}: {e}"))?, examined, plan))
        })?;
        let rows = result.len() as u64;
        let id = log.borrow_mut().enter("tquel.render", req, Some(root));
        let body = render_outcomes(&[ExecOutcome::Retrieved(result)]);
        log.borrow_mut().exit(id);
        log.borrow_mut().exit(root);
        let total_ns = started.elapsed().as_nanos() as u64;
        // Outside the request: the same coordinates read straight from
        // storage, bypassing the query cache.
        if spans {
            engine.with_db(|db| {
                for v in &plan.vars {
                    let spec = clamp(db, &v.relation, plan.as_of.as_ref(), pin);
                    let rel = db.relation(&v.relation).expect("analyzed relation exists");
                    let id = log.borrow_mut().enter(STORAGE_SCAN, req, None);
                    let scanned = rel.scan(spec.as_ref());
                    log.borrow_mut().exit(id);
                    std::hint::black_box(scanned.map(|r| r.len()).unwrap_or(0));
                }
            });
        }
        out.push(Traced {
            class,
            total_ns,
            req,
            rows,
            examined,
            bytes: body.len() as u64,
            hash: body_hash(&body),
        });
    }
    Ok(TraceLog {
        requests: out,
        spans: log.into_inner().into_spans(),
    })
}

/// Per-class attribution of a traced replay.
#[derive(Clone, Debug, Default)]
pub struct Attribution {
    /// Requests.
    pub n: u64,
    /// Sum of request (root span) durations.
    pub total_ns: u64,
    /// Sum of self time per span name (`request` is the unattributed
    /// glue between layer calls).
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Uncached storage scans timed beside the requests.
    pub storage_scans: u64,
    /// Sum of their durations.
    pub storage_scan_ns: u64,
}

impl Attribution {
    /// Share of the request total that named layers account for.
    pub fn attributed(&self) -> f64 {
        let glue = self.self_ns.get("request").copied().unwrap_or(0);
        if self.total_ns == 0 {
            return 1.0;
        }
        1.0 - glue as f64 / self.total_ns as f64
    }

    /// Sum of every span's self time, the glue included.
    pub fn self_sum(&self) -> u64 {
        self.self_ns.values().sum()
    }
}

/// Groups self times by class.
pub fn attribute(logs: &[TraceLog]) -> BTreeMap<Class, Attribution> {
    let mut by: BTreeMap<Class, Attribution> = BTreeMap::new();
    for log in logs {
        let class_of: HashMap<u64, Class> = log.requests.iter().map(|t| (t.req, t.class)).collect();
        let st = self_times(&log.spans);
        for (s, self_ns) in log.spans.iter().zip(st) {
            let a = by.entry(class_of[&s.req]).or_default();
            match (s.name, s.parent) {
                (STORAGE_SCAN, _) => {
                    a.storage_scans += 1;
                    a.storage_scan_ns += s.dur_ns();
                    continue;
                }
                (_, None) => {
                    a.n += 1;
                    a.total_ns += s.dur_ns();
                }
                _ => {}
            }
            *a.self_ns.entry(s.name).or_default() += self_ns;
        }
    }
    by
}
