//! Answer checking: every response against the oracle or the
//! connection's own writes, and every acknowledged write after reopen.

use std::collections::{HashMap, HashSet};

use chronos_core::chronon::Chronon;
use chronos_db::Database;
use chronos_tquel::provider::AsOfSpec;

use crate::oracle::{name_rank_pairs, parse_table, Oracle};
use crate::stats::ErrorCount;
use crate::wire::ConnRun;
use crate::workload::{affected_rows, Check};

/// Tally plus the first few problems, for the report.
#[derive(Default)]
pub struct Verdict {
    /// Attempted, failed and wrong.
    pub errors: ErrorCount,
    /// Up to [`MAX_NOTES`] descriptions.
    pub notes: Vec<String>,
}

const MAX_NOTES: usize = 5;

impl Verdict {
    fn note(&mut self, msg: String) {
        if self.notes.len() < MAX_NOTES {
            self.notes.push(msg);
        }
    }

    /// Counts one wrong answer.
    pub fn wrong(&mut self, msg: String) {
        self.errors.wrong += 1;
        self.note(msg);
    }

    /// Merges another verdict.
    pub fn absorb(&mut self, other: Verdict) {
        self.errors.add(other.errors);
        for n in other.notes {
            self.note(n);
        }
    }
}

/// Checks every response of a run.  `last` is the set-up's last commit
/// (what untouched keys read as).
pub fn responses(runs: &[ConnRun], oracle: &Oracle, last: Chronon) -> Verdict {
    let mut v = Verdict::default();
    for run in runs {
        if run.outcomes.is_empty() {
            v.errors.attempted += 1;
            v.errors.failed += 1;
            v.note(run.broken.clone().unwrap_or_else(|| "no requests".into()));
        }
        // text → (hash of the first answer, whether it was right)
        let mut verified: HashMap<&str, (u64, bool)> = HashMap::new();
        for o in &run.outcomes {
            v.errors.attempted += 1;
            if !o.ok {
                v.errors.failed += 1;
                let why = o.body.clone().or_else(|| run.broken.clone());
                v.note(format!(
                    "{}: failed: {}",
                    o.req.text,
                    why.unwrap_or_default()
                ));
                continue;
            }
            let body = o.body.as_deref();
            match &o.req.check {
                Check::Oracle(q) => {
                    let (hash, right) = *verified.entry(&o.req.text).or_insert_with(|| {
                        let body = body.expect("first answer to a text is kept");
                        match oracle.check(q, body) {
                            Ok(()) => (o.hash, true),
                            Err(e) => {
                                v.note(format!("{}: {e}", o.req.text));
                                (o.hash, false)
                            }
                        }
                    });
                    if !right {
                        v.errors.wrong += 1;
                    } else if hash != o.hash {
                        v.wrong(format!("{}: answer changed between repeats", o.req.text));
                    }
                }
                Check::Appended { .. } | Check::Replaced { .. } => {
                    if body.and_then(affected_rows).is_none() {
                        v.wrong(format!("{}: unexpected reply {body:?}", o.req.text));
                    }
                }
                Check::OwnWrite { key, rank } => match name_rank_pairs(body.unwrap_or("")) {
                    Ok(pairs) if pairs.iter().any(|(k, r)| k == key && r == rank) => {}
                    other => v.wrong(format!(
                        "{}: own write ({key}, {rank}) not visible: {other:?}",
                        o.req.text
                    )),
                },
                Check::Untouched { key } => {
                    let want = oracle.current_rows(key, last);
                    match parse_table(body.unwrap_or("")) {
                        Ok(t) => {
                            let mut got = t.rows;
                            got.sort();
                            if got != want {
                                v.wrong(format!("{}: {got:?}, expected {want:?}", o.req.text));
                            }
                        }
                        Err(e) => v.wrong(format!("{}: {e}", o.req.text)),
                    }
                }
            }
        }
    }
    v
}

/// Checks that every acknowledged append and replace of `runs` is in
/// the reopened database's transaction-time history.
pub fn durable(db: &Database, runs: &[ConnRun]) -> Verdict {
    let mut v = Verdict::default();
    let everything = AsOfSpec::Through(Chronon::new(0), Chronon::new(1_000_000_000));
    let stored: HashSet<(String, String)> =
        match db.relation("faculty").map(|r| r.scan(Some(&everything))) {
            Some(Ok(rows)) => rows
                .into_iter()
                .map(|r| (r.tuple.get(0).to_string(), r.tuple.get(1).to_string()))
                .collect(),
            other => {
                v.wrong(format!(
                    "reopened faculty unreadable: {:?}",
                    other.map(|r| r.err())
                ));
                return v;
            }
        };
    for o in runs.iter().flat_map(|r| &r.outcomes) {
        let (Check::Appended { key, rank } | Check::Replaced { key, rank }) = &o.req.check else {
            continue;
        };
        if !o.ok || o.body.as_deref().and_then(affected_rows).unwrap_or(0) == 0 {
            continue;
        }
        if !stored.contains(&(key.clone(), rank.clone())) {
            v.wrong(format!(
                "acknowledged write lost after reopen: {}",
                o.req.text
            ));
        }
    }
    v
}
