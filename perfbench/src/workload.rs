//! The seeded history and the three request streams.
//!
//! Everything here is a pure function of the seed: the program under
//! test sees only the generated TQuel text and the set-up's
//! `HistoricalOp` batches.

use std::collections::HashMap;

use chronos_bench::workload::{generate, GeneratedTx, WorkloadSpec};
use chronos_core::calendar::Date;
use chronos_core::chronon::Chronon;
use chronos_core::period::Period;
use chronos_core::relation::{HistoricalOp, RowSelector, Validity};
use chronos_core::tuple::tuple;

use crate::classify::Class;
use crate::oracle::{Oracle, Query};

/// Entities of the seeded `faculty` history.
pub const ENTITIES: usize = 1_000;
/// Transactions of the seeded `faculty` history.
pub const TRANSACTIONS: usize = 3_000;
/// Entities of the small `staff` relation the joins range over.  The
/// evaluator enumerates the whole product, so this sets a join's cost:
/// about twice a wide retrieve's, which keeps the pooled median read
/// on `report` inside the wide retrieves (the middle class by cost)
/// rather than where they meet the joins.
pub const STAFF_ENTITIES: usize = 44;
/// Rank changes per `staff` entity after its first fact.
const STAFF_CHANGES: usize = 3;
/// Report dates on `report`.
pub const REPORT_DATES: usize = 4;
/// Rows the wide `report` retrieve returns at each report date (about
/// 30 KB of reply).  Fixing the rows rather than the dates makes a wide
/// retrieve cost the same on every seed, and keeping the four close
/// keeps the median of the wide retrieves, which is the pooled median
/// read, from jumping between their costs.
const REPORT_ROWS: [usize; REPORT_DATES] = [1_000, 1_040, 1_080, 1_120];

/// Range declarations every connection makes once, before its stream.
pub const RANGES: &str = "range of f is faculty range of a is staff range of b is staff";

/// DDL run at the start of set-up.
pub const CREATE: &str = "create faculty (name = str, rank = str) as temporal \
                          create staff (name = str, rank = str) as temporal";

/// Transaction time of the DDL; the `staff` statements follow it.
pub const CREATE_DAY: i64 = 50;

const RANKS: [&str; 4] = ["assistant", "associate", "full", "emeritus"];

/// A small, fast, seedable generator (SplitMix64).
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated by `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next();
        r
    }

    /// The next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// Uniform in `lo..=hi`.
    pub fn between(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo + 1) as u64) as i64
    }
}

/// One `staff` statement of the set-up, with the operations the
/// reference store applies for it.
pub struct StaffStmt {
    /// Commit day.
    pub day: Chronon,
    /// TQuel text.
    pub text: String,
    /// The same change as reference-store operations.
    pub ops: Vec<HistoricalOp>,
}

/// The seeded database content.
pub struct History {
    /// `faculty` transactions, committed with `Engine::commit`.
    pub faculty: Vec<GeneratedTx>,
    /// `staff` statements, run through a session.
    pub staff: Vec<StaffStmt>,
    /// First and last `faculty` commit.
    pub first: Chronon,
    /// Last commit of the set-up (the pin of every later read).
    pub last: Chronon,
    /// The four `report` coordinates.
    pub report_dates: [Chronon; REPORT_DATES],
    /// Reference store over the whole set-up.
    pub oracle: Oracle,
}

/// Formats a chronon as a TQuel date literal.
fn lit(c: Chronon) -> String {
    format!("\"{}\"", Date::from_chronon(c))
}

/// The name of seeded entity `i`, as `chronos-bench` generates it.
fn entity(i: u64) -> String {
    format!("prof{i:05}")
}

fn staff_name(i: usize) -> String {
    format!("staff{i:03}")
}

impl History {
    /// Generates the history for `seed`.
    pub fn generate(seed: u64) -> History {
        let faculty = generate(&WorkloadSpec {
            entities: ENTITIES,
            transactions: TRANSACTIONS,
            ops_per_tx: 2,
            correction_pct: 25,
            seed,
        })
        .transactions;
        let mut rng = Rng::new(seed, 0x57AF);
        let mut oracle = Oracle::new();
        // Staff: one fact per entity, then rank changes at increasing
        // valid dates, each a `replace ... valid from d to forever`,
        // committed on consecutive days well before the faculty history.
        let mut staff = Vec::new();
        let mut day = CREATE_DAY + 1;
        let mut open: Vec<(usize, Chronon)> = Vec::new();
        for i in 0..STAFF_ENTITIES {
            let name = staff_name(i);
            let r = rng.below(4) as usize;
            let rank = RANKS[r];
            let from = Chronon::new(rng.between(100, 400));
            staff.push(StaffStmt {
                day: Chronon::new(day),
                text: format!(
                    "append to staff (name = \"{name}\", rank = \"{rank}\") valid from {} to forever",
                    lit(from)
                ),
                ops: vec![HistoricalOp::insert(
                    tuple([name.as_str(), rank]),
                    Validity::Interval(Period::from_start(from)),
                )],
            });
            day += 1;
            open.push((r, from));
        }
        for _ in 0..STAFF_CHANGES {
            for (i, (r, from)) in open.iter_mut().enumerate() {
                let name = staff_name(i);
                let (rank, new_r) = (RANKS[*r], (*r + 1 + rng.below(3) as usize) % 4);
                let new_rank = RANKS[new_r];
                let new_from = *from + rng.between(30, 200);
                let old = RowSelector::exact(
                    tuple([name.as_str(), rank]),
                    Validity::Interval(Period::from_start(*from)),
                );
                let mut ops = vec![HistoricalOp::set_validity(
                    old,
                    Validity::Interval(Period::clamped(*from, new_from)),
                )];
                ops.push(HistoricalOp::insert(
                    tuple([name.as_str(), new_rank]),
                    Validity::Interval(Period::from_start(new_from)),
                ));
                staff.push(StaffStmt {
                    day: Chronon::new(day),
                    text: format!(
                        "replace a (rank = \"{new_rank}\") valid from {} to forever \
                         where a.name = \"{name}\"",
                        lit(new_from)
                    ),
                    ops,
                });
                day += 1;
                *r = new_r;
                *from = new_from;
            }
        }
        for s in &staff {
            oracle.commit_staff(s.day, &s.ops);
        }
        for tx in &faculty {
            oracle.commit_faculty(tx.tx_time, &tx.ops);
        }
        oracle.seal();
        let first = faculty.first().expect("non-empty history").tx_time;
        let last = faculty.last().expect("non-empty history").tx_time;
        assert!(
            staff.last().expect("staff statements").day < first,
            "staff commits precede the faculty history"
        );
        let report_dates = REPORT_ROWS.map(|rows| {
            // The first day whose wide retrieve returns `rows` rows (the
            // count grows with the history).
            let days = first.ticks()..last.ticks();
            let wide = |day: i64| {
                oracle
                    .expect(&Query::Wide {
                        at: Chronon::new(day),
                    })
                    .1
                    .len()
            };
            let n = days
                .clone()
                .collect::<Vec<_>>()
                .partition_point(|&d| wide(d) < rows);
            Chronon::new(days.start + n as i64)
        });
        History {
            faculty,
            staff,
            first,
            last,
            report_dates,
            oracle,
        }
    }

    fn any_date(&self, rng: &mut Rng) -> Chronon {
        Chronon::new(rng.between(self.first.ticks(), self.last.ticks()))
    }
}

/// The three workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Point reads: current, `as of`, `when`.  No writes.
    Lookup,
    /// Wide `as of` reports, `count` with `when`, two-variable joins.
    Report,
    /// Appends, replaces and current reads.
    Ingest,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        match s {
            "lookup" => Some(Workload::Lookup),
            "report" => Some(Workload::Report),
            "ingest" => Some(Workload::Ingest),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Lookup => "lookup",
            Workload::Report => "report",
            Workload::Ingest => "ingest",
        }
    }
}

/// How a response is checked.
#[derive(Clone, Debug)]
pub enum Check {
    /// Against the oracle.
    Oracle(Query),
    /// An acknowledged `append` of `(key, rank)`.
    Appended { key: String, rank: String },
    /// An acknowledged `replace` of `key` by a fact with `rank`.
    Replaced { key: String, rank: String },
    /// A current read of a key this connection wrote last with `rank`.
    OwnWrite { key: String, rank: String },
    /// A current read of a key nobody has written since set-up.
    Untouched { key: String },
}

/// One request of a stream.
#[derive(Clone, Debug)]
pub struct Request {
    /// The class the generator built it as.
    pub class: Class,
    /// TQuel program text.
    pub text: String,
    /// How to check its response.
    pub check: Check,
}

/// One connection's deterministic request stream.
pub struct Stream<'h> {
    workload: Workload,
    conn: u64,
    rng: Rng,
    history: &'h History,
    /// `ingest`: keys this connection wrote, with the last rank it wrote.
    own: HashMap<String, String>,
    own_keys: Vec<String>,
    writes: u64,
}

impl<'h> Stream<'h> {
    /// Connection `conn`'s stream for `seed`.
    pub fn new(workload: Workload, seed: u64, conn: u64, history: &'h History) -> Stream<'h> {
        Stream {
            workload,
            conn,
            rng: Rng::new(seed, 0xC0DE + conn),
            history,
            own: HashMap::new(),
            own_keys: Vec::new(),
            writes: 0,
        }
    }

    /// The next request.  On `ingest`, call [`observe`](Self::observe)
    /// with each write's outcome before asking for the next request.
    pub fn next_request(&mut self) -> Request {
        match self.workload {
            Workload::Lookup => self.lookup(),
            Workload::Report => self.report(),
            Workload::Ingest => self.ingest(),
        }
    }

    fn point(&self, key: String, at: Option<Chronon>, when: Option<Chronon>) -> Request {
        let mut text = format!("retrieve (f.name, f.rank) where f.name = \"{key}\"");
        if let Some(d) = when {
            text.push_str(&format!(" when f overlap {}", lit(d)));
        }
        if let Some(t) = at {
            text.push_str(&format!(" as of {}", lit(t)));
        }
        let class = match (at, when) {
            (_, Some(_)) => Class::When,
            (Some(_), None) => Class::AsOf,
            (None, None) => Class::Current,
        };
        Request {
            class,
            text,
            check: Check::Oracle(Query::Point {
                key,
                at: at.unwrap_or(self.history.last),
                when,
            }),
        }
    }

    fn lookup(&mut self) -> Request {
        let key = entity(self.rng.below(ENTITIES as u64));
        match self.rng.below(10) {
            0..=5 => self.point(key, None, None),
            6..=8 => {
                let at = self.history.any_date(&mut self.rng);
                self.point(key, Some(at), None)
            }
            _ => {
                let d = self.history.any_date(&mut self.rng);
                self.point(key, None, Some(d))
            }
        }
    }

    fn report(&mut self) -> Request {
        let h = self.history;
        let at = h.report_dates[self.rng.below(REPORT_DATES as u64) as usize];
        match self.rng.below(10) {
            0..=3 => Request {
                class: Class::AsOf,
                text: format!("retrieve (f.name, f.rank) as of {}", lit(at)),
                check: Check::Oracle(Query::Wide { at }),
            },
            4..=6 => {
                let when = Chronon::new(self.rng.between(h.first.ticks(), at.ticks()));
                Request {
                    class: Class::When,
                    text: format!(
                        "retrieve (n = count(f.name)) when f overlap {} as of {}",
                        lit(when),
                        lit(at)
                    ),
                    check: Check::Oracle(Query::Count { when, at }),
                }
            }
            _ => {
                let x = staff_name(self.rng.below(STAFF_ENTITIES as u64) as usize);
                let y = staff_name(self.rng.below(STAFF_ENTITIES as u64) as usize);
                Request {
                    class: Class::Join,
                    text: format!(
                        "retrieve (n1 = a.name, r1 = a.rank, n2 = b.name, r2 = b.rank) \
                         where a.name = \"{x}\" and b.name = \"{y}\" \
                         when a overlap start of b as of {}",
                        lit(at)
                    ),
                    check: Check::Oracle(Query::Join { x, y, at }),
                }
            }
        }
    }

    /// A seeded entity of this connection's half of the key space.
    fn seeded_key(&mut self) -> String {
        let half = ENTITIES as u64 / 2;
        entity(self.rng.below(half) * 2 + self.conn)
    }

    fn ingest(&mut self) -> Request {
        let roll = self.rng.below(10);
        if roll >= 7 {
            let own = !self.own_keys.is_empty() && self.rng.below(2) == 0;
            let key = if own {
                self.own_key()
            } else {
                self.seeded_key()
            };
            let check = match self.own.get(&key) {
                Some(rank) => Check::OwnWrite {
                    key: key.clone(),
                    rank: rank.clone(),
                },
                None => Check::Untouched { key: key.clone() },
            };
            return Request {
                class: Class::Current,
                text: format!("retrieve (f.name, f.rank) where f.name = \"{key}\""),
                check,
            };
        }
        self.writes += 1;
        let rank = format!("c{}w{}", self.conn, self.writes);
        if roll < 5 {
            let key = format!("new{}x{:06}", self.conn, self.writes);
            return Request {
                class: Class::Append,
                text: format!("append to faculty (name = \"{key}\", rank = \"{rank}\")"),
                check: Check::Appended { key, rank },
            };
        }
        let key = if !self.own_keys.is_empty() && self.rng.below(2) == 0 {
            self.own_key()
        } else {
            self.seeded_key()
        };
        let valid = if self.rng.below(2) == 0 {
            // Retroactive: from a date in the later half of the seeded
            // history.
            let h = self.history;
            let mid = (h.first.ticks() + h.last.ticks()) / 2;
            let from = Chronon::new(self.rng.between(mid, h.last.ticks()));
            format!(" valid from {} to forever", lit(from))
        } else {
            String::new()
        };
        Request {
            class: Class::Replace,
            text: format!("replace f (rank = \"{rank}\"){valid} where f.name = \"{key}\""),
            check: Check::Replaced { key, rank },
        }
    }

    fn own_key(&mut self) -> String {
        self.own_keys[self.rng.below(self.own_keys.len() as u64) as usize].clone()
    }

    /// Records a write's outcome: `affected` rows (1 for an append).
    /// Keys a write changed become read-your-own-writes targets; a
    /// replace that matched nothing committed nothing.
    pub fn observe(&mut self, req: &Request, affected: usize) {
        let (Check::Appended { key, rank } | Check::Replaced { key, rank }) = &req.check else {
            return;
        };
        if affected == 0 {
            return;
        }
        if self.own.insert(key.clone(), rank.clone()).is_none() {
            self.own_keys.push(key.clone());
        }
    }
}

/// Rows a modification response reports: `appended ...` counts 1,
/// `replaced N row(s)` counts N.
pub fn affected_rows(body: &str) -> Option<usize> {
    let line = body.lines().next()?;
    if line.starts_with("appended") {
        return Some(1);
    }
    line.strip_prefix("replaced ")?
        .split(' ')
        .next()?
        .parse()
        .ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_for_a_seed() {
        let h = History::generate(7);
        for w in [Workload::Lookup, Workload::Report] {
            let mut a = Stream::new(w, 7, 0, &h);
            let mut b = Stream::new(w, 7, 0, &h);
            let mut c = Stream::new(w, 7, 1, &h);
            let xs: Vec<String> = (0..50).map(|_| a.next_request().text).collect();
            let ys: Vec<String> = (0..50).map(|_| b.next_request().text).collect();
            let zs: Vec<String> = (0..50).map(|_| c.next_request().text).collect();
            assert_eq!(xs, ys);
            assert_ne!(xs, zs);
        }
    }

    #[test]
    fn report_dates_return_their_row_counts() {
        for seed in [1, 2] {
            let h = History::generate(seed);
            let wide = |at| h.oracle.expect(&Query::Wide { at }).1.len();
            for (at, rows) in h.report_dates.into_iter().zip(REPORT_ROWS) {
                assert!(h.first < at && at < h.last);
                assert!(wide(at) >= rows && wide(at) < rows + 20, "{}", wide(at));
            }
        }
    }

    #[test]
    fn affected_rows_reads_modification_outcomes() {
        assert_eq!(
            affected_rows("appended (transaction time 01/01/80)\n"),
            Some(1)
        );
        assert_eq!(affected_rows("replaced 3 row(s)\n"), Some(3));
        assert_eq!(affected_rows("replaced 0 row(s)\n"), Some(0));
        assert_eq!(affected_rows("deleted 1 row(s)\n"), None);
    }
}
