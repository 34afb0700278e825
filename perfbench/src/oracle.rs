//! Expected answers, derived from the seeded history alone.
//!
//! The oracle replays the set-up's operations into `chronos-core`'s
//! reference bitemporal store ([`BitemporalTable`], the store the
//! repository's differential tests trust) and answers each benchmark
//! query shape by direct filtering.  Responses are parsed from the wire
//! text and compared as sorted rows of cells, so the check depends on
//! neither the engine's storage nor its evaluator.

use std::collections::HashMap;

use chronos_core::chronon::Chronon;
use chronos_core::period::Period;
use chronos_core::relation::temporal::{BitemporalRow, BitemporalTable, TemporalStore};
use chronos_core::relation::HistoricalOp;
use chronos_core::schema::{faculty_schema, TemporalSignature};

/// Header of a one-variable `(name, rank)` retrieve of a temporal relation.
const WIDE_HEADER: [&str; 6] = [
    "name",
    "rank",
    "valid (from)",
    "valid (to)",
    "tx (start)",
    "tx (end)",
];

/// Header of the benchmark's two-variable retrieve.
const JOIN_HEADER: [&str; 8] = [
    "n1",
    "r1",
    "n2",
    "r2",
    "valid (from)",
    "valid (to)",
    "tx (start)",
    "tx (end)",
];

/// A query whose answer the oracle can derive.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Query {
    /// `retrieve (f.name, f.rank) where f.name = key [when f overlap
    /// when] [as of at]`; `at` is the transaction time read.
    Point {
        key: String,
        at: Chronon,
        when: Option<Chronon>,
    },
    /// `retrieve (f.name, f.rank) as of at`.
    Wide { at: Chronon },
    /// `retrieve (n = count(f.name)) when f overlap when as of at`.
    Count { when: Chronon, at: Chronon },
    /// `retrieve (n1 = a.name, r1 = a.rank, n2 = b.name, r2 = b.rank)
    /// where a.name = x and b.name = y when a overlap start of b as of at`
    /// over the `staff` relation.
    Join { x: String, y: String, at: Chronon },
}

/// A reference relation with a by-name index.
struct Indexed {
    table: BitemporalTable,
    by_name: HashMap<String, Vec<usize>>,
}

impl Indexed {
    fn new() -> Indexed {
        Indexed {
            table: BitemporalTable::new(faculty_schema(), TemporalSignature::Interval),
            by_name: HashMap::new(),
        }
    }

    fn commit(&mut self, tx: Chronon, ops: &[HistoricalOp]) {
        self.table
            .commit(tx, ops)
            .expect("generated history is valid on the reference store");
    }

    fn reindex(&mut self) {
        self.by_name.clear();
        for (i, row) in self.table.rows().iter().enumerate() {
            self.by_name
                .entry(row.tuple.get(0).to_string())
                .or_default()
                .push(i);
        }
    }

    /// Versions of `name` stored at transaction time `at`.
    fn named_at<'a>(&'a self, name: &str, at: Chronon) -> impl Iterator<Item = &'a BitemporalRow> {
        let rows = self.table.rows();
        self.by_name
            .get(name)
            .into_iter()
            .flatten()
            .map(move |&i| &rows[i])
            .filter(move |r| r.tx.contains(at))
    }

    fn all_at(&self, at: Chronon) -> impl Iterator<Item = &BitemporalRow> {
        self.table.rows().iter().filter(move |r| r.tx.contains(at))
    }
}

/// The reference store for `faculty` and `staff`.
pub struct Oracle {
    faculty: Indexed,
    staff: Indexed,
}

impl Oracle {
    /// An empty oracle.
    pub fn new() -> Oracle {
        Oracle {
            faculty: Indexed::new(),
            staff: Indexed::new(),
        }
    }

    /// Records one committed `faculty` transaction.
    pub fn commit_faculty(&mut self, tx: Chronon, ops: &[HistoricalOp]) {
        self.faculty.commit(tx, ops);
    }

    /// Records one committed `staff` transaction.
    pub fn commit_staff(&mut self, tx: Chronon, ops: &[HistoricalOp]) {
        self.staff.commit(tx, ops);
    }

    /// Builds the lookup indexes; call once after the last commit.
    pub fn seal(&mut self) {
        self.faculty.reindex();
        self.staff.reindex();
    }

    /// The expected response rows (cells as rendered), sorted, with the
    /// expected header.
    pub fn expect(&self, q: &Query) -> (Vec<&'static str>, Vec<Vec<String>>) {
        let mut rows: Vec<Vec<String>> = match q {
            Query::Point { key, at, when } => self
                .faculty
                .named_at(key, *at)
                .filter(|r| when.is_none_or(|d| r.validity.period().contains(d)))
                .map(wide_cells)
                .collect(),
            Query::Wide { at } => self.faculty.all_at(*at).map(wide_cells).collect(),
            Query::Count { when, at } => {
                let n = self
                    .faculty
                    .all_at(*at)
                    .filter(|r| r.validity.period().contains(*when))
                    .count();
                return (vec!["n"], vec![vec![n.to_string()]]);
            }
            Query::Join { x, y, at } => {
                let mut out = Vec::new();
                for a in self.staff.named_at(x, *at) {
                    for b in self.staff.named_at(y, *at) {
                        let (pa, pb) = (a.validity.period(), b.validity.period());
                        let Some(b_start) = pb.start().finite() else {
                            continue;
                        };
                        if !pa.contains(b_start) {
                            continue;
                        }
                        let valid = pa.intersect(pb);
                        let tx = a.tx.intersect(b.tx);
                        if valid.is_empty() {
                            continue;
                        }
                        let mut cells: Vec<String> = a
                            .tuple
                            .values()
                            .iter()
                            .chain(b.tuple.values())
                            .map(ToString::to_string)
                            .collect();
                        // Target order is (a.name, a.rank, b.name, b.rank).
                        cells.extend(period_cells(valid));
                        cells.extend(period_cells(tx));
                        out.push(cells);
                    }
                }
                out.sort();
                out.dedup();
                return (JOIN_HEADER.to_vec(), out);
            }
        };
        rows.sort();
        rows.dedup();
        (WIDE_HEADER.to_vec(), rows)
    }

    /// Checks a response body against the oracle.
    pub fn check(&self, q: &Query, body: &str) -> Result<(), String> {
        let (header, rows) = self.expect(q);
        let got = parse_table(body)?;
        if got.header != header {
            return Err(format!("header {:?}, expected {header:?}", got.header));
        }
        let mut got_rows = got.rows;
        got_rows.sort();
        if got_rows != rows {
            return Err(format!(
                "{} row(s), expected {}; first difference near {:?}",
                got_rows.len(),
                rows.len(),
                got_rows
                    .iter()
                    .zip(&rows)
                    .find(|(a, b)| a != b)
                    .map(|(a, _)| a)
            ));
        }
        Ok(())
    }

    /// The current `(name, rank)` versions of `key` at `at`, for checks
    /// of untouched keys on `ingest`.
    pub fn current_rows(&self, key: &str, at: Chronon) -> Vec<Vec<String>> {
        let mut rows: Vec<Vec<String>> = self.faculty.named_at(key, at).map(wide_cells).collect();
        rows.sort();
        rows
    }
}

fn period_cells(p: Period) -> [String; 2] {
    [p.start().to_string(), p.end().to_string()]
}

fn wide_cells(r: &BitemporalRow) -> Vec<String> {
    let mut cells: Vec<String> = r.tuple.values().iter().map(ToString::to_string).collect();
    cells.extend(period_cells(r.validity.period()));
    cells.extend(period_cells(r.tx));
    cells
}

/// A response table, split into cells.
#[derive(Debug, PartialEq, Eq)]
pub struct Table {
    /// Column headers.
    pub header: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<String>>,
}

fn split_cells(line: &str) -> Vec<String> {
    line.replace("||", "|")
        .split('|')
        .map(|c| c.trim().to_string())
        .collect()
}

/// Parses one rendered retrieve: header, rule, rows, `(N row[s])`.
pub fn parse_table(body: &str) -> Result<Table, String> {
    let lines: Vec<&str> = body.lines().collect();
    if lines.len() < 3 {
        return Err(format!("short response ({} lines)", lines.len()));
    }
    let footer = lines[lines.len() - 1];
    let n: usize = footer
        .strip_prefix('(')
        .and_then(|s| s.split(' ').next())
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad row-count line {footer:?}"))?;
    let data = &lines[2..lines.len() - 1];
    if data.len() != n {
        return Err(format!("{} data lines but the footer says {n}", data.len()));
    }
    if !lines[1].chars().all(|c| c == '-' || c == '+') {
        return Err(format!("bad rule line {:?}", lines[1]));
    }
    let header = split_cells(lines[0]);
    let rows: Vec<Vec<String>> = data.iter().map(|l| split_cells(l)).collect();
    if let Some(bad) = rows.iter().find(|r| r.len() != header.len()) {
        return Err(format!("row {bad:?} has {} cells", bad.len()));
    }
    Ok(Table { header, rows })
}

/// The `(name, rank)` pairs of a response's rows.
pub fn name_rank_pairs(body: &str) -> Result<Vec<(String, String)>, String> {
    let t = parse_table(body)?;
    if t.header.first().map(String::as_str) != Some("name")
        || t.header.get(1).map(String::as_str) != Some("rank")
    {
        return Err(format!("unexpected header {:?}", t.header));
    }
    Ok(t.rows
        .into_iter()
        .map(|mut r| {
            let rank = r.swap_remove(1);
            (r.swap_remove(0), rank)
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_rendered_table() {
        let body = "name  | rank || valid (from) | valid (to)\n\
                    ------+------++--------------+-----------\n\
                    a     | full || 01/01/80     | ∞\n\
                    (1 row)\n";
        let t = parse_table(body).unwrap();
        assert_eq!(t.header, ["name", "rank", "valid (from)", "valid (to)"]);
        assert_eq!(t.rows, [["a", "full", "01/01/80", "∞"]]);
        assert_eq!(
            name_rank_pairs(body).unwrap(),
            [("a".to_string(), "full".to_string())]
        );
    }

    #[test]
    fn rejects_a_footer_that_disagrees() {
        let body = "n\n-\n3\n(2 rows)\n";
        assert!(parse_table(body).is_err());
        assert!(parse_table("oops").is_err());
    }
}
