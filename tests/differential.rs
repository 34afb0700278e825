//! Cross-crate differential properties: the conceptual snapshot stores,
//! the in-memory tuple-timestamped stores, and the storage-backed,
//! index-accelerated table must be observationally equivalent on every
//! generated history; algebra transformations must preserve query
//! answers; and the TQuel evaluator, which pushes single-variable
//! conjuncts into the scans, must return exactly the rows, in the same
//! order, that the cartesian-product oracle returns.

use std::collections::HashMap;
use std::sync::Arc;

use chronos_algebra::coalesce::{coalesce, is_coalesced};
use chronos_algebra::temporal::{bitemporal_slice, rollback_temporal, timeslice};
use chronos_bench::workload::{generate, WorkloadSpec};
use chronos_core::calendar::Date;
use chronos_core::chronon::Chronon;
use chronos_core::clock::ManualClock;
use chronos_core::prelude::*;
use chronos_db::Database;
use chronos_storage::table::StoredBitemporalTable;
use chronos_tquel::analyze::analyze_retrieve;
use chronos_tquel::ast::Statement;
use chronos_tquel::exec::{execute_plan, execute_plan_product, ResultRelation};
use chronos_tquel::parser::parse_program;
use proptest::prelude::*;

fn arb_spec() -> impl Strategy<Value = WorkloadSpec> {
    (2usize..30, 5usize..60, 1usize..4, 0u32..60, any::<u64>()).prop_map(
        |(entities, transactions, ops_per_tx, correction_pct, seed)| WorkloadSpec {
            entities,
            transactions,
            ops_per_tx,
            correction_pct,
            seed,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn three_temporal_implementations_agree(spec in arb_spec()) {
        let w = generate(&spec);
        let mut cube = SnapshotTemporal::new(w.schema.clone(), TemporalSignature::Interval);
        let mut table = BitemporalTable::new(w.schema.clone(), TemporalSignature::Interval);
        let mut stored = StoredBitemporalTable::in_memory(w.schema.clone(), TemporalSignature::Interval);
        let mut commits = Vec::new();
        for tx in &w.transactions {
            cube.commit(tx.tx_time, &tx.ops).expect("valid on cube");
            table.commit(tx.tx_time, &tx.ops).expect("valid on table");
            stored.try_commit(tx.tx_time, &tx.ops).expect("valid on stored");
            commits.push(tx.tx_time);
        }
        prop_assert_eq!(cube.current(), table.current());
        prop_assert_eq!(table.current(), stored.current());
        prop_assert_eq!(table.stored_tuples(), stored.stored_tuples());
        for &ct in commits.iter().step_by(3) {
            for probe in [ct.pred(), ct, ct.succ()] {
                let a = cube.rollback(probe);
                prop_assert_eq!(&a, &table.rollback(probe), "table diverges at {}", probe);
                prop_assert_eq!(&a, &stored.rollback(probe), "stored diverges at {}", probe);
            }
        }
    }

    #[test]
    fn coalescing_preserves_every_timeslice(spec in arb_spec()) {
        let w = generate(&spec);
        let mut table = BitemporalTable::new(w.schema.clone(), TemporalSignature::Interval);
        for tx in &w.transactions {
            table.commit(tx.tx_time, &tx.ops).expect("valid");
        }
        let current = table.current();
        let merged = coalesce(&current).expect("coalesces");
        prop_assert!(is_coalesced(&merged));
        prop_assert!(merged.len() <= current.len());
        // Timeslices agree at period endpoints and in gaps.
        let mut probes: Vec<Chronon> = current
            .rows()
            .iter()
            .flat_map(|r| {
                let p = r.validity.period();
                [p.start().finite(), p.end().finite()]
            })
            .flatten()
            .collect();
        probes.push(Chronon::new(0));
        probes.push(Chronon::new(5000));
        for t in probes {
            for probe in [t.pred(), t, t.succ()] {
                prop_assert_eq!(
                    current.valid_at(probe),
                    merged.valid_at(probe),
                    "slice diverges at {}",
                    probe
                );
            }
        }
        // Idempotence.
        prop_assert_eq!(coalesce(&merged).expect("coalesces"), merged);
    }

    #[test]
    fn algebra_operators_match_store_queries(spec in arb_spec()) {
        let w = generate(&spec);
        let mut table = BitemporalTable::new(w.schema.clone(), TemporalSignature::Interval);
        let mut stored = StoredBitemporalTable::in_memory(w.schema.clone(), TemporalSignature::Interval);
        for tx in &w.transactions {
            table.commit(tx.tx_time, &tx.ops).expect("valid");
            stored.try_commit(tx.tx_time, &tx.ops).expect("valid");
        }
        let as_of = Chronon::new(1030);
        let valid = Chronon::new(990);
        // ρ then τ = the composed bitemporal slice…
        let composed = bitemporal_slice(&table, valid, as_of);
        let by_hand = timeslice(&rollback_temporal(&table, as_of), valid);
        prop_assert_eq!(&composed, &by_hand);
        // …and equals the stored table's indexed point query.
        let mut via_index: Vec<Tuple> = stored
            .valid_at_as_of(valid, as_of)
            .expect("ok")
            .into_iter()
            .map(|r| r.tuple)
            .collect();
        via_index.sort();
        via_index.dedup();
        let mut via_algebra: Vec<Tuple> = composed.iter().cloned().collect();
        via_algebra.sort();
        prop_assert_eq!(via_index, via_algebra);
    }

    #[test]
    fn stored_table_survives_wal_round_trip(spec in arb_spec()) {
        // Durability is replay: committing through a WAL and reopening
        // must reproduce the identical table.
        let w = generate(&spec);
        let dir = std::env::temp_dir().join(format!(
            "chronos-diff-{}-{}",
            std::process::id(),
            spec.seed
        ));
        let _ = std::fs::remove_file(&dir);
        {
            let mut t = StoredBitemporalTable::open_durable(
                &dir,
                1,
                w.schema.clone(),
                TemporalSignature::Interval,
            )
            .expect("open");
            for tx in &w.transactions {
                t.try_commit(tx.tx_time, &tx.ops).expect("valid");
            }
        }
        let reopened = StoredBitemporalTable::open_durable(
            &dir,
            1,
            w.schema.clone(),
            TemporalSignature::Interval,
        )
        .expect("reopen");
        let mut reference = BitemporalTable::new(w.schema.clone(), TemporalSignature::Interval);
        for tx in &w.transactions {
            reference.commit(tx.tx_time, &tx.ops).expect("valid");
        }
        prop_assert_eq!(reopened.current(), reference.current());
        prop_assert_eq!(reopened.stored_tuples(), reference.stored_tuples());
        prop_assert_eq!(reopened.transactions(), reference.transactions());
        let _ = std::fs::remove_file(&dir);
    }
}

// ---------------------------------------------------------------------
// TQuel: conjunct pushdown vs. the cartesian-product oracle
// ---------------------------------------------------------------------

/// A deterministic source of choices (splitmix64).
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn chance(&mut self, pct: usize) -> bool {
        self.below(100) < pct
    }

    fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.below(xs.len())]
    }
}

const NAMES: [&str; 4] = ["ann", "bob", "cy", "dee"];
const RANKS: [&str; 3] = ["assistant", "associate", "full"];
/// The first day of the generated history.
const ORIGIN: i64 = 3_650;

/// A generated relation: its name, its `create … as` class, and whether
/// it carries valid and transaction time.
struct Rel {
    name: &'static str,
    class: &'static str,
    valid: bool,
    tx: bool,
}

const RELS: [Rel; 5] = [
    Rel {
        name: "t",
        class: "temporal",
        valid: true,
        tx: true,
    },
    Rel {
        name: "e",
        class: "temporal event",
        valid: true,
        tx: true,
    },
    Rel {
        name: "h",
        class: "historical",
        valid: true,
        tx: false,
    },
    Rel {
        name: "r",
        class: "rollback",
        valid: false,
        tx: true,
    },
    Rel {
        name: "s",
        class: "static",
        valid: false,
        tx: false,
    },
];

fn day(g: &mut Gen) -> String {
    date_lit(ORIGIN - 60 + g.below(240) as i64)
}

fn date_lit(ticks: i64) -> String {
    format!("\"{}\"", Date::from_chronon(Chronon::new(ticks)))
}

fn valid_clause(g: &mut Gen, rel: &Rel) -> String {
    if rel.class.ends_with("event") {
        return format!(" valid at {}", day(g));
    }
    let from = ORIGIN - 60 + g.below(200) as i64;
    let to = if g.chance(40) {
        "forever".to_string()
    } else {
        date_lit(from + 1 + g.below(80) as i64)
    };
    format!(" valid from {} to {to}", date_lit(from))
}

/// A database holding the five relations, each with a short generated
/// history of appends, replaces and deletes.
fn generated_db(g: &mut Gen) -> (Database, Arc<ManualClock>) {
    let clock = Arc::new(ManualClock::new(Chronon::new(ORIGIN)));
    let mut db = Database::in_memory(clock.clone());
    for rel in &RELS {
        db.session()
            .run(&format!(
                "create {} (name = str, rank = str, n = int) as {}",
                rel.name, rel.class
            ))
            .expect("create");
    }
    for _ in 0..20 + g.below(40) {
        clock.tick(1 + g.below(3) as i64);
        let rel = g.pick(&RELS);
        let valid = if rel.valid {
            valid_clause(g, rel)
        } else {
            String::new()
        };
        let name = g.pick(&NAMES);
        let rank = g.pick(&RANKS);
        let n = g.below(5);
        let stmt = match g.below(10) {
            0..=5 => format!(
                r#"append to {} (name = "{name}", rank = "{rank}", n = {n}){valid}"#,
                rel.name
            ),
            6..=8 => format!(
                r#"range of x is {} replace x (rank = "{rank}", n = {n}){valid} where x.name = "{name}""#,
                rel.name
            ),
            _ => format!(
                r#"range of x is {} delete x where x.name = "{name}""#,
                rel.name
            ),
        };
        // A rejected statement (a duplicate static tuple, say) changes
        // nothing; the history is whatever the store accepted.
        let _ = db.session().run(&stmt);
    }
    (db, clock)
}

/// A range variable of a generated query.
struct Var {
    name: String,
    rel: &'static Rel,
}

fn where_atom(g: &mut Gen, vars: &[Var]) -> String {
    let v = &g.pick(vars).name;
    let w = &g.pick(vars).name;
    match g.below(10) {
        0 => format!(r#"{v}.name = "{}""#, g.pick(&NAMES)),
        1 => format!("{v}.n < {}", g.below(5)),
        2 => format!(r#"{v}.rank != "{}""#, g.pick(&RANKS)),
        3 => format!(r#""{}" >= {v}.name"#, g.pick(&NAMES)),
        4 => format!("{v}.name = {w}.name"),
        5 => format!("{v}.n <= {w}.n"),
        6 => format!("{v}.rank != {w}.rank"),
        7 => format!("{v}.n > {w}.n"),
        8 => format!("{} < {}", g.below(3), g.below(3)),
        _ => format!(r#""{}" = "{}""#, g.pick(&NAMES), g.pick(&NAMES)),
    }
}

fn where_expr(g: &mut Gen, vars: &[Var], depth: usize) -> String {
    if depth == 0 || g.chance(40) {
        return where_atom(g, vars);
    }
    match g.below(3) {
        0 => format!(
            "({} and {})",
            where_expr(g, vars, depth - 1),
            where_expr(g, vars, depth - 1)
        ),
        1 => format!(
            "({} or {})",
            where_expr(g, vars, depth - 1),
            where_expr(g, vars, depth - 1)
        ),
        _ => format!("not ({})", where_expr(g, vars, depth - 1)),
    }
}

/// A temporal expression over the variables with valid time (or a
/// constant when there are none).
fn texpr(g: &mut Gen, timed: &[&Var]) -> String {
    if timed.is_empty() || g.chance(20) {
        return if g.chance(10) {
            "forever".into()
        } else {
            day(g)
        };
    }
    let v = &g.pick(timed).name;
    match g.below(4) {
        0 => format!("start of {v}"),
        1 => format!("end of {v}"),
        2 => format!("({v} extend {})", &g.pick(timed).name),
        _ => v.clone(),
    }
}

fn when_expr(g: &mut Gen, timed: &[&Var], depth: usize) -> String {
    if depth == 0 || g.chance(40) {
        let op = g.pick(&["overlap", "overlap", "precede", "equal"]);
        return format!("({} {op} {})", texpr(g, timed), texpr(g, timed));
    }
    match g.below(3) {
        0 => format!(
            "({} and {})",
            when_expr(g, timed, depth - 1),
            when_expr(g, timed, depth - 1)
        ),
        1 => format!(
            "({} or {})",
            when_expr(g, timed, depth - 1),
            when_expr(g, timed, depth - 1)
        ),
        _ => format!("not {}", when_expr(g, timed, depth - 1)),
    }
}

/// A random 1–3-variable retrieve, valid by construction: `as of` only
/// over relations with transaction time, `when` only over variables
/// with valid time, aggregates only over suitable attributes.
fn generated_query(g: &mut Gen) -> String {
    let as_of = g.chance(30);
    let rels: Vec<&'static Rel> = RELS.iter().filter(|r| r.tx || !as_of).collect();
    let vars: Vec<Var> = (0..1 + g.below(3))
        .map(|i| Var {
            name: format!("v{i}"),
            rel: rels[g.below(rels.len())],
        })
        .collect();
    let mut text: String = vars
        .iter()
        .map(|v| format!("range of {} is {} ", v.name, v.rel.name))
        .collect();
    let aggregated = g.chance(20);
    let targets: Vec<String> = (0..1 + g.below(2))
        .map(|i| {
            let v = &g.pick(&vars).name;
            if aggregated {
                let agg = g.pick(&[
                    "count(V.name)",
                    "min(V.rank)",
                    "max(V.n)",
                    "sum(V.n)",
                    "avg(V.n)",
                ]);
                format!("x{i} = {}", agg.replace('V', v))
            } else {
                format!("x{i} = {v}.{}", g.pick(&["name", "rank", "n"]))
            }
        })
        .collect();
    text.push_str(&format!("retrieve ({})", targets.join(", ")));
    let timed: Vec<&Var> = vars.iter().filter(|v| v.rel.valid).collect();
    if !aggregated && !timed.is_empty() && g.chance(15) {
        let (a, b) = (&g.pick(&timed).name, &g.pick(&timed).name);
        text.push_str(&if g.chance(50) {
            format!(" valid at start of {a}")
        } else {
            format!(" valid from start of {a} to end of {b}")
        });
    }
    if g.chance(85) {
        let conjuncts: Vec<String> = (0..1 + g.below(2))
            .map(|_| where_expr(g, &vars, 2))
            .collect();
        text.push_str(&format!(" where {}", conjuncts.join(" and ")));
    }
    if g.chance(60) {
        let conjuncts: Vec<String> = (0..1 + g.below(2))
            .map(|_| when_expr(g, &timed, 2))
            .collect();
        text.push_str(&format!(" when {}", conjuncts.join(" and ")));
    }
    if as_of {
        let at = ORIGIN + g.below(100) as i64;
        text.push_str(&format!(" as of {}", date_lit(at)));
        if g.chance(30) {
            text.push_str(&format!(" through {}", date_lit(at + g.below(60) as i64)));
        }
    }
    text
}

/// Runs a retrieve (after its range declarations) through both the
/// serving evaluator and the product oracle.
fn both_evaluators(db: &Database, src: &str) -> (ResultRelation, ResultRelation) {
    let mut ranges = HashMap::new();
    let mut retrieve = None;
    for stmt in parse_program(src).unwrap_or_else(|e| panic!("{src}: {e}")) {
        match stmt {
            Statement::RangeDecl { var, relation } => {
                ranges.insert(var, relation);
            }
            Statement::Retrieve(r) => retrieve = Some(r),
            other => panic!("unexpected statement {other:?}"),
        }
    }
    let plan = analyze_retrieve(&retrieve.expect("a retrieve"), &ranges, db)
        .unwrap_or_else(|e| panic!("{src}: {e}"));
    let fast = execute_plan(&plan, db).unwrap_or_else(|e| panic!("{src}: {e}"));
    let oracle = execute_plan_product(&plan, db).unwrap_or_else(|e| panic!("{src}: {e}"));
    (fast, oracle)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn pushdown_matches_the_product_oracle(seed in any::<u64>()) {
        let mut g = Gen(seed);
        let (db, _clock) = generated_db(&mut g);
        for _ in 0..12 {
            let src = generated_query(&mut g);
            let (fast, oracle) = both_evaluators(&db, &src);
            // Both share the row derivation; check set semantics apart.
            for (i, row) in fast.rows.iter().enumerate() {
                prop_assert!(!fast.rows[..i].contains(row), "duplicate row from {}", src);
            }
            prop_assert_eq!(fast, oracle, "diverges on {}", src);
        }
    }
}

/// The paper's query shapes as T7 times them, and the benchmark's
/// two-variable `report` join, over a T7-style history.
#[test]
fn pushdown_matches_the_product_oracle_on_pinned_shapes() {
    let clock = Arc::new(ManualClock::new(Chronon::new(900)));
    let mut db = Database::in_memory(clock.clone());
    db.session()
        .run("create faculty (name = str, rank = str) as temporal")
        .expect("create");
    for i in 0..40 {
        clock.tick(1);
        db.session()
            .run(&format!(
                r#"append to faculty (name = "prof{i:05}", rank = "assistant")
                   valid from {} to forever"#,
                date_lit(900 + i)
            ))
            .expect("append");
    }
    for i in 0..20 {
        clock.tick(1);
        db.session()
            .run(&format!(
                r#"range of f is faculty
                   replace f (rank = "associate")
                   valid from {} to forever
                   where f.name = "prof{i:05}""#,
                date_lit(960 + i)
            ))
            .expect("replace");
    }
    let shapes = [
        (
            r#"retrieve (f.rank) where f.name = "prof00007""#.to_string(),
            2,
        ),
        (
            format!(
                r#"retrieve (f.rank) where f.name = "prof00007" as of {}"#,
                date_lit(970)
            ),
            2,
        ),
        (
            format!(
                r#"retrieve (f.rank) where f.name = "prof00007" when f overlap {}"#,
                date_lit(950)
            ),
            1,
        ),
        (
            format!(
                r#"retrieve (f1.rank) where f1.name = "prof00007" and f2.name = "prof00009"
                   when f1 overlap start of f2 as of {}"#,
                date_lit(990)
            ),
            2,
        ),
        (
            format!(
                r#"retrieve (n1 = f1.name, r1 = f1.rank, n2 = f2.name, r2 = f2.rank)
                   where f1.name = "prof00003" and f2.name = "prof00005"
                   when f1 overlap start of f2 as of {}"#,
                date_lit(990)
            ),
            2,
        ),
        (
            format!(
                "retrieve (n = count(f.name)) when f overlap {} as of {}",
                date_lit(965),
                date_lit(990)
            ),
            1,
        ),
    ];
    for (query, rows) in &shapes {
        let src =
            format!("range of f is faculty range of f1 is faculty range of f2 is faculty {query}");
        let (fast, oracle) = both_evaluators(&db, &src);
        assert_eq!(fast, oracle, "diverges on {src}");
        assert_eq!(fast.len(), *rows, "{src}: {fast:?}");
    }
}
