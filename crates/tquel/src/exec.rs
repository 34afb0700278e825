//! The tuple-calculus evaluator.
//!
//! A retrieve means what the paper (and Quel) define: the cartesian
//! product of the range variables' row sets, filtered by the `where`
//! predicate over attribute values and the `when` predicate over valid
//! times, then projected through the target list with derived
//! timestamps.  [`execute_plan_product`] evaluates exactly that and is
//! kept as the reference oracle.  The serving path, [`execute_plan`],
//! splits the `where` and `when` clauses into their top-level
//! conjuncts and groups them by the range variables each reads
//! (`RetrievePlan::qualification`): constant conjuncts are decided
//! once, each single-variable conjunct filters its variable's scan, and
//! the rest are tested inside the nested loops as soon as the last
//! variable they read is bound.  The loops keep the product's order, so
//! both produce the same rows in the same order.
//!
//! Derived timestamps (§4.4's closure property — "this derived relation
//! is a temporal relation, so further temporal relations can be derived
//! from it"):
//!
//! * valid time — the `valid` clause when present, otherwise the
//!   intersection of the target-list variables' valid times;
//! * transaction time — the intersection of the target-list variables'
//!   transaction periods (temporal operands only).
//!
//! Rows whose derived valid period is empty hold at no time and are
//! dropped.

use std::collections::hash_map::{Entry, RandomState};
use std::collections::HashMap;
use std::hash::BuildHasher;

use chronos_algebra::expr::AttrSource;
use chronos_core::period::Period;
use chronos_core::relation::Validity;
use chronos_core::schema::{RelationClass, Schema, TemporalSignature};
use chronos_core::taxonomy::DatabaseClass;
use chronos_core::timepoint::TimePoint;
use chronos_core::tuple::Tuple;
use chronos_core::value::Value;

use chronos_obs::{noop_recorder, Recorder};

use crate::analyze::{analyze_retrieve, Conjunct, RetrievePlan, TargetPlan, ValidPlan, VarBinding};
use crate::ast::{AggFunc, Retrieve, Statement};
use crate::error::{TquelError, TquelResult};
use crate::provider::{RelationProvider, SourceRow};

/// One row of a query result, carrying whatever timestamps the result
/// class has.
#[derive(Clone, PartialEq, Debug)]
pub struct ResultRow {
    /// The projected attribute values.
    pub tuple: Tuple,
    /// Valid time (historical and temporal results).
    pub validity: Option<Validity>,
    /// Transaction time (temporal results).
    pub tx: Option<Period>,
}

/// A derived relation.
#[derive(Clone, PartialEq, Debug)]
pub struct ResultRelation {
    /// Result schema.
    pub schema: Schema,
    /// Which of the four classes the derived relation belongs to.
    pub kind: DatabaseClass,
    /// Signature of the valid time, when carried.
    pub signature: TemporalSignature,
    /// The rows.
    pub rows: Vec<ResultRow>,
}

impl ResultRelation {
    /// The values of a single-attribute result, as strings (convenience
    /// for tests and examples).
    pub fn column_strings(&self, idx: usize) -> Vec<String> {
        self.rows
            .iter()
            .map(|r| r.tuple.get(idx).to_string())
            .collect()
    }

    /// True iff no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }
}

/// Executes an analyzed plan.
pub fn execute_plan(
    plan: &RetrievePlan,
    provider: &dyn RelationProvider,
) -> TquelResult<ResultRelation> {
    execute_plan_traced(plan, provider, noop_recorder())
}

/// Executes an analyzed plan, recording per-operator spans (scan,
/// product, aggregate) into `recorder`.  A scan reports the rows it
/// read (`rows_in`) and the rows that pass its pushed conjuncts
/// (`rows_out`); the product or aggregate takes the combinations of the
/// surviving rows.
pub fn execute_plan_traced(
    plan: &RetrievePlan,
    provider: &dyn RelationProvider,
    recorder: &Recorder,
) -> TquelResult<ResultRelation> {
    let exec_span = recorder.span("tquel/exec");
    let qual = plan.qualification();
    let mut env = vec![Period::ALWAYS; plan.vars.len()];
    let qualifies = holds_all(
        &qual.constant,
        &Bound {
            rows: &[],
            vars: &[],
        },
        &env,
    )?;

    // Scan each range variable (shared row sets — a caching provider
    // hands the same Arc to every retrieve at the same coordinate) and
    // keep the positions of the rows that pass its pushed conjuncts.
    let mut scans: Vec<std::sync::Arc<Vec<SourceRow>>> = Vec::with_capacity(plan.vars.len());
    let mut kept: Vec<Vec<usize>> = Vec::with_capacity(plan.vars.len());
    let mut estimates: Vec<Option<u64>> = Vec::with_capacity(plan.vars.len());
    for (vi, v) in plan.vars.iter().enumerate() {
        let span = recorder.span("tquel/scan");
        span.detail(format!("{} over {}", v.name, v.relation));
        // Statistics describe the current state, so estimates only apply
        // to non-rollback scans; `as of` operators show actuals alone.
        let est = if plan.as_of.is_none() {
            provider.estimated_rows(&v.relation)
        } else {
            None
        };
        if let Some(est) = est {
            span.rows_est(est);
        }
        estimates.push(est);
        let rows = provider.scan(&v.relation, plan.as_of.as_ref())?;
        span.rows_in(rows.len() as u64);
        let mut keep = Vec::new();
        if qualifies {
            for (i, row) in rows.iter().enumerate() {
                env[vi] = valid_period(row);
                let alone = Bound {
                    rows: std::slice::from_ref(&row),
                    vars: std::slice::from_ref(v),
                };
                if holds_all(&qual.pushed[vi], &alone, &env)? {
                    keep.push(i);
                }
            }
        }
        span.rows_out(keep.len() as u64);
        scans.push(rows);
        kept.push(keep);
    }
    let candidates: Vec<Vec<&SourceRow>> = scans
        .iter()
        .zip(&kept)
        .map(|(rows, keep)| keep.iter().map(|&i| &rows[i]).collect())
        .collect();
    let combinations: u64 = candidates.iter().map(|c| c.len() as u64).product();
    // The product's input estimate is the product of the per-scan
    // estimates — defined only when every scan had one.
    let est_combinations: Option<u64> = estimates
        .iter()
        .copied()
        .try_fold(1u64, |acc, e| e.map(|e| acc.saturating_mul(e)));

    let span = recorder.span(if plan.aggregated {
        "tquel/aggregate"
    } else {
        "tquel/product"
    });
    span.rows_in(combinations);
    if let Some(est) = est_combinations {
        span.rows_est(est);
    }
    let mut sink = Sink::new(plan);
    if qualifies {
        let mut bound = Vec::with_capacity(plan.vars.len());
        nested_loops(
            0,
            &candidates,
            &qual.residual,
            &plan.vars,
            &mut bound,
            &mut env,
            &mut sink,
        )?;
    }
    let result = sink.finish();
    span.rows_out(result.len() as u64);
    exec_span.rows_out(result.len() as u64);
    Ok(result)
}

/// Executes an analyzed plan by the tuple calculus's definition, read
/// literally: every combination of the range variables' full scans is
/// flattened into one tuple and tested against the whole `where` and
/// `when` clauses.
///
/// This is the reference oracle that differential tests hold
/// [`execute_plan`] to, and the ablation that prices its pushdown.  It
/// is not a serving path.
pub fn execute_plan_product(
    plan: &RetrievePlan,
    provider: &dyn RelationProvider,
) -> TquelResult<ResultRelation> {
    let scans = plan
        .vars
        .iter()
        .map(|v| provider.scan(&v.relation, plan.as_of.as_ref()))
        .collect::<TquelResult<Vec<_>>>()?;
    let mut sink = Sink::new(plan);
    if scans.iter().all(|s| !s.is_empty()) {
        let mut idx = vec![0usize; scans.len()];
        'product: loop {
            let combo: Vec<&SourceRow> = idx.iter().zip(&scans).map(|(&i, s)| &s[i]).collect();
            let mut values = Vec::new();
            for r in &combo {
                values.extend_from_slice(r.tuple.values());
            }
            let flat = Tuple::new(values);
            let env: Vec<Period> = combo.iter().map(|r| valid_period(r)).collect();
            if plan.predicate.eval(&flat)? && plan.when.eval(&env)? {
                sink.accept(&combo, &flat, &env)?;
            }

            // Advance the odometer.
            let mut d = scans.len();
            loop {
                if d == 0 {
                    break 'product;
                }
                d -= 1;
                idx[d] += 1;
                if idx[d] < scans[d].len() {
                    break;
                }
                idx[d] = 0;
            }
        }
    }
    Ok(sink.finish())
}

/// The nested-loop driver.  Binds variable `depth` to each of its
/// candidate rows in scan order — variable 0 outermost, so combinations
/// arrive in the cartesian product's order — and tests the residual
/// conjuncts whose last variable is `depth` before binding the next.
/// Every combination that passes reaches `sink`.
fn nested_loops<'r>(
    depth: usize,
    candidates: &[Vec<&'r SourceRow>],
    residual: &[Vec<Conjunct<'_>>],
    vars: &[VarBinding],
    bound: &mut Vec<&'r SourceRow>,
    env: &mut [Period],
    sink: &mut Sink<'_>,
) -> TquelResult<()> {
    let Some(rows) = candidates.get(depth) else {
        return sink.accept(bound, &Bound { rows: bound, vars }, env);
    };
    for &row in rows {
        bound.truncate(depth);
        bound.push(row);
        env[depth] = valid_period(row);
        if holds_all(&residual[depth], &Bound { rows: bound, vars }, env)? {
            nested_loops(depth + 1, candidates, residual, vars, bound, env, sink)?;
        }
    }
    Ok(())
}

/// The rows of the leading range variables, read as one flat tuple
/// without concatenating them: flat index `i` belongs to the last
/// variable whose offset is at most `i`.
struct Bound<'a, 'r> {
    rows: &'a [&'r SourceRow],
    vars: &'a [VarBinding],
}

impl AttrSource for Bound<'_, '_> {
    fn attr(&self, idx: usize) -> Option<&Value> {
        let v = self
            .vars
            .partition_point(|b| b.offset <= idx)
            .checked_sub(1)?;
        self.rows.get(v)?.tuple.try_get(idx - self.vars[v].offset)
    }
}

fn holds_all(
    conjuncts: &[Conjunct<'_>],
    attrs: &impl AttrSource,
    env: &[Period],
) -> TquelResult<bool> {
    for c in conjuncts {
        if !c.holds(attrs, env)? {
            return Ok(false);
        }
    }
    Ok(true)
}

/// A row's valid period; rows without valid time hold always.
fn valid_period(row: &SourceRow) -> Period {
    row.validity.map_or(Period::ALWAYS, |v| v.period())
}

/// The value at a target's flat index (analysis resolves every target
/// to an attribute of a bound variable).
fn target_value(attrs: &impl AttrSource, idx: usize) -> &Value {
    attrs
        .attr(idx)
        .expect("analysis resolves targets to bound attributes")
}

/// Builds a retrieve's result from its qualifying combinations, taken
/// in the product's order.
struct Sink<'p> {
    plan: &'p RetrievePlan,
    /// Aggregated plans: a running state per target and the flat index
    /// it reads.
    aggregates: Vec<(AggState, usize)>,
    /// Derived rows under set semantics, first occurrence first.
    rows: Vec<ResultRow>,
    /// Hash of each kept row (tuple and both timestamps) → its position.
    first: HashMap<u64, usize>,
    hasher: RandomState,
}

impl<'p> Sink<'p> {
    fn new(plan: &'p RetrievePlan) -> Sink<'p> {
        let aggregates = plan
            .targets
            .iter()
            .zip(plan.out_schema.attributes())
            .filter_map(|((_, t), out_attr)| match t {
                TargetPlan::Aggregate(func, flat) => {
                    let is_float = out_attr.attr_type() == chronos_core::value::AttrType::Float;
                    Some((AggState::new(*func, is_float), *flat))
                }
                TargetPlan::Attr(_) => None,
            })
            .collect();
        Sink {
            plan,
            aggregates,
            rows: Vec::new(),
            first: HashMap::new(),
            hasher: RandomState::new(),
        }
    }

    /// Takes one qualifying combination: its rows, their attributes by
    /// flat index, and their valid periods.
    fn accept(
        &mut self,
        rows: &[&SourceRow],
        attrs: &impl AttrSource,
        env: &[Period],
    ) -> TquelResult<()> {
        if self.plan.aggregated {
            for (state, idx) in &mut self.aggregates {
                state.observe(target_value(attrs, *idx))?;
            }
        } else if let Some(row) = derive_row(self.plan, rows, attrs, env)? {
            self.insert(row);
        }
        Ok(())
    }

    /// Keeps `row` unless an equal row was kept already.
    fn insert(&mut self, row: ResultRow) {
        let hash = self.hasher.hash_one((&row.tuple, row.validity, row.tx));
        match self.first.entry(hash) {
            Entry::Vacant(e) => {
                e.insert(self.rows.len());
                self.rows.push(row);
            }
            // Distinct rows rarely share a hash; compare with every kept
            // row when they do.
            Entry::Occupied(e) => {
                if self.rows[*e.get()] != row && !self.rows.contains(&row) {
                    self.rows.push(row);
                }
            }
        }
    }

    /// The derived relation.  An aggregated plan yields one static tuple,
    /// or no tuple when a value aggregate is undefined over an empty set.
    fn finish(self) -> ResultRelation {
        let plan = self.plan;
        let rows = if plan.aggregated {
            self.aggregates
                .into_iter()
                .map(|(state, _)| state.finish())
                .collect::<Option<Vec<Value>>>()
                .map(|values| ResultRow {
                    tuple: Tuple::new(values),
                    validity: None,
                    tx: None,
                })
                .into_iter()
                .collect()
        } else {
            self.rows
        };
        let kind = match (plan.result_valid, plan.result_tx) {
            (true, true) => DatabaseClass::Temporal,
            (true, false) => DatabaseClass::Historical,
            _ => DatabaseClass::Static,
        };
        ResultRelation {
            schema: plan.out_schema.clone(),
            kind,
            signature: plan.result_signature,
            rows,
        }
    }
}

/// Running state of one aggregate target.
#[derive(Clone, Debug)]
enum AggState {
    Count(i64),
    SumInt(i64),
    SumFloat(f64),
    Avg { sum: f64, n: i64 },
    Min(Option<Value>),
    Max(Option<Value>),
}

impl AggState {
    fn new(func: AggFunc, sample_is_float: bool) -> AggState {
        match func {
            AggFunc::Count => AggState::Count(0),
            AggFunc::Sum if sample_is_float => AggState::SumFloat(0.0),
            AggFunc::Sum => AggState::SumInt(0),
            AggFunc::Avg => AggState::Avg { sum: 0.0, n: 0 },
            AggFunc::Min => AggState::Min(None),
            AggFunc::Max => AggState::Max(None),
        }
    }

    fn observe(&mut self, v: &Value) -> TquelResult<()> {
        match self {
            AggState::Count(n) => *n += 1,
            AggState::SumInt(s) => {
                *s += v
                    .as_int()
                    .ok_or_else(|| TquelError::Semantic("sum over a non-integer value".into()))?;
            }
            AggState::SumFloat(s) => match v {
                Value::Float(x) => *s += x,
                Value::Int(i) => *s += *i as f64,
                other => {
                    return Err(TquelError::Semantic(format!(
                        "sum over non-numeric value {other}"
                    )))
                }
            },
            AggState::Avg { sum, n } => {
                match v {
                    Value::Float(x) => *sum += x,
                    Value::Int(i) => *sum += *i as f64,
                    other => {
                        return Err(TquelError::Semantic(format!(
                            "avg over non-numeric value {other}"
                        )))
                    }
                }
                *n += 1;
            }
            AggState::Min(best) => {
                if best.as_ref().is_none_or(|b| v < b) {
                    *best = Some(v.clone());
                }
            }
            AggState::Max(best) => {
                if best.as_ref().is_none_or(|b| v > b) {
                    *best = Some(v.clone());
                }
            }
        }
        Ok(())
    }

    /// The final value; `None` when the aggregate is undefined over an
    /// empty set (min/max/avg of nothing).
    fn finish(self) -> Option<Value> {
        match self {
            AggState::Count(n) => Some(Value::Int(n)),
            AggState::SumInt(s) => Some(Value::Int(s)),
            AggState::SumFloat(s) => Some(Value::Float(s)),
            AggState::Avg { n: 0, .. } => None,
            AggState::Avg { sum, n } => Some(Value::Float(sum / n as f64)),
            AggState::Min(v) | AggState::Max(v) => v,
        }
    }
}

fn derive_row(
    plan: &RetrievePlan,
    combo: &[&SourceRow],
    attrs: &impl AttrSource,
    env: &[Period],
) -> TquelResult<Option<ResultRow>> {
    // Valid time.
    let validity = if plan.result_valid {
        let validity = match &plan.valid {
            Some(ValidPlan::At(e)) => {
                let p = e.eval(env)?;
                match p.start() {
                    TimePoint::Finite(c) => Validity::Event(c),
                    other => {
                        return Err(TquelError::Semantic(format!(
                            "'valid at' must yield a finite instant, got {other}"
                        )))
                    }
                }
            }
            Some(ValidPlan::FromTo(a, b)) => {
                // `from a to b`: `[start of a, start of b)` — the `to`
                // bound is exclusive, matching the paper's tables where
                // Merrie's `(to) 12/01/82` meets `full` starting
                // 12/01/82.
                let from = a.eval(env)?.start();
                let to = b.eval(env)?.start();
                Validity::Interval(Period::clamped(from, to))
            }
            None => {
                // Default: intersection of target-list variables' valid
                // times.
                let mut p = Period::ALWAYS;
                for &vi in &plan.target_vars {
                    if plan.vars[vi].has_valid_time() {
                        p = p.intersect(env[vi]);
                    }
                }
                match plan.result_signature {
                    TemporalSignature::Event => match p.start() {
                        TimePoint::Finite(c) if !p.is_empty() => Validity::Event(c),
                        _ => return Ok(None),
                    },
                    TemporalSignature::Interval => Validity::Interval(p),
                }
            }
        };
        if let Validity::Interval(p) = validity {
            if p.is_empty() {
                return Ok(None); // holds at no time
            }
        }
        Some(validity)
    } else {
        None
    };

    // Transaction time: intersection of target-list temporal operands.
    let tx = if plan.result_tx {
        let mut p = Period::ALWAYS;
        for &vi in &plan.target_vars {
            if plan.vars[vi].info.class == RelationClass::Temporal {
                let row_tx = combo[vi].tx.ok_or_else(|| {
                    TquelError::Semantic(format!(
                        "temporal relation {:?} scanned without transaction time",
                        plan.vars[vi].relation
                    ))
                })?;
                p = p.intersect(row_tx);
            }
        }
        if p.is_empty() {
            return Ok(None); // versions never co-existed in the store
        }
        Some(p)
    } else {
        None
    };

    // Project.
    let values: Vec<Value> = plan
        .targets
        .iter()
        .map(|(_, t)| match t {
            TargetPlan::Attr(flat_idx) => target_value(attrs, *flat_idx).clone(),
            TargetPlan::Aggregate(..) => {
                unreachable!("aggregated plans take the aggregate path")
            }
        })
        .collect();
    Ok(Some(ResultRow {
        tuple: Tuple::new(values),
        validity,
        tx,
    }))
}

/// Analyzes and executes a retrieve statement against range declarations.
pub fn execute_retrieve(
    stmt: &Retrieve,
    ranges: &HashMap<String, String>,
    provider: &dyn RelationProvider,
) -> TquelResult<ResultRelation> {
    execute_retrieve_traced(stmt, ranges, provider, noop_recorder())
}

/// Analyzes and executes a retrieve statement with analyze/exec spans
/// recorded into `recorder` (the `explain`/`profile` entry point).
pub fn execute_retrieve_traced(
    stmt: &Retrieve,
    ranges: &HashMap<String, String>,
    provider: &dyn RelationProvider,
    recorder: &Recorder,
) -> TquelResult<ResultRelation> {
    let plan = {
        let _span = recorder.span("tquel/analyze");
        analyze_retrieve(stmt, ranges, provider)?
    };
    execute_plan_traced(&plan, provider, recorder)
}

/// A read-only interpreter session: tracks `range of` declarations and
/// evaluates retrieves.  Modification statements are executed by
/// `chronos-db`'s sessions, which wrap this.
#[derive(Default)]
pub struct QuerySession {
    ranges: HashMap<String, String>,
}

impl QuerySession {
    /// Creates an empty session.
    pub fn new() -> QuerySession {
        QuerySession::default()
    }

    /// The current range declarations.
    pub fn ranges(&self) -> &HashMap<String, String> {
        &self.ranges
    }

    /// Declares a range variable.
    pub fn declare_range(&mut self, var: impl Into<String>, relation: impl Into<String>) {
        self.ranges.insert(var.into(), relation.into());
    }

    /// Executes one parsed statement; returns a relation for retrieves,
    /// `None` for range declarations.  Other statements are rejected
    /// (this session is read-only).
    pub fn execute(
        &mut self,
        stmt: &Statement,
        provider: &dyn RelationProvider,
    ) -> TquelResult<Option<ResultRelation>> {
        match stmt {
            Statement::RangeDecl { var, relation } => {
                if provider.info(relation).is_none() {
                    return Err(TquelError::Semantic(format!(
                        "unknown relation {relation:?}"
                    )));
                }
                self.declare_range(var.clone(), relation.clone());
                Ok(None)
            }
            Statement::Retrieve(r) => Ok(Some(execute_retrieve(r, &self.ranges, provider)?)),
            other => Err(TquelError::Semantic(format!(
                "statement not executable in a read-only query session: {other:?}"
            ))),
        }
    }

    /// Parses and executes a source string, returning the result of the
    /// last retrieve.
    pub fn run(
        &mut self,
        src: &str,
        provider: &dyn RelationProvider,
    ) -> TquelResult<Option<ResultRelation>> {
        let stmts = crate::parser::parse_program(src)?;
        let mut last = None;
        for stmt in &stmts {
            if let Some(rel) = self.execute(stmt, provider)? {
                last = Some(rel);
            }
        }
        Ok(last)
    }
}
