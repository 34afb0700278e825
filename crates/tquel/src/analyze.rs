//! Semantic analysis: from parsed AST to an executable plan.
//!
//! Analysis resolves range variables against their declared relations,
//! attribute names against schemas, lowers `where` expressions to
//! flat-index [`Predicate`]s and `when`/`valid` clauses to
//! [`TemporalPred`]/[`TemporalExpr`]s over variable indices, and decides
//! the class of the derived relation:
//!
//! * the result carries **valid time** iff any referenced variable ranges
//!   over a historical or temporal relation;
//! * it carries **transaction time** iff it carries valid time and every
//!   *target-list* variable ranges over a temporal relation (the paper's
//!   Figure 8 result carries the transaction time of the target
//!   variable's row);
//! * a rollback (`as of`) query over a static-rollback relation yields a
//!   **pure static relation** (paper §4.2).
//!
//! Default timestamps follow the paper's worked examples: when no
//! `valid` clause is given, a derived tuple's valid time is the
//! intersection of the valid times of the variables appearing in the
//! target list, and its transaction time likewise.
//!
//! For the evaluator, a plan also splits its `where` and `when` clauses
//! into top-level conjuncts grouped by the range variables each reads
//! (`RetrievePlan::qualification`).

use std::collections::HashMap;

use chronos_algebra::expr::{AttrSource, CmpOp, Expr, Predicate};
use chronos_algebra::when::{TemporalExpr, TemporalPred};
use chronos_core::calendar::date;
use chronos_core::period::Period;
use chronos_core::schema::{Attribute, RelationClass, Schema, TemporalSignature};
use chronos_core::value::{AttrType, Value};

use crate::ast::{
    AggFunc, AsOfClause, AttrRef, CmpOpAst, Operand, Retrieve, Target, TargetExpr, TexprAst,
    ValidClause, WhenExpr, WhereExpr,
};
use crate::error::{TquelError, TquelResult};
use crate::provider::{AsOfSpec, RelationInfo, RelationProvider};

/// A range variable bound in a plan.
#[derive(Clone, Debug)]
pub struct VarBinding {
    /// The variable name.
    pub name: String,
    /// The relation it ranges over.
    pub relation: String,
    /// Catalog info for the relation.
    pub info: RelationInfo,
    /// Offset of this variable's attributes in the flat tuple.
    pub offset: usize,
}

impl VarBinding {
    /// Whether the variable's rows carry valid time.
    pub fn has_valid_time(&self) -> bool {
        matches!(
            self.info.class,
            RelationClass::Historical | RelationClass::Temporal
        )
    }

    /// Whether the variable's relation supports rollback.
    pub fn has_transaction_time(&self) -> bool {
        matches!(
            self.info.class,
            RelationClass::StaticRollback | RelationClass::Temporal
        )
    }
}

/// The lowered `valid` clause.
#[derive(Clone, Debug)]
pub enum ValidPlan {
    /// `valid at e` — the result is event-stamped.
    At(TemporalExpr),
    /// `valid from e1 to e2` — the result period is
    /// `[start of e1, end of e2)`.
    FromTo(TemporalExpr, TemporalExpr),
}

/// One resolved target-list entry.
#[derive(Clone, Copy, Debug)]
pub enum TargetPlan {
    /// Project the flat attribute at this index.
    Attr(usize),
    /// Aggregate over the flat attribute at this index.
    Aggregate(AggFunc, usize),
}

/// An executable retrieve plan.
#[derive(Clone, Debug)]
pub struct RetrievePlan {
    /// Destination relation name for `retrieve into`.
    pub into: Option<String>,
    /// Range variables in binding order (flat-tuple layout).
    pub vars: Vec<VarBinding>,
    /// `(output name, what to compute)` per target.
    pub targets: Vec<(String, TargetPlan)>,
    /// True iff the target list aggregates (the result is then a single
    /// static tuple over the qualifying rows).
    pub aggregated: bool,
    /// Distinct variable indices referenced by the target list, in
    /// order — the variables whose timestamps the result inherits.
    pub target_vars: Vec<usize>,
    /// The `where` predicate over the flat tuple.
    pub predicate: Predicate,
    /// The `when` predicate over variable valid times.
    pub when: TemporalPred,
    /// The `valid` clause, if any.
    pub valid: Option<ValidPlan>,
    /// The resolved `as of` clause, if any.
    pub as_of: Option<AsOfSpec>,
    /// Does the result carry valid time?
    pub result_valid: bool,
    /// Does the result carry transaction time?
    pub result_tx: bool,
    /// Signature of the result's valid time.
    pub result_signature: TemporalSignature,
    /// Schema of the result relation.
    pub out_schema: Schema,
}

/// One top-level conjunct of a retrieve's `where` or `when` clause.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Conjunct<'p> {
    /// A `where` conjunct over attribute values.
    Where(&'p Predicate),
    /// A `when` conjunct over valid times.
    When(&'p TemporalPred),
}

impl Conjunct<'_> {
    /// Evaluates the conjunct over attribute values addressed by flat
    /// index and the range variables' valid periods.
    pub(crate) fn holds(&self, attrs: &impl AttrSource, env: &[Period]) -> TquelResult<bool> {
        Ok(match self {
            Conjunct::Where(p) => p.eval(attrs)?,
            Conjunct::When(p) => p.eval(env)?,
        })
    }
}

/// A retrieve's `where` and `when` clauses split into top-level
/// conjuncts, grouped by the range variables each conjunct reads.
#[derive(Debug)]
pub(crate) struct Qualification<'p> {
    /// Conjuncts that read no variable: decided once, before any scan.
    pub(crate) constant: Vec<Conjunct<'p>>,
    /// `pushed[v]`: conjuncts that read variable `v` alone, applied to
    /// its scan.
    pub(crate) pushed: Vec<Vec<Conjunct<'p>>>,
    /// `residual[v]`: conjuncts that read two or more variables, the
    /// last of them `v`; tested once the product has bound `v`.
    pub(crate) residual: Vec<Vec<Conjunct<'p>>>,
}

impl RetrievePlan {
    /// The range variable whose attributes include flat index `idx`.
    fn var_of(&self, idx: usize) -> usize {
        self.vars
            .partition_point(|v| v.offset <= idx)
            .saturating_sub(1)
    }

    /// Splits the `where` and `when` clauses at their top-level `and`s
    /// and groups the conjuncts by the variables they read.
    pub(crate) fn qualification(&self) -> Qualification<'_> {
        let n = self.vars.len();
        let mut q = Qualification {
            constant: Vec::new(),
            pushed: vec![Vec::new(); n],
            residual: vec![Vec::new(); n],
        };
        let mut conjuncts = Vec::new();
        where_conjuncts(&self.predicate, &mut conjuncts);
        when_conjuncts(&self.when, &mut conjuncts);
        for c in conjuncts {
            // The first and last variable the conjunct reads.
            let mut span: Option<(usize, usize)> = None;
            let mut read = |v: usize| {
                span = Some(span.map_or((v, v), |(lo, hi)| (lo.min(v), hi.max(v))));
            };
            match c {
                Conjunct::Where(p) => p.for_each_attr(&mut |i| read(self.var_of(i))),
                Conjunct::When(p) => p.for_each_var(&mut read),
            }
            match span {
                None => q.constant.push(c),
                Some((lo, hi)) if lo == hi => q.pushed[hi].push(c),
                Some((_, hi)) => q.residual[hi].push(c),
            }
        }
        q
    }
}

fn where_conjuncts<'p>(p: &'p Predicate, out: &mut Vec<Conjunct<'p>>) {
    match p {
        Predicate::True => {}
        Predicate::And(a, b) => {
            where_conjuncts(a, out);
            where_conjuncts(b, out);
        }
        other => out.push(Conjunct::Where(other)),
    }
}

fn when_conjuncts<'p>(p: &'p TemporalPred, out: &mut Vec<Conjunct<'p>>) {
    match p {
        TemporalPred::True => {}
        TemporalPred::And(a, b) => {
            when_conjuncts(a, out);
            when_conjuncts(b, out);
        }
        other => out.push(Conjunct::When(other)),
    }
}

/// Analyzes a parsed retrieve against range declarations and a catalog.
pub fn analyze_retrieve(
    stmt: &Retrieve,
    ranges: &HashMap<String, String>,
    provider: &dyn RelationProvider,
) -> TquelResult<RetrievePlan> {
    let mut binder = Binder::new(ranges, provider);

    // Bind variables in order of first appearance: targets, where, when,
    // valid.
    for t in &stmt.targets {
        match &t.expr {
            TargetExpr::Attr(r) | TargetExpr::Aggregate(_, r) => binder.bind(&r.var)?,
        }
    }
    if let Some(w) = &stmt.where_clause {
        binder.bind_where_vars(w)?;
    }
    if let Some(w) = &stmt.when_clause {
        binder.bind_when_vars(w)?;
    }
    match &stmt.valid {
        Some(ValidClause::At(e)) => binder.bind_texpr_vars(e)?,
        Some(ValidClause::FromTo(a, b)) => {
            binder.bind_texpr_vars(a)?;
            binder.bind_texpr_vars(b)?;
        }
        None => {}
    }

    let vars = binder.vars;
    let var_index: HashMap<&str, usize> = vars
        .iter()
        .enumerate()
        .map(|(i, v)| (v.name.as_str(), i))
        .collect();

    // Resolve targets.
    let aggregated = stmt
        .targets
        .iter()
        .any(|t| matches!(t.expr, TargetExpr::Aggregate(..)));
    if aggregated
        && stmt
            .targets
            .iter()
            .any(|t| matches!(t.expr, TargetExpr::Attr(_)))
    {
        return Err(TquelError::Semantic(
            "cannot mix aggregates with plain attributes in a target list \
             (grouping is not supported)"
                .into(),
        ));
    }
    let mut targets = Vec::with_capacity(stmt.targets.len());
    let mut target_vars: Vec<usize> = Vec::new();
    let mut out_attrs: Vec<Attribute> = Vec::new();
    for Target { name, expr } in &stmt.targets {
        let (plan, out_name, out_type, attr) = match expr {
            TargetExpr::Attr(attr) => {
                let (flat, a) = resolve_attr(attr, &vars, &var_index)?;
                (
                    TargetPlan::Attr(flat),
                    name.clone().unwrap_or_else(|| attr.attr.clone()),
                    a.attr_type(),
                    attr,
                )
            }
            TargetExpr::Aggregate(func, attr) => {
                let (flat, a) = resolve_attr(attr, &vars, &var_index)?;
                let ty = aggregate_type(*func, a.attr_type(), &attr.attr)?;
                (
                    TargetPlan::Aggregate(*func, flat),
                    name.clone().unwrap_or_else(|| func.as_str().to_string()),
                    ty,
                    attr,
                )
            }
        };
        if out_attrs.iter().any(|x| x.name() == out_name) {
            return Err(TquelError::Semantic(format!(
                "duplicate result attribute {out_name:?} (rename with 'name = var.attr')"
            )));
        }
        out_attrs.push(Attribute::new(&out_name, out_type));
        targets.push((out_name, plan));
        let vi = var_index[attr.var.as_str()];
        if !target_vars.contains(&vi) {
            target_vars.push(vi);
        }
    }
    let out_schema = Schema::new(out_attrs).map_err(|e| TquelError::Semantic(e.to_string()))?;

    // Lower the where clause.
    let predicate = match &stmt.where_clause {
        Some(w) => lower_where(w, &vars, &var_index)?,
        None => Predicate::True,
    };

    // Lower the when clause; variables in temporal positions must carry
    // valid time.
    let when = match &stmt.when_clause {
        Some(w) => lower_when(w, &vars, &var_index)?,
        None => TemporalPred::True,
    };

    // Lower the valid clause.
    let valid = match &stmt.valid {
        Some(ValidClause::At(e)) => Some(ValidPlan::At(lower_texpr(e, &vars, &var_index)?)),
        Some(ValidClause::FromTo(a, b)) => Some(ValidPlan::FromTo(
            lower_texpr(a, &vars, &var_index)?,
            lower_texpr(b, &vars, &var_index)?,
        )),
        None => None,
    };

    // Resolve the as-of clause (constants only) and check capability.
    let as_of = match &stmt.as_of {
        Some(clause) => Some(resolve_as_of(clause)?),
        None => None,
    };
    if as_of.is_some() {
        for v in &vars {
            if !v.has_transaction_time() {
                return Err(TquelError::Semantic(format!(
                    "'as of' requires rollback support, but {} ranges over {} — a {} relation",
                    v.name, v.relation, v.info.class
                )));
            }
        }
    }

    // Result class: an explicit valid clause always yields a
    // timestamped result; otherwise the result inherits valid time from
    // the target-list variables.  Aggregates summarize over time and
    // yield a pure static relation.
    let result_valid =
        !aggregated && (valid.is_some() || target_vars.iter().any(|&i| vars[i].has_valid_time()));
    let result_tx = result_valid
        && !target_vars.is_empty()
        && target_vars
            .iter()
            .all(|&i| vars[i].info.class == RelationClass::Temporal);
    let result_signature = match &valid {
        Some(ValidPlan::At(_)) => TemporalSignature::Event,
        Some(ValidPlan::FromTo(..)) => TemporalSignature::Interval,
        None => {
            // Inherit: event only if every timestamped target var is event.
            let sigs: Vec<TemporalSignature> = target_vars
                .iter()
                .filter(|&&i| vars[i].has_valid_time())
                .map(|&i| vars[i].info.signature)
                .collect();
            if !sigs.is_empty() && sigs.iter().all(|s| *s == TemporalSignature::Event) {
                TemporalSignature::Event
            } else {
                TemporalSignature::Interval
            }
        }
    };

    Ok(RetrievePlan {
        into: stmt.into.clone(),
        vars,
        targets,
        aggregated,
        target_vars,
        predicate,
        when,
        valid,
        as_of,
        result_valid,
        result_tx,
        result_signature,
        out_schema,
    })
}

struct Binder<'a> {
    ranges: &'a HashMap<String, String>,
    provider: &'a dyn RelationProvider,
    vars: Vec<VarBinding>,
    next_offset: usize,
}

impl<'a> Binder<'a> {
    fn new(ranges: &'a HashMap<String, String>, provider: &'a dyn RelationProvider) -> Self {
        Binder {
            ranges,
            provider,
            vars: Vec::new(),
            next_offset: 0,
        }
    }

    fn bind(&mut self, var: &str) -> TquelResult<()> {
        if self.vars.iter().any(|v| v.name == var) {
            return Ok(());
        }
        let relation = self.ranges.get(var).ok_or_else(|| {
            TquelError::Semantic(format!(
                "range variable {var:?} is not declared (use 'range of {var} is <relation>')"
            ))
        })?;
        let info = self
            .provider
            .info(relation)
            .ok_or_else(|| TquelError::Semantic(format!("unknown relation {relation:?}")))?;
        let offset = self.next_offset;
        self.next_offset += info.schema.arity();
        self.vars.push(VarBinding {
            name: var.to_string(),
            relation: relation.clone(),
            info,
            offset,
        });
        Ok(())
    }

    fn bind_where_vars(&mut self, w: &WhereExpr) -> TquelResult<()> {
        match w {
            WhereExpr::Cmp(_, a, b) => {
                for op in [a, b] {
                    if let Operand::Attr(r) = op {
                        self.bind(&r.var)?;
                    }
                }
                Ok(())
            }
            WhereExpr::And(a, b) | WhereExpr::Or(a, b) => {
                self.bind_where_vars(a)?;
                self.bind_where_vars(b)
            }
            WhereExpr::Not(a) => self.bind_where_vars(a),
        }
    }

    fn bind_when_vars(&mut self, w: &WhenExpr) -> TquelResult<()> {
        match w {
            WhenExpr::Overlap(a, b) | WhenExpr::Precede(a, b) | WhenExpr::Equal(a, b) => {
                self.bind_texpr_vars(a)?;
                self.bind_texpr_vars(b)
            }
            WhenExpr::And(a, b) | WhenExpr::Or(a, b) => {
                self.bind_when_vars(a)?;
                self.bind_when_vars(b)
            }
            WhenExpr::Not(a) => self.bind_when_vars(a),
        }
    }

    fn bind_texpr_vars(&mut self, e: &TexprAst) -> TquelResult<()> {
        match e {
            TexprAst::Var(v) => self.bind(v),
            TexprAst::Date(_) | TexprAst::Forever => Ok(()),
            TexprAst::StartOf(a) | TexprAst::EndOf(a) => self.bind_texpr_vars(a),
            TexprAst::Extend(a, b) | TexprAst::Overlap(a, b) => {
                self.bind_texpr_vars(a)?;
                self.bind_texpr_vars(b)
            }
        }
    }
}

fn resolve_attr<'v>(
    r: &AttrRef,
    vars: &'v [VarBinding],
    var_index: &HashMap<&str, usize>,
) -> TquelResult<(usize, &'v Attribute)> {
    let vi = *var_index.get(r.var.as_str()).ok_or_else(|| {
        TquelError::Semantic(format!("range variable {:?} is not declared", r.var))
    })?;
    let v = &vars[vi];
    let ai = v.info.schema.index_of(&r.attr).ok_or_else(|| {
        TquelError::Semantic(format!(
            "relation {:?} has no attribute {:?} (schema {})",
            v.relation, r.attr, v.info.schema
        ))
    })?;
    Ok((v.offset + ai, v.info.schema.attribute(ai)))
}

fn operand_type(
    op: &Operand,
    vars: &[VarBinding],
    var_index: &HashMap<&str, usize>,
) -> TquelResult<(Expr, AttrType)> {
    match op {
        Operand::Attr(r) => {
            let (flat, a) = resolve_attr(r, vars, var_index)?;
            Ok((Expr::Attr(flat), a.attr_type()))
        }
        Operand::Str(s) => {
            // A quoted literal compared against a date attribute is a
            // date; the executor handles that coercion at lowering time
            // (see lower_where).
            Ok((Expr::Const(Value::str(s)), AttrType::Str))
        }
        Operand::Int(i) => Ok((Expr::Const(Value::Int(*i)), AttrType::Int)),
        Operand::Float(x) => Ok((Expr::Const(Value::Float(*x)), AttrType::Float)),
    }
}

fn lower_where(
    w: &WhereExpr,
    vars: &[VarBinding],
    var_index: &HashMap<&str, usize>,
) -> TquelResult<Predicate> {
    match w {
        WhereExpr::Cmp(op, a, b) => {
            let (mut ea, mut ta) = operand_type(a, vars, var_index)?;
            let (mut eb, mut tb) = operand_type(b, vars, var_index)?;
            // Coerce string literals to dates when compared with a date
            // attribute (user-defined time: "merely a date" §4.5).
            if ta == AttrType::Date && tb == AttrType::Str {
                if let (Expr::Const(Value::Str(s)), Operand::Str(_)) = (&eb, b) {
                    let c = date(s).map_err(|e| TquelError::Semantic(e.to_string()))?;
                    eb = Expr::Const(Value::Date(c));
                    tb = AttrType::Date;
                }
            }
            if tb == AttrType::Date && ta == AttrType::Str {
                if let (Expr::Const(Value::Str(s)), Operand::Str(_)) = (&ea, a) {
                    let c = date(s).map_err(|e| TquelError::Semantic(e.to_string()))?;
                    ea = Expr::Const(Value::Date(c));
                    ta = AttrType::Date;
                }
            }
            if ta != tb {
                return Err(TquelError::Semantic(format!(
                    "type mismatch in comparison: {ta} vs {tb}"
                )));
            }
            let op = match op {
                CmpOpAst::Eq => CmpOp::Eq,
                CmpOpAst::Ne => CmpOp::Ne,
                CmpOpAst::Lt => CmpOp::Lt,
                CmpOpAst::Le => CmpOp::Le,
                CmpOpAst::Gt => CmpOp::Gt,
                CmpOpAst::Ge => CmpOp::Ge,
            };
            Ok(Predicate::Cmp(op, ea, eb))
        }
        WhereExpr::And(a, b) => {
            Ok(lower_where(a, vars, var_index)?.and(lower_where(b, vars, var_index)?))
        }
        WhereExpr::Or(a, b) => {
            Ok(lower_where(a, vars, var_index)?.or(lower_where(b, vars, var_index)?))
        }
        WhereExpr::Not(a) => Ok(lower_where(a, vars, var_index)?.not()),
    }
}

fn lower_when(
    w: &WhenExpr,
    vars: &[VarBinding],
    var_index: &HashMap<&str, usize>,
) -> TquelResult<TemporalPred> {
    match w {
        WhenExpr::Overlap(a, b) => Ok(TemporalPred::Overlap(
            lower_texpr(a, vars, var_index)?,
            lower_texpr(b, vars, var_index)?,
        )),
        WhenExpr::Precede(a, b) => Ok(TemporalPred::Precede(
            lower_texpr(a, vars, var_index)?,
            lower_texpr(b, vars, var_index)?,
        )),
        WhenExpr::Equal(a, b) => Ok(TemporalPred::Equal(
            lower_texpr(a, vars, var_index)?,
            lower_texpr(b, vars, var_index)?,
        )),
        WhenExpr::And(a, b) => {
            Ok(lower_when(a, vars, var_index)?.and(lower_when(b, vars, var_index)?))
        }
        WhenExpr::Or(a, b) => Ok(TemporalPred::Or(
            Box::new(lower_when(a, vars, var_index)?),
            Box::new(lower_when(b, vars, var_index)?),
        )),
        WhenExpr::Not(a) => Ok(TemporalPred::Not(Box::new(lower_when(a, vars, var_index)?))),
    }
}

fn lower_texpr(
    e: &TexprAst,
    vars: &[VarBinding],
    var_index: &HashMap<&str, usize>,
) -> TquelResult<TemporalExpr> {
    match e {
        TexprAst::Var(v) => {
            let vi = *var_index.get(v.as_str()).ok_or_else(|| {
                TquelError::Semantic(format!("range variable {v:?} is not declared"))
            })?;
            if !vars[vi].has_valid_time() {
                return Err(TquelError::Semantic(format!(
                    "{v:?} ranges over a {} relation, which carries no valid time",
                    vars[vi].info.class
                )));
            }
            Ok(TemporalExpr::Var(vi))
        }
        TexprAst::Date(s) => {
            let c = date(s).map_err(|e| TquelError::Semantic(e.to_string()))?;
            Ok(TemporalExpr::Const(Period::instant(c)))
        }
        TexprAst::Forever => Ok(TemporalExpr::Const(Period::instant_at(
            chronos_core::timepoint::TimePoint::PlusInfinity,
        ))),
        TexprAst::StartOf(a) => Ok(lower_texpr(a, vars, var_index)?.start_of()),
        TexprAst::EndOf(a) => Ok(lower_texpr(a, vars, var_index)?.end_of()),
        TexprAst::Extend(a, b) => {
            Ok(lower_texpr(a, vars, var_index)?.extend(lower_texpr(b, vars, var_index)?))
        }
        TexprAst::Overlap(a, b) => Ok(TemporalExpr::Intersect(
            Box::new(lower_texpr(a, vars, var_index)?),
            Box::new(lower_texpr(b, vars, var_index)?),
        )),
    }
}

/// Resolves an `as of` clause, which must be constant (no range
/// variables).
pub fn resolve_as_of(clause: &AsOfClause) -> TquelResult<AsOfSpec> {
    let at = const_instant(&clause.at)?;
    match &clause.through {
        None => Ok(AsOfSpec::At(at)),
        Some(e) => {
            let through = const_instant(e)?;
            if through < at {
                return Err(TquelError::Semantic(format!(
                    "'as of … through …' runs backwards: {at} > {through}"
                )));
            }
            Ok(AsOfSpec::Through(at, through))
        }
    }
}

fn const_instant(e: &TexprAst) -> TquelResult<chronos_core::chronon::Chronon> {
    match e {
        TexprAst::Date(s) => date(s).map_err(|e| TquelError::Semantic(e.to_string())),
        other => Err(TquelError::Semantic(format!(
            "'as of' takes a constant date, not {other:?}"
        ))),
    }
}

/// The result type of an aggregate over an attribute of type `ty`.
fn aggregate_type(func: AggFunc, ty: AttrType, attr: &str) -> TquelResult<AttrType> {
    match func {
        AggFunc::Count => Ok(AttrType::Int),
        AggFunc::Min | AggFunc::Max => Ok(ty),
        AggFunc::Sum => match ty {
            AttrType::Int | AttrType::Float => Ok(ty),
            other => Err(TquelError::Semantic(format!(
                "sum over non-numeric attribute {attr:?} ({other})"
            ))),
        },
        AggFunc::Avg => match ty {
            AttrType::Int | AttrType::Float => Ok(AttrType::Float),
            other => Err(TquelError::Semantic(format!(
                "avg over non-numeric attribute {attr:?} ({other})"
            ))),
        },
    }
}

/// Lowers a `where` clause that may reference only the single variable
/// `var` ranging over `info` (used by `delete`/`replace`, whose target
/// rows come from one relation).
pub fn analyze_where_single(
    w: &WhereExpr,
    var: &str,
    info: &RelationInfo,
) -> TquelResult<Predicate> {
    let vars = vec![VarBinding {
        name: var.to_string(),
        relation: String::new(),
        info: info.clone(),
        offset: 0,
    }];
    let var_index: HashMap<&str, usize> = [(var, 0usize)].into_iter().collect();
    lower_where(w, &vars, &var_index)
}

/// Lowers a constant `valid` clause (no range variables) for
/// modification statements.
pub fn analyze_valid_const(v: &ValidClause) -> TquelResult<ValidPlan> {
    let vars: Vec<VarBinding> = Vec::new();
    let var_index: HashMap<&str, usize> = HashMap::new();
    match v {
        ValidClause::At(e) => Ok(ValidPlan::At(lower_texpr(e, &vars, &var_index)?)),
        ValidClause::FromTo(a, b) => Ok(ValidPlan::FromTo(
            lower_texpr(a, &vars, &var_index)?,
            lower_texpr(b, &vars, &var_index)?,
        )),
    }
}
