//! Statement classes: the paper's four kinds of question plus the two
//! modifications the benchmark issues.

use std::collections::BTreeSet;

use chronos_tquel::ast::{
    Operand, Statement, TargetExpr, TexprAst, ValidClause, WhenExpr, WhereExpr,
};

/// The shape a statement is measured under.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Class {
    /// One range variable, no `as of`, no `when` (static question).
    Current,
    /// One range variable with `as of` and no `when` (rollback).
    AsOf,
    /// One range variable with `when`, with or without `as of`
    /// (historical; temporal when both).
    When,
    /// Two or more range variables.
    Join,
    /// `append`.
    Append,
    /// `replace`.
    Replace,
    /// Anything else (declarations, DDL, ...).
    Other,
}

impl Class {
    /// Every class the benchmark reports, in report order.
    pub const MEASURED: [Class; 6] = [
        Class::Current,
        Class::AsOf,
        Class::When,
        Class::Join,
        Class::Append,
        Class::Replace,
    ];

    /// Metric-name stem.
    pub fn name(self) -> &'static str {
        match self {
            Class::Current => "current",
            Class::AsOf => "asof",
            Class::When => "when",
            Class::Join => "join",
            Class::Append => "append",
            Class::Replace => "replace",
            Class::Other => "other",
        }
    }

    /// True for retrieves.
    pub fn is_read(self) -> bool {
        matches!(
            self,
            Class::Current | Class::AsOf | Class::When | Class::Join
        )
    }

    /// True for modifications.
    pub fn is_write(self) -> bool {
        matches!(self, Class::Append | Class::Replace)
    }
}

/// Classes one parsed statement.
pub fn classify(stmt: &Statement) -> Class {
    match stmt {
        Statement::Retrieve(r) => {
            let mut vars = BTreeSet::new();
            for t in &r.targets {
                match &t.expr {
                    TargetExpr::Attr(a) | TargetExpr::Aggregate(_, a) => {
                        vars.insert(a.var.as_str());
                    }
                }
            }
            if let Some(w) = &r.where_clause {
                where_vars(w, &mut vars);
            }
            if let Some(w) = &r.when_clause {
                when_vars(w, &mut vars);
            }
            match &r.valid {
                Some(ValidClause::At(e)) => texpr_vars(e, &mut vars),
                Some(ValidClause::FromTo(a, b)) => {
                    texpr_vars(a, &mut vars);
                    texpr_vars(b, &mut vars);
                }
                None => {}
            }
            if vars.len() >= 2 {
                Class::Join
            } else if r.when_clause.is_some() {
                Class::When
            } else if r.as_of.is_some() {
                Class::AsOf
            } else {
                Class::Current
            }
        }
        Statement::Append { .. } => Class::Append,
        Statement::Replace { .. } => Class::Replace,
        _ => Class::Other,
    }
}

fn where_vars<'a>(w: &'a WhereExpr, vars: &mut BTreeSet<&'a str>) {
    match w {
        WhereExpr::Cmp(_, a, b) => {
            for op in [a, b] {
                if let Operand::Attr(r) = op {
                    vars.insert(r.var.as_str());
                }
            }
        }
        WhereExpr::And(a, b) | WhereExpr::Or(a, b) => {
            where_vars(a, vars);
            where_vars(b, vars);
        }
        WhereExpr::Not(a) => where_vars(a, vars),
    }
}

fn when_vars<'a>(w: &'a WhenExpr, vars: &mut BTreeSet<&'a str>) {
    match w {
        WhenExpr::Overlap(a, b) | WhenExpr::Precede(a, b) | WhenExpr::Equal(a, b) => {
            texpr_vars(a, vars);
            texpr_vars(b, vars);
        }
        WhenExpr::And(a, b) | WhenExpr::Or(a, b) => {
            when_vars(a, vars);
            when_vars(b, vars);
        }
        WhenExpr::Not(a) => when_vars(a, vars),
    }
}

fn texpr_vars<'a>(e: &'a TexprAst, vars: &mut BTreeSet<&'a str>) {
    match e {
        TexprAst::Var(v) => {
            vars.insert(v.as_str());
        }
        TexprAst::Date(_) | TexprAst::Forever => {}
        TexprAst::StartOf(a) | TexprAst::EndOf(a) => texpr_vars(a, vars),
        TexprAst::Extend(a, b) | TexprAst::Overlap(a, b) => {
            texpr_vars(a, vars);
            texpr_vars(b, vars);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chronos_tquel::parser::parse_statement;

    fn class_of(src: &str) -> Class {
        classify(&parse_statement(src).expect("parses"))
    }

    #[test]
    fn one_variable_retrieves_class_by_their_clauses() {
        assert_eq!(
            class_of(r#"retrieve (f.rank) where f.name = "a""#),
            Class::Current
        );
        assert_eq!(
            class_of(r#"retrieve (f.rank) where f.name = "a" as of "01/01/80""#),
            Class::AsOf
        );
        assert_eq!(
            class_of(r#"retrieve (f.rank) where f.name = "a" when f overlap "01/01/80""#),
            Class::When
        );
        // Both clauses: the temporal question is classed `when`.
        assert_eq!(
            class_of(r#"retrieve (n = count(f.name)) when f overlap "01/01/80" as of "01/01/81""#),
            Class::When
        );
    }

    #[test]
    fn a_second_variable_anywhere_makes_a_join() {
        assert_eq!(
            class_of(
                r#"retrieve (a.name, b.name) where a.name = "x" and b.name = "y"
                   when a overlap start of b as of "01/01/80""#
            ),
            Class::Join
        );
        // Only in `when`.
        assert_eq!(
            class_of(r#"retrieve (a.name) when a overlap start of b"#),
            Class::Join
        );
        // The same variable twice is still one variable.
        assert_eq!(
            class_of(r#"retrieve (a.name, a.rank) where a.name = a.rank"#),
            Class::Current
        );
    }

    #[test]
    fn modifications_and_the_rest() {
        assert_eq!(
            class_of(r#"append to faculty (name = "a", rank = "b")"#),
            Class::Append
        );
        assert_eq!(
            class_of(
                r#"replace f (rank = "b") valid from "01/01/80" to forever where f.name = "a""#
            ),
            Class::Replace
        );
        assert_eq!(class_of("range of f is faculty"), Class::Other);
        assert!(Class::Join.is_read() && !Class::Join.is_write());
        assert!(Class::Replace.is_write() && !Class::Replace.is_read());
    }
}
