//! Abstract syntax for the supported HiveQL subset.

use std::fmt;

/// A literal value in a query.
#[derive(Debug, Clone, PartialEq)]
pub enum Literal {
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// Single-quoted string literal.
    Str(String),
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Literal::Int(v) => write!(f, "{v}"),
            Literal::Float(v) => write!(f, "{v}"),
            Literal::Str(v) => write!(f, "'{v}'"),
        }
    }
}

/// Comparison operators in the surface syntax.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `!=` or `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        f.write_str(s)
    }
}

/// A boolean expression over named columns.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// `column <op> literal`
    Cmp {
        /// Column name.
        column: String,
        /// Operator.
        op: CmpOp,
        /// Literal operand.
        literal: Literal,
    },
    /// `column BETWEEN low AND high`
    Between {
        /// Column name.
        column: String,
        /// Inclusive lower bound.
        low: Literal,
        /// Inclusive upper bound.
        high: Literal,
    },
    /// `a AND b`
    And(Box<Expr>, Box<Expr>),
    /// `a OR b`
    Or(Box<Expr>, Box<Expr>),
    /// `NOT a`
    Not(Box<Expr>),
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Cmp {
                column,
                op,
                literal,
            } => write!(f, "{column} {op} {literal}"),
            Expr::Between { column, low, high } => write!(f, "{column} BETWEEN {low} AND {high}"),
            Expr::And(a, b) => write!(f, "({a} AND {b})"),
            Expr::Or(a, b) => write!(f, "({a} OR {b})"),
            Expr::Not(a) => write!(f, "NOT {a}"),
        }
    }
}

/// An aggregate function in the SELECT list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// `COUNT(*)` / `COUNT(col)`
    Count,
    /// `SUM(col)`
    Sum,
    /// `AVG(col)`
    Avg,
    /// `MIN(col)`
    Min,
    /// `MAX(col)`
    Max,
}

impl AggFunc {
    /// Parse a function name (case-insensitive).
    pub fn from_name(name: &str) -> Option<AggFunc> {
        match name.to_ascii_uppercase().as_str() {
            "COUNT" => Some(AggFunc::Count),
            "SUM" => Some(AggFunc::Sum),
            "AVG" => Some(AggFunc::Avg),
            "MIN" => Some(AggFunc::Min),
            "MAX" => Some(AggFunc::Max),
            _ => None,
        }
    }
}

impl fmt::Display for AggFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AggFunc::Count => "COUNT",
            AggFunc::Sum => "SUM",
            AggFunc::Avg => "AVG",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
        };
        f.write_str(s)
    }
}

/// One aggregate expression: function plus optional column (`None` for
/// `COUNT(*)`).
#[derive(Debug, Clone, PartialEq)]
pub struct AggExpr {
    /// The function.
    pub func: AggFunc,
    /// The argument column (`None` only for `COUNT(*)`).
    pub column: Option<String>,
}

impl fmt::Display for AggExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.column {
            Some(c) => write!(f, "{}({c})", self.func),
            None => write!(f, "{}(*)", self.func),
        }
    }
}

/// The SELECT list.
#[derive(Debug, Clone, PartialEq)]
pub enum Projection {
    /// `SELECT *`
    Star,
    /// Explicit columns, in order.
    Columns(Vec<String>),
    /// Aggregates (whole-table, or per-group with `GROUP BY`).
    Aggregates(Vec<AggExpr>),
}

/// The `WITH ERROR e CONFIDENCE c` clause: request an approximate answer
/// whose per-group relative error is at most `error` with probability at
/// least `confidence`. The parser rejects values outside (0, 1); the
/// compiler puts the bound on the job's `AggPlan` as is.
pub use incmr_mapreduce::ErrorBound;

/// A parsed `SELECT` query.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// What to project.
    pub projection: Projection,
    /// The table scanned.
    pub table: String,
    /// Optional `WHERE` clause.
    pub predicate: Option<Expr>,
    /// Optional `GROUP BY` column (single-column grouping in this subset).
    pub group_by: Option<String>,
    /// Optional `WITH ERROR e CONFIDENCE c` — the approximate-answer
    /// trigger.
    pub error_bound: Option<ErrorBound>,
    /// Optional `LIMIT k` — the sample size trigger.
    pub limit: Option<u64>,
}

/// What a `SHOW` statement lists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShowKind {
    /// `SHOW TABLES` — registered catalog tables.
    Tables,
    /// `SHOW POLICIES` — the session's policy registry.
    Policies,
}

/// A top-level statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// A query.
    Select(Query),
    /// `SHOW TABLES` / `SHOW POLICIES`.
    Show(ShowKind),
    /// `SET key = value;` — session configuration (e.g. the policy).
    Set {
        /// Configuration key.
        key: String,
        /// Configuration value.
        value: String,
    },
    /// `EXPLAIN <query>` — show the compiled plan without running it.
    Explain(Query),
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SELECT ")?;
        match &self.projection {
            Projection::Star => write!(f, "*")?,
            Projection::Columns(cs) => write!(f, "{}", cs.join(", "))?,
            Projection::Aggregates(aggs) => {
                let parts: Vec<String> = aggs.iter().map(|a| a.to_string()).collect();
                write!(f, "{}", parts.join(", "))?;
            }
        }
        write!(f, " FROM {}", self.table)?;
        if let Some(p) = &self.predicate {
            write!(f, " WHERE {p}")?;
        }
        if let Some(g) = &self.group_by {
            write!(f, " GROUP BY {g}")?;
        }
        if let Some(b) = &self.error_bound {
            write!(f, " WITH ERROR {} CONFIDENCE {}", b.error, b.confidence)?;
        }
        if let Some(k) = self.limit {
            write!(f, " LIMIT {k}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_display_round_trip_shape() {
        let q = Query {
            projection: Projection::Columns(vec!["a".into(), "b".into()]),
            table: "t".into(),
            predicate: Some(Expr::And(
                Box::new(Expr::Cmp {
                    column: "a".into(),
                    op: CmpOp::Ge,
                    literal: Literal::Int(3),
                }),
                Box::new(Expr::Not(Box::new(Expr::Cmp {
                    column: "b".into(),
                    op: CmpOp::Eq,
                    literal: Literal::Str("x".into()),
                }))),
            )),
            group_by: None,
            error_bound: None,
            limit: Some(10),
        };
        assert_eq!(
            q.to_string(),
            "SELECT a, b FROM t WHERE (a >= 3 AND NOT b = 'x') LIMIT 10"
        );
    }

    #[test]
    fn star_displays() {
        let q = Query {
            projection: Projection::Star,
            table: "t".into(),
            predicate: None,
            group_by: None,
            error_bound: None,
            limit: None,
        };
        assert_eq!(q.to_string(), "SELECT * FROM t");
    }

    #[test]
    fn grouped_error_bound_displays() {
        let q = Query {
            projection: Projection::Aggregates(vec![AggExpr {
                func: AggFunc::Sum,
                column: Some("qty".into()),
            }]),
            table: "t".into(),
            predicate: None,
            group_by: Some("flag".into()),
            error_bound: Some(ErrorBound {
                error: 0.05,
                confidence: 0.95,
            }),
            limit: None,
        };
        assert_eq!(
            q.to_string(),
            "SELECT SUM(qty) FROM t GROUP BY flag WITH ERROR 0.05 CONFIDENCE 0.95"
        );
    }
}
