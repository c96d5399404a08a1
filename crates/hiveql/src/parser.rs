//! Recursive-descent parser for the HiveQL subset.
//!
//! Grammar (keywords case-insensitive):
//!
//! ```text
//! statement := select | "SET" ident "=" value | "EXPLAIN" select
//! select    := "SELECT" projection "FROM" ident [ "WHERE" or_expr ]
//!              [ "GROUP" "BY" ident ]
//!              [ "WITH" "ERROR" number [ "CONFIDENCE" number ] ]
//!              [ "LIMIT" int ] [";"]
//! projection:= "*" | ident ("," ident)*
//! or_expr   := and_expr ("OR" and_expr)*
//! and_expr  := not_expr ("AND" not_expr)*
//! not_expr  := "NOT" not_expr | primary
//! primary   := "(" or_expr ")" | ident cmp literal | ident "BETWEEN" literal "AND" literal
//! ```

use std::fmt;

use crate::ast::{
    AggExpr, AggFunc, CmpOp, ErrorBound, Expr, Literal, Projection, Query, ShowKind, Statement,
};
use crate::lexer::{lex, LexError, Token};

enum SelectItem {
    Column(String),
    Aggregate(AggExpr),
}

/// A parse failure.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// Description, including what was found.
    pub message: String,
}

impl ParseError {
    fn new(message: impl Into<String>) -> Self {
        ParseError {
            message: message.into(),
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error: {}", self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError::new(e.to_string())
    }
}

/// Parse one statement.
pub fn parse(input: &str) -> Result<Statement, ParseError> {
    let tokens = lex(input)?;
    let mut p = Parser { tokens, pos: 0 };
    let stmt = p.statement()?;
    p.eat_semi();
    if !p.at_end() {
        return Err(ParseError::new(format!(
            "trailing input starting at {}",
            p.peek_desc()
        )));
    }
    Ok(stmt)
}

/// How an error message names a token: as it reads in the statement, or
/// `end of input` when the statement ran out.
fn describe(token: Option<&Token>) -> String {
    token.map_or_else(|| "end of input".into(), Token::to_string)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn peek_desc(&self) -> String {
        describe(self.peek())
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.peek().is_some_and(|t| t.is_kw(kw)) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), ParseError> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(ParseError::new(format!(
                "expected {kw}, found {}",
                self.peek_desc()
            )))
        }
    }

    fn eat_semi(&mut self) {
        while self.peek() == Some(&Token::Semi) {
            self.pos += 1;
        }
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        match self.next() {
            Some(Token::Ident(s)) => Ok(s),
            other => Err(ParseError::new(format!(
                "expected an identifier, found {}",
                describe(other.as_ref())
            ))),
        }
    }

    fn statement(&mut self) -> Result<Statement, ParseError> {
        if self.eat_kw("SET") {
            let key = self.ident()?;
            if self.next() != Some(Token::Eq) {
                return Err(ParseError::new("expected '=' in SET"));
            }
            let value = match self.next() {
                Some(Token::Ident(s)) => s,
                Some(Token::Str(s)) => s,
                Some(Token::Int(v)) => v.to_string(),
                Some(Token::Float(v)) => v.to_string(),
                other => {
                    return Err(ParseError::new(format!(
                        "expected a value in SET, found {}",
                        describe(other.as_ref())
                    )))
                }
            };
            return Ok(Statement::Set { key, value });
        }
        if self.eat_kw("EXPLAIN") {
            return Ok(Statement::Explain(self.select()?));
        }
        if self.eat_kw("SHOW") {
            if self.eat_kw("TABLES") {
                return Ok(Statement::Show(ShowKind::Tables));
            }
            if self.eat_kw("POLICIES") {
                return Ok(Statement::Show(ShowKind::Policies));
            }
            return Err(ParseError::new(format!(
                "expected TABLES or POLICIES after SHOW, found {}",
                self.peek_desc()
            )));
        }
        Ok(Statement::Select(self.select()?))
    }

    fn select(&mut self) -> Result<Query, ParseError> {
        self.expect_kw("SELECT")?;
        let projection = if self.peek() == Some(&Token::Star) {
            self.pos += 1;
            Projection::Star
        } else {
            // Either a column list or an aggregate list; the first item
            // decides (mixing is not supported in this subset).
            let first = self.select_item()?;
            match first {
                SelectItem::Column(c) => {
                    let mut cols = vec![c];
                    while self.peek() == Some(&Token::Comma) {
                        self.pos += 1;
                        match self.select_item()? {
                            SelectItem::Column(c) => cols.push(c),
                            SelectItem::Aggregate(a) => {
                                return Err(ParseError::new(format!(
                                    "cannot mix columns and aggregates (saw {a})"
                                )))
                            }
                        }
                    }
                    Projection::Columns(cols)
                }
                SelectItem::Aggregate(a) => {
                    let mut aggs = vec![a];
                    while self.peek() == Some(&Token::Comma) {
                        self.pos += 1;
                        match self.select_item()? {
                            SelectItem::Aggregate(a) => aggs.push(a),
                            SelectItem::Column(c) => {
                                return Err(ParseError::new(format!(
                                    "cannot mix aggregates and columns (saw {c}); group with GROUP BY instead"
                                )))
                            }
                        }
                    }
                    Projection::Aggregates(aggs)
                }
            }
        };
        self.expect_kw("FROM")?;
        let table = self.ident()?;
        let predicate = if self.eat_kw("WHERE") {
            Some(self.or_expr()?)
        } else {
            None
        };
        let group_by = if self.eat_kw("GROUP") {
            self.expect_kw("BY")?;
            Some(self.ident()?)
        } else {
            None
        };
        let error_bound = if self.eat_kw("WITH") {
            self.expect_kw("ERROR")?;
            let error = self.open_unit_fraction("WITH ERROR")?;
            let confidence = if self.eat_kw("CONFIDENCE") {
                self.open_unit_fraction("CONFIDENCE")?
            } else {
                ErrorBound::DEFAULT_CONFIDENCE
            };
            Some(ErrorBound { error, confidence })
        } else {
            None
        };
        let limit = if self.eat_kw("LIMIT") {
            match self.next() {
                Some(Token::Int(v)) if v > 0 => Some(v as u64),
                other => {
                    return Err(ParseError::new(format!(
                        "LIMIT needs a positive integer, found {}",
                        describe(other.as_ref())
                    )))
                }
            }
        } else {
            None
        };
        Ok(Query {
            projection,
            table,
            predicate,
            group_by,
            error_bound,
            limit,
        })
    }

    /// A numeric literal strictly inside (0, 1) — the shared domain of
    /// `WITH ERROR` and `CONFIDENCE` operands.
    fn open_unit_fraction(&mut self, clause: &str) -> Result<f64, ParseError> {
        let v = match self.next() {
            Some(Token::Float(v)) => v,
            Some(Token::Int(v)) => v as f64,
            other => {
                return Err(ParseError::new(format!(
                    "{clause} needs a number, found {}",
                    describe(other.as_ref())
                )))
            }
        };
        if !(v > 0.0 && v < 1.0) {
            return Err(ParseError::new(format!(
                "{clause} must be strictly between 0 and 1, got {v}"
            )));
        }
        Ok(v)
    }

    /// One SELECT-list item: a bare column, or `FUNC(col)` / `COUNT(*)`.
    fn select_item(&mut self) -> Result<SelectItem, ParseError> {
        let name = self.ident()?;
        if self.peek() != Some(&Token::LParen) {
            return Ok(SelectItem::Column(name));
        }
        let Some(func) = AggFunc::from_name(&name) else {
            return Err(ParseError::new(format!("unknown function {name:?}")));
        };
        self.pos += 1; // '('
        let column = match self.next() {
            Some(Token::Star) => {
                if func != AggFunc::Count {
                    return Err(ParseError::new(format!(
                        "{func}(*) is not valid; only COUNT(*)"
                    )));
                }
                None
            }
            Some(Token::Ident(c)) => Some(c),
            other => {
                return Err(ParseError::new(format!(
                    "expected a column or * in {func}(), found {}",
                    describe(other.as_ref())
                )))
            }
        };
        if self.next() != Some(Token::RParen) {
            return Err(ParseError::new(format!(
                "expected ')' after {func} argument"
            )));
        }
        Ok(SelectItem::Aggregate(AggExpr { func, column }))
    }

    fn or_expr(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.and_expr()?;
        while self.eat_kw("OR") {
            let right = self.and_expr()?;
            left = Expr::Or(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn and_expr(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.not_expr()?;
        while self.eat_kw("AND") {
            let right = self.not_expr()?;
            left = Expr::And(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn not_expr(&mut self) -> Result<Expr, ParseError> {
        if self.eat_kw("NOT") {
            return Ok(Expr::Not(Box::new(self.not_expr()?)));
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<Expr, ParseError> {
        if self.peek() == Some(&Token::LParen) {
            self.pos += 1;
            let e = self.or_expr()?;
            if self.next() != Some(Token::RParen) {
                return Err(ParseError::new("expected ')'"));
            }
            return Ok(e);
        }
        let column = self.ident()?;
        if self.eat_kw("BETWEEN") {
            let low = self.literal()?;
            self.expect_kw("AND")?;
            let high = self.literal()?;
            return Ok(Expr::Between { column, low, high });
        }
        let op = match self.next() {
            Some(Token::Eq) => CmpOp::Eq,
            Some(Token::Ne) => CmpOp::Ne,
            Some(Token::Lt) => CmpOp::Lt,
            Some(Token::Le) => CmpOp::Le,
            Some(Token::Gt) => CmpOp::Gt,
            Some(Token::Ge) => CmpOp::Ge,
            other => {
                return Err(ParseError::new(format!(
                    "expected a comparison operator, found {}",
                    describe(other.as_ref())
                )))
            }
        };
        let literal = self.literal()?;
        Ok(Expr::Cmp {
            column,
            op,
            literal,
        })
    }

    fn literal(&mut self) -> Result<Literal, ParseError> {
        match self.next() {
            Some(Token::Int(v)) => Ok(Literal::Int(v)),
            Some(Token::Float(v)) => Ok(Literal::Float(v)),
            Some(Token::Str(s)) => Ok(Literal::Str(s)),
            other => Err(ParseError::new(format!(
                "expected a literal, found {}",
                describe(other.as_ref())
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(sql: &str) -> Query {
        match parse(sql).unwrap() {
            Statement::Select(q) => q,
            other => panic!("expected SELECT, got {other:?}"),
        }
    }

    #[test]
    fn parses_the_paper_template() {
        let query =
            q("SELECT ORDERKEY, PARTKEY, SUPPKEY FROM LINEITEM WHERE L_TAX = 0.77 LIMIT 10000");
        assert_eq!(
            query.projection,
            Projection::Columns(vec!["ORDERKEY".into(), "PARTKEY".into(), "SUPPKEY".into()])
        );
        assert_eq!(query.table, "LINEITEM");
        assert_eq!(query.limit, Some(10_000));
        assert!(matches!(query.predicate, Some(Expr::Cmp { .. })));
    }

    #[test]
    fn keywords_are_case_insensitive() {
        let query = q("select * from t where a = 1 limit 5;");
        assert_eq!(query.projection, Projection::Star);
        assert_eq!(query.limit, Some(5));
    }

    #[test]
    fn boolean_precedence_and_binds_tighter_than_or() {
        let query = q("SELECT * FROM t WHERE a = 1 OR b = 2 AND c = 3");
        let Some(Expr::Or(_, rhs)) = &query.predicate else {
            panic!("OR at top: {:?}", query.predicate)
        };
        assert!(matches!(**rhs, Expr::And(_, _)));
    }

    #[test]
    fn parens_override_precedence() {
        let query = q("SELECT * FROM t WHERE (a = 1 OR b = 2) AND c = 3");
        assert!(matches!(query.predicate, Some(Expr::And(_, _))));
    }

    #[test]
    fn not_and_between() {
        let query = q("SELECT * FROM t WHERE NOT a BETWEEN 1 AND 5");
        let Some(Expr::Not(inner)) = &query.predicate else {
            panic!()
        };
        assert!(matches!(**inner, Expr::Between { .. }));
    }

    #[test]
    fn set_statement() {
        let s = parse("SET dynamic.job.policy = LA;").unwrap();
        assert_eq!(
            s,
            Statement::Set {
                key: "dynamic.job.policy".into(),
                value: "LA".into()
            }
        );
    }

    #[test]
    fn explain_statement() {
        let s = parse("EXPLAIN SELECT * FROM t LIMIT 3").unwrap();
        assert!(matches!(s, Statement::Explain(_)));
    }

    #[test]
    fn aggregates_parse() {
        use crate::ast::{AggExpr, AggFunc};
        let query =
            q("SELECT COUNT(*), AVG(L_QUANTITY), MAX(L_TAX) FROM lineitem WHERE L_TAX = 0.77");
        assert_eq!(
            query.projection,
            Projection::Aggregates(vec![
                AggExpr {
                    func: AggFunc::Count,
                    column: None
                },
                AggExpr {
                    func: AggFunc::Avg,
                    column: Some("L_QUANTITY".into())
                },
                AggExpr {
                    func: AggFunc::Max,
                    column: Some("L_TAX".into())
                },
            ])
        );
    }

    #[test]
    fn aggregate_errors() {
        assert!(parse("SELECT SUM(*) FROM t").is_err(), "only COUNT takes *");
        assert!(parse("SELECT FROB(x) FROM t").is_err(), "unknown function");
        assert!(parse("SELECT COUNT(*), x FROM t").is_err(), "no mixing");
        assert!(
            parse("SELECT x, COUNT(*) FROM t").is_err(),
            "no mixing either way"
        );
        assert!(parse("SELECT COUNT( FROM t").is_err());
    }

    #[test]
    fn group_by_and_error_bound_parse() {
        let query = q("SELECT SUM(L_QUANTITY) FROM lineitem WHERE L_TAX = 0.77 \
             GROUP BY L_RETURNFLAG WITH ERROR 0.05 CONFIDENCE 0.9");
        assert_eq!(query.group_by.as_deref(), Some("L_RETURNFLAG"));
        assert_eq!(
            query.error_bound,
            Some(ErrorBound {
                error: 0.05,
                confidence: 0.9
            })
        );
    }

    #[test]
    fn confidence_defaults_when_omitted() {
        let query = q("SELECT COUNT(*) FROM t WITH ERROR 0.1");
        assert_eq!(
            query.error_bound,
            Some(ErrorBound {
                error: 0.1,
                confidence: ErrorBound::DEFAULT_CONFIDENCE
            })
        );
        assert_eq!(query.group_by, None);
    }

    #[test]
    fn error_bound_display_round_trips() {
        let sql = "SELECT SUM(q) FROM t GROUP BY g WITH ERROR 0.05 CONFIDENCE 0.95";
        let query = q(sql);
        assert_eq!(query.to_string(), sql);
        assert_eq!(q(&query.to_string()), query);
    }

    #[test]
    fn error_bound_operands_must_be_open_unit_fractions() {
        for bad in [
            "SELECT COUNT(*) FROM t WITH ERROR 0",
            "SELECT COUNT(*) FROM t WITH ERROR 0.0",
            "SELECT COUNT(*) FROM t WITH ERROR 1",
            "SELECT COUNT(*) FROM t WITH ERROR 1.5",
            "SELECT COUNT(*) FROM t WITH ERROR -0.1",
            "SELECT COUNT(*) FROM t WITH ERROR 0.05 CONFIDENCE 0",
            "SELECT COUNT(*) FROM t WITH ERROR 0.05 CONFIDENCE 1",
            "SELECT COUNT(*) FROM t WITH ERROR 0.05 CONFIDENCE 2.5",
        ] {
            let err = parse(bad).unwrap_err();
            assert!(
                err.message.contains("strictly between 0 and 1")
                    || err.message.contains("needs a number"),
                "{bad}: {err}"
            );
        }
        assert!(parse("SELECT COUNT(*) FROM t WITH ERROR").is_err());
        assert!(parse("SELECT COUNT(*) FROM t WITH ERROR x").is_err());
        assert!(parse("SELECT COUNT(*) FROM t WITH 0.05").is_err());
        assert!(parse("SELECT * FROM t GROUP BY").is_err());
        assert!(parse("SELECT * FROM t GROUP x").is_err());
    }

    #[test]
    fn error_cases() {
        assert!(parse("SELECT FROM t").is_err());
        assert!(parse("SELECT * FROM").is_err());
        assert!(parse("SELECT * FROM t WHERE").is_err());
        assert!(
            parse("SELECT * FROM t LIMIT 0").is_err(),
            "LIMIT must be positive"
        );
        assert!(parse("SELECT * FROM t LIMIT -5").is_err());
        assert!(
            parse("SELECT * FROM t extra").is_err(),
            "trailing tokens rejected"
        );
        assert!(parse("SET x").is_err());
    }

    /// Each error names the offending token as the statement spells it, or
    /// `end of input`, never its Rust `Debug` form.
    #[test]
    fn errors_name_the_token_as_written() {
        for (sql, message) in [
            ("SELECT x FROM 5", "expected an identifier, found 5"),
            ("SET k = (", "expected a value in SET, found ("),
            ("SET k =", "expected a value in SET, found end of input"),
            (
                "SELECT COUNT(*) FROM t WHERE L_QUANTITY > 45 LIMIT 0",
                "LIMIT needs a positive integer, found 0",
            ),
            (
                "SELECT * FROM t LIMIT",
                "LIMIT needs a positive integer, found end of input",
            ),
            (
                "SELECT COUNT(*) FROM t WITH ERROR 'x'",
                "WITH ERROR needs a number, found 'x'",
            ),
            (
                "SELECT SUM(2.5) FROM t",
                "expected a column or * in SUM(), found 2.5",
            ),
            (
                "SELECT * FROM t WHERE x LIKE 5",
                "expected a comparison operator, found LIKE",
            ),
            ("SELECT * FROM t WHERE x = y", "expected a literal, found y"),
            ("SELECT * t", "expected FROM, found t"),
            ("SELECT * FROM t x", "trailing input starting at x"),
        ] {
            let err = parse(sql).expect_err(sql);
            assert_eq!(err.message, message, "{sql}");
        }
    }
}
