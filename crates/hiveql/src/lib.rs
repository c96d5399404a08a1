//! # incmr-hiveql
//!
//! A miniature HiveQL front end, playing the role of the paper's modified
//! Hive 0.5.0 compiler (Section IV): queries of the form
//!
//! ```sql
//! SELECT ORDERKEY, PARTKEY, SUPPKEY FROM LINEITEM
//! WHERE L_TAX = 0.77 LIMIT 10000
//! ```
//!
//! compile to a **dynamic** MapReduce job — the compilation path the
//! paper adds to Hive. The paper marks such a job with three conf keys;
//! here each has a typed carrier. The job is submitted with a
//! `DynamicDriver` (`dynamic.job = true`), which holds the configured
//! policy (`dynamic.job.policy`) and the sampling Input Provider
//! (`dynamic.input.provider`). The job's typed `JobSettings` carry the
//! sample size and a semantic memo signature. Queries without a `LIMIT`
//! compile to conventional static scan jobs.
//!
//! Like Hive, the policy is *not* part of the query syntax ("the Hive
//! syntax does not allow specifying the policy as part of the query");
//! users pick it with `SET dynamic.job.policy = LA;` on the session.

pub mod agg;
pub mod ast;
pub mod builder;
pub mod catalog;
pub mod compile;
pub mod handle;
pub mod lexer;
pub mod parser;
pub mod session;

pub use agg::{GroupAggMapper, GroupAggReducer, ResolvedAgg};
pub use ast::{AggExpr, AggFunc, ErrorBound, Expr, Literal, Projection, Query, Statement};
pub use builder::{SessionBuilder, SessionConfigError, TenantProfile};
pub use catalog::Catalog;
pub use compile::{compile_query, CompileError, CompiledQuery, JobPlan};
pub use handle::{collect_result, QueryHandle, QueryResult, Submitted};
pub use lexer::{lex, LexError, Token};
pub use parser::{parse, ParseError};
pub use session::{Prepared, QueryOutput, Session, SessionError, SessionState};
