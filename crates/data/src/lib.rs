//! # incmr-data
//!
//! The dataset substrate for the predicate-based-sampling reproduction: a
//! TPC-H `LINEITEM`-style table, generated deterministically, with
//! predicate-matching records **planted** into input partitions following a
//! Zipfian distribution — exactly the construction of Section V-B of the
//! paper ("Modeling data skew").
//!
//! Key pieces:
//!
//! * [`schema`] / [`value`] — a small column-typed record model,
//! * [`batch`] — columnar (SoA) record batches with dictionary-encoded
//!   strings and selection vectors: the zero-copy hot-path representation
//!   (rows remain the boundary format),
//! * [`lineitem`] — the LINEITEM schema and natural column generators,
//! * [`predicate`] — a predicate AST with an evaluator (what the sampling
//!   mapper runs against every record),
//! * [`skew`] — Zipfian assignment of matching records to partitions
//!   (Figure 4's generator),
//! * [`generator`] — per-split deterministic record streams, in both *full*
//!   mode (every record materialised and predicate-tested) and *planted*
//!   mode (only matching records materialised; equivalence is
//!   property-tested),
//! * [`dataset`] — end-to-end dataset construction onto an `incmr-dfs`
//!   namespace (Table II), and the store that generates each split
//!   version's batch once for every reader, and
//! * [`queries`] — the experiment predicates, one per skew level
//!   (Table III).

pub mod batch;
pub mod dataset;
pub mod generator;
pub mod lineitem;
pub mod predicate;
pub mod queries;
pub mod schema;
pub mod skew;
pub mod value;

pub use batch::{
    BatchBuilder, BatchSelection, ColumnData, RecordBatch, SelectionVector, StrColumn,
};
pub use dataset::{
    Dataset, DatasetSpec, ScanMode, SplitPlan, Table2Row, PARTITIONS_PER_SCALE, ROWS_PER_SCALE,
    ROW_BYTES,
};
pub use generator::{RecordFactory, SplitGenerator, SplitSpec};
pub use lineitem::LineItemFactory;
pub use predicate::{CmpOp, Predicate};
pub use queries::{PaperPredicate, SkewLevel};
pub use schema::{ColumnType, Field, Schema};
pub use value::{Record, Value};
