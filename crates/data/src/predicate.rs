//! Predicate AST and evaluator.
//!
//! This is what a `WHERE` clause compiles to, and what the sampling mapper
//! evaluates against every scanned record (paper Algorithm 1). The AST is
//! deliberately small — comparisons, `BETWEEN`, and boolean connectives —
//! matching the predicates the paper's evaluation uses, but composable
//! enough for arbitrary selection queries.

use std::cmp::Ordering;
use std::fmt;
use std::ops::Range;

use crate::batch::{ColumnData, RecordBatch, SelectionVector};
use crate::schema::Schema;
use crate::value::{Record, Value};

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `!=` / `<>`
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

impl CmpOp {
    /// Apply the operator to an ordering result. Incomparable values (type
    /// mismatch, NaN) fail every comparison, per SQL's unknown semantics
    /// collapsed to false.
    pub fn test(&self, ord: Option<Ordering>) -> bool {
        let Some(ord) = ord else { return false };
        match self {
            CmpOp::Eq => ord == Ordering::Equal,
            CmpOp::Ne => ord != Ordering::Equal,
            CmpOp::Lt => ord == Ordering::Less,
            CmpOp::Le => ord != Ordering::Greater,
            CmpOp::Gt => ord == Ordering::Greater,
            CmpOp::Ge => ord != Ordering::Less,
        }
    }
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

/// A boolean predicate over records. Columns are referenced by index
/// (resolved against a schema by the query front end).
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// Always true (the empty `WHERE` clause).
    True,
    /// `column <op> literal`
    Compare {
        /// Column index.
        column: usize,
        /// Operator.
        op: CmpOp,
        /// Right-hand literal.
        literal: Value,
    },
    /// `column BETWEEN low AND high` (inclusive).
    Between {
        /// Column index.
        column: usize,
        /// Lower bound (inclusive).
        low: Value,
        /// Upper bound (inclusive).
        high: Value,
    },
    /// Conjunction.
    And(Box<Predicate>, Box<Predicate>),
    /// Disjunction.
    Or(Box<Predicate>, Box<Predicate>),
    /// Negation.
    Not(Box<Predicate>),
}

impl Predicate {
    /// Convenience constructor for `column = literal`.
    pub fn eq(column: usize, literal: Value) -> Self {
        Predicate::Compare {
            column,
            op: CmpOp::Eq,
            literal,
        }
    }

    /// Evaluate against a record.
    pub fn eval(&self, record: &Record) -> bool {
        match self {
            Predicate::True => true,
            Predicate::Compare {
                column,
                op,
                literal,
            } => op.test(record.get(*column).compare(literal)),
            Predicate::Between { column, low, high } => {
                let v = record.get(*column);
                CmpOp::Ge.test(v.compare(low)) && CmpOp::Le.test(v.compare(high))
            }
            Predicate::And(a, b) => a.eval(record) && b.eval(record),
            Predicate::Or(a, b) => a.eval(record) || b.eval(record),
            Predicate::Not(a) => !a.eval(record),
        }
    }

    /// Largest column index referenced, if any (for arity validation).
    pub fn max_column(&self) -> Option<usize> {
        match self {
            Predicate::True => None,
            Predicate::Compare { column, .. } | Predicate::Between { column, .. } => Some(*column),
            Predicate::And(a, b) | Predicate::Or(a, b) => a.max_column().max(b.max_column()),
            Predicate::Not(a) => a.max_column(),
        }
    }

    /// Render with column names from a schema.
    pub fn display<'a>(&'a self, schema: &'a Schema) -> PredicateDisplay<'a> {
        PredicateDisplay { pred: self, schema }
    }

    /// The selection kernel: the ids of the first `limit` rows of `batch`
    /// this predicate accepts, ascending (`usize::MAX` keeps every match).
    ///
    /// Selects exactly the rows [`Predicate::eval`] accepts on each
    /// materialised row (property-tested in `tests/batch_equivalence.rs`
    /// against [`Predicate::eval_batch_scalar`]). The predicate is resolved
    /// against the batch once per call: each leaf binds its column's typed
    /// values, and a string leaf compares its literal once per dictionary
    /// entry. The walk then visits [`SELECT_CHUNK`] rows at a time. The
    /// first conjunct of the top-level AND chain fills a chunk mask, which
    /// is compacted into row ids; each later conjunct tests only the ids
    /// still selected. OR and NOT fill chunk-sized masks that the call
    /// reuses for every chunk. The walk stops after the chunk that reaches
    /// `limit`.
    ///
    /// NaN and type-mismatch comparisons fail exactly as
    /// [`Value::compare`] returning `None` does in the scalar path: `Ne`
    /// is `(v < l) | (v > l)`, which is false for NaN, *not* `v != l`,
    /// which would be true, and a literal no column value compares with
    /// selects nothing.
    pub fn select(&self, batch: &RecordBatch, limit: usize) -> SelectionVector {
        let mut conjuncts = Vec::new();
        Node::conjuncts(self, batch, &mut conjuncts);
        let (first, rest) = conjuncts
            .split_first_mut()
            .expect("a predicate has a conjunct");
        let mut mask = [0u8; SELECT_CHUNK];
        let mut ids = [0u32; SELECT_CHUNK];
        let mut sel = SelectionVector::new();
        let mut start = 0;
        while start < batch.len() && sel.len() < limit {
            let rows = start..batch.len().min(start + SELECT_CHUNK);
            first.fill(rows.clone(), &mut mask[..rows.len()]);
            let mut kept = compact(&mask[..rows.len()], rows.start, &mut ids);
            for conjunct in rest.iter_mut() {
                if kept == 0 {
                    break;
                }
                kept = conjunct.refine(rows.clone(), &mut ids[..kept], &mut mask);
            }
            sel.extend_from_slice(&ids[..kept]);
            start = rows.end;
        }
        sel.truncate(limit);
        sel
    }

    /// Reference implementation of [`Predicate::select`] without a limit:
    /// materialise each row and run the scalar evaluator. The equivalence
    /// proptests compare the kernel against it.
    pub fn eval_batch_scalar(&self, batch: &RecordBatch) -> SelectionVector {
        (0..batch.len())
            .filter_map(|i| self.eval(&batch.record(i, &[])).then_some(i as u32))
            .collect()
    }
}

/// Rows per chunk of [`Predicate::select`]'s walk, and so the granularity
/// of its early stop. A chunk's ids and masks (5 KiB) stay in L1.
pub const SELECT_CHUNK: usize = 1024;

/// A predicate resolved against one batch for one [`Predicate::select`]
/// call.
enum Node<'a> {
    /// One comparison leaf.
    Test(Test<'a>),
    /// A conjunction, with a chunk-sized scratch mask for its second
    /// conjunct on. Only a nested AND is one: the top-level chain is the
    /// kernel's conjunct list.
    All(Vec<Node<'a>>, Vec<u8>),
    /// A disjunction, with the same scratch mask.
    Any(Vec<Node<'a>>, Vec<u8>),
    /// A negation.
    Not(Box<Node<'a>>),
}

impl<'a> Node<'a> {
    /// Append `pred`'s conjuncts, resolved against `batch`, to `out`: an
    /// AND chain flattens, and so does a BETWEEN whose bounds compare in
    /// different types (an int column between an int and a float), which
    /// runs as its two halves.
    fn conjuncts(pred: &Predicate, batch: &'a RecordBatch, out: &mut Vec<Node<'a>>) {
        let leaf = |col: usize, cmp| Node::Test(Test::resolve(batch.column(col), cmp));
        match pred {
            Predicate::True => out.push(Node::Test(Test::Const(true))),
            Predicate::Compare {
                column,
                op,
                literal,
            } => out.push(leaf(*column, Cmp::Op(*op, literal))),
            // A BETWEEN whose bounds share no type with the column
            // resolves constant-false; its halves may still each compare.
            Predicate::Between { column, low, high } => {
                match leaf(*column, Cmp::Between(low, high)) {
                    Node::Test(Test::Const(false)) => {
                        out.push(leaf(*column, Cmp::Op(CmpOp::Ge, low)));
                        out.push(leaf(*column, Cmp::Op(CmpOp::Le, high)));
                    }
                    both => out.push(both),
                }
            }
            Predicate::And(a, b) => {
                Node::conjuncts(a, batch, out);
                Node::conjuncts(b, batch, out);
            }
            Predicate::Or(a, b) => out.push(Node::Any(
                vec![Node::resolve(a, batch), Node::resolve(b, batch)],
                vec![0; SELECT_CHUNK],
            )),
            Predicate::Not(a) => out.push(Node::Not(Box::new(Node::resolve(a, batch)))),
        }
    }

    /// `pred` resolved against `batch` as one node.
    fn resolve(pred: &Predicate, batch: &'a RecordBatch) -> Node<'a> {
        let mut conjuncts = Vec::new();
        Node::conjuncts(pred, batch, &mut conjuncts);
        if conjuncts.len() == 1 {
            conjuncts.pop().expect("one conjunct")
        } else {
            Node::All(conjuncts, vec![0; SELECT_CHUNK])
        }
    }

    /// Keep, at the front of `ids`, the ids of chunk `rows` this node
    /// accepts; returns how many. A leaf tests only those rows; any other
    /// node fills `mask` for the whole chunk first.
    fn refine(&mut self, rows: Range<usize>, ids: &mut [u32], mask: &mut [u8]) -> usize {
        match self {
            Node::Test(test) => test.run(rows, Pass::Refine(ids)),
            node => {
                let mask = &mut mask[..rows.len()];
                node.fill(rows.clone(), mask);
                visit(mask, rows.start, Pass::Refine(ids), |m| m != 0)
            }
        }
    }

    /// Write this node's verdict for every row of `rows` to `mask`, 1 for
    /// selected.
    fn fill(&mut self, rows: Range<usize>, mask: &mut [u8]) {
        let all = matches!(self, Node::All(..));
        match self {
            Node::Test(test) => {
                test.run(rows, Pass::Mask(mask));
            }
            Node::Not(inner) => {
                inner.fill(rows, mask);
                mask.iter_mut().for_each(|m| *m ^= 1);
            }
            Node::All(children, scratch) | Node::Any(children, scratch) => {
                let (first, rest) = children.split_first_mut().expect("two children or more");
                first.fill(rows.clone(), mask);
                let other = &mut scratch[..mask.len()];
                for child in rest {
                    child.fill(rows.clone(), other);
                    let pairs = mask.iter_mut().zip(&*other);
                    if all {
                        pairs.for_each(|(m, o)| *m &= o);
                    } else {
                        pairs.for_each(|(m, o)| *m |= o);
                    }
                }
            }
        }
    }
}

/// A leaf's comparison, with its literals in the type it runs in.
#[derive(Clone, Copy)]
enum Cmp<T> {
    /// `value <op> literal`.
    Op(CmpOp, T),
    /// `low <= value <= high`, both bounds tested in one pass.
    Between(T, T),
}

impl<T: Copy> Cmp<T> {
    /// The same comparison with each literal converted by `f`, or `None`
    /// when one does not convert.
    fn map<U>(self, f: impl Fn(T) -> Option<U>) -> Option<Cmp<U>> {
        Some(match self {
            Cmp::Op(op, lit) => Cmp::Op(op, f(lit)?),
            Cmp::Between(low, high) => Cmp::Between(f(low)?, f(high)?),
        })
    }
}

/// One comparison leaf bound to its column's typed values.
enum Test<'a> {
    /// Every row passes (`TRUE`) or none does (a type mismatch).
    Const(bool),
    /// An int column against int literals.
    Int(&'a [i64], Cmp<i64>),
    /// An int column against float literals: each value widens to `f64`,
    /// as [`Value::compare`] widens it.
    IntAsFloat(&'a [i64], Cmp<f64>),
    /// A float column; an int literal widens to `f64`.
    Float(&'a [f64], Cmp<f64>),
    /// A date column against date literals.
    Date(&'a [u32], Cmp<u32>),
    /// A string column's codes, with the comparison's verdict per
    /// dictionary entry: string compares cost O(|dict|) per call, not
    /// O(rows).
    Str(&'a [u32], Vec<bool>),
}

impl<'a> Test<'a> {
    /// Bind `cmp` to `col`. Literals no value of the column compares with
    /// (as [`Value::compare`] decides) make the leaf constant-false.
    fn resolve(col: &'a ColumnData, cmp: Cmp<&Value>) -> Test<'a> {
        let int = |lit: &Value| match lit {
            Value::Int(i) => Some(*i),
            _ => None,
        };
        let float = |lit: &Value| match lit {
            Value::Float(f) => Some(*f),
            _ => None,
        };
        let test = match col {
            ColumnData::Int(vals) => match cmp.map(int) {
                Some(cmp) => Some(Test::Int(vals, cmp)),
                None => cmp.map(float).map(|cmp| Test::IntAsFloat(vals, cmp)),
            },
            ColumnData::Float(vals) => cmp
                .map(|lit| float(lit).or_else(|| int(lit).map(|i| i as f64)))
                .map(|cmp| Test::Float(vals, cmp)),
            ColumnData::Date(vals) => cmp
                .map(|lit| match lit {
                    Value::Date(d) => Some(*d),
                    _ => None,
                })
                .map(|cmp| Test::Date(vals, cmp)),
            ColumnData::Str(col) => cmp
                .map(|lit| match lit {
                    Value::Str(s) => Some(s.as_str()),
                    _ => None,
                })
                .map(|cmp| {
                    let verdict = |d: &str| match cmp {
                        Cmp::Op(op, lit) => op.test(Some(d.cmp(lit))),
                        Cmp::Between(low, high) => d >= low && d <= high,
                    };
                    Test::Str(&col.codes, col.dict.iter().map(|d| verdict(d)).collect())
                }),
        };
        test.unwrap_or(Test::Const(false))
    }

    /// Run the leaf over one chunk `rows`. Returns the ids kept.
    fn run(&self, rows: Range<usize>, pass: Pass<'_>) -> usize {
        let base = rows.start;
        match self {
            Test::Const(keep) => match pass {
                Pass::Refine(ids) if *keep => ids.len(),
                Pass::Refine(_) => 0,
                Pass::Mask(mask) => {
                    mask.fill(u8::from(*keep));
                    0
                }
            },
            Test::Int(vals, cmp) => compare(&vals[rows], base, *cmp, pass, |v| v),
            Test::IntAsFloat(vals, cmp) => compare(&vals[rows], base, *cmp, pass, |v| v as f64),
            Test::Float(vals, cmp) => compare(&vals[rows], base, *cmp, pass, |v| v),
            Test::Date(vals, cmp) => compare(&vals[rows], base, *cmp, pass, |v| v),
            Test::Str(codes, verdict) => visit(&codes[rows], base, pass, |c| verdict[c as usize]),
        }
    }
}

/// How a test visits one chunk.
enum Pass<'s> {
    /// Keep the passing ids of the slice at its front.
    Refine(&'s mut [u32]),
    /// Write each row's verdict, 1 or 0, to the mask (one byte a row).
    Mask(&'s mut [u8]),
}

/// The compare kernels: one monomorphised loop per (value type, operator),
/// each value converted by `conv` first. `Ne` is `(v < l) | (v > l)`
/// rather than `v != l` so NaN, which the scalar path finds incomparable,
/// fails it; for totally ordered types the two are identical.
fn compare<T: Copy, U: PartialOrd + Copy>(
    vals: &[T],
    base: usize,
    cmp: Cmp<U>,
    pass: Pass<'_>,
    conv: impl Fn(T) -> U + Copy,
) -> usize {
    match cmp {
        Cmp::Op(CmpOp::Eq, l) => visit(vals, base, pass, |v| conv(v) == l),
        Cmp::Op(CmpOp::Ne, l) => visit(vals, base, pass, |v| {
            let v = conv(v);
            (v < l) | (v > l)
        }),
        Cmp::Op(CmpOp::Lt, l) => visit(vals, base, pass, |v| conv(v) < l),
        Cmp::Op(CmpOp::Le, l) => visit(vals, base, pass, |v| conv(v) <= l),
        Cmp::Op(CmpOp::Gt, l) => visit(vals, base, pass, |v| conv(v) > l),
        Cmp::Op(CmpOp::Ge, l) => visit(vals, base, pass, |v| conv(v) >= l),
        Cmp::Between(lo, hi) => visit(vals, base, pass, |v| {
            let v = conv(v);
            (v >= lo) & (v <= hi)
        }),
    }
}

/// Run `test` over one chunk, whose rows' values are `vals`, the first of
/// them row `base`. A refine compacts branch-free: every id is written
/// back, and the cursor advances past it only when it passes. Returns the
/// ids kept (0 for a mask).
#[inline(always)]
fn visit<T: Copy>(vals: &[T], base: usize, pass: Pass<'_>, test: impl Fn(T) -> bool) -> usize {
    match pass {
        Pass::Refine(ids) => {
            let mut kept = 0;
            for j in 0..ids.len() {
                let row = ids[j];
                ids[kept] = row;
                kept += usize::from(test(vals[row as usize - base]));
            }
            kept
        }
        Pass::Mask(mask) => {
            for (m, &v) in mask.iter_mut().zip(vals) {
                *m = u8::from(test(v));
            }
            0
        }
    }
}

/// Write the ids of the rows `mask` selects, the first of them row `base`,
/// to the front of `ids`; returns how many. Eight rows at a time: a word
/// of unselected rows costs one test, and within any other word every id
/// is written and the cursor advances past it only when its row is
/// selected, so no branch depends on a single row.
fn compact(mask: &[u8], base: usize, ids: &mut [u32]) -> usize {
    let mut kept = 0;
    let mut push = |first: usize, bytes: &[u8]| {
        for (row, &m) in (first..).zip(bytes) {
            ids[kept] = row as u32;
            kept += usize::from(m);
        }
    };
    let words = mask.chunks_exact(8);
    let tail = words.remainder();
    for (w, word) in words.enumerate() {
        if u64::from_ne_bytes(word.try_into().expect("eight bytes")) != 0 {
            push(base + 8 * w, word);
        }
    }
    push(base + mask.len() - tail.len(), tail);
    kept
}

/// Helper for schema-aware rendering of predicates.
pub struct PredicateDisplay<'a> {
    pred: &'a Predicate,
    schema: &'a Schema,
}

impl fmt::Display for PredicateDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = |c: usize| self.schema.field(c).name.as_str();
        match self.pred {
            Predicate::True => write!(f, "TRUE"),
            Predicate::Compare {
                column,
                op,
                literal,
            } => write!(f, "{} {op} {literal}", name(*column)),
            Predicate::Between { column, low, high } => {
                write!(f, "{} BETWEEN {low} AND {high}", name(*column))
            }
            Predicate::And(a, b) => write!(
                f,
                "({} AND {})",
                a.display(self.schema),
                b.display(self.schema)
            ),
            Predicate::Or(a, b) => write!(
                f,
                "({} OR {})",
                a.display(self.schema),
                b.display(self.schema)
            ),
            Predicate::Not(a) => write!(f, "NOT {}", a.display(self.schema)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnType;

    fn rec(q: i64, d: f64) -> Record {
        Record::new(vec![Value::Int(q), Value::Float(d)])
    }

    #[test]
    fn comparisons() {
        let p = Predicate::Compare {
            column: 0,
            op: CmpOp::Ge,
            literal: Value::Int(10),
        };
        assert!(p.eval(&rec(10, 0.0)));
        assert!(p.eval(&rec(11, 0.0)));
        assert!(!p.eval(&rec(9, 0.0)));
    }

    #[test]
    fn between_is_inclusive() {
        let p = Predicate::Between {
            column: 1,
            low: Value::Float(0.05),
            high: Value::Float(0.07),
        };
        assert!(p.eval(&rec(0, 0.05)));
        assert!(p.eval(&rec(0, 0.07)));
        assert!(!p.eval(&rec(0, 0.071)));
    }

    #[test]
    fn connectives() {
        let a = Predicate::eq(0, Value::Int(1));
        let b = Predicate::eq(1, Value::Float(0.5));
        let and = Predicate::And(Box::new(a.clone()), Box::new(b.clone()));
        let or = Predicate::Or(Box::new(a.clone()), Box::new(b.clone()));
        let not = Predicate::Not(Box::new(a.clone()));
        assert!(and.eval(&rec(1, 0.5)));
        assert!(!and.eval(&rec(1, 0.4)));
        assert!(or.eval(&rec(1, 0.4)));
        assert!(or.eval(&rec(2, 0.5)));
        assert!(!or.eval(&rec(2, 0.4)));
        assert!(not.eval(&rec(2, 0.0)));
        assert!(Predicate::True.eval(&rec(0, 0.0)));
    }

    #[test]
    fn type_mismatch_fails_comparison() {
        let p = Predicate::eq(0, Value::Str("x".into()));
        assert!(!p.eval(&rec(1, 0.0)));
        // But Ne on incomparable values is also false (SQL unknown).
        let p = Predicate::Compare {
            column: 0,
            op: CmpOp::Ne,
            literal: Value::Str("x".into()),
        };
        assert!(!p.eval(&rec(1, 0.0)));
    }

    #[test]
    fn max_column_spans_the_tree() {
        let p = Predicate::And(
            Box::new(Predicate::eq(3, Value::Int(0))),
            Box::new(Predicate::Not(Box::new(Predicate::eq(7, Value::Int(0))))),
        );
        assert_eq!(p.max_column(), Some(7));
        assert_eq!(Predicate::True.max_column(), None);
    }

    #[test]
    fn display_uses_schema_names() {
        let s = Schema::new(vec![("qty", ColumnType::Int), ("disc", ColumnType::Float)]);
        let p = Predicate::And(
            Box::new(Predicate::eq(0, Value::Int(5))),
            Box::new(Predicate::Between {
                column: 1,
                low: Value::Float(0.01),
                high: Value::Float(0.02),
            }),
        );
        assert_eq!(
            p.display(&s).to_string(),
            "(qty = 5 AND disc BETWEEN 0.01 AND 0.02)"
        );
    }

    // --- vectorised-vs-scalar pinning (NaN, mixed numerics, edge cases) ---

    use crate::batch::RecordBatch;

    fn nschema() -> Schema {
        Schema::new(vec![("q", ColumnType::Int), ("d", ColumnType::Float)])
    }

    fn batch_of(rows: &[(i64, f64)]) -> RecordBatch {
        let records: Vec<Record> = rows.iter().map(|&(q, d)| rec(q, d)).collect();
        RecordBatch::from_records(&nschema(), &records)
    }

    /// Every match the kernel selects.
    fn select_all(p: &Predicate, batch: &RecordBatch) -> SelectionVector {
        p.select(batch, usize::MAX)
    }

    /// Both paths on the same batch must agree exactly.
    fn assert_paths_agree(p: &Predicate, batch: &RecordBatch) {
        assert_eq!(
            select_all(p, batch),
            p.eval_batch_scalar(batch),
            "kernel != scalar for {p:?}"
        );
    }

    fn cmp(column: usize, op: CmpOp, literal: Value) -> Predicate {
        Predicate::Compare {
            column,
            op,
            literal,
        }
    }

    #[test]
    fn batch_nan_elements_fail_every_operator() {
        let batch = batch_of(&[(1, f64::NAN), (2, 0.5), (3, f64::NAN)]);
        for op in [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ] {
            let p = cmp(1, op, Value::Float(0.5));
            assert_paths_agree(&p, &batch);
            // NaN rows never appear, whatever the operator.
            assert!(select_all(&p, &batch).iter().all(|&i| i == 1), "{op:?}");
        }
    }

    #[test]
    fn batch_nan_literal_selects_nothing() {
        let batch = batch_of(&[(1, 0.5), (2, f64::NAN)]);
        for op in [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ] {
            let p = cmp(1, op, Value::Float(f64::NAN));
            assert_paths_agree(&p, &batch);
            assert!(select_all(&p, &batch).is_empty(), "{op:?}");
        }
        // ...including through NOT, where NaN rows *do* pass (unknown
        // collapsed to false, then negated).
        let not = Predicate::Not(Box::new(cmp(1, CmpOp::Eq, Value::Float(f64::NAN))));
        assert_paths_agree(&not, &batch);
        assert_eq!(select_all(&not, &batch), vec![0, 1]);
    }

    #[test]
    fn batch_nan_between_matches_scalar() {
        let batch = batch_of(&[(0, f64::NAN), (0, 0.05), (0, 0.2)]);
        let p = Predicate::Between {
            column: 1,
            low: Value::Float(0.0),
            high: Value::Float(0.1),
        };
        assert_paths_agree(&p, &batch);
        assert_eq!(select_all(&p, &batch), vec![1]);
    }

    #[test]
    fn batch_mixed_int_float_comparisons() {
        let batch = batch_of(&[(1, 1.0), (2, 2.5), (3, 3.0)]);
        // Int column vs float literal widens per element.
        let p = cmp(0, CmpOp::Ge, Value::Float(2.0));
        assert_paths_agree(&p, &batch);
        assert_eq!(select_all(&p, &batch), vec![1, 2]);
        // Float column vs int literal widens the literal.
        let p = cmp(1, CmpOp::Eq, Value::Int(3));
        assert_paths_agree(&p, &batch);
        assert_eq!(select_all(&p, &batch), vec![2]);
        // Ne over floats with an int literal stays NaN-aware.
        let nan = batch_of(&[(0, f64::NAN), (0, 4.0)]);
        let p = cmp(1, CmpOp::Ne, Value::Int(3));
        assert_paths_agree(&p, &nan);
        assert_eq!(select_all(&p, &nan), vec![1]);
    }

    #[test]
    fn batch_type_mismatch_is_constant_false() {
        let batch = batch_of(&[(1, 1.0), (2, 2.0)]);
        for op in [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt] {
            let p = cmp(0, op, Value::Str("x".into()));
            assert_paths_agree(&p, &batch);
            assert!(select_all(&p, &batch).is_empty());
        }
    }

    #[test]
    fn batch_empty_input() {
        let batch = batch_of(&[]);
        let p = Predicate::Or(
            Box::new(cmp(0, CmpOp::Eq, Value::Int(1))),
            Box::new(Predicate::Not(Box::new(Predicate::True))),
        );
        assert_paths_agree(&p, &batch);
        assert!(select_all(&p, &batch).is_empty());
        assert!(select_all(&Predicate::True, &batch).is_empty());
    }

    #[test]
    fn batch_connectives_and_strings() {
        let schema = Schema::new(vec![("q", ColumnType::Int), ("mode", ColumnType::Str)]);
        let records: Vec<Record> = [(1, "AIR"), (2, "SHIP"), (3, "AIR"), (4, "RAIL")]
            .iter()
            .map(|&(q, m)| Record::new(vec![Value::Int(q), Value::Str(m.into())]))
            .collect();
        let batch = RecordBatch::from_records(&schema, &records);
        let p = Predicate::And(
            Box::new(cmp(1, CmpOp::Eq, Value::Str("AIR".into()))),
            Box::new(cmp(0, CmpOp::Gt, Value::Int(1))),
        );
        assert_paths_agree(&p, &batch);
        assert_eq!(select_all(&p, &batch), vec![2]);
        let p = Predicate::Or(
            Box::new(cmp(1, CmpOp::Lt, Value::Str("B".into()))),
            Box::new(cmp(0, CmpOp::Eq, Value::Int(2))),
        );
        assert_paths_agree(&p, &batch);
        assert_eq!(select_all(&p, &batch), vec![0, 1, 2]);
    }
}
