//! The TPC-H `LINEITEM` table: schema, natural column generators, and the
//! record factory used to *plant* predicate-matching records.
//!
//! The paper derives its evaluation dataset from LINEITEM and then rewrites
//! records so that, for each experiment predicate, exactly the planted
//! records match and everything else is guaranteed not to (Section V-B:
//! "we then modified the other records in each partition accordingly to
//! ensure that the remaining records contained random values not satisfying
//! the predicate"). [`LineItemFactory`] implements that construction: the
//! natural generators draw from the TPC-H value domains, and matching
//! records override one *sentinel column* with a value outside its natural
//! domain.
//!
//! One draw function, `draw_natural`, feeds both generation paths, so their
//! RNG streams agree by construction. It yields the three string columns
//! as indices into their value domains. The row path
//! ([`RecordFactory::matching`]/[`RecordFactory::filler`]) turns a draw into
//! a [`Record`]. The batch path ([`RecordFactory::split_batch`]) pushes it
//! into a private column writer: typed `Vec`s for the numeric and date
//! columns, and for each string column a dictionary code per domain index
//! (the sentinel string included), assigned on first sight and cached.
//! Dictionaries therefore keep the first-seen order that interning the
//! strings row by row gives, and no row allocates or looks a string up.

use std::sync::Arc;

use incmr_simkit::rng::DetRng;
use rand::Rng;

use crate::batch::{ColumnData, RecordBatch, StrColumn};
use crate::generator::RecordFactory;
use crate::predicate::Predicate;
use crate::schema::{ColumnType, Schema};
use crate::value::{Record, Value};

/// Column indices within the LINEITEM schema, by name.
pub mod col {
    /// `L_ORDERKEY`
    pub const ORDERKEY: usize = 0;
    /// `L_PARTKEY`
    pub const PARTKEY: usize = 1;
    /// `L_SUPPKEY`
    pub const SUPPKEY: usize = 2;
    /// `L_LINENUMBER`
    pub const LINENUMBER: usize = 3;
    /// `L_QUANTITY`
    pub const QUANTITY: usize = 4;
    /// `L_EXTENDEDPRICE`
    pub const EXTENDEDPRICE: usize = 5;
    /// `L_DISCOUNT`
    pub const DISCOUNT: usize = 6;
    /// `L_TAX`
    pub const TAX: usize = 7;
    /// `L_RETURNFLAG`
    pub const RETURNFLAG: usize = 8;
    /// `L_LINESTATUS`
    pub const LINESTATUS: usize = 9;
    /// `L_SHIPDATE`
    pub const SHIPDATE: usize = 10;
    /// `L_SHIPMODE`
    pub const SHIPMODE: usize = 11;
}

/// The LINEITEM schema (a 12-column subset of TPC-H's 16; the dropped
/// columns are free-text comments that no paper experiment touches — their
/// bytes are accounted for in [`crate::dataset::ROW_BYTES`]).
pub fn schema() -> Schema {
    Schema::new(vec![
        ("L_ORDERKEY", ColumnType::Int),
        ("L_PARTKEY", ColumnType::Int),
        ("L_SUPPKEY", ColumnType::Int),
        ("L_LINENUMBER", ColumnType::Int),
        ("L_QUANTITY", ColumnType::Int),
        ("L_EXTENDEDPRICE", ColumnType::Float),
        ("L_DISCOUNT", ColumnType::Float),
        ("L_TAX", ColumnType::Float),
        ("L_RETURNFLAG", ColumnType::Str),
        ("L_LINESTATUS", ColumnType::Str),
        ("L_SHIPDATE", ColumnType::Date),
        ("L_SHIPMODE", ColumnType::Str),
    ])
}

const RETURN_FLAGS: [&str; 3] = ["R", "A", "N"];
const LINE_STATUS: [&str; 2] = ["O", "F"];
const SHIP_MODES: [&str; 7] = ["REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"];

/// The `shipmode` index a planted row carries when the sentinel column is
/// `L_SHIPMODE`: one past the natural domain.
const PLANTED_MODE: usize = SHIP_MODES.len();

/// One natural LINEITEM row before materialisation — the single source of
/// truth both the row and the columnar generation paths build from, so
/// their RNG streams are identical by construction. String columns hold
/// indices into their value domains.
struct NaturalRow {
    orderkey: i64,
    partkey: i64,
    suppkey: i64,
    linenumber: i64,
    quantity: i64,
    extendedprice: f64,
    discount: f64,
    tax: f64,
    returnflag: usize,
    linestatus: usize,
    shipdate: u32,
    shipmode: usize,
}

/// Natural value domains: quantity 1–50, discount 0.00–0.10, tax 0.00–0.08,
/// dates within 7 years of the epoch (all per the TPC-H spec).
///
/// The RNG draw order (quantity, unit price, then the fields in struct
/// order) is load-bearing: committed golden traces and planted splits
/// depend on it byte-for-byte. So are the draw types: the domain indices
/// are drawn as `usize`, as they were when they indexed the string tables
/// directly.
///
/// Always inlined: the batch path's row loop then keeps the RNG state in
/// registers across the twelve draws and the column writes, which halves
/// its cost per row against an out-of-line call.
#[inline(always)]
fn draw_natural(rng: &mut DetRng) -> NaturalRow {
    let quantity = rng.gen_range(1..=50i64);
    let price_per_unit = rng.gen_range(900.0..=105_000.0f64) / 100.0;
    NaturalRow {
        orderkey: rng.gen_range(1..=6_000_000),
        partkey: rng.gen_range(1..=200_000),
        suppkey: rng.gen_range(1..=10_000),
        linenumber: rng.gen_range(1..=7),
        quantity,
        extendedprice: (quantity as f64 * price_per_unit * 100.0).round() / 100.0,
        discount: rng.gen_range(0..=10i64) as f64 / 100.0,
        tax: rng.gen_range(0..=8i64) as f64 / 100.0,
        returnflag: rng.gen_range(0..RETURN_FLAGS.len()),
        linestatus: rng.gen_range(0..LINE_STATUS.len()),
        shipdate: rng.gen_range(0..2557),
        shipmode: rng.gen_range(0..SHIP_MODES.len()),
    }
}

impl NaturalRow {
    fn into_record(self) -> Record {
        Record::new(vec![
            Value::Int(self.orderkey),
            Value::Int(self.partkey),
            Value::Int(self.suppkey),
            Value::Int(self.linenumber),
            Value::Int(self.quantity),
            Value::Float(self.extendedprice),
            Value::Float(self.discount),
            Value::Float(self.tax),
            Value::Str(RETURN_FLAGS[self.returnflag].to_string()),
            Value::Str(LINE_STATUS[self.linestatus].to_string()),
            Value::Date(self.shipdate),
            Value::Str(SHIP_MODES[self.shipmode].to_string()),
        ])
    }
}

fn natural_record(rng: &mut DetRng) -> Record {
    draw_natural(rng).into_record()
}

/// A string column written from domain indices. Each index's dictionary
/// code is assigned on first sight and cached, so the dictionary holds
/// each string once, in first-seen order: the dictionary that interning
/// the same strings row by row builds.
struct DictWriter<'a, const N: usize> {
    strings: [&'a str; N],
    code_of: [Option<u32>; N],
    column: StrColumn,
}

impl<'a, const N: usize> DictWriter<'a, N> {
    fn new(strings: [&'a str; N], rows: usize) -> Self {
        DictWriter {
            strings,
            code_of: [None; N],
            column: StrColumn {
                codes: Vec::with_capacity(rows),
                dict: Vec::new(),
            },
        }
    }

    #[inline(always)]
    fn push(&mut self, index: usize) {
        let dict = &mut self.column.dict;
        let string = self.strings[index];
        let code = *self.code_of[index].get_or_insert_with(|| {
            dict.push(Arc::from(string));
            (dict.len() - 1) as u32
        });
        self.column.codes.push(code);
    }
}

/// Writes LINEITEM rows straight into the schema's typed columns, with no
/// per-row allocation and no dictionary lookup.
struct LineItemWriter<'a> {
    orderkey: Vec<i64>,
    partkey: Vec<i64>,
    suppkey: Vec<i64>,
    linenumber: Vec<i64>,
    quantity: Vec<i64>,
    extendedprice: Vec<f64>,
    discount: Vec<f64>,
    tax: Vec<f64>,
    returnflag: DictWriter<'a, 3>,
    linestatus: DictWriter<'a, 2>,
    shipdate: Vec<u32>,
    shipmode: DictWriter<'a, { SHIP_MODES.len() + 1 }>,
}

impl<'a> LineItemWriter<'a> {
    /// A writer for `rows` rows whose `shipmode` index [`PLANTED_MODE`]
    /// stands for `planted_mode`.
    fn new(planted_mode: &'a str, rows: usize) -> Self {
        let mut modes = [planted_mode; SHIP_MODES.len() + 1];
        modes[..SHIP_MODES.len()].copy_from_slice(&SHIP_MODES);
        LineItemWriter {
            orderkey: Vec::with_capacity(rows),
            partkey: Vec::with_capacity(rows),
            suppkey: Vec::with_capacity(rows),
            linenumber: Vec::with_capacity(rows),
            quantity: Vec::with_capacity(rows),
            extendedprice: Vec::with_capacity(rows),
            discount: Vec::with_capacity(rows),
            tax: Vec::with_capacity(rows),
            returnflag: DictWriter::new(RETURN_FLAGS, rows),
            linestatus: DictWriter::new(LINE_STATUS, rows),
            shipdate: Vec::with_capacity(rows),
            shipmode: DictWriter::new(modes, rows),
        }
    }

    #[inline(always)]
    fn push(&mut self, row: &NaturalRow) {
        self.orderkey.push(row.orderkey);
        self.partkey.push(row.partkey);
        self.suppkey.push(row.suppkey);
        self.linenumber.push(row.linenumber);
        self.quantity.push(row.quantity);
        self.extendedprice.push(row.extendedprice);
        self.discount.push(row.discount);
        self.tax.push(row.tax);
        self.returnflag.push(row.returnflag);
        self.linestatus.push(row.linestatus);
        self.shipdate.push(row.shipdate);
        self.shipmode.push(row.shipmode);
    }

    /// The batch, columns in [`schema`] order.
    fn finish(self) -> RecordBatch {
        RecordBatch::from_columns(vec![
            ColumnData::Int(self.orderkey),
            ColumnData::Int(self.partkey),
            ColumnData::Int(self.suppkey),
            ColumnData::Int(self.linenumber),
            ColumnData::Int(self.quantity),
            ColumnData::Float(self.extendedprice),
            ColumnData::Float(self.discount),
            ColumnData::Float(self.tax),
            ColumnData::Str(self.returnflag.column),
            ColumnData::Str(self.linestatus.column),
            ColumnData::Date(self.shipdate),
            ColumnData::Str(self.shipmode.column),
        ])
    }
}

/// A record factory that plants matches by overriding one sentinel column
/// with an out-of-domain value.
#[derive(Debug, Clone)]
pub struct LineItemFactory {
    sentinel_column: usize,
    sentinel_value: Value,
}

impl LineItemFactory {
    /// Factory whose matching records carry `value` in `column`.
    ///
    /// # Panics
    /// Panics if `value` lies inside the column's natural domain (that
    /// would break the planted/natural separation) or the column is
    /// unknown.
    pub fn new(column: usize, value: Value) -> Self {
        let s = schema();
        assert!(column < s.arity(), "sentinel column out of range");
        let ok = match (column, &value) {
            (col::QUANTITY, Value::Int(v)) => !(1..=50).contains(v),
            (col::DISCOUNT, Value::Float(v)) => !(0.0..=0.10).contains(v),
            (col::TAX, Value::Float(v)) => !(0.0..=0.08).contains(v),
            (col::SHIPMODE, Value::Str(v)) => !SHIP_MODES.contains(&v.as_str()),
            _ => panic!("unsupported sentinel column {column}"),
        };
        assert!(ok, "sentinel value {value} is inside the natural domain");
        LineItemFactory {
            sentinel_column: column,
            sentinel_value: value,
        }
    }

    /// The sentinel column index.
    pub fn sentinel_column(&self) -> usize {
        self.sentinel_column
    }

    /// Override the sentinel column of a natural row in place, as
    /// [`RecordFactory::matching`] does to its record. The row is drawn
    /// whole first, so the RNG stream matches the row path and
    /// `extendedprice` keeps the *natural* quantity.
    fn plant(&self, row: &mut NaturalRow) {
        match (self.sentinel_column, &self.sentinel_value) {
            (col::QUANTITY, Value::Int(v)) => row.quantity = *v,
            (col::DISCOUNT, Value::Float(v)) => row.discount = *v,
            (col::TAX, Value::Float(v)) => row.tax = *v,
            (col::SHIPMODE, Value::Str(_)) => row.shipmode = PLANTED_MODE,
            _ => unreachable!("sentinel validated in LineItemFactory::new"),
        }
    }
}

impl RecordFactory for LineItemFactory {
    fn schema(&self) -> Schema {
        schema()
    }

    fn predicate(&self) -> Predicate {
        Predicate::eq(self.sentinel_column, self.sentinel_value.clone())
    }

    fn matching(&self, rng: &mut DetRng) -> Record {
        let mut values = natural_record(rng).values().to_vec();
        values[self.sentinel_column] = self.sentinel_value.clone();
        Record::new(values)
    }

    fn filler(&self, rng: &mut DetRng) -> Record {
        natural_record(rng)
    }

    fn split_batch(
        &self,
        rows: u64,
        mut is_match: impl FnMut(u64) -> bool,
        match_rng: &mut DetRng,
        fill_rng: &mut DetRng,
    ) -> RecordBatch {
        let planted_mode = match &self.sentinel_value {
            Value::Str(s) => s.as_str(),
            _ => "",
        };
        let mut out = LineItemWriter::new(planted_mode, rows as usize);
        for pos in 0..rows {
            if is_match(pos) {
                let mut row = draw_natural(match_rng);
                self.plant(&mut row);
                out.push(&row);
            } else {
                out.push(&draw_natural(fill_rng));
            }
        }
        out.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_has_twelve_named_columns() {
        let s = schema();
        assert_eq!(s.arity(), 12);
        assert_eq!(s.index_of("l_quantity"), Some(col::QUANTITY));
        assert_eq!(s.index_of("L_SHIPMODE"), Some(col::SHIPMODE));
    }

    #[test]
    fn matching_records_satisfy_predicate_fillers_do_not() {
        let f = LineItemFactory::new(col::QUANTITY, Value::Int(200));
        let p = f.predicate();
        let mut rng = DetRng::seed_from(1);
        for _ in 0..500 {
            assert!(p.eval(&f.matching(&mut rng)));
            assert!(!p.eval(&f.filler(&mut rng)));
        }
    }

    #[test]
    fn float_sentinels_work_exactly() {
        let f = LineItemFactory::new(col::DISCOUNT, Value::Float(0.99));
        let p = f.predicate();
        let mut rng = DetRng::seed_from(2);
        for _ in 0..500 {
            assert!(p.eval(&f.matching(&mut rng)));
            assert!(!p.eval(&f.filler(&mut rng)));
        }
    }

    #[test]
    fn natural_values_stay_in_domain() {
        let f = LineItemFactory::new(col::TAX, Value::Float(0.77));
        let mut rng = DetRng::seed_from(3);
        for _ in 0..200 {
            let r = f.filler(&mut rng);
            let Value::Int(q) = *r.get(col::QUANTITY) else {
                panic!()
            };
            assert!((1..=50).contains(&q));
            let Value::Float(d) = *r.get(col::DISCOUNT) else {
                panic!()
            };
            assert!((0.0..=0.10).contains(&d));
            let Value::Float(t) = *r.get(col::TAX) else {
                panic!()
            };
            assert!((0.0..=0.08).contains(&t));
        }
    }

    #[test]
    fn records_match_schema_types() {
        let s = schema();
        let f = LineItemFactory::new(col::QUANTITY, Value::Int(200));
        let mut rng = DetRng::seed_from(4);
        for r in [f.matching(&mut rng), f.filler(&mut rng)] {
            assert_eq!(r.arity(), s.arity());
            for (i, v) in r.values().iter().enumerate() {
                assert!(s.field(i).ty.admits(v), "column {i} got {}", v.type_name());
            }
        }
    }

    #[test]
    #[should_panic(expected = "inside the natural domain")]
    fn in_domain_sentinel_panics() {
        let _ = LineItemFactory::new(col::QUANTITY, Value::Int(25));
    }
}
