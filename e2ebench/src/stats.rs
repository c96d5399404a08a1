//! Small numeric helpers: quantiles, result digests, and the process's
//! peak resident set.

use incmr_data::{Record, Value};

/// The `q`-quantile (0 ≤ q ≤ 1) of `values`, linearly interpolated between
/// order statistics. Returns 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The arithmetic mean of `values` (0 for an empty slice).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// 64-bit FNV-1a, the hash behind every digest and row fingerprint the
/// benchmark prints or compares.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Mix raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Mix a `u64` (little-endian).
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Mix one value under a type tag, so `Int(1)` and `Date(1)` differ.
    pub fn write_value(&mut self, v: &Value) {
        match v {
            Value::Int(i) => {
                self.write(&[0]);
                self.write(&i.to_le_bytes());
            }
            Value::Float(f) => {
                self.write(&[1]);
                self.write(&f.to_bits().to_le_bytes());
            }
            Value::Str(s) => {
                self.write(&[2]);
                self.write_u64(s.len() as u64);
                self.write(s.as_bytes());
            }
            Value::Date(d) => {
                self.write(&[3]);
                self.write(&d.to_le_bytes());
            }
        }
    }

    /// The hash so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Fingerprint of one row's values, in order.
pub fn row_fingerprint<'a>(values: impl IntoIterator<Item = &'a Value>) -> u64 {
    let mut h = Fnv::default();
    for v in values {
        h.write_value(v);
    }
    h.finish()
}

/// Digest of a result: its row count, then each row's fingerprint in
/// order.
pub fn rows_digest(rows: &[Record]) -> u64 {
    let mut h = Fnv::default();
    h.write_u64(rows.len() as u64);
    for row in rows {
        h.write_u64(row_fingerprint(row.values()));
    }
    h.finish()
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map(|kib| kib / 1024.0)
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(mean(&v), 2.5);
    }

    #[test]
    fn fingerprints_are_type_tagged() {
        assert_ne!(
            row_fingerprint(&[Value::Int(1)]),
            row_fingerprint(&[Value::Date(1)])
        );
        assert_eq!(
            row_fingerprint(&[Value::Str("a".into()), Value::Float(0.5)]),
            row_fingerprint(&[Value::Str("a".into()), Value::Float(0.5)])
        );
    }
}
