//! Small numeric helpers: percentiles, hashing, the metric list the run
//! prints, and the process memory high-water mark.

use std::time::Duration;

/// Milliseconds in a duration, with all their digits.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Nearest-rank percentile (`p` in `[0, 1]`) of unsorted samples; `0.0`
/// when there are none.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted samples (nearest rank).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// `num / den`, or `0.0` when the denominator is zero.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// FNV-1a over a byte stream; the digest the output checks pin.
#[derive(Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// Digest of one byte buffer.
pub fn digest(bytes: &[u8]) -> u64 {
    let mut h = Fnv::default();
    h.bytes(bytes);
    h.0
}

/// Digest of a list of bitmaps (query outputs): row index, then set bits.
pub fn digest_rows(rows: &[twoview_data::Bitmap]) -> u64 {
    let mut h = Fnv::default();
    for (i, row) in rows.iter().enumerate() {
        h.u64(i as u64);
        for bit in row.iter() {
            h.u64(bit as u64);
        }
    }
    h.0
}

/// The metrics one run prints, in insertion order.
#[derive(Default)]
pub struct Metrics {
    rows: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        // `+ 0.0` turns the `-0.0` an empty float sum yields into `0.0`.
        let value = if value.is_finite() { value + 0.0 } else { 0.0 };
        self.rows.push((name.to_string(), value, unit));
    }

    pub fn rows(&self) -> &[(String, f64, &'static str)] {
        &self.rows
    }

    /// The `"metrics"` object of the result line.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .rows
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// Process high-water resident set (`VmHWM`) in MB, `0.0` where
/// `/proc/self/status` does not exist.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&xs), 3.0);
        assert_eq!(percentile(&xs, 0.9), 5.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn metric_json_keeps_all_digits() {
        let mut m = Metrics::default();
        m.put("fit_ms.p50", 1.0 / 3.0, "ms");
        assert_eq!(
            m.to_json(),
            "{\"fit_ms.p50\": {\"value\": 0.3333333333333333, \"unit\": \"ms\"}}"
        );
    }
}
