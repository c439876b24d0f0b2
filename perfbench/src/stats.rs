//! Sample statistics and the result line.

use std::time::Duration;

/// Nearest-rank percentile of `samples` (`q` in 0..=100). Sorts a copy;
/// an empty sample set reads as 0.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The median (nearest-rank p50).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Index of the pass whose wall is the median, the one that stands for
/// a traced run's per-layer numbers.
pub fn median_index(walls: &[Duration]) -> usize {
    let mut order: Vec<usize> = (0..walls.len()).collect();
    order.sort_by_key(|&i| walls[i]);
    order[order.len() / 2]
}

/// Milliseconds as a float, all digits kept.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Seconds as a float, all digits kept.
pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Named metrics in emission order, each with its unit.
#[derive(Debug, Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    /// Records (or overwrites) one metric.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        match self.entries.iter_mut().find(|(n, _, _)| n == name) {
            Some(slot) => {
                slot.1 = value;
                slot.2 = unit;
            }
            None => self.entries.push((name.to_string(), value, unit)),
        }
    }

    /// Records a count.
    pub fn count(&mut self, name: &str, value: u64) {
        self.put(name, value as f64, "count");
    }

    /// The value of a recorded metric.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }

    /// The `{"name": {"value": v, "unit": u}, …}` object.
    pub fn to_json(&self) -> String {
        let mut o = hlstb_trace::json::Obj::new();
        for (name, value, unit) in &self.entries {
            let mut m = hlstb_trace::json::Obj::new();
            m.raw("value", &format_number(*value)).string("unit", unit);
            o.raw(name, &m.finish());
        }
        o.finish()
    }
}

/// A JSON number with every digit Rust's shortest round-trip form
/// keeps (integral values print without a fraction).
fn format_number(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Peak resident set size of this process so far, in MiB: `VmHWM` of
/// `/proc/self/status`. (`getrusage` would also count the peak of the
/// parent that forked this process, such as `cargo run`, because the
/// kernel carries it across `exec`.)
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&[3.0], 90.0), 3.0);
        assert_eq!(percentile(&[], 90.0), 0.0);
    }

    #[test]
    fn numbers_keep_their_digits() {
        assert_eq!(format_number(3.0), "3");
        assert_eq!(format_number(0.123456789012), "0.123456789012");
    }
}
