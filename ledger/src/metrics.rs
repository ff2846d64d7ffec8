//! Order statistics and the result line.

/// The `q`-quantile (0 ≤ q ≤ 1) by linear interpolation between order
/// statistics. Panics on an empty sample: every metric has at least
/// one measurement by construction.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

pub fn max(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(0.0, f64::max)
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Named metric values in print order.
#[derive(Default)]
pub struct Metrics {
    rows: Vec<(&'static str, f64, &'static str)>,
}

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        assert!(
            self.rows.iter().all(|r| r.0 != name),
            "metric {name} set twice"
        );
        self.rows.push((name, value, unit));
    }

    /// One aligned line per metric, for people.
    pub fn table(&self) -> String {
        self.rows
            .iter()
            .map(|(n, v, u)| format!("  {n:<28} {v:>16.4} {u}\n"))
            .collect()
    }

    /// The `"metrics"` object: every value with all its digits.
    pub fn json(&self) -> String {
        let body: Vec<String> = self
            .rows
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// What one run did: operations attempted and failed, whether every
/// output matched its reference, and the metrics.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

impl Outcome {
    /// The result line: the last line of stdout, one JSON object.
    pub fn json(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct,
            self.attempted,
            self.failed,
            self.metrics.json()
        )
    }
}
