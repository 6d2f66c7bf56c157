//! What one run reports, and the JSON result line.

#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in the order they are printed.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Human-readable detail printed before the result line.
    pub notes: Vec<String>,
    /// Why the run is rejected (its generator ran late), if it is.
    pub invalid: Option<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// A metric printed by name and unit but left out of the result line:
    /// its spread between identical runs on a shared 2-vCPU machine exceeds
    /// any useful regression bound.
    pub fn diagnostic(&mut self, name: &str, value: f64, unit: &str) {
        self.notes.push(format!("diagnostic {name}: {value} {unit}"));
    }

    pub fn count(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    pub fn reject(&mut self, why: String) {
        self.invalid.get_or_insert(why);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.invalid.is_none() && self.attempted > 0
    }

    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", json_number(*value))
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite value with all its digits; JSON has no NaN, so an unmeasurable
/// value is written as -1.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "-1.0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_four_keys() {
        let mut o = Outcome::default();
        o.count(10, 0);
        o.metric("setup_s", 0.012345678, "s");
        o.metric("x", f64::NAN, "ms");
        assert_eq!(
            o.result_line(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"setup_s\": \
             {\"value\": 0.012345678, \"unit\": \"s\"}, \"x\": {\"value\": -1.0, \"unit\": \"ms\"}}}"
        );
        o.count(1, 1);
        assert!(!o.correct());
    }
}
