//! Collected metrics and the result line.

/// One named measurement.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples the value summarizes.
    pub samples: usize,
}

/// Everything one run measured and checked.
#[derive(Default)]
pub struct Report {
    metrics: Vec<Metric>,
    /// Operations attempted (queries and inserts, timed and checked).
    pub attempted: u64,
    /// Failed, refused, or oracle-mismatched operations.
    pub failed: u64,
    /// Why the run is not correct (failed checks and guards).
    pub problems: Vec<String>,
}

impl Report {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.retain(|m| m.name != name);
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    pub fn problem(&mut self, what: impl Into<String>) {
        self.problems.push(what.into());
    }

    /// Counts one checked operation; a failure is recorded with `what`.
    pub fn outcome(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 5 {
                self.problems.push(what());
            }
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Prints every metric on its own line, then, as the last line, the
    /// result object carrying the metrics named in `gated`.
    pub fn print(&mut self, gated: &[&str]) {
        for m in &self.metrics {
            println!("metric {} {} {} n={}", m.name, m.value, m.unit, m.samples);
        }
        let failed_frac = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "failed_frac {failed_frac} ({} of {})",
            self.failed, self.attempted
        );
        let mut fields = Vec::new();
        for name in gated {
            match self.metrics.iter().find(|m| m.name == *name) {
                Some(m) if m.value.is_finite() => fields.push(format!(
                    "{:?}: {{\"value\": {:?}, \"unit\": {:?}}}",
                    m.name, m.value, m.unit
                )),
                _ => self
                    .problems
                    .push(format!("metric {name} was not measured")),
            }
        }
        for p in &self.problems {
            println!("problem: {p}");
        }
        let correct = self.problems.is_empty() && self.failed == 0;
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            fields.join(", ")
        );
    }
}
