//! What one run collects: metric values by name, operations attempted
//! and failed, correctness-gate failures, and the notes (sample counts,
//! digests) printed with the table.

use crate::json::Measured;
use std::collections::BTreeMap;

#[derive(Default)]
pub struct Report {
    values: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
    pub gate_failures: Vec<String>,
    pub notes: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            self.values.insert(name, value).is_none(),
            "metric {name} measured twice"
        );
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Records a correctness gate; `what` is only built on failure.
    pub fn gate(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.gate_failures.push(what());
        }
    }

    pub fn note(&mut self, text: String) {
        self.notes.push(text);
    }

    pub fn correct(&self) -> bool {
        self.gate_failures.is_empty()
    }

    /// The declared metrics in declaration order. Panics when one was
    /// not measured: the contract wants every declared metric in every
    /// result.
    pub fn measured(
        &self,
        declared: impl Iterator<Item = (&'static str, &'static str)>,
    ) -> Vec<Measured> {
        declared
            .map(|(name, unit)| Measured {
                name,
                value: self
                    .get(name)
                    .unwrap_or_else(|| panic!("metric {name} was not measured")),
                unit,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gates_collect_failures() {
        let mut r = Report::default();
        r.gate(true, || unreachable!());
        assert!(r.correct());
        r.gate(false, || "broken".into());
        assert!(!r.correct());
        assert_eq!(r.gate_failures, vec!["broken".to_string()]);
    }
}
