//! What one workload run hands back, and how it is printed.

use icvbe::campaign::json::escape;

use crate::metrics;
use crate::stats::{json_num, json_opt};

/// Prefix of the stdout line carrying everything a result line has no
/// room for: spreads, deterministic values, diagnostics and warnings.
pub const DETAIL_PREFIX: &str = "detail ";

#[derive(Debug, Default)]
pub struct Report {
    pub workload: &'static str,
    /// Operations measured: timed reps, or lots submitted.
    pub attempted: u64,
    /// Operations that failed: reps whose artifacts drifted, or lots
    /// that were refused, failed, cancelled or errored.
    pub failed: u64,
    /// Named output-guard diffs; any entry makes the run incorrect.
    pub guard_failures: Vec<String>,
    /// Metric values in catalogue order; `None` when a guard withheld
    /// the number.
    pub metrics: Vec<(&'static str, Option<f64>)>,
    /// Relative split-half spread per metric.
    pub spread: Vec<(&'static str, f64)>,
    /// Values that must repeat exactly for the same seed.
    pub deterministic: Vec<(&'static str, String)>,
    /// Printed for people, never gated.
    pub diagnostics: Vec<(&'static str, f64)>,
    pub warnings: Vec<String>,
}

impl Report {
    pub fn new(workload: &'static str) -> Self {
        Report {
            workload,
            ..Report::default()
        }
    }

    pub fn correct(&self) -> bool {
        self.guard_failures.is_empty()
    }

    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, Some(value)));
    }

    /// The last stdout line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value)| {
                let unit = metrics::find(name).map_or("", |m| m.unit);
                format!(
                    "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                    json_opt(*value)
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(",")
        )
    }

    pub fn detail_line(&self) -> String {
        let nums = |xs: &[(&str, f64)]| {
            xs.iter()
                .map(|(k, v)| format!("\"{k}\":{}", json_num(*v)))
                .collect::<Vec<_>>()
                .join(",")
        };
        let exact = self
            .deterministic
            .iter()
            .map(|(k, v)| format!("\"{k}\":\"{}\"", escape(v)))
            .collect::<Vec<_>>()
            .join(",");
        let list = |xs: &[String]| {
            xs.iter()
                .map(|s| format!("\"{}\"", escape(s)))
                .collect::<Vec<_>>()
                .join(",")
        };
        format!(
            "{DETAIL_PREFIX}{{\"workload\":\"{}\",\"spread\":{{{}}},\"deterministic\":{{{}}},\
             \"diagnostics\":{{{}}},\"warnings\":[{}],\"guard_failures\":[{}]}}",
            self.workload,
            nums(&self.spread),
            exact,
            nums(&self.diagnostics),
            list(&self.warnings),
            list(&self.guard_failures),
        )
    }

    /// Human-readable summary, printed before the machine lines.
    pub fn print_summary(&self) {
        for (name, value) in &self.metrics {
            let unit = metrics::find(name).map_or("", |m| m.unit);
            let spread = self
                .spread
                .iter()
                .find(|(n, _)| n == name)
                .map_or(String::new(), |(_, s)| {
                    format!("  (split-half spread {:.1} %)", s * 100.0)
                });
            match value {
                Some(v) => println!("  {:<30} {:>14.4} {unit}{spread}", name, v),
                None => println!("  {:<30} {:>14} {unit}", name, "null"),
            }
        }
        for (name, value) in &self.diagnostics {
            println!("  [diag] {name:<23} {value:>14.4}");
        }
        for (name, value) in &self.deterministic {
            println!("  [exact] {name:<22} {value:>14}");
        }
        for w in &self.warnings {
            println!("  warning: {w}");
        }
        for g in &self.guard_failures {
            eprintln!("GUARD FAILED [{}]: {g}", self.workload);
        }
    }
}
