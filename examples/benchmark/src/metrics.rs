//! The metric catalogue (names, units, direction, bounds) and the rule
//! that classifies a change against a bound. `BENCHMARK.json` at the
//! repository root carries the same table; a unit test keeps them equal.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    #[cfg(test)]
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Largest allowed worsening as a share of the base value
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn gated(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// Every workload reports all of these with tracing off.
pub const END_TO_END: &[Metric] = &[
    gated("dies_per_s", "dies/s", Higher, 0.25),
    gated("cpu_ms_per_die", "ms", Lower, 0.20),
    gated("job_p25_ms", "ms", Lower, 0.15),
    gated("peak_rss_mb", "MB", Lower, 0.25),
    gated("setup_s", "s", Lower, 0.25),
];

/// Every workload reports all of these from its traced run.
pub const PER_LAYER: &[Metric] = &[
    layer("bandgap.solve.us", "us", Lower),
    layer("spice.newton_per_solve", "count", Lower),
    layer("spice.device_evals_per_solve", "count", Lower),
    layer("spice.eval_reuse_frac", "ratio", Higher),
    layer("numerics.vexp.ns", "ns", Lower),
    layer("instrument.measure.us", "us", Lower),
    layer("thermal.selfheat_per_corner", "count", Lower),
    layer("thermal.self_frac", "ratio", Lower),
    layer("core.extract.us", "us", Lower),
    layer("campaign.attempts_per_corner", "count", Lower),
    layer("campaign.robust_frac", "ratio", Lower),
    layer("campaign.quarantine_frac", "ratio", Lower),
    layer("campaign.report.ms", "ms", Lower),
    layer("campaign.die.us", "us", Lower),
    layer("instrument.sample.us", "us", Lower),
    layer("campaign.aggregate.us", "us", Lower),
    layer("campaign.die.residual_frac", "ratio", Lower),
    layer("campaign.worker.self_frac", "ratio", Lower),
    layer("campaign.serial_dies_per_s", "dies/s", Higher),
    layer("campaign.parallel_eff", "ratio", Higher),
    layer("serve.connect.ms", "ms", Lower),
    layer("serve.queue.ms", "ms", Lower),
    layer("serve.stream.ms", "ms", Lower),
    layer("serve.engine.ms", "ms", Lower),
    layer("serve.overhead_x", "ratio", Lower),
    layer("serve.slices_per_job", "count", Lower),
    layer("serve.rss_kb_per_job", "KB", Lower),
    layer("residual_frac", "ratio", Lower),
    layer("trace_overhead_frac", "ratio", Lower),
];

pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// The runs disagree with themselves by more than the bound, so the
    /// change cannot be told from noise.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Relative worsening of `new` against `base` (positive = worse).
fn worsening(base: f64, new: f64, better: Better) -> f64 {
    match better {
        Better::Lower => (new - base) / base,
        Better::Higher => (base - new) / base,
    }
}

/// Classifies a change against its bound. `spread` is the larger of the
/// two sides' relative spreads: where it exceeds the bound the change is
/// unresolved, never "same".
pub fn classify(base: f64, new: f64, better: Better, bound: f64, spread: f64) -> Verdict {
    let w = worsening(base, new, better);
    if !w.is_finite() || spread > bound {
        Verdict::Unresolved
    } else if w > bound {
        Verdict::Worse
    } else if -w > bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icvbe::campaign::json::{parse, Json};

    #[test]
    fn classification_follows_direction_bound_and_spread() {
        assert_eq!(classify(100.0, 105.0, Lower, 0.1, 0.02), Verdict::Same);
        assert_eq!(classify(100.0, 111.0, Lower, 0.1, 0.02), Verdict::Worse);
        assert_eq!(classify(100.0, 85.0, Lower, 0.1, 0.02), Verdict::Better);
        assert_eq!(classify(100.0, 85.0, Higher, 0.1, 0.02), Verdict::Worse);
        assert_eq!(classify(100.0, 120.0, Higher, 0.1, 0.02), Verdict::Better);
        assert_eq!(classify(100.0, 100.0, Lower, 0.1, 0.2), Verdict::Unresolved);
        assert_eq!(classify(0.0, 1.0, Lower, 0.1, 0.0), Verdict::Unresolved);
    }

    #[test]
    fn catalogue_names_are_unique_and_setup_has_the_largest_bound() {
        let all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        for (i, n) in all.iter().enumerate() {
            assert!(!all[i + 1..].contains(n), "{n} listed twice");
        }
        let setup = find("setup_s").and_then(|m| m.bound).unwrap();
        assert!(END_TO_END.iter().all(|m| m.bound.unwrap() <= setup));
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let doc = parse(include_str!("../../../BENCHMARK.json")).unwrap();
        let check = |key: &str, table: &[Metric]| {
            let rows = doc.get(key).and_then(Json::as_arr).unwrap();
            assert_eq!(rows.len(), table.len(), "{key}");
            for (row, m) in rows.iter().zip(table) {
                assert_eq!(row.get("name").and_then(Json::as_str), Some(m.name));
                assert_eq!(row.get("unit").and_then(Json::as_str), Some(m.unit));
                assert_eq!(
                    row.get("better").and_then(Json::as_str),
                    Some(m.better.label())
                );
                assert_eq!(
                    row.get("bound").and_then(Json::as_f64),
                    m.bound,
                    "{}",
                    m.name
                );
            }
        };
        check("end_to_end", END_TO_END);
        check("per_layer", PER_LAYER);
    }
}
