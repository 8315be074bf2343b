//! The four workloads, the campaigns they run, and the timed wafer run.
//!
//! Workloads differ only in inputs that change the artifacts (wafer
//! size, seed, fault injection, adaptive scheduling). Every call goes
//! through a default-option entry point, so the solver's speed switches
//! can be removed without editing this file.

use std::hint::black_box;
use std::time::Instant;

use icvbe::campaign::aggregate::{CampaignAggregate, YieldBin};
use icvbe::campaign::json::{parse, Json};
use icvbe::campaign::report::{
    aggregate_csv, aggregate_json, metrics_json, quarantine_csv, quarantine_json,
};
use icvbe::campaign::spec::WaferMap;
use icvbe::campaign::{run_campaign, CampaignRun, CampaignSpec};
use icvbe::instrument::faults::FaultSpec;

use crate::host;
use crate::report::Report;
use crate::stats::{fnv1a, p25, p50, p75, p90, split_half_spread, FNV_OFFSET};

/// Worker threads of every campaign and of the service (the host has
/// two cores).
pub const THREADS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 1264 dies x 3 corners: nearly all time in the DC solve stack.
    Exhaustive,
    /// The same wafer under heavy measurement faults: retries, the robust
    /// refit and quarantine records load the recovery path.
    Faulted,
    /// 5024 dies, one probe corner each: the per-die path, where fixed
    /// per-die and worker-pool costs weigh three times more.
    Adaptive,
    /// Two tenants submitting 112-die lots to an in-process daemon.
    Serve,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Exhaustive,
        Workload::Faulted,
        Workload::Adaptive,
        Workload::Serve,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Exhaustive => "wafer_exhaustive",
            Workload::Faulted => "wafer_faulted",
            Workload::Adaptive => "wafer_adaptive",
            Workload::Serve => "serve_two_tenants",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The campaign of job `job`. Its seed mixes the benchmark seed, the
    /// workload name and the job index, so every lot of a run is a
    /// different wafer and the same seed always gives the same lots.
    pub fn spec(self, seed: u64, job: u64, quick: bool) -> CampaignSpec {
        let diameter = match self {
            Workload::Serve => 12,
            _ if quick => 8,
            Workload::Exhaustive | Workload::Faulted => 40,
            Workload::Adaptive => 80,
        };
        let mut spec = CampaignSpec::paper_default(
            WaferMap::circular(diameter),
            campaign_seed(seed, self, job),
        );
        match self {
            Workload::Faulted => {
                spec.faults = FaultSpec::heavy();
                spec.retry_budget = 3;
                spec.robust = true;
            }
            Workload::Adaptive => spec.adaptive = true,
            Workload::Exhaustive | Workload::Serve => {}
        }
        spec
    }
}

fn campaign_seed(seed: u64, workload: Workload, job: u64) -> u64 {
    let h = fnv1a(FNV_OFFSET, &seed.to_le_bytes());
    let h = fnv1a(h, workload.name().as_bytes());
    fnv1a(h, &job.to_le_bytes())
}

/// Run-time settings shared by every mode.
#[derive(Debug, Clone)]
pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    pub quick: bool,
}

impl Options {
    /// One-die campaigns timed for `setup_s`.
    pub fn setup_calls(&self) -> usize {
        if self.quick {
            10
        } else {
            40
        }
    }
}

/// The four deterministic artifacts, in this order.
pub const ARTIFACTS: [&str; 4] = [
    "campaign_aggregate.json",
    "campaign_aggregate.csv",
    "campaign_quarantine.json",
    "campaign_quarantine.csv",
];

pub fn render(run: &CampaignRun) -> [String; 4] {
    [
        aggregate_json(run),
        aggregate_csv(run),
        quarantine_json(run),
        quarantine_csv(run),
    ]
}

/// FNV-1a of each of the four artifacts.
pub fn digests(artifacts: &[String; 4]) -> [u64; 4] {
    artifacts
        .each_ref()
        .map(|body| fnv1a(FNV_OFFSET, body.as_bytes()))
}

/// Names the first artifact and line where `got` leaves `want`.
pub fn artifact_diff(want: &[String; 4], got: &[String; 4]) -> String {
    for ((name, a), b) in ARTIFACTS.iter().zip(want).zip(got) {
        if a == b {
            continue;
        }
        let mut la = a.lines();
        let mut lb = b.lines();
        for line in 1.. {
            match (la.next(), lb.next()) {
                (Some(x), Some(y)) if x == y => continue,
                (x, y) => {
                    let cut = |s: Option<&str>| -> String {
                        s.unwrap_or("<end>").chars().take(120).collect()
                    };
                    return format!(
                        "{name} line {line}: expected `{}`, got `{}`",
                        cut(x),
                        cut(y)
                    );
                }
            }
        }
    }
    "artifacts identical".to_string()
}

/// Die-corners that ran (adaptive skips excluded) and quarantined ones.
fn executed_and_quarantined(aggregate: &CampaignAggregate) -> (u64, u64) {
    let executed = aggregate
        .corners
        .iter()
        .map(|c| c.bins.iter().sum::<u64>() - c.bins[YieldBin::Skipped.index()])
        .sum();
    (executed, aggregate.quarantine.len() as u64)
}

/// A counter from the run's metrics document, read by key path so the
/// benchmark does not depend on the metrics structs. Missing keys give
/// `None`.
pub fn metrics_counter(run: &CampaignRun, path: &[&str]) -> Option<f64> {
    let doc = parse(&metrics_json(run)).ok()?;
    let mut v: &Json = &doc;
    for key in path {
        v = v.get(key)?;
    }
    v.as_f64()
}

fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// The timed run of a wafer workload: set-up calls, a warm-up run that
/// also fixes the reference artifacts, reps for `seconds`, then the
/// 1-thread guard.
pub fn run_wafer(workload: Workload, options: &Options) -> Result<Report, String> {
    let spec = workload.spec(options.seed, 0, options.quick);
    let dies = spec.wafer.die_count() as f64;
    let mut report = Report::new(workload.name());

    let one_die = CampaignSpec {
        wafer: WaferMap::full(1, 1),
        ..spec.clone()
    };
    let mut setup = Vec::with_capacity(options.setup_calls());
    for _ in 0..options.setup_calls() {
        let t0 = Instant::now();
        let run = run_campaign(&one_die, THREADS).map_err(|e| e.to_string())?;
        black_box(render(&run));
        setup.push(secs(t0));
    }

    let reference = run_campaign(&spec, THREADS).map_err(|e| e.to_string())?;
    let want = render(&reference);
    let want_digests = digests(&want);

    let (min_reps, max_reps) = if options.quick {
        (5, 5)
    } else {
        (5, usize::MAX)
    };
    let mut wall = Vec::new();
    let mut cpu = Vec::new();
    let started = Instant::now();
    while wall.len() < min_reps || (secs(started) < options.seconds && wall.len() < max_reps) {
        let cpu0 = host::process_cpu_ms();
        let t0 = Instant::now();
        let run = run_campaign(&spec, THREADS).map_err(|e| e.to_string())?;
        let got = render(&run);
        wall.push(secs(t0));
        cpu.push(host::process_cpu_ms() - cpu0);
        report.attempted += 1;
        if digests(&got) != want_digests {
            report.failed += 1;
            report.guard_failures.push(format!(
                "rep {} digest differs from the warm-up run: {}",
                wall.len(),
                artifact_diff(&want, &got)
            ));
        }
    }

    let serial = run_campaign(&spec, 1).map_err(|e| e.to_string())?;
    if serial.aggregate != reference.aggregate {
        report.guard_failures.push(format!(
            "1-thread aggregate differs from the 2-thread one: {}",
            artifact_diff(&want, &render(&serial))
        ));
    }

    report.metric("dies_per_s", dies / p25(&wall));
    report.metric("cpu_ms_per_die", p25(&cpu) / dies);
    report.metric("job_p25_ms", p25(&wall) * 1e3);
    report.metric("peak_rss_mb", host::peak_rss_mb());
    report.metric("setup_s", p50(&setup));
    report.spread = vec![
        ("dies_per_s", split_half_spread(&wall, p25)),
        ("cpu_ms_per_die", split_half_spread(&cpu, p25)),
        ("job_p25_ms", split_half_spread(&wall, p25)),
        ("peak_rss_mb", 0.0),
        ("setup_s", split_half_spread(&setup, p50)),
    ];
    report.diagnostics = vec![
        ("reps", wall.len() as f64),
        ("job_p50_ms", p50(&wall) * 1e3),
        ("job_p75_ms", p75(&wall) * 1e3),
        ("job_p90_ms", p90(&wall) * 1e3),
        ("cpu_p50_ms_per_die", p50(&cpu) / dies),
    ];

    let (executed, quarantined) = executed_and_quarantined(&reference.aggregate);
    let counter = |path: &[&str]| {
        metrics_counter(&reference, path).map_or_else(|| "null".to_string(), |v| v.to_string())
    };
    report.deterministic = vec![
        ("dies", dies.to_string()),
        ("die_corners_executed", executed.to_string()),
        (
            "failed_frac",
            (quarantined as f64 / executed as f64).to_string(),
        ),
        ("solves", counter(&["solver", "solves"])),
        (
            "newton_iterations",
            counter(&["solver", "newton_iterations"]),
        ),
        ("device_evals", counter(&["solver", "device_evals"])),
        (
            "artifact_digests",
            want_digests.map(|d| format!("{d:016x}")).join("-"),
        ),
    ];
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_are_seeded_per_workload_and_job() {
        let a = Workload::Exhaustive.spec(2002, 0, false);
        assert_eq!(a.wafer.die_count(), 1264);
        assert_eq!(a, Workload::Exhaustive.spec(2002, 0, false));
        assert_ne!(a.seed, Workload::Exhaustive.spec(2002, 1, false).seed);
        assert_ne!(a.seed, Workload::Exhaustive.spec(2003, 0, false).seed);
        assert_ne!(a.seed, Workload::Faulted.spec(2002, 0, false).seed);
        assert_eq!(Workload::Adaptive.spec(1, 0, false).wafer.die_count(), 5024);
        assert_eq!(Workload::Serve.spec(1, 0, true).wafer.die_count(), 112);
        assert!(Workload::Faulted.spec(1, 0, true).validate().is_ok());
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
    }

    #[test]
    fn digest_and_diff_name_the_drifting_artifact() {
        let want = ["a\nb".to_string(), "c".into(), "d".into(), "e".into()];
        let mut got = want.clone();
        assert_eq!(digests(&want), digests(&got));
        got[2] = "d2".into();
        assert_eq!(digests(&want)[..2], digests(&got)[..2]);
        assert_ne!(digests(&want)[2], digests(&got)[2]);
        let diff = artifact_diff(&want, &got);
        assert!(
            diff.starts_with("campaign_quarantine.json line 1"),
            "{diff}"
        );
    }
}
