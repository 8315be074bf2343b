//! Golden-report snapshots: every report `repro --save reports` writes is
//! pinned byte-for-byte against its committed copy in `reports/`.
//!
//! These reports feed the README, EXPERIMENTS.md and the paper-comparison
//! workflow, so a formatting or numeric drift must be a conscious
//! decision: regenerate with `cargo run --release --bin repro -- --save
//! reports` and review the diff when the change is intended.

use std::path::Path;

use icvbe_repro::report::collect_all_reports;

#[test]
fn every_report_matches_its_committed_copy() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../reports");
    let reports = collect_all_reports();
    assert_eq!(reports.len(), 8, "one report per artifact");
    for report in reports {
        let path = dir.join(format!("{}.txt", report.id));
        let golden =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert_eq!(
            report.body, golden,
            "{} drifted from reports/{}.txt — regenerate the reports if the \
             change is intentional",
            report.id, report.id
        );
    }
}

#[test]
fn golden_reports_are_stable_across_runs() {
    let bodies = || -> Vec<String> { collect_all_reports().into_iter().map(|r| r.body).collect() };
    assert_eq!(bodies(), bodies());
}
