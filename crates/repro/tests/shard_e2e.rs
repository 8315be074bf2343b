//! End-to-end shard determinism: `repro campaign --shards N` must emit
//! the four deterministic report artifacts byte-identically to the
//! in-process single-run path at every shard and thread count, the
//! adaptive corner scheduler must accept bit-identical probe values on
//! clean wafers, and a killed worker must surface as a typed supervisor
//! error rather than a hang or a silent partial result.
//!
//! These tests spawn the real `repro` binary (the supervisor re-invokes
//! it as the hidden `shard-worker` subcommand), so they cover the full
//! process boundary: request serialization, partial checksum framing,
//! and the in-order fold of the shards' die records in the parent.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::atomic::{AtomicU32, Ordering};

/// The four artifacts whose bytes the determinism contract covers.
/// (`campaign_metrics.json` carries wall-clock timings and is exempt.)
const ARTIFACTS: [&str; 4] = [
    "campaign_aggregate.json",
    "campaign_aggregate.csv",
    "campaign_quarantine.json",
    "campaign_quarantine.csv",
];

/// A fresh scratch directory under the system temp dir, unique per call.
fn scratch(tag: &str) -> PathBuf {
    static SEQ: AtomicU32 = AtomicU32::new(0);
    let dir = std::env::temp_dir().join(format!(
        "icvbe-shard-e2e-{}-{}-{}",
        std::process::id(),
        tag,
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    if dir.exists() {
        fs::remove_dir_all(&dir).expect("clear stale scratch dir");
    }
    dir
}

/// Runs `repro campaign` with the given extra args into `out`, asserting
/// success, and returns the captured output for error-path tests.
fn run_campaign(out: &Path, extra: &[&str]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_repro"));
    cmd.args(["campaign", "--dies", "12", "--seed", "42"]);
    cmd.args(["--out", out.to_str().expect("utf-8 scratch path")]);
    cmd.args(extra);
    cmd.output().expect("spawn repro campaign")
}

fn run_campaign_ok(out: &Path, extra: &[&str]) {
    let result = run_campaign(out, extra);
    assert!(
        result.status.success(),
        "campaign {extra:?} failed: {}",
        String::from_utf8_lossy(&result.stderr)
    );
}

/// Asserts all four deterministic artifacts in `b` match `a` byte-for-byte.
fn assert_artifacts_identical(a: &Path, b: &Path, context: &str) {
    for name in ARTIFACTS {
        let want = fs::read(a.join(name)).expect("baseline artifact");
        let got = fs::read(b.join(name)).expect("candidate artifact");
        assert!(
            want == got,
            "{name} differs for {context} (baseline {} vs candidate {})",
            a.display(),
            b.display()
        );
    }
}

#[test]
fn sharded_artifacts_are_byte_identical_across_shard_and_thread_counts() {
    let baseline = scratch("baseline");
    run_campaign_ok(&baseline, &["--threads", "2"]);

    for shards in [1usize, 2, 4, 8] {
        for threads in [1usize, 2] {
            let out = scratch("matrix");
            run_campaign_ok(
                &out,
                &[
                    "--shards",
                    &shards.to_string(),
                    "--threads",
                    &threads.to_string(),
                ],
            );
            assert_artifacts_identical(
                &baseline,
                &out,
                &format!("shards={shards} threads={threads}"),
            );
            fs::remove_dir_all(&out).expect("clean scratch");
        }
    }
    fs::remove_dir_all(&baseline).expect("clean scratch");
}

#[test]
fn sharded_artifacts_survive_fault_injection_byte_identically() {
    let baseline = scratch("faults-baseline");
    run_campaign_ok(&baseline, &["--threads", "2", "--faults", "light"]);

    for shards in [2usize, 8] {
        let out = scratch("faults");
        run_campaign_ok(
            &out,
            &[
                "--threads",
                "2",
                "--faults",
                "light",
                "--shards",
                &shards.to_string(),
            ],
        );
        assert_artifacts_identical(&baseline, &out, &format!("faults=light shards={shards}"));
        fs::remove_dir_all(&out).expect("clean scratch");
    }
    fs::remove_dir_all(&baseline).expect("clean scratch");
}

#[test]
fn sharded_adaptive_artifacts_match_the_in_process_run() {
    // Adaptive runs skip corners, so `skipped` bins cross the die-record
    // codec on their way to the supervisor's fold.
    let baseline = scratch("adaptive-baseline");
    run_campaign_ok(&baseline, &["--threads", "2", "--adaptive"]);
    let json = fs::read_to_string(baseline.join("campaign_aggregate.json")).expect("baseline");
    assert!(
        json.contains("\"skipped\":12"),
        "adaptive baseline skips no corner"
    );

    for shards in [2usize, 4] {
        let out = scratch("adaptive");
        run_campaign_ok(
            &out,
            &[
                "--threads",
                "1",
                "--adaptive",
                "--shards",
                &shards.to_string(),
            ],
        );
        assert_artifacts_identical(&baseline, &out, &format!("adaptive shards={shards}"));
        fs::remove_dir_all(&out).expect("clean scratch");
    }
    fs::remove_dir_all(&baseline).expect("clean scratch");
}

/// Extracts the stats object for the first (probe) corner of the
/// aggregate JSON: everything from the first `"eg_ev"` key through the
/// end of that corner's `"straight"` line. Byte equality of this span
/// means the accepted (EG, XTI) populations are bit-identical.
fn probe_corner_stats(json: &str) -> &str {
    let start = json.find("\"eg_ev\"").expect("probe corner eg_ev block");
    let straight = json[start..]
        .find("\"straight\"")
        .expect("probe corner straight block");
    let end = start + straight + json[start + straight..].find('\n').expect("line end");
    &json[start..end]
}

#[test]
fn adaptive_accepts_bit_identical_probe_values_on_a_clean_wafer() {
    let exhaustive = scratch("exhaustive");
    let adaptive = scratch("adaptive");
    run_campaign_ok(&exhaustive, &["--threads", "2", "--exhaustive"]);
    run_campaign_ok(&adaptive, &["--threads", "2", "--adaptive"]);

    let ex = fs::read_to_string(exhaustive.join("campaign_aggregate.json")).expect("exhaustive");
    let ad = fs::read_to_string(adaptive.join("campaign_aggregate.json")).expect("adaptive");

    // The probe corner's accepted (EG, XTI) statistics are bit-identical:
    // adaptive never re-orders or re-seeds the corner it actually runs.
    assert_eq!(
        probe_corner_stats(&ex),
        probe_corner_stats(&ad),
        "adaptive probe corner drifted from the exhaustive plan"
    );

    // A clean wafer never flags escalation, so every non-probe corner is
    // skipped — and the exhaustive ablation never skips anything.
    assert!(
        ad.contains("\"skipped\":12"),
        "adaptive run on a clean wafer should skip all 12 dies of each trailing corner"
    );
    assert!(
        !ex.contains("\"skipped\""),
        "exhaustive ablation must not skip corners"
    );

    fs::remove_dir_all(&exhaustive).expect("clean scratch");
    fs::remove_dir_all(&adaptive).expect("clean scratch");
}

#[test]
fn killed_shard_worker_surfaces_a_typed_supervisor_error() {
    let out = scratch("killed");
    let result = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["campaign", "--dies", "12", "--seed", "42", "--threads", "1"])
        .args(["--shards", "4", "--out", out.to_str().expect("utf-8 path")])
        .env("ICVBE_SHARD_FAIL", "2")
        .output()
        .expect("spawn repro campaign");
    assert!(
        !result.status.success(),
        "supervisor must fail when a worker dies mid-slice"
    );
    let stderr = String::from_utf8_lossy(&result.stderr);
    assert!(
        stderr.contains("shard worker 2 exited with code 3"),
        "expected the typed worker-exit error on stderr, got: {stderr}"
    );
    // The supervisor must not write partial artifacts on failure.
    for name in ARTIFACTS {
        assert!(
            !out.join(name).exists(),
            "{name} must not be written after a failed sharded run"
        );
    }
    let _ = fs::remove_dir_all(&out);
}
