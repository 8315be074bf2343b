//! `--compare A.json B.json`: every (metric, workload) pair of two
//! results files against its bound, and every deterministic value
//! checked for exact equality.

use std::path::Path;
use std::process::ExitCode;

use icvbe::campaign::json::{parse, Json};

use crate::metrics::{classify, Verdict, END_TO_END};

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn members(v: Option<&Json>) -> &[(String, Json)] {
    match v {
        Some(Json::Obj(m)) => m,
        _ => &[],
    }
}

fn num(run: &Json, path: &[&str]) -> Option<f64> {
    path.iter().try_fold(run, |v, k| v.get(k))?.as_f64()
}

/// Prints the comparison; fails on any worse metric, any deterministic
/// mismatch, or a run missing from `b`.
pub fn run(a_path: &Path, b_path: &Path) -> ExitCode {
    let (a, b) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let mut failed = false;
    println!(
        "{:<32} {:<22} {:>12} {:>12} {:>8} {:>7} {:>7}  verdict",
        "run", "metric", "A", "B", "change", "spread", "bound"
    );
    for (key, run_a) in members(a.get("runs")) {
        let Some(run_b) = b.get("runs").and_then(|r| r.get(key)) else {
            println!("{key:<32} missing from B");
            failed = true;
            continue;
        };
        if key.ends_with("/timed") {
            for m in END_TO_END {
                let bound = m.bound.unwrap_or(0.0);
                let value = |run: &Json| num(run, &["result", "metrics", m.name, "value"]);
                let spread = |run: &Json| num(run, &["detail", "spread", m.name]).unwrap_or(0.0);
                let (Some(va), Some(vb)) = (value(run_a), value(run_b)) else {
                    println!("{key:<32} {:<22} missing", m.name);
                    failed = true;
                    continue;
                };
                let s = spread(run_a).max(spread(run_b));
                let verdict = classify(va, vb, m.better, bound, s);
                failed |= verdict == Verdict::Worse;
                println!(
                    "{key:<32} {:<22} {va:>12.4} {vb:>12.4} {:>+7.1}% {:>6.1}% {:>6.1}%  {}",
                    m.name,
                    100.0 * (vb - va) / va,
                    100.0 * s,
                    100.0 * bound,
                    verdict.label()
                );
            }
        }
        let exact_b = members(run_b.get("detail").and_then(|d| d.get("deterministic")));
        for (name, va) in members(run_a.get("detail").and_then(|d| d.get("deterministic"))) {
            let vb = exact_b.iter().find(|(n, _)| n == name).map(|(_, v)| v);
            let (sa, sb) = (va.as_str(), vb.and_then(Json::as_str));
            let verdict = if sa == sb {
                "identical"
            } else if name == "artifact_digests" {
                // Digests are informational: a documented bits cutover
                // changes them without failing the comparison.
                "differs (bits changed)"
            } else {
                failed = true;
                "MISMATCH"
            };
            println!(
                "{key:<32} {name:<22} {:>12} {:>12}  {verdict}",
                sa.unwrap_or("-"),
                sb.unwrap_or("-")
            );
        }
    }
    if failed {
        eprintln!(
            "comparison failed: a metric got worse than its bound or a deterministic value moved"
        );
        ExitCode::FAILURE
    } else {
        println!("comparison passed");
        ExitCode::SUCCESS
    }
}
