//! Sharded campaign execution: N worker **processes**, one deterministic
//! tree merge.
//!
//! The in-process engine already fans dies across threads; this module
//! fans a campaign across *processes* — the shape production test farms
//! actually run (one tester host per wafer slice, a supervisor folding
//! the lot report). Each worker runs a contiguous die-range slice of the
//! spec through `run_campaign_streaming` and emits a serialized
//! [`PartialAggregate`]; the supervisor folds the partials **left to
//! right in ascending die order** through
//! [`PartialAggregate::merge`], which reproduces the single-process
//! fold's bytes exactly:
//!
//! - the statistics are exact superaccumulators (integer limb adds), so
//!   per-shard sub-sums merge without rounding;
//! - the quarantine record list concatenates in die order because the
//!   merge enforces slice adjacency;
//! - counters and histograms are plain integer adds.
//!
//! The four deterministic report artifacts are therefore byte-identical
//! at any shard count — `--shards 8` equals `--shards 1` equals the
//! in-process engine. The metrics artifact stays what it always was:
//! wall-clock-bearing and non-deterministic.
//!
//! # Protocol
//!
//! Line-delimited JSON over the worker's stdio, one request in, one
//! terminal document out:
//!
//! | direction | line |
//! |---|---|
//! | supervisor → worker | `{"cmd":"shard_run","version":2,"shard":i,"start_die":a,"end_die":b,"threads":t,"die_iter_budget":x,"die_wall_ms":y,"spec":{...}}` |
//! | worker → supervisor | `{"type":"progress","shard":i,"folded":n}`* (cadenced) |
//! | worker → supervisor (terminal) | the checksummed partial-aggregate document (`"schema":"icvbe-campaign-partial-v3"`) |
//! | worker → supervisor (terminal) | `{"ok":false,"error":e,"detail":d}` |
//!
//! A worker that exits without a terminal line (crash, kill, OOM) is
//! reported as a typed [`ShardError::WorkerExited`] — the supervisor
//! never fabricates a slice. The `ICVBE_SHARD_FAIL=<shard>` environment
//! variable makes the named worker abort mid-slice, which is how the
//! smoke tests exercise that path deterministically.

use std::io::{BufRead, BufReader, Write as _};
use std::ops::ControlFlow;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::Instant;

use icvbe_campaign::die::DieBudget;
use icvbe_campaign::json::{parse, Json};
use icvbe_campaign::metrics::CampaignCounters;
use icvbe_campaign::partial::{
    partial_from_json, partial_to_json, PartialAggregate, PARTIAL_SCHEMA,
};
use icvbe_campaign::wire::{spec_fingerprint, spec_from_value, spec_to_json};
use icvbe_campaign::{run_campaign_streaming, CampaignRun, CampaignSpec, StreamOptions};

/// Version tag of the supervisor↔worker request line.
pub const SHARD_PROTOCOL_VERSION: u32 = 2;

/// Environment variable naming a shard index that must abort mid-slice
/// (fault-injection hook for supervisor tests; unset = inert).
pub const SHARD_FAIL_ENV: &str = "ICVBE_SHARD_FAIL";

/// Worker progress cadence: one `progress` line per this many folded dies.
const PROGRESS_EVERY: u64 = 64;

/// Typed supervisor failures. Every variant names the shard it came from
/// where one exists — "something died somewhere" is not actionable on a
/// test floor.
#[derive(Debug)]
pub enum ShardError {
    /// The request itself is unusable (zero shards, invalid spec).
    Config(String),
    /// A worker process could not be spawned or written to.
    Spawn {
        /// Shard index.
        shard: usize,
        /// OS-level detail.
        detail: String,
    },
    /// A worker exited without emitting its terminal partial aggregate.
    WorkerExited {
        /// Shard index.
        shard: usize,
        /// Exit code when the process exited normally.
        code: Option<i32>,
    },
    /// A worker reported a typed error line instead of a partial.
    Worker {
        /// Shard index.
        shard: usize,
        /// The worker's `error`/`detail` payload.
        detail: String,
    },
    /// A worker's terminal document was malformed or described the wrong
    /// slice.
    Protocol {
        /// Shard index.
        shard: usize,
        /// What was wrong with the document.
        detail: String,
    },
    /// The left-to-right fold rejected a partial (fingerprint mismatch or
    /// non-adjacent slices).
    Merge(String),
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::Config(d) => write!(f, "shard config: {d}"),
            ShardError::Spawn { shard, detail } => {
                write!(f, "spawning shard worker {shard}: {detail}")
            }
            ShardError::WorkerExited { shard, code } => match code {
                Some(c) => write!(
                    f,
                    "shard worker {shard} exited with code {c} before its partial aggregate"
                ),
                None => write!(
                    f,
                    "shard worker {shard} was killed before its partial aggregate"
                ),
            },
            ShardError::Worker { shard, detail } => {
                write!(f, "shard worker {shard} failed: {detail}")
            }
            ShardError::Protocol { shard, detail } => {
                write!(f, "shard worker {shard} protocol violation: {detail}")
            }
            ShardError::Merge(d) => write!(f, "merging shard partials: {d}"),
        }
    }
}

impl std::error::Error for ShardError {}

/// Supervisor knobs beyond the spec.
#[derive(Debug, Clone)]
pub struct ShardOptions {
    /// Worker process count (must be ≥ 1).
    pub shards: usize,
    /// Worker threads **per shard**.
    pub threads: usize,
    /// Per-die solve containment budget forwarded to every worker.
    pub budget: DieBudget,
    /// Worker executable; `None` (the default) re-invokes the current
    /// executable with the `shard-worker` subcommand.
    pub worker_exe: Option<PathBuf>,
}

impl Default for ShardOptions {
    fn default() -> Self {
        ShardOptions {
            shards: 1,
            threads: 1,
            budget: DieBudget::default(),
            worker_exe: None,
        }
    }
}

/// Contiguous die-range slices: shard `i` of `shards` gets
/// `total / shards` dies plus one of the `total % shards` remainder dies
/// (front-loaded), so the slices tile `0..total` exactly and differ in
/// size by at most one. Deterministic in `(total, shards)` alone.
#[must_use]
pub fn slice_ranges(total: usize, shards: usize) -> Vec<(usize, usize)> {
    let base = total / shards;
    let rem = total % shards;
    let mut ranges = Vec::with_capacity(shards);
    let mut at = 0usize;
    for i in 0..shards {
        let len = base + usize::from(i < rem);
        ranges.push((at, at + len));
        at += len;
    }
    debug_assert_eq!(at, total);
    ranges
}

/// Renders the one-line worker request.
#[must_use]
pub fn shard_request_line(
    spec: &CampaignSpec,
    shard: usize,
    range: (usize, usize),
    opts: &ShardOptions,
) -> String {
    format!(
        concat!(
            "{{\"cmd\":\"shard_run\",\"version\":{version},\"shard\":{shard},",
            "\"start_die\":{start},\"end_die\":{end},\"threads\":{threads},",
            "\"die_iter_budget\":{iters},\"die_wall_ms\":{wall},\"spec\":{spec}}}"
        ),
        version = SHARD_PROTOCOL_VERSION,
        shard = shard,
        start = range.0,
        end = range.1,
        threads = opts.threads,
        iters = opts.budget.max_newton_iterations,
        wall = opts.budget.max_wall_ms,
        spec = spec_to_json(spec),
    )
}

/// Runs `spec` across `opts.shards` worker processes and folds their
/// partial aggregates into one [`CampaignRun`] whose deterministic
/// artifacts are byte-identical to a single-process run.
///
/// The returned run's metrics are the supervisor's view: merged worker
/// counters and histograms, the supervisor's wall clock, `threads` set to
/// the total worker-thread count, and the max of the shards' reorder
/// buffer peaks.
///
/// # Errors
///
/// [`ShardError`] — see the variants; any failure kills the remaining
/// workers before returning so no orphan keeps computing.
pub fn run_sharded(spec: &CampaignSpec, opts: &ShardOptions) -> Result<CampaignRun, ShardError> {
    if opts.shards == 0 {
        return Err(ShardError::Config("--shards must be at least 1".into()));
    }
    spec.validate()
        .map_err(|e| ShardError::Config(e.to_string()))?;
    let exe = match &opts.worker_exe {
        Some(p) => p.clone(),
        None => std::env::current_exe()
            .map_err(|e| ShardError::Config(format!("cannot locate own executable: {e}")))?,
    };
    let total = spec.wafer.die_count();
    let ranges = slice_ranges(total, opts.shards);
    let fingerprint = spec_fingerprint(spec);
    let started = Instant::now();

    // Spawn every worker first so the slices run concurrently; results
    // are then *read* sequentially in shard order, which is exactly the
    // left-to-right association the merge requires.
    let mut children: Vec<Option<Child>> = Vec::with_capacity(opts.shards);
    for (shard, range) in ranges.iter().enumerate() {
        let spawn = |shard: usize| -> std::io::Result<Child> {
            let mut child = Command::new(&exe)
                .arg("shard-worker")
                .stdin(Stdio::piped())
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit())
                .spawn()?;
            // The request is a single line; closing stdin right after
            // tells the worker there is nothing more to wait for.
            if let Some(stdin) = child.stdin.take().as_mut() {
                stdin.write_all(shard_request_line(spec, shard, *range, opts).as_bytes())?;
                stdin.write_all(b"\n")?;
            }
            Ok(child)
        };
        match spawn(shard) {
            Ok(child) => children.push(Some(child)),
            Err(e) => {
                kill_all(&mut children);
                return Err(ShardError::Spawn {
                    shard,
                    detail: e.to_string(),
                });
            }
        }
    }

    // Sequential left-to-right fold over the shards' partials.
    let mut folded: Option<PartialAggregate> = None;
    for (shard, range) in ranges.iter().enumerate() {
        let Some(mut child) = children[shard].take() else {
            continue;
        };
        let partial = match read_partial(&mut child, shard) {
            Ok(p) => p,
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                kill_all(&mut children);
                return Err(e);
            }
        };
        let _ = child.wait();
        if partial.fingerprint != fingerprint || (partial.start_die, partial.end_die) != *range {
            kill_all(&mut children);
            return Err(ShardError::Protocol {
                shard,
                detail: format!(
                    "partial describes slice [{}, {}) of spec {:016x}, expected [{}, {}) of {fingerprint:016x}",
                    partial.start_die, partial.end_die, partial.fingerprint, range.0, range.1
                ),
            });
        }
        match folded.as_mut() {
            None => folded = Some(partial),
            Some(acc) => acc
                .merge(partial)
                .map_err(|e| ShardError::Merge(e.to_string()))?,
        }
    }
    let folded = folded.ok_or_else(|| ShardError::Config("no shards ran".into()))?;

    let metrics = folded.counters.snapshot(
        opts.shards * opts.threads.max(1),
        started.elapsed().as_nanos() as u64,
        folded.max_reorder_buffer,
    );
    Ok(CampaignRun {
        spec: spec.clone(),
        aggregate: folded.aggregate,
        metrics,
        trace: None,
    })
}

fn kill_all(children: &mut Vec<Option<Child>>) {
    for child in children.iter_mut().filter_map(Option::as_mut) {
        let _ = child.kill();
        let _ = child.wait();
    }
    children.clear();
}

/// Reads one worker's stdout until its terminal line: the partial (by its
/// schema tag), a typed error line, or EOF (worker died).
fn read_partial(child: &mut Child, shard: usize) -> Result<PartialAggregate, ShardError> {
    let Some(stdout) = child.stdout.take() else {
        return Err(ShardError::Protocol {
            shard,
            detail: "worker stdout was not captured".into(),
        });
    };
    for line in BufReader::new(stdout).lines() {
        let line = line.map_err(|e| ShardError::Protocol {
            shard,
            detail: format!("reading worker output: {e}"),
        })?;
        if line.is_empty() {
            continue;
        }
        if line.contains(PARTIAL_SCHEMA) {
            return partial_from_json(&line).map_err(|e| ShardError::Protocol {
                shard,
                detail: e.to_string(),
            });
        }
        if let Ok(v) = parse(&line) {
            if v.get("ok").and_then(Json::as_bool) == Some(false) {
                let error = v.get("error").and_then(Json::as_str).unwrap_or("unknown");
                let detail = v.get("detail").and_then(Json::as_str).unwrap_or("");
                return Err(ShardError::Worker {
                    shard,
                    detail: format!("{error}: {detail}"),
                });
            }
            // Anything else ({"type":"progress",...}) is cadence noise.
        }
    }
    // EOF without a terminal line: the worker died mid-slice.
    let code = child.wait().ok().and_then(|status| status.code());
    Err(ShardError::WorkerExited { shard, code })
}

/// Minimal JSON string escaping for error detail lines.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn worker_fail(error: &str, detail: &str) -> String {
    format!(
        "{{\"ok\":false,\"error\":\"{}\",\"detail\":\"{}\"}}",
        escape(error),
        escape(detail)
    )
}

/// The worker half of the protocol: reads one request line from stdin,
/// runs its slice, writes progress and the terminal partial-aggregate
/// line to stdout. Returns the process exit code (0 on success).
///
/// Wired to the hidden `shard-worker` subcommand of the `repro` binary —
/// the supervisor re-invokes its own executable, so a single binary
/// serves both roles.
#[must_use]
pub fn shard_worker_main() -> u8 {
    let mut line = String::new();
    if std::io::stdin().read_line(&mut line).is_err() || line.trim().is_empty() {
        println!(
            "{}",
            worker_fail("bad_request", "expected one request line on stdin")
        );
        return 1;
    }
    match shard_worker_run(line.trim()) {
        Ok(partial_line) => {
            println!("{partial_line}");
            0
        }
        Err((error, detail)) => {
            println!("{}", worker_fail(&error, &detail));
            1
        }
    }
}

/// Parses and executes one `shard_run` request; returns the terminal
/// partial-aggregate line.
fn shard_worker_run(request: &str) -> Result<String, (String, String)> {
    let bad = |d: &str| ("bad_request".to_string(), d.to_string());
    let v = parse(request).map_err(|e| bad(&e.to_string()))?;
    if v.get("cmd").and_then(Json::as_str) != Some("shard_run") {
        return Err(bad("cmd must be \"shard_run\""));
    }
    if v.get("version").and_then(Json::as_u64) != Some(u64::from(SHARD_PROTOCOL_VERSION)) {
        return Err((
            "unsupported_version".to_string(),
            format!("this worker speaks version {SHARD_PROTOCOL_VERSION}"),
        ));
    }
    let field = |k: &str| -> Result<u64, (String, String)> {
        v.get(k)
            .and_then(Json::as_u64)
            .ok_or_else(|| bad(&format!("field {k:?} must be a non-negative integer")))
    };
    let shard = field("shard")? as usize;
    let start_die = field("start_die")? as usize;
    let end_die = field("end_die")? as usize;
    let threads = field("threads")?.max(1) as usize;
    let budget = DieBudget {
        max_newton_iterations: field("die_iter_budget")?,
        max_wall_ms: field("die_wall_ms")?,
    };
    let spec_v = v
        .get("spec")
        .ok_or_else(|| bad("request must carry a \"spec\" object"))?;
    let spec = spec_from_value(spec_v).map_err(|e| bad(&e.to_string()))?;
    if end_die < start_die || end_die > spec.wafer.die_count() {
        return Err(bad(&format!(
            "slice [{start_die}, {end_die}) does not fit the wafer's {} dies",
            spec.wafer.die_count()
        )));
    }

    // Fault-injection hook: the named shard aborts mid-slice (after its
    // first folded die, or immediately on an empty slice) without a
    // terminal line, exercising the supervisor's WorkerExited path.
    let fail_here = std::env::var(SHARD_FAIL_ENV)
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        == Some(shard);
    if fail_here && start_die == end_die {
        std::process::exit(3);
    }

    // An empty slice (more shards than dies) runs no die and yields a
    // valid, empty partial.
    let fingerprint = spec_fingerprint(&spec);
    let counters = Arc::new(CampaignCounters::default());
    let options = StreamOptions {
        start_die,
        end_die: Some(end_die),
        counters: Some(Arc::clone(&counters)),
        budget,
        ..StreamOptions::default()
    };
    let mut folded = 0u64;
    let run = run_campaign_streaming(&spec, threads, &options, |_, _| {
        folded += 1;
        if fail_here {
            // Mid-slice abort: at least one die folded, terminal line
            // never written.
            std::process::exit(3);
        }
        if folded.is_multiple_of(PROGRESS_EVERY) {
            println!("{{\"type\":\"progress\",\"shard\":{shard},\"folded\":{folded}}}");
        }
        ControlFlow::Continue(())
    })
    .map_err(|e| ("run_failed".to_string(), e.to_string()))?;

    // `options` holds the second Arc handle; release it so the counters
    // can be moved into the partial.
    drop(options);
    let counters = Arc::try_unwrap(counters).map_err(|_| {
        (
            "internal".to_string(),
            "counters still shared after run".to_string(),
        )
    })?;
    let p = PartialAggregate {
        fingerprint,
        start_die,
        end_die,
        aggregate: run.aggregate,
        counters,
        max_reorder_buffer: run.metrics.max_reorder_buffer,
    };
    Ok(partial_to_json(&p))
}

#[cfg(test)]
mod tests {
    use super::*;
    use icvbe_campaign::spec::WaferMap;

    #[test]
    fn slices_tile_the_wafer_contiguously() {
        for total in [0usize, 1, 7, 8, 9, 20, 97] {
            for shards in [1usize, 2, 3, 4, 8, 13] {
                let ranges = slice_ranges(total, shards);
                assert_eq!(ranges.len(), shards);
                assert_eq!(ranges[0].0, 0, "total={total} shards={shards}");
                assert_eq!(ranges[shards - 1].1, total);
                for w in ranges.windows(2) {
                    assert_eq!(w[0].1, w[1].0, "gap/overlap at {w:?}");
                }
                let (min, max) = ranges
                    .iter()
                    .map(|(a, b)| b - a)
                    .fold((usize::MAX, 0), |(lo, hi), n| (lo.min(n), hi.max(n)));
                assert!(max - min <= 1, "unbalanced: {ranges:?}");
            }
        }
    }

    #[test]
    fn request_line_round_trips_through_the_worker_parser() {
        let mut spec = CampaignSpec::paper_default(WaferMap::full(2, 2), 9);
        spec.corners.truncate(1);
        let opts = ShardOptions {
            shards: 2,
            threads: 3,
            ..ShardOptions::default()
        };
        let line = shard_request_line(&spec, 1, (2, 4), &opts);
        let v = parse(&line).unwrap();
        assert_eq!(v.get("cmd").and_then(Json::as_str), Some("shard_run"));
        assert_eq!(v.get("shard").and_then(Json::as_u64), Some(1));
        assert_eq!(v.get("start_die").and_then(Json::as_u64), Some(2));
        assert_eq!(v.get("end_die").and_then(Json::as_u64), Some(4));
        assert_eq!(v.get("threads").and_then(Json::as_u64), Some(3));
        assert!(v.get("batch").is_none() && v.get("libm_exp").is_none());
        let decoded = spec_from_value(v.get("spec").unwrap()).unwrap();
        assert_eq!(decoded, spec);
    }

    #[test]
    fn worker_rejects_malformed_requests_with_typed_errors() {
        let err = shard_worker_run("{\"cmd\":\"nope\"}").unwrap_err();
        assert_eq!(err.0, "bad_request");
        let err =
            shard_worker_run("{\"cmd\":\"shard_run\",\"version\":99,\"shard\":0}").unwrap_err();
        assert_eq!(err.0, "unsupported_version");
    }

    #[test]
    fn worker_runs_a_slice_in_process_and_emits_a_valid_partial() {
        let mut spec = CampaignSpec::paper_default(WaferMap::full(3, 3), 41);
        spec.corners.truncate(1);
        let opts = ShardOptions {
            shards: 2,
            threads: 1,
            ..ShardOptions::default()
        };
        let line = shard_request_line(&spec, 0, (0, 5), &opts);
        let out = shard_worker_run(&line).unwrap();
        let p = partial_from_json(&out).unwrap();
        assert_eq!((p.start_die, p.end_die), (0, 5));
        assert_eq!(p.aggregate.dies, 5);
        assert_eq!(p.fingerprint, spec_fingerprint(&spec));
    }

    #[test]
    fn empty_slice_emits_an_empty_partial_without_running() {
        let mut spec = CampaignSpec::paper_default(WaferMap::full(2, 2), 9);
        spec.corners.truncate(1);
        let line = shard_request_line(&spec, 5, (4, 4), &ShardOptions::default());
        let p = partial_from_json(&shard_worker_run(&line).unwrap()).unwrap();
        assert_eq!((p.start_die, p.end_die), (4, 4));
        assert_eq!(p.aggregate.dies, 0);
    }

    #[test]
    fn two_worker_partials_merge_to_the_single_process_aggregate() {
        let mut spec = CampaignSpec::paper_default(WaferMap::full(3, 3), 41);
        spec.corners.truncate(2);
        let whole = icvbe_campaign::run_campaign(&spec, 1).unwrap();
        let opts = ShardOptions::default();
        let mut left = partial_from_json(
            &shard_worker_run(&shard_request_line(&spec, 0, (0, 5), &opts)).unwrap(),
        )
        .unwrap();
        let right = partial_from_json(
            &shard_worker_run(&shard_request_line(&spec, 1, (5, 9), &opts)).unwrap(),
        )
        .unwrap();
        left.merge(right).unwrap();
        assert_eq!(left.aggregate, whole.aggregate);
    }
}
