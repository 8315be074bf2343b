//! The `repro serve` / `repro submit` / `repro watch` subcommands: the
//! CLI face of the campaign service (`icvbe-serve`).
//!
//! ```text
//! repro serve  [--addr HOST:PORT] [--threads N] [--queue N] [--slice N]
//!              [--checkpoint-dir DIR] [--checkpoint-every K] [--paused]
//!              [--io-timeout-ms MS] [--max-request BYTES]
//!              [--chaos SPEC] [--chaos-seed S]
//! repro submit [--addr HOST:PORT] [--tenant T] [--label L] [--out DIR]
//!              [--no-wait] [spec flags: --dies N | --diameter D, --seed S,
//!              --faults SPEC, --retries N, --no-robust,
//!              --adaptive | --exhaustive]
//! repro watch  [--addr HOST:PORT] (--job N | --label L [--tenant T]) [--out DIR]
//! ```
//!
//! `serve` runs the daemon in the foreground until a client sends
//! `shutdown`; it prints `listening on HOST:PORT` once bound (with
//! port 0 the line carries the actual ephemeral port). With
//! `--checkpoint-dir` a killed daemon restarted on the same directory
//! resumes every incomplete job byte-identically.
//!
//! `submit` builds the same campaign spec `repro campaign` would (both
//! parse the spec flags with [`SpecCliArgs`]), sends it to a running
//! daemon and — unless
//! `--no-wait` — streams per-die progress until the job completes, then
//! writes the report artifacts to `--out`. The four deterministic
//! artifacts are byte-identical to a one-shot
//! `repro campaign --out` of the same spec, at any `serve --threads`
//! value and across daemon kills.
//!
//! `watch` re-attaches to a job by id or label (history replays first),
//! which is how a client collects results after a daemon restart.
//!
//! Hardened I/O knobs: `--io-timeout-ms` sets the per-socket read/write
//! timeout (stalled clients are shed and counted; 0 disables),
//! `--max-request` caps a request line's byte length (longer lines earn
//! the typed `request_too_large` error). `--chaos SPEC` turns on the
//! seeded environment-fault plan — checkpoint write faults (write_error,
//! short_write, torn), socket faults (stall, reset) and worker die
//! panics — for crash-safety drills; see
//! `icvbe_instrument::chaos::ChaosSpec::parse` for the `k=v` keys.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use icvbe_instrument::chaos::ChaosSpec;
use icvbe_serve::client::Client;
use icvbe_serve::daemon::Daemon;
use icvbe_serve::service::ServiceConfig;

use crate::campaign_cli::SpecCliArgs;

/// Default daemon address shared by `serve`, `submit` and `watch`.
pub const DEFAULT_ADDR: &str = "127.0.0.1:4857";

/// Parsed `repro serve` arguments.
#[derive(Debug, Clone)]
pub struct ServeCliArgs {
    /// Address to bind (`HOST:PORT`; port 0 = ephemeral, printed once
    /// bound).
    pub addr: String,
    /// The service configuration the daemon starts with.
    pub config: ServiceConfig,
}

/// Parses the arguments following the `serve` keyword.
///
/// # Errors
///
/// Returns a usage message on unknown flags or malformed values.
pub fn parse_serve_args(args: &[String]) -> Result<ServeCliArgs, String> {
    let mut out = ServeCliArgs {
        addr: DEFAULT_ADDR.to_string(),
        config: ServiceConfig::default(),
    };
    let mut it = args.iter();
    let value = |flag: &str, v: Option<&String>| -> Result<String, String> {
        v.cloned().ok_or_else(|| format!("{flag} needs a value"))
    };
    let positive = |flag: &str, v: String| -> Result<usize, String> {
        let n: usize = v.parse().map_err(|_| format!("bad {flag} value {v:?}"))?;
        if n == 0 {
            return Err(format!("{flag} must be positive"));
        }
        Ok(n)
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => out.addr = value("--addr", it.next())?,
            "--threads" => {
                out.config.threads = positive("--threads", value("--threads", it.next())?)?
            }
            "--queue" => {
                out.config.queue_capacity = positive("--queue", value("--queue", it.next())?)?;
            }
            "--slice" => out.config.slice_dies = positive("--slice", value("--slice", it.next())?)?,
            "--checkpoint-dir" => {
                out.config.checkpoint_dir =
                    Some(PathBuf::from(value("--checkpoint-dir", it.next())?));
            }
            "--checkpoint-every" => {
                let v = value("--checkpoint-every", it.next())?;
                out.config.checkpoint_every = v
                    .parse()
                    .map_err(|_| format!("bad --checkpoint-every value {v:?}"))?;
            }
            "--paused" => out.config.paused = true,
            "--trace" => out.config.trace = true,
            "--io-timeout-ms" => {
                let v = value("--io-timeout-ms", it.next())?;
                out.config.io_timeout_ms = v
                    .parse()
                    .map_err(|_| format!("bad --io-timeout-ms value {v:?}"))?;
            }
            "--max-request" => {
                out.config.max_request_bytes =
                    positive("--max-request", value("--max-request", it.next())?)?;
            }
            "--chaos" => {
                let v = value("--chaos", it.next())?;
                out.config.chaos = ChaosSpec::parse(&v).map_err(|e| e.detail)?;
            }
            "--chaos-seed" => {
                let v = value("--chaos-seed", it.next())?;
                out.config.chaos_seed = v
                    .parse()
                    .map_err(|_| format!("bad --chaos-seed value {v:?}"))?;
            }
            other => {
                return Err(format!(
                    "unknown serve argument {other:?} \
                     (usage: serve [--addr HOST:PORT] [--threads N] [--queue N] [--slice N] \
                     [--checkpoint-dir DIR] [--checkpoint-every K] [--paused] [--trace] \
                     [--io-timeout-ms MS] [--max-request BYTES] [--chaos SPEC] \
                     [--chaos-seed S])"
                ));
            }
        }
    }
    Ok(out)
}

/// Parsed `repro submit` arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct SubmitCliArgs {
    /// Daemon address.
    pub addr: String,
    /// Tenant the job is accounted under.
    pub tenant: String,
    /// Label for later `repro watch` lookups.
    pub label: String,
    /// Directory the report artifacts are written to (`None` = none).
    pub out: Option<PathBuf>,
    /// Submit without streaming: print the job id and return.
    pub no_wait: bool,
    /// The campaign spec knobs.
    pub spec: SpecCliArgs,
}

/// Parses the arguments following the `submit` keyword.
///
/// # Errors
///
/// Returns a usage message on unknown flags or malformed values.
pub fn parse_submit_args(args: &[String]) -> Result<SubmitCliArgs, String> {
    let mut out = SubmitCliArgs {
        addr: DEFAULT_ADDR.to_string(),
        tenant: "default".to_string(),
        label: String::new(),
        out: None,
        no_wait: false,
        spec: SpecCliArgs::default(),
    };
    let mut it = args.iter();
    let value = |flag: &str, v: Option<&String>| -> Result<String, String> {
        v.cloned().ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(arg) = it.next() {
        if out.spec.eat(arg, || it.next().cloned())? {
            continue;
        }
        match arg.as_str() {
            "--addr" => out.addr = value("--addr", it.next())?,
            "--tenant" => out.tenant = value("--tenant", it.next())?,
            "--label" => out.label = value("--label", it.next())?,
            "--out" => out.out = Some(PathBuf::from(value("--out", it.next())?)),
            "--no-wait" => out.no_wait = true,
            other => {
                return Err(format!(
                    "unknown submit argument {other:?} \
                     (usage: submit [--addr HOST:PORT] [--tenant T] [--label L] [--out DIR] \
                     [--no-wait] [--dies N | --diameter D] [--seed S] [--faults SPEC] \
                     [--retries N] [--no-robust] [--adaptive | --exhaustive])"
                ));
            }
        }
    }
    Ok(out)
}

/// Parsed `repro watch` arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct WatchCliArgs {
    /// Daemon address.
    pub addr: String,
    /// Job id to attach to.
    pub job: Option<u64>,
    /// Label to look up instead of a job id.
    pub label: Option<String>,
    /// Restrict the label lookup to one tenant.
    pub tenant: Option<String>,
    /// Directory the report artifacts are written to (`None` = none).
    pub out: Option<PathBuf>,
}

/// Parses the arguments following the `watch` keyword.
///
/// # Errors
///
/// Returns a usage message on unknown flags, malformed values, or when
/// neither `--job` nor `--label` is given.
pub fn parse_watch_args(args: &[String]) -> Result<WatchCliArgs, String> {
    let mut out = WatchCliArgs {
        addr: DEFAULT_ADDR.to_string(),
        job: None,
        label: None,
        tenant: None,
        out: None,
    };
    let mut it = args.iter();
    let value = |flag: &str, v: Option<&String>| -> Result<String, String> {
        v.cloned().ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => out.addr = value("--addr", it.next())?,
            "--job" => {
                let v = value("--job", it.next())?;
                out.job = Some(v.parse().map_err(|_| format!("bad --job value {v:?}"))?);
            }
            "--label" => out.label = Some(value("--label", it.next())?),
            "--tenant" => out.tenant = Some(value("--tenant", it.next())?),
            "--out" => out.out = Some(PathBuf::from(value("--out", it.next())?)),
            other => {
                return Err(format!(
                    "unknown watch argument {other:?} \
                     (usage: watch [--addr HOST:PORT] (--job N | --label L [--tenant T]) \
                     [--out DIR])"
                ));
            }
        }
    }
    if out.job.is_none() && out.label.is_none() {
        return Err("watch needs --job or --label".to_string());
    }
    Ok(out)
}

/// Runs `repro serve`: binds, prints the listening line, and blocks until
/// a client sends `shutdown`.
///
/// # Errors
///
/// Bind and service-start failures, as strings.
pub fn run_serve(args: &[String]) -> Result<(), String> {
    let cli = parse_serve_args(args)?;
    let daemon = Daemon::start(cli.config, &cli.addr)
        .map_err(|e| format!("starting daemon on {}: {e}", cli.addr))?;
    println!("icvbe-serve listening on {}", daemon.local_addr());
    daemon.wait();
    Ok(())
}

/// Writes `(name, contents)` artifacts into `dir`, returning a report
/// line per file. Names carrying path separators are rejected — artifact
/// names come off the wire.
fn write_artifacts(dir: &Path, artifacts: &[(String, String)]) -> Result<String, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let mut text = String::new();
    for (name, contents) in artifacts {
        if name.contains('/') || name.contains('\\') || name.starts_with('.') {
            return Err(format!("refusing artifact name {name:?}"));
        }
        let path = dir.join(name);
        std::fs::write(&path, contents).map_err(|e| format!("writing {}: {e}", path.display()))?;
        let _ = writeln!(text, "  wrote {}", path.display());
    }
    Ok(text)
}

/// Renders the completion report for a streamed job (`job` is `None`
/// when the stream was attached by label and the id is not known).
fn render_done(
    job: Option<u64>,
    artifacts: &[(String, String)],
    out: Option<&Path>,
) -> Result<String, String> {
    let handle = job.map_or_else(|| "job".to_string(), |id| format!("job {id}"));
    let mut text = format!(
        "{handle} done ({} artifact(s): {})\n",
        artifacts.len(),
        artifacts
            .iter()
            .map(|(n, _)| n.as_str())
            .collect::<Vec<_>>()
            .join(", ")
    );
    if let Some(dir) = out {
        text.push_str(&write_artifacts(dir, artifacts)?);
    }
    Ok(text)
}

/// Runs `repro submit` end to end and returns the printable report.
///
/// # Errors
///
/// Connection failures and typed server errors (`queue_full` reports the
/// daemon's `retry_after_ms` backpressure hint), as strings.
pub fn run_submit(args: &[String]) -> Result<String, String> {
    let cli = parse_submit_args(args)?;
    let spec = cli.spec.build();
    let total = spec.wafer.die_count();
    let mut client =
        Client::connect(&cli.addr).map_err(|e| format!("connecting to {}: {e}", cli.addr))?;
    let job = client
        .submit(&cli.tenant, &cli.label, &spec, !cli.no_wait)
        .map_err(|e| format!("submit: {e}"))?;
    if cli.no_wait {
        return Ok(format!(
            "job {job} submitted ({total} dies, tenant {:?}, label {:?})\n",
            cli.tenant, cli.label
        ));
    }
    let artifacts = client
        .wait_done(|_folded, _total| {})
        .map_err(|e| format!("job {job}: {e}"))?;
    render_done(Some(job), &artifacts, cli.out.as_deref())
}

/// Runs `repro watch` end to end and returns the printable report.
///
/// # Errors
///
/// Connection failures and typed server errors (`unknown_job` when
/// nothing matches), as strings.
pub fn run_watch(args: &[String]) -> Result<String, String> {
    let cli = parse_watch_args(args)?;
    let mut client =
        Client::connect(&cli.addr).map_err(|e| format!("connecting to {}: {e}", cli.addr))?;
    client
        .results(cli.job, cli.label.as_deref(), cli.tenant.as_deref())
        .map_err(|e| format!("results: {e}"))?;
    let artifacts = client
        .wait_done(|_folded, _total| {})
        .map_err(|e| format!("watch: {e}"))?;
    render_done(cli.job, &artifacts, cli.out.as_deref()).map(|text| {
        // `watch` resolves by label, so lead with the label if we had one.
        match &cli.label {
            Some(l) => format!("label {l:?}: {text}"),
            None => text,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use icvbe_instrument::faults::FaultSpec;

    fn sv(args: &[&str]) -> Vec<String> {
        args.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn parses_serve_flags() {
        let a = parse_serve_args(&sv(&[
            "--addr",
            "127.0.0.1:0",
            "--threads",
            "3",
            "--queue",
            "5",
            "--slice",
            "4",
            "--checkpoint-dir",
            "/tmp/ck",
            "--checkpoint-every",
            "2",
            "--paused",
        ]))
        .unwrap();
        assert_eq!(a.addr, "127.0.0.1:0");
        assert_eq!(a.config.threads, 3);
        assert_eq!(a.config.queue_capacity, 5);
        assert_eq!(a.config.slice_dies, 4);
        assert_eq!(a.config.checkpoint_dir, Some(PathBuf::from("/tmp/ck")));
        assert_eq!(a.config.checkpoint_every, 2);
        assert!(a.config.paused);
        assert!(parse_serve_args(&sv(&["--bogus"])).is_err());
        assert!(parse_serve_args(&sv(&["--threads", "0"])).is_err());
    }

    #[test]
    fn parses_hardening_and_chaos_flags() {
        let a = parse_serve_args(&sv(&[
            "--io-timeout-ms",
            "500",
            "--max-request",
            "4096",
            "--chaos",
            "torn=0.5,write_error=0.1",
            "--chaos-seed",
            "21",
        ]))
        .unwrap();
        assert_eq!(a.config.io_timeout_ms, 500);
        assert_eq!(a.config.max_request_bytes, 4096);
        assert_eq!(a.config.chaos.torn_file_probability, 0.5);
        assert_eq!(a.config.chaos.write_error_probability, 0.1);
        assert_eq!(a.config.chaos_seed, 21);
        let off = parse_serve_args(&sv(&[])).unwrap();
        assert!(off.config.chaos.is_none(), "chaos must be off by default");
        assert!(parse_serve_args(&sv(&["--chaos", "frobnicate=1"])).is_err());
        assert!(parse_serve_args(&sv(&["--max-request", "0"])).is_err());
        assert!(parse_serve_args(&sv(&["--io-timeout-ms", "soon"])).is_err());
    }

    #[test]
    fn parses_submit_flags_including_spec_knobs() {
        let a = parse_submit_args(&sv(&[
            "--addr",
            "127.0.0.1:9",
            "--tenant",
            "acme",
            "--label",
            "lot7",
            "--out",
            "/tmp/out",
            "--diameter",
            "3",
            "--seed",
            "11",
            "--faults",
            "heavy",
            "--no-robust",
            "--no-wait",
        ]))
        .unwrap();
        assert_eq!(a.addr, "127.0.0.1:9");
        assert_eq!(a.tenant, "acme");
        assert_eq!(a.label, "lot7");
        assert_eq!(a.out, Some(PathBuf::from("/tmp/out")));
        assert!(a.no_wait);
        assert_eq!(a.spec.diameter, 3);
        assert_eq!(a.spec.seed, 11);
        assert_eq!(a.spec.faults, FaultSpec::heavy());
        assert!(!a.spec.robust);
        assert!(parse_submit_args(&sv(&["--bogus"])).is_err());
        assert!(parse_submit_args(&sv(&["--dies", "0"])).is_err());
    }

    /// Every spec flag, alone: `campaign` and `submit` must build equal
    /// specs, and each flag must actually move the spec off the default.
    #[test]
    fn every_spec_flag_builds_the_same_spec_for_campaign_and_submit() {
        let table: [&[&str]; 9] = [
            &["--dies", "40"],
            &["--diameter", "4"],
            &["--seed", "42"],
            &["--faults", "heavy"],
            &["--faults", "noise=0.2,drop=0.05"],
            &["--retries", "5"],
            &["--no-robust"],
            &["--adaptive"],
            &[
                "--diameter",
                "3",
                "--seed",
                "9",
                "--faults",
                "light",
                "--adaptive",
            ],
        ];
        let default = SpecCliArgs::default().build();
        for args in table {
            let campaign = crate::campaign_cli::parse_args(&sv(args)).unwrap();
            let submit = parse_submit_args(&sv(args)).unwrap();
            assert_eq!(campaign.spec.build(), submit.spec.build(), "{args:?}");
            assert_ne!(submit.spec.build(), default, "{args:?} changed nothing");
        }
        // `--exhaustive` is the explicit default, and the conflict is
        // rejected by both subcommands.
        let ex = parse_submit_args(&sv(&["--exhaustive"])).unwrap();
        assert_eq!(ex.spec.build(), default);
        assert!(parse_submit_args(&sv(&["--adaptive", "--exhaustive"])).is_err());
        assert!(crate::campaign_cli::parse_args(&sv(&["--exhaustive", "--adaptive"])).is_err());
        // The retired solver switches are unknown to submit as well.
        for flag in ["--cold", "--no-bypass"] {
            let err = parse_submit_args(&sv(&[flag])).unwrap_err();
            assert!(err.starts_with("unknown submit argument"), "{flag}: {err}");
        }
    }

    #[test]
    fn parses_watch_flags_and_requires_a_handle() {
        let a = parse_watch_args(&sv(&["--label", "lot7", "--tenant", "acme"])).unwrap();
        assert_eq!(a.label.as_deref(), Some("lot7"));
        assert_eq!(a.tenant.as_deref(), Some("acme"));
        let b = parse_watch_args(&sv(&["--job", "3"])).unwrap();
        assert_eq!(b.job, Some(3));
        assert!(parse_watch_args(&sv(&[])).is_err());
        assert!(parse_watch_args(&sv(&["--job", "x"])).is_err());
    }

    #[test]
    fn submit_and_watch_round_trip_through_a_live_daemon() {
        let daemon = Daemon::start(ServiceConfig::default(), "127.0.0.1:0").unwrap();
        let addr = daemon.local_addr().to_string();
        let dir = std::env::temp_dir().join("icvbe_serve_cli_test");
        let _ = std::fs::remove_dir_all(&dir);
        let out = dir.join("sub");
        let text = run_submit(&sv(&[
            "--addr",
            &addr,
            "--label",
            "lot1",
            "--diameter",
            "2",
            "--seed",
            "7",
            "--out",
            out.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(text.contains("done"), "report:\n{text}");
        assert!(out.join("campaign_aggregate.json").is_file());

        let out2 = dir.join("watch");
        let text2 = run_watch(&sv(&[
            "--addr",
            &addr,
            "--label",
            "lot1",
            "--out",
            out2.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(text2.contains("lot1"), "report:\n{text2}");
        let a = std::fs::read(out.join("campaign_aggregate.json")).unwrap();
        let b = std::fs::read(out2.join("campaign_aggregate.json")).unwrap();
        assert_eq!(a, b, "watch must replay the identical artifacts");
        daemon.stop();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn served_adaptive_lot_equals_the_one_shot_adaptive_run() {
        let daemon = Daemon::start(ServiceConfig::default(), "127.0.0.1:0").unwrap();
        let addr = daemon.local_addr().to_string();
        let dir = std::env::temp_dir().join("icvbe_serve_cli_adaptive_test");
        let _ = std::fs::remove_dir_all(&dir);
        let served = dir.join("served");
        let oneshot = dir.join("oneshot");
        let spec_flags = ["--diameter", "4", "--seed", "2002", "--adaptive"];
        let mut submit = sv(&["--addr", &addr, "--out", served.to_str().unwrap()]);
        submit.extend(sv(&spec_flags));
        run_submit(&submit).unwrap();
        let mut campaign = sv(&["--threads", "2", "--out", oneshot.to_str().unwrap()]);
        campaign.extend(sv(&spec_flags));
        crate::campaign_cli::run_cli(&campaign).unwrap();
        for name in [
            "campaign_aggregate.json",
            "campaign_aggregate.csv",
            "campaign_quarantine.json",
            "campaign_quarantine.csv",
        ] {
            let a = std::fs::read(served.join(name)).unwrap();
            let b = std::fs::read(oneshot.join(name)).unwrap();
            assert_eq!(a, b, "{name} differs between served and one-shot");
        }
        // The lot really ran adaptively: some corners were skipped.
        let csv = std::fs::read_to_string(served.join("campaign_aggregate.csv")).unwrap();
        assert!(csv.contains("skipped"), "{csv}");
        daemon.stop();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
