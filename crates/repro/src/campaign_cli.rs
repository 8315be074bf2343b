//! The `repro campaign` subcommand: a wafer-scale extraction campaign
//! with an ASCII summary and optional JSON/CSV artifacts.
//!
//! ```text
//! repro campaign [--dies N | --diameter D] [--threads N] [--seed S] [--out DIR]
//!                [--faults SPEC] [--retries N] [--no-robust] [--trace[=DIR]]
//!                [--chaos SPEC] [--chaos-seed S] [--die-iter-budget N]
//!                [--die-wall-ms MS] [--shards N] [--adaptive | --exhaustive]
//! ```
//!
//! `--dies N` picks the smallest circular wafer holding at least `N`
//! dies; `--diameter D` sets the wafer diameter (in dies) directly. The
//! aggregate artifacts written by `--out` are bit-identical for any
//! `--threads` value (see `icvbe-campaign`'s determinism guarantee).
//! The spec flags (`--dies`, `--diameter`, `--seed`, `--faults`,
//! `--retries`, `--no-robust`, `--adaptive`, `--exhaustive`) are parsed
//! by [`SpecCliArgs`], which `repro submit` shares, so a served lot and a
//! one-shot run of the same flags build the same spec.
//!
//! `--faults SPEC` corrupts every die's measurement deterministically:
//! `light`/`heavy` presets or `k=v` pairs (`noise=0.05,drop=0.01,...`, see
//! `icvbe_instrument::faults::FaultSpec::parse`). Fault-injected runs are
//! still bit-identical across thread counts. `--retries` bounds the
//! per-corner re-measure budget and `--no-robust` disables the pooled
//! robust-fit fallback (both only matter with `--faults`).
//!
//! `--trace` captures a structured span trace of the run (off by default;
//! when off the tracing layer costs nothing) and writes two artifacts:
//! `campaign_trace.json`, a Chrome trace-event file loadable in Perfetto
//! (<https://ui.perfetto.dev>) or `chrome://tracing`, and
//! `campaign_profile.folded`, a collapsed-stack profile for flamegraph
//! tools. They land in `--trace=DIR` if given, else next to the `--out`
//! artifacts, else in the git-ignored `artifacts/` directory. The summary
//! additionally gains the slowest dies and corners ranked from the same
//! spans.
//!
//! `--chaos SPEC` injects *environment* faults (as opposed to `--faults`'
//! measurement corruption): the campaign subcommand consults the
//! `die_panic` knob, containing panicking dies behind `catch_unwind` and
//! quarantining their corners as `internal_panic` — deterministically per
//! `--chaos-seed`, bit-identical at any thread count. The write/socket
//! knobs of the same spec act in the campaign service (`repro serve`).
//! `--die-iter-budget N` retires the remaining corners of a die that has
//! spent `N` Newton steps, every step of every solve counted
//! (`budget_exhausted`, deterministic);
//! `--die-wall-ms` is the wall-clock analogue and the one knowingly
//! nondeterministic knob.
//!
//! The subcommand's exit code distinguishes *could not run* (1) from
//! *ran, but every corner failed the spec window* (2) — see [`help`] and
//! [`run_cli_status`].

use std::fmt::Write as _;
use std::path::PathBuf;

use icvbe_campaign::aggregate::YieldBin;
use icvbe_campaign::die::DieBudget;
use icvbe_campaign::report::write_reports;
use icvbe_campaign::spec::{WaferMap, MAX_GRID_SITES};
use icvbe_campaign::taxonomy::FailureKind;
use icvbe_campaign::{run_campaign_with, CampaignRun, CampaignSpec, StreamOptions, MAX_THREADS};
use icvbe_instrument::chaos::ChaosSpec;
use icvbe_instrument::faults::FaultSpec;
use icvbe_serve::shard::{run_sharded, ShardOptions};

/// Campaign-spec flags, shared by `repro campaign` and `repro submit`:
/// one parser ([`SpecCliArgs::eat`]) and one builder
/// ([`SpecCliArgs::build`]), so both subcommands turn the same flags into
/// the same [`CampaignSpec`].
#[derive(Debug, Clone, PartialEq)]
pub struct SpecCliArgs {
    /// Circular wafer diameter, in dies.
    pub diameter: usize,
    /// Campaign seed.
    pub seed: u64,
    /// Deterministic measurement corruption (all-zero = off).
    pub faults: FaultSpec,
    /// Override of the per-corner retry budget (`None` = spec default).
    pub retries: Option<u32>,
    /// Pooled robust-fit fallback for corrupted corners.
    pub robust: bool,
    /// Adaptive corner scheduling (`--adaptive`): probe each die on its
    /// first corner, escalate to the full plan only when the probe is
    /// suspicious. Changes the aggregate artifacts (skipped corners).
    pub adaptive: bool,
    /// Explicit exhaustive schedule (`--exhaustive`, the default
    /// behaviour); conflicts with `--adaptive`.
    pub exhaustive: bool,
}

impl Default for SpecCliArgs {
    fn default() -> Self {
        SpecCliArgs {
            diameter: 14,
            seed: 2002,
            faults: FaultSpec::none(),
            retries: None,
            robust: true,
            adaptive: false,
            exhaustive: false,
        }
    }
}

impl SpecCliArgs {
    /// The campaign spec these flags describe.
    #[must_use]
    pub fn build(&self) -> CampaignSpec {
        let mut spec = CampaignSpec::paper_default(WaferMap::circular(self.diameter), self.seed);
        spec.faults = self.faults;
        spec.robust = self.robust;
        spec.adaptive = self.adaptive;
        if let Some(budget) = self.retries {
            spec.retry_budget = budget;
        }
        spec
    }

    /// Tries to consume one spec flag, pulling its value from `next`;
    /// `Ok(true)` if `arg` was one.
    ///
    /// # Errors
    ///
    /// A usage message on a malformed value, or on `--adaptive` together
    /// with `--exhaustive`.
    pub fn eat(
        &mut self,
        arg: &str,
        mut next: impl FnMut() -> Option<String>,
    ) -> Result<bool, String> {
        let value = |flag: &str, v: Option<String>| -> Result<String, String> {
            v.ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg {
            "--dies" => {
                let v = value("--dies", next())?;
                let n: usize = v.parse().map_err(|_| format!("bad --dies value {v:?}"))?;
                if n == 0 {
                    return Err("--dies must be positive".to_string());
                }
                self.diameter = diameter_for_dies(n);
            }
            "--diameter" => {
                let v = value("--diameter", next())?;
                self.diameter = v
                    .parse()
                    .map_err(|_| format!("bad --diameter value {v:?}"))?;
                if self.diameter == 0 {
                    return Err("--diameter must be positive".to_string());
                }
            }
            "--seed" => {
                let v = value("--seed", next())?;
                self.seed = v.parse().map_err(|_| format!("bad --seed value {v:?}"))?;
            }
            "--faults" => {
                let v = value("--faults", next())?;
                self.faults = FaultSpec::parse(&v).map_err(|e| e.detail)?;
            }
            "--retries" => {
                let v = value("--retries", next())?;
                self.retries = Some(
                    v.parse()
                        .map_err(|_| format!("bad --retries value {v:?}"))?,
                );
            }
            "--no-robust" => self.robust = false,
            "--adaptive" => self.adaptive = true,
            "--exhaustive" => self.exhaustive = true,
            _ => return Ok(false),
        }
        if self.adaptive && self.exhaustive {
            return Err("--adaptive and --exhaustive are mutually exclusive".to_string());
        }
        Ok(true)
    }
}

/// Parsed `repro campaign` arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignCliArgs {
    /// The campaign spec flags.
    pub spec: SpecCliArgs,
    /// Worker threads.
    pub threads: usize,
    /// Directory for JSON/CSV artifacts (`None` = print only).
    pub out: Option<PathBuf>,
    /// Capture a span trace and write the trace/profile artifacts.
    pub trace: bool,
    /// Where the trace artifacts go (`None` = `--out` dir, else the
    /// ignored `artifacts/` directory).
    pub trace_dir: Option<PathBuf>,
    /// Environment-fault injection (`--chaos`): the campaign subcommand
    /// consults only the die-panic knob; write/socket faults act in the
    /// service. All-zero (the default) = off.
    pub chaos: ChaosSpec,
    /// Seed of the chaos plan (`--chaos-seed`).
    pub chaos_seed: u64,
    /// Per-die Newton-step budget (`--die-iter-budget`, 0 = off).
    pub die_iter_budget: u64,
    /// Per-die wall-clock budget in ms (`--die-wall-ms`, 0 = off;
    /// nondeterministic escape hatch).
    pub die_wall_ms: u64,
    /// Worker-process count for sharded execution (`--shards`, 0 = run
    /// in-process). Artifacts are byte-identical at any shard count.
    pub shards: usize,
}

impl Default for CampaignCliArgs {
    fn default() -> Self {
        CampaignCliArgs {
            spec: SpecCliArgs::default(),
            threads: std::thread::available_parallelism()
                .map_or(1, |n| n.get())
                .min(MAX_THREADS),
            out: None,
            trace: false,
            trace_dir: None,
            chaos: ChaosSpec::none(),
            chaos_seed: 0,
            die_iter_budget: 0,
            die_wall_ms: 0,
            shards: 0,
        }
    }
}

/// Smallest circular-wafer diameter holding at least `dies` dies.
///
/// The search starts at `isqrt(dies)`: a `d x d` grid holds at most `d²`
/// dies, so no smaller diameter can do. It stops past
/// [`MAX_GRID_SITES`], whose wafers validation rejects anyway, so an
/// oversized `--dies` fails fast instead of counting grids forever.
#[must_use]
pub fn diameter_for_dies(dies: usize) -> usize {
    let mut d = dies.isqrt().max(1);
    while d.saturating_mul(d) <= MAX_GRID_SITES && WaferMap::circular(d).die_count() < dies {
        d += 1;
    }
    d
}

/// Parses the arguments following the `campaign` keyword.
///
/// # Errors
///
/// Returns a usage message on unknown flags or malformed values.
pub fn parse_args(args: &[String]) -> Result<CampaignCliArgs, String> {
    let mut out = CampaignCliArgs::default();
    let mut it = args.iter();
    let value = |flag: &str, v: Option<&String>| -> Result<String, String> {
        v.cloned().ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(arg) = it.next() {
        if out.spec.eat(arg, || it.next().cloned())? {
            continue;
        }
        match arg.as_str() {
            "--threads" => {
                let v = value("--threads", it.next())?;
                out.threads = v
                    .parse()
                    .map_err(|_| format!("bad --threads value {v:?}"))?;
                if out.threads == 0 {
                    return Err("--threads must be positive".to_string());
                }
                if out.threads > MAX_THREADS {
                    return Err(format!("--threads must be at most {MAX_THREADS}"));
                }
            }
            "--out" => {
                out.out = Some(PathBuf::from(value("--out", it.next())?));
            }
            "--chaos" => {
                let v = value("--chaos", it.next())?;
                out.chaos = ChaosSpec::parse(&v).map_err(|e| e.detail)?;
            }
            "--chaos-seed" => {
                let v = value("--chaos-seed", it.next())?;
                out.chaos_seed = v
                    .parse()
                    .map_err(|_| format!("bad --chaos-seed value {v:?}"))?;
            }
            "--die-iter-budget" => {
                let v = value("--die-iter-budget", it.next())?;
                out.die_iter_budget = v
                    .parse()
                    .map_err(|_| format!("bad --die-iter-budget value {v:?}"))?;
            }
            "--die-wall-ms" => {
                let v = value("--die-wall-ms", it.next())?;
                out.die_wall_ms = v
                    .parse()
                    .map_err(|_| format!("bad --die-wall-ms value {v:?}"))?;
            }
            "--shards" => {
                let v = value("--shards", it.next())?;
                out.shards = v.parse().map_err(|_| format!("bad --shards value {v:?}"))?;
                if out.shards == 0 {
                    return Err("--shards must be positive".to_string());
                }
            }
            "--trace" => {
                out.trace = true;
            }
            other if other.starts_with("--trace=") => {
                let dir = &other["--trace=".len()..];
                if dir.is_empty() {
                    return Err("--trace= needs a directory".to_string());
                }
                out.trace = true;
                out.trace_dir = Some(PathBuf::from(dir));
            }
            other => {
                return Err(format!(
                    "unknown campaign argument {other:?} \
                     (usage: campaign [--dies N | --diameter D] [--threads N] [--seed S] \
                     [--out DIR] [--faults SPEC] [--retries N] [--no-robust] \
                     [--trace[=DIR]] [--chaos SPEC] [--chaos-seed S] \
                     [--die-iter-budget N] [--die-wall-ms MS] [--shards N] \
                     [--adaptive | --exhaustive])"
                ));
            }
        }
    }
    if out.shards > 0 {
        // Traces live in worker processes (unmergeable wall clocks) and
        // chaos acts on in-process state — both are typed conflicts, not
        // silently dropped flags.
        if out.trace {
            return Err("--shards cannot be combined with --trace".to_string());
        }
        if !out.chaos.is_none() {
            return Err("--shards cannot be combined with --chaos".to_string());
        }
    }
    Ok(out)
}

/// ASCII summary of a finished campaign.
#[must_use]
pub fn render(run: &CampaignRun) -> String {
    let mut s = String::new();
    let spec = &run.spec;
    let _ = writeln!(
        s,
        "CAMPAIGN — {} dies (circular wafer, diameter {}), seed {}, {} thread(s)",
        spec.wafer.die_count(),
        spec.wafer.rows(),
        spec.seed,
        run.metrics.threads,
    );
    let _ = writeln!(
        s,
        "  {:.1} dies/s, reorder buffer peak {}, {} die(s) with solve failures",
        run.metrics.dies_per_second, run.metrics.max_reorder_buffer, run.aggregate.dies_failed,
    );
    let _ = writeln!(
        s,
        "\n  {:<6} {:>9} {:>20} {:>16} {:>8} {:>22}",
        "corner", "IC [uA]", "EG [eV] mean+/-sig", "XTI mean+/-sig", "yield", "straight EG(XTI)"
    );
    for (i, c) in run.aggregate.corners.iter().enumerate() {
        let _ = writeln!(
            s,
            "  {:<6} {:>9.2} {:>11.4} +/- {:>5.1}m {:>9.2} +/- {:>4.2} {:>7.1}% {:>10.1}m x + {:.4}",
            c.name,
            spec.corners[i].ic.value() * 1e6,
            c.eg_ev.mean(),
            c.eg_ev.std_dev() * 1e3,
            c.xti.mean(),
            c.xti.std_dev(),
            c.yield_fraction() * 100.0,
            c.straight.slope() * 1e3,
            c.straight.intercept(),
        );
    }
    if !spec.faults.is_none() {
        let by_kind = |counts: &dyn Fn(
            &icvbe_campaign::aggregate::CornerAggregate,
        ) -> [u64; FailureKind::COUNT]| {
            let mut total = [0u64; FailureKind::COUNT];
            for c in &run.aggregate.corners {
                for (t, n) in total.iter_mut().zip(counts(c)) {
                    *t += n;
                }
            }
            FailureKind::ALL
                .iter()
                .zip(total)
                .filter(|(_, n)| *n > 0)
                .map(|(k, n)| format!("{} {}", k.label(), n))
                .collect::<Vec<_>>()
                .join(", ")
        };
        let r = &run.metrics.recovery;
        let _ = writeln!(
            s,
            "\n  faults: {} corner(s) retried, {} recovered \
             ({} via robust fit), {} quarantined, {} retries total",
            r.corners_retried,
            r.corners_recovered,
            r.robust_recoveries,
            r.corners_quarantined,
            run.aggregate.corners.iter().map(|c| c.retries).sum::<u64>(),
        );
        let recovered = by_kind(&|c| c.recovered);
        if !recovered.is_empty() {
            let _ = writeln!(s, "    recovered from: {recovered}");
        }
        let quarantined = by_kind(&|c| c.failures);
        if !quarantined.is_empty() {
            let _ = writeln!(s, "    quarantined as: {quarantined}");
        }
    }
    let cm = &run.metrics.containment;
    if cm.die_panics + cm.budgets_exhausted + cm.checkpoint_write_errors > 0 {
        let _ = writeln!(
            s,
            "\n  containment: {} die panic(s) contained, {} die budget(s) exhausted, \
             {} checkpoint write error(s)",
            cm.die_panics, cm.budgets_exhausted, cm.checkpoint_write_errors,
        );
    }
    let solver = &run.metrics.solver;
    let _ = writeln!(
        s,
        "\n  solver: {} solves, {} Newton iters ({:.1}/solve), \
         {} self-heating iters",
        solver.solves,
        solver.newton_iterations,
        solver.newton_per_solve(),
        solver.selfheat_iterations,
    );
    let _ = writeln!(
        s,
        "  stamping: device eval reuse rate {:.1}% ({} evals, {} exact reuses)",
        solver.eval_reuse_rate() * 100.0,
        solver.device_evals,
        solver.device_reuses,
    );
    let _ = writeln!(
        s,
        "\n  stage timings (p50/p99 per die): {}",
        run.metrics
            .stages
            .iter()
            .map(|st| format!(
                "{} {:.0}us/{:.0}us",
                st.name,
                st.p50_ns as f64 / 1e3,
                st.p99_ns as f64 / 1e3
            ))
            .collect::<Vec<_>>()
            .join(", ")
    );
    if let Some(trace) = &run.trace {
        let dies = trace
            .slowest_dies(5)
            .into_iter()
            .map(|(die, ns)| format!("die {} {}", die, fmt_ns(ns)))
            .collect::<Vec<_>>()
            .join(", ");
        let corners = trace
            .slowest_corners(5)
            .into_iter()
            .map(|(die, corner, ns)| {
                let name = usize::try_from(corner)
                    .ok()
                    .and_then(|i| run.aggregate.corners.get(i))
                    .map_or("?", |c| c.name.as_str());
                format!("die {die}/{name} {}", fmt_ns(ns))
            })
            .collect::<Vec<_>>()
            .join(", ");
        let _ = writeln!(s, "\n  slowest dies:    {dies}");
        let _ = writeln!(s, "  slowest corners: {corners}");
        if trace.dropped > 0 {
            let _ = writeln!(
                s,
                "  trace: {} event(s) dropped (buffer full)",
                trace.dropped
            );
        }
    }
    s
}

/// `1234567` → `"1.23ms"`; sub-millisecond spans render in microseconds.
fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else {
        format!("{:.0}us", ns as f64 / 1e3)
    }
}

/// The `--help` text, including the exit-code contract.
#[must_use]
pub fn help() -> String {
    "repro campaign [--dies N | --diameter D] [--threads N] [--seed S] [--out DIR]\n\
     \x20              [--faults SPEC] [--retries N] [--no-robust] [--trace[=DIR]]\n\
     \x20              [--chaos SPEC] [--chaos-seed S] [--die-iter-budget N]\n\
     \x20              [--die-wall-ms MS] [--shards N] [--adaptive | --exhaustive]\n\
     \n\
     Runs a wafer-scale IC(VBE) extraction campaign and prints a summary;\n\
     --out writes the JSON/CSV report artifacts (bit-identical at any\n\
     --threads value). The spec flags (--dies, --diameter, --seed, --faults,\n\
     --retries, --no-robust, --adaptive, --exhaustive) mean the same in\n\
     `repro submit`.\n\
     \n\
     --chaos SPEC injects environment faults (presets light/heavy or k=v\n\
     pairs: die_panic=P, write_error=P, short_write=P, torn=P, stall=P,\n\
     stall_ms=N, reset=P; seeded by --chaos-seed). The campaign subcommand\n\
     acts only on die_panic — panicking dies are contained and quarantined\n\
     as internal_panic, deterministically per seed. --die-iter-budget\n\
     retires a runaway die's remaining corners as budget_exhausted after N\n\
     Newton steps (deterministic; every step counts, the final converging\n\
     steps included); --die-wall-ms is the wall-clock escape hatch\n\
     (nondeterministic by nature).\n\
     \n\
     --shards N runs the wafer across N worker processes, each running a\n\
     contiguous die-range slice; the supervisor folds their per-die\n\
     records in die order, so the report artifacts are\n\
     byte-identical at any shard count (incompatible with --trace and\n\
     --chaos). --adaptive probes each die on its first corner and runs\n\
     the remaining corners only when the probe looks suspicious; clean\n\
     dies report those corners as skipped. --exhaustive is the explicit\n\
     full plan (the default).\n\
     \n\
     Exit codes:\n\
     \x20 0  campaign ran and at least one corner measurement passed the spec window\n\
     \x20 1  the campaign could not run (bad arguments, invalid spec, write failure)\n\
     \x20 2  the campaign ran but total yield is zero (no passing corner anywhere\n\
     \x20    on the wafer) — scripts can distinguish a dead process corner from a\n\
     \x20    broken invocation\n"
        .to_string()
}

/// Runs the subcommand end to end, returning the printable summary and
/// the process exit code: `0` normally, `2` when the campaign completed
/// with **zero yield** (no corner anywhere on the wafer passed the spec
/// window — see [`help`]).
///
/// # Errors
///
/// Argument, spec-validation and artifact-write failures, as strings
/// (exit code 1 territory).
pub fn run_cli_status(args: &[String]) -> Result<(String, u8), String> {
    if args.iter().any(|a| a == "--help") {
        return Ok((help(), 0));
    }
    let cli = parse_args(args)?;
    let spec = cli.spec.build();
    let budget = DieBudget {
        max_newton_iterations: cli.die_iter_budget,
        max_wall_ms: cli.die_wall_ms,
    };
    let run = if cli.shards > 0 {
        let opts = ShardOptions {
            shards: cli.shards,
            threads: cli.threads,
            budget,
            worker_exe: None,
        };
        run_sharded(&spec, &opts).map_err(|e| e.to_string())?
    } else {
        let options = StreamOptions {
            trace: cli.trace,
            chaos: cli.chaos,
            chaos_seed: cli.chaos_seed,
            budget,
            ..StreamOptions::default()
        };
        run_campaign_with(&spec, cli.threads, &options).map_err(|e| e.to_string())?
    };
    let mut text = render(&run);
    if let Some(dir) = &cli.out {
        let paths = write_reports(dir, &run).map_err(|e| format!("writing reports: {e}"))?;
        for p in paths {
            let _ = writeln!(text, "  wrote {}", p.display());
        }
    }
    if let Some(trace) = &run.trace {
        let dir = cli
            .trace_dir
            .clone()
            .or_else(|| cli.out.clone())
            .unwrap_or_else(|| PathBuf::from("artifacts"));
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("creating trace dir {}: {e}", dir.display()))?;
        for (name, contents) in [
            ("campaign_trace.json", trace.chrome_json()),
            ("campaign_profile.folded", trace.folded()),
        ] {
            let path = dir.join(name);
            std::fs::write(&path, contents)
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
            let _ = writeln!(text, "  wrote {}", path.display());
        }
    }
    let passes: u64 = run
        .aggregate
        .corners
        .iter()
        .map(|c| c.bins[YieldBin::Pass.index()])
        .sum();
    let code = if passes == 0 {
        let _ = writeln!(
            text,
            "  ZERO YIELD — no passing corner on the wafer (exit 2)"
        );
        2
    } else {
        0
    };
    Ok((text, code))
}

/// Runs the subcommand end to end and returns the printable summary,
/// ignoring the yield-based exit code (see [`run_cli_status`]).
///
/// # Errors
///
/// Argument, spec-validation and artifact-write failures, as strings.
pub fn run_cli(args: &[String]) -> Result<String, String> {
    run_cli_status(args).map(|(text, _)| text)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(args: &[&str]) -> Vec<String> {
        args.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn parses_full_flag_set() {
        let a = parse_args(&sv(&["--diameter", "9", "--threads", "3", "--seed", "7"])).unwrap();
        assert_eq!(a.spec.diameter, 9);
        assert_eq!(a.threads, 3);
        assert_eq!(a.spec.seed, 7);
        assert_eq!(a.out, None);
    }

    #[test]
    fn dies_flag_picks_covering_diameter() {
        let a = parse_args(&sv(&["--dies", "1000"])).unwrap();
        let map = WaferMap::circular(a.spec.diameter);
        assert!(map.die_count() >= 1000, "{} dies", map.die_count());
        assert!(WaferMap::circular(a.spec.diameter - 1).die_count() < 1000);
    }

    #[test]
    fn oversized_dies_flag_fails_validation_fast() {
        for dies in [MAX_GRID_SITES, usize::MAX] {
            let a = parse_args(&sv(&["--dies", &dies.to_string()])).unwrap();
            let spec = CampaignSpec::paper_default(WaferMap::circular(a.spec.diameter), 1);
            assert!(spec.validate().is_err(), "{dies} dies");
        }
    }

    #[test]
    fn rejects_unknown_and_malformed_flags() {
        assert!(parse_args(&sv(&["--bogus"])).is_err());
        assert!(parse_args(&sv(&["--threads"])).is_err());
        assert!(parse_args(&sv(&["--threads", "zero"])).is_err());
        let cap = MAX_THREADS.to_string();
        assert_eq!(
            parse_args(&sv(&["--threads", &cap])).unwrap().threads,
            MAX_THREADS
        );
        let above = (MAX_THREADS + 1).to_string();
        assert!(parse_args(&sv(&["--threads", &above])).is_err());
        assert!(parse_args(&sv(&["--threads", &usize::MAX.to_string()])).is_err());
        assert!(parse_args(&sv(&["--dies", "0"])).is_err());
    }

    #[test]
    fn parses_fault_flags() {
        let a = parse_args(&sv(&["--faults", "heavy", "--retries", "5", "--no-robust"])).unwrap();
        assert_eq!(a.spec.faults, FaultSpec::heavy());
        assert_eq!(a.spec.retries, Some(5));
        assert!(!a.spec.robust);
        let b = parse_args(&sv(&["--faults", "noise=0.2,drop=0.05"])).unwrap();
        assert_eq!(b.spec.faults.noise_probability, 0.2);
        assert_eq!(b.spec.faults.drop_probability, 0.05);
        assert!(parse_args(&sv(&["--faults", "nonsense=1"])).is_err());
        assert!(parse_args(&sv(&["--retries", "many"])).is_err());
    }

    #[test]
    fn faulted_run_renders_recovery_summary() {
        let text = run_cli(&sv(&[
            "--diameter",
            "4",
            "--threads",
            "2",
            "--seed",
            "13",
            "--faults",
            "heavy",
        ]))
        .unwrap();
        assert!(text.contains("faults:"), "summary:\n{text}");
        assert!(text.contains("retried"), "summary:\n{text}");
        let clean = run_cli(&sv(&["--diameter", "4", "--threads", "2", "--seed", "13"])).unwrap();
        assert!(!clean.contains("faults:"), "summary:\n{clean}");
    }

    #[test]
    fn parses_chaos_and_budget_flags() {
        let a = parse_args(&sv(&[
            "--chaos",
            "die_panic=0.25",
            "--chaos-seed",
            "9",
            "--die-iter-budget",
            "500",
            "--die-wall-ms",
            "2000",
        ]))
        .unwrap();
        assert_eq!(a.chaos.die_panic_probability, 0.25);
        assert_eq!(a.chaos_seed, 9);
        assert_eq!(a.die_iter_budget, 500);
        assert_eq!(a.die_wall_ms, 2000);
        let off = parse_args(&sv(&[])).unwrap();
        assert!(off.chaos.is_none(), "chaos must be off by default");
        assert_eq!(off.die_iter_budget, 0);
        assert!(parse_args(&sv(&["--chaos", "frobnicate=1"])).is_err());
        assert!(parse_args(&sv(&["--chaos-seed", "many"])).is_err());
        assert!(parse_args(&sv(&["--die-iter-budget", "-3"])).is_err());
    }

    #[test]
    fn chaos_run_renders_containment_and_stays_deterministic() {
        let args = [
            "--diameter",
            "4",
            "--threads",
            "2",
            "--seed",
            "13",
            "--chaos",
            "die_panic=0.5",
            "--chaos-seed",
            "7",
        ];
        let text = run_cli(&sv(&args)).unwrap();
        assert!(text.contains("containment:"), "summary:\n{text}");
        assert!(text.contains("die panic(s) contained"), "summary:\n{text}");
        let again = run_cli(&sv(&args)).unwrap();
        let physics = |s: &str| {
            let start = s.find("\n\n  corner").unwrap();
            let end = s.find("\n\n  containment:").unwrap();
            s[start..end].to_string()
        };
        assert_eq!(physics(&text), physics(&again));
        let clean = run_cli(&sv(&["--diameter", "4", "--threads", "2", "--seed", "13"])).unwrap();
        assert!(!clean.contains("containment:"), "summary:\n{clean}");
    }

    #[test]
    fn parses_trace_flags() {
        let a = parse_args(&sv(&["--trace"])).unwrap();
        assert!(a.trace);
        assert_eq!(a.trace_dir, None);
        let b = parse_args(&sv(&["--trace=/tmp/somewhere"])).unwrap();
        assert!(b.trace);
        assert_eq!(b.trace_dir, Some(PathBuf::from("/tmp/somewhere")));
        assert!(parse_args(&sv(&["--trace="])).is_err());
        let off = parse_args(&sv(&[])).unwrap();
        assert!(!off.trace, "tracing must be off by default");
    }

    #[test]
    fn traced_run_writes_artifacts_and_ranks_hotspots() {
        let dir = std::env::temp_dir().join("icvbe_cli_trace_test");
        let _ = std::fs::remove_dir_all(&dir);
        let trace_flag = format!("--trace={}", dir.display());
        let text = run_cli(&sv(&[
            "--diameter",
            "3",
            "--threads",
            "2",
            "--seed",
            "11",
            &trace_flag,
        ]))
        .unwrap();
        assert!(text.contains("slowest dies:"), "summary:\n{text}");
        assert!(text.contains("slowest corners:"), "summary:\n{text}");
        let json = std::fs::read_to_string(dir.join("campaign_trace.json")).unwrap();
        assert!(json.contains("\"schema\":\"icvbe-campaign-trace-v1\""));
        assert!(json.contains("\"ph\":\"B\""));
        let folded = std::fs::read_to_string(dir.join("campaign_profile.folded")).unwrap();
        assert!(folded.contains("campaign;die;corner;measure;dc_solve"));
        let _ = std::fs::remove_dir_all(&dir);

        let plain = run_cli(&sv(&["--diameter", "3", "--threads", "2", "--seed", "11"])).unwrap();
        assert!(!plain.contains("slowest dies:"), "summary:\n{plain}");
    }

    #[test]
    fn parses_shard_and_adaptive_flags() {
        let a = parse_args(&sv(&["--shards", "4", "--adaptive"])).unwrap();
        assert_eq!(a.shards, 4);
        assert!(a.spec.adaptive);
        let off = parse_args(&sv(&[])).unwrap();
        assert_eq!(off.shards, 0, "sharding must be off by default");
        assert!(!off.spec.adaptive, "adaptive must be off by default");
        assert!(parse_args(&sv(&["--shards", "0"])).is_err());
        assert!(parse_args(&sv(&["--shards", "lots"])).is_err());
        assert!(parse_args(&sv(&["--adaptive", "--exhaustive"])).is_err());
        // Typed conflicts, not silently dropped flags.
        assert!(parse_args(&sv(&["--shards", "2", "--trace"])).is_err());
        assert!(parse_args(&sv(&["--shards", "2", "--chaos", "die_panic=0.5"])).is_err());
        // --exhaustive alone is the explicit default, always valid.
        assert!(parse_args(&sv(&["--exhaustive"])).is_ok());
    }

    #[test]
    fn retired_solver_switches_are_unknown_arguments() {
        for args in [
            &["--batch", "1"][..],
            &["--batch=4"],
            &["--cold"],
            &["--no-bypass"],
            &["--libm-exp"],
        ] {
            let err = parse_args(&sv(args)).unwrap_err();
            assert!(
                err.starts_with("unknown campaign argument"),
                "{args:?}: {err}"
            );
        }
    }

    #[test]
    fn run_cli_renders_summary() {
        let text = run_cli(&sv(&["--diameter", "4", "--threads", "2", "--seed", "42"])).unwrap();
        assert!(text.contains("CAMPAIGN"));
        assert!(text.contains("corner"));
        assert!(text.contains("nom"));
        assert!(text.contains("self-heating iters"));
    }

    #[test]
    fn zero_yield_campaign_reports_exit_code_2() {
        // nan=1 corrupts every measurement; with retries and robust
        // estimation off, no corner anywhere can pass the spec window.
        let (text, code) = run_cli_status(&sv(&[
            "--diameter",
            "3",
            "--threads",
            "2",
            "--seed",
            "5",
            "--faults",
            "nan=1",
            "--retries",
            "0",
            "--no-robust",
        ]))
        .unwrap();
        assert_eq!(code, 2, "summary:\n{text}");
        assert!(text.contains("ZERO YIELD"), "summary:\n{text}");

        let (ok_text, ok_code) =
            run_cli_status(&sv(&["--diameter", "3", "--threads", "2", "--seed", "5"])).unwrap();
        assert_eq!(ok_code, 0, "summary:\n{ok_text}");
        assert!(!ok_text.contains("ZERO YIELD"));
    }

    #[test]
    fn help_documents_the_exit_code_contract() {
        let (text, code) = run_cli_status(&sv(&["--help"])).unwrap();
        assert_eq!(code, 0);
        assert!(text.contains("Exit codes:"), "help:\n{text}");
        assert!(text.contains("yield is zero"), "help:\n{text}");
    }
}
