//! End-to-end and per-layer benchmark of the icvbe campaign engine and
//! service. See `README.md` next to this file for the workloads, the
//! metrics and how to read a comparison.
//!
//! ```text
//! # every workload, one child process each, guards included
//! cargo run --release --manifest-path examples/benchmark/Cargo.toml -- --seed 2002 --out a.json
//! # one workload (what a child runs), timed or traced
//! cargo run --release --manifest-path examples/benchmark/Cargo.toml -- \
//!     --workload wafer_exhaustive --seed 2002 --seconds 20 --trace 0
//! # per-layer numbers plus the span JSON of every workload
//! cargo run --release --manifest-path examples/benchmark/Cargo.toml -- --trace spans/
//! # two results files against the bounds
//! cargo run --release --manifest-path examples/benchmark/Cargo.toml -- --compare a.json b.json
//! ```

mod compare;
mod host;
mod layers;
mod metrics;
mod report;
mod serve;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use icvbe::campaign::json::{escape, parse, Json};

use crate::report::{Report, DETAIL_PREFIX};
use crate::stats::json_num;
use crate::workloads::{Options, Workload};

const USAGE: &str = "usage: benchmark [--workload NAME] [--seed N] [--seconds S] \
[--trace 0|1|DIR] [--quick] [--out FILE] | --compare A.json B.json";

/// What `--trace` asked for.
#[derive(Debug, Clone, PartialEq)]
enum Trace {
    Off,
    /// Per-layer metrics only.
    On,
    /// Per-layer metrics plus span JSON files in this directory.
    Dir(PathBuf),
}

#[derive(Debug)]
struct Args {
    workload: Option<Workload>,
    options: Options,
    trace: Trace,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        options: Options {
            seed: 2002,
            seconds: f64::NAN,
            quick: false,
        },
        trace: Trace::Off,
        out: None,
        compare: None,
    };
    let value = |it: &mut dyn Iterator<Item = String>, flag: &str| {
        it.next().ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => {
                let name = value(&mut it, &flag)?;
                args.workload = Some(
                    Workload::parse(&name).ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => {
                args.options.seed = value(&mut it, &flag)?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value(&mut it, &flag)?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=600.0).contains(&s) {
                    return Err("--seconds must lie in 0..=600".to_string());
                }
                args.options.seconds = s;
            }
            "--trace" => {
                args.trace = match value(&mut it, &flag)?.as_str() {
                    "0" => Trace::Off,
                    "1" => Trace::On,
                    dir => Trace::Dir(PathBuf::from(dir)),
                };
            }
            "--quick" => args.options.quick = true,
            "--out" => args.out = Some(PathBuf::from(value(&mut it, &flag)?)),
            "--compare" => {
                let a = value(&mut it, &flag)?;
                let b = value(&mut it, &flag)?;
                args.compare = Some((a.into(), b.into()));
            }
            "-h" | "--help" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    if args.options.seconds.is_nan() {
        args.options.seconds = if args.options.quick { 3.0 } else { 20.0 };
    }
    Ok(args)
}

/// One workload in this process: the timed run, or with tracing the
/// per-layer run. Prints the summary, the detail line and, last, the
/// result line.
fn run_one(workload: Workload, options: &Options, trace: &Trace) -> ExitCode {
    println!(
        "== {} (seed {}, {} s, trace {})",
        workload.name(),
        options.seed,
        options.seconds,
        !matches!(trace, Trace::Off)
    );
    let load_before = host::loadavg();
    let calibration_ms = host::calibration_ms();
    let result = match (trace, workload) {
        (Trace::Off, Workload::Serve) => serve::run_serve(options),
        (Trace::Off, _) => workloads::run_wafer(workload, options),
        (Trace::On, _) => layers::run_layers(workload, options, None),
        (Trace::Dir(dir), _) => layers::run_layers(workload, options, Some(dir)),
    };
    let mut report: Report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{}: {e}", workload.name());
            return ExitCode::FAILURE;
        }
    };
    for (name, load) in [
        ("loadavg_before", load_before),
        ("loadavg_after", host::loadavg()),
    ] {
        if let Some([one, _, _]) = load {
            report.diagnostics.push((name, one));
        }
    }
    report.diagnostics.push(("calibration_ms", calibration_ms));
    report.print_summary();
    println!("{}", report.detail_line());
    println!("{}", report.result_line());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// A child's verdict plus its result and detail lines, both checked to
/// be JSON before they go into the results file.
struct ChildResult {
    correct: bool,
    result_text: String,
    detail_text: String,
}

fn run_child(workload: Workload, options: &Options, trace: &Trace) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["--workload", workload.name()])
        .args(["--seed", &options.seed.to_string()])
        .args(["--seconds", &options.seconds.to_string()]);
    match trace {
        Trace::Off => cmd.args(["--trace", "0"]),
        Trace::On => cmd.args(["--trace", "1"]),
        Trace::Dir(dir) => cmd.arg("--trace").arg(dir),
    };
    if options.quick {
        cmd.arg("--quick");
    }
    let output = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning {}: {e}", workload.name()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    for line in stdout.lines() {
        if !line.starts_with(DETAIL_PREFIX) && !line.starts_with("{\"correct\"") {
            println!("{line}");
        }
    }
    let result_text = stdout.lines().last().unwrap_or("").to_string();
    let detail_text = stdout
        .lines()
        .find_map(|l| l.strip_prefix(DETAIL_PREFIX))
        .unwrap_or("{}")
        .to_string();
    let result = parse(&result_text).map_err(|e| {
        format!(
            "{}: no result line ({e}), exit {}",
            workload.name(),
            output.status
        )
    })?;
    parse(&detail_text).map_err(|e| format!("{}: bad detail line: {e}", workload.name()))?;
    Ok(ChildResult {
        correct: result.get("correct").and_then(Json::as_bool) == Some(true),
        result_text,
        detail_text,
    })
}

/// Runs every workload in its own child process (a clean peak RSS and a
/// cold set-up each), then the traced children when asked, and writes
/// the results file.
fn run_all(options: &Options, trace: &Trace, out: Option<&PathBuf>) -> ExitCode {
    let load_before = host::loadavg();
    let calibration_ms = host::calibration_ms();
    let mut ok = true;
    let mut entries = Vec::new();
    let passes: Vec<Trace> = match trace {
        Trace::Off => vec![Trace::Off],
        t => vec![Trace::Off, t.clone()],
    };
    for pass in &passes {
        for workload in Workload::ALL {
            match run_child(workload, options, pass) {
                Ok(child) => {
                    ok &= child.correct;
                    let key = if *pass == Trace::Off {
                        "timed"
                    } else {
                        "traced"
                    };
                    entries.push(format!(
                        "\"{}/{key}\":{{\"result\":{},\"detail\":{}}}",
                        workload.name(),
                        child.result_text,
                        child.detail_text
                    ));
                }
                Err(e) => {
                    eprintln!("{e}");
                    ok = false;
                }
            }
        }
    }
    let load = |l: Option<[f64; 3]>| {
        l.map_or("null".to_string(), |[a, b, c]| {
            format!("[{},{},{}]", json_num(a), json_num(b), json_num(c))
        })
    };
    let doc = format!(
        "{{\"schema\":\"icvbe-benchmark-results-v1\",\"seed\":{},\"seconds\":{},\"quick\":{},\
         \"host\":{{\"nproc\":{},\"loadavg_before\":{},\"loadavg_after\":{},\"rustc\":\"{}\",\
         \"calibration_ms\":{}}},\"runs\":{{\n{}\n}}}}\n",
        options.seed,
        json_num(options.seconds),
        options.quick,
        host::nproc(),
        load(load_before),
        load(host::loadavg()),
        escape(&host::rustc_version()),
        json_num(calibration_ms),
        entries.join(",\n")
    );
    if let Some(path) = out {
        if let Err(e) = std::fs::write(path, &doc) {
            eprintln!("{}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("wrote {}", path.display());
    }
    println!(
        "host: nproc {}, calibration {calibration_ms:.2} ms (recorded, not applied)",
        host::nproc()
    );
    if ok {
        println!("all guards passed");
        ExitCode::SUCCESS
    } else {
        eprintln!("a workload failed or a guard tripped");
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if let Some((a, b)) = &args.compare {
        return compare::run(a, b);
    }
    match args.workload {
        Some(w) => run_one(w, &args.options, &args.trace),
        None => run_all(&args.options, &args.trace, args.out.as_ref()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(str::to_string))
    }

    #[test]
    fn single_workload_command_line_parses() {
        let a = args("--workload wafer_faulted --seed 7 --seconds 12 --trace 1").unwrap();
        assert_eq!(a.workload, Some(Workload::Faulted));
        assert_eq!(a.options.seed, 7);
        assert_eq!(a.options.seconds, 12.0);
        assert_eq!(a.trace, Trace::On);
        let a = args("--trace spans --quick").unwrap();
        assert_eq!(a.trace, Trace::Dir(PathBuf::from("spans")));
        assert_eq!(a.options.seconds, 3.0);
        assert!(args("--workload nope").is_err());
        assert!(args("--seconds -1").is_err());
        assert!(args("--seed").is_err());
        assert!(args("--frobnicate").is_err());
    }
}
