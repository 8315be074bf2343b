//! The traced run: per-layer numbers from an in-order replay of the
//! workload's campaign through public functions, with a benchmark-side
//! span around each call, plus a traced service loop.
//!
//! Each of the interleaved rounds runs the untraced campaign on one and
//! on two threads, then the replay, so host drift hits both sides of
//! every subtraction alike. Every 8th die is also replayed one layer
//! deeper (sample draw, bench sweep, DC solves, extraction attempts);
//! its extraction must reproduce the die's bits, otherwise the deep rows
//! are withheld.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::ops::Range;
use std::path::Path;
use std::time::Instant;

use icvbe::campaign::aggregate::{CampaignAggregate, YieldBin};
use icvbe::campaign::die::{run_die_with, DieOutcome, DieScratch};
use icvbe::campaign::seeding::{stream_seed, Stream};
use icvbe::campaign::spec::DieSite;
use icvbe::campaign::{run_campaign, CampaignSpec};
use icvbe::core::meijer::extract;
use icvbe::core::tempcomp::{temperature_from_dvbe_corrected, PairCurrents};
use icvbe::instrument::bench::{BenchScratch, PairCampaignPoint, SolveMode, TestStructureBench};
use icvbe::instrument::faults::FaultPlan;
use icvbe::instrument::montecarlo::SampleFactory;
use icvbe::numerics::rng::Xoshiro256PlusPlus;
use icvbe::numerics::vexp::vexp_slice;
use icvbe::spice::workspace::SolveWorkspace;
use icvbe::units::Kelvin;

use crate::host;
use crate::report::Report;
use crate::serve::{closed_loop, verify_jobs, Job, ScratchDaemon};
use crate::stats::{p25, p50};
use crate::workloads::{artifact_diff, metrics_counter, render, Options, Workload, THREADS};

/// Every `DEEP_STRIDE`-th die is replayed layer by layer.
const DEEP_STRIDE: usize = 8;
const VEXP_OPERANDS: usize = 4096;
const VEXP_REPS: usize = 200;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub die: Option<usize>,
    pub tid: u64,
}

/// In-memory span store; written out once the run ends.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Spans {
    pub fn new(epoch: Instant) -> Self {
        Spans {
            epoch,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str, parent: Option<usize>, die: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            die,
            tid: 0,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Total seconds of the spans named `name` from index `from` on.
    fn total(&self, from: usize, name: &str) -> f64 {
        self.spans[from..]
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .sum()
    }

    /// Chrome trace-event JSON (complete events, microseconds) of the spans
    /// in `ranges`, loadable in Perfetto or `chrome://tracing`. Span ids
    /// stay the store's indices, so parents resolve across ranges.
    pub fn chrome_json(&self, ranges: &[Range<usize>]) -> String {
        let events: Vec<String> = ranges
            .iter()
            .flat_map(|r| r.clone().map(|id| (id, &self.spans[id])))
            .map(|(id, s)| {
                let mut args = format!("\"id\":{id}");
                if let Some(p) = s.parent {
                    args.push_str(&format!(",\"parent\":{p}"));
                }
                if let Some(d) = s.die {
                    args.push_str(&format!(",\"die\":{d}"));
                }
                format!(
                    "{{\"name\":\"{}\",\"cat\":\"benchmark\",\"ph\":\"X\",\"ts\":{:.3},\
                     \"dur\":{:.3},\"pid\":1,\"tid\":{},\"args\":{{{args}}}}}",
                    s.name,
                    s.start_ns as f64 / 1e3,
                    (s.end_ns - s.start_ns) as f64 / 1e3,
                    s.tid
                )
            })
            .collect();
        format!(
            "{{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n{}\n]}}\n",
            events.join(",\n")
        )
    }
}

/// Deterministic tallies of one replay (identical every round).
#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    dies: u64,
    executed: u64,
    attempts: u64,
    robust: u64,
    quarantined: u64,
    deep_dies: u64,
    measured_corners: u64,
    measure_solves: u64,
    replayed_solves: u64,
    replayed_newton: u64,
    replayed_attempts: u64,
}

/// The eq.-19/20 computed temperature of a non-reference point.
fn computed_temperature(p: &PairCampaignPoint, refp: &PairCampaignPoint) -> Option<Kelvin> {
    let x = PairCurrents {
        ica_t: p.ic_a,
        icb_t: p.ic_b,
        ica_ref: refp.ic_a,
        icb_ref: refp.ic_b,
    }
    .x_factor()
    .ok()?;
    temperature_from_dvbe_corrected(p.dvbe, refp.dvbe, refp.sensor_temperature, x).ok()
}

/// One analytic extraction attempt: dVBE thermometry twice, then the
/// Meijer solve. `None` where the data cannot be extracted.
fn extract_attempt(points: &[PairCampaignPoint]) -> Option<(f64, f64)> {
    let [cold, reference, hot] = points else {
        return None;
    };
    let t_cold = computed_temperature(cold, reference)?;
    let t_hot = computed_temperature(hot, reference)?;
    let m = TestStructureBench::meijer_from_points(
        [cold, reference, hot],
        [t_cold, reference.sensor_temperature, t_hot],
    );
    let fit = extract(&m).ok()?;
    Some((fit.eg.value(), fit.xti))
}

/// Scratch buffers of the deep replay, reused across dies.
#[derive(Default)]
struct DeepScratch {
    bench: BenchScratch,
    solve: SolveWorkspace,
    points: Vec<PairCampaignPoint>,
    work: Vec<PairCampaignPoint>,
}

/// Replays one die layer by layer. Returns a named diff when the
/// replayed extraction does not reproduce the die's bits.
fn deep_die(
    spec: &CampaignSpec,
    out: &DieOutcome,
    spans: &mut Spans,
    parent: usize,
    scratch: &mut DeepScratch,
    tally: &mut Tally,
) -> Result<(), String> {
    let index = out.index as u64;
    let die = Some(out.index);
    let setpoints = spec.plan.setpoints();
    let s = spans.open("instrument.sample", Some(parent), die);
    let sample = SampleFactory::seeded(stream_seed(spec.seed, index, Stream::Process))
        .with_spec(spec.variation)
        .draw(out.index + 1);
    spans.close(s);
    tally.deep_dies += 1;

    for (k, corner) in out.corners.iter().enumerate() {
        if corner.bin == YieldBin::Skipped || corner.attempts == 0 {
            continue;
        }
        let ic = spec.corners[k].ic;
        // Every workload measures on the paper bench.
        let mut bench =
            TestStructureBench::paper_bench(stream_seed(spec.seed, index, Stream::Bench(k as u32)));
        let solves_before = scratch.bench.solve.stats.solves;
        let m = spans.open("instrument.measure", Some(parent), die);
        let measured = bench.run_pair_campaign_with(
            &sample,
            ic,
            &setpoints,
            &mut scratch.bench,
            &mut scratch.points,
            SolveMode::default(),
        );
        spans.close(m);
        if measured.is_err() {
            continue;
        }
        let sweep_solves = scratch.bench.solve.stats.solves - solves_before;
        tally.measured_corners += 1;
        tally.measure_solves += sweep_solves;

        // The sweep's solves, replayed on a fresh compile with as many
        // solves per point as the sweep made. The electro-thermal loop
        // walks from the chamber setpoint to the self-heated die
        // temperature, each solve seeded from the previous one; the
        // replay walks the same way, closing three quarters of the
        // remaining gap per solve and ending on the die temperature.
        let mut pair = sample
            .pair_structure(ic)
            .compile()
            .map_err(|e| format!("die {index}: compile failed: {e}"))?;
        let dc = TestStructureBench::campaign_dc_options_with(SolveMode::default());
        let per_point = (sweep_solves as usize / scratch.points.len().max(1)).max(1);
        for p in &scratch.points {
            let (t0, gap) = (
                p.setpoint.value(),
                p.die_temperature.value() - p.setpoint.value(),
            );
            for j in 0..per_point {
                let t = if j + 1 == per_point {
                    p.die_temperature
                } else {
                    Kelvin::new(t0 + gap * (1.0 - 0.25f64.powi(j as i32)))
                };
                let s = spans.open("bandgap.solve", Some(parent), die);
                let solved = pair.measure_at(t, &dc, &mut scratch.solve, true);
                spans.close(s);
                black_box(solved.ok());
                tally.replayed_solves += 1;
            }
        }

        let mut last = None;
        for attempt in 0..corner.attempts {
            scratch.work.clear();
            scratch.work.extend_from_slice(&scratch.points);
            if !spec.faults.is_none() {
                let seed = stream_seed(
                    spec.seed,
                    index,
                    Stream::Faults {
                        corner: k as u32,
                        attempt,
                    },
                );
                FaultPlan::new(spec.faults, seed).apply(&mut scratch.work);
            }
            let e = spans.open("core.extract", Some(parent), die);
            last = extract_attempt(&scratch.work);
            spans.close(e);
            tally.replayed_attempts += 1;
        }
        if corner.bin == YieldBin::Pass && !corner.robust_recovery {
            let want = corner.values.map(|v| (v.eg_ev.to_bits(), v.xti.to_bits()));
            let got = last.map(|(eg, xti)| (eg.to_bits(), xti.to_bits()));
            if want != got {
                return Err(format!(
                    "die {index} corner {k}: replayed extraction {got:?} != die outcome {want:?}"
                ));
            }
        }
    }
    Ok(())
}

/// Per-round layer timings, seconds.
#[derive(Debug, Default, Clone, Copy)]
struct Round {
    wall_1t: f64,
    wall_2t: f64,
    replay: f64,
    die: f64,
    aggregate: f64,
    sample: f64,
    measure: f64,
    solve: f64,
    extract: f64,
    report: f64,
    vexp: f64,
}

fn vexp_operands(seed: u64) -> Vec<f64> {
    // Junction exponents VBE/VT: 0.3..0.9 V over a 20..30 mV thermal
    // voltage, plus the reverse-biased side.
    let mut rng = Xoshiro256PlusPlus::seeded(seed);
    (0..VEXP_OPERANDS)
        .map(|_| rng.uniform(-40.0, 45.0))
        .collect()
}

fn rounds(options: &Options) -> usize {
    if options.quick {
        3
    } else {
        9
    }
}

/// What the interleaved rounds measured.
struct Replay {
    rounds: Vec<Round>,
    tally: Tally,
    /// The 1-thread run's solver counters, in [`COUNTERS`] order.
    counters: Vec<Option<f64>>,
    /// Whether the deep replay reproduced every die it replayed.
    deep_ok: bool,
    /// Span indices of the first round: the one the span JSON keeps.
    first_round: Range<usize>,
}

/// Solver counters read from the 1-thread run's metrics document.
const COUNTERS: [[&str; 2]; 5] = [
    ["solver", "newton_per_solve"],
    ["solver", "solves"],
    ["solver", "device_evals"],
    ["solver", "device_reuses"],
    ["solver", "selfheat_iterations"],
];

/// Runs the interleaved rounds on `spec`. Guard failures go to `report`.
fn replay_rounds(
    spec: &CampaignSpec,
    options: &Options,
    spans: &mut Spans,
    report: &mut Report,
) -> Result<Replay, String> {
    let sites: Vec<DieSite> = spec.wafer.sites();
    let setpoints = spec.plan.setpoints();
    let operands = vexp_operands(options.seed);
    let mut exp_out = vec![0.0; VEXP_OPERANDS];
    let mut replay = Replay {
        rounds: Vec::new(),
        tally: Tally::default(),
        counters: Vec::new(),
        deep_ok: true,
        first_round: 0..0,
    };

    for r in 0..rounds(options) {
        let from = spans.spans.len();
        let round = spans.open("round", None, None);

        let s = spans.open("campaign.run_1t", Some(round), None);
        let serial = run_campaign(spec, 1).map_err(|e| e.to_string())?;
        spans.close(s);
        let s = spans.open("campaign.run_2t", Some(round), None);
        let parallel = run_campaign(spec, THREADS).map_err(|e| e.to_string())?;
        spans.close(s);

        let replay_span = spans.open("campaign.replay", Some(round), None);
        let mut scratch = DieScratch::new();
        let mut aggregate = CampaignAggregate::new(spec);
        let mut deep = Vec::new();
        let mut t = Tally::default();
        for site in &sites {
            let d = spans.open("campaign.die", Some(replay_span), Some(site.index));
            let out = run_die_with(spec, *site, &setpoints, &mut scratch);
            spans.close(d);
            let a = spans.open("campaign.aggregate", Some(replay_span), Some(site.index));
            aggregate.absorb(&out);
            spans.close(a);
            t.dies += 1;
            for c in out.corners.iter().filter(|c| c.bin != YieldBin::Skipped) {
                t.executed += 1;
                t.attempts += u64::from(c.attempts);
                t.robust += u64::from(c.robust_recovery);
                t.quarantined += u64::from(c.failure.is_some());
            }
            if site.index % DEEP_STRIDE == 0 {
                deep.push(out);
            }
        }
        spans.close(replay_span);

        let want = render(&parallel);
        for (who, agg) in [
            ("1-thread", &serial.aggregate),
            ("traced replay", &aggregate),
        ] {
            if *agg != parallel.aggregate {
                let got = render(&icvbe::campaign::CampaignRun {
                    aggregate: agg.clone(),
                    ..parallel.clone()
                });
                report.guard_failures.push(format!(
                    "round {r}: {who} aggregate differs from the 2-thread run: {}",
                    artifact_diff(&want, &got)
                ));
            }
        }

        let deep_span = spans.open("campaign.deep_replay", Some(round), None);
        let mut deep_scratch = DeepScratch::default();
        // Once a replay fails to reproduce its die, later rounds skip it.
        let todo: &[DieOutcome] = if replay.deep_ok { &deep } else { &[] };
        for out in todo {
            if let Err(diff) = deep_die(spec, out, spans, deep_span, &mut deep_scratch, &mut t) {
                report.warnings.push(format!(
                    "deep replay no longer mirrors the die pipeline, its rows are null: {diff}"
                ));
                replay.deep_ok = false;
                break;
            }
        }
        spans.close(deep_span);
        t.replayed_newton = deep_scratch.solve.stats.newton_iterations;

        let s = spans.open("campaign.report", Some(round), None);
        black_box(render(&parallel));
        spans.close(s);

        let s = spans.open("numerics.vexp", Some(round), None);
        for _ in 0..VEXP_REPS {
            vexp_slice(black_box(&operands), &mut exp_out);
            black_box(&exp_out);
        }
        spans.close(s);
        spans.close(round);

        let sum = |name| spans.total(from, name);
        let rd = Round {
            wall_1t: sum("campaign.run_1t"),
            wall_2t: sum("campaign.run_2t"),
            replay: sum("campaign.replay"),
            die: sum("campaign.die"),
            aggregate: sum("campaign.aggregate"),
            sample: sum("instrument.sample"),
            measure: sum("instrument.measure"),
            solve: sum("bandgap.solve"),
            extract: sum("core.extract"),
            report: sum("campaign.report"),
            vexp: sum("numerics.vexp"),
        };
        replay.rounds.push(rd);
        if r == 0 {
            replay.first_round = from..spans.spans.len();
            replay.tally = t;
            replay.counters = COUNTERS
                .iter()
                .map(|path| metrics_counter(&serial, path))
                .collect();
        }
    }
    Ok(replay)
}

fn ratio(num: Option<f64>, den: Option<f64>) -> Option<f64> {
    Some(num? / den?)
}

/// The traced run of any workload: replay rounds on the workload's
/// campaign (the service workload replays one of its lots), then a
/// traced two-tenant service loop on the same campaign.
pub fn run_layers(
    workload: Workload,
    options: &Options,
    trace_dir: Option<&Path>,
) -> Result<Report, String> {
    let spec = workload.spec(options.seed, 0, options.quick);
    let mut report = Report::new(workload.name());
    let mut spans = Spans::new(Instant::now());
    let Replay {
        rounds,
        tally: t,
        counters,
        deep_ok,
        first_round,
    } = replay_rounds(&spec, options, &mut spans, &mut report)?;
    let engine: Vec<f64> = rounds.iter().map(|r| r.wall_2t + r.report).collect();

    let per_round = |f: &dyn Fn(&Round) -> f64| rounds.iter().map(f).collect::<Vec<f64>>();
    let n = |x: u64| x as f64;
    let time = |f: &dyn Fn(&Round) -> f64| p25(&per_round(f));
    let frac = |f: &dyn Fn(&Round) -> f64| p50(&per_round(f));

    let solve_us = time(&|r| r.solve / n(t.replayed_solves) * 1e6);
    let measure_us = time(&|r| r.measure / n(t.measured_corners) * 1e6);
    let extract_us = time(&|r| r.extract / n(t.replayed_attempts) * 1e6);
    let sample_us = time(&|r| r.sample / n(t.deep_dies) * 1e6);
    let die_us = time(&|r| r.die / n(t.dies) * 1e6);
    let aggregate_us = time(&|r| r.aggregate / n(t.dies) * 1e6);
    let solves_per_measure = n(t.measure_solves) / n(t.measured_corners);
    let explained_per_die = |r: &Round| {
        r.sample / n(t.deep_dies)
            + r.measure / n(t.measured_corners) * n(t.executed) / n(t.dies)
            + r.extract / n(t.replayed_attempts) * n(t.attempts) / n(t.dies)
    };
    let deep = |x: f64| deep_ok.then_some(x);

    let [newton_per_solve, solves, evals, reuses, selfheat] = counters[..] else {
        return Err("metrics counters missing".to_string());
    };

    // The traced service loop on the same campaign.
    let window = options.seconds.min(if options.quick { 3.0 } else { 10.0 });
    let daemon = ScratchDaemon::start()?;
    let rss0 = host::rss_kb();
    let t0 = Instant::now();
    let (jobs, _) = closed_loop(&daemon.addr, workload, options, t0, window, 2, None);
    let rss1 = host::rss_kb();
    let stats = daemon.daemon().service().stats();
    daemon.stop();
    let ok: Vec<_> = jobs.iter().filter(|j| j.result.is_ok()).collect();
    if ok.is_empty() {
        return Err("no traced lot completed".to_string());
    }
    let serve_spans = spans.spans.len();
    let epoch_offset = spans.epoch.elapsed().as_nanos() as u64 - (t0.elapsed().as_nanos() as u64);
    for job in &ok {
        let ns = |s: f64| epoch_offset + (s * 1e9) as u64;
        let first = job.first_die.unwrap_or(job.done);
        let base = spans.spans.len();
        for (name, a, b, parent) in [
            ("serve.job", job.connect_start, job.done, None),
            ("serve.connect", job.connect_start, job.sent, Some(base)),
            ("serve.queue", job.sent, first, Some(base)),
            ("serve.stream", first, job.done, Some(base)),
        ] {
            spans.spans.push(Span {
                name,
                start_ns: ns(a),
                end_ns: ns(b),
                parent,
                die: None,
                tid: job.tenant + 1,
            });
        }
    }
    verify_jobs(&jobs, workload, options, &mut report);
    let job_ms = |f: &dyn Fn(&Job) -> f64| p50(&ok.iter().map(|j| f(j) * 1e3).collect::<Vec<_>>());
    let latency_ms = job_ms(&|j| j.latency());

    let values: BTreeMap<&str, Option<f64>> = BTreeMap::from([
        ("bandgap.solve.us", deep(solve_us)),
        ("spice.newton_per_solve", newton_per_solve),
        ("spice.device_evals_per_solve", ratio(evals, solves)),
        (
            "spice.eval_reuse_frac",
            ratio(reuses, evals.zip(reuses).map(|(e, r)| e + r)),
        ),
        (
            "numerics.vexp.ns",
            Some(time(&|r| r.vexp / (VEXP_REPS * VEXP_OPERANDS) as f64 * 1e9)),
        ),
        ("instrument.measure.us", deep(measure_us)),
        (
            "thermal.selfheat_per_corner",
            ratio(selfheat, Some(n(t.executed))),
        ),
        (
            "thermal.self_frac",
            deep(1.0 - solves_per_measure * solve_us / measure_us),
        ),
        ("core.extract.us", deep(extract_us)),
        (
            "campaign.attempts_per_corner",
            Some(n(t.attempts) / n(t.executed)),
        ),
        ("campaign.robust_frac", Some(n(t.robust) / n(t.executed))),
        (
            "campaign.quarantine_frac",
            Some(n(t.quarantined) / n(t.executed)),
        ),
        ("campaign.report.ms", Some(time(&|r| r.report * 1e3))),
        ("campaign.die.us", Some(die_us)),
        ("instrument.sample.us", deep(sample_us)),
        ("campaign.aggregate.us", Some(aggregate_us)),
        (
            "campaign.die.residual_frac",
            deep(frac(&|r| 1.0 - explained_per_die(r) / (r.die / n(t.dies)))),
        ),
        (
            "campaign.worker.self_frac",
            Some(frac(&|r| (r.wall_1t - r.die - r.aggregate) / r.wall_1t)),
        ),
        (
            "campaign.serial_dies_per_s",
            Some(n(t.dies) / time(&|r| r.wall_1t)),
        ),
        (
            "campaign.parallel_eff",
            Some(frac(&|r| r.wall_1t / r.wall_2t / THREADS as f64)),
        ),
        (
            "serve.connect.ms",
            Some(job_ms(&|j| j.sent - j.connect_start)),
        ),
        (
            "serve.queue.ms",
            Some(job_ms(&|j| j.first_die.unwrap_or(j.done) - j.sent)),
        ),
        (
            "serve.stream.ms",
            Some(job_ms(&|j| j.done - j.first_die.unwrap_or(j.done))),
        ),
        ("serve.engine.ms", Some(p50(&engine) * 1e3)),
        ("serve.overhead_x", Some(latency_ms / (p50(&engine) * 1e3))),
        (
            "serve.slices_per_job",
            Some(stats.slices as f64 / stats.completed.max(1) as f64),
        ),
        (
            "serve.rss_kb_per_job",
            Some((rss1 - rss0) / stats.completed.max(1) as f64),
        ),
        (
            "residual_frac",
            deep(frac(&|r| {
                1.0 - (explained_per_die(r) * n(t.dies) + r.aggregate) / r.wall_1t
            })),
        ),
        (
            "trace_overhead_frac",
            Some(frac(&|r| r.replay / r.wall_1t - 1.0)),
        ),
    ]);
    report.metrics = crate::metrics::PER_LAYER
        .iter()
        .map(|m| (m.name, values.get(m.name).copied().flatten()))
        .collect();
    report.attempted = (rounds.len() + jobs.len()) as u64;
    report.failed = (jobs.len() - ok.len()) as u64;
    report.diagnostics = vec![
        ("rounds", rounds.len() as f64),
        ("traced_jobs", jobs.len() as f64),
        ("spans", spans.spans.len() as f64),
        ("deep_dies", n(t.deep_dies)),
        ("replayed_solves", n(t.replayed_solves)),
        ("sweep_solves_per_corner", solves_per_measure),
        (
            "replay_newton_per_solve",
            n(t.replayed_newton) / n(t.replayed_solves),
        ),
    ];
    report.deterministic = crate::metrics::PER_LAYER
        .iter()
        .filter(|m| m.unit == "count")
        .map(|m| {
            (
                m.name,
                crate::stats::json_opt(values.get(m.name).copied().flatten()),
            )
        })
        .collect();
    report.deterministic.push((
        "campaign.quarantine_frac",
        crate::stats::json_opt(values["campaign.quarantine_frac"]),
    ));

    if let Some(dir) = trace_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = dir.join(format!("{}.trace.json", workload.name()));
        std::fs::write(
            &path,
            spans.chrome_json(&[first_round, serve_spans..spans.spans.len()]),
        )
        .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("wrote {}", path.display());
    }
    Ok(report)
}
