//! The service workload: an in-process daemon on an ephemeral local
//! port and a closed loop of two tenants, each submitting one lot at a
//! time over a fresh connection (as `repro submit` does) and waiting for
//! `done` before it submits the next.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use icvbe::campaign::run_campaign;
use icvbe::campaign::spec::WaferMap;
use icvbe::campaign::CampaignSpec;
use icvbe::serve::client::Client;
use icvbe::serve::daemon::Daemon;
use icvbe::serve::service::ServiceConfig;

use crate::host;
use crate::report::Report;
use crate::stats::{p25, p50, p75, p90, split_half_spread};
use crate::workloads::{digests, render, Options, Workload, ARTIFACTS, THREADS};

const TENANTS: u64 = 2;

/// Fresh daemons timed for the serve `setup_s`.
const SETUP_DAEMONS: usize = 20;

/// The timed window is sampled in this many sub-windows.
const SUB_WINDOWS: f64 = 20.0;

/// Lots completed when the service's peak RSS is read.
const RSS_LOTS: usize = 40;

/// Checkpoint directories live under the working directory (the
/// benchmark writes nothing outside it) and are removed afterwards.
const SCRATCH_ROOT: &str = ".bench_tmp";

/// A daemon with a checkpoint directory of its own.
pub struct ScratchDaemon {
    daemon: Daemon,
    dir: PathBuf,
    pub addr: String,
}

impl ScratchDaemon {
    pub fn start() -> Result<ScratchDaemon, String> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = Path::new(SCRATCH_ROOT).join(format!(
            "serve-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let config = ServiceConfig {
            threads: THREADS,
            checkpoint_dir: Some(dir.clone()),
            ..ServiceConfig::default()
        };
        let daemon = Daemon::start(config, "127.0.0.1:0").map_err(|e| e.to_string())?;
        let addr = daemon.local_addr().to_string();
        Ok(ScratchDaemon { daemon, dir, addr })
    }

    pub fn daemon(&self) -> &Daemon {
        &self.daemon
    }

    /// Stops the daemon, waits for its threads, removes its checkpoints.
    pub fn stop(self) {
        self.daemon.stop();
        let _ = std::fs::remove_dir_all(&self.dir);
        let _ = std::fs::remove_dir(SCRATCH_ROOT);
    }
}

/// One submitted lot, timed on the client side.
#[derive(Debug, Clone)]
pub struct Job {
    pub index: u64,
    pub tenant: u64,
    pub dies: usize,
    /// Seconds since the loop started.
    pub connect_start: f64,
    pub sent: f64,
    pub first_die: Option<f64>,
    pub done: f64,
    /// Digests of the four deterministic artifacts, or why the lot failed.
    pub result: Result<[u64; 4], String>,
}

impl Job {
    pub fn latency(&self) -> f64 {
        self.done - self.sent
    }
}

/// Connects, submits `spec` with streaming, and waits for the terminal
/// event, counting every streamed die into `folded`. Every failure
/// becomes the job's error, never a panic.
pub fn submit_lot(
    addr: &str,
    tenant: u64,
    index: u64,
    spec: &CampaignSpec,
    t0: Instant,
    folded: &AtomicU64,
) -> Job {
    let now = || t0.elapsed().as_secs_f64();
    let connect_start = now();
    let mut job = Job {
        index,
        tenant,
        dies: spec.wafer.die_count(),
        connect_start,
        sent: connect_start,
        first_die: None,
        done: connect_start,
        result: Err("not submitted".to_string()),
    };
    let mut first_die = None;
    let outcome = Client::connect(addr).and_then(|mut client| {
        job.sent = now();
        client.submit(
            &format!("tenant{tenant}"),
            &format!("lot{index}"),
            spec,
            true,
        )?;
        client.wait_done(|_, _| {
            first_die.get_or_insert_with(now);
            folded.fetch_add(1, Ordering::Relaxed);
        })
    });
    job.done = now();
    job.first_die = first_die;
    job.result = match outcome {
        Ok(artifacts) => {
            let by_name = |name: &str| {
                artifacts
                    .iter()
                    .find(|(n, _)| n == name)
                    .map(|(_, text)| text.clone())
            };
            match ARTIFACTS.map(by_name) {
                [Some(a), Some(b), Some(c), Some(d)] => Ok(digests(&[a, b, c, d])),
                _ => Err("done event lacks a deterministic artifact".to_string()),
            }
        }
        Err(e) => Err(e.to_string()),
    };
    job
}

/// The loop's state at one instant, seconds after it started.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub t: f64,
    /// Dies streamed back to the clients so far.
    pub dies: u64,
    pub cpu_ms: f64,
    /// Lots completed so far.
    pub lots: usize,
    /// Peak RSS of the process so far, MB.
    pub peak_rss_mb: f64,
}

/// Runs the two-tenant closed loop against `addr` from `t0` for `window`
/// seconds; each tenant completes at least `min_jobs` lots. Tenant `t`'s
/// `k`-th lot is job `TENANTS * k + t`. With `sample_every`, the calling
/// thread samples the loop's progress at that period while the tenants
/// run.
pub fn closed_loop(
    addr: &str,
    workload: Workload,
    options: &Options,
    t0: Instant,
    window: f64,
    min_jobs: u64,
    sample_every: Option<f64>,
) -> (Vec<Job>, Vec<Sample>) {
    let jobs = Mutex::new(Vec::new());
    let folded = AtomicU64::new(0);
    let running = AtomicUsize::new(TENANTS as usize);
    let mut samples = Vec::new();
    let sample = |jobs: &Mutex<Vec<Job>>| Sample {
        t: t0.elapsed().as_secs_f64(),
        dies: folded.load(Ordering::Relaxed),
        cpu_ms: host::process_cpu_ms(),
        lots: jobs.lock().expect("no job recorder panics").len(),
        peak_rss_mb: host::peak_rss_mb(),
    };
    std::thread::scope(|scope| {
        for tenant in 0..TENANTS {
            let (jobs, folded, running) = (&jobs, &folded, &running);
            scope.spawn(move || {
                for k in 0.. {
                    if k >= min_jobs && t0.elapsed().as_secs_f64() >= window {
                        break;
                    }
                    let index = TENANTS * k + tenant;
                    let spec = workload.spec(options.seed, index, options.quick);
                    let job = submit_lot(addr, tenant, index, &spec, t0, folded);
                    jobs.lock().expect("no job recorder panics").push(job);
                }
                running.fetch_sub(1, Ordering::SeqCst);
            });
        }
        if let Some(period) = sample_every {
            samples.push(sample(&jobs));
            for k in 1.. {
                let next = Duration::from_secs_f64(period * k as f64);
                std::thread::sleep(next.saturating_sub(t0.elapsed()));
                samples.push(sample(&jobs));
                if running.load(Ordering::SeqCst) == 0 {
                    break;
                }
            }
        }
    });
    let mut jobs = jobs.into_inner().expect("no job recorder panics");
    jobs.sort_by(|a, b| a.done.total_cmp(&b.done));
    (jobs, samples)
}

/// Re-runs every served lot as a one-shot campaign. A mismatch is one
/// guard failure naming the first differing job and artifacts and how
/// many jobs differ in all.
pub fn verify_jobs(jobs: &[Job], workload: Workload, options: &Options, report: &mut Report) {
    let mut differing = Vec::new();
    for job in jobs {
        let Ok(served) = job.result else { continue };
        let spec = workload.spec(options.seed, job.index, options.quick);
        match run_campaign(&spec, THREADS) {
            Ok(run) => {
                let want = digests(&render(&run));
                let names: Vec<&str> = ARTIFACTS
                    .iter()
                    .zip(want.iter().zip(&served))
                    .filter(|(_, (w, s))| w != s)
                    .map(|(name, _)| *name)
                    .collect();
                if !names.is_empty() {
                    differing.push(format!(
                        "job {} (tenant {}): {}",
                        job.index,
                        job.tenant,
                        names.join(", ")
                    ));
                }
            }
            Err(e) => differing.push(format!("job {}: one-shot re-run failed: {e}", job.index)),
        }
    }
    if let Some(first) = differing.first() {
        report.guard_failures.push(format!(
            "{} of {} served lots differ from a one-shot run of their spec; first: {first}",
            differing.len(),
            jobs.len()
        ));
    }
}

/// Daemon start, connect, one-die lot `done`, over fresh daemons.
fn setup_times(options: &Options) -> Result<Vec<f64>, String> {
    let spec = CampaignSpec {
        wafer: WaferMap::full(1, 1),
        ..Workload::Serve.spec(options.seed, u64::MAX, options.quick)
    };
    let mut times = Vec::new();
    for _ in 0..SETUP_DAEMONS {
        let t0 = Instant::now();
        let daemon = ScratchDaemon::start()?;
        let job = submit_lot(&daemon.addr, 0, 0, &spec, t0, &AtomicU64::new(0));
        let elapsed = t0.elapsed().as_secs_f64();
        daemon.stop();
        job.result.map_err(|e| format!("set-up lot failed: {e}"))?;
        times.push(elapsed);
    }
    Ok(times)
}

pub fn run_serve(options: &Options) -> Result<Report, String> {
    let workload = Workload::Serve;
    let mut report = Report::new(workload.name());
    let setup = setup_times(options)?;

    let daemon = ScratchDaemon::start()?;
    // Warm-up lot: lets the daemon's shared caches fill before timing.
    let warm = submit_lot(
        &daemon.addr,
        0,
        u64::MAX,
        &workload.spec(options.seed, u64::MAX, options.quick),
        Instant::now(),
        &AtomicU64::new(0),
    );
    warm.result
        .map_err(|e| format!("warm-up lot failed: {e}"))?;

    let window = options.seconds;
    let (jobs, samples) = closed_loop(
        &daemon.addr,
        workload,
        options,
        Instant::now(),
        window,
        1,
        Some((window / SUB_WINDOWS).max(0.05)),
    );
    daemon.stop();

    let ok: Vec<&Job> = jobs.iter().filter(|j| j.result.is_ok()).collect();
    report.attempted = jobs.len() as u64;
    report.failed = (jobs.len() - ok.len()) as u64;
    for job in jobs.iter().filter(|j| j.result.is_err()) {
        report.warnings.push(format!(
            "job {} failed: {}",
            job.index,
            job.result.as_ref().err().map_or("", String::as_str)
        ));
    }
    if ok.is_empty() {
        return Err("no served lot completed".to_string());
    }
    let latency: Vec<f64> = ok.iter().map(|j| j.latency()).collect();

    // Throughput and CPU per die come from the sub-windows of the timed
    // window, fast quartile first, as the wafer reps do; a lot holds
    // 112 dies, so die events and not whole lots are counted.
    let (mut rate, mut cpu) = (Vec::new(), Vec::new());
    for w in samples.windows(2).filter(|w| w[0].t < window) {
        let dies = (w[1].dies - w[0].dies) as f64;
        rate.push(dies / (w[1].t - w[0].t));
        if dies > 0.0 {
            cpu.push((w[1].cpu_ms - w[0].cpu_ms) / dies);
        }
    }
    if rate.is_empty() || cpu.is_empty() {
        return Err("the window is too short to sample".to_string());
    }
    // Peak RSS once a fixed number of lots is done: the daemon keeps every
    // lot's history, so a faster daemon would otherwise grow more in the
    // same window.
    let last = samples.last().expect("sampling takes a first sample");
    let peak_rss = samples
        .iter()
        .find(|s| s.lots >= RSS_LOTS)
        .unwrap_or(last)
        .peak_rss_mb;

    verify_jobs(&jobs, workload, options, &mut report);

    report.metric("dies_per_s", p75(&rate));
    report.metric("cpu_ms_per_die", p25(&cpu));
    report.metric("job_p25_ms", p25(&latency) * 1e3);
    report.metric("peak_rss_mb", peak_rss);
    report.metric("setup_s", p50(&setup));
    report.spread = vec![
        ("dies_per_s", split_half_spread(&rate, p75)),
        ("cpu_ms_per_die", split_half_spread(&cpu, p25)),
        ("job_p25_ms", split_half_spread(&latency, p25)),
        ("peak_rss_mb", 0.0),
        ("setup_s", split_half_spread(&setup, p50)),
    ];
    report.diagnostics = vec![
        ("lots", jobs.len() as f64),
        ("window_dies_per_s", last.dies as f64 / last.t),
        (
            "window_cpu_ms_per_die",
            (last.cpu_ms - samples[0].cpu_ms) / last.dies as f64,
        ),
        ("job_p50_ms", p50(&latency) * 1e3),
        ("job_p75_ms", p75(&latency) * 1e3),
        ("job_p90_ms", p90(&latency) * 1e3),
        ("final_peak_rss_mb", host::peak_rss_mb()),
    ];
    let dies: usize = ok.iter().map(|j| j.dies).sum();
    report.deterministic = vec![
        ("dies_per_job", (dies / ok.len()).to_string()),
        (
            "failed_frac",
            (report.failed as f64 / report.attempted as f64).to_string(),
        ),
    ];
    Ok(report)
}
