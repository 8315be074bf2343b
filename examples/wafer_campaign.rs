//! A 1,000-die wafer extraction campaign, run twice — single-threaded
//! and on every available core — to demonstrate the engine's determinism
//! guarantee: the aggregate artifacts are bit-identical, and so is the
//! structured span trace once its wall-clock fields are masked.
//!
//! ```text
//! cargo run --release --example wafer_campaign
//! ```
//!
//! The parallel run captures a trace; the example writes
//! `artifacts/campaign_trace.json` (open it at
//! <https://ui.perfetto.dev>) and `artifacts/campaign_profile.folded`
//! (feed it to any flamegraph tool) and prints the slowest dies ranked
//! from the spans.

use icvbe::campaign::report::aggregate_json;
use icvbe::campaign::spec::WaferMap;
use icvbe::campaign::{run_campaign_with, CampaignSpec, StreamOptions};
use icvbe::repro::campaign_cli::{diameter_for_dies, render};
use icvbe::trace::mask_nondeterministic;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let diameter = diameter_for_dies(1000);
    let wafer = WaferMap::circular(diameter);
    println!(
        "wafer: diameter {diameter} dies, {} dies total\n",
        wafer.die_count()
    );
    let spec = CampaignSpec::paper_default(wafer, 2002);

    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let options = StreamOptions {
        trace: true,
        ..StreamOptions::default()
    };
    let serial = run_campaign_with(&spec, 1, &options)?;
    let parallel = run_campaign_with(&spec, threads, &options)?;

    println!("{}", render(&parallel));

    let a = aggregate_json(&serial);
    let b = aggregate_json(&parallel);
    assert_eq!(a, b, "aggregate reports must be bit-identical");
    println!(
        "determinism: 1-thread and {threads}-thread aggregate JSON identical \
         ({} bytes)",
        a.len()
    );

    // The trace obeys the same contract: after masking timestamps, worker
    // ids and queue-occupancy samples, the span stream — kinds, die and
    // corner stamps, solver strategies, Newton iteration payloads — is
    // byte-identical at any thread count.
    let (st, pt) = match (&serial.trace, &parallel.trace) {
        (Some(s), Some(p)) => (s, p),
        _ => return Err("trace requested but not captured".into()),
    };
    let masked = mask_nondeterministic(&pt.chrome_json());
    assert_eq!(
        mask_nondeterministic(&st.chrome_json()),
        masked,
        "masked span traces must be bit-identical"
    );
    println!(
        "determinism: masked span trace identical too ({} events, {} bytes)",
        pt.events.len(),
        masked.len()
    );

    std::fs::create_dir_all("artifacts")?;
    std::fs::write("artifacts/campaign_trace.json", pt.chrome_json())?;
    std::fs::write("artifacts/campaign_profile.folded", pt.folded())?;
    println!("wrote artifacts/campaign_trace.json (load in https://ui.perfetto.dev)");
    println!("wrote artifacts/campaign_profile.folded (collapsed stacks for flamegraphs)");

    if parallel.metrics.elapsed_ns > 0 && serial.metrics.elapsed_ns > 0 {
        println!(
            "speedup: {:.2}x ({} threads)",
            serial.metrics.elapsed_ns as f64 / parallel.metrics.elapsed_ns as f64,
            threads
        );
    }
    Ok(())
}
