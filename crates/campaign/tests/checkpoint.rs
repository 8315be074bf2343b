//! Checkpoint/resume determinism, tested end to end: a campaign killed
//! after K folded dies and resumed from a **persisted** checkpoint (the
//! hex-bit JSON form, not the in-memory aggregate) produces report
//! artifacts byte-identical to an uninterrupted run — at every die
//! boundary K, on a clean and a heavily faulted wafer, at 1/2/8 worker
//! threads, and with the resume leg running at yet another thread count.

use std::ops::ControlFlow;

use icvbe_campaign::aggregate::CampaignAggregate;
use icvbe_campaign::checkpoint::{checkpoint_from_json, checkpoint_to_json};
use icvbe_campaign::report::{aggregate_csv, aggregate_json, quarantine_csv, quarantine_json};
use icvbe_campaign::spec::{CampaignSpec, WaferMap};
use icvbe_campaign::wire::spec_fingerprint;
use icvbe_campaign::{run_campaign, run_campaign_streaming, CampaignRun, StreamOptions};
use icvbe_instrument::faults::FaultSpec;

fn spec() -> CampaignSpec {
    CampaignSpec::paper_default(WaferMap::circular(4), 0xC4EC_4001)
}

/// The four deterministic report artifacts (metrics is wall-clock and
/// excluded by design).
fn artifacts(run: &CampaignRun) -> [String; 4] {
    [
        aggregate_json(run),
        aggregate_csv(run),
        quarantine_json(run),
        quarantine_csv(run),
    ]
}

/// Runs `spec` to die K, persists a checkpoint through the JSON codec,
/// and resumes it to completion with `resume_threads` workers.
fn kill_and_resume(
    spec: &CampaignSpec,
    k: usize,
    kill_threads: usize,
    resume_threads: usize,
) -> CampaignRun {
    let killed = if k == 0 {
        CampaignAggregate::new(spec)
    } else {
        let mut folded = 0usize;
        let run = run_campaign_streaming(spec, kill_threads, &StreamOptions::default(), |_, _| {
            folded += 1;
            if folded == k {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        })
        .expect("partial run");
        assert_eq!(folded, k, "break must stop the fold at exactly K dies");
        run.aggregate
    };

    // Persist and reload — the resume leg sees only what a restarted
    // process would see: the JSON checkpoint blob.
    let blob = checkpoint_to_json(spec_fingerprint(spec), k, 0, &killed);
    let ck = checkpoint_from_json(&blob).expect("reload checkpoint");
    assert_eq!(ck.fingerprint, spec_fingerprint(spec));
    assert_eq!(ck.next_die, k);
    // Every f64 of the fold state came back bit for bit: re-encoding the
    // decoded state reproduces the hex bits.
    assert_eq!(
        checkpoint_to_json(ck.fingerprint, k, 0, &ck.aggregate),
        blob
    );

    run_campaign_streaming(
        spec,
        resume_threads,
        &StreamOptions {
            start_die: ck.next_die,
            resume: Some(ck.aggregate),
            ..StreamOptions::default()
        },
        |_, _| ControlFlow::Continue(()),
    )
    .expect("resumed run")
}

/// Kills `spec` at every die boundary and resumes it, cycling the killed
/// leg through 1, 2 and 8 threads and resuming at 4.
fn assert_resume_at_every_boundary(spec: &CampaignSpec) {
    let golden = artifacts(&run_campaign(spec, 2).expect("one-shot run"));
    let dies = spec.wafer.die_count();
    for k in 0..=dies {
        let threads = [1usize, 2, 8][k % 3];
        let resumed = kill_and_resume(spec, k, threads, 4);
        assert_eq!(
            artifacts(&resumed),
            golden,
            "kill after {k} of {dies} dies at {threads} thread(s)"
        );
    }
}

#[test]
fn resume_at_every_die_boundary_is_byte_identical() {
    assert_resume_at_every_boundary(&spec());
}

#[test]
fn faulted_resume_at_every_die_boundary_is_byte_identical() {
    // Fault injection produces quarantine records and recovery counters;
    // all of it must survive the hex-bit JSON round trip wherever the
    // fold is cut.
    let mut spec = spec();
    spec.faults = FaultSpec::heavy();
    let golden = artifacts(&run_campaign(&spec, 2).expect("one-shot faulted run"));
    assert!(
        golden[2].contains("\"kind\""),
        "heavy faults must quarantine at least one corner: {}",
        golden[2]
    );
    assert_resume_at_every_boundary(&spec);
}

#[test]
fn checkpoint_from_a_foreign_spec_is_detectable() {
    // The fingerprint binds a checkpoint to its spec: resuming under a
    // different spec must be detectable before any die runs.
    let a = spec();
    let mut b = spec();
    b.seed ^= 1;
    let run = run_campaign(&a, 1).expect("run");
    let blob = checkpoint_to_json(spec_fingerprint(&a), 3, 0, &run.aggregate);
    let ck = checkpoint_from_json(&blob).expect("reload");
    assert_eq!(ck.fingerprint, spec_fingerprint(&a));
    assert_ne!(ck.fingerprint, spec_fingerprint(&b));
}
