//! End-to-end tests of the campaign service over real TCP sockets: the
//! version handshake, byte-identical streamed results, exact per-die work
//! accounting, fair round-robin scheduling across tenants, `queue_full`
//! backpressure, prompt shutdown, and a daemon restart that resumes from
//! checkpoint files.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use icvbe_campaign::json::{parse, Json};
use icvbe_campaign::report::{aggregate_csv, aggregate_json, quarantine_csv, quarantine_json};
use icvbe_campaign::spec::{CampaignSpec, WaferMap};
use icvbe_campaign::{run_campaign, CampaignRun};
use icvbe_serve::client::{Client, ClientError};
use icvbe_serve::daemon::Daemon;
use icvbe_serve::service::ServiceConfig;
use icvbe_trace::{SpanKind, SpanPhase};

/// A small single-corner campaign that still folds enough dies for the
/// scheduler to take several slices.
fn spec(rows: usize, seed: u64) -> CampaignSpec {
    let mut spec = CampaignSpec::paper_default(WaferMap::full(rows, rows), seed);
    spec.corners.truncate(1);
    spec
}

/// The four deterministic report artifacts of a one-shot run.
fn golden(spec: &CampaignSpec) -> [(String, String); 4] {
    let run: CampaignRun = run_campaign(spec, 2).expect("one-shot run");
    [
        ("campaign_aggregate.json".to_string(), aggregate_json(&run)),
        ("campaign_aggregate.csv".to_string(), aggregate_csv(&run)),
        (
            "campaign_quarantine.json".to_string(),
            quarantine_json(&run),
        ),
        ("campaign_quarantine.csv".to_string(), quarantine_csv(&run)),
    ]
}

/// Asserts the wire artifacts contain the golden four, byte for byte.
fn assert_matches_golden(artifacts: &[(String, String)], golden: &[(String, String); 4]) {
    for (name, want) in golden {
        let got = artifacts
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, t)| t)
            .unwrap_or_else(|| panic!("artifact {name} missing from the stream"));
        assert_eq!(got, want, "{name} differs from the one-shot run");
    }
}

#[test]
fn hello_with_wrong_version_is_a_typed_rejection() {
    let daemon = Daemon::start(ServiceConfig::default(), "127.0.0.1:0").expect("daemon");
    let addr = daemon.local_addr();

    let mut socket = TcpStream::connect(addr).expect("connect");
    socket
        .write_all(b"{\"cmd\":\"hello\",\"version\":99}\n")
        .expect("send");
    let mut line = String::new();
    BufReader::new(socket.try_clone().expect("clone"))
        .read_line(&mut line)
        .expect("reply");
    assert!(
        line.contains("\"error\":\"unsupported_version\""),
        "reply: {line}"
    );
    assert!(line.contains("\"supported\":1"), "reply: {line}");

    // Opening with anything else is an equally typed rejection.
    let mut socket = TcpStream::connect(addr).expect("connect");
    socket.write_all(b"{\"cmd\":\"status\"}\n").expect("send");
    let mut line = String::new();
    BufReader::new(socket.try_clone().expect("clone"))
        .read_line(&mut line)
        .expect("reply");
    assert!(line.contains("\"error\":\"bad_request\""), "reply: {line}");

    daemon.stop();
}

#[test]
fn streamed_submit_is_byte_identical_to_a_one_shot_run() {
    let spec = spec(3, 0x005E_1177);
    let want = golden(&spec);
    let total = spec.wafer.die_count() as u64;

    let config = ServiceConfig {
        threads: 3,
        slice_dies: 2,
        ..ServiceConfig::default()
    };
    let daemon = Daemon::start(config, "127.0.0.1:0").expect("daemon");
    let addr = daemon.local_addr().to_string();

    let mut client = Client::connect(&addr).expect("connect");
    client.submit("acme", "lot1", &spec, true).expect("submit");
    let mut stream = Vec::new();
    let artifacts = client
        .wait_done(|folded, total| stream.push((folded, total)))
        .expect("job");

    // Per-die events arrive in strict fold order, one per die.
    let expect: Vec<(u64, u64)> = (1..=total).map(|f| (f, total)).collect();
    assert_eq!(stream, expect, "die stream must be in fold order");
    assert_matches_golden(&artifacts, &want);
    // The metrics artifact rides along but is wall-clock, so presence only.
    assert!(artifacts.iter().any(|(n, _)| n == "campaign_metrics.json"));

    daemon.stop();
}

#[test]
fn served_lot_runs_each_die_exactly_once_at_any_slice_and_thread_count() {
    // 25 dies: several 2-die slices, and one full 16-die slice plus a
    // short tail at the default cadence.
    let spec = spec(5, 0x51_1CE5);
    let want = golden(&spec);
    let total = spec.wafer.die_count() as u64;
    for slice_dies in [2usize, 16] {
        for threads in [1usize, 2] {
            let case = format!("slice_dies={slice_dies} threads={threads}");
            let config = ServiceConfig {
                threads,
                slice_dies,
                ..ServiceConfig::default()
            };
            let daemon = Daemon::start(config, "127.0.0.1:0").expect("daemon");
            let mut client = Client::connect(&daemon.local_addr().to_string()).expect("connect");
            client.submit("acme", "lot", &spec, true).expect("submit");
            let artifacts = client.wait_done(|_, _| {}).expect("job");
            assert_matches_golden(&artifacts, &want);

            // A slice computes its own dies and no others: nothing is
            // discarded and recomputed by the next slice.
            let metrics = artifacts
                .iter()
                .find(|(n, _)| n == "campaign_metrics.json")
                .map(|(_, t)| parse(t).expect("metrics JSON"))
                .unwrap_or_else(|| panic!("{case}: no metrics artifact"));
            let count = |key: &str| metrics.get(key).and_then(Json::as_u64);
            assert_eq!(count("dies_started"), Some(total), "{case}");
            assert_eq!(count("dies_completed"), Some(total), "{case}");
            daemon.stop();
        }
    }
}

#[test]
fn stop_and_the_shutdown_verb_both_wake_the_blocked_accept_loop() {
    for via_verb in [false, true] {
        let daemon = Daemon::start(ServiceConfig::default(), "127.0.0.1:0").expect("daemon");
        // One served exchange first, so the accept loop is back in `accept`.
        let mut client = Client::connect(&daemon.local_addr().to_string()).expect("connect");
        client.status().expect("status");
        let started = Instant::now();
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            if via_verb {
                client.shutdown().expect("shutdown");
                daemon.wait();
            } else {
                daemon.stop();
            }
            let _ = tx.send(());
        });
        // Both paths join the accept loop, so returning at all proves it
        // woke; a loop left blocked in `accept` never returns.
        let how = if via_verb {
            "shutdown verb"
        } else {
            "Daemon::stop"
        };
        rx.recv_timeout(Duration::from_secs(10))
            .unwrap_or_else(|_| panic!("{how}: daemon did not stop within 10 s"));
        let took = started.elapsed();
        assert!(
            took < Duration::from_secs(2),
            "{how}: stopping took {took:?}"
        );
    }
}

#[test]
fn round_robin_interleaves_two_tenants_and_shares_the_cache() {
    let spec = spec(3, 0xFA_1AFE1);
    let want = golden(&spec);

    let config = ServiceConfig {
        threads: 2,
        slice_dies: 2,
        paused: true, // queue both jobs before the first slice runs
        trace: true,
        ..ServiceConfig::default()
    };
    let daemon = Daemon::start(config, "127.0.0.1:0").expect("daemon");
    let addr = daemon.local_addr().to_string();

    let mut alice = Client::connect(&addr).expect("connect alice");
    let job_a = alice.submit("alice", "a", &spec, true).expect("submit a");
    let mut bob = Client::connect(&addr).expect("connect bob");
    let job_b = bob.submit("bob", "b", &spec, true).expect("submit b");
    daemon.service().set_paused(false);

    let handle = std::thread::spawn(move || bob.wait_done(|_, _| {}).expect("job b"));
    let artifacts_a = alice.wait_done(|_, _| {}).expect("job a");
    let artifacts_b = handle.join().expect("bob thread");

    // Both tenants produced the identical, golden artifacts — sharing the
    // scheduler and the symbolic cache perturbed nothing.
    assert_matches_golden(&artifacts_a, &want);
    assert_matches_golden(&artifacts_b, &want);

    let stats = daemon.service().stats();
    assert_eq!(stats.completed, 2);
    assert!(
        stats.cache_hits > 0,
        "two identical netlists must share the symbolic cache: {stats:?}"
    );

    // Fairness, from the service trace: each job was *dispatched* (its
    // queue span ended) before the other job *finished* (its job span
    // ended) — a run-to-completion scheduler would order these the other
    // way around for whichever job went second.
    let trace = daemon.service().take_trace().expect("service trace");
    let index = |kind: SpanKind, phase: SpanPhase, job: u64| {
        trace
            .events
            .iter()
            .position(|e| e.kind == kind && e.phase == phase && e.n0 == job)
            .unwrap_or_else(|| panic!("no {kind:?}/{phase:?} event for job {job}"))
    };
    let dispatched_a = index(SpanKind::Queue, SpanPhase::End, job_a);
    let dispatched_b = index(SpanKind::Queue, SpanPhase::End, job_b);
    let finished_a = index(SpanKind::Job, SpanPhase::End, job_a);
    let finished_b = index(SpanKind::Job, SpanPhase::End, job_b);
    assert!(
        dispatched_b < finished_a,
        "job b dispatched at {dispatched_b}, after job a finished at {finished_a}"
    );
    assert!(
        dispatched_a < finished_b,
        "job a dispatched at {dispatched_a}, after job b finished at {finished_b}"
    );

    daemon.stop();
}

#[test]
fn over_full_queue_rejects_with_deterministic_backpressure() {
    let config = ServiceConfig {
        queue_capacity: 1,
        paused: true, // nothing drains, so the rejection is deterministic
        retry_after_ms: 250,
        ..ServiceConfig::default()
    };
    let daemon = Daemon::start(config, "127.0.0.1:0").expect("daemon");
    let addr = daemon.local_addr().to_string();
    let spec = spec(2, 3);

    let mut first = Client::connect(&addr).expect("connect");
    first.submit("t", "fills", &spec, false).expect("fits");

    let mut second = Client::connect(&addr).expect("connect");
    match second.submit("t", "overflows", &spec, false) {
        Err(ClientError::Server {
            kind,
            retry_after_ms,
            ..
        }) => {
            assert_eq!(kind, "queue_full");
            // Base 250 ms × (1 + 1 waiting job): the paused daemon holds
            // the one admitted job in the waiting state deterministically.
            assert_eq!(
                retry_after_ms,
                Some(500),
                "backpressure hint must ride along, scaled by backlog"
            );
        }
        other => panic!("expected queue_full, got {other:?}"),
    }
    assert_eq!(daemon.service().stats().rejected, 1);

    daemon.stop();
}

#[test]
fn restarted_daemon_resumes_checkpointed_jobs_byte_identically() {
    let spec = spec(5, 0x00C0_FFEE);
    let want = golden(&spec);
    let ckdir = std::env::temp_dir().join("icvbe_serve_e2e_restart");
    let _ = std::fs::remove_dir_all(&ckdir);

    let config = ServiceConfig {
        threads: 2,
        slice_dies: 2,
        checkpoint_every: 1,
        checkpoint_dir: Some(ckdir.clone()),
        ..ServiceConfig::default()
    };
    let first = Daemon::start(config.clone(), "127.0.0.1:0").expect("daemon 1");
    let addr = first.local_addr().to_string();

    // Stream in a background thread; it will see the shutdown error.
    let submit_addr = addr.clone();
    let submit_spec = spec.clone();
    let streamer = std::thread::spawn(move || {
        let mut c = Client::connect(&submit_addr).expect("connect");
        c.submit("acme", "lot9", &submit_spec, true)
            .expect("submit");
        c.wait_done(|_, _| {}) // Err(shutdown) expected, Ok if the race is lost
    });

    // Wait until the job has folded a few dies mid-campaign, then stop the
    // daemon — the graceful path of a kill: checkpoint and exit.
    let mut monitor = Client::connect(&addr).expect("monitor");
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        assert!(Instant::now() < deadline, "job never made progress");
        let status = monitor.status().expect("status");
        let folded = status
            .get("jobs")
            .and_then(Json::as_arr)
            .and_then(|jobs| jobs.first())
            .and_then(|j| j.get("folded"))
            .and_then(Json::as_u64)
            .unwrap_or(0);
        if folded >= 2 {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    first.stop();
    let interrupted = streamer.join().expect("streamer thread");
    if interrupted.is_ok() {
        // The job finished before the stop landed; the restart below then
        // has nothing to resume, so don't assert on it.
        let _ = std::fs::remove_dir_all(&ckdir);
        return;
    }

    // A fresh daemon on the same checkpoint directory re-admits the job...
    let second = Daemon::start(config, "127.0.0.1:0").expect("daemon 2");
    assert_eq!(second.service().stats().resumed, 1, "one job must resume");

    // ...and a client re-attaching by label collects artifacts that are
    // byte-identical to the uninterrupted one-shot run.
    let mut watcher = Client::connect(&second.local_addr().to_string()).expect("connect");
    watcher
        .results(None, Some("lot9"), Some("acme"))
        .expect("results");
    let artifacts = watcher.wait_done(|_, _| {}).expect("resumed job");
    assert_matches_golden(&artifacts, &want);

    second.stop();
    let _ = std::fs::remove_dir_all(&ckdir);
}
