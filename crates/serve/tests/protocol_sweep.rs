//! Seeded never-panic sweeps of the two request decoders that read bytes
//! from another process: the service's `protocol::parse_request` and the
//! shard worker's `shard::parse_shard_request`. Through them run the
//! hand-rolled JSON parser and the spec wire decoder. Two properties are
//! checked on generated requests (in-tree xoshiro256++, so every run sees
//! the same inputs):
//!
//! 1. every valid request decodes to exactly the request it was generated
//!    from — for `submit`, the embedded spec re-encodes to the same
//!    canonical bytes;
//! 2. every truncation prefix of those lines, plus seeded byte flips,
//!    splices of two lines and duplicated keys, decodes to a request or a
//!    typed error, never a panic. A request for a wafer far above the grid
//!    cap joins the inputs: it and its mutants must come back promptly
//!    instead of counting trillions of grid positions. A shard request
//!    for more threads than `MAX_THREADS` joins them too; the decoder
//!    refuses it, so no sweep ever spawns a thread.

use std::panic::{catch_unwind, AssertUnwindSafe};

use icvbe_campaign::die::DieBudget;
use icvbe_campaign::json::escape;
use icvbe_campaign::spec::{BenchProfile, BiasCorner, CampaignSpec, SpecWindow, TemperaturePlan};
use icvbe_campaign::spec::{WaferMap, MAX_RETRY_BUDGET};
use icvbe_campaign::wire::spec_to_json;
use icvbe_campaign::MAX_THREADS;
use icvbe_instrument::faults::FaultSpec;
use icvbe_instrument::montecarlo::VariationSpec;
use icvbe_numerics::rng::Xoshiro256PlusPlus;
use icvbe_serve::protocol::{parse_request, ProtocolError, Request};
use icvbe_serve::shard::{parse_shard_request, shard_request_line, ShardOptions, ShardRequest};

/// Lines generated per verb.
const LINES_PER_VERB: usize = 8;
/// Byte flips, splices and duplicate-key edits per line.
const MUTATIONS_PER_LINE: usize = 256;

/// Characters a generated name draws from: plain ASCII, every character
/// the encoder must escape, and multi-byte UTF-8.
const NAME_CHARS: &[char] = &[
    'a', 'Z', '7', ' ', '_', '-', '"', '\\', '/', '\n', '\t', '\r', '\u{0}', '\u{1f}', '\u{7f}',
    'é', 'µ', '€', '😀',
];

fn name(rng: &mut Xoshiro256PlusPlus) -> String {
    let len = rng.below(9) as usize;
    (0..len)
        .map(|_| NAME_CHARS[rng.below(NAME_CHARS.len() as u64) as usize])
        .collect()
}

fn coin(rng: &mut Xoshiro256PlusPlus) -> bool {
    rng.below(2) == 1
}

/// An integer job id or version the decoder accepts (below 2^53).
fn id(rng: &mut Xoshiro256PlusPlus) -> u64 {
    match rng.below(3) {
        0 => rng.below(10),
        1 => rng.below(1 << 20),
        _ => rng.below(1 << 53),
    }
}

/// Three strictly increasing values drawn from `[lo, hi)`.
fn increasing(rng: &mut Xoshiro256PlusPlus, lo: f64, hi: f64) -> [f64; 3] {
    loop {
        let mut v = [
            rng.uniform(lo, hi),
            rng.uniform(lo, hi),
            rng.uniform(lo, hi),
        ];
        v.sort_by(f64::total_cmp);
        if v[0] < v[1] && v[1] < v[2] {
            return v;
        }
    }
}

/// A random spec that passes `CampaignSpec::validate`. Currents and
/// temperatures are scaled from the paper's defaults.
fn spec(rng: &mut Xoshiro256PlusPlus) -> CampaignSpec {
    let wafer = if coin(rng) {
        WaferMap::circular(1 + rng.below(12) as usize)
    } else {
        WaferMap::full(1 + rng.below(12) as usize, 1 + rng.below(12) as usize)
    };
    let paper = CampaignSpec::paper_default(wafer, 0);
    let bias = paper.corners[0].ic;
    let corners = (0..1 + rng.below(4))
        .map(|_| BiasCorner::new(&name(rng), bias * rng.uniform(0.01, 100.0)))
        .collect();
    let room = paper.plan.reference.to_kelvin();
    let [cold, reference, hot] = increasing(rng, 0.7, 1.4);
    let [eg_min, _, eg_max] = increasing(rng, 0.5, 1.5);
    let [xti_min, _, xti_max] = increasing(rng, -2.0, 8.0);
    let spec = CampaignSpec {
        wafer,
        variation: VariationSpec {
            is_sigma: rng.uniform(0.0, 0.2),
            bias_mismatch_sigma: rng.uniform(0.0, 0.01),
            readout_offset_mean: rng.uniform(-1e-3, 1e-3),
            readout_offset_sigma: rng.uniform(0.0, 1e-3),
            opamp_offset_sigma: rng.uniform(0.0, 1e-3),
            leak_scale_mean: rng.uniform(0.0, 2.0),
            leak_scale_sigma: rng.uniform(0.0, 0.5),
            rth_sigma: rng.uniform(0.0, 0.2),
        },
        corners,
        plan: TemperaturePlan {
            cold: (room * cold).into(),
            reference: (room * reference).into(),
            hot: (room * hot).into(),
        },
        window: SpecWindow {
            eg_min,
            eg_max,
            xti_min,
            xti_max,
        },
        seed: rng.next_u64(),
        bench: if coin(rng) {
            BenchProfile::Paper
        } else {
            BenchProfile::Ideal
        },
        faults: FaultSpec {
            noise_probability: rng.unit(),
            noise_sigma_volts: rng.uniform(0.0, 1e-3),
            stuck_probability: rng.unit(),
            drop_probability: rng.unit(),
            drift_sigma_volts: rng.uniform(0.0, 1e-3),
            nan_probability: rng.unit(),
        },
        retry_budget: rng.below(u64::from(MAX_RETRY_BUDGET) + 1) as u32,
        robust: coin(rng),
        adaptive: coin(rng),
    };
    spec.validate().expect("generator emits valid specs");
    spec
}

/// Joins `members` into one JSON object line in a seeded order.
fn object(rng: &mut Xoshiro256PlusPlus, mut members: Vec<String>) -> String {
    for i in (1..members.len()).rev() {
        members.swap(i, rng.below(i as u64 + 1) as usize);
    }
    format!("{{{}}}", members.join(","))
}

fn string_member(key: &str, value: &str) -> String {
    format!("\"{key}\":\"{}\"", escape(value))
}

/// One valid request line of verb `verb` and the request it must decode
/// to.
fn request(rng: &mut Xoshiro256PlusPlus, verb: usize) -> (String, Request) {
    let cmd = |c: &str| format!("\"cmd\":\"{c}\"");
    match verb {
        0 => {
            let version = id(rng);
            let line = object(rng, vec![cmd("hello"), format!("\"version\":{version}")]);
            (line, Request::Hello { version })
        }
        1 => {
            let spec = spec(rng);
            let mut members = vec![cmd("submit"), format!("\"spec\":{}", spec_to_json(&spec))];
            // Each optional member is either sent or left to its default.
            let tenant = coin(rng).then(|| name(rng));
            let label = coin(rng).then(|| name(rng));
            let stream = coin(rng).then(|| coin(rng));
            if let Some(t) = &tenant {
                members.push(string_member("tenant", t));
            }
            if let Some(l) = &label {
                members.push(string_member("label", l));
            }
            if let Some(s) = stream {
                members.push(format!("\"stream\":{s}"));
            }
            let line = object(rng, members);
            let want = Request::Submit {
                tenant: tenant.unwrap_or_else(|| "default".to_string()),
                label: label.unwrap_or_default(),
                stream: stream.unwrap_or(true),
                spec: Box::new(spec),
            };
            (line, want)
        }
        2 => (object(rng, vec![cmd("status")]), Request::Status),
        3 => {
            // At least one of job and label.
            let (job, label) = match rng.below(3) {
                0 => (Some(id(rng)), None),
                1 => (None, Some(name(rng))),
                _ => (Some(id(rng)), Some(name(rng))),
            };
            let tenant = coin(rng).then(|| name(rng));
            let mut members = vec![cmd("results")];
            if let Some(j) = job {
                members.push(format!("\"job\":{j}"));
            }
            if let Some(l) = &label {
                members.push(string_member("label", l));
            }
            if let Some(t) = &tenant {
                members.push(string_member("tenant", t));
            }
            let line = object(rng, members);
            (line, Request::Results { job, label, tenant })
        }
        4 => {
            let job = id(rng);
            let line = object(rng, vec![cmd("cancel"), format!("\"job\":{job}")]);
            (line, Request::Cancel { job })
        }
        _ => (object(rng, vec![cmd("shutdown")]), Request::Shutdown),
    }
}

/// Decodes `bytes` (lossily, as the line may no longer be UTF-8) with
/// `decode`, which must answer a value or an error of one of the `typed`
/// kinds; reports the input on a panic.
fn decode_without_panic<T>(
    decode: impl Fn(&str) -> Result<T, ProtocolError>,
    typed: &[&str],
    bytes: &[u8],
    what: &str,
) -> Option<T> {
    let line = String::from_utf8_lossy(bytes);
    match catch_unwind(AssertUnwindSafe(|| decode(&line))) {
        Ok(Ok(request)) => Some(request),
        Ok(Err(e)) => {
            assert!(
                typed.contains(&e.kind),
                "{what}: untyped error {e:?} on {line:?}"
            );
            None
        }
        Err(_) => panic!("{what}: decoder panicked on {line:?}"),
    }
}

/// Feeds `lines` and their mutants through `decode`: every truncation
/// prefix, then per line [`MUTATIONS_PER_LINE`] byte flips, splices with
/// another line, a duplicate `cmd` (drawn from `verbs`) up front, and the
/// line's members repeated inside one object, which must decode as the
/// line itself does (the first occurrence of a key wins). Returns the
/// `(decoded, rejected)` tally.
fn sweep<T: PartialEq + std::fmt::Debug>(
    rng: &mut Xoshiro256PlusPlus,
    lines: &[Vec<u8>],
    verbs: &[&str],
    decode: impl Fn(&[u8], &str) -> Option<T>,
) -> (usize, usize) {
    let mut decoded = 0usize;
    let mut rejected = 0usize;
    let mut tally = |r: Option<T>| match r {
        Some(_) => decoded += 1,
        None => rejected += 1,
    };
    for line in lines {
        for cut in 0..line.len() {
            tally(decode(&line[..cut], "truncation"));
        }
        for _ in 0..MUTATIONS_PER_LINE {
            let mut flipped = line.clone();
            let at = rng.below(line.len() as u64) as usize;
            flipped[at] ^= 1 << rng.below(8);
            tally(decode(&flipped, "byte flip"));

            let other = &lines[rng.below(lines.len() as u64) as usize];
            let mut spliced = line[..rng.below(line.len() as u64 + 1) as usize].to_vec();
            spliced.extend_from_slice(&other[rng.below(other.len() as u64 + 1) as usize..]);
            tally(decode(&spliced, "splice"));

            let verb = verbs[rng.below(verbs.len() as u64) as usize];
            let mut dup = format!("{{\"cmd\":\"{verb}\",").into_bytes();
            dup.extend_from_slice(&line[1..]);
            tally(decode(&dup, "duplicate cmd"));
            let inner = &line[1..line.len() - 1];
            let mut twice = b"{".to_vec();
            twice.extend_from_slice(inner);
            twice.push(b',');
            twice.extend_from_slice(inner);
            twice.push(b'}');
            assert_eq!(
                decode(&twice, "duplicate members"),
                decode(line, "original"),
                "the first occurrence of a key wins"
            );
        }
    }
    (decoded, rejected)
}

fn decode_request(bytes: &[u8], what: &str) -> Option<Request> {
    decode_without_panic(parse_request, &["bad_request"], bytes, what)
}

/// A submit line whose wafer (3e6 dies across, 9e12 grid positions) is far
/// above the `MAX_GRID_SITES` cap.
fn huge_wafer_submit() -> String {
    let spec = CampaignSpec::paper_default(WaferMap::circular(3_000_000), 0);
    format!("{{\"cmd\":\"submit\",\"spec\":{}}}", spec_to_json(&spec))
}

fn generated_lines(rng: &mut Xoshiro256PlusPlus) -> Vec<(String, Request)> {
    (0..6)
        .flat_map(|verb| (0..LINES_PER_VERB).map(move |_| verb))
        .map(|verb| request(rng, verb))
        .collect()
}

#[test]
fn generated_requests_of_every_verb_round_trip() {
    let mut rng = Xoshiro256PlusPlus::seeded(0x5EED_0001);
    for (line, want) in generated_lines(&mut rng) {
        let got = parse_request(&line).unwrap_or_else(|e| panic!("{line}: {e:?}"));
        if let (Request::Submit { spec: a, .. }, Request::Submit { spec: b, .. }) = (&got, &want) {
            assert_eq!(spec_to_json(a), spec_to_json(b), "canonical spec bytes");
        }
        assert_eq!(got, want, "{line}");
    }
}

#[test]
fn mutated_requests_decode_or_fail_typed_never_panic() {
    let mut rng = Xoshiro256PlusPlus::seeded(0x5EED_0002);
    let lines: Vec<Vec<u8>> = generated_lines(&mut rng)
        .into_iter()
        .map(|(line, _)| line)
        .chain([huge_wafer_submit()])
        .map(String::into_bytes)
        .collect();
    let verbs = ["hello", "submit", "status", "results", "cancel", "shutdown"];
    let (decoded, rejected) = sweep(&mut rng, &lines, &verbs, decode_request);
    // Both outcomes occur, so the sweep reaches past the first byte.
    assert!(
        decoded > 0 && rejected > 0,
        "{decoded} decoded, {rejected} rejected"
    );
}

/// Shard request lines generated per sweep.
const SHARD_LINES: usize = 16;

/// One valid shard request line and the request it must decode to.
fn shard_request(rng: &mut Xoshiro256PlusPlus) -> (String, ShardRequest) {
    let spec = spec(rng);
    let dies = spec.wafer.die_count() as u64;
    let start_die = rng.below(dies + 1) as usize;
    let end_die = start_die + rng.below(dies - start_die as u64 + 1) as usize;
    let opts = ShardOptions {
        shards: 1 + rng.below(8) as usize,
        threads: 1 + rng.below(MAX_THREADS as u64) as usize,
        budget: DieBudget {
            max_newton_iterations: id(rng),
            max_wall_ms: id(rng),
        },
        worker_exe: None,
    };
    let shard = rng.below(opts.shards as u64) as usize;
    let line = shard_request_line(&spec, shard, (start_die, end_die), &opts);
    let want = ShardRequest {
        shard,
        start_die,
        end_die,
        threads: opts.threads,
        budget: opts.budget,
        spec,
    };
    (line, want)
}

fn decode_shard_request(bytes: &[u8], what: &str) -> Option<ShardRequest> {
    decode_without_panic(
        parse_shard_request,
        &["bad_request", "unsupported_version"],
        bytes,
        what,
    )
}

#[test]
fn generated_shard_requests_round_trip() {
    let mut rng = Xoshiro256PlusPlus::seeded(0x5EED_0003);
    for _ in 0..SHARD_LINES {
        let (line, want) = shard_request(&mut rng);
        let got = parse_shard_request(&line).unwrap_or_else(|e| panic!("{line}: {e:?}"));
        assert_eq!(spec_to_json(&got.spec), spec_to_json(&want.spec));
        assert_eq!(got, want, "{line}");
    }
}

#[test]
fn mutated_shard_requests_decode_or_fail_typed_never_panic() {
    let mut rng = Xoshiro256PlusPlus::seeded(0x5EED_0004);
    let huge = CampaignSpec::paper_default(WaferMap::circular(3_000_000), 0);
    let small = CampaignSpec::paper_default(WaferMap::circular(3), 0);
    let greedy = ShardOptions {
        threads: MAX_THREADS + 1,
        ..ShardOptions::default()
    };
    let lines: Vec<Vec<u8>> = (0..SHARD_LINES)
        .map(|_| shard_request(&mut rng).0)
        .chain([
            shard_request_line(&huge, 0, (0, 1), &ShardOptions::default()),
            shard_request_line(&small, 0, (0, 1), &greedy),
        ])
        .map(String::into_bytes)
        .collect();
    // The cap is enforced at the parser, before any thread is spawned.
    let refused = parse_shard_request(&shard_request_line(&small, 0, (0, 1), &greedy));
    assert!(refused.is_err_and(|e| e.detail.contains("exceeds the cap")));
    let (decoded, rejected) = sweep(
        &mut rng,
        &lines,
        &["shard_run", "submit"],
        decode_shard_request,
    );
    assert!(
        decoded > 0 && rejected > 0,
        "{decoded} decoded, {rejected} rejected"
    );
}
