//! Seeded never-panic sweep of the `key=value` spec parsers.
//!
//! `FaultSpec::parse` and `ChaosSpec::parse` read `--faults` / `--chaos`
//! straight from the command line. Two properties are checked on
//! generated spec strings (in-tree xoshiro256++, so every run sees the
//! same inputs):
//!
//! 1. every generated spec, written as `key=value` pairs in a seeded order
//!    with seeded whitespace, parses back to exactly that spec;
//! 2. every truncation prefix of those strings, plus seeded byte flips,
//!    splices of two strings and repeated keys, parses to a spec or a
//!    typed error, never a panic — and a repeated key is always an error.

use std::fmt::Debug;
use std::panic::{catch_unwind, AssertUnwindSafe};

use icvbe_instrument::chaos::ChaosSpec;
use icvbe_instrument::faults::FaultSpec;
use icvbe_numerics::rng::Xoshiro256PlusPlus;

/// Specs generated per parser.
const SPECS: usize = 64;
/// Byte flips, splices and repeated-key edits per string.
const MUTATIONS_PER_SPEC: usize = 64;

/// Whitespace the parser must ignore around keys and values.
fn pad(rng: &mut Xoshiro256PlusPlus) -> &'static str {
    [" ", "", "\t", ""][rng.below(4) as usize]
}

/// Writes `pairs` as a `key=value` string: a seeded subset (never empty)
/// in a seeded order, each member padded. Returns the string and the
/// pairs it kept.
fn render(rng: &mut Xoshiro256PlusPlus, mut pairs: Vec<(&str, String)>) -> (String, Vec<String>) {
    for i in (1..pairs.len()).rev() {
        pairs.swap(i, rng.below(i as u64 + 1) as usize);
    }
    pairs.truncate(1 + rng.below(pairs.len() as u64) as usize);
    let text = pairs
        .iter()
        .map(|(k, v)| format!("{}{k}{}={}{v}{}", pad(rng), pad(rng), pad(rng), pad(rng)))
        .collect::<Vec<_>>()
        .join(",");
    let kept = pairs.into_iter().map(|(k, _)| k.to_string()).collect();
    (text, kept)
}

/// A fault spec string and the spec it must parse to.
fn fault_spec(rng: &mut Xoshiro256PlusPlus) -> (String, FaultSpec) {
    let full = FaultSpec {
        noise_probability: rng.unit(),
        noise_sigma_volts: rng.uniform(0.0, 0.1),
        stuck_probability: rng.unit(),
        drop_probability: rng.unit(),
        drift_sigma_volts: rng.uniform(0.0, 0.1),
        nan_probability: rng.unit(),
    };
    let pairs = vec![
        ("noise", full.noise_probability.to_string()),
        ("noise_sigma", full.noise_sigma_volts.to_string()),
        ("stuck", full.stuck_probability.to_string()),
        ("drop", full.drop_probability.to_string()),
        ("drift", full.drift_sigma_volts.to_string()),
        ("nan", full.nan_probability.to_string()),
    ];
    let (text, kept) = render(rng, pairs);
    let has = |k: &str| kept.iter().any(|x| x == k);
    let pick = |k: &str, v: f64| if has(k) { v } else { 0.0 };
    let want = FaultSpec {
        noise_probability: pick("noise", full.noise_probability),
        noise_sigma_volts: pick("noise_sigma", full.noise_sigma_volts),
        stuck_probability: pick("stuck", full.stuck_probability),
        drop_probability: pick("drop", full.drop_probability),
        drift_sigma_volts: pick("drift", full.drift_sigma_volts),
        nan_probability: pick("nan", full.nan_probability),
    };
    (text, want)
}

/// A chaos spec string and the spec it must parse to.
fn chaos_spec(rng: &mut Xoshiro256PlusPlus) -> (String, ChaosSpec) {
    let full = ChaosSpec {
        write_error_probability: rng.unit(),
        short_write_probability: rng.unit(),
        torn_file_probability: rng.unit(),
        stall_probability: rng.unit(),
        stall_millis: rng.below(1 << 20),
        reset_probability: rng.unit(),
        die_panic_probability: rng.unit(),
    };
    let pairs = vec![
        ("write_error", full.write_error_probability.to_string()),
        ("short_write", full.short_write_probability.to_string()),
        ("torn", full.torn_file_probability.to_string()),
        ("stall", full.stall_probability.to_string()),
        ("stall_ms", full.stall_millis.to_string()),
        ("reset", full.reset_probability.to_string()),
        ("die_panic", full.die_panic_probability.to_string()),
    ];
    let (text, kept) = render(rng, pairs);
    let has = |k: &str| kept.iter().any(|x| x == k);
    let pick = |k: &str, v: f64| if has(k) { v } else { 0.0 };
    let want = ChaosSpec {
        write_error_probability: pick("write_error", full.write_error_probability),
        short_write_probability: pick("short_write", full.short_write_probability),
        torn_file_probability: pick("torn", full.torn_file_probability),
        stall_probability: pick("stall", full.stall_probability),
        stall_millis: if has("stall_ms") {
            full.stall_millis
        } else {
            0
        },
        reset_probability: pick("reset", full.reset_probability),
        die_panic_probability: pick("die_panic", full.die_panic_probability),
    };
    (text, want)
}

/// Parses `bytes` (lossily, as the string may no longer be UTF-8) and
/// requires a value or a typed error, reporting the input on a panic.
fn parse_without_panic<T, E: Debug>(
    parse: fn(&str) -> Result<T, E>,
    bytes: &[u8],
    what: &str,
) -> Result<T, E> {
    let text = String::from_utf8_lossy(bytes);
    catch_unwind(AssertUnwindSafe(|| parse(&text)))
        .unwrap_or_else(|_| panic!("{what}: parser panicked on {text:?}"))
}

/// Runs the mutation sweep of one parser over `texts`; returns how many
/// inputs parsed and how many were rejected.
fn mutation_sweep<T, E: Debug>(
    rng: &mut Xoshiro256PlusPlus,
    parse: fn(&str) -> Result<T, E>,
    texts: &[String],
) -> (usize, usize) {
    let (mut parsed, mut rejected) = (0, 0);
    let mut tally = |r: Result<T, E>| match r {
        Ok(_) => parsed += 1,
        Err(_) => rejected += 1,
    };
    for text in texts {
        let bytes = text.as_bytes();
        for cut in 0..bytes.len() {
            tally(parse_without_panic(parse, &bytes[..cut], "truncation"));
        }
        for _ in 0..MUTATIONS_PER_SPEC {
            let mut flipped = bytes.to_vec();
            let at = rng.below(bytes.len() as u64) as usize;
            flipped[at] ^= 1 << rng.below(8);
            tally(parse_without_panic(parse, &flipped, "byte flip"));

            let other = texts[rng.below(texts.len() as u64) as usize].as_bytes();
            let mut spliced = bytes[..rng.below(bytes.len() as u64 + 1) as usize].to_vec();
            spliced.extend_from_slice(&other[rng.below(other.len() as u64 + 1) as usize..]);
            tally(parse_without_panic(parse, &spliced, "splice"));

            // Repeat one member of the string, before or after the rest.
            let members: Vec<&str> = text.split(',').collect();
            let member = members[rng.below(members.len() as u64) as usize];
            let repeated = if rng.below(2) == 0 {
                format!("{text},{member}")
            } else {
                format!("{member},{text}")
            };
            let result = parse_without_panic(parse, repeated.as_bytes(), "repeated key");
            assert!(result.is_err(), "repeated key accepted: {repeated:?}");
            tally(result);
        }
    }
    (parsed, rejected)
}

#[test]
fn generated_specs_round_trip() {
    let mut rng = Xoshiro256PlusPlus::seeded(0x5EED_0011);
    for _ in 0..SPECS {
        let (text, want) = fault_spec(&mut rng);
        assert_eq!(FaultSpec::parse(&text), Ok(want), "{text:?}");
        let (text, want) = chaos_spec(&mut rng);
        assert_eq!(ChaosSpec::parse(&text), Ok(want), "{text:?}");
    }
}

#[test]
fn mutated_specs_parse_or_fail_typed_never_panic() {
    let mut rng = Xoshiro256PlusPlus::seeded(0x5EED_0012);
    let presets = ["none", "light", "heavy"].map(String::from);
    let faults: Vec<String> = (0..SPECS)
        .map(|_| fault_spec(&mut rng).0)
        .chain(presets.clone())
        .collect();
    let chaos: Vec<String> = (0..SPECS)
        .map(|_| chaos_spec(&mut rng).0)
        .chain(presets)
        .collect();
    for (parsed, rejected) in [
        mutation_sweep(&mut rng, FaultSpec::parse, &faults),
        mutation_sweep(&mut rng, ChaosSpec::parse, &chaos),
    ] {
        // Both outcomes occur, so the sweep reaches past the first byte.
        assert!(
            parsed > 0 && rejected > 0,
            "{parsed} parsed, {rejected} rejected"
        );
    }
}
