//! Shard-partial codec: the complete output of one shard's contiguous
//! die-range slice, serialized so a supervisor process can fold N shards
//! back into the exact bytes of a single-process run.
//!
//! A partial carries three layers:
//!
//! - the **die records** — one per folded die, in die order: the die's
//!   index, row and col plus, per corner, what the aggregate folds (bin,
//!   failure kind, attempts, recovery provenance, outliers rejected and
//!   the five aggregated values as `f64` hex bits);
//! - the **observability counters** ([`CampaignCounters`]) — scalar
//!   counts, by-kind arrays and log₂ histograms, all plain integers;
//! - the **slice binding** — spec fingerprint plus the `[start_die,
//!   end_die)` range the shard ran, so the supervisor can verify the
//!   shards tile the wafer with no gap or overlap.
//!
//! # Fold order
//!
//! The supervisor absorbs every shard's records into one
//! [`CampaignAggregate`](crate::aggregate::CampaignAggregate), shard by
//! shard — which is die order, the one order every fold in the program
//! uses — so the aggregate is the single-process aggregate by
//! construction. The decoder checks that the records cover the slice
//! exactly, in ascending order; the counters merge by integer adds.
//!
//! Like the checkpoint, the document carries a FNV-1a content checksum so
//! a torn pipe or truncated capture is detected instead of folded.

use crate::aggregate::YieldBin;
use crate::checkpoint::{
    bad, bits, counts_from, counts_json, f64_bits, fnv1a64, kind_from, verify_checksum, want,
    want_u64, want_usize,
};
use crate::die::{CornerOutcome, CornerValues, DieOutcome, DieTiming};
use crate::json::{parse, Json};
use crate::metrics::{CampaignCounters, LogHistogram, BUCKETS};
use crate::taxonomy::FailureKind;
use crate::CampaignError;
use std::sync::atomic::Ordering;

/// Schema tag carried by every partial document.
pub const PARTIAL_SCHEMA: &str = "icvbe-campaign-partial-v7";

/// One shard's complete output: die records, counters and slice binding.
#[derive(Debug)]
pub struct PartialAggregate {
    /// [`crate::wire::spec_fingerprint`] of the spec the shard ran. The
    /// supervisor must refuse partials from a different spec.
    pub fingerprint: u64,
    /// First die of the shard's slice (inclusive).
    pub start_die: usize,
    /// One past the last die of the shard's slice (exclusive).
    pub end_die: usize,
    /// One record per die of the slice, in die order. Only what the
    /// aggregate folds travels: decoded records carry zero timing, no
    /// spans, and NaN for the absolute temperatures `t_cold_k`/`t_hot_k`.
    pub dies: Vec<DieOutcome>,
    /// The shard's observability counters and histograms.
    pub counters: CampaignCounters,
    /// Peak reorder-buffer size inside the shard (merged by max).
    pub max_reorder_buffer: usize,
}

fn opt_kind_json(kind: Option<FailureKind>) -> String {
    kind.map_or_else(|| "null".to_string(), |k| format!("\"{}\"", k.label()))
}

/// One corner as `[bin, failure, attempts, recovered_from,
/// robust_recovery, outliers_rejected, values]`; `values` is `null` or
/// the hex bits of `[eg_ev, xti, rms_residual_v, t_cold_err_k,
/// t_hot_err_k]`.
fn corner_json(c: &CornerOutcome) -> String {
    let values = c.values.map_or_else(
        || "null".to_string(),
        |v| {
            format!(
                "[{},{},{},{},{}]",
                bits(v.eg_ev),
                bits(v.xti),
                bits(v.rms_residual_v),
                bits(v.t_cold_err_k),
                bits(v.t_hot_err_k)
            )
        },
    );
    format!(
        "[\"{}\",{},{},{},{},{},{values}]",
        c.bin.label(),
        opt_kind_json(c.failure),
        c.attempts,
        opt_kind_json(c.recovered_from),
        c.robust_recovery,
        c.outliers_rejected,
    )
}

fn die_json(d: &DieOutcome) -> String {
    let corners: Vec<String> = d.corners.iter().map(corner_json).collect();
    format!(
        "{{\"die\":{},\"row\":{},\"col\":{},\"corners\":[{}]}}",
        d.index,
        d.row,
        d.col,
        corners.join(",")
    )
}

fn opt_kind_from(v: &Json) -> Result<Option<FailureKind>, CampaignError> {
    match v {
        Json::Null => Ok(None),
        _ => kind_from(v).map(Some),
    }
}

fn u32_from(v: &Json, what: &str) -> Result<u32, CampaignError> {
    v.as_u64()
        .and_then(|n| u32::try_from(n).ok())
        .ok_or_else(|| bad(format!("{what} must be a 32-bit count")))
}

fn corner_from(v: &Json) -> Result<CornerOutcome, CampaignError> {
    let a = v
        .as_arr()
        .filter(|a| a.len() == 7)
        .ok_or_else(|| bad("corner record must be a 7-element array"))?;
    let label = a[0]
        .as_str()
        .ok_or_else(|| bad("yield bin must be a string"))?;
    let bin = *YieldBin::ALL
        .iter()
        .find(|b| b.label() == label)
        .ok_or_else(|| bad(format!("unknown yield bin {label:?}")))?;
    let values = match &a[6] {
        Json::Null => None,
        v => {
            let x = v
                .as_arr()
                .filter(|x| x.len() == 5)
                .ok_or_else(|| bad("corner values must be null or 5 hex-bits strings"))?;
            Some(CornerValues {
                eg_ev: f64_bits(&x[0])?,
                xti: f64_bits(&x[1])?,
                rms_residual_v: f64_bits(&x[2])?,
                t_cold_k: f64::NAN,
                t_hot_k: f64::NAN,
                t_cold_err_k: f64_bits(&x[3])?,
                t_hot_err_k: f64_bits(&x[4])?,
            })
        }
    };
    Ok(CornerOutcome {
        bin,
        values,
        failure: opt_kind_from(&a[1])?,
        attempts: u32_from(&a[2], "attempts")?,
        recovered_from: opt_kind_from(&a[3])?,
        robust_recovery: a[4]
            .as_bool()
            .ok_or_else(|| bad("robust_recovery must be a boolean"))?,
        outliers_rejected: u32_from(&a[5], "outliers_rejected")?,
    })
}

fn die_from(v: &Json) -> Result<DieOutcome, CampaignError> {
    let corners = want(v, "corners")?
        .as_arr()
        .ok_or_else(|| bad("die corners must be an array"))?
        .iter()
        .map(corner_from)
        .collect::<Result<_, _>>()?;
    Ok(DieOutcome {
        index: want_usize(v, "die")?,
        row: want_usize(v, "row")?,
        col: want_usize(v, "col")?,
        corners,
        timing: DieTiming::default(),
        spans: Vec::new(),
    })
}

/// Sparse histogram encoding: nonzero buckets as `[index,count]` pairs
/// plus the running total. All counts are far below 2⁵³, so they travel
/// as plain JSON numbers.
fn hist_json(h: &LogHistogram) -> String {
    let (buckets, total_ns) = h.raw();
    let items: Vec<String> = buckets
        .iter()
        .enumerate()
        .filter(|(_, &n)| n > 0)
        .map(|(i, n)| format!("[{i},{n}]"))
        .collect();
    format!(
        "{{\"buckets\":[{}],\"total_ns\":{total_ns}}}",
        items.join(",")
    )
}

fn hist_from(v: &Json, into: &LogHistogram) -> Result<(), CampaignError> {
    let mut buckets = [0u64; BUCKETS];
    for item in want(v, "buckets")?
        .as_arr()
        .ok_or_else(|| bad("histogram buckets must be an array"))?
    {
        let pair = item
            .as_arr()
            .ok_or_else(|| bad("histogram bucket must be an [index, count] pair"))?;
        if pair.len() != 2 {
            return Err(bad("histogram bucket must be an [index, count] pair"));
        }
        let idx = pair[0]
            .as_u64()
            .and_then(|n| usize::try_from(n).ok())
            .filter(|&i| i < BUCKETS)
            .ok_or_else(|| bad("histogram bucket index out of range"))?;
        let n = pair[1]
            .as_u64()
            .ok_or_else(|| bad("histogram bucket count must be a count"))?;
        if buckets[idx] != 0 {
            return Err(bad("duplicate histogram bucket index"));
        }
        buckets[idx] = n;
    }
    into.absorb_raw(&buckets, want_u64(v, "total_ns")?);
    Ok(())
}

fn counters_json(c: &CampaignCounters) -> String {
    let scalars: Vec<String> = c
        .scalars()
        .iter()
        .map(|(name, v)| format!("\"{name}\":{}", v.load(Ordering::Relaxed)))
        .collect();
    let stages: Vec<String> = c.stages.iter().map(hist_json).collect();
    let by_kind: Vec<u64> = c
        .recovered_by_kind
        .iter()
        .map(|v| v.load(Ordering::Relaxed))
        .collect();
    format!(
        concat!(
            "{{{scalars},\"recovered_by_kind\":{by_kind},",
            "\"stages\":[{stages}],",
            "\"newton_per_die\":{npd},\"selfheat_per_die\":{spd}}}"
        ),
        scalars = scalars.join(","),
        by_kind = counts_json(&by_kind),
        stages = stages.join(","),
        npd = hist_json(&c.newton_per_die),
        spd = hist_json(&c.selfheat_per_die),
    )
}

fn counters_from(v: &Json) -> Result<CampaignCounters, CampaignError> {
    let c = CampaignCounters::default();
    for (name, slot) in c.scalars() {
        slot.store(want_u64(v, name)?, Ordering::Relaxed);
    }
    let by_kind = counts_from::<{ FailureKind::COUNT }>(v, "recovered_by_kind")?;
    for (slot, n) in c.recovered_by_kind.iter().zip(by_kind) {
        slot.store(n, Ordering::Relaxed);
    }
    let stages = want(v, "stages")?
        .as_arr()
        .ok_or_else(|| bad("stages must be an array"))?;
    if stages.len() != c.stages.len() {
        return Err(bad("stages must have one histogram per pipeline stage"));
    }
    for (h, s) in c.stages.iter().zip(stages) {
        hist_from(s, h)?;
    }
    hist_from(want(v, "newton_per_die")?, &c.newton_per_die)?;
    hist_from(want(v, "selfheat_per_die")?, &c.selfheat_per_die)?;
    Ok(c)
}

/// Encodes a partial as one line of JSON with an embedded FNV-1a
/// content checksum (same excision scheme as the checkpoint).
#[must_use]
pub fn partial_to_json(p: &PartialAggregate) -> String {
    let prefix = format!(
        "{{\"schema\":\"{PARTIAL_SCHEMA}\",\"fingerprint\":\"{:016x}\",",
        p.fingerprint
    );
    let dies: Vec<String> = p.dies.iter().map(die_json).collect();
    let suffix = format!(
        concat!(
            "\"start_die\":{start},\"end_die\":{end},",
            "\"max_reorder_buffer\":{buf},",
            "\"dies\":[{dies}],",
            "\"counters\":{counters}}}"
        ),
        start = p.start_die,
        end = p.end_die,
        buf = p.max_reorder_buffer,
        dies = dies.join(","),
        counters = counters_json(&p.counters),
    );
    let mut h = fnv1a64(prefix.as_bytes());
    for &b in suffix.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{prefix}\"checksum\":\"{h:016x}\",{suffix}")
}

/// Decodes a partial document.
///
/// # Errors
///
/// [`CampaignError::InvalidSpec`] on malformed JSON, a wrong schema tag,
/// a content-checksum mismatch, missing/ill-typed fields, or die records
/// that do not cover `start_die..end_die` exactly, in order.
pub fn partial_from_json(text: &str) -> Result<PartialAggregate, CampaignError> {
    verify_checksum(text)?;
    let v = parse(text).map_err(|e| bad(e.to_string()))?;
    if want(&v, "schema")?.as_str() != Some(PARTIAL_SCHEMA) {
        return Err(bad(format!("schema tag must be {PARTIAL_SCHEMA:?}")));
    }
    let fingerprint = want(&v, "fingerprint")?
        .as_str()
        .and_then(|s| u64::from_str_radix(s, 16).ok())
        .ok_or_else(|| bad("fingerprint must be a hex string"))?;
    let start_die = want_usize(&v, "start_die")?;
    let end_die = want_usize(&v, "end_die")?;
    if end_die < start_die {
        return Err(bad("end_die must be >= start_die"));
    }
    let dies: Vec<DieOutcome> = want(&v, "dies")?
        .as_arr()
        .ok_or_else(|| bad("dies must be an array"))?
        .iter()
        .map(die_from)
        .collect::<Result<_, _>>()?;
    if dies.len() != end_die - start_die || dies.iter().zip(start_die..).any(|(d, i)| d.index != i)
    {
        return Err(bad(format!(
            "die records do not cover the slice [{start_die}, {end_die}) in order"
        )));
    }
    Ok(PartialAggregate {
        fingerprint,
        start_die,
        end_die,
        dies,
        counters: counters_from(want(&v, "counters")?)?,
        max_reorder_buffer: want_usize(&v, "max_reorder_buffer")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::CampaignAggregate;
    use crate::checkpoint::rechecksum;
    use crate::spec::{CampaignSpec, WaferMap};
    use crate::wire::spec_fingerprint;
    use crate::worker::{run_campaign, run_campaign_streaming, StreamOptions};
    use icvbe_instrument::faults::FaultSpec;
    use icvbe_numerics::rng::Xoshiro256PlusPlus;
    use std::ops::ControlFlow;

    /// The partial a shard worker would emit for `start..end` of `spec`.
    fn shard_partial(spec: &CampaignSpec, start: usize, end: usize) -> PartialAggregate {
        let counters = CampaignCounters::default();
        let mut dies = Vec::new();
        let options = StreamOptions {
            start_die: start,
            end_die: Some(end),
            ..StreamOptions::default()
        };
        let run = run_campaign_streaming(spec, 1, &options, |d, _| {
            dies.push(d.clone());
            ControlFlow::Continue(())
        })
        .unwrap();
        counters
            .completed
            .store(run.aggregate.dies, Ordering::Relaxed);
        counters.stages[0].record_ns(1234);
        counters.newton_per_die.record_ns(17);
        PartialAggregate {
            fingerprint: spec_fingerprint(spec),
            start_die: start,
            end_die: end,
            dies,
            counters,
            max_reorder_buffer: 2,
        }
    }

    fn fold(spec: &CampaignSpec, parts: &[&PartialAggregate]) -> CampaignAggregate {
        let mut aggregate = CampaignAggregate::new(spec);
        for die in parts.iter().flat_map(|p| &p.dies) {
            aggregate.absorb(die);
        }
        aggregate
    }

    /// A faulted single-corner spec whose 2×2 wafer quarantines two
    /// corners and robust-recovers one with a NaN temperature error.
    fn faulted_spec() -> CampaignSpec {
        let mut spec = CampaignSpec::paper_default(WaferMap::full(2, 2), 6);
        spec.corners.truncate(1);
        spec.faults = FaultSpec::heavy();
        spec
    }

    #[test]
    fn partial_round_trips_and_folds_to_the_single_process_aggregate() {
        let mut spec = CampaignSpec::paper_default(WaferMap::full(3, 3), 41);
        spec.corners.truncate(2);
        let left = shard_partial(&spec, 0, 5);
        let right = shard_partial(&spec, 5, 9);
        let decoded: Vec<PartialAggregate> = [&left, &right]
            .iter()
            .map(|p| {
                let text = partial_to_json(p);
                let back = partial_from_json(&text).unwrap();
                // Counters, histograms and records survive exactly.
                assert_eq!(partial_to_json(&back), text);
                back
            })
            .collect();
        assert_eq!(decoded[0].fingerprint, left.fingerprint);
        assert_eq!((decoded[1].start_die, decoded[1].end_die), (5, 9));
        assert_eq!(decoded[1].max_reorder_buffer, 2);
        let whole = run_campaign(&spec, 1).unwrap().aggregate;
        assert_eq!(fold(&spec, &[&decoded[0], &decoded[1]]), whole);
    }

    #[test]
    fn decode_rejects_corrupt_and_mismatched_documents() {
        assert!(partial_from_json("").is_err());
        assert!(partial_from_json("{}").is_err());
        let mut spec = CampaignSpec::paper_default(WaferMap::full(2, 2), 9);
        spec.corners.truncate(1);
        let text = partial_to_json(&shard_partial(&spec, 0, 4));
        assert!(partial_from_json(&text.replace(PARTIAL_SCHEMA, "x")).is_err());
        // A document of the previous schema version is refused.
        let v6 = rechecksum(&text.replace(PARTIAL_SCHEMA, "icvbe-campaign-partial-v6"));
        assert!(partial_from_json(&v6).is_err());
        // A flipped content byte trips the checksum.
        let mut flipped = text.clone().into_bytes();
        let at = text.find("\"start_die\"").unwrap() + 2;
        flipped[at] ^= 0x01;
        assert!(partial_from_json(&String::from_utf8(flipped).unwrap()).is_err());
    }

    #[test]
    fn records_must_cover_the_slice_in_order() {
        let mut spec = CampaignSpec::paper_default(WaferMap::full(2, 2), 9);
        spec.corners.truncate(1);
        let p = shard_partial(&spec, 1, 3);
        let text = partial_to_json(&p);
        assert!(partial_from_json(&text).is_ok());
        for (from, to) in [
            ("\"end_die\":3", "\"end_die\":4"),
            ("\"start_die\":1", "\"start_die\":0"),
            ("\"die\":2,", "\"die\":1,"),
        ] {
            let forged = rechecksum(&text.replacen(from, to, 1));
            let err = partial_from_json(&forged).unwrap_err();
            assert!(err.to_string().contains("cover the slice"), "{from}: {err}");
        }
    }

    /// A random `f64` of every class: normal, subnormal, ±0, ±inf, NaN.
    fn any_f64(rng: &mut Xoshiro256PlusPlus) -> f64 {
        match rng.below(8) {
            0 => f64::NAN,
            1 => f64::INFINITY * if rng.below(2) == 0 { 1.0 } else { -1.0 },
            2 => -0.0,
            3 => f64::from_bits(rng.below(1 << 52)),
            _ => f64::from_bits(rng.next_u64()).clamp(-1e300, 1e300),
        }
    }

    fn any_kind(rng: &mut Xoshiro256PlusPlus) -> Option<FailureKind> {
        let i = rng.below(FailureKind::COUNT as u64 + 1) as usize;
        FailureKind::ALL.get(i).copied()
    }

    /// A generated partial: `dies` records of `corners` corners each,
    /// cycling every bin through the corner slots, with random failure
    /// kinds, counts and value bit patterns.
    fn generated(rng: &mut Xoshiro256PlusPlus, dies: usize, corners: usize) -> PartialAggregate {
        let start = rng.below(1000) as usize;
        let records = (0..dies)
            .map(|i| DieOutcome {
                index: start + i,
                row: rng.below(64) as usize,
                col: rng.below(64) as usize,
                corners: (0..corners)
                    .map(|k| {
                        let bin = YieldBin::ALL[(i * corners + k) % YieldBin::COUNT];
                        let values = (rng.below(4) != 0).then(|| CornerValues {
                            eg_ev: any_f64(rng),
                            xti: any_f64(rng),
                            rms_residual_v: any_f64(rng),
                            t_cold_k: f64::NAN,
                            t_hot_k: f64::NAN,
                            t_cold_err_k: any_f64(rng),
                            t_hot_err_k: any_f64(rng),
                        });
                        CornerOutcome {
                            bin,
                            values,
                            failure: any_kind(rng),
                            attempts: rng.next_u64() as u32,
                            recovered_from: any_kind(rng),
                            robust_recovery: rng.below(2) == 0,
                            outliers_rejected: rng.next_u64() as u32,
                        }
                    })
                    .collect(),
                timing: DieTiming::default(),
                spans: Vec::new(),
            })
            .collect();
        let counters = CampaignCounters::default();
        for (_, slot) in counters.scalars() {
            slot.store(rng.below(1 << 53), Ordering::Relaxed);
        }
        for slot in &counters.recovered_by_kind {
            slot.store(rng.below(1 << 40), Ordering::Relaxed);
        }
        for h in counters.stages.iter().chain([&counters.newton_per_die]) {
            for _ in 0..rng.below(4) {
                h.record_ns(rng.below(1 << 40));
            }
        }
        PartialAggregate {
            fingerprint: rng.next_u64(),
            start_die: start,
            end_die: start + dies,
            dies: records,
            counters,
            max_reorder_buffer: rng.below(1 << 20) as usize,
        }
    }

    #[test]
    fn generated_partials_round_trip_byte_identically() {
        let mut rng = Xoshiro256PlusPlus::seeded(0x9e4e_7a7e_d0c5);
        let mut bins = [false; YieldBin::COUNT];
        let mut kinds = [false; FailureKind::COUNT];
        for case in 0..200 {
            // Empty slices and single-corner slices included.
            let p = generated(&mut rng, case % 6, 1 + case % 3);
            for c in p.dies.iter().flat_map(|d| &d.corners) {
                bins[c.bin.index()] = true;
                if let Some(k) = c.failure {
                    kinds[k.index()] = true;
                }
            }
            let text = partial_to_json(&p);
            let back = partial_from_json(&text).unwrap_or_else(|e| panic!("case {case}: {e}"));
            assert_eq!(partial_to_json(&back), text, "case {case}");
        }
        assert!(bins.iter().all(|&b| b), "every bin generated");
        assert!(kinds.iter().all(|&k| k), "every failure kind generated");
    }

    #[test]
    fn slices_ending_mid_quarantine_fold_like_one_run() {
        // Cut the faulted wafer at every die boundary: wherever the cut
        // falls, quarantined corners on either side of it — and NaN
        // temperature errors from robust recoveries — cross the codec and
        // fold to the one-shot aggregate.
        let spec = faulted_spec();
        let whole = run_campaign(&spec, 1).unwrap().aggregate;
        assert_eq!(whole.quarantine.len(), 2);
        let c = &whole.corners[0];
        assert_eq!(c.robust_recoveries, 1);
        assert!(
            c.t_cold_err_k.count() < c.eg_ev.count() || c.t_hot_err_k.count() < c.eg_ev.count()
        );
        let dies = spec.wafer.die_count();
        for cut in 0..=dies {
            let parts: Vec<PartialAggregate> = [(0, cut), (cut, dies)]
                .iter()
                .map(|&(a, b)| partial_from_json(&partial_to_json(&shard_partial(&spec, a, b))))
                .collect::<Result<_, _>>()
                .unwrap();
            assert_eq!(fold(&spec, &[&parts[0], &parts[1]]), whole, "cut at {cut}");
        }
    }

    /// Decodes `text`, failing the test with `what` if the decoder panics.
    fn decode_without_panic(text: &str, what: &str) {
        let result = std::panic::catch_unwind(|| partial_from_json(text).map(|_| ()));
        assert!(result.is_ok(), "decoder panicked on {what}: {text}");
    }

    #[test]
    fn decoder_answers_truncations_and_byte_flips_without_panicking() {
        let spec = faulted_spec();
        let p = shard_partial(&spec, 0, 4);
        assert!(p.dies.iter().any(|d| d.corners[0].failure.is_some()));
        let text = partial_to_json(&p);
        assert_eq!(rechecksum(&text), text);
        assert!(partial_from_json(&text).is_ok());
        for end in 0..text.len() {
            decode_without_panic(&rechecksum(&text[..end]), &format!("prefix {end}"));
        }
        let mut rng = Xoshiro256PlusPlus::seeded(0x5eed_0f11_b175);
        for _ in 0..256 {
            let mut bytes = text.clone().into_bytes();
            let at = (rng.next_u64() % bytes.len() as u64) as usize;
            let mask = (rng.next_u64() % 255 + 1) as u8;
            bytes[at] ^= mask;
            let flipped = String::from_utf8_lossy(&bytes).into_owned();
            decode_without_panic(&rechecksum(&flipped), &format!("flip {mask:#04x} at {at}"));
        }
    }
}
