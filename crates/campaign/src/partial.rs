//! Partial-aggregate codec: the complete result of one shard's
//! contiguous die-range slice, serialized so a supervisor process can
//! fold N shards back into the exact bytes of a single-process run.
//!
//! A partial carries three layers:
//!
//! - the **deterministic fold state** ([`CampaignAggregate`]) — exact
//!   superaccumulators, yield bins, taxonomy arrays and quarantine
//!   records, encoded with the same helpers as the checkpoint codec;
//! - the **observability counters** ([`CampaignCounters`]) — scalar
//!   counts, by-kind arrays and log₂ histograms, all plain integers;
//! - the **slice binding** — spec fingerprint plus the `[start_die,
//!   end_die)` range the shard folded, so the supervisor can verify the
//!   shards tile the wafer with no gap or overlap before merging.
//!
//! # Association order
//!
//! [`PartialAggregate::merge`] requires `self.end_die == other.start_die`
//! (checked): partials merge **left to right in ascending die order**,
//! exactly the order the single-process fold visits dies. The moment
//! accumulators are exact (integer limb addition), so they are
//! order-insensitive; the ordering contract exists for the quarantine
//! record list, which is concatenated and must come out die-sorted.
//!
//! Like the checkpoint, the document carries a FNV-1a content checksum so
//! a torn pipe or truncated capture is detected instead of merged.

use crate::aggregate::CampaignAggregate;
use crate::checkpoint::{
    bad, corners_body, corners_from, fnv1a64, quarantine_body, quarantine_from, verify_checksum,
    want, want_u64, want_usize,
};
use crate::json::{parse, Json};
use crate::metrics::{CampaignCounters, LogHistogram, BUCKETS};
use crate::taxonomy::FailureKind;
use crate::CampaignError;
use std::sync::atomic::Ordering;

/// Schema tag carried by every partial-aggregate document.
pub const PARTIAL_SCHEMA: &str = "icvbe-campaign-partial-v3";

/// One shard's complete output: fold state, counters and slice binding.
#[derive(Debug)]
pub struct PartialAggregate {
    /// [`crate::wire::spec_fingerprint`] of the spec the shard ran. The
    /// supervisor must refuse to merge partials from different specs.
    pub fingerprint: u64,
    /// First die of the shard's slice (inclusive).
    pub start_die: usize,
    /// One past the last die of the shard's slice (exclusive).
    pub end_die: usize,
    /// The deterministic fold state over `start_die..end_die`.
    pub aggregate: CampaignAggregate,
    /// The shard's observability counters and histograms.
    pub counters: CampaignCounters,
    /// Peak reorder-buffer size inside the shard (merged by max).
    pub max_reorder_buffer: usize,
}

impl PartialAggregate {
    /// Folds `other` into `self` left to right.
    ///
    /// # Errors
    ///
    /// [`CampaignError::InvalidSpec`] when the fingerprints differ or the
    /// slices are not adjacent in ascending order (`self.end_die !=
    /// other.start_die`) — merging out of order or across specs would
    /// silently diverge from the single-process bytes.
    pub fn merge(&mut self, other: PartialAggregate) -> Result<(), CampaignError> {
        if self.fingerprint != other.fingerprint {
            return Err(bad(format!(
                "partial fingerprint mismatch: {:016x} vs {:016x}",
                self.fingerprint, other.fingerprint
            )));
        }
        if self.end_die != other.start_die {
            return Err(bad(format!(
                "partials are not adjacent: [{}, {}) then [{}, {})",
                self.start_die, self.end_die, other.start_die, other.end_die
            )));
        }
        self.aggregate.merge(&other.aggregate);
        self.counters.merge(&other.counters);
        self.max_reorder_buffer = self.max_reorder_buffer.max(other.max_reorder_buffer);
        self.end_die = other.end_die;
        Ok(())
    }
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

fn u64_list_json(xs: &[u64]) -> String {
    let items: Vec<String> = xs.iter().map(u64::to_string).collect();
    format!("[{}]", items.join(","))
}

fn u64_list_from<const N: usize>(v: &Json, key: &str) -> Result<[u64; N], CampaignError> {
    let a = want(v, key)?
        .as_arr()
        .ok_or_else(|| bad(format!("field {key:?} must be an array")))?;
    if a.len() != N {
        return Err(bad(format!("field {key:?} must have {N} elements")));
    }
    let mut out = [0u64; N];
    for (slot, item) in out.iter_mut().zip(a) {
        *slot = item
            .as_u64()
            .ok_or_else(|| bad(format!("field {key:?} holds non-counts")))?;
    }
    Ok(out)
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
        by_kind = u64_list_json(&by_kind),
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
    let by_kind = u64_list_from::<{ FailureKind::COUNT }>(v, "recovered_by_kind")?;
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

/// Encodes a partial aggregate as one line of JSON with an embedded
/// FNV-1a content checksum (same excision scheme as the checkpoint).
#[must_use]
pub fn partial_to_json(p: &PartialAggregate) -> String {
    let prefix = format!(
        "{{\"schema\":\"{PARTIAL_SCHEMA}\",\"fingerprint\":\"{:016x}\",",
        p.fingerprint
    );
    let suffix = format!(
        concat!(
            "\"start_die\":{start},\"end_die\":{end},",
            "\"max_reorder_buffer\":{buf},",
            "\"dies\":{dies},\"dies_failed\":{failed},",
            "\"corners\":[{corners}],\"quarantine\":[{quarantine}],",
            "\"counters\":{counters}}}"
        ),
        start = p.start_die,
        end = p.end_die,
        buf = p.max_reorder_buffer,
        dies = p.aggregate.dies,
        failed = p.aggregate.dies_failed,
        corners = corners_body(&p.aggregate),
        quarantine = quarantine_body(&p.aggregate),
        counters = counters_json(&p.counters),
    );
    let mut h = fnv1a64(prefix.as_bytes());
    for &b in suffix.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{prefix}\"checksum\":\"{h:016x}\",{suffix}")
}

/// Decodes a partial-aggregate document.
///
/// # Errors
///
/// [`CampaignError::InvalidSpec`] on malformed JSON, a wrong schema tag,
/// a content-checksum mismatch, or missing/ill-typed fields.
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
    Ok(PartialAggregate {
        fingerprint,
        start_die,
        end_die,
        aggregate: CampaignAggregate {
            dies: want_u64(&v, "dies")?,
            dies_failed: want_u64(&v, "dies_failed")?,
            corners: corners_from(&v)?,
            quarantine: quarantine_from(&v)?,
        },
        counters: counters_from(want(&v, "counters")?)?,
        max_reorder_buffer: want_usize(&v, "max_reorder_buffer")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::QuarantineRecord;
    use crate::spec::{CampaignSpec, WaferMap};
    use crate::wire::spec_fingerprint;
    use crate::worker::run_campaign;
    use icvbe_numerics::rng::Xoshiro256PlusPlus;

    fn shard_partial(spec: &CampaignSpec, start: usize, end: usize) -> PartialAggregate {
        // Build a partial from a full run (the real shard path slices;
        // the codec doesn't care).
        let run = run_campaign(spec, 1).unwrap();
        let counters = CampaignCounters::default();
        counters
            .completed
            .store(run.aggregate.dies, Ordering::Relaxed);
        counters.stages[0].record_ns(1234);
        counters.newton_per_die.record_ns(17);
        PartialAggregate {
            fingerprint: spec_fingerprint(spec),
            start_die: start,
            end_die: end,
            aggregate: run.aggregate,
            counters,
            max_reorder_buffer: 2,
        }
    }

    #[test]
    fn partial_round_trips_and_re_encodes_byte_identically() {
        let mut spec = CampaignSpec::paper_default(WaferMap::full(3, 3), 41);
        spec.corners.truncate(2);
        let p = shard_partial(&spec, 0, 9);
        let text = partial_to_json(&p);
        let back = partial_from_json(&text).unwrap();
        assert_eq!(back.fingerprint, p.fingerprint);
        assert_eq!((back.start_die, back.end_die), (0, 9));
        assert_eq!(back.aggregate, p.aggregate);
        assert_eq!(back.max_reorder_buffer, 2);
        // The decoded document re-encodes to the same bytes — counters,
        // histograms and aggregate state all survived exactly.
        assert_eq!(partial_to_json(&back), text);
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
        let v2 = text.replace(PARTIAL_SCHEMA, "icvbe-campaign-partial-v2");
        assert!(partial_from_json(&v2).is_err());
        // A flipped content byte trips the checksum.
        let mut flipped = text.clone().into_bytes();
        let at = text.find("\"start_die\"").unwrap() + 2;
        flipped[at] ^= 0x01;
        assert!(partial_from_json(&String::from_utf8(flipped).unwrap()).is_err());
    }

    #[test]
    fn merge_refuses_gaps_overlaps_and_foreign_specs() {
        let mut spec = CampaignSpec::paper_default(WaferMap::full(2, 2), 9);
        spec.corners.truncate(1);
        let mut left = shard_partial(&spec, 0, 2);
        let gap = shard_partial(&spec, 3, 4);
        assert!(left.merge(gap).is_err());
        let overlap = shard_partial(&spec, 1, 4);
        assert!(left.merge(overlap).is_err());
        let mut foreign = shard_partial(&spec, 2, 4);
        foreign.fingerprint ^= 1;
        assert!(left.merge(foreign).is_err());
        let adjacent = shard_partial(&spec, 2, 4);
        left.merge(adjacent).unwrap();
        assert_eq!((left.start_die, left.end_die), (0, 4));
    }

    /// Recomputes the content checksum of a (possibly mutated) document,
    /// so a mutation reaches the decoder instead of the checksum gate.
    /// Documents whose checksum field is itself damaged come back as-is.
    fn rechecksum(text: &str) -> String {
        const FIELD: &str = "\"checksum\":\"";
        let Some(start) = text.find(FIELD) else {
            return text.to_string();
        };
        let digits = start + FIELD.len();
        let Some(tail) = text.get(digits + 16..digits + 18) else {
            return text.to_string();
        };
        if tail != "\"," {
            return text.to_string();
        }
        let mut h = fnv1a64(&text.as_bytes()[..start]);
        for &b in &text.as_bytes()[digits + 18..] {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        format!("{}{h:016x}{}", &text[..digits], &text[digits + 16..])
    }

    /// Decodes `text`, failing the test with `what` if the decoder panics.
    fn decode_without_panic(text: &str, what: &str) {
        let result = std::panic::catch_unwind(|| partial_from_json(text).map(|_| ()));
        assert!(result.is_ok(), "decoder panicked on {what}: {text}");
    }

    #[test]
    fn decoder_answers_truncations_and_byte_flips_without_panicking() {
        let mut spec = CampaignSpec::paper_default(WaferMap::full(2, 2), 9);
        spec.corners.truncate(1);
        let mut p = shard_partial(&spec, 0, 4);
        p.aggregate.quarantine.push(QuarantineRecord {
            die: 3,
            row: 1,
            col: 1,
            corner: 0,
            kind: FailureKind::ALL[0],
            attempts: 2,
        });
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
