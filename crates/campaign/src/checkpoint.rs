//! Checkpoint codec: the full streaming-aggregate state at a die
//! boundary, encoded so that resuming reproduces an uninterrupted run
//! **byte for byte**.
//!
//! # Bit-exact state
//!
//! The aggregate folds dies in index order and a resumed fold continues
//! that one sequence, so the checkpoint must restore every accumulator
//! bit-exactly. The Welford and scatter recurrences are plain `f64`
//! state; every `f64` — including the empty accumulator's `±inf`
//! min/max — travels as the 16-hex-digit form of its IEEE-754 bit
//! pattern. Counts are plain JSON numbers (all far below 2⁵³); the spec
//! fingerprint is a full-width `u64` and travels as a hex string.
//!
//! Older documents carry other state: v1 decimal Welford mean/M2, v2
//! exact-sum limbs. Neither can be turned into the v3 recurrence state
//! without inventing bits, so the loader **rejects** them on the schema
//! tag. The serve recovery ladder treats an unreadable slot as
//! `dropped_corrupt`, and a resubmitted job starts from die 0; a one-time
//! re-run beats resuming from state that can no longer reproduce the
//! uninterrupted byte stream.
//!
//! # Crash-safety
//!
//! Checkpoints are written to real disks by real processes that get
//! `kill -9`ed, so the codec carries two integrity fields beyond the
//! spec fingerprint:
//!
//! - a **FNV-1a content checksum** over the rest of the document, so a
//!   torn or bit-flipped file is *detected* at load instead of silently
//!   resuming from garbage (a truncated JSON line usually fails to parse,
//!   but a checksum also catches truncation that lands on a valid prefix
//!   and any in-place corruption);
//! - a **generation counter**, monotonically increasing per write, so a
//!   dual-slot writer can keep the previous generation as a last-good
//!   fallback and a loader can tell which of two intact slots is newer.
//!
//! Both fields are optional on decode: documents from before this scheme
//! load as generation 0 with no checksum verification.

use crate::aggregate::{
    CampaignAggregate, CornerAggregate, QuarantineRecord, Scatter, Welford, YieldBin,
};
use crate::json::{escape, parse, Json};
use crate::taxonomy::FailureKind;
use crate::CampaignError;

/// Schema tag carried by every checkpoint document.
pub const CHECKPOINT_SCHEMA: &str = "icvbe-campaign-checkpoint-v3";

/// A decoded checkpoint: where the fold stopped and everything it had
/// accumulated by then.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// [`crate::wire::spec_fingerprint`] of the spec that produced this
    /// state. A checkpoint must never resume under a different spec — the
    /// bytes would silently diverge from the uninterrupted run.
    pub fingerprint: u64,
    /// Index of the first die **not yet** folded in.
    pub next_die: usize,
    /// Write generation: increments on every checkpoint write of a job,
    /// so the newer of two intact slots is decidable. 0 for legacy
    /// documents that predate the counter.
    pub generation: u64,
    /// The aggregate state after folding dies `0..next_die`.
    pub aggregate: CampaignAggregate,
}

/// FNV-1a 64-bit hash — the checkpoint content checksum.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

pub(crate) fn bits(x: f64) -> String {
    format!("\"{:016x}\"", x.to_bits())
}

/// Recurrence state as `[count, hex-bits × N]`: Welford's
/// `[count,"mean","m2","min","max"]`, the scatter's
/// `[n,"x̄","ȳ","cxx","cyy","cxy"]`.
fn moments_json<const N: usize>((count, state): (u64, [f64; N])) -> String {
    let items: Vec<String> = state.iter().map(|&x| bits(x)).collect();
    format!("[{count},{}]", items.join(","))
}

fn welford_json(w: &Welford) -> String {
    moments_json(w.raw())
}

fn scatter_json(s: &Scatter) -> String {
    moments_json(s.raw())
}

pub(crate) fn counts_json(xs: &[u64]) -> String {
    let items: Vec<String> = xs.iter().map(u64::to_string).collect();
    format!("[{}]", items.join(","))
}

/// Comma-joined corner objects of a checkpoint document.
fn corners_body(aggregate: &CampaignAggregate) -> String {
    let corners: Vec<String> = aggregate
        .corners
        .iter()
        .map(|c| {
            format!(
                concat!(
                    "{{\"name\":\"{name}\",\"eg_ev\":{eg},\"xti\":{xti},",
                    "\"rms_residual_v\":{rms},\"t_cold_err_k\":{tc},",
                    "\"t_hot_err_k\":{th},\"straight\":{straight},",
                    "\"bins\":{bins},\"failures\":{failures},",
                    "\"recovered\":{recovered},\"robust_recoveries\":{rr},",
                    "\"retries\":{retries},\"outliers_rejected\":{out}}}"
                ),
                name = escape(&c.name),
                eg = welford_json(&c.eg_ev),
                xti = welford_json(&c.xti),
                rms = welford_json(&c.rms_residual_v),
                tc = welford_json(&c.t_cold_err_k),
                th = welford_json(&c.t_hot_err_k),
                straight = scatter_json(&c.straight),
                bins = counts_json(&c.bins),
                failures = counts_json(&c.failures),
                recovered = counts_json(&c.recovered),
                rr = c.robust_recoveries,
                retries = c.retries,
                out = c.outliers_rejected,
            )
        })
        .collect();
    corners.join(",")
}

/// Comma-joined quarantine record objects of a checkpoint document.
fn quarantine_body(aggregate: &CampaignAggregate) -> String {
    let quarantine: Vec<String> = aggregate
        .quarantine
        .iter()
        .map(|q| {
            format!(
                "{{\"die\":{},\"row\":{},\"col\":{},\"corner\":{},\"kind\":\"{}\",\"attempts\":{}}}",
                q.die,
                q.row,
                q.col,
                q.corner,
                q.kind.label(),
                q.attempts
            )
        })
        .collect();
    quarantine.join(",")
}

/// Encodes a checkpoint as one line of JSON. The emitted `checksum`
/// field is the [`fnv1a64`] hash of the document with the checksum field
/// itself removed, so [`checkpoint_from_json`] can verify integrity by
/// excising it and re-hashing.
#[must_use]
pub fn checkpoint_to_json(
    fingerprint: u64,
    next_die: usize,
    generation: u64,
    aggregate: &CampaignAggregate,
) -> String {
    let corners = corners_body(aggregate);
    let quarantine = quarantine_body(aggregate);
    let prefix = format!(
        "{{\"schema\":\"{CHECKPOINT_SCHEMA}\",\"fingerprint\":\"{fingerprint:016x}\",\"generation\":{generation},"
    );
    let suffix = format!(
        concat!(
            "\"next_die\":{next},\"dies\":{dies},\"dies_failed\":{failed},",
            "\"corners\":[{corners}],\"quarantine\":[{quarantine}]}}"
        ),
        next = next_die,
        dies = aggregate.dies,
        failed = aggregate.dies_failed,
        corners = corners,
        quarantine = quarantine,
    );
    // Checksum of the document *without* the checksum field: hash the
    // prefix and suffix exactly as they will appear around it.
    let mut h = fnv1a64(prefix.as_bytes());
    for &b in suffix.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{prefix}\"checksum\":\"{h:016x}\",{suffix}")
}

pub(crate) fn bad(detail: impl Into<String>) -> CampaignError {
    CampaignError::invalid(format!("checkpoint: {}", detail.into()))
}

pub(crate) fn want<'a>(v: &'a Json, key: &str) -> Result<&'a Json, CampaignError> {
    v.get(key)
        .ok_or_else(|| bad(format!("missing field {key:?}")))
}

pub(crate) fn want_u64(v: &Json, key: &str) -> Result<u64, CampaignError> {
    want(v, key)?
        .as_u64()
        .ok_or_else(|| bad(format!("field {key:?} must be a count")))
}

pub(crate) fn want_usize(v: &Json, key: &str) -> Result<usize, CampaignError> {
    usize::try_from(want_u64(v, key)?).map_err(|_| bad(format!("field {key:?} out of range")))
}

pub(crate) fn f64_bits(v: &Json) -> Result<f64, CampaignError> {
    let s = v
        .as_str()
        .ok_or_else(|| bad("expected a hex-bits string"))?;
    if s.len() != 16 {
        return Err(bad("hex-bits string must be 16 digits"));
    }
    let raw = u64::from_str_radix(s, 16).map_err(|_| bad("invalid hex-bits string"))?;
    Ok(f64::from_bits(raw))
}

/// Decodes the [`moments_json`] shape.
fn moments_from<const N: usize>(v: &Json, what: &str) -> Result<(u64, [f64; N]), CampaignError> {
    let a = v
        .as_arr()
        .ok_or_else(|| bad(format!("{what} state must be an array")))?;
    if a.len() != N + 1 {
        return Err(bad(format!("{what} state must have {} elements", N + 1)));
    }
    let count = a[0]
        .as_u64()
        .ok_or_else(|| bad(format!("{what} count must be a count")))?;
    let mut state = [0.0; N];
    for (slot, item) in state.iter_mut().zip(&a[1..]) {
        *slot = f64_bits(item)?;
    }
    Ok((count, state))
}

fn welford_from(v: &Json) -> Result<Welford, CampaignError> {
    let (count, state) = moments_from(v, "welford")?;
    Ok(Welford::from_raw(count, state))
}

fn scatter_from(v: &Json) -> Result<Scatter, CampaignError> {
    let (n, state) = moments_from(v, "scatter")?;
    Ok(Scatter::from_raw(n, state))
}

pub(crate) fn counts_from<const N: usize>(v: &Json, key: &str) -> Result<[u64; N], CampaignError> {
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

/// Decodes a by-kind count array. Accepts either the full
/// [`FailureKind::COUNT`]-wide layout or the legacy
/// [`FailureKind::BASE`]-wide one (documents written before the
/// containment kinds existed), padding the missing tail with zeros.
pub(crate) fn kind_counts_from(
    v: &Json,
    key: &str,
) -> Result<[u64; FailureKind::COUNT], CampaignError> {
    let a = want(v, key)?
        .as_arr()
        .ok_or_else(|| bad(format!("field {key:?} must be an array")))?;
    if a.len() != FailureKind::COUNT && a.len() != FailureKind::BASE {
        return Err(bad(format!(
            "field {key:?} must have {} or {} elements",
            FailureKind::BASE,
            FailureKind::COUNT
        )));
    }
    let mut out = [0u64; FailureKind::COUNT];
    for (slot, item) in out.iter_mut().zip(a) {
        *slot = item
            .as_u64()
            .ok_or_else(|| bad(format!("field {key:?} holds non-counts")))?;
    }
    Ok(out)
}

/// Verifies the document's content checksum, if it carries one. Returns
/// an error on a mismatch (torn/corrupt file); legacy documents without a
/// checksum pass through unverified.
pub(crate) fn verify_checksum(text: &str) -> Result<(), CampaignError> {
    let Some(start) = text.find("\"checksum\":\"") else {
        return Ok(());
    };
    let digits = start + "\"checksum\":\"".len();
    let Some(rest) = text.get(digits..digits + 18) else {
        return Err(bad("checksum field truncated"));
    };
    // `get`, not `split_at`: a corrupt byte can put a multi-byte
    // character across the digit/terminator boundary.
    let (Some(hex), Some("\",")) = (rest.get(..16), rest.get(16..)) else {
        return Err(bad("checksum field malformed"));
    };
    let claimed =
        u64::from_str_radix(hex, 16).map_err(|_| bad("checksum must be a 16-digit hex string"))?;
    // Hash the document with the checksum field excised — the exact
    // byte stream the writer hashed.
    let mut h = fnv1a64(&text.as_bytes()[..start]);
    for &b in &text.as_bytes()[digits + 18..] {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    if h != claimed {
        return Err(bad(format!(
            "checksum mismatch: stored {claimed:016x}, computed {h:016x} (torn or corrupt checkpoint)"
        )));
    }
    Ok(())
}

/// Decodes the `corners` array of a checkpoint document.
fn corners_from(v: &Json) -> Result<Vec<CornerAggregate>, CampaignError> {
    let mut corners = Vec::new();
    for c in want(v, "corners")?
        .as_arr()
        .ok_or_else(|| bad("corners must be an array"))?
    {
        let name = want(c, "name")?
            .as_str()
            .ok_or_else(|| bad("corner name must be a string"))?
            .to_string();
        corners.push(CornerAggregate {
            name,
            eg_ev: welford_from(want(c, "eg_ev")?)?,
            xti: welford_from(want(c, "xti")?)?,
            rms_residual_v: welford_from(want(c, "rms_residual_v")?)?,
            t_cold_err_k: welford_from(want(c, "t_cold_err_k")?)?,
            t_hot_err_k: welford_from(want(c, "t_hot_err_k")?)?,
            straight: scatter_from(want(c, "straight")?)?,
            bins: counts_from::<{ YieldBin::COUNT }>(c, "bins")?,
            failures: kind_counts_from(c, "failures")?,
            recovered: kind_counts_from(c, "recovered")?,
            robust_recoveries: want_u64(c, "robust_recoveries")?,
            retries: want_u64(c, "retries")?,
            outliers_rejected: want_u64(c, "outliers_rejected")?,
        });
    }
    Ok(corners)
}

/// Decodes a failure kind from its label.
pub(crate) fn kind_from(v: &Json) -> Result<FailureKind, CampaignError> {
    let label = v
        .as_str()
        .ok_or_else(|| bad("failure kind must be a string"))?;
    FailureKind::ALL
        .into_iter()
        .find(|k| k.label() == label)
        .ok_or_else(|| bad(format!("unknown failure kind {label:?}")))
}

/// Decodes the `quarantine` array of a checkpoint document.
fn quarantine_from(v: &Json) -> Result<Vec<QuarantineRecord>, CampaignError> {
    let mut quarantine = Vec::new();
    for q in want(v, "quarantine")?
        .as_arr()
        .ok_or_else(|| bad("quarantine must be an array"))?
    {
        let kind = kind_from(want(q, "kind")?)?;
        quarantine.push(QuarantineRecord {
            die: want_usize(q, "die")?,
            row: want_usize(q, "row")?,
            col: want_usize(q, "col")?,
            corner: want_usize(q, "corner")?,
            kind,
            attempts: u32::try_from(want_u64(q, "attempts")?)
                .map_err(|_| bad("attempts out of range"))?,
        });
    }
    Ok(quarantine)
}

/// Decodes a checkpoint document.
///
/// The caller owns the spec binding: compare [`Checkpoint::fingerprint`]
/// against [`crate::wire::spec_fingerprint`] of the spec about to resume
/// before trusting the state.
///
/// # Errors
///
/// [`CampaignError::InvalidSpec`] on malformed JSON, a wrong schema tag
/// (including v1 documents, which are rejected — see the module docs),
/// a content-checksum mismatch, or missing/ill-typed fields.
pub fn checkpoint_from_json(text: &str) -> Result<Checkpoint, CampaignError> {
    verify_checksum(text)?;
    let v = parse(text).map_err(|e| bad(e.to_string()))?;
    if want(&v, "schema")?.as_str() != Some(CHECKPOINT_SCHEMA) {
        return Err(bad(format!("schema tag must be {CHECKPOINT_SCHEMA:?}")));
    }
    let fingerprint = want(&v, "fingerprint")?
        .as_str()
        .and_then(|s| u64::from_str_radix(s, 16).ok())
        .ok_or_else(|| bad("fingerprint must be a hex string"))?;
    let generation = match v.get("generation") {
        Some(g) => g
            .as_u64()
            .ok_or_else(|| bad("generation must be a count"))?,
        None => 0,
    };
    let next_die = want_usize(&v, "next_die")?;
    let corners = corners_from(&v)?;
    let quarantine = quarantine_from(&v)?;

    Ok(Checkpoint {
        fingerprint,
        next_die,
        generation,
        aggregate: CampaignAggregate {
            dies: want_u64(&v, "dies")?,
            dies_failed: want_u64(&v, "dies_failed")?,
            corners,
            quarantine,
        },
    })
}

/// Recomputes the content checksum of a (possibly mutated) checkpoint or
/// partial document, so a mutation reaches the decoder instead of the
/// checksum gate. Documents whose checksum field is itself damaged come
/// back as-is.
#[cfg(test)]
pub(crate) fn rechecksum(text: &str) -> String {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{CampaignSpec, WaferMap};
    use crate::wire::spec_fingerprint;
    use crate::worker::run_campaign;
    use icvbe_numerics::rng::Xoshiro256PlusPlus;

    #[test]
    fn checksum_field_split_inside_a_character_is_an_error() {
        // Fifteen hex digits, then a two-byte character straddling the
        // end of the 16-digit field.
        let text = "{\"checksum\":\"0123456789abcdeé\",\"x\":1}";
        assert!(verify_checksum(text).is_err());
    }

    #[test]
    fn empty_aggregate_round_trips_including_infinities() {
        let spec = CampaignSpec::paper_default(WaferMap::full(2, 2), 5);
        let agg = CampaignAggregate::new(&spec);
        let fp = spec_fingerprint(&spec);
        let text = checkpoint_to_json(fp, 0, 1, &agg);
        let cp = checkpoint_from_json(&text).unwrap();
        assert_eq!(cp.fingerprint, fp);
        assert_eq!(cp.next_die, 0);
        assert_eq!(cp.generation, 1);
        assert_eq!(cp.aggregate, agg);
        // The empty Welford's ±inf min/max survived exactly.
        assert_eq!(cp.aggregate.corners[0].eg_ev.min(), f64::INFINITY);
        assert_eq!(cp.aggregate.corners[0].eg_ev.max(), f64::NEG_INFINITY);
    }

    #[test]
    fn populated_aggregate_round_trips_bit_exactly() {
        let mut spec = CampaignSpec::paper_default(WaferMap::full(3, 3), 77);
        spec.corners.truncate(2);
        let run = run_campaign(&spec, 2).unwrap();
        let fp = spec_fingerprint(&spec);
        let text = checkpoint_to_json(fp, 9, 3, &run.aggregate);
        let cp = checkpoint_from_json(&text).unwrap();
        assert_eq!(cp.aggregate, run.aggregate);
        assert_eq!(cp.next_die, 9);
        assert_eq!(cp.generation, 3);
        // Encoding is deterministic: re-encoding the decoded state is
        // byte-identical.
        assert_eq!(checkpoint_to_json(fp, 9, 3, &cp.aggregate), text);
    }

    #[test]
    fn decode_rejects_corrupt_documents() {
        assert!(checkpoint_from_json("").is_err());
        assert!(checkpoint_from_json("{}").is_err());
        let spec = CampaignSpec::paper_default(WaferMap::full(2, 2), 5);
        let agg = CampaignAggregate::new(&spec);
        let text = checkpoint_to_json(1, 0, 0, &agg);
        assert!(checkpoint_from_json(&text.replace(CHECKPOINT_SCHEMA, "x")).is_err());
        assert!(checkpoint_from_json(&text.replace("\"next_die\":0", "\"next_die\":-1")).is_err());
    }

    #[test]
    fn checksum_catches_truncation_and_bitflips() {
        let spec = CampaignSpec::paper_default(WaferMap::full(2, 2), 5);
        let agg = CampaignAggregate::new(&spec);
        let text = checkpoint_to_json(7, 0, 4, &agg);
        assert!(text.contains("\"checksum\":\""));
        // Every strict prefix must fail to load — either the checksum
        // field itself is damaged or the content hash no longer matches
        // (short prefixes also fail JSON parsing; both are rejections).
        for cut in 1..text.len() {
            assert!(
                checkpoint_from_json(&text[..cut]).is_err(),
                "truncation at byte {cut} of {} loaded",
                text.len()
            );
        }
        // A single flipped content byte past the checksum field fails too.
        let mut flipped = text.clone().into_bytes();
        let at = text.find("\"next_die\"").unwrap() + 2;
        flipped[at] ^= 0x01;
        assert!(checkpoint_from_json(&String::from_utf8(flipped).unwrap()).is_err());
        // A wrong stored checksum is a mismatch even over intact content.
        let start = text.find("\"checksum\":\"").unwrap() + "\"checksum\":\"".len();
        let mut forged = text.clone();
        let old = &text[start..start + 16];
        let new: String = old
            .chars()
            .map(|c| if c == '0' { '1' } else { '0' })
            .collect();
        forged.replace_range(start..start + 16, &new);
        assert!(checkpoint_from_json(&forged).is_err());
    }

    #[test]
    fn documents_without_checksum_or_generation_still_load() {
        let spec = CampaignSpec::paper_default(WaferMap::full(2, 2), 5);
        let agg = CampaignAggregate::new(&spec);
        let fp = spec_fingerprint(&spec);
        let text = checkpoint_to_json(fp, 0, 2, &agg);
        // Strip the integrity fields: a v2 document without them still
        // loads (generation 0, no checksum verification).
        let start = text.find("\"generation\"").unwrap();
        let end = text.find("\"next_die\"").unwrap();
        let stripped = format!("{}{}", &text[..start], &text[end..]);
        let cp = checkpoint_from_json(&stripped).unwrap();
        assert_eq!(cp.generation, 0);
        assert_eq!(cp.fingerprint, fp);
        assert_eq!(cp.aggregate, agg);
    }

    #[test]
    fn older_schema_documents_are_rejected_on_the_schema_tag() {
        // v1 carried decimal Welford mean/M2 state and v2 exact-sum limbs;
        // neither converts to the v3 recurrence state, so the loader must
        // refuse both rather than resume from unconvertible state.
        let spec = CampaignSpec::paper_default(WaferMap::full(2, 2), 5);
        let agg = CampaignAggregate::new(&spec);
        let text = checkpoint_to_json(1, 0, 0, &agg);
        // Excise the checksum (a document of an older version carries its
        // own consistent one) so the schema check itself does the
        // rejecting.
        let start = text.find("\"checksum\"").unwrap();
        let end = text.find("\"next_die\"").unwrap();
        let unsummed = format!("{}{}", &text[..start], &text[end..]);
        assert!(checkpoint_from_json(&unsummed).is_ok());
        for old in [
            "icvbe-campaign-checkpoint-v1",
            "icvbe-campaign-checkpoint-v2",
        ] {
            let doc = unsummed.replace(CHECKPOINT_SCHEMA, old);
            let err = checkpoint_from_json(&doc).unwrap_err();
            assert!(matches!(err, CampaignError::InvalidSpec(_)), "{err:?}");
            assert!(err.to_string().contains("schema tag"), "{err}");
        }
    }

    #[test]
    fn recurrence_state_round_trips_bit_exactly() {
        // Spread exponents, a subnormal and a negative zero: every bit of
        // the f64 state must survive the hex encoding.
        let mut w = Welford::default();
        for x in [1.5e-300, -2.25, 3.0e280, 5.0e-310, 7.75, -0.0] {
            w.absorb(x);
        }
        let back = welford_from(&parse(&welford_json(&w)).unwrap()).unwrap();
        assert_eq!(back.raw().0, w.raw().0);
        assert_eq!(back.raw().1.map(f64::to_bits), w.raw().1.map(f64::to_bits));
    }

    #[test]
    fn constant_cloud_stays_degenerate_through_a_round_trip() {
        let mut s = Scatter::default();
        for _ in 0..37 {
            s.absorb(2.58, 1.13);
        }
        let back = scatter_from(&parse(&scatter_json(&s)).unwrap()).unwrap();
        assert_eq!(back, s);
        for t in [&s, &back] {
            assert_eq!(t.slope(), 0.0);
            assert_eq!(t.correlation(), 0.0);
        }
    }

    /// Decodes `text`; fails the test with `what` if the decoder panics.
    /// Returns the decoded checkpoint, if any.
    fn decode_without_panic(text: &str, what: &str) -> Option<Checkpoint> {
        match std::panic::catch_unwind(|| checkpoint_from_json(text)) {
            Ok(result) => result.ok(),
            Err(_) => panic!("decoder panicked on {what}: {text}"),
        }
    }

    /// Two checkpoints to mutate: an empty aggregate and a populated one
    /// with a quarantine record.
    fn sweep_documents() -> Vec<String> {
        let mut spec = CampaignSpec::paper_default(WaferMap::full(2, 2), 9);
        spec.corners.truncate(2);
        let fp = spec_fingerprint(&spec);
        let mut populated = run_campaign(&spec, 1).unwrap().aggregate;
        populated.quarantine.push(QuarantineRecord {
            die: 3,
            row: 1,
            col: 1,
            corner: 0,
            kind: FailureKind::ALL[1],
            attempts: 2,
        });
        vec![
            checkpoint_to_json(fp, 0, 1, &CampaignAggregate::new(&spec)),
            checkpoint_to_json(fp, 4, 7, &populated),
        ]
    }

    #[test]
    fn decoder_answers_every_mutation_without_panicking() {
        let docs = sweep_documents();
        let mut rng = Xoshiro256PlusPlus::seeded(0x5eed_c4ec_4901);
        let (mut decoded, mut rejected) = (0usize, 0usize);
        let mut tally = |r: Option<Checkpoint>| match r {
            Some(_) => decoded += 1,
            None => rejected += 1,
        };
        for (d, text) in docs.iter().enumerate() {
            assert_eq!(rechecksum(text), *text);
            let original = decode_without_panic(text, "original").unwrap();
            // Truncation at every byte, checksum recomputed.
            for end in 0..text.len() {
                tally(decode_without_panic(
                    &rechecksum(&text[..end]),
                    &format!("prefix {end}"),
                ));
            }
            for _ in 0..256 {
                // A byte flip, checksum recomputed.
                let mut bytes = text.clone().into_bytes();
                let at = rng.below(bytes.len() as u64) as usize;
                let mask = (rng.below(255) + 1) as u8;
                bytes[at] ^= mask;
                let flipped = String::from_utf8_lossy(&bytes).into_owned();
                tally(decode_without_panic(
                    &rechecksum(&flipped),
                    &format!("flip {mask:#04x} at {at}"),
                ));
                // A splice: a prefix of this document, a suffix of either.
                let other = &docs[rng.below(docs.len() as u64) as usize];
                let cut = rng.below(text.len() as u64 + 1) as usize;
                let from = rng.below(other.len() as u64 + 1) as usize;
                let spliced = String::from_utf8_lossy(
                    &[&text.as_bytes()[..cut], &other.as_bytes()[from..]].concat(),
                )
                .into_owned();
                tally(decode_without_panic(
                    &rechecksum(&spliced),
                    &format!("splice {cut}/{from}"),
                ));
            }
            // Duplicate keys: a forged `next_die` up front, and the whole
            // member list repeated inside one object. The first
            // occurrence of a key wins.
            let forged = rechecksum(&format!("{{\"next_die\":99,{}", &text[1..]));
            let got = decode_without_panic(&forged, "duplicate next_die").unwrap();
            assert_eq!(got.next_die, 99, "document {d}");
            let inner = &text[1..text.len() - 1];
            let twice = rechecksum(&format!("{{{inner},{inner}}}"));
            assert_eq!(
                decode_without_panic(&twice, "duplicate members"),
                Some(original),
                "document {d}"
            );
        }
        // Both outcomes occur, so the sweep reaches past the first byte.
        assert!(
            decoded > 0 && rejected > 0,
            "{decoded} decoded, {rejected} rejected"
        );
    }
}
