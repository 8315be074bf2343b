//! Wire codec for [`CampaignSpec`]: a canonical JSON form that travels
//! over the service protocol, plus a fingerprint binding checkpoints to
//! the exact spec that produced them.
//!
//! # Canonical form
//!
//! [`spec_to_json`] emits members in a fixed order with `f64`s in Rust's
//! shortest-round-trip `Display` form, so equal specs always serialize to
//! equal bytes — which is what lets [`spec_fingerprint`] be a plain hash
//! of the document. The campaign seed travels as a **string**: it is a
//! full-width `u64`, and JSON numbers (`f64` on this parser) lose exact
//! integers above 2⁵³.
//!
//! # Retired solver switches
//!
//! Specs once carried three solver speed switches: `warm_start`,
//! `bypass` and `sparse`. The solver now seeds every solve at its
//! closed-form point, the device bypass and the sparse LU are deleted,
//! and the switches are gone. The
//! encoder still writes each key as the constant `true`, so every spec
//! keeps the canonical bytes, and therefore the fingerprint, it had
//! before; existing checkpoints still resume. The decoder requires each key and answers
//! `false` with a typed error that names it.

use icvbe_instrument::faults::FaultSpec;
use icvbe_instrument::montecarlo::VariationSpec;
use icvbe_units::{Ampere, Celsius};

use crate::json::{escape, parse, Json};
use crate::spec::{BenchProfile, BiasCorner, CampaignSpec, SpecWindow, TemperaturePlan, WaferMap};
use crate::CampaignError;

/// Schema tag carried by every encoded spec.
pub const SPEC_SCHEMA: &str = "icvbe-campaign-spec-v1";

/// Keys of the retired solver switches, always encoded as `true` (see the
/// module docs).
const RETIRED_SWITCHES: [&str; 3] = ["warm_start", "bypass", "sparse"];

fn num(x: f64) -> String {
    format!("{x}")
}

/// Encodes `spec` into its canonical wire JSON (one line, fixed member
/// order).
#[must_use]
pub fn spec_to_json(spec: &CampaignSpec) -> String {
    let corners: Vec<String> = spec
        .corners
        .iter()
        .map(|c| {
            format!(
                "{{\"name\":\"{}\",\"ic\":{}}}",
                escape(&c.name),
                num(c.ic.value())
            )
        })
        .collect();
    let v = &spec.variation;
    let f = &spec.faults;
    format!(
        concat!(
            "{{\"schema\":\"{schema}\",",
            "\"wafer\":{{\"rows\":{rows},\"cols\":{cols},\"circular\":{circ}}},",
            "\"variation\":{{\"is_sigma\":{isg},\"bias_mismatch_sigma\":{bms},",
            "\"readout_offset_mean\":{rom},\"readout_offset_sigma\":{ros},",
            "\"opamp_offset_sigma\":{oos},\"leak_scale_mean\":{lsm},",
            "\"leak_scale_sigma\":{lss},\"rth_sigma\":{rth}}},",
            "\"corners\":[{corners}],",
            "\"plan\":{{\"cold\":{cold},\"reference\":{refr},\"hot\":{hot}}},",
            "\"window\":{{\"eg_min\":{egl},\"eg_max\":{egh},",
            "\"xti_min\":{xtl},\"xti_max\":{xth}}},",
            "\"seed\":\"{seed}\",\"bench\":\"{bench}\",",
            "\"warm_start\":true,\"bypass\":true,\"sparse\":true,",
            "\"faults\":{{\"noise_probability\":{fnp},\"noise_sigma_volts\":{fns},",
            "\"stuck_probability\":{fsp},\"drop_probability\":{fdp},",
            "\"drift_sigma_volts\":{fds},\"nan_probability\":{fnn}}},",
            "\"retry_budget\":{retries},\"robust\":{robust}{adaptive}}}"
        ),
        schema = SPEC_SCHEMA,
        rows = spec.wafer.rows(),
        cols = spec.wafer.cols(),
        circ = spec.wafer.is_circular(),
        isg = num(v.is_sigma),
        bms = num(v.bias_mismatch_sigma),
        rom = num(v.readout_offset_mean),
        ros = num(v.readout_offset_sigma),
        oos = num(v.opamp_offset_sigma),
        lsm = num(v.leak_scale_mean),
        lss = num(v.leak_scale_sigma),
        rth = num(v.rth_sigma),
        corners = corners.join(","),
        cold = num(spec.plan.cold.value()),
        refr = num(spec.plan.reference.value()),
        hot = num(spec.plan.hot.value()),
        egl = num(spec.window.eg_min),
        egh = num(spec.window.eg_max),
        xtl = num(spec.window.xti_min),
        xth = num(spec.window.xti_max),
        seed = spec.seed,
        bench = match spec.bench {
            BenchProfile::Paper => "paper",
            BenchProfile::Ideal => "ideal",
        },
        fnp = num(f.noise_probability),
        fns = num(f.noise_sigma_volts),
        fsp = num(f.stuck_probability),
        fdp = num(f.drop_probability),
        fds = num(f.drift_sigma_volts),
        fnn = num(f.nan_probability),
        retries = spec.retry_budget,
        robust = spec.robust,
        // Emitted only when enabled so pre-adaptive specs keep their
        // historical canonical bytes — and therefore their fingerprints,
        // which bind existing checkpoints.
        adaptive = if spec.adaptive {
            ",\"adaptive\":true"
        } else {
            ""
        },
    )
}

fn want<'a>(v: &'a Json, key: &str) -> Result<&'a Json, CampaignError> {
    v.get(key)
        .ok_or_else(|| CampaignError::invalid(format!("spec wire: missing field {key:?}")))
}

fn want_f64(v: &Json, key: &str) -> Result<f64, CampaignError> {
    want(v, key)?
        .as_f64()
        .ok_or_else(|| CampaignError::invalid(format!("spec wire: field {key:?} must be a number")))
}

fn want_bool(v: &Json, key: &str) -> Result<bool, CampaignError> {
    want(v, key)?.as_bool().ok_or_else(|| {
        CampaignError::invalid(format!("spec wire: field {key:?} must be a boolean"))
    })
}

fn want_usize(v: &Json, key: &str) -> Result<usize, CampaignError> {
    let n = want(v, key)?.as_u64().ok_or_else(|| {
        CampaignError::invalid(format!("spec wire: field {key:?} must be a small integer"))
    })?;
    usize::try_from(n)
        .map_err(|_| CampaignError::invalid(format!("spec wire: field {key:?} out of range")))
}

/// Decodes and validates a spec from its wire JSON.
///
/// # Errors
///
/// [`CampaignError::InvalidSpec`] on malformed JSON, a wrong or missing
/// schema tag, missing/ill-typed fields, or a spec that fails
/// [`CampaignSpec::validate`].
pub fn spec_from_json(text: &str) -> Result<CampaignSpec, CampaignError> {
    let v = parse(text).map_err(|e| CampaignError::invalid(format!("spec wire: {e}")))?;
    spec_from_value(&v)
}

/// [`spec_from_json`] over an already-parsed document (the service reads
/// specs embedded inside larger request objects).
///
/// # Errors
///
/// Same contract as [`spec_from_json`].
pub fn spec_from_value(v: &Json) -> Result<CampaignSpec, CampaignError> {
    match want(v, "schema")?.as_str() {
        Some(SPEC_SCHEMA) => {}
        Some(other) => {
            return Err(CampaignError::invalid(format!(
                "spec wire: unsupported schema {other:?} (want {SPEC_SCHEMA:?})"
            )))
        }
        None => return Err(CampaignError::invalid("spec wire: schema must be a string")),
    }

    let wafer_v = want(v, "wafer")?;
    let rows = want_usize(wafer_v, "rows")?;
    let cols = want_usize(wafer_v, "cols")?;
    let wafer = if want_bool(wafer_v, "circular")? {
        if rows != cols {
            return Err(CampaignError::invalid(
                "spec wire: circular wafer must have rows == cols",
            ));
        }
        WaferMap::circular(rows)
    } else {
        WaferMap::full(rows, cols)
    };

    let var_v = want(v, "variation")?;
    let variation = VariationSpec {
        is_sigma: want_f64(var_v, "is_sigma")?,
        bias_mismatch_sigma: want_f64(var_v, "bias_mismatch_sigma")?,
        readout_offset_mean: want_f64(var_v, "readout_offset_mean")?,
        readout_offset_sigma: want_f64(var_v, "readout_offset_sigma")?,
        opamp_offset_sigma: want_f64(var_v, "opamp_offset_sigma")?,
        leak_scale_mean: want_f64(var_v, "leak_scale_mean")?,
        leak_scale_sigma: want_f64(var_v, "leak_scale_sigma")?,
        rth_sigma: want_f64(var_v, "rth_sigma")?,
    };

    let corners_v = want(v, "corners")?
        .as_arr()
        .ok_or_else(|| CampaignError::invalid("spec wire: corners must be an array"))?;
    let mut corners = Vec::with_capacity(corners_v.len());
    for c in corners_v {
        let name = want(c, "name")?
            .as_str()
            .ok_or_else(|| CampaignError::invalid("spec wire: corner name must be a string"))?;
        corners.push(BiasCorner::new(name, Ampere::new(want_f64(c, "ic")?)));
    }

    let plan_v = want(v, "plan")?;
    let plan = TemperaturePlan {
        cold: Celsius::new(want_f64(plan_v, "cold")?),
        reference: Celsius::new(want_f64(plan_v, "reference")?),
        hot: Celsius::new(want_f64(plan_v, "hot")?),
    };

    let win_v = want(v, "window")?;
    let window = SpecWindow {
        eg_min: want_f64(win_v, "eg_min")?,
        eg_max: want_f64(win_v, "eg_max")?,
        xti_min: want_f64(win_v, "xti_min")?,
        xti_max: want_f64(win_v, "xti_max")?,
    };

    let seed = want(v, "seed")?
        .as_str()
        .ok_or_else(|| CampaignError::invalid("spec wire: seed must be a decimal string"))?
        .parse::<u64>()
        .map_err(|_| CampaignError::invalid("spec wire: seed must be a decimal string"))?;

    let bench = match want(v, "bench")?.as_str() {
        Some("paper") => BenchProfile::Paper,
        Some("ideal") => BenchProfile::Ideal,
        _ => {
            return Err(CampaignError::invalid(
                "spec wire: bench must be \"paper\" or \"ideal\"",
            ))
        }
    };

    let faults_v = want(v, "faults")?;
    let faults = FaultSpec {
        noise_probability: want_f64(faults_v, "noise_probability")?,
        noise_sigma_volts: want_f64(faults_v, "noise_sigma_volts")?,
        stuck_probability: want_f64(faults_v, "stuck_probability")?,
        drop_probability: want_f64(faults_v, "drop_probability")?,
        drift_sigma_volts: want_f64(faults_v, "drift_sigma_volts")?,
        nan_probability: want_f64(faults_v, "nan_probability")?,
    };

    for key in RETIRED_SWITCHES {
        if !want_bool(v, key)? {
            return Err(CampaignError::invalid(format!(
                "spec wire: {key:?} is a retired solver switch and must be true"
            )));
        }
    }

    let retry_budget = u32::try_from(want_usize(v, "retry_budget")?)
        .map_err(|_| CampaignError::invalid("spec wire: retry_budget out of range"))?;

    let spec = CampaignSpec {
        wafer,
        variation,
        corners,
        plan,
        window,
        seed,
        bench,
        faults,
        retry_budget,
        robust: want_bool(v, "robust")?,
        // Absent on pre-adaptive documents: default off.
        adaptive: v.get("adaptive").and_then(Json::as_bool).unwrap_or(false),
    };
    spec.validate()?;
    Ok(spec)
}

/// FNV-1a 64 over the canonical wire form. Two specs share a fingerprint
/// iff they serialize identically, which (canonical form) means they are
/// equal — this is what binds a checkpoint to its spec.
#[must_use]
pub fn spec_fingerprint(spec: &CampaignSpec) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in spec_to_json(spec).as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use icvbe_instrument::faults::FaultSpec;

    fn exotic_spec() -> CampaignSpec {
        let mut s = CampaignSpec::paper_default(WaferMap::circular(7), u64::MAX - 3);
        s.corners[0].name = "weird \"name\"\n".to_string();
        s.corners[1].ic = Ampere::new(1.234_567_890_123e-6);
        s.bench = BenchProfile::Ideal;
        s.faults = FaultSpec::light();
        s.retry_budget = 7;
        s.robust = false;
        s
    }

    #[test]
    fn round_trips_paper_default() {
        let s = CampaignSpec::paper_default(WaferMap::full(3, 5), 2002);
        assert_eq!(spec_from_json(&spec_to_json(&s)).unwrap(), s);
    }

    #[test]
    fn round_trips_exotic_spec_including_full_width_seed() {
        let s = exotic_spec();
        let decoded = spec_from_json(&spec_to_json(&s)).unwrap();
        assert_eq!(decoded, s);
        assert_eq!(decoded.seed, u64::MAX - 3);
    }

    #[test]
    fn fingerprint_tracks_spec_identity() {
        let a = exotic_spec();
        let b = exotic_spec();
        assert_eq!(spec_fingerprint(&a), spec_fingerprint(&b));
        let mut c = exotic_spec();
        c.seed ^= 1;
        assert_ne!(spec_fingerprint(&a), spec_fingerprint(&c));
    }

    #[test]
    fn adaptive_round_trips_and_leaves_legacy_bytes_untouched() {
        let base = CampaignSpec::paper_default(WaferMap::full(3, 3), 11);
        let text = spec_to_json(&base);
        // Non-adaptive specs must not mention the field at all — their
        // canonical bytes (and fingerprints) predate it.
        assert!(!text.contains("adaptive"));
        // A document without the field decodes as non-adaptive.
        assert!(!spec_from_json(&text).unwrap().adaptive);

        let mut s = base.clone();
        s.adaptive = true;
        let text = spec_to_json(&s);
        assert!(text.contains("\"adaptive\":true"));
        assert_eq!(spec_from_json(&text).unwrap(), s);
        assert_ne!(spec_fingerprint(&s), spec_fingerprint(&base));
    }

    #[test]
    fn default_spec_keeps_its_canonical_bytes_and_fingerprint() {
        // Checkpoints bind to this fingerprint; it must not move when the
        // spec's in-memory shape changes.
        let s = CampaignSpec::paper_default(WaferMap::circular(14), 2002);
        assert!(spec_to_json(&s).contains("\"warm_start\":true,\"bypass\":true,\"sparse\":true,"));
        assert_eq!(spec_fingerprint(&s), 0x8370_f138_0616_3737);
    }

    #[test]
    fn retired_switch_set_false_is_a_typed_error_naming_the_key() {
        let good = spec_to_json(&CampaignSpec::paper_default(WaferMap::full(2, 2), 1));
        for key in RETIRED_SWITCHES {
            let on = format!("\"{key}\":true");
            let off = format!("\"{key}\":false");
            match spec_from_json(&good.replace(&on, &off)) {
                Err(CampaignError::InvalidSpec(msg)) => {
                    assert!(msg.contains(key), "{key}: {msg}");
                }
                other => panic!("{key}=false decoded as {other:?}"),
            }
            // Missing or ill-typed is an error too, never a panic.
            assert!(spec_from_json(&good.replace(&on, &format!("\"{key}\":1"))).is_err());
            assert!(spec_from_json(&good.replace(&format!("{on},"), "")).is_err());
        }
    }

    #[test]
    fn decode_rejects_bad_documents() {
        assert!(spec_from_json("not json").is_err());
        assert!(spec_from_json("{}").is_err());
        let s = CampaignSpec::paper_default(WaferMap::full(2, 2), 1);
        let good = spec_to_json(&s);
        assert!(spec_from_json(&good.replace(SPEC_SCHEMA, "wrong-schema")).is_err());
        assert!(spec_from_json(&good.replace("\"seed\":\"1\"", "\"seed\":1")).is_err());
        // An invalid spec (empty corners) decodes structurally but fails
        // validation.
        assert!(spec_from_json(&good.replace(
            "\"corners\":[",
            "\"corners\":[]}" // truncated: malformed, still an error
        ))
        .is_err());
    }

    #[test]
    fn decode_validates_the_spec() {
        let mut s = CampaignSpec::paper_default(WaferMap::full(2, 2), 1);
        s.window.eg_max = s.window.eg_min; // empty window
        let text = spec_to_json(&s);
        assert!(spec_from_json(&text).is_err());
    }
}
