//! Deterministic measurement-fault injection.
//!
//! Production benches see every corruption the paper warns about:
//! glitched SMU readings, instruments that latch the previous sample,
//! lost chamber setpoints, slow offset drift, and outright non-finite
//! A/D output. This module injects exactly those faults into a measured
//! [`PairCampaignPoint`](crate::bench::PairCampaignPoint) series — *after*
//! the physics — so the downstream extraction stack can be exercised
//! against corrupted data without touching the bench model.
//!
//! Determinism is the load-bearing property: a [`FaultPlan`] is a pure
//! function of its [`FaultSpec`] and seed, so campaigns that derive the
//! seed from the per-die SplitMix64 chain stay byte-identical at any
//! thread count. The all-zero spec ([`FaultSpec::none`]) is a *strict*
//! no-op: [`FaultPlan::apply`] returns before touching a single reading
//! or drawing a single random number, so a zero-fault campaign reproduces
//! an unfaulted one bit for bit (it never even adds `0.0`, which would
//! flip the sign of a `-0.0` reading).
//!
//! Each fault class has a distinct downstream signature, which is what
//! lets the campaign classify failures by *detection* instead of by
//! injection knowledge:
//!
//! | fault  | corruption                                | typical detection      |
//! |--------|-------------------------------------------|------------------------|
//! | noise  | Gaussian burst on the voltage readings    | out-of-window / robust |
//! | stuck  | point repeats the previous point          | degenerate thermometry |
//! | drop   | whole point lost (every reading NaN)      | insufficient points    |
//! | drift  | linear offset ramp on `VBE` readings      | out-of-window / robust |
//! | nan    | one electrical reading becomes NaN/Inf    | non-finite input       |

use std::error::Error;
use std::fmt;

use icvbe_units::{Ampere, Kelvin, Volt};

use crate::bench::PairCampaignPoint;
use crate::kv::{tokenize, Tokens};
use crate::noise::NoiseSource;

/// Knobs of the deterministic fault injector. All-zero (the default)
/// disables injection entirely.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultSpec {
    /// Per-point probability of a Gaussian glitch burst on the voltage
    /// readings (`vbe_a`, `vbe_b`, `dvbe`).
    pub noise_probability: f64,
    /// Standard deviation of a glitch burst, volts.
    pub noise_sigma_volts: f64,
    /// Per-point probability the instrument latches and repeats the
    /// previous point's readings (first point can never be stuck).
    pub stuck_probability: f64,
    /// Per-point probability the whole temperature point is lost: every
    /// reading of the point becomes NaN.
    pub drop_probability: f64,
    /// Standard deviation of a per-series linear drift slope applied to
    /// the single-ended `VBE` readings, volts per point index.
    pub drift_sigma_volts: f64,
    /// Per-point probability one electrical reading turns NaN/Inf.
    pub nan_probability: f64,
}

/// Parse/validation error for a fault spec string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSpecError {
    /// Human-readable description.
    pub detail: String,
}

impl fmt::Display for FaultSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad fault spec: {}", self.detail)
    }
}

impl Error for FaultSpecError {}

fn spec_err(detail: impl Into<String>) -> FaultSpecError {
    FaultSpecError {
        detail: detail.into(),
    }
}

impl FaultSpec {
    /// The all-zero spec: injection disabled, strict no-op on apply.
    #[must_use]
    pub fn none() -> Self {
        FaultSpec::default()
    }

    /// A mildly hostile bench: occasional glitches and latch-ups.
    #[must_use]
    pub fn light() -> Self {
        FaultSpec {
            noise_probability: 0.05,
            noise_sigma_volts: 10e-3,
            stuck_probability: 0.02,
            drop_probability: 0.02,
            drift_sigma_volts: 0.5e-3,
            nan_probability: 0.01,
        }
    }

    /// A badly misbehaving bench: most dies see at least one corrupted
    /// point, exercising every recovery path.
    #[must_use]
    pub fn heavy() -> Self {
        FaultSpec {
            noise_probability: 0.25,
            noise_sigma_volts: 25e-3,
            stuck_probability: 0.10,
            drop_probability: 0.08,
            drift_sigma_volts: 2e-3,
            nan_probability: 0.06,
        }
    }

    /// Whether every knob is zero (injection disabled).
    #[must_use]
    pub fn is_none(&self) -> bool {
        *self == FaultSpec::default()
    }

    /// Validates probabilities (finite, in `[0, 1]`) and sigmas (finite,
    /// non-negative).
    ///
    /// # Errors
    ///
    /// [`FaultSpecError`] naming the offending knob.
    pub fn validate(&self) -> Result<(), FaultSpecError> {
        let probs = [
            ("noise", self.noise_probability),
            ("stuck", self.stuck_probability),
            ("drop", self.drop_probability),
            ("nan", self.nan_probability),
        ];
        for (name, p) in probs {
            if !(0.0..=1.0).contains(&p) {
                return Err(spec_err(format!(
                    "probability '{name}' must be in [0, 1], got {p}"
                )));
            }
        }
        let sigmas = [
            ("noise_sigma", self.noise_sigma_volts),
            ("drift", self.drift_sigma_volts),
        ];
        for (name, s) in sigmas {
            if !s.is_finite() || s < 0.0 {
                return Err(spec_err(format!(
                    "sigma '{name}' must be finite and >= 0, got {s}"
                )));
            }
        }
        Ok(())
    }

    /// Parses a spec string: a preset name (`none`, `light`, `heavy`) or
    /// comma-separated `key=value` pairs over the keys `noise`,
    /// `noise_sigma`, `stuck`, `drop`, `drift`, `nan`. Unlisted keys keep
    /// their [`FaultSpec::none`] value of zero.
    ///
    /// # Errors
    ///
    /// [`FaultSpecError`] on an unknown or repeated key, an unparsable
    /// value, or an out-of-range knob.
    pub fn parse(text: &str) -> Result<Self, FaultSpecError> {
        let presets = [
            ("none", FaultSpec::none()),
            ("light", FaultSpec::light()),
            ("heavy", FaultSpec::heavy()),
        ];
        let keys = ["noise", "noise_sigma", "stuck", "drop", "drift", "nan"];
        let pairs = match tokenize(text, &presets, &keys).map_err(spec_err)? {
            Tokens::Preset(spec) => return Ok(spec),
            Tokens::Pairs(pairs) => pairs,
        };
        let mut spec = FaultSpec::none();
        for (key, value) in pairs {
            let value: f64 = value
                .parse()
                .map_err(|_| spec_err(format!("'{value}' is not a number")))?;
            let knob = match key {
                "noise" => &mut spec.noise_probability,
                "noise_sigma" => &mut spec.noise_sigma_volts,
                "stuck" => &mut spec.stuck_probability,
                "drop" => &mut spec.drop_probability,
                "drift" => &mut spec.drift_sigma_volts,
                // `tokenize` admits only the listed keys: this is "nan".
                _ => &mut spec.nan_probability,
            };
            *knob = value;
        }
        spec.validate()?;
        Ok(spec)
    }
}

/// Counts of the faults a [`FaultPlan::apply`] call actually injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultCounts {
    /// Points that received a Gaussian glitch burst.
    pub noise_bursts: u32,
    /// Points that repeated the previous point.
    pub stuck: u32,
    /// Points dropped entirely.
    pub dropped: u32,
    /// Single readings turned NaN/Inf.
    pub non_finite: u32,
    /// Whether a non-zero drift ramp was applied to this series.
    pub drifted: bool,
}

impl FaultCounts {
    /// Total number of injected faults (the drift ramp counts once).
    #[must_use]
    pub fn total(&self) -> u32 {
        self.noise_bursts + self.stuck + self.dropped + self.non_finite + u32::from(self.drifted)
    }
}

/// A seeded fault injector: a pure function of `(spec, seed)` applied to
/// a measured point series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    spec: FaultSpec,
    seed: u64,
}

impl FaultPlan {
    /// A plan corrupting with `spec`, deterministically from `seed`.
    #[must_use]
    pub fn new(spec: FaultSpec, seed: u64) -> Self {
        FaultPlan { spec, seed }
    }

    /// The spec this plan injects.
    #[must_use]
    pub fn spec(&self) -> &FaultSpec {
        &self.spec
    }

    /// Corrupts `points` in place and returns what was injected.
    ///
    /// Strict no-op (no RNG draw, no arithmetic on any reading) when the
    /// spec is all-zero. Otherwise the draw order is fixed — one drift
    /// slope for the series, then per point: stuck, noise (plus three
    /// burst amplitudes when hit), drop, nan (plus a field choice when
    /// hit) — so two applies of the same plan over same-length series
    /// corrupt identically regardless of the data values.
    pub fn apply(&self, points: &mut [PairCampaignPoint]) -> FaultCounts {
        let mut counts = FaultCounts::default();
        if self.spec.is_none() || points.is_empty() {
            return counts;
        }
        let mut rng = NoiseSource::seeded(self.seed);

        // Series-level drift: a linear offset ramp on the single-ended
        // VBE readings (the differential dVBE readout rejects it).
        if self.spec.drift_sigma_volts > 0.0 {
            let slope = rng.sample_normal(0.0, self.spec.drift_sigma_volts);
            if slope != 0.0 {
                counts.drifted = true;
                for (i, p) in points.iter_mut().enumerate().skip(1) {
                    let ramp = slope * i as f64;
                    p.vbe_a = Volt::new(p.vbe_a.value() + ramp);
                    p.vbe_b = Volt::new(p.vbe_b.value() + ramp);
                }
            }
        }

        for i in 0..points.len() {
            if self.spec.stuck_probability > 0.0
                && rng.sample_uniform(0.0, 1.0) < self.spec.stuck_probability
                && i > 0
            {
                // The instrument latched: repeat the (possibly already
                // corrupted) previous point's readings. The chamber
                // setpoint is the plan's, not a reading — keep it.
                let prev = points[i - 1];
                let p = &mut points[i];
                p.sensor_temperature = prev.sensor_temperature;
                p.die_temperature = prev.die_temperature;
                p.vbe_a = prev.vbe_a;
                p.vbe_b = prev.vbe_b;
                p.dvbe = prev.dvbe;
                p.ic_a = prev.ic_a;
                p.ic_b = prev.ic_b;
                counts.stuck += 1;
            }
            if self.spec.noise_probability > 0.0
                && rng.sample_uniform(0.0, 1.0) < self.spec.noise_probability
            {
                let s = self.spec.noise_sigma_volts;
                let (ga, gb, gd) = (
                    rng.sample_gaussian(),
                    rng.sample_gaussian(),
                    rng.sample_gaussian(),
                );
                let p = &mut points[i];
                p.vbe_a = Volt::new(p.vbe_a.value() + ga * s);
                p.vbe_b = Volt::new(p.vbe_b.value() + gb * s);
                p.dvbe = Volt::new(p.dvbe.value() + gd * s);
                counts.noise_bursts += 1;
            }
            if self.spec.drop_probability > 0.0
                && rng.sample_uniform(0.0, 1.0) < self.spec.drop_probability
            {
                let p = &mut points[i];
                p.sensor_temperature = Kelvin::new(f64::NAN);
                p.die_temperature = Kelvin::new(f64::NAN);
                p.vbe_a = Volt::new(f64::NAN);
                p.vbe_b = Volt::new(f64::NAN);
                p.dvbe = Volt::new(f64::NAN);
                p.ic_a = Ampere::new(f64::NAN);
                p.ic_b = Ampere::new(f64::NAN);
                counts.dropped += 1;
            }
            if self.spec.nan_probability > 0.0
                && rng.sample_uniform(0.0, 1.0) < self.spec.nan_probability
            {
                let field = rng.sample_uniform(0.0, 3.0) as usize;
                let p = &mut points[i];
                match field {
                    0 => p.vbe_a = Volt::new(f64::NAN),
                    1 => p.ic_a = Ampere::new(f64::INFINITY),
                    _ => p.dvbe = Volt::new(f64::NAN),
                }
                counts.non_finite += 1;
            }
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_points() -> Vec<PairCampaignPoint> {
        (0..3)
            .map(|i| {
                let t = 248.15 + 50.0 * i as f64;
                PairCampaignPoint {
                    setpoint: Kelvin::new(t),
                    sensor_temperature: Kelvin::new(t + 0.1),
                    die_temperature: Kelvin::new(t + 0.4),
                    vbe_a: Volt::new(0.62 - 0.002 * i as f64),
                    vbe_b: Volt::new(0.57 - 0.002 * i as f64),
                    dvbe: Volt::new(if i == 1 { -0.0 } else { 0.0537 }),
                    ic_a: Ampere::new(1e-6),
                    ic_b: Ampere::new(1e-6),
                }
            })
            .collect()
    }

    fn bits(points: &[PairCampaignPoint]) -> Vec<u64> {
        points
            .iter()
            .flat_map(|p| {
                [
                    p.setpoint.value(),
                    p.sensor_temperature.value(),
                    p.die_temperature.value(),
                    p.vbe_a.value(),
                    p.vbe_b.value(),
                    p.dvbe.value(),
                    p.ic_a.value(),
                    p.ic_b.value(),
                ]
            })
            .map(f64::to_bits)
            .collect()
    }

    #[test]
    fn zero_spec_is_a_strict_bitwise_noop() {
        // Includes a -0.0 reading: even adding 0.0 would flip its bits.
        let mut points = sample_points();
        let before = bits(&points);
        let counts = FaultPlan::new(FaultSpec::none(), 0xDEAD_BEEF).apply(&mut points);
        assert_eq!(counts, FaultCounts::default());
        assert_eq!(bits(&points), before);
    }

    #[test]
    fn same_seed_corrupts_identically_different_seed_differently() {
        let spec = FaultSpec::heavy();
        let mut a = sample_points();
        let mut b = sample_points();
        let ca = FaultPlan::new(spec, 42).apply(&mut a);
        let cb = FaultPlan::new(spec, 42).apply(&mut b);
        assert_eq!(bits(&a), bits(&b));
        assert_eq!(ca, cb);
        let mut c = sample_points();
        FaultPlan::new(spec, 43).apply(&mut c);
        assert_ne!(bits(&a), bits(&c));
    }

    #[test]
    fn certain_drop_kills_every_reading() {
        let spec = FaultSpec {
            drop_probability: 1.0,
            ..FaultSpec::none()
        };
        let mut points = sample_points();
        let counts = FaultPlan::new(spec, 7).apply(&mut points);
        assert_eq!(counts.dropped, 3);
        for p in &points {
            assert!(p.sensor_temperature.value().is_nan());
            assert!(p.vbe_a.value().is_nan());
            assert!(p.ic_a.value().is_nan());
            // The chamber setpoint is the plan's, not a reading.
            assert!(p.setpoint.value().is_finite());
        }
    }

    #[test]
    fn certain_stuck_latches_onto_the_first_point() {
        let spec = FaultSpec {
            stuck_probability: 1.0,
            ..FaultSpec::none()
        };
        let mut points = sample_points();
        let first = points[0];
        let counts = FaultPlan::new(spec, 7).apply(&mut points);
        assert_eq!(counts.stuck, 2, "first point can never be stuck");
        for p in &points {
            assert_eq!(
                p.sensor_temperature.value(),
                first.sensor_temperature.value()
            );
            assert_eq!(p.vbe_a.value(), first.vbe_a.value());
        }
    }

    #[test]
    fn certain_nan_corrupts_exactly_one_reading_per_point() {
        let spec = FaultSpec {
            nan_probability: 1.0,
            ..FaultSpec::none()
        };
        let mut points = sample_points();
        let counts = FaultPlan::new(spec, 11).apply(&mut points);
        assert_eq!(counts.non_finite, 3);
        for p in &points {
            let bad = usize::from(!p.vbe_a.value().is_finite())
                + usize::from(!p.ic_a.value().is_finite())
                + usize::from(!p.dvbe.value().is_finite());
            assert_eq!(bad, 1);
        }
    }

    #[test]
    fn drift_ramps_vbe_but_not_dvbe() {
        let spec = FaultSpec {
            drift_sigma_volts: 1e-3,
            ..FaultSpec::none()
        };
        let clean = sample_points();
        let mut points = sample_points();
        let counts = FaultPlan::new(spec, 3).apply(&mut points);
        assert!(counts.drifted);
        // Point 0 is the ramp anchor and must be untouched.
        assert_eq!(points[0].vbe_a.value(), clean[0].vbe_a.value());
        let d1 = points[1].vbe_a.value() - clean[1].vbe_a.value();
        let d2 = points[2].vbe_a.value() - clean[2].vbe_a.value();
        assert!(d1 != 0.0);
        assert!((d2 - 2.0 * d1).abs() < 1e-15, "linear ramp: {d1} vs {d2}");
        for (p, c) in points.iter().zip(&clean) {
            assert_eq!(p.dvbe.value(), c.dvbe.value());
        }
    }

    #[test]
    fn parse_presets_and_pairs() {
        assert_eq!(FaultSpec::parse("none").unwrap(), FaultSpec::none());
        assert_eq!(FaultSpec::parse("light").unwrap(), FaultSpec::light());
        assert_eq!(FaultSpec::parse("heavy").unwrap(), FaultSpec::heavy());
        let spec = FaultSpec::parse("noise=0.5,noise_sigma=0.02,nan=0.125").unwrap();
        assert_eq!(spec.noise_probability, 0.5);
        assert_eq!(spec.noise_sigma_volts, 0.02);
        assert_eq!(spec.nan_probability, 0.125);
        assert_eq!(spec.stuck_probability, 0.0);
        assert!(FaultSpec::parse("bogus=1").is_err());
        assert!(FaultSpec::parse("noise=1.5").is_err());
        assert!(FaultSpec::parse("noise=abc").is_err());
        assert!(FaultSpec::parse("").is_err());
        assert!(FaultSpec::parse("drift=-1e-3").is_err());
    }

    #[test]
    fn counts_total_adds_up() {
        let counts = FaultCounts {
            noise_bursts: 2,
            stuck: 1,
            dropped: 1,
            non_finite: 3,
            drifted: true,
        };
        assert_eq!(counts.total(), 8);
    }
}
