//! Campaign description: wafer map, bias corners, temperature plan, spec
//! window.

use icvbe_instrument::faults::FaultSpec;
use icvbe_instrument::montecarlo::VariationSpec;
use icvbe_units::{Ampere, Celsius};

use crate::CampaignError;

/// Upper bound on [`CampaignSpec::retry_budget`]. Keeps the per-corner
/// attempt count bounded (the whole point of a *budget*) and far below
/// the 8-bit attempt field of the fault seed stream.
pub const MAX_RETRY_BUDGET: u32 = 32;

/// One die position on the wafer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DieSite {
    /// Dense index in campaign order (0-based, row-major over the map).
    pub index: usize,
    /// Row on the wafer grid.
    pub row: usize,
    /// Column on the wafer grid.
    pub col: usize,
}

/// A rectangular die grid with an optional circular wafer cut.
///
/// Real wafers are round: a `circular(d)` map keeps only the dies of a
/// `d x d` grid whose centers fall inside the inscribed circle, which is
/// how a 1,000-die campaign gets a realistic edge-die pattern instead of a
/// square block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaferMap {
    rows: usize,
    cols: usize,
    circular: bool,
}

impl WaferMap {
    /// A full rectangular map: every grid position is an active die.
    #[must_use]
    pub fn full(rows: usize, cols: usize) -> Self {
        WaferMap {
            rows,
            cols,
            circular: false,
        }
    }

    /// A circular wafer of `diameter` dies across.
    #[must_use]
    pub fn circular(diameter: usize) -> Self {
        WaferMap {
            rows: diameter,
            cols: diameter,
            circular: true,
        }
    }

    /// Grid rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Grid columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Whether the map applies the circular wafer cut.
    #[must_use]
    pub fn is_circular(&self) -> bool {
        self.circular
    }

    fn active(&self, row: usize, col: usize) -> bool {
        if !self.circular {
            return true;
        }
        // Die centers at (row + 0.5, col + 0.5) on an r x c grid; keep
        // those inside the inscribed circle.
        let r = self.rows as f64 / 2.0;
        let dy = row as f64 + 0.5 - r;
        let dx = col as f64 + 0.5 - self.cols as f64 / 2.0;
        dx * dx + dy * dy <= r * r
    }

    /// The active dies in campaign order (row-major), with dense indices.
    #[must_use]
    pub fn sites(&self) -> Vec<DieSite> {
        let mut out = Vec::new();
        for row in 0..self.rows {
            for col in 0..self.cols {
                if self.active(row, col) {
                    out.push(DieSite {
                        index: out.len(),
                        row,
                        col,
                    });
                }
            }
        }
        out
    }

    /// Number of active dies.
    #[must_use]
    pub fn die_count(&self) -> usize {
        (0..self.rows)
            .map(|r| (0..self.cols).filter(|&c| self.active(r, c)).count())
            .sum()
    }
}

/// One bias condition the extraction runs at.
#[derive(Debug, Clone, PartialEq)]
pub struct BiasCorner {
    /// Corner label used in reports ("nom", "low", "high", ...).
    pub name: String,
    /// QA collector bias of the pair structure at this corner.
    pub ic: Ampere,
}

impl BiasCorner {
    /// Creates a corner.
    #[must_use]
    pub fn new(name: &str, ic: Ampere) -> Self {
        BiasCorner {
            name: name.to_string(),
            ic,
        }
    }
}

/// The three chamber setpoints of the analytical method (paper section 5:
/// cold and hot are *computed* from dVBE, only the reference is trusted).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TemperaturePlan {
    /// Cold setpoint.
    pub cold: Celsius,
    /// Reference setpoint (the trusted one).
    pub reference: Celsius,
    /// Hot setpoint.
    pub hot: Celsius,
}

impl TemperaturePlan {
    /// The paper's -25 / +25 / +75 °C plan.
    #[must_use]
    pub fn paper() -> Self {
        TemperaturePlan {
            cold: Celsius::new(-25.0),
            reference: Celsius::new(25.0),
            hot: Celsius::new(75.0),
        }
    }

    /// The setpoints in measurement order.
    #[must_use]
    pub fn setpoints(&self) -> [Celsius; 3] {
        [self.cold, self.reference, self.hot]
    }
}

/// The `EG`/`XTI` acceptance window yield is binned against.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpecWindow {
    /// Minimum acceptable `EG` in eV.
    pub eg_min: f64,
    /// Maximum acceptable `EG` in eV.
    pub eg_max: f64,
    /// Minimum acceptable `XTI`.
    pub xti_min: f64,
    /// Maximum acceptable `XTI`.
    pub xti_max: f64,
}

impl SpecWindow {
    /// A window around the ST BiCMOS card (`EG` 1.1324 eV, `XTI` 2.58)
    /// wide enough for healthy process spread, tight enough to catch
    /// broken extractions.
    #[must_use]
    pub fn st_bicmos_default() -> Self {
        SpecWindow {
            eg_min: 1.05,
            eg_max: 1.25,
            xti_min: 0.0,
            xti_max: 6.0,
        }
    }
}

/// Which virtual bench measures the dies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BenchProfile {
    /// The paper's bench: self-heating package path, HP4156-class SMU,
    /// Pt100 sensor.
    Paper,
    /// Ideal instruments and no self-heating (isolates process spread).
    Ideal,
}

/// Everything a campaign run depends on. Two equal specs produce
/// byte-identical aggregate reports at any thread count.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// The die map.
    pub wafer: WaferMap,
    /// Statistical spec of the per-die process perturbations.
    pub variation: VariationSpec,
    /// Bias corners; every die is extracted once per corner.
    pub corners: Vec<BiasCorner>,
    /// The three-setpoint temperature plan.
    pub plan: TemperaturePlan,
    /// Yield window.
    pub window: SpecWindow,
    /// Campaign master seed; every per-die stream derives from it.
    pub seed: u64,
    /// Bench profile.
    pub bench: BenchProfile,
    /// Deterministic measurement-fault injection. The all-zero spec
    /// ([`FaultSpec::none`]) is a strict no-op: the per-corner pipeline
    /// runs exactly one attempt and never touches the fault streams, so a
    /// zero-fault campaign reproduces an unfaulted one bit for bit.
    pub faults: FaultSpec,
    /// Extra corruption attempts a corner may consume after its first
    /// measurement fails or lands out of window (each retry re-corrupts
    /// the pristine measurement with a fresh seeded fault realization).
    /// Ignored when `faults` is all-zero. Capped at [`MAX_RETRY_BUDGET`].
    pub retry_budget: u32,
    /// After the retry budget is exhausted without a pass, pool every
    /// attempt's samples and run a robust (Tukey IRLS) eq.-13 fit that
    /// zero-weights the corrupted readings. Ignored when `faults` is
    /// all-zero.
    pub robust: bool,
    /// Adaptive corner scheduling: fit each die on the probe corner(s)
    /// first and run the remaining corners only when the probe flags the
    /// die (fit residual, retries, robust recovery, out-of-window bin or
    /// quarantine). Skipped corners land in the `skipped` yield bin with
    /// no values. **Changes the aggregate artifacts** (skipped corners
    /// contribute no statistics), so it is part of the wire spec and the
    /// fingerprint when enabled.
    pub adaptive: bool,
}

impl CampaignSpec {
    /// The paper-faithful campaign: default process spread, the
    /// -25/25/75 °C plan, nominal 1 µA bias plus half/double corners, the
    /// paper bench and the ST BiCMOS spec window.
    #[must_use]
    pub fn paper_default(wafer: WaferMap, seed: u64) -> Self {
        CampaignSpec {
            wafer,
            variation: VariationSpec::default(),
            corners: vec![
                BiasCorner::new("low", Ampere::new(0.5e-6)),
                BiasCorner::new("nom", Ampere::new(1e-6)),
                BiasCorner::new("high", Ampere::new(2e-6)),
            ],
            plan: TemperaturePlan::paper(),
            window: SpecWindow::st_bicmos_default(),
            seed,
            bench: BenchProfile::Paper,
            faults: FaultSpec::none(),
            retry_budget: 3,
            robust: true,
            adaptive: false,
        }
    }

    /// Checks internal consistency.
    ///
    /// Degenerate inputs are rejected here rather than left to misbehave
    /// downstream: an empty wafer map (`die_count() == 0`, e.g.
    /// `WaferMap::full(0, n)`) and a collapsed temperature plan (any two
    /// setpoints equal — a single- or two-point plan cannot feed the
    /// three-point method) are both `InvalidSpec`.
    ///
    /// # Errors
    ///
    /// [`CampaignError::InvalidSpec`] on an empty map, no corners,
    /// non-positive bias, a non-monotone temperature plan, an empty spec
    /// window, an out-of-range fault spec or an oversized retry budget.
    pub fn validate(&self) -> Result<(), CampaignError> {
        if self.wafer.die_count() == 0 {
            return Err(CampaignError::invalid("wafer map has no active dies"));
        }
        if self.corners.is_empty() {
            return Err(CampaignError::invalid("no bias corners"));
        }
        for c in &self.corners {
            if !(c.ic.value() > 0.0) {
                return Err(CampaignError::invalid(format!(
                    "corner {:?} has non-positive bias",
                    c.name
                )));
            }
        }
        let [t1, t2, t3] = self.plan.setpoints().map(|c| c.value());
        if !(t1 < t2 && t2 < t3) {
            return Err(CampaignError::invalid(
                "temperature plan must be strictly increasing cold < reference < hot",
            ));
        }
        if !(self.window.eg_min < self.window.eg_max)
            || !(self.window.xti_min < self.window.xti_max)
        {
            return Err(CampaignError::invalid("empty spec window"));
        }
        self.faults
            .validate()
            .map_err(|e| CampaignError::invalid(format!("fault spec: {}", e.detail)))?;
        if self.retry_budget > MAX_RETRY_BUDGET {
            return Err(CampaignError::invalid(format!(
                "retry budget {} exceeds the cap of {MAX_RETRY_BUDGET}",
                self.retry_budget
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_map_enumerates_every_site() {
        let m = WaferMap::full(3, 4);
        let sites = m.sites();
        assert_eq!(sites.len(), 12);
        assert_eq!(m.die_count(), 12);
        assert_eq!(
            sites[0],
            DieSite {
                index: 0,
                row: 0,
                col: 0
            }
        );
        assert_eq!(
            sites[11],
            DieSite {
                index: 11,
                row: 2,
                col: 3
            }
        );
    }

    #[test]
    fn circular_map_drops_corners() {
        let m = WaferMap::circular(8);
        let n = m.die_count();
        assert!(n < 64, "circle must cut corners, got {n}");
        assert!(n > 32, "circle too aggressive: {n}");
        // Corner die of the grid is outside the circle.
        assert!(m.sites().iter().all(|s| !(s.row == 0 && s.col == 0)));
        // Dense indexing with no gaps.
        for (i, s) in m.sites().iter().enumerate() {
            assert_eq!(s.index, i);
        }
    }

    #[test]
    fn paper_default_validates() {
        let s = CampaignSpec::paper_default(WaferMap::circular(10), 2002);
        assert!(s.validate().is_ok());
        assert_eq!(s.corners.len(), 3);
    }

    #[test]
    fn validation_rejects_bad_specs() {
        let mut s = CampaignSpec::paper_default(WaferMap::full(2, 2), 1);
        s.corners.clear();
        assert!(s.validate().is_err());

        let mut s = CampaignSpec::paper_default(WaferMap::full(2, 2), 1);
        s.plan.hot = Celsius::new(-40.0);
        assert!(s.validate().is_err());

        let mut s = CampaignSpec::paper_default(WaferMap::full(2, 2), 1);
        s.window.eg_max = s.window.eg_min;
        assert!(s.validate().is_err());

        let mut s = CampaignSpec::paper_default(WaferMap::full(2, 2), 1);
        s.corners[0].ic = Ampere::new(0.0);
        assert!(s.validate().is_err());
    }

    #[test]
    fn degenerate_inputs_are_documented_invalid_specs() {
        // Empty wafer map: no active dies.
        let s = CampaignSpec::paper_default(WaferMap::full(0, 5), 1);
        assert!(s.validate().is_err());
        let s = CampaignSpec::paper_default(WaferMap::circular(0), 1);
        assert!(s.validate().is_err());
        // Collapsed (single-point) temperature plan: the three-point
        // method is underdetermined, rejected up front.
        let mut s = CampaignSpec::paper_default(WaferMap::full(2, 2), 1);
        s.plan.cold = s.plan.reference;
        s.plan.hot = s.plan.reference;
        assert!(s.validate().is_err());
    }

    #[test]
    fn fault_and_retry_knobs_are_validated() {
        let mut s = CampaignSpec::paper_default(WaferMap::full(2, 2), 1);
        s.faults = FaultSpec::heavy();
        assert!(s.validate().is_ok());
        s.faults.noise_probability = 1.5;
        assert!(s.validate().is_err());

        let mut s = CampaignSpec::paper_default(WaferMap::full(2, 2), 1);
        s.retry_budget = MAX_RETRY_BUDGET;
        assert!(s.validate().is_ok());
        s.retry_budget = MAX_RETRY_BUDGET + 1;
        assert!(s.validate().is_err());
    }
}
