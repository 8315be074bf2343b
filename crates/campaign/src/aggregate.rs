//! Streaming aggregation: Welford statistics, yield bins and the
//! characteristic-straight scatter summary.
//!
//! # Determinism by order
//!
//! Every aggregate in the program is folded **in die-index order**, one
//! die at a time, on plain `f64` recurrences: the worker pool's reorder
//! buffer releases dies in index order, a service slice or a checkpoint
//! resume continues the same fold from the die it stopped at, and the
//! shard supervisor absorbs its workers' per-die records in shard order,
//! which is die order. Floating-point addition is not associative, but a
//! fold with exactly one order needs no associativity: the same dies in
//! the same order give the same bits, so the report bytes are identical
//! for any thread count, shard count, slicing or resume point. Memory
//! stays O(corners), independent of the die count.
//!
//! The recurrences are the textbook ones (Welford's running mean and
//! `M2`, and its bivariate co-moment form). A constant stream leaves every
//! second moment exactly zero — each delta after the first is exactly
//! zero — so degenerate data reads as zero variance, slope and
//! correlation, never as a rounding residue.
//!
//! Non-finite values are a caller error: they trip a debug assertion. The
//! corner fold keeps NaN temperature errors (robust recoveries that lost
//! every cold or hot thermometry sample) out of the moments explicitly.

use crate::die::{CornerOutcome, DieOutcome};
use crate::spec::CampaignSpec;
use crate::taxonomy::FailureKind;

/// The yield bin of one corner extraction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum YieldBin {
    /// Extraction inside the spec window.
    Pass,
    /// `EG` below the window.
    EgLow,
    /// `EG` above the window.
    EgHigh,
    /// `XTI` below the window.
    XtiLow,
    /// `XTI` above the window.
    XtiHigh,
    /// The die pipeline failed (circuit, thermal or extraction error).
    SolveFail,
    /// The adaptive corner scheduler skipped this corner on a die whose
    /// probe corners showed no anomaly (never emitted on exhaustive
    /// runs; reports only mention the bin when its count is non-zero, so
    /// exhaustive artifacts keep their historical bytes).
    Skipped,
}

impl YieldBin {
    /// Number of bins (the width of a bin-count array).
    pub const COUNT: usize = 7;

    /// All bins, in report order.
    pub const ALL: [YieldBin; YieldBin::COUNT] = [
        YieldBin::Pass,
        YieldBin::EgLow,
        YieldBin::EgHigh,
        YieldBin::XtiLow,
        YieldBin::XtiHigh,
        YieldBin::SolveFail,
        YieldBin::Skipped,
    ];

    /// Stable label used in the JSON/CSV reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            YieldBin::Pass => "pass",
            YieldBin::EgLow => "eg_low",
            YieldBin::EgHigh => "eg_high",
            YieldBin::XtiLow => "xti_low",
            YieldBin::XtiHigh => "xti_high",
            YieldBin::SolveFail => "solve_fail",
            YieldBin::Skipped => "skipped",
        }
    }

    /// Dense index into a bin-count array.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            YieldBin::Pass => 0,
            YieldBin::EgLow => 1,
            YieldBin::EgHigh => 2,
            YieldBin::XtiLow => 3,
            YieldBin::XtiHigh => 4,
            YieldBin::SolveFail => 5,
            YieldBin::Skipped => 6,
        }
    }
}

/// Streaming mean/variance with min/max tracking: Welford's recurrence.
#[derive(Debug, Clone, PartialEq)]
pub struct Welford {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Default for Welford {
    fn default() -> Self {
        Welford {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

impl Welford {
    /// Folds one observation in.
    pub fn absorb(&mut self, x: f64) {
        debug_assert!(x.is_finite(), "non-finite value fed to Welford");
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance (0 below two observations).
    #[must_use]
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    #[must_use]
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation (`+inf` when empty).
    #[must_use]
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (`-inf` when empty).
    #[must_use]
    pub fn max(&self) -> f64 {
        self.max
    }

    /// The raw recurrence state `(count, mean, m2, min, max)`, for the
    /// checkpoint codec. The empty accumulator's `±inf` min/max travel
    /// through here too — the codec must preserve them bit-exactly.
    #[must_use]
    pub fn raw(&self) -> (u64, [f64; 4]) {
        (self.count, [self.mean, self.m2, self.min, self.max])
    }

    /// Rebuilds an accumulator from [`Welford::raw`] state. Resuming from
    /// this state and folding the remaining observations in order
    /// produces exactly the accumulator an uninterrupted run would.
    #[must_use]
    pub fn from_raw(count: u64, [mean, m2, min, max]: [f64; 4]) -> Self {
        Welford {
            count,
            mean,
            m2,
            min,
            max,
        }
    }
}

/// Streaming bivariate moments of the `(XTI, EG)` cloud — the campaign
/// view of the paper's Fig.-6 characteristic straight.
///
/// Extracted pairs are *effective* parameters: each die's `(EG, XTI)`
/// lies on that die's characteristic straight, so across a lot the cloud
/// collapses onto a line whose slope/intercept this summarizes, along
/// with the correlation that tells how tight the collapse is.
///
/// The state is the co-moment recurrence: running means and the centred
/// sums `cxx = Σ(x−x̄)²`, `cyy = Σ(y−ȳ)²`, `cxy = Σ(x−x̄)(y−ȳ)`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Scatter {
    n: u64,
    mean_x: f64,
    mean_y: f64,
    cxx: f64,
    cyy: f64,
    cxy: f64,
}

impl Scatter {
    /// Folds one `(xti, eg)` pair in.
    pub fn absorb(&mut self, xti: f64, eg: f64) {
        debug_assert!(
            xti.is_finite() && eg.is_finite(),
            "non-finite pair fed to Scatter"
        );
        self.n += 1;
        let n = self.n as f64;
        let dx = xti - self.mean_x;
        let dy = eg - self.mean_y;
        self.mean_x += dx / n;
        self.mean_y += dy / n;
        self.cxx += dx * (xti - self.mean_x);
        self.cyy += dy * (eg - self.mean_y);
        self.cxy += dx * (eg - self.mean_y);
    }

    /// Number of pairs.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Slope of the regression of `EG` on `XTI` (eV per unit `XTI`); 0
    /// for a cloud with no `XTI` spread.
    #[must_use]
    pub fn slope(&self) -> f64 {
        if self.cxx > 0.0 {
            self.cxy / self.cxx
        } else {
            0.0
        }
    }

    /// Intercept of the regression (eV at `XTI = 0`).
    #[must_use]
    pub fn intercept(&self) -> f64 {
        self.mean_y - self.slope() * self.mean_x
    }

    /// Pearson correlation of the cloud (0 for a degenerate cloud).
    #[must_use]
    pub fn correlation(&self) -> f64 {
        if self.cxx > 0.0 && self.cyy > 0.0 {
            self.cxy / (self.cxx.sqrt() * self.cyy.sqrt())
        } else {
            0.0
        }
    }

    /// Coefficient of determination of the straight.
    #[must_use]
    pub fn r_squared(&self) -> f64 {
        let c = self.correlation();
        c * c
    }

    /// The raw recurrence state `(n, [x̄, ȳ, cxx, cyy, cxy])`, for the
    /// checkpoint codec.
    #[must_use]
    pub fn raw(&self) -> (u64, [f64; 5]) {
        (
            self.n,
            [self.mean_x, self.mean_y, self.cxx, self.cyy, self.cxy],
        )
    }

    /// Rebuilds the moments from [`Scatter::raw`] state.
    #[must_use]
    pub fn from_raw(n: u64, [mean_x, mean_y, cxx, cyy, cxy]: [f64; 5]) -> Self {
        Scatter {
            n,
            mean_x,
            mean_y,
            cxx,
            cyy,
            cxy,
        }
    }
}

/// Aggregate over one bias corner.
#[derive(Debug, Clone, PartialEq)]
pub struct CornerAggregate {
    /// Corner label (from the spec).
    pub name: String,
    /// Extracted `EG` statistics, eV.
    pub eg_ev: Welford,
    /// Extracted `XTI` statistics.
    pub xti: Welford,
    /// Fit RMS residual statistics, volts.
    pub rms_residual_v: Welford,
    /// Error of the computed cold-point die temperature vs truth, kelvin.
    pub t_cold_err_k: Welford,
    /// Error of the computed hot-point die temperature vs truth, kelvin.
    pub t_hot_err_k: Welford,
    /// Characteristic-straight scatter of the `(XTI, EG)` cloud.
    pub straight: Scatter,
    /// Yield bin counts, indexed by [`YieldBin::index`].
    pub bins: [u64; YieldBin::COUNT],
    /// Quarantined corners by taxonomy kind, indexed by
    /// [`FailureKind::index`].
    pub failures: [u64; FailureKind::COUNT],
    /// Corners that produced values after at least one failed attempt, by
    /// the kind of the failure they recovered from.
    pub recovered: [u64; FailureKind::COUNT],
    /// Corners whose values came from the pooled robust IRLS fit.
    pub robust_recoveries: u64,
    /// Extra extraction attempts beyond the first, summed over corners.
    pub retries: u64,
    /// Samples the robust fits flagged as outliers, summed over corners.
    pub outliers_rejected: u64,
}

impl CornerAggregate {
    fn new(name: &str) -> Self {
        CornerAggregate {
            name: name.to_string(),
            eg_ev: Welford::default(),
            xti: Welford::default(),
            rms_residual_v: Welford::default(),
            t_cold_err_k: Welford::default(),
            t_hot_err_k: Welford::default(),
            straight: Scatter::default(),
            bins: [0; YieldBin::COUNT],
            failures: [0; FailureKind::COUNT],
            recovered: [0; FailureKind::COUNT],
            robust_recoveries: 0,
            retries: 0,
            outliers_rejected: 0,
        }
    }

    fn absorb(&mut self, c: &CornerOutcome) {
        self.bins[c.bin.index()] += 1;
        if let Some(kind) = c.failure {
            self.failures[kind.index()] += 1;
        }
        if let Some(kind) = c.recovered_from {
            self.recovered[kind.index()] += 1;
        }
        if c.robust_recovery {
            self.robust_recoveries += 1;
        }
        self.retries += u64::from(c.attempts.saturating_sub(1));
        self.outliers_rejected += u64::from(c.outliers_rejected);
        if let Some(v) = &c.values {
            // Robust-recovered corners can carry NaN temperature columns
            // (every cold or hot thermometry sample lost); keep those out
            // of the running moments. Clean-pipeline values are always
            // finite, so the guards are no-ops there.
            self.eg_ev.absorb(v.eg_ev);
            self.xti.absorb(v.xti);
            self.rms_residual_v.absorb(v.rms_residual_v);
            if v.t_cold_err_k.is_finite() {
                self.t_cold_err_k.absorb(v.t_cold_err_k);
            }
            if v.t_hot_err_k.is_finite() {
                self.t_hot_err_k.absorb(v.t_hot_err_k);
            }
            self.straight.absorb(v.xti, v.eg_ev);
        }
    }

    /// Fraction of *measured* extractions landing in [`YieldBin::Pass`].
    /// Corners the adaptive scheduler skipped are not measurements and
    /// stay out of the denominator (on exhaustive runs the skipped bin is
    /// always zero, so the historical value is unchanged).
    #[must_use]
    pub fn yield_fraction(&self) -> f64 {
        let total: u64 = self.bins.iter().sum::<u64>() - self.bins[YieldBin::Skipped.index()];
        if total == 0 {
            0.0
        } else {
            self.bins[YieldBin::Pass.index()] as f64 / total as f64
        }
    }
}

/// One quarantined corner, pinned to its wafer site — the row format of
/// the quarantine report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuarantineRecord {
    /// Dense die index (campaign order).
    pub die: usize,
    /// Wafer row.
    pub row: usize,
    /// Wafer column.
    pub col: usize,
    /// Corner index into the spec's corner list.
    pub corner: usize,
    /// Why the corner was quarantined.
    pub kind: FailureKind,
    /// Attempts consumed before giving up.
    pub attempts: u32,
}

/// The whole campaign's streaming aggregate.
///
/// Memory is O(corners) plus one [`QuarantineRecord`] per *failed*
/// corner — zero on a healthy campaign, bounded by the fault rate
/// otherwise.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignAggregate {
    /// Dies folded in so far.
    pub dies: u64,
    /// Dies with at least one solve-failed corner.
    pub dies_failed: u64,
    /// Per-corner aggregates, in spec order.
    pub corners: Vec<CornerAggregate>,
    /// Every quarantined corner, in die-index order.
    pub quarantine: Vec<QuarantineRecord>,
}

impl CampaignAggregate {
    /// An empty aggregate shaped for `spec`'s corners.
    #[must_use]
    pub fn new(spec: &CampaignSpec) -> Self {
        CampaignAggregate {
            dies: 0,
            dies_failed: 0,
            corners: spec
                .corners
                .iter()
                .map(|c| CornerAggregate::new(&c.name))
                .collect(),
            quarantine: Vec::new(),
        }
    }

    /// Folds one die in. **Must** be called in die-index order: the fold
    /// has exactly one order, which is what keeps the report bytes
    /// identical across threads, shards, slices and resumes.
    pub fn absorb(&mut self, die: &DieOutcome) {
        self.dies += 1;
        if die.corners.iter().any(|c| c.bin == YieldBin::SolveFail) {
            self.dies_failed += 1;
        }
        for (k, (agg, out)) in self.corners.iter_mut().zip(&die.corners).enumerate() {
            agg.absorb(out);
            if let Some(kind) = out.failure {
                self.quarantine.push(QuarantineRecord {
                    die: die.index,
                    row: die.row,
                    col: die.col,
                    corner: k,
                    kind,
                    attempts: out.attempts,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_two_pass_stats() {
        let xs = [1.0, 2.0, 4.0, 8.0, 16.5, -3.25];
        let mut w = Welford::default();
        for &x in &xs {
            w.absorb(x);
        }
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (xs.len() - 1) as f64;
        assert!((w.mean() - mean).abs() < 1e-12);
        assert!((w.variance() - var).abs() < 1e-12);
        assert_eq!(w.min(), -3.25);
        assert_eq!(w.max(), 16.5);
        assert_eq!(w.count(), 6);
    }

    #[test]
    fn scatter_recovers_exact_line() {
        let mut s = Scatter::default();
        // EG = 1.2 - 0.025 * XTI, exactly.
        for i in 0..50 {
            let xti = 0.1 * i as f64;
            s.absorb(xti, 1.2 - 0.025 * xti);
        }
        assert!((s.slope() + 0.025).abs() < 1e-12);
        assert!((s.intercept() - 1.2).abs() < 1e-12);
        assert!((s.correlation() + 1.0).abs() < 1e-12);
        assert!((s.r_squared() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn constant_cloud_has_zero_slope_and_correlation() {
        let mut s = Scatter::default();
        for _ in 0..1000 {
            s.absorb(2.58, 1.13);
        }
        assert_eq!(s.raw(), (1000, [2.58, 1.13, 0.0, 0.0, 0.0]));
        assert_eq!(s.slope(), 0.0);
        assert_eq!(s.correlation(), 0.0);
        assert_eq!(s.r_squared(), 0.0);
        assert_eq!(s.intercept(), 1.13);
    }

    #[test]
    fn bin_labels_and_indices_are_dense() {
        for (i, b) in YieldBin::ALL.iter().enumerate() {
            assert_eq!(b.index(), i);
            assert!(!b.label().is_empty());
        }
    }

    #[test]
    fn welford_mean_and_variance_are_exact_for_representable_data() {
        let mut w = Welford::default();
        for x in [1.0, 2.0, 3.0] {
            w.absorb(x);
        }
        assert_eq!(w.mean(), 2.0);
        assert_eq!(w.variance(), 1.0);
        assert_eq!(w.std_dev(), 1.0);
    }

    #[test]
    fn constant_stream_keeps_exactly_zero_spread() {
        // Values with no short binary expansion: every delta after the
        // first is exactly zero, so M2 never moves off zero.
        for x in [0.1, 1.1634422471933739, -13.944443551643033, 0.0] {
            let mut w = Welford::default();
            for _ in 0..1000 {
                w.absorb(x);
            }
            assert_eq!(w.mean().to_bits(), x.to_bits());
            assert_eq!(w.variance().to_bits(), 0f64.to_bits());
            assert_eq!(w.std_dev().to_bits(), 0f64.to_bits());
            assert_eq!((w.min(), w.max()), (x, x));
        }
    }

    #[test]
    fn yield_fraction_excludes_skipped_corners() {
        let mut c = CornerAggregate::new("nom");
        c.bins[YieldBin::Pass.index()] = 3;
        c.bins[YieldBin::EgLow.index()] = 1;
        c.bins[YieldBin::Skipped.index()] = 6;
        assert_eq!(c.yield_fraction(), 0.75);
        let mut all_skipped = CornerAggregate::new("nom");
        all_skipped.bins[YieldBin::Skipped.index()] = 4;
        assert_eq!(all_skipped.yield_fraction(), 0.0);
    }
}
