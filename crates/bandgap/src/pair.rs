//! The Fig.-2 measurement configuration: QA and QB under forced equal
//! collector currents, `dVBE` read differentially.
//!
//! This is the structure the die-temperature computation (eq. 16) and the
//! analytical extraction run on. Imperfections are first-class citizens:
//! the QB substrate parasitic (8x area), the op-amp/readout offset, and
//! bias-source mismatch all perturb `dVBE` exactly as they do on silicon.

use icvbe_spice::bjt::{Bjt, BjtParams, Polarity, SubstrateJunction};
use icvbe_spice::element::CurrentSource;
use icvbe_spice::netlist::{Circuit, NodeId};
use icvbe_spice::solver::DcOptions;
use icvbe_spice::system::CircuitAssembly;
use icvbe_spice::workspace::{solve_dc_with, SolveWorkspace};
use icvbe_spice::SpiceError;
use icvbe_units::{Ampere, Kelvin, Volt};

/// Configuration of the pair-bias test structure.
#[derive(Debug, Clone)]
pub struct PairStructure {
    /// Model card of the unit device (QA); QB uses the same card at
    /// `area_ratio`.
    pub card: BjtParams,
    /// Emitter-area ratio of QB to QA (the paper's cell: 8).
    pub area_ratio: f64,
    /// Forced collector (emitter-side) bias current for each device.
    pub bias: Ampere,
    /// Mismatch of QB's bias source relative to QA's (1.0 = matched).
    pub bias_mismatch: f64,
    /// Optional substrate parasitic on both devices (QB's is 8x through
    /// its area).
    pub substrate: Option<SubstrateJunction>,
    /// Additive readout offset on the differential `dVBE` measurement
    /// (op-amp stage offset referred to the output), volts.
    pub readout_offset: Volt,
}

impl PairStructure {
    /// An ideal pair on the given card: matched bias, no parasitics, no
    /// offset.
    #[must_use]
    pub fn ideal(card: BjtParams, bias: Ampere) -> Self {
        PairStructure {
            card,
            area_ratio: 8.0,
            bias,
            bias_mismatch: 1.0,
            substrate: None,
            readout_offset: Volt::new(0.0),
        }
    }

    /// Adds the substrate parasitic.
    #[must_use]
    pub fn with_substrate(mut self, junction: SubstrateJunction) -> Self {
        self.substrate = Some(junction);
        self
    }

    /// Sets the readout offset.
    #[must_use]
    pub fn with_readout_offset(mut self, offset: Volt) -> Self {
        self.readout_offset = offset;
        self
    }

    /// Sets the bias mismatch factor (QB bias = `bias * mismatch`).
    #[must_use]
    pub fn with_bias_mismatch(mut self, mismatch: f64) -> Self {
        self.bias_mismatch = mismatch;
        self
    }

    /// Builds the Fig.-2 netlist: both PNPs diode-connected to ground with
    /// their emitters fed by current sources. Returns the circuit and the
    /// two emitter nodes `(va, vb)`.
    ///
    /// # Errors
    ///
    /// Propagates element validation.
    pub fn build(&self) -> Result<(Circuit, NodeId, NodeId), SpiceError> {
        let mut ckt = Circuit::new();
        let gnd = Circuit::ground();
        let va = ckt.node("va");
        let vb = ckt.node("vb");
        ckt.add(CurrentSource::new("IA", gnd, va, self.bias));
        ckt.add(CurrentSource::new(
            "IB",
            gnd,
            vb,
            Ampere::new(self.bias.value() * self.bias_mismatch),
        ));
        let mut qa = Bjt::new("QA", gnd, gnd, va, Polarity::Pnp, self.card)?;
        let mut qb =
            Bjt::new("QB", gnd, gnd, vb, Polarity::Pnp, self.card)?.with_area(self.area_ratio)?;
        if let Some(j) = self.substrate {
            qa = qa.with_substrate(gnd, j);
            qb = qb.with_substrate(gnd, j);
        }
        ckt.add(qa);
        ckt.add(qb);
        Ok((ckt, va, vb))
    }

    /// Builds the netlist once and bundles it with its validated
    /// [`CircuitAssembly`] and the readout devices, so a temperature sweep
    /// (or the electro-thermal loop's dozens of re-solves) pays the
    /// construction cost a single time.
    ///
    /// # Errors
    ///
    /// Propagates element validation and topology validation.
    pub fn compile(&self) -> Result<CompiledPair, SpiceError> {
        let (circuit, va, vb) = self.build()?;
        let assembly = CircuitAssembly::new(&circuit)?;
        // Readout devices: QA and QB without the substrate parasitic, whose
        // collector currents reconstruct the measured IC.
        let gnd = Circuit::ground();
        let qa = Bjt::new("QA", gnd, gnd, va, Polarity::Pnp, self.card)?;
        let qb =
            Bjt::new("QB", gnd, gnd, vb, Polarity::Pnp, self.card)?.with_area(self.area_ratio)?;
        Ok(CompiledPair {
            structure: self.clone(),
            circuit,
            assembly,
            va,
            vb,
            qa,
            qb,
            warm: Vec::new(),
        })
    }

    /// Solves the structure at one temperature and reads out the pair.
    ///
    /// A one-shot cold [`CompiledPair::measure_at`] with
    /// [`polished_dc_options`]: the same solve every campaign measurement
    /// runs.
    ///
    /// # Errors
    ///
    /// Propagates build and solver failures.
    pub fn measure(&self, temperature: Kelvin) -> Result<PairReading, SpiceError> {
        self.compile()?.measure_at(
            temperature,
            &polished_dc_options(),
            &mut SolveWorkspace::new(),
            false,
        )
    }

    fn reading_from(
        &self,
        vbe_a: Volt,
        vbe_b: Volt,
        qa: &Bjt,
        qb: &Bjt,
        temperature: Kelvin,
    ) -> PairReading {
        let zero = Volt::new(0.0);
        let ic_a = qa.dc_currents(zero, zero, vbe_a, temperature).ic;
        let ic_b = qb.dc_currents(zero, zero, vbe_b, temperature).ic;
        PairReading {
            temperature,
            vbe_a,
            vbe_b,
            dvbe: Volt::new(vbe_a.value() - vbe_b.value() + self.readout_offset.value()),
            // PNP collector current flows out of the collector: magnitude.
            ic_a: Ampere::new(ic_a.value().abs()),
            ic_b: Ampere::new(ic_b.value().abs()),
        }
    }

    /// Total dissipated power of the structure at a solved reading —
    /// feeds the electro-thermal loop.
    #[must_use]
    pub fn power_watts(&self, reading: &PairReading) -> f64 {
        // Each branch drops its emitter voltage across the source.
        self.bias.value() * reading.vbe_a.value().abs()
            + self.bias.value() * self.bias_mismatch * reading.vbe_b.value().abs()
    }
}

/// Solver options of every pair measurement: the circuit defaults plus
/// Newton polishing.
///
/// The defaults stop Newton once the KCL residual is below 1e-9 A, which is
/// 10 % of a 10 nA bias. Polishing runs Newton on to the floating-point
/// fixed point, so the reading no longer depends on where the solve started
/// (see [`icvbe_numerics::newton::NewtonOptions::polish`]) and low-current
/// readings are accurate to the solver's precision.
#[must_use]
pub fn polished_dc_options() -> DcOptions {
    let mut options = DcOptions::default();
    options.newton.polish = true;
    options
}

/// One temperature point of the pair measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairReading {
    /// Die temperature of the solve.
    pub temperature: Kelvin,
    /// `VBE` of the unit device QA.
    pub vbe_a: Volt,
    /// `VBE` of the 8x device QB.
    pub vbe_b: Volt,
    /// Differential reading `VBE(QA) - VBE(QB)` including readout offset.
    pub dvbe: Volt,
    /// Reconstructed collector current of QA (magnitude).
    pub ic_a: Ampere,
    /// Reconstructed collector current of QB (magnitude).
    pub ic_b: Ampere,
}

/// A [`PairStructure`] bound to its built netlist, validated assembly and
/// cached readout devices: the one path every pair measurement solves
/// through. [`PairStructure::measure`] is its one-shot cold use.
///
/// The electro-thermal fixed point re-solves the same circuit dozens of
/// times per setpoint; a compiled pair builds and validates it once, and
/// optionally carries the last converged solution forward as a Newton warm
/// start. With polishing enabled in the solver options (see
/// [`icvbe_numerics::newton::NewtonOptions::polish`]) the returned reading
/// is bitwise independent of whether the warm start was used.
#[derive(Debug)]
pub struct CompiledPair {
    structure: PairStructure,
    circuit: Circuit,
    assembly: CircuitAssembly,
    va: NodeId,
    vb: NodeId,
    qa: Bjt,
    qb: Bjt,
    warm: Vec<f64>,
}

impl CompiledPair {
    /// The configuration this pair was compiled from.
    #[must_use]
    pub fn structure(&self) -> &PairStructure {
        &self.structure
    }

    /// Solves the compiled structure at one temperature and reads out the
    /// pair, drawing all solver storage from `ws`.
    ///
    /// With `warm_start`, Newton is seeded from the last converged
    /// solution of this pair (if any); without it the solve starts cold.
    /// The converged vector is carried forward either way so a later
    /// warm-started call can use it.
    ///
    /// # Errors
    ///
    /// Propagates solver failures.
    pub fn measure_at(
        &mut self,
        temperature: Kelvin,
        options: &DcOptions,
        ws: &mut SolveWorkspace,
        warm_start: bool,
    ) -> Result<PairReading, SpiceError> {
        let initial = if warm_start && !self.warm.is_empty() {
            Some(self.warm.as_slice())
        } else {
            None
        };
        solve_dc_with(
            &self.circuit,
            &self.assembly,
            temperature,
            options,
            initial,
            ws,
        )?;
        let x = ws.solution();
        if self.warm.len() != x.len() {
            self.warm.resize(x.len(), 0.0);
        }
        self.warm.copy_from_slice(x);
        let vbe_a = voltage_of(x, self.va);
        let vbe_b = voltage_of(x, self.vb);
        Ok(self
            .structure
            .reading_from(vbe_a, vbe_b, &self.qa, &self.qb, temperature))
    }
}

fn voltage_of(x: &[f64], node: NodeId) -> Volt {
    match node.unknown_index() {
        Some(i) => Volt::new(x[i]),
        None => Volt::new(0.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::card::st_bicmos_pnp;
    use icvbe_spice::solver::solve_dc;
    use icvbe_units::constants::BOLTZMANN_OVER_Q;

    #[test]
    fn ideal_pair_dvbe_is_ptat() {
        let pair = PairStructure::ideal(st_bicmos_pnp(), Ampere::new(1e-6));
        for t in [248.15, 298.15, 348.15] {
            let t = Kelvin::new(t);
            let r = pair.measure(t).unwrap();
            let ideal = BOLTZMANN_OVER_Q * t.value() * 8.0_f64.ln();
            assert!(
                (r.dvbe.value() - ideal).abs() < 2e-4,
                "dVBE at {t}: {} vs {ideal}",
                r.dvbe.value()
            );
        }
    }

    #[test]
    fn collector_currents_are_close_to_bias() {
        let pair = PairStructure::ideal(st_bicmos_pnp(), Ampere::new(1e-6));
        let r = pair.measure(Kelvin::new(298.15)).unwrap();
        // Base current steals ~1/BF.
        assert!(
            (r.ic_a.value() - 1e-6).abs() / 1e-6 < 0.05,
            "ICA = {}",
            r.ic_a
        );
        assert!(
            (r.ic_b.value() - 1e-6).abs() / 1e-6 < 0.05,
            "ICB = {}",
            r.ic_b
        );
    }

    #[test]
    fn readout_offset_adds_to_dvbe() {
        let base = PairStructure::ideal(st_bicmos_pnp(), Ampere::new(1e-6));
        let offset = base.clone().with_readout_offset(Volt::new(0.004));
        let t = Kelvin::new(298.15);
        let d0 = base.measure(t).unwrap().dvbe.value();
        let d1 = offset.measure(t).unwrap().dvbe.value();
        assert!((d1 - d0 - 0.004).abs() < 1e-12);
    }

    #[test]
    fn substrate_parasitic_perturbs_dvbe_at_high_temperature() {
        let clean = PairStructure::ideal(st_bicmos_pnp(), Ampere::new(1e-6));
        let leaky = clean
            .clone()
            .with_substrate(SubstrateJunction::bicmos_default());
        let hot = Kelvin::new(398.15);
        let d_clean = clean.measure(hot).unwrap().dvbe.value();
        let d_leaky = leaky.measure(hot).unwrap().dvbe.value();
        assert!(
            (d_clean - d_leaky).abs() > 1e-6,
            "parasitic had no effect: {d_clean} vs {d_leaky}"
        );
    }

    #[test]
    fn bias_mismatch_shifts_dvbe() {
        let matched = PairStructure::ideal(st_bicmos_pnp(), Ampere::new(1e-6));
        let skewed = matched.clone().with_bias_mismatch(1.05);
        let t = Kelvin::new(298.15);
        let d0 = matched.measure(t).unwrap().dvbe.value();
        let d1 = skewed.measure(t).unwrap().dvbe.value();
        // QB carrying more current lowers dVBE by ~VT ln(1.05).
        let expected = BOLTZMANN_OVER_Q * t.value() * 1.05_f64.ln();
        assert!(
            ((d0 - d1) - expected).abs() < 2e-4,
            "shift {} vs {expected}",
            d0 - d1
        );
    }

    #[test]
    fn measure_matches_a_tightly_converged_reference_at_every_bias() {
        // `measure` against a full-Newton reference of the same netlist,
        // driven to a 1e-15 A residual, over the paper's C1 current range
        // (Fig. 6) and the campaign corners. VBE is QA's, the one the
        // extraction consumes; QB enters through dVBE. A solve stopped at
        // the default 1e-9 A residual misses by up to 2.3e-2 in dVBE at
        // 10 nA.
        let mut reference_options = DcOptions::default();
        reference_options.newton.residual_tolerance = 1e-15;
        let ideal = |bias| PairStructure::ideal(st_bicmos_pnp(), Ampere::new(bias));
        let (mut worst_dvbe, mut worst_vbe) = (0.0_f64, 0.0_f64);
        for bias in [1e-8, 1e-7, 0.5e-6, 1e-6, 2e-6, 1e-5] {
            let leaky = ideal(bias).with_substrate(SubstrateJunction::bicmos_default());
            for pair in [ideal(bias), leaky] {
                let (ckt, va, vb) = pair.build().unwrap();
                for i in 0..8 {
                    let t = Kelvin::new(223.15 + 25.0 * f64::from(i));
                    let got = pair.measure(t).unwrap();
                    let op = solve_dc(&ckt, t, &reference_options, None).unwrap();
                    let (vbe_a, vbe_b) = (op.voltage(va).value(), op.voltage(vb).value());
                    let rel = |a: f64, b: f64| ((a - b) / b).abs();
                    worst_dvbe = worst_dvbe.max(rel(got.dvbe.value(), vbe_a - vbe_b));
                    worst_vbe = worst_vbe.max(rel(got.vbe_a.value(), vbe_a));
                }
            }
        }
        assert!(worst_dvbe < 1e-6, "dVBE off by {worst_dvbe:e} relative");
        assert!(worst_vbe < 1e-8, "VBE off by {worst_vbe:e} relative");
    }

    #[test]
    fn warm_start_with_polish_is_bit_identical_to_cold() {
        let pair = PairStructure::ideal(st_bicmos_pnp(), Ampere::new(1e-6));
        let opts = polished_dc_options();

        // Cold pass: every solve from zeros.
        let mut cold_pair = pair.compile().unwrap();
        let mut ws = SolveWorkspace::new();
        let temps: Vec<Kelvin> = (0..9)
            .map(|i| Kelvin::new(248.15 + 12.5 * i as f64))
            .collect();
        let cold: Vec<PairReading> = temps
            .iter()
            .map(|&t| cold_pair.measure_at(t, &opts, &mut ws, false).unwrap())
            .collect();

        // Warm pass: each solve seeded from the previous converged point.
        let mut warm_pair = pair.compile().unwrap();
        let warm: Vec<PairReading> = temps
            .iter()
            .map(|&t| warm_pair.measure_at(t, &opts, &mut ws, true).unwrap())
            .collect();

        assert_eq!(cold, warm, "polish must erase the seed dependence");
        // And the warm pass must actually have warm-started.
        assert!(ws.stats.warm_starts >= (temps.len() - 1) as u64);
    }

    #[test]
    fn compiled_pair_is_a_two_unknown_system() {
        // The two emitter nodes are the only unknowns, with or without the
        // substrate parasitic: the premise of the solver's single dense LU
        // path (DESIGN.md §10).
        let ideal = PairStructure::ideal(st_bicmos_pnp(), Ampere::new(1e-6));
        let leaky = ideal
            .clone()
            .with_substrate(SubstrateJunction::bicmos_default());
        for pair in [ideal, leaky] {
            assert_eq!(pair.compile().unwrap().assembly.dimension(), 2);
        }
    }

    #[test]
    fn power_is_microwatt_scale() {
        let pair = PairStructure::ideal(st_bicmos_pnp(), Ampere::new(1e-6));
        let r = pair.measure(Kelvin::new(298.15)).unwrap();
        let p = pair.power_watts(&r);
        assert!(p > 1e-7 && p < 1e-5, "power {p}");
    }
}
