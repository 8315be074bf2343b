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
use icvbe_spice::solver::{solve_dc, DcOptions, OperatingPoint};
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
        // Readout devices: same construction as `read` performs per call.
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
            has_warm: false,
        })
    }

    /// Solves the structure at one temperature and reads out the pair.
    ///
    /// # Errors
    ///
    /// Propagates build and solver failures.
    pub fn measure(&self, temperature: Kelvin) -> Result<PairReading, SpiceError> {
        self.measure_with_options(temperature, &DcOptions::default())
    }

    /// [`PairStructure::measure`] with explicit solver options.
    ///
    /// # Errors
    ///
    /// Propagates build and solver failures.
    pub fn measure_with_options(
        &self,
        temperature: Kelvin,
        options: &DcOptions,
    ) -> Result<PairReading, SpiceError> {
        let (ckt, va, vb) = self.build()?;
        let op = solve_dc(&ckt, temperature, options, None)?;
        self.read(&op, va, vb, temperature)
    }

    fn read(
        &self,
        op: &OperatingPoint,
        va: NodeId,
        vb: NodeId,
        temperature: Kelvin,
    ) -> Result<PairReading, SpiceError> {
        let vbe_a = op.voltage(va);
        let vbe_b = op.voltage(vb);
        // Collector currents: bias minus base current minus substrate
        // leakage; reconstruct from the device equations at the solved
        // voltages. The card and ratio were validated at construction, so
        // these rebuilds cannot fail in practice — but propagate rather
        // than panic if that invariant ever breaks.
        let qa = Bjt::new(
            "QA",
            Circuit::ground(),
            Circuit::ground(),
            va,
            Polarity::Pnp,
            self.card,
        )?;
        let qb = Bjt::new(
            "QB",
            Circuit::ground(),
            Circuit::ground(),
            vb,
            Polarity::Pnp,
            self.card,
        )?
        .with_area(self.area_ratio)?;
        Ok(self.reading_from(vbe_a, vbe_b, &qa, &qb, temperature))
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
/// cached readout devices — the hot-path form of [`PairStructure::measure`].
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
    has_warm: bool,
}

impl CompiledPair {
    /// The configuration this pair was compiled from.
    #[must_use]
    pub fn structure(&self) -> &PairStructure {
        &self.structure
    }

    /// Forgets the carried solution; the next solve starts cold.
    pub fn reset_warm(&mut self) {
        self.has_warm = false;
    }

    /// Installs a process-wide symbolic-LU plan cache on this pair's
    /// assembly (see
    /// [`CircuitAssembly::set_symbolic_cache`]): structurally identical
    /// pairs compiled on any thread then share one elimination analysis.
    /// Results are bit-identical with or without the cache.
    pub fn use_symbolic_cache(&mut self, cache: std::sync::Arc<icvbe_spice::cache::SymbolicCache>) {
        self.assembly.set_symbolic_cache(cache);
    }

    /// Solves the compiled structure at one temperature and reads out the
    /// pair, drawing all solver storage from `ws`.
    ///
    /// With `warm_start`, Newton is seeded from the last converged
    /// solution of this pair (if any); the converged vector is carried
    /// forward either way so a later warm-started call can use it.
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
        let initial = if warm_start && self.has_warm {
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
        self.has_warm = true;
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
    fn compiled_cold_measure_matches_one_shot_bitwise() {
        let pair = PairStructure::ideal(st_bicmos_pnp(), Ampere::new(1e-6));
        let mut compiled = pair.compile().unwrap();
        let mut ws = SolveWorkspace::new();
        let opts = DcOptions::default();
        for t in [248.15, 298.15, 348.15] {
            let t = Kelvin::new(t);
            let one_shot = pair.measure_with_options(t, &opts).unwrap();
            compiled.reset_warm();
            let reused = compiled.measure_at(t, &opts, &mut ws, false).unwrap();
            assert_eq!(one_shot, reused, "at {t}");
        }
    }

    #[test]
    fn warm_start_with_polish_is_bit_identical_to_cold() {
        let pair = PairStructure::ideal(st_bicmos_pnp(), Ampere::new(1e-6));
        let mut opts = DcOptions::default();
        opts.newton.polish = true;

        // Cold pass: every solve from zeros.
        let mut cold_pair = pair.compile().unwrap();
        let mut ws = SolveWorkspace::new();
        let temps: Vec<Kelvin> = (0..9)
            .map(|i| Kelvin::new(248.15 + 12.5 * i as f64))
            .collect();
        let cold: Vec<PairReading> = temps
            .iter()
            .map(|&t| {
                cold_pair.reset_warm();
                cold_pair.measure_at(t, &opts, &mut ws, false).unwrap()
            })
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
    fn power_is_microwatt_scale() {
        let pair = PairStructure::ideal(st_bicmos_pnp(), Ampere::new(1e-6));
        let r = pair.measure(Kelvin::new(298.15)).unwrap();
        let p = pair.power_watts(&r);
        assert!(p > 1e-7 && p < 1e-5, "power {p}");
    }
}
