//! Campaign orchestration: the full measurement chain from chamber
//! setpoint to extraction-ready data.
//!
//! For every setpoint the bench:
//!
//! 1. soaks the chamber (ambient = setpoint + controller offset),
//! 2. solves the electro-thermal fixed point — the pair structure plus the
//!    rest of the die dissipate power through the package, so the junction
//!    runs above ambient,
//! 3. solves the circuit at the *junction* temperature,
//! 4. reads the Pt100 (which sees the case, not the junction) and the SMU
//!    channels (which see noise, gain error and quantization).
//!
//! The output is exactly what the paper's extraction consumed: sensor
//! temperatures, `VBE`/`dVBE` readings and bias currents — with the die
//! truth retained alongside for validation.

use std::error::Error;
use std::fmt;

use icvbe_bandgap::pair::{polished_dc_options, CompiledPair};
use icvbe_core::meijer::{MeijerMeasurement, MeijerPoint};
use icvbe_spice::solver::DcOptions;
use icvbe_spice::workspace::{SolveStats, SolveWorkspace};
use icvbe_thermal::chamber::ThermalChamber;
use icvbe_thermal::network::ThermalPath;
use icvbe_thermal::selfheat::solve_die_temperature;
use icvbe_thermal::ThermalError;
use icvbe_units::{Ampere, Celsius, Kelvin, Volt};

use crate::montecarlo::DieSample;
use crate::pt100::Pt100Sensor;
use crate::smu::VirtualSmu;

/// Error produced by a measurement campaign.
#[derive(Debug)]
#[non_exhaustive]
pub enum BenchError {
    /// The circuit solver failed at some setpoint.
    Circuit(icvbe_spice::SpiceError),
    /// The electro-thermal fixed point failed.
    Thermal(ThermalError),
}

impl fmt::Display for BenchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BenchError::Circuit(e) => write!(f, "circuit solve failed: {e}"),
            BenchError::Thermal(e) => write!(f, "thermal solve failed: {e}"),
        }
    }
}

impl Error for BenchError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            BenchError::Circuit(e) => Some(e),
            BenchError::Thermal(e) => Some(e),
        }
    }
}

#[doc(hidden)]
impl From<icvbe_spice::SpiceError> for BenchError {
    fn from(e: icvbe_spice::SpiceError) -> Self {
        BenchError::Circuit(e)
    }
}

#[doc(hidden)]
impl From<ThermalError> for BenchError {
    fn from(e: ThermalError) -> Self {
        BenchError::Thermal(e)
    }
}

/// One measured setpoint of the pair structure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairCampaignPoint {
    /// Chamber setpoint.
    pub setpoint: Kelvin,
    /// What the Pt100 reported (the paper's "measured temperature").
    pub sensor_temperature: Kelvin,
    /// Ground-truth junction temperature (not available to a real bench).
    pub die_temperature: Kelvin,
    /// SMU reading of `VBE(QA)`.
    pub vbe_a: Volt,
    /// SMU reading of `VBE(QB)`.
    pub vbe_b: Volt,
    /// SMU reading of the differential `dVBE` (includes the readout-chain
    /// offset of the die sample).
    pub dvbe: Volt,
    /// SMU reading of QA's collector current.
    pub ic_a: Ampere,
    /// SMU reading of QB's collector current.
    pub ic_b: Ampere,
}

/// How the compiled measurement path drives the circuit solver.
///
/// There is one mode: every circuit solve after a pair's first is
/// warm-started.
/// The type has no fields and stays only because
/// [`TestStructureBench::run_pair_campaign_with`] and
/// [`TestStructureBench::campaign_dc_options_with`] take it, and callers
/// outside the workspace compile against those signatures.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveMode;

/// Per-thread scratch for the warm measurement path: solver buffers plus
/// iteration counters.
///
/// One scratch serves any number of dies sequentially; nothing in it
/// affects results, only speed and observability. The embedded
/// [`SolveStats`] and the self-heating counter let the campaign layer
/// report Newton iteration counts and warm-start hit rates without
/// re-plumbing every call site.
#[derive(Debug, Default)]
pub struct BenchScratch {
    /// Circuit solver workspace (Newton/LU buffers + solve statistics).
    pub solve: SolveWorkspace,
    /// Electro-thermal fixed-point iterations accumulated.
    pub selfheat_iterations: u64,
}

impl BenchScratch {
    /// An empty scratch.
    #[must_use]
    pub fn new() -> Self {
        BenchScratch::default()
    }

    /// Returns and resets the accumulated `(solve stats, self-heating
    /// iterations)`.
    pub fn take_counters(&mut self) -> (SolveStats, u64) {
        let stats = self.solve.stats.take();
        let selfheat = std::mem::take(&mut self.selfheat_iterations);
        (stats, selfheat)
    }
}

/// The virtual bench: thermal environment plus instruments.
#[derive(Debug)]
pub struct TestStructureBench {
    /// Junction-to-ambient path of the packaged die (scaled per sample).
    pub path: ThermalPath,
    /// Power dissipated by the rest of the die (other structures, the
    /// bias network, the output stage driving the pads), in watts. Treated
    /// as temperature-independent: the chip runs from a fixed supply.
    pub auxiliary_power_watts: f64,
    /// The parameter analyser.
    pub smu: VirtualSmu,
    /// The contact temperature sensor.
    pub sensor: Pt100Sensor,
    /// Chamber controller steady-state offset, kelvin.
    pub chamber_offset: f64,
}

impl TestStructureBench {
    /// The paper's bench: ceramic package in a hermetic partition,
    /// HP4156-class SMU, Pt100 sensor.
    #[must_use]
    pub fn paper_bench(seed: u64) -> Self {
        TestStructureBench {
            // A small ceramic package in the still air of the hermetic
            // partition: higher case-to-ambient resistance than a bench in
            // free air.
            path: ThermalPath::still_air_dip(),
            auxiliary_power_watts: 200e-3,
            smu: VirtualSmu::hp4156_class(seed),
            sensor: Pt100Sensor::paper_bench(seed.wrapping_add(1)),
            chamber_offset: 0.0,
        }
    }

    /// An idealized bench: no self-heating, perfect instruments. Useful to
    /// isolate the effect of any single imperfection.
    #[must_use]
    pub fn ideal(seed: u64) -> Self {
        TestStructureBench {
            path: ThermalPath::ideal(),
            auxiliary_power_watts: 0.0,
            smu: VirtualSmu::ideal(seed),
            sensor: Pt100Sensor::ideal(seed.wrapping_add(1)),
            chamber_offset: 0.0,
        }
    }

    /// Runs a full setpoint sweep on one die: the compiled, warm-started
    /// sweep of [`TestStructureBench::run_pair_campaign_with`] with fresh
    /// scratch and output buffers.
    ///
    /// # Errors
    ///
    /// Propagates the first failing setpoint.
    pub fn run_pair_campaign(
        &mut self,
        sample: &DieSample,
        bias: Ampere,
        setpoints: &[Celsius],
    ) -> Result<Vec<PairCampaignPoint>, BenchError> {
        let mut out = Vec::with_capacity(setpoints.len());
        self.sweep_compiled(
            sample,
            bias,
            setpoints,
            &mut BenchScratch::new(),
            &mut out,
            true,
        )?;
        Ok(out)
    }

    /// Solver options every pair measurement runs with:
    /// [`polished_dc_options`], whose Newton polishing makes each solve's
    /// result bitwise independent of its starting point — the property
    /// that lets warm-started sweeps reproduce cold-started ones exactly.
    #[must_use]
    pub fn campaign_dc_options_with(_mode: SolveMode) -> DcOptions {
        polished_dc_options()
    }

    /// [`TestStructureBench::run_pair_campaign`] on caller-owned buffers:
    /// the circuit is compiled once for the whole sweep, the thermal path
    /// is scaled once, solver storage comes from `scratch`, and results
    /// are appended to the caller's `out` buffer (cleared first).
    ///
    /// Every circuit solve after the first is seeded from the previous
    /// converged solution — across self-heating iterations *and* across
    /// setpoints. Solves run with
    /// [`TestStructureBench::campaign_dc_options_with`], whose Newton
    /// polishing makes the measured points bit-identical to cold-started
    /// solves; only the iteration counters differ.
    ///
    /// # Errors
    ///
    /// Propagates the first failing setpoint.
    pub fn run_pair_campaign_with(
        &mut self,
        sample: &DieSample,
        bias: Ampere,
        setpoints: &[Celsius],
        scratch: &mut BenchScratch,
        out: &mut Vec<PairCampaignPoint>,
        _mode: SolveMode,
    ) -> Result<(), BenchError> {
        self.sweep_compiled(sample, bias, setpoints, scratch, out, true)
    }

    /// The compiled sweep behind [`TestStructureBench::run_pair_campaign`]
    /// and [`TestStructureBench::run_pair_campaign_with`];
    /// `warm_start: false` is the cold oracle the tests compare the warm
    /// path against.
    fn sweep_compiled(
        &mut self,
        sample: &DieSample,
        bias: Ampere,
        setpoints: &[Celsius],
        scratch: &mut BenchScratch,
        out: &mut Vec<PairCampaignPoint>,
        warm_start: bool,
    ) -> Result<(), BenchError> {
        out.clear();
        let mut compiled = sample.pair_structure(bias).compile()?;
        let path = self.path.scaled(sample.rth_scale)?;
        let options = TestStructureBench::campaign_dc_options_with(SolveMode);
        for &setpoint in setpoints {
            let point = self.measure_compiled_at(
                &mut compiled,
                &path,
                setpoint,
                &options,
                scratch,
                warm_start,
            )?;
            out.push(point);
        }
        Ok(())
    }

    /// One setpoint of the compiled sweep; see
    /// [`TestStructureBench::run_pair_campaign_with`].
    fn measure_compiled_at(
        &mut self,
        compiled: &mut CompiledPair,
        path: &ThermalPath,
        setpoint: Celsius,
        options: &DcOptions,
        scratch: &mut BenchScratch,
        warm_start: bool,
    ) -> Result<PairCampaignPoint, BenchError> {
        let chamber = ThermalChamber::new(setpoint.to_kelvin(), self.chamber_offset);
        let ambient = chamber.ambient();
        let aux = self.auxiliary_power_watts;

        // The thermal trajectory starts at ambient in both warm and cold
        // modes: seeding it would change the rounding of the converged die
        // temperature and break warm/cold bit-identity. Warm starts only
        // seed Newton inside the power closure, where polishing erases
        // their trace.
        let die = {
            let solve = &mut scratch.solve;
            solve_die_temperature(
                ambient,
                path,
                |t| {
                    let p_pair = compiled
                        .measure_at(t, options, solve, warm_start)
                        .map(|r| compiled.structure().power_watts(&r))
                        .unwrap_or(0.0);
                    p_pair + aux
                },
                1e-4,
                60,
            )?
        };
        scratch.selfheat_iterations += die.iterations as u64;

        let reading =
            compiled.measure_at(die.temperature, options, &mut scratch.solve, warm_start)?;
        let case = chamber.sensor_reading(path, die.power_watts);
        let sensor_temperature = self.sensor.read(case);

        Ok(PairCampaignPoint {
            setpoint: setpoint.to_kelvin(),
            sensor_temperature,
            die_temperature: die.temperature,
            vbe_a: self.smu.measure_voltage(reading.vbe_a),
            vbe_b: self.smu.measure_voltage(reading.vbe_b),
            dvbe: self.smu.measure_voltage(reading.dvbe),
            ic_a: self.smu.measure_current(reading.ic_a),
            ic_b: self.smu.measure_current(reading.ic_b),
        })
    }

    /// Assembles the analytical-method measurement from three campaign
    /// points, using the given temperatures (sensor-read or
    /// dVBE-computed) for cold/reference/hot.
    #[must_use]
    pub fn meijer_from_points(
        points: [&PairCampaignPoint; 3],
        temperatures: [Kelvin; 3],
    ) -> MeijerMeasurement {
        let mk = |p: &PairCampaignPoint, t: Kelvin| MeijerPoint {
            temperature: t,
            vbe: p.vbe_a,
            ic: p.ic_a,
        };
        MeijerMeasurement {
            cold: mk(points[0], temperatures[0]),
            reference: mk(points[1], temperatures[1]),
            hot: mk(points[2], temperatures[2]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::montecarlo::SampleFactory;

    #[test]
    fn ideal_bench_reports_truth() {
        let mut bench = TestStructureBench::ideal(0);
        let sample = DieSample::nominal(0);
        let p = bench
            .run_pair_campaign(&sample, Ampere::new(1e-6), &[Celsius::new(25.0)])
            .unwrap()[0];
        assert!((p.die_temperature.value() - 298.15).abs() < 1e-9);
        assert!((p.sensor_temperature.value() - 298.15).abs() < 1e-9);
        assert!(p.dvbe.value() > 0.04 && p.dvbe.value() < 0.07);
    }

    #[test]
    fn paper_bench_die_runs_above_sensor() {
        let mut bench = TestStructureBench::paper_bench(2002);
        let sample = DieSample::nominal(0);
        let p = bench
            .run_pair_campaign(&sample, Ampere::new(1e-6), &[Celsius::new(25.0)])
            .unwrap()[0];
        assert!(
            p.die_temperature.value() > p.sensor_temperature.value(),
            "die {} vs sensor {}",
            p.die_temperature,
            p.sensor_temperature
        );
        // Self-heating magnitude: the full powered die runs tens of kelvin
        // above ambient through the still-air package path.
        let dt = p.die_temperature.value() - p.setpoint.value();
        assert!(dt > 5.0 && dt < 60.0, "self-heating {dt} K");
    }

    #[test]
    fn campaign_covers_every_setpoint() {
        let mut bench = TestStructureBench::paper_bench(1);
        let sample = SampleFactory::seeded(5).draw(1);
        let setpoints: Vec<Celsius> = [-25.0, 25.0, 75.0].map(Celsius::new).to_vec();
        let pts = bench
            .run_pair_campaign(&sample, Ampere::new(1e-6), &setpoints)
            .unwrap();
        assert_eq!(pts.len(), 3);
        assert!(pts
            .windows(2)
            .all(|w| w[0].dvbe.value() < w[1].dvbe.value()));
    }

    #[test]
    fn warm_and_cold_campaigns_are_bit_identical() {
        let setpoints: Vec<Celsius> = [-25.0, 25.0, 75.0].map(Celsius::new).to_vec();
        let sample = SampleFactory::seeded(7).draw(3);

        let mut cold_bench = TestStructureBench::paper_bench(11);
        let mut cold_scratch = BenchScratch::new();
        let mut cold_points = Vec::new();
        cold_bench
            .sweep_compiled(
                &sample,
                Ampere::new(1e-6),
                &setpoints,
                &mut cold_scratch,
                &mut cold_points,
                false,
            )
            .unwrap();

        let mut warm_bench = TestStructureBench::paper_bench(11);
        let mut warm_scratch = BenchScratch::new();
        let mut warm_points = Vec::new();
        warm_bench
            .run_pair_campaign_with(
                &sample,
                Ampere::new(1e-6),
                &setpoints,
                &mut warm_scratch,
                &mut warm_points,
                SolveMode,
            )
            .unwrap();

        assert_eq!(cold_points, warm_points);
        let (cold_stats, cold_selfheat) = cold_scratch.take_counters();
        let (warm_stats, warm_selfheat) = warm_scratch.take_counters();
        // Identical physics, fewer Newton iterations.
        assert_eq!(cold_selfheat, warm_selfheat);
        assert_eq!(cold_stats.solves, warm_stats.solves);
        assert_eq!(cold_stats.warm_starts, 0);
        assert!(warm_stats.warm_starts >= warm_stats.solves - 1);
        assert!(
            warm_stats.newton_iterations < cold_stats.newton_iterations,
            "warm {} vs cold {} Newton iterations",
            warm_stats.newton_iterations,
            cold_stats.newton_iterations
        );
    }

    #[test]
    fn meijer_assembly_uses_given_temperatures() {
        let mut bench = TestStructureBench::ideal(3);
        let sample = DieSample::nominal(0);
        let pts = bench
            .run_pair_campaign(
                &sample,
                Ampere::new(1e-6),
                &[Celsius::new(-25.0), Celsius::new(25.0), Celsius::new(75.0)],
            )
            .unwrap();
        let m = TestStructureBench::meijer_from_points(
            [&pts[0], &pts[1], &pts[2]],
            [
                Kelvin::new(248.15),
                Kelvin::new(298.15),
                Kelvin::new(348.15),
            ],
        );
        assert!(m.validate().is_ok());
        assert_eq!(m.reference.temperature.value(), 298.15);
    }
}
