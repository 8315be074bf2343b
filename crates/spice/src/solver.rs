//! DC operating-point solver: Newton with gmin and source stepping.

use icvbe_numerics::newton::NewtonOptions;
use icvbe_units::{Ampere, Kelvin, Volt};

use crate::netlist::{Circuit, NodeId};
use crate::system::CircuitAssembly;
use crate::workspace::{solve_dc_with, SolveWorkspace};
use crate::SpiceError;

/// Options controlling the DC solve and its continuation fallbacks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DcOptions {
    /// Inner Newton options.
    pub newton: NewtonOptions,
    /// Residual gmin left in place in the final solve (0 disables).
    pub gmin_floor: f64,
    /// Largest gmin used by the continuation ladder.
    pub gmin_start: f64,
    /// Number of source-stepping ramp points in the last-resort strategy.
    pub source_steps: usize,
}

impl Default for DcOptions {
    fn default() -> Self {
        // Residuals are KCL currents; 1e-9 A is far below any signal
        // current in the workloads while staying reachable in f64 for
        // microamp-scale circuits. The acceptable-residual escape hatch
        // tolerates a stagnated solve at up to 100 nA of KCL mismatch.
        let newton = NewtonOptions {
            residual_tolerance: 1e-9,
            acceptable_residual: 1e-7,
            max_iterations: 300,
            ..NewtonOptions::default()
        };
        DcOptions {
            newton,
            gmin_floor: 1e-12,
            gmin_start: 1e-3,
            source_steps: 10,
        }
    }
}

/// A converged DC operating point.
#[derive(Debug, Clone, PartialEq)]
pub struct OperatingPoint {
    x: Vec<f64>,
    node_count: usize,
    branch_bases: Vec<usize>,
    temperature: Kelvin,
    /// Newton iterations spent across all continuation stages.
    pub iterations: usize,
}

impl OperatingPoint {
    /// Builds an operating point from solver-internal parts (the sweep
    /// drivers reuse one assembly and workspace across points).
    pub(crate) fn from_parts(
        x: Vec<f64>,
        assembly: &CircuitAssembly,
        temperature: Kelvin,
        iterations: usize,
    ) -> Self {
        OperatingPoint {
            x,
            node_count: assembly.node_count(),
            branch_bases: assembly.branch_bases().to_vec(),
            temperature,
            iterations,
        }
    }

    /// Voltage of a node.
    #[must_use]
    pub fn voltage(&self, node: NodeId) -> Volt {
        match node.unknown_index() {
            Some(i) => Volt::new(self.x[i]),
            None => Volt::new(0.0),
        }
    }

    /// Branch current `k` of element `element_index` (e.g. the current
    /// through a voltage source or op-amp output).
    ///
    /// # Panics
    ///
    /// Panics if the element has no `k`-th branch.
    #[must_use]
    pub fn branch_current(&self, element_index: usize, k: usize) -> Ampere {
        Ampere::new(self.x[self.node_count + self.branch_bases[element_index] + k])
    }

    /// The raw solution vector (node voltages then branch currents) —
    /// useful as a warm start for a neighbouring solve.
    #[must_use]
    pub fn solution(&self) -> &[f64] {
        &self.x
    }

    /// Temperature the point was solved at.
    #[must_use]
    pub fn temperature(&self) -> Kelvin {
        self.temperature
    }
}

/// Solves the DC operating point of `circuit` at `temperature`.
///
/// Strategy: plain Newton from `initial` (or all zeros); on failure, a
/// gmin-continuation ladder from `gmin_start` down to `gmin_floor`; on
/// failure, source stepping at an intermediate gmin followed by the ladder.
///
/// # Errors
///
/// - Propagates [`Circuit::validate`] topology errors.
/// - [`SpiceError::LadderExhausted`] if every rung of the escalation
///   ladder fails.
pub fn solve_dc(
    circuit: &Circuit,
    temperature: Kelvin,
    options: &DcOptions,
    initial: Option<&[f64]>,
) -> Result<OperatingPoint, SpiceError> {
    let assembly = CircuitAssembly::new(circuit)?;
    let mut ws = SolveWorkspace::new();
    let info = solve_dc_with(circuit, &assembly, temperature, options, initial, &mut ws)?;
    Ok(OperatingPoint {
        x: ws.solution().to_vec(),
        node_count: assembly.node_count(),
        branch_bases: assembly.branch_bases().to_vec(),
        temperature,
        iterations: info.iterations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bjt::{Bjt, BjtParams, Polarity};
    use crate::element::{CurrentSource, OpAmp, Resistor, VoltageSource};
    use crate::netlist::Circuit;
    use icvbe_units::Ohm;

    #[test]
    fn resistive_divider_solves_exactly() {
        let mut c = Circuit::new();
        let vcc = c.node("vcc");
        let out = c.node("out");
        c.add(VoltageSource::new(
            "V1",
            vcc,
            Circuit::ground(),
            Volt::new(2.0),
        ));
        c.add(Resistor::new("R1", vcc, out, Ohm::new(1e3)).unwrap());
        c.add(Resistor::new("R2", out, Circuit::ground(), Ohm::new(3e3)).unwrap());
        let op = solve_dc(&c, Kelvin::new(300.0), &DcOptions::default(), None).unwrap();
        assert!((op.voltage(out).value() - 1.5).abs() < 1e-6);
        // Source current = -2/(4k) = -0.5 mA.
        assert!((op.branch_current(0, 0).value() + 5e-4).abs() < 1e-9);
    }

    #[test]
    fn diode_connected_bjt_biased_by_current_source() {
        let mut c = Circuit::new();
        let b = c.node("vbe");
        c.add(CurrentSource::new(
            "Ibias",
            Circuit::ground(),
            b,
            Ampere::new(1e-6),
        ));
        let q = Bjt::new(
            "Q1",
            b,
            b,
            Circuit::ground(),
            Polarity::Npn,
            BjtParams::default_npn(),
        )
        .unwrap();
        c.add(q);
        let op = solve_dc(&c, Kelvin::new(298.15), &DcOptions::default(), None).unwrap();
        let vbe = op.voltage(b).value();
        assert!(vbe > 0.5 && vbe < 0.7, "VBE = {vbe}");
    }

    #[test]
    fn opamp_follower_tracks_input() {
        let mut c = Circuit::new();
        let inp = c.node("in");
        let out = c.node("out");
        c.add(VoltageSource::new(
            "Vin",
            inp,
            Circuit::ground(),
            Volt::new(0.8),
        ));
        // Unity follower: out fed back to the inverting input.
        c.add(OpAmp::new("U1", inp, out, out, 1e6).unwrap());
        // Load so `out` is not dangling for validation.
        c.add(Resistor::new("RL", out, Circuit::ground(), Ohm::new(10e3)).unwrap());
        let op = solve_dc(&c, Kelvin::new(300.0), &DcOptions::default(), None).unwrap();
        assert!((op.voltage(out).value() - 0.8).abs() < 1e-5);
    }

    #[test]
    fn opamp_offset_shifts_output() {
        let mut c = Circuit::new();
        let inp = c.node("in");
        let out = c.node("out");
        c.add(VoltageSource::new(
            "Vin",
            inp,
            Circuit::ground(),
            Volt::new(0.5),
        ));
        c.add(
            OpAmp::new("U1", inp, out, out, 1e6)
                .unwrap()
                .with_offset(Volt::new(0.01)),
        );
        c.add(Resistor::new("RL", out, Circuit::ground(), Ohm::new(10e3)).unwrap());
        let op = solve_dc(&c, Kelvin::new(300.0), &DcOptions::default(), None).unwrap();
        assert!((op.voltage(out).value() - 0.51).abs() < 1e-5);
    }

    #[test]
    fn warm_start_is_accepted() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.add(VoltageSource::new(
            "V1",
            a,
            Circuit::ground(),
            Volt::new(1.0),
        ));
        c.add(Resistor::new("R1", a, Circuit::ground(), Ohm::new(1e3)).unwrap());
        let op1 = solve_dc(&c, Kelvin::new(300.0), &DcOptions::default(), None).unwrap();
        let op2 = solve_dc(
            &c,
            Kelvin::new(300.0),
            &DcOptions::default(),
            Some(op1.solution()),
        )
        .unwrap();
        assert!((op2.voltage(a).value() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn invalid_topology_is_rejected() {
        let c = Circuit::new();
        assert!(solve_dc(&c, Kelvin::new(300.0), &DcOptions::default(), None).is_err());
    }

    #[test]
    fn two_bjt_ptat_cell_solves() {
        // The Fig.-2 core: two PNPs at equal forced current, dVBE is PTAT.
        let mut c = Circuit::new();
        let va = c.node("va");
        let vb = c.node("vb");
        let gnd = Circuit::ground();
        c.add(CurrentSource::new("Ia", gnd, va, Ampere::new(1e-6)));
        c.add(CurrentSource::new("Ib", gnd, vb, Ampere::new(1e-6)));
        let qa = Bjt::new("QA", gnd, gnd, va, Polarity::Pnp, BjtParams::default_npn()).unwrap();
        let qb = Bjt::new("QB", gnd, gnd, vb, Polarity::Pnp, BjtParams::default_npn())
            .unwrap()
            .with_area(8.0)
            .unwrap();
        c.add(qa);
        c.add(qb);
        let t = Kelvin::new(298.15);
        let op = solve_dc(&c, t, &DcOptions::default(), None).unwrap();
        let dvbe = op.voltage(va).value() - op.voltage(vb).value();
        let expected = 8.617e-5 * t.value() * 8.0_f64.ln();
        assert!(
            (dvbe - expected).abs() < 5e-5,
            "dVBE = {dvbe} vs {expected}"
        );
    }
}
