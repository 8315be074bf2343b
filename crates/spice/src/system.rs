//! Assembly of a [`Circuit`] into the nonlinear MNA system the Newton
//! solver consumes.
//!
//! Two stamping regimes share one arithmetic contract. A *cold* system
//! ([`CircuitSystem::new`] / [`CircuitSystem::with_assembly`]) stamps every
//! element with no memory between calls — the reference path. A *hot*
//! system (the solver's internal path) runs the same dense stamping pass
//! but attaches the assembly's per-element device caches, so a BJT reuses
//! its temperature-mapped model card and any junction evaluation at an
//! unchanged `(VBE, VBC)`. A reused evaluation is the evaluation itself, so
//! hot and cold passes produce bitwise identical residuals and Jacobians.

use std::cell::RefCell;

use icvbe_numerics::newton::NonlinearSystem;
use icvbe_numerics::{Matrix, NumericsError};

use crate::netlist::Circuit;
use crate::stamp::{DeviceSlot, EvalContext, StampContext, StampCounters, StampEffort};
use crate::SpiceError;

/// The solve-invariant part of a circuit binding: unknown layout plus the
/// Jacobian residual scratch.
///
/// Everything here depends only on the circuit *topology*, not on
/// temperature, gmin or source scale — so one assembly can back thousands
/// of solves (a whole campaign die, or a worker thread's lifetime) without
/// recomputing branch offsets or reallocating scratch. Holds a `RefCell`
/// scratch buffer, so an assembly is per-thread, not shared across threads.
#[derive(Debug)]
pub struct CircuitAssembly {
    /// First branch index of each element (parallel to `circuit.elements()`).
    branch_bases: Vec<usize>,
    node_count: usize,
    dimension: usize,
    /// Residual accumulator for Jacobian-only stamping passes.
    jac_scratch: RefCell<Vec<f64>>,
    /// Per-element device caches (model + evaluation reuse), persistent
    /// across the solves backed by this assembly.
    device_slots: RefCell<Vec<DeviceSlot>>,
    /// Stamping-effort counters, drained per solve into the solve stats.
    counters: StampCounters,
}

impl CircuitAssembly {
    /// Validates the circuit topology and computes the unknown layout.
    ///
    /// # Errors
    ///
    /// Propagates [`Circuit::validate`] errors — hoisting validation here
    /// is what lets the per-solve hot path skip it.
    pub fn new(circuit: &Circuit) -> Result<Self, SpiceError> {
        circuit.validate()?;
        Ok(CircuitAssembly::new_unchecked(circuit))
    }

    /// Computes the unknown layout without validating the topology.
    #[must_use]
    pub fn new_unchecked(circuit: &Circuit) -> Self {
        let mut branch_bases = Vec::with_capacity(circuit.elements().len());
        let mut next = 0usize;
        for e in circuit.elements() {
            branch_bases.push(next);
            next += e.branch_count();
        }
        let node_count = circuit.node_count();
        let element_count = circuit.elements().len();
        CircuitAssembly {
            branch_bases,
            node_count,
            dimension: node_count + next,
            jac_scratch: RefCell::new(vec![0.0; node_count + next]),
            device_slots: RefCell::new(vec![DeviceSlot::default(); element_count]),
            counters: StampCounters::default(),
        }
    }

    /// Returns and resets the stamping-effort counters accumulated since
    /// the last call.
    pub fn take_stamp_effort(&self) -> StampEffort {
        self.counters.take()
    }

    /// Total number of unknowns (node voltages plus branch currents).
    #[must_use]
    pub fn dimension(&self) -> usize {
        self.dimension
    }

    /// Number of node-voltage unknowns.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// First branch index of each element, parallel to the element list.
    #[must_use]
    pub fn branch_bases(&self) -> &[usize] {
        &self.branch_bases
    }
}

/// How a [`CircuitSystem`] holds its assembly: built on the spot, or
/// borrowed from a caller that amortizes it across solves.
///
/// The size skew between the variants is deliberate: `Borrowed` is the
/// hot path, `Owned` happens once per ad-hoc solve, and boxing it would
/// add an allocation for no access-path win.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
enum AssemblyRef<'a> {
    Owned(CircuitAssembly),
    Borrowed(&'a CircuitAssembly),
}

/// A circuit bound to evaluation conditions, presented as `f(x) = 0`.
///
/// Unknown ordering: node voltages (creation order, ground excluded), then
/// branch currents (element order, each element's branches contiguous).
#[derive(Debug)]
pub struct CircuitSystem<'a> {
    circuit: &'a Circuit,
    eval: EvalContext,
    assembly: AssemblyRef<'a>,
    /// Hot systems attach the assembly's device caches; cold systems
    /// evaluate every device from scratch.
    hot: bool,
}

impl<'a> CircuitSystem<'a> {
    /// Binds a circuit to evaluation conditions, assembling the layout on
    /// the spot.
    #[must_use]
    pub fn new(circuit: &'a Circuit, eval: EvalContext) -> Self {
        CircuitSystem {
            circuit,
            eval,
            assembly: AssemblyRef::Owned(CircuitAssembly::new_unchecked(circuit)),
            hot: false,
        }
    }

    /// Binds a circuit to evaluation conditions over a caller-owned
    /// assembly (the hot-path form: nothing is recomputed or allocated).
    #[must_use]
    pub fn with_assembly(
        circuit: &'a Circuit,
        eval: EvalContext,
        assembly: &'a CircuitAssembly,
    ) -> Self {
        CircuitSystem {
            circuit,
            eval,
            assembly: AssemblyRef::Borrowed(assembly),
            hot: false,
        }
    }

    /// The solver's internal binding: the assembly's device caches are
    /// attached to every stamping pass.
    pub(crate) fn hot_path(
        circuit: &'a Circuit,
        eval: EvalContext,
        assembly: &'a CircuitAssembly,
    ) -> Self {
        CircuitSystem {
            circuit,
            eval,
            assembly: AssemblyRef::Borrowed(assembly),
            hot: true,
        }
    }

    fn asm(&self) -> &CircuitAssembly {
        match &self.assembly {
            AssemblyRef::Owned(a) => a,
            AssemblyRef::Borrowed(a) => a,
        }
    }

    /// The evaluation conditions in force.
    #[must_use]
    pub fn eval(&self) -> EvalContext {
        self.eval
    }

    /// Changes the evaluation conditions (gmin/source stepping reuse the
    /// same assembled structure).
    pub fn set_eval(&mut self, eval: EvalContext) {
        self.eval = eval;
    }

    /// First absolute branch index of element `element_index`.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of range.
    #[must_use]
    pub fn branch_base(&self, element_index: usize) -> usize {
        self.asm().branch_bases[element_index]
    }

    /// Number of node-voltage unknowns.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.asm().node_count
    }

    fn stamp_all(&self, x: &[f64], residual: &mut [f64], mut jacobian: Option<&mut Matrix>) {
        let asm = self.asm();
        let mut slots = if self.hot {
            Some(asm.device_slots.borrow_mut())
        } else {
            None
        };
        for (i, (e, &base)) in self
            .circuit
            .elements()
            .iter()
            .zip(&asm.branch_bases)
            .enumerate()
        {
            let mut ctx = StampContext::new(
                self.eval,
                x,
                asm.node_count,
                base,
                residual,
                jacobian.as_deref_mut(),
            );
            if let Some(s) = slots.as_mut() {
                ctx.attach_device(&mut s[i], &asm.counters);
            }
            e.stamp(&mut ctx);
        }
        drop(slots);
        self.gmin_residual_and_jac(x, residual, jacobian);
    }

    /// Global gmin: a conductance from every node to ground keeps the
    /// Jacobian nonsingular for floating subcircuits and eases Newton.
    /// Always applied *after* every element stamp — the accumulation order
    /// is part of the bit-reproducibility contract.
    fn gmin_residual_and_jac(
        &self,
        x: &[f64],
        residual: &mut [f64],
        mut jacobian: Option<&mut Matrix>,
    ) {
        let g = self.eval.gmin;
        if g > 0.0 {
            for i in 0..self.asm().node_count {
                residual[i] += g * x[i];
                if let Some(j) = jacobian.as_deref_mut() {
                    j[(i, i)] += g;
                }
            }
        }
    }

    /// One Jacobian-bearing stamping pass into a zeroed matrix.
    fn stamp_jacobian(&self, x: &[f64], residual: &mut [f64], out: &mut Matrix) {
        out.fill(0.0);
        self.stamp_all(x, residual, Some(out));
    }
}

impl NonlinearSystem for CircuitSystem<'_> {
    fn dimension(&self) -> usize {
        self.asm().dimension
    }

    fn residual(&self, x: &[f64], out: &mut [f64]) -> Result<(), NumericsError> {
        out.fill(0.0);
        self.stamp_all(x, out, None);
        if out.iter().any(|v| !v.is_finite()) {
            return Err(NumericsError::invalid("non-finite circuit residual"));
        }
        Ok(())
    }

    fn jacobian(&self, x: &[f64], out: &mut Matrix) -> Result<(), NumericsError> {
        let asm = self.asm();
        let n = asm.dimension;
        // Stamping writes residual and Jacobian together; the residual
        // lands in the assembly-owned scratch instead of a fresh vec.
        let mut scratch = asm.jac_scratch.borrow_mut();
        debug_assert_eq!(scratch.len(), n);
        scratch.fill(0.0);
        self.stamp_jacobian(x, &mut scratch, out);
        if !out.is_finite() {
            return Err(NumericsError::invalid("non-finite circuit jacobian"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::{Resistor, VoltageSource};
    use crate::netlist::Circuit;
    use icvbe_units::{Kelvin, Ohm, Volt};

    fn divider() -> Circuit {
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
        c.add(Resistor::new("R2", out, Circuit::ground(), Ohm::new(1e3)).unwrap());
        c
    }

    #[test]
    fn dimension_counts_nodes_and_branches() {
        let c = divider();
        let sys = CircuitSystem::new(&c, EvalContext::nominal(Kelvin::new(300.0)));
        assert_eq!(sys.dimension(), 3);
        assert_eq!(sys.node_count(), 2);
        assert_eq!(sys.branch_base(0), 0);
    }

    #[test]
    fn residual_vanishes_at_exact_solution() {
        let c = divider();
        let mut eval = EvalContext::nominal(Kelvin::new(300.0));
        eval.gmin = 0.0;
        let sys = CircuitSystem::new(&c, eval);
        // vcc = 2, out = 1, source current = -(2-1)/1k ... source branch
        // current flows plus->through->minus: current out of vcc node into
        // R1 is 1 mA, so branch current is -1 mA.
        let x = [2.0, 1.0, -1e-3];
        let mut f = vec![0.0; 3];
        sys.residual(&x, &mut f).unwrap();
        for v in f {
            assert!(v.abs() < 1e-15, "residual {v}");
        }
    }

    #[test]
    fn jacobian_of_linear_circuit_is_constant() {
        let c = divider();
        let sys = CircuitSystem::new(&c, EvalContext::nominal(Kelvin::new(300.0)));
        let mut j1 = Matrix::zeros(3, 3);
        let mut j2 = Matrix::zeros(3, 3);
        sys.jacobian(&[0.0, 0.0, 0.0], &mut j1).unwrap();
        sys.jacobian(&[5.0, -3.0, 1.0], &mut j2).unwrap();
        assert_eq!(j1, j2);
    }

    #[test]
    fn gmin_appears_on_the_diagonal() {
        let c = divider();
        let mut eval = EvalContext::nominal(Kelvin::new(300.0));
        eval.gmin = 1e-3;
        let sys = CircuitSystem::new(&c, eval);
        let mut j = Matrix::zeros(3, 3);
        sys.jacobian(&[0.0; 3], &mut j).unwrap();
        // Node diagonals include 1/R sums plus gmin.
        assert!((j[(0, 0)] - (1e-3 + 1e-3)).abs() < 1e-12);
    }

    /// Every element kind wired into one circuit, including a BJT with the
    /// substrate parasitic — the widest stamp-call surface we have.
    fn menagerie() -> Circuit {
        use crate::bjt::{Bjt, BjtParams, Polarity, SubstrateJunction};
        use crate::element::{CurrentSource, Diode, OpAmp};
        use crate::vccs::Vccs;
        use icvbe_devphys::saturation::SpiceIsLaw;
        use icvbe_units::{Ampere, ElectronVolt};

        let mut c = Circuit::new();
        let vcc = c.node("vcc");
        let b = c.node("b");
        let e = c.node("e");
        let o = c.node("o");
        let gnd = Circuit::ground();
        c.add(VoltageSource::new("V1", vcc, gnd, Volt::new(1.2)));
        c.add(Resistor::new("R1", vcc, b, Ohm::new(50e3)).unwrap());
        c.add(Resistor::new("R2", e, gnd, Ohm::new(1e3)).unwrap());
        c.add(CurrentSource::new("I1", gnd, b, Ampere::new(1e-7)));
        c.add(
            Bjt::new("Q1", vcc, b, e, Polarity::Npn, BjtParams::default_npn())
                .unwrap()
                .with_substrate(gnd, SubstrateJunction::bicmos_default()),
        );
        let law = SpiceIsLaw::new(
            Ampere::new(1e-14),
            Kelvin::new(298.15),
            ElectronVolt::new(1.11),
            3.0,
        );
        c.add(Diode::new("D1", b, gnd, law, 1.0).unwrap());
        c.add(Vccs::new("G1", b, e, o, gnd, 1e-4).unwrap());
        c.add(OpAmp::new("U1", e, o, o, 1e5).unwrap());
        c.add(Resistor::new("RL", o, gnd, Ohm::new(10e3)).unwrap());
        c
    }

    #[test]
    fn hot_device_cached_solve_matches_cold_bitwise() {
        use icvbe_numerics::newton::{solve_newton_with, NewtonOptions, NewtonWorkspace};

        let c = menagerie();
        let asm = CircuitAssembly::new(&c).unwrap();
        let n = asm.dimension();
        let mut eval = EvalContext::nominal(Kelvin::new(298.15));
        eval.gmin = 1e-9;
        let hot = CircuitSystem::hot_path(&c, eval, &asm);
        let cold = CircuitSystem::new(&c, eval);

        // Stamping: revisiting a point is served from the device caches,
        // and the cached pass must match a from-scratch pass to the bit.
        let points: Vec<Vec<f64>> = vec![
            vec![0.0; n],
            (0..n).map(|i| 0.1 * i as f64 - 0.2).collect(),
            vec![0.0; n],
            vec![0.3; n],
        ];
        let mut jh = Matrix::zeros(n, n);
        let mut jc = Matrix::zeros(n, n);
        let mut fh = vec![0.0; n];
        let mut fc = vec![0.0; n];
        for x in &points {
            hot.residual(x, &mut fh).unwrap();
            hot.jacobian(x, &mut jh).unwrap();
            cold.residual(x, &mut fc).unwrap();
            cold.jacobian(x, &mut jc).unwrap();
            let fh_bits: Vec<u64> = fh.iter().map(|v| v.to_bits()).collect();
            let fc_bits: Vec<u64> = fc.iter().map(|v| v.to_bits()).collect();
            assert_eq!(fh_bits, fc_bits, "residual bits at {x:?}");
            let jh_bits: Vec<u64> = jh.as_slice().iter().map(|v| v.to_bits()).collect();
            let jc_bits: Vec<u64> = jc.as_slice().iter().map(|v| v.to_bits()).collect();
            assert_eq!(jh_bits, jc_bits, "jacobian bits at {x:?}");
        }
        let effort = asm.take_stamp_effort();
        assert!(effort.device_evals > 0);
        assert!(effort.device_reuses > 0, "{effort:?}");

        // Solving: the same Newton run through either binding lands on
        // the same bits.
        let opts = NewtonOptions::default();
        let mut xh = vec![0.0; n];
        let mut xc = vec![0.0; n];
        let ih = solve_newton_with(&hot, &mut xh, opts, &mut NewtonWorkspace::new()).unwrap();
        let ic = solve_newton_with(&cold, &mut xc, opts, &mut NewtonWorkspace::new()).unwrap();
        assert_eq!(ih, ic);
        let xh_bits: Vec<u64> = xh.iter().map(|v| v.to_bits()).collect();
        let xc_bits: Vec<u64> = xc.iter().map(|v| v.to_bits()).collect();
        assert_eq!(xh_bits, xc_bits);
    }
}
