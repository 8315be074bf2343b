//! Voltage-controlled current source (transconductor).
//!
//! The behavioural stand-in for a MOS current mirror in the sub-1V
//! current-mode bandgap (Banba) extension: the op-amp output drives the
//! control voltage and each mirror leg is one VCCS with matched `gm`.

use icvbe_units::Ampere;

use crate::netlist::NodeId;
use crate::stamp::{Element, StampContext};
use crate::SpiceError;

/// A linear transconductor: drives `gm * (v(ctrl_p) - v(ctrl_m))` from
/// node `from` into node `to`.
///
/// # Examples
///
/// ```
/// use icvbe_spice::element::{Resistor, VoltageSource};
/// use icvbe_spice::netlist::Circuit;
/// use icvbe_spice::solver::{solve_dc, DcOptions};
/// use icvbe_spice::vccs::Vccs;
/// use icvbe_units::{Kelvin, Ohm, Volt};
///
/// let mut ckt = Circuit::new();
/// let ctl = ckt.node("ctl");
/// let out = ckt.node("out");
/// let gnd = Circuit::ground();
/// ckt.add(VoltageSource::new("VC", ctl, gnd, Volt::new(0.5)));
/// ckt.add(Vccs::new("G1", ctl, gnd, gnd, out, 1e-3)?);
/// ckt.add(Resistor::new("RL", out, gnd, Ohm::new(1e3))?);
/// let op = solve_dc(&ckt, Kelvin::new(300.0), &DcOptions::default(), None)?;
/// // 1 mS * 0.5 V = 0.5 mA into 1 kΩ -> 0.5 V.
/// assert!((op.voltage(out).value() - 0.5).abs() < 1e-9);
/// # Ok::<(), icvbe_spice::SpiceError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Vccs {
    name: String,
    ctrl_p: NodeId,
    ctrl_m: NodeId,
    from: NodeId,
    to: NodeId,
    gm: f64,
}

impl Vccs {
    /// Creates a transconductor with transconductance `gm` (siemens).
    ///
    /// # Errors
    ///
    /// [`SpiceError::BadParameter`] for non-finite or zero `gm`.
    pub fn new(
        name: &str,
        ctrl_p: NodeId,
        ctrl_m: NodeId,
        from: NodeId,
        to: NodeId,
        gm: f64,
    ) -> Result<Self, SpiceError> {
        if !(gm != 0.0) || !gm.is_finite() {
            return Err(SpiceError::parameter(
                name,
                format!("transconductance must be non-zero and finite, got {gm}"),
            ));
        }
        Ok(Vccs {
            name: name.to_string(),
            ctrl_p,
            ctrl_m,
            from,
            to,
            gm,
        })
    }

    /// The transconductance in siemens.
    #[must_use]
    pub fn gm(&self) -> f64 {
        self.gm
    }

    /// The output current for a given control voltage difference.
    #[must_use]
    pub fn output_current(&self, v_ctrl: f64) -> Ampere {
        Ampere::new(self.gm * v_ctrl)
    }
}

impl Element for Vccs {
    fn name(&self) -> &str {
        &self.name
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn nodes(&self) -> Vec<NodeId> {
        vec![self.ctrl_p, self.ctrl_m, self.from, self.to]
    }

    fn stamp(&self, ctx: &mut StampContext<'_>) {
        let vc = ctx.v(self.ctrl_p) - ctx.v(self.ctrl_m);
        let i = self.gm * vc;
        ctx.add_node_residual(self.from, i);
        ctx.add_node_residual(self.to, -i);
        ctx.add_jac_node_node(self.from, self.ctrl_p, self.gm);
        ctx.add_jac_node_node(self.from, self.ctrl_m, -self.gm);
        ctx.add_jac_node_node(self.to, self.ctrl_p, -self.gm);
        ctx.add_jac_node_node(self.to, self.ctrl_m, self.gm);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::{Resistor, VoltageSource};
    use crate::netlist::Circuit;
    use crate::solver::{solve_dc, DcOptions};
    use icvbe_units::{Kelvin, Ohm, Volt};

    #[test]
    fn rejects_degenerate_gm() {
        let mut c = Circuit::new();
        let (a, b) = (c.node("a"), c.node("b"));
        assert!(Vccs::new("G", a, b, a, b, 0.0).is_err());
        assert!(Vccs::new("G", a, b, a, b, f64::NAN).is_err());
    }

    #[test]
    fn mirror_legs_match() {
        // One control node driving two VCCS legs produces equal currents.
        let mut c = Circuit::new();
        let gnd = Circuit::ground();
        let ctl = c.node("ctl");
        let o1 = c.node("o1");
        let o2 = c.node("o2");
        c.add(VoltageSource::new("VC", ctl, gnd, Volt::new(0.3)));
        c.add(Vccs::new("G1", ctl, gnd, gnd, o1, 2e-3).unwrap());
        c.add(Vccs::new("G2", ctl, gnd, gnd, o2, 2e-3).unwrap());
        c.add(Resistor::new("R1", o1, gnd, Ohm::new(500.0)).unwrap());
        c.add(Resistor::new("R2", o2, gnd, Ohm::new(500.0)).unwrap());
        let op = solve_dc(&c, Kelvin::new(300.0), &DcOptions::default(), None).unwrap();
        assert!((op.voltage(o1).value() - op.voltage(o2).value()).abs() < 1e-12);
        assert!((op.voltage(o1).value() - 0.3).abs() < 1e-9); // 0.6mA * 500
    }

    #[test]
    fn negative_gm_inverts_current() {
        let mut c = Circuit::new();
        let gnd = Circuit::ground();
        let ctl = c.node("ctl");
        let out = c.node("out");
        c.add(VoltageSource::new("VC", ctl, gnd, Volt::new(1.0)));
        c.add(Vccs::new("G1", ctl, gnd, gnd, out, -1e-3).unwrap());
        c.add(Resistor::new("RL", out, gnd, Ohm::new(1e3)).unwrap());
        let op = solve_dc(&c, Kelvin::new(300.0), &DcOptions::default(), None).unwrap();
        assert!((op.voltage(out).value() + 1.0).abs() < 1e-9);
    }

    #[test]
    fn output_current_helper() {
        let mut c = Circuit::new();
        let (a, b) = (c.node("a"), c.node("b"));
        let g = Vccs::new("G", a, b, a, b, 5e-4).unwrap();
        assert!((g.output_current(0.2).value() - 1e-4).abs() < 1e-18);
        assert_eq!(g.gm(), 5e-4);
    }
}
