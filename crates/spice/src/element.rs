//! Linear elements and the junction diode.
//!
//! The Gummel-Poon BJT lives in [`crate::bjt`]; everything else the Fig.-3
//! test cell needs is here: temperature-aware resistors, independent
//! sources (sweepable through [`Param`]), the op-amp macro-model (a VCVS
//! with input offset), and the diode used for substrate-leakage parasitics.

pub use crate::stamp::Element;

use icvbe_devphys::saturation::SpiceIsLaw;
use icvbe_units::{thermal_voltage, Ampere, ElectronVolt, Kelvin, Ohm, Volt};

use crate::limexp::limexp;
use crate::netlist::NodeId;
use crate::param::Param;
use crate::stamp::StampContext;
use crate::SpiceError;

/// A resistor with first- and second-order temperature coefficients:
/// `R(T) = R0 (1 + tc1 dT + tc2 dT²)`, `dT = T - Tnom`.
///
/// # Examples
///
/// ```
/// use icvbe_spice::element::Resistor;
/// use icvbe_spice::netlist::Circuit;
/// use icvbe_units::{Kelvin, Ohm};
///
/// let mut ckt = Circuit::new();
/// let a = ckt.node("a");
/// let r = Resistor::new("R1", a, Circuit::ground(), Ohm::new(25e3))?
///     .with_tempco(5e-3, 0.0, Kelvin::new(298.15));
/// // An n-well resistor drifts strongly with temperature.
/// assert!(r.resistance_at(Kelvin::new(398.15)).value() > 25e3 * 1.4);
/// # Ok::<(), icvbe_spice::SpiceError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Resistor {
    name: String,
    a: NodeId,
    b: NodeId,
    r_nominal: Param,
    tc1: f64,
    tc2: f64,
    t_nominal: Kelvin,
}

impl Resistor {
    /// Creates an ideal (temperature-independent) resistor.
    ///
    /// # Errors
    ///
    /// [`SpiceError::BadParameter`] if the resistance is not positive and
    /// finite.
    pub fn new(name: &str, a: NodeId, b: NodeId, resistance: Ohm) -> Result<Self, SpiceError> {
        if !(resistance.value() > 0.0) || !resistance.value().is_finite() {
            return Err(SpiceError::parameter(
                name,
                format!("resistance must be positive and finite, got {resistance}"),
            ));
        }
        Ok(Resistor {
            name: name.to_string(),
            a,
            b,
            r_nominal: Param::new(resistance.value()),
            tc1: 0.0,
            tc2: 0.0,
            t_nominal: Kelvin::new(298.15),
        })
    }

    /// Adds linear/quadratic temperature coefficients about `t_nominal`.
    #[must_use]
    pub fn with_tempco(mut self, tc1: f64, tc2: f64, t_nominal: Kelvin) -> Self {
        self.tc1 = tc1;
        self.tc2 = tc2;
        self.t_nominal = t_nominal;
        self
    }

    /// Binds the nominal resistance to a shared [`Param`] for trim sweeps.
    #[must_use]
    pub fn with_handle(mut self, handle: Param) -> Self {
        self.r_nominal = handle;
        self
    }

    /// Resistance at the given temperature.
    #[must_use]
    pub fn resistance_at(&self, temperature: Kelvin) -> Ohm {
        let dt = temperature.value() - self.t_nominal.value();
        Ohm::new(self.r_nominal.get() * (1.0 + self.tc1 * dt + self.tc2 * dt * dt))
    }
}

impl Element for Resistor {
    fn name(&self) -> &str {
        &self.name
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn nodes(&self) -> Vec<NodeId> {
        vec![self.a, self.b]
    }

    fn stamp(&self, ctx: &mut StampContext<'_>) {
        let r = self.resistance_at(ctx.temperature()).value();
        // Tempco can drive R through zero far from Tnom; clamp to keep the
        // Jacobian sane and let validation catch real mistakes.
        let g = 1.0 / r.max(1e-6);
        let v = ctx.v(self.a) - ctx.v(self.b);
        let i = g * v;
        ctx.add_node_residual(self.a, i);
        ctx.add_node_residual(self.b, -i);
        ctx.add_jac_node_node(self.a, self.a, g);
        ctx.add_jac_node_node(self.a, self.b, -g);
        ctx.add_jac_node_node(self.b, self.a, -g);
        ctx.add_jac_node_node(self.b, self.b, g);
    }
}

/// An independent current source driving `value` amperes from node `from`
/// into node `to` (through the source).
#[derive(Debug, Clone)]
pub struct CurrentSource {
    name: String,
    from: NodeId,
    to: NodeId,
    value: Param,
}

impl CurrentSource {
    /// Creates a source pushing `value` from `from` into `to`.
    #[must_use]
    pub fn new(name: &str, from: NodeId, to: NodeId, value: Ampere) -> Self {
        CurrentSource {
            name: name.to_string(),
            from,
            to,
            value: Param::new(value.value()),
        }
    }

    /// Binds the current value to a shared [`Param`] for sweeps.
    #[must_use]
    pub fn with_handle(mut self, handle: Param) -> Self {
        self.value = handle;
        self
    }

    /// The present source value.
    #[must_use]
    pub fn value(&self) -> Ampere {
        Ampere::new(self.value.get())
    }
}

impl Element for CurrentSource {
    fn name(&self) -> &str {
        &self.name
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn nodes(&self) -> Vec<NodeId> {
        vec![self.from, self.to]
    }

    fn stamp(&self, ctx: &mut StampContext<'_>) {
        let i = self.value.get() * ctx.source_scale();
        // Current leaves `from` and arrives at `to`.
        ctx.add_node_residual(self.from, i);
        ctx.add_node_residual(self.to, -i);
    }

    fn is_independent_source(&self) -> bool {
        true
    }
}

/// An independent voltage source (one branch-current unknown).
///
/// The branch current is defined flowing from `plus` through the source to
/// `minus`.
#[derive(Debug, Clone)]
pub struct VoltageSource {
    name: String,
    plus: NodeId,
    minus: NodeId,
    value: Param,
}

impl VoltageSource {
    /// Creates a source holding `v(plus) - v(minus) = value`.
    #[must_use]
    pub fn new(name: &str, plus: NodeId, minus: NodeId, value: Volt) -> Self {
        VoltageSource {
            name: name.to_string(),
            plus,
            minus,
            value: Param::new(value.value()),
        }
    }

    /// Binds the voltage value to a shared [`Param`] for sweeps.
    #[must_use]
    pub fn with_handle(mut self, handle: Param) -> Self {
        self.value = handle;
        self
    }

    /// The present source value.
    #[must_use]
    pub fn value(&self) -> Volt {
        Volt::new(self.value.get())
    }
}

impl Element for VoltageSource {
    fn name(&self) -> &str {
        &self.name
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn nodes(&self) -> Vec<NodeId> {
        vec![self.plus, self.minus]
    }

    fn branch_count(&self) -> usize {
        1
    }

    fn stamp(&self, ctx: &mut StampContext<'_>) {
        let ib = ctx.branch(0);
        ctx.add_node_residual(self.plus, ib);
        ctx.add_node_residual(self.minus, -ib);
        ctx.add_jac_node_branch(self.plus, 0, 1.0);
        ctx.add_jac_node_branch(self.minus, 0, -1.0);
        // Branch equation: v+ - v- - E = 0.
        let e = self.value.get() * ctx.source_scale();
        ctx.add_branch_residual(0, ctx.v(self.plus) - ctx.v(self.minus) - e);
        ctx.add_jac_branch_node(0, self.plus, 1.0);
        ctx.add_jac_branch_node(0, self.minus, -1.0);
    }

    fn is_independent_source(&self) -> bool {
        true
    }
}

/// An op-amp macro-model: a voltage-controlled voltage source with finite
/// gain and an input-referred offset, output taken between `out` and
/// ground.
///
/// `v(out) = gain * ( v(in_p) - v(in_m) + offset )`
///
/// The input offset is the knob through which the instrument layer injects
/// per-sample op-amp offset — one of the second-order effects the paper's
/// analytical extraction captures and the best-fit extraction cannot.
#[derive(Debug, Clone)]
pub struct OpAmp {
    name: String,
    in_p: NodeId,
    in_m: NodeId,
    out: NodeId,
    gain: f64,
    offset: Param,
}

impl OpAmp {
    /// Creates an op-amp with the given open-loop gain and zero offset.
    ///
    /// # Errors
    ///
    /// [`SpiceError::BadParameter`] for non-finite or non-positive gain.
    pub fn new(
        name: &str,
        in_p: NodeId,
        in_m: NodeId,
        out: NodeId,
        gain: f64,
    ) -> Result<Self, SpiceError> {
        if !(gain > 0.0) || !gain.is_finite() {
            return Err(SpiceError::parameter(
                name,
                format!("op-amp gain must be positive and finite, got {gain}"),
            ));
        }
        Ok(OpAmp {
            name: name.to_string(),
            in_p,
            in_m,
            out,
            gain,
            offset: Param::new(0.0),
        })
    }

    /// Sets the input-referred offset voltage.
    #[must_use]
    pub fn with_offset(mut self, offset: Volt) -> Self {
        self.offset = Param::new(offset.value());
        self
    }

    /// Binds the offset to a shared [`Param`].
    #[must_use]
    pub fn with_offset_handle(mut self, handle: Param) -> Self {
        self.offset = handle;
        self
    }

    /// The present input-referred offset.
    #[must_use]
    pub fn offset(&self) -> Volt {
        Volt::new(self.offset.get())
    }

    /// The open-loop gain.
    #[must_use]
    pub fn gain(&self) -> f64 {
        self.gain
    }
}

impl Element for OpAmp {
    fn name(&self) -> &str {
        &self.name
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn nodes(&self) -> Vec<NodeId> {
        vec![self.in_p, self.in_m, self.out]
    }

    fn branch_count(&self) -> usize {
        1
    }

    fn stamp(&self, ctx: &mut StampContext<'_>) {
        let ib = ctx.branch(0);
        ctx.add_node_residual(self.out, ib);
        ctx.add_jac_node_branch(self.out, 0, 1.0);
        // Branch equation: v(out) - gain (v+ - v- + vos) = 0.
        let vos = self.offset.get();
        let residual = ctx.v(self.out) - self.gain * (ctx.v(self.in_p) - ctx.v(self.in_m) + vos);
        ctx.add_branch_residual(0, residual);
        ctx.add_jac_branch_node(0, self.out, 1.0);
        ctx.add_jac_branch_node(0, self.in_p, -self.gain);
        ctx.add_jac_branch_node(0, self.in_m, self.gain);
    }
}

/// A junction diode following the eq.-1 saturation-current temperature law.
///
/// `I = area * IS(T) * ( e^{V/(n kT/q)} - 1 )`
///
/// Besides ordinary diodes, this element models the *parasitic substrate
/// junction* of the test cell's PNP devices: a diode from the collector
/// region to substrate whose leakage rises steeply with temperature and
/// perturbs `dVBE` — the effect behind Table 1.
#[derive(Debug, Clone)]
pub struct Diode {
    name: String,
    anode: NodeId,
    cathode: NodeId,
    law: SpiceIsLaw,
    emission: f64,
    area: f64,
}

impl Diode {
    /// Creates a diode from its saturation-current law and emission
    /// coefficient.
    ///
    /// # Errors
    ///
    /// [`SpiceError::BadParameter`] for non-positive emission coefficient
    /// or area.
    pub fn new(
        name: &str,
        anode: NodeId,
        cathode: NodeId,
        law: SpiceIsLaw,
        emission: f64,
    ) -> Result<Self, SpiceError> {
        if !(emission > 0.0) || !emission.is_finite() {
            return Err(SpiceError::parameter(
                name,
                format!("emission coefficient must be positive, got {emission}"),
            ));
        }
        Ok(Diode {
            name: name.to_string(),
            anode,
            cathode,
            law,
            emission,
            area: 1.0,
        })
    }

    /// Scales the junction area (multiplies the saturation current).
    ///
    /// # Errors
    ///
    /// [`SpiceError::BadParameter`] for non-positive area.
    pub fn with_area(mut self, area: f64) -> Result<Self, SpiceError> {
        if !(area > 0.0) || !area.is_finite() {
            return Err(SpiceError::parameter(
                &self.name,
                format!("area must be positive, got {area}"),
            ));
        }
        self.area = area;
        Ok(self)
    }

    /// The saturation-current temperature law of this diode.
    #[must_use]
    pub fn law(&self) -> &SpiceIsLaw {
        &self.law
    }

    /// The emission coefficient.
    #[must_use]
    pub fn emission(&self) -> f64 {
        self.emission
    }

    /// The junction-area multiplier.
    #[must_use]
    pub fn area(&self) -> f64 {
        self.area
    }

    /// Diode current and small-signal conductance at junction voltage `v`
    /// and the given temperature.
    #[must_use]
    pub fn current(&self, v: Volt, temperature: Kelvin) -> (Ampere, f64) {
        let vt = thermal_voltage(temperature).value() * self.emission;
        let is = self.law.is_at(temperature).value() * self.area;
        let (e, de) = limexp(v.value() / vt);
        (Ampere::new(is * (e - 1.0)), is * de / vt)
    }

    /// Convenience: an ideal-ish diode with explicit `IS`, `EG`, `XTI`
    /// referenced to `t_nom`.
    ///
    /// # Errors
    ///
    /// Propagates [`Diode::new`] validation.
    #[allow(clippy::too_many_arguments)] // mirrors the SPICE .MODEL card fields
    pub fn from_card(
        name: &str,
        anode: NodeId,
        cathode: NodeId,
        is: Ampere,
        emission: f64,
        eg: ElectronVolt,
        xti: f64,
        t_nom: Kelvin,
    ) -> Result<Self, SpiceError> {
        Diode::new(
            name,
            anode,
            cathode,
            SpiceIsLaw::new(is, t_nom, eg, xti),
            emission,
        )
    }
}

impl Element for Diode {
    fn name(&self) -> &str {
        &self.name
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn nodes(&self) -> Vec<NodeId> {
        vec![self.anode, self.cathode]
    }

    fn stamp(&self, ctx: &mut StampContext<'_>) {
        let v = Volt::new(ctx.v(self.anode) - ctx.v(self.cathode));
        let (i, g) = self.current(v, ctx.temperature());
        let i = i.value();
        ctx.add_node_residual(self.anode, i);
        ctx.add_node_residual(self.cathode, -i);
        ctx.add_jac_node_node(self.anode, self.anode, g);
        ctx.add_jac_node_node(self.anode, self.cathode, -g);
        ctx.add_jac_node_node(self.cathode, self.anode, -g);
        ctx.add_jac_node_node(self.cathode, self.cathode, g);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::Circuit;

    #[test]
    fn resistor_rejects_nonpositive_resistance() {
        let mut c = Circuit::new();
        let a = c.node("a");
        assert!(Resistor::new("R", a, Circuit::ground(), Ohm::new(0.0)).is_err());
        assert!(Resistor::new("R", a, Circuit::ground(), Ohm::new(-5.0)).is_err());
        assert!(Resistor::new("R", a, Circuit::ground(), Ohm::new(f64::NAN)).is_err());
    }

    #[test]
    fn resistor_tempco_moves_resistance() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let r = Resistor::new("R", a, Circuit::ground(), Ohm::new(1000.0))
            .unwrap()
            .with_tempco(1e-3, 0.0, Kelvin::new(300.0));
        assert!((r.resistance_at(Kelvin::new(400.0)).value() - 1100.0).abs() < 1e-9);
        assert!((r.resistance_at(Kelvin::new(300.0)).value() - 1000.0).abs() < 1e-12);
    }

    #[test]
    fn param_handle_shares_resistance() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let handle = Param::new(500.0);
        let r = Resistor::new("R", a, Circuit::ground(), Ohm::new(1.0))
            .unwrap()
            .with_handle(handle.clone());
        handle.set(750.0);
        assert_eq!(r.resistance_at(Kelvin::new(298.15)).value(), 750.0);
    }

    #[test]
    fn diode_current_is_exponential() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let d = Diode::from_card(
            "D1",
            a,
            Circuit::ground(),
            Ampere::new(1e-15),
            1.0,
            ElectronVolt::new(1.11),
            3.0,
            Kelvin::new(300.0),
        )
        .unwrap();
        let t = Kelvin::new(300.0);
        let (i1, g1) = d.current(Volt::new(0.6), t);
        let (i2, _) = d.current(Volt::new(0.6 + 0.02585 * 10f64.ln()), t);
        assert!((i2.value() / i1.value() - 10.0).abs() < 0.01);
        assert!(g1 > 0.0);
    }

    #[test]
    fn diode_reverse_current_saturates_at_minus_is() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let d = Diode::from_card(
            "D1",
            a,
            Circuit::ground(),
            Ampere::new(1e-15),
            1.0,
            ElectronVolt::new(1.11),
            3.0,
            Kelvin::new(300.0),
        )
        .unwrap();
        let (i, _) = d.current(Volt::new(-5.0), Kelvin::new(300.0));
        assert!((i.value() + 1e-15).abs() < 1e-20);
    }

    #[test]
    fn diode_area_scales_current() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let base = Diode::from_card(
            "D1",
            a,
            Circuit::ground(),
            Ampere::new(1e-15),
            1.0,
            ElectronVolt::new(1.11),
            3.0,
            Kelvin::new(300.0),
        )
        .unwrap();
        let big = base.clone().with_area(8.0).unwrap();
        let t = Kelvin::new(300.0);
        let r =
            big.current(Volt::new(0.55), t).0.value() / base.current(Volt::new(0.55), t).0.value();
        assert!((r - 8.0).abs() < 1e-9);
    }

    #[test]
    fn opamp_rejects_bad_gain() {
        let mut c = Circuit::new();
        let (p, m, o) = (c.node("p"), c.node("m"), c.node("o"));
        assert!(OpAmp::new("U1", p, m, o, 0.0).is_err());
        assert!(OpAmp::new("U1", p, m, o, f64::INFINITY).is_err());
    }

    #[test]
    fn sources_report_values() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let vs = VoltageSource::new("V1", a, Circuit::ground(), Volt::new(1.2));
        assert_eq!(vs.value().value(), 1.2);
        let is = CurrentSource::new("I1", a, Circuit::ground(), Ampere::new(1e-6));
        assert_eq!(is.value().value(), 1e-6);
        assert!(vs.is_independent_source());
        assert!(is.is_independent_source());
    }
}
