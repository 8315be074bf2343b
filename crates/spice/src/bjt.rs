//! The Gummel-Poon bipolar transistor (DC) with the eq.-1 `EG`/`XTI`
//! temperature mapping.
//!
//! The model covers what the paper's evaluation exercises:
//!
//! - ideal transport current with emission coefficients `NF`/`NR`,
//! - base-emitter and base-collector leakage (`ISE`/`NE`, `ISC`/`NC`) —
//!   the low-current floor of the Fig.-5 family,
//! - high-injection roll-off (`IKF`) and base-width modulation
//!   (`VAF`/`VAR`) — the high-current bend of Fig. 5,
//! - full SPICE temperature mapping of `IS`, `ISE`, `ISC` and `BF` through
//!   `EG`, `XTI` and `XTB`,
//! - an optional parasitic substrate junction whose leakage grows steeply
//!   with temperature — the second-order effect that perturbs `dVBE` in the
//!   silicon test cell (Table 1 and the rising measured curve of Fig. 8).

use icvbe_devphys::saturation::SpiceIsLaw;
use icvbe_units::{thermal_voltage, Ampere, ElectronVolt, Kelvin, Volt};

use crate::limexp::{limexp, limexp_lanes};
use crate::netlist::NodeId;
use crate::stamp::{Element, StampContext, DEVICE_EVAL_SLOTS, DEVICE_TEMP_SLOTS};
use crate::SpiceError;

/// Device polarity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Polarity {
    /// NPN: forward-active with `VBE > 0`.
    Npn,
    /// PNP: forward-active with `VEB > 0` (the paper's test devices).
    Pnp,
}

impl Polarity {
    /// Sign convention: +1 for NPN, -1 for PNP.
    #[must_use]
    pub fn sign(self) -> f64 {
        match self {
            Polarity::Npn => 1.0,
            Polarity::Pnp => -1.0,
        }
    }
}

/// Gummel-Poon model card (DC subset).
///
/// Leakage saturation currents and the knee current are per unit area; the
/// device [`Bjt::with_area`] factor scales them all.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BjtParams {
    /// Transport saturation current at `t_nom`.
    pub is: Ampere,
    /// Forward beta at `t_nom`.
    pub bf: f64,
    /// Reverse beta at `t_nom`.
    pub br: f64,
    /// Forward emission coefficient.
    pub nf: f64,
    /// Reverse emission coefficient.
    pub nr: f64,
    /// Base-emitter leakage saturation current at `t_nom`.
    pub ise: Ampere,
    /// Base-emitter leakage emission coefficient.
    pub ne: f64,
    /// Base-collector leakage saturation current at `t_nom`.
    pub isc: Ampere,
    /// Base-collector leakage emission coefficient.
    pub nc: f64,
    /// Forward knee current (high injection); `f64::INFINITY` disables.
    pub ikf: Ampere,
    /// Forward Early voltage; `f64::INFINITY` disables.
    pub vaf: Volt,
    /// Reverse Early voltage; `f64::INFINITY` disables.
    pub var: Volt,
    /// Bandgap parameter of the eq.-1 temperature law.
    pub eg: ElectronVolt,
    /// Saturation-current temperature exponent of eq. 1.
    pub xti: f64,
    /// Beta temperature exponent.
    pub xtb: f64,
    /// Model-card reference temperature.
    pub t_nom: Kelvin,
}

impl BjtParams {
    /// A generic small-signal silicon NPN card.
    #[must_use]
    pub fn default_npn() -> Self {
        BjtParams {
            is: Ampere::new(1e-16),
            bf: 100.0,
            br: 2.0,
            nf: 1.0,
            nr: 1.0,
            ise: Ampere::new(1e-14),
            ne: 2.0,
            isc: Ampere::new(0.0),
            nc: 1.5,
            ikf: Ampere::new(f64::INFINITY),
            vaf: Volt::new(f64::INFINITY),
            var: Volt::new(f64::INFINITY),
            eg: ElectronVolt::new(1.11),
            xti: 3.0,
            xtb: 0.0,
            t_nom: Kelvin::new(298.15),
        }
    }

    /// Validates physical ranges.
    ///
    /// # Errors
    ///
    /// [`SpiceError::BadParameter`] on the first violation.
    pub fn validate(&self, name: &str) -> Result<(), SpiceError> {
        let checks: [(&str, bool); 8] = [
            ("IS must be positive", self.is.value() > 0.0),
            ("BF must be positive", self.bf > 0.0),
            ("BR must be positive", self.br > 0.0),
            ("NF must be in (0, 10]", self.nf > 0.0 && self.nf <= 10.0),
            ("NE must be in (0, 10]", self.ne > 0.0 && self.ne <= 10.0),
            ("IKF must be positive", self.ikf.value() > 0.0),
            (
                "EG must be in (0.1, 3) eV",
                self.eg.value() > 0.1 && self.eg.value() < 3.0,
            ),
            ("TNOM must be physical", self.t_nom.value() > 0.0),
        ];
        for (msg, ok) in checks {
            if !ok {
                return Err(SpiceError::parameter(name, msg));
            }
        }
        Ok(())
    }

    /// The eq.-1 law governing this card's `IS(T)`.
    #[must_use]
    pub fn is_law(&self) -> SpiceIsLaw {
        SpiceIsLaw::new(self.is, self.t_nom, self.eg, self.xti)
    }
}

/// Per-temperature evaluation of the card.
#[derive(Debug, Clone, Copy)]
struct BjtAtTemperature {
    vt_f: f64,
    vt_r: f64,
    vt_e: f64,
    vt_c: f64,
    is: f64,
    ise: f64,
    isc: f64,
    bf: f64,
    br: f64,
    ikf: f64,
    inv_vaf: f64,
    inv_var: f64,
}

impl BjtAtTemperature {
    /// Packs the card values into the first 12 device-cache slots.
    fn to_slots(self) -> [f64; DEVICE_TEMP_SLOTS] {
        let mut s = [0.0; DEVICE_TEMP_SLOTS];
        s[0] = self.vt_f;
        s[1] = self.vt_r;
        s[2] = self.vt_e;
        s[3] = self.vt_c;
        s[4] = self.is;
        s[5] = self.ise;
        s[6] = self.isc;
        s[7] = self.bf;
        s[8] = self.br;
        s[9] = self.ikf;
        s[10] = self.inv_vaf;
        s[11] = self.inv_var;
        s
    }

    fn from_slots(s: &[f64; DEVICE_TEMP_SLOTS]) -> Self {
        BjtAtTemperature {
            vt_f: s[0],
            vt_r: s[1],
            vt_e: s[2],
            vt_c: s[3],
            is: s[4],
            ise: s[5],
            isc: s[6],
            bf: s[7],
            br: s[8],
            ikf: s[9],
            inv_vaf: s[10],
            inv_var: s[11],
        }
    }
}

/// Device-cache slot of the parasitic saturation current (`is * area`).
const SLOT_SUB_IS: usize = 12;
/// Device-cache slot of the parasitic thermal voltage (`vt * emission`).
const SLOT_SUB_VT: usize = 13;

/// Terminal currents (defined flowing *into* each terminal).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BjtCurrents {
    /// Current into the collector.
    pub ic: Ampere,
    /// Current into the base.
    pub ib: Ampere,
    /// Current into the emitter (`-(ic + ib)`).
    pub ie: Ampere,
}

/// Optional parasitic vertical transistor under the emitter.
///
/// In a junction-isolated lateral/substrate PNP, the p+ emitter, n-epi
/// base and p-substrate form a *vertical* PNP in parallel with the wanted
/// device: a fraction of the emitter current is injected straight into the
/// substrate. The stolen fraction is controlled by the same emitter-base
/// voltage but with its own saturation current, emission coefficient and
/// temperature law — so it grows disproportionately at high temperature,
/// perturbing `dVBE` (Table 1) and bending `VREF(T)` upward (Fig. 8).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SubstrateJunction {
    /// Parasitic transport saturation current at the card's `t_nom` (per
    /// unit area of the main device; scaled by the device area).
    pub is: Ampere,
    /// Emission coefficient of the parasitic injection (recombination
    /// dominated: ~2).
    pub emission: f64,
    /// Bandgap parameter of the parasitic temperature law. A small
    /// effective `EG` makes the leakage rise steeply with temperature.
    pub eg: ElectronVolt,
    /// Temperature exponent of the parasitic temperature law.
    pub xti: f64,
}

impl SubstrateJunction {
    /// A junction-isolation parasitic typical of the paper's BiCMOS
    /// process: recombination-dominated injection (`n = 2`) with a small
    /// effective `EG`, so the stolen fraction of the bias current grows
    /// from ~0.1% at room temperature to percents at the hot end of the
    /// -50..125 °C range.
    #[must_use]
    pub fn bicmos_default() -> Self {
        SubstrateJunction {
            is: Ampere::new(1e-13),
            emission: 2.0,
            eg: ElectronVolt::new(0.66),
            xti: 3.0,
        }
    }
}

/// A Gummel-Poon BJT instance.
///
/// # Examples
///
/// ```
/// use icvbe_spice::bjt::{Bjt, BjtParams, Polarity};
/// use icvbe_spice::netlist::Circuit;
/// use icvbe_units::{Kelvin, Volt};
///
/// let mut ckt = Circuit::new();
/// let (c, b, e) = (ckt.node("c"), ckt.node("b"), ckt.node("e"));
/// let q = Bjt::new("Q1", c, b, e, Polarity::Npn, BjtParams::default_npn())?;
/// let i = q.dc_currents(Volt::new(3.0), Volt::new(0.65), Volt::new(0.0), Kelvin::new(298.15));
/// assert!(i.ic.value() > 0.0 && i.ic.value() > 50.0 * i.ib.value());
/// # Ok::<(), icvbe_spice::SpiceError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Bjt {
    name: String,
    collector: NodeId,
    base: NodeId,
    emitter: NodeId,
    substrate: Option<(NodeId, SubstrateJunction)>,
    polarity: Polarity,
    params: BjtParams,
    area: f64,
}

impl Bjt {
    /// Creates a transistor with unit area and no substrate parasitic.
    ///
    /// # Errors
    ///
    /// Propagates [`BjtParams::validate`].
    pub fn new(
        name: &str,
        collector: NodeId,
        base: NodeId,
        emitter: NodeId,
        polarity: Polarity,
        params: BjtParams,
    ) -> Result<Self, SpiceError> {
        params.validate(name)?;
        Ok(Bjt {
            name: name.to_string(),
            collector,
            base,
            emitter,
            substrate: None,
            polarity,
            params,
            area: 1.0,
        })
    }

    /// Scales the emitter area (`IS`, `ISE`, `ISC`, `IKF` and the substrate
    /// leakage all scale with it). The paper's QB uses `area = 8`.
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

    /// Attaches a parasitic substrate junction between the collector and
    /// `substrate` (usually ground).
    #[must_use]
    pub fn with_substrate(mut self, substrate: NodeId, junction: SubstrateJunction) -> Self {
        self.substrate = Some((substrate, junction));
        self
    }

    /// The model card.
    #[must_use]
    pub fn params(&self) -> &BjtParams {
        &self.params
    }

    /// The emitter-area multiplier.
    #[must_use]
    pub fn area(&self) -> f64 {
        self.area
    }

    /// Device polarity.
    #[must_use]
    pub fn polarity(&self) -> Polarity {
        self.polarity
    }

    fn at_temperature(&self, t: Kelvin) -> BjtAtTemperature {
        let p = &self.params;
        let vt = thermal_voltage(t).value();
        let t_ratio = t.value() / p.t_nom.value();
        let is_t = p.is_law().is_at(t).value();
        let is_ratio = is_t / p.is.value();
        let beta_factor = t_ratio.powf(p.xtb);
        BjtAtTemperature {
            vt_f: vt * p.nf,
            vt_r: vt * p.nr,
            vt_e: vt * p.ne,
            vt_c: vt * p.nc,
            is: is_t * self.area,
            ise: p.ise.value() * self.area * is_ratio.powf(1.0 / p.ne) / beta_factor,
            isc: p.isc.value() * self.area * is_ratio.powf(1.0 / p.nc) / beta_factor,
            bf: p.bf * beta_factor,
            br: p.br * beta_factor,
            ikf: p.ikf.value() * self.area,
            inv_vaf: if p.vaf.value().is_finite() {
                1.0 / p.vaf.value()
            } else {
                0.0
            },
            inv_var: if p.var.value().is_finite() {
                1.0 / p.var.value()
            } else {
                0.0
            },
        }
    }

    /// Core NPN-referenced Gummel-Poon evaluation.
    ///
    /// Returns `(ic, ib, dic/dvbe, dic/dvbc, dib/dvbe, dib/dvbc)`.
    fn gummel_poon(
        &self,
        vbe: f64,
        vbc: f64,
        m: &BjtAtTemperature,
    ) -> (f64, f64, f64, f64, f64, f64) {
        // Junction exponentials (limited). Leakage limexps are computed
        // only when their saturation current is live — the combine stage
        // never reads them otherwise, which is what lets the eval miss
        // path evaluate them unconditionally with identical results.
        let ef = limexp(vbe / m.vt_f);
        let er = limexp(vbc / m.vt_r);
        let ee = if m.ise > 0.0 {
            limexp(vbe / m.vt_e)
        } else {
            (0.0, 0.0)
        };
        let ec = if m.isc > 0.0 {
            limexp(vbc / m.vt_c)
        } else {
            (0.0, 0.0)
        };
        gummel_poon_combine(vbe, vbc, m, ef, er, ee, ec)
    }
}

/// Post-exponential Gummel-Poon combine, shared bit-for-bit by
/// [`Bjt::gummel_poon`] and the eval miss path [`Bjt::eval_slots`].
/// `ef`/`er` are the `(value, slope)` pairs of the transport junction
/// limexps; `ee`/`ec` the leakage ones, read only when `ise`/`isc` are
/// positive — a caller may pass unconditionally computed values for dead
/// leakage diodes.
///
/// Returns `(ic, ib, dic/dvbe, dic/dvbc, dib/dvbe, dib/dvbc)`.
#[allow(clippy::similar_names)]
fn gummel_poon_combine(
    vbe: f64,
    vbc: f64,
    m: &BjtAtTemperature,
    ef: (f64, f64),
    er: (f64, f64),
    ee: (f64, f64),
    ec: (f64, f64),
) -> (f64, f64, f64, f64, f64, f64) {
    let (ef, def) = ef;
    let (er, der) = er;
    let ibe_id = m.is * (ef - 1.0);
    let gbe_id = m.is * def / m.vt_f;
    let ibc_id = m.is * (er - 1.0);
    let gbc_id = m.is * der / m.vt_r;

    // Leakage diodes.
    let (ibe_lk, gbe_lk) = if m.ise > 0.0 {
        let (e, de) = ee;
        (m.ise * (e - 1.0), m.ise * de / m.vt_e)
    } else {
        (0.0, 0.0)
    };
    let (ibc_lk, gbc_lk) = if m.isc > 0.0 {
        let (e, de) = ec;
        (m.isc * (e - 1.0), m.isc * de / m.vt_c)
    } else {
        (0.0, 0.0)
    };

    // Base charge qb = q1 (1 + sqrt(1 + 4 q2)) / 2.
    let denom_raw = 1.0 - vbc * m.inv_vaf - vbe * m.inv_var;
    let clamped = denom_raw < 1e-4;
    let denom = denom_raw.max(1e-4);
    let q1 = 1.0 / denom;
    let (dq1_dvbe, dq1_dvbc) = if clamped {
        (0.0, 0.0)
    } else {
        (q1 * q1 * m.inv_var, q1 * q1 * m.inv_vaf)
    };
    let q2 = if m.ikf.is_finite() {
        ibe_id / m.ikf
    } else {
        0.0
    };
    let (dq2_dvbe, dq2_dvbc) = if m.ikf.is_finite() {
        (gbe_id / m.ikf, 0.0)
    } else {
        (0.0, 0.0)
    };
    let sq = (1.0 + 4.0 * q2.max(-0.24)).sqrt();
    let qb = q1 * (1.0 + sq) * 0.5;
    let dqb_dvbe = dq1_dvbe * (1.0 + sq) * 0.5 + q1 * dq2_dvbe / sq;
    let dqb_dvbc = dq1_dvbc * (1.0 + sq) * 0.5 + q1 * dq2_dvbc / sq;

    // Transport current and terminal currents.
    let it = (ibe_id - ibc_id) / qb;
    let dit_dvbe = gbe_id / qb - it * dqb_dvbe / qb;
    let dit_dvbc = -gbc_id / qb - it * dqb_dvbc / qb;

    let ic = it - ibc_id / m.br - ibc_lk;
    let dic_dvbe = dit_dvbe;
    let dic_dvbc = dit_dvbc - gbc_id / m.br - gbc_lk;

    let ib = ibe_id / m.bf + ibe_lk + ibc_id / m.br + ibc_lk;
    let dib_dvbe = gbe_id / m.bf + gbe_lk;
    let dib_dvbc = gbc_id / m.br + gbc_lk;

    (ic, ib, dic_dvbe, dic_dvbc, dib_dvbe, dib_dvbc)
}

impl Bjt {
    /// Terminal currents at explicit terminal voltages, excluding the
    /// substrate parasitic (which is reported by
    /// [`Bjt::substrate_leakage`]).
    #[must_use]
    pub fn dc_currents(&self, vc: Volt, vb: Volt, ve: Volt, temperature: Kelvin) -> BjtCurrents {
        let s = self.polarity.sign();
        let m = self.at_temperature(temperature);
        let vbe = s * (vb.value() - ve.value());
        let vbc = s * (vb.value() - vc.value());
        let (ic, ib, ..) = self.gummel_poon(vbe, vbc, &m);
        BjtCurrents {
            ic: Ampere::new(s * ic),
            ib: Ampere::new(s * ib),
            ie: Ampere::new(-s * (ic + ib)),
        }
    }

    /// Current the parasitic vertical transistor injects from the emitter
    /// into the substrate, at the given base/emitter voltages (positive =
    /// emitter-to-substrate for a PNP).
    #[must_use]
    pub fn substrate_leakage(&self, vb: Volt, ve: Volt, temperature: Kelvin) -> Ampere {
        let Some((_, j)) = self.substrate else {
            return Ampere::new(0.0);
        };
        let law = SpiceIsLaw::new(j.is, self.params.t_nom, j.eg, j.xti);
        let is = law.is_at(temperature).value() * self.area;
        let vt = thermal_voltage(temperature).value() * j.emission;
        let vbe = self.polarity.sign() * (vb.value() - ve.value());
        let (e, _) = limexp(vbe / vt);
        Ampere::new(is * (e - 1.0))
    }

    /// The `VBE` this device needs to conduct collector current `ic` with
    /// collector-base junction at zero bias (diode-connected measurement
    /// configuration), at the given temperature. Ideal inversion used for
    /// test setup and cross-checks.
    #[must_use]
    pub fn vbe_for_ic(&self, ic: Ampere, temperature: Kelvin) -> Volt {
        let m = self.at_temperature(temperature);
        Volt::new(m.vt_f * (ic.value() / m.is + 1.0).ln())
    }

    /// The full per-temperature model slot array, exactly as the stamp
    /// path caches it: the Gummel-Poon card via
    /// [`BjtAtTemperature::to_slots`] plus the substrate parasitic's
    /// saturation current and thermal voltage when present.
    pub(crate) fn model_slots(&self, t: Kelvin) -> [f64; DEVICE_TEMP_SLOTS] {
        let mut slots = self.at_temperature(t).to_slots();
        if let Some((_, j)) = self.substrate {
            let law = SpiceIsLaw::new(j.is, self.params.t_nom, j.eg, j.xti);
            slots[SLOT_SUB_IS] = law.is_at(t).value() * self.area;
            slots[SLOT_SUB_VT] = thermal_voltage(t).value() * j.emission;
        }
        slots
    }

    /// The full eval-cache payload at `(vbe, vbc)` from cached model
    /// slots: `[ic, ib, y11, y12, y21, y22, i_raw, g]`. This is the eval
    /// miss path of [`Element::stamp`].
    ///
    /// All five junction sites run through one fixed-width
    /// [`limexp_lanes`] block, vectorized *within* the device, so the
    /// miss path pays one SIMD exponential pass instead of up to five
    /// serial scalar calls. Dead leakage/substrate sites
    /// compute whatever their (possibly `inf`/`NaN`) argument yields;
    /// the combine never reads them, mirroring [`Bjt::gummel_poon`]'s
    /// conditionals bit-for-bit.
    pub(crate) fn eval_slots(
        &self,
        vbe: f64,
        vbc: f64,
        slots: &[f64; DEVICE_TEMP_SLOTS],
    ) -> [f64; DEVICE_EVAL_SLOTS] {
        let m = BjtAtTemperature::from_slots(slots);
        let args = [
            vbe / m.vt_f,
            vbc / m.vt_r,
            vbe / m.vt_e,
            vbc / m.vt_c,
            vbe / slots[SLOT_SUB_VT],
        ];
        let mut vals = [0.0; 5];
        let mut slopes = [0.0; 5];
        limexp_lanes(&args, &mut vals, &mut slopes);
        let site = |s: usize| (vals[s], slopes[s]);
        let (ic, ib, y11, y12, y21, y22) =
            gummel_poon_combine(vbe, vbc, &m, site(0), site(1), site(2), site(3));
        let (i_raw, g) = if self.substrate.is_some() {
            substrate_combine(slots[SLOT_SUB_IS], slots[SLOT_SUB_VT], site(4))
        } else {
            (0.0, 0.0)
        };
        [ic, ib, y11, y12, y21, y22, i_raw, g]
    }
}

/// Substrate-parasitic combine of the eval miss path: `(i_raw, g)` from
/// the junction limexp pair.
fn substrate_combine(is: f64, vt: f64, (e, de): (f64, f64)) -> (f64, f64) {
    (is * (e - 1.0), is * de / vt)
}

impl Element for Bjt {
    fn name(&self) -> &str {
        &self.name
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn nodes(&self) -> Vec<NodeId> {
        let mut n = vec![self.collector, self.base, self.emitter];
        if let Some((s, _)) = self.substrate {
            n.push(s);
        }
        n
    }

    fn stamp(&self, ctx: &mut StampContext<'_>) {
        let s = self.polarity.sign();
        let t = ctx.temperature();

        // Model cache: the powf-heavy per-temperature card values (and the
        // parasitic's saturation current / thermal voltage) are pure
        // functions of T, so reusing them at the same temperature bits is
        // exact.
        let t_bits = t.value().to_bits();
        let slots = match ctx.cached_model(t_bits) {
            Some(slots) => slots,
            None => {
                let slots = self.model_slots(t);
                ctx.store_model(t_bits, slots);
                slots
            }
        };

        let (vc, vb, ve) = (ctx.v(self.collector), ctx.v(self.base), ctx.v(self.emitter));
        let vbe = s * (vb - ve);
        let vbc = s * (vb - vc);

        // Evaluation cache: every output is a pure function of (vbe, vbc)
        // and the cached model values — including the substrate parasitic,
        // which is controlled by vbe alone.
        let out: [f64; DEVICE_EVAL_SLOTS] = match ctx.cached_eval([vbe, vbc]) {
            Some(out) => out,
            None => {
                let out = self.eval_slots(vbe, vbc, &slots);
                ctx.store_eval([vbe, vbc], out);
                out
            }
        };
        let [ic, ib, y11, y12, y21, y22, i_raw, g] = out;

        // Out-currents: collector s*ic, base s*ib, emitter -s*(ic+ib).
        ctx.add_node_residual(self.collector, s * ic);
        ctx.add_node_residual(self.base, s * ib);
        ctx.add_node_residual(self.emitter, -s * (ic + ib));

        // d out_c (note s^2 = 1 cancels in node-voltage derivatives).
        ctx.add_jac_node_node(self.collector, self.base, y11 + y12);
        ctx.add_jac_node_node(self.collector, self.emitter, -y11);
        ctx.add_jac_node_node(self.collector, self.collector, -y12);
        // d out_b.
        ctx.add_jac_node_node(self.base, self.base, y21 + y22);
        ctx.add_jac_node_node(self.base, self.emitter, -y21);
        ctx.add_jac_node_node(self.base, self.collector, -y22);
        // d out_e.
        ctx.add_jac_node_node(self.emitter, self.base, -(y11 + y12 + y21 + y22));
        ctx.add_jac_node_node(self.emitter, self.emitter, y11 + y21);
        ctx.add_jac_node_node(self.emitter, self.collector, y12 + y22);

        // Parasitic vertical transistor: transport current controlled by
        // the emitter-base junction, flowing emitter -> substrate (for the
        // PNP orientation; mirrored for NPN).
        if let Some((sub, _)) = self.substrate {
            // Out-of-emitter current is -s * i_raw (for PNP, s = -1:
            // positive i_raw leaves the emitter node), and the substrate
            // receives it.
            ctx.add_node_residual(self.emitter, -s * i_raw);
            ctx.add_node_residual(sub, s * i_raw);
            // vbe = s (vb - ve): the s^2 factors cancel in the Jacobian.
            ctx.add_jac_node_node(self.emitter, self.base, -g);
            ctx.add_jac_node_node(self.emitter, self.emitter, g);
            ctx.add_jac_node_node(sub, self.base, g);
            ctx.add_jac_node_node(sub, self.emitter, -g);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::Circuit;

    fn npn() -> (Circuit, Bjt) {
        let mut c = Circuit::new();
        let (nc, nb, ne) = (c.node("c"), c.node("b"), c.node("e"));
        let q = Bjt::new("Q1", nc, nb, ne, Polarity::Npn, BjtParams::default_npn()).unwrap();
        (c, q)
    }

    #[test]
    fn forward_active_has_beta_ratio() {
        let (_, q) = npn();
        let i = q.dc_currents(
            Volt::new(3.0),
            Volt::new(0.62),
            Volt::new(0.0),
            Kelvin::new(298.15),
        );
        let beta = i.ic.value() / i.ib.value();
        // Leakage makes beta < BF at moderate bias but well above 10.
        assert!(beta > 10.0 && beta < 120.0, "beta = {beta}");
        // KCL: currents into all three terminals sum to zero.
        assert!((i.ic.value() + i.ib.value() + i.ie.value()).abs() < 1e-18);
    }

    #[test]
    fn collector_current_is_exponential_in_vbe() {
        let (_, q) = npn();
        let t = Kelvin::new(298.15);
        let i1 = q
            .dc_currents(Volt::new(3.0), Volt::new(0.60), Volt::new(0.0), t)
            .ic
            .value();
        let dv = 0.0257 * 10f64.ln();
        let i2 = q
            .dc_currents(Volt::new(3.0), Volt::new(0.60 + dv), Volt::new(0.0), t)
            .ic
            .value();
        assert!((i2 / i1 - 10.0).abs() < 0.3, "decade ratio {}", i2 / i1);
    }

    #[test]
    fn pnp_mirrors_npn() {
        let mut c = Circuit::new();
        let (nc, nb, ne) = (c.node("c"), c.node("b"), c.node("e"));
        let q = Bjt::new("Q1", nc, nb, ne, Polarity::Pnp, BjtParams::default_npn()).unwrap();
        // PNP forward active: emitter above base.
        let i = q.dc_currents(
            Volt::new(0.0),
            Volt::new(0.58),
            Volt::new(1.2),
            Kelvin::new(298.15),
        );
        // Collector current flows OUT of the collector: negative into it.
        assert!(i.ic.value() < 0.0);
        assert!(i.ie.value() > 0.0);
        assert!((i.ic.value() + i.ib.value() + i.ie.value()).abs() < 1e-18);
    }

    #[test]
    fn is_temperature_law_matches_eq1() {
        let (_, q) = npn();
        let p = q.params();
        let hot = Kelvin::new(348.15);
        // vbe_for_ic inverts IS(T): check IS(T) ratio appears in VBE shift.
        let v_cold = q.vbe_for_ic(Ampere::new(1e-6), p.t_nom).value();
        let v_hot = q.vbe_for_ic(Ampere::new(1e-6), hot).value();
        assert!(v_hot < v_cold - 0.05, "VBE must drop strongly with T");
    }

    #[test]
    fn high_injection_bends_the_gummel_plot() {
        let mut c = Circuit::new();
        let (nc, nb, ne) = (c.node("c"), c.node("b"), c.node("e"));
        let mut params = BjtParams::default_npn();
        params.ikf = Ampere::new(1e-4);
        let q = Bjt::new("Q1", nc, nb, ne, Polarity::Npn, params).unwrap();
        let t = Kelvin::new(298.15);
        // Below the knee: full slope; far above: half slope.
        let v_lo = 0.55;
        let v_hi = 0.95;
        let dv = 0.010;
        let slope = |v: f64| {
            let i1 = q
                .dc_currents(Volt::new(3.0), Volt::new(v), Volt::new(0.0), t)
                .ic
                .value();
            let i2 = q
                .dc_currents(Volt::new(3.0), Volt::new(v + dv), Volt::new(0.0), t)
                .ic
                .value();
            (i2 / i1).ln() / dv
        };
        let s_lo = slope(v_lo);
        let s_hi = slope(v_hi);
        assert!(
            s_hi < 0.65 * s_lo,
            "expected high-injection slope reduction: {s_lo} -> {s_hi}"
        );
    }

    #[test]
    fn jacobian_matches_finite_difference() {
        let (_, q) = npn();
        let m = q.at_temperature(Kelvin::new(298.15));
        let (vbe, vbc) = (0.63, -2.0);
        let h = 1e-8;
        let (ic, ib, y11, y12, y21, y22) = q.gummel_poon(vbe, vbc, &m);
        let (ic_e, ib_e, ..) = q.gummel_poon(vbe + h, vbc, &m);
        let (ic_c, ib_c, ..) = q.gummel_poon(vbe, vbc + h, &m);
        assert!(((ic_e - ic) / h - y11).abs() / y11.abs().max(1e-12) < 1e-4);
        assert!(((ic_c - ic) / h - y12).abs() / y12.abs().max(1e-9) < 1e-3);
        assert!(((ib_e - ib) / h - y21).abs() / y21.abs().max(1e-12) < 1e-4);
        assert!(((ib_c - ib) / h - y22).abs() / y22.abs().max(1e-9) < 1e-3);
    }

    #[test]
    fn jacobian_with_early_and_knee_matches_finite_difference() {
        let mut c = Circuit::new();
        let (nc, nb, ne) = (c.node("c"), c.node("b"), c.node("e"));
        let mut params = BjtParams::default_npn();
        params.ikf = Ampere::new(1e-5);
        params.vaf = Volt::new(50.0);
        params.var = Volt::new(5.0);
        let q = Bjt::new("Q1", nc, nb, ne, Polarity::Npn, params).unwrap();
        let m = q.at_temperature(Kelvin::new(298.15));
        let (vbe, vbc) = (0.68, -1.0);
        let h = 1e-8;
        let (ic, _, y11, y12, ..) = q.gummel_poon(vbe, vbc, &m);
        let (ic_e, ..) = q.gummel_poon(vbe + h, vbc, &m);
        let (ic_c, ..) = q.gummel_poon(vbe, vbc + h, &m);
        assert!(((ic_e - ic) / h - y11).abs() / y11.abs() < 1e-3);
        assert!(((ic_c - ic) / h - y12).abs() / y12.abs().max(1e-9) < 1e-2);
    }

    #[test]
    fn area_scales_collector_current() {
        let mut c = Circuit::new();
        let (nc, nb, ne) = (c.node("c"), c.node("b"), c.node("e"));
        let q1 = Bjt::new("Q1", nc, nb, ne, Polarity::Npn, BjtParams::default_npn()).unwrap();
        let q8 = q1.clone().with_area(8.0).unwrap();
        let t = Kelvin::new(298.15);
        let i1 = q1
            .dc_currents(Volt::new(3.0), Volt::new(0.6), Volt::new(0.0), t)
            .ic
            .value();
        let i8 = q8
            .dc_currents(Volt::new(3.0), Volt::new(0.6), Volt::new(0.0), t)
            .ic
            .value();
        assert!((i8 / i1 - 8.0).abs() < 1e-6);
    }

    #[test]
    fn area_ratio_8_gives_ptat_dvbe() {
        // The Fig.-2 principle: at equal IC, dVBE = (kT/q) ln 8.
        let mut c = Circuit::new();
        let (nc, nb, ne) = (c.node("c"), c.node("b"), c.node("e"));
        let qa = Bjt::new("QA", nc, nb, ne, Polarity::Pnp, BjtParams::default_npn()).unwrap();
        let qb = qa.clone().with_area(8.0).unwrap();
        for t in [248.15, 298.15, 348.15] {
            let t = Kelvin::new(t);
            let ic = Ampere::new(1e-6);
            let dvbe = qa.vbe_for_ic(ic, t).value() - qb.vbe_for_ic(ic, t).value();
            let expected = icvbe_units::constants::BOLTZMANN_OVER_Q * t.value() * 8.0_f64.ln();
            assert!(
                (dvbe - expected).abs() < 1e-7,
                "dVBE at {t}: {dvbe} vs {expected}"
            );
        }
    }

    #[test]
    fn substrate_leakage_grows_with_temperature() {
        let mut c = Circuit::new();
        let (nc, nb, ne) = (c.node("c"), c.node("b"), c.node("e"));
        let q = Bjt::new("QB", nc, nb, ne, Polarity::Pnp, BjtParams::default_npn())
            .unwrap()
            .with_area(8.0)
            .unwrap()
            .with_substrate(Circuit::ground(), SubstrateJunction::bicmos_default());
        // PNP forward: emitter 0.5 V above base.
        let lo = q
            .substrate_leakage(Volt::new(0.0), Volt::new(0.5), Kelvin::new(298.15))
            .value();
        let hi = q
            .substrate_leakage(Volt::new(0.0), Volt::new(0.5), Kelvin::new(398.15))
            .value();
        assert!(lo > 0.0, "forward parasitic must conduct, got {lo:e}");
        assert!(
            hi > 10.0 * lo,
            "leakage must rise steeply: {lo:e} -> {hi:e}"
        );
    }

    #[test]
    fn validation_rejects_bad_cards() {
        let mut c = Circuit::new();
        let (nc, nb, ne) = (c.node("c"), c.node("b"), c.node("e"));
        let mut p = BjtParams::default_npn();
        p.is = Ampere::new(-1.0);
        assert!(Bjt::new("Q", nc, nb, ne, Polarity::Npn, p).is_err());
        let mut p = BjtParams::default_npn();
        p.eg = ElectronVolt::new(5.0);
        assert!(Bjt::new("Q", nc, nb, ne, Polarity::Npn, p).is_err());
        let q = Bjt::new("Q", nc, nb, ne, Polarity::Npn, BjtParams::default_npn()).unwrap();
        assert!(q.with_area(-1.0).is_err());
    }
}
