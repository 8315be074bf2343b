//! The element interface: how devices contribute to the MNA system.
//!
//! The solver iterates Newton on `f(x) = 0` where `x` stacks node voltages
//! (all non-ground nodes, in creation order) followed by branch currents
//! (one block per element that declares branches). Each element implements
//! [`Element::stamp`], reading the current iterate through
//! [`StampContext`] and accumulating its residual and Jacobian
//! contributions.
//!
//! Sign convention: a node residual is the sum of currents *leaving* the
//! node; Kirchhoff demands it be zero.

use std::cell::Cell;
use std::fmt;

use icvbe_numerics::Matrix;
use icvbe_units::Kelvin;

use crate::netlist::NodeId;

/// Ambient conditions and continuation knobs for one evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalContext {
    /// Device temperature for model-card evaluation.
    pub temperature: Kelvin,
    /// Conductance from every node to ground added by the solver
    /// (gmin continuation; the floor value in a final solve).
    pub gmin: f64,
    /// Scale factor applied to independent sources (source stepping).
    pub source_scale: f64,
}

impl EvalContext {
    /// Nominal context: given temperature, gmin floor, full sources.
    #[must_use]
    pub fn nominal(temperature: Kelvin) -> Self {
        EvalContext {
            temperature,
            gmin: 1e-12,
            source_scale: 1.0,
        }
    }
}

/// Number of per-temperature model-card values a [`DeviceSlot`] caches.
pub const DEVICE_TEMP_SLOTS: usize = 16;
/// Number of evaluation outputs a [`DeviceSlot`] caches.
pub const DEVICE_EVAL_SLOTS: usize = 8;

/// Per-element cache of the most recent model-card refresh and device
/// evaluation, owned by the assembly so it persists across solves.
///
/// Two layers: a *model* cache keyed on the raw bits of the temperature
/// (holding the expensive `powf`-laden per-temperature card values) and an
/// *evaluation* cache keyed on the raw bits of the controlling voltages
/// (holding currents and conductances). Reuse is exact-bit only, which is
/// always sound: the device equations are pure functions, so recomputing
/// would produce identical bits.
#[derive(Debug, Clone, Copy)]
pub struct DeviceSlot {
    temp_key: u64,
    temp_valid: bool,
    temp: [f64; DEVICE_TEMP_SLOTS],
    eval_key: [u64; 2],
    eval_valid: bool,
    eval: [f64; DEVICE_EVAL_SLOTS],
}

impl Default for DeviceSlot {
    fn default() -> Self {
        DeviceSlot {
            temp_key: 0,
            temp_valid: false,
            temp: [0.0; DEVICE_TEMP_SLOTS],
            eval_key: [0; 2],
            eval_valid: false,
            eval: [0.0; DEVICE_EVAL_SLOTS],
        }
    }
}

/// Stamping-effort counters accumulated on the assembly (single-threaded
/// interior mutability; an assembly is per-thread by construction).
#[derive(Debug, Default)]
pub(crate) struct StampCounters {
    pub(crate) device_evals: Cell<u64>,
    pub(crate) device_reuses: Cell<u64>,
}

impl StampCounters {
    pub(crate) fn take(&self) -> StampEffort {
        StampEffort {
            device_evals: self.device_evals.take(),
            device_reuses: self.device_reuses.take(),
        }
    }
}

fn bump(cell: &Cell<u64>) {
    cell.set(cell.get() + 1);
}

/// A snapshot of stamping effort: how much device evaluation work a
/// stretch of solves actually performed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StampEffort {
    /// Full device evaluations performed (model equations run).
    pub device_evals: u64,
    /// Evaluations skipped because the controlling voltages matched the
    /// cached anchor bit-for-bit (always sound).
    pub device_reuses: u64,
}

/// Mutable view an element stamps through.
///
/// Rows/columns are addressed by [`NodeId`] (ground rows/columns are
/// silently dropped) or by the element's local branch ordinal `0..branch_count`.
#[derive(Debug)]
pub struct StampContext<'a> {
    eval: EvalContext,
    x: &'a [f64],
    node_count: usize,
    /// Absolute index of this element's first branch unknown.
    branch_base: usize,
    residual: &'a mut [f64],
    jac: Option<&'a mut Matrix>,
    device: Option<&'a mut DeviceSlot>,
    counters: Option<&'a StampCounters>,
}

impl<'a> StampContext<'a> {
    /// Creates a context for one element. Used by the system assembler.
    pub(crate) fn new(
        eval: EvalContext,
        x: &'a [f64],
        node_count: usize,
        branch_base: usize,
        residual: &'a mut [f64],
        jac: Option<&'a mut Matrix>,
    ) -> Self {
        StampContext {
            eval,
            x,
            node_count,
            branch_base,
            residual,
            jac,
            device: None,
            counters: None,
        }
    }

    /// Attaches this element's persistent device-cache slot plus the
    /// effort counters of the owning assembly.
    pub(crate) fn attach_device(&mut self, slot: &'a mut DeviceSlot, counters: &'a StampCounters) {
        self.device = Some(slot);
        self.counters = Some(counters);
    }

    /// Device temperature.
    #[must_use]
    pub fn temperature(&self) -> Kelvin {
        self.eval.temperature
    }

    /// Independent-source scale factor (1.0 except during source stepping).
    #[must_use]
    pub fn source_scale(&self) -> f64 {
        self.eval.source_scale
    }

    /// Voltage of a node at the current iterate (0 for ground).
    #[must_use]
    pub fn v(&self, node: NodeId) -> f64 {
        match node.unknown_index() {
            Some(i) => self.x[i],
            None => 0.0,
        }
    }

    /// Value of this element's `k`-th branch unknown.
    ///
    /// # Panics
    ///
    /// Panics if `k` exceeds the element's declared branch count (caught by
    /// the debug assertions of the assembler).
    #[must_use]
    pub fn branch(&self, k: usize) -> f64 {
        self.x[self.node_count + self.branch_base + k]
    }

    /// Adds `current` to the KCL residual of `node` (current leaving the
    /// node through this element). Ground is dropped.
    pub fn add_node_residual(&mut self, node: NodeId, current: f64) {
        if let Some(i) = node.unknown_index() {
            self.residual[i] += current;
        }
    }

    /// Adds `value` to this element's `k`-th branch equation residual.
    pub fn add_branch_residual(&mut self, k: usize, value: f64) {
        self.residual[self.node_count + self.branch_base + k] += value;
    }

    /// Adds one surviving (post-ground-drop) Jacobian contribution to
    /// the attached matrix, if any.
    fn push_jac(&mut self, r: usize, c: usize, value: f64) {
        if let Some(j) = self.jac.as_deref_mut() {
            j[(r, c)] += value;
        }
    }

    /// Adds `dI/dV`: derivative of the `row` node's residual with respect
    /// to the `col` node's voltage.
    pub fn add_jac_node_node(&mut self, row: NodeId, col: NodeId, value: f64) {
        if let (Some(r), Some(c)) = (row.unknown_index(), col.unknown_index()) {
            self.push_jac(r, c, value);
        }
    }

    /// Adds derivative of the `row` node's residual with respect to this
    /// element's `k`-th branch current.
    pub fn add_jac_node_branch(&mut self, row: NodeId, k: usize, value: f64) {
        let col = self.node_count + self.branch_base + k;
        if let Some(r) = row.unknown_index() {
            self.push_jac(r, col, value);
        }
    }

    /// Adds derivative of this element's `k`-th branch equation with
    /// respect to the `col` node's voltage.
    pub fn add_jac_branch_node(&mut self, k: usize, col: NodeId, value: f64) {
        let row = self.node_count + self.branch_base + k;
        if let Some(c) = col.unknown_index() {
            self.push_jac(row, c, value);
        }
    }

    /// Adds derivative of branch equation `k` with respect to branch
    /// current `c` (both local to this element).
    pub fn add_jac_branch_branch(&mut self, k: usize, c: usize, value: f64) {
        let row = self.node_count + self.branch_base + k;
        let col = self.node_count + self.branch_base + c;
        self.push_jac(row, col, value);
    }

    /// Cached per-temperature model values, if the attached device slot
    /// was last refreshed at exactly this key (typically `T.to_bits()`).
    /// Always `None` when no slot is attached (cold paths).
    #[must_use]
    pub fn cached_model(&self, key: u64) -> Option<[f64; DEVICE_TEMP_SLOTS]> {
        let slot = self.device.as_ref()?;
        (slot.temp_valid && slot.temp_key == key).then_some(slot.temp)
    }

    /// Stores freshly computed per-temperature model values. Invalidates
    /// the evaluation cache: its outputs depend on the model values.
    pub fn store_model(&mut self, key: u64, values: [f64; DEVICE_TEMP_SLOTS]) {
        if let Some(slot) = self.device.as_mut() {
            slot.temp_key = key;
            slot.temp = values;
            slot.temp_valid = true;
            slot.eval_valid = false;
        }
    }

    /// Cached evaluation outputs for controlling voltages `inputs`: a hit
    /// only when they match the cached anchor bit for bit (the device
    /// equations are pure, so a recompute would produce identical bits).
    #[must_use]
    pub fn cached_eval(&self, inputs: [f64; 2]) -> Option<[f64; DEVICE_EVAL_SLOTS]> {
        let slot = self.device.as_ref()?;
        if !slot.eval_valid || [inputs[0].to_bits(), inputs[1].to_bits()] != slot.eval_key {
            return None;
        }
        if let Some(c) = self.counters {
            bump(&c.device_reuses);
        }
        Some(slot.eval)
    }

    /// Stores the outputs of a full device evaluation at `inputs`, making
    /// them the new reuse anchor, and counts the evaluation.
    pub fn store_eval(&mut self, inputs: [f64; 2], outputs: [f64; DEVICE_EVAL_SLOTS]) {
        if let Some(c) = self.counters {
            bump(&c.device_evals);
        }
        if let Some(slot) = self.device.as_mut() {
            slot.eval_key = [inputs[0].to_bits(), inputs[1].to_bits()];
            slot.eval = outputs;
            slot.eval_valid = true;
        }
    }
}

/// A circuit element.
///
/// Implementors stamp their DC equations through [`StampContext`]. The
/// trait is object-safe: circuits store `Arc<dyn Element>`.
pub trait Element: fmt::Debug + Send + Sync {
    /// Instance name (unique within a circuit by convention).
    fn name(&self) -> &str;

    /// Concrete-type access for exporters and inspectors.
    fn as_any(&self) -> &dyn std::any::Any;

    /// Every node this element touches (used for topology validation).
    fn nodes(&self) -> Vec<NodeId>;

    /// Number of extra branch-current unknowns this element introduces.
    fn branch_count(&self) -> usize {
        0
    }

    /// Accumulates residual and Jacobian contributions at the iterate
    /// exposed by `ctx`.
    fn stamp(&self, ctx: &mut StampContext<'_>);

    /// Whether the element is an independent source whose value should be
    /// ramped during source stepping.
    fn is_independent_source(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ground_rows_are_dropped() {
        let mut residual = vec![0.0; 2];
        let x = vec![1.0, 2.0];
        let mut ctx = StampContext::new(
            EvalContext::nominal(Kelvin::new(300.0)),
            &x,
            2,
            0,
            &mut residual,
            None,
        );
        ctx.add_node_residual(NodeId::GROUND, 5.0);
        assert_eq!(residual, vec![0.0, 0.0]);
    }

    #[test]
    fn node_and_branch_addressing() {
        // 1 node + 1 branch system.
        let x = vec![3.0, 0.25];
        let mut residual = vec![0.0; 2];
        let mut jac = Matrix::zeros(2, 2);
        let mut ckt = crate::netlist::Circuit::new();
        let n1 = ckt.node("n1");
        let mut ctx = StampContext::new(
            EvalContext::nominal(Kelvin::new(300.0)),
            &x,
            1,
            0,
            &mut residual,
            Some(&mut jac),
        );
        assert_eq!(ctx.v(n1), 3.0);
        assert_eq!(ctx.branch(0), 0.25);
        ctx.add_node_residual(n1, 1.0);
        ctx.add_branch_residual(0, -2.0);
        ctx.add_jac_node_branch(n1, 0, 1.0);
        ctx.add_jac_branch_node(0, n1, 1.0);
        ctx.add_jac_branch_branch(0, 0, 7.0);
        assert_eq!(residual, vec![1.0, -2.0]);
        assert_eq!(jac[(0, 1)], 1.0);
        assert_eq!(jac[(1, 0)], 1.0);
        assert_eq!(jac[(1, 1)], 7.0);
    }

    #[test]
    fn device_slot_exact_reuse_and_temperature_invalidation() {
        let x: Vec<f64> = vec![];
        let mut residual: Vec<f64> = vec![];
        let mut slot = DeviceSlot::default();
        let counters = StampCounters::default();
        let mut ctx = StampContext::new(
            EvalContext::nominal(Kelvin::new(300.0)),
            &x,
            0,
            0,
            &mut residual,
            None,
        );
        ctx.attach_device(&mut slot, &counters);

        assert!(ctx.cached_model(300.0f64.to_bits()).is_none());
        ctx.store_model(300.0f64.to_bits(), [1.0; DEVICE_TEMP_SLOTS]);
        assert!(ctx.cached_model(300.0f64.to_bits()).is_some());
        assert!(ctx.cached_model(301.0f64.to_bits()).is_none());

        assert!(ctx.cached_eval([0.6, 0.0]).is_none());
        ctx.store_eval([0.6, 0.0], [2.0; DEVICE_EVAL_SLOTS]);
        assert_eq!(ctx.cached_eval([0.6, 0.0]), Some([2.0; DEVICE_EVAL_SLOTS]));
        // Off-key, however close: miss.
        assert!(ctx.cached_eval([0.6 + 1e-9, 0.0]).is_none());
        // A model refresh invalidates the evaluation cache.
        ctx.store_model(301.0f64.to_bits(), [1.0; DEVICE_TEMP_SLOTS]);
        assert!(ctx.cached_eval([0.6, 0.0]).is_none());

        let effort = counters.take();
        assert_eq!(effort.device_evals, 1);
        assert_eq!(effort.device_reuses, 1);
        assert_eq!(counters.take(), StampEffort::default());
    }
}
