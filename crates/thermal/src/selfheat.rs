//! The electro-thermal fixed point: dissipation heats the die, the die
//! temperature changes the dissipation.
//!
//! In the paper's test cell the bias current is PTAT, so power rises with
//! temperature and the die runs measurably hotter than the chamber sensor —
//! which is exactly what the dVBE-computed temperatures of Table 1 expose.

use icvbe_units::Kelvin;

use crate::network::ThermalPath;
use crate::ThermalError;

/// A converged electro-thermal operating point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DieOperatingPoint {
    /// Converged die (junction) temperature.
    pub temperature: Kelvin,
    /// Dissipated power at the converged temperature, in watts.
    pub power_watts: f64,
    /// Fixed-point iterations used.
    pub iterations: usize,
}

/// Solves `T_die = T_amb + Rth * P(T_die)` by damped fixed-point iteration.
///
/// `power` maps a candidate die temperature to dissipated watts. The
/// iteration is under-relaxed (factor 0.8) which converges for every
/// physically reasonable `Rth * dP/dT < 1` loop gain and damps the rest.
///
/// # Errors
///
/// - [`ThermalError::BadParameter`] if `power` returns a negative or
///   non-finite value.
/// - [`ThermalError::NoConvergence`] if the loop gain is >= 1 (thermal
///   runaway) or the budget is exhausted.
///
/// # Examples
///
/// ```
/// use icvbe_thermal::network::ThermalPath;
/// use icvbe_thermal::selfheat::solve_die_temperature;
/// use icvbe_units::Kelvin;
///
/// let path = ThermalPath::ceramic_dip();
/// // PTAT-ish power: 4 mW at 300 K, +1%/K.
/// let op = solve_die_temperature(
///     Kelvin::new(300.0),
///     &path,
///     |t| 4e-3 * (1.0 + 0.01 * (t.value() - 300.0)),
///     1e-9,
///     100,
/// )?;
/// assert!(op.temperature.value() > 300.3);
/// # Ok::<(), icvbe_thermal::ThermalError>(())
/// ```
pub fn solve_die_temperature(
    ambient: Kelvin,
    path: &ThermalPath,
    power: impl FnMut(Kelvin) -> f64,
    tolerance_kelvin: f64,
    max_iterations: usize,
) -> Result<DieOperatingPoint, ThermalError> {
    solve_die_temperature_from(
        ambient,
        ambient,
        path,
        power,
        tolerance_kelvin,
        max_iterations,
    )
}

/// [`solve_die_temperature`] with an explicit starting temperature for the
/// fixed-point iteration (continuation across neighbouring operating
/// points).
///
/// A good seed — the converged temperature of an adjacent setpoint — cuts
/// the iteration count, but the *trajectory* and therefore the rounding of
/// the converged temperature depend on the seed. Callers whose results
/// must not depend on what was solved before (the campaign engine) keep
/// `start` a function of the setpoint's own inputs (today `ambient`), and
/// so must every circuit solve inside `power`: the pair starts each Newton
/// solve at its closed-form diode point.
///
/// # Errors
///
/// Same contract as [`solve_die_temperature`].
pub fn solve_die_temperature_from(
    ambient: Kelvin,
    start: Kelvin,
    path: &ThermalPath,
    mut power: impl FnMut(Kelvin) -> f64,
    tolerance_kelvin: f64,
    max_iterations: usize,
) -> Result<DieOperatingPoint, ThermalError> {
    let mut t = start;
    let mut last_step = f64::INFINITY;
    for iter in 0..max_iterations.max(1) {
        let p = power(t);
        if !p.is_finite() || p < 0.0 {
            return Err(ThermalError::parameter(format!(
                "power callback returned {p} W at {t}"
            )));
        }
        let target = path.die_temperature(ambient, p);
        let step = target.value() - t.value();
        last_step = step.abs();
        // Under-relaxation keeps marginally stable loops from ringing.
        t = Kelvin::new(t.value() + 0.8 * step);
        if last_step < tolerance_kelvin {
            return Ok(DieOperatingPoint {
                temperature: t,
                power_watts: p,
                iterations: iter + 1,
            });
        }
    }
    Err(ThermalError::NoConvergence {
        iterations: max_iterations,
        last_step,
    })
}

/// One-shot self-heating estimate (no feedback): evaluates the power at the
/// ambient temperature only. Kept as the ablation baseline against the full
/// fixed point — accurate when the loop gain `Rth * dP/dT` is small.
#[must_use]
pub fn one_shot_die_temperature(
    ambient: Kelvin,
    path: &ThermalPath,
    mut power: impl FnMut(Kelvin) -> f64,
) -> DieOperatingPoint {
    let p = power(ambient);
    DieOperatingPoint {
        temperature: path.die_temperature(ambient, p),
        power_watts: p,
        iterations: 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_power_converges_to_closed_form() {
        let path = ThermalPath::ceramic_dip(); // 100 K/W total
        let op = solve_die_temperature(Kelvin::new(300.0), &path, |_| 20e-3, 1e-12, 200).unwrap();
        assert!((op.temperature.value() - 302.0).abs() < 1e-9);
        assert!((op.power_watts - 20e-3).abs() < 1e-15);
    }

    #[test]
    fn feedback_raises_above_one_shot() {
        let path = ThermalPath::ceramic_dip();
        let power = |t: Kelvin| 10e-3 * (1.0 + 0.02 * (t.value() - 300.0));
        let fixed = solve_die_temperature(Kelvin::new(300.0), &path, power, 1e-12, 500).unwrap();
        let shot = one_shot_die_temperature(Kelvin::new(300.0), &path, power);
        assert!(fixed.temperature.value() > shot.temperature.value());
        // Closed form: dT = Rth P0 / (1 - Rth P0' ) with loop gain 0.02 * 1 K/W * 10mW...
        // dT = 1.0 / (1 - 100*10e-3*0.02) = 1/(1-0.02) = 1.0204 K.
        assert!((fixed.temperature.value() - 300.0 - 1.0 / 0.98).abs() < 1e-6);
    }

    #[test]
    fn thermal_runaway_is_detected() {
        let path = ThermalPath::new(1000.0, 0.0).unwrap();
        // Loop gain = Rth * dP/dT = 1000 * 0.01 * 1 = 10 >> 1.
        let r = solve_die_temperature(
            Kelvin::new(300.0),
            &path,
            |t| 1e-3 * (1.0 + 10.0 * (t.value() - 300.0).max(0.0)),
            1e-9,
            60,
        );
        assert!(matches!(r, Err(ThermalError::NoConvergence { .. })));
    }

    #[test]
    fn negative_power_is_rejected() {
        let path = ThermalPath::ideal();
        let r = solve_die_temperature(Kelvin::new(300.0), &path, |_| -1.0, 1e-9, 10);
        assert!(matches!(r, Err(ThermalError::BadParameter { .. })));
    }

    #[test]
    fn ideal_path_returns_ambient() {
        let path = ThermalPath::ideal();
        let op = solve_die_temperature(Kelvin::new(250.0), &path, |_| 1.0, 1e-12, 10).unwrap();
        assert_eq!(op.temperature.value(), 250.0);
    }

    #[test]
    fn seeded_start_converges_to_the_same_point_faster() {
        let path = ThermalPath::ceramic_dip();
        let power = |t: Kelvin| 10e-3 * (1.0 + 0.02 * (t.value() - 300.0));
        let ambient = Kelvin::new(300.0);
        let cold = solve_die_temperature(ambient, &path, power, 1e-9, 500).unwrap();
        let seeded =
            solve_die_temperature_from(ambient, cold.temperature, &path, power, 1e-9, 500).unwrap();
        assert!(seeded.iterations < cold.iterations);
        assert!((seeded.temperature.value() - cold.temperature.value()).abs() < 1e-8);
    }
}
