//! Deterministic environment-fault injection (chaos).
//!
//! Where [`faults`](crate::faults) corrupts *measurements*, this module
//! corrupts the *environment* the campaign runs in: checkpoint writes
//! that tear or hit a full disk, client sockets that stall or reset, and
//! die solves that panic outright. The goal is the same — recovery paths
//! must be tested invariants, not hopes — so the same design rules apply:
//!
//! - A [`ChaosPlan`] is a pure function of its [`ChaosSpec`] and seed.
//!   Every decision is keyed by an *operation index* chosen by the caller
//!   (a checkpoint generation, a die index), so the verdict for one
//!   operation never depends on how many other operations ran or in what
//!   order — byte-reproducible at any thread count.
//! - The all-zero spec ([`ChaosSpec::none`]) is a strict no-op: every
//!   query returns "no fault" before seeding an RNG or drawing a number.
//!
//! | fault       | injected adversity                          | hardened layer        |
//! |-------------|---------------------------------------------|-----------------------|
//! | write_error | `ENOSPC`/`EIO` before any byte hits disk     | checkpoint writer     |
//! | short_write | write fails after a prefix hits disk         | checkpoint writer     |
//! | torn        | write "succeeds" but only a prefix persists  | checkpoint load ladder|
//! | stall       | accepted socket goes silent for a while      | socket read timeouts  |
//! | reset       | accepted socket drops before the handshake   | connection handling   |
//! | die_panic   | die solve panics mid-flight                  | worker `catch_unwind` |

use std::error::Error;
use std::fmt;
use std::path::Path;

use crate::noise::NoiseSource;

/// Knobs of the deterministic environment-fault injector. All-zero (the
/// default) disables injection entirely.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ChaosSpec {
    /// Per-write probability the write fails with `ENOSPC`/`EIO` before
    /// any byte reaches the file.
    pub write_error_probability: f64,
    /// Per-write probability only a prefix of the payload is written
    /// before the write errors out (the torn prefix stays on disk).
    pub short_write_probability: f64,
    /// Per-write probability the write *reports success* but only a
    /// prefix of the payload actually persists — the crash-consistency
    /// hole torn-file recovery must close.
    pub torn_file_probability: f64,
    /// Per-connection probability the socket stalls (goes silent) after
    /// connecting.
    pub stall_probability: f64,
    /// Stall duration in milliseconds when a stall fires.
    pub stall_millis: u64,
    /// Per-connection probability the socket resets (drops) immediately.
    pub reset_probability: f64,
    /// Per-die probability the die's solve panics mid-flight.
    pub die_panic_probability: f64,
}

/// Parse/validation error for a chaos spec string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosSpecError {
    /// Human-readable description.
    pub detail: String,
}

impl fmt::Display for ChaosSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad chaos spec: {}", self.detail)
    }
}

impl Error for ChaosSpecError {}

fn spec_err(detail: impl Into<String>) -> ChaosSpecError {
    ChaosSpecError {
        detail: detail.into(),
    }
}

impl ChaosSpec {
    /// The all-zero spec: injection disabled, strict no-op on every query.
    #[must_use]
    pub fn none() -> Self {
        ChaosSpec::default()
    }

    /// A mildly hostile environment: occasional torn writes and stalls.
    #[must_use]
    pub fn light() -> Self {
        ChaosSpec {
            write_error_probability: 0.05,
            short_write_probability: 0.05,
            torn_file_probability: 0.05,
            stall_probability: 0.05,
            stall_millis: 50,
            reset_probability: 0.05,
            die_panic_probability: 0.02,
        }
    }

    /// A badly misbehaving environment: most checkpoints and connections
    /// see at least one fault, exercising every recovery path.
    #[must_use]
    pub fn heavy() -> Self {
        ChaosSpec {
            write_error_probability: 0.20,
            short_write_probability: 0.15,
            torn_file_probability: 0.20,
            stall_probability: 0.20,
            stall_millis: 100,
            reset_probability: 0.15,
            die_panic_probability: 0.10,
        }
    }

    /// Whether every knob is zero (injection disabled).
    #[must_use]
    pub fn is_none(&self) -> bool {
        *self == ChaosSpec::default()
    }

    /// Validates probabilities (finite, in `[0, 1]`).
    ///
    /// # Errors
    ///
    /// [`ChaosSpecError`] naming the offending knob.
    pub fn validate(&self) -> Result<(), ChaosSpecError> {
        let probs = [
            ("write_error", self.write_error_probability),
            ("short_write", self.short_write_probability),
            ("torn", self.torn_file_probability),
            ("stall", self.stall_probability),
            ("reset", self.reset_probability),
            ("die_panic", self.die_panic_probability),
        ];
        for (name, p) in probs {
            if !(0.0..=1.0).contains(&p) {
                return Err(spec_err(format!(
                    "probability '{name}' must be in [0, 1], got {p}"
                )));
            }
        }
        Ok(())
    }

    /// Parses a spec string: a preset name (`none`, `light`, `heavy`) or
    /// comma-separated `key=value` pairs over the keys `write_error`,
    /// `short_write`, `torn`, `stall`, `stall_ms`, `reset`, `die_panic`.
    /// Unlisted keys keep their [`ChaosSpec::none`] value of zero.
    ///
    /// # Errors
    ///
    /// [`ChaosSpecError`] on an unknown key, an unparsable value, or an
    /// out-of-range knob.
    pub fn parse(text: &str) -> Result<Self, ChaosSpecError> {
        let trimmed = text.trim();
        match trimmed {
            "none" => return Ok(ChaosSpec::none()),
            "light" => return Ok(ChaosSpec::light()),
            "heavy" => return Ok(ChaosSpec::heavy()),
            "" => return Err(spec_err("empty spec (try 'light', 'heavy' or key=value)")),
            _ => {}
        }
        let keys = "write_error, short_write, torn, stall, stall_ms, reset, die_panic";
        let mut spec = ChaosSpec::none();
        for pair in trimmed.split(',') {
            let Some((key, value)) = pair.split_once('=') else {
                return Err(spec_err(format!(
                    "expected key=value, got '{pair}' (keys: {keys})"
                )));
            };
            let value = value.trim();
            match key.trim() {
                "stall_ms" => {
                    spec.stall_millis = value
                        .parse()
                        .map_err(|_| spec_err(format!("'{value}' is not an integer")))?;
                }
                other => {
                    let p: f64 = value
                        .parse()
                        .map_err(|_| spec_err(format!("'{value}' is not a number")))?;
                    match other {
                        "write_error" => spec.write_error_probability = p,
                        "short_write" => spec.short_write_probability = p,
                        "torn" => spec.torn_file_probability = p,
                        "stall" => spec.stall_probability = p,
                        "reset" => spec.reset_probability = p,
                        "die_panic" => spec.die_panic_probability = p,
                        unknown => {
                            return Err(spec_err(format!("unknown key '{unknown}' (keys: {keys})")))
                        }
                    }
                }
            }
        }
        spec.validate()?;
        Ok(spec)
    }
}

/// The verdict for one file write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteFault {
    /// No injected fault: the write proceeds untouched.
    None,
    /// The write fails with `ENOSPC` before any byte reaches the file.
    NoSpace,
    /// The write fails with `EIO` before any byte reaches the file.
    Io,
    /// The write errors out after `keep` bytes hit the file (the torn
    /// prefix persists, the caller sees the error).
    Short {
        /// Bytes that reached the file before the failure.
        keep: usize,
    },
    /// The write reports success but only `keep` bytes persist — the
    /// caller proceeds believing the file is whole.
    Torn {
        /// Bytes that actually persisted.
        keep: usize,
    },
}

/// The verdict for one accepted connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SocketFault {
    /// No injected fault.
    None,
    /// The peer goes silent for this many milliseconds.
    Stall {
        /// Stall duration.
        millis: u64,
    },
    /// The connection drops immediately.
    Reset,
}

/// Decision domains: each query class mixes a distinct tag into the
/// per-operation key so a write, a socket and a die with the same index
/// never share a draw.
const DOMAIN_WRITE: u64 = 0x57;
const DOMAIN_SOCKET: u64 = 0x50;
const DOMAIN_DIE: u64 = 0x44;

/// SplitMix64 finalizer over `(seed, domain, op)`: the per-operation RNG
/// key. Uncorrelated across consecutive ops and across domains.
fn mix(seed: u64, domain: u64, op: u64) -> u64 {
    let mut z = seed
        .wrapping_add(domain.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(op.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded environment-fault injector: a pure function of
/// `(spec, seed, operation index)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosPlan {
    spec: ChaosSpec,
    seed: u64,
}

impl ChaosPlan {
    /// A plan injecting `spec`, deterministically from `seed`.
    #[must_use]
    pub fn new(spec: ChaosSpec, seed: u64) -> Self {
        ChaosPlan { spec, seed }
    }

    /// The spec this plan injects.
    #[must_use]
    pub fn spec(&self) -> &ChaosSpec {
        &self.spec
    }

    /// The verdict for write number `op` of a `len`-byte payload.
    ///
    /// Strict no-op (no RNG) when the spec is all-zero. Otherwise the
    /// draw order is fixed — fault class, error flavour, keep fraction —
    /// so the verdict depends only on `(spec, seed, op, len)`.
    #[must_use]
    pub fn write_fault(&self, op: u64, len: usize) -> WriteFault {
        if self.spec.is_none() {
            return WriteFault::None;
        }
        let mut rng = NoiseSource::seeded(mix(self.seed, DOMAIN_WRITE, op));
        if self.spec.write_error_probability > 0.0
            && rng.sample_uniform(0.0, 1.0) < self.spec.write_error_probability
        {
            return if rng.sample_uniform(0.0, 1.0) < 0.5 {
                WriteFault::NoSpace
            } else {
                WriteFault::Io
            };
        }
        // Both truncation flavours keep a strict prefix: at least one byte
        // short of the payload, so the damage is always observable.
        let keep = |rng: &mut NoiseSource| {
            let f = rng.sample_uniform(0.0, 1.0);
            ((len as f64 * f) as usize).min(len.saturating_sub(1))
        };
        if self.spec.short_write_probability > 0.0
            && rng.sample_uniform(0.0, 1.0) < self.spec.short_write_probability
        {
            return WriteFault::Short {
                keep: keep(&mut rng),
            };
        }
        if self.spec.torn_file_probability > 0.0
            && rng.sample_uniform(0.0, 1.0) < self.spec.torn_file_probability
        {
            return WriteFault::Torn {
                keep: keep(&mut rng),
            };
        }
        WriteFault::None
    }

    /// The verdict for accepted connection number `op`.
    #[must_use]
    pub fn socket_fault(&self, op: u64) -> SocketFault {
        if self.spec.is_none() {
            return SocketFault::None;
        }
        let mut rng = NoiseSource::seeded(mix(self.seed, DOMAIN_SOCKET, op));
        if self.spec.reset_probability > 0.0
            && rng.sample_uniform(0.0, 1.0) < self.spec.reset_probability
        {
            return SocketFault::Reset;
        }
        if self.spec.stall_probability > 0.0
            && rng.sample_uniform(0.0, 1.0) < self.spec.stall_probability
        {
            return SocketFault::Stall {
                millis: self.spec.stall_millis,
            };
        }
        SocketFault::None
    }

    /// Whether die number `die` is injected with a mid-solve panic.
    /// Keyed by the die index alone, so the verdict is identical at any
    /// thread count.
    #[must_use]
    pub fn die_panics(&self, die: u64) -> bool {
        if self.spec.die_panic_probability <= 0.0 {
            return false;
        }
        let mut rng = NoiseSource::seeded(mix(self.seed, DOMAIN_DIE, die));
        rng.sample_uniform(0.0, 1.0) < self.spec.die_panic_probability
    }

    /// Writes `bytes` to `path` through the injector: the real write when
    /// the verdict is [`WriteFault::None`], otherwise the corresponding
    /// adversity — errors leave either nothing or a torn prefix on disk,
    /// and [`WriteFault::Torn`] leaves a torn prefix *and lies* with `Ok`.
    ///
    /// # Errors
    ///
    /// Genuine I/O errors from the underlying write, plus the injected
    /// `ENOSPC`/`EIO`/short-write failures.
    pub fn write_file(&self, op: u64, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        match self.write_fault(op, bytes.len()) {
            WriteFault::None => std::fs::write(path, bytes),
            WriteFault::NoSpace => Err(std::io::Error::other(
                "chaos: ENOSPC (no space left on device)",
            )),
            WriteFault::Io => Err(std::io::Error::other("chaos: EIO (input/output error)")),
            WriteFault::Short { keep } => {
                let _ = std::fs::write(path, &bytes[..keep]);
                Err(std::io::Error::other(format!(
                    "chaos: short write ({keep} of {} bytes)",
                    bytes.len()
                )))
            }
            WriteFault::Torn { keep } => std::fs::write(path, &bytes[..keep]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_spec_never_faults() {
        let plan = ChaosPlan::new(ChaosSpec::none(), 0xDEAD_BEEF);
        for op in 0..256 {
            assert_eq!(plan.write_fault(op, 1024), WriteFault::None);
            assert_eq!(plan.socket_fault(op), SocketFault::None);
            assert!(!plan.die_panics(op));
        }
    }

    #[test]
    fn same_seed_same_verdicts_different_seed_different() {
        let spec = ChaosSpec::heavy();
        let a: Vec<WriteFault> = (0..64)
            .map(|op| ChaosPlan::new(spec, 42).write_fault(op, 512))
            .collect();
        let b: Vec<WriteFault> = (0..64)
            .map(|op| ChaosPlan::new(spec, 42).write_fault(op, 512))
            .collect();
        assert_eq!(a, b);
        let c: Vec<WriteFault> = (0..64)
            .map(|op| ChaosPlan::new(spec, 43).write_fault(op, 512))
            .collect();
        assert_ne!(a, c);
    }

    #[test]
    fn verdicts_are_keyed_per_operation_not_per_call_order() {
        // Querying op 7 first or last must not change its verdict: the
        // plan holds no mutable state.
        let plan = ChaosPlan::new(ChaosSpec::heavy(), 99);
        let first = plan.write_fault(7, 512);
        for op in 0..64 {
            let _ = plan.write_fault(op, 512);
        }
        assert_eq!(plan.write_fault(7, 512), first);
        let d = plan.die_panics(3);
        let _ = plan.die_panics(4);
        assert_eq!(plan.die_panics(3), d);
    }

    #[test]
    fn heavy_spec_hits_every_fault_class_eventually() {
        let plan = ChaosPlan::new(ChaosSpec::heavy(), 7);
        let mut saw = (false, false, false, false);
        for op in 0..4096 {
            match plan.write_fault(op, 512) {
                WriteFault::NoSpace => saw.0 = true,
                WriteFault::Io => saw.1 = true,
                WriteFault::Short { .. } => saw.2 = true,
                WriteFault::Torn { .. } => saw.3 = true,
                WriteFault::None => {}
            }
        }
        assert_eq!(saw, (true, true, true, true));
        assert!((0..4096).any(|op| plan.die_panics(op)));
        assert!((0..4096).any(|op| plan.socket_fault(op) == SocketFault::Reset));
        assert!(
            (0..4096).any(|op| matches!(plan.socket_fault(op), SocketFault::Stall { millis: 100 }))
        );
    }

    #[test]
    fn truncations_always_keep_a_strict_prefix() {
        let plan = ChaosPlan::new(ChaosSpec::heavy(), 11);
        for op in 0..4096 {
            match plan.write_fault(op, 64) {
                WriteFault::Short { keep } | WriteFault::Torn { keep } => {
                    assert!(keep < 64, "keep {keep} not a strict prefix");
                }
                _ => {}
            }
        }
    }

    #[test]
    fn write_file_tears_and_errors_as_advertised() {
        let dir = std::env::temp_dir().join(format!("icvbe-chaos-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let payload = vec![b'x'; 256];
        let plan = ChaosPlan::new(ChaosSpec::heavy(), 5);
        for op in 0..512u64 {
            let path = dir.join("f");
            let _ = std::fs::remove_file(&path);
            let result = plan.write_file(op, &path, &payload);
            match plan.write_fault(op, payload.len()) {
                WriteFault::None => {
                    assert!(result.is_ok());
                    assert_eq!(std::fs::read(&path).unwrap().len(), 256);
                }
                WriteFault::NoSpace | WriteFault::Io => {
                    assert!(result.is_err());
                    assert!(!path.exists(), "error flavours must not touch the file");
                }
                WriteFault::Short { keep } => {
                    assert!(result.is_err());
                    assert_eq!(std::fs::read(&path).unwrap().len(), keep);
                }
                WriteFault::Torn { keep } => {
                    assert!(result.is_ok(), "torn writes lie");
                    assert_eq!(std::fs::read(&path).unwrap().len(), keep);
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn parse_presets_and_pairs() {
        assert_eq!(ChaosSpec::parse("none").unwrap(), ChaosSpec::none());
        assert_eq!(ChaosSpec::parse("light").unwrap(), ChaosSpec::light());
        assert_eq!(ChaosSpec::parse("heavy").unwrap(), ChaosSpec::heavy());
        let spec = ChaosSpec::parse("torn=0.5,stall=0.25,stall_ms=10").unwrap();
        assert_eq!(spec.torn_file_probability, 0.5);
        assert_eq!(spec.stall_probability, 0.25);
        assert_eq!(spec.stall_millis, 10);
        assert_eq!(spec.write_error_probability, 0.0);
        assert!(ChaosSpec::parse("bogus=1").is_err());
        assert!(ChaosSpec::parse("torn=1.5").is_err());
        assert!(ChaosSpec::parse("torn=abc").is_err());
        assert!(ChaosSpec::parse("stall_ms=abc").is_err());
        assert!(ChaosSpec::parse("").is_err());
    }
}
