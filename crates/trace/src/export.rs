//! The merged trace of a whole campaign run and its two export formats:
//! Chrome trace-event JSON (Perfetto / `chrome://tracing`) and a
//! collapsed-stack ("folded") text profile for flamegraph tooling.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::event::{SpanKind, SpanPhase, TraceEvent, NO_DIE};

/// The complete, die-ordered event stream of one campaign run.
///
/// The fold thread assembles it as: campaign begin, then each die's
/// records in **die-index order** (regardless of which worker ran the die
/// or when it finished) each followed by its `QueueWait` reorder-buffer
/// span, then campaign end. Because the order and every logical field are
/// deterministic, two `Trace`s from the same spec compare equal after
/// masking wall-clock fields — at any thread count.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Trace {
    /// All span records, in deterministic merge order.
    pub events: Vec<TraceEvent>,
    /// Records discarded because a die overflowed its buffer capacity.
    pub dropped: u64,
}

impl Trace {
    /// Serialises the trace as Chrome trace-event JSON (the "JSON array
    /// format" with metadata), one event per line.
    ///
    /// Field layout per event is fixed: `name`, `cat`, `ph`, `pid` (always
    /// 0), `tid` (worker ordinal, **nondeterministic**), `ts`
    /// (microseconds with nanosecond precision, **nondeterministic**),
    /// `args` (deterministic logical fields, then payload counters —
    /// `nd_`-prefixed ones nondeterministic). Apply
    /// [`mask_nondeterministic`] before comparing across runs.
    pub fn chrome_json(&self) -> String {
        let mut out = String::with_capacity(128 * self.events.len() + 256);
        out.push_str("{\"traceEvents\":[\n");
        for (i, ev) in self.events.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            write_chrome_event(&mut out, ev);
        }
        let _ = write!(
            out,
            "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{{\
             \"schema\":\"icvbe-campaign-trace-v1\",\"dropped\":{}}}}}",
            self.dropped
        );
        out
    }

    /// Serialises the trace as collapsed stacks: one line per unique span
    /// path (`frame;frame;...`) followed by its **self** time in
    /// nanoseconds, lines sorted lexicographically. Feed directly to
    /// flamegraph tooling.
    ///
    /// The frame *paths* are deterministic; the sample counts are wall
    /// clock. Where children ran in parallel under one span (dies under
    /// the campaign root), self time saturates at zero rather than going
    /// negative.
    pub fn folded(&self) -> String {
        let mut totals: BTreeMap<String, u64> = BTreeMap::new();
        // Stack of (path length before this frame, begin ts, child ns).
        let mut stack: Vec<(usize, u64, u64)> = Vec::new();
        let mut path = String::new();
        for ev in &self.events {
            match ev.phase {
                SpanPhase::Begin => {
                    stack.push((path.len(), ev.ts_ns, 0));
                    if !path.is_empty() {
                        path.push(';');
                    }
                    push_frame(&mut path, ev);
                }
                SpanPhase::End => {
                    let Some((keep, begin_ts, child_ns)) = stack.pop() else {
                        continue; // unbalanced stream (dropped records)
                    };
                    let dur = ev.ts_ns.saturating_sub(begin_ts);
                    let self_ns = dur.saturating_sub(child_ns);
                    *totals.entry(path.clone()).or_insert(0) += self_ns;
                    path.truncate(keep);
                    if let Some(parent) = stack.last_mut() {
                        parent.2 += dur;
                    }
                }
            }
        }
        let mut out = String::new();
        for (p, ns) in &totals {
            let _ = writeln!(out, "{p} {ns}");
        }
        out
    }

    /// The `n` slowest dies as `(die, duration_ns)`, slowest first (ties
    /// broken by die index). Durations are wall clock.
    pub fn slowest_dies(&self, n: usize) -> Vec<(u32, u64)> {
        let mut begin: BTreeMap<u32, u64> = BTreeMap::new();
        let mut durations: Vec<(u32, u64)> = Vec::new();
        for ev in &self.events {
            if ev.kind != SpanKind::Die || ev.die == NO_DIE {
                continue;
            }
            match ev.phase {
                SpanPhase::Begin => {
                    begin.insert(ev.die, ev.ts_ns);
                }
                SpanPhase::End => {
                    if let Some(t0) = begin.remove(&ev.die) {
                        durations.push((ev.die, ev.ts_ns.saturating_sub(t0)));
                    }
                }
            }
        }
        durations.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        durations.truncate(n);
        durations
    }

    /// The `n` slowest corners as `(die, corner, duration_ns)`, slowest
    /// first (ties broken by die then corner index). Durations are wall
    /// clock.
    pub fn slowest_corners(&self, n: usize) -> Vec<(u32, i32, u64)> {
        let mut begin: BTreeMap<(u32, i32), u64> = BTreeMap::new();
        let mut durations: Vec<(u32, i32, u64)> = Vec::new();
        for ev in &self.events {
            if ev.kind != SpanKind::Corner {
                continue;
            }
            match ev.phase {
                SpanPhase::Begin => {
                    begin.insert((ev.die, ev.corner), ev.ts_ns);
                }
                SpanPhase::End => {
                    if let Some(t0) = begin.remove(&(ev.die, ev.corner)) {
                        durations.push((ev.die, ev.corner, ev.ts_ns.saturating_sub(t0)));
                    }
                }
            }
        }
        durations.sort_by(|a, b| b.2.cmp(&a.2).then((a.0, a.1).cmp(&(b.0, b.1))));
        durations.truncate(n);
        durations
    }
}

fn push_frame(path: &mut String, ev: &TraceEvent) {
    path.push_str(ev.kind.label());
    if !ev.label.is_empty() {
        path.push(':');
        path.push_str(ev.label);
    }
}

fn write_chrome_event(out: &mut String, ev: &TraceEvent) {
    let _ = write!(
        out,
        "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"{}\",\"pid\":0,\
         \"tid\":{},\"ts\":{}.{:03},\"args\":{{",
        ev.kind.label(),
        ev.kind.category(),
        ev.phase.chrome(),
        ev.worker,
        ev.ts_ns / 1000,
        ev.ts_ns % 1000,
    );
    let _ = write!(out, "\"seq\":{}", ev.seq);
    if ev.die != NO_DIE {
        let _ = write!(out, ",\"die\":{}", ev.die);
    }
    if ev.corner >= 0 {
        let _ = write!(out, ",\"corner\":{}", ev.corner);
    }
    if ev.attempt >= 0 {
        let _ = write!(out, ",\"attempt\":{}", ev.attempt);
    }
    if !ev.label.is_empty() {
        let _ = write!(out, ",\"strategy\":\"{}\"", ev.label);
    }
    if ev.phase == SpanPhase::End {
        let (k0, k1) = ev.kind.payload_keys();
        if !k0.is_empty() {
            let _ = write!(out, ",\"{}\":{}", k0, ev.n0);
        }
        if !k1.is_empty() {
            let _ = write!(out, ",\"{}\":{}", k1, ev.n1);
        }
    }
    out.push_str("}}");
}

/// Blanks the wall-clock fields of a [`Trace::chrome_json`] document so
/// traces from different runs (or thread counts) of the same spec compare
/// byte-identical: the values of `"ts"`, `"tid"` and any key starting
/// with `"nd_"` are replaced by `0`.
///
/// Operates on JSON produced by this crate (keys are plain identifiers;
/// masked values are numbers); it is not a general JSON transformer.
pub fn mask_nondeterministic(json: &str) -> String {
    let bytes = json.as_bytes();
    let mut out = String::with_capacity(json.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'"' {
            // Find the closing quote of this string token.
            let Some(rel) = json[i + 1..].find('"') else {
                out.push_str(&json[i..]);
                break;
            };
            let key = &json[i + 1..i + 1 + rel];
            let after = i + 1 + rel + 1; // index just past the closing quote
            let is_key = bytes.get(after) == Some(&b':');
            if is_key && (key == "ts" || key == "tid" || key.starts_with("nd_")) {
                out.push_str(&json[i..=after]); // `"key":`
                let mut j = after + 1;
                while j < bytes.len()
                    && matches!(bytes[j], b'0'..=b'9' | b'.' | b'-' | b'+' | b'e' | b'E')
                {
                    j += 1;
                }
                out.push('0');
                i = j;
            } else {
                // Copy the whole quoted token so string *values* can never
                // be mistaken for keys.
                out.push_str(&json[i..after]);
                i = after;
            }
        } else {
            // Structural JSON outside strings is ASCII.
            out.push(bytes[i] as char);
            i += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(
        phase: SpanPhase,
        kind: SpanKind,
        die: u32,
        seq: u32,
        ts_ns: u64,
        worker: u32,
    ) -> TraceEvent {
        TraceEvent {
            phase,
            kind,
            die,
            corner: -1,
            attempt: -1,
            label: "",
            seq,
            ts_ns,
            worker,
            n0: 0,
            n1: 0,
        }
    }

    /// campaign[0..1000] ⊃ die0[100..400] ⊃ newton[150..250]
    fn sample_trace(ts_shift: u64, worker: u32) -> Trace {
        let mut t = Trace::default();
        t.events.push(ev(
            SpanPhase::Begin,
            SpanKind::Campaign,
            NO_DIE,
            0,
            ts_shift,
            0,
        ));
        t.events.push(ev(
            SpanPhase::Begin,
            SpanKind::Die,
            0,
            0,
            100 + ts_shift,
            worker,
        ));
        let mut n = ev(
            SpanPhase::Begin,
            SpanKind::Newton,
            0,
            1,
            150 + ts_shift,
            worker,
        );
        t.events.push(n);
        n.phase = SpanPhase::End;
        n.seq = 2;
        n.ts_ns = 250 + ts_shift;
        n.n0 = 6;
        n.n1 = 2;
        t.events.push(n);
        t.events.push(ev(
            SpanPhase::End,
            SpanKind::Die,
            0,
            3,
            400 + ts_shift,
            worker,
        ));
        t.events.push(ev(
            SpanPhase::End,
            SpanKind::Campaign,
            NO_DIE,
            1,
            1000 + ts_shift,
            0,
        ));
        t
    }

    #[test]
    fn chrome_json_has_schema_and_payloads() {
        let json = sample_trace(0, 3).chrome_json();
        assert!(json.contains("\"schema\":\"icvbe-campaign-trace-v1\""));
        assert!(json.contains("\"name\":\"die\""));
        assert!(json.contains("\"cat\":\"solver\""));
        // Newton end carries its iteration payload deterministically; its
        // unused second slot is omitted even when nonzero.
        assert!(json.contains("\"iters\":6}"));
        assert!(!json.contains(":2}"));
        // ts is µs with ns precision: 250 ns → 0.250.
        assert!(json.contains("\"ts\":0.250"));
        // Begin events carry no payload keys.
        assert!(!json.contains("\"iters\":0"));
    }

    #[test]
    fn masking_makes_shifted_runs_byte_identical() {
        // Same logical stream, different wall clock and worker placement.
        let a = sample_trace(0, 3).chrome_json();
        let b = sample_trace(77777, 1).chrome_json();
        assert_ne!(a, b, "raw traces differ in wall-clock fields");
        assert_eq!(mask_nondeterministic(&a), mask_nondeterministic(&b));
        assert!(mask_nondeterministic(&a).contains("\"ts\":0,"));
        assert!(mask_nondeterministic(&a).contains("\"tid\":0,"));
    }

    #[test]
    fn masking_blanks_nd_prefixed_args_only() {
        let json = "{\"args\":{\"nd_buffer\":17,\"iters\":9,\"strategy\":\"ts\"}}";
        let masked = mask_nondeterministic(json);
        assert_eq!(
            masked, "{\"args\":{\"nd_buffer\":0,\"iters\":9,\"strategy\":\"ts\"}}",
            "nd_ values masked, deterministic payloads and string values kept"
        );
    }

    #[test]
    fn folded_reports_self_time_per_path() {
        let folded = sample_trace(0, 0).folded();
        let lines: Vec<&str> = folded.lines().collect();
        // campaign self = 1000 - die dur 300 = 700; die self = 300 - 100;
        // newton self = 100.
        assert_eq!(
            lines,
            vec![
                "campaign 700",
                "campaign;die 200",
                "campaign;die;newton 100",
            ]
        );
    }

    #[test]
    fn folded_saturates_parallel_children_at_zero() {
        // Two dies each 900 ns under a 1000 ns campaign (parallel
        // workers): campaign self time saturates at 0 instead of
        // underflowing.
        let mut t = Trace::default();
        t.events
            .push(ev(SpanPhase::Begin, SpanKind::Campaign, NO_DIE, 0, 0, 0));
        for die in 0..2u32 {
            t.events
                .push(ev(SpanPhase::Begin, SpanKind::Die, die, 0, 50, die));
            t.events
                .push(ev(SpanPhase::End, SpanKind::Die, die, 1, 950, die));
        }
        t.events
            .push(ev(SpanPhase::End, SpanKind::Campaign, NO_DIE, 1, 1000, 0));
        assert_eq!(t.folded(), "campaign 0\ncampaign;die 1800\n");
    }

    #[test]
    fn slowest_dies_and_corners_rank_by_duration() {
        let mut t = Trace::default();
        for (die, dur) in [(0u32, 300u64), (1, 900), (2, 500)] {
            t.events
                .push(ev(SpanPhase::Begin, SpanKind::Die, die, 0, 1000, 0));
            t.events
                .push(ev(SpanPhase::End, SpanKind::Die, die, 1, 1000 + dur, 0));
            for (corner, cdur) in [(0i32, dur / 2), (1, dur / 4)] {
                let mut b = ev(SpanPhase::Begin, SpanKind::Corner, die, 2, 1000, 0);
                b.corner = corner;
                t.events.push(b);
                b.phase = SpanPhase::End;
                b.ts_ns = 1000 + cdur;
                t.events.push(b);
            }
        }
        assert_eq!(t.slowest_dies(2), vec![(1, 900), (2, 500)]);
        assert_eq!(
            t.slowest_corners(3),
            vec![(1, 0, 450), (2, 0, 250), (1, 1, 225)]
        );
    }
}
