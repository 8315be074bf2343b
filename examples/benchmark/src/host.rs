//! Process and host readings: `/proc`, the process CPU clock, and the
//! calibration loop.

use std::hint::black_box;
use std::time::Instant;

/// A `kB` field (`VmHWM`, `VmRSS`, ...) from the text of
/// `/proc/<pid>/status`.
pub fn parse_status_kb(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let value = line.strip_prefix(key)?.strip_prefix(':')?;
        value.split_whitespace().next()?.parse().ok()
    })
}

/// The 1, 5 and 15 minute load averages from the text of `/proc/loadavg`.
pub fn parse_loadavg(text: &str) -> Option<[f64; 3]> {
    let mut fields = text.split_whitespace().map(str::parse::<f64>);
    Some([
        fields.next()?.ok()?,
        fields.next()?.ok()?,
        fields.next()?.ok()?,
    ])
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// CPU time (user + system) of this process in ms: every thread,
/// including the worker threads of campaigns that already ended. Read
/// from the process CPU clock because `/proc/self/stat` counts 10 ms
/// ticks, a few per cent of one wafer rep.
pub fn process_cpu_ms() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `timespec` through the pointer,
    // which is valid, aligned and exclusive for the call; on 64-bit Linux
    // the C struct is two 64-bit integers, as `Timespec` declares. The
    // callee keeps no reference to it.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc == 0 {
        ts.tv_sec as f64 * 1e3 + ts.tv_nsec as f64 * 1e-6
    } else {
        f64::NAN
    }
}

fn status_kb(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_status_kb(&status, key)
}

/// Peak resident set of this process, MB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM").map_or(f64::NAN, |kb| kb as f64 / 1024.0)
}

/// Current resident set of this process, kB.
pub fn rss_kb() -> f64 {
    status_kb("VmRSS").map_or(f64::NAN, |kb| kb as f64)
}

pub fn loadavg() -> Option<[f64; 3]> {
    parse_loadavg(&std::fs::read_to_string("/proc/loadavg").ok()?)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `rustc -V` of the toolchain on `PATH`, or `unknown`.
pub fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

/// Wall time of a fixed scalar compute loop, ms (best of three). It is
/// recorded next to every result and never divided out; see the README
/// for why.
pub fn calibration_ms() -> f64 {
    (0..3)
        .map(|_| {
            let t0 = Instant::now();
            let mut state = black_box(0x9e37_79b9_7f4a_7c15_u64);
            let mut acc = 0.0f64;
            for _ in 0..20_000_000u32 {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                acc = acc.mul_add(0.999_999, (state >> 11) as f64 * 1e-16);
            }
            black_box(acc);
            t0.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_parser_reads_kb_fields_by_key() {
        let status =
            "Name:\tbench\nVmPeak:\t  99999 kB\nVmHWM:\t   51234 kB\nVmRSS:\t   40000 kB\n";
        assert_eq!(parse_status_kb(status, "VmHWM"), Some(51234));
        assert_eq!(parse_status_kb(status, "VmRSS"), Some(40000));
        assert_eq!(parse_status_kb(status, "VmSwap"), None);
        assert_eq!(parse_status_kb("VmHWMx:\t1 kB\n", "VmHWM"), None);
    }

    #[test]
    fn loadavg_parser_reads_three_averages() {
        assert_eq!(
            parse_loadavg("0.52 1.10 2.00 3/456 7890\n"),
            Some([0.52, 1.10, 2.00])
        );
        assert_eq!(parse_loadavg("0.5 x"), None);
    }

    #[test]
    fn live_readings_are_plausible() {
        let cpu0 = process_cpu_ms();
        let mut x = black_box(1u64);
        for i in 0..5_000_000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        black_box(x);
        assert!(process_cpu_ms() > cpu0, "the CPU clock must advance");
        assert!(peak_rss_mb() > 0.0);
        assert!(rss_kb() > 0.0);
    }
}
