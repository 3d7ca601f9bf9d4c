//! What the record says about the machine: the host header, and the
//! process resource counters the per-layer table reads.

use serde_json::Value;
use std::hint::black_box;
use std::process::Command;
use std::time::Instant;

/// Process-wide resource counters (all threads, live and exited).
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    pub cpu_ns: u64,
    pub minor_faults: u64,
    pub invol_ctx_switches: u64,
    /// Peak resident set: `ru_maxrss`, the counter `/proc/self/status`
    /// prints as `VmHWM`.
    pub max_rss_kib: u64,
}

#[cfg(target_os = "linux")]
pub fn usage() -> Usage {
    #[repr(C)]
    struct Timeval {
        sec: i64,
        usec: i64,
    }
    /// `struct rusage` on 64-bit Linux: two timevals, then 14 longs.
    #[repr(C)]
    struct Rusage {
        utime: Timeval,
        stime: Timeval,
        longs: [i64; 14],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    let mut r = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        longs: [0; 14],
    };
    // SAFETY: `r` is a writable `struct rusage` with the 64-bit Linux
    // layout, and RUSAGE_SELF is a valid `who`.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut r) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    let ns = |t: &Timeval| t.sec as u64 * 1_000_000_000 + t.usec as u64 * 1_000;
    Usage {
        cpu_ns: ns(&r.utime) + ns(&r.stime),
        max_rss_kib: r.longs[0] as u64,
        minor_faults: r.longs[4] as u64,
        invol_ctx_switches: r.longs[13] as u64,
    }
}

#[cfg(not(target_os = "linux"))]
pub fn usage() -> Usage {
    Usage::default()
}

/// Restrict this process (and the threads it starts later) to the first CPU
/// it may run on. Returns whether that worked.
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> bool {
    /// `cpu_set_t`: 1024 bits.
    type CpuSet = [u64; 16];
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    }
    let mut mask: CpuSet = [0; 16];
    // SAFETY: `mask` is a writable `cpu_set_t` of the size passed; pid 0 is
    // the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut mask) } != 0 {
        return false;
    }
    let Some(cpu) = (0..1024).find(|&c| mask[c / 64] & (1 << (c % 64)) != 0) else {
        return false;
    };
    let mut one: CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: as above, with a readable mask holding one allowed CPU.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &one) == 0 }
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> bool {
    false
}

/// Wall-time speed-up of two threads over one on the same spin loop: about
/// 2 with two free cores, about 1 when two threads time-slice on one.
pub fn parallel_speedup() -> f64 {
    fn spin(n: u64) -> u64 {
        let mut x = 1u64;
        for i in 0..n {
            x = black_box(x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i));
        }
        x
    }
    let n = 20_000_000;
    let t = Instant::now();
    black_box(spin(n));
    let one = t.elapsed().as_secs_f64();
    let t = Instant::now();
    std::thread::scope(|s| {
        let a = s.spawn(|| spin(n));
        let b = s.spawn(|| spin(n));
        black_box(a.join().expect("spin thread") ^ b.join().expect("spin thread"));
    });
    let two = t.elapsed().as_secs_f64();
    2.0 * one / two
}

fn command_line(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The host header every result carries.
pub fn header() -> Value {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".into(), |s| s.trim().to_string());
    Value::Object(vec![
        ("nproc".into(), Value::UInt(nproc)),
        ("cpu_model".into(), Value::String(cpu_model())),
        ("kernel".into(), Value::String(kernel)),
        ("rustc".into(), Value::String(command_line("rustc", &["-V"]))),
        ("commit".into(), Value::String(command_line("git", &["rev-parse", "HEAD"]))),
        ("parallel_speedup".into(), Value::Float((parallel_speedup() * 1000.0).round() / 1000.0)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_moves_with_work() {
        let a = usage();
        let v: Vec<u8> = vec![1; 8 << 20];
        black_box(&v);
        let b = usage();
        assert!(b.cpu_ns >= a.cpu_ns && b.minor_faults >= a.minor_faults);
        if cfg!(target_os = "linux") {
            assert!(b.max_rss_kib >= 8 << 10, "8 MiB were just touched: {b:?}");
        }
    }
}
