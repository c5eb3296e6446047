//! The host fingerprint written into every output file, so runs from
//! different machines, toolchains or revisions are recognised and never
//! silently compared.

use std::hint::black_box;
use std::process::{Command, Stdio};
use std::time::Instant;

use serde::Value;

/// Iterations of the calibration loop. Fixed: `host.calib_ns` is only
/// comparable between hosts if every host runs the same work.
const CALIB_ITERS: u64 = 20_000_000;

/// Host nanoseconds of a fixed integer spin loop, the fastest of five
/// tries: a yardstick for this core's speed that needs no other program.
pub fn calib_ns() -> f64 {
    (0..5)
        .map(|_| {
            let t = Instant::now();
            let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
            for i in 0..CALIB_ITERS {
                x = black_box(x ^ i).wrapping_mul(0x2545_f491_4f6c_dd1d);
            }
            black_box(x);
            t.elapsed().as_nanos() as f64
        })
        .fold(f64::INFINITY, f64::min)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// A `Name:\t<value> ...` field of `/proc/self/status`, first token.
pub fn proc_status(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line[field.len()..]
        .trim_start_matches(':')
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

fn rustc_version() -> String {
    Command::new("rustc")
        .arg("-V")
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The checked-out commit, read from `.git` in the working directory
/// without running git (the benchmark may run from an exported tree,
/// where the answer is "unknown").
fn git_head() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(sha) = read(&format!(".git/{reference}")) {
        return sha.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The fingerprint as a JSON object.
pub fn fingerprint() -> Value {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    Value::Object(vec![
        ("nproc".into(), Value::U64(nproc)),
        ("cpu_model".into(), Value::Str(cpu_model())),
        ("rustc".into(), Value::Str(rustc_version())),
        ("git_head".into(), Value::Str(git_head())),
        (
            "threads".into(),
            Value::U64(proc_status("Threads").unwrap_or(0)),
        ),
        ("host.calib_ns".into(), Value::F64(calib_ns())),
    ])
}
