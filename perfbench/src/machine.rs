//! The machine fingerprint stamped on every result.

use std::process::Command;

/// The machine as a JSON object: nproc, CPU model, L3 size, total memory,
/// compiler version and source commit ("unknown" where not available).
pub fn fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let meminfo = std::fs::read_to_string("/proc/meminfo").unwrap_or_default();
    let l3 = std::fs::read_to_string("/sys/devices/system/cpu/cpu0/cache/index3/size")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    format!(
        "{{\"nproc\":{nproc},\"cpu\":\"{}\",\"l3\":\"{}\",\"mem_total\":\"{}\",\"rustc\":\"{}\",\"commit\":\"{}\"}}",
        field(&cpuinfo, "model name"),
        l3,
        field(&meminfo, "MemTotal"),
        command_line("rustc", &["--version"]),
        command_line("git", &["rev-parse", "HEAD"]),
    )
}

/// The value of the first `key: value` line of a `/proc` file.
fn field(text: &str, key: &str) -> String {
    text.lines()
        .find_map(|l| {
            let (k, v) = l.split_once(':')?;
            (k.trim() == key).then(|| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The first line a command prints, or "unknown" if it fails.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(|l| l.replace('"', "'")))
        .unwrap_or_else(|| "unknown".into())
}
