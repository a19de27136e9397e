//! Process and host facts read from `/proc` and the toolchain: peak
//! resident memory, CPU time, core count, and the provenance block.

use std::process::Command;

/// Clock ticks per second of `/proc/<pid>/stat` CPU times (Linux USER_HZ).
const USER_HZ: f64 = 100.0;

/// Peak resident set size of this process in MiB (`VmHWM`), 0 if unknown.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Restarts the peak resident set (`VmHWM`) from the current resident set,
/// so a later [`peak_rss_mb`] covers only what ran since. Does nothing where
/// `/proc/self/clear_refs` is not writable.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// User + system CPU seconds consumed by this process so far.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields overall, i.e. the 12th and 13th after it.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    (tick(11) + tick(12)) / USER_HZ
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let s = String::from_utf8_lossy(&out.stdout).trim().to_string();
    (!s.is_empty()).then_some(s)
}

/// Escapes a string for a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The provenance block: host, build, toolchain, revision, seed and the
/// workload's parameters (`params` is a pre-rendered JSON object body).
pub fn provenance(workload: &str, seed: u64, seconds: u64, trace: bool, params: &str) -> String {
    let rustc = command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into());
    // Only ask git inside a checkout that has its own `.git`, so the lookup
    // never climbs into an enclosing directory's repository.
    let rev = std::path::Path::new(".git")
        .exists()
        .then(|| command_line("git", &["--git-dir=.git", "rev-parse", "HEAD"]))
        .flatten()
        .unwrap_or_else(|| "unknown".into());
    let profile = if cfg!(debug_assertions) { "debug" } else { "release" };
    format!(
        "{{\"workload\": {}, \"seed\": {seed}, \"seconds\": {seconds}, \"trace\": {trace}, \
         \"nproc\": {}, \"profile\": \"{profile}\", \"git_rev\": {}, \"rustc\": {}, \
         \"params\": {{{params}}}}}",
        json_str(workload),
        nproc(),
        json_str(&rev),
        json_str(&rustc)
    )
}
