//! The run's environment stamp and the process's peak resident memory.

use std::path::{Path, PathBuf};

/// One line naming the hardware and toolchain the numbers came from:
/// `nproc`, CPU model, L2 size, git commit and rustc version.
pub fn stamp() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    format!(
        "env: nproc={nproc} cpu=\"{cpu}\" l2={} commit={} rustc=\"{}\"",
        l2_size(),
        git_commit().unwrap_or_else(|| "unknown".into()),
        rustc_version()
    )
}

/// Size of the first level-2 cache of CPU 0 as the kernel reports it.
fn l2_size() -> String {
    let base = Path::new("/sys/devices/system/cpu/cpu0/cache");
    (0..8)
        .map(|i| base.join(format!("index{i}")))
        .find(|d| std::fs::read_to_string(d.join("level")).is_ok_and(|l| l.trim() == "2"))
        .and_then(|d| std::fs::read_to_string(d.join("size")).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

/// Commit of the enclosing git checkout, read from `.git` directly.
fn git_commit() -> Option<String> {
    let mut dir: PathBuf = std::env::current_dir().ok()?;
    loop {
        let git = dir.join(".git");
        if git.is_dir() {
            let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
            let head = head.trim();
            let Some(r) = head.strip_prefix("ref: ") else {
                return Some(head.to_string());
            };
            if let Ok(c) = std::fs::read_to_string(git.join(r)) {
                return Some(c.trim().to_string());
            }
            let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
            return packed
                .lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split(' ').next())
                .map(str::to_string);
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".into(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

/// Reset the kernel's resident-set high-water mark to the current RSS,
/// so [`peak_rss_mb`] covers only what runs after this call.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident memory (`VmHWM`) in MB (10^6 bytes); 0 where
/// unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}
