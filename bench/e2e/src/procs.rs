//! Child processes of the served workloads, `/proc` accounting, and the
//! runner facts recorded beside every result.

use std::fs::OpenOptions;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Children that are killed and reaped when the fleet is dropped, so no
/// exit path (a failed check, a panic, an early return) leaks a server.
#[derive(Default)]
pub struct Fleet(Vec<Child>);

impl Fleet {
    /// Start `forkbase` with `args`, its stdout and stderr appended to
    /// `log`. Returns the child's pid.
    pub fn spawn(&mut self, bin: &Path, args: &[&str], log: &Path) -> Result<u32, String> {
        let logf = OpenOptions::new()
            .create(true)
            .append(true)
            .open(log)
            .map_err(|e| format!("open {}: {e}", log.display()))?;
        let child = Command::new(bin)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::from(
                logf.try_clone()
                    .map_err(|e| format!("clone log handle: {e}"))?,
            ))
            .stderr(Stdio::from(logf))
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let pid = child.id();
        self.0.push(child);
        Ok(pid)
    }

    /// Kill and reap every child now.
    pub fn stop(&mut self) {
        for child in &mut self.0 {
            let _ = child.kill();
            let _ = child.wait();
        }
        self.0.clear();
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Poll `log` until a line starting with `prefix` appears; returns the
/// rest of that line (the address the child resolved).
pub fn wait_for_line(log: &Path, prefix: &str) -> Result<String, String> {
    let give_up = Instant::now() + Duration::from_secs(30);
    loop {
        if let Ok(text) = std::fs::read_to_string(log) {
            if let Some(line) = text.lines().find(|l| l.starts_with(prefix)) {
                return Ok(line[prefix.len()..].trim().to_string());
            }
        }
        if Instant::now() > give_up {
            return Err(format!(
                "child never printed {prefix:?}; see {}",
                log.display()
            ));
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Locate the `forkbase` binary: `$FORKBASE_BIN` (set by `run.sh`), else
/// next to this executable (one shared Cargo target directory).
pub fn forkbase_bin() -> Option<PathBuf> {
    if let Some(p) = std::env::var_os("FORKBASE_BIN") {
        let p = PathBuf::from(p);
        return p.is_file().then_some(p);
    }
    let sibling = std::env::current_exe().ok()?.with_file_name("forkbase");
    sibling.is_file().then_some(sibling)
}

/// User + system CPU time a process has used, in microseconds. `pid` 0
/// means this process.
pub fn cpu_us(pid: u32) -> u64 {
    let path = if pid == 0 {
        "/proc/self/stat".to_string()
    } else {
        format!("/proc/{pid}/stat")
    };
    let Ok(stat) = std::fs::read_to_string(path) else {
        return 0;
    };
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th of the whole line, in clock ticks (100 per second on
    // every Linux this runs on).
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(11) + ticks(12)) * 10_000
}

/// Peak resident set of a process in MiB (`VmHWM`). `pid` 0 means this
/// process.
pub fn rss_peak_mib(pid: u32) -> f64 {
    let path = if pid == 0 {
        "/proc/self/status".to_string()
    } else {
        format!("/proc/{pid}/status")
    };
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Bytes of every regular file under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let mut total = 0;
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else {
            continue;
        };
        for entry in entries.flatten() {
            match entry.metadata() {
                Ok(m) if m.is_dir() => stack.push(entry.path()),
                Ok(m) => total += m.len(),
                Err(_) => {}
            }
        }
    }
    total
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The commit under test: `$LOADGEN_COMMIT`, else `.git/HEAD` resolved by
/// hand (the driver's checkout is not a repository, so this may be
/// "unknown").
pub fn commit() -> String {
    if let Ok(c) = std::env::var("LOADGEN_COMMIT") {
        return c;
    }
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .map_or_else(|_| "unknown".into(), |s| s.trim().to_string()),
        None => head,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_see_this_process() {
        assert!(rss_peak_mib(0) > 0.0);
        let before = cpu_us(0);
        let mut x = 0u64;
        while cpu_us(0) == before {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(nproc() >= 1);
        assert!(!cpu_model().is_empty());
    }
}
