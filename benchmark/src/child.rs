//! The server under test runs as a child process (`kvd-benchmark
//! --serve`), so its CPU time, context switches and memory are read from
//! `/proc/<child>` and never mixed with the load generator's.

use std::collections::HashMap;
use std::fs;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};

use crate::adapter::{LEDGER, LISTENING};

/// A running child server and the pipe that keeps it alive.
pub struct ServerChild {
    child: Child,
    stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
}

impl ServerChild {
    /// Starts `program --serve [--adaptive-seed N]` and waits for its
    /// `listening <addr>` line. A child that exits (or prints anything
    /// else) first is an error, not a hang.
    pub fn spawn(program: &Path, adaptive_seed: Option<u64>) -> Result<ServerChild, String> {
        let mut cmd = Command::new(program);
        cmd.arg("--serve")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped());
        if let Some(seed) = adaptive_seed {
            cmd.arg("--adaptive-seed").arg(seed.to_string());
        }
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", program.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = match read {
            Ok(n) if n > 0 => line
                .trim_end()
                .strip_prefix(LISTENING)
                .and_then(|a| a.parse().ok()),
            _ => None,
        };
        match addr {
            Some(addr) => Ok(ServerChild {
                child,
                stdout,
                addr,
            }),
            None => {
                let _ = child.kill();
                let status = child.wait().map_err(|e| e.to_string())?;
                Err(format!(
                    "server child gave no address (said {:?}, {status})",
                    line.trim_end()
                ))
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Whether the child is still running.
    pub fn alive(&mut self) -> bool {
        matches!(self.child.try_wait(), Ok(None))
    }

    /// Closes the child's stdin, which is its signal to stop, and
    /// returns the counts of its final `ledger` line once it has exited.
    pub fn stop(mut self) -> Result<HashMap<String, u64>, String> {
        drop(self.child.stdin.take());
        let mut counts = None;
        let mut line = String::new();
        while self
            .stdout
            .read_line(&mut line)
            .map_err(|e| e.to_string())?
            > 0
        {
            if let Some(rest) = line.trim_end().strip_prefix(LEDGER) {
                counts = Some(
                    rest.split_whitespace()
                        .filter_map(|kv| kv.split_once('='))
                        .filter_map(|(k, v)| Some((k.to_string(), v.parse().ok()?)))
                        .collect(),
                );
            }
            line.clear();
        }
        let status = self.child.wait().map_err(|e| e.to_string())?;
        if !status.success() {
            return Err(format!("server child ended with {status}"));
        }
        counts.ok_or_else(|| "server child printed no ledger".to_string())
    }
}

impl Drop for ServerChild {
    /// An early return must not leave a server behind.
    fn drop(&mut self) {
        drop(self.child.stdin.take());
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// CPU time and context switches of a process, summed over its threads.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ProcSample {
    /// Nanoseconds on a CPU (`schedstat`, so finer than clock ticks).
    pub cpu_ns: u64,
    pub ctx_switches: u64,
}

/// Reads `/proc/<pid>/task/*/{schedstat,status}`. Threads that come and
/// go between two samples cost a little accuracy; the measured phases
/// keep their threads for their whole length.
pub fn sample_proc(pid: u32) -> ProcSample {
    let mut sample = ProcSample::default();
    let Ok(tasks) = fs::read_dir(format!("/proc/{pid}/task")) else {
        return sample;
    };
    for task in tasks.flatten() {
        let dir = task.path();
        if let Ok(s) = fs::read_to_string(dir.join("schedstat")) {
            sample.cpu_ns += s
                .split_whitespace()
                .next()
                .and_then(|v| v.parse().ok())
                .unwrap_or(0);
        }
        if let Ok(s) = fs::read_to_string(dir.join("status")) {
            sample.ctx_switches += s
                .lines()
                .filter(|l| l.contains("ctxt_switches"))
                .filter_map(|l| l.split_whitespace().nth(1)?.parse::<u64>().ok())
                .sum::<u64>();
        }
    }
    sample
}

/// Peak resident set of a process in MiB (`VmHWM`).
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let kb: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handshake_survives_a_child_that_exits_early() {
        // `true` understands neither flag nor protocol: it exits at once
        // without a word. The handshake must report that, not block.
        let err = ServerChild::spawn(Path::new("true"), None)
            .err()
            .expect("no server there");
        assert!(err.contains("no address"), "{err}");
        let err = ServerChild::spawn(Path::new("/nonexistent/kvd"), None)
            .err()
            .expect("no such program");
        assert!(err.contains("cannot start"), "{err}");
    }

    #[test]
    fn own_process_can_be_sampled() {
        let a = sample_proc(std::process::id());
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        let b = sample_proc(std::process::id());
        assert!(b.cpu_ns > a.cpu_ns, "{a:?} {b:?}");
        assert!(peak_rss_mb(std::process::id()).expect("VmHWM") > 0.0);
    }
}
