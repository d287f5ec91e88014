//! The host a result was measured on, printed with every result: numbers
//! from different hosts, toolchains or commits are not comparable.

use std::fmt;
use std::process::Command;

pub struct Host {
    pub commit: String,
    pub rustc: String,
    pub nproc: usize,
    pub kernel: String,
    pub cpu: String,
    /// `ok`, or the io_uring probe stage that failed and its errno.
    /// io_uring is not a workload (sandboxes often deny it); whether it
    /// was available is part of the record.
    pub io_uring: String,
}

fn unknown() -> String {
    "unknown".to_string()
}

fn stdout_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(unknown)
}

#[cfg(target_os = "linux")]
fn probe_io_uring() -> String {
    use erpc_transport::{IoUringTransport, UringError};
    match IoUringTransport::probe() {
        Ok(()) => "ok".to_string(),
        Err(UringError::Unavailable { stage, errno }) => {
            format!("unavailable at {stage} (errno {errno})")
        }
        Err(UringError::Io(e)) => format!("socket error: {e}"),
    }
}

#[cfg(not(target_os = "linux"))]
fn probe_io_uring() -> String {
    "not linux".to_string()
}

pub fn record() -> Host {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(unknown);
    Host {
        // Only inside a git checkout: elsewhere git would walk up into
        // whatever repository happens to contain the working directory.
        commit: if std::path::Path::new(".git").exists() {
            stdout_of("git", &["rev-parse", "--short=12", "HEAD"])
        } else {
            unknown()
        },
        rustc: stdout_of("rustc", &["-V"]),
        nproc: std::thread::available_parallelism().map_or(0, |n| n.get()),
        kernel: std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map_or_else(|_| unknown(), |s| s.trim().to_string()),
        cpu,
        io_uring: probe_io_uring(),
    }
}

impl fmt::Display for Host {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "commit {} | {} | nproc {} | kernel {} | cpu {} | io_uring {} | loopback, one thread",
            self.commit, self.rustc, self.nproc, self.kernel, self.cpu, self.io_uring
        )
    }
}
