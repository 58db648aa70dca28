//! The system under test as child processes: `hqd` and `hqrouter`.
//!
//! A daemon is started with its address set to port 0; it prints the
//! address it bound on its first status line, which is also the sign
//! that it accepts connections. Stopping writes `quit` to its stdin —
//! the daemons' graceful drain — and returns everything it printed
//! afterwards (the drained summaries).

use std::io::{BufRead as _, BufReader, Write as _};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc::{channel, Receiver};
use std::time::{Duration, Instant};

/// A running daemon.
pub struct Daemon {
    name: String,
    child: Child,
    stdin: Option<ChildStdin>,
    lines: Receiver<String>,
    reader: Option<std::thread::JoinHandle<()>>,
    addr: SocketAddr,
}

impl Daemon {
    /// Starts `bin` with `args` and waits (up to `timeout`) for the line
    /// naming its bound address (`… on HOST:PORT …`).
    pub fn spawn(bin: &Path, args: &[String], timeout: Duration) -> std::io::Result<Daemon> {
        let name = bin
            .file_name()
            .map_or_else(|| "daemon".into(), |n| n.to_string_lossy().into_owned());
        let mut child = Command::new(bin)
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let stdin = child.stdin.take();
        let stdout = child.stdout.take().expect("stdout is piped");
        let (tx, lines) = channel();
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                if tx.send(line).is_err() {
                    break;
                }
            }
        });
        let mut daemon = Daemon {
            name,
            child,
            stdin,
            lines,
            reader: Some(reader),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let deadline = Instant::now() + timeout;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            let line = daemon.lines.recv_timeout(left).map_err(|_| {
                std::io::Error::other(format!("{} printed no bound address", daemon.name))
            })?;
            if let Some(addr) = bound_addr(&line) {
                daemon.addr = addr;
                return Ok(daemon);
            }
        }
    }

    /// The address the daemon listens on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Peak resident set size so far (`VmHWM`), in KiB.
    pub fn peak_rss_kib(&self) -> Option<u64> {
        peak_rss_kib(&format!("/proc/{}/status", self.child.id()))
    }

    /// Asks the daemon to drain and exit; returns the lines it printed
    /// since it became ready. Kills it if it does not exit in time.
    pub fn stop(mut self) -> std::io::Result<Vec<String>> {
        if let Some(mut stdin) = self.stdin.take() {
            stdin.write_all(b"quit\n").ok();
        }
        let deadline = Instant::now() + Duration::from_secs(20);
        let status = loop {
            if let Some(status) = self.child.try_wait()? {
                break Some(status);
            }
            if Instant::now() > deadline {
                self.child.kill().ok();
                self.child.wait()?;
                break None;
            }
            std::thread::sleep(Duration::from_millis(5));
        };
        if let Some(reader) = self.reader.take() {
            reader.join().ok();
        }
        let out: Vec<String> = self.lines.try_iter().collect();
        match status {
            Some(s) if s.success() => Ok(out),
            _ => Err(std::io::Error::other(format!(
                "{} did not drain cleanly",
                self.name
            ))),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if self.reader.is_some() {
            self.child.kill().ok();
            self.child.wait().ok();
            if let Some(reader) = self.reader.take() {
                reader.join().ok();
            }
        }
    }
}

/// The `HOST:PORT` after " on " in a daemon's status line.
fn bound_addr(line: &str) -> Option<SocketAddr> {
    let rest = line.split(" on ").nth(1)?;
    rest.split_whitespace().next()?.parse().ok()
}

/// `VmHWM` of a `/proc/<pid>/status` file, in KiB.
pub fn peak_rss_kib(status_path: &str) -> Option<u64> {
    let text = std::fs::read_to_string(status_path).ok()?;
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// The counter after `key` in a `key N, key N, …` summary line.
pub fn summary_counter(lines: &[String], key: &str) -> Option<u64> {
    lines.iter().find_map(|line| {
        line.split([',', '.', ':'])
            .map(str::trim)
            .find_map(|part| part.strip_prefix(key)?.trim().parse().ok())
    })
}

/// `TcpExt: ListenOverflows` from `/proc/net/netstat` (0 if unreadable).
pub fn listen_overflows() -> u64 {
    let Ok(text) = std::fs::read_to_string("/proc/net/netstat") else {
        return 0;
    };
    let mut lines = text.lines();
    while let (Some(head), Some(vals)) = (lines.next(), lines.next()) {
        if !head.starts_with("TcpExt:") {
            continue;
        }
        let pos = head.split_whitespace().position(|k| k == "ListenOverflows");
        if let Some(v) = pos.and_then(|p| vals.split_whitespace().nth(p)) {
            return v.parse().unwrap_or(0);
        }
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_status_and_summary_lines() {
        assert_eq!(
            bound_addr("hqd: serving wordcount on 127.0.0.1:4011 (2 workers)"),
            Some("127.0.0.1:4011".parse().unwrap())
        );
        assert_eq!(
            bound_addr("hqrouter: routing on 127.0.0.1:9 over 2 shards [a, b]"),
            Some("127.0.0.1:9".parse().unwrap())
        );
        let lines = vec![
            "hqrouter: draining…".to_string(),
            "hqrouter: drained. connections 12, frames in 400, retries synthesized 0".to_string(),
        ];
        assert_eq!(summary_counter(&lines, "connections"), Some(12));
        assert_eq!(summary_counter(&lines, "frames in"), Some(400));
        assert_eq!(summary_counter(&lines, "retries synthesized"), Some(0));
        assert_eq!(summary_counter(&lines, "reconnects"), None);
    }
}
