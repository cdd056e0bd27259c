//! Child-process hygiene: every `saql` the harness starts is killed when its
//! guard drops, every scratch directory is removed, and a watchdog turns a
//! hang into a reported failure.

use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::mpsc::{channel, Receiver};
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Pids and scratch directories the watchdog must clean up if it fires.
static LIVE_PIDS: Mutex<Vec<u32>> = Mutex::new(Vec::new());
static LIVE_DIRS: Mutex<Vec<PathBuf>> = Mutex::new(Vec::new());

/// Linux reports `/proc/<pid>/stat` times in ticks of 1/100 s.
const CLK_TCK: f64 = 100.0;

/// A scratch directory removed on drop.
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn create(parent: &Path, label: &str) -> std::io::Result<TempDir> {
        let path = parent.join(format!("tmp-{}-{label}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        LIVE_DIRS.lock().expect("dir registry").push(path.clone());
        Ok(TempDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Ok(mut dirs) = LIVE_DIRS.lock() {
            dirs.retain(|d| d != &self.0);
        }
    }
}

/// Fail the whole invocation after `limit`: kill every live child, remove
/// the scratch directories, and exit non-zero without printing a result.
pub fn start_watchdog(limit: Duration, what: String) {
    std::thread::spawn(move || {
        std::thread::sleep(limit);
        eprintln!("benchmark: {what} did not finish within {limit:?}; reporting it as failed");
        if let Ok(pids) = LIVE_PIDS.lock() {
            for pid in pids.iter() {
                let _ = Command::new("kill").arg("-9").arg(pid.to_string()).status();
            }
        }
        if let Ok(dirs) = LIVE_DIRS.lock() {
            for dir in dirs.iter() {
                let _ = std::fs::remove_dir_all(dir);
            }
        }
        std::process::exit(3);
    });
}

/// `(user, system)` CPU seconds of process `pid` so far, from
/// `/proc/<pid>/stat` (still readable while an exited child is unreaped).
pub fn cpu_seconds_of(pid: u32) -> (f64, f64) {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).unwrap_or_default();
    // The command name may hold spaces; count fields after its closing
    // parenthesis, where utime and stime (14 and 15 of the line) are 12 and 13.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick(11) / CLK_TCK, tick(12) / CLK_TCK)
}

/// A running `saql` child. Killed and reaped on drop.
pub struct Proc {
    child: Child,
    stderr_rx: Receiver<String>,
    stderr_thread: Option<JoinHandle<()>>,
    /// Every stderr line seen so far (diagnostics on failure).
    pub stderr_seen: Vec<String>,
}

impl Proc {
    /// Spawn `bin args..`; stderr is captured line by line, stdout goes
    /// where the caller says (a file for `serve`, a pipe for `replay`).
    pub fn spawn(bin: &Path, args: &[String], stdout: Stdio) -> Result<Proc, String> {
        let mut child = Command::new(bin)
            .args(args)
            .stdin(Stdio::null())
            .stdout(stdout)
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        LIVE_PIDS.lock().expect("pid registry").push(child.id());
        let stderr = child.stderr.take().expect("stderr was piped");
        let (tx, stderr_rx) = channel();
        let stderr_thread = std::thread::spawn(move || {
            for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                if tx.send(line).is_err() {
                    break;
                }
            }
        });
        Ok(Proc {
            child,
            stderr_rx,
            stderr_thread: Some(stderr_thread),
            stderr_seen: Vec::new(),
        })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    pub fn take_stdout(&mut self) -> Option<impl Read + Send + 'static> {
        self.child.stdout.take()
    }

    /// Wait for a stderr line containing `marker` and return what follows it.
    pub fn wait_stderr(&mut self, marker: &str, timeout: Duration) -> Result<String, String> {
        let deadline = Instant::now() + timeout;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            match self.stderr_rx.recv_timeout(left) {
                Ok(line) => {
                    let found = line
                        .find(marker)
                        .map(|at| line[at + marker.len()..].trim().to_string());
                    self.stderr_seen.push(line);
                    if let Some(rest) = found {
                        return Ok(rest);
                    }
                }
                Err(_) => {
                    return Err(format!(
                        "child did not print `{marker}` within {timeout:?}; stderr: {:?}",
                        self.stderr_seen
                    ))
                }
            }
        }
    }

    /// The address a `saql serve --listen 127.0.0.1:0` bound.
    pub fn wait_listening(&mut self) -> Result<String, String> {
        self.wait_stderr("[serve] listening on ", Duration::from_secs(20))
    }

    /// Wait for the child to exit on its own.
    pub fn wait_exit(&mut self, timeout: Duration) -> Result<ExitStatus, String> {
        let deadline = Instant::now() + timeout;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => {
                    while let Ok(line) = self.stderr_rx.recv_timeout(Duration::from_millis(200)) {
                        self.stderr_seen.push(line);
                    }
                    return Ok(status);
                }
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(1));
                }
                Ok(None) => {
                    return Err(format!(
                        "child {} still running after {timeout:?}",
                        self.pid()
                    ))
                }
                Err(e) => return Err(e.to_string()),
            }
        }
    }

    /// `(user, system)` CPU seconds consumed so far.
    pub fn cpu_seconds(&self) -> (f64, f64) {
        cpu_seconds_of(self.pid())
    }

    fn status_field(&self, key: &str) -> f64 {
        let status =
            std::fs::read_to_string(format!("/proc/{}/status", self.pid())).unwrap_or_default();
        status
            .lines()
            .find_map(|l| l.strip_prefix(key))
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|v| v.parse().ok())
            .unwrap_or(0.0)
    }

    /// Peak resident set size (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        self.status_field("VmHWM:") / 1024.0
    }

    pub fn threads(&self) -> f64 {
        self.status_field("Threads:")
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Ok(mut pids) = LIVE_PIDS.lock() {
            pids.retain(|p| *p != self.child.id());
        }
        if let Some(handle) = self.stderr_thread.take() {
            let _ = handle.join();
        }
    }
}
