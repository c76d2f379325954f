//! One `csag serve` child process: start-up, its stdin write feed, its
//! stdout lines (bound address, `applied <epoch>` acks, the `--metrics`
//! snapshot) and its teardown.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long any single wait on the server may take before the run fails.
pub const STALL: Duration = Duration::from_secs(60);

/// A running `csag serve --listen 127.0.0.1:0 --metrics` process.
pub struct Server {
    child: Child,
    stdin: Option<ChildStdin>,
    lines: Receiver<(Instant, String)>,
    reader: Option<JoinHandle<()>>,
    /// Epoch of the newest `applied` line read so far.
    pub acked: Arc<AtomicU64>,
    /// The bound `ip:port`.
    pub addr: String,
    /// When the process was spawned.
    pub spawned: Instant,
}

impl Server {
    /// Spawns `csag serve` on `graph` and waits for its `listening` line.
    /// The server's stderr goes to `stderr_log`.
    pub fn spawn(
        csag: &Path,
        graph: &Path,
        workers: usize,
        wal: Option<&Path>,
        stderr_log: &Path,
    ) -> Result<Server, String> {
        let mut cmd = Command::new(csag);
        cmd.arg("serve")
            .arg(graph)
            .args(["--listen", "127.0.0.1:0", "--metrics", "--workers"])
            .arg(workers.to_string());
        if let Some(dir) = wal {
            cmd.arg("--wal").arg(dir);
        }
        let log = std::fs::File::create(stderr_log)
            .map_err(|e| format!("creating {}: {e}", stderr_log.display()))?;
        let spawned = Instant::now();
        let mut child = cmd
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::from(log))
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", csag.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let stdin = child.stdin.take();
        let acked = Arc::new(AtomicU64::new(0));
        let (tx, lines) = channel();
        let acked_w = Arc::clone(&acked);
        // Blocks in read() except when the server prints a line: the
        // bound address, an `applied` ack, or the final metrics.
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                let at = Instant::now();
                if let Some(e) = line.strip_prefix("applied ") {
                    if let Ok(e) = e.trim().parse::<u64>() {
                        acked_w.fetch_max(e, Ordering::SeqCst);
                    }
                }
                if tx.send((at, line)).is_err() {
                    break;
                }
            }
        });
        let mut server = Server {
            child,
            stdin,
            lines,
            reader: Some(reader),
            acked,
            addr: String::new(),
            spawned,
        };
        let (_, line) = server.next_line(|l| l.starts_with("listening "))?;
        server.addr = line
            .trim()
            .strip_prefix("listening tcp://")
            .ok_or_else(|| format!("unexpected address line `{line}`"))?
            .to_string();
        Ok(server)
    }

    /// Opens a client connection.
    pub fn connect(&self) -> Result<TcpStream, String> {
        let s =
            TcpStream::connect(&self.addr).map_err(|e| format!("connecting {}: {e}", self.addr))?;
        s.set_nodelay(true).map_err(|e| format!("nodelay: {e}"))?;
        Ok(s)
    }

    /// Writes one update line on the feed.
    pub fn send_update(&mut self, line: &str) -> Result<(), String> {
        let feed = self.stdin.as_mut().expect("write feed still open");
        writeln!(feed, "{line}")
            .and_then(|()| feed.flush())
            .map_err(|e| format!("write feed: {e}"))
    }

    /// Waits for the next `applied` ack; returns its epoch and arrival.
    pub fn next_ack(&self) -> Result<(u64, Instant), String> {
        let (at, ack) = self.next_line(|l| l.starts_with("applied "))?;
        let epoch = ack["applied ".len()..]
            .trim()
            .parse()
            .map_err(|_| format!("bad ack `{ack}`"))?;
        Ok((epoch, at))
    }

    /// Closes the write feed and returns the service metrics line the
    /// server prints in response.
    pub fn close_feed_for_metrics(&mut self) -> Result<String, String> {
        drop(self.stdin.take());
        let (_, line) = self.next_line(|l| l.contains("csag-service-metrics-v1"))?;
        Ok(line)
    }

    /// The server's peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))?;
        let kb: f64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or_else(|| format!("no VmHWM in {path}"))?;
        Ok(kb / 1024.0)
    }

    /// The next stdout line matching `want` (others are skipped).
    fn next_line(&self, want: impl Fn(&str) -> bool) -> Result<(Instant, String), String> {
        let deadline = Instant::now() + STALL;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            match self.lines.recv_timeout(left) {
                Ok((at, line)) if want(&line) => return Ok((at, line)),
                Ok(_) => {}
                Err(RecvTimeoutError::Timeout) => return Err("server stalled".into()),
                Err(RecvTimeoutError::Disconnected) => {
                    return Err("server exited early (see its stderr log)".into())
                }
            }
        }
    }

    /// Kills the process and waits until it and the stdout reader ended.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        drop(self.stdin.take());
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(r) = self.reader.take() {
            let _ = r.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}
