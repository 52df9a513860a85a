//! The machid process and an ordinary line-protocol client for it.
//!
//! The client is deliberately plain: `TCP_NODELAY` on its own socket,
//! one `write` per request line, a blocking read of the reply, and no
//! other socket options. In particular it never re-arms
//! `TCP_QUICKACK`, so whatever the server's reply path costs a real
//! client shows up in the measurement (see the README).

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

pub type Result<T> = std::result::Result<T, String>;

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
}

const SIGKILL: i32 = 9;
const SIGTERM: i32 = 15;
const PR_SET_PDEATHSIG: i32 = 1;

/// A running machid on a free loopback port.
pub struct Machid {
    child: Child,
    pub addr: String,
}

impl Machid {
    /// Start `bin` with its shipped defaults (every `MACHID_*` and
    /// `MACHIAVELLI_*` variable removed), plus `MACHID_DURABLE_ROOT`
    /// when `root` is given, and wait until it accepts connections.
    /// Must be called from the main thread: the child is killed when
    /// the thread that started it exits.
    pub fn start(bin: &Path, root: Option<&Path>, log: &Path) -> Result<Machid> {
        let port = TcpListener::bind("127.0.0.1:0")
            .and_then(|l| l.local_addr())
            .map_err(|e| format!("no free loopback port: {e}"))?
            .port();
        let addr = format!("127.0.0.1:{port}");
        let log = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(log)
            .map_err(|e| format!("cannot open {}: {e}", log.display()))?;
        let mut cmd = Command::new(bin);
        cmd.arg(&addr)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log);
        for (key, _) in std::env::vars_os() {
            let key = key.to_string_lossy().into_owned();
            if key.starts_with("MACHID_") || key.starts_with("MACHIAVELLI_") {
                cmd.env_remove(key);
            }
        }
        if let Some(root) = root {
            cmd.env("MACHID_DURABLE_ROOT", root);
        }
        // SAFETY: prctl is async-signal-safe and touches no memory of
        // the forked child; it only asks the kernel to kill the child
        // if the benchmark dies first.
        unsafe {
            cmd.pre_exec(|| {
                prctl(PR_SET_PDEATHSIG, SIGKILL as u64, 0, 0, 0);
                Ok(())
            });
        }
        let child = cmd
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut m = Machid { child, addr };
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            if TcpStream::connect(&m.addr).is_ok() {
                return Ok(m);
            }
            if let Ok(Some(status)) = m.child.try_wait() {
                return Err(format!("machid exited during start-up: {status}"));
            }
            if Instant::now() > deadline {
                return Err("machid did not accept connections within 20 s".into());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Resident set size from `/proc`, in MiB.
    pub fn rss_mb(&self) -> Result<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid()))
            .map_err(|e| format!("cannot read machid status: {e}"))?;
        let kb: f64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmRSS:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or("no VmRSS in machid status")?;
        Ok(kb / 1024.0)
    }

    /// Graceful stop: SIGTERM, then wait (machid drains and checkpoints).
    pub fn terminate(mut self) -> Result<()> {
        self.signal(SIGTERM);
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("machid exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => return Err("machid did not stop within 30 s of SIGTERM".into()),
            }
        }
    }

    /// Crash stop: SIGKILL, then wait.
    pub fn kill(mut self) {
        self.signal(SIGKILL);
        let _ = self.child.wait();
    }

    fn signal(&self, sig: i32) {
        let pid = i32::try_from(self.pid()).expect("pids fit in i32");
        // SAFETY: kill(2) takes plain integers; the pid is our own
        // child, which has not been reaped yet, so it names no other
        // process.
        unsafe {
            kill(pid, sig);
        }
    }
}

impl Drop for Machid {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One client connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: &str) -> Result<Conn> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("TCP_NODELAY: {e}"))?;
        let writer = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
        Ok(Conn {
            reader: BufReader::new(stream),
            writer,
            line: Vec::new(),
        })
    }

    /// Send one request line with a single write and return the reply
    /// line without its newline.
    pub fn request(&mut self, req: &str) -> Result<String> {
        self.line.clear();
        self.line.extend_from_slice(req.as_bytes());
        self.line.push(b'\n');
        self.writer
            .write_all(&self.line)
            .map_err(|e| format!("send: {e}"))?;
        let mut reply = String::new();
        let n = self
            .reader
            .read_line(&mut reply)
            .map_err(|e| format!("receive: {e}"))?;
        if n == 0 {
            return Err("connection closed by machid".into());
        }
        if reply.ends_with('\n') {
            reply.pop();
        }
        Ok(reply)
    }

    /// `OPEN`, returning the session id.
    pub fn open(&mut self) -> Result<u64> {
        let reply = self.request("OPEN")?;
        reply
            .strip_prefix("OK ")
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("OPEN answered {reply:?}"))
    }

    /// `CLOSE`, or the unexpected reply.
    pub fn close(&mut self, sid: u64) -> Result<std::result::Result<(), String>> {
        let reply = self.request(&format!("CLOSE {sid}"))?;
        Ok(match reply == format!("OK closed {sid}") {
            true => Ok(()),
            false => Err(format!("CLOSE {sid} answered {reply}")),
        })
    }

    /// `EVAL`, returning the unescaped outcomes, or the `ERR` line.
    pub fn eval(&mut self, sid: u64, src: &str) -> Result<std::result::Result<String, String>> {
        let reply = self.request(&format!("EVAL {sid} {src}"))?;
        Ok(match reply.strip_prefix("VAL ") {
            Some(v) => Ok(machiavelli_server::wire::unescape_line(v)),
            None => Err(reply),
        })
    }

    /// Scrape `METRICS`: every unlabelled series by name, and labelled
    /// series summed under their bare name.
    pub fn metrics(&mut self) -> Result<Metrics> {
        let reply = self.request("METRICS")?;
        let text = reply
            .strip_prefix("OK ")
            .map(machiavelli_server::wire::unescape_line)
            .ok_or_else(|| format!("METRICS answered {reply:?}"))?;
        let mut series = BTreeMap::new();
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let Some((name, value)) = line.rsplit_once(' ') else {
                continue;
            };
            let Ok(value) = value.parse::<f64>() else {
                continue;
            };
            let bare = name.split('{').next().unwrap_or(name);
            if bare.ends_with("_bucket") {
                continue;
            }
            *series.entry(bare.to_string()).or_insert(0.0) += value;
        }
        Ok(Metrics(series))
    }
}

/// A parsed `METRICS` scrape.
#[derive(Clone, Debug, Default)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// Every file under `dir`, recursively, sorted.
pub fn files_under(dir: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let mut stack: Vec<PathBuf> = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else {
                files.push(path);
            }
        }
    }
    files.sort();
    files
}

/// Total size of the files under `dir`, optionally only those named
/// `only`.
pub fn dir_bytes(dir: &Path, only: Option<&str>) -> u64 {
    files_under(dir)
        .iter()
        .filter(|f| only.is_none_or(|name| f.file_name().is_some_and(|n| n == name)))
        .filter_map(|f| std::fs::metadata(f).ok())
        .map(|m| m.len())
        .sum()
}
