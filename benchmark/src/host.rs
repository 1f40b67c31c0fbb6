//! The server process of a measured run, and the driver's handle on it.
//!
//! `bench host <data-dir>` brings a [`Deployment`] up and then obeys
//! control lines on stdin, answering each with one line on stdout:
//! `ok key=value ...` or `err message`. It exits (and removes its data
//! directory) on `quit` or when stdin closes, so a driver that dies takes
//! the host with it.

use crate::deploy::{Counters, Deployment, DirGuard, Served};
use logbase_common::{Error, Result};
use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::Duration;

fn secs_list(ds: &[Duration]) -> String {
    let parts: Vec<String> = ds.iter().map(|d| d.as_secs_f64().to_string()).collect();
    parts.join(",")
}

fn answer(deployment: &mut Deployment, line: &str) -> Result<String> {
    let mut words = line.split_whitespace();
    match words.next() {
        Some("load") => {
            let keys: u64 = words
                .next()
                .and_then(|w| w.parse().ok())
                .ok_or_else(|| Error::InvalidArgument("load <keys>".into()))?;
            let took = deployment.load(keys)?;
            Ok(format!("load_s={}", took.as_secs_f64()))
        }
        Some("checkpoint") => {
            let took = deployment.checkpoint()?;
            Ok(format!("checkpoint_s={}", took.as_secs_f64()))
        }
        Some("recover-all") => {
            let took = deployment.recover_all()?;
            Ok(format!("recover_s={}", secs_list(&took)))
        }
        Some("metrics") => {
            let pairs: Vec<String> = deployment
                .counters()?
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect();
            Ok(pairs.join(" "))
        }
        other => Err(Error::InvalidArgument(format!(
            "unknown control line {other:?}"
        ))),
    }
}

/// Run the host until `quit` or end of stdin. The data directory is
/// created fresh and removed on every way out.
pub fn serve(data_dir: &Path) -> Result<()> {
    let dir = DirGuard::create(data_dir.to_path_buf())?;
    let mut deployment = Deployment::start(dir.path())?;
    let mut out = std::io::stdout().lock();
    writeln!(out, "ok addrs={}", deployment.addrs().join(","))?;
    out.flush()?;
    for line in std::io::stdin().lock().lines() {
        let line = line?;
        if line.trim() == "quit" {
            break;
        }
        match answer(&mut deployment, &line) {
            Ok(reply) => writeln!(out, "ok {reply}")?,
            Err(e) => writeln!(out, "err {e}")?,
        }
        out.flush()?;
    }
    Ok(())
}

/// The driver's end of a spawned host. Dropping it kills the host and
/// removes the data directory, whatever state either is in.
pub struct Host {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    /// Kept only for its `Drop`: the host removes the directory itself on
    /// a clean exit, this covers a host that was killed.
    _dir: DirGuard,
    addrs: Vec<String>,
}

fn field<'a>(reply: &'a str, key: &str) -> Result<&'a str> {
    reply
        .split_whitespace()
        .find_map(|pair| pair.strip_prefix(key)?.strip_prefix('='))
        .ok_or_else(|| Error::Corruption(format!("host reply lacks {key}: {reply}")))
}

fn seconds(text: &str) -> Result<Duration> {
    text.parse()
        .map(Duration::from_secs_f64)
        .map_err(|_| Error::Corruption(format!("host sent a bad duration: {text}")))
}

impl Host {
    /// Spawn this executable as `bench host <data_dir>` and wait until it
    /// serves.
    pub fn spawn(data_dir: &Path) -> Result<Host> {
        let exe = std::env::current_exe()?;
        let dir = DirGuard::create(data_dir.to_path_buf())?;
        // One malloc arena: with glibc's per-thread arenas ten runs of equal
        // work peaked anywhere between 214 and 254 MB of RSS; with one
        // they lie within 0.4 MB. All threads share one CPU, so nothing
        // contends for the arena.
        let mut child = Command::new(exe)
            .arg("host")
            .arg(data_dir)
            .env("MALLOC_ARENA_MAX", "1")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()?;
        let stdin = child.stdin.take();
        let stdout = BufReader::new(child.stdout.take().expect("stdout was piped"));
        let mut host = Host {
            child,
            stdin,
            stdout,
            _dir: dir,
            addrs: Vec::new(),
        };
        let hello = host.read_reply()?;
        host.addrs = field(&hello, "addrs")?
            .split(',')
            .map(str::to_string)
            .collect();
        Ok(host)
    }

    fn read_reply(&mut self) -> Result<String> {
        let mut line = String::new();
        if self.stdout.read_line(&mut line)? == 0 {
            return Err(Error::Unavailable("bench host exited".into()));
        }
        match line.trim_end().split_once(' ') {
            Some(("ok", rest)) => Ok(rest.to_string()),
            _ => Err(Error::Unavailable(format!(
                "bench host: {}",
                line.trim_end()
            ))),
        }
    }

    fn ask(&mut self, line: &str) -> Result<String> {
        let stdin = self.stdin.as_mut().expect("host stdin open until quit");
        writeln!(stdin, "{line}")?;
        stdin.flush()?;
        self.read_reply()
    }

    /// Ask the host to exit and wait for it.
    pub fn quit(mut self) -> Result<()> {
        if let Some(mut stdin) = self.stdin.take() {
            let _ = writeln!(stdin, "quit");
        }
        let status = self.child.wait()?;
        if status.success() {
            Ok(())
        } else {
            Err(Error::Unavailable(format!(
                "bench host exited with {status}"
            )))
        }
    }
}

impl Served for Host {
    fn addrs(&self) -> Vec<String> {
        self.addrs.clone()
    }

    fn load(&mut self, keys: u64) -> Result<Duration> {
        seconds(field(&self.ask(&format!("load {keys}"))?, "load_s")?)
    }

    fn checkpoint(&mut self) -> Result<Duration> {
        seconds(field(&self.ask("checkpoint")?, "checkpoint_s")?)
    }

    fn recover_all(&mut self) -> Result<Vec<Duration>> {
        field(&self.ask("recover-all")?, "recover_s")?
            .split(',')
            .map(seconds)
            .collect()
    }

    fn counters(&mut self) -> Result<Counters> {
        self.ask("metrics")?
            .split_whitespace()
            .map(|pair| {
                pair.split_once('=')
                    .and_then(|(k, v)| Some((k.to_string(), v.parse().ok()?)))
                    .ok_or_else(|| Error::Corruption(format!("bad counter from host: {pair}")))
            })
            .collect()
    }
}

impl Drop for Host {
    fn drop(&mut self) {
        // After a clean `quit` the child is already reaped and both calls
        // are no-ops.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}
