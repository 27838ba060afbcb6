//! The `nassc-serve` binary as a child process, for the tests that need its
//! real `main`: the signal handlers and the panic hook.

use std::io::{BufRead, BufReader, Read};
use std::process::{Command, ExitStatus, Stdio};
use std::sync::mpsc::{self, Receiver};
use std::thread::JoinHandle;
use std::time::Duration;

/// A running `nassc-serve` child and the thread collecting its stderr.
pub struct Daemon {
    /// The address its `nassc-serve listening on …` banner names.
    pub addr: String,
    pid: String,
    exit: Receiver<(std::io::Result<ExitStatus>, String)>,
    waiter: JoinHandle<()>,
}

impl Daemon {
    /// Starts `nassc-serve --addr 127.0.0.1:0` with `args` and `envs`, and
    /// waits for its banner.
    pub fn spawn(args: &[&str], envs: &[(&str, &str)]) -> Daemon {
        let mut child = Command::new(env!("CARGO_BIN_EXE_nassc-serve"))
            .args(["--addr", "127.0.0.1:0"])
            .args(args)
            .envs(envs.iter().copied())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn nassc-serve");
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr"));
        let mut banner = String::new();
        let _ = stderr.read_line(&mut banner);
        let Some(addr) = banner
            .strip_prefix("nassc-serve listening on ")
            .and_then(|rest| rest.split_whitespace().next())
            .map(str::to_string)
        else {
            let _ = child.kill();
            panic!("unexpected banner {banner:?}");
        };
        let pid = child.id().to_string();
        // The rest of stderr and the exit status, collected on another
        // thread so that a daemon which misses the signal fails the test,
        // not hangs it.
        let (exited, exit) = mpsc::channel();
        let waiter = std::thread::spawn(move || {
            let mut rest = String::new();
            let _ = stderr.read_to_string(&mut rest);
            let _ = exited.send((child.wait(), rest));
        });
        Daemon {
            addr,
            pid,
            exit,
            waiter,
        }
    }

    /// Sends SIGTERM and returns the exit status and the rest of stderr;
    /// kills the daemon and fails the test if it has not exited 10 s later.
    pub fn terminate(self) -> (ExitStatus, String) {
        let term = Command::new("kill").args(["-TERM", &self.pid]).status();
        let Ok((status, rest)) = self.exit.recv_timeout(Duration::from_secs(10)) else {
            let _ = Command::new("kill").args(["-KILL", &self.pid]).status();
            panic!("nassc-serve did not exit within 10 s of SIGTERM ({term:?})");
        };
        self.waiter.join().expect("waiter thread");
        (status.expect("wait"), rest)
    }
}
