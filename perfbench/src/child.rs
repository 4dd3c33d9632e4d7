//! Runs `upbound` children to completion and reads each one's own
//! resource usage from `wait4(2)`.
//!
//! std has no rusage and no `libc` is vendored, so the two syscalls are
//! declared here. `wait4` reports the rusage of exactly the child it
//! reaps: its CPU time and its peak resident set. The
//! `getrusage(RUSAGE_CHILDREN)` delta over a child must agree with its
//! CPU time; its `ru_maxrss` is the maximum over every descendant ever
//! reaped, so it cannot give a per-child peak.
//!
//! Linux also folds the peak RSS of the address space a child had
//! before `execve` — its parent's, shared or copied at spawn — into the
//! child's `ru_maxrss`. A benchmark holding hundreds of MB of captures
//! and labels would therefore report its own size for every child. So
//! children are spawned by a [`Spawner`]: a copy of this binary started
//! first, while it is still a few MB, that forks every child and reports
//! its costs back over a pipe.

use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::Instant;

#[repr(C)]
#[derive(Default, Clone, Copy)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` of 64-bit Linux.
#[repr(C)]
#[derive(Default, Clone, Copy)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss_kib: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn getrusage(who: i32, rusage: *mut Rusage) -> i32;
}

const RUSAGE_CHILDREN: i32 = -1;

/// The argument that turns this binary into a [`Spawner`].
pub const SPAWNER_FLAG: &str = "--spawner";

/// What one child cost, and what it printed.
#[derive(Debug, Clone, PartialEq)]
pub struct ChildRun {
    /// Wall time from spawn to reap, in seconds.
    pub wall_s: f64,
    /// User plus system CPU time, in seconds.
    pub cpu_s: f64,
    /// Peak resident set, in KiB.
    pub maxrss_kib: u64,
    /// Standard output.
    pub stdout: String,
}

/// User plus system CPU seconds of every reaped descendant so far.
fn children_cpu_s() -> f64 {
    let mut ru = Rusage::default();
    // SAFETY: `ru` is a valid, writable `struct rusage`.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut ru) };
    if rc != 0 {
        return f64::NAN;
    }
    cpu_seconds(&ru)
}

fn cpu_seconds(ru: &Rusage) -> f64 {
    let t = |tv: Timeval| tv.sec as f64 + tv.usec as f64 / 1e6;
    t(ru.utime) + t(ru.stime)
}

/// Runs `program args...`, reads its standard output to the end, reaps
/// it and returns its costs. A non-zero exit is an error carrying the
/// child's standard error.
pub fn run(program: &Path, args: &[String]) -> Result<ChildRun, String> {
    let cpu_before = children_cpu_s();
    let started = Instant::now();
    let mut child = Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("{}: {e}", program.display()))?;
    let pid = i32::try_from(child.id()).map_err(|_| "child pid out of range".to_owned())?;
    let mut stdout = String::new();
    let mut stderr = String::new();
    // The pipes are drained before reaping so a chatty child never blocks
    // on a full pipe; the small stderr is read after stdout reaches EOF.
    if let Some(mut out) = child.stdout.take() {
        out.read_to_string(&mut stdout)
            .map_err(|e| format!("reading child stdout: {e}"))?;
    }
    if let Some(mut err) = child.stderr.take() {
        err.read_to_string(&mut stderr)
            .map_err(|e| format!("reading child stderr: {e}"))?;
    }
    let mut status = 0i32;
    let mut ru = Rusage::default();
    loop {
        // SAFETY: `status` and `ru` are valid and writable, and `pid` is
        // our own unreaped child: std never waits on it (we do not call
        // `Child::wait`, and dropping a `Child` does not reap).
        let rc = unsafe { wait4(pid, &mut status, 0, &mut ru) };
        if rc == pid {
            break;
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(format!("wait4: {err}"));
        }
    }
    let wall_s = started.elapsed().as_secs_f64();
    let exited = status & 0x7f == 0;
    let code = (status >> 8) & 0xff;
    if !exited || code != 0 {
        return Err(format!(
            "`{} {}` failed ({}): {}",
            program.display(),
            args.join(" "),
            if exited {
                format!("exit code {code}")
            } else {
                format!("signal {}", status & 0x7f)
            },
            stderr.trim()
        ));
    }
    let cpu_s = cpu_seconds(&ru);
    let delta = children_cpu_s() - cpu_before;
    if (delta - cpu_s).abs() > 0.005 {
        return Err(format!(
            "child CPU {cpu_s:.4} s disagrees with the RUSAGE_CHILDREN delta {delta:.4} s"
        ));
    }
    Ok(ChildRun {
        wall_s,
        cpu_s,
        maxrss_kib: ru.maxrss_kib.max(0) as u64,
        stdout,
    })
}

/// A small helper process that spawns children on request.
///
/// Requests are one line each: the program and its arguments separated
/// by tabs. A reply is `ok <wall_s> <cpu_s> <maxrss_kib> <stdout bytes>`
/// followed by the child's standard output, or `err <bytes>` followed by
/// the error message.
pub struct Spawner {
    process: Child,
    requests: Option<ChildStdin>,
    replies: BufReader<ChildStdout>,
}

impl Spawner {
    /// Starts the helper: this binary with [`SPAWNER_FLAG`].
    pub fn start() -> Result<Self, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current executable: {e}"))?;
        let mut process = Command::new(exe)
            .arg(SPAWNER_FLAG)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("starting the spawner: {e}"))?;
        let requests = process.stdin.take();
        let replies = BufReader::new(process.stdout.take().ok_or("spawner has no stdout")?);
        Ok(Self {
            process,
            requests,
            replies,
        })
    }

    /// Runs `program args...` in the helper and returns its costs.
    pub fn run(&mut self, program: &Path, args: &[String]) -> Result<ChildRun, String> {
        let mut line = program.display().to_string();
        for a in args {
            if a.contains(['\t', '\n']) {
                return Err(format!("argument {a:?} holds a tab or newline"));
            }
            line.push('\t');
            line.push_str(a);
        }
        line.push('\n');
        let requests = self.requests.as_mut().ok_or("spawner closed")?;
        requests
            .write_all(line.as_bytes())
            .and_then(|()| requests.flush())
            .map_err(|e| format!("spawner request: {e}"))?;
        let mut header = String::new();
        self.replies
            .read_line(&mut header)
            .map_err(|e| format!("spawner reply: {e}"))?;
        let fields: Vec<&str> = header.split_whitespace().collect();
        let body_len = |s: &str| {
            s.parse::<usize>()
                .map_err(|_| format!("malformed spawner reply {header:?}"))
        };
        let (ok, len) = match fields.as_slice() {
            ["ok", _, _, _, len] => (true, body_len(len)?),
            ["err", len] => (false, body_len(len)?),
            _ => return Err(format!("malformed spawner reply {header:?}")),
        };
        let mut body = vec![0u8; len];
        self.replies
            .read_exact(&mut body)
            .map_err(|e| format!("spawner reply body: {e}"))?;
        let body = String::from_utf8_lossy(&body).into_owned();
        if !ok {
            return Err(body);
        }
        let num = |s: &str| {
            s.parse::<f64>()
                .map_err(|_| format!("malformed spawner reply {header:?}"))
        };
        Ok(ChildRun {
            wall_s: num(fields[1])?,
            cpu_s: num(fields[2])?,
            maxrss_kib: num(fields[3])? as u64,
            stdout: body,
        })
    }
}

impl Drop for Spawner {
    fn drop(&mut self) {
        // Closing the request pipe ends the helper's loop.
        drop(self.requests.take());
        let _ = self.process.wait();
    }
}

/// The helper's loop: serves requests from stdin until it closes.
pub fn serve() -> std::io::Result<()> {
    let stdin = std::io::stdin();
    let mut out = std::io::stdout().lock();
    for line in stdin.lock().lines() {
        let line = line?;
        let mut fields = line.split('\t');
        let program = fields.next().unwrap_or_default();
        let args: Vec<String> = fields.map(str::to_owned).collect();
        match run(Path::new(program), &args) {
            Ok(r) => {
                writeln!(
                    out,
                    "ok {:?} {:?} {} {}",
                    r.wall_s,
                    r.cpu_s,
                    r.maxrss_kib,
                    r.stdout.len()
                )?;
                out.write_all(r.stdout.as_bytes())?;
            }
            Err(e) => {
                writeln!(out, "err {}", e.len())?;
                out.write_all(e.as_bytes())?;
            }
        }
        out.flush()?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sh(script: &str) -> Vec<String> {
        vec!["-c".to_owned(), script.to_owned()]
    }

    #[test]
    fn reports_cpu_and_memory_of_the_reaped_child() {
        let run = run(
            Path::new("sh"),
            &sh("i=0; while [ $i -lt 20000 ]; do i=$((i+1)); done; echo done"),
        )
        .expect("sh runs");
        assert_eq!(run.stdout.trim(), "done");
        assert!(run.cpu_s > 0.0 && run.cpu_s <= run.wall_s + 0.05);
        assert!(run.maxrss_kib > 0);
    }

    #[test]
    fn a_failing_child_is_an_error() {
        let err = run(Path::new("sh"), &sh("echo nope >&2; exit 3")).expect_err("exit 3");
        assert!(err.contains("exit code 3") && err.contains("nope"), "{err}");
    }
}
