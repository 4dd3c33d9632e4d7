//! End-to-end tests for the live dataplane and its control plane:
//! `PipelineRunner::serve` driven in-process, and `upbound serve`
//! driven as a real process over HTTP — runtime reconfiguration
//! (`POST /config`), graceful drain (`POST /drain` / SIGINT) and the
//! Usage/Runtime exit-code split.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use upbound::core::{BitmapFilterConfig, DropPolicy, RuntimeOverrides};
use upbound::net::pcap::IngestStats;
use upbound::net::{
    BufferedSource, Cidr, Direction, FiveTuple, NetError, Packet, PacketSource, Protocol,
    SourcePoll, Timestamp,
};
use upbound::sim::{Blocking, PipelineConfig, PipelineRunner, ServeControl, ServeExit};
use upbound::telemetry::Registry;
use upbound::traffic::{generate, TraceConfig};

fn inside() -> Cidr {
    "10.0.0.0/16".parse().expect("valid cidr")
}

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_upbound"))
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("upbound-serve-test-{}-{name}", std::process::id()));
    p
}

fn trace_packets(seed: u64) -> Vec<Packet> {
    generate(
        &TraceConfig::builder()
            .duration_secs(8.0)
            .flow_rate_per_sec(30.0)
            .seed(seed)
            .build()
            .expect("valid trace config"),
    )
    .packets
    .into_iter()
    .map(|lp| lp.packet)
    .collect()
}

/// Unsolicited inbound packets, each on a connection of its own,
/// `per_sec` a second until `total` have been sent. Each poll
/// records the serve loop's blocked-connection gauge, so the test
/// sees its peak.
struct ScanSource {
    sent: u32,
    total: u32,
    per_sec: u32,
    registry: Registry,
    peak_blocked: f64,
}

impl PacketSource for ScanSource {
    fn next_batch(
        &mut self,
        out: &mut Vec<(Packet, Direction)>,
        max: usize,
    ) -> Result<SourcePoll, NetError> {
        let blocked = self
            .registry
            .snapshot()
            .gauge("upbound_serve_blocked_connections")
            .unwrap_or(0.0);
        self.peak_blocked = self.peak_blocked.max(blocked);
        if self.sent == self.total {
            return Ok(SourcePoll::End);
        }
        let n = (self.total - self.sent).min(max as u32);
        for i in self.sent..self.sent + n {
            let tuple = FiveTuple::new(
                Protocol::Udp,
                std::net::SocketAddrV4::new((0x6440_0000 + i).into(), 6881),
                std::net::SocketAddrV4::new([10, 0, 0, 1].into(), 51413),
            );
            let ts = Timestamp::from_micros(u64::from(i) * 1_000_000 / u64::from(self.per_sec));
            out.push((Packet::udp(ts, tuple, Vec::new()), Direction::Inbound));
        }
        self.sent += n;
        Ok(SourcePoll::Batch(n as usize))
    }

    fn stats(&self) -> IngestStats {
        IngestStats::default()
    }

    fn name(&self) -> &str {
        "scan"
    }
}

/// `serve` may run indefinitely on traffic whoever sends it chooses, so
/// a run of fresh tuples, each blocked, must not grow its
/// blocked-connection store without bound: idle connections are
/// released after `T_e`, and the store never exceeds its capacity.
#[test]
fn serve_bounds_its_blocked_connection_store() {
    let runner = PipelineRunner::new(inside(), BitmapFilterConfig::paper_evaluation())
        .pipeline_config(PipelineConfig {
            batch_size: 4096,
            ..PipelineConfig::default()
        });
    let t_e = BitmapFilterConfig::paper_evaluation()
        .expiry_timer()
        .as_secs_f64();
    // (new connections per second, seconds): first slow enough that
    // idle release alone bounds the store, then fast enough that
    // only the capacity does.
    for (per_sec, secs) in [(1_000, 60), (20_000, 20)] {
        let registry = Registry::new();
        let control = ServeControl::new().with_telemetry(&registry);
        let mut source = ScanSource {
            sent: 0,
            total: per_sec * secs,
            per_sec,
            registry: registry.clone(),
            peak_blocked: 0.0,
        };
        let report = runner.serve(&mut source, &control).expect("serve");
        // Every packet is dropped and blocks its own connection.
        assert_eq!(report.dataplane.dropped, u64::from(per_sec * secs));
        assert_eq!(
            report.dataplane.blocked_connections,
            u64::from(per_sec * secs)
        );
        // At most two idle windows' worth are resident: one window,
        // plus those that expired since the last sweep.
        let bound = (2.0 * t_e * f64::from(per_sec)).min(Blocking::EXPIRING_CAPACITY as f64);
        assert!(
            source.peak_blocked > 0.0 && source.peak_blocked <= bound,
            "{per_sec}/s: peak {} over bound {bound}",
            source.peak_blocked
        );
        assert!(report.dataplane.blocked_resident as f64 <= bound);
    }
}

/// In-process: a served looped source applies staged overrides at a
/// rotation boundary and drains on request — the same contract the CLI
/// exposes over HTTP, checked without process machinery in the way.
#[test]
fn serve_applies_reconfig_and_drains_in_process() {
    let config = BitmapFilterConfig::builder()
        .vector_bits(14)
        .rotate_every_secs(1.0)
        .drop_policy(DropPolicy::new(1e6, 4e6).expect("valid policy"))
        .build()
        .expect("valid config");
    let runner = PipelineRunner::new(inside(), config);
    let control = ServeControl::new();
    control.stage(RuntimeOverrides {
        drop_policy: Some(DropPolicy::new(2e6, 8e6).expect("valid policy")),
        batch_size: Some(16),
        ..RuntimeOverrides::default()
    });

    let handle = {
        let control_for_thread = control.clone();
        let mut source = BufferedSource::labeled(trace_packets(1), inside()).looped(true);
        std::thread::spawn(move || runner.serve(&mut source, &control_for_thread))
    };
    // The looped 8 s trace rotates the 1 s bitmap almost immediately in
    // replay time; give it a moment, then drain.
    std::thread::sleep(Duration::from_millis(300));
    control.request_drain();
    let report = handle
        .join()
        .expect("serve thread")
        .expect("serve succeeds");
    assert!(matches!(report.exit, ServeExit::Drained));
    assert_eq!(report.reconfigs_applied, 1, "staged overrides must land");
    assert!(report.dataplane.packets > 0);
}

/// Raw single-connection HTTP/1.1 client (the control plane speaks
/// `Connection: close`, so one request per connection is the contract).
fn http(addr: &str, method: &str, path: &str, body: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect control plane");
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("write request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let (head, body) = response
        .split_once("\r\n\r\n")
        .expect("response has headers");
    (head.to_string(), body.to_string())
}

/// Spawns `upbound serve` with stdout piped and scrapes lines until the
/// control-plane address is printed.
fn spawn_serve(
    args: &[&str],
) -> (
    Child,
    String,
    Arc<AtomicBool>,
    std::thread::JoinHandle<Vec<String>>,
) {
    let mut child = bin()
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn upbound serve");
    let stdout = child.stdout.take().expect("piped stdout");
    let stop = Arc::new(AtomicBool::new(false));
    let reader_stop = Arc::clone(&stop);
    let (tx, rx) = std::sync::mpsc::channel::<String>();
    let reader = std::thread::spawn(move || {
        let mut lines = Vec::new();
        let mut buf = BufReader::new(stdout);
        loop {
            let mut line = String::new();
            match buf.read_line(&mut line) {
                Ok(0) | Err(_) => break,
                Ok(_) => {
                    let _ = tx.send(line.trim_end().to_owned());
                    lines.push(line.trim_end().to_owned());
                }
            }
            if reader_stop.load(Ordering::Relaxed) {
                break;
            }
        }
        lines
    });
    let deadline = Instant::now() + Duration::from_secs(20);
    let addr = loop {
        let remaining = deadline.saturating_duration_since(Instant::now());
        assert!(!remaining.is_zero(), "serve never printed a listen address");
        match rx.recv_timeout(remaining) {
            Ok(line) => {
                if let Some(rest) = line.strip_prefix("control plane listening on http://") {
                    break rest.trim().to_owned();
                }
            }
            Err(_) => panic!("serve exited before printing a listen address"),
        }
    };
    (child, addr, stop, reader)
}

/// The full CLI loop: serve a looped replay, swap the P_d curve and the
/// batch size over `POST /config` without restarting, watch the change
/// land in `/metrics`, then `POST /drain` and exit 0.
#[test]
fn cli_serve_reconfigures_over_http_and_drains() {
    let trace = tmp("reconfig.pcap");
    let trace_s = trace.to_str().expect("utf8 path");
    let out = bin()
        .args([
            "generate",
            "--out",
            trace_s,
            "--duration",
            "8",
            "--rate",
            "40",
            "--seed",
            "11",
        ])
        .output()
        .expect("generate trace");
    assert!(out.status.success());

    let (mut child, addr, stop, reader) = spawn_serve(&[
        "serve",
        "--in",
        trace_s,
        "--loop",
        "--low-mbps",
        "2",
        "--high-mbps",
        "10",
        "--rotate-secs",
        "1",
        "--listen",
        "127.0.0.1:0",
    ]);

    let (head, body) = http(
        &addr,
        "POST",
        "/config",
        "low-mbps=1&high-mbps=3&batch-size=16",
    );
    assert!(head.starts_with("HTTP/1.1 200"), "{head}\n{body}");
    assert!(body.contains("\"generation\":1"), "{body}");

    // The looped replay rotates every simulated second at replay speed,
    // so the staged overrides land almost immediately; poll /metrics
    // until the dataplane reports the new generation.
    let deadline = Instant::now() + Duration::from_secs(20);
    let metrics = loop {
        assert!(Instant::now() < deadline, "reconfig never applied");
        let (head, metrics) = http(&addr, "GET", "/metrics", "");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        if metrics.contains("upbound_serve_config_generation 1") {
            break metrics;
        }
        std::thread::sleep(Duration::from_millis(50));
    };
    assert!(
        metrics.contains("upbound_serve_reconfigs_total 1"),
        "{metrics}"
    );
    assert!(
        metrics.contains("upbound_serve_drop_low_bps 1000000"),
        "{metrics}"
    );
    assert!(
        metrics.contains("upbound_serve_drop_high_bps 3000000"),
        "{metrics}"
    );
    assert!(metrics.contains("upbound_serve_batch_size 16"), "{metrics}");

    // Malformed bodies are rejected without touching the dataplane.
    let (head, _) = http(&addr, "POST", "/config", "low-mbps=1");
    assert!(head.starts_with("HTTP/1.1 400"), "{head}");
    let (head, _) = http(&addr, "POST", "/config", "nonsense");
    assert!(head.starts_with("HTTP/1.1 400"), "{head}");

    let (head, body) = http(&addr, "POST", "/drain", "");
    assert!(head.starts_with("HTTP/1.1 202"), "{head}");
    assert!(body.contains("\"draining\":true"), "{body}");

    let status = child.wait().expect("wait for serve");
    assert_eq!(status.code(), Some(0), "drain is a clean exit");
    stop.store(true, Ordering::Relaxed);
    let lines = reader.join().expect("reader thread");
    assert!(
        lines.iter().any(|l| l.contains("serve finished (drained)")),
        "missing drain report in: {lines:?}"
    );
    assert!(
        lines.iter().any(|l| l.contains("1 reconfig(s) applied")),
        "missing reconfig count in: {lines:?}"
    );
    std::fs::remove_file(&trace).ok();
}

/// A finite (non-looped) replay serves to end-of-stream and exits 0.
#[test]
fn cli_serve_finite_replay_runs_to_completion() {
    let trace = tmp("finite.pcap");
    let trace_s = trace.to_str().expect("utf8 path");
    let out = bin()
        .args([
            "generate",
            "--out",
            trace_s,
            "--duration",
            "5",
            "--rate",
            "30",
            "--seed",
            "3",
        ])
        .output()
        .expect("generate trace");
    assert!(out.status.success());

    let snap = tmp("finite.snap");
    let out = bin()
        .args([
            "serve",
            "--in",
            trace_s,
            "--high-mbps",
            "10",
            "--low-mbps",
            "2",
            "--checkpoint",
            snap.to_str().expect("utf8 path"),
            "--checkpoint-interval",
            "2",
        ])
        .output()
        .expect("run serve");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("serve finished (source ended)"), "{stdout}");
    assert!(snap.exists(), "final checkpoint must be written");
    std::fs::remove_file(&trace).ok();
    std::fs::remove_file(&snap).ok();
}

/// SIGINT while serving drains gracefully and exits 130.
#[cfg(unix)]
#[test]
fn cli_serve_sigint_drains_and_exits_130() {
    let trace = tmp("sigint.pcap");
    let trace_s = trace.to_str().expect("utf8 path");
    let out = bin()
        .args([
            "generate",
            "--out",
            trace_s,
            "--duration",
            "5",
            "--rate",
            "30",
            "--seed",
            "5",
        ])
        .output()
        .expect("generate trace");
    assert!(out.status.success());

    let (mut child, _addr, stop, reader) = spawn_serve(&[
        "serve",
        "--in",
        trace_s,
        "--loop",
        "--high-mbps",
        "10",
        "--low-mbps",
        "2",
        "--listen",
        "127.0.0.1:0",
    ]);
    let kill = Command::new("kill")
        .args(["-INT", &child.id().to_string()])
        .status()
        .expect("send SIGINT");
    assert!(kill.success());
    let status = child.wait().expect("wait for serve");
    assert_eq!(status.code(), Some(130), "SIGINT is a clean 130 exit");
    stop.store(true, Ordering::Relaxed);
    let lines = reader.join().expect("reader thread");
    assert!(
        lines.iter().any(|l| l.contains("serve finished (drained)")),
        "missing drain report in: {lines:?}"
    );
    std::fs::remove_file(&trace).ok();
}

/// The Usage/Runtime split: flag misuse exits 2 before any dataplane
/// work; runtime failures exit 1.
#[test]
fn cli_serve_usage_and_runtime_errors_split_exit_codes() {
    let stderr_of = |args: &[&str]| {
        let out = bin().args(args).output().expect("run serve");
        (
            out.status.code(),
            String::from_utf8_lossy(&out.stderr).into_owned(),
        )
    };

    // No source at all.
    let (code, err) = stderr_of(&["serve"]);
    assert_eq!(code, Some(2), "{err}");
    // Both sources at once.
    let (code, _) = stderr_of(&["serve", "--in", "x.pcap", "--live", "lo"]);
    assert_eq!(code, Some(2));
    // Fault injection cannot target a live interface.
    let (code, err) = stderr_of(&["serve", "--live", "lo", "--fault-plan", "seed=1,corrupt=5"]);
    assert_eq!(code, Some(2));
    assert!(err.contains("replay-only"), "{err}");
    // --loop is replay-only too.
    let (code, _) = stderr_of(&["serve", "--live", "lo", "--loop"]);
    assert_eq!(code, Some(2));
    // Unknown flags are rejected up front.
    let (code, _) = stderr_of(&["serve", "--in", "x.pcap", "--frobnicate"]);
    assert_eq!(code, Some(2));
    // A missing input file is a runtime failure, not a usage error.
    let missing = tmp("does-not-exist.pcap");
    let (code, _) = stderr_of(&["serve", "--in", missing.to_str().expect("utf8 path")]);
    assert_eq!(code, Some(1));
}

/// `serve --in X` decides exactly what `filter --in X` decides: both
/// drive the same dataplane core, connection blocking included, so the
/// packet/drop/block line and the uplink line are identical for every
/// flag set the two subcommands share. (`serve` also releases a blocked
/// connection after `T_e` without packets; these captures have none
/// that comes back after such a gap.)
#[test]
fn cli_serve_summary_matches_filter() {
    const FLAG_SETS: [&[&str]; 5] = [
        &[],
        &["--shards", "4"],
        &["--batch-size", "1"],
        &["--low-mbps", "0.2", "--high-mbps", "1", "--hole-punching"],
        &["--fault-plan", "seed=5,corrupt=20"],
    ];
    let summary = |args: &[&str]| {
        let out = bin().args(args).output().expect("run upbound");
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        assert!(
            out.status.success(),
            "upbound {args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let lines: Vec<String> = stdout
            .lines()
            .filter(|l| l.contains(" packets; dropped ") || l.starts_with("uplink: "))
            .map(str::to_owned)
            .collect();
        assert_eq!(lines.len(), 2, "upbound {args:?}: no summary in {stdout}");
        lines
    };
    for seed in ["3", "11"] {
        let trace = tmp(&format!("matches-filter-{seed}.pcap"));
        let trace_s = trace.to_str().expect("utf8 path");
        let out = bin()
            .args([
                "generate",
                "--out",
                trace_s,
                "--duration",
                "30",
                "--rate",
                "20",
                "--seed",
                seed,
            ])
            .output()
            .expect("generate trace");
        assert!(out.status.success());
        for flags in FLAG_SETS {
            let mut filter = vec!["filter", "--in", trace_s];
            filter.extend_from_slice(flags);
            let mut serve = vec!["serve", "--in", trace_s];
            serve.extend_from_slice(flags);
            assert_eq!(
                summary(&serve),
                summary(&filter),
                "seed {seed}, flags {flags:?}"
            );
        }
        std::fs::remove_file(&trace).ok();
    }
}
