//! `upbound` — command-line front end for the bitmap-filter toolkit.
//!
//! Subcommands:
//!
//! * `generate` — synthesize a client-network workload and write a pcap.
//! * `analyze`  — run the Section 3 traffic analyzer over a pcap.
//! * `filter`   — replay a pcap through the bitmap filter, writing the
//!   surviving packets to a new pcap and printing throughput/drop stats.
//! * `params`   — capacity planning with the §5.1 equations.
//! * `debug`    — operator tooling: pretty-print a flight-recorder dump
//!   (`read-dump`) or validate a Prometheus exposition file
//!   (`parse-metrics`).
//!
//! Run `upbound help` (or any subcommand with `--help`) for usage.
//!
//! Exit codes: `0` success, `1` runtime failure, `2` usage error,
//! `130` clean shutdown after SIGINT/SIGTERM.

use std::fs::File;
use std::io::BufWriter;
use std::path::Path;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use upbound::analyzer::Analyzer;
use upbound::core::params::{max_connections, optimal_hash_count, penetration_probability};
use upbound::core::{
    snapshot, BitmapFilter, BitmapFilterConfig, DropPolicy, FailMode, FlowHash, OverloadPolicy,
    PacketFilter, RestoreOutcome, RuntimeOverrides, ShardedFilter, Snapshottable,
    SubscriberClassifier, SubscriberState, SubscriberTable, SubscriberTelemetry, TelemetryObserver,
};
use upbound::net::pcap::{IngestStats, IngestTelemetry, PcapReader, PcapWriter, RecoveryPolicy};
use upbound::net::{
    BufferedSource, Cidr, Direction, LiveCaptureError, LiveConfig, LiveSource, Packet, TimeDelta,
    Timestamp,
};
use upbound::sim::{
    Blocking, Dataplane, DataplaneStats, Fate, FaultInjector, FaultPlan, PipelineConfig,
    PipelineRunner, PlannedInjector, ServeControl, ServeExit, Settled,
};
use upbound::telemetry::{
    export, ControlHandler, ControlResponse, DumpTrigger, FlightRecorder, HealthState,
    MetricsServer, Registry, Snapshot, Stage, StageTracer,
};
use upbound::traffic::{generate, TraceConfig};

const USAGE: &str = "\
upbound — bound peer-to-peer upload traffic without payload inspection

USAGE:
    upbound generate --out <FILE> [--duration <SECS>] [--rate <FLOWS/S>]
                     [--seed <N>] [--snaplen <BYTES>] [--inside <CIDR>]
    upbound analyze  --in <FILE> [--inside <CIDR>] [--on-corrupt strict|skip]
    upbound filter   --in <FILE> [--out <FILE>] [--inside <CIDR>]
                     [--low-mbps <F>] [--high-mbps <F>] [--vector-bits <N>]
                     [--vectors <K>] [--rotate-secs <F>] [--hashes <M>]
                     [--hole-punching] [--no-block] [--shards <N>]
                     [--batch-size <N>] [--fail-mode open|closed]
                     [--checkpoint <FILE>] [--checkpoint-interval <SECS>]
                     [--on-corrupt strict|skip]
                     [--metrics <FILE.prom|FILE.json>]
                     [--metrics-interval <SECS>]
                     [--metrics-addr <HOST:PORT>] [--flight-dump <FILE>]
                     [--trace-latency] [--serve-grace <SECS>]
                     [--subscribers <SPEC>] [--evict-idle <SECS>]
                     [--overload-policy <SPEC>] [--fault-plan <SPEC>]
    upbound serve    (--in <FILE> [--loop] | --live <IFACE>)
                     [--inside <CIDR>] [--listen <HOST:PORT>]
                     [--low-mbps <F>] [--high-mbps <F>] [--vector-bits <N>]
                     [--vectors <K>] [--rotate-secs <F>] [--hashes <M>]
                     [--hole-punching] [--fail-mode open|closed]
                     [--shards <N>] [--batch-size <N>]
                     [--overload-policy <SPEC>]
                     [--checkpoint <FILE>] [--checkpoint-interval <SECS>]
                     [--on-corrupt strict|skip] [--fault-plan <SPEC>]
    upbound params   [--connections <N>]
    upbound debug    read-dump <FILE> | parse-metrics <FILE>
    upbound help

MULTI-TENANT (filter):
    --subscribers replays through a multi-tenant subscriber table
    instead of one --inside network. <SPEC> is a text file, one
    subscriber per line: `CIDR [key=value ...]` (# comments allowed).
    Keys override the command-line filter defaults per tenant:
    name, low-mbps, high-mbps, vector-bits, vectors, rotate-secs,
    hashes, hole-punching, seed. Packets are classified by longest
    prefix match; tenant filters materialize lazily on first packet.
    --evict-idle recycles a tenant's bit storage through a shared
    arena after it has been idle that many seconds (clamped up to
    the tenant's expiry window T_e, so verdicts never change).
    Interval reports (--metrics-interval) gain per-tenant columns.
    Incompatible with --inside, --shards, --fail-mode open,
    --metrics-addr, --flight-dump, --trace-latency, --serve-grace,
    --overload-policy, --fault-plan.

OVERLOAD RESILIENCE (filter):
    --overload-policy arms the saturation sentinel and graceful-
    degradation ladder (Normal -> Pressure -> Saturated on bitmap
    fill, with hysteresis). <SPEC> is `off`, `balanced`, or `strict`,
    optionally followed by comma-separated overrides: pressure,
    saturated, hysteresis, pressure-clamp, saturated-clamp,
    early-rotation (e.g. `balanced,saturated=0.8`). While degraded
    the filter clamps unsolicited-inbound P_d upward (never touching
    marked flows) and, when Saturated, rotates the bitmap at double
    rate; with --fail-mode open the Saturated clamp is capped at the
    Pressure level (emergency bypass). Transitions are exported as
    metrics/journal events; entering Saturated dumps the black box.
    --fault-plan injects deterministic faults for resilience drills:
    `none` or comma-separated `key=value` of seed, corrupt
    (per-mille packet corruption), reorder (bursts), skew (spikes),
    skew-secs, ckpt (checkpoint write failures; periodic writes
    retry with bounded backoff, then degrade to checkpointing-
    disabled — final checkpoints stay fatal). panics=N is reserved
    for the supervised pipeline (chaos harness), which catches and
    quarantines them. Same plan + same input => same faults.
    Incompatible with --subscribers.

BATCH SIZE (filter, serve):
    Every packet is decided as it is read, so --batch-size (default
    64) never changes a verdict. `filter` sweeps filter timers after
    every N decided packets; `serve` also polls its source N packets
    at a time.

OBSERVABILITY (filter):
    --metrics-addr serves live GET /metrics (Prometheus) and
    GET /health (JSON) over HTTP while the replay runs.
    --flight-dump names the black-box file; it is written on panic,
    on SIGUSR1, and when a fail-open filter arms while degraded.
    --trace-latency records per-stage latency histograms
    (upbound_cli_stage_*); decide and emit are timed on one packet
    per --batch-size decided packets.
    --serve-grace keeps the HTTP endpoint up for N seconds after the
    replay finishes (SIGINT/SIGTERM ends the grace period early).

LIVE DATAPLANE (serve):
    `serve` runs the filter as a long-lived dataplane over a unified
    packet source: a pcap replay (--in; --loop restamps each pass so a
    finite capture becomes an indefinite workload) or a Linux AF_PACKET
    live capture (--live <IFACE>, needs CAP_NET_RAW or root). It
    decides through the same dataplane as `filter`, connection blocking
    included, and ends with the same packets/uplink summary lines. A
    blocked connection is released after one expiry window (vectors x
    rotate-secs) without packets, and at most 2^18 are kept.
    --listen starts the control plane on <HOST:PORT> (port 0 picks an
    ephemeral port, printed on startup):
      GET  /metrics   Prometheus exposition (upbound_serve_* live state)
      GET  /health    liveness JSON
      POST /config    stage runtime overrides, applied at the next
                      bitmap-rotation boundary without restart. Body is
                      `key=value` pairs separated by newlines or `&`:
                      low-mbps, high-mbps (both together swap the P_d
                      curve), fail-mode=open|closed, batch-size=N,
                      overload-policy=off|balanced|strict[,k=v...]
      POST /drain     finish the in-flight batch, write the final
                      checkpoint, exit 0
    SIGINT/SIGTERM triggers the same graceful drain, then exits 130.
    --fault-plan distorts a replayed stream deterministically before
    serving (corrupt/reorder/skew only); it is incompatible with
    --live — faults cannot be injected into a real interface.

EXIT CODES:
    0 success; 1 runtime failure; 2 usage error;
    130 clean shutdown after SIGINT/SIGTERM (final checkpoint and
    metrics snapshot are still written).
";

/// A CLI failure, split by who is at fault: `Usage` problems (bad flags
/// or values) exit 2, `Runtime` problems (I/O, corrupt inputs, failed
/// checkpoints) exit 1.
enum CliError {
    Usage(String),
    Runtime(String),
}

/// How a subcommand finished: normally, or cut short by a signal (exit
/// code 130 after all shutdown work — final checkpoint, metrics — has
/// been done).
#[derive(PartialEq)]
enum Outcome {
    Done,
    Interrupted,
}

/// SIGINT/SIGTERM latching. The handler only sets an atomic flag
/// (async-signal-safe); the main loops poll it between packets and run
/// an orderly shutdown.
#[cfg(unix)]
mod signals {
    use std::sync::atomic::{AtomicBool, Ordering};

    static INTERRUPTED: AtomicBool = AtomicBool::new(false);
    static DUMP_REQUESTED: AtomicBool = AtomicBool::new(false);

    extern "C" fn latch(_signum: i32) {
        INTERRUPTED.store(true, Ordering::SeqCst);
    }

    extern "C" fn latch_dump(_signum: i32) {
        DUMP_REQUESTED.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    pub fn install() {
        const SIGINT: i32 = 2;
        const SIGUSR1: i32 = 10;
        const SIGPIPE: i32 = 13;
        const SIGTERM: i32 = 15;
        const SIG_DFL: usize = 0;
        // SAFETY: both handlers are async-signal-safe (a single atomic
        // store each) and have the C ABI `signal` expects. SIGPIPE is
        // reset to the default disposition so piping into a pager that
        // exits early terminates the process quietly (the Unix
        // convention) instead of panicking on the next stdout write.
        // SIGUSR1 latches a flight-recorder dump request, which the
        // filter loop services between packets.
        unsafe {
            signal(SIGINT, latch as extern "C" fn(i32) as usize);
            signal(SIGTERM, latch as extern "C" fn(i32) as usize);
            signal(SIGUSR1, latch_dump as extern "C" fn(i32) as usize);
            signal(SIGPIPE, SIG_DFL);
        }
    }

    pub fn interrupted() -> bool {
        INTERRUPTED.load(Ordering::SeqCst)
    }

    /// Takes (and clears) a pending SIGUSR1 dump request.
    pub fn dump_requested() -> bool {
        DUMP_REQUESTED.swap(false, Ordering::SeqCst)
    }
}

#[cfg(not(unix))]
mod signals {
    pub fn install() {}

    pub fn interrupted() -> bool {
        false
    }

    pub fn dump_requested() -> bool {
        false
    }
}

/// Flags each subcommand accepts; anything else is rejected up front.
const GENERATE_FLAGS: &[&str] = &["out", "duration", "rate", "seed", "snaplen", "inside"];
const ANALYZE_FLAGS: &[&str] = &["in", "inside", "on-corrupt"];
const FILTER_FLAGS: &[&str] = &[
    "in",
    "out",
    "inside",
    "low-mbps",
    "high-mbps",
    "vector-bits",
    "vectors",
    "rotate-secs",
    "hashes",
    "hole-punching",
    "no-block",
    "shards",
    "batch-size",
    "fail-mode",
    "checkpoint",
    "checkpoint-interval",
    "on-corrupt",
    "metrics",
    "metrics-interval",
    "metrics-addr",
    "flight-dump",
    "trace-latency",
    "serve-grace",
    "subscribers",
    "evict-idle",
    "overload-policy",
    "fault-plan",
];
const PARAMS_FLAGS: &[&str] = &["connections"];
const SERVE_FLAGS: &[&str] = &[
    "in",
    "live",
    "loop",
    "inside",
    "listen",
    "low-mbps",
    "high-mbps",
    "vector-bits",
    "vectors",
    "rotate-secs",
    "hashes",
    "hole-punching",
    "fail-mode",
    "shards",
    "batch-size",
    "overload-policy",
    "checkpoint",
    "checkpoint-interval",
    "on-corrupt",
    "fault-plan",
];

struct Args {
    flags: Vec<(String, Option<String>)>,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Self, String> {
        let mut flags = Vec::new();
        let mut i = 0;
        while i < argv.len() {
            let a = &argv[i];
            if !a.starts_with("--") {
                return Err(format!("unexpected argument {a:?}"));
            }
            let name = a.trim_start_matches("--").to_owned();
            let value = if i + 1 < argv.len() && !argv[i + 1].starts_with("--") {
                i += 1;
                Some(argv[i].clone())
            } else {
                None
            };
            flags.push((name, value));
            i += 1;
        }
        Ok(Self { flags })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    /// Rejects any flag the subcommand does not define, so typos fail
    /// loudly instead of being silently ignored.
    fn ensure_known(&self, command: &str, allowed: &[&str]) -> Result<(), String> {
        for (name, _) in &self.flags {
            if !allowed.contains(&name.as_str()) {
                return Err(format!(
                    "unknown flag --{name} for `upbound {command}` (expected one of: {})",
                    allowed
                        .iter()
                        .map(|f| format!("--{f}"))
                        .collect::<Vec<_>>()
                        .join(", ")
                ));
            }
        }
        Ok(())
    }

    fn parse_num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name} expects a number, got {v:?}")),
        }
    }
}

/// Exit code for a clean signal-initiated shutdown (128 + SIGINT).
const EXIT_INTERRUPTED: u8 = 130;
/// Exit code for usage errors (bad flags or values).
const EXIT_USAGE: u8 = 2;

fn usage(message: impl Into<String>) -> CliError {
    CliError::Usage(message.into())
}

fn runtime(message: impl Into<String>) -> CliError {
    CliError::Runtime(message.into())
}

fn main() -> ExitCode {
    signals::install();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match argv.split_first() {
        Some((c, rest)) => (c.as_str(), rest),
        None => {
            eprint!("{USAGE}");
            return ExitCode::from(EXIT_USAGE);
        }
    };
    if command == "help" || rest.iter().any(|a| a == "--help") {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    // `debug` takes positional operands, not `--` flags.
    if command == "debug" {
        return match cmd_debug(rest) {
            Ok(()) => ExitCode::SUCCESS,
            Err(CliError::Usage(e)) => {
                eprintln!("error: {e}\n\n{USAGE}");
                ExitCode::from(EXIT_USAGE)
            }
            Err(CliError::Runtime(e)) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match Args::parse(rest) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::from(EXIT_USAGE);
        }
    };
    let result = match command {
        "generate" => args
            .ensure_known(command, GENERATE_FLAGS)
            .map_err(usage)
            .and_then(|()| cmd_generate(&args)),
        "analyze" => args
            .ensure_known(command, ANALYZE_FLAGS)
            .map_err(usage)
            .and_then(|()| cmd_analyze(&args)),
        "filter" => args
            .ensure_known(command, FILTER_FLAGS)
            .map_err(usage)
            .and_then(|()| cmd_filter(&args)),
        "params" => args
            .ensure_known(command, PARAMS_FLAGS)
            .map_err(usage)
            .and_then(|()| cmd_params(&args)),
        "serve" => args
            .ensure_known(command, SERVE_FLAGS)
            .map_err(usage)
            .and_then(|()| cmd_serve(&args)),
        other => Err(usage(format!("unknown command {other:?}"))),
    };
    match result {
        Ok(Outcome::Done) => ExitCode::SUCCESS,
        Ok(Outcome::Interrupted) => {
            eprintln!("interrupted: shut down cleanly");
            ExitCode::from(EXIT_INTERRUPTED)
        }
        Err(CliError::Usage(e)) => {
            eprintln!("error: {e}\n\n{USAGE}");
            ExitCode::from(EXIT_USAGE)
        }
        Err(CliError::Runtime(e)) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn inside_of(args: &Args) -> Result<Cidr, String> {
    args.get("inside")
        .unwrap_or("10.0.0.0/16")
        .parse()
        .map_err(|e| format!("--inside: {e}"))
}

fn recovery_policy_of(args: &Args) -> Result<RecoveryPolicy, String> {
    match args.get("on-corrupt") {
        None if args.has("on-corrupt") => Err("--on-corrupt expects `strict` or `skip`".to_owned()),
        None | Some("strict") => Ok(RecoveryPolicy::Strict),
        Some("skip") => Ok(RecoveryPolicy::Skip),
        Some(other) => Err(format!(
            "--on-corrupt expects `strict` or `skip`, got {other:?}"
        )),
    }
}

/// Prints what the recovering reader had to discard, if anything.
fn report_skips(stats: &IngestStats) {
    if stats.records_skipped == 0 {
        return;
    }
    let by_reason: Vec<String> = stats
        .by_reason()
        .filter(|&(_, n)| n > 0)
        .map(|(r, n)| format!("{r}={n}"))
        .collect();
    println!(
        "skipped {} corrupt region(s) / {} byte(s) while reading ({})",
        stats.records_skipped,
        stats.bytes_skipped,
        by_reason.join(", ")
    );
}

fn cmd_generate(args: &Args) -> Result<Outcome, CliError> {
    let out_path = args
        .get("out")
        .ok_or_else(|| usage("generate requires --out <FILE>"))?;
    let duration: f64 = args.parse_num("duration", 60.0).map_err(usage)?;
    let rate: f64 = args.parse_num("rate", 40.0).map_err(usage)?;
    let seed: u64 = args.parse_num("seed", 42u64).map_err(usage)?;
    let snaplen: u32 = args.parse_num("snaplen", 65_535u32).map_err(usage)?;
    let inside = inside_of(args).map_err(usage)?;

    let config = TraceConfig::builder()
        .duration_secs(duration)
        .flow_rate_per_sec(rate)
        .seed(seed)
        .inside(inside)
        .build()
        .map_err(|e| usage(e.to_string()))?;
    let trace = generate(&config);

    let file = File::create(out_path).map_err(|e| runtime(format!("{out_path}: {e}")))?;
    let mut writer =
        PcapWriter::new(BufWriter::new(file), snaplen).map_err(|e| runtime(e.to_string()))?;
    for lp in &trace.packets {
        writer
            .write_packet(&lp.packet)
            .map_err(|e| runtime(e.to_string()))?;
    }
    writer.finish().map_err(|e| runtime(e.to_string()))?;
    println!(
        "wrote {} packets / {} connections ({:.1} s of traffic) to {}",
        trace.packets.len(),
        trace.connection_count(),
        duration,
        out_path
    );
    Ok(Outcome::Done)
}

fn cmd_analyze(args: &Args) -> Result<Outcome, CliError> {
    let in_path = args
        .get("in")
        .ok_or_else(|| usage("analyze requires --in <FILE>"))?;
    let inside = inside_of(args).map_err(usage)?;
    let policy = recovery_policy_of(args).map_err(usage)?;
    let file = File::open(in_path).map_err(|e| runtime(format!("{in_path}: {e}")))?;
    let mut reader = PcapReader::with_policy(file, policy).map_err(|e| runtime(e.to_string()))?;
    let mut analyzer = Analyzer::new(inside);
    let mut outcome = Outcome::Done;
    while let Some(p) = reader.read_packet().map_err(|e| runtime(e.to_string()))? {
        if signals::interrupted() {
            // Report on whatever was ingested before the signal.
            outcome = Outcome::Interrupted;
            break;
        }
        analyzer.process(&p);
    }
    report_skips(reader.stats());
    let report = analyzer.finish();

    println!(
        "{}: {} packets, {} connections",
        in_path,
        report.packets,
        report.connections.len()
    );
    println!("\nprotocol distribution:");
    for share in report.protocol_table() {
        println!(
            "  {:<12} {:>6.2}% of connections  {:>6.2}% of bytes",
            share.name,
            share.connection_share * 100.0,
            share.byte_share * 100.0
        );
    }
    println!(
        "\nupload: {:.1}% of bytes ({:.1}% of it on inbound-initiated connections)",
        report.upload_fraction() * 100.0,
        report.upload_on_inbound_fraction() * 100.0
    );
    let delays = report.delay_cdf();
    if !delays.is_empty() {
        println!(
            "out-in delay: median {:.3} s, p99 {:.2} s",
            delays.median(),
            delays.quantile(0.99)
        );
    }
    println!("\ntop uploaders:");
    for (host, bytes) in report.top_uploaders(5) {
        println!(
            "  {host:<15} {:.2} MiB up",
            bytes as f64 / (1024.0 * 1024.0)
        );
    }
    Ok(outcome)
}

/// Where `--metrics` wants the final snapshot written, decided by file
/// extension.
enum MetricsFormat {
    Prometheus,
    Json,
}

fn metrics_sink(args: &Args) -> Result<Option<(String, MetricsFormat)>, String> {
    let Some(path) = args.get("metrics") else {
        if args.has("metrics") {
            return Err("--metrics requires a file path (.prom or .json)".to_owned());
        }
        return Ok(None);
    };
    let format = if path.ends_with(".prom") {
        MetricsFormat::Prometheus
    } else if path.ends_with(".json") {
        MetricsFormat::Json
    } else {
        return Err(format!(
            "--metrics expects a .prom or .json path, got {path:?}"
        ));
    };
    Ok(Some((path.to_owned(), format)))
}

fn write_metrics(path: &str, format: &MetricsFormat, snapshot: &Snapshot) -> Result<(), String> {
    let text = match format {
        MetricsFormat::Prometheus => export::prometheus::render(snapshot),
        MetricsFormat::Json => export::json::render(snapshot),
    };
    std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))?;
    println!("wrote metrics snapshot to {path}");
    Ok(())
}

/// Write buffer of `--out`: the reader's 64 KiB window, so a passed
/// record costs a copy and a write call per several hundred records.
/// Larger buffers cut `write` calls further but come from `mmap` above
/// glibc's 128 KiB threshold and raise peak RSS.
const OUT_BUFFER: usize = 64 * 1024;

/// Opens `--out` as a pcap writer, if given.
fn out_writer(args: &Args) -> Result<Option<PcapWriter<BufWriter<File>>>, CliError> {
    match args.get("out") {
        Some(path) => {
            let f = File::create(path).map_err(|e| runtime(format!("{path}: {e}")))?;
            let w = PcapWriter::new(BufWriter::with_capacity(OUT_BUFFER, f), 65_535)
                .map_err(|e| runtime(e.to_string()))?;
            Ok(Some(w))
        }
        None => Ok(None),
    }
}

/// The bitmap-filter flags: the configuration of the single `--inside`
/// filter, and the per-tenant defaults a `--subscribers` spec line's
/// `key=value` tokens override for that subscriber only.
#[derive(Clone)]
struct BitmapFlags {
    low: f64,
    high: f64,
    vector_bits: u32,
    vectors: usize,
    rotate_secs: f64,
    hashes: usize,
    hole_punching: bool,
}

impl BitmapFlags {
    fn of(args: &Args) -> Result<Self, CliError> {
        Ok(Self {
            low: args.parse_num("low-mbps", 0.0).map_err(usage)?,
            high: args.parse_num("high-mbps", 0.0).map_err(usage)?,
            vector_bits: args.parse_num("vector-bits", 20u32).map_err(usage)?,
            vectors: args.parse_num("vectors", 4usize).map_err(usage)?,
            rotate_secs: args.parse_num("rotate-secs", 5.0f64).map_err(usage)?,
            hashes: args.parse_num("hashes", 3usize).map_err(usage)?,
            hole_punching: args.has("hole-punching"),
        })
    }

    fn build(&self, seed: Option<u64>) -> Result<BitmapFilterConfig, String> {
        let mut builder = BitmapFilterConfig::builder();
        builder
            .vector_bits(self.vector_bits)
            .vectors(self.vectors)
            .rotate_every_secs(self.rotate_secs)
            .hash_functions(self.hashes)
            .hole_punching(self.hole_punching);
        if let Some(seed) = seed {
            builder.rng_seed(seed);
        }
        if self.high > 0.0 {
            builder.drop_policy(
                DropPolicy::new(self.low * 1e6, self.high * 1e6).map_err(|e| e.to_string())?,
            );
        }
        builder.build().map_err(|e| e.to_string())
    }
}

/// The flags `filter` (either filter kind) and `serve` share, parsed in
/// one place. Each command rejects the combinations it does not support
/// before or after calling [`FilterFlags::parse`].
struct FilterFlags {
    bitmap: BitmapFlags,
    fail_mode: FailMode,
    overload: OverloadPolicy,
    checkpoint: Option<String>,
    checkpoint_interval: f64,
    batch_size: usize,
    shards: usize,
    fault_plan: Option<FaultPlan>,
}

impl FilterFlags {
    fn parse(args: &Args) -> Result<Self, CliError> {
        let bitmap = BitmapFlags::of(args)?;
        let fail_mode = match args.get("fail-mode") {
            None if args.has("fail-mode") => {
                return Err(usage("--fail-mode expects `open` or `closed`"));
            }
            None => FailMode::Closed,
            Some(v) => FailMode::parse(v).ok_or_else(|| {
                usage(format!("--fail-mode expects `open` or `closed`, got {v:?}"))
            })?,
        };
        let overload = match args.get("overload-policy") {
            None if args.has("overload-policy") => {
                return Err(usage(
                    "--overload-policy expects off|balanced|strict[,key=value...]",
                ));
            }
            None => OverloadPolicy::off(),
            Some(spec) => {
                OverloadPolicy::parse(spec).map_err(|e| usage(format!("--overload-policy: {e}")))?
            }
        };
        let checkpoint = match args.get("checkpoint") {
            None if args.has("checkpoint") => {
                return Err(usage("--checkpoint requires a file path"));
            }
            other => other.map(str::to_owned),
        };
        let checkpoint_interval: f64 =
            args.parse_num("checkpoint-interval", 30.0).map_err(usage)?;
        if checkpoint_interval <= 0.0 || !checkpoint_interval.is_finite() {
            return Err(usage(format!(
                "--checkpoint-interval expects a positive number of seconds, got {checkpoint_interval}"
            )));
        }
        if args.has("checkpoint-interval") && checkpoint.is_none() {
            return Err(usage("--checkpoint-interval requires --checkpoint <FILE>"));
        }
        let batch_size: usize = args.parse_num("batch-size", 64usize).map_err(usage)?;
        if batch_size == 0 {
            return Err(usage("--batch-size expects at least 1"));
        }
        let shards: usize = args.parse_num("shards", 1usize).map_err(usage)?;
        if shards == 0 {
            return Err(usage("--shards expects at least 1"));
        }
        let fault_plan = match args.get("fault-plan") {
            None if args.has("fault-plan") => {
                return Err(usage(
                    "--fault-plan expects `none` or key=value fields (seed, corrupt, \
                     reorder, skew, skew-secs, panics, ckpt)",
                ));
            }
            None => None,
            Some(spec) => {
                let plan =
                    FaultPlan::parse(spec).map_err(|e| usage(format!("--fault-plan: {e}")))?;
                if plan.panics() > 0 {
                    return Err(usage(
                        "--fault-plan panics=N needs a shard supervisor to catch them; \
                         it is only supported by the supervised pipeline (chaos harness), \
                         not the CLI dataplane",
                    ));
                }
                (!plan.is_none()).then_some(plan)
            }
        };
        Ok(Self {
            bitmap,
            fail_mode,
            overload,
            checkpoint,
            checkpoint_interval,
            batch_size,
            shards,
            fault_plan,
        })
    }

    /// The configuration of the single `--inside` filter.
    fn config(&self) -> Result<BitmapFilterConfig, CliError> {
        self.bitmap
            .build(None)
            .map(|config| config.with_fail_mode(self.fail_mode))
            .map_err(usage)
    }
}

/// Reads the whole capture and distorts it by `plan` (stream faults need
/// the whole stream), printing what the plan touched.
fn distorted_stream<R: std::io::Read>(
    reader: &mut PcapReader<R>,
    plan: &FaultPlan,
) -> Result<Vec<Packet>, CliError> {
    let mut all = Vec::new();
    while let Some(p) = reader.read_packet().map_err(|e| runtime(e.to_string()))? {
        all.push(p);
    }
    let (stream, report) = plan.distort_stream(all);
    println!(
        "fault plan armed (seed {}): corrupted {} packet(s), {} reorder burst(s), \
         {} skewed packet(s)",
        plan.seed(),
        report.corrupted,
        report.reorder_bursts,
        report.skewed
    );
    Ok(stream)
}

/// Prints the two lines that state what the dataplane decided. `filter`
/// and `serve` print them identically from the core's counters; `span`
/// is the timestamp of the last packet.
fn print_summary(stats: &DataplaneStats, span: Timestamp) {
    let span = span.as_secs_f64().max(1e-9);
    println!(
        "{} packets; dropped {} ({:.2}%); blocked {} connections",
        stats.packets,
        stats.dropped,
        stats.dropped as f64 / stats.packets.max(1) as f64 * 100.0,
        stats.blocked_connections
    );
    println!(
        "uplink: {:.2} Mbps offered -> {:.2} Mbps after filtering",
        stats.uplink_offered_bits as f64 / span / 1e6,
        stats.uplink_passed_bits as f64 / span / 1e6
    );
}

/// Writes the flight-recorder dump a SIGUSR1 asked for.
fn dump_on_signal(flight: &FlightRecorder) {
    match flight.dump_now(DumpTrigger::Signal) {
        Ok(Some(path)) => println!("SIGUSR1: wrote flight dump to {}", path.display()),
        Ok(None) => eprintln!("SIGUSR1 received, but no --flight-dump path configured"),
        Err(e) => eprintln!("SIGUSR1: flight dump failed: {e}"),
    }
}

/// One parsed `--subscribers` spec line.
struct TenantSpec {
    name: String,
    cidr: Cidr,
    config: BitmapFilterConfig,
}

fn parse_spec_field<T: std::str::FromStr>(
    key: &str,
    value: &str,
    lineno: usize,
) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    value
        .parse()
        .map_err(|e| format!("line {lineno}: {key}={value:?}: {e}"))
}

/// Parses a subscriber spec: one subscriber per line, `CIDR [key=value
/// ...]`, `#` starts a comment. Keys: `name`, `low-mbps`, `high-mbps`,
/// `vector-bits`, `vectors`, `rotate-secs`, `hashes`, `hole-punching`,
/// `seed`.
fn parse_subscriber_spec(text: &str, defaults: &BitmapFlags) -> Result<Vec<TenantSpec>, String> {
    let mut specs = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut tokens = line.split_whitespace();
        let Some(cidr_token) = tokens.next() else {
            continue;
        };
        let cidr: Cidr = cidr_token
            .parse()
            .map_err(|e| format!("line {lineno}: {cidr_token:?}: {e}"))?;
        let mut tenant = defaults.clone();
        let mut name = cidr_token.to_owned();
        let mut seed = None;
        for token in tokens {
            let Some((key, value)) = token.split_once('=') else {
                return Err(format!("line {lineno}: expected key=value, got {token:?}"));
            };
            match key {
                "name" => name = value.to_owned(),
                "low-mbps" => tenant.low = parse_spec_field(key, value, lineno)?,
                "high-mbps" => tenant.high = parse_spec_field(key, value, lineno)?,
                "vector-bits" => tenant.vector_bits = parse_spec_field(key, value, lineno)?,
                "vectors" => tenant.vectors = parse_spec_field(key, value, lineno)?,
                "rotate-secs" => tenant.rotate_secs = parse_spec_field(key, value, lineno)?,
                "hashes" => tenant.hashes = parse_spec_field(key, value, lineno)?,
                "hole-punching" => tenant.hole_punching = parse_spec_field(key, value, lineno)?,
                "seed" => seed = Some(parse_spec_field::<u64>(key, value, lineno)?),
                other => return Err(format!("line {lineno}: unknown key {other:?}")),
            }
        }
        let config = tenant
            .build(seed)
            .map_err(|e| format!("line {lineno}: {e}"))?;
        specs.push(TenantSpec { name, cidr, config });
    }
    if specs.is_empty() {
        return Err("spec provisions no subscribers".to_owned());
    }
    Ok(specs)
}

fn tenant_state_label(state: SubscriberState) -> &'static str {
    match state {
        SubscriberState::Dormant => "dormant",
        SubscriberState::Parked => "parked",
        SubscriberState::Active => "active",
    }
}

/// Prints the per-tenant columns appended to interval reports and to the
/// end-of-run summary.
fn print_tenant_table(table: &SubscriberTable<BitmapFilter>) {
    println!(
        "    {:<16} {:<18} {:>8} {:>9} {:>9} {:>8} {:>9}",
        "subscriber", "prefix", "state", "out", "in", "dropped", "mem KiB"
    );
    for id in 0..table.len() {
        let name = table.subscriber_name(id).unwrap_or("?");
        let prefix = table
            .subscriber_cidr(id)
            .map(|c| c.to_string())
            .unwrap_or_default();
        let state = table
            .subscriber_state(id)
            .map(tenant_state_label)
            .unwrap_or("?");
        let stats = table.subscriber_stats(id).unwrap_or_default();
        let mem = table.subscriber_memory_bytes(id).unwrap_or(0);
        println!(
            "    {:<16} {:<18} {:>8} {:>9} {:>9} {:>8} {:>9}",
            name,
            prefix,
            state,
            stats.outbound_packets,
            stats.inbound_packets,
            stats.dropped,
            mem / 1024
        );
    }
}

/// Retries a *periodic* checkpoint write with bounded exponential
/// backoff (3 attempts, 50 ms then 200 ms between them), counting every
/// retry in `upbound_cli_checkpoint_retries_total`. Returns the last
/// error when all attempts failed; the caller then degrades to
/// "checkpointing disabled" instead of aborting the replay. Final and
/// shutdown checkpoints do not pass through here — their failures stay
/// fatal (exit 1), because exiting without durable state is the one
/// thing a crash-safe deployment must never do silently.
fn checkpoint_with_backoff(
    registry: &Registry,
    mut attempt: impl FnMut() -> Result<(), String>,
) -> Result<(), String> {
    const ATTEMPTS: u32 = 3;
    let mut delay = Duration::from_millis(50);
    for remaining in (0..ATTEMPTS).rev() {
        match attempt() {
            Ok(()) => return Ok(()),
            Err(e) if remaining == 0 => return Err(e),
            Err(e) => {
                registry
                    .counter(
                        "upbound_cli_checkpoint_retries_total",
                        "Periodic checkpoint writes retried after a transient failure",
                    )
                    .inc();
                eprintln!(
                    "checkpoint write failed ({e}); retrying in {} ms",
                    delay.as_millis()
                );
                std::thread::sleep(delay);
                delay *= 4;
            }
        }
    }
    unreachable!("the final attempt returns above")
}

/// Records that periodic checkpointing has been disabled for the rest
/// of the run (gauge + stderr); the replay itself continues.
fn checkpointing_disabled(registry: &Registry, path: &str, error: &str) {
    registry
        .gauge(
            "upbound_cli_checkpointing_disabled",
            "1 when periodic checkpointing was disabled after repeated write failures",
        )
        .set(1.0);
    eprintln!(
        "{path}: periodic checkpoint failed after retries ({error}); \
         periodic checkpointing disabled for the rest of the run \
         (the final checkpoint will still be attempted)"
    );
}

/// What `upbound filter` does differently for one `--inside` network (a
/// [`Bank`] of shards) and for a `--subscribers` table ([`Tenants`]).
/// Everything else — reading, the dataplane core, `--out`, checkpoints,
/// reports and the summary — is [`run_filter`].
trait FilterKind {
    type Filter: PacketFilter;

    /// What a restored checkpoint brings back, for the restore message.
    const RESTORED: &'static str;
    /// What starts cold when the checkpoint is stale.
    const COLD: &'static str;

    /// The filter the dataplane core decides through.
    fn filter(&mut self) -> &mut Self::Filter;

    /// The packet's accounting direction.
    fn direction_of(&self, packet: &Packet) -> Direction;

    /// Restores the checkpoint at `path`, judging staleness at `now`.
    fn restore(&mut self, path: &str, now: Timestamp) -> Result<RestoreOutcome, String>;

    /// Writes a checkpoint of the state at `now` to `path`.
    fn checkpoint(&mut self, path: &str, now: Timestamp) -> Result<(), String>;

    /// The tail of the final-checkpoint message.
    fn checkpoint_note(&self) -> String;

    /// Brings timers up to `now`: after every `--batch-size` decided
    /// packets, and before every checkpoint, report and the summary.
    fn advance(&mut self, _now: Timestamp) {}

    /// Refreshes registry-backed state before a metrics snapshot.
    fn publish(&mut self) {}

    /// Prints the kind's own lines after an interval report, or after
    /// the summary when `summary` is set.
    fn print_tables(&self, _summary: bool) {}
}

/// One `--inside` network through a shard bank sharing one uplink
/// monitor (global P_d).
struct Bank {
    filter: ShardedFilter<BitmapFilter<TelemetryObserver>>,
    inside: Cidr,
    expiry: TimeDelta,
}

impl Bank {
    fn setup(
        args: &Args,
        flags: &FilterFlags,
        registry: &Registry,
        flight: &FlightRecorder,
    ) -> Result<Self, CliError> {
        let inside = inside_of(args).map_err(usage)?;
        let config = flags.config()?;
        println!(
            "bitmap filter: {{{} x 2^{}}} = {} KiB, T_e = {:.0} s, m = {}{}{}{}",
            config.vectors(),
            config.vector_bits(),
            config.memory_bytes() / 1024,
            config.expiry_timer().as_secs_f64(),
            config.hash_functions(),
            if flags.shards > 1 {
                format!(", {} shards", flags.shards)
            } else {
                String::new()
            },
            if flags.fail_mode == FailMode::Open {
                ", fail-open"
            } else {
                ""
            },
            if flags.overload.enabled() {
                ", overload ladder armed"
            } else {
                ""
            }
        );
        // The shards publish into the same registry — `counter()` is
        // get-or-create, so the per-shard observers merge into one set
        // of metrics.
        let uplink = Arc::new(config.uplink_monitor());
        let shard_filters = (0..flags.shards)
            .map(|_| {
                BitmapFilter::with_observer(
                    config.clone(),
                    TelemetryObserver::with_default_journal(registry, "core")
                        .with_flight_recorder(flight.clone()),
                )
                .with_shared_uplink(Arc::clone(&uplink))
                .with_overload_policy(flags.overload.clone())
            })
            .collect();
        Ok(Self {
            filter: ShardedFilter::from_shards(
                FlowHash::new(config.hole_punching()),
                uplink,
                shard_filters,
            ),
            inside,
            expiry: config.expiry_timer(),
        })
    }
}

impl FilterKind for Bank {
    type Filter = ShardedFilter<BitmapFilter<TelemetryObserver>>;

    const RESTORED: &'static str = "filter state";
    const COLD: &'static str = "bitmap starts cold";

    fn filter(&mut self) -> &mut Self::Filter {
        &mut self.filter
    }

    fn direction_of(&self, packet: &Packet) -> Direction {
        self.inside.direction_of(&packet.tuple())
    }

    fn restore(&mut self, path: &str, now: Timestamp) -> Result<RestoreOutcome, String> {
        self.filter
            .restore_from(Path::new(path), now, self.expiry)
            .map_err(|e| e.to_string())
    }

    fn checkpoint(&mut self, path: &str, now: Timestamp) -> Result<(), String> {
        self.filter
            .checkpoint_to(Path::new(path), now)
            .map_err(|e| e.to_string())
    }

    fn checkpoint_note(&self) -> String {
        " total".to_owned()
    }
}

/// A `--subscribers` table: tenants classified by longest prefix match,
/// materialized lazily on first packet and (with `--evict-idle`)
/// recycling their bit storage through a shared arena while idle.
struct Tenants {
    table: SubscriberTable<BitmapFilter>,
    classifier: SubscriberClassifier,
    telemetry: SubscriberTelemetry,
    stale_after: TimeDelta,
}

impl Tenants {
    fn setup(
        args: &Args,
        spec_path: &str,
        flags: &FilterFlags,
        registry: &Registry,
    ) -> Result<Self, CliError> {
        let defaults = &flags.bitmap;
        let spec_text =
            std::fs::read_to_string(spec_path).map_err(|e| runtime(format!("{spec_path}: {e}")))?;
        let specs = parse_subscriber_spec(&spec_text, defaults)
            .map_err(|e| usage(format!("--subscribers {spec_path}: {e}")))?;

        let mut table = SubscriberTable::new();
        let mut stale_after = TimeDelta::ZERO;
        for spec in &specs {
            stale_after = stale_after.max(spec.config.expiry_timer());
            table
                .add_named_subscriber(&spec.name, spec.cidr, spec.config.clone())
                .map_err(|e| usage(format!("--subscribers {spec_path}: {}: {e}", spec.cidr)))?;
        }
        if args.has("evict-idle") {
            let secs: f64 = args.parse_num("evict-idle", 0.0).map_err(usage)?;
            if secs < 0.0 || !secs.is_finite() {
                return Err(usage(format!(
                    "--evict-idle expects a non-negative number of seconds, got {secs}"
                )));
            }
            table.evict_idle_after(TimeDelta::from_secs(secs));
        }
        println!(
            "subscriber table: {} provisioned, defaults {{{} x 2^{}}}, T_e = {:.0} s default{}",
            table.len(),
            defaults.vectors,
            defaults.vector_bits,
            defaults.rotate_secs * defaults.vectors as f64,
            if args.has("evict-idle") {
                ", idle eviction on"
            } else {
                ""
            }
        );
        Ok(Self {
            classifier: table.classifier(),
            table,
            telemetry: SubscriberTelemetry::new(registry.clone()),
            stale_after,
        })
    }
}

impl FilterKind for Tenants {
    type Filter = SubscriberTable<BitmapFilter>;

    const RESTORED: &'static str = "subscriber table";
    const COLD: &'static str = "tenants start cold";

    fn filter(&mut self) -> &mut Self::Filter {
        &mut self.table
    }

    fn direction_of(&self, packet: &Packet) -> Direction {
        self.classifier.direction_of(packet)
    }

    fn restore(&mut self, path: &str, now: Timestamp) -> Result<RestoreOutcome, String> {
        let bytes = snapshot::read_file(Path::new(path)).map_err(|e| e.to_string())?;
        self.table
            .restore_bytes(&bytes, now, self.stale_after)
            .map_err(|e| e.to_string())
    }

    fn checkpoint(&mut self, path: &str, now: Timestamp) -> Result<(), String> {
        snapshot::write_atomic(Path::new(path), &self.table.snapshot_bytes(now))
            .map_err(|e| e.to_string())
    }

    fn checkpoint_note(&self) -> String {
        format!(
            ", {} tenant(s) serialized",
            self.table.last_checkpoint_tenants()
        )
    }

    fn advance(&mut self, now: Timestamp) {
        self.table.advance(now);
    }

    fn publish(&mut self) {
        self.telemetry.publish(&self.table);
    }

    fn print_tables(&self, summary: bool) {
        let table = &self.table;
        if summary {
            let (reuses, fresh) = table.arena_counters();
            println!(
                "subscribers: {} active / {} provisioned; {} B resident, {} B pooled \
                 (arena: {} reuse(s), {} fresh); {} outbound drop anomaly(ies)",
                table.active_subscribers(),
                table.len(),
                table.memory_bytes(),
                table.arena_pooled_bytes(),
                reuses,
                fresh,
                table.outbound_drop_anomalies()
            );
        }
        print_tenant_table(table);
    }
}

/// Observability flags of `upbound filter`, parsed up front.
struct ObservabilityFlags {
    metrics: Option<(String, MetricsFormat)>,
    metrics_interval: f64,
    metrics_addr: Option<String>,
    flight_dump: Option<String>,
    trace_latency: bool,
    serve_grace: f64,
}

impl ObservabilityFlags {
    fn parse(args: &Args) -> Result<Self, CliError> {
        let metrics = metrics_sink(args).map_err(usage)?;
        let metrics_interval: f64 = args.parse_num("metrics-interval", 0.0).map_err(usage)?;
        if metrics_interval < 0.0 || !metrics_interval.is_finite() {
            return Err(usage(format!(
                "--metrics-interval expects a non-negative number of seconds, got {metrics_interval}"
            )));
        }
        let metrics_addr = match args.get("metrics-addr") {
            None if args.has("metrics-addr") => {
                return Err(usage("--metrics-addr expects <HOST:PORT>"));
            }
            other => other.map(str::to_owned),
        };
        let flight_dump = match args.get("flight-dump") {
            None if args.has("flight-dump") => {
                return Err(usage("--flight-dump requires a file path"));
            }
            other => other.map(str::to_owned),
        };
        let serve_grace: f64 = args.parse_num("serve-grace", 0.0).map_err(usage)?;
        if serve_grace < 0.0 || !serve_grace.is_finite() {
            return Err(usage(format!(
                "--serve-grace expects a non-negative number of seconds, got {serve_grace}"
            )));
        }
        if serve_grace > 0.0 && metrics_addr.is_none() {
            return Err(usage("--serve-grace requires --metrics-addr <HOST:PORT>"));
        }
        Ok(Self {
            metrics,
            metrics_interval,
            metrics_addr,
            flight_dump,
            trace_latency: args.has("trace-latency"),
            serve_grace,
        })
    }
}

/// Flags `filter --subscribers` cannot honor.
const NOT_WITH_SUBSCRIBERS: [&str; 8] = [
    "inside",
    "shards",
    "metrics-addr",
    "flight-dump",
    "trace-latency",
    "serve-grace",
    "overload-policy",
    "fault-plan",
];

/// `upbound filter` — replay a pcap through one `--inside` network's
/// filter or, with `--subscribers <SPEC>`, a multi-tenant
/// [`SubscriberTable`]; both run the same loop ([`run_filter`]).
fn cmd_filter(args: &Args) -> Result<Outcome, CliError> {
    let spec_path = match args.get("subscribers") {
        None if args.has("subscribers") => {
            return Err(usage("--subscribers requires a spec file path"));
        }
        other => other,
    };
    if spec_path.is_some() {
        if let Some(flag) = NOT_WITH_SUBSCRIBERS.iter().find(|f| args.has(f)) {
            return Err(usage(format!(
                "--{flag} cannot be combined with --subscribers"
            )));
        }
    } else if args.has("evict-idle") {
        return Err(usage("--evict-idle requires --subscribers <SPEC>"));
    }
    let in_path = args
        .get("in")
        .ok_or_else(|| usage("filter requires --in <FILE>"))?;
    let flags = FilterFlags::parse(args)?;
    if spec_path.is_some() && flags.fail_mode == FailMode::Open {
        return Err(usage(
            "--fail-mode open cannot be combined with --subscribers \
             (idle tenants park only when their bitmaps are provably empty)",
        ));
    }
    let obs = ObservabilityFlags::parse(args)?;

    let registry = Registry::new();
    registry.build_info(
        env!("CARGO_PKG_VERSION"),
        option_env!("UPBOUND_GIT_DESCRIBE"),
    );
    // The black box rides along on every run (it is just a pair of ring
    // buffers); only --flight-dump gives it somewhere to land. Dumps
    // fire on panic, on SIGUSR1, and — fail-open deployments' scariest
    // moment — when a degraded filter arms.
    let flight = FlightRecorder::default();
    flight.attach_registry(registry.clone());
    flight.set_meta("input", in_path);
    flight.set_meta("shards", &flags.shards.to_string());
    flight.set_meta("fail_mode", fail_mode_label(flags.fail_mode));
    flight.set_dump_on_armed(true);
    if let Some(path) = &obs.flight_dump {
        flight.set_dump_path(path);
        let hook_flight = flight.clone();
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let _ = hook_flight.dump_now(DumpTrigger::Panic);
            previous(info);
        }));
    }
    match spec_path {
        Some(spec_path) => {
            let mut tenants = Tenants::setup(args, spec_path, &flags, &registry)?;
            run_filter(
                args,
                in_path,
                &flags,
                &obs,
                &registry,
                &flight,
                &mut tenants,
            )
        }
        None => {
            let mut bank = Bank::setup(args, &flags, &registry, &flight)?;
            run_filter(args, in_path, &flags, &obs, &registry, &flight, &mut bank)
        }
    }
}

fn fail_mode_label(mode: FailMode) -> &'static str {
    if mode == FailMode::Open {
        "open"
    } else {
        "closed"
    }
}

/// The `upbound filter` replay loop, shared by both filter kinds.
///
/// Packets are read from the capture (or from the fault plan's
/// distorted copy of it), classified by the kind, and offered to the
/// dataplane core, which blocks connections, decides each packet and
/// hands it back for `--out` before the next is read. So boundaries that
/// read or write filter state (checkpoints, metrics reports, shutdown)
/// observe exactly the packets before them.
fn run_filter<K: FilterKind>(
    args: &Args,
    in_path: &str,
    flags: &FilterFlags,
    obs: &ObservabilityFlags,
    registry: &Registry,
    flight: &FlightRecorder,
    kind: &mut K,
) -> Result<Outcome, CliError> {
    let health = HealthState::new();
    health.set_fail_mode(fail_mode_label(flags.fail_mode));
    let tracer = obs.trace_latency.then(|| StageTracer::new(registry, "cli"));
    let server = match &obs.metrics_addr {
        Some(addr) => {
            let server = MetricsServer::start(addr, registry.clone(), health.clone())
                .map_err(|e| runtime(format!("--metrics-addr {addr}: {e}")))?;
            println!(
                "serving /metrics and /health on http://{}",
                server.local_addr()
            );
            Some(server)
        }
        None => None,
    };

    let ingest_metrics = IngestTelemetry::register(registry);
    let policy = recovery_policy_of(args).map_err(usage)?;
    let file = File::open(in_path).map_err(|e| runtime(format!("{in_path}: {e}")))?;
    let mut reader = PcapReader::with_policy(file, policy).map_err(|e| runtime(e.to_string()))?;
    let mut writer = out_writer(args)?;
    let keep_frames = writer.is_some();
    let blocking = if args.has("no-block") {
        Blocking::Off
    } else {
        Blocking::Permanent
    };
    let mut core = Dataplane::new(blocking, flags.batch_size, tracer.clone());
    // Passed packets go to `--out`: the captured frame verbatim, or a
    // re-encoding for the fault plan's in-memory stream.
    let mut emit = |settled: Settled<'_>| -> Result<(), CliError> {
        if let (Fate::Passed, Some(w)) = (settled.fate, writer.as_mut()) {
            let packet = settled.packet;
            match settled.frame {
                Some(frame) => w.write_frame(packet.ts(), packet.wire_len(), frame),
                None => w.write_packet(packet),
            }
            .map_err(|e| runtime(e.to_string()))?;
        }
        Ok(())
    };

    let mut distorted = match &flags.fault_plan {
        Some(plan) => Some(distorted_stream(&mut reader, plan)?.into_iter()),
        None => None,
    };
    // Checkpoint-fault injection rides the same plan; periodic writes it
    // fails go through the bounded-backoff retry path below.
    let mut ckpt_injector: Option<PlannedInjector> =
        flags.fault_plan.as_ref().map(FaultPlan::injector);
    let mut ckpt_attempts = 0u64;

    let checkpoint = flags.checkpoint.as_deref();
    let mut total = 0u64;
    let mut last_ts = Timestamp::ZERO;
    let mut outcome = Outcome::Done;
    // Restore is deferred to the first packet so staleness is judged
    // against *trace time* (the clock the filter runs on), not the wall
    // clock of the restarted process. A missing file is a normal cold
    // start, not an error.
    let mut pending_restore = checkpoint.is_some_and(|p| Path::new(p).exists());
    // Periodic checkpoints and interval reports are keyed to trace time:
    // each fires when packet timestamps cross its next boundary.
    let mut next_checkpoint = checkpoint.map(|_| flags.checkpoint_interval);
    let mut checkpoints_written = 0u64;
    let mut next_report = (obs.metrics_interval > 0.0).then_some(obs.metrics_interval);
    let mut prev_snapshot = registry.snapshot();

    loop {
        let next = {
            let _t = tracer.as_ref().map(|t| t.scope(Stage::Ingest));
            let started = obs.trace_latency.then(std::time::Instant::now);
            let next = match distorted.as_mut() {
                Some(iter) => iter.next().map(|p| (p, None)),
                None => reader
                    .read_record()
                    .map_err(|e| runtime(e.to_string()))?
                    .map(|r| (r.packet, Some(r.frame))),
            };
            if let Some(started) = started {
                ingest_metrics.record_read_latency(started.elapsed());
            }
            next
        };
        let Some((p, frame)) = next else { break };
        if signals::interrupted() {
            outcome = Outcome::Interrupted;
            break;
        }
        if signals::dump_requested() {
            dump_on_signal(flight);
        }
        total += 1;
        last_ts = last_ts.max(p.ts());
        if total.is_multiple_of(1024) {
            health.set_watermark(last_ts.as_micros());
        }
        let t = p.ts().as_secs_f64();
        if pending_restore {
            pending_restore = false;
            let path = checkpoint.unwrap_or_default();
            match kind.restore(path, p.ts()) {
                Ok(RestoreOutcome::Warm) => {
                    println!("restored warm {} from checkpoint {path}", K::RESTORED);
                }
                Ok(RestoreOutcome::Cold) => println!(
                    "checkpoint {path} is older than T_e; restored statistics, {}",
                    K::COLD
                ),
                Err(e) => {
                    return Err(runtime(format!("{path}: checkpoint restore failed: {e}")));
                }
            }
        }
        if let Some(boundary) = next_checkpoint.filter(|&b| t >= b) {
            kind.advance(last_ts);
            let path = checkpoint.unwrap_or_default();
            let wrote = checkpoint_with_backoff(registry, || {
                let index = ckpt_attempts;
                ckpt_attempts += 1;
                if let Some(err) = ckpt_injector
                    .as_mut()
                    .and_then(|inj| inj.inject_checkpoint_error(index))
                {
                    return Err(err.to_string());
                }
                kind.checkpoint(path, last_ts)
            });
            match wrote {
                Ok(()) => {
                    checkpoints_written += 1;
                    let elapsed = ((t - boundary) / flags.checkpoint_interval).floor() + 1.0;
                    next_checkpoint = Some(boundary + elapsed * flags.checkpoint_interval);
                }
                Err(e) => {
                    checkpointing_disabled(registry, path, &e);
                    next_checkpoint = None;
                }
            }
        }
        if let Some(boundary) = next_report.filter(|&b| t >= b) {
            kind.advance(last_ts);
            kind.publish();
            let snapshot = registry.snapshot();
            println!("--- metrics @ t={boundary:.1}s ---");
            print!(
                "{}",
                export::human::render(&snapshot, Some((&prev_snapshot, obs.metrics_interval)))
            );
            kind.print_tables(false);
            prev_snapshot = snapshot;
            // A single far-future timestamp (corrupt trace clock) may
            // land millions of intervals ahead; jump straight to the
            // first boundary past it instead of emitting one (empty)
            // report per skipped interval.
            let elapsed = ((t - boundary) / obs.metrics_interval).floor() + 1.0;
            next_report = Some(boundary + elapsed * obs.metrics_interval);
        }
        let direction = kind.direction_of(&p);
        let frame = frame.filter(|_| keep_frames);
        if core
            .offer(kind.filter(), &p, direction, frame, &mut emit)?
            .is_some()
        {
            kind.advance(last_ts);
        }
    }
    kind.advance(last_ts);
    if let Some(w) = writer.take() {
        w.finish().map_err(|e| runtime(e.to_string()))?;
    }
    ingest_metrics.publish(reader.stats());
    report_skips(reader.stats());

    // Checkpoint-on-shutdown: persist the final state both on normal
    // end-of-trace and on signal-initiated shutdown. Skipped when no
    // packet was processed, so an existing checkpoint is never
    // clobbered with fresh empty state.
    if let Some(path) = checkpoint.filter(|_| total > 0) {
        kind.checkpoint(path, last_ts)
            .map_err(|e| runtime(format!("{path}: final checkpoint failed: {e}")))?;
        checkpoints_written += 1;
        println!(
            "wrote final checkpoint to {path} ({checkpoints_written} checkpoint(s){})",
            kind.checkpoint_note()
        );
    }

    print_summary(&core.stats(), last_ts);
    kind.print_tables(true);
    if let Some((path, format)) = &obs.metrics {
        kind.publish();
        write_metrics(path, format, &registry.snapshot()).map_err(runtime)?;
    }

    health.set_watermark(last_ts.as_micros());
    // Keep the HTTP endpoint up through the grace window so scrapers
    // (and the CI smoke test) can read the final state of a short
    // replay; a signal ends the wait early.
    if let Some(server) = server {
        if obs.serve_grace > 0.0 && outcome == Outcome::Done {
            let deadline = std::time::Instant::now() + Duration::from_secs_f64(obs.serve_grace);
            while std::time::Instant::now() < deadline {
                if signals::interrupted() {
                    outcome = Outcome::Interrupted;
                    break;
                }
                if signals::dump_requested() {
                    dump_on_signal(flight);
                }
                std::thread::sleep(Duration::from_millis(50));
            }
        }
        server.shutdown();
    }
    if flight.dumps_written() > 0 {
        if let Some(path) = &obs.flight_dump {
            println!(
                "flight recorder wrote {} dump(s) to {path}",
                flight.dumps_written()
            );
        }
    }
    Ok(outcome)
}

/// `upbound debug <read-dump|parse-metrics> <FILE>` — operator tooling
/// over the observability artifacts.
fn cmd_debug(rest: &[String]) -> Result<(), CliError> {
    let (sub, path) = match rest {
        [sub, path] => (sub.as_str(), path.as_str()),
        _ => {
            return Err(usage(
                "debug expects `read-dump <FILE>` or `parse-metrics <FILE>`",
            ))
        }
    };
    if !matches!(sub, "read-dump" | "parse-metrics") {
        return Err(usage(format!(
            "unknown debug subcommand {sub:?} (expected read-dump or parse-metrics)"
        )));
    }
    let text = std::fs::read_to_string(path).map_err(|e| runtime(format!("{path}: {e}")))?;
    match sub {
        "read-dump" => {
            let dump = FlightRecorder::parse(&text)
                .map_err(|e| runtime(format!("{path}: invalid dump: {e}")))?;
            println!("flight-recorder dump: {path}");
            println!("trigger: {}", dump.trigger.label());
            if !dump.meta.is_empty() {
                println!("\nmetadata:");
                for (k, v) in &dump.meta {
                    println!("  {k} = {v}");
                }
            }
            if !dump.shards.is_empty() {
                println!("\nshards:");
                for s in &dump.shards {
                    println!(
                        "  shard {:<3} {} panics={} restarts={}",
                        s.shard,
                        if s.quarantined {
                            "QUARANTINED"
                        } else {
                            "healthy"
                        },
                        s.panics,
                        s.restarts
                    );
                }
            }
            println!(
                "\nevents: {} retained of {} recorded ({} overwritten)",
                dump.events.len(),
                dump.events_total,
                dump.events_total - dump.events.len() as u64
            );
            for e in &dump.events {
                println!("  {e}");
            }
            println!(
                "\ndrop forensics: {} retained of {} recorded",
                dump.forensics.len(),
                dump.forensics_total
            );
            for f in &dump.forensics {
                println!("  {}", f.describe());
            }
            match &dump.metrics {
                Some(snapshot) => {
                    println!("\nmetrics at dump time:");
                    print!("{}", export::human::render(snapshot, None));
                }
                None => println!("\n(no metrics snapshot embedded)"),
            }
            Ok(())
        }
        "parse-metrics" => {
            let snapshot = export::prometheus::parse(&text)
                .map_err(|e| runtime(format!("{path}: invalid Prometheus exposition: {e}")))?;
            println!(
                "{path}: valid Prometheus exposition ({} metric(s))",
                snapshot.samples.len()
            );
            Ok(())
        }
        _ => unreachable!("subcommand validated above"),
    }
}

/// Parses a `POST /config` body into [`RuntimeOverrides`]. The format
/// mirrors the CLI flags: `key=value` pairs separated by newlines or
/// `&` (commas stay available to `overload-policy` specs). Keys:
/// `low-mbps` + `high-mbps` (both together swap the P_d curve),
/// `fail-mode`, `batch-size`, `overload-policy`.
fn parse_overrides(body: &str) -> Result<RuntimeOverrides, String> {
    let mut overrides = RuntimeOverrides::default();
    let mut low: Option<f64> = None;
    let mut high: Option<f64> = None;
    for token in body.split(['\n', '&']) {
        let token = token.trim();
        if token.is_empty() {
            continue;
        }
        let Some((key, value)) = token.split_once('=') else {
            return Err(format!("expected key=value, got {token:?}"));
        };
        let (key, value) = (key.trim(), value.trim());
        match key {
            "low-mbps" => {
                low = Some(
                    value
                        .parse()
                        .map_err(|_| format!("low-mbps expects a number, got {value:?}"))?,
                );
            }
            "high-mbps" => {
                high = Some(
                    value
                        .parse()
                        .map_err(|_| format!("high-mbps expects a number, got {value:?}"))?,
                );
            }
            "fail-mode" => {
                overrides.fail_mode = Some(FailMode::parse(value).ok_or_else(|| {
                    format!("fail-mode expects `open` or `closed`, got {value:?}")
                })?);
            }
            "batch-size" => {
                let n: usize = value
                    .parse()
                    .map_err(|_| format!("batch-size expects a number, got {value:?}"))?;
                if n == 0 {
                    return Err("batch-size expects at least 1".to_owned());
                }
                overrides.batch_size = Some(n);
            }
            "overload-policy" => {
                overrides.overload = Some(
                    OverloadPolicy::parse(value).map_err(|e| format!("overload-policy: {e}"))?,
                );
            }
            other => return Err(format!("unknown override key {other:?}")),
        }
    }
    match (low, high) {
        (None, None) => {}
        (Some(l), Some(h)) => {
            overrides.drop_policy =
                Some(DropPolicy::new(l * 1e6, h * 1e6).map_err(|e| e.to_string())?);
        }
        _ => return Err("low-mbps and high-mbps must be staged together".to_owned()),
    }
    if overrides.is_empty() {
        return Err(
            "no overrides in body (keys: low-mbps, high-mbps, fail-mode, batch-size, \
             overload-policy)"
                .to_owned(),
        );
    }
    Ok(overrides)
}

/// `upbound serve` — the long-lived dataplane: one [`PacketSource`]
/// (pcap replay, optionally looped, or AF_PACKET live capture) feeding
/// [`PipelineRunner::serve`], with the control plane (`POST /config`,
/// `POST /drain`) riding on the metrics listener. It decides through
/// the same dataplane core as `filter`, connection blocking included.
fn cmd_serve(args: &Args) -> Result<Outcome, CliError> {
    let in_path = match args.get("in") {
        None if args.has("in") => return Err(usage("--in requires a file path")),
        other => other.map(str::to_owned),
    };
    let live_iface = match args.get("live") {
        None if args.has("live") => return Err(usage("--live requires an interface name")),
        other => other.map(str::to_owned),
    };
    match (&in_path, &live_iface) {
        (Some(_), Some(_)) => {
            return Err(usage(
                "serve takes either --in <FILE> or --live <IFACE>, not both",
            ))
        }
        (None, None) => return Err(usage("serve requires --in <FILE> or --live <IFACE>")),
        _ => {}
    }
    if args.has("loop") && in_path.is_none() {
        return Err(usage(
            "--loop requires --in <FILE> (a live capture never ends)",
        ));
    }
    if args.has("on-corrupt") && in_path.is_none() {
        return Err(usage(
            "--on-corrupt applies to pcap replay; it requires --in <FILE>",
        ));
    }
    if args.has("fault-plan") && live_iface.is_some() {
        return Err(usage(
            "--fault-plan is replay-only: faults are injected by distorting the \
             buffered stream, which is impossible on a live interface — drop \
             --live or drop --fault-plan",
        ));
    }
    let listen = match args.get("listen") {
        None if args.has("listen") => return Err(usage("--listen expects <HOST:PORT>")),
        other => other.map(str::to_owned),
    };
    let inside = inside_of(args).map_err(usage)?;
    let flags = FilterFlags::parse(args)?;
    if flags
        .fault_plan
        .as_ref()
        .is_some_and(|p| p.ckpt_errors() > 0)
    {
        return Err(usage(
            "--fault-plan ckpt=N needs a faulting checkpoint sink; serve writes \
             checkpoints directly",
        ));
    }

    let mut runner = PipelineRunner::new(inside, flags.config()?)
        .shards(flags.shards)
        .overload_policy(flags.overload.clone())
        .pipeline_config(PipelineConfig {
            batch_size: flags.batch_size,
            ..PipelineConfig::default()
        });
    if let Some(path) = &flags.checkpoint {
        runner = runner.checkpoint(path, TimeDelta::from_secs(flags.checkpoint_interval));
    }

    let registry = Registry::new();
    registry.build_info(
        env!("CARGO_PKG_VERSION"),
        option_env!("UPBOUND_GIT_DESCRIBE"),
    );
    let health = HealthState::new();
    health.set_fail_mode(fail_mode_label(flags.fail_mode));
    let control = ServeControl::new().with_telemetry(&registry);

    let server = match &listen {
        Some(addr) => {
            let handler_control = control.clone();
            let handler: ControlHandler = Arc::new(move |path: &str, body: &str| match path {
                "/config" => match parse_overrides(body) {
                    Ok(overrides) => {
                        let generation = handler_control.stage(overrides);
                        ControlResponse::ok(format!(
                            "{{\"staged\":true,\"generation\":{generation}}}"
                        ))
                    }
                    Err(e) => ControlResponse::bad_request(format!("{{\"error\":{e:?}}}")),
                },
                "/drain" => {
                    handler_control.request_drain();
                    ControlResponse {
                        status: 202,
                        body: "{\"draining\":true}".to_owned(),
                    }
                }
                other => ControlResponse::not_found(format!(
                    "{{\"error\":\"unknown control endpoint {other} (try /config or /drain)\"}}"
                )),
            });
            let server =
                MetricsServer::start_with_control(addr, registry.clone(), health.clone(), handler)
                    .map_err(|e| runtime(format!("--listen {addr}: {e}")))?;
            println!("control plane listening on http://{}", server.local_addr());
            Some(server)
        }
        None => {
            println!("no control plane (--listen not set); drain with SIGINT/SIGTERM");
            None
        }
    };

    // serve() owns the calling thread, so a sidecar thread translates
    // the SIGINT/SIGTERM latch into a drain request.
    let watcher_control = control.clone();
    let done = Arc::new(AtomicBool::new(false));
    let watcher_done = Arc::clone(&done);
    let watcher = std::thread::spawn(move || {
        while !watcher_done.load(Ordering::Relaxed) {
            if signals::interrupted() {
                watcher_control.request_drain();
            }
            std::thread::sleep(Duration::from_millis(25));
        }
    });

    let served = if let Some(iface) = &live_iface {
        let mut source = LiveSource::open(LiveConfig::new(iface.clone(), inside)).map_err(|e| {
            match e {
                // Actionable setup problems read as usage errors, per
                // the LiveCaptureError contract.
                LiveCaptureError::Unsupported { .. }
                | LiveCaptureError::NoSuchInterface { .. }
                | LiveCaptureError::PermissionDenied { .. } => usage(e.to_string()),
                other => runtime(other.to_string()),
            }
        });
        match source {
            Ok(ref mut source) => {
                println!("serving live capture on {}", source.interface());
                runner
                    .serve(source, &control)
                    .map_err(|e| runtime(e.to_string()))
            }
            Err(e) => Err(e),
        }
    } else {
        let in_path = in_path.as_deref().unwrap_or_default();
        let policy = recovery_policy_of(args).map_err(usage)?;
        let looped = args.has("loop");
        let open = File::open(in_path).map_err(|e| runtime(format!("{in_path}: {e}")));
        let buffered = open.and_then(|file| {
            let mut reader =
                PcapReader::with_policy(file, policy).map_err(|e| runtime(e.to_string()))?;
            if let Some(plan) = &flags.fault_plan {
                let distorted = distorted_stream(&mut reader, plan)?;
                report_skips(reader.stats());
                Ok(BufferedSource::labeled(distorted, inside))
            } else {
                let mut pcap = upbound::net::PcapSource::new(reader, inside);
                BufferedSource::drain(&mut pcap).map_err(|e| runtime(e.to_string()))
            }
        });
        buffered.and_then(|buffered| {
            let mut source = buffered.looped(looped);
            println!(
                "serving {} buffered packet(s){}",
                source.len(),
                if looped { ", looped" } else { "" }
            );
            runner
                .serve(&mut source, &control)
                .map_err(|e| runtime(e.to_string()))
        })
    };
    done.store(true, Ordering::Relaxed);
    let _ = watcher.join();
    let report = served?;

    health.set_watermark(report.watermark.as_micros());
    report_skips(&report.ingest);
    print_summary(&report.dataplane, report.watermark);
    println!(
        "serve finished ({}): {} packet(s), {} passed, {} dropped, {} reconfig(s) applied, \
         {} checkpoint(s) written",
        match report.exit {
            ServeExit::SourceEnded => "source ended",
            ServeExit::Drained => "drained",
        },
        report.dataplane.packets,
        report.dataplane.passed(),
        report.dataplane.dropped,
        report.reconfigs_applied,
        report.checkpoints_written,
    );
    if let Some(server) = server {
        server.shutdown();
    }
    if signals::interrupted() {
        Ok(Outcome::Interrupted)
    } else {
        Ok(Outcome::Done)
    }
}

fn cmd_params(args: &Args) -> Result<Outcome, CliError> {
    let c: f64 = args.parse_num("connections", 15_000.0).map_err(usage)?;
    println!("capacity planning for ~{c:.0} active connections per expiry window\n");
    println!(
        "{:>4} {:>10} {:>8} {:>14} {:>14}",
        "n", "memory", "m*", "penetration", "cap @5%"
    );
    for n in [16u32, 18, 20, 22, 24] {
        let size = 1usize << n;
        let m = (optimal_hash_count(c, size).round() as usize).clamp(1, 8);
        println!(
            "{:>4} {:>7}KiB {:>8} {:>14.6} {:>13.0}K",
            n,
            4 * size / 8 / 1024,
            m,
            penetration_probability(c, size, m),
            max_connections(0.05, size) / 1000.0
        );
    }
    Ok(Outcome::Done)
}
