//! End-to-end benchmark of `upbound filter`.
//!
//! Run from the repository root:
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload campus --seed 1 --seconds 20 --trace 0
//! ```
//!
//! It builds the release `upbound` binary, generates the workload's
//! capture from `--seed`, and replays it through one `upbound filter`
//! child at a time for `--seconds` (closed loop), checking every rep's
//! output. `--trace 1` instead replays the workload in-process through
//! each layer's public function and reports the per-layer split. The
//! last line of standard output is one JSON object; see README.md.

mod check;
mod child;
mod layers;
mod stats;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

use check::{check, parse_summary, Quality};
use child::Spawner;
use stats::median;
use workload::{header_only, Workload, NAMES};

/// Captures per run: part `j` of seed `s` is generated from seed
/// `s * PARTS + j`. The quality metrics pool all of them.
const PARTS: u64 = 6;
/// Timed filter children per run, at least.
const MIN_REPS: u64 = 3;
/// Set-up children before the first timed filter child, and after each.
const SETUP_FIRST: usize = 15;
const SETUP_PER_REP: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut values: BTreeMap<&str, &str> = BTreeMap::new();
    let mut i = 0;
    while i < argv.len() {
        let key = argv[i]
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {:?}", argv[i]))?;
        let value = argv
            .get(i + 1)
            .ok_or_else(|| format!("--{key} needs a value"))?;
        match key {
            "workload" | "seed" | "seconds" | "trace" => {
                values.insert(key, value);
            }
            _ => return Err(format!("unknown flag --{key}")),
        }
        i += 2;
    }
    let get = |k: &str| values.get(k).copied().ok_or(format!("--{k} is required"));
    let workload = get("workload")?.to_owned();
    if !NAMES.contains(&workload.as_str()) {
        return Err(format!("--workload must be one of {NAMES:?}"));
    }
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|_| "--seconds expects a number".to_owned())?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_owned());
    }
    Ok(Args {
        workload,
        seed: get("seed")?
            .parse()
            .map_err(|_| "--seed expects a whole number".to_owned())?,
        seconds,
        trace: match get("trace")? {
            "0" => false,
            "1" => true,
            _ => return Err("--trace expects 0 or 1".to_owned()),
        },
    })
}

/// One end-to-end or per-layer metric of the result line.
pub struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Builds the release `upbound` binary in `root` and returns its path.
fn build_upbound(root: &Path) -> Result<PathBuf, String> {
    for required in ["Cargo.toml", "src/bin/upbound.rs", "crates"] {
        if !root.join(required).exists() {
            return Err(format!(
                "{} is missing: run the benchmark from the root of an upbound checkout",
                root.join(required).display()
            ));
        }
    }
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_owned());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--bin",
            "upbound",
        ])
        .current_dir(root)
        .status()
        .map_err(|e| format!("cargo build: {e}"))?;
    if !status.success() {
        return Err(format!("cargo build of upbound failed: {status}"));
    }
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"));
    let target = if target.is_absolute() {
        target
    } else {
        root.join(target)
    };
    let bin = target.join("release").join("upbound");
    if !bin.exists() {
        return Err(format!("{} was not built", bin.display()));
    }
    Ok(bin)
}

/// A scratch directory inside the checkout, removed on drop.
pub struct WorkDir(PathBuf);

impl WorkDir {
    fn create(root: &Path, name: &str) -> Result<Self, String> {
        let dir = root
            .join("perfbench")
            .join("work")
            .join(format!("{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Self(dir))
    }

    /// The directory itself.
    pub fn dir(&self) -> &Path {
        &self.0
    }

    /// A file in the directory.
    pub fn path(&self, file: &str) -> PathBuf {
        self.0.join(file)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The CLI arguments of one `upbound filter` run of `w` on `input`.
pub fn filter_args(w: &Workload, dir: &WorkDir, input: &str) -> Vec<String> {
    let mut args = vec![
        "filter".to_owned(),
        "--in".to_owned(),
        dir.path(input).display().to_string(),
        "--out".to_owned(),
        dir.path("out.pcap").display().to_string(),
    ];
    if !w.tenants.is_empty() {
        args.push("--subscribers".to_owned());
        args.push(dir.path("tenants.spec").display().to_string());
    }
    args.extend(w.flags());
    args
}

/// Runs one filter child and returns it with its `--out` and summary.
pub fn filter_rep(
    spawner: &mut Spawner,
    bin: &Path,
    args: &[String],
    dir: &WorkDir,
) -> Result<(child::ChildRun, Vec<u8>, check::Summary), String> {
    // A fresh file each rep: truncating the previous rep's `--out` would
    // make the child wait on that file's writeback.
    let out_path = dir.path("out.pcap");
    match std::fs::remove_file(&out_path) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
            return Err(format!("{}: {e}", out_path.display()))
        }
        _ => {}
    }
    let run = spawner.run(bin, args)?;
    let out = std::fs::read(&out_path).map_err(|e| format!("--out: {e}"))?;
    let summary = parse_summary(&run.stdout)?;
    Ok((run, out, summary))
}

/// One capture of a run and what its first checked rep established.
struct Part {
    seed: u64,
    file: String,
    args: Vec<String>,
    packets: usize,
    /// The workload, until a rep of it has passed the full check.
    workload: Option<Workload>,
    /// `--out` digest and summary of the rep that passed the full check.
    reference: Option<(u64, check::Summary)>,
}

impl Part {
    /// Generates part `index` of `name` for `seed` and writes its capture.
    fn generate(name: &str, seed: u64, index: u64, dir: &WorkDir) -> Result<Self, String> {
        let seed = seed.wrapping_mul(PARTS).wrapping_add(index);
        let w = Workload::generate(name, seed).ok_or_else(|| format!("unknown workload {name}"))?;
        let file = format!("capture-{index}.pcap");
        // Synced, so its writeback does not run under a timed child.
        std::fs::File::create(dir.path(&file))
            .and_then(|mut f| f.write_all(&w.capture).and_then(|()| f.sync_all()))
            .map_err(|e| format!("{file}: {e}"))?;
        if let Some(spec) = w.spec() {
            std::fs::write(dir.path("tenants.spec"), spec).map_err(|e| format!("spec: {e}"))?;
        }
        let mut w = w;
        w.capture = Vec::new();
        Ok(Self {
            seed,
            args: filter_args(&w, dir, &file),
            file,
            packets: w.packets(),
            workload: Some(w),
            reference: None,
        })
    }

    /// Checks one rep's output. The first rep that passes runs the full
    /// check against the ground truth; every later rep must reproduce its
    /// `--out` digest and summary exactly, which, the check being a
    /// function of those two, is the same check. Returns the quality the
    /// first passing rep established.
    fn check(
        &mut self,
        dir: &WorkDir,
        out: &[u8],
        summary: check::Summary,
    ) -> Result<Option<Quality>, String> {
        if let Some((digest, reference)) = &self.reference {
            let d = check::digest(out);
            if d != *digest || summary != *reference {
                return Err(format!(
                    "part seed {}: --out digest {d:016x} / summary {summary:?} differ from \
                     the first rep's {digest:016x} / {reference:?}",
                    self.seed
                ));
            }
            return Ok(None);
        }
        let w = self
            .workload
            .as_mut()
            .expect("an unchecked part keeps its workload");
        w.capture = std::fs::read(dir.path(&self.file)).map_err(|e| format!("capture: {e}"))?;
        let checked = check(w, out, &summary);
        w.capture = Vec::new();
        let checked = checked.map_err(|e| format!("part seed {}: {e}", self.seed))?;
        println!(
            "part seed {}: {} packets, mean frame {:.1} B, pass share {:.4}, \
             blocked {} connections, --out digest {:016x}",
            self.seed,
            self.packets,
            w.mean_frame_bytes(),
            checked.passed as f64 / self.packets as f64,
            summary.blocked,
            checked.digest
        );
        self.reference = Some((checked.digest, summary));
        self.workload = None;
        Ok(Some(checked.quality))
    }
}

/// Everything measured over the children of one run.
#[derive(Default)]
struct Reps {
    pps: Vec<f64>,
    cpu_ns_per_pkt: Vec<f64>,
    rss_mb: Vec<f64>,
    setup_s: Vec<f64>,
    attempted: u64,
    failed: u64,
    quality: Quality,
}

/// Runs `upbound filter` with the part's exact flags on a capture that
/// holds only the pcap header, and returns its wall time.
fn setup_rep(spawner: &mut Spawner, bin: &Path, part: &Part, dir: &WorkDir) -> Result<f64, String> {
    // `filter --in <capture> --out <file> ...`
    let mut args = part.args.clone();
    args[2] = dir.path("header-only.pcap").display().to_string();
    args[4] = dir.path("setup-out.pcap").display().to_string();
    let run = spawner.run(bin, &args)?;
    let summary = parse_summary(&run.stdout)?;
    if summary.total != 0 {
        return Err(format!(
            "header-only capture read {} packets",
            summary.total
        ));
    }
    Ok(run.wall_s)
}

/// The end-to-end run. First, untimed, each of the `PARTS` captures is
/// generated, written and synced, and replayed once under the full
/// check. Then, for `seconds`, filter children go round-robin over the
/// captures, with set-up children interleaved; only these are timed, so
/// no timed child shares the machine with generation or writeback.
fn end_to_end(
    spawner: &mut Spawner,
    bin: &Path,
    name: &str,
    seed: u64,
    dir: &WorkDir,
    seconds: f64,
) -> Result<Reps, String> {
    std::fs::write(dir.path("header-only.pcap"), header_only())
        .map_err(|e| format!("header-only capture: {e}"))?;
    let mut reps = Reps::default();
    let mut parts: Vec<Part> = Vec::new();
    for index in 0..PARTS {
        let mut part = Part::generate(name, seed, index, dir)?;
        reps.attempted += 1;
        let outcome = filter_rep(spawner, bin, &part.args, dir)
            .and_then(|(_, out, summary)| part.check(dir, &out, summary));
        match outcome {
            Ok(quality) => reps.quality.add(&quality.unwrap_or_default()),
            Err(e) => {
                eprintln!("check failed: {e}");
                reps.failed += 1;
            }
        }
        parts.push(part);
    }
    for _ in 0..SETUP_FIRST {
        reps.setup_s.push(setup_rep(spawner, bin, &parts[0], dir)?);
    }
    let started = Instant::now();
    let mut timed = 0;
    while timed < MIN_REPS || started.elapsed().as_secs_f64() < seconds {
        let index = (timed % PARTS) as usize;
        timed += 1;
        let part = &mut parts[index];
        reps.attempted += 1;
        let outcome = filter_rep(spawner, bin, &part.args, dir)
            .and_then(|(run, out, summary)| part.check(dir, &out, summary).map(|_| run));
        match outcome {
            Ok(run) => {
                let packets = part.packets as f64;
                println!(
                    "rep {timed}: part {index}, wall {:.4} s, cpu {:.4} s, peak rss {} KiB",
                    run.wall_s, run.cpu_s, run.maxrss_kib
                );
                reps.pps.push(packets / run.wall_s);
                reps.cpu_ns_per_pkt.push(run.cpu_s * 1e9 / packets);
                reps.rss_mb.push(run.maxrss_kib as f64 / 1024.0);
            }
            Err(e) => {
                eprintln!("check failed: {e}");
                reps.failed += 1;
            }
        }
        for _ in 0..SETUP_PER_REP {
            reps.setup_s.push(setup_rep(spawner, bin, part, dir)?);
        }
    }
    Ok(reps)
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let _ = write!(
            s,
            "{}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            m.name,
            m.value,
            m.unit
        );
    }
    s.push_str("}}");
    s
}

/// What a run reports: `(correct, attempted, failed, metrics)`.
pub type Outcome = (bool, u64, u64, Vec<Metric>);

fn run(args: &Args) -> Result<Outcome, String> {
    // Started first, while this process is small: see `child`.
    let mut spawner = Spawner::start()?;
    let root = std::env::current_dir().map_err(|e| format!("current directory: {e}"))?;
    if !root.join("BENCHMARK.json").exists() || !root.join("perfbench").is_dir() {
        return Err("run the benchmark from the repository root".to_owned());
    }
    let bin = build_upbound(&root)?;
    let dir = WorkDir::create(&root, &args.workload)?;
    println!(
        "workload {}: seed {}, {} s, trace {}",
        args.workload, args.seed, args.seconds, args.trace
    );

    if args.trace {
        let part = Part::generate(&args.workload, args.seed, 0, &dir)?;
        let mut w = part.workload.expect("a fresh part keeps its workload");
        w.capture = std::fs::read(dir.path(&part.file)).map_err(|e| format!("capture: {e}"))?;
        println!("command: upbound {}", part.args.join(" "));
        return layers::run(&mut spawner, &bin, &w, &dir, &part.args, args.seconds);
    }

    let reps = end_to_end(
        &mut spawner,
        &bin,
        &args.workload,
        args.seed,
        &dir,
        args.seconds,
    )?;
    if reps.pps.is_empty() {
        return Err("no rep passed the output checker".to_owned());
    }
    println!(
        "{} reps over {PARTS} captures ({} failed); {} set-up runs; pps min {:.0} max {:.0}",
        reps.attempted,
        reps.failed,
        reps.setup_s.len(),
        reps.pps.iter().copied().fold(f64::INFINITY, f64::min),
        reps.pps.iter().copied().fold(0.0, f64::max)
    );
    let q = &reps.quality;
    println!(
        "quality over {PARTS} captures: {} of {} unsolicited upload bytes kept; \
         {} of {} solicited connections broken",
        q.unsolicited_bytes_kept, q.unsolicited_bytes, q.solicited_conns_broken, q.solicited_conns
    );
    let metrics = vec![
        metric("pps", median(&reps.pps), "packets/s"),
        metric("cpu_ns_per_pkt", median(&reps.cpu_ns_per_pkt), "ns/packet"),
        metric("setup_s", median(&reps.setup_s), "s"),
        metric("peak_rss_mb", median(&reps.rss_mb), "MiB"),
        metric(
            "unsolicited_upload_kept_pct",
            q.unsolicited_upload_kept_pct(),
            "%",
        ),
        metric(
            "solicited_conn_drop_ppm",
            q.solicited_conn_drop_ppm(),
            "ppm",
        ),
    ];
    Ok((reps.failed == 0, reps.attempted, reps.failed, metrics))
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some(child::SPAWNER_FLAG) {
        return match child::serve() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench spawner: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <N> --seconds <S> --trace <0|1>",
                NAMES.join("|")
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok((_, _, _, metrics)) if metrics.iter().any(|m| !m.value.is_finite()) => {
            let names: Vec<&str> = metrics
                .iter()
                .filter(|m| !m.value.is_finite())
                .map(|m| m.name)
                .collect();
            eprintln!("perfbench: no finite value for {}", names.join(", "));
            ExitCode::FAILURE
        }
        Ok((correct, attempted, failed, metrics)) => {
            for m in &metrics {
                println!("  {:<30} {:>16.4} {}", m.name, m.value, m.unit);
            }
            println!("{}", json_line(correct, attempted, failed, &metrics));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
