//! Golden digests of `upbound filter`: the filtered capture (`--out`)
//! and the summary lines for two fixed generator seeds under every
//! flag set that changes how packets reach the filter or the output.
//!
//! The digests are FNV-1a over the bytes. They were recorded before the
//! zero-copy record path (in-place pcap framing, verbatim emit, the
//! narrowed batching hazard) went in, so they pin that those changes
//! did not move a single verdict or output byte. A mismatch prints the
//! whole observed table.

use std::path::PathBuf;
use std::process::Command;

const SEEDS: [u64; 2] = [3, 11];

/// The subscriber spec used by the `subscribers` flag set: a nested
/// prefix (LPM), per-tenant RED points, and a tenant without one. The
/// generator's inside hosts all sit in `10.0.0.0/24`, so every tenant
/// sees traffic.
const SPEC: &str = "\
10.0.0.0/24 name=base low-mbps=0.2 high-mbps=1
10.0.0.64/26 name=nested low-mbps=0.1 high-mbps=0.4 seed=9
10.0.0.128/25 name=open
";

/// `(name, flags)`; `{spec}` is replaced by the spec file path.
const FLAG_SETS: [(&str, &[&str]); 7] = [
    ("plain", &[]),
    ("no-block", &["--no-block"]),
    ("shards-4", &["--shards", "4"]),
    ("batch-1", &["--batch-size", "1"]),
    (
        "red-hole-punching",
        &["--low-mbps", "0.2", "--high-mbps", "1", "--hole-punching"],
    ),
    ("subscribers", &["--subscribers", "{spec}"]),
    ("fault-plan", &["--fault-plan", "seed=5,corrupt=20"]),
];

/// `(seed, flag set, FNV-1a of --out, FNV-1a of the summary lines)`.
const GOLDEN: [(u64, &str, u64, u64); 14] = [
    (3, "plain", 0x0c3d30efb2ddcfbb, 0x6ca7d05e1ad5922b),
    (3, "no-block", 0x20affbea021479fc, 0xe87c40093f685609),
    (3, "shards-4", 0x0c3d30efb2ddcfbb, 0x6ca7d05e1ad5922b),
    (3, "batch-1", 0x0c3d30efb2ddcfbb, 0x6ca7d05e1ad5922b),
    (
        3,
        "red-hole-punching",
        0x1c9f9f5bec4cb5b3,
        0x37da427b2f3541e3,
    ),
    (3, "subscribers", 0x9d94e6c9413ff4fd, 0x19f432b2b05b8467),
    (3, "fault-plan", 0xf1acd5dcb50de4d8, 0xd119e1fee969d48a),
    (11, "plain", 0x4e27b91babd98a86, 0xe08b1889832ec5ab),
    (11, "no-block", 0x8d19072af332a0bc, 0x556d4098d85b8c1b),
    (11, "shards-4", 0x4e27b91babd98a86, 0xe08b1889832ec5ab),
    (11, "batch-1", 0x4e27b91babd98a86, 0xe08b1889832ec5ab),
    (
        11,
        "red-hole-punching",
        0x316d65af16c6a40e,
        0x437f748dc20a64e6,
    ),
    (11, "subscribers", 0x1317cb158dbeb25d, 0xa034946a56d0f70a),
    (11, "fault-plan", 0xf34f07994d1c2899, 0xa5220c4d3ae7b082),
];

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("upbound-golden-{}-{name}", std::process::id()));
    p
}

fn run(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_upbound"))
        .args(args)
        .output()
        .expect("spawn upbound binary");
    assert!(
        out.status.success(),
        "upbound {args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// The lines that state what the filter decided: packet/drop/block
/// counts, uplink before and after, the subscriber summary and
/// per-tenant table, and the fault plan's distortion report.
fn summary_lines(stdout: &str) -> String {
    stdout
        .lines()
        .filter(|l| {
            l.contains(" packets; dropped ")
                || l.starts_with("uplink: ")
                || l.starts_with("subscribers: ")
                || l.starts_with("    ")
                || l.starts_with("fault plan armed")
        })
        .map(|l| format!("{l}\n"))
        .collect()
}

#[test]
fn filter_output_and_summary_match_golden_digests() {
    let spec = tmp("spec.txt");
    std::fs::write(&spec, SPEC).expect("write spec");
    let spec_s = spec.to_str().expect("utf8 path");
    let mut observed = Vec::new();
    for seed in SEEDS {
        let trace = tmp(&format!("trace-{seed}.pcap"));
        let trace_s = trace.to_str().expect("utf8 path");
        let seed_s = seed.to_string();
        run(&[
            "generate",
            "--out",
            trace_s,
            "--duration",
            "30",
            "--rate",
            "20",
            "--seed",
            &seed_s,
        ]);
        for (name, flags) in FLAG_SETS {
            let out = tmp(&format!("out-{seed}-{name}.pcap"));
            let out_s = out.to_str().expect("utf8 path");
            let mut args = vec!["filter", "--in", trace_s, "--out", out_s];
            args.extend(
                flags
                    .iter()
                    .map(|f| if *f == "{spec}" { spec_s } else { f }),
            );
            let stdout = run(&args);
            let summary = summary_lines(&stdout);
            assert!(
                summary.contains(" packets; dropped "),
                "{name}: no summary in {stdout}"
            );
            let bytes = std::fs::read(&out).expect("read --out");
            observed.push((seed, name, fnv1a(&bytes), fnv1a(summary.as_bytes())));
            let _ = std::fs::remove_file(&out);
        }
        let _ = std::fs::remove_file(&trace);
    }
    let _ = std::fs::remove_file(&spec);
    let table: String = observed
        .iter()
        .map(|(s, n, o, l)| format!("    ({s}, {n:?}, {o:#018x}, {l:#018x}),\n"))
        .collect();
    for ((seed, name, out, lines), golden) in observed.iter().zip(GOLDEN) {
        assert_eq!(
            (*seed, *name, *out, *lines),
            golden,
            "digest mismatch; observed table:\n{table}"
        );
    }
}
