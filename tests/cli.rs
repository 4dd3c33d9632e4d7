//! Integration tests for the `upbound` command-line tool: each
//! subcommand is driven as a real process over real pcap files.

use std::path::PathBuf;
use std::process::{Command, Output};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_upbound"))
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("upbound-cli-test-{}-{name}", std::process::id()));
    p
}

fn run(args: &[&str]) -> Output {
    bin().args(args).output().expect("spawn upbound binary")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn help_prints_usage() {
    let out = run(&["help"]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("USAGE"));
    assert!(stdout(&out).contains("generate"));
}

#[test]
fn no_command_fails_with_usage() {
    let out = run(&[]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("USAGE"));
}

#[test]
fn unknown_command_fails() {
    let out = run(&["frobnicate"]);
    assert!(!out.status.success());
}

#[test]
fn generate_analyze_filter_round_trip() {
    let trace = tmp("trace.pcap");
    let filtered = tmp("filtered.pcap");
    let trace_s = trace.to_str().expect("utf8 path");
    let filtered_s = filtered.to_str().expect("utf8 path");

    // generate
    let out = run(&[
        "generate",
        "--out",
        trace_s,
        "--duration",
        "20",
        "--rate",
        "15",
        "--seed",
        "7",
    ]);
    assert!(
        out.status.success(),
        "generate: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout(&out).contains("wrote"));
    assert!(trace.exists());

    // analyze
    let out = run(&["analyze", "--in", trace_s]);
    assert!(
        out.status.success(),
        "analyze: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = stdout(&out);
    assert!(text.contains("protocol distribution"));
    assert!(text.contains("bittorrent"));
    assert!(text.contains("upload:"));

    // filter
    let out = run(&[
        "filter",
        "--in",
        trace_s,
        "--out",
        filtered_s,
        "--low-mbps",
        "1",
        "--high-mbps",
        "2",
    ]);
    assert!(
        out.status.success(),
        "filter: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = stdout(&out);
    assert!(text.contains("bitmap filter"));
    assert!(text.contains("uplink:"));
    assert!(filtered.exists());

    // The filtered pcap is a valid capture with no more packets than the
    // input.
    let original =
        upbound::net::pcap::from_bytes(&std::fs::read(&trace).expect("read")).expect("valid pcap");
    let survived = upbound::net::pcap::from_bytes(&std::fs::read(&filtered).expect("read"))
        .expect("valid pcap");
    assert!(!survived.is_empty());
    assert!(survived.len() <= original.len());

    let _ = std::fs::remove_file(&trace);
    let _ = std::fs::remove_file(&filtered);
}

#[test]
fn filter_validates_thresholds() {
    let trace = tmp("bad-thresholds.pcap");
    let trace_s = trace.to_str().expect("utf8 path");
    let out = run(&[
        "generate",
        "--out",
        trace_s,
        "--duration",
        "5",
        "--rate",
        "5",
    ]);
    assert!(out.status.success());
    // low >= high is a config error surfaced cleanly.
    let out = run(&[
        "filter",
        "--in",
        trace_s,
        "--low-mbps",
        "5",
        "--high-mbps",
        "2",
    ]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("error"));
    let _ = std::fs::remove_file(&trace);
}

#[test]
fn unknown_flags_are_rejected_per_subcommand() {
    // A typo'd flag must fail loudly, naming the flag and the command.
    let out = run(&["filter", "--in", "/tmp/x.pcap", "--metrics-intervall", "1"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(err.contains("unknown flag --metrics-intervall"), "{err}");
    assert!(err.contains("upbound filter"), "{err}");
    assert!(err.contains("--metrics-interval"), "{err}");

    // Flags valid for one subcommand are still rejected on another.
    let out = run(&["params", "--in", "/tmp/x.pcap"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag --in"));

    let out = run(&["generate", "--out", "/tmp/x.pcap", "--metrics", "m.prom"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag --metrics"));
}

#[test]
fn filter_metrics_exports_and_interval_reports() {
    let trace = tmp("metrics-trace.pcap");
    let prom = tmp("metrics.prom");
    let json = tmp("metrics.json");
    let trace_s = trace.to_str().expect("utf8 path");

    let out = run(&[
        "generate",
        "--out",
        trace_s,
        "--duration",
        "10",
        "--rate",
        "20",
        "--seed",
        "11",
    ]);
    assert!(out.status.success());

    // --metrics-interval 1 emits one snapshot per second of trace time,
    // carrying the live operating point and the filter counters.
    let out = run(&[
        "filter",
        "--in",
        trace_s,
        "--low-mbps",
        "0.1",
        "--high-mbps",
        "0.5",
        "--metrics-interval",
        "1",
        "--metrics",
        prom.to_str().expect("utf8 path"),
    ]);
    assert!(
        out.status.success(),
        "filter: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = stdout(&out);
    let reports = text.matches("--- metrics @ t=").count();
    assert!(
        reports >= 8,
        "expected ~10 interval reports, got {reports}:\n{text}"
    );
    assert!(text.contains("upbound_core_drop_probability"));
    assert!(text.contains("upbound_core_uplink_bps"));
    assert!(text.contains("upbound_core_inbound_pass_total"));
    assert!(text.contains("upbound_core_drops_unsolicited_total"));
    assert!(text.contains("upbound_core_rotations_total"));

    // The .prom file is valid Prometheus exposition text: the validating
    // parser accepts it and the counters it carries are present.
    let prom_text = std::fs::read_to_string(&prom).expect("read prom");
    let snapshot =
        upbound::telemetry::export::prometheus::parse(&prom_text).expect("valid Prometheus text");
    assert!(
        snapshot
            .counter("upbound_core_outbound_packets_total")
            .unwrap()
            > 0
    );
    assert!(snapshot.counter("upbound_core_rotations_total").unwrap() > 0);
    assert!(snapshot.gauge("upbound_core_drop_probability").is_some());

    // Same run with a .json sink parses as JSON.
    let out = run(&[
        "filter",
        "--in",
        trace_s,
        "--metrics",
        json.to_str().expect("utf8 path"),
    ]);
    assert!(out.status.success());
    let json_text = std::fs::read_to_string(&json).expect("read json");
    let value = serde_json::from_str::<serde_json::Value>(&json_text).expect("valid JSON");
    assert!(serde_json::to_string(&value)
        .expect("serialize")
        .contains("upbound_core"));

    // An unrecognized extension is rejected up front.
    let out = run(&["filter", "--in", trace_s, "--metrics", "/tmp/out.csv"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains(".prom or .json"));

    // A valueless --metrics is an error, not a silent no-op.
    let out = run(&["filter", "--in", trace_s, "--metrics"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--metrics requires a file path"));

    let _ = std::fs::remove_file(&trace);
    let _ = std::fs::remove_file(&prom);
    let _ = std::fs::remove_file(&json);
}

#[test]
fn on_corrupt_skip_recovers_truncated_capture() {
    let trace = tmp("truncated.pcap");
    let trace_s = trace.to_str().expect("utf8 path");
    let out = run(&[
        "generate",
        "--out",
        trace_s,
        "--duration",
        "10",
        "--rate",
        "10",
        "--seed",
        "3",
    ]);
    assert!(out.status.success());

    // Chop mid-record so the capture ends in a truncated body.
    let mut bytes = std::fs::read(&trace).expect("read trace");
    bytes.truncate(bytes.len() - 7);
    std::fs::write(&trace, &bytes).expect("rewrite trace");

    // Default (strict) aborts with a truncation error...
    for args in [
        vec!["filter", "--in", trace_s],
        vec!["filter", "--in", trace_s, "--on-corrupt", "strict"],
        vec!["analyze", "--in", trace_s],
    ] {
        let out = run(&args);
        assert!(!out.status.success(), "{args:?} should fail strictly");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("truncated"),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }

    // ...while --on-corrupt skip processes the decodable prefix and says
    // what it discarded.
    for cmd in ["filter", "analyze"] {
        let out = run(&[cmd, "--in", trace_s, "--on-corrupt", "skip"]);
        assert!(
            out.status.success(),
            "{cmd}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = stdout(&out);
        assert!(text.contains("skipped 1 corrupt region"), "{text}");
    }

    // Bad values are rejected up front.
    let out = run(&["filter", "--in", trace_s, "--on-corrupt", "lenient"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("`strict` or `skip`"));
    let out = run(&["filter", "--in", trace_s, "--on-corrupt"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("`strict` or `skip`"));

    let _ = std::fs::remove_file(&trace);
}

#[test]
fn analyze_missing_file_fails_cleanly() {
    let out = run(&["analyze", "--in", "/nonexistent/never.pcap"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("error"));
}

#[test]
fn params_prints_capacity_table() {
    let out = run(&["params", "--connections", "50000"]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("50000"));
    assert!(text.contains("cap @5%"));
}

#[test]
fn generate_rejects_bad_config() {
    let out = run(&["generate", "--out", "/tmp/x.pcap", "--rate", "0"]);
    assert!(!out.status.success());
}

#[test]
fn header_only_snaplen_capture_analyzes() {
    let trace = tmp("headers.pcap");
    let trace_s = trace.to_str().expect("utf8 path");
    let out = run(&[
        "generate",
        "--out",
        trace_s,
        "--duration",
        "10",
        "--rate",
        "10",
        "--snaplen",
        "54",
    ]);
    assert!(out.status.success());
    let out = run(&["analyze", "--in", trace_s]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // Payload identification is impossible on stripped traces, so most
    // P2P traffic shows as UNKNOWN — but the tool must still work.
    assert!(stdout(&out).contains("UNKNOWN"));
    let _ = std::fs::remove_file(&trace);
}

#[test]
fn filter_checkpoint_writes_and_restores_through_the_binary() {
    let trace = tmp("ckpt-trace.pcap");
    let ckpt = tmp("filter.ckpt");
    let trace_s = trace.to_str().expect("utf8 path");
    let ckpt_s = ckpt.to_str().expect("utf8 path");

    let out = run(&[
        "generate",
        "--out",
        trace_s,
        "--duration",
        "30",
        "--rate",
        "15",
        "--seed",
        "5",
    ]);
    assert!(out.status.success());

    // First run writes periodic checkpoints plus a final one on exit.
    let out = run(&[
        "filter",
        "--in",
        trace_s,
        "--checkpoint",
        ckpt_s,
        "--checkpoint-interval",
        "5",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout(&out).contains("checkpoint"));
    let bytes = std::fs::read(&ckpt).expect("checkpoint file exists");
    assert!(bytes.starts_with(b"UPBSNAP1"), "container magic missing");

    // Second run restores warm from the same file (the trace replays the
    // same time span, so the snapshot is fresh in trace time).
    let out = run(&["filter", "--in", trace_s, "--checkpoint", ckpt_s]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout(&out).contains("restored warm filter state"));

    let _ = std::fs::remove_file(&trace);
    let _ = std::fs::remove_file(&ckpt);
}

#[test]
fn filter_corrupt_checkpoint_fails_with_runtime_exit_code() {
    let trace = tmp("bad-ckpt-trace.pcap");
    let ckpt = tmp("bad-filter.ckpt");
    let trace_s = trace.to_str().expect("utf8 path");
    let ckpt_s = ckpt.to_str().expect("utf8 path");

    let out = run(&[
        "generate",
        "--out",
        trace_s,
        "--duration",
        "5",
        "--rate",
        "10",
        "--seed",
        "6",
    ]);
    assert!(out.status.success());
    std::fs::write(&ckpt, b"UPBSNAP1 this is not a valid container").expect("write junk");

    let out = run(&["filter", "--in", trace_s, "--checkpoint", ckpt_s]);
    assert_eq!(
        out.status.code(),
        Some(1),
        "corrupt checkpoint is a runtime error"
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("checkpoint"));

    let _ = std::fs::remove_file(&trace);
    let _ = std::fs::remove_file(&ckpt);
}

#[test]
fn filter_fail_mode_flag_is_validated() {
    let out = run(&["filter", "--in", "nowhere.pcap", "--fail-mode", "sideways"]);
    assert_eq!(out.status.code(), Some(2), "bad fail-mode is a usage error");

    let out = run(&[
        "filter",
        "--in",
        "nowhere.pcap",
        "--checkpoint-interval",
        "5",
    ]);
    assert_eq!(
        out.status.code(),
        Some(2),
        "--checkpoint-interval without --checkpoint is a usage error"
    );
}

/// A TCP frame as a real host stack sends it: vendor MAC addresses,
/// TTL 57, a non-zero IP ID, a 12-byte TCP option block (data offset
/// 8), an arbitrary sequence number and window, and real checksums.
fn host_tcp_frame(
    src: ([u8; 4], u16),
    dst: ([u8; 4], u16),
    flags: u8,
    seq: u32,
    payload: &[u8],
) -> Vec<u8> {
    use upbound::net::wire::internet_checksum;
    let mut tcp = Vec::new();
    tcp.extend_from_slice(&src.1.to_be_bytes());
    tcp.extend_from_slice(&dst.1.to_be_bytes());
    tcp.extend_from_slice(&seq.to_be_bytes());
    tcp.extend_from_slice(&0x1234_5678u32.to_be_bytes()); // ack
    tcp.push(8 << 4); // data offset 8 words
    tcp.push(flags);
    tcp.extend_from_slice(&29_200u16.to_be_bytes()); // window
    tcp.extend_from_slice(&[0, 0, 0, 0]); // checksum, urgent pointer
                                          // MSS 1460, SACK permitted, NOP, window scale 7, NOP, NOP.
    tcp.extend_from_slice(&[2, 4, 0x05, 0xb4, 4, 2, 1, 3, 3, 7, 1, 1]);
    tcp.extend_from_slice(payload);
    let mut pseudo = Vec::new();
    pseudo.extend_from_slice(&src.0);
    pseudo.extend_from_slice(&dst.0);
    pseudo.extend_from_slice(&[0, 6]);
    pseudo.extend_from_slice(&(tcp.len() as u16).to_be_bytes());
    pseudo.extend_from_slice(&tcp);
    let ck = internet_checksum(&pseudo);
    tcp[16..18].copy_from_slice(&ck.to_be_bytes());

    let mut ip = vec![0x45, 0x00];
    ip.extend_from_slice(&((20 + tcp.len()) as u16).to_be_bytes());
    ip.extend_from_slice(&[0xbe, 0xef, 0x40, 0x00, 57, 6, 0, 0]);
    ip.extend_from_slice(&src.0);
    ip.extend_from_slice(&dst.0);
    let ck = internet_checksum(&ip);
    ip[10..12].copy_from_slice(&ck.to_be_bytes());

    let mut frame = vec![
        0x3c, 0xfd, 0xfe, 0x12, 0x34, 0x56, 0x00, 0x1b, 0x21, 0xab, 0xcd, 0xef,
    ];
    frame.extend_from_slice(&[0x08, 0x00]);
    frame.extend_from_slice(&ip);
    frame.extend_from_slice(&tcp);
    frame
}

/// One capture record: `(seconds, microseconds, frame)`.
type Rec = (u32, u32, Vec<u8>);

/// A capture written on a big-endian machine (byte-swapped magic and
/// fields) with the given snaplen; frames longer than it are truncated
/// and keep their full length as `orig_len`.
fn swapped_capture(snaplen: u32, records: &[Rec]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&0xa1b2_c3d4u32.to_be_bytes());
    out.extend_from_slice(&2u16.to_be_bytes());
    out.extend_from_slice(&4u16.to_be_bytes());
    out.extend_from_slice(&[0; 8]);
    out.extend_from_slice(&snaplen.to_be_bytes());
    out.extend_from_slice(&1u32.to_be_bytes());
    for (sec, usec, frame) in records {
        let incl = frame.len().min(snaplen as usize);
        for field in [*sec, *usec, incl as u32, frame.len() as u32] {
            out.extend_from_slice(&field.to_be_bytes());
        }
        out.extend_from_slice(&frame[..incl]);
    }
    out
}

/// Parses a native-order capture written by `upbound filter --out`
/// into `(seconds, microseconds, orig_len, frame)` records.
fn native_records(bytes: &[u8]) -> Vec<(u32, u32, u32, Vec<u8>)> {
    let u32_at = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"));
    assert_eq!(u32_at(0), 0xa1b2_c3d4, "native magic");
    let mut at = 24;
    let mut records = Vec::new();
    while at < bytes.len() {
        let incl = u32_at(at + 8) as usize;
        records.push((
            u32_at(at),
            u32_at(at + 4),
            u32_at(at + 12),
            bytes[at + 16..at + 16 + incl].to_vec(),
        ));
        at += 16 + incl;
    }
    records
}

#[test]
fn filter_out_forwards_captured_frames_verbatim() {
    const INSIDE: [u8; 4] = [10, 0, 0, 5];
    const SERVER: [u8; 4] = [198, 51, 100, 7];
    const SNAPLEN: u32 = 96;
    let (syn, ack, psh) = (0x02, 0x10, 0x08);
    let records: Vec<Rec> = vec![
        (
            1,
            0,
            host_tcp_frame((INSIDE, 40_000), (SERVER, 443), syn, 7, b""),
        ),
        (
            1,
            20_000,
            host_tcp_frame((SERVER, 443), (INSIDE, 40_000), syn | ack, 9, b""),
        ),
        (
            1,
            20_500,
            host_tcp_frame((INSIDE, 40_000), (SERVER, 443), ack, 8, b""),
        ),
        // A 200-byte payload: stored truncated at the snaplen.
        (
            1,
            50_000,
            host_tcp_frame((SERVER, 443), (INSIDE, 40_000), psh | ack, 10, &[0x5a; 200]),
        ),
        // Unsolicited: dropped.
        (
            2,
            0,
            host_tcp_frame(
                ([203, 0, 113, 9], 51_413),
                ([10, 0, 0, 6], 6881),
                syn,
                1,
                b"",
            ),
        ),
        (
            2,
            500_000,
            host_tcp_frame((INSIDE, 40_000), (SERVER, 443), psh | ack, 11, b"hi"),
        ),
    ];
    let trace = tmp("foreign.pcap");
    let filtered = tmp("foreign-out.pcap");
    std::fs::write(&trace, swapped_capture(SNAPLEN, &records)).expect("write capture");
    let out = run(&[
        "filter",
        "--in",
        trace.to_str().expect("utf8 path"),
        "--out",
        filtered.to_str().expect("utf8 path"),
    ]);
    assert!(
        out.status.success(),
        "filter: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout(&out).contains("6 packets; dropped 1 "),
        "{}",
        stdout(&out)
    );

    let written = native_records(&std::fs::read(&filtered).expect("read --out"));
    let passed: Vec<&Rec> = records
        .iter()
        .filter(|(sec, usec, _)| (*sec, *usec) != (2, 0))
        .collect();
    assert_eq!(written.len(), passed.len());
    for ((sec, usec, orig_len, frame), (in_sec, in_usec, in_frame)) in written.iter().zip(passed) {
        assert_eq!((sec, usec), (in_sec, in_usec));
        assert_eq!(*orig_len as usize, in_frame.len());
        let stored = &in_frame[..in_frame.len().min(SNAPLEN as usize)];
        assert_eq!(frame, stored, "frame at {sec}.{usec:06} was rewritten");
    }
    let _ = std::fs::remove_file(&trace);
    let _ = std::fs::remove_file(&filtered);
}

#[test]
fn filter_subscribers_staged_drop_blocks_the_next_packet() {
    const PEER: [u8; 4] = [203, 0, 113, 9];
    const TENANT_A: [u8; 4] = [10, 0, 0, 5];
    const HAIRPIN_A: [u8; 4] = [10, 0, 0, 7];
    const HAIRPIN_B: [u8; 4] = [10, 0, 1, 8];
    let (syn, ack) = (0x02, 0x10);
    let records: Vec<Rec> = vec![
        // Unsolicited inbound SYN: dropped, which blocks its connection.
        (
            1,
            0,
            host_tcp_frame((PEER, 51_413), (TENANT_A, 6881), syn, 1, b""),
        ),
        // Staged in the same batch, but the connection is blocked by then.
        (
            1,
            1_000,
            host_tcp_frame((TENANT_A, 6881), (PEER, 51_413), syn | ack, 2, b""),
        ),
        (
            1,
            2_000,
            host_tcp_frame((PEER, 51_413), (TENANT_A, 6881), ack, 3, b""),
        ),
        // Hairpin tenant-to-tenant traffic: decided at the source tenant
        // as outbound, so both directions pass.
        (
            1,
            500_000,
            host_tcp_frame((HAIRPIN_A, 1000), (HAIRPIN_B, 2000), syn, 4, b""),
        ),
        (
            1,
            501_000,
            host_tcp_frame((HAIRPIN_B, 2000), (HAIRPIN_A, 1000), syn | ack, 5, b""),
        ),
    ];
    let trace = tmp("hairpin.pcap");
    let spec = tmp("hairpin-spec.txt");
    std::fs::write(&trace, swapped_capture(65_535, &records)).expect("write capture");
    std::fs::write(&spec, "10.0.0.0/24 name=a\n10.0.1.0/24 name=b\n").expect("write spec");
    let mut outputs = Vec::new();
    for batch in ["64", "1"] {
        let filtered = tmp(&format!("hairpin-out-{batch}.pcap"));
        let out = run(&[
            "filter",
            "--in",
            trace.to_str().expect("utf8 path"),
            "--subscribers",
            spec.to_str().expect("utf8 path"),
            "--batch-size",
            batch,
            "--out",
            filtered.to_str().expect("utf8 path"),
        ]);
        assert!(
            out.status.success(),
            "filter: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = stdout(&out);
        assert!(
            text.contains("5 packets; dropped 3 (60.00%); blocked 1 connections"),
            "--batch-size {batch}: {text}"
        );
        let written = native_records(&std::fs::read(&filtered).expect("read --out"));
        let frames: Vec<&Vec<u8>> = written.iter().map(|r| &r.3).collect();
        assert_eq!(
            frames,
            vec![&records[3].2, &records[4].2],
            "--batch-size {batch}"
        );
        outputs.push(std::fs::read(&filtered).expect("read --out"));
        let _ = std::fs::remove_file(&filtered);
    }
    assert_eq!(outputs[0], outputs[1], "batching changed the output");
    let _ = std::fs::remove_file(&trace);
    let _ = std::fs::remove_file(&spec);
}
