//! The output checker, run on every rep: it matches the CLI's `--out`
//! against the input capture and the generator's ground truth, checks the
//! summary line against what `--out` holds, checks the paper's invariant,
//! and derives the two quality metrics from the labels (never from the
//! CLI's own counters).

use std::collections::{HashMap, HashSet};

use upbound_net::{Direction, FiveTuple};

use crate::workload::{record_spans, Label, Workload, GLOBAL_HDR_LEN};

/// The figures `upbound filter` prints at the end of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Packets read.
    pub total: u64,
    /// Packets dropped (filter drops plus blocked-connection drops).
    pub dropped: u64,
    /// Connections in the blocked-connection store.
    pub blocked: u64,
    /// The printed "after filtering" uplink rate, as printed.
    pub kept_mbps: String,
    /// Resident bytes of the subscriber table (tenant runs only).
    pub resident_bytes: Option<u64>,
}

/// Parses the summary lines out of the CLI's standard output.
pub fn parse_summary(stdout: &str) -> Result<Summary, String> {
    let mut summary = None;
    let mut kept = None;
    let mut resident = None;
    for line in stdout.lines() {
        // "{total} packets; dropped {d} ({pct}%); blocked {b} connections"
        if let Some((total, rest)) = line.split_once(" packets; dropped ") {
            let dropped = rest.split_whitespace().next().unwrap_or("");
            let blocked = rest
                .split_once("; blocked ")
                .and_then(|(_, b)| b.split_whitespace().next())
                .unwrap_or("");
            summary = Some((num(total)?, num(dropped)?, num(blocked)?));
        }
        // "uplink: {x} Mbps offered -> {y} Mbps after filtering"
        if let Some(rest) = line.strip_prefix("uplink: ") {
            kept = rest
                .split_once("-> ")
                .and_then(|(_, y)| y.split_whitespace().next())
                .map(str::to_owned);
        }
        // "subscribers: A active / P provisioned; R B resident, ..."
        if let Some(rest) = line.strip_prefix("subscribers: ") {
            let bytes = rest
                .split_once("; ")
                .and_then(|(_, r)| r.split_whitespace().next())
                .unwrap_or("");
            resident = Some(num(bytes)?);
        }
    }
    let (total, dropped, blocked) = summary.ok_or("no `N packets; dropped ...` summary line")?;
    Ok(Summary {
        total,
        dropped,
        blocked,
        kept_mbps: kept.ok_or("no `uplink: ...` summary line")?,
        resident_bytes: resident,
    })
}

fn num(s: &str) -> Result<u64, String> {
    s.trim()
        .parse()
        .map_err(|_| format!("summary field {s:?} is not a count"))
}

/// What one checked rep yields.
#[derive(Debug, Clone, PartialEq)]
pub struct Checked {
    /// Records in `--out`.
    pub passed: u64,
    /// The filter's quality, from the ground truth.
    pub quality: Quality,
    /// Digest of the `--out` bytes.
    pub digest: u64,
}

/// Checks one rep's `--out` and summary against the workload.
pub fn check(w: &Workload, out: &[u8], summary: &Summary) -> Result<Checked, String> {
    let kept = kept_flags(w, out)?;
    let passed = kept.iter().filter(|&&k| k).count() as u64;
    if summary.total != w.packets() as u64 {
        return Err(format!(
            "summary reads {} packets, the capture holds {}",
            summary.total,
            w.packets()
        ));
    }
    if passed + summary.dropped != summary.total {
        return Err(format!(
            "passed {passed} + dropped {} != {} packets",
            summary.dropped, summary.total
        ));
    }
    let kept_mbps = kept_uplink_mbps(&w.labels, &kept);
    if kept_mbps != summary.kept_mbps {
        return Err(format!(
            "summary reports {} Mbps after filtering, --out holds {kept_mbps} Mbps outbound",
            summary.kept_mbps
        ));
    }
    check_invariant(&w.labels, &kept, w.solicited_window_us())?;
    Ok(Checked {
        passed,
        quality: Quality::of(&w.labels, &kept),
        digest: digest(out),
    })
}

/// Matches `--out` against the capture: it must carry the same global
/// header and be an in-order subsequence of the capture's records.
/// Returns, per capture record, whether it was kept.
pub fn kept_flags(w: &Workload, out: &[u8]) -> Result<Vec<bool>, String> {
    let spans = record_spans(out).map_err(|e| format!("--out: {e}"))?;
    if out[..GLOBAL_HDR_LEN] != w.capture[..GLOBAL_HDR_LEN] {
        return Err("--out global header differs from the capture's".to_owned());
    }
    let mut kept = vec![false; w.packets()];
    let mut next = 0;
    for (n, &(off, len)) in spans.iter().enumerate() {
        let record = &out[off..off + len];
        // Greedy earliest match decides subsequence membership exactly.
        match (next..w.packets()).find(|&i| w.record(i) == record) {
            Some(i) => {
                kept[i] = true;
                next = i + 1;
            }
            None => {
                return Err(format!(
                    "--out record {n} is not an in-order subsequence of the capture"
                ))
            }
        }
    }
    Ok(kept)
}

/// The "after filtering" uplink rate the CLI should print for `kept`,
/// formatted as it prints it.
pub fn kept_uplink_mbps(labels: &[Label], kept: &[bool]) -> String {
    let bits: u64 = labels
        .iter()
        .zip(kept)
        .filter(|(l, &k)| k && l.direction == Direction::Outbound)
        .map(|(l, _)| l.wire_len as u64 * 8)
        .sum();
    let last_us = labels.iter().map(|l| l.ts_us).max().unwrap_or(0);
    let span = (last_us as f64 / 1e6).max(1e-9);
    format!("{:.2}", bits as f64 / span / 1e6)
}

/// The paper's invariant, with connection blocking on: on a connection
/// no earlier drop has blocked, an outbound packet is never dropped, and
/// an inbound packet whose inverse tuple had a passed outbound packet
/// within `window_us` is never dropped.
pub fn check_invariant(labels: &[Label], kept: &[bool], window_us: u64) -> Result<(), String> {
    let mut last_out: HashMap<FiveTuple, u64> = HashMap::new();
    let mut blocked: HashSet<FiveTuple> = HashSet::new();
    for (i, (l, &k)) in labels.iter().zip(kept).enumerate() {
        let conn = l.tuple.canonical();
        if !k {
            let was_blocked = !blocked.insert(conn);
            if !was_blocked {
                let solicited = l.direction == Direction::Inbound
                    && last_out
                        .get(&l.tuple.inverse())
                        .is_some_and(|&t| l.ts_us.saturating_sub(t) <= window_us);
                if l.direction == Direction::Outbound {
                    return Err(format!(
                        "packet {i}: outbound packet on an unblocked connection dropped"
                    ));
                }
                if solicited {
                    return Err(format!(
                        "packet {i}: solicited inbound packet dropped within (k-1)*dt \
                         of its connection's last passed outbound packet"
                    ));
                }
            }
        } else if l.direction == Direction::Outbound {
            last_out.insert(l.tuple, l.ts_us);
        }
    }
    Ok(())
}

/// The two quality figures of one or more captures, as sums so that
/// captures pool exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Quality {
    /// Outbound wire bytes on outside-initiated connections.
    pub unsolicited_bytes: u64,
    /// Of those, the bytes found in `--out`.
    pub unsolicited_bytes_kept: u64,
    /// Inside-initiated connections.
    pub solicited_conns: u64,
    /// Of those, the connections with at least one packet missing from
    /// `--out`.
    pub solicited_conns_broken: u64,
}

impl Quality {
    /// The quality of `kept` against the ground truth `labels`.
    pub fn of(labels: &[Label], kept: &[bool]) -> Self {
        let mut q = Self::default();
        let mut solicited: HashMap<u64, bool> = HashMap::new();
        for (l, &k) in labels.iter().zip(kept) {
            if l.outside_initiated {
                if l.direction == Direction::Outbound {
                    q.unsolicited_bytes += l.wire_len as u64;
                    if k {
                        q.unsolicited_bytes_kept += l.wire_len as u64;
                    }
                }
            } else {
                *solicited.entry(l.flow_id).or_default() |= !k;
            }
        }
        q.solicited_conns = solicited.len() as u64;
        q.solicited_conns_broken = solicited.values().filter(|&&b| b).count() as u64;
        q
    }

    /// Folds another capture's figures into these.
    pub fn add(&mut self, other: &Self) {
        self.unsolicited_bytes += other.unsolicited_bytes;
        self.unsolicited_bytes_kept += other.unsolicited_bytes_kept;
        self.solicited_conns += other.solicited_conns;
        self.solicited_conns_broken += other.solicited_conns_broken;
    }

    /// Unsolicited upload kept, in percent of all unsolicited upload.
    pub fn unsolicited_upload_kept_pct(&self) -> f64 {
        self.unsolicited_bytes_kept as f64 * 100.0 / self.unsolicited_bytes.max(1) as f64
    }

    /// Solicited connections broken, per million solicited connections.
    pub fn solicited_conn_drop_ppm(&self) -> f64 {
        self.solicited_conns_broken as f64 * 1e6 / self.solicited_conns.max(1) as f64
    }
}

/// A 64-bit FNV-1a digest over 8-byte words (and the tail bytes).
pub fn digest(bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let mut a = [0u8; 8];
        a.copy_from_slice(w);
        h = (h ^ u64::from_le_bytes(a)).wrapping_mul(PRIME);
    }
    for &b in words.remainder() {
        h = (h ^ b as u64).wrapping_mul(PRIME);
    }
    h ^ bytes.len() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::encode;
    use upbound_net::{Packet, Protocol, TcpFlags, Timestamp};

    const WINDOW: u64 = 15_000_000;

    fn tuple(s: &str, d: &str) -> FiveTuple {
        FiveTuple::new(
            Protocol::Tcp,
            s.parse().expect("addr"),
            d.parse().expect("addr"),
        )
    }

    fn label(ts_us: u64, t: FiveTuple, dir: Direction, outside: bool) -> Label {
        Label {
            flow_id: u64::from(outside),
            ts_us,
            tuple: t,
            direction: dir,
            wire_len: 100,
            outside_initiated: outside,
        }
    }

    /// An inside-initiated connection (out, in, out, in) and an
    /// outside-initiated one (in, out).
    fn scenario() -> Vec<Label> {
        let sol = tuple("10.0.0.1:4000", "192.0.2.1:80");
        let uns = tuple("198.51.100.7:5000", "10.0.0.2:6881");
        vec![
            label(0, sol, Direction::Outbound, false),
            label(1_000_000, sol.inverse(), Direction::Inbound, false),
            label(2_000_000, uns, Direction::Inbound, true),
            label(2_000_100, uns.inverse(), Direction::Outbound, true),
            label(3_000_000, sol, Direction::Outbound, false),
            label(30_000_000, sol.inverse(), Direction::Inbound, false),
        ]
    }

    #[test]
    fn invariant_holds_for_a_correct_filter() {
        // The unsolicited connection is dropped and blocked; the late
        // solicited reply (27 s after the last outbound) may drop.
        let kept = [true, true, false, false, true, false];
        assert!(check_invariant(&scenario(), &kept, WINDOW).is_ok());
    }

    #[test]
    fn checker_flags_a_planted_solicited_false_drop() {
        let kept = [true, false, false, false, true, true];
        let err = check_invariant(&scenario(), &kept, WINDOW).expect_err("planted drop");
        assert!(err.contains("packet 1"), "{err}");
    }

    #[test]
    fn checker_flags_an_outbound_drop_on_an_open_connection() {
        let kept = [false, true, false, false, true, true];
        let err = check_invariant(&scenario(), &kept, WINDOW).expect_err("outbound drop");
        assert!(err.contains("packet 0"), "{err}");
    }

    #[test]
    fn quality_metrics_come_from_labels() {
        let kept = [true, true, false, true, true, false];
        let q = Quality::of(&scenario(), &kept);
        assert_eq!(q.unsolicited_upload_kept_pct(), 100.0);
        assert_eq!((q.solicited_conns, q.solicited_conns_broken), (1, 1));
        let mut pooled = q;
        pooled.add(&Quality::of(&scenario(), &[true; 6]));
        assert_eq!(pooled.solicited_conn_drop_ppm(), 500_000.0);
        assert_eq!(pooled.unsolicited_upload_kept_pct(), 100.0);
    }

    fn workload(packets: &[Packet]) -> Workload {
        let capture = encode(packets);
        Workload {
            name: "unit",
            records: record_spans(&capture).expect("parses"),
            labels: packets
                .iter()
                .map(|p| label(p.ts().as_micros(), p.tuple(), Direction::Inbound, true))
                .collect(),
            capture,
            low_mbps: 0.0,
            high_mbps: 0.0,
            vector_bits: 20,
            tenants: Vec::new(),
        }
    }

    #[test]
    fn checker_flags_a_reordered_out() {
        let t = tuple("198.51.100.7:5000", "10.0.0.2:6881");
        let packets: Vec<Packet> = (0..4)
            .map(|i| {
                Packet::tcp(
                    Timestamp::from_micros(i * 10),
                    t,
                    TcpFlags::ACK,
                    vec![i as u8],
                )
            })
            .collect();
        let w = workload(&packets);
        let in_order = encode([&packets[0], &packets[2]]);
        assert_eq!(
            kept_flags(&w, &in_order).expect("subsequence"),
            vec![true, false, true, false]
        );
        let reordered = encode([&packets[2], &packets[0]]);
        let err = kept_flags(&w, &reordered).expect_err("reordered");
        assert!(err.contains("record 1"), "{err}");
        let foreign = encode([&packets[0].clone().with_ts(Timestamp::from_micros(5))]);
        assert!(kept_flags(&w, &foreign).is_err());
    }

    #[test]
    fn summary_parses_and_is_cross_checked() {
        let t = tuple("198.51.100.7:5000", "10.0.0.2:6881");
        let packets: Vec<Packet> = (0..3)
            .map(|i| Packet::tcp(Timestamp::from_micros(i * 10), t, TcpFlags::ACK, Vec::new()))
            .collect();
        let w = workload(&packets);
        let stdout = "bitmap filter: ...\n\
                      3 packets; dropped 1 (33.33%); blocked 1 connections\n\
                      uplink: 0.00 Mbps offered -> 0.00 Mbps after filtering\n";
        let summary = parse_summary(stdout).expect("parses");
        assert_eq!((summary.total, summary.dropped, summary.blocked), (3, 1, 1));
        assert!(check(&w, &encode(&packets[1..]), &summary).is_ok());
        let err = check(&w, &encode(&packets[2..]), &summary).expect_err("count mismatch");
        assert!(err.contains("passed 1 + dropped 1"), "{err}");
        let tenants = "subscribers: 3 active / 9 provisioned; 4096 B resident, 0 B pooled";
        let summary = parse_summary(&format!("{stdout}{tenants}\n")).expect("parses");
        assert_eq!(summary.resident_bytes, Some(4096));
    }

    #[test]
    fn digest_separates_contents_and_lengths() {
        assert_ne!(digest(b"abcdefgh1"), digest(b"abcdefgh2"));
        assert_ne!(digest(&[0; 8]), digest(&[0; 16]));
        assert_eq!(digest(b"same bytes"), digest(b"same bytes"));
    }
}
