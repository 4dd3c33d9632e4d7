//! The pcap reader's buffering against an input that trickles.
//!
//! `PcapReader` frames records in place inside its own read window, so
//! the record boundaries never line up with the reads that fill it. This
//! harness feeds the same captures through an input that returns 1–7
//! bytes per call and fails with `ErrorKind::Interrupted` at random,
//! and asserts that the reader yields exactly what it yields from one
//! in-memory slice: the same packets, the same captured frame bytes, the
//! same error, and the same `IngestStats`, under both recovery policies.
//!
//! The corpora cover clean captures (full and header-only snaplen), one
//! large enough to cross the read window many times, a jumbo record that
//! forces the window to grow, and randomly mutated captures in the style
//! of `tests/adversarial_ingest.rs`.

use std::io::{self, ErrorKind, Read};

use rand::prelude::*;
use upbound::net::pcap::{self, IngestStats, PcapReader, RecoveryPolicy};
use upbound::net::wire::{self, ChecksumPolicy};
use upbound::net::{FiveTuple, Packet, Protocol, Timestamp};
use upbound::traffic::TraceConfig;

const SEED: u64 = 0x7_1c4e;
const MUTATED_CORPORA: usize = 300;

/// A reader over `bytes` that hands out 1–7 bytes per call and is
/// interrupted on about a quarter of the calls.
struct Trickle<'a> {
    bytes: &'a [u8],
    pos: usize,
    rng: StdRng,
}

impl<'a> Trickle<'a> {
    fn new(bytes: &'a [u8], seed: u64) -> Self {
        Self {
            bytes,
            pos: 0,
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl Read for Trickle<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        // A zero-length request would make a short input look ended.
        assert!(!buf.is_empty(), "reader asked for zero bytes");
        if self.rng.gen_range(0u32..4) == 0 {
            return Err(io::Error::from(ErrorKind::Interrupted));
        }
        let n = self
            .rng
            .gen_range(1usize..8)
            .min(buf.len())
            .min(self.bytes.len() - self.pos);
        buf[..n].copy_from_slice(&self.bytes[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// Everything a reader produced: one entry per record (the packet and,
/// for `read_record`, the captured frame), the error that ended the
/// read, and the final accounting.
#[derive(Debug, PartialEq)]
struct Drained {
    records: Vec<(Packet, Vec<u8>)>,
    error: Option<String>,
    stats: Option<IngestStats>,
}

fn drain<R: Read>(input: R, policy: RecoveryPolicy, headers_only: bool) -> Drained {
    let mut reader = match PcapReader::with_policy(input, policy) {
        Ok(r) => r,
        Err(e) => {
            return Drained {
                records: Vec::new(),
                error: Some(e.to_string()),
                stats: None,
            }
        }
    };
    let mut records = Vec::new();
    let error = loop {
        let next = if headers_only {
            reader
                .read_record()
                .map(|r| r.map(|r| (r.packet, r.frame.to_vec())))
        } else {
            reader.read_packet().map(|p| p.map(|p| (p, Vec::new())))
        };
        match next {
            Ok(Some(record)) => records.push(record),
            Ok(None) => break None,
            Err(e) => break Some(e.to_string()),
        }
    };
    Drained {
        records,
        error,
        stats: Some(*reader.stats()),
    }
}

/// The property for one corpus under one policy. Panics on violation.
fn check(label: &str, bytes: &[u8], policy: RecoveryPolicy, seed: u64) {
    let full = drain(bytes, policy, false);
    let headers = drain(bytes, policy, true);
    assert_eq!(
        drain(Trickle::new(bytes, seed), policy, false),
        full,
        "{label} {policy:?}: read_packet differs when trickled"
    );
    assert_eq!(
        drain(Trickle::new(bytes, seed ^ 1), policy, true),
        headers,
        "{label} {policy:?}: read_record differs when trickled"
    );
    // Both decoders accept the same records with the same accounting;
    // the header-only packet is the full one without its payload, and
    // the frame it lends out decodes back to the full packet.
    assert_eq!(
        headers.error, full.error,
        "{label} {policy:?}: errors differ"
    );
    assert_eq!(
        headers.stats, full.stats,
        "{label} {policy:?}: stats differ"
    );
    assert_eq!(
        headers.records.len(),
        full.records.len(),
        "{label} {policy:?}"
    );
    for ((packet, frame), (whole, _)) in headers.records.iter().zip(&full.records) {
        assert_eq!(*packet, whole.strip_payload(), "{label} {policy:?}");
        let decoded = wire::decode(
            frame,
            packet.ts(),
            packet.wire_len(),
            ChecksumPolicy::Ignore,
        )
        .expect("a lent frame decodes");
        assert_eq!(decoded, *whole, "{label} {policy:?}: frame bytes differ");
    }
}

fn capture(seed: u64, secs: f64, snaplen: u32) -> Vec<u8> {
    let config = TraceConfig::builder()
        .duration_secs(secs)
        .flow_rate_per_sec(25.0)
        .seed(seed)
        .build()
        .expect("valid trace config");
    let trace = upbound::traffic::generate(&config);
    pcap::to_bytes(trace.packets.iter().map(|lp| &lp.packet), snaplen).expect("serialize")
}

/// One random corruption: truncate, flip bits, stomp, splice garbage,
/// or delete a range.
fn mutate(bytes: &[u8], rng: &mut StdRng) -> Vec<u8> {
    let mut b = bytes.to_vec();
    let len = b.len();
    match rng.gen_range(0u32..5) {
        0 => b.truncate(rng.gen_range(1..len)),
        1 => {
            for _ in 0..rng.gen_range(1..9) {
                let i = rng.gen_range(0..len);
                b[i] ^= 1 << rng.gen_range(0..8u8);
            }
        }
        2 => {
            let start = rng.gen_range(0..len);
            let end = (start + rng.gen_range(1..64)).min(len);
            for byte in &mut b[start..end] {
                *byte = rng.gen::<u8>();
            }
        }
        3 => {
            let at = rng.gen_range(0..=len);
            let garbage: Vec<u8> = (0..rng.gen_range(1..48)).map(|_| rng.gen::<u8>()).collect();
            b.splice(at..at, garbage);
        }
        _ => {
            let start = rng.gen_range(0..len);
            let end = (start + rng.gen_range(1..64)).min(len);
            b.drain(start..end);
            if b.is_empty() {
                b.push(0);
            }
        }
    }
    b
}

const POLICIES: [RecoveryPolicy; 2] = [RecoveryPolicy::Strict, RecoveryPolicy::Skip];

#[test]
fn trickled_clean_captures_read_like_one_slice() {
    let large = capture(SEED, 20.0, 65_535);
    assert!(
        large.len() > 8 * 64 * 1024,
        "the large capture must cross the read window many times: {} bytes",
        large.len()
    );
    for (label, bytes) in [
        ("full", capture(SEED ^ 1, 2.0, 65_535)),
        ("headers-only", capture(SEED ^ 2, 2.0, 54)),
        ("large", large),
    ] {
        for policy in POLICIES {
            check(label, &bytes, policy, SEED);
        }
    }
}

#[test]
fn trickled_jumbo_record_grows_the_window() {
    let tuple = FiveTuple::new(
        Protocol::Udp,
        "10.0.0.1:4000".parse().expect("addr"),
        "192.0.2.1:5000".parse().expect("addr"),
    );
    let small = Packet::udp(Timestamp::from_secs(1.0), tuple, &b"before"[..]);
    // A 60 KB datagram: its record needs more than half the initial
    // read window, so the window has to grow to frame it.
    let jumbo = Packet::udp(Timestamp::from_secs(2.0), tuple, vec![0xa5; 60_000]);
    let after = Packet::udp(Timestamp::from_secs(3.0), tuple, &b"after"[..]);
    let bytes = pcap::to_bytes([&small, &jumbo, &after], pcap::MAX_SNAPLEN).expect("serialize");
    for policy in POLICIES {
        check("jumbo", &bytes, policy, SEED);
        assert_eq!(drain(&bytes[..], policy, false).records.len(), 3);
    }
}

#[test]
fn trickled_mutated_captures_read_like_one_slice() {
    let bases = [capture(SEED ^ 3, 1.0, 65_535), capture(SEED ^ 4, 1.0, 54)];
    let mut rng = StdRng::seed_from_u64(SEED);
    for i in 0..MUTATED_CORPORA {
        let corpus = mutate(&bases[i % bases.len()], &mut rng);
        for policy in POLICIES {
            check(&format!("mutated-{i}"), &corpus, policy, SEED ^ i as u64);
        }
    }
}
