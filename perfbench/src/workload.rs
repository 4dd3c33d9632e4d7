//! Seeded workloads: each one is a pcap capture held in memory, the
//! generator's ground-truth label of every packet in it, and the exact
//! `upbound filter` flags (and subscriber spec) it runs with.

use std::net::SocketAddrV4;

use upbound_core::{BitmapFilterConfig, DropPolicy, FailMode};
use upbound_net::pcap::PcapWriter;
use upbound_net::{Cidr, Direction, FiveTuple, Packet, TimeDelta, Timestamp};
use upbound_traffic::attack::{self, AttackConfig};
use upbound_traffic::{generate, LabeledPacket, SyntheticTrace, TraceConfig};

/// Length of the pcap global header.
pub const GLOBAL_HDR_LEN: usize = 24;
/// Length of a pcap record header.
pub const REC_HDR_LEN: usize = 16;
/// Snaplen of both the generated capture and the CLI's `--out`.
pub const SNAPLEN: u32 = 65_535;

/// The workloads, by name.
pub const NAMES: [&str; 3] = ["campus", "flood", "tenants"];

/// Number of `/28` tenants in the `tenants` spec.
const TENANTS: u32 = 1024;

/// Ground truth of one capture packet, kept beside the capture.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Label {
    /// Id of the packet's connection.
    pub flow_id: u64,
    /// Capture timestamp in microseconds.
    pub ts_us: u64,
    /// The five-tuple as sent.
    pub tuple: FiveTuple,
    /// Direction relative to the client network.
    pub direction: Direction,
    /// On-the-wire bytes (the pcap `orig_len`).
    pub wire_len: u32,
    /// `true` when the packet's connection was opened by an outside peer.
    pub outside_initiated: bool,
}

impl Label {
    fn of(lp: &LabeledPacket) -> Self {
        Self {
            flow_id: lp.flow_id,
            ts_us: lp.packet.ts().as_micros(),
            tuple: lp.packet.tuple(),
            direction: lp.direction,
            wire_len: lp.packet.wire_len(),
            outside_initiated: lp.outside_initiated,
        }
    }
}

/// One generated workload.
pub struct Workload {
    /// Workload name (one of [`NAMES`]).
    pub name: &'static str,
    /// The capture, as `upbound generate` would write it.
    pub capture: Vec<u8>,
    /// `(offset, len)` of every record (header included) in `capture`.
    pub records: Vec<(usize, usize)>,
    /// Ground truth, one per record.
    pub labels: Vec<Label>,
    /// `--low-mbps` (0 when the flag is not given).
    pub low_mbps: f64,
    /// `--high-mbps` (0 when the flag is not given: drop-all).
    pub high_mbps: f64,
    /// `--vector-bits`.
    pub vector_bits: u32,
    /// The `--subscribers` spec, for the tenant workload.
    pub tenants: Vec<Tenant>,
}

/// One line of a `--subscribers` spec.
#[derive(Debug, Clone, PartialEq)]
pub struct Tenant {
    /// The subscriber's prefix.
    pub cidr: Cidr,
    /// Its name.
    pub name: String,
    /// Its own `low-mbps`.
    pub low_mbps: f64,
    /// Its own `high-mbps`.
    pub high_mbps: f64,
}

/// Bitmap vectors `k` (the CLI default).
pub const VECTORS: usize = 4;
/// Rotation period `Δt` in seconds (the CLI default).
pub const ROTATE_SECS: f64 = 5.0;
/// Hash functions `m` (the CLI default).
pub const HASHES: usize = 3;
/// The client network (the CLI default `--inside`).
pub const INSIDE: &str = "10.0.0.0/16";

impl Workload {
    /// Generates workload `name` from `seed`; `None` for an unknown name.
    pub fn generate(name: &str, seed: u64) -> Option<Self> {
        // (name, trace, low-mbps, high-mbps, vector-bits, tenants)
        let (name, trace, low_mbps, high_mbps, vector_bits, tenants) = match name {
            "campus" => ("campus", campus(seed), 10.0, 30.0, 20, Vec::new()),
            "flood" => ("flood", flood(seed), 10.0, 30.0, 20, Vec::new()),
            "tenants" => ("tenants", tenants(seed), 0.0, 0.0, 14, tenant_spec()),
            _ => return None,
        };
        let capture = encode(trace.packets.iter().map(|lp| &lp.packet));
        let records = record_spans(&capture).expect("a freshly written capture parses");
        let labels = trace.packets.iter().map(Label::of).collect();
        Some(Self {
            name,
            capture,
            records,
            labels,
            low_mbps,
            high_mbps,
            vector_bits,
            tenants,
        })
    }

    /// The `upbound filter` flags besides `--in`, `--out` and
    /// `--subscribers`: only those that differ from the CLI defaults.
    pub fn flags(&self) -> Vec<String> {
        let mut flags = Vec::new();
        if self.high_mbps > 0.0 {
            flags.extend([
                "--low-mbps".to_owned(),
                self.low_mbps.to_string(),
                "--high-mbps".to_owned(),
                self.high_mbps.to_string(),
            ]);
        }
        if self.vector_bits != 20 {
            flags.extend(["--vector-bits".to_owned(), self.vector_bits.to_string()]);
        }
        flags
    }

    /// The `--subscribers` spec text, for the tenant workload.
    pub fn spec(&self) -> Option<String> {
        if self.tenants.is_empty() {
            return None;
        }
        let mut spec = String::from("# upbound perfbench tenants: one /28 per line, own RED\n");
        for t in &self.tenants {
            spec.push_str(&format!(
                "{} name={} low-mbps={} high-mbps={}\n",
                t.cidr, t.name, t.low_mbps, t.high_mbps
            ));
        }
        Some(spec)
    }

    /// The filter configuration the CLI builds from `flags()` (or, per
    /// tenant, from the spec line's `low`/`high` overrides).
    pub fn filter_config(&self, low_mbps: f64, high_mbps: f64) -> BitmapFilterConfig {
        let mut builder = BitmapFilterConfig::builder();
        builder
            .vector_bits(self.vector_bits)
            .vectors(VECTORS)
            .rotate_every_secs(ROTATE_SECS)
            .hash_functions(HASHES)
            .hole_punching(false)
            .fail_mode(FailMode::Closed);
        if high_mbps > 0.0 {
            builder.drop_policy(
                DropPolicy::new(low_mbps * 1e6, high_mbps * 1e6).expect("static thresholds"),
            );
        }
        builder
            .build()
            .expect("static filter configuration is valid")
    }

    /// The client network.
    pub fn inside(&self) -> Cidr {
        INSIDE.parse().expect("static CIDR")
    }

    /// Number of packets in the capture.
    pub fn packets(&self) -> usize {
        self.records.len()
    }

    /// Record `i` of the capture, header included.
    pub fn record(&self, i: usize) -> &[u8] {
        let (off, len) = self.records[i];
        &self.capture[off..off + len]
    }

    /// Mean on-the-wire frame size over the capture.
    pub fn mean_frame_bytes(&self) -> f64 {
        let total: u64 = self.labels.iter().map(|l| l.wire_len as u64).sum();
        total as f64 / self.labels.len().max(1) as f64
    }

    /// The window within which a passed outbound packet must keep its
    /// reply from being dropped: `(k − 1)·Δt`.
    pub fn solicited_window_us(&self) -> u64 {
        (VECTORS as u64 - 1) * (ROTATE_SECS * 1e6) as u64
    }
}

/// Writes `packets` as a pcap capture, exactly as `upbound generate` does.
pub fn encode<'a>(packets: impl IntoIterator<Item = &'a Packet>) -> Vec<u8> {
    let mut writer = PcapWriter::new(Vec::new(), SNAPLEN).expect("writing to memory cannot fail");
    for p in packets {
        writer
            .write_packet(p)
            .expect("writing to memory cannot fail");
    }
    writer.finish().expect("flushing memory cannot fail")
}

/// A capture that holds only the pcap global header: the `setup_s` input.
pub fn header_only() -> Vec<u8> {
    encode(std::iter::empty())
}

/// Splits a little-endian pcap capture into `(offset, len)` records,
/// each including its 16-byte header.
pub fn record_spans(bytes: &[u8]) -> Result<Vec<(usize, usize)>, String> {
    if bytes.len() < GLOBAL_HDR_LEN {
        return Err(format!(
            "capture of {} bytes has no global header",
            bytes.len()
        ));
    }
    let mut spans = Vec::new();
    let mut off = GLOBAL_HDR_LEN;
    while off < bytes.len() {
        if bytes.len() - off < REC_HDR_LEN {
            return Err(format!("truncated record header at byte {off}"));
        }
        let incl = u32::from_le_bytes([
            bytes[off + 8],
            bytes[off + 9],
            bytes[off + 10],
            bytes[off + 11],
        ]) as usize;
        let len = REC_HDR_LEN + incl;
        if bytes.len() - off < len {
            return Err(format!("truncated record body at byte {off}"));
        }
        spans.push((off, len));
        off += len;
    }
    Ok(spans)
}

fn background(seed: u64, duration_secs: f64, rate: f64, clients: u32) -> SyntheticTrace {
    let config = TraceConfig::builder()
        .duration_secs(duration_secs)
        .flow_rate_per_sec(rate)
        .clients(clients)
        .seed(seed)
        .build()
        .expect("static trace configuration is valid");
    generate(&config)
}

/// The paper's campus mix over 600 s at the generator's default rate.
fn campus(seed: u64) -> SyntheticTrace {
    background(seed, 600.0, 40.0, 200)
}

/// The campus background under a sustained spoofed SYN flood (with the
/// victim's elicited RSTs) plus a never-answered probe wave.
fn flood(seed: u64) -> SyntheticTrace {
    let victim: SocketAddrV4 = "10.0.0.9:6881".parse().expect("static address");
    let flood = attack::syn_flood(&AttackConfig {
        seed: seed ^ 0xf100d,
        start: Timestamp::from_secs(30.0),
        duration: TimeDelta::from_secs(540.0),
        rate_per_sec: 750.0,
        victim,
    });
    let probes = attack::probe_wave(&AttackConfig {
        seed: seed ^ 0x9806e,
        start: Timestamp::from_secs(60.0),
        duration: TimeDelta::from_secs(480.0),
        rate_per_sec: 100.0,
        victim,
    });
    attack::merge(vec![campus(seed), flood, probes])
}

/// ~4k clients spread over the first quarter of 1,024 `/28` tenants.
fn tenants(seed: u64) -> SyntheticTrace {
    background(seed, 600.0, 40.0, 4096)
}

/// 1,024 `/28` subscribers over `10.0.0.0/18`, each with its own RED
/// thresholds (two alternating operating points).
fn tenant_spec() -> Vec<Tenant> {
    (0..TENANTS)
        .map(|t| {
            let base = t * 16;
            let (low_mbps, high_mbps) = if t % 2 == 0 { (0.05, 0.4) } else { (0.1, 0.6) };
            Tenant {
                cidr: format!("10.0.{}.{}/28", base / 256, base % 256)
                    .parse()
                    .expect("well-formed CIDR"),
                name: format!("t{t}"),
                low_mbps,
                high_mbps,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_byte_identical_captures() {
        for name in NAMES {
            let a = Workload::generate(name, 3).expect("known workload");
            let b = Workload::generate(name, 3).expect("known workload");
            assert_eq!(a.capture, b.capture, "{name}");
            assert_eq!(a.labels, b.labels, "{name}");
            assert_eq!(a.spec(), b.spec(), "{name}");
        }
    }

    #[test]
    fn different_seeds_give_different_captures() {
        let a = Workload::generate("campus", 1).expect("known workload");
        let b = Workload::generate("campus", 2).expect("known workload");
        assert_ne!(a.capture, b.capture);
    }

    #[test]
    fn record_spans_cover_the_capture() {
        let w = Workload::generate("campus", 5).expect("known workload");
        assert_eq!(w.records.len(), w.labels.len());
        let (off, len) = *w.records.last().expect("non-empty");
        assert_eq!(off + len, w.capture.len());
        assert_eq!(record_spans(&header_only()).expect("parses"), vec![]);
        assert!(record_spans(&w.capture[..w.capture.len() - 1]).is_err());
    }
}
