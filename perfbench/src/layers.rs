//! The traced per-layer driver (`--trace 1`).
//!
//! It replays the workload in-process through the public function of
//! each layer, with the CLI loop's semantics (batches of 64, the hazard
//! flush, connection blocking), and records a span per layer call at
//! batch granularity. The layers below the decision (hash, bitmap,
//! `P_d` draw, observer) cannot be timed per packet without per-packet
//! timers, so they are timed as differential runs on the decision
//! stream the replay materialised. Each round also runs one `upbound
//! filter` child, whose CPU time the layer sums are reconciled against.

use std::collections::{BTreeMap, HashSet};
use std::hint::black_box;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use upbound_core::{
    AtomicBitmap, BitmapFilter, FilterEngine, FilterObserver, FilterStats, FlowHash, HashFamily,
    NoopObserver, OverloadPolicy, ShardedFilter, SubscriberClassifier, SubscriberTable,
    TelemetryObserver, ThroughputMonitor, Verdict,
};
use upbound_net::pcap::{PcapReader, PcapWriter};
use upbound_net::wire::{self, ChecksumPolicy};
use upbound_net::{Cidr, Direction, FiveTuple, Packet, Timestamp};
use upbound_telemetry::{FlightRecorder, Registry};

use crate::check::{check, digest};
use crate::child::Spawner;
use crate::stats::median;
use crate::trace::{SpanId, Tracer};
use crate::workload::{Workload, HASHES, REC_HDR_LEN, ROTATE_SECS, SNAPLEN, VECTORS};
use crate::{filter_rep, metric, Outcome, WorkDir};

/// The CLI's default `--batch-size`.
const BATCH: usize = 64;

type Stream = Vec<(Packet, Direction)>;

/// The decision stage of one CLI path, as the CLI builds it.
trait Dataplane {
    /// Span name of the decision call.
    const DECIDE: &'static str;
    fn classify(&self, packet: &Packet) -> Direction;
    fn decide(&mut self, batch: &[(Packet, Direction)], verdicts: &mut Vec<Verdict>);
    /// Called after a batch that filled up (the tenant loop advances
    /// its table there) and once at the end of the trace.
    fn advance(&mut self, _now: Timestamp) {}
    fn stats(&self) -> FilterStats;
}

/// `cmd_filter`: one `--inside` network, a sharded bitmap filter.
struct Sharded<O: FilterObserver + Send + Sync> {
    inside: Cidr,
    filter: ShardedFilter<BitmapFilter<O>>,
}

impl<O: FilterObserver + Send + Sync> Dataplane for Sharded<O> {
    const DECIDE: &'static str = "decide";
    fn classify(&self, packet: &Packet) -> Direction {
        self.inside.direction_of(&packet.tuple())
    }
    fn decide(&mut self, batch: &[(Packet, Direction)], verdicts: &mut Vec<Verdict>) {
        self.filter.process_batch(batch, verdicts);
    }
    fn stats(&self) -> FilterStats {
        self.filter.stats()
    }
}

/// Builds the sharded filter exactly as `cmd_filter` does (one shard,
/// the shared uplink monitor, a telemetry observer feeding a registry
/// and flight recorder, the overload ladder off).
fn sharded_telemetry(w: &Workload) -> Sharded<TelemetryObserver> {
    let config = w.filter_config(w.low_mbps, w.high_mbps);
    let registry = Registry::new();
    let flight = FlightRecorder::default();
    flight.attach_registry(registry.clone());
    flight.set_dump_on_armed(true);
    let uplink = Arc::new(config.uplink_monitor());
    let shard = BitmapFilter::with_observer(
        config.clone(),
        TelemetryObserver::with_default_journal(&registry, "core").with_flight_recorder(flight),
    )
    .with_shared_uplink(Arc::clone(&uplink))
    .with_overload_policy(OverloadPolicy::off());
    Sharded {
        inside: w.inside(),
        filter: ShardedFilter::from_shards(FlowHash::new(false), uplink, vec![shard]),
    }
}

/// The same build with the no-op observer: the observer differential.
fn sharded_noop(w: &Workload) -> Sharded<NoopObserver> {
    let config = w.filter_config(w.low_mbps, w.high_mbps);
    let uplink = Arc::new(config.uplink_monitor());
    let shard = BitmapFilter::new(config)
        .with_shared_uplink(Arc::clone(&uplink))
        .with_overload_policy(OverloadPolicy::off());
    Sharded {
        inside: w.inside(),
        filter: ShardedFilter::from_shards(FlowHash::new(false), uplink, vec![shard]),
    }
}

/// `cmd_filter_subscribers`: longest-prefix dispatch to lazily activated
/// per-tenant filters.
struct Tenants {
    classifier: SubscriberClassifier,
    table: SubscriberTable<BitmapFilter>,
}

impl Dataplane for Tenants {
    const DECIDE: &'static str = "subscriber.batch";
    fn classify(&self, packet: &Packet) -> Direction {
        self.classifier.direction_of(packet)
    }
    fn decide(&mut self, batch: &[(Packet, Direction)], verdicts: &mut Vec<Verdict>) {
        self.table.process_batch(batch, verdicts);
    }
    fn advance(&mut self, now: Timestamp) {
        self.table.advance(now);
    }
    fn stats(&self) -> FilterStats {
        self.table.merged_stats()
    }
}

/// The workload's tenant table; a workload without a spec gets one
/// tenant covering its `--inside` network (the tenant path on the same
/// stream, for comparison with the sharded path).
fn tenants(w: &Workload) -> Tenants {
    let mut table = SubscriberTable::new();
    if w.tenants.is_empty() {
        table
            .add_named_subscriber(
                "inside",
                w.inside(),
                w.filter_config(w.low_mbps, w.high_mbps),
            )
            .expect("one tenant cannot collide");
    }
    for t in &w.tenants {
        table
            .add_named_subscriber(&t.name, t.cidr, w.filter_config(t.low_mbps, t.high_mbps))
            .expect("the spec's prefixes are distinct");
    }
    Tenants {
        classifier: table.classifier(),
        table,
    }
}

/// What one replay produced.
struct Replay {
    passed: u64,
    dropped: u64,
    blocked: usize,
    stats: FilterStats,
}

/// The CLI loop's state between packets.
struct Loop<'a, W: std::io::Write> {
    writer: PcapWriter<W>,
    blocked: HashSet<FiveTuple>,
    staged: Stream,
    staged_conns: HashSet<FiveTuple>,
    verdicts: Vec<Verdict>,
    passed: u64,
    dropped: u64,
    record: Option<&'a mut Vec<Stream>>,
}

impl<W: std::io::Write> Loop<'_, W> {
    /// Decides the staged batch, blocks the connections of its drops and
    /// emits its passes (the CLI's `flush_staged`).
    fn flush<D: Dataplane>(
        &mut self,
        dp: &mut D,
        tracer: &mut Tracer,
        parent: Option<SpanId>,
    ) -> Result<(), String> {
        if self.staged.is_empty() {
            return Ok(());
        }
        self.verdicts.clear();
        let span = tracer.begin(D::DECIDE, parent);
        dp.decide(&self.staged, &mut self.verdicts);
        tracer.end(span);
        if let Some(rec) = self.record.as_deref_mut() {
            rec.push(self.staged.clone());
        }
        for ((packet, _), verdict) in self.staged.iter().zip(&self.verdicts) {
            if *verdict == Verdict::Drop {
                self.blocked.insert(packet.tuple().canonical());
                self.dropped += 1;
            }
        }
        let span = tracer.begin("emit", parent);
        for ((packet, _), verdict) in self.staged.iter().zip(&self.verdicts) {
            if *verdict == Verdict::Pass {
                self.writer
                    .write_packet(packet)
                    .map_err(|e| e.to_string())?;
                self.passed += 1;
            }
        }
        tracer.end(span);
        self.staged.clear();
        self.staged_conns.clear();
        Ok(())
    }
}

/// Replays the capture through `dp` with the CLI loop's semantics,
/// emitting passed packets into `out`. Spans go to `tracer` under
/// `parent`; a disabled tracer reads no clock. `record` receives every
/// decided batch.
fn replay<D: Dataplane>(
    w: &Workload,
    dp: &mut D,
    tracer: &mut Tracer,
    parent: Option<SpanId>,
    out: &mut Vec<u8>,
    record: Option<&mut Vec<Stream>>,
) -> Result<Replay, String> {
    out.clear();
    let mut reader = PcapReader::new(&w.capture[..]).map_err(|e| e.to_string())?;
    let mut state = Loop {
        writer: PcapWriter::new(out, SNAPLEN).map_err(|e| e.to_string())?,
        blocked: HashSet::new(),
        staged: Vec::with_capacity(BATCH),
        staged_conns: HashSet::new(),
        verdicts: Vec::with_capacity(BATCH),
        passed: 0,
        dropped: 0,
        record,
    };
    let mut pending: Vec<Packet> = Vec::with_capacity(BATCH);
    let mut directions: Vec<Direction> = Vec::with_capacity(BATCH);
    let mut last_ts = Timestamp::ZERO;
    loop {
        let span = tracer.begin("pcap.read", parent);
        while pending.len() < BATCH {
            match reader.read_packet().map_err(|e| e.to_string())? {
                Some(p) => pending.push(p),
                None => break,
            }
        }
        tracer.end(span);
        if pending.is_empty() {
            break;
        }
        let span = tracer.begin("classify", parent);
        directions.extend(pending.iter().map(|p| dp.classify(p)));
        tracer.end(span);
        for (p, direction) in pending.drain(..).zip(directions.drain(..)) {
            last_ts = last_ts.max(p.ts());
            let tuple = p.tuple();
            // A staged packet of the same connection may yield the drop
            // that blocks this one.
            if state.staged_conns.contains(&tuple.canonical()) {
                state.flush(dp, tracer, parent)?;
            }
            if state.blocked.contains(&tuple) || state.blocked.contains(&tuple.inverse()) {
                state.dropped += 1;
            } else {
                state.staged_conns.insert(tuple.canonical());
                state.staged.push((p, direction));
                if state.staged.len() >= BATCH {
                    state.flush(dp, tracer, parent)?;
                    dp.advance(last_ts);
                }
            }
        }
    }
    state.flush(dp, tracer, parent)?;
    dp.advance(last_ts);
    state.writer.finish().map_err(|e| e.to_string())?;
    Ok(Replay {
        passed: state.passed,
        dropped: state.dropped,
        blocked: state.blocked.len(),
        stats: dp.stats(),
    })
}

/// Runs every recorded batch through `dp`'s decision call.
fn decide_all<D: Dataplane>(mut dp: D, batches: &[Stream]) -> D {
    let mut verdicts = Vec::with_capacity(BATCH);
    for b in batches {
        verdicts.clear();
        dp.decide(b, &mut verdicts);
    }
    dp
}

/// The decision stream's keys, as the bitmap sees them.
struct KeyStream {
    /// `(ts, outbound, key bytes)` per decided packet.
    keys: Vec<(Timestamp, bool, [u8; 14])>,
    outbound: u64,
    inbound: u64,
    /// `(key, ts, unmarked bits, uplink rate)` per inbound miss.
    misses: Vec<([u8; 14], Timestamp, u32, f64)>,
}

impl KeyStream {
    fn of(batches: &[Stream], n_bits: u32, monitor: ThroughputMonitor) -> Self {
        let keys: Vec<_> = batches
            .iter()
            .flatten()
            .map(|(p, d)| {
                let out = *d == Direction::Outbound;
                let key = if out {
                    p.tuple().outbound_key(false)
                } else {
                    p.tuple().inbound_key(false)
                };
                (p.ts(), out, key.to_bytes())
            })
            .collect();
        let outbound = keys.iter().filter(|k| k.1).count() as u64;
        let mut misses = Vec::new();
        let bitmap = AtomicBitmap::new(VECTORS, n_bits, HASHES);
        let mut rotor = Rotor::new();
        for ((ts, out, key), (p, _)) in keys.iter().zip(batches.iter().flatten()) {
            rotor.turn(&bitmap, *ts);
            if *out {
                bitmap.mark(key);
                monitor.record(*ts, p.wire_len() as u64);
            } else {
                let probe = bitmap.probe(key);
                if !probe.known {
                    misses.push((*key, *ts, probe.unmarked as u32, monitor.rate_bps(*ts)));
                }
            }
        }
        Self {
            inbound: keys.len() as u64 - outbound,
            outbound,
            keys,
            misses,
        }
    }
}

/// Rotates a bitmap every `Δt` of packet time, as the filter's timer does.
struct Rotor {
    next_us: u64,
}

impl Rotor {
    const EVERY_US: u64 = (ROTATE_SECS * 1e6) as u64;

    fn new() -> Self {
        Self {
            next_us: Self::EVERY_US,
        }
    }

    fn turn(&mut self, bitmap: &AtomicBitmap, ts: Timestamp) {
        while ts.as_micros() >= self.next_us {
            bitmap.rotate();
            self.next_us += Self::EVERY_US;
        }
    }
}

/// Marks every outbound key (and, with `probe`, probes every inbound
/// key) in order on a fresh bitmap rotating on packet time.
fn bitmap_pass(keys: &[(Timestamp, bool, [u8; 14])], n_bits: u32, probe: bool) -> usize {
    let bitmap = AtomicBitmap::new(VECTORS, n_bits, HASHES);
    let mut rotor = Rotor::new();
    let mut unmarked = 0;
    for (ts, out, key) in keys {
        rotor.turn(&bitmap, *ts);
        if *out {
            bitmap.mark(key);
        } else if probe {
            unmarked += bitmap.probe(key).unmarked;
        }
    }
    unmarked
}

/// One measurement round: span durations (ns) summed by name, for the
/// round's own children and for the traced replay's layers.
#[derive(Default)]
struct Round {
    spans: BTreeMap<&'static str, f64>,
    layers: BTreeMap<&'static str, f64>,
    cli_cpu_s: Option<f64>,
}

/// The traced run of workload `w`, whose capture the CLI reads with
/// `args`: rounds of replays, differential runs and one CLI child each,
/// for `seconds` (at least two rounds).
pub fn run(
    spawner: &mut Spawner,
    bin: &Path,
    w: &Workload,
    dir: &WorkDir,
    args: &[String],
    seconds: f64,
) -> Result<Outcome, String> {
    let packets = w.packets() as f64;
    let is_tenants = !w.tenants.is_empty();
    // A replay of the workload's own CLI path, on a fresh dataplane.
    let replay_fresh = |tracer: &mut Tracer,
                        parent: Option<SpanId>,
                        out: &mut Vec<u8>,
                        record: Option<&mut Vec<Stream>>| {
        if is_tenants {
            replay(w, &mut tenants(w), tracer, parent, out, record)
        } else {
            replay(w, &mut sharded_telemetry(w), tracer, parent, out, record)
        }
    };

    // Materialise: one untimed replay records the decision stream, and
    // its output must be the CLI's --out byte for byte.
    let mut out = Vec::with_capacity(w.capture.len());
    let mut batches: Vec<Stream> = Vec::new();
    let materialised = replay_fresh(&mut Tracer::new(false), None, &mut out, Some(&mut batches))?;
    let replay_digest = digest(&out);
    // Pre-framed records for the decode run: (ts, orig_len, frame range).
    let frames: Vec<(Timestamp, u32, usize, usize)> = w
        .records
        .iter()
        .map(|&(off, len)| {
            let h = &w.capture[off..off + REC_HDR_LEN];
            let word = |i: usize| u32::from_le_bytes([h[i], h[i + 1], h[i + 2], h[i + 3]]);
            (
                Timestamp::from_sec_usec(word(0), word(4)),
                word(12),
                off + REC_HDR_LEN,
                off + len,
            )
        })
        .collect();
    let mut payload_bytes = 0usize;
    for &(ts, orig_len, a, b) in &frames {
        let p = wire::decode(&w.capture[a..b], ts, orig_len, ChecksumPolicy::Ignore)
            .map_err(|e| e.to_string())?;
        payload_bytes += p.payload().len();
    }
    // The `P_d` draws use the workload's policy (the first tenant's, on
    // the tenant path) against the whole stream's uplink rate.
    let config = w.filter_config(
        w.tenants.first().map_or(w.low_mbps, |t| t.low_mbps),
        w.tenants.first().map_or(w.high_mbps, |t| t.high_mbps),
    );
    let keys = KeyStream::of(&batches, w.vector_bits, config.uplink_monitor());
    let policy = config.drop_policy();
    let engine = FilterEngine::new(
        config.rotate_every(),
        config.uplink_monitor(),
        policy,
        config.rng_seed(),
        NoopObserver,
    );
    let family = HashFamily::new(HASHES, w.vector_bits);
    let flow = FlowHash::new(false);
    // `filter --in <capture> ...`
    let capture_path = Path::new(&args[2]);

    let mut tracer = Tracer::new(true);
    let mut rounds: Vec<Round> = Vec::new();
    let mut last_round_span = 0;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut cli_summary = None;
    let mut digest_mismatch = None;
    let mut last_stats = FilterStats::default();
    let started = Instant::now();
    while rounds.len() < 2 || started.elapsed().as_secs_f64() < seconds {
        let first_span = tracer.spans().len();
        last_round_span = first_span;
        let root = tracer.begin("round", None);
        let mut r = Round::default();

        // The replay with spans off, then the same replay with spans on.
        let span = tracer.begin("replay.untraced", root);
        replay_fresh(&mut Tracer::new(false), None, &mut out, None)?;
        tracer.end(span);
        let replay_span = tracer.begin("replay", root);
        last_stats = replay_fresh(&mut tracer, replay_span, &mut out, None)?.stats;
        tracer.end(replay_span);

        // Differential runs on the materialised inputs.
        let span = tracer.begin("pcap.read_floor", root);
        let bytes = std::fs::read(capture_path).map_err(|e| format!("capture: {e}"))?;
        tracer.end(span);
        black_box(bytes);

        let span = tracer.begin("wire.decode", root);
        for &(ts, orig_len, a, b) in &frames {
            let p = wire::decode(&w.capture[a..b], ts, orig_len, ChecksumPolicy::Ignore)
                .map_err(|e| e.to_string())?;
            black_box(p);
        }
        tracer.end(span);

        let span = tracer.begin("hash", root);
        let mut acc = 0u64;
        for (p, d) in batches.iter().flatten() {
            let t = p.tuple();
            let key = match d {
                Direction::Outbound => t.outbound_key(false),
                Direction::Inbound => t.inbound_key(false),
            };
            acc ^= family.indexes(&key.to_bytes()).fold(0, |a, i| a ^ i) as u64;
            acc ^= flow.key(&t, *d);
        }
        black_box(acc);
        tracer.end(span);

        let span = tracer.begin("bitmap.mark_only", root);
        black_box(bitmap_pass(&keys.keys, w.vector_bits, false));
        tracer.end(span);
        let span = tracer.begin("bitmap.mark_probe", root);
        black_box(bitmap_pass(&keys.keys, w.vector_bits, true));
        tracer.end(span);

        let span = tracer.begin("pd.draw", root);
        let mut drops = 0u32;
        for (key, ts, unmarked, rate) in &keys.misses {
            let p_d = policy.drop_probability(*rate);
            drops += u32::from((0..*unmarked).any(|draw| engine.drop_draw(key, *ts, draw, p_d)));
        }
        black_box(drops);
        tracer.end(span);

        let dp = sharded_telemetry(w);
        let span = tracer.begin("decide.telemetry", root);
        black_box(decide_all(dp, &batches));
        tracer.end(span);
        let dp = sharded_noop(w);
        let span = tracer.begin("decide.noop", root);
        black_box(decide_all(dp, &batches));
        tracer.end(span);
        if !is_tenants {
            let dp = tenants(w);
            let span = tracer.begin("subscriber.isolated", root);
            black_box(decide_all(dp, &batches));
            tracer.end(span);
        }

        // One CLI child, checked like every end-to-end rep.
        attempted += 1;
        let span = tracer.begin("cli", root);
        let outcome = filter_rep(spawner, bin, args, dir).and_then(|(run, out, summary)| {
            let checked = check(w, &out, &summary)?;
            Ok((run, summary, checked))
        });
        tracer.end(span);
        match outcome {
            Ok((run, summary, checked)) => {
                if checked.digest != replay_digest {
                    digest_mismatch = Some(format!(
                        "in-process replay emitted digest {replay_digest:016x}, the CLI {:016x}",
                        checked.digest
                    ));
                }
                r.cli_cpu_s = Some(run.cpu_s);
                cli_summary = Some(summary);
            }
            Err(e) => {
                failed += 1;
                eprintln!("check failed: {e}");
            }
        }
        tracer.end(root);
        for s in &tracer.spans()[first_span..] {
            let by_name = if s.parent == root {
                &mut r.spans
            } else if s.parent == replay_span {
                &mut r.layers
            } else {
                continue;
            };
            *by_name.entry(s.name).or_default() += s.duration_ns() as f64;
        }
        rounds.push(r);
    }
    if let Some(e) = &digest_mismatch {
        eprintln!("{e}");
    }
    let summary = cli_summary.ok_or("no CLI rep passed the output checker")?;

    let med_of = |f: &dyn Fn(&Round) -> Option<f64>| {
        median(&rounds.iter().filter_map(f).collect::<Vec<_>>())
    };
    let span = |name: &str| med_of(&|r: &Round| r.spans.get(name).copied());
    let layer = |name: &str| med_of(&|r: &Round| Some(r.layers.get(name).copied().unwrap_or(0.0)));
    let per_pkt = |ns: f64| ns / packets;
    let read = per_pkt(layer("pcap.read"));
    let classify = per_pkt(layer("classify"));
    let decide_layer = if is_tenants {
        "subscriber.batch"
    } else {
        "decide"
    };
    let decide = per_pkt(layer(decide_layer));
    let emit = per_pkt(layer("emit"));
    let cpu_ns = med_of(&|r: &Round| r.cli_cpu_s.map(|s| s * 1e9 / packets));
    let residual = cpu_ns - (read + classify + decide + emit);
    let (decide_ns, subscriber_ns) = if is_tenants {
        (per_pkt(span("decide.telemetry")), decide)
    } else {
        (decide, per_pkt(span("subscriber.isolated")))
    };
    let resident_bytes = match summary.resident_bytes {
        Some(b) => b as f64,
        // No subscriber table on this path: the one-tenant table of the
        // isolated run, after the same stream.
        None => decide_all(tenants(w), &batches).table.memory_bytes() as f64,
    };
    let (mark_only, mark_probe) = (span("bitmap.mark_only"), span("bitmap.mark_probe"));
    let (untraced, traced) = (span("replay.untraced"), span("replay"));
    let ratio = |a: u64, b: u64| a as f64 / b.max(1) as f64;

    let metrics = vec![
        metric("pcap.read_ns_per_pkt", read, "ns/packet"),
        metric(
            "pcap.read_floor_ns_per_pkt",
            per_pkt(span("pcap.read_floor")),
            "ns/packet",
        ),
        metric(
            "wire.decode_ns_per_pkt",
            per_pkt(span("wire.decode")),
            "ns/packet",
        ),
        metric(
            "wire.payload_bytes_per_pkt",
            payload_bytes as f64 / packets,
            "bytes/packet",
        ),
        metric("classify.ns_per_pkt", classify, "ns/packet"),
        metric(
            "hash.ns_per_pkt",
            span("hash") / keys.keys.len().max(1) as f64,
            "ns/packet",
        ),
        metric(
            "bitmap.probe_ns",
            (mark_probe - mark_only) / keys.inbound.max(1) as f64,
            "ns",
        ),
        metric(
            "bitmap.mark_ns",
            mark_only / keys.outbound.max(1) as f64,
            "ns",
        ),
        metric(
            "bitmap.hit_ratio",
            ratio(last_stats.inbound_hits, last_stats.inbound_packets),
            "ratio",
        ),
        metric(
            "pd.draw_ns",
            span("pd.draw") / keys.misses.len().max(1) as f64,
            "ns",
        ),
        metric("decide.ns_per_pkt", decide_ns, "ns/packet"),
        metric(
            "decide.observer_ns_per_pkt",
            per_pkt(span("decide.telemetry") - span("decide.noop")),
            "ns/packet",
        ),
        metric("subscriber.batch_ns_per_pkt", subscriber_ns, "ns/packet"),
        metric("subscriber.resident_bytes", resident_bytes, "bytes"),
        metric(
            "emit.ns_per_pkt",
            layer("emit") / materialised.passed.max(1) as f64,
            "ns/packet",
        ),
        metric(
            "emit.pass_ratio",
            ratio(summary.total - summary.dropped, summary.total),
            "ratio",
        ),
        metric("cli.residual_ns_per_pkt", residual, "ns/packet"),
        metric("cli.blocked_connections", summary.blocked as f64, "count"),
        metric(
            "trace.overhead_pct",
            (traced - untraced) / untraced * 100.0,
            "%",
        ),
    ];

    println!(
        "traced run: {} rounds; span roll-up (total / self, ms):",
        rounds.len()
    );
    for (name, r) in &tracer.rollup() {
        println!(
            "  {name:<22} {:>7} spans {:>10.2} {:>10.2}",
            r.count,
            r.total_ns as f64 / 1e6,
            r.self_ns as f64 / 1e6
        );
    }
    println!(
        "decided {} of {} packets ({} out, {} in); inbound hits {} of {}; {} inbound misses \
         drew P_d; replay passed {} dropped {} blocked {} (CLI: dropped {} blocked {})",
        keys.keys.len(),
        w.packets(),
        keys.outbound,
        keys.inbound,
        last_stats.inbound_hits,
        last_stats.inbound_packets,
        keys.misses.len(),
        materialised.passed,
        materialised.dropped,
        materialised.blocked,
        summary.dropped,
        summary.blocked
    );
    println!(
        "reconcile: pcap.read {read:.1} + classify {classify:.1} + {decide_layer} {decide:.1} + \
         emit {emit:.1} + cli.residual {residual:.1} = cpu_ns_per_pkt {cpu_ns:.1} ns/packet"
    );
    let trace_path = dir
        .dir()
        .parent()
        .map(|p| p.join(format!("trace-{}.tsv", w.name)))
        .ok_or("work directory has no parent")?;
    let file = std::fs::File::create(&trace_path);
    let mut tsv =
        std::io::BufWriter::new(file.map_err(|e| format!("{}: {e}", trace_path.display()))?);
    tracer
        .write_tsv(last_round_span, &mut tsv)
        .and_then(|()| tsv.flush())
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;
    println!(
        "wrote the last round's {} spans to {}",
        tracer.spans().len() - last_round_span,
        trace_path.display()
    );

    let failed = failed + u64::from(digest_mismatch.is_some());
    Ok((failed == 0, attempted, failed, metrics))
}
