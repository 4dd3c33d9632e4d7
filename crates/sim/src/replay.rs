//! The trace-replay engine.

use crate::dataplane::{Blocking, Dataplane, Fate, Settled};
use crate::fault::CheckpointSink;
use crate::{OracleFilter, PacketFilter};
use serde::{Deserialize, Serialize};
use std::borrow::Borrow;
use std::convert::Infallible;
use std::path::Path;
use upbound_core::{SnapshotError, Snapshottable, SubscriberTable, Verdict};
use upbound_net::pcap::IngestStats;
use upbound_net::{Direction, NetError, Packet, PacketSource, SourcePoll, TimeDelta, Timestamp};
use upbound_stats::BinnedSeries;
use upbound_traffic::SyntheticTrace;

/// Replay configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplayConfig {
    /// Width of the throughput/drop-rate bins, in seconds.
    pub bin_secs: f64,
    /// Maintain the blocked-σ store of the paper's Figure 9 setup: once
    /// an inbound packet of a connection is dropped, all future packets
    /// of that connection (both directions) are dropped without
    /// consulting the filter.
    pub block_connections: bool,
    /// Expiry window of the error-accounting oracle (should equal the
    /// filter's `T_e`).
    pub oracle_expiry: TimeDelta,
    /// Decided packets between two checkpoint ticks of the replay loop
    /// (`0` is treated as `1`). Every packet is decided as it is offered,
    /// so results are identical at every batch size.
    pub batch_size: usize,
}

impl Default for ReplayConfig {
    fn default() -> Self {
        Self {
            bin_secs: 10.0,
            block_connections: true,
            oracle_expiry: TimeDelta::from_secs(20.0),
            batch_size: 64,
        }
    }
}

/// Everything measured during one replay.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplayResult {
    /// Display name of the filter that ran.
    pub filter_name: String,
    /// Unfiltered uplink bits per bin.
    pub pre_uplink: BinnedSeries,
    /// Unfiltered downlink bits per bin.
    pub pre_downlink: BinnedSeries,
    /// Surviving uplink bits per bin.
    pub post_uplink: BinnedSeries,
    /// Surviving downlink bits per bin.
    pub post_downlink: BinnedSeries,
    /// Inbound packets offered per bin.
    pub inbound_offered: BinnedSeries,
    /// Inbound packets dropped per bin (filter + blocked store).
    pub inbound_dropped: BinnedSeries,
    /// Total packets replayed.
    pub total_packets: u64,
    /// Total inbound packets offered.
    pub total_inbound_packets: u64,
    /// Total inbound packets dropped.
    pub total_dropped_packets: u64,
    /// Inbound packets the filter passed but the oracle would drop.
    pub false_positives: u64,
    /// Inbound packets the filter dropped but the oracle would pass.
    pub false_negatives: u64,
    /// Connections that ended up in the blocked store.
    pub blocked_connections: u64,
}

impl ReplayResult {
    /// Overall inbound drop rate (packets).
    pub fn drop_rate(&self) -> f64 {
        if self.total_inbound_packets == 0 {
            0.0
        } else {
            self.total_dropped_packets as f64 / self.total_inbound_packets as f64
        }
    }

    /// Per-bin inbound drop rates `(t, dropped/offered)`, skipping empty
    /// bins.
    pub fn drop_rate_series(&self) -> Vec<(f64, f64)> {
        (0..self.inbound_offered.n_bins())
            .filter_map(|i| {
                let offered = self.inbound_offered.bin_total(i);
                if offered <= 0.0 {
                    return None;
                }
                let t = i as f64 * self.inbound_offered.bin_secs();
                Some((t, self.inbound_dropped.bin_total(i) / offered))
            })
            .collect()
    }

    /// False-positive rate over inbound packets the oracle would drop.
    pub fn false_positive_rate(&self) -> f64 {
        let should_drop = self.false_positives
            + self
                .total_dropped_packets
                .saturating_sub(self.false_negatives);
        if should_drop == 0 {
            0.0
        } else {
            self.false_positives as f64 / should_drop as f64
        }
    }

    /// False-negative rate over inbound packets the oracle would pass.
    pub fn false_negative_rate(&self) -> f64 {
        let should_pass = self.false_negatives
            + self
                .total_inbound_packets
                .saturating_sub(self.total_dropped_packets)
                .saturating_sub(self.false_positives);
        if should_pass == 0 {
            0.0
        } else {
            self.false_negatives as f64 / should_pass as f64
        }
    }
}

/// Replays labeled traces through a [`PacketFilter`].
#[derive(Debug, Clone)]
pub struct ReplayEngine {
    config: ReplayConfig,
}

impl ReplayEngine {
    /// Creates an engine.
    pub fn new(config: ReplayConfig) -> Self {
        Self { config }
    }

    /// Replays `trace` through `filter` and collects the metrics.
    ///
    /// The replay semantics follow §5.3: every packet of the original
    /// trace is offered in timestamp order; outbound packets of blocked
    /// connections are suppressed before reaching the filter (the trace
    /// cannot "un-trigger" them, but suppressing them reproduces the
    /// bandwidth effect of the block).
    pub fn run<F: PacketFilter>(&self, trace: &SyntheticTrace, filter: &mut F) -> ReplayResult {
        self.run_iter(
            filter,
            trace.packets.iter().map(|lp| (&lp.packet, lp.direction)),
        )
    }

    /// Like [`run`](Self::run), but additionally writes a checkpoint of
    /// `filter` to `path` through `sink` every `every` of **trace time**
    /// (the cadence a crash-safe deployment would use), plus one final
    /// checkpoint at end-of-trace. Returns the replay metrics and how
    /// many checkpoints were written.
    ///
    /// The sink is the injectable write layer:
    /// [`AtomicCheckpointSink`](crate::AtomicCheckpointSink) in
    /// production, a [`FaultingCheckpointSink`](crate::FaultingCheckpointSink)
    /// to exercise write failures.
    ///
    /// # Errors
    ///
    /// Propagates the first checkpoint write failure from the sink; the
    /// replay stops at the tick that failed.
    pub fn run_checkpointed_with<F, S>(
        &self,
        trace: &SyntheticTrace,
        filter: &mut F,
        path: &Path,
        every: TimeDelta,
        sink: &mut S,
    ) -> Result<(ReplayResult, u64), SnapshotError>
    where
        F: PacketFilter + Snapshottable,
        S: CheckpointSink,
    {
        let mut checkpoints = Checkpoints::new(sink, path, every);
        let result = self.run_iter_with(
            filter,
            trace.packets.iter().map(|lp| (&lp.packet, lp.direction)),
            |f, now| checkpoints.tick(f, now),
        );
        let written = checkpoints.finish(filter)?;
        Ok((result, written))
    }

    /// Replays `trace` through a multi-tenant [`SubscriberTable`].
    ///
    /// The trace's own direction labels are ignored: each packet's
    /// accounting direction comes from the table's classifier (source
    /// inside any subscriber network → outbound, everything else →
    /// inbound), and each packet goes through the table's subscriber
    /// dispatch, so one replay measures every provisioned tenant at
    /// once. Per-tenant results remain available from the table
    /// afterwards via
    /// [`per_subscriber_stats`](SubscriberTable::per_subscriber_stats).
    pub(crate) fn subscribers_impl<F: PacketFilter>(
        &self,
        trace: &SyntheticTrace,
        table: &mut SubscriberTable<F>,
    ) -> ReplayResult {
        let classifier = table.classifier();
        self.run_iter(
            table,
            trace
                .packets
                .iter()
                .map(move |lp| (&lp.packet, classifier.direction_of(&lp.packet))),
        )
    }

    /// Replays a [`PacketSource`] through `filter` until the source
    /// reports [`SourcePoll::End`], and returns the replay metrics
    /// together with the source's final ingestion accounting.
    ///
    /// This is the unified dataplane entry point: pcap replay
    /// ([`PcapSource`](upbound_net::PcapSource)), looped replay
    /// ([`BufferedSource`](upbound_net::BufferedSource)) and live capture
    /// ([`LiveSource`](upbound_net::LiveSource)) all drive the same
    /// loop, so verdicts and statistics depend only on the packet
    /// stream, never on the backend. [`SourcePoll::Idle`] polls sleep
    /// briefly and retry, so live sources replay in (near) real time.
    ///
    /// # Errors
    ///
    /// Propagates the first unrecoverable source error; metrics up to the
    /// failing poll are discarded (use [`IngestStats`] for forensics).
    pub fn run_source<F, S>(
        &self,
        source: &mut S,
        filter: &mut F,
    ) -> Result<(ReplayResult, IngestStats), NetError>
    where
        F: PacketFilter,
        S: PacketSource + ?Sized,
    {
        self.run_source_with(source, filter, |_, _| true)
    }

    /// [`run_source`](Self::run_source) with the tick hook of
    /// `run_iter_with`: `tick(filter, last_ts)` runs after each decided
    /// batch; returning `false` stops the replay early.
    pub(crate) fn run_source_with<F, S>(
        &self,
        source: &mut S,
        filter: &mut F,
        tick: impl FnMut(&mut F, Timestamp) -> bool,
    ) -> Result<(ReplayResult, IngestStats), NetError>
    where
        F: PacketFilter,
        S: PacketSource + ?Sized,
    {
        let mut error = None;
        let iter = SourceIter {
            source: &mut *source,
            chunk: Vec::with_capacity(SOURCE_CHUNK),
            buf: Vec::new(),
            error: &mut error,
        };
        let result = self.run_iter_with(filter, iter, tick);
        match error {
            Some(err) => Err(err),
            None => Ok((result, source.stats())),
        }
    }

    fn run_iter<F, P, I>(&self, filter: &mut F, packets: I) -> ReplayResult
    where
        F: PacketFilter,
        P: Borrow<Packet>,
        I: IntoIterator<Item = (P, Direction)>,
    {
        self.run_iter_with(filter, packets, |_, _| true)
    }

    /// The replay loop with a tick hook: after each batch of
    /// `batch_size` decided packets, and once after the last decided
    /// packet, `tick(filter, last_ts)` runs with the timestamp of the
    /// batch's last packet; returning `false` stops the replay early
    /// (used to abort on checkpoint failures).
    ///
    /// Packets go through the shared [`Dataplane`] core (the filter
    /// decision and the blocked-σ store); this loop adds only the oracle
    /// scoring and the binned before/after accounting of every packet
    /// the core settles.
    fn run_iter_with<F, P, I>(
        &self,
        filter: &mut F,
        packets: I,
        mut tick: impl FnMut(&mut F, Timestamp) -> bool,
    ) -> ReplayResult
    where
        F: PacketFilter,
        P: Borrow<Packet>,
        I: IntoIterator<Item = (P, Direction)>,
    {
        let bin = self.config.bin_secs;
        let mut result = ReplayResult {
            filter_name: filter.name().to_owned(),
            pre_uplink: BinnedSeries::new(bin),
            pre_downlink: BinnedSeries::new(bin),
            post_uplink: BinnedSeries::new(bin),
            post_downlink: BinnedSeries::new(bin),
            inbound_offered: BinnedSeries::new(bin),
            inbound_dropped: BinnedSeries::new(bin),
            total_packets: 0,
            total_inbound_packets: 0,
            total_dropped_packets: 0,
            false_positives: 0,
            false_negatives: 0,
            blocked_connections: 0,
        };
        let mut oracle = OracleFilter::new(self.config.oracle_expiry);
        let blocking = if self.config.block_connections {
            Blocking::Permanent
        } else {
            Blocking::Off
        };
        let mut core = Dataplane::new(blocking, self.config.batch_size, None);
        // Timestamp of the last packet the filter decided since the last
        // tick, for the final tick.
        let mut untick = None;
        for (packet, direction) in packets {
            // The core settles every packet as it is offered, so the
            // oracle sees the stream exactly as it was offered.
            let Ok(decided) = core.offer(filter, packet.borrow(), direction, None, |s| {
                if s.fate != Fate::Blocked {
                    untick = Some(s.packet.ts());
                }
                result.account(&s, oracle.decide(s.packet, s.direction));
                Ok::<(), Infallible>(())
            });
            if let Some(decided) = decided {
                untick = None;
                if !tick(filter, decided.last_ts) {
                    result.blocked_connections = core.stats().blocked_connections;
                    return result;
                }
            }
        }
        if let Some(last_ts) = untick {
            tick(filter, last_ts);
        }
        result.blocked_connections = core.stats().blocked_connections;
        result
    }
}

impl ReplayResult {
    /// Adds one settled packet to the before/after series and scores it
    /// against the oracle's verdict.
    fn account(&mut self, settled: &Settled<'_>, oracle_verdict: Verdict) {
        let t = settled.packet.ts().as_secs_f64();
        let bits = settled.packet.wire_bits() as f64;
        let passed = settled.fate == Fate::Passed;
        self.total_packets += 1;
        match settled.direction {
            Direction::Outbound => {
                self.pre_uplink.add(t, bits);
                if passed {
                    self.post_uplink.add(t, bits);
                }
            }
            Direction::Inbound => {
                self.pre_downlink.add(t, bits);
                self.total_inbound_packets += 1;
                self.inbound_offered.add(t, 1.0);
                if passed {
                    self.post_downlink.add(t, bits);
                    if oracle_verdict == Verdict::Drop {
                        self.false_positives += 1;
                    }
                } else {
                    self.total_dropped_packets += 1;
                    self.inbound_dropped.add(t, 1.0);
                    if oracle_verdict == Verdict::Pass {
                        self.false_negatives += 1;
                    }
                }
            }
        }
    }
}

/// Periodic checkpoints on the replay loop's tick hook: one write each
/// time the watermark crosses the next multiple of `every`, and a final
/// write when the replay ends. The first failed write stops the replay.
pub(crate) struct Checkpoints<'a, S> {
    sink: &'a mut S,
    path: &'a Path,
    every: TimeDelta,
    written: u64,
    failure: Option<SnapshotError>,
    next_due: Option<Timestamp>,
    watermark: Timestamp,
}

impl<'a, S: CheckpointSink> Checkpoints<'a, S> {
    pub(crate) fn new(sink: &'a mut S, path: &'a Path, every: TimeDelta) -> Self {
        Self {
            sink,
            path,
            every,
            written: 0,
            failure: None,
            next_due: None,
            watermark: Timestamp::ZERO,
        }
    }

    /// The tick hook: writes a checkpoint when one is due; `false`
    /// once a write has failed.
    pub(crate) fn tick<F: Snapshottable>(&mut self, filter: &F, now: Timestamp) -> bool {
        if self.failure.is_some() {
            return false;
        }
        self.watermark = self.watermark.max(now);
        let due = *self.next_due.get_or_insert(self.watermark + self.every);
        if self.watermark >= due {
            match self
                .sink
                .write(self.path, &filter.snapshot_bytes(self.watermark))
            {
                Ok(()) => {
                    self.written += 1;
                    self.next_due = Some(due + self.every);
                }
                Err(e) => {
                    self.failure = Some(e);
                    return false;
                }
            }
        }
        true
    }

    /// Surfaces a failed periodic write, or writes the final checkpoint;
    /// returns how many checkpoints were written.
    pub(crate) fn finish<F: Snapshottable>(self, filter: &F) -> Result<u64, SnapshotError> {
        if let Some(e) = self.failure {
            return Err(e);
        }
        self.sink
            .write(self.path, &filter.snapshot_bytes(self.watermark))?;
        Ok(self.written + 1)
    }
}

/// Packets pulled from a [`PacketSource`] per poll.
const SOURCE_CHUNK: usize = 256;

/// How long to sleep between polls when a live source reports
/// [`SourcePoll::Idle`].
const IDLE_SLEEP: std::time::Duration = std::time::Duration::from_millis(1);

/// Adapts a [`PacketSource`] to the `(Packet, Direction)` iterator the
/// replay loop consumes. A source error ends the iteration and is parked
/// in `error` for the caller to surface.
struct SourceIter<'a, S: PacketSource + ?Sized> {
    source: &'a mut S,
    chunk: Vec<(Packet, Direction)>,
    buf: Vec<(Packet, Direction)>,
    error: &'a mut Option<NetError>,
}

impl<S: PacketSource + ?Sized> Iterator for SourceIter<'_, S> {
    type Item = (Packet, Direction);

    fn next(&mut self) -> Option<(Packet, Direction)> {
        loop {
            // `buf` holds the current chunk reversed so `pop` yields
            // packets in source order without shifting the vector.
            if let Some(item) = self.buf.pop() {
                return Some(item);
            }
            self.chunk.clear();
            match self.source.next_batch(&mut self.chunk, SOURCE_CHUNK) {
                Ok(SourcePoll::Batch(_)) => {
                    self.buf.append(&mut self.chunk);
                    self.buf.reverse();
                }
                Ok(SourcePoll::Idle) => std::thread::sleep(IDLE_SLEEP),
                Ok(SourcePoll::End) => return None,
                Err(err) => {
                    *self.error = Some(err);
                    return None;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use upbound_core::{BitmapFilter, BitmapFilterConfig};
    use upbound_spi::{SpiConfig, SpiFilter};
    use upbound_traffic::{generate, TraceConfig};

    fn trace(seed: u64) -> SyntheticTrace {
        generate(
            &TraceConfig::builder()
                .duration_secs(60.0)
                .flow_rate_per_sec(20.0)
                .seed(seed)
                .build()
                .unwrap(),
        )
    }

    fn bitmap() -> BitmapFilter {
        BitmapFilter::new(BitmapFilterConfig::paper_evaluation())
    }

    #[test]
    fn replay_accounts_for_every_packet() {
        let trace = trace(1);
        let result = ReplayEngine::new(ReplayConfig::default()).run(&trace, &mut bitmap());
        assert_eq!(result.total_packets as usize, trace.packets.len());
        assert!(result.total_inbound_packets > 0);
        assert!(result.total_dropped_packets <= result.total_inbound_packets);
        // Post-filter traffic never exceeds pre-filter traffic.
        assert!(result.post_uplink.total() <= result.pre_uplink.total());
        assert!(result.post_downlink.total() <= result.pre_downlink.total());
    }

    #[test]
    fn drop_all_policy_blocks_unsolicited_connections() {
        let trace = trace(2);
        let result = ReplayEngine::new(ReplayConfig::default()).run(&trace, &mut bitmap());
        // The workload is dominated by outside-initiated P2P, so plenty
        // of inbound traffic must drop.
        assert!(result.drop_rate() > 0.1, "drop rate {}", result.drop_rate());
        assert!(result.blocked_connections > 0);
        // And upload must shrink (blocked connections stop uploading).
        assert!(result.post_uplink.total() < result.pre_uplink.total());
    }

    #[test]
    fn oracle_scoring_bounds_bitmap_errors() {
        let trace = trace(3);
        let result = ReplayEngine::new(ReplayConfig::default()).run(&trace, &mut bitmap());
        // The bitmap filter is hugely over-provisioned for this load
        // (2^20 bits vs a few thousand connections): false positives
        // should be essentially zero, and without connection blocking no
        // legitimate response arrives after expiry in this short trace.
        assert!(
            result.false_positive_rate() < 0.01,
            "fp rate {}",
            result.false_positive_rate()
        );
    }

    #[test]
    fn spi_and_bitmap_agree_closely() {
        let trace = trace(4);
        let engine = ReplayEngine::new(ReplayConfig::default());
        let b = engine.run(&trace, &mut bitmap());
        let s = engine.run(
            &trace,
            &mut SpiFilter::new(SpiConfig {
                idle_timeout: TimeDelta::from_secs(240.0),
                ..SpiConfig::default()
            }),
        );
        let diff = (b.drop_rate() - s.drop_rate()).abs();
        assert!(
            diff < 0.1,
            "bitmap {} vs spi {}",
            b.drop_rate(),
            s.drop_rate()
        );
    }

    #[test]
    fn drop_rate_series_is_bounded() {
        let trace = trace(5);
        let result = ReplayEngine::new(ReplayConfig::default()).run(&trace, &mut bitmap());
        let series = result.drop_rate_series();
        assert!(!series.is_empty());
        assert!(series.iter().all(|&(_, r)| (0.0..=1.0).contains(&r)));
    }

    fn labeled(trace: &SyntheticTrace) -> Vec<(Packet, Direction)> {
        trace
            .packets
            .iter()
            .map(|lp| (lp.packet.clone(), lp.direction))
            .collect()
    }

    #[test]
    fn pcap_source_replay_matches_in_memory_replay() {
        use upbound_net::pcap::PcapReader;
        use upbound_net::PcapSource;
        let trace = trace(7);
        let bytes =
            upbound_net::pcap::to_bytes(trace.packets.iter().map(|lp| &lp.packet), 65535).unwrap();
        let net: upbound_net::Cidr = "10.0.0.0/16".parse().unwrap();
        let engine = ReplayEngine::new(ReplayConfig::default());
        let expected = engine.run(&trace, &mut bitmap());
        let mut source = PcapSource::new(PcapReader::new(&bytes[..]).unwrap(), net);
        let (result, stats) = engine.run_source(&mut source, &mut bitmap()).unwrap();
        assert_eq!(result, expected);
        assert_eq!(stats.records_ok, trace.packets.len() as u64);
        assert_eq!(stats.errors_total(), 0);
    }

    #[test]
    fn pcap_source_replay_recovers_past_corruption() {
        use upbound_net::pcap::{PcapReader, RecoveryPolicy};
        use upbound_net::{BufferedSource, PcapSource};
        let trace = trace(8);
        let bytes =
            upbound_net::pcap::to_bytes(trace.packets.iter().map(|lp| &lp.packet), 65535).unwrap();
        // Cut into the last record's body: strict aborts, skip recovers
        // the decodable prefix and accounts for the loss.
        let cut = &bytes[..bytes.len() - 7];
        let net: upbound_net::Cidr = "10.0.0.0/16".parse().unwrap();
        let engine = ReplayEngine::new(ReplayConfig::default());

        let mut strict = PcapSource::new(PcapReader::new(cut).unwrap(), net);
        assert!(engine.run_source(&mut strict, &mut bitmap()).is_err());

        let mut skip = PcapSource::new(
            PcapReader::with_policy(cut, RecoveryPolicy::Skip).unwrap(),
            net,
        );
        let (result, stats) = engine.run_source(&mut skip, &mut bitmap()).unwrap();
        let n = trace.packets.len();
        assert_eq!(stats.records_ok, n as u64 - 1);
        assert_eq!(stats.records_skipped, 1);
        assert!(stats.bytes_skipped > 0);
        // The recovered replay is the in-memory replay of the prefix.
        let mut prefix = labeled(&trace);
        prefix.truncate(n - 1);
        let mut prefix = BufferedSource::new(prefix, IngestStats::default());
        let (expected, _) = engine.run_source(&mut prefix, &mut bitmap()).unwrap();
        assert_eq!(result, expected);
    }

    #[test]
    fn checkpointed_replay_matches_plain_and_restores() {
        let trace = trace(9);
        let engine = ReplayEngine::new(ReplayConfig::default());
        let expected = engine.run(&trace, &mut bitmap());

        let dir = std::env::temp_dir().join(format!("upbound-replay-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("filter.snap");

        let mut filter = bitmap();
        let (result, written) = engine
            .run_checkpointed_with(
                &trace,
                &mut filter,
                &path,
                TimeDelta::from_secs(10.0),
                &mut crate::AtomicCheckpointSink,
            )
            .unwrap();
        // The checkpoint hook must not perturb the replay itself.
        assert_eq!(result, expected);
        // A 60 s trace at a 10 s cadence: several periodic checkpoints
        // plus the final one.
        assert!(written >= 4, "only {written} checkpoints written");

        // The final checkpoint restores to the exact end-of-trace state.
        let bytes = std::fs::read(&path).unwrap();
        let mut restored = bitmap();
        let end = trace.packets.last().unwrap().packet.ts();
        let outcome = restored
            .restore_bytes(&bytes, end, TimeDelta::from_secs(3600.0))
            .unwrap();
        assert_eq!(outcome, upbound_core::RestoreOutcome::Warm);
        assert_eq!(restored.stats(), filter.stats());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn batch_size_never_changes_replay_results() {
        let trace = trace(11);
        for block_connections in [true, false] {
            let reference = ReplayEngine::new(ReplayConfig {
                block_connections,
                batch_size: 1,
                ..ReplayConfig::default()
            })
            .run(&trace, &mut bitmap());
            for batch_size in [0usize, 7, 64, 4096] {
                let result = ReplayEngine::new(ReplayConfig {
                    block_connections,
                    batch_size,
                    ..ReplayConfig::default()
                })
                .run(&trace, &mut bitmap());
                assert_eq!(
                    result, reference,
                    "batch {batch_size}, blocking {block_connections}"
                );
            }
        }
    }

    #[test]
    fn subscriber_replay_matches_single_filter_when_one_tenant_owns_the_net() {
        // With exactly one subscriber owning the trace's client network,
        // the table's verdict stream is the standalone filter's.
        let trace = trace(12);
        let engine = ReplayEngine::new(ReplayConfig::default());
        let expected = engine.run(&trace, &mut bitmap());

        let mut table = SubscriberTable::new();
        table
            .add_subscriber(
                "10.0.0.0/16".parse().unwrap(),
                BitmapFilterConfig::paper_evaluation(),
            )
            .unwrap();
        let result = engine.subscribers_impl(&trace, &mut table);
        assert_eq!(
            result,
            ReplayResult {
                filter_name: "subscribers".to_owned(),
                ..expected
            }
        );
        assert_eq!(
            table.per_subscriber_stats()[0].1,
            bitmap_reference_stats(&trace)
        );
    }

    fn bitmap_reference_stats(trace: &SyntheticTrace) -> upbound_core::FilterStats {
        let mut filter = bitmap();
        ReplayEngine::new(ReplayConfig::default()).run(trace, &mut filter);
        filter.stats()
    }

    #[test]
    fn buffered_source_replay_matches_trace_replay() {
        use upbound_net::BufferedSource;
        let trace = trace(15);
        let engine = ReplayEngine::new(ReplayConfig::default());
        let expected = engine.run(&trace, &mut bitmap());
        let mut source = BufferedSource::new(labeled(&trace), IngestStats::default());
        let (result, _stats) = engine.run_source(&mut source, &mut bitmap()).unwrap();
        assert_eq!(result, expected);
    }

    #[test]
    fn blocking_disabled_consults_filter_every_time() {
        let trace = trace(6);
        let config = ReplayConfig {
            block_connections: false,
            ..ReplayConfig::default()
        };
        let result = ReplayEngine::new(config).run(&trace, &mut bitmap());
        assert_eq!(result.blocked_connections, 0);
        // Outbound traffic is never suppressed without blocking.
        assert_eq!(result.post_uplink.total(), result.pre_uplink.total());
    }
}
