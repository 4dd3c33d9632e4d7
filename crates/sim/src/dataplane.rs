//! The dataplane core ([`Dataplane`]): the one place a packet stream is
//! staged into batches, decided by a [`PacketFilter`], and run through
//! the paper's blocked-connection stage.

use std::collections::{HashMap, HashSet};
use std::ops::Range;
use upbound_core::{PacketFilter, Verdict};
use upbound_net::{Direction, FiveTuple, Packet, TimeDelta, Timestamp};
use upbound_telemetry::{Stage, StageTracer};

/// How many packets, per slot of the batch, may wait behind a partly
/// staged batch before it is decided early. Packets of blocked
/// connections wait in line with the staged ones so they settle in
/// input order; this bounds that line under a long run of them.
const QUEUE_PER_BATCH_SLOT: usize = 16;

/// How long the blocked-connection stage keeps a connection blocked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Blocking {
    /// No blocked-connection stage: every packet reaches the filter.
    Off,
    /// A blocked connection stays blocked for the life of the core: the
    /// paper's setup, for a finite capture.
    Permanent,
    /// For a long-lived dataplane: a blocked connection is released once
    /// none of its packets has been offered for `idle` of trace time, and
    /// the store holds at most [`EXPIRING_CAPACITY`](Self::EXPIRING_CAPACITY)
    /// connections, releasing the least recently seen when it fills.
    Expiring {
        /// Trace time without a packet after which a connection is
        /// released.
        idle: TimeDelta,
    },
}

impl Blocking {
    /// Most connections a [`Blocking::Expiring`] store holds (a few MiB).
    pub const EXPIRING_CAPACITY: usize = 1 << 18;
}

/// What the dataplane finally did with one packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fate {
    /// The filter passed it.
    Passed,
    /// The filter dropped it.
    Dropped,
    /// Its connection was already blocked, so it never reached the filter.
    Blocked,
}

/// One packet handed back by the [`Dataplane`], in input order.
#[derive(Debug)]
pub struct Settled<'a> {
    /// The packet as it was offered.
    pub packet: &'a Packet,
    /// Its accounting direction, as it was offered.
    pub direction: Direction,
    /// What the dataplane did with it.
    pub fate: Fate,
    /// The captured frame offered with it, if any; always `None` for a
    /// blocked packet.
    pub frame: Option<&'a [u8]>,
}

/// A batch the filter decided while a packet was offered or the core
/// was flushed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decided {
    /// Timestamp of the batch's last packet.
    pub last_ts: Timestamp,
    /// Whether the batch was decided because it reached the batch size
    /// (rather than for a hazard, a long queue, or an explicit flush).
    pub full: bool,
}

/// Running totals of a [`Dataplane`]. `packets` and
/// `uplink_offered_bits` count packets as they are offered, the rest as
/// they are settled, so the totals agree once the core is flushed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DataplaneStats {
    /// Packets offered.
    pub packets: u64,
    /// Packets dropped by the filter or blocked, in either direction.
    pub dropped: u64,
    /// Times a connection entered the blocked-connection store; a
    /// connection released by [`Blocking::Expiring`] and blocked again
    /// counts twice.
    pub blocked_connections: u64,
    /// Connections in the blocked-connection store now.
    pub blocked_resident: u64,
    /// Wire bits of every outbound packet offered.
    pub uplink_offered_bits: u64,
    /// Wire bits of the outbound packets passed.
    pub uplink_passed_bits: u64,
}

impl DataplaneStats {
    /// Packets passed, once every offered packet has been settled.
    pub fn passed(&self) -> u64 {
        self.packets - self.dropped
    }

    #[inline(always)]
    fn count_settled(&mut self, packet: &Packet, direction: Direction, fate: Fate) {
        if fate != Fate::Passed {
            self.dropped += 1;
        } else if direction == Direction::Outbound {
            self.uplink_passed_bits += packet.wire_bits();
        }
    }
}

/// The blocked-connection store, keyed by canonical socket pair.
enum BlockedStore {
    Off,
    Permanent(HashSet<FiveTuple>),
    Expiring(ExpiringStore),
}

impl BlockedStore {
    fn new(blocking: Blocking) -> Self {
        match blocking {
            Blocking::Off => Self::Off,
            Blocking::Permanent => Self::Permanent(HashSet::new()),
            Blocking::Expiring { idle } => Self::Expiring(ExpiringStore {
                last_seen: HashMap::new(),
                idle,
                watermark: Timestamp::ZERO,
                next_sweep: Timestamp::ZERO + idle,
            }),
        }
    }

    /// Whether `conn` is blocked for a packet offered at `ts`.
    #[inline(always)]
    fn is_blocked(&mut self, conn: &FiveTuple, ts: Timestamp) -> bool {
        match self {
            Self::Off => false,
            Self::Permanent(set) => set.contains(conn),
            Self::Expiring(store) => store.is_blocked(conn, ts),
        }
    }

    /// Blocks `conn` after a drop at `ts`; whether it was not blocked.
    fn block(&mut self, conn: FiveTuple, ts: Timestamp) -> bool {
        match self {
            Self::Off => false,
            Self::Permanent(set) => set.insert(conn),
            Self::Expiring(store) => store.block(conn, ts),
        }
    }

    fn len(&self) -> usize {
        match self {
            Self::Off => 0,
            Self::Permanent(set) => set.len(),
            Self::Expiring(store) => store.last_seen.len(),
        }
    }
}

/// The [`Blocking::Expiring`] store. Whether a connection has expired
/// is judged against the watermark (the latest timestamp offered), so
/// sweeping expired entries out early never changes a verdict.
struct ExpiringStore {
    /// Each blocked connection's latest packet.
    last_seen: HashMap<FiveTuple, Timestamp>,
    idle: TimeDelta,
    watermark: Timestamp,
    next_sweep: Timestamp,
}

impl ExpiringStore {
    fn is_blocked(&mut self, conn: &FiveTuple, ts: Timestamp) -> bool {
        self.watermark = self.watermark.max(ts);
        if self.watermark >= self.next_sweep {
            self.sweep();
        }
        let Some(seen) = self.last_seen.get_mut(conn) else {
            return false;
        };
        if self.watermark.saturating_since(*seen) < self.idle {
            *seen = (*seen).max(ts);
            return true;
        }
        self.last_seen.remove(conn);
        false
    }

    fn block(&mut self, conn: FiveTuple, ts: Timestamp) -> bool {
        if self.last_seen.len() >= Blocking::EXPIRING_CAPACITY {
            self.sweep();
        }
        if self.last_seen.len() >= Blocking::EXPIRING_CAPACITY {
            // Release the least recently seen quarter, so a store kept
            // full costs one pass per `EXPIRING_CAPACITY / 4` blocks.
            let mut seen: Vec<Timestamp> = self.last_seen.values().copied().collect();
            let quarter = seen.len() / 4;
            let (_, &mut cutoff, _) = seen.select_nth_unstable(quarter);
            self.last_seen.retain(|_, seen| *seen > cutoff);
        }
        self.last_seen.insert(conn, ts).is_none()
    }

    /// Releases every connection idle as of the watermark.
    fn sweep(&mut self) {
        let (now, idle) = (self.watermark, self.idle);
        self.last_seen
            .retain(|_, seen| now.saturating_since(*seen) < idle);
        self.next_sweep = now + idle;
    }
}

/// A packet waiting to be settled.
enum Slot {
    /// The next packet of the staged batch, with its span in the frame
    /// arena.
    Staged(Option<Range<usize>>),
    /// A packet of a blocked connection, queued behind the staged batch.
    Blocked(Packet, Direction),
}

/// The dataplane core: the staged batch and its frame arena, the
/// blocked-connection store, and the batched filter call.
///
/// `upbound filter` (one `--inside` network or a `--subscribers`
/// table), [`PipelineRunner::serve`](crate::PipelineRunner::serve) and
/// the [`ReplayEngine`](crate::ReplayEngine) all decide through it; each
/// keeps only its own accounting of the packets it hands back.
///
/// **Blocking** (the Figure 9 setup): once an inbound packet of a
/// connection is dropped, its canonical socket pair is stored, and every
/// later packet of that connection, in either direction, is dropped
/// without consulting the filter, for as long as the [`Blocking`]
/// policy keeps it stored.
///
/// **Batching:** packets reach the filter through
/// [`PacketFilter::decide_batch`]. One hazard rule keeps that exact: a
/// packet whose connection has an *inbound* packet staged is only
/// admitted after the batch is decided, because that packet's verdict
/// may block it. Outbound packets always pass, so they never block
/// anything. A batched run therefore decides exactly what a
/// packet-at-a-time run decides, at every batch size (for
/// [`Blocking::Expiring`], while the store stays below its capacity).
///
/// Every offered packet is handed back exactly once, in input order,
/// with its [`Fate`].
pub struct Dataplane {
    batch_size: usize,
    tracer: Option<StageTracer>,
    /// The packets that reach the filter, in input order.
    staged: Vec<(Packet, Direction)>,
    /// Every packet not yet settled, in input order. Empty, or led by a
    /// staged packet: a blocked packet with nothing ahead of it settles
    /// at once.
    queue: Vec<Slot>,
    /// Captured frames of the staged packets, reused from batch to batch.
    frames: Vec<u8>,
    /// Canonical tuples of the staged inbound packets.
    hazards: HashSet<FiveTuple>,
    verdicts: Vec<Verdict>,
    blocked: BlockedStore,
    stats: DataplaneStats,
}

impl Dataplane {
    /// A core deciding up to `batch_size` packets per filter call (`0`
    /// is treated as `1`), with the blocked-connection stage `blocking`.
    /// With a `tracer`, filter calls are timed as [`Stage::Decide`] and
    /// settling as [`Stage::Emit`].
    pub fn new(blocking: Blocking, batch_size: usize, tracer: Option<StageTracer>) -> Self {
        let batch_size = batch_size.max(1);
        Self {
            batch_size,
            tracer,
            staged: Vec::with_capacity(batch_size),
            queue: Vec::with_capacity(batch_size),
            frames: Vec::new(),
            hazards: HashSet::new(),
            verdicts: Vec::with_capacity(batch_size),
            blocked: BlockedStore::new(blocking),
            stats: DataplaneStats::default(),
        }
    }

    /// Changes the batch size (`0` is treated as `1`) from the next
    /// packet staged on.
    pub fn set_batch_size(&mut self, batch_size: usize) {
        self.batch_size = batch_size.max(1);
    }

    /// The running totals; see [`DataplaneStats`].
    pub fn stats(&self) -> DataplaneStats {
        DataplaneStats {
            blocked_resident: self.blocked.len() as u64,
            ..self.stats
        }
    }

    /// Offers the next packet in input order, with its captured `frame`
    /// if the caller wants it back.
    ///
    /// Every packet this settles, the offered one included when its
    /// connection is blocked and nothing is staged, goes to `settle` in
    /// input order. Returns the batch the filter decided on the way, if
    /// any: at most one per call.
    ///
    /// # Errors
    ///
    /// The first error `settle` returns; the packets after it in the
    /// batch are discarded.
    // The per-packet path is inlined into the caller's read loop and the
    // batch decision is kept out of line: on the flood workload (mostly
    // two- or three-packet batches cut by hazards) that measured about
    // 20 ns/packet faster than leaving both to the compiler (2-vCPU VM).
    #[inline(always)]
    pub fn offer<F, E>(
        &mut self,
        filter: &mut F,
        packet: Packet,
        direction: Direction,
        frame: Option<&[u8]>,
        settle: &mut impl FnMut(Settled<'_>) -> Result<(), E>,
    ) -> Result<Option<Decided>, E>
    where
        F: PacketFilter + ?Sized,
    {
        let mut decided = None;
        self.stats.packets += 1;
        if direction == Direction::Outbound {
            self.stats.uplink_offered_bits += packet.wire_bits();
        }
        if !matches!(self.blocked, BlockedStore::Off) {
            let conn = packet.tuple().canonical();
            if self.hazards.contains(&conn) {
                decided = self.flush(filter, settle)?;
            }
            if self.blocked.is_blocked(&conn, packet.ts()) {
                if self.queue.is_empty() {
                    self.stats.count_settled(&packet, direction, Fate::Blocked);
                    settle(Settled {
                        packet: &packet,
                        direction,
                        fate: Fate::Blocked,
                        frame: None,
                    })?;
                } else {
                    self.queue.push(Slot::Blocked(packet, direction));
                    if self.queue.len() >= self.batch_size * QUEUE_PER_BATCH_SLOT {
                        decided = self.flush(filter, settle)?;
                    }
                }
                return Ok(decided);
            }
            if direction == Direction::Inbound {
                self.hazards.insert(conn);
            }
        }
        let frame = frame.map(|frame| {
            let start = self.frames.len();
            self.frames.extend_from_slice(frame);
            start..self.frames.len()
        });
        self.queue.push(Slot::Staged(frame));
        self.staged.push((packet, direction));
        if self.staged.len() >= self.batch_size {
            let full = self.flush(filter, settle)?;
            return Ok(full.map(|d| Decided { full: true, ..d }));
        }
        Ok(decided)
    }

    /// Decides the staged batch and settles every waiting packet, in
    /// input order. Returns the batch decided, or `None` when nothing
    /// was staged.
    ///
    /// # Errors
    ///
    /// The first error `settle` returns; the packets after it in the
    /// batch are discarded.
    #[inline(never)]
    pub fn flush<F, E>(
        &mut self,
        filter: &mut F,
        settle: &mut impl FnMut(Settled<'_>) -> Result<(), E>,
    ) -> Result<Option<Decided>, E>
    where
        F: PacketFilter + ?Sized,
    {
        let Some((last, _)) = self.staged.last() else {
            return Ok(None);
        };
        let decided = Decided {
            last_ts: last.ts(),
            full: false,
        };
        self.verdicts.clear();
        {
            let _t = self.tracer.as_ref().map(|t| t.scope(Stage::Decide));
            filter.decide_batch(&self.staged, &mut self.verdicts);
        }
        let _t = self.tracer.as_ref().map(|t| t.scope(Stage::Emit));
        self.hazards.clear();
        let mut decided_packets = self.staged.drain(..).zip(self.verdicts.drain(..));
        for slot in self.queue.drain(..) {
            let (packet, direction, fate, frame) = match slot {
                Slot::Blocked(packet, direction) => (packet, direction, Fate::Blocked, None),
                Slot::Staged(frame) => {
                    let Some(((packet, direction), verdict)) = decided_packets.next() else {
                        unreachable!("every staged slot has a staged packet")
                    };
                    let fate = match verdict {
                        Verdict::Pass => Fate::Passed,
                        Verdict::Drop => {
                            if direction == Direction::Inbound
                                && self.blocked.block(packet.tuple().canonical(), packet.ts())
                            {
                                self.stats.blocked_connections += 1;
                            }
                            Fate::Dropped
                        }
                    };
                    (packet, direction, fate, frame)
                }
            };
            self.stats.count_settled(&packet, direction, fate);
            settle(Settled {
                packet: &packet,
                direction,
                fate,
                frame: frame.map(|span| &self.frames[span]),
            })?;
        }
        self.frames.clear();
        Ok(Some(decided))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::convert::Infallible;
    use std::net::SocketAddrV4;
    use upbound_core::{BitmapFilter, BitmapFilterConfig};
    use upbound_net::{Cidr, Protocol, TcpFlags};

    const INSIDE: [u8; 4] = [10, 0, 0, 1];
    const PEER: [u8; 4] = [198, 51, 100, 7];

    fn packet(ts: f64, src: ([u8; 4], u16), dst: ([u8; 4], u16)) -> Packet {
        Packet::tcp(
            Timestamp::from_secs(ts),
            FiveTuple::new(
                Protocol::Tcp,
                SocketAddrV4::new(src.0.into(), src.1),
                SocketAddrV4::new(dst.0.into(), dst.1),
            ),
            TcpFlags::ACK,
            Vec::new(),
        )
    }

    fn inside() -> Cidr {
        "10.0.0.0/24".parse().expect("valid cidr")
    }

    /// Offers `packets` through a fresh core and returns every settled
    /// packet's (timestamp, fate), plus the final totals.
    fn run(
        packets: &[Packet],
        blocking: Blocking,
        batch_size: usize,
    ) -> (Vec<(Timestamp, Fate)>, DataplaneStats) {
        let mut filter = BitmapFilter::new(BitmapFilterConfig::paper_evaluation());
        let mut core = Dataplane::new(blocking, batch_size, None);
        let mut settled = Vec::new();
        let mut settle = |s: Settled<'_>| {
            settled.push((s.packet.ts(), s.fate));
            Ok::<(), Infallible>(())
        };
        for p in packets {
            let direction = inside().direction_of(&p.tuple());
            let Ok(_) = core.offer(&mut filter, p.clone(), direction, None, &mut settle);
        }
        let Ok(_) = core.flush(&mut filter, &mut settle);
        (settled, core.stats())
    }

    fn fates(settled: &[(Timestamp, Fate)]) -> Vec<Fate> {
        settled.iter().map(|&(_, fate)| fate).collect()
    }

    #[test]
    fn unsolicited_drop_blocks_both_directions_in_input_order() {
        let unsolicited = packet(1.0, (PEER, 6881), (INSIDE, 51413));
        let reply = packet(1.1, (INSIDE, 51413), (PEER, 6881));
        let again = packet(1.2, (PEER, 6881), (INSIDE, 51413));
        let solicited_out = packet(1.3, (INSIDE, 40000), (PEER, 80));
        let solicited_in = packet(1.4, (PEER, 80), (INSIDE, 40000));
        let packets = [unsolicited, reply, again, solicited_out, solicited_in];
        for batch_size in [1, 2, 64] {
            let (settled, stats) = run(&packets, Blocking::Permanent, batch_size);
            let order: Vec<Timestamp> = settled.iter().map(|&(ts, _)| ts).collect();
            let offered: Vec<Timestamp> = packets.iter().map(Packet::ts).collect();
            assert_eq!(order, offered, "batch {batch_size}");
            assert_eq!(
                fates(&settled),
                [
                    Fate::Dropped,
                    Fate::Blocked,
                    Fate::Blocked,
                    Fate::Passed,
                    Fate::Passed,
                ],
                "batch {batch_size}"
            );
            assert_eq!(stats.packets, 5);
            assert_eq!(stats.dropped, 3);
            assert_eq!(stats.blocked_connections, 1);
            assert_eq!(
                stats.uplink_offered_bits,
                packets[1].wire_bits() + packets[3].wire_bits()
            );
            assert_eq!(stats.uplink_passed_bits, packets[3].wire_bits());
        }
    }

    #[test]
    fn without_blocking_every_packet_reaches_the_filter() {
        let packets = [
            packet(1.0, (PEER, 6881), (INSIDE, 51413)),
            packet(1.1, (INSIDE, 51413), (PEER, 6881)),
            packet(1.2, (PEER, 6881), (INSIDE, 51413)),
        ];
        let (settled, stats) = run(&packets, Blocking::Off, 64);
        // The outbound reply marks the bitmap, so the next inbound
        // packet of the connection is solicited.
        assert_eq!(fates(&settled), [Fate::Dropped, Fate::Passed, Fate::Passed]);
        assert_eq!(stats.blocked_connections, 0);
    }

    #[test]
    fn frames_come_back_with_their_packets() {
        let packets = [
            packet(1.0, (INSIDE, 40000), (PEER, 80)),
            packet(1.1, (PEER, 6881), (INSIDE, 51413)),
            packet(1.2, (PEER, 80), (INSIDE, 40000)),
        ];
        let mut filter = BitmapFilter::new(BitmapFilterConfig::paper_evaluation());
        let mut core = Dataplane::new(Blocking::Permanent, 64, None);
        let mut frames = Vec::new();
        let mut settle = |s: Settled<'_>| {
            frames.push(s.frame.map(<[u8]>::to_vec));
            Ok::<(), Infallible>(())
        };
        for (i, p) in packets.iter().enumerate() {
            let direction = inside().direction_of(&p.tuple());
            let frame = [i as u8; 3];
            let Ok(decided) =
                core.offer(&mut filter, p.clone(), direction, Some(&frame), &mut settle);
            assert_eq!(decided, None);
        }
        let Ok(decided) = core.flush(&mut filter, &mut settle);
        assert_eq!(
            decided,
            Some(Decided {
                last_ts: packets[2].ts(),
                full: false
            })
        );
        assert_eq!(
            frames,
            [Some(vec![0; 3]), Some(vec![1; 3]), Some(vec![2; 3])]
        );
    }

    #[test]
    fn a_long_run_of_blocked_packets_is_decided_early() {
        let mut packets = vec![
            packet(1.0, (PEER, 6881), (INSIDE, 51413)),
            packet(1.1, (PEER, 6882), (INSIDE, 51414)),
        ];
        // Batch size 2 stages both and decides them: two blocks. Then a
        // fresh packet is staged, and a long run of blocked packets
        // queues behind it until the queue bound forces a decision.
        packets.push(packet(2.0, (INSIDE, 40000), (PEER, 80)));
        for i in 0..2 * QUEUE_PER_BATCH_SLOT {
            packets.push(packet(3.0 + i as f64 * 1e-3, (PEER, 6881), (INSIDE, 51413)));
        }
        let mut filter = BitmapFilter::new(BitmapFilterConfig::paper_evaluation());
        let mut core = Dataplane::new(Blocking::Permanent, 2, None);
        let mut settled = 0usize;
        let mut early = 0;
        let mut settle = |_: Settled<'_>| {
            settled += 1;
            Ok::<(), Infallible>(())
        };
        for p in &packets {
            let direction = inside().direction_of(&p.tuple());
            let Ok(decided) = core.offer(&mut filter, p.clone(), direction, None, &mut settle);
            if decided.is_some_and(|d| !d.full) {
                early += 1;
            }
        }
        assert_eq!(early, 1);
        let Ok(_) = core.flush(&mut filter, &mut settle);
        assert_eq!(settled, packets.len());
    }

    const EXPIRING: Blocking = Blocking::Expiring {
        idle: TimeDelta::from_micros(20_000_000),
    };

    #[test]
    fn an_expiring_store_releases_a_connection_once_idle() {
        let packets = [
            packet(1.0, (PEER, 6881), (INSIDE, 51413)),
            // Seen 15 s later: still blocked, and the idle clock restarts.
            packet(16.0, (INSIDE, 51413), (PEER, 6881)),
            // 19 s after that: still blocked.
            packet(35.0, (INSIDE, 51413), (PEER, 6881)),
            // 21 s of silence: released, so the reply reaches the filter.
            packet(56.0, (INSIDE, 51413), (PEER, 6881)),
        ];
        let (settled, stats) = run(&packets, EXPIRING, 64);
        assert_eq!(
            fates(&settled),
            [Fate::Dropped, Fate::Blocked, Fate::Blocked, Fate::Passed]
        );
        assert_eq!(stats.blocked_connections, 1);
        assert_eq!(stats.blocked_resident, 0);
        // Kept for good, the connection never reaches the filter again.
        let (settled, stats) = run(&packets, Blocking::Permanent, 64);
        assert_eq!(
            fates(&settled),
            [Fate::Dropped, Fate::Blocked, Fate::Blocked, Fate::Blocked]
        );
        assert_eq!(stats.blocked_resident, 1);
    }

    #[test]
    fn an_expiring_store_releases_idle_connections_in_bulk() {
        // One new unsolicited connection every 10 ms for 100 s.
        let packets: Vec<Packet> = (0..10_000u16)
            .map(|i| {
                let peer = [198, 51, (i >> 8) as u8, i as u8];
                packet(f64::from(i) * 0.01, (peer, 6881), (INSIDE, 51413))
            })
            .collect();
        let (settled, stats) = run(&packets, Blocking::Permanent, 64);
        assert!(settled.iter().all(|&(_, fate)| fate == Fate::Dropped));
        assert_eq!(stats.blocked_resident, 10_000);

        // At most two idle windows of connections stay: one window,
        // plus those that expired since the last sweep. (The capacity
        // is exercised through `PipelineRunner::serve`.)
        let (settled, stats) = run(&packets, EXPIRING, 64);
        assert!(settled.iter().all(|&(_, fate)| fate == Fate::Dropped));
        assert_eq!(stats.blocked_connections, 10_000);
        assert!(
            (2_000..=4_000).contains(&stats.blocked_resident),
            "{stats:?}"
        );
    }
}
