//! The dataplane core ([`Dataplane`]): the one place a packet stream is
//! run through the paper's blocked-connection stage and decided by a
//! [`PacketFilter`], one packet at a time.

use std::collections::{HashMap, HashSet};
use upbound_core::{PacketFilter, Verdict};
use upbound_net::{Direction, FiveTuple, Packet, TimeDelta, Timestamp};
use upbound_telemetry::{Stage, StageTracer};

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

/// One packet handed back by the [`Dataplane`] as it is offered.
#[derive(Debug)]
pub struct Settled<'a> {
    /// The packet as it was offered.
    pub packet: &'a Packet,
    /// Its accounting direction, as it was offered.
    pub direction: Direction,
    /// What the dataplane did with it.
    pub fate: Fate,
    /// The captured frame offered with it, if any, as the same slice;
    /// always `None` for a blocked packet.
    pub frame: Option<&'a [u8]>,
}

/// A batch of `batch_size` packets the filter decided, counted since the
/// previous one; packets of blocked connections do not count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decided {
    /// Timestamp of the batch's last packet.
    pub last_ts: Timestamp,
}

/// Running totals of a [`Dataplane`]; every offered packet is settled
/// before [`offer`](Dataplane::offer) returns, so they always agree.
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
    /// Packets passed.
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

    /// Whether the connection of `packet` is blocked.
    #[inline(always)]
    fn is_blocked(&mut self, packet: &Packet) -> bool {
        match self {
            Self::Off => false,
            Self::Permanent(set) => set.contains(&packet.tuple().canonical()),
            Self::Expiring(store) => store.is_blocked(&packet.tuple().canonical(), packet.ts()),
        }
    }

    /// Blocks the connection of `packet` after a drop; whether it was
    /// not blocked.
    fn block(&mut self, packet: &Packet) -> bool {
        match self {
            Self::Off => false,
            Self::Permanent(set) => set.insert(packet.tuple().canonical()),
            Self::Expiring(store) => store.block(packet.tuple().canonical(), packet.ts()),
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

/// The dataplane core: the blocked-connection store in front of a
/// [`PacketFilter`], deciding and settling one packet per
/// [`offer`](Self::offer).
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
/// **Batch size:** nothing is ever staged, so no setting can change a
/// verdict. The batch size only sets how often the caller sweeps
/// timers: [`offer`](Self::offer) reports a [`Decided`] after every
/// `batch_size` packets the filter decided. With a tracer, one packet
/// per batch is timed.
pub struct Dataplane {
    batch_size: usize,
    tracer: Option<StageTracer>,
    /// Packets the filter decided since the last [`Decided`].
    decided: usize,
    blocked: BlockedStore,
    stats: DataplaneStats,
}

impl Dataplane {
    /// A core reporting a [`Decided`] every `batch_size` decided packets
    /// (`0` is treated as `1`), with the blocked-connection stage
    /// `blocking`. With a `tracer`, the filter decision and the settling
    /// of the first decided packet of each batch are timed as
    /// [`Stage::Decide`] and [`Stage::Emit`].
    pub fn new(blocking: Blocking, batch_size: usize, tracer: Option<StageTracer>) -> Self {
        Self {
            batch_size: batch_size.max(1),
            tracer,
            decided: 0,
            blocked: BlockedStore::new(blocking),
            stats: DataplaneStats::default(),
        }
    }

    /// The running totals; see [`DataplaneStats`].
    pub fn stats(&self) -> DataplaneStats {
        DataplaneStats {
            blocked_resident: self.blocked.len() as u64,
            ..self.stats
        }
    }

    /// Decides the next packet in input order and hands it to `settle`
    /// before returning, with the captured `frame` it was offered with
    /// (`None` if it was blocked). A packet of a blocked connection never
    /// reaches the filter; an inbound packet the filter drops blocks its
    /// connection.
    ///
    /// Returns a [`Decided`] when this packet completes a batch of
    /// `batch_size` packets the filter decided.
    ///
    /// # Errors
    ///
    /// The error `settle` returns.
    #[inline(always)]
    pub fn offer<'a, F, E>(
        &mut self,
        filter: &mut F,
        packet: &'a Packet,
        direction: Direction,
        frame: Option<&'a [u8]>,
        settle: impl FnOnce(Settled<'a>) -> Result<(), E>,
    ) -> Result<Option<Decided>, E>
    where
        F: PacketFilter + ?Sized,
    {
        self.stats.packets += 1;
        if direction == Direction::Outbound {
            self.stats.uplink_offered_bits += packet.wire_bits();
        }
        if self.blocked.is_blocked(packet) {
            self.stats.count_settled(packet, direction, Fate::Blocked);
            settle(Settled {
                packet,
                direction,
                fate: Fate::Blocked,
                frame: None,
            })?;
            return Ok(None);
        }
        let tracer = self.tracer.as_ref().filter(|_| self.decided == 0);
        let verdict = {
            let _t = tracer.map(|t| t.scope(Stage::Decide));
            filter.decide(packet, direction)
        };
        let fate = match verdict {
            Verdict::Pass => Fate::Passed,
            Verdict::Drop => {
                if direction == Direction::Inbound && self.blocked.block(packet) {
                    self.stats.blocked_connections += 1;
                }
                Fate::Dropped
            }
        };
        self.stats.count_settled(packet, direction, fate);
        {
            let _t = tracer.map(|t| t.scope(Stage::Emit));
            settle(Settled {
                packet,
                direction,
                fate,
                frame,
            })?;
        }
        self.decided += 1;
        if self.decided < self.batch_size {
            return Ok(None);
        }
        self.decided = 0;
        Ok(Some(Decided {
            last_ts: packet.ts(),
        }))
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
        for p in packets {
            let direction = inside().direction_of(&p.tuple());
            let Ok(_) = core.offer(&mut filter, p, direction, None, |s| {
                settled.push((s.packet.ts(), s.fate));
                Ok::<(), Infallible>(())
            });
        }
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

    /// An unsolicited connection that is dropped and then blocked, and a
    /// solicited one that passes.
    fn blocked_and_solicited() -> [Packet; 5] {
        [
            packet(1.0, (PEER, 6881), (INSIDE, 51413)),
            packet(1.1, (INSIDE, 40000), (PEER, 80)),
            packet(1.2, (INSIDE, 51413), (PEER, 6881)),
            packet(1.3, (PEER, 80), (INSIDE, 40000)),
            packet(1.4, (PEER, 6881), (INSIDE, 51413)),
        ]
    }

    #[test]
    fn every_offer_settles_exactly_the_offered_packet() {
        let packets = blocked_and_solicited();
        let mut filter = BitmapFilter::new(BitmapFilterConfig::paper_evaluation());
        let mut core = Dataplane::new(Blocking::Permanent, 64, None);
        for (i, p) in packets.iter().enumerate() {
            let direction = inside().direction_of(&p.tuple());
            let mut settled = Vec::new();
            let Ok(_) = core.offer(&mut filter, p, direction, None, |s| {
                settled.push((s.packet as *const Packet, s.direction));
                Ok::<(), Infallible>(())
            });
            assert_eq!(settled, [(p as *const Packet, direction)], "packet {i}");
            let stats = core.stats();
            assert_eq!(stats.packets, i as u64 + 1);
            assert_eq!(stats.passed() + stats.dropped, stats.packets);
        }
    }

    #[test]
    fn frames_come_back_with_their_packets() {
        let packets = blocked_and_solicited();
        let frames: Vec<[u8; 3]> = (0..packets.len()).map(|i| [i as u8; 3]).collect();
        let mut filter = BitmapFilter::new(BitmapFilterConfig::paper_evaluation());
        let mut core = Dataplane::new(Blocking::Permanent, 64, None);
        let mut fates = Vec::new();
        for (p, frame) in packets.iter().zip(&frames) {
            let direction = inside().direction_of(&p.tuple());
            let Ok(_) = core.offer(&mut filter, p, direction, Some(frame), |s| {
                match s.fate {
                    Fate::Blocked => assert_eq!(s.frame, None),
                    // Handed back as the offered slice, not a copy.
                    _ => assert!(s.frame.is_some_and(|f| std::ptr::eq(f, frame))),
                }
                fates.push(s.fate);
                Ok::<(), Infallible>(())
            });
        }
        assert_eq!(
            fates,
            [
                Fate::Dropped,
                Fate::Passed,
                Fate::Blocked,
                Fate::Passed,
                Fate::Blocked,
            ]
        );
    }

    #[test]
    fn a_batch_is_decided_every_batch_size_decided_packets() {
        let packets = blocked_and_solicited();
        for batch_size in [1, 2, 3] {
            let mut filter = BitmapFilter::new(BitmapFilterConfig::paper_evaluation());
            let mut core = Dataplane::new(Blocking::Permanent, batch_size, None);
            let mut batches = Vec::new();
            for p in &packets {
                let direction = inside().direction_of(&p.tuple());
                let Ok(decided) =
                    core.offer(
                        &mut filter,
                        p,
                        direction,
                        None,
                        |_| Ok::<(), Infallible>(()),
                    );
                batches.extend(decided);
            }
            // Packets 0, 1 and 3 reach the filter; 2 and 4 are blocked.
            let decided_ts = [packets[0].ts(), packets[1].ts(), packets[3].ts()];
            let expected: Vec<Decided> = decided_ts
                .chunks_exact(batch_size)
                .map(|batch| Decided {
                    last_ts: batch[batch_size - 1],
                })
                .collect();
            assert_eq!(batches, expected, "batch {batch_size}");
        }
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
