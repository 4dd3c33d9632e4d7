//! Filter observation hooks.
//!
//! [`BitmapFilter`](crate::BitmapFilter) (and the SPI filter in
//! `upbound-spi`) is generic over a [`FilterObserver`] that gets called
//! on every packet decision and every rotation. The default observer is
//! [`NoopObserver`], whose empty inline methods monomorphize away — the
//! uninstrumented hot path pays nothing for the hook (verified by the
//! `filter_perf` benchmark's `noop_observer_overhead` group).
//!
//! [`TelemetryObserver`] is the standard production observer: it
//! publishes counters and gauges into an
//! [`upbound_telemetry::Registry`] and appends structured
//! [`FilterEvent`]s to a fixed-capacity ring-buffer journal.

use crate::overload::{OverloadEvent, OverloadState};
use crate::{ThroughputMonitor, Verdict};
use std::sync::Arc;
use upbound_net::{FiveTuple, Timestamp};
use upbound_telemetry::{
    flow_hash, Counter, DropForensics, DropReason, DumpTrigger, EventJournal, FilterEvent,
    FilterEventKind, FlightRecorder, ForensicReason, Gauge, Registry,
};

/// Context handed to [`FilterObserver::on_inbound`] for every inbound
/// packet decision.
///
/// The throughput monitor is passed by reference rather than as a
/// precomputed rate so that observers which ignore it (the common case
/// for sampling observers, and always for [`NoopObserver`]) never pay
/// for the rate computation.
#[derive(Debug)]
pub struct InboundDecision<'a> {
    /// Packet timestamp.
    pub now: Timestamp,
    /// The verdict reached.
    pub verdict: Verdict,
    /// The drop probability `P_d` the drop draws used. The bitmap
    /// filter derives it on a miss only and reports `0.0` for hits,
    /// which pass before any draw.
    pub p_d: f64,
    /// `true` when the tuple was found in filter state (bitmap hit or
    /// flow-table hit); such packets always pass.
    pub known: bool,
    /// Number of independent drop draws the packet was exposed to: the
    /// unmarked hashed bits for the bitmap filter (Algorithm 2), or 1
    /// for an SPI table miss. Zero for hits.
    pub drop_draws: usize,
    /// `true` when the draws said *drop* but the packet passed anyway
    /// because the filter was inside its warm-up grace period
    /// ([`FailMode::Open`](crate::FailMode), not yet armed).
    pub fail_open: bool,
    /// `true` while the filter is inside its warm-up window after a
    /// cold start (either fail mode). Under fail-closed this tags
    /// drops whose real cause is empty post-restart state rather than
    /// genuinely unsolicited traffic.
    pub warming: bool,
    /// The filter key the decision hashed (borrowed; observers that
    /// ignore it pay nothing, forensic observers hash it on drops).
    pub key: &'a [u8],
    /// Bitmap rotation epoch (engine tick count) at decision time.
    pub rotation_epoch: u64,
    /// The filter's uplink throughput monitor.
    pub monitor: &'a ThroughputMonitor,
}

impl InboundDecision<'_> {
    /// Classifies a drop: a hard-limit drop (`P_d >= 1`, the packet is
    /// unsolicited and the policy is saturated) versus a probabilistic
    /// RED-style early drop (`0 < P_d < 1`). `None` for passes.
    pub fn drop_reason(&self) -> Option<DropReason> {
        match self.verdict {
            Verdict::Pass => None,
            Verdict::Drop if self.p_d >= 1.0 => Some(DropReason::UnsolicitedMiss),
            Verdict::Drop => Some(DropReason::RandomEarlyDrop),
        }
    }

    /// Forensics-grade attribution: why this decision is worth a
    /// [`DropForensics`] record. `None` for plain passes.
    ///
    /// Drops during the warm-up window are attributed to
    /// [`ForensicReason::FailClosedWarmup`] (empty post-restart state,
    /// only reachable under fail-closed policy — fail-open passes
    /// instead); would-be drops passed inside a fail-open grace window
    /// are recorded as [`ForensicReason::QuarantineFailOpen`] so the
    /// degraded window stays auditable.
    pub fn forensic_reason(&self) -> Option<ForensicReason> {
        match self.verdict {
            // A hard-limit drop during the warm window is attributable
            // to empty post-restart state; a RED draw is still the
            // draw's doing regardless of warm-up.
            Verdict::Drop if self.p_d >= 1.0 && self.warming => {
                Some(ForensicReason::FailClosedWarmup)
            }
            Verdict::Drop if self.p_d >= 1.0 => Some(ForensicReason::BitmapMiss),
            Verdict::Drop => Some(ForensicReason::PdDraw),
            Verdict::Pass if self.fail_open => Some(ForensicReason::QuarantineFailOpen),
            Verdict::Pass => None,
        }
    }
}

/// Context handed to [`FilterObserver::on_rotation`] when the rotation
/// timer (bitmap) or purge timer (SPI) fires.
#[derive(Debug)]
pub struct RotationEvent<'a> {
    /// The scheduled time of this rotation (not the packet time that
    /// triggered catching up).
    pub now: Timestamp,
    /// Total rotations (or purge sweeps) performed so far, this one
    /// included.
    pub rotations: u64,
    /// The filter's uplink throughput monitor.
    pub monitor: &'a ThroughputMonitor,
    /// The drop probability `P_d` in force at rotation time.
    pub p_d: f64,
}

/// Observation hooks called by the filters.
///
/// All methods have empty default bodies, so an observer only
/// implements what it cares about.
pub trait FilterObserver {
    /// `true` only for [`NoopObserver`]: every hook is a no-op, so the
    /// filter may take concurrent (`&self`) decision paths that skip
    /// observer dispatch entirely. Observers with real hooks keep the
    /// default `false` and are driven exclusively through `&mut` entry
    /// points.
    const IS_NOOP: bool = false;

    /// An outbound packet was observed (always passed).
    #[inline]
    fn on_outbound(&mut self, tuple: &FiveTuple, now: Timestamp) {
        let _ = (tuple, now);
    }

    /// An inbound packet was checked.
    #[inline]
    fn on_inbound(&mut self, decision: &InboundDecision<'_>) {
        let _ = decision;
    }

    /// The rotation (or purge) timer fired.
    #[inline]
    fn on_rotation(&mut self, rotation: &RotationEvent<'_>) {
        let _ = rotation;
    }

    /// The filter (re)started with empty memory at `now`; under
    /// fail-open it suppresses drops until `armed_at`.
    #[inline]
    fn on_cold_start(&mut self, now: Timestamp, armed_at: Timestamp) {
        let _ = (now, armed_at);
    }

    /// The warm-up grace period ended at `now`; drops are armed.
    #[inline]
    fn on_armed(&mut self, now: Timestamp) {
        let _ = now;
    }

    /// The overload ladder changed rung (see [`crate::overload`]).
    #[inline]
    fn on_overload(&mut self, event: &OverloadEvent) {
        let _ = event;
    }
}

/// The zero-cost default observer: every hook is an empty `#[inline]`
/// method, so `BitmapFilter<NoopObserver>` compiles to the same code as
/// a filter without hooks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopObserver;

impl FilterObserver for NoopObserver {
    const IS_NOOP: bool = true;
}

/// Bridges filter events into `upbound-telemetry`: registry-backed
/// counters/gauges plus a ring-buffer journal of [`FilterEvent`]s.
///
/// Metric names follow `upbound_<scope>_<name>`, where `scope` is given
/// at construction (`"core"` for the bitmap filter, `"spi"` for the SPI
/// comparison filter).
#[derive(Debug, Clone)]
pub struct TelemetryObserver {
    journal: EventJournal<FilterEvent>,
    forensics: EventJournal<DropForensics>,
    flight: Option<FlightRecorder>,
    outbound_total: Arc<Counter>,
    inbound_pass_total: Arc<Counter>,
    drops_unsolicited_total: Arc<Counter>,
    drops_red_total: Arc<Counter>,
    rotations_total: Arc<Counter>,
    fail_open_passes_total: Arc<Counter>,
    cold_starts_total: Arc<Counter>,
    warmup_armed_total: Arc<Counter>,
    overload_transitions_total: Arc<Counter>,
    drop_probability: Arc<Gauge>,
    uplink_bps: Arc<Gauge>,
    overload_state: Arc<Gauge>,
}

/// Default number of events the journal retains.
pub const DEFAULT_JOURNAL_CAPACITY: usize = 1024;

impl TelemetryObserver {
    /// Registers this observer's metrics under
    /// `upbound_<scope>_*` in `registry` and sizes the event journal.
    ///
    /// # Panics
    ///
    /// Panics if `scope` is not lowercase snake_case, if a metric of
    /// the same name was already registered with a different type, or
    /// if `journal_capacity` is zero.
    pub fn new(registry: &Registry, scope: &str, journal_capacity: usize) -> Self {
        let name = |metric: &str| format!("upbound_{scope}_{metric}");
        TelemetryObserver {
            journal: EventJournal::with_capacity(journal_capacity),
            forensics: EventJournal::with_capacity(journal_capacity),
            flight: None,
            outbound_total: registry.counter(
                &name("outbound_packets_total"),
                "Outbound packets observed (marked and passed)",
            ),
            inbound_pass_total: registry
                .counter(&name("inbound_pass_total"), "Inbound packets passed"),
            drops_unsolicited_total: registry.counter(
                &name("drops_unsolicited_total"),
                "Inbound drops at the hard limit (P_d >= 1): unsolicited misses",
            ),
            drops_red_total: registry.counter(
                &name("drops_red_total"),
                "Inbound drops from random early drop (0 < P_d < 1)",
            ),
            rotations_total: registry.counter(
                &name("rotations_total"),
                "Bitmap rotations (or SPI purge sweeps) performed",
            ),
            fail_open_passes_total: registry.counter(
                &name("fail_open_passes_total"),
                "Would-be drops passed because the filter was in warm-up grace (fail-open)",
            ),
            cold_starts_total: registry.counter(
                &name("cold_starts_total"),
                "Cold starts: fresh or stale-snapshot restarts with empty filter memory",
            ),
            warmup_armed_total: registry.counter(
                &name("warmup_armed_total"),
                "Warm-up grace periods that ended (filter armed)",
            ),
            overload_transitions_total: registry.counter(
                &name("overload_transitions_total"),
                "Overload-ladder rung transitions (saturation sentinel)",
            ),
            drop_probability: registry.gauge(
                &name("drop_probability"),
                "Drop probability P_d from measured uplink throughput, refreshed at each miss and rotation",
            ),
            uplink_bps: registry.gauge(
                &name("uplink_bps"),
                "Uplink throughput over the monitor window, bits/second, refreshed at each miss and rotation",
            ),
            overload_state: registry.gauge(
                &name("overload_state"),
                "Overload-ladder rung (0 = normal, 1 = pressure, 2 = saturated)",
            ),
        }
    }

    /// Same as [`TelemetryObserver::new`] with the default journal size.
    pub fn with_default_journal(registry: &Registry, scope: &str) -> Self {
        TelemetryObserver::new(registry, scope, DEFAULT_JOURNAL_CAPACITY)
    }

    /// Tees every journaled event and forensics record into `flight`,
    /// so the black box sees the same history this observer retains.
    pub fn with_flight_recorder(mut self, flight: FlightRecorder) -> Self {
        self.flight = Some(flight);
        self
    }

    /// The recorded event journal (oldest → newest).
    pub fn journal(&self) -> &EventJournal<FilterEvent> {
        &self.journal
    }

    /// The recorded drop-forensics journal (oldest → newest).
    pub fn forensics(&self) -> &EventJournal<DropForensics> {
        &self.forensics
    }

    fn journal_event(&mut self, event: FilterEvent) {
        if let Some(flight) = &self.flight {
            flight.record_event(event);
        }
        self.journal.record(event);
    }
}

impl FilterObserver for TelemetryObserver {
    fn on_outbound(&mut self, _tuple: &FiveTuple, _now: Timestamp) {
        self.outbound_total.inc();
    }

    fn on_inbound(&mut self, decision: &InboundDecision<'_>) {
        if decision.known {
            // Hits carry no `P_d` and are the bulk of inbound traffic;
            // the gauges keep the last miss's or rotation's values
            // rather than summing the monitor window per packet.
            self.inbound_pass_total.inc();
            return;
        }
        let uplink = decision.monitor.rate_bps(decision.now);
        self.drop_probability.set(decision.p_d);
        self.uplink_bps.set(uplink);
        if decision.fail_open {
            self.fail_open_passes_total.inc();
        }
        let kind = match decision.drop_reason() {
            None => {
                self.inbound_pass_total.inc();
                FilterEventKind::Pass
            }
            Some(reason) => {
                match reason {
                    DropReason::UnsolicitedMiss => self.drops_unsolicited_total.inc(),
                    DropReason::RandomEarlyDrop => self.drops_red_total.inc(),
                }
                FilterEventKind::Drop { reason }
            }
        };
        // Passes are high-volume and carry no more information than the
        // counters; the journal keeps the decisions worth replaying —
        // drops — plus rotations (recorded below).
        if !matches!(kind, FilterEventKind::Pass) {
            self.journal_event(FilterEvent {
                at_micros: decision.now.as_micros(),
                kind,
                drop_probability: decision.p_d,
                uplink_bps: uplink,
            });
        }
        // Forensics: drops plus fail-open would-be drops. The flow key
        // is hashed only here, so the common pass path never pays.
        if let Some(reason) = decision.forensic_reason() {
            let record = DropForensics {
                at_micros: decision.now.as_micros(),
                flow_hash: flow_hash(decision.key),
                inbound: true,
                reason,
                drop_probability: decision.p_d,
                rotation_epoch: decision.rotation_epoch,
                uplink_bps: uplink,
            };
            if let Some(flight) = &self.flight {
                flight.record_forensics(record);
            }
            self.forensics.record(record);
        }
    }

    fn on_rotation(&mut self, rotation: &RotationEvent<'_>) {
        self.rotations_total.inc();
        let uplink = rotation.monitor.rate_bps(rotation.now);
        self.drop_probability.set(rotation.p_d);
        self.uplink_bps.set(uplink);
        self.journal_event(FilterEvent {
            at_micros: rotation.now.as_micros(),
            kind: FilterEventKind::Rotation {
                rotations: rotation.rotations,
            },
            drop_probability: rotation.p_d,
            uplink_bps: uplink,
        });
    }

    fn on_cold_start(&mut self, now: Timestamp, armed_at: Timestamp) {
        self.cold_starts_total.inc();
        self.journal_event(FilterEvent {
            at_micros: now.as_micros(),
            kind: FilterEventKind::ColdStart {
                armed_at_micros: armed_at.as_micros(),
            },
            drop_probability: 0.0,
            uplink_bps: 0.0,
        });
    }

    fn on_armed(&mut self, now: Timestamp) {
        self.warmup_armed_total.inc();
        self.journal_event(FilterEvent {
            at_micros: now.as_micros(),
            kind: FilterEventKind::Armed,
            drop_probability: 0.0,
            uplink_bps: 0.0,
        });
    }

    fn on_overload(&mut self, event: &OverloadEvent) {
        self.overload_transitions_total.inc();
        self.overload_state.set(f64::from(event.to.as_u8()));
        self.journal_event(FilterEvent {
            at_micros: event.now.as_micros(),
            kind: FilterEventKind::Overload {
                from_state: event.from.as_u8(),
                to_state: event.to.as_u8(),
                fill: event.fill,
                projected_fp: event.projected_fp,
            },
            drop_probability: 0.0,
            uplink_bps: 0.0,
        });
        // Entering Saturated is the black-box moment: capture the
        // recent history while it still shows the onset of the flood.
        if event.to == OverloadState::Saturated {
            if let Some(flight) = &self.flight {
                let _ = flight.dump_now(DumpTrigger::Overload);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BitmapFilter, BitmapFilterConfig};
    use upbound_net::{Direction, Protocol};

    fn tuple(port: u16) -> FiveTuple {
        FiveTuple::new(
            Protocol::Tcp,
            format!("10.0.0.2:{port}").parse().unwrap(),
            "203.0.113.1:80".parse().unwrap(),
        )
    }

    fn stranger(port: u16) -> FiveTuple {
        FiveTuple::new(
            Protocol::Tcp,
            format!("198.51.100.3:{port}").parse().unwrap(),
            "10.0.0.2:6881".parse().unwrap(),
        )
    }

    #[test]
    fn telemetry_observer_counts_and_journals() {
        let registry = Registry::new();
        let observer = TelemetryObserver::new(&registry, "core", 16);
        let mut filter =
            BitmapFilter::with_observer(BitmapFilterConfig::paper_evaluation(), observer);
        let t = Timestamp::from_secs(1.0);
        filter.observe_outbound(&tuple(40000), t);
        assert_eq!(
            filter.check_inbound(&tuple(40000).inverse(), t, 1.0),
            Verdict::Pass
        );
        assert_eq!(
            filter.check_inbound(&stranger(50000), t, 1.0),
            Verdict::Drop
        );
        // Trigger rotations at 5 and 10 s.
        filter.advance(Timestamp::from_secs(11.0));

        let snap = registry.snapshot();
        assert_eq!(snap.counter("upbound_core_outbound_packets_total"), Some(1));
        assert_eq!(snap.counter("upbound_core_inbound_pass_total"), Some(1));
        assert_eq!(
            snap.counter("upbound_core_drops_unsolicited_total"),
            Some(1)
        );
        assert_eq!(snap.counter("upbound_core_drops_red_total"), Some(0));
        assert_eq!(snap.counter("upbound_core_rotations_total"), Some(2));
        assert_eq!(snap.gauge("upbound_core_drop_probability"), Some(1.0));

        let journal = filter.observer().journal();
        let kinds: Vec<_> = journal.iter().map(|e| e.kind).collect();
        assert_eq!(kinds.len(), 3, "drop + two rotations: {kinds:?}");
        assert!(matches!(
            kinds[0],
            FilterEventKind::Drop {
                reason: DropReason::UnsolicitedMiss
            }
        ));
        assert!(matches!(
            kinds[1],
            FilterEventKind::Rotation { rotations: 1 }
        ));
        assert!(matches!(
            kinds[2],
            FilterEventKind::Rotation { rotations: 2 }
        ));
    }

    #[test]
    fn gauges_hold_the_last_miss_or_rotation_through_hits() {
        use crate::DropPolicy;
        use upbound_net::{Packet, TcpFlags};

        let registry = Registry::new();
        let config = BitmapFilterConfig::builder()
            .drop_policy(DropPolicy::new(1_000.0, 100_000.0).unwrap())
            .build()
            .unwrap();
        let mut filter =
            BitmapFilter::with_observer(config, TelemetryObserver::new(&registry, "core", 16));
        let gauges = || {
            let snap = registry.snapshot();
            (
                snap.gauge("upbound_core_drop_probability").unwrap(),
                snap.gauge("upbound_core_uplink_bps").unwrap(),
            )
        };
        let at = Timestamp::from_secs;
        let packet = |t: f64, tuple: FiveTuple| Packet::tcp(at(t), tuple, TcpFlags::ACK, &[][..]);
        let upload = |filter: &mut BitmapFilter<TelemetryObserver>, t: f64| {
            let sent = Packet::tcp(at(t), tuple(40000), TcpFlags::ACK, vec![0u8; 1000]);
            filter.process_packet(&sent, Direction::Outbound);
        };
        let mut hits = 0;
        let mut hit = |filter: &mut BitmapFilter<TelemetryObserver>, t: f64| {
            let reply = packet(t, tuple(40000).inverse());
            let verdict = filter.process_packet(&reply, Direction::Inbound);
            assert_eq!(verdict, Verdict::Pass);
            hits += 1;
        };

        upload(&mut filter, 1.0);
        let miss = filter.process_packet(&packet(1.5, stranger(50000)), Direction::Inbound);
        let at_miss = (
            filter.drop_probability(at(1.5)),
            filter.monitor().rate_bps(at(1.5)),
        );
        assert!(at_miss.0 > 0.0 && at_miss.0 < 1.0, "{at_miss:?}");
        assert_eq!(gauges(), at_miss);

        // More upload moves the live rate; hits leave the gauges alone.
        upload(&mut filter, 2.0);
        upload(&mut filter, 3.0);
        hit(&mut filter, 3.5);
        hit(&mut filter, 4.0);
        assert_ne!(filter.monitor().rate_bps(at(4.0)), at_miss.1);
        assert_eq!(gauges(), at_miss);

        // The hit at 6 s first rotates at 5 s: the rotation refreshes.
        hit(&mut filter, 6.0);
        let at_rotation = (
            filter.drop_probability(at(5.0)),
            filter.monitor().rate_bps(at(5.0)),
        );
        assert_ne!(at_rotation, at_miss);
        assert_eq!(gauges(), at_rotation);
        upload(&mut filter, 6.5);
        hit(&mut filter, 7.0);
        assert_eq!(gauges(), at_rotation);

        let passes = hits + u64::from(miss == Verdict::Pass);
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter("upbound_core_inbound_pass_total"),
            Some(passes)
        );
        assert_eq!(filter.stats().inbound_hits, hits);
    }

    #[test]
    fn red_drops_classified_separately() {
        let registry = Registry::new();
        let observer = TelemetryObserver::new(&registry, "core", 64);
        let mut filter =
            BitmapFilter::with_observer(BitmapFilterConfig::paper_evaluation(), observer);
        let t = Timestamp::ZERO;
        let mut dropped = 0;
        for port in 0..400u16 {
            if filter.check_inbound(&stranger(1024 + port), t, 0.5) == Verdict::Drop {
                dropped += 1;
            }
        }
        assert!(dropped > 0, "some RED drops expected at P_d = 0.5");
        let snap = registry.snapshot();
        assert_eq!(snap.counter("upbound_core_drops_red_total"), Some(dropped));
        assert_eq!(
            snap.counter("upbound_core_drops_unsolicited_total"),
            Some(0)
        );
        assert!(filter.observer().journal().iter().all(|e| matches!(
            e.kind,
            FilterEventKind::Drop {
                reason: DropReason::RandomEarlyDrop
            }
        )));
    }

    #[test]
    fn forensics_attribute_drops_and_tee_into_flight_recorder() {
        use upbound_telemetry::{FlightRecorder, ForensicReason};

        let registry = Registry::new();
        let flight = FlightRecorder::new(16, 16);
        let observer =
            TelemetryObserver::new(&registry, "core", 16).with_flight_recorder(flight.clone());
        let mut filter =
            BitmapFilter::with_observer(BitmapFilterConfig::paper_evaluation(), observer);
        let t0 = Timestamp::from_secs(1.0);
        // First packet anchors the warm window; the paper config is
        // fail-closed, so this hard drop attributes to warm-up.
        assert_eq!(
            filter.check_inbound(&stranger(50000), t0, 1.0),
            Verdict::Drop
        );
        // Well past the warm window: a plain bitmap miss.
        let later = Timestamp::from_secs(120.0);
        assert_eq!(
            filter.check_inbound(&stranger(50001), later, 1.0),
            Verdict::Drop
        );

        let records: Vec<_> = filter.observer().forensics().iter().copied().collect();
        assert_eq!(records.len(), 2, "{records:?}");
        assert_eq!(records[0].reason, ForensicReason::FailClosedWarmup);
        assert_eq!(records[1].reason, ForensicReason::BitmapMiss);
        assert!(records[1].rotation_epoch > 0, "rotations due by t=120s");
        assert_ne!(records[0].flow_hash, records[1].flow_hash);
        assert!(records.iter().all(|r| r.inbound));
        // The flight recorder saw the same history.
        assert_eq!(flight.forensics_recorded(), 2);
        assert!(flight.events_recorded() >= 2, "drop events teed");
    }

    #[test]
    fn noop_observer_filter_is_default_type() {
        // `BitmapFilter::new` must keep returning the plain type so all
        // existing call sites compile unchanged.
        let filter: BitmapFilter = BitmapFilter::new(BitmapFilterConfig::paper_evaluation());
        let _ = filter;
    }
}
