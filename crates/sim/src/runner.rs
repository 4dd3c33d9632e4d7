//! [`PipelineRunner`] — the one front door to every dataplane shape.
//!
//! Every deployment axis (shards, supervision, fault plans, checkpoints,
//! observability) is a builder option instead of a function of its own:
//!
//! ```text
//! PipelineRunner::new(inside, filter_config)
//!     .shards(4)                 // scale the filter stage out
//!     .supervised(true)          // catch + quarantine worker panics
//!     .overload_policy(policy)   // degradation ladder
//!     .fault_plan(plan)          // deterministic chaos
//!     .observability(obs)        // tracing / flight recorder / health
//!     .checkpoint(path, every)   // crash-safe snapshots
//!     .run(packets)              // or measure(), run_source(), serve()
//! ```
//!
//! Terminal methods pick the execution engine:
//!
//! * [`run`](PipelineRunner::run) / [`run_source`](PipelineRunner::run_source)
//!   — the threaded deployment pipeline ([`PipelineResult`] semantics).
//! * [`measure`](PipelineRunner::measure) /
//!   [`measure_source`](PipelineRunner::measure_source) — the
//!   paper-faithful [`ReplayEngine`] with oracle scoring and the
//!   blocked-σ store ([`ReplayResult`] semantics).
//! * [`serve`](PipelineRunner::serve) — the long-running live loop: a
//!   [`PacketSource`] polled forever, reconfigurable at runtime through
//!   a [`ServeControl`] without restarting (see below).
//!
//! `measure*` and `serve` decide through the shared [`Dataplane`] core,
//! so they block connections as `upbound filter` does. `serve` runs for
//! as long as its source lasts, so it keeps its blocked-connection store
//! bounded: a connection is released after one mark expiry window `T_e`
//! without packets, and at most [`Blocking::EXPIRING_CAPACITY`]
//! connections are kept ([`Blocking::Expiring`]). The threaded `run` family does not
//! block connections.
//!
//! # Runtime reconfiguration
//!
//! [`serve`](PipelineRunner::serve) watches the control's
//! [`ConfigCell`]. Staged [`RuntimeOverrides`] (P_d curve, fail mode,
//! overload policy, batch size) are applied at the first batch boundary
//! **after the next bitmap rotation** — a natural quiesce point: the
//! rotation has just expired one vector of state, so a policy change
//! there never splits one vector's fill between two policies. When the
//! source is idle the overrides apply immediately (no packet is in
//! flight at all). A drain request finishes the in-flight batch, writes
//! a final checkpoint if checkpointing is configured, and returns — the
//! same graceful path end-of-stream takes.

use crate::dataplane::{Blocking, Dataplane, DataplaneStats, Settled};
use crate::fault::{faulted_pipeline_impl, AtomicCheckpointSink, DistortionReport, FaultPlan};
use crate::pipeline::{
    run_pipeline_with, sharded_pipeline_impl, supervised_pipeline_impl, PipelineConfig,
    PipelineObservability, PipelineResult, PipelineTelemetry, SupervisorReport,
};
use crate::replay::{Checkpoints, ReplayConfig, ReplayEngine, ReplayResult};
use std::convert::Infallible;
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;
use upbound_core::{
    BitmapFilter, BitmapFilterConfig, ConfigCell, ConfigError, DropPolicy, FailMode, FilterStats,
    OverloadPolicy, PacketFilter, RuntimeOverrides, ShardedFilter, SnapshotError, Snapshottable,
    SubscriberTable,
};
use upbound_net::pcap::IngestStats;
use upbound_net::{
    Cidr, Direction, NetError, Packet, PacketSource, SourcePoll, TimeDelta, Timestamp,
};
use upbound_telemetry::{Counter, Gauge, Registry};
use upbound_traffic::SyntheticTrace;

/// Packets pulled from a [`PacketSource`] per drain poll.
const DRAIN_CHUNK: usize = 256;

/// Why a [`PipelineRunner`] terminal method failed.
#[derive(Debug)]
#[non_exhaustive]
pub enum RunnerError {
    /// The filter configuration could not build (bad shard count, …).
    Config(ConfigError),
    /// The packet source failed unrecoverably.
    Net(NetError),
    /// A checkpoint write failed.
    Snapshot(SnapshotError),
}

impl fmt::Display for RunnerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunnerError::Config(e) => write!(f, "filter configuration rejected: {e}"),
            RunnerError::Net(e) => write!(f, "packet source failed: {e}"),
            RunnerError::Snapshot(e) => write!(f, "checkpoint failed: {e}"),
        }
    }
}

impl std::error::Error for RunnerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RunnerError::Config(e) => Some(e),
            RunnerError::Net(e) => Some(e),
            RunnerError::Snapshot(e) => Some(e),
        }
    }
}

impl From<ConfigError> for RunnerError {
    fn from(e: ConfigError) -> Self {
        RunnerError::Config(e)
    }
}

impl From<NetError> for RunnerError {
    fn from(e: NetError) -> Self {
        RunnerError::Net(e)
    }
}

impl From<SnapshotError> for RunnerError {
    fn from(e: SnapshotError) -> Self {
        RunnerError::Snapshot(e)
    }
}

/// Output of [`PipelineRunner::run`]: the pipeline aggregate plus
/// whatever the optional layers produced.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// The usual pipeline aggregate.
    pub pipeline: PipelineResult,
    /// What the supervisor caught and rebuilt. All zeros unless
    /// supervision (or a fault plan) was enabled.
    pub supervisor: SupervisorReport,
    /// What the fault plan's distortion pass touched; `None` without a
    /// fault plan.
    pub distortion: Option<DistortionReport>,
}

/// Output of [`PipelineRunner::measure`] /
/// [`measure_source`](PipelineRunner::measure_source): the replay
/// metrics plus acquisition accounting.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Oracle-scored replay metrics.
    pub replay: ReplayResult,
    /// The source's ingestion accounting (zeroed for in-memory traces,
    /// which have no acquisition layer).
    pub ingest: IngestStats,
    /// Checkpoints written (0 unless checkpointing was configured).
    pub checkpoints: u64,
}

/// Why [`PipelineRunner::serve`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeExit {
    /// The source reported end-of-stream.
    SourceEnded,
    /// A drain was requested through the [`ServeControl`].
    Drained,
}

/// Everything one [`PipelineRunner::serve`] session did.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// What the dataplane core settled: packets, drops (blocked packets
    /// included), blocked connections, and uplink bits before and after
    /// filtering.
    pub dataplane: DataplaneStats,
    /// Runtime reconfigurations applied (not merely staged).
    pub reconfigs_applied: u64,
    /// Checkpoints written, final drain checkpoint included.
    pub checkpoints_written: u64,
    /// Why the loop ended.
    pub exit: ServeExit,
    /// The filter's own counters at shutdown.
    pub filter_stats: FilterStats,
    /// Timestamp of the last packet processed.
    pub watermark: Timestamp,
    /// The source's final ingestion accounting.
    pub ingest: IngestStats,
}

/// The control half of a [`PipelineRunner::serve`] session: clone it,
/// hand one clone to the serving thread and keep the other wherever
/// reconfiguration requests arrive (an HTTP handler, a signal handler,
/// a test). All state is shared through the clones.
#[derive(Debug, Clone, Default)]
pub struct ServeControl {
    cell: ConfigCell,
    drain: Arc<AtomicBool>,
    telemetry: Option<ServeTelemetry>,
    idle_sleep: Duration,
}

impl ServeControl {
    /// A fresh control: nothing staged, no drain requested, 1 ms idle
    /// poll, no telemetry.
    pub fn new() -> Self {
        Self {
            cell: ConfigCell::new(),
            drain: Arc::new(AtomicBool::new(false)),
            telemetry: None,
            idle_sleep: Duration::from_millis(1),
        }
    }

    /// Publishes the serve loop's live state into `registry`
    /// (`upbound_serve_*`).
    pub fn with_telemetry(mut self, registry: &Registry) -> Self {
        self.telemetry = Some(ServeTelemetry::new(registry));
        self
    }

    /// How long the serve loop sleeps when the source reports
    /// [`SourcePoll::Idle`].
    pub fn with_idle_sleep(mut self, idle_sleep: Duration) -> Self {
        self.idle_sleep = idle_sleep;
        self
    }

    /// The configuration cell the serve loop watches; stage overrides
    /// here (or via [`stage`](Self::stage)).
    pub fn cell(&self) -> &ConfigCell {
        &self.cell
    }

    /// Stages `overrides` for the serve loop to apply at its next safe
    /// point; returns the new configuration generation.
    pub fn stage(&self, overrides: RuntimeOverrides) -> u64 {
        self.cell.stage(overrides)
    }

    /// Asks the serve loop to finish the in-flight batch, write a final
    /// checkpoint (if configured) and return. Idempotent.
    pub fn request_drain(&self) {
        self.drain.store(true, Ordering::Release);
    }

    /// Whether a drain has been requested.
    pub fn drain_requested(&self) -> bool {
        self.drain.load(Ordering::Acquire)
    }
}

/// Registry-backed export of a serve session's live state
/// (`upbound_serve_*`), so `/metrics` shows throughput, the active
/// configuration generation and the effective policy without touching
/// the dataplane thread.
#[derive(Debug, Clone)]
pub struct ServeTelemetry {
    packets_total: Arc<Counter>,
    passed_total: Arc<Counter>,
    dropped_total: Arc<Counter>,
    blocked_connections: Arc<Gauge>,
    reconfigs_total: Arc<Counter>,
    checkpoints_total: Arc<Counter>,
    batch_size: Arc<Gauge>,
    config_generation: Arc<Gauge>,
    rotations: Arc<Gauge>,
    watermark_secs: Arc<Gauge>,
    drop_low_bps: Arc<Gauge>,
    drop_high_bps: Arc<Gauge>,
    ingest_errors: Arc<Gauge>,
    kernel_drops: Arc<Gauge>,
}

impl ServeTelemetry {
    /// Registers the serve metrics in `registry`.
    pub fn new(registry: &Registry) -> Self {
        Self {
            packets_total: registry.counter(
                "upbound_serve_packets_total",
                "Packets pulled from the source by the serve loop",
            ),
            passed_total: registry.counter(
                "upbound_serve_passed_total",
                "Packets forwarded by the serve loop",
            ),
            dropped_total: registry.counter(
                "upbound_serve_dropped_total",
                "Packets dropped by the serve loop, blocked connections included",
            ),
            blocked_connections: registry.gauge(
                "upbound_serve_blocked_connections",
                "Connections in the serve loop's blocked-connection store",
            ),
            reconfigs_total: registry.counter(
                "upbound_serve_reconfigs_total",
                "Runtime reconfigurations applied",
            ),
            checkpoints_total: registry.counter(
                "upbound_serve_checkpoints_total",
                "Checkpoints written by the serve loop",
            ),
            batch_size: registry.gauge(
                "upbound_serve_batch_size",
                "Effective per-poll batch size of the serve loop",
            ),
            config_generation: registry.gauge(
                "upbound_serve_config_generation",
                "Configuration generation the dataplane has applied",
            ),
            rotations: registry.gauge(
                "upbound_serve_rotations",
                "Bitmap rotations performed by the serving filter",
            ),
            watermark_secs: registry.gauge(
                "upbound_serve_watermark_secs",
                "Timestamp of the last packet processed, in seconds",
            ),
            drop_low_bps: registry.gauge(
                "upbound_serve_drop_low_bps",
                "Effective P_d low threshold (Equation 1 L), bits/s",
            ),
            drop_high_bps: registry.gauge(
                "upbound_serve_drop_high_bps",
                "Effective P_d high threshold (Equation 1 H), bits/s",
            ),
            ingest_errors: registry.gauge(
                "upbound_serve_ingest_errors",
                "Source decode/IO errors observed so far",
            ),
            kernel_drops: registry.gauge(
                "upbound_serve_kernel_drops",
                "Packets the kernel dropped before the serve loop saw them",
            ),
        }
    }

    fn record_batch(&self, before: &DataplaneStats, after: &DataplaneStats) {
        self.packets_total.add(after.packets - before.packets);
        self.passed_total.add(after.passed() - before.passed());
        self.dropped_total.add(after.dropped - before.dropped);
        self.blocked_connections.set_u64(after.blocked_resident);
    }

    fn publish(
        &self,
        watermark: Timestamp,
        stats: &FilterStats,
        policy: DropPolicy,
        batch_size: usize,
        generation: u64,
    ) {
        self.watermark_secs.set(watermark.as_secs_f64());
        self.rotations.set_u64(stats.rotations);
        self.drop_low_bps.set(policy.low_bps());
        self.drop_high_bps.set(policy.high_bps());
        self.batch_size.set_u64(batch_size as u64);
        self.config_generation.set_u64(generation);
    }

    fn publish_ingest(&self, ingest: &IngestStats) {
        self.ingest_errors.set_u64(ingest.errors_total());
        self.kernel_drops.set_u64(ingest.kernel_drops());
    }
}

/// Builder-style front door to every dataplane shape; see the
/// [module docs](self) for the full map.
///
/// The runner is cheap to clone-by-rebuild: every terminal method
/// borrows `&self`, so one configured runner can serve, measure and
/// replay any number of times.
#[derive(Debug, Clone)]
pub struct PipelineRunner {
    inside: Cidr,
    filter: BitmapFilterConfig,
    replay: ReplayConfig,
    pipeline: PipelineConfig,
    shards: usize,
    supervised: bool,
    overload: OverloadPolicy,
    fault: FaultPlan,
    obs: PipelineObservability,
    telemetry: Option<PipelineTelemetry>,
    checkpoint: Option<(PathBuf, TimeDelta)>,
}

impl PipelineRunner {
    /// A runner over `filter_config`, classifying direction against the
    /// client network `inside`. Defaults: 1 shard, unsupervised, no
    /// overload ladder, no fault plan, no checkpointing, default replay
    /// and pipeline tuning.
    pub fn new(inside: Cidr, filter_config: BitmapFilterConfig) -> Self {
        Self {
            inside,
            filter: filter_config,
            replay: ReplayConfig::default(),
            pipeline: PipelineConfig::default(),
            shards: 1,
            supervised: false,
            overload: OverloadPolicy::off(),
            fault: FaultPlan::none(),
            obs: PipelineObservability::default(),
            telemetry: None,
            checkpoint: None,
        }
    }

    /// Replay-engine tuning (bin width, blocked-σ store, oracle expiry,
    /// batch size) for [`measure`](Self::measure) and friends.
    pub fn replay_config(mut self, replay: ReplayConfig) -> Self {
        self.replay = replay;
        self
    }

    /// Threaded-pipeline tuning (channel capacity, batch size) for
    /// [`run`](Self::run) and [`serve`](Self::serve).
    pub fn pipeline_config(mut self, pipeline: PipelineConfig) -> Self {
        self.pipeline = pipeline;
        self
    }

    /// Scales the filter stage to `shards` workers over a
    /// [`ShardedFilter`]. `0` is treated as `1`; `1` keeps the
    /// single-filter stage.
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Catches filter-worker panics, quarantining and rebuilding the
    /// poisoned shard fail-open while the survivors keep filtering.
    pub fn supervised(mut self, supervised: bool) -> Self {
        self.supervised = supervised;
        self
    }

    /// Installs an overload degradation ladder on the filter(s).
    pub fn overload_policy(mut self, policy: OverloadPolicy) -> Self {
        self.overload = policy;
        self
    }

    /// Applies a deterministic fault plan: the stream is distorted and
    /// the decide path panics on the plan's schedule, under supervision.
    /// Implies the supervised sharded pipeline for [`run`](Self::run).
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault = plan;
        self
    }

    /// Observability hooks (latency tracing, supervisor export, flight
    /// recorder, `/health` state) for the supervised pipeline.
    pub fn observability(mut self, obs: PipelineObservability) -> Self {
        self.obs = obs;
        self
    }

    /// Per-stage pipeline metrics for the single-filter
    /// [`run`](Self::run) path.
    pub fn telemetry(mut self, telemetry: PipelineTelemetry) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// Writes an atomic checkpoint of the filter to `path` every `every`
    /// of trace time, plus a final checkpoint at end-of-run. Honored by
    /// [`measure`](Self::measure), [`measure_source`](Self::measure_source)
    /// and [`serve`](Self::serve).
    pub fn checkpoint(mut self, path: impl Into<PathBuf>, every: TimeDelta) -> Self {
        self.checkpoint = Some((path.into(), every));
        self
    }

    /// The client network verdicts are classified against.
    pub fn inside(&self) -> Cidr {
        self.inside
    }

    /// The filter configuration the runner builds from.
    pub fn filter_config(&self) -> &BitmapFilterConfig {
        &self.filter
    }

    fn build_sharded(&self) -> Result<ShardedFilter<BitmapFilter>, RunnerError> {
        let mut builder = ShardedFilter::builder(self.filter.clone());
        builder
            .shards(self.shards)
            .overload_policy(self.overload.clone());
        builder.build().map_err(RunnerError::Config)
    }

    /// Runs `packets` through the configured threaded pipeline.
    ///
    /// Dispatch: a non-empty fault plan takes the supervised chaos path;
    /// `supervised(true)` the supervised sharded path; `shards(n > 1)`
    /// the plain sharded path; otherwise the three-stage single-filter
    /// pipeline (with per-stage metrics when [`telemetry`](Self::telemetry)
    /// is set).
    ///
    /// # Errors
    ///
    /// [`RunnerError::Config`] when the filter configuration cannot
    /// build a shard bank.
    pub fn run<I>(&self, packets: I) -> Result<RunReport, RunnerError>
    where
        I: IntoIterator<Item = Packet>,
    {
        if !self.fault.is_none() {
            let (result, distortion) = faulted_pipeline_impl(
                packets,
                self.inside,
                self.filter.clone(),
                self.shards,
                self.pipeline,
                &self.fault,
                &self.obs,
            );
            return Ok(RunReport {
                pipeline: result.pipeline,
                supervisor: result.supervisor,
                distortion: Some(distortion),
            });
        }
        if self.supervised {
            let sharded = self.build_sharded()?;
            let uplink = Arc::clone(sharded.uplink());
            let quarantine = self.filter.expiry_timer();
            let rebuild_config = self.filter.clone().with_fail_mode(FailMode::Open);
            let rebuild = move |_shard: usize, at: Timestamp| {
                let mut fresh = BitmapFilter::new(rebuild_config.clone())
                    .with_shared_uplink(Arc::clone(&uplink));
                fresh.start_cold_at(at);
                fresh
            };
            let result = supervised_pipeline_impl(
                packets,
                self.inside,
                sharded,
                rebuild,
                quarantine,
                self.pipeline,
                &self.obs,
            );
            return Ok(RunReport {
                pipeline: result.pipeline,
                supervisor: result.supervisor,
                distortion: None,
            });
        }
        if self.shards > 1 {
            let sharded = self.build_sharded()?;
            let pipeline = sharded_pipeline_impl(packets, self.inside, &sharded, self.pipeline);
            return Ok(RunReport {
                pipeline,
                supervisor: SupervisorReport::default(),
                distortion: None,
            });
        }
        let filter =
            BitmapFilter::new(self.filter.clone()).with_overload_policy(self.overload.clone());
        let (pipeline, _filter) = run_pipeline_with(
            packets,
            self.inside,
            filter,
            self.pipeline,
            self.telemetry.as_ref(),
        );
        Ok(RunReport {
            pipeline,
            supervisor: SupervisorReport::default(),
            distortion: None,
        })
    }

    /// Drains a **finite** [`PacketSource`] and runs the result through
    /// [`run`](Self::run). For endless live sources use
    /// [`serve`](Self::serve), which polls incrementally and can be
    /// drained on request.
    ///
    /// # Errors
    ///
    /// [`RunnerError::Net`] on the first unrecoverable source error,
    /// plus everything [`run`](Self::run) can return.
    pub fn run_source<S>(&self, source: &mut S) -> Result<(RunReport, IngestStats), RunnerError>
    where
        S: PacketSource + ?Sized,
    {
        let mut packets: Vec<Packet> = Vec::new();
        let mut chunk: Vec<(Packet, Direction)> = Vec::with_capacity(DRAIN_CHUNK);
        loop {
            chunk.clear();
            match source.next_batch(&mut chunk, DRAIN_CHUNK)? {
                SourcePoll::Batch(_) => packets.extend(chunk.drain(..).map(|(p, _)| p)),
                SourcePoll::Idle => std::thread::sleep(Duration::from_millis(1)),
                SourcePoll::End => break,
            }
        }
        let report = self.run(packets)?;
        Ok((report, source.stats()))
    }

    /// Replays `trace` through the paper-faithful [`ReplayEngine`]
    /// (oracle scoring, blocked-σ store, per-bin throughput series),
    /// writing checkpoints on the configured cadence.
    ///
    /// # Errors
    ///
    /// [`RunnerError::Snapshot`] on the first checkpoint write failure.
    pub fn measure(&self, trace: &SyntheticTrace) -> Result<Measurement, RunnerError> {
        let engine = ReplayEngine::new(self.replay.clone());
        let mut filter =
            BitmapFilter::new(self.filter.clone()).with_overload_policy(self.overload.clone());
        let (replay, checkpoints) = match &self.checkpoint {
            Some((path, every)) => engine.run_checkpointed_with(
                trace,
                &mut filter,
                path,
                *every,
                &mut AtomicCheckpointSink,
            )?,
            None => (engine.run(trace, &mut filter), 0),
        };
        Ok(Measurement {
            replay,
            ingest: IngestStats::default(),
            checkpoints,
        })
    }

    /// [`measure`](Self::measure) over a [`PacketSource`]: pcap replay,
    /// looped replay and live capture all drive the identical batched
    /// replay loop, so the metrics depend only on the packet stream.
    ///
    /// # Errors
    ///
    /// [`RunnerError::Net`] on the first unrecoverable source error,
    /// [`RunnerError::Snapshot`] on the first checkpoint write failure.
    pub fn measure_source<S>(&self, source: &mut S) -> Result<Measurement, RunnerError>
    where
        S: PacketSource + ?Sized,
    {
        let engine = ReplayEngine::new(self.replay.clone());
        let mut filter =
            BitmapFilter::new(self.filter.clone()).with_overload_policy(self.overload.clone());
        let Some((path, every)) = &self.checkpoint else {
            let (replay, ingest) = engine.run_source(source, &mut filter)?;
            return Ok(Measurement {
                replay,
                ingest,
                checkpoints: 0,
            });
        };
        let mut sink = AtomicCheckpointSink;
        let mut checkpoints = Checkpoints::new(&mut sink, path, *every);
        let (replay, ingest) =
            engine.run_source_with(source, &mut filter, |f, now| checkpoints.tick(f, now))?;
        let checkpoints = checkpoints.finish(&filter)?;
        Ok(Measurement {
            replay,
            ingest,
            checkpoints,
        })
    }

    /// Replays `trace` through a multi-tenant [`SubscriberTable`] on the
    /// replay engine; per-tenant results remain available from the table
    /// afterwards.
    pub fn measure_subscribers<F: PacketFilter>(
        &self,
        trace: &SyntheticTrace,
        table: &mut SubscriberTable<F>,
    ) -> ReplayResult {
        ReplayEngine::new(self.replay.clone()).subscribers_impl(trace, table)
    }

    /// The long-running live dataplane: polls `source` until it ends or
    /// `control` requests a drain, deciding each poll through the
    /// [`Dataplane`] core over a shard bank (so connections are blocked
    /// as in `upbound filter`, within the bounds of the
    /// [module docs](self)) and applying staged [`RuntimeOverrides`]
    /// at safe points (the first batch boundary after a bitmap rotation,
    /// or immediately while idle). See the [module docs](self) for the
    /// reconfiguration contract.
    ///
    /// # Errors
    ///
    /// [`RunnerError::Config`] if the shard bank cannot build,
    /// [`RunnerError::Net`] on the first unrecoverable source error,
    /// [`RunnerError::Snapshot`] on the first checkpoint write failure.
    pub fn serve<S>(
        &self,
        source: &mut S,
        control: &ServeControl,
    ) -> Result<ServeReport, RunnerError>
    where
        S: PacketSource + ?Sized,
    {
        let mut sharded = self.build_sharded()?;
        let mut batch_size = self.pipeline.batch_size.max(1);
        let mut policy = self.filter.drop_policy();
        let mut seen_gen = 0u64;
        // (generation, overrides, filter rotations when staged)
        let mut pending: Option<(u64, RuntimeOverrides, u64)> = None;
        let blocking = Blocking::Expiring {
            idle: self.filter.expiry_timer(),
        };
        // `serve` sweeps no timers on decided batches: the batch size is
        // only its poll size.
        let mut core = Dataplane::new(blocking, batch_size, None);
        let settle = |_: Settled<'_>| Ok::<(), Infallible>(());

        let mut reconfigs = 0u64;
        let mut checkpoints = 0u64;
        let mut watermark = Timestamp::ZERO;
        let mut next_due: Option<Timestamp> = None;

        let mut buf: Vec<(Packet, Direction)> = Vec::with_capacity(batch_size);

        let mut apply = |sharded: &ShardedFilter<BitmapFilter>,
                         generation: u64,
                         overrides: &RuntimeOverrides,
                         batch_size: &mut usize,
                         policy: &mut DropPolicy,
                         seen_gen: &mut u64| {
            sharded.apply_overrides(overrides);
            if let Some(p) = overrides.drop_policy {
                *policy = p;
            }
            if let Some(bs) = overrides.batch_size {
                *batch_size = bs.max(1);
            }
            *seen_gen = generation;
            reconfigs += 1;
            if let Some(t) = &control.telemetry {
                t.reconfigs_total.inc();
            }
        };

        let exit = loop {
            if control.drain_requested() {
                break ServeExit::Drained;
            }
            if pending.is_none() {
                if let Some((generation, overrides)) = control.cell.poll(seen_gen) {
                    pending = Some((generation, overrides, sharded.stats().rotations));
                }
            }
            buf.clear();
            match source.next_batch(&mut buf, batch_size)? {
                SourcePoll::End => break ServeExit::SourceEnded,
                SourcePoll::Idle => {
                    // Idle is trivially a safe point: nothing is in
                    // flight, so staged overrides apply right away.
                    if let Some((generation, overrides, _)) = pending.take() {
                        apply(
                            &sharded,
                            generation,
                            &overrides,
                            &mut batch_size,
                            &mut policy,
                            &mut seen_gen,
                        );
                    }
                    std::thread::sleep(control.idle_sleep);
                }
                SourcePoll::Batch(_) => {
                    if buf.is_empty() {
                        continue;
                    }
                    let before = core.stats();
                    for (packet, direction) in &buf {
                        watermark = watermark.max(packet.ts());
                        let Ok(_) = core.offer(&mut sharded, packet, *direction, None, settle);
                    }
                    let after = core.stats();

                    let stats = sharded.stats();
                    // A rotation has retired a vector since the
                    // overrides were staged — the batch boundary right
                    // after it is the quiesce point.
                    if let Some((generation, overrides, _)) =
                        pending.take_if(|(_, _, staged_at)| stats.rotations > *staged_at)
                    {
                        apply(
                            &sharded,
                            generation,
                            &overrides,
                            &mut batch_size,
                            &mut policy,
                            &mut seen_gen,
                        );
                    }

                    if let Some((path, every)) = &self.checkpoint {
                        let due = *next_due.get_or_insert(watermark + *every);
                        if watermark >= due {
                            sharded
                                .checkpoint_to(path, watermark)
                                .map_err(RunnerError::Snapshot)?;
                            checkpoints += 1;
                            next_due = Some(due + *every);
                            if let Some(t) = &control.telemetry {
                                t.checkpoints_total.inc();
                            }
                        }
                    }

                    if let Some(t) = &control.telemetry {
                        t.record_batch(&before, &after);
                        t.publish(watermark, &stats, policy, batch_size, seen_gen);
                        t.publish_ingest(&source.stats());
                    }
                }
            }
        };

        if let Some((path, _)) = &self.checkpoint {
            sharded
                .checkpoint_to(path, watermark)
                .map_err(RunnerError::Snapshot)?;
            checkpoints += 1;
            if let Some(t) = &control.telemetry {
                t.checkpoints_total.inc();
            }
        }
        let filter_stats = sharded.stats();
        let ingest = source.stats();
        if let Some(t) = &control.telemetry {
            t.publish(watermark, &filter_stats, policy, batch_size, seen_gen);
            t.publish_ingest(&ingest);
        }
        Ok(ServeReport {
            dataplane: core.stats(),
            reconfigs_applied: reconfigs,
            checkpoints_written: checkpoints,
            exit,
            filter_stats,
            watermark,
            ingest,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use upbound_net::BufferedSource;
    use upbound_traffic::{generate, TraceConfig};

    fn trace(seed: u64) -> upbound_traffic::SyntheticTrace {
        generate(
            &TraceConfig::builder()
                .duration_secs(60.0)
                .flow_rate_per_sec(20.0)
                .seed(seed)
                .build()
                .expect("valid"),
        )
    }

    fn inside() -> Cidr {
        "10.0.0.0/16".parse().expect("cidr")
    }

    fn labeled(trace: &upbound_traffic::SyntheticTrace) -> Vec<(Packet, Direction)> {
        trace
            .packets
            .iter()
            .map(|lp| (lp.packet.clone(), lp.direction))
            .collect()
    }

    #[test]
    fn measure_matches_replay_engine() {
        let trace = trace(31);
        let runner = PipelineRunner::new(inside(), BitmapFilterConfig::paper_evaluation());
        let measured = runner.measure(&trace).expect("measure");
        let mut filter = BitmapFilter::new(BitmapFilterConfig::paper_evaluation());
        let expected = ReplayEngine::new(ReplayConfig::default()).run(&trace, &mut filter);
        assert_eq!(measured.replay, expected);
        assert_eq!(measured.checkpoints, 0);
    }

    #[test]
    fn measure_source_checkpoints_and_matches_plain_measure() {
        let trace = trace(32);
        let dir = std::env::temp_dir().join(format!("upbound-runner-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("runner.snap");

        let runner = PipelineRunner::new(inside(), BitmapFilterConfig::paper_evaluation())
            .checkpoint(&path, TimeDelta::from_secs(10.0));
        let mut source = BufferedSource::new(labeled(&trace), IngestStats::default());
        let measured = runner.measure_source(&mut source).expect("measure_source");
        assert!(
            measured.checkpoints >= 4,
            "only {} checkpoints",
            measured.checkpoints
        );
        assert!(path.exists());

        let plain = PipelineRunner::new(inside(), BitmapFilterConfig::paper_evaluation())
            .measure(&trace)
            .expect("measure");
        assert_eq!(measured.replay, plain.replay);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn run_source_matches_run() {
        let trace = trace(33);
        let runner = PipelineRunner::new(inside(), BitmapFilterConfig::paper_evaluation());
        let from_vec = runner
            .run(trace.packets.iter().map(|lp| lp.packet.clone()))
            .expect("run");
        let mut source = BufferedSource::new(labeled(&trace), IngestStats::default());
        let (from_source, ingest) = runner.run_source(&mut source).expect("run_source");
        assert_eq!(from_source.pipeline, from_vec.pipeline);
        assert_eq!(ingest.errors_total(), 0);
    }

    #[test]
    fn serve_drains_source_and_reports() {
        let trace = trace(34);
        let runner = PipelineRunner::new(inside(), BitmapFilterConfig::paper_evaluation());
        let control = ServeControl::new();
        let mut source = BufferedSource::new(labeled(&trace), IngestStats::default());
        let report = runner.serve(&mut source, &control).expect("serve");
        assert_eq!(report.exit, ServeExit::SourceEnded);
        assert_eq!(report.dataplane.packets as usize, trace.packets.len());
        assert_eq!(report.reconfigs_applied, 0);
        // serve decides through the same core as measure: the same
        // connections end up blocked and the same uplink survives.
        let measured = runner.measure(&trace).expect("measure").replay;
        assert!(report.dataplane.blocked_connections > 0);
        assert_eq!(
            report.dataplane.blocked_connections,
            measured.blocked_connections
        );
        assert_eq!(
            report.dataplane.uplink_offered_bits as f64,
            measured.pre_uplink.total()
        );
        assert_eq!(
            report.dataplane.uplink_passed_bits as f64,
            measured.post_uplink.total()
        );
        assert!(report.watermark > Timestamp::ZERO);
    }

    #[test]
    fn serve_applies_staged_overrides_after_a_rotation() {
        let trace = trace(35);
        let registry = Registry::new();
        let runner = PipelineRunner::new(inside(), BitmapFilterConfig::paper_evaluation());
        let control = ServeControl::new().with_telemetry(&registry);

        // Stage a new P_d curve and batch size before the dataplane
        // starts: it must apply at the first post-rotation batch
        // boundary, not instantly and not never.
        let policy = DropPolicy::new(123.0, 456.0).expect("policy");
        let generation = control.stage(RuntimeOverrides {
            drop_policy: Some(policy),
            batch_size: Some(7),
            ..RuntimeOverrides::default()
        });
        assert_eq!(generation, 1);

        let mut source = BufferedSource::new(labeled(&trace), IngestStats::default());
        let report = runner.serve(&mut source, &control).expect("serve");
        assert_eq!(report.reconfigs_applied, 1);
        // The paper config rotates every 5 s; a 60 s trace rotates many
        // times, so the filter really did rotate before applying.
        assert!(report.filter_stats.rotations >= 1);

        let snapshot = registry.snapshot();
        assert_eq!(snapshot.gauge("upbound_serve_drop_low_bps"), Some(123.0));
        assert_eq!(snapshot.gauge("upbound_serve_drop_high_bps"), Some(456.0));
        assert_eq!(snapshot.gauge("upbound_serve_batch_size"), Some(7.0));
        assert_eq!(snapshot.gauge("upbound_serve_config_generation"), Some(1.0));
        assert_eq!(
            snapshot.counter("upbound_serve_packets_total"),
            Some(report.dataplane.packets)
        );
        assert_eq!(
            snapshot.counter("upbound_serve_dropped_total"),
            Some(report.dataplane.dropped)
        );
    }

    #[test]
    fn serve_drain_request_stops_a_looped_source() {
        let trace = trace(36);
        let runner = PipelineRunner::new(inside(), BitmapFilterConfig::paper_evaluation());
        let control = ServeControl::new();
        let handle_control = control.clone();
        let handle = std::thread::spawn(move || {
            let mut source =
                BufferedSource::new(labeled(&trace), IngestStats::default()).looped(true);
            runner.serve(&mut source, &handle_control)
        });
        // Let the dataplane chew on the looped stream, then drain.
        std::thread::sleep(Duration::from_millis(50));
        control.request_drain();
        let report = handle.join().expect("serve thread").expect("serve");
        assert_eq!(report.exit, ServeExit::Drained);
        assert!(report.dataplane.packets > 0);
    }

    #[test]
    fn serve_writes_a_final_checkpoint() {
        let trace = trace(37);
        let dir = std::env::temp_dir().join(format!("upbound-serve-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("serve.snap");
        let runner = PipelineRunner::new(inside(), BitmapFilterConfig::paper_evaluation())
            .shards(2)
            .checkpoint(&path, TimeDelta::from_secs(20.0));
        let control = ServeControl::new();
        let mut source = BufferedSource::new(labeled(&trace), IngestStats::default());
        let report = runner.serve(&mut source, &control).expect("serve");
        assert!(report.checkpoints_written >= 2, "periodic + final");
        assert!(path.exists());

        // The final checkpoint restores into an equally-sharded bank.
        let restored = ShardedFilter::builder(BitmapFilterConfig::paper_evaluation())
            .shards(2)
            .build()
            .expect("bank");
        let outcome = restored
            .restore_from(&path, report.watermark, TimeDelta::from_secs(3600.0))
            .expect("restore");
        assert_eq!(outcome, upbound_core::RestoreOutcome::Warm);
        assert_eq!(restored.stats(), report.filter_stats);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fault_plan_routes_through_supervised_chaos_path() {
        let trace = trace(38);
        let plan = FaultPlan::parse("seed=5,corrupt=10,panics=1").expect("plan");
        let report = PipelineRunner::new(inside(), BitmapFilterConfig::paper_evaluation())
            .shards(4)
            .fault_plan(plan)
            .run(trace.packets.iter().map(|lp| lp.packet.clone()))
            .expect("run");
        let distortion = report.distortion.expect("distortion report");
        assert!(distortion.corrupted > 0);
        assert!(report.supervisor.panics >= 1);
        assert_eq!(
            report.pipeline.passed + report.pipeline.dropped,
            report.pipeline.ingested
        );
    }
}
