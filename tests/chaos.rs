//! Deterministic chaos matrix over the fault-injection subsystem.
//!
//! Every run replays the same fixed-seed [`FaultPlan`] combinations —
//! stream corruption, reorder bursts, clock-skew spikes, decide-path
//! panics, checkpoint write failures — against the supervised sharded
//! pipeline and a ladder-armed sequential filter, asserting:
//!
//! * the pipeline drains every packet (nothing lost, nothing invented)
//!   and the supervisor accounts for every injected panic with a
//!   matching restart;
//! * **zero solicited Pass→Drop flips**: no inbound packet whose flow
//!   sent an outbound packet within the documented rotation bound
//!   (`⌊(k−1)/2⌋·Δt` of *watermark* time) is ever dropped, whatever the
//!   fault plan does to the stream;
//! * checkpoint I/O faults surface through
//!   [`ReplayEngine::run_checkpointed_with`] as errors instead of
//!   corrupting state, and a disarmed sink checkpoints normally.
//!
//! The solicited check is deliberately watermark-relative rather than
//! packet-time-relative: clock-skew spikes legitimately divorce packet
//! timestamps from the filter's watermark-driven rotation schedule, so a
//! packet-time oracle would report false violations. Any plan that fails
//! is written to `target/chaos-failures/<label>.txt` for offline replay
//! (`upbound filter --fault-plan <spec> ...`).

use std::panic::catch_unwind;
use std::path::PathBuf;

use upbound::core::{
    BitmapFilter, BitmapFilterConfig, OverloadPolicy, PacketFilter, SnapshotError, Verdict,
};
use upbound::net::{Cidr, Direction, FiveTuple, Packet, TimeDelta, Timestamp};
use upbound::sim::{
    AtomicCheckpointSink, FaultPlan, FaultingCheckpointSink, PipelineRunner, ReplayConfig,
    ReplayEngine,
};
use upbound::traffic::{attack, generate, AttackConfig, SyntheticTrace, TraceConfig};

/// The fixed-seed plan matrix: each axis alone, then combinations.
const PLANS: &[&str] = &[
    "seed=101,corrupt=25",
    "seed=102,reorder=6",
    "seed=103,skew=3,skew-secs=45",
    "seed=104,panics=2",
    "seed=105,corrupt=15,reorder=4,skew=2,panics=3",
    "seed=106,corrupt=40,reorder=8,skew=4,skew-secs=120,panics=4",
];

fn inside() -> Cidr {
    "10.0.0.0/16".parse().expect("valid cidr")
}

/// Benign client traffic with a mid-trace SYN flood riding on top, so
/// the faults land on a stream that also stresses the overload ladder.
fn chaos_trace() -> SyntheticTrace {
    let background = generate(
        &TraceConfig::builder()
            .duration_secs(30.0)
            .flow_rate_per_sec(20.0)
            .seed(2007)
            .build()
            .expect("static config is valid"),
    );
    let flood = attack::syn_flood(&AttackConfig {
        seed: 2007,
        start: Timestamp::from_secs(8.0),
        duration: TimeDelta::from_secs(15.0),
        rate_per_sec: 300.0,
        victim: "10.0.0.9:6881".parse().expect("static addr"),
    });
    attack::merge(vec![background, flood])
}

fn filter_config() -> BitmapFilterConfig {
    BitmapFilterConfig::builder()
        .vector_bits(12)
        .rng_seed(2007)
        .build()
        .expect("static config is valid")
}

fn failure_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("target")
        .join("chaos-failures");
    std::fs::create_dir_all(&dir).expect("create failure dir");
    dir
}

/// Runs `f`; on panic, writes the failing plan spec out for offline
/// replay and re-raises with the artifact path.
fn with_plan_artifact(label: &str, spec: &str, f: impl FnOnce() + std::panic::UnwindSafe) {
    if let Err(cause) = catch_unwind(f) {
        let path = failure_dir().join(format!("{label}.txt"));
        std::fs::write(&path, format!("--fault-plan {spec}\n")).expect("write failing plan");
        panic!(
            "chaos plan {label} ({spec}) failed (plan saved to {}): {cause:?}",
            path.display()
        );
    }
}

/// The pipeline-level accounting property for one plan.
fn check_pipeline_accounting(spec: &str, stream: &[Packet]) {
    let plan = FaultPlan::parse(spec).expect("matrix plans parse");
    let result = PipelineRunner::new(inside(), filter_config())
        .shards(4)
        .fault_plan(plan.clone())
        .run(stream.iter().cloned())
        .expect("fault-plan runs never hit config/IO errors");
    // A non-empty plan routes through the chaos path and yields a
    // distortion report; an empty one falls back to the plain pipeline.
    let report = result.distortion.unwrap_or_default();
    assert_eq!(
        result.pipeline.ingested as usize,
        stream.len(),
        "every packet must be ingested"
    );
    assert_eq!(
        result.pipeline.passed + result.pipeline.dropped,
        result.pipeline.ingested,
        "every packet must get a verdict"
    );
    assert_eq!(
        result.supervisor.panics, result.supervisor.restarts,
        "every injected panic must be caught and the shard rebuilt"
    );
    if plan.panics() > 0 {
        assert!(
            result.supervisor.panics >= 1,
            "a panic-armed plan must actually fire on a {}-packet stream",
            stream.len()
        );
    }
    if plan.is_none() {
        assert_eq!(report, Default::default());
    }
}

/// The zero-solicited-flips property for one plan: replay the distorted
/// stream through a ladder-armed sequential filter and require that no
/// inbound packet whose canonical flow sent an outbound packet within
/// the rotation bound of watermark time is dropped.
fn check_no_solicited_flips(spec: &str, stream: &[Packet]) {
    let plan = FaultPlan::parse(spec).expect("matrix plans parse");
    let (distorted, _) = plan.distort_stream(stream.to_vec());
    let config = filter_config();
    let bound = {
        let floor = (config.vectors() as u32 - 1) / 2;
        TimeDelta::from_micros(config.rotate_every().as_micros() * u64::from(floor))
    };
    let inside = inside();
    let mut filter = BitmapFilter::new(config).with_overload_policy(OverloadPolicy::balanced());
    // Marks keyed by canonical tuple, valued at the *watermark* when the
    // outbound packet was decided — the clock the rotation schedule
    // actually runs on.
    let mut mark_watermark: std::collections::HashMap<FiveTuple, Timestamp> =
        std::collections::HashMap::new();
    let mut watermark = Timestamp::ZERO;
    let mut solicited = 0u64;
    for packet in &distorted {
        let direction = inside.direction_of(&packet.tuple());
        watermark = watermark.max(packet.ts());
        let verdict = filter.decide(packet, direction);
        match direction {
            Direction::Outbound => {
                mark_watermark.insert(packet.tuple().canonical(), watermark);
            }
            Direction::Inbound => {
                let Some(&marked) = mark_watermark.get(&packet.tuple().canonical()) else {
                    continue;
                };
                if watermark.saturating_since(marked) < bound {
                    solicited += 1;
                    assert_eq!(
                        verdict,
                        Verdict::Pass,
                        "solicited flow {:?} flipped to Drop {}us after its mark \
                         (bound {}us) under plan {spec}",
                        packet.tuple(),
                        watermark.saturating_since(marked).as_micros(),
                        bound.as_micros()
                    );
                }
            }
        }
    }
    assert!(
        solicited > 0,
        "the trace must actually exercise solicited inbound traffic"
    );
}

/// Tentpole matrix: every plan upholds both properties, deterministically.
#[test]
fn fixed_seed_fault_matrix_holds_invariants() {
    let trace = chaos_trace();
    let stream: Vec<Packet> = trace.packets.iter().map(|lp| lp.packet.clone()).collect();
    assert!(stream.len() > 5_000, "chaos stream too small");
    for (i, spec) in PLANS.iter().enumerate() {
        with_plan_artifact(&format!("plan-{i}-pipeline"), spec, {
            let stream = stream.clone();
            move || check_pipeline_accounting(spec, &stream)
        });
        with_plan_artifact(&format!("plan-{i}-solicited"), spec, {
            let stream = stream.clone();
            move || check_no_solicited_flips(spec, &stream)
        });
    }
}

/// Checkpoint I/O faults surface as [`SnapshotError`] from the replay
/// engine, and the same engine with a disarmed sink checkpoints fine.
///
/// Drives `run_checkpointed_with` directly: its sink argument is the
/// injection seam this test exercises, while
/// [`PipelineRunner::checkpoint`] always uses the atomic sink.
#[test]
fn checkpoint_faults_surface_and_disarmed_sink_recovers() {
    let trace = chaos_trace();
    let engine = ReplayEngine::new(ReplayConfig::default());
    let dir = failure_dir().join(format!("ckpt-scratch-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let path = dir.join("chaos.snap");
    let every = TimeDelta::from_secs(5.0);

    let armed = FaultPlan::parse("seed=9,ckpt=1").expect("plan parses");
    let mut filter = BitmapFilter::new(filter_config());
    let mut sink = FaultingCheckpointSink::new(AtomicCheckpointSink, armed.injector());
    let err = engine
        .run_checkpointed_with(&trace, &mut filter, &path, every, &mut sink)
        .expect_err("the armed sink must fail the first periodic write");
    assert!(matches!(err, SnapshotError::Io(_)), "got {err:?}");
    assert_eq!(
        sink.writes(),
        1,
        "the engine must stop at the first failure"
    );

    let disarmed = FaultPlan::parse("none").expect("plan parses");
    let mut filter = BitmapFilter::new(filter_config());
    let mut sink = FaultingCheckpointSink::new(AtomicCheckpointSink, disarmed.injector());
    let (_, written) = engine
        .run_checkpointed_with(&trace, &mut filter, &path, every, &mut sink)
        .expect("a disarmed sink checkpoints normally");
    assert!(written >= 1, "a 30s trace checkpoints at least once");
    assert_eq!(written, sink.writes());
    assert!(path.exists(), "the final checkpoint image must exist");
    std::fs::remove_dir_all(&dir).ok();
}
