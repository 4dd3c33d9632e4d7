//! Golden digests of `ReplayEngine`: FNV-1a of the JSON-serialized
//! `ReplayResult` and of the filter's final statistics, for two fixed
//! generator seeds under every configuration that changes how packets
//! reach the filter (connection blocking, batching, the P_d policy,
//! subscriber dispatch, a different filter).
//!
//! The digests were recorded before the replay loop was moved onto the
//! shared dataplane core, so they pin that the move did not change a
//! single verdict, bin or counter. A mismatch prints the whole observed
//! table.

use upbound::core::{BitmapFilter, BitmapFilterConfig, DropPolicy, PacketFilter, SubscriberTable};
use upbound::net::{Cidr, TimeDelta};
use upbound::sim::{PipelineRunner, ReplayConfig, ReplayEngine, ReplayResult};
use upbound::spi::{SpiConfig, SpiFilter};
use upbound::traffic::{generate, SyntheticTrace, TraceConfig};

const SEEDS: [u64; 2] = [3, 11];

/// One tenant of `tests/golden_digests.rs`'s subscriber spec.
struct Tenant {
    cidr: &'static str,
    /// `(low, high)` RED thresholds in Mbps.
    red: Option<(f64, f64)>,
    seed: Option<u64>,
}

/// The tenants of `tests/golden_digests.rs`'s subscriber spec: a nested
/// prefix (LPM), per-tenant RED points, and a tenant without one.
const TENANTS: [Tenant; 3] = [
    Tenant {
        cidr: "10.0.0.0/24",
        red: Some((0.2, 1.0)),
        seed: None,
    },
    Tenant {
        cidr: "10.0.0.64/26",
        red: Some((0.1, 0.4)),
        seed: Some(9),
    },
    Tenant {
        cidr: "10.0.0.128/25",
        red: None,
        seed: None,
    },
];

const CASES: [&str; 6] = [
    "default",
    "no-block",
    "batch-1",
    "red",
    "subscribers",
    "spi",
];

/// `(seed, case, FNV-1a of the ReplayResult JSON, FNV-1a of the stats JSON)`.
const GOLDEN: [(u64, &str, u64, u64); 12] = [
    (3, "default", 0x18ac6267b71953b5, 0x2d429b60600adbc6),
    (3, "no-block", 0x042512a5017897b2, 0xd84195f7cded014a),
    (3, "batch-1", 0x18ac6267b71953b5, 0x2d429b60600adbc6),
    (3, "red", 0xe0db3e36af5b3ec7, 0xe079cd982afc3531),
    (3, "subscribers", 0x7bd79a53878d6814, 0xd90ee3dcf23f33b1),
    (3, "spi", 0x3153af0e4bc0f456, 0x41c4e07c09d5cace),
    (11, "default", 0xc406f6cd08e61458, 0x1157692e65dae032),
    (11, "no-block", 0x289ffed9a457b512, 0xfacdfaaecc88fd0b),
    (11, "batch-1", 0xc406f6cd08e61458, 0x1157692e65dae032),
    (11, "red", 0x78d9da0a00a464b3, 0x668623d7f3a35520),
    (11, "subscribers", 0xa9f392501ea08753, 0xfb162447891e1c74),
    (11, "spi", 0x0e6b3356a3bb2dbd, 0xacb36a3928022c92),
];

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn trace(seed: u64) -> SyntheticTrace {
    generate(
        &TraceConfig::builder()
            .duration_secs(30.0)
            .flow_rate_per_sec(20.0)
            .seed(seed)
            .build()
            .expect("valid trace config"),
    )
}

fn tenant_table() -> SubscriberTable<BitmapFilter> {
    let mut table = SubscriberTable::new();
    for Tenant { cidr, red, seed } in TENANTS {
        let mut builder = BitmapFilterConfig::builder();
        if let Some((low, high)) = red {
            builder.drop_policy(DropPolicy::new(low * 1e6, high * 1e6).expect("valid policy"));
        }
        if let Some(seed) = seed {
            builder.rng_seed(seed);
        }
        let cidr: Cidr = cidr.parse().expect("valid cidr");
        table
            .add_subscriber(cidr, builder.build().expect("valid config"))
            .expect("provision tenant");
    }
    table
}

fn digest<S: serde::Serialize>(result: &ReplayResult, stats: &S) -> (u64, u64) {
    (
        fnv1a(
            serde_json::to_string(result)
                .expect("serialize result")
                .as_bytes(),
        ),
        fnv1a(
            serde_json::to_string(stats)
                .expect("serialize stats")
                .as_bytes(),
        ),
    )
}

fn run_bitmap(
    trace: &SyntheticTrace,
    replay: ReplayConfig,
    config: BitmapFilterConfig,
) -> (u64, u64) {
    let mut filter = BitmapFilter::new(config);
    let result = ReplayEngine::new(replay).run(trace, &mut filter);
    digest(&result, &filter.stats())
}

fn run_case(trace: &SyntheticTrace, case: &str) -> (u64, u64) {
    let paper = BitmapFilterConfig::paper_evaluation;
    match case {
        "default" => run_bitmap(trace, ReplayConfig::default(), paper()),
        "no-block" => run_bitmap(
            trace,
            ReplayConfig {
                block_connections: false,
                ..ReplayConfig::default()
            },
            paper(),
        ),
        "batch-1" => run_bitmap(
            trace,
            ReplayConfig {
                batch_size: 1,
                ..ReplayConfig::default()
            },
            paper(),
        ),
        "red" => run_bitmap(
            trace,
            ReplayConfig::default(),
            BitmapFilterConfig::builder()
                .drop_policy(DropPolicy::new(0.2e6, 1e6).expect("valid policy"))
                .build()
                .expect("valid config"),
        ),
        "subscribers" => {
            let inside: Cidr = "10.0.0.0/16".parse().expect("valid cidr");
            let mut table = tenant_table();
            let result =
                PipelineRunner::new(inside, paper()).measure_subscribers(trace, &mut table);
            digest(&result, &table.stats())
        }
        "spi" => {
            let mut filter = SpiFilter::new(SpiConfig {
                idle_timeout: TimeDelta::from_secs(240.0),
                ..SpiConfig::default()
            });
            let result = ReplayEngine::new(ReplayConfig::default()).run(trace, &mut filter);
            digest(&result, &filter.stats())
        }
        other => unreachable!("unknown case {other}"),
    }
}

#[test]
fn replay_results_match_golden_digests() {
    let mut observed = Vec::new();
    for seed in SEEDS {
        let trace = trace(seed);
        for case in CASES {
            let (result, stats) = run_case(&trace, case);
            observed.push((seed, case, result, stats));
        }
    }
    let table: String = observed
        .iter()
        .map(|(s, c, r, f)| format!("    ({s}, {c:?}, {r:#018x}, {f:#018x}),\n"))
        .collect();
    for (observed, golden) in observed.iter().zip(GOLDEN) {
        assert_eq!(
            *observed, golden,
            "digest mismatch; observed table:\n{table}"
        );
    }
}
