//! The demo fleet end to end: four shards in mixed serving tiers
//! (table-fronted int8, pure int8, fast-f32) behind one in-memory
//! registry, driven by closed-loop clients.
//!
//! Pins the two fleet contracts at fleet scale: a registry publish
//! lands mid-stream with nothing dropped or shed, and under overload
//! admission control sheds instead of queueing while admitted requests
//! stay within the SLO.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use voyager_bench::fleet_demo;
use voyager_runtime::{FleetClient, FleetError, FleetServer, ModelRegistry, ShardSpec, WorkloadId};

const SHARDS: usize = 4;
const SWAP_WORKLOAD: WorkloadId = WorkloadId(0);
const TRAIN_STEPS: usize = 30;
const DISTILL_WINDOWS: usize = 12;

/// `(ok, shed, other)` request totals of one closed-loop run.
type Outcome = (usize, usize, usize);

/// Closed-loop load: `clients` threads per shard, each issuing
/// `per_client` requests of its shard's stream.
fn drive(
    client: &FleetClient,
    shards: &[ShardSpec],
    clients: usize,
    per_client: usize,
    completed: &AtomicUsize,
) -> Outcome {
    let (ok, shed, other) = (
        AtomicUsize::new(0),
        AtomicUsize::new(0),
        AtomicUsize::new(0),
    );
    std::thread::scope(|scope| {
        for shard in shards {
            for c in 0..clients {
                let client = client.clone();
                let workload = shard.workload;
                let (ok, shed, other) = (&ok, &shed, &other);
                scope.spawn(move || {
                    for i in 0..per_client {
                        let counter =
                            match client.infer(fleet_demo::request(workload, c * per_client + i)) {
                                Ok(_) => ok,
                                Err(FleetError::Shed(_)) => shed,
                                Err(_) => other,
                            };
                        counter.fetch_add(1, Ordering::Relaxed);
                        completed.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        }
    });
    (ok.into_inner(), shed.into_inner(), other.into_inner())
}

fn published_fleet() -> (Arc<ModelRegistry>, Vec<ShardSpec>) {
    let shards = fleet_demo::default_shards(SHARDS);
    let registry = Arc::new(ModelRegistry::new());
    fleet_demo::publish_all(&registry, &shards, TRAIN_STEPS, DISTILL_WINDOWS);
    (registry, shards)
}

#[test]
fn four_shard_fleet_hot_swaps_mid_stream_without_dropping() {
    let (clients, per_client) = (2, 48);
    let (registry, shards) = published_fleet();
    let (server, client) =
        FleetServer::spawn(&registry, &shards, &fleet_demo::steady_config()).unwrap();
    // v2 is trained and distilled up front so the publish itself is
    // quick enough to land while the stream is in flight.
    let mut v2 = fleet_demo::trained_model(SWAP_WORKLOAD, TRAIN_STEPS, 1);
    let v2_tables = fleet_demo::tables_for(&mut v2, SWAP_WORKLOAD, DISTILL_WINDOWS);

    let completed = AtomicUsize::new(0);
    let offered = shards.len() * clients * per_client;
    let (outcome, published) = std::thread::scope(|scope| {
        let load = scope.spawn(|| drive(&client, &shards, clients, per_client, &completed));
        while completed.load(Ordering::Relaxed) < offered / 4 {
            std::thread::yield_now();
        }
        let published = registry
            .publish(
                SWAP_WORKLOAD,
                &fleet_demo::model_spec(),
                &v2,
                Some(v2_tables),
            )
            .unwrap();
        // The shard adopts between batches, so the swap must show on
        // live metrics promptly.
        let swap_key = format!("fleet.shard.{SWAP_WORKLOAD}.swaps");
        let deadline = Instant::now() + Duration::from_secs(30);
        while server.metrics().counters.get(swap_key.as_str()).copied() < Some(1) {
            assert!(
                Instant::now() < deadline,
                "hot swap not observed on live metrics within 30 s of publish"
            );
            std::thread::yield_now();
        }
        (load.join().unwrap(), published)
    });
    drop(client);
    let stats = server.join();

    assert_eq!(outcome, (offered, 0, 0), "nothing dropped, shed or stopped");
    assert_eq!(stats.shed(), 0);
    let swapped = stats
        .shards
        .iter()
        .find(|s| s.workload == SWAP_WORKLOAD)
        .unwrap();
    assert_eq!(swapped.swaps, 1, "exactly one hot swap");
    assert_eq!(swapped.swap_failures, 0);
    assert_eq!(swapped.version, published.0);
    assert!(
        !swapped.table_absent,
        "v2 was published with tables; the table shard must not degrade"
    );
}

#[test]
fn overload_sheds_and_keeps_admitted_p99_within_the_slo() {
    let (clients, per_client) = (16, 25);
    let (registry, shards) = published_fleet();
    let cfg = fleet_demo::overload_config();
    assert!(clients > cfg.max_queue_depth, "offer more than the bound");
    let (server, client) = FleetServer::spawn(&registry, &shards, &cfg).unwrap();
    let (ok, shed, other) = drive(&client, &shards, clients, per_client, &AtomicUsize::new(0));
    drop(client);
    let stats = server.join();

    assert_eq!(other, 0, "no shard may stop under overload");
    assert_eq!(ok + shed, shards.len() * clients * per_client);
    assert!(
        shed > 0,
        "{clients} clients per shard against a queue bound of {} must shed",
        cfg.max_queue_depth
    );
    let slo_ns = cfg.slo.as_nanos() as u64;
    for shard in &stats.shards {
        let p99 = shard.latency.quantile(0.99);
        assert!(
            p99 <= slo_ns,
            "shard {}: admitted p99 {p99} ns exceeds the {slo_ns} ns SLO",
            shard.name
        );
    }
}
