//! Shard-by-vertex-range execution is exact: for every fixture, every
//! kernel invariant, every shard count, and every thread-pool width, the
//! sharded counters — in-memory and out-of-core — must equal
//! `count_adaptive` bit for bit. Per-exposed-vertex updates are
//! independent, so vertex-range shards merge by plain addition; these
//! tests pin that algebra against the whole battery.

use bfly::core::spec::count_brute_force;
use bfly::core::telemetry::InMemoryRecorder;
use bfly::core::testkit::fixture_battery;
use bfly::core::{
    count_adaptive, count_adaptive_budgeted, count_segmented, count_segmented_budgeted_recorded,
    count_segmented_checkpointed_recorded, count_segmented_sharded_recorded, count_sharded,
    count_sharded_recorded, try_count_sharded, CheckpointConfig, Invariant, ResourceBudget,
};
use bfly::graph::generators::chung_lu;
use bfly::graph::{write_bfly_file, SegmentedGraph, Side};
use rand::rngs::StdRng;
use rand::SeedableRng;

const SHARDS: [usize; 3] = [1, 2, 4];
const THREADS: [usize; 3] = [1, 2, 4];

#[test]
fn every_invariant_and_shard_count_matches_adaptive() {
    for (name, g) in fixture_battery() {
        let want = count_adaptive(&g).0;
        for inv in Invariant::ALL {
            for shards in SHARDS {
                assert_eq!(
                    count_sharded(&g, inv, shards),
                    want,
                    "{name} {inv} shards={shards}"
                );
                assert_eq!(
                    try_count_sharded(&g, inv, shards).unwrap(),
                    want,
                    "{name} {inv} shards={shards} (checked)"
                );
            }
            // More shards than vertices degrades to one vertex per shard.
            assert_eq!(
                count_sharded(&g, inv, 10_000),
                want,
                "{name} {inv} oversharded"
            );
        }
    }
}

#[test]
fn sharded_counts_are_thread_pool_invariant() {
    // The sharded path merges per-shard partials in shard order, so the
    // ambient rayon pool width must never change the answer (or the
    // shard bookkeeping).
    for (name, g) in fixture_battery() {
        let want = count_adaptive(&g).0;
        let inv = Invariant::Inv2;
        for threads in THREADS {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            for shards in SHARDS {
                let got = pool.install(|| {
                    let mut rec = InMemoryRecorder::new();
                    let n = count_sharded_recorded(&g, inv, shards, &mut rec);
                    let rep = rec.report(vec![]);
                    let processed = rep
                        .counters
                        .iter()
                        .find(|(c, _)| c == "shards_processed")
                        .map(|(_, v)| *v)
                        .unwrap_or(0);
                    assert!(
                        processed >= 1 && processed <= shards as u64,
                        "{name} threads={threads} shards={shards}: processed {processed}"
                    );
                    assert!(rep.gauges.iter().any(|(g, _)| g == "shards_planned"));
                    n
                });
                assert_eq!(got, want, "{name} threads={threads} shards={shards}");
            }
        }
    }
}

#[test]
fn out_of_core_counts_match_in_memory_on_the_battery() {
    let dir = std::env::temp_dir().join(format!("bfly-shard-diff-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (name, g) in fixture_battery() {
        let want = count_adaptive(&g).0;
        let path = dir.join("g.bfly");
        write_bfly_file(&g, &path).unwrap();
        let sg = SegmentedGraph::open(&path).unwrap();
        assert_eq!(count_segmented(&sg).unwrap(), want, "{name}");
        for shards in SHARDS {
            assert_eq!(
                count_segmented_sharded_recorded(&sg, shards, &mut InMemoryRecorder::new())
                    .unwrap(),
                want,
                "{name} shards={shards} (out-of-core)"
            );
        }
        // Byte-driven shard sizing: a small per-shard payload cap forces
        // many shards; the count must not move.
        let r = count_segmented_budgeted_recorded(
            &sg,
            None,
            Some(64),
            &ResourceBudget::unlimited(),
            &mut InMemoryRecorder::new(),
        )
        .unwrap();
        assert!(r.complete, "{name}");
        assert_eq!(r.value.0, want, "{name} shard-bytes=64");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn budgeted_sharded_tier_agrees_with_unbudgeted_planner() {
    // Whatever tier the byte budget lands on — degraded in-memory or the
    // sharded out-of-core plan — the count is the same. Sweep caps from
    // generous to absurd and require every successful run to be exact.
    for (name, g) in fixture_battery() {
        let want = count_adaptive(&g).0;
        for cap in [1u64 << 30, 1 << 20, 1 << 14, 1 << 10] {
            let budget = ResourceBudget::unlimited().with_max_bytes(cap);
            match count_adaptive_budgeted(&g, true, &budget) {
                Ok(r) => {
                    assert!(r.complete, "{name} cap={cap}");
                    assert_eq!(r.value.0, want, "{name} cap={cap}");
                }
                Err(bfly::core::BflyError::BudgetExceeded { resource, .. }) => {
                    assert_eq!(resource, "bytes", "{name} cap={cap}")
                }
                Err(other) => panic!("{name} cap={cap}: unexpected {other:?}"),
            }
        }
    }
}

/// A skewed Chung–Lu graph whose opposite-side rows outgrow the row
/// cache at every shard count: 80k edges decode to 320 KB, above the
/// 256 KiB ceiling at one shard, and the ceiling falls with the shard.
/// V1 stays small so `count_brute_force` is quick.
fn skewed_bfly(dir: &std::path::Path) -> (bfly::graph::BipartiteGraph, SegmentedGraph) {
    let g = chung_lu(400, 6000, 80_000, 0.9, 0.9, &mut StdRng::seed_from_u64(15));
    let path = dir.join("skewed.bfly");
    write_bfly_file(&g, &path).unwrap();
    let sg = SegmentedGraph::open(&path).unwrap();
    (g, sg)
}

#[test]
fn row_cache_serves_hot_rows_and_reads_cold_ones_exactly() {
    let dir = std::env::temp_dir().join(format!("bfly-shard-cache-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (g, sg) = skewed_bfly(&dir);
    let want = count_brute_force(&g);
    assert_eq!(count_adaptive(&g).0, want);
    for shards in [1, 4, 16] {
        let mut rec = InMemoryRecorder::new();
        let r = count_segmented_budgeted_recorded(
            &sg,
            Some(shards),
            None,
            &ResourceBudget::unlimited(),
            &mut rec,
        )
        .unwrap();
        assert_eq!(r.value.0, want, "shards={shards}");
        let other = match r.value.1.partition_side() {
            Side::V1 => Side::V2,
            Side::V2 => Side::V1,
        };
        let nonempty = sg.degrees(other).iter().filter(|&&d| d > 0).count() as f64;
        let rows = rec.gauge_value("row_cache.rows").unwrap();
        assert!(
            rows > 0.0 && rows < nonempty,
            "shards={shards}: {rows} cached of {nonempty} non-empty opposite rows"
        );
        let bytes = rec.gauge_value("row_cache.bytes").unwrap();
        assert!(
            bytes > 0.0 && bytes <= (256 << 10) as f64,
            "shards={shards}"
        );
        assert!(
            rec.gauge_value("rows_fetched").unwrap() > 0.0,
            "shards={shards}"
        );
        assert_eq!(
            rec.spans().iter().filter(|s| s.name == "row_cache").count(),
            1,
            "shards={shards}: one fill per run"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_of_every_shard_does_not_fill_the_row_cache() {
    let dir = std::env::temp_dir().join(format!("bfly-shard-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let (g, sg) = skewed_bfly(&dir);
    let want = count_adaptive(&g).0;
    let run = |cfg: &CheckpointConfig, rec: &mut InMemoryRecorder| {
        count_segmented_checkpointed_recorded(
            &sg,
            Some(4),
            None,
            &ResourceBudget::unlimited(),
            Some(cfg),
            rec,
        )
        .unwrap()
    };
    let mut first = InMemoryRecorder::new();
    assert_eq!(
        run(&CheckpointConfig::new(dir.join("ck")), &mut first)
            .value
            .0,
        want
    );
    assert!(first.gauge_value("row_cache.rows").unwrap() > 0.0);
    let mut resumed = InMemoryRecorder::new();
    let r = run(&CheckpointConfig::resume(dir.join("ck")), &mut resumed);
    assert_eq!(r.value.0, want);
    assert_eq!(resumed.gauge_value("row_cache.rows"), Some(0.0));
    assert_eq!(resumed.gauge_value("row_cache.bytes"), Some(0.0));
    assert_eq!(resumed.gauge_value("rows_fetched"), Some(0.0));
    assert!(resumed.spans().iter().all(|s| s.name != "row_cache"));
    let _ = std::fs::remove_dir_all(&dir);
}
