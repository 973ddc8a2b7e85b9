//! I/O chaos battery: atomic conversion, transient-fault retries, and
//! retry exhaustion through the positioned-read path.
//!
//! Conversion and `.bfly` writing go through a temp-file → fsync →
//! rename protocol, so a crash or error mid-convert can never leave a
//! torn file at the destination. The `BFLY_FAULT_READ_*` hooks inject
//! deterministic faults into `SegmentedGraph`'s positioned reads to
//! drive the `RetryPolicy` layer end to end. Environment variables are
//! process-global, so every env-touching test here serialises on one
//! lock (other test files are separate processes).

use std::sync::Mutex;

use bfly::core::telemetry::{Counter, InMemoryRecorder};
use bfly::core::testkit::fixture_battery;
use bfly::core::{
    count_adaptive, count_segmented, count_segmented_budgeted_recorded, ResourceBudget,
};
use bfly::graph::generators::chung_lu;
use bfly::graph::io::IoError;
use bfly::graph::{
    convert_to_bfly, is_bfly_file, read_bfly_file, write_bfly_file, SegmentedGraph, Side,
    TextFormat,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

static ENV_LOCK: Mutex<()> = Mutex::new(());

fn env_guard() -> std::sync::MutexGuard<'static, ()> {
    ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("bfly-iochaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn biggest_fixture() -> bfly::graph::BipartiteGraph {
    fixture_battery()
        .into_iter()
        .max_by_key(|(_, g)| g.nedges())
        .unwrap()
        .1
}

#[test]
fn failed_convert_never_touches_the_destination() {
    let dir = tmp_dir("convert");
    let g = biggest_fixture();
    let want = count_adaptive(&g).0;

    // Seed the destination with a valid .bfly from an earlier "run".
    let dest = dir.join("g.bfly");
    write_bfly_file(&g, &dest).unwrap();
    assert!(is_bfly_file(&dest));

    // A conversion that dies mid-parse (bad edge line after good ones)
    // must leave the old destination bitwise intact and no stray temps.
    let bad_input = dir.join("bad.tsv");
    std::fs::write(&bad_input, "0\t0\n1\t1\nnot-an-edge\n").unwrap();
    let before = std::fs::read(&dest).unwrap();
    let err = convert_to_bfly(&bad_input, TextFormat::EdgeList, &dest).unwrap_err();
    assert!(matches!(err, IoError::Parse { .. }), "got {err:?}");
    assert_eq!(std::fs::read(&dest).unwrap(), before, "destination torn");
    let leftovers: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().to_string())
        .filter(|n| n.ends_with(".tmp"))
        .collect();
    assert!(leftovers.is_empty(), "stray temp files: {leftovers:?}");

    // The still-valid old file keeps counting correctly.
    assert_eq!(count_adaptive(&read_bfly_file(&dest).unwrap()).0, want);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn convert_recovers_after_a_simulated_crash_mid_rename() {
    // A previous convert that died before its final rename leaves
    // `<dest>.tmp` garbage behind; rerunning the convert must succeed
    // and the destination must be the fresh, valid file.
    let dir = tmp_dir("crash");
    let g = biggest_fixture();
    let want = count_adaptive(&g).0;

    let input = dir.join("g.tsv");
    let mut text = String::new();
    for u in 0..g.nv1() {
        for &v in g.neighbors_v1(u) {
            text.push_str(&format!("{u}\t{v}\n"));
        }
    }
    std::fs::write(&input, text).unwrap();

    let dest = dir.join("g.bfly");
    std::fs::write(
        format!("{}.tmp", dest.display()),
        b"torn garbage from a crash",
    )
    .unwrap();
    let stats = convert_to_bfly(&input, TextFormat::EdgeList, &dest).unwrap();
    assert_eq!(stats.nedges as usize, g.nedges());
    assert!(is_bfly_file(&dest));
    assert_eq!(count_adaptive(&read_bfly_file(&dest).unwrap()).0, want);
    assert!(
        !std::path::Path::new(&format!("{}.tmp", dest.display())).exists(),
        "stale .tmp survived the rerun"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn write_bfly_file_is_atomic_on_success() {
    let dir = tmp_dir("write");
    let g = biggest_fixture();
    let dest = dir.join("g.bfly");
    write_bfly_file(&g, &dest).unwrap();
    assert!(is_bfly_file(&dest));
    assert!(
        !std::path::Path::new(&format!("{}.tmp", dest.display())).exists(),
        ".tmp left behind after successful write"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn transient_read_faults_are_retried_to_an_exact_count() {
    let _guard = env_guard();
    let dir = tmp_dir("transient");
    let g = biggest_fixture();
    let want = count_adaptive(&g).0;
    let path = dir.join("g.bfly");
    write_bfly_file(&g, &path).unwrap();

    // Interrupted faults on the first 3 read attempts: the retry layer
    // absorbs them (default policy allows 4 attempts per read) and the
    // count is exact, with the retries visible in the stats.
    std::env::set_var("BFLY_FAULT_READ_TRANSIENT", "3");
    let sg = SegmentedGraph::open(&path).unwrap();
    std::env::remove_var("BFLY_FAULT_READ_TRANSIENT");
    assert_eq!(count_segmented(&sg).unwrap(), want);
    let (retries, giveups) = sg.retry_stats();
    assert_eq!(retries, 3);
    assert_eq!(giveups, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn retry_exhaustion_names_the_attempt_count_and_keeps_the_error_kind() {
    let _guard = env_guard();
    let dir = tmp_dir("exhaust");
    let g = biggest_fixture();
    let path = dir.join("g.bfly");
    write_bfly_file(&g, &path).unwrap();

    // More transient faults than the policy's attempt budget: the read
    // gives up, and the error says how hard it tried.
    std::env::set_var("BFLY_FAULT_READ_TRANSIENT", "1000");
    let sg = SegmentedGraph::open(&path).unwrap();
    std::env::remove_var("BFLY_FAULT_READ_TRANSIENT");
    let err = count_segmented(&sg).unwrap_err();
    match &err {
        bfly::core::BflyError::Io(IoError::Io(e)) => {
            assert_eq!(e.kind(), std::io::ErrorKind::Interrupted);
            assert!(
                e.to_string().contains("giving up after 4 attempts"),
                "got: {e}"
            );
        }
        other => panic!("expected runtime io error, got {other:?}"),
    }
    let (_, giveups) = sg.retry_stats();
    assert!(giveups >= 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn hard_read_faults_fail_fast_without_retries() {
    let _guard = env_guard();
    let dir = tmp_dir("hard");
    let g = biggest_fixture();
    let path = dir.join("g.bfly");
    write_bfly_file(&g, &path).unwrap();

    std::env::set_var("BFLY_FAULT_READ_ERROR_AT", "1");
    let sg = SegmentedGraph::open(&path).unwrap();
    std::env::remove_var("BFLY_FAULT_READ_ERROR_AT");
    let err = count_segmented(&sg).unwrap_err();
    match &err {
        bfly::core::BflyError::Io(IoError::Io(e)) => {
            assert!(e.to_string().contains("injected hard fault"), "got: {e}");
        }
        other => panic!("expected runtime io error, got {other:?}"),
    }
    // A permanent error never burns retry budget.
    let (retries, giveups) = sg.retry_stats();
    assert_eq!(retries, 0);
    assert_eq!(giveups, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn checkpointed_count_rides_out_transient_faults() {
    // Retries + checkpointing compose: a run whose reads flake still
    // produces exact durable shards.
    let _guard = env_guard();
    let dir = tmp_dir("compose");
    let g = biggest_fixture();
    let want = count_adaptive(&g).0;
    let path = dir.join("g.bfly");
    write_bfly_file(&g, &path).unwrap();

    std::env::set_var("BFLY_FAULT_READ_TRANSIENT", "2");
    let sg = SegmentedGraph::open(&path).unwrap();
    std::env::remove_var("BFLY_FAULT_READ_TRANSIENT");
    let cfg = bfly::core::CheckpointConfig::new(dir.join("ck"));
    let r = bfly::core::count_segmented_checkpointed_recorded(
        &sg,
        Some(4),
        None,
        &ResourceBudget::unlimited(),
        Some(&cfg),
        &mut InMemoryRecorder::new(),
    )
    .unwrap();
    assert!(r.complete);
    assert_eq!(r.value.0, want);
    let (retries, _) = sg.retry_stats();
    assert_eq!(retries, 2);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A skewed graph small enough that, at 4 shards, the wedge-weight scan
/// and the row-cache fill each take one positioned read — both payloads
/// fit the 4 KiB minimum stream window, encoded and decoded — so read 1
/// is the scan and read 2 is the fill. The cache allowance (a quarter of
/// the decoded partition rows) holds only part of the opposite side.
fn fill_fault_graph(dir: &std::path::Path) -> (u64, std::path::PathBuf) {
    let g = chung_lu(60, 200, 900, 0.9, 0.9, &mut StdRng::seed_from_u64(3));
    let path = dir.join("g.bfly");
    write_bfly_file(&g, &path).unwrap();
    let sg = SegmentedGraph::open(&path).unwrap();
    for side in [Side::V1, Side::V2] {
        let n = sg.side_len(side);
        assert!(sg.payload_bytes(side, 0, n) <= 4096 && 4 * sg.nedges() <= 4096);
    }
    let want = count_adaptive(&g).0;
    let mut rec = InMemoryRecorder::new();
    assert_eq!(count_4_shards(&sg, &mut rec).unwrap(), want);
    let rows = rec.gauge_value("row_cache.rows").unwrap();
    assert!(rows > 0.0 && rows < 200.0, "partial cache: {rows} rows");
    (want, path)
}

fn count_4_shards(
    sg: &SegmentedGraph,
    rec: &mut InMemoryRecorder,
) -> Result<u64, bfly::core::BflyError> {
    count_segmented_budgeted_recorded(sg, Some(4), None, &ResourceBudget::unlimited(), rec)
        .map(|r| r.value.0)
}

#[test]
fn transient_faults_in_the_row_cache_fill_are_retried_to_an_exact_count() {
    let _guard = env_guard();
    let dir = tmp_dir("fill-transient");
    let (want, path) = fill_fault_graph(&dir);
    let sg = SegmentedGraph::open(&path).unwrap();
    sg.inject_transient_read_faults(2, 2);
    let mut rec = InMemoryRecorder::new();
    assert_eq!(count_4_shards(&sg, &mut rec).unwrap(), want);
    assert_eq!(sg.retry_stats(), (2, 0));
    assert_eq!(rec.counter(Counter::IoRetries), 2);
    assert!(rec.gauge_value("row_cache.rows").unwrap() > 0.0);
    assert!(rec.gauge_value("rows_fetched").unwrap() > 0.0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn hard_fault_in_the_row_cache_fill_is_a_typed_error() {
    let _guard = env_guard();
    let dir = tmp_dir("fill-hard");
    let (_, path) = fill_fault_graph(&dir);
    std::env::set_var("BFLY_FAULT_READ_ERROR_AT", "2");
    let sg = SegmentedGraph::open(&path).unwrap();
    std::env::remove_var("BFLY_FAULT_READ_ERROR_AT");
    let mut rec = InMemoryRecorder::new();
    match count_4_shards(&sg, &mut rec).unwrap_err() {
        bfly::core::BflyError::Io(IoError::Io(e)) => {
            assert!(e.to_string().contains("positioned read 2"), "got: {e}");
        }
        other => panic!("expected runtime io error, got {other:?}"),
    }
    assert_eq!(sg.retry_stats(), (0, 0));
    // The fill failed before any shard counted.
    assert_eq!(rec.counter(Counter::ShardsProcessed), 0);
    assert_eq!(rec.gauge_value("row_cache.rows"), Some(0.0));
    let _ = std::fs::remove_dir_all(&dir);
}
