//! The traced compositions must be the library paths they time: same
//! `Fused`, same enrichment, same snapshot bytes, same batches, same WAL
//! and checkpoint bytes — at a scale small enough to run in seconds.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use crowd_analytics::Study;
use crowd_ingest::WalOptions;
use crowd_perfbench::repro_path;
use crowd_perfbench::serve_path::{self, Durability};
use crowd_perfbench::trace::Tracer;
use crowd_sim::SimConfig;
use crowd_snapshot::warm::study_from_config;
use crowd_snapshot::SnapshotStore;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("perfbench-compose-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn assert_same_study(composed: &Study, library: &Study) {
    assert_eq!(composed.n_instances(), library.n_instances());
    assert_eq!(composed.clusters().len(), library.clusters().len());
    let metrics = |s: &Study| s.enriched_batches().cloned().collect::<Vec<_>>();
    assert_eq!(metrics(composed), metrics(library));
    assert!(composed.fused() == library.fused(), "composed fused state differs from the library's");
}

fn span_names(t: &Tracer) -> Vec<&'static str> {
    let mut names: Vec<_> = t.spans().iter().map(|s| s.name).collect();
    names.sort_unstable();
    names.dedup();
    names
}

#[test]
fn stream_cold_composition_writes_the_library_snapshot() {
    let cfg = SimConfig::tiny(32);
    let (a, b) = (scratch("stream-a"), scratch("stream-b"));
    let (store_a, store_b) =
        (SnapshotStore::new(&a).with_shards(16), SnapshotStore::new(&b).with_shards(16));
    let t = Tracer::new("stream");
    let composed = repro_path::build_study(&cfg, &store_a, &t).unwrap();
    let library = study_from_config(&cfg, Some(&store_b)).with_shards(16);
    let bytes = |s: &SnapshotStore| std::fs::read(s.path_for(&cfg)).unwrap();
    assert!(bytes(&store_a) == bytes(&store_b), "snapshot bytes differ");
    assert_same_study(&composed, &library);
    let names = span_names(&t);
    for name in ["sim.prepare", "sim.rows", "snapshot.encode", "snapshot.open", "snapshot.decode"] {
        assert!(names.contains(&name), "{name} missing from {names:?}");
    }
    assert_eq!(t.counters()["snapshot.bytes_written"], bytes(&store_a).len() as f64);
    assert_eq!(t.counters()["sim.rows"], library.n_instances() as f64);
    // The fused scan streams every shard back: one decode span per shard.
    let reader = store_a.open_reader(&cfg).unwrap();
    let decodes = t.spans().iter().filter(|s| s.name == "snapshot.decode").count();
    assert_eq!(decodes, reader.directory().n_shards(), "one decode span per shard");
    let _ = (std::fs::remove_dir_all(a), std::fs::remove_dir_all(b));
}

#[test]
fn a_full_run_nests_every_span_under_one_root() {
    let cfg = SimConfig::tiny(34);
    let dir = scratch("run");
    let t = Tracer::new("run");
    let summary = repro_path::run(&cfg, &SnapshotStore::new(&dir).with_shards(16), &t).unwrap();
    let spans = t.spans();
    let roots: Vec<_> = spans.iter().filter(|s| s.parent.is_none()).collect();
    assert_eq!(roots.len(), 1);
    assert_eq!(roots[0].name, "repro");
    for name in ["query.fused", "analytics.marketplace", "analytics.design", "analytics.workers"] {
        assert!(spans.iter().any(|s| s.name == name && s.parent == Some(roots[0].id)), "{name}");
    }
    assert_eq!(t.counters()["query.rows_scanned"], summary.n_instances as f64);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn composing_the_wrong_store_is_an_error() {
    let cfg = SimConfig::tiny(35);
    let t = Tracer::new("bad");
    let flat = SnapshotStore::new(scratch("flat"));
    assert!(repro_path::build_study(&cfg, &flat, &t).is_err());
}

/// Every file under `dir`, by name, with its bytes.
fn files(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .unwrap()
        .flatten()
        .map(|e| (e.file_name().to_string_lossy().into_owned(), std::fs::read(e.path()).unwrap()))
        .collect()
}

#[test]
fn traced_session_is_the_library_session() {
    let seed = 41;
    let feed = serve_path::make_feed(&SimConfig::tiny(seed));
    // Small batches, cadence and segments, so the session rotates and
    // retires WAL segments and recovery replays a tail past a checkpoint.
    let d = Durability {
        batch_events: 500,
        checkpoint_every: 3000,
        wal: WalOptions { fsync_every: 1, segment_bytes: 16 << 10 },
    };
    let (a, b) = (scratch("serve-a"), scratch("serve-b"));
    let library = serve_path::library_session(&feed, &a, seed, d).unwrap();
    let t = Tracer::new("serve");
    let traced = serve_path::traced_session(&feed, &b, seed, d, &t).unwrap();

    assert!(library.failures.is_empty(), "{:?}", library.failures);
    assert!(traced.failures.is_empty(), "{:?}", traced.failures);
    assert_eq!(traced.events, library.events);
    assert_eq!(traced.batches, library.batches);
    assert!(traced.view.fused == library.view.fused, "final views differ");
    assert_eq!(traced.wal, library.wal);
    assert!(library.wal.segments_retired > 0, "the session retires WAL segments");
    for sub in ["wal", "checkpoints"] {
        assert!(files(&a.join(sub)) == files(&b.join(sub)), "{sub} bytes differ");
    }
    let counters = t.counters();
    assert!(counters["ingest.wal_events_replayed"] > 0.0, "recovery replays a WAL tail");
    assert_eq!(counters["ingest.events"], library.events as f64);
    let roots: Vec<_> =
        t.spans().into_iter().filter(|s| s.parent.is_none()).map(|s| s.name).collect();
    assert_eq!(roots, ["serve", "serve.recover"]);
    let _ = (std::fs::remove_dir_all(a), std::fs::remove_dir_all(b));
}
