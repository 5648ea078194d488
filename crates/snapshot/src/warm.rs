//! Warm-start entry points: `Study` construction with read-on-hit /
//! write-on-miss snapshot caching.
//!
//! Every store-backed build runs one streamed pipeline (DESIGN.md §16); a
//! store of one shard is simply that pipeline's one-shard layout, and
//! nothing here branches on the shard count. The decision tree, in full:
//!
//! * no store → plain cold build (simulate + cluster + enrich), nothing
//!   touched on disk;
//! * full hit (the snapshot opens and its derived artifacts match the
//!   requested cluster parameters) → only the meta payload loads
//!   (entities + persisted enrichment): no simulation, no shingling, no
//!   LSH, no feature extraction. The `Study` is *columns optional*; its
//!   fused scan streams the shard sections back through a
//!   [`ShardedSnapshotReader`](crate::ShardedSnapshotReader) on first use;
//! * derived mismatch (other parameters, or none persisted) → the on-disk
//!   shards stream through the same [`SnapshotWriter`] +
//!   [`StreamingEnricher`] fork the cold build uses: simulation is
//!   skipped, clustering and enrichment re-run, and the snapshot is
//!   rewritten in its existing layout. Every read finishes before the
//!   rewrite publishes;
//! * miss, or **any** integrity failure → the streamed cold build:
//!   [`crowd_sim::prepare_streamed`] builds entities first, then the
//!   instance stream is forked shard-by-shard into the writer and the
//!   enricher, so the full instance table never exists in memory at once;
//! * any write failure → one cold fallback,
//!   `Study::with_cluster_params(simulate(cfg), params)`, counted in
//!   [`SnapshotStore::swallowed_saves`]. A read-only cache directory
//!   degrades to cold-every-time; it does not break the run.
//!
//! Correctness never depends on the cache. A shard section damaged after
//! the warm start opened the file surfaces in the lazy fused scan, which
//! rebuilds the snapshot once, in the same run, and streams the fresh
//! file; should that fail too, the scan answers from an in-memory
//! re-simulation and never retries. A corrupt file costs one cold run,
//! not a wrong answer.

use crowd_analytics::fused::{compute, Fused};
use crowd_analytics::study::{enrich_batches, sampled_docs, StreamingEnricher};
use crowd_analytics::{BatchMetrics, Study};
use crowd_cluster::{ClusterParams, Clusterer, Clustering, Signature};
use crowd_core::dataset::{Dataset, InstanceColumns};
use crowd_core::shard::ShardSink;
use crowd_sim::{simulate, SimConfig};

use crate::{Derived, ShardedSnapshotReader, SnapshotError, SnapshotStore, SnapshotWriter};

/// [`Study::new`] with snapshot caching: read-on-hit, write-on-miss.
///
/// With `store == None` this is exactly `Study::new(simulate(cfg))`; with a
/// store, the result is bit-identical but a warm hit skips the entire
/// generative pipeline.
pub fn study_from_config(cfg: &SimConfig, store: Option<&SnapshotStore>) -> Study {
    study_with_params(cfg, ClusterParams::default(), store)
}

/// [`study_from_config`] with explicit clustering parameters.
pub fn study_with_params(
    cfg: &SimConfig,
    params: ClusterParams,
    store: Option<&SnapshotStore>,
) -> Study {
    let Some(store) = store else {
        return Study::with_cluster_params(simulate(cfg), params);
    };
    let built = match store.open_reader(cfg) {
        Ok(reader) if reader.derived().is_some_and(|d| d.params == params) => {
            let n_rows = reader.directory().n_rows() as usize;
            let (entities, derived, _) = reader.into_meta();
            let metrics = derived.expect("params just matched on this derived section").metrics;
            Ok(Built { entities, metrics, n_rows })
        }
        Ok(reader) => rederive(cfg, params, store, reader),
        Err(_) => build_streamed(cfg, params, store),
    };
    match built {
        Ok(Built { entities, metrics, n_rows }) => Study::from_enrichment_streamed(
            entities,
            metrics,
            n_rows,
            fused_source(cfg, params, store),
        ),
        Err(_) => {
            store.note_swallowed_save();
            Study::with_cluster_params(simulate(cfg), params)
        }
    }
}

/// What a published (or fully hit) snapshot gives the columns-optional
/// `Study`: the entity tables, the per-batch enrichment, and the row count.
struct Built {
    entities: Dataset,
    metrics: Vec<BatchMetrics>,
    n_rows: usize,
}

/// Streaming cold build: entities are generated first, clustering and
/// shard layout come from them alone, and then each finished shard of
/// instance rows is forked into the snapshot writer and the enricher
/// before the next shard is produced. Peak memory is the entity tables
/// plus ~one shard of rows. An `Err` is always a write failure.
fn build_streamed(
    cfg: &SimConfig,
    params: ClusterParams,
    store: &SnapshotStore,
) -> Result<Built, SnapshotError> {
    let sim = crowd_sim::prepare_streamed(cfg);
    let writer = store.open_writer(cfg, sim.planned_rows())?;
    let mut fork = Fork::new(writer, sim.entities(), params);
    let shard_rows = fork.writer.shard_rows();
    match sim.run(cfg, shard_rows, &mut fork) {
        Ok(entities) => fork.publish(entities),
        Err(e) => {
            fork.writer.abort();
            Err(e)
        }
    }
}

/// Derived-parameter mismatch: replays the on-disk shards through a fresh
/// fork, rewriting the snapshot in the layout it already has. A shard
/// that fails its integrity check abandons the rewrite for the cold
/// build; an `Err` is always a write failure.
fn rederive(
    cfg: &SimConfig,
    params: ClusterParams,
    store: &SnapshotStore,
    mut reader: ShardedSnapshotReader,
) -> Result<Built, SnapshotError> {
    let writer = store.open_writer_with(cfg, reader.directory().shard_rows() as usize)?;
    let mut fork = Fork::new(writer, reader.entities(), params);
    for k in 0..reader.directory().n_shards() {
        let base = reader.directory().base_row(k) as usize;
        let Ok(shard) = reader.read_shard(k) else {
            fork.writer.abort();
            return build_streamed(cfg, params, store);
        };
        if let Err(e) = fork.flush(base, &shard) {
            fork.writer.abort();
            return Err(e);
        }
    }
    let (entities, _, _) = reader.into_meta(); // closes the file before the rename
    fork.publish(entities)
}

/// The two sinks of one streamed build, plus the clustering they finish
/// with. Clustering needs only the batch HTML, which lives in the entity
/// tables, so it runs before a single instance row arrives.
struct Fork {
    writer: SnapshotWriter,
    enricher: StreamingEnricher,
    params: ClusterParams,
    signatures: Vec<Signature>,
    clustering: Clustering,
}

impl Fork {
    fn new(writer: SnapshotWriter, entities: &Dataset, params: ClusterParams) -> Fork {
        let clusterer = Clusterer::new(params);
        let (_ids, docs) = sampled_docs(entities);
        let signatures = clusterer.signatures(&docs);
        let clustering = clusterer.cluster_signatures(&signatures);
        Fork { writer, enricher: StreamingEnricher::new(entities), params, signatures, clustering }
    }

    /// Finishes the enrichment and publishes the snapshot with its derived
    /// artifacts.
    fn publish(self, entities: Dataset) -> Result<Built, SnapshotError> {
        let n_rows = self.writer.rows();
        let derived = Derived {
            params: self.params,
            labels: self.clustering.labels().to_vec(),
            n_clusters: self.clustering.n_clusters(),
            signatures: self.signatures,
            metrics: self.enricher.finish(&entities, &self.clustering),
        };
        self.writer.finish(&entities, Some(&derived))?;
        Ok(Built { entities, metrics: derived.metrics, n_rows })
    }
}

/// Forks each finished shard to the snapshot writer and the streaming
/// enricher without cloning it — both sinks see the same borrow.
impl ShardSink for Fork {
    type Error = SnapshotError;

    fn flush(&mut self, base: usize, shard: &InstanceColumns) -> Result<(), SnapshotError> {
        self.writer.flush(base, shard)?;
        match self.enricher.flush(base, shard) {
            Ok(()) => Ok(()),
            Err(never) => match never {},
        }
    }
}

/// The fused provider a columns-optional `Study` defers to: re-open the
/// snapshot and stream the shard sections through the scan. If the file
/// has been damaged or removed since the study was built, rebuild it once
/// and stream the fresh file; if that fails too, answer from an in-memory
/// re-simulation — one slow (but correct) answer, never a wrong one.
fn fused_source(
    cfg: &SimConfig,
    params: ClusterParams,
    store: &SnapshotStore,
) -> impl Fn(&Study) -> Fused + Send + Sync + 'static {
    let (cfg, store) = (cfg.clone(), store.clone());
    move |_study| {
        let stream = || store.open_reader(&cfg).and_then(|mut r| r.fused());
        stream()
            .or_else(|_| match build_streamed(&cfg, params, &store) {
                Ok(_) => stream(),
                Err(e) => {
                    store.note_swallowed_save();
                    Err(e)
                }
            })
            .unwrap_or_else(|_| compute(&Study::with_cluster_params(simulate(&cfg), params)))
    }
}

/// Computes every derived artifact the snapshot persists: minhash
/// signatures, the clustering, and the per-batch enrichment, all in
/// sampled-batch dataset order.
pub fn compute_derived(ds: &Dataset, params: ClusterParams) -> Derived {
    let clusterer = Clusterer::new(params);
    let (_ids, docs) = sampled_docs(ds);
    let signatures = clusterer.signatures(&docs);
    let clustering = clusterer.cluster_signatures(&signatures);
    let index = ds.index();
    let metrics = enrich_batches(ds, &index, &clustering);
    Derived {
        params,
        labels: clustering.labels().to_vec(),
        n_clusters: clustering.n_clusters(),
        signatures,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Shard counts every store-backed test runs at: the one-shard layout
    /// and a genuinely multi-shard one.
    const SHARDS: [usize; 2] = [1, 3];

    /// Big enough (> 2 × scan chunk rows) that three shards are real.
    fn cfg(seed: u64) -> SimConfig {
        SimConfig::new(seed, 0.002)
    }

    fn temp_store(tag: &str, shards: usize) -> SnapshotStore {
        let dir = std::env::temp_dir()
            .join(format!("crowd-snapshot-warm-{tag}-{shards}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        SnapshotStore::new(dir).with_shards(shards)
    }

    fn metrics(s: &Study) -> Vec<BatchMetrics> {
        s.enriched_batches().cloned().collect()
    }

    /// Cold build and warm hit agree bitwise with the no-store build on
    /// every derived quantity, at every shard count, and neither
    /// store-backed study ever held the instance table.
    #[test]
    fn cold_and_warm_match_the_no_store_build_bitwise() {
        let cfg = cfg(21);
        let baseline = Study::new(simulate(&cfg));
        for shards in SHARDS {
            let store = temp_store("eq", shards);
            let cold = study_from_config(&cfg, Some(&store)); // miss: streams build + write
            assert!(store.path_for(&cfg).exists(), "miss wrote a snapshot");
            let warm = study_from_config(&cfg, Some(&store)); // hit: meta-only load
            assert_eq!(store.swallowed_saves(), 0, "nothing degraded");
            let reader = store.open_reader(&cfg).unwrap();
            assert_eq!(reader.directory().n_shards(), shards, "layout follows the store");

            for s in [&cold, &warm] {
                assert!(!s.columns_resident(), "store-backed studies are columns-optional");
                assert_eq!(s.n_instances(), baseline.n_instances());
                assert_eq!(metrics(s), metrics(&baseline));
                assert_eq!(s.fused(), baseline.fused(), "fused scan is bit-identical");
            }
            let _ = std::fs::remove_dir_all(store.dir());
        }
    }

    /// Changing cluster parameters reuses the on-disk dataset, rewrites the
    /// derived section in the same layout, and matches a cold run at the
    /// new parameters.
    #[test]
    fn param_change_reuses_dataset_and_rewrites() {
        let cfg = cfg(22);
        let loose = ClusterParams { threshold: 0.3, ..ClusterParams::default() };
        let cold = Study::with_cluster_params(simulate(&cfg), loose);
        for shards in SHARDS {
            let store = temp_store("params", shards);
            let _ = study_from_config(&cfg, Some(&store));

            let relaxed = study_with_params(&cfg, loose, Some(&store));
            let reloaded = store.load(&cfg).expect("rewritten snapshot loads");
            let d = reloaded.derived.expect("derived present");
            assert_eq!(d.params, loose);
            assert_eq!(d.n_clusters, relaxed.clusters().len());
            assert_eq!(reloaded.dataset.instances, simulate(&cfg).instances);
            assert_eq!(store.open_reader(&cfg).unwrap().directory().n_shards(), shards);
            assert_eq!(metrics(&relaxed), metrics(&cold));
            assert_eq!(relaxed.fused(), cold.fused());
            let _ = std::fs::remove_dir_all(store.dir());
        }
    }

    /// With nowhere to write, every shard count degrades to the one cold
    /// fallback and counts the swallow.
    #[test]
    fn unwritable_store_degrades_to_cold_and_counts_the_swallow() {
        let cfg = SimConfig::tiny(24);
        for shards in SHARDS {
            let blocker = std::env::temp_dir()
                .join(format!("crowd-snapshot-warm-blocker-{shards}-{}", std::process::id()));
            std::fs::write(&blocker, b"not a directory").unwrap();
            let store = SnapshotStore::new(blocker.join("store")).with_shards(shards);
            let study = study_from_config(&cfg, Some(&store));
            // Correctness never depends on the cache …
            assert!(study.columns_resident(), "fallback is the in-memory cold build");
            assert_eq!(study.dataset().instances, simulate(&cfg).instances);
            // … but the degradation is counted, not silent.
            assert_eq!(store.swallowed_saves(), 1);
            let _ = std::fs::remove_file(&blocker);
        }
    }

    /// A torn file under the final name is refused by the open checks and
    /// the warm start rebuilds (and rewrites) it cleanly.
    #[test]
    fn torn_snapshot_is_rebuilt() {
        let cfg = cfg(26);
        for shards in SHARDS {
            let store = temp_store("torn", shards);
            let _ = study_from_config(&cfg, Some(&store));
            let path = store.path_for(&cfg);
            let pristine = std::fs::read(&path).unwrap();

            std::fs::write(&path, &pristine[..pristine.len() - 11]).unwrap();
            assert!(matches!(store.open_reader(&cfg), Err(SnapshotError::Truncated)));
            let rebuilt = study_from_config(&cfg, Some(&store));
            assert_eq!(rebuilt.n_instances(), simulate(&cfg).instances.len());
            assert_eq!(std::fs::read(&path).unwrap(), pristine, "fallback rewrote the snapshot");
            let _ = std::fs::remove_dir_all(store.dir());
        }
    }

    /// A shard section damaged behind a valid meta payload passes the warm
    /// start's open checks and surfaces in the lazy fused scan. That same
    /// run must answer exactly and leave a repaired snapshot behind.
    #[test]
    fn damaged_shard_is_repaired_by_the_run_that_finds_it() {
        let cfg = cfg(27);
        let baseline = Study::new(simulate(&cfg));
        for shards in SHARDS {
            let store = temp_store("repair", shards);
            let _ = study_from_config(&cfg, Some(&store));
            let path = store.path_for(&cfg);
            let mut bytes = std::fs::read(&path).unwrap();
            let reader = store.open_reader(&cfg).unwrap();
            let meta_len = u64::from_le_bytes(bytes[24..32].try_into().unwrap());
            let last = reader.directory().n_shards() - 1;
            let at = crate::HEADER_LEN as u64
                + meta_len
                + reader.directory().sections()[..last].iter().map(|s| s.byte_len).sum::<u64>();
            drop(reader);
            bytes[at as usize + 16] ^= 0x01;
            std::fs::write(&path, &bytes).unwrap();

            let warm = study_from_config(&cfg, Some(&store));
            assert_eq!(warm.fused(), baseline.fused(), "shards={shards}");
            let repaired = store.load(&cfg).expect("the run rewrote the snapshot");
            assert_eq!(repaired.dataset.instances, baseline.dataset().instances);
            let _ = std::fs::remove_dir_all(store.dir());
        }
    }
}
