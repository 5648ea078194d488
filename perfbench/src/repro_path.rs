//! Traced composition of the `repro --shards N --snapshot-dir <empty> all`
//! pipeline.
//!
//! It makes the same public calls `crowd_snapshot::warm::study_from_config`
//! makes on a cache miss with a sharded store — `prepare_streamed`,
//! clustering, then `SimStream::run` forking every shard into the
//! `SnapshotWriter` and the `StreamingEnricher`, and the fused scan reading
//! the shards back from disk — then the analytics entry points `repro all`
//! renders, and wraps every call in a span named after the crate it enters.
//!
//! Rendering is not composed: the report text is the untraced run's job,
//! and its cost shows in the traced run's unattributed remainder.

use std::hint::black_box;

use crowd_analytics::design::forecast::{fit_pickup, PickupProfile};
use crowd_analytics::design::{drilldown, methodology, metrics, prediction, redundancy, summary};
use crowd_analytics::fused::{compute_streamed, Fused};
use crowd_analytics::marketplace::{arrivals, availability, labels, load, trends};
use crowd_analytics::study::sampled_docs;
use crowd_analytics::workers::{cohorts, geography, lifetimes, sessions, sources, workload};
use crowd_analytics::{BatchMetrics, StreamingEnricher, Study};
use crowd_cluster::{ClusterParams, Clusterer};
use crowd_core::dataset::InstanceColumns;
use crowd_core::time::Timestamp;
use crowd_core::ShardSink;
use crowd_sim::{prepare_streamed, SimConfig};
use crowd_snapshot::{
    Derived, ShardedSnapshotReader, SnapshotError, SnapshotStore, SnapshotWriter,
};

use crate::trace::Tracer;

/// Builds the study the way `repro` does on a cache miss with the sharded
/// `store`, tracing each call. Where the library would silently fall back
/// (unwritable store, a store of one shard) the composition returns an
/// error instead: a fallback would measure a different pipeline.
pub fn build_study(cfg: &SimConfig, store: &SnapshotStore, t: &Tracer) -> Result<Study, String> {
    if store.shards() <= 1 {
        return Err("the streamed composition needs a store with more than one shard".into());
    }
    // `repro` sets the shard knob on whatever study the cache returned.
    Ok(build_streamed(cfg, store, t)?.with_shards(store.shards()))
}

/// Forks each shard to the snapshot writer and the streaming enricher,
/// as the library's build sink does, with a span around each half.
struct TracedSink<'a> {
    writer: &'a mut SnapshotWriter,
    enricher: &'a mut StreamingEnricher,
    t: &'a Tracer,
}

impl ShardSink for TracedSink<'_> {
    type Error = SnapshotError;

    fn flush(&mut self, base: usize, shard: &InstanceColumns) -> Result<(), SnapshotError> {
        self.t.add("sim.rows", shard.len() as f64);
        self.t.span("snapshot.encode", || self.writer.flush(base, shard))?;
        match self.t.span("analytics.enrich", || self.enricher.flush(base, shard)) {
            Ok(()) => Ok(()),
            Err(never) => match never {},
        }
    }
}

fn build_streamed(cfg: &SimConfig, store: &SnapshotStore, t: &Tracer) -> Result<Study, String> {
    let sim = t.span("sim.prepare", || prepare_streamed(cfg));
    let mut writer = t
        .span("snapshot.encode", || store.open_writer(cfg, sim.planned_rows()))
        .map_err(|e| format!("snapshot writer: {e}"))?;

    let params = ClusterParams::default();
    let clusterer = Clusterer::new(params);
    let signatures = t.span("cluster.signatures", || {
        let (_ids, docs) = sampled_docs(sim.entities());
        clusterer.signatures(&docs)
    });
    t.add("cluster.docs", signatures.len() as f64);
    let clustering = t.span("cluster.lsh", || clusterer.cluster_signatures(&signatures));
    t.add("cluster.clusters", clustering.n_clusters() as f64);

    let mut enricher = t.span("analytics.enrich", || StreamingEnricher::new(sim.entities()));
    let shard_rows = writer.shard_rows();
    let mut sink = TracedSink { writer: &mut writer, enricher: &mut enricher, t };
    let entities = t
        .span("sim.rows", || sim.run(cfg, shard_rows, &mut sink))
        .map_err(|e| format!("streamed build: {e}"))?;

    let n_rows = writer.rows();
    let metrics = t.span("analytics.enrich", || enricher.finish(&entities, &clustering));
    let derived = Derived {
        params,
        labels: clustering.labels().to_vec(),
        n_clusters: clustering.n_clusters(),
        signatures,
        metrics,
    };
    let path = t
        .span("snapshot.encode", || writer.finish(&entities, Some(&derived)))
        .map_err(|e| format!("snapshot finish: {e}"))?;
    let bytes = std::fs::metadata(&path).map_err(|e| format!("snapshot size: {e}"))?.len();
    t.add("snapshot.bytes_written", bytes as f64);
    Ok(Study::from_enrichment_streamed(
        entities,
        derived.metrics,
        n_rows,
        traced_fused_source(cfg, store, t),
    ))
}

/// Header plus meta payload: what `open` reads before any shard section.
fn meta_bytes(reader: &ShardedSnapshotReader, store: &SnapshotStore, cfg: &SimConfig) -> u64 {
    let file_len = std::fs::metadata(store.path_for(cfg)).map_or(0, |m| m.len());
    let sections: u64 = reader.directory().sections().iter().map(|s| s.byte_len).sum();
    file_len.saturating_sub(sections)
}

/// The fused provider of a columns-optional study, as the library's
/// `fused_source` builds it (re-open, stream every shard section through
/// `compute_streamed`), with the per-shard reads traced on their own.
fn traced_fused_source(
    cfg: &SimConfig,
    store: &SnapshotStore,
    t: &Tracer,
) -> impl Fn(&Study) -> Fused + Send + Sync + 'static {
    let (cfg, store, t) = (cfg.clone(), store.clone(), t.clone());
    move |study| {
        let mut reader = t
            .span("snapshot.open", || store.open_reader(&cfg))
            .expect("the snapshot this study was built from still opens");
        t.add("snapshot.bytes_read", meta_bytes(&reader, &store, &cfg) as f64);
        let time_max = reader.time_max();
        let metrics: Vec<BatchMetrics> = study.enriched_batches().cloned().collect();
        let n_shards = reader.directory().n_shards();
        let shards = (0..n_shards).map(|k| {
            let base = reader.directory().base_row(k) as usize;
            let bytes = reader.directory().sections()[k].byte_len;
            let cols = t.span("snapshot.decode", || reader.read_shard(k))?;
            t.add("snapshot.bytes_read", bytes as f64);
            Ok::<_, SnapshotError>((base, cols))
        });
        compute_streamed(study.dataset(), &metrics, time_max, shards)
            .expect("the snapshot this study was built from still decodes")
    }
}

/// Runs the fused scan (memoized on the study) inside `query.fused`, then
/// every analytics entry point `repro all` renders, grouped by paper
/// section.
pub fn analyse(study: &Study, t: &Tracer) {
    t.span("query.fused", || black_box(study.fused()));
    t.add("query.rows_scanned", study.n_instances() as f64);
    t.span("analytics.marketplace", || marketplace(study));
    t.span("analytics.design", || design(study));
    t.span("analytics.workers", || workers(study));
}

/// §2.2 and §3: dataset summary, arrivals, availability, load, labels,
/// trends (`repro` targets summary, fig1–fig12, load).
fn marketplace(study: &Study) {
    black_box(study.dataset().summary());
    black_box(arrivals::weekly(study)); // fig1
    black_box(arrivals::weekly(study)); // fig2
    black_box(arrivals::by_weekday(study));
    black_box(arrivals::daily_load(study, Timestamp::from_ymd(2015, 1, 1)));
    black_box(availability::weekly_workers(study));
    black_box(availability::engagement_split(study));
    let l = load::cluster_load(study); // fig6
    let sizes: Vec<u64> = l.batches_per_cluster.iter().map(|&b| u64::from(b)).collect();
    black_box(load::log_histogram(&sizes));
    let l = load::cluster_load(study); // fig7
    black_box(load::log_histogram(&l.instances_per_cluster));
    black_box(load::heavy_hitters(study, 10));
    black_box(labels::goal_distribution(study));
    black_box(labels::data_distribution(study));
    black_box(labels::operator_distribution(study));
    for _ in 0..2 {
        // fig10, then fig11 (transposed)
        black_box(labels::data_given_goal(study).transposed());
        black_box(labels::operator_given_goal(study).transposed());
        black_box(labels::operator_given_data(study).transposed());
    }
    black_box([
        trends::goal_trend(study),
        trends::operator_trend(study),
        trends::data_trend(study),
    ]);
}

/// §4: latency decomposition, methodology grid, Tables 1–3, drill-down,
/// prediction, forecasts, redundancy (fig13, fig14, tables, fig25,
/// predict, forecast, redundancy).
fn design(study: &Study) {
    black_box(metrics::latency_decomposition(study));
    black_box(methodology::full_grid(study));
    black_box(summary::disagreement_table(study));
    black_box(summary::task_time_table(study));
    black_box(summary::pickup_time_table(study));
    black_box(drilldown::fig25_panels(study));
    black_box(prediction::predict_all(study, 0xC0DE));
    black_box(prediction::predict_all(study, 0xC0DE));
    for profile in PickupProfile::all() {
        black_box(fit_pickup(study, profile));
    }
    black_box(redundancy::redundancy(study));
}

/// §5: labor sources, geography, workload, lifetimes, trust, sessions,
/// cohorts (table4, fig26–fig30, trust, sessions, cohorts).
fn workers(study: &Study) {
    black_box(study.dataset().sources.iter().map(|s| s.name.len()).sum::<usize>());
    let stats = sources::per_source(study); // fig26
    black_box(sources::active_sources_weekly(study));
    let stats2 = sources::per_source(study); // fig27
    black_box(sources::top_by_workers(&stats2, 10));
    black_box(sources::top_by_tasks(&stats2, 10));
    black_box(sources::quality_stats(study, &stats));
    black_box(geography::distribution(study));
    black_box(workload::distribution(study));
    black_box(lifetimes::lifetime_stats(study));
    black_box(lifetimes::active_trust(study));
    black_box(sessions::sessions(study, sessions::DEFAULT_GAP));
    let cs = cohorts::monthly_cohorts(study);
    black_box(cohorts::mean_retention(&cs, 12));
}

/// What a traced `repro` composition reports back for the output check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Summary {
    /// Instance rows the study covers (`enriched: N instances`).
    pub n_instances: usize,
    /// Sampled batches with enrichment.
    pub n_enriched: usize,
    /// Clusters.
    pub n_clusters: usize,
}

/// The whole traced run: build, fused scan, analytics, teardown, all
/// under one root span named `repro`.
pub fn run(cfg: &SimConfig, store: &SnapshotStore, t: &Tracer) -> Result<Summary, String> {
    t.span("repro", || {
        let study = build_study(cfg, store, t)?;
        let summary = Summary {
            n_instances: study.n_instances(),
            n_enriched: study.enriched_batches().count(),
            n_clusters: study.clusters().len(),
        };
        analyse(&study, t);
        drop(study);
        Ok(summary)
    })
}
