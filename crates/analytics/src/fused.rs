//! The fused analytics pass: every instance-table aggregate the paper's
//! figures need, computed in **one** deterministic [`ScanPass`].
//!
//! Before this module each analytics function re-walked `ds.instances`
//! on its own (~28 full-table scans for a full reproduction run). Now a
//! single composite accumulator ([`FusedAcc`]) gathers the raw per-worker,
//! per-source, per-week, per-day, per-splice and per-item aggregates in
//! one pass, and the public functions in [`crate::marketplace`],
//! [`crate::workers`] and [`crate::design`] *shape* their outputs from the
//! cached [`Fused`] result (held in a `OnceLock` on [`Study`]).
//!
//! ## Determinism and layout
//!
//! The engine inherits the `ScanPass` contract: fixed-size chunks folded
//! in row order, merged sequentially in chunk order. The accumulator's
//! state is the compact, row-bounded layout of the `compact` module
//! (shared with the live view, DESIGN.md §11): rows fold into dense per-entity vectors, 32-bit
//! piles and counts, while every float is summed per chunk and added in
//! chunk order — so every output is bit-identical at any thread or shard
//! count, and to the tree-based accumulator this layout replaced. Keyed
//! outputs iterate in ascending key order (a `HashMap`'s random seed must
//! never decide the order in which floats are added or rows are exported).
//!
//! The raw aggregate types here are public so that `crowd-testkit` can
//! compare the fused engine field-by-field against straight-line oracle
//! re-implementations (differential testing); analytics callers should
//! keep consuming the shaped outputs in [`crate::marketplace`],
//! [`crate::workers`] and [`crate::design`] instead.

use std::collections::BTreeMap;
use std::sync::Arc;

use crowd_core::prelude::*;

use crate::compact::{add_floats, EntitySizes, Floats, Row, State, Weeks};
pub use crate::compact::{Intervals, ItemCounts};
use crate::design::metrics::LatencyPoint;
use crate::study::Study;

/// Months since year 0, for cohort bucketing.
pub fn month_index(t: Timestamp) -> i32 {
    let (y, m, _) = t.ymd();
    y * 12 + (m as i32 - 1)
}

/// Tasks and active hours of one worker inside one week.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WeekCell {
    /// Instances started this week.
    pub tasks: u64,
    /// Work-time hours clocked this week.
    pub hours: f64,
}

/// Raw per-worker aggregates (only workers with ≥ 1 instance appear).
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerAgg {
    /// Instances performed.
    pub tasks: u64,
    /// Total work time in seconds (integer-valued, so order-exact).
    pub work_secs: f64,
    /// Sum of trust scores.
    pub trust_sum: f64,
    /// Day number of the first activity.
    pub first_day: i64,
    /// Day number of the last activity.
    pub last_day: i64,
    /// Distinct active day numbers, ascending.
    pub days: Vec<i64>,
    /// Distinct active months (see [`month_index`]), ascending.
    pub months: Vec<i32>,
    /// `(start, end)` of every instance, in row order (for sessions).
    pub intervals: Intervals,
    /// Per-week activity, ascending by week offset from the dataset's
    /// first week (clamped like the availability figures).
    pub weeks: Vec<(usize, WeekCell)>,
}

impl WorkerAgg {
    /// An empty aggregate whose interval offsets count from `origin`.
    pub(crate) fn new(origin: Timestamp) -> WorkerAgg {
        WorkerAgg {
            tasks: 0,
            work_secs: 0.0,
            trust_sum: 0.0,
            first_day: i64::MAX,
            last_day: i64::MIN,
            days: Vec::new(),
            months: Vec::new(),
            intervals: Intervals::new(origin),
            weeks: Vec::new(),
        }
    }
}

/// Raw per-source aggregates (only sources with ≥ 1 instance appear).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SourceAgg {
    /// Instances performed by the source's workers.
    pub n_tasks: u64,
    /// Sum of trust scores.
    pub trust_sum: f64,
    /// Sum of work-time / batch-median-task-time ratios.
    pub rel_time_sum: f64,
    /// Instances contributing to `rel_time_sum`.
    pub rel_time_n: u64,
}

/// Everything the analytics layer needs from the instance table, gathered
/// in one scan and cached on the [`Study`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Fused {
    /// First week index of the dataset (0 when empty).
    pub w0: i32,
    /// Number of weeks covered (0 when empty).
    pub n_weeks: usize,
    /// Per-worker aggregates, keyed by raw worker id (ascending).
    pub workers: BTreeMap<u32, WorkerAgg>,
    /// Per-source aggregates, keyed by raw source id (ascending).
    pub sources: BTreeMap<u32, SourceAgg>,
    /// Instances issued per week (attributed to the batch-creation week).
    pub issued: Vec<u64>,
    /// Instances completed per week (by instance end time).
    pub completed: Vec<u64>,
    /// Median pickup seconds of instances issued per week.
    pub median_pickup: Vec<Option<f64>>,
    /// Instances issued per day of week (of the batch creation time).
    pub weekday: [u64; 7],
    /// Instances issued per day number (of the batch creation time).
    pub per_day: BTreeMap<i64, u64>,
    /// Fig 13b instance-level latency points, one per end-to-end splice.
    pub instance_latency: Vec<LatencyPoint>,
    /// Judgments per `(batch, item)`.
    pub per_item: ItemCounts,
}

impl Fused {
    /// Total instance rows the scan covered — the authoritative count for
    /// consumers that must work when the study runs columns-optional (the
    /// weekday histogram counts every row exactly once).
    pub fn n_instances(&self) -> u64 {
        self.weekday.iter().sum()
    }
}

/// Scan configuration shared by the total and every chunk partial.
struct Config {
    w0: i32,
    n_weeks: usize,
    /// Interval offsets count from here (the dataset's first timestamp).
    origin: Timestamp,
    /// Entity table sizes the dense state is indexed by.
    sizes: EntitySizes,
    /// Median task time per batch (`None` for unsampled batches), indexed
    /// by batch id.
    batch_median: Vec<Option<f64>>,
}

impl Config {
    /// The week window runs from the first batch's week to `t1`'s.
    fn new<'a>(
        ds: &Dataset,
        t1: Option<Timestamp>,
        batches: impl IntoIterator<Item = &'a crate::study::BatchMetrics>,
    ) -> Config {
        let (w0, n_weeks) = match (ds.time_min(), t1) {
            (Some(t0), Some(t1)) => (t0.week().0, (t1.week().0 - t0.week().0 + 1).max(0) as usize),
            _ => (0, 0),
        };
        let mut batch_median: Vec<Option<f64>> = vec![None; ds.batches.len()];
        for m in batches {
            if let Some(t) = m.task_time {
                batch_median[m.batch.index()] = Some(t);
            }
        }
        let origin = ds.time_min().unwrap_or_default();
        Config { w0, n_weeks, origin, sizes: EntitySizes::of(ds), batch_median }
    }

    fn weeks(&self) -> Weeks {
        Weeks::Clamped { w0: self.w0, n: self.n_weeks }
    }
}

/// The composite accumulator feeding [`Fused`] from one [`ScanPass`]. A
/// chunk partial carries only its derived rows and their chunk-grouped
/// float sums (both computed on the thread that folded the chunk); the
/// running total carries the compact [`State`] they merge into.
struct FusedAcc {
    cfg: Arc<Config>,
    /// Rows folded since the last merge.
    rows: Vec<Row>,
    /// `rows`' float sums, when already computed.
    floats: Option<Floats>,
    /// The running total; `None` until the first merge.
    state: Option<Box<State>>,
}

impl FusedAcc {
    fn proto(cfg: Config) -> FusedAcc {
        FusedAcc { cfg: Arc::new(cfg), rows: Vec::new(), floats: None, state: None }
    }

    /// Folds `rows` (one float group) into the running total.
    fn absorb(&mut self, rows: &[Row], floats: Option<Floats>) {
        let floats = floats.unwrap_or_else(|| Floats::of(rows, Some(&self.cfg.batch_median)));
        let cfg = &self.cfg;
        let state = self.state.get_or_insert_with(|| Box::new(State::new(cfg.sizes, cfg.origin)));
        state.absorb(rows);
        add_floats(&mut state.workers, &mut state.sources, &floats);
    }

    /// Absorbs this accumulator's own pending rows.
    fn flush(&mut self) {
        if !self.rows.is_empty() {
            let rows = std::mem::take(&mut self.rows);
            let floats = self.floats.take();
            self.absorb(&rows, floats);
        }
    }
}

impl Accumulator for FusedAcc {
    type Output = Fused;

    fn init(&self) -> Self {
        FusedAcc { cfg: Arc::clone(&self.cfg), rows: Vec::new(), floats: None, state: None }
    }

    fn accept(&mut self, ds: &Dataset, _id: InstanceId, row: InstanceRef<'_>) {
        self.rows.push(Row::of(ds, self.cfg.weeks(), row));
        self.floats = None;
    }

    /// Columnar form of [`FusedAcc::accept`], called once per ≤ 8192-row
    /// chunk: derives the chunk's rows and sums its float families on the
    /// folding thread, so the in-order merge only appends and adds.
    fn accept_chunk(
        &mut self,
        ds: &Dataset,
        _base: usize,
        cols: &InstanceColumns,
        range: std::ops::Range<usize>,
    ) {
        Row::derive(ds, self.cfg.weeks(), cols, range, &mut self.rows);
        self.floats = Some(Floats::of(&self.rows, Some(&self.cfg.batch_median)));
    }

    /// Merges a chunk partial (rows and float sums only, no state) — the
    /// only kind the scan engine produces.
    fn merge(&mut self, other: Self) {
        assert!(other.state.is_none(), "FusedAcc merges chunk partials only");
        self.flush();
        self.absorb(&other.rows, other.floats);
    }

    fn finish(mut self, ds: &Dataset) -> Fused {
        self.flush();
        let cfg = Arc::clone(&self.cfg);
        let mut state = match self.state.take() {
            Some(state) => *state,
            None => State::new(cfg.sizes, cfg.origin),
        };
        let workers = std::mem::take(&mut state.workers);
        let sources = std::mem::take(&mut state.sources);
        let per_item = std::mem::take(&mut state.per_item);
        state.shape(ds, cfg.weeks(), cfg.n_weeks, workers, sources, per_item)
    }
}

/// Runs the fused pass for a study. Called once per `Study` (memoized).
pub fn compute(study: &Study) -> Fused {
    let ds = study.dataset();
    let proto = FusedAcc::proto(Config::new(ds, ds.time_max(), study.enriched_batches()));
    // Shard-partitioned fused pass: with the default single shard this is
    // exactly `ScanPass::run`; under `--shards N` each shard's chunk
    // partials merge into the running total in global chunk order, so the
    // result is bit-identical either way (DESIGN.md §15).
    ScanPass::run_plan(ds, &study.shard_plan(), &proto)
}

/// Runs the fused pass over a stream of owned shards — the bounded-memory
/// snapshot path, where per-shard file sections feed the scan directly and
/// the full instance table is never resident. `ds` supplies the entity
/// context (batches, workers); `batch_metrics` the per-batch median task
/// times ([`crate::study::BatchMetrics::task_time`]) the source aggregates
/// need; `time_max` the dataset-wide latest instance end, which an
/// entity-only dataset cannot reproduce (it sees only batch creation
/// times) — pass the persisted value so the week window matches the
/// materialized scan's. Bit-identical to [`compute`] on the equivalent
/// monolithic study.
pub fn compute_streamed<E>(
    ds: &Dataset,
    batch_metrics: &[crate::study::BatchMetrics],
    time_max: Option<Timestamp>,
    shards: impl Iterator<Item = std::result::Result<(usize, InstanceColumns), E>>,
) -> std::result::Result<Fused, E> {
    let t1 = [time_max, ds.time_max()].into_iter().flatten().max();
    let proto = FusedAcc::proto(Config::new(ds, t1, batch_metrics));
    ScanPass::run_stream(ds, &proto, shards)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fused_is_computed_once_and_totals_match() {
        let s = crate::testutil::tiny_study();
        let ds = s.dataset();
        let before = ScanPass::full_scan_count();
        let f = s.fused();
        let g = s.fused();
        assert!(ScanPass::full_scan_count() - before <= 1, "memoized");
        assert_eq!(f.workers.len(), g.workers.len());

        let n = ds.instances.len() as u64;
        assert_eq!(f.workers.values().map(|w| w.tasks).sum::<u64>(), n);
        assert_eq!(f.sources.values().map(|s| s.n_tasks).sum::<u64>(), n);
        assert_eq!(f.issued.iter().sum::<u64>(), n);
        assert_eq!(f.completed.iter().sum::<u64>(), n);
        assert_eq!(f.weekday.iter().sum::<u64>(), n);
        assert_eq!(f.per_day.values().sum::<u64>(), n);
        assert_eq!(f.per_item.values().map(u64::from).sum::<u64>(), n);
        let intervals: usize = f.workers.values().map(|w| w.intervals.len()).sum();
        assert_eq!(intervals, ds.instances.len());
    }

    #[test]
    fn worker_aggregates_are_internally_consistent() {
        let s = crate::testutil::tiny_study();
        for agg in s.fused().workers.values() {
            assert!(agg.tasks > 0);
            assert!(agg.first_day <= agg.last_day);
            assert!(!agg.days.is_empty());
            assert!(agg.days.len() as u64 <= agg.tasks);
            assert!(!agg.months.is_empty());
            assert_eq!(agg.intervals.len() as u64, agg.tasks);
            assert_eq!(agg.weeks.iter().map(|(_, c)| c.tasks).sum::<u64>(), agg.tasks);
        }
    }
}
