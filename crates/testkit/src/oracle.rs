//! Straight-line oracles for every fused accumulator family.
//!
//! Each function here re-derives one family of aggregates with a plain
//! single-threaded loop over [`Dataset::instances`] in row order — no
//! [`crowd_core::ScanPass`] chunking, no fusion, no merge step, no shared
//! state. The code is deliberately naive: its only job is to be obviously
//! correct so the differential harness ([`crate::differential`]) can hold
//! the optimized engine to it.
//!
//! Family → engine map (all in [`crowd_analytics::fused`] unless noted):
//!
//! | oracle function              | fused field(s)                  | figures |
//! |------------------------------|---------------------------------|---------|
//! | [`batch_task_time_medians`]  | `FusedAcc::batch_median` input  | §4.1    |
//! | [`arrivals`]                 | `issued`/`completed`/`median_pickup` | Figs 1–2 |
//! | [`weekday_load`]             | `weekday`                       | Fig 4   |
//! | [`daily_load`]               | `per_day`                       | Fig 3   |
//! | [`worker_aggregates`]        | `workers` (lifetimes, sessions, workload, availability, cohorts) | Figs 26–30 |
//! | [`source_aggregates`]        | `sources` (trust/relative speed per labor source) | Table 4 |
//! | [`latency_splices`]          | `instance_latency`              | Fig 13b |
//! | [`redundancy_counts`]        | `per_item`                      | §4.1    |
//!
//! [`oracle_fused`] composes the families into a full [`Fused`] value for
//! field-by-field comparison.

use std::collections::{BTreeMap, BTreeSet};

use crowd_analytics::design::metrics::LatencyPoint;
use crowd_analytics::fused::{month_index, Fused, ItemCounts, SourceAgg, WeekCell, WorkerAgg};
use crowd_core::prelude::*;
use crowd_stats::descriptive::median;

/// First week index and week count of the dataset's time span, exactly as
/// the engine derives them (`(0, 0)` for a dataset with no timestamps).
pub fn week_span(ds: &Dataset) -> (i32, usize) {
    match (ds.time_min(), ds.time_max()) {
        (Some(t0), Some(t1)) => (t0.week().0, (t1.week().0 - t0.week().0 + 1).max(0) as usize),
        _ => (0, 0),
    }
}

/// Week index of `t`, clamped into `[0, n_weeks)` like the engine's
/// arrival/availability binning. Callers must ensure `n_weeks > 0`.
fn clamped_week(w0: i32, n_weeks: usize, t: Timestamp) -> usize {
    ((t.week().0 - w0).max(0) as usize).min(n_weeks - 1)
}

/// Median task time per batch: `Some(median work-seconds)` for sampled
/// batches with instances, `None` otherwise.
///
/// The engine takes these from the enrichment pipeline
/// (`Study::enriched_batches`, which only covers sampled batches); the
/// oracle recomputes them from the raw rows. Both paths feed the same
/// value multiset into the same `median`, so the results agree bit for
/// bit.
pub fn batch_task_time_medians(ds: &Dataset) -> Vec<Option<f64>> {
    let mut times: Vec<Vec<f64>> = vec![Vec::new(); ds.batches.len()];
    for row in ds.instances.iter() {
        if ds.batch(row.batch).sampled {
            times[row.batch.index()].push(row.work_time().as_secs() as f64);
        }
    }
    times.iter().map(|pile| median(pile)).collect()
}

/// Weekly arrival series: instances issued per week (by batch-creation
/// week), completed per week (by instance end week), and the median pickup
/// seconds of the instances issued each week (Figs 1–2).
pub fn arrivals(ds: &Dataset) -> (Vec<u64>, Vec<u64>, Vec<Option<f64>>) {
    let (w0, n_weeks) = week_span(ds);
    let mut issued = vec![0u64; n_weeks];
    let mut completed = vec![0u64; n_weeks];
    let mut pickups: Vec<Vec<f64>> = vec![Vec::new(); n_weeks];
    if n_weeks > 0 {
        for row in ds.instances.iter() {
            let created = ds.batch(row.batch).created_at;
            issued[clamped_week(w0, n_weeks, created)] += 1;
            completed[clamped_week(w0, n_weeks, row.end)] += 1;
            pickups[clamped_week(w0, n_weeks, created)]
                .push((row.start - created).as_secs() as f64);
        }
    }
    let median_pickup = pickups.iter().map(|pile| median(pile)).collect();
    (issued, completed, median_pickup)
}

/// Instances issued per day of week, by batch-creation time (Fig 4).
pub fn weekday_load(ds: &Dataset) -> [u64; 7] {
    let mut out = [0u64; 7];
    for row in ds.instances.iter() {
        out[ds.batch(row.batch).created_at.weekday().index()] += 1;
    }
    out
}

/// Instances issued per day number, by batch-creation time (Fig 3).
pub fn daily_load(ds: &Dataset) -> BTreeMap<i64, u64> {
    let mut out = BTreeMap::new();
    for row in ds.instances.iter() {
        *out.entry(ds.batch(row.batch).created_at.day_number()).or_insert(0) += 1;
    }
    out
}

/// Per-worker aggregates: task counts and work time (workload, Fig 27),
/// trust sums (source quality), first/last day and distinct active
/// days/months (lifetimes and cohorts, Figs 29–30), instance intervals
/// (sessions), and per-week task/hour cells (availability, Fig 26).
pub fn worker_aggregates(ds: &Dataset) -> BTreeMap<u32, WorkerAgg> {
    /// Plain tree-and-vector form of one worker's aggregates.
    #[derive(Default)]
    struct Plain {
        tasks: u64,
        work_secs: f64,
        trust_sum: f64,
        days: BTreeSet<i64>,
        months: BTreeSet<i32>,
        intervals: Vec<(Timestamp, Timestamp)>,
        weeks: BTreeMap<usize, WeekCell>,
    }
    let (w0, n_weeks) = week_span(ds);
    let mut plain: BTreeMap<u32, Plain> = BTreeMap::new();
    for row in ds.instances.iter() {
        let w = plain.entry(row.worker.raw()).or_default();
        w.tasks += 1;
        w.work_secs += row.work_time().as_secs() as f64;
        w.trust_sum += f64::from(row.trust);
        w.days.insert(row.start.day_number());
        w.months.insert(month_index(row.start));
        w.intervals.push((row.start, row.end));
        if n_weeks > 0 {
            let cell = w.weeks.entry(clamped_week(w0, n_weeks, row.start)).or_default();
            cell.tasks += 1;
            cell.hours += row.work_time().as_hours_f64();
        }
    }
    plain
        .into_iter()
        .map(|(id, w)| {
            let agg = WorkerAgg {
                tasks: w.tasks,
                work_secs: w.work_secs,
                trust_sum: w.trust_sum,
                first_day: *w.days.first().expect("active worker has days"),
                last_day: *w.days.last().expect("active worker has days"),
                days: w.days.into_iter().collect(),
                months: w.months.into_iter().collect(),
                intervals: w.intervals.into_iter().collect(),
                weeks: w.weeks.into_iter().collect(),
            };
            (id, agg)
        })
        .collect()
}

/// Per-source aggregates: task counts, trust sums, and relative-speed
/// sums (work time divided by the batch's median task time, Table 4).
/// `batch_median` is the [`batch_task_time_medians`] vector.
pub fn source_aggregates(ds: &Dataset, batch_median: &[Option<f64>]) -> BTreeMap<u32, SourceAgg> {
    let mut out: BTreeMap<u32, SourceAgg> = BTreeMap::new();
    for row in ds.instances.iter() {
        let s = out.entry(ds.worker(row.worker).source.raw()).or_default();
        s.n_tasks += 1;
        s.trust_sum += f64::from(row.trust);
        if let Some(med) = batch_median[row.batch.index()] {
            if med > 0.0 {
                s.rel_time_sum += row.work_time().as_secs() as f64 / med;
                s.rel_time_n += 1;
            }
        }
    }
    out
}

/// Instance-level latency decomposition (Fig 13b): instances bucketed into
/// half-decade log splices of end-to-end time, with the median pickup and
/// task components per splice.
pub fn latency_splices(ds: &Dataset) -> Vec<LatencyPoint> {
    let mut buckets: BTreeMap<i32, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
    for row in ds.instances.iter() {
        let created = ds.batch(row.batch).created_at;
        let p = ((row.start - created).as_secs() as f64).max(1.0);
        let task = row.work_time().as_secs().max(1) as f64;
        let splice = (2.0 * (p + task).log10()).floor() as i32;
        let bucket = buckets.entry(splice).or_default();
        bucket.0.push(p);
        bucket.1.push(task);
    }
    buckets
        .into_iter()
        .filter_map(|(splice, (pickups, tasks))| {
            Some(LatencyPoint {
                end_to_end: 10f64.powf(f64::from(splice) / 2.0 + 0.25),
                pickup: median(&pickups)?,
                task: median(&tasks)?,
            })
        })
        .collect()
}

/// Judgments per `(batch, item)` pair — the redundancy distribution §4.1
/// draws agreement curves from.
pub fn redundancy_counts(ds: &Dataset) -> ItemCounts {
    let mut out: BTreeMap<(u32, u32), u32> = BTreeMap::new();
    for row in ds.instances.iter() {
        *out.entry((row.batch.raw(), row.item.raw())).or_insert(0) += 1;
    }
    out.into_iter().collect()
}

/// The full oracle: every family composed into a [`Fused`] value for
/// field-by-field comparison against `Study::fused()`.
pub fn oracle_fused(ds: &Dataset) -> Fused {
    let (w0, n_weeks) = week_span(ds);
    let batch_median = batch_task_time_medians(ds);
    let (issued, completed, median_pickup) = arrivals(ds);
    Fused {
        w0,
        n_weeks,
        workers: worker_aggregates(ds),
        sources: source_aggregates(ds, &batch_median),
        issued,
        completed,
        median_pickup,
        weekday: weekday_load(ds),
        per_day: daily_load(ds),
        instance_latency: latency_splices(ds),
        per_item: redundancy_counts(ds),
    }
}
