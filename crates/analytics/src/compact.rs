//! Compact, row-bounded accumulator state shared by the fused batch scan
//! ([`crate::fused`]) and the live view ([`crate::view`]).
//!
//! ## Layout
//!
//! * **Dense by entity.** Per-worker and per-source state live in vectors
//!   indexed by the entity id, and judgments per item in one [`Tally`] per
//!   batch id — workers, sources and batches are all bounded by the entity
//!   tables. No state is keyed by an item id or a timestamp value.
//! * **32-bit values, exact spill.** Instance intervals are
//!   `(start − origin, end − start)` pairs of `u32` ([`Intervals`]), and
//!   pickup piles are `u32` seconds ([`Pile`]). A value that does not fit
//!   its 32-bit slot goes to an exact 64-bit spill list beside it — never
//!   clamped, never wrapped.
//! * **Counted task seconds.** The log-splice task-time piles are counts
//!   per second value ([`Tally`]), whose dense prefix only grows while it
//!   stays within twice the rows counted: memory follows the rows, never a
//!   key's magnitude.
//! * **Sorted vectors, not trees.** A worker's active days, months and week
//!   cells are ascending vectors, appended to in the common in-order case.
//!
//! ## Bit-identity
//!
//! Integer families (counts, sets, intervals, piles) are exact under any
//! grouping, so rows fold straight into the running [`State`]
//! ([`State::absorb`]). Every float — trust sums, work seconds, weekly
//! hours, relative task time — is first summed per key in row order within
//! its [`ScanPass::CHUNK`] ([`Floats::of`]), and those chunk sums are added
//! to the total in chunk order ([`State::add_floats`]): the grouping the
//! tree-based accumulator used, hence the same bits. Medians read the same
//! multisets through exact order statistics
//! ([`crowd_stats::descriptive::median_by_rank`]).

use std::collections::BTreeMap;
use std::fmt;
use std::ops::Range;

use crowd_core::prelude::*;
use crowd_stats::descriptive::{median_by_rank, median_split};

use crate::design::metrics::LatencyPoint;
use crate::fused::{month_index, Fused, SourceAgg, WeekCell, WorkerAgg};

/// Pushes onto a row-scale vector, growing it by a quarter instead of
/// doubling: these vectors hold most of the state's bytes, and the
/// smaller step cuts their average unused capacity from ~44% to ~12%.
fn push_lean<T>(v: &mut Vec<T>, x: T) {
    if v.len() == v.capacity() {
        v.reserve_exact(v.len() / 4 + 4);
    }
    v.push(x);
}

/// `packed` start offset marking an interval held in the spill list.
const SPILLED: u32 = u32::MAX;

/// One worker's instance intervals in row order, as 32-bit
/// `(start − origin, end − start)` pairs. A row whose offset or duration
/// does not fit (before `origin`, ≥ 136 years after it, or `end < start`)
/// is kept exactly in a spill list and marked in the packed sequence, so
/// [`iter`](Intervals::iter) always yields the exact `(start, end)` pairs.
#[derive(Clone, Default)]
pub struct Intervals {
    origin: Timestamp,
    packed: Vec<[u32; 2]>,
    spill: Vec<(Timestamp, Timestamp)>,
}

impl Intervals {
    /// An empty list whose offsets count from `origin`.
    pub(crate) fn new(origin: Timestamp) -> Intervals {
        Intervals { origin, packed: Vec::new(), spill: Vec::new() }
    }

    /// Appends one instance interval.
    pub(crate) fn push(&mut self, start: Timestamp, end: Timestamp) {
        let off = i128::from(start.as_secs()) - i128::from(self.origin.as_secs());
        let dur = i128::from(end.as_secs()) - i128::from(start.as_secs());
        match (u32::try_from(off), u32::try_from(dur)) {
            (Ok(off), Ok(dur)) if off != SPILLED => push_lean(&mut self.packed, [off, dur]),
            _ => {
                push_lean(&mut self.packed, [SPILLED, 0]);
                self.spill.push((start, end));
            }
        }
    }

    /// Number of intervals.
    pub fn len(&self) -> usize {
        self.packed.len()
    }

    /// True when no interval was pushed.
    pub fn is_empty(&self) -> bool {
        self.packed.is_empty()
    }

    /// The exact `(start, end)` pairs in row order.
    pub fn iter(&self) -> impl Iterator<Item = (Timestamp, Timestamp)> + '_ {
        let mut spill = self.spill.iter();
        self.packed.iter().map(move |&[off, dur]| {
            if off == SPILLED {
                *spill.next().expect("one spill entry per marker")
            } else {
                let start = self.origin + Duration::from_secs(i64::from(off));
                (start, start + Duration::from_secs(i64::from(dur)))
            }
        })
    }
}

impl PartialEq for Intervals {
    fn eq(&self, other: &Intervals) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl fmt::Debug for Intervals {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl FromIterator<(Timestamp, Timestamp)> for Intervals {
    fn from_iter<I: IntoIterator<Item = (Timestamp, Timestamp)>>(iter: I) -> Intervals {
        let mut out = Intervals::default();
        for (start, end) in iter {
            out.push(start, end);
        }
        out
    }
}

/// A multiset of integer seconds kept for an exact median: values in
/// `0..=u32::MAX` as `u32`, every other value in an exact `i64` spill.
#[derive(Debug, Clone, Default)]
pub(crate) struct Pile {
    packed: Vec<u32>,
    spill: Vec<i64>,
}

impl Pile {
    pub(crate) fn push(&mut self, v: i64) {
        match u32::try_from(v) {
            Ok(v) => push_lean(&mut self.packed, v),
            Err(_) => self.spill.push(v),
        }
    }

    /// The R-7 median by in-place selection (reorders the pile; the
    /// multiset is unchanged). `None` when empty.
    pub(crate) fn median(&mut self) -> Option<f64> {
        median_split(&mut self.packed, &mut self.spill)
    }
}

/// Counts per integer key: a dense prefix of slots `0..dense.len()` plus an
/// ordered sparse map holding every other key. The prefix only grows to
/// cover a key while it stays within twice the rows counted (plus
/// [`Tally::FLOOR`] slots), so memory follows the rows, never a key's
/// value; keys it passes over stay sparse until it catches up with them.
#[derive(Clone, Default)]
pub(crate) struct Tally {
    dense: Vec<u32>,
    /// Keys outside `0..dense.len()` (invariant kept by [`Tally::grow`]).
    sparse: BTreeMap<i64, u32>,
    total: u64,
    distinct: usize,
}

impl Tally {
    /// Dense slots allowed before any row is counted.
    const FLOOR: u64 = 64;

    /// Counts `n` more occurrences of `key`.
    pub(crate) fn add(&mut self, key: i64, n: u32) {
        if n == 0 {
            return;
        }
        self.total += u64::from(n);
        if let Ok(k) = usize::try_from(key) {
            if k >= self.dense.len() && (k as u64) < 2 * self.total + Self::FLOOR {
                self.grow(k + 1);
            }
            if let Some(slot) = self.dense.get_mut(k) {
                self.distinct += usize::from(*slot == 0);
                *slot += n;
                return;
            }
        }
        let slot = self.sparse.entry(key).or_insert(0);
        self.distinct += usize::from(*slot == 0);
        *slot += n;
    }

    fn grow(&mut self, len: usize) {
        let old = self.dense.len();
        self.dense.resize(len, 0);
        let caught: Vec<i64> = self.sparse.range(old as i64..len as i64).map(|(&k, _)| k).collect();
        for k in caught {
            self.dense[k as usize] = self.sparse.remove(&k).expect("key just seen");
        }
    }

    /// Occurrences counted in total.
    pub(crate) fn total(&self) -> u64 {
        self.total
    }

    /// Distinct keys counted.
    pub(crate) fn len(&self) -> usize {
        self.distinct
    }

    /// True when nothing was counted.
    pub(crate) fn is_empty(&self) -> bool {
        self.distinct == 0
    }

    /// `(key, count)` for every counted key, ascending.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (i64, u32)> + '_ {
        let below = self.sparse.range(..0).map(|(&k, &c)| (k, c));
        let dense =
            self.dense.iter().enumerate().filter(|(_, &c)| c > 0).map(|(k, &c)| (k as i64, c));
        let above = self.sparse.range(0..).map(|(&k, &c)| (k, c));
        below.chain(dense).chain(above)
    }

    /// The `k`-th smallest counted occurrence (0-based).
    fn kth(&self, k: u64) -> i64 {
        let mut seen = 0u64;
        for (key, c) in self.iter() {
            seen += u64::from(c);
            if k < seen {
                return key;
            }
        }
        unreachable!("k = {k} beyond {} counted occurrences", self.total)
    }

    /// The R-7 median of the counted occurrences, by counting — equal to
    /// the sort-based median of the multiset. `None` when empty.
    pub(crate) fn median(&self) -> Option<f64> {
        let n = usize::try_from(self.total).expect("tally fits in memory");
        median_by_rank(n, |k| self.kth(k as u64) as f64)
    }
}

/// Judgments per `(batch, item)`: one [`Tally`] of item ids per batch,
/// dense by batch id. Its size follows the rows counted, never an item
/// id's value.
#[derive(Clone, Default)]
pub struct ItemCounts {
    batches: Vec<Tally>,
}

impl ItemCounts {
    /// Empty counts for batch ids `0..n`.
    pub(crate) fn with_batches(n: usize) -> ItemCounts {
        ItemCounts { batches: vec![Tally::default(); n] }
    }

    /// Counts `n` more judgments of `item` in `batch`.
    pub(crate) fn add(&mut self, batch: u32, item: u32, n: u32) {
        let b = batch as usize;
        if b >= self.batches.len() {
            self.batches.resize(b + 1, Tally::default());
        }
        self.batches[b].add(i64::from(item), n);
    }

    /// `((batch, item), judgments)` for every judged item, ascending.
    pub fn iter(&self) -> impl Iterator<Item = ((u32, u32), u32)> + '_ {
        self.batches
            .iter()
            .enumerate()
            .flat_map(|(b, tally)| tally.iter().map(move |(item, c)| ((b as u32, item as u32), c)))
    }

    /// Judgments per judged item, in [`iter`](ItemCounts::iter) order.
    pub fn values(&self) -> impl Iterator<Item = u32> + '_ {
        self.iter().map(|(_, c)| c)
    }

    /// Number of judged `(batch, item)` pairs.
    pub fn len(&self) -> usize {
        self.batches.iter().map(Tally::len).sum()
    }

    /// True when no judgment was counted.
    pub fn is_empty(&self) -> bool {
        self.batches.iter().all(Tally::is_empty)
    }

    /// Judgments counted in `batch` (0 for an unknown batch).
    pub(crate) fn batch_rows(&self, batch: usize) -> u64 {
        self.batches.get(batch).map_or(0, Tally::total)
    }
}

impl PartialEq for ItemCounts {
    fn eq(&self, other: &ItemCounts) -> bool {
        self.iter().eq(other.iter())
    }
}

impl fmt::Debug for ItemCounts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl FromIterator<((u32, u32), u32)> for ItemCounts {
    fn from_iter<I: IntoIterator<Item = ((u32, u32), u32)>>(iter: I) -> ItemCounts {
        let mut out = ItemCounts::default();
        for ((batch, item), n) in iter {
            out.add(batch, item, n);
        }
        out
    }
}

/// How a timestamp maps to a week slot.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Weeks {
    /// Offset from `w0`, clamped into `[0, n)`: the batch scan, whose week
    /// window is fixed before the scan.
    Clamped { w0: i32, n: usize },
    /// Offset from `w0`, floored at 0 and open above: the live view, whose
    /// window grows with the rows.
    Open { w0: i32 },
}

impl Weeks {
    fn w0(self) -> i32 {
        match self {
            Weeks::Clamped { w0, .. } | Weeks::Open { w0 } => w0,
        }
    }

    pub(crate) fn slot(self, t: Timestamp) -> usize {
        let (w0, cap) = match self {
            Weeks::Clamped { w0, n } => (w0, n.saturating_sub(1)),
            Weeks::Open { w0 } => (w0, usize::MAX),
        };
        ((i64::from(t.week().0) - i64::from(w0)).max(0) as usize).min(cap)
    }
}

/// One instance row reduced to what [`State`] absorbs: entity ids plus the
/// derived day, month, week slots, pickup and log-splice, computed once
/// per row (on the worker thread that folds the row's chunk).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Row {
    worker: u32,
    source: u32,
    batch: u32,
    item: u32,
    start: Timestamp,
    end: Timestamp,
    trust: f32,
    day: i64,
    month: i32,
    /// Week slots of the start, of the batch creation, and of the end.
    wk: u32,
    wi: u32,
    wc: u32,
    /// Start minus batch creation, seconds (may be negative).
    pickup: i64,
    /// Half-decade log splice of pickup + task time (Fig 13b).
    splice: u32,
}

impl Row {
    /// Derives rows `range` of `cols` into `out`.
    pub(crate) fn derive(
        ds: &Dataset,
        weeks: Weeks,
        cols: &InstanceColumns,
        range: Range<usize>,
        out: &mut Vec<Row>,
    ) {
        out.reserve(range.len());
        for i in range {
            out.push(Row::of(ds, weeks, cols.row(i)));
        }
    }

    pub(crate) fn of(ds: &Dataset, weeks: Weeks, row: InstanceRef<'_>) -> Row {
        let created = ds.batch(row.batch).created_at;
        let pickup = (row.start - created).as_secs();
        let p = (pickup as f64).max(1.0);
        let task = ((row.end - row.start).as_secs() as f64).max(1.0);
        let splice = (2.0 * (p + task).log10()).floor();
        let slot = |t| u32::try_from(weeks.slot(t)).expect("week slots fit in u32");
        Row {
            worker: row.worker.raw(),
            source: ds.worker(row.worker).source.raw(),
            batch: row.batch.raw(),
            item: row.item.raw(),
            start: row.start,
            end: row.end,
            trust: row.trust,
            day: row.start.day_number(),
            month: month_index(row.start),
            wk: slot(row.start),
            wi: slot(created),
            wc: slot(row.end),
            pickup,
            // p, task ≥ 1 s, so the splice is ≥ 0 (and < 40 for any i64).
            splice: splice as u32,
        }
    }

    fn work_secs(&self) -> i64 {
        (self.end - self.start).as_secs()
    }
}

/// The float families of one chunk, each summed per key in row order
/// starting from `0.0` — the grouping the chunk-order merge preserves.
#[derive(Debug, Default)]
pub(crate) struct Floats {
    /// `(worker, work seconds, trust)` per worker in the chunk.
    workers: Vec<(u32, f64, f64)>,
    /// `(worker, week slot, hours)` per worker-week in the chunk.
    weeks: Vec<(u32, u32, f64)>,
    /// `(source, trust, relative-time sum, relative-time rows)` per source.
    sources: Vec<(u32, f64, f64, u64)>,
}

/// Row indices of `rows` ordered by `key`, ascending rows within a key,
/// packed as `key << 32 | row` (unpack with [`unpack`]).
fn by_key(rows: &[Row], key: impl Fn(&Row) -> u32) -> Vec<u64> {
    let mut order: Vec<u64> =
        rows.iter().enumerate().map(|(i, r)| u64::from(key(r)) << 32 | i as u64).collect();
    order.sort_unstable();
    order
}

fn unpack(e: u64) -> (u32, usize) {
    ((e >> 32) as u32, (e & 0xffff_ffff) as usize)
}

impl Floats {
    /// Sums `rows` (one chunk, or a chunk's prefix) per key in row order.
    /// `batch_median` feeds the relative task time; the live view passes
    /// `None` and derives it at publish instead.
    pub(crate) fn of(rows: &[Row], batch_median: Option<&[Option<f64>]>) -> Floats {
        let mut out = Floats::default();

        let order = by_key(rows, |r| r.worker);
        let mut cells: Vec<(u32, f64)> = Vec::new();
        let mut g = 0;
        while g < order.len() {
            let (worker, _) = unpack(order[g]);
            let (mut work, mut trust) = (0.0, 0.0);
            cells.clear();
            while g < order.len() && unpack(order[g]).0 == worker {
                let r = &rows[unpack(order[g]).1];
                let secs = r.work_secs();
                work += secs as f64;
                trust += f64::from(r.trust);
                let cell = match cells.iter().position(|c| c.0 == r.wk) {
                    Some(at) => &mut cells[at],
                    None => {
                        cells.push((r.wk, 0.0));
                        cells.last_mut().expect("just pushed")
                    }
                };
                cell.1 += Duration::from_secs(secs).as_hours_f64();
                g += 1;
            }
            out.workers.push((worker, work, trust));
            out.weeks.extend(cells.iter().map(|&(wk, hours)| (worker, wk, hours)));
        }

        let order = by_key(rows, |r| r.source);
        let mut g = 0;
        while g < order.len() {
            let (source, _) = unpack(order[g]);
            let (mut trust, mut rel, mut rel_n) = (0.0, 0.0, 0u64);
            while g < order.len() && unpack(order[g]).0 == source {
                let r = &rows[unpack(order[g]).1];
                trust += f64::from(r.trust);
                if let Some(Some(med)) = batch_median.map(|m| m[r.batch as usize]) {
                    if med > 0.0 {
                        rel += r.work_secs() as f64 / med;
                        rel_n += 1;
                    }
                }
                g += 1;
            }
            out.sources.push((source, trust, rel, rel_n));
        }
        out
    }
}

/// Inserts `x` into the ascending, duplicate-free `v` (appends in the
/// common in-order case).
fn insert_sorted<T: Ord + Copy>(v: &mut Vec<T>, x: T) {
    match v.last() {
        Some(&last) if last == x => {}
        Some(&last) if last > x => {
            if let Err(at) = v.binary_search(&x) {
                v.insert(at, x);
            }
        }
        _ => v.push(x),
    }
}

/// The cell for week slot `wk` in the ascending `weeks`, created empty.
fn week_cell(weeks: &mut Vec<(usize, WeekCell)>, wk: usize) -> &mut WeekCell {
    let at = match weeks.last() {
        Some(&(last, _)) if last == wk => weeks.len() - 1,
        Some(&(last, _)) if last > wk => match weeks.binary_search_by_key(&wk, |c| c.0) {
            Ok(at) => at,
            Err(at) => {
                weeks.insert(at, (wk, WeekCell::default()));
                at
            }
        },
        _ => {
            weeks.push((wk, WeekCell::default()));
            weeks.len() - 1
        }
    };
    &mut weeks[at].1
}

/// `v[i]`, growing `v` with defaults to reach it.
fn slot<T: Default>(v: &mut Vec<T>, i: usize) -> &mut T {
    if v.len() <= i {
        v.resize_with(i + 1, T::default);
    }
    &mut v[i]
}

/// Adds one chunk's float sums to dense per-entity totals.
pub(crate) fn add_floats(workers: &mut [WorkerAgg], sources: &mut [SourceAgg], f: &Floats) {
    for &(w, work, trust) in &f.workers {
        let agg = &mut workers[w as usize];
        agg.work_secs += work;
        agg.trust_sum += trust;
    }
    for &(w, wk, hours) in &f.weeks {
        week_cell(&mut workers[w as usize].weeks, wk as usize).hours += hours;
    }
    for &(s, trust, rel, rel_n) in &f.sources {
        let agg = &mut sources[s as usize];
        agg.trust_sum += trust;
        agg.rel_time_sum += rel;
        agg.rel_time_n += rel_n;
    }
}

/// Sizes of the entity tables the dense state is indexed by.
#[derive(Debug, Clone, Copy)]
pub(crate) struct EntitySizes {
    workers: usize,
    sources: usize,
    batches: usize,
}

impl EntitySizes {
    pub(crate) fn of(ds: &Dataset) -> EntitySizes {
        EntitySizes {
            workers: ds.workers.len(),
            sources: ds.sources.len(),
            batches: ds.batches.len(),
        }
    }
}

/// The running total both fused consumers fold rows into.
pub(crate) struct State {
    /// Dense by worker id; workers without rows keep `tasks == 0`.
    pub(crate) workers: Vec<WorkerAgg>,
    /// Dense by source id; sources without rows keep `n_tasks == 0`.
    pub(crate) sources: Vec<SourceAgg>,
    /// Instances completed per end-week slot.
    completed: Vec<u64>,
    /// Pickup seconds per batch-creation week slot.
    pickups: Vec<Pile>,
    /// Per log-splice: the pickup pile and the task-seconds tally.
    splices: Vec<(Pile, Tally)>,
    /// Judgments per `(batch, item)`; also the per-batch row counts.
    pub(crate) per_item: ItemCounts,
}

impl State {
    /// Empty state for entity tables of `sizes`; interval offsets count
    /// from `origin`.
    pub(crate) fn new(sizes: EntitySizes, origin: Timestamp) -> State {
        State {
            workers: vec![WorkerAgg::new(origin); sizes.workers],
            sources: vec![SourceAgg::default(); sizes.sources],
            completed: Vec::new(),
            pickups: Vec::new(),
            splices: Vec::new(),
            per_item: ItemCounts::with_batches(sizes.batches),
        }
    }

    /// Folds the exact (integer) families of `rows`, in row order.
    pub(crate) fn absorb(&mut self, rows: &[Row]) {
        for r in rows {
            let w = &mut self.workers[r.worker as usize];
            w.tasks += 1;
            w.first_day = w.first_day.min(r.day);
            w.last_day = w.last_day.max(r.day);
            insert_sorted(&mut w.days, r.day);
            insert_sorted(&mut w.months, r.month);
            w.intervals.push(r.start, r.end);
            week_cell(&mut w.weeks, r.wk as usize).tasks += 1;

            self.sources[r.source as usize].n_tasks += 1;
            *slot(&mut self.completed, r.wc as usize) += 1;
            slot(&mut self.pickups, r.wi as usize).push(r.pickup);
            let (pickups, tasks) = slot(&mut self.splices, r.splice as usize);
            pickups.push(r.pickup.max(1));
            tasks.add(r.work_secs().max(1), 1);
            self.per_item.add(r.batch, r.item, 1);
        }
    }

    /// Shapes a [`Fused`] over a window of `n_weeks` week slots from the
    /// given per-entity aggregates and item counts (this state's own, or
    /// the snapshot copies a live publish makes) plus this state's series.
    /// Medians select in place on the owned piles, so nothing is copied
    /// and the state stays valid for more rows.
    pub(crate) fn shape(
        &mut self,
        entities: &Dataset,
        weeks: Weeks,
        n_weeks: usize,
        workers: Vec<WorkerAgg>,
        sources: Vec<SourceAgg>,
        per_item: ItemCounts,
    ) -> Fused {
        let mut issued = vec![0u64; n_weeks];
        let mut weekday = [0u64; 7];
        let mut per_day: BTreeMap<i64, u64> = BTreeMap::new();
        for (b, batch) in entities.batches.iter().enumerate() {
            let rows = per_item.batch_rows(b);
            if rows == 0 {
                continue;
            }
            let created = batch.created_at;
            if n_weeks > 0 {
                issued[weeks.slot(created)] += rows;
            }
            weekday[created.weekday().index()] += rows;
            *per_day.entry(created.day_number()).or_insert(0) += rows;
        }
        let mut completed = self.completed.clone();
        completed.resize(n_weeks, 0);
        let median_pickup =
            (0..n_weeks).map(|i| self.pickups.get_mut(i).and_then(Pile::median)).collect();
        let instance_latency = self
            .splices
            .iter_mut()
            .enumerate()
            .filter_map(|(splice, (pickups, tasks))| {
                Some(LatencyPoint {
                    end_to_end: 10f64.powf(splice as f64 / 2.0 + 0.25),
                    pickup: pickups.median()?,
                    task: tasks.median()?,
                })
            })
            .collect();
        Fused {
            w0: weeks.w0(),
            n_weeks,
            workers: active(workers, |w| w.tasks > 0),
            sources: active(sources, |s| s.n_tasks > 0),
            issued,
            completed,
            median_pickup,
            weekday,
            per_day,
            instance_latency,
            per_item,
        }
    }
}

/// The entries of a dense per-entity vector that saw rows, keyed by id.
fn active<T>(dense: Vec<T>, seen: impl Fn(&T) -> bool) -> BTreeMap<u32, T> {
    dense.into_iter().enumerate().filter(|(_, v)| seen(v)).map(|(id, v)| (id as u32, v)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowd_stats::descriptive::median;

    #[test]
    fn intervals_round_trip_with_spill() {
        let origin = Timestamp::from_secs(1_000);
        let pairs = [
            (Timestamp::from_secs(1_000), Timestamp::from_secs(1_060)),
            (Timestamp::from_secs(-5), Timestamp::from_secs(10)), // before origin
            (Timestamp::from_secs(2_000), Timestamp::from_secs(1 << 40)), // long task
            (Timestamp::from_secs(1_000 + i64::from(u32::MAX)), Timestamp::from_secs(1 << 33)),
            (Timestamp::from_secs(3_000), Timestamp::from_secs(2_000)), // end < start
            (Timestamp::from_secs(4_000), Timestamp::from_secs(4_001)),
        ];
        let mut iv = Intervals::new(origin);
        for &(s, e) in &pairs {
            iv.push(s, e);
        }
        assert_eq!(iv.iter().collect::<Vec<_>>(), pairs);
        assert_eq!(iv.spill.len(), 4, "only the out-of-range rows spill");
        assert_eq!(iv, pairs.iter().copied().collect::<Intervals>(), "origin-independent equality");
    }

    #[test]
    fn tally_stays_row_bounded_and_exact() {
        let keys = [u32::MAX as i64 - 1, 3, 3, 0, -7, 1 << 40, 70, 2, 1];
        let mut t = Tally::default();
        for &k in &keys {
            t.add(k, 1);
        }
        assert!(t.dense.len() as u64 <= 2 * t.total + Tally::FLOOR);
        let mut sorted = keys.to_vec();
        sorted.sort_unstable();
        let mut want: Vec<(i64, u32)> = Vec::new();
        for k in sorted {
            match want.last_mut() {
                Some((last, c)) if *last == k => *c += 1,
                _ => want.push((k, 1)),
            }
        }
        assert_eq!(t.iter().collect::<Vec<_>>(), want);
        assert_eq!(t.len(), want.len());
        let as_f64: Vec<f64> = keys.iter().map(|&k| k as f64).collect();
        assert_eq!(t.median().map(f64::to_bits), median(&as_f64).map(f64::to_bits));
    }

    #[test]
    fn tally_growth_absorbs_sparse_keys() {
        let mut t = Tally::default();
        t.add(500, 2); // beyond the floor: sparse
        assert!(t.dense.is_empty());
        for k in 0..300 {
            t.add(k, 1);
        }
        assert_eq!(t.sparse.len(), 1, "the prefix has not reached key 500 yet");
        t.add(500, 1);
        assert!(t.sparse.is_empty(), "the grown prefix took key 500 over");
        assert_eq!(t.iter().last(), Some((500, 3)));
        assert_eq!(t.total(), 303);
    }
}
