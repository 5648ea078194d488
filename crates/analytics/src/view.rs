//! The live, versioned fused view: [`Study::fused`]'s aggregates
//! maintained **incrementally** under a stream of appended instance rows,
//! instead of one memoized scan over a frozen table.
//!
//! ## Equivalence contract
//!
//! After every applied delta, [`FusedView::apply`] publishes a snapshot
//! whose [`Fused`] is equal — under `crowd-testkit`'s order-tolerant
//! discipline, and bit-identical on every count, median, and integer-
//! second sum — to a cold batch [`Study`] built over the same row prefix
//! (same entities, same rows, same order). The mechanics that make this
//! hold:
//!
//! * **Chunk discipline.** The view shares the batch scan's compact state
//!   (the `compact` module, DESIGN.md §11). A row's integer families
//!   (counts, sets, intervals, piles) fold into that state the moment it
//!   arrives — they are exact under any grouping. Its float families are
//!   summed per [`ScanPass::CHUNK`] in row order and added to the state
//!   when the chunk fills, in chunk order; the open chunk's sums are
//!   re-derived at each publish (≤ one chunk of rows) and added to the
//!   snapshot's copy only. Every float therefore reproduces the batch
//!   fold's rounding bit-for-bit.
//! * **Unclamped week keys.** The batch accumulator clamps week offsets
//!   into `[0, n_weeks)`, but `n_weeks` is derived from the dataset's own
//!   time span — the upper clamp never binds (every timestamp is ≤
//!   `time_max` by construction), and the lower clamp only floors
//!   negative-pickup rows at week 0, with `w0` fixed by the entity-side
//!   batch schedule. So the view keys weekly state by the plain
//!   `max(week - w0, 0)` offset and materializes the `n_weeks`-sized
//!   vectors at publish time, when the prefix's true span is known.
//! * **Publish-time enrichment.** `rel_time_sum` depends on per-batch
//!   median task times, which shift as rows arrive. The view keeps
//!   integer-exact per-`(batch, source)` work sums plus per-sampled-batch
//!   work-time piles, and at publish re-takes the median of only the
//!   batches that received rows since — medians of identical multisets
//!   are bit-identical to the sort-based `median` — and regroups the
//!   positive ratio sums, which stays within the testkit ulp bound.
//! * **Publish copies only the snapshot.** Medians select in place on the
//!   writer-owned piles; a publish clones the per-worker aggregates and
//!   item counts the snapshot keeps, nothing else.
//!
//! ## Concurrency
//!
//! One writer owns the [`FusedView`]; readers hold cloneable
//! [`ViewHandle`]s. A publish builds the complete immutable
//! [`ViewSnapshot`] *first* and then swaps one `Arc` under a write lock,
//! so a reader always observes exactly one fully-formed version — never a
//! torn mix — and versions are monotone.

use std::sync::{Arc, RwLock};

use crowd_core::prelude::*;

use crate::compact::{add_floats, EntitySizes, Floats, Pile, Row, State, Weeks};
use crate::fused::{Fused, SourceAgg};

/// One published, immutable state of the view.
#[derive(Debug)]
pub struct ViewSnapshot {
    /// Publish counter: 0 for the empty view, +1 per [`FusedView::apply`].
    pub version: u64,
    /// Instance rows folded into this snapshot.
    pub rows: usize,
    /// The fused aggregates over exactly those rows — equal to what a
    /// batch [`Study`](crate::Study) over the same prefix computes.
    pub fused: Fused,
}

/// The shared slot a publish swaps and a [`ViewHandle`] reads.
struct ViewShared {
    current: RwLock<Arc<ViewSnapshot>>,
}

/// A cloneable read handle: [`snapshot`](ViewHandle::snapshot) returns the
/// latest fully-published version.
#[derive(Clone)]
pub struct ViewHandle {
    shared: Arc<ViewShared>,
}

impl ViewHandle {
    /// The latest published snapshot. Lock-held time is one `Arc` clone;
    /// all query work happens against the immutable snapshot afterwards.
    pub fn snapshot(&self) -> Arc<ViewSnapshot> {
        Arc::clone(&self.shared.current.read().expect("view lock poisoned"))
    }
}

/// Publish-time relative-speed inputs, dense by batch id (entries stay
/// empty for unsampled batches).
struct RelTime {
    /// Work-seconds pile per sampled batch — the multiset its publish-time
    /// median is taken from.
    piles: Vec<Pile>,
    /// `(source, work-seconds sum, rows)` per sampled batch, ascending
    /// source. Work seconds are integer-valued, so the sums are exact.
    sums: Vec<Vec<(u32, f64, u64)>>,
    /// Each batch's median as of the last publish.
    medians: Vec<Option<f64>>,
    /// Batches that received rows since the last publish, and their flags.
    dirty: Vec<usize>,
    marked: Vec<bool>,
}

impl RelTime {
    fn new(batches: usize) -> RelTime {
        RelTime {
            piles: vec![Pile::default(); batches],
            sums: vec![Vec::new(); batches],
            medians: vec![None; batches],
            dirty: Vec::new(),
            marked: vec![false; batches],
        }
    }

    fn absorb(&mut self, entities: &Dataset, delta: &InstanceColumns) {
        for row in delta.iter() {
            if !entities.batch(row.batch).sampled {
                continue;
            }
            let b = row.batch.index();
            let secs = row.work_time().as_secs();
            if !self.marked[b] {
                self.marked[b] = true;
                self.dirty.push(b);
            }
            self.piles[b].push(secs);
            let src = entities.worker(row.worker).source.raw();
            let sums = &mut self.sums[b];
            let at = match sums.binary_search_by_key(&src, |e| e.0) {
                Ok(at) => at,
                Err(at) => {
                    sums.insert(at, (src, 0.0, 0));
                    at
                }
            };
            sums[at].1 += secs as f64;
            sums[at].2 += 1;
        }
    }

    /// Refreshes the touched batches' medians, then adds every batch's
    /// ratio sums to `sources` — batches ascending, so each source sums its
    /// terms in batch order.
    fn apply(&mut self, sources: &mut [SourceAgg]) {
        for b in self.dirty.drain(..) {
            self.medians[b] = self.piles[b].median();
            self.marked[b] = false;
        }
        for (sums, med) in self.sums.iter().zip(&self.medians) {
            let Some(med) = *med else { continue };
            if med > 0.0 {
                for &(src, work, n) in sums {
                    let agg = &mut sources[src as usize];
                    agg.rel_time_sum += work / med;
                    agg.rel_time_n += n;
                }
            }
        }
    }
}

/// The incremental fused view (see module docs).
pub struct FusedView {
    entities: Arc<Dataset>,
    /// First week of the batch schedule; 0 when there are no batches (and
    /// then no row can ever arrive, since rows reference batches).
    w0: i32,
    /// Last week of the batch schedule, `None` without batches.
    batch_max_week: Option<i32>,
    /// Every applied row's integer families, plus the float sums of every
    /// full chunk of the row log.
    state: State,
    rel: RelTime,
    /// Rows past the last full chunk boundary (< [`ScanPass::CHUNK`]),
    /// already in `state` except for their float sums.
    tail: Vec<Row>,
    /// Largest end-time week seen (raw week index, not offset) — the
    /// stream-side contribution to the publish-time week window.
    max_end_week: Option<i32>,
    rows: usize,
    version: u64,
    shared: Arc<ViewShared>,
}

impl FusedView {
    /// An empty view over an entity-only dataset (batches, workers,
    /// sources present; instance table empty). Publishes version 0, which
    /// already equals the batch fused pass over zero rows.
    ///
    /// # Panics
    /// If `entities` carries instance rows — the view owns the row log.
    pub fn new(entities: Arc<Dataset>) -> FusedView {
        assert!(
            entities.instances.is_empty(),
            "FusedView is built over an entity-only dataset; rows arrive as deltas"
        );
        let weeks: Vec<i32> = entities.batches.iter().map(|b| b.created_at.week().0).collect();
        let w0 = weeks.iter().copied().min().unwrap_or(0);
        let batch_max_week = weeks.iter().copied().max();
        let origin = entities.time_min().unwrap_or_default();
        let placeholder = Arc::new(ViewSnapshot { version: 0, rows: 0, fused: Fused::default() });
        let mut view = FusedView {
            state: State::new(EntitySizes::of(&entities), origin),
            rel: RelTime::new(entities.batches.len()),
            entities,
            w0,
            batch_max_week,
            tail: Vec::with_capacity(ScanPass::CHUNK),
            max_end_week: None,
            rows: 0,
            version: 0,
            shared: Arc::new(ViewShared { current: RwLock::new(placeholder) }),
        };
        let fused = view.shape();
        *view.shared.current.write().expect("view lock poisoned") =
            Arc::new(ViewSnapshot { version: 0, rows: 0, fused });
        view
    }

    /// The entity context rows are resolved against.
    pub fn entities(&self) -> &Arc<Dataset> {
        &self.entities
    }

    /// Rows applied so far.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Version of the latest published snapshot.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// A read handle for concurrent queriers.
    pub fn handle(&self) -> ViewHandle {
        ViewHandle { shared: Arc::clone(&self.shared) }
    }

    /// Applies one delta batch of completed rows (appended to the log in
    /// order) and publishes a new snapshot — empty deltas publish too, so
    /// a heartbeat delta still bumps the version. Returns the snapshot.
    pub fn apply(&mut self, delta: &InstanceColumns) -> Arc<ViewSnapshot> {
        let weeks = Weeks::Open { w0: self.w0 };
        let mut at = 0;
        while at < delta.len() {
            // Never let one derivation cross a chunk boundary: a full chunk's
            // float sums join the state before the next chunk's rows fold.
            let take = (ScanPass::CHUNK - self.tail.len()).min(delta.len() - at);
            let first = self.tail.len();
            Row::derive(&self.entities, weeks, delta, at..at + take, &mut self.tail);
            self.state.absorb(&self.tail[first..]);
            if self.tail.len() == ScanPass::CHUNK {
                let floats = Floats::of(&self.tail, None);
                add_floats(&mut self.state.workers, &mut self.state.sources, &floats);
                self.tail.clear();
            }
            at += take;
        }
        self.rel.absorb(&self.entities, delta);
        if let Some(ew) = delta.end_col().iter().map(|t| t.week().0).max() {
            self.max_end_week = Some(self.max_end_week.map_or(ew, |m| m.max(ew)));
        }
        self.rows += delta.len();
        self.publish()
    }

    /// Materializes a [`Fused`] for the current prefix: fixes the week
    /// window, shapes the series from the owned piles, and copies the
    /// per-entity aggregates with the open chunk's float sums added.
    fn shape(&mut self) -> Fused {
        let max_week = match (self.batch_max_week, self.max_end_week) {
            (Some(b), Some(e)) => Some(b.max(e)),
            (b, e) => b.or(e),
        };
        // `max_week ≥ w0` always: it includes the batch schedule `w0` came
        // from, and rows only push it later. Without batches `w0` is 0.
        let n_weeks = max_week.map_or(0, |mw| (mw - self.w0 + 1).max(0) as usize);
        let mut workers = self.state.workers.clone();
        let mut sources = self.state.sources.clone();
        if !self.tail.is_empty() {
            add_floats(&mut workers, &mut sources, &Floats::of(&self.tail, None));
        }
        self.rel.apply(&mut sources);
        let per_item = self.state.per_item.clone();
        let weeks = Weeks::Open { w0: self.w0 };
        self.state.shape(&self.entities, weeks, n_weeks, workers, sources, per_item)
    }

    fn publish(&mut self) -> Arc<ViewSnapshot> {
        let fused = self.shape();
        self.version += 1;
        let snapshot = Arc::new(ViewSnapshot { version: self.version, rows: self.rows, fused });
        *self.shared.current.write().expect("view lock poisoned") = Arc::clone(&snapshot);
        snapshot
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Study;
    use crowd_core::fixture::{order_sensitive, Fixture};

    fn entities_of(ds: &Dataset) -> Dataset {
        let mut e = ds.clone();
        e.instances = InstanceColumns::new();
        e
    }

    fn prefix_study(ds: &Dataset, rows: &InstanceColumns, n: usize) -> Study {
        let mut prefix = entities_of(ds);
        prefix.instances = rows.clone_range(0..n);
        Study::new(prefix)
    }

    #[test]
    fn empty_view_matches_batch_over_entities() {
        let mut f = Fixture::new();
        f.add_workers(2);
        f.add_batch(Duration::ZERO);
        f.add_batch(Duration::from_days(20));
        let ds = f.finish();
        let view = FusedView::new(Arc::new(entities_of(&ds)));
        let snap = view.handle().snapshot();
        let batch = Study::new(entities_of(&ds));
        assert_eq!(snap.version, 0);
        assert_eq!(&snap.fused, batch.fused(), "empty view equals batch over zero rows");
    }

    #[test]
    fn single_delta_matches_batch_exactly() {
        let mut f = Fixture::new();
        let ws = f.add_workers(3);
        let b0 = f.add_batch(Duration::ZERO);
        let b1 = f.add_batch(Duration::from_days(9));
        for i in 0..40i64 {
            f.instance(
                if i % 2 == 0 { b0 } else { b1 },
                (i % 7) as u32,
                ws[(i % 3) as usize],
                i * 937,
                30 + i,
            );
        }
        let ds = f.finish();
        let mut view = FusedView::new(Arc::new(entities_of(&ds)));
        let snap = view.apply(&ds.instances);
        let batch = Study::new(ds.clone());
        assert_eq!(&snap.fused, batch.fused(), "one-delta view is bitwise equal to batch");
    }

    #[test]
    fn chunk_boundary_deltas_stay_bitwise_equal() {
        // Order-sensitive trust magnitudes across a 2·CHUNK+1 log: any
        // deviation from the batch chunk/merge discipline shows up in the
        // last ulp of the sums.
        let ds = order_sensitive(2 * ScanPass::CHUNK + 1);
        let mut view = FusedView::new(Arc::new(entities_of(&ds)));
        let cuts = [1usize, ScanPass::CHUNK - 1, ScanPass::CHUNK + 3, 2 * ScanPass::CHUNK + 1];
        let mut done = 0usize;
        for cut in cuts {
            let delta = ds.instances.clone_range(done..cut);
            done = cut;
            let snap = view.apply(&delta);
            let oracle = prefix_study(&ds, &ds.instances, cut);
            assert_eq!(snap.rows, cut);
            assert_eq!(&snap.fused, oracle.fused(), "prefix {cut} must match batch");
        }
    }

    #[test]
    fn empty_deltas_bump_versions_without_changing_state() {
        let ds = order_sensitive(10);
        let mut view = FusedView::new(Arc::new(entities_of(&ds)));
        let a = view.apply(&ds.instances);
        let b = view.apply(&InstanceColumns::new());
        assert_eq!(b.version, a.version + 1);
        assert_eq!(a.fused, b.fused, "empty delta leaves the aggregates untouched");
        assert_eq!(view.handle().snapshot().version, b.version);
    }
}
