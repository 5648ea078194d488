//! The `serve_live` session: an event feed through the wire format into a
//! durable live service, one closed-loop dashboard reader, then recovery.
//!
//! Two paths run the same session. [`library_session`] drives
//! `LiveService` itself (`apply_events`, `wal_sync`, `restore_durable`)
//! and is what the untraced run measures. [`traced_session`] composes the
//! same public calls those methods make — `WalWriter::append`,
//! `FusedView::apply`, `CheckpointStore::write`, `WalWriter::retire_through`,
//! `CheckpointStore::load_latest`, `wal_replay` — with a span around each.
//! Both check their own output: every dashboard must be untorn, the restored
//! state must equal the state before the restart, and the final live view
//! must equal the batch study over the restored rows.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crowd_analytics::fused::Fused;
use crowd_analytics::{FusedView, ViewSnapshot};
use crowd_core::dataset::{Dataset, InstanceColumns};
use crowd_ingest::events::{load_events, EventOptions};
use crowd_ingest::{truncate_torn, wal_replay, MarketEvent, WalOptions, WalStats, WalWriter};
use crowd_serve::query::dashboard;
use crowd_serve::{
    entities_only, CheckpointError, CheckpointState, CheckpointStore, EventFeed, LiveService,
};
use crowd_sim::SimConfig;
use crowd_testkit::differential::FloatMode;

use crate::trace::Tracer;

/// The `serve` binary's durability defaults: 8192-event batches, WAL
/// fsync on every append, a checkpoint every 100k events.
#[derive(Debug, Clone, Copy)]
pub struct Durability {
    /// Events per applied batch.
    pub batch_events: usize,
    /// Checkpoint cadence in events.
    pub checkpoint_every: u64,
    /// WAL fsync cadence and segment size.
    pub wal: WalOptions,
}

impl Default for Durability {
    fn default() -> Durability {
        Durability { batch_events: 8192, checkpoint_every: 100_000, wal: WalOptions::default() }
    }
}

/// The session input: entity tables, the event stream, and its wire bytes.
pub struct Feed {
    /// Entities plus events.
    pub feed: EventFeed,
    /// The event stream in the wire format.
    pub wire: String,
}

/// Simulates the marketplace for `cfg` and encodes its event stream.
pub fn make_feed(cfg: &SimConfig) -> Feed {
    let feed = EventFeed::from_config(cfg);
    let wire = feed.to_csv();
    Feed { feed, wire }
}

/// What one published batch looked like.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchRecord {
    /// Events applied after this batch.
    pub events_applied: u64,
    /// Completed rows in the published view.
    pub rows: usize,
    /// Published version.
    pub version: u64,
}

/// Measurements and checks of one session.
pub struct Session {
    /// Events decoded and applied.
    pub events: u64,
    /// Wire bytes to applied and durable: decode + apply + final WAL sync.
    pub ingest_s: f64,
    /// Per-batch apply latency.
    pub batch_ms: Vec<f64>,
    /// Per-query dashboard latency of the closed-loop reader.
    pub dashboard_us: Vec<f64>,
    /// Restart to full state: checkpoint load, WAL tail, view rebuild.
    pub recover_s: f64,
    /// CPU seconds of ingest plus recovery, on every thread but the
    /// dashboard reader's.
    pub cpu_s: f64,
    /// Bytes left in the WAL and checkpoint directories.
    pub disk_bytes: u64,
    /// Peak resident memory from session start to the restored service.
    pub peak_rss_bytes: u64,
    /// Operations attempted: batches, dashboards, the final-view check and
    /// the recovery.
    pub attempted: u64,
    /// Failed operations, one line each.
    pub failures: Vec<String>,
    /// Every batch as published.
    pub batches: Vec<BatchRecord>,
    /// WAL writer counters at the end of ingest.
    pub wal: WalStats,
    /// The final published view.
    pub view: Arc<ViewSnapshot>,
}

impl Session {
    /// Ingest plus recovery: the session's user-visible duration.
    pub fn wall_s(&self) -> f64 {
        self.ingest_s + self.recover_s
    }
}

fn dirs(root: &Path) -> (PathBuf, PathBuf) {
    (root.join("checkpoints"), root.join("wal"))
}

/// Total size of the regular files under `dir`, recursively.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

const PROCESS_CPU: i32 = 2; // CLOCK_PROCESS_CPUTIME_ID
const THREAD_CPU: i32 = 3; // CLOCK_THREAD_CPUTIME_ID

/// CPU seconds this process (`PROCESS_CPU`) or the calling thread
/// (`THREAD_CPU`) has run so far. Unlike wall time it leaves out the time
/// another process, or another guest of a shared host, had the core.
fn cpu_seconds(clock: i32) -> f64 {
    use std::os::raw::{c_int, c_long};
    #[repr(C)]
    struct Timespec {
        sec: c_long,
        nsec: c_long,
    }
    extern "C" {
        fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
    }
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a live, writable timespec for the whole call.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// Resets this process's peak-RSS mark to its current RSS (Linux
/// `clear_refs`), so the next [`peak_rss_bytes`] covers only what runs
/// after. Returns whether the reset took.
fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// This process's peak resident memory (`VmHWM`), in bytes.
fn peak_rss_bytes() -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let line = status.lines().find(|l| l.starts_with("VmHWM:"));
    let kb = line.and_then(|l| l.split_whitespace().nth(1)?.parse::<u64>().ok());
    kb.map(|kb| kb * 1024).ok_or_else(|| "cannot read VmHWM from /proc/self/status".into())
}

/// Whether a session's peak RSS can be measured here: the peak mark can
/// be reset and read back (Linux). Sessions fail where it cannot.
pub fn peak_rss_supported() -> bool {
    reset_peak_rss() && peak_rss_bytes().is_ok()
}

/// Renders the dashboard on the latest snapshot, back to back, until
/// `stop`; returns each query's latency, the number of torn answers and
/// the reader's CPU seconds. The empty view published before the first
/// batch is not queried.
fn closed_loop_reader(
    latest: impl Fn() -> Arc<ViewSnapshot>,
    entities: &Arc<Dataset>,
    stop: &AtomicBool,
) -> (Vec<f64>, u64, f64) {
    let cpu0 = cpu_seconds(THREAD_CPU);
    let mut latencies = Vec::new();
    let mut torn = 0;
    while !stop.load(Ordering::Acquire) {
        let snap = latest();
        if snap.version == 0 {
            std::thread::yield_now();
            continue;
        }
        let t = Instant::now();
        let dash = dashboard(&snap.fused, entities);
        latencies.push(t.elapsed().as_secs_f64() * 1e6);
        if dash.n_instances != snap.rows as u64 {
            torn += 1;
        }
    }
    (latencies, torn, cpu_seconds(THREAD_CPU) - cpu0)
}

/// Sets the flag when dropped, so the reader stops on unwind too.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

/// Runs `ingest` on this thread while a closed-loop reader queries
/// `latest` on another; the reader stops when `ingest` returns, error or
/// not, and when it panics, so the panic ends the process instead of
/// waiting on the reader. Returns the reader's latencies, torn answers
/// and CPU seconds beside `ingest`'s result.
fn with_reader<T>(
    latest: impl Fn() -> Arc<ViewSnapshot> + Send,
    entities: &Arc<Dataset>,
    ingest: impl FnOnce() -> Result<T, String>,
) -> (Result<T, String>, Vec<f64>, u64, f64) {
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let reader = s.spawn(|| closed_loop_reader(latest, entities, &stop));
        let out = {
            let _stop = StopOnDrop(&stop);
            ingest()
        };
        let (latencies, torn, cpu) = reader.join().expect("dashboard reader panicked");
        (out, latencies, torn, cpu)
    })
}

/// Checks shared by both paths: untorn dashboards, live view equal to the
/// batch study, restored state equal to the state before the restart.
fn check(
    torn: u64,
    live: &Fused,
    batch: &Fused,
    before: (u64, &Fused),
    restored: (u64, &Fused),
) -> Vec<String> {
    let mut failures = Vec::new();
    if torn > 0 {
        failures.push(format!("{torn} torn dashboards"));
    }
    let diffs = crowd_testkit::compare_fused(live, batch, FloatMode::OrderTolerant);
    if !diffs.is_empty() {
        failures.push(format!("live view differs from the batch study: {}", diffs.join("; ")));
    }
    if restored.0 != before.0 {
        failures.push(format!("restored {} events_applied, expected {}", restored.0, before.0));
    }
    if restored.1 != before.1 {
        failures.push("restored fused state differs from the state before the restart".into());
    }
    failures
}

/// The session through `LiveService`, as the `serve` binary drives it.
pub fn library_session(
    feed: &Feed,
    root: &Path,
    seed: u64,
    d: Durability,
) -> Result<Session, String> {
    let (ckpt_dir, wal_dir) = dirs(root);
    let entities = Arc::clone(&feed.feed.entities);
    if !reset_peak_rss() {
        return Err("cannot reset the peak-RSS mark through /proc/self/clear_refs".into());
    }
    let started = Instant::now();
    let cpu0 = cpu_seconds(PROCESS_CPU);
    let mut service = LiveService::new(Arc::clone(&entities))
        .with_checkpoints(CheckpointStore::new(&ckpt_dir, seed), d.checkpoint_every)
        .with_wal(&wal_dir, seed, d.wal)
        .map_err(|e| format!("wal open: {e}"))?;
    let handle = service.handle();
    let mut batch_ms = Vec::new();
    let mut batches = Vec::new();
    let log = load_events(&mut feed.wire.as_bytes(), &entities, &EventOptions::default())
        .map_err(|e| format!("decode: {e}"))?;
    let (applied, dashboard_us, torn, reader_cpu) = with_reader(
        || Arc::clone(&handle.snapshot().view),
        &entities,
        || {
            for chunk in log.events.chunks(d.batch_events) {
                let t = Instant::now();
                let snap = service.apply_events(chunk).map_err(|e| format!("apply: {e}"))?;
                batch_ms.push(t.elapsed().as_secs_f64() * 1e3);
                batches.push(BatchRecord {
                    events_applied: snap.events_applied,
                    rows: snap.view.rows,
                    version: snap.version,
                });
            }
            service.wal_sync().map_err(|e| format!("wal sync: {e}"))
        },
    );
    applied?;
    let (events, ingest_s) = (log.events.len() as u64, started.elapsed().as_secs_f64());
    let ingest_cpu = cpu_seconds(PROCESS_CPU) - cpu0 - reader_cpu;
    let disk_bytes = dir_bytes(root);
    let wal = service.wal_stats().unwrap_or_default();
    let view = Arc::clone(&service.handle().snapshot().view);
    let before = service.events_applied();
    drop(service);

    let t = Instant::now();
    let cpu1 = cpu_seconds(PROCESS_CPU);
    let (restored, _report) = LiveService::restore_durable(
        CheckpointStore::new(&ckpt_dir, seed),
        d.checkpoint_every,
        Arc::clone(&entities),
        &wal_dir,
        d.wal,
    )
    .map_err(|e| format!("restore: {e}"))?;
    let recover_s = t.elapsed().as_secs_f64();
    let cpu_s = ingest_cpu + cpu_seconds(PROCESS_CPU) - cpu1;
    let peak_rss_bytes = peak_rss_bytes()?;
    let restored_view = Arc::clone(&restored.handle().snapshot().view);
    // The batch oracle over the restored rows: any difference from the
    // rows applied live shows as a failed restore check as well.
    let batch = restored.batch_study();

    let failures = check(
        torn,
        &view.fused,
        batch.fused(),
        (before, &view.fused),
        (restored.events_applied(), &restored_view.fused),
    );
    Ok(Session {
        events,
        ingest_s,
        attempted: batch_ms.len() as u64 + dashboard_us.len() as u64 + 2,
        batch_ms,
        dashboard_us,
        recover_s,
        cpu_s,
        disk_bytes,
        peak_rss_bytes,
        failures,
        batches,
        wal,
        view,
    })
}

/// The state `LiveService` keeps, rebuilt from public parts.
struct Live {
    entities: Arc<Dataset>,
    view: FusedView,
    rows: InstanceColumns,
    posted: u64,
    picked_up: u64,
    events_applied: u64,
    version: u64,
    store: CheckpointStore,
    every: u64,
    wal: Option<WalWriter>,
}

impl Live {
    fn new(entities: Arc<Dataset>, store: CheckpointStore, every: u64) -> Live {
        Live {
            view: FusedView::new(Arc::clone(&entities)),
            entities,
            rows: InstanceColumns::default(),
            posted: 0,
            picked_up: 0,
            events_applied: 0,
            version: 0,
            store,
            every,
            wal: None,
        }
    }

    /// `LiveService::from_state`: the checkpoint's rows folded into a
    /// fresh view in one delta.
    fn from_state(state: CheckpointState, store: CheckpointStore, every: u64, t: &Tracer) -> Live {
        let entities = Arc::new(entities_only(&state.dataset));
        let rows = state.dataset.instances.clone_range(0..state.dataset.instances.len());
        let view = t.span("analytics.view_rebuild", || {
            let mut view = FusedView::new(Arc::clone(&entities));
            view.apply(&rows);
            view
        });
        Live {
            entities,
            view,
            rows,
            posted: state.posted,
            picked_up: state.picked_up,
            events_applied: state.events_applied,
            version: state.version,
            store,
            every,
            wal: None,
        }
    }

    /// `LiveService::apply_events`: WAL append first, then the delta into
    /// the row log and the view, then a checkpoint when the cadence is
    /// crossed. The delta assembly between the spans is the service's own
    /// work and counts as unattributed. `view_span` names the view fold (`analytics.view_apply`
    /// live, `analytics.view_rebuild` during recovery).
    fn apply(
        &mut self,
        events: &[MarketEvent],
        view_span: &'static str,
        t: &Tracer,
    ) -> Result<BatchRecord, String> {
        if let Some(wal) = &mut self.wal {
            t.span("ingest.wal_append", || wal.append(events))
                .map_err(|e| format!("wal append: {e}"))?;
        }
        let before = self.events_applied;
        let mut delta = InstanceColumns::default();
        for ev in events {
            match ev {
                MarketEvent::Posted { .. } => self.posted += 1,
                MarketEvent::PickedUp { .. } => self.picked_up += 1,
                MarketEvent::Completed { row, .. } => delta.push(row.clone()),
            }
        }
        self.rows.extend_from(&delta, 0..delta.len());
        let snap = t.span(view_span, || self.view.apply(&delta));
        self.events_applied += events.len() as u64;
        self.version += 1;
        if self.events_applied / self.every > before / self.every {
            t.span("serve.checkpoint_write", || self.checkpoint(t))?;
        }
        Ok(BatchRecord {
            events_applied: self.events_applied,
            rows: snap.rows,
            version: self.version,
        })
    }

    fn checkpoint(&mut self, t: &Tracer) -> Result<(), String> {
        let mut dataset = entities_only(&self.entities);
        dataset.instances = self.rows.clone_range(0..self.rows.len());
        let state = CheckpointState {
            stream_id: self.store.stream_id(),
            events_applied: self.events_applied,
            version: self.version,
            posted: self.posted,
            picked_up: self.picked_up,
            dataset,
        };
        let path = self.store.write(&state).map_err(|e| format!("checkpoint: {e}"))?;
        t.add("serve.checkpoints", 1.0);
        t.add("serve.checkpoint_bytes", std::fs::metadata(path).map_or(0, |m| m.len()) as f64);
        if let Some(wal) = &mut self.wal {
            wal.retire_through(self.events_applied).map_err(|e| format!("wal retire: {e}"))?;
        }
        Ok(())
    }
}

/// `LiveService::restore_durable`, composed.
fn traced_restore(
    root: &Path,
    seed: u64,
    d: Durability,
    entities: &Arc<Dataset>,
    t: &Tracer,
) -> Result<Live, String> {
    let (ckpt_dir, wal_dir) = dirs(root);
    let store = CheckpointStore::new(&ckpt_dir, seed);
    let mut live = match t.span("serve.recover_checkpoint_load", || store.load_latest()) {
        Ok((state, _faults)) => Live::from_state(state, store, d.checkpoint_every, t),
        Err(CheckpointError::NoValidCheckpoint { .. }) => {
            Live::new(Arc::clone(entities), store, d.checkpoint_every)
        }
        Err(e) => return Err(format!("checkpoint load: {e}")),
    };
    let replayed = t
        .span("ingest.wal_replay", || {
            wal_replay(&wal_dir, seed, live.events_applied, &live.entities)
        })
        .map_err(|e| format!("wal replay: {e}"))?;
    match &replayed.fault {
        Some(fault) if fault.is_torn_tail() => {
            truncate_torn(fault).map_err(|e| format!("wal truncate: {e}"))?;
        }
        Some(fault) => return Err(format!("refusing recovery: {fault}")),
        None => {}
    }
    t.add("ingest.wal_events_replayed", replayed.events.len() as f64);
    if !replayed.events.is_empty() {
        live.apply(&replayed.events, "analytics.view_rebuild", t)?;
    }
    live.wal = Some(
        WalWriter::open(wal_dir, seed, d.wal, live.events_applied)
            .map_err(|e| format!("wal open: {e}"))?,
    );
    Ok(live)
}

/// The session composed from public calls, each wrapped in a span. Two
/// root spans cover the timed parts: `serve` (wire bytes to applied and
/// durable) and `serve.recover` (restart to full state); the output checks
/// between them are not traced.
pub fn traced_session(
    feed: &Feed,
    root: &Path,
    seed: u64,
    d: Durability,
    t: &Tracer,
) -> Result<Session, String> {
    let (ckpt_dir, wal_dir) = dirs(root);
    let entities = Arc::clone(&feed.feed.entities);
    let mut batch_ms = Vec::new();
    let mut batches = Vec::new();
    if !reset_peak_rss() {
        return Err("cannot reset the peak-RSS mark through /proc/self/clear_refs".into());
    }
    let (ingest, dashboard_us, torn, live) = t.span("serve", || {
        let started = Instant::now();
        let cpu0 = cpu_seconds(PROCESS_CPU);
        let mut live = Live::new(
            Arc::clone(&entities),
            CheckpointStore::new(&ckpt_dir, seed),
            d.checkpoint_every,
        );
        let wal = WalWriter::open(&wal_dir, seed, d.wal, 0).map_err(|e| format!("wal open: {e}"));
        live.wal = Some(wal?);
        let handle = live.view.handle();
        let log = t
            .span("ingest.decode", || {
                load_events(&mut feed.wire.as_bytes(), &entities, &EventOptions::default())
            })
            .map_err(|e| format!("decode: {e}"))?;
        t.add("ingest.events", log.events.len() as f64);
        let (applied, dashboard_us, torn, reader_cpu) = with_reader(
            || handle.snapshot(),
            &entities,
            || {
                for chunk in log.events.chunks(d.batch_events) {
                    let t1 = Instant::now();
                    batches.push(live.apply(chunk, "analytics.view_apply", t)?);
                    batch_ms.push(t1.elapsed().as_secs_f64() * 1e3);
                }
                let wal = live.wal.as_mut().expect("attached above");
                t.span("ingest.wal_append", || wal.sync()).map_err(|e| format!("wal sync: {e}"))
            },
        );
        applied?;
        let ingest_cpu = cpu_seconds(PROCESS_CPU) - cpu0 - reader_cpu;
        let ingest = (log.events.len() as u64, started.elapsed().as_secs_f64(), ingest_cpu);
        Ok::<_, String>((ingest, dashboard_us, torn, live))
    })?;
    let (events, ingest_s, ingest_cpu) = ingest;
    t.add("serve.dashboard_queries", dashboard_us.len() as f64);
    let disk_bytes = dir_bytes(root);
    let wal = live.wal.as_ref().map(WalWriter::stats).unwrap_or_default();
    t.set("ingest.wal_fsyncs", wal.fsyncs as f64);
    t.set("ingest.wal_bytes", wal.bytes_written as f64);
    t.set("serve.checkpoint_retries", live.store.retries_spent() as f64);
    let view = live.view.handle().snapshot();
    let before = live.events_applied;
    drop(live);

    let t0 = Instant::now();
    let cpu1 = cpu_seconds(PROCESS_CPU);
    let restored = t.span("serve.recover", || traced_restore(root, seed, d, &entities, t))?;
    let recover_s = t0.elapsed().as_secs_f64();
    let cpu_s = ingest_cpu + cpu_seconds(PROCESS_CPU) - cpu1;
    let peak_rss_bytes = peak_rss_bytes()?;
    let restored_view = restored.view.handle().snapshot();
    let mut batch_ds = entities_only(&entities);
    batch_ds.instances = restored.rows.clone_range(0..restored.rows.len());
    let batch = crowd_analytics::Study::new(batch_ds);

    let failures = check(
        torn,
        &view.fused,
        batch.fused(),
        (before, &view.fused),
        (restored.events_applied, &restored_view.fused),
    );
    Ok(Session {
        events,
        ingest_s,
        attempted: batch_ms.len() as u64 + dashboard_us.len() as u64 + 2,
        batch_ms,
        dashboard_us,
        recover_s,
        cpu_s,
        disk_bytes,
        peak_rss_bytes,
        failures,
        batches,
        wal,
        view,
    })
}
