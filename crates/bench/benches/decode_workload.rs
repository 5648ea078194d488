//! Shared event-decode workload for `benches/serve.rs` and the perf gate
//! (`benches/gate.rs`): both must measure the *same* thing so the
//! checked-in `BENCH_serve.json` ratio is comparable when the gate
//! re-measures it on another host.
//!
//! The ratio is hardware-independent by construction: the borrowed-field
//! codec and the frozen naive codec in `crowd-testkit` decode the
//! identical wire text in the same process, so host speed cancels out of
//! the quotient.

use crowd_bench::shapes::measure;
use crowd_core::provenance::ErrorBudget;
use crowd_ingest::{load_events, EventOptions};
use crowd_serve::EventFeed;
use crowd_sim::SimConfig;
use crowd_testkit::wire::naive_load_events;

/// Timed runs per side; the median is reported.
const RUNS: usize = 7;

/// `(speedup_vs_oracle, events_per_sec)` for `load_events` over the
/// `SimConfig::tiny(2017)` feed's wire text.
pub fn measure_event_decode() -> (f64, f64) {
    let feed = EventFeed::from_config(&SimConfig::tiny(2017));
    let wire = feed.to_csv();
    let opts = EventOptions::default();
    let (codec_s, events) = measure(RUNS, || {
        let log = load_events(&mut wire.as_bytes(), &feed.entities, &opts).expect("clean feed");
        log.events.len() as u64
    });
    let (oracle_s, oracle_events) = measure(RUNS, || {
        let log = naive_load_events(wire.as_bytes(), &feed.entities, ErrorBudget::default())
            .expect("clean feed");
        log.events.len() as u64
    });
    assert_eq!(events, oracle_events, "codec and oracle must decode the same events");
    (oracle_s / codec_s, events as f64 / codec_s)
}
