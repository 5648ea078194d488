//! Allocation-budget pins for the hot paths, measured with a counting
//! global allocator.
//!
//! The kernel refactor's claim is not just "faster" but *allocation-free
//! in steady state*: a warmed [`ShingleScratch`] and a warmed
//! `sign_into` target vector must not touch the allocator at all, and the
//! streaming build (simulator shard flushing + streaming enricher) must
//! stay within a per-row allocation budget so a regression that
//! reintroduces per-row buffers fails loudly here rather than silently
//! costing throughput. The event wire codec is pinned the same way: the
//! stream decoder within half an allocation per event, and event
//! serialization into a reserved buffer allocation-free.
//!
//! Everything runs inside **one** `#[test]` — the counter is global, and
//! the harness runs separate tests concurrently.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts calls into the allocator (alloc + realloc; frees are not
/// interesting for the budgets below).
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    f();
    ALLOCS.load(Ordering::Relaxed) - before
}

/// The counter is process-global, so harness background threads can slip
/// a few allocations into any measurement window. The zero-allocation
/// pins therefore allow this much unrelated noise — far below the
/// hundreds a reintroduced per-call allocation would add.
const NOISE: u64 = 10;

/// The fused scan's budget: at most one allocation per this many rows.
/// Measured 0.15 allocations per row on the pinned workload (7,871 for
/// 54,051 rows, almost all of them per-worker vectors doubling); the
/// per-chunk B-tree layout this replaced needed 0.32 (17,194).
const FUSED_ALLOCS_PER_ROW_DEN: u64 = 5;

/// The event decoder's budget: at most one allocation per this many
/// events. Measured on the `SimConfig::tiny(2017)` feed (55,854 events):
/// 14,851 allocations (0.27 per event), of which ~0.26 are the owned
/// `Text` answers. The character-at-a-time splitter and re-serializing
/// loader this replaced needed 1,083,159 (19.4 per event). Serializing
/// an 8192-event batch into a reserved buffer measured 0 allocations;
/// the `format!`-built writers needed 32,321 (3.9 per event).
const DECODE_ALLOCS_PER_EVENT_DEN: u64 = 2;

#[test]
fn steady_state_allocation_budgets_hold() {
    use crowd_cluster::{MinHasher, ShingleScratch};

    // ---- shingling: zero allocations once the scratch is warm ----------
    let docs: Vec<String> = (0..32)
        .map(|i| {
            format!(
                "<div class=\"task\"><h1>Batch {i} labels IMAGES</h1>\
                 <p>rate the pictures and flag unsafe content {i}</p></div>"
            )
        })
        .collect();
    let mut scratch = ShingleScratch::new();
    for d in &docs {
        scratch.shingle(d, 3); // warm to the high-water document shape
    }
    let shingle_allocs = allocs_during(|| {
        for _ in 0..50 {
            for d in &docs {
                std::hint::black_box(scratch.shingle(d, 3));
            }
        }
    });
    // 1600 calls: even one allocation per call would be 160x the slop.
    assert!(
        shingle_allocs <= NOISE,
        "warmed ShingleScratch must be allocation-free (saw {shingle_allocs})"
    );

    // ---- minhash: zero allocations with a warmed signature buffer ------
    let hasher = MinHasher::new(128, 42);
    let shingle_vals: Vec<u64> = (0..500u64).map(|x| x.wrapping_mul(0x9E3779B97F4A7C15)).collect();
    let mut sig = Vec::new();
    hasher.sign_into(&shingle_vals, &mut sig); // warm
    let sign_allocs = allocs_during(|| {
        for _ in 0..50 {
            hasher.sign_into(&shingle_vals, &mut sig);
            std::hint::black_box(&sig);
        }
    });
    assert!(sign_allocs <= NOISE, "warmed sign_into must be allocation-free (saw {sign_allocs})");

    // ---- streaming build: bounded allocations per emitted row ----------
    // The cold path (shard-flushing simulator + streaming enricher) pays
    // inherent per-row costs — answer text, per-item piles — but the shard
    // buffer and the enricher's pile buffers are recycled, so the per-row
    // allocation rate is a small constant. Measured ~1.1 allocs/row on
    // this host; the pin leaves ~2.5x headroom so only a reintroduced
    // per-row or per-shard buffer trips it.
    use crowd_analytics::study::StreamingEnricher;
    use crowd_sim::{prepare_streamed, SimConfig};

    let cfg = SimConfig::new(5, 0.002);
    let stream = prepare_streamed(&cfg);
    let mut enricher = StreamingEnricher::new(stream.entities());
    let shard_rows = crowd_core::ScanPass::CHUNK;
    let build_allocs = allocs_during(|| {
        let entities = stream.run(&cfg, shard_rows, &mut enricher).expect("infallible sink");
        std::hint::black_box(&entities);
    });
    let rows = enricher.rows() as u64;
    assert!(rows > 2 * shard_rows as u64, "need multiple shards to exercise buffer reuse");
    assert!(
        build_allocs <= 3 * rows,
        "streaming build allocated {build_allocs} times for {rows} rows \
         (> 3/row budget)"
    );

    // ---- event wire codec: borrowed fields, one serialization per event
    // Decoding the tiny(2017) feed splits every record into fields
    // borrowed from the input and serializes each event once into a
    // reused buffer, so what remains is the owned `Text` answers (~0.26
    // per event) plus geometric growth of the event and key vectors.
    use crowd_ingest::{load_events, EventOptions};
    let feed = crowd_serve::EventFeed::from_config(&SimConfig::tiny(2017));
    let wire = feed.to_csv();
    let opts = EventOptions::default();
    let mut decoded = None;
    let decode_allocs = allocs_during(|| {
        decoded =
            Some(load_events(&mut wire.as_bytes(), &feed.entities, &opts).expect("clean feed"));
    });
    let log = decoded.expect("decoded above");
    let events = log.events.len() as u64;
    eprintln!("load_events: {decode_allocs} allocations for {events} events");
    assert!(
        decode_allocs * DECODE_ALLOCS_PER_EVENT_DEN <= events,
        "load_events allocated {decode_allocs} times for {events} events \
         (> 1/{DECODE_ALLOCS_PER_EVENT_DEN} per event budget)"
    );

    // Serializing a WAL-sized batch into a reserved buffer writes every
    // field in place: no per-field or per-event allocation.
    let batch = &log.events[..crowd_core::ScanPass::CHUNK];
    let mut out = String::new();
    for ev in batch {
        ev.serialize(&mut out);
    }
    let mut reserved = String::with_capacity(out.len());
    let serialize_allocs = allocs_during(|| {
        for ev in batch {
            ev.serialize(&mut reserved);
        }
    });
    assert_eq!(reserved, out);
    eprintln!("serialize: {serialize_allocs} allocations for {} events", batch.len());
    assert!(
        serialize_allocs <= NOISE,
        "serializing {} events into a reserved buffer allocated {serialize_allocs} times",
        batch.len()
    );

    // ---- fused scan: no per-chunk tree churn ---------------------------
    // The compact fused state grows dense vectors geometrically and each
    // chunk partial owns a handful of flat buffers, so a whole scan costs
    // a small fraction of an allocation per row. Per-chunk B-tree nodes
    // (one per ~11 keys per family, rebuilt for every 8192-row chunk)
    // break the pin.
    let study = crowd_analytics::Study::new(crowd_sim::simulate(&cfg));
    let scan_allocs = allocs_during(|| {
        std::hint::black_box(crowd_analytics::fused::compute(&study));
    });
    let rows = study.n_instances() as u64;
    assert!(rows > 4 * shard_rows as u64, "need several chunks to exercise the merge");
    eprintln!("fused scan: {scan_allocs} allocations for {rows} rows");
    assert!(
        scan_allocs * FUSED_ALLOCS_PER_ROW_DEN <= rows,
        "fused scan allocated {scan_allocs} times for {rows} rows \
         (> 1/{FUSED_ALLOCS_PER_ROW_DEN} per row budget)"
    );
}
