//! Ingest fuzzing: an arbitrary single-byte mutation of a valid exported
//! dataset directory — any table file or the manifest, any offset, any
//! replacement byte — must come back as `Ok` (possibly quarantining) or
//! as a typed `CoreError`. Never a panic, never a hang.
//!
//! With manifest verification on, the oracle is stronger still: any
//! mutation the loader *accepts* must have been content-neutral, because
//! every accepted table re-verifies against the exporter's row counts
//! and content digests.
//!
//! The event-stream loader gets the same treatment behind its digest
//! trailer: one record is mutated and the trailer re-stamped as a
//! producer that emitted the mutated record would have written it, so
//! the damage reaches the splitter and the event grammar instead of
//! stopping at the digest. Every outcome must be a typed error or
//! quarantine, or events that survive a serialize → load round trip
//! unchanged.

use std::path::PathBuf;
use std::sync::{Arc, OnceLock};

use crowd_core::csv::{export_dir, record_hash, Table, MANIFEST_FILE};
use crowd_core::dataset::Dataset;
use crowd_core::fixture::Fixture;
use crowd_core::prelude::*;
use crowd_ingest::events::{event_log_to_csv, load_events, EventOptions, EVENTS_HEADER};
use crowd_ingest::{events_from_dataset, ingest_dir, load_events_str, IngestOptions, ManualClock};
use proptest::prelude::*;

/// A small but table-complete dataset: several workers, a quoted
/// multi-line task title, sampled and unsampled batches, and all three
/// answer shapes — so mutations can land in every syntactic feature of
/// the format.
fn fixture_files() -> &'static Vec<(String, Vec<u8>)> {
    static FILES: OnceLock<Vec<(String, Vec<u8>)>> = OnceLock::new();
    FILES.get_or_init(|| {
        let mut f = Fixture::new();
        let ws = f.add_workers(4);
        let tt = f.add_task_type("judge, \"quoted\"\nand multi-line", 3);
        let b0 = f.add_batch_of(tt, Duration::ZERO, "<p>compare the results</p>");
        let b1 = f.add_batch(Duration::from_days(3));
        let b2 = f.add_unsampled_batch(Duration::from_days(9));
        for (i, &b) in [b0, b1, b2].iter().enumerate() {
            for item in 0..6u32 {
                let w = ws[(item as usize + i) % ws.len()];
                f.instance_full(
                    b,
                    item,
                    w,
                    3600 + 60 * i64::from(item),
                    30 + i64::from(item),
                    0.85,
                    match item % 3 {
                        0 => Answer::Choice(item as u16 % 3),
                        1 => Answer::Text(format!("free text, \"{item}\"\nline two")),
                        _ => Answer::Skipped,
                    },
                );
            }
        }
        let dir =
            std::env::temp_dir().join(format!("crowd_ingest_fuzz_base_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        export_dir(&f.finish(), &dir).expect("export fixture");
        let mut files: Vec<(String, Vec<u8>)> = Table::ALL
            .iter()
            .map(|t| (t.file_name().to_string(), std::fs::read(dir.join(t.file_name())).unwrap()))
            .collect();
        files.push((MANIFEST_FILE.to_string(), std::fs::read(dir.join(MANIFEST_FILE)).unwrap()));
        let _ = std::fs::remove_dir_all(&dir);
        files
    })
}

/// Writes the fixture with one byte of one file replaced; returns the
/// case directory and whether the mutation actually changed anything.
fn write_mutated(tag: &str, file_idx: usize, offset: usize, byte: u8) -> (PathBuf, bool) {
    let files = fixture_files();
    let dir = std::env::temp_dir().join(format!("crowd_ingest_fuzz_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let target = file_idx % files.len();
    let mut changed = false;
    for (i, (name, bytes)) in files.iter().enumerate() {
        if i == target {
            let mut mutated = bytes.clone();
            let at = offset % mutated.len().max(1);
            changed = mutated[at] != byte;
            mutated[at] = byte;
            std::fs::write(dir.join(name), mutated).unwrap();
        } else {
            std::fs::write(dir.join(name), bytes).unwrap();
        }
    }
    (dir, changed)
}

fn opts(verify_manifest: bool) -> IngestOptions {
    IngestOptions {
        clock: Arc::new(ManualClock::new()),
        verify_manifest,
        ..IngestOptions::default()
    }
}

proptest! {
    #[test]
    fn single_byte_mutations_never_panic(
        file_idx in 0usize..7,
        offset in 0usize..1 << 20,
        byte in 0u32..256,
    ) {
        let (dir, changed) = write_mutated("verified", file_idx, offset, byte as u8);

        // Strict pass: the manifest is the ground truth, so an accepted
        // load must be provably equal to the clean export.
        match ingest_dir(&dir, &opts(true)) {
            Ok(got) => {
                prop_assert!(got.report.manifest_present);
                for t in Table::ALL {
                    let tr = got.report.table(t.name()).expect("per-table report");
                    prop_assert_eq!(
                        tr.verified, Some(true),
                        "accepted `{}` must verify against the manifest", t.name()
                    );
                }
                if !changed {
                    prop_assert!(got.report.is_clean(), "identity mutation must be clean");
                }
            }
            // A typed refusal is the other legal verdict; reaching here
            // at all means no panic and no hang.
            Err(failure) => {
                prop_assert!(changed, "unmutated input must ingest");
                prop_assert!(!failure.error.to_string().is_empty());
            }
        }

        // Lenient pass: without the manifest oracle the loader leans on
        // quarantine + budget instead; still no panic, and coverage stays
        // a sane fraction.
        match ingest_dir(&dir, &opts(false)) {
            Ok(got) => {
                let cov = got.report.coverage();
                prop_assert!((0.0..=1.0).contains(&cov), "coverage {cov} out of range");
            }
            Err(failure) => {
                prop_assert!(!failure.error.to_string().is_empty());
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// An event feed over quoted, multi-line and plain answers: the entity
/// tables and one serialized record per event.
fn event_fixture() -> &'static (Dataset, Vec<String>) {
    static FIX: OnceLock<(Dataset, Vec<String>)> = OnceLock::new();
    FIX.get_or_init(|| {
        let mut f = Fixture::new();
        let ws = f.add_workers(3);
        let b0 = f.add_batch(Duration::ZERO);
        let b1 = f.add_batch(Duration::from_days(2));
        for (i, &b) in [b0, b1].iter().enumerate() {
            for item in 0..5u32 {
                f.instance_full(
                    b,
                    item,
                    ws[(item as usize + i) % ws.len()],
                    900 + 45 * i64::from(item),
                    40,
                    0.75,
                    match item % 3 {
                        0 => Answer::Choice(item as u16),
                        1 => Answer::Text(format!("a, \"quoted\"\nanswer {item}")),
                        _ => Answer::Skipped,
                    },
                );
            }
        }
        let ds = f.finish();
        let records = events_from_dataset(&ds)
            .iter()
            .map(|e| {
                let mut s = String::new();
                e.serialize(&mut s);
                s
            })
            .collect();
        (ds, records)
    })
}

/// Bytes a record mutation draws from: the CSV-significant ones, digits,
/// letters of the event grammar, and invalid UTF-8.
const RECORD_BYTES: &[u8] = b",\"\n\r0179-+.eCPUTSx \xff\xc3";

proptest! {
    #[test]
    fn event_mutations_behind_a_restamped_trailer_load_or_refuse(
        record_idx in 0usize..64,
        offset in 0usize..1 << 16,
        pick in 0usize..64,
    ) {
        let (ds, records) = event_fixture();
        let k = record_idx % records.len();
        let mut mutated = records[k].clone().into_bytes();
        let at = offset % mutated.len();
        mutated[at] = RECORD_BYTES[pick % RECORD_BYTES.len()];
        let mutated = String::from_utf8_lossy(&mutated).into_owned();

        // The trailer a producer that emitted the mutated record writes.
        let mut wire = format!("{EVENTS_HEADER}\n");
        let mut digest = 0u64;
        for (i, r) in records.iter().enumerate() {
            let r = if i == k { &mutated } else { r };
            digest = digest.wrapping_add(record_hash(r));
            wire.push_str(r);
        }
        wire.push_str(&format!("T,{},{digest:016x}\n", records.len()));

        // Reaching any assertion at all means no panic and no hang.
        match load_events(&mut wire.as_bytes(), ds, &EventOptions::default()) {
            Ok(log) => {
                let again = event_log_to_csv(&log.events);
                let back = load_events_str(&again, ds).expect("accepted events must reload");
                prop_assert_eq!(&back.events, &log.events, "events must survive the round trip");
                prop_assert_eq!(event_log_to_csv(&back.events), again, "byte for byte");
                prop_assert_eq!(back.report.verified, Some(true));
                prop_assert_eq!(back.report.quarantined, 0);
            }
            Err(e) => prop_assert!(!e.to_string().is_empty()),
        }
    }
}
