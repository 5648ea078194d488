//! WAL fuzzing: an arbitrary single-byte mutation or truncation of a
//! valid write-ahead log must recover the longest valid prefix or return
//! a typed `WalFault` — never a panic, never a corrupt record replayed
//! (mirrors `ingest_fuzz.rs` for the on-disk event-log format).
//!
//! The checksum discipline makes the oracle sharp: every content byte of
//! a segment is covered by either the header checksum or a record
//! checksum, so *any* effective mutation must surface as a fault, and
//! the replayed events must always be an exact prefix of the clean log.
//!
//! The checksums also shield the payload decoder from those mutations,
//! so a third property re-stamps the record checksum after changing the
//! payload: the damage then reaches the wire splitter and the event
//! grammar, which must either refuse it as a typed `Decode` fault or
//! yield events that survive a serialize → WAL → replay round trip
//! unchanged.

use std::path::PathBuf;
use std::sync::OnceLock;

use crowd_core::dataset::Dataset;
use crowd_core::fixture::Fixture;
use crowd_core::prelude::*;
use crowd_ingest::events_from_dataset;
use crowd_ingest::wal::{
    replay, segment_files, truncate_torn, WalCorruptKind, WalFault, WalOptions, WalWriter,
};
use proptest::prelude::*;

const STREAM: u64 = 0x57a1;

/// One canonical line per clean event, for prefix comparison.
fn canon(events: &[crowd_ingest::MarketEvent]) -> Vec<String> {
    events
        .iter()
        .map(|e| {
            let mut s = String::new();
            e.serialize(&mut s);
            s
        })
        .collect()
}

/// The pristine segment files of the fixture WAL: `(file name, bytes)`.
type SegmentFiles = Vec<(String, Vec<u8>)>;

/// The clean fixture: entity tables, the canonical event list, and the
/// pristine segment files of a WAL holding every event across several
/// rotated segments.
fn fixture() -> &'static (Dataset, Vec<String>, SegmentFiles) {
    static FIX: OnceLock<(Dataset, Vec<String>, SegmentFiles)> = OnceLock::new();
    FIX.get_or_init(|| {
        let mut f = Fixture::new();
        let ws = f.add_workers(4);
        let b0 = f.add_batch(Duration::ZERO);
        let b1 = f.add_batch(Duration::from_days(2));
        let b2 = f.add_batch(Duration::from_days(5));
        for (i, &b) in [b0, b1, b2].iter().enumerate() {
            for item in 0..5u32 {
                f.instance(
                    b,
                    item,
                    ws[(item as usize + i) % ws.len()],
                    900 + 45 * i64::from(item),
                    40,
                );
            }
        }
        let ds = f.finish();
        let events = events_from_dataset(&ds);
        let dir = std::env::temp_dir().join(format!("crowd_wal_fuzz_base_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // Small segments force several rotations; batches of 4 leave
        // record boundaries at many offsets.
        let mut w =
            WalWriter::open(&dir, STREAM, WalOptions { fsync_every: 1, segment_bytes: 384 }, 0)
                .expect("open wal");
        for chunk in events.chunks(4) {
            w.append(chunk).expect("append");
        }
        w.sync().expect("sync");
        let files = segment_files(&dir, STREAM)
            .expect("list")
            .into_iter()
            .map(|(_, p)| {
                let name = p.file_name().unwrap().to_string_lossy().into_owned();
                let bytes = std::fs::read(&p).unwrap();
                (name, bytes)
            })
            .collect::<Vec<_>>();
        assert!(files.len() >= 3, "fixture must span several segments");
        let _ = std::fs::remove_dir_all(&dir);
        (ds, canon(&events), files)
    })
}

/// Writes the pristine segments into a fresh case directory, applying
/// `mutate` to the chosen file's bytes. Returns the directory and
/// whether the bytes actually changed.
fn write_case(
    tag: &str,
    target: usize,
    mut mutate: impl FnMut(&mut Vec<u8>) -> bool,
) -> (PathBuf, bool) {
    let (_, _, files) = fixture();
    let dir = std::env::temp_dir().join(format!("crowd_wal_fuzz_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let target = target % files.len();
    let mut changed = false;
    for (i, (name, bytes)) in files.iter().enumerate() {
        let mut out = bytes.clone();
        if i == target {
            changed = mutate(&mut out);
        }
        std::fs::write(dir.join(name), out).unwrap();
    }
    (dir, changed)
}

/// Segment header and record header sizes of the documented format.
const SEG_HEADER: usize = 32;
const REC_HEADER: usize = 24;

/// The documented record checksum: FNV-1a over the little-endian
/// `len | n_events | seq_base` fields, continued over the payload.
fn record_checksum(header: &[u8], payload: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in header[..16].iter().chain(payload) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// `(record offset, payload length)` of every record in a segment.
fn record_spans(bytes: &[u8]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut off = SEG_HEADER;
    while off + REC_HEADER <= bytes.len() {
        let len = u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap()) as usize;
        spans.push((off, len));
        off += REC_HEADER + len;
    }
    spans
}

/// Bytes a payload mutation draws from: the CSV-significant ones, digits,
/// letters of the event grammar, and invalid UTF-8.
const PAYLOAD_BYTES: &[u8] = b",\"\n\r0179-+.eCPUTSx \xff\xc3";

proptest! {
    #[test]
    fn payload_mutations_behind_a_restamped_checksum_decode_or_refuse(
        file_idx in 0usize..8,
        record_idx in 0usize..64,
        offset in 0usize..1 << 16,
        pick in 0usize..64,
        second in 0usize..4,
    ) {
        let (ds, clean, files) = fixture();
        let target = file_idx % files.len();
        // Events held by the segments before the target one, and by the
        // records before the mutated one: those must replay untouched.
        let mut before = 0usize;
        let (dir, changed) = write_case("restamp", target, |bytes| {
            let spans = record_spans(bytes);
            let (off, len) = spans[record_idx % spans.len()];
            for &(o, _) in spans.iter().take_while(|&&(o, _)| o < off) {
                before += u32::from_le_bytes(bytes[o + 4..o + 8].try_into().unwrap()) as usize;
            }
            let payload = off + REC_HEADER;
            let old = bytes[payload..payload + len].to_vec();
            for k in 0..=second.min(1) {
                let at = payload + (offset + 7 * k) % len;
                bytes[at] = PAYLOAD_BYTES[(pick + k) % PAYLOAD_BYTES.len()];
            }
            let sum = record_checksum(&bytes[off..off + 16], &bytes[payload..payload + len]);
            bytes[off + 16..off + 24].copy_from_slice(&sum.to_le_bytes());
            bytes[payload..payload + len] != old[..]
        });
        for (_, seg) in &files[..target] {
            before += record_spans(seg)
                .iter()
                .map(|&(o, _)| u32::from_le_bytes(seg[o + 4..o + 8].try_into().unwrap()) as usize)
                .sum::<usize>();
        }

        // Reaching any assertion at all means no panic and no hang.
        let got = replay(&dir, STREAM, 0, ds).expect("replay IO must succeed");
        let lines = canon(&got.events);
        prop_assert!(lines.len() >= before, "records before the damage must replay");
        prop_assert_eq!(&lines[..before], &clean[..before], "untouched prefix");
        match &got.fault {
            // The checksum was re-stamped, so the only thing left to fail
            // is decoding the payload.
            Some(fault) => prop_assert!(
                matches!(fault, WalFault::Corrupt { kind: WalCorruptKind::Decode, .. }),
                "a re-stamped record can only fail to decode, got {}", fault
            ),
            None if !changed => prop_assert_eq!(&lines, clean),
            None => {}
        }

        // Whatever decoded survives serialize → WAL → replay unchanged.
        let again = std::env::temp_dir()
            .join(format!("crowd_wal_fuzz_roundtrip_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&again);
        let mut w = WalWriter::open(&again, STREAM, WalOptions::default(), 0).expect("open");
        for chunk in got.events.chunks(4) {
            w.append(chunk).expect("decoded events must serialize within the bound");
        }
        w.sync().expect("sync");
        let back = replay(&again, STREAM, 0, ds).expect("replay round trip");
        prop_assert!(back.fault.is_none(), "round trip must replay clean: {:?}", back.fault);
        prop_assert_eq!(&back.events, &got.events, "events must survive the round trip");
        prop_assert_eq!(canon(&back.events), lines, "byte for byte");
        let _ = std::fs::remove_dir_all(&again);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn single_byte_mutations_recover_a_prefix_or_a_typed_fault(
        file_idx in 0usize..8,
        offset in 0usize..1 << 16,
        byte in 0u32..256,
    ) {
        let (ds, clean, _) = fixture();
        let (dir, changed) = write_case("flip", file_idx, |bytes| {
            let at = offset % bytes.len().max(1);
            let old = bytes[at];
            bytes[at] = byte as u8;
            old != byte as u8
        });

        // Reaching any assertion at all means no panic and no hang.
        let got = replay(&dir, STREAM, 0, ds).expect("replay IO must succeed");
        let lines = canon(&got.events);
        prop_assert_eq!(
            &lines[..],
            &clean[..lines.len()],
            "replayed events must be an exact prefix of the clean log"
        );
        if changed {
            // Every content byte is checksummed, so an effective mutation
            // can never replay silently clean and complete.
            prop_assert!(
                got.fault.is_some(),
                "a changed byte must surface as a typed fault, got clean replay of {} events",
                lines.len()
            );
        } else {
            prop_assert!(got.fault.is_none(), "identity mutation must replay clean");
            prop_assert_eq!(lines.len(), clean.len());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncations_recover_the_longest_valid_prefix(
        file_idx in 0usize..8,
        keep in 0usize..1 << 16,
    ) {
        let (ds, clean, files) = fixture();
        let target = file_idx % files.len();
        let is_final = target == files.len() - 1;
        let (dir, changed) = write_case("cut", target, |bytes| {
            let keep = keep % (bytes.len() + 1);
            let cut = keep < bytes.len();
            bytes.truncate(keep);
            cut
        });

        let got = replay(&dir, STREAM, 0, ds).expect("replay IO must succeed");
        let lines = canon(&got.events);
        prop_assert_eq!(&lines[..], &clean[..lines.len()], "prefix property");
        if !changed {
            prop_assert!(got.fault.is_none());
            prop_assert_eq!(lines.len(), clean.len());
        } else if is_final {
            // A shortened final segment is exactly what a crash leaves:
            // the fault is a truncatable torn tail (or, if the cut landed
            // on a record boundary, a clean-but-shorter log).
            match got.fault {
                None => prop_assert!(lines.len() <= clean.len()),
                Some(ref fault) => {
                    prop_assert!(
                        fault.is_torn_tail(),
                        "final-segment truncation must classify as torn, got {}", fault
                    );
                    // Truncating the tear and replaying again is clean and
                    // keeps the same prefix.
                    truncate_torn(fault).expect("truncate");
                    let again = replay(&dir, STREAM, 0, ds).expect("replay after truncate");
                    prop_assert!(again.fault.is_none(), "truncated log must replay clean");
                    prop_assert_eq!(canon(&again.events), lines);
                }
            }
        } else {
            // A hole before later segments is damage no crash produces:
            // replay must refuse with a non-torn fault and never serve
            // anything past the damaged segment.
            let fault = got.fault.as_ref().expect("mid-log truncation must fault");
            prop_assert!(
                !fault.is_torn_tail() || matches!(fault, WalFault::SeqGap { .. }),
                "non-final truncation must not classify as a truncatable tail, got {}", fault
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
