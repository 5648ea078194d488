//! Wire-codec differential: the borrowed-field splitter, the in-place
//! record writers and the serialize-once event loader against the frozen
//! naive codec in `crowd_testkit::wire`, on hostile streams.
//!
//! Every case must agree exactly: split fields, line numbers and error
//! messages; serialized bytes of every event; and, for whole streams, the
//! recovered events, every `TableReport` field, the quarantine detail
//! (line, fault class, message) and any typed error.
//!
//! The hostile streams start from a clean feed and then, per case, mix
//! in: quoted `Text` answers with commas, doubled quotes and embedded
//! newlines; CRLF endings and stray `\r` inside unquoted fields;
//! non-canonical numbers and trust spellings; byte-identical replays,
//! shuffled order and blank lines; wrong arity and dangling ids; missing,
//! duplicated, mid-stream and mismatched trailers; quoting errors; and
//! invalid UTF-8.

use std::sync::OnceLock;

use crowd_core::answer::Answer;
use crowd_core::csv::{self, parse_records, parse_records_lossy, Field};
use crowd_core::dataset::{Dataset, InstanceRef};
use crowd_core::fixture::Fixture;
use crowd_core::prelude::*;
use crowd_core::provenance::ErrorBudget;
use crowd_ingest::events::{
    event_log_to_csv, load_events, EventLog, EventOptions, EventStreamError,
};
use crowd_ingest::{events_from_dataset, MarketEvent};
use crowd_testkit::wire::{
    naive_instance_record, naive_load_events, naive_records, naive_records_lossy, naive_serialize,
};
use proptest::prelude::*;
use proptest::TestRng;

type LoadResult = std::result::Result<EventLog, EventStreamError>;

/// Entity tables plus a feed whose answers exercise every quoting path.
fn fixture() -> &'static (Dataset, Vec<MarketEvent>) {
    static FIX: OnceLock<(Dataset, Vec<MarketEvent>)> = OnceLock::new();
    FIX.get_or_init(|| {
        let mut f = Fixture::new();
        let ws = f.add_workers(4);
        let b0 = f.add_batch(Duration::ZERO);
        let b1 = f.add_batch(Duration::from_days(1));
        let b2 = f.add_unsampled_batch(Duration::from_days(3));
        let texts =
            ["plain", "a, b", "say \"hi\"", "two\nlines", "\"\"", "cr\r\nlf", "é, 中 🦀", ""];
        for (i, &b) in [b0, b1, b2].iter().enumerate() {
            for item in 0..6u32 {
                let k = i * 6 + item as usize;
                f.instance_full(
                    b,
                    item,
                    ws[k % ws.len()],
                    600 + 50 * (k as i64 % 5),
                    30 + k as i64,
                    [0.5, 0.875, 1.0, 0.0, 0.3][k % 5],
                    match k % 3 {
                        0 => Answer::Choice((k % 4) as u16),
                        1 => Answer::Text(texts[k % texts.len()].to_string()),
                        _ => Answer::Skipped,
                    },
                );
            }
        }
        let ds = f.finish();
        let events = events_from_dataset(&ds);
        (ds, events)
    })
}

fn pick<'a>(rng: &mut TestRng, options: &[&'a str]) -> &'a str {
    options[rng.below(options.len() as u64) as usize]
}

/// Splits one serialized record (without its newline) at top-level
/// commas, keeping quoted fields intact.
fn top_level_fields(record: &str) -> Vec<String> {
    let mut out = vec![String::new()];
    let mut quoted = false;
    for ch in record.chars() {
        match ch {
            '"' => {
                quoted = !quoted;
                out.last_mut().unwrap().push(ch);
            }
            ',' if !quoted => out.push(String::new()),
            _ => out.last_mut().unwrap().push(ch),
        }
    }
    out
}

/// Rewrites one record's fields into a hostile but often still valid
/// spelling, or breaks it on purpose.
fn mangle(rng: &mut TestRng, record: &str) -> String {
    let mut f = top_level_fields(record);
    match rng.below(14) {
        // Non-canonical numbers: leading zeros, explicit plus sign.
        0 => {
            let at = 1 + rng.below(f.len() as u64 - 1) as usize;
            if f[at].bytes().all(|b| b.is_ascii_digit()) && !f[at].is_empty() {
                f[at] = format!("{}{}", pick(rng, &["00", "+", "0", "+0"]), f[at]);
            }
        }
        // Trust spellings (completed events carry the trust at index 7).
        1 if f[0] == "C" && f.len() == 9 => {
            f[7] = pick(
                rng,
                &["0.50", "5e-1", "-0", "1.0000001", "0.875000", ".5", "1", "1e0", "NaN"],
            )
            .to_string();
        }
        // A stray CR inside an unquoted field.
        2 => {
            let at = rng.below(f.len() as u64) as usize;
            if !f[at].starts_with('"') {
                let cut = rng.below(f[at].len() as u64 + 1) as usize;
                if f[at].is_char_boundary(cut) {
                    f[at].insert(cut, '\r');
                }
            }
        }
        // Wrong arity.
        3 => {
            if rng.below(2) == 0 {
                f.pop();
            } else {
                f.push("7".into());
            }
        }
        // Dangling batch or worker id.
        4 if f.len() > 3 => {
            let at = if f[0] == "C" { [2, 4][rng.below(2) as usize] } else { 2 };
            f[at] = pick(rng, &["99", "4294967295", "18446744073709551615", "-1"]).to_string();
        }
        // Quoting errors: stray quote, data after a closing quote,
        // an unterminated quote, a needlessly quoted field.
        5 => {
            let at = rng.below(f.len() as u64) as usize;
            f[at] = match rng.below(4) {
                0 => format!("{}\"x", f[at]),
                1 => format!("\"{}\"x", f[at].trim_matches('"')),
                2 => format!("\"{}", f[at]),
                _ => format!("\"{}\"", f[at].replace('"', "\"\"")),
            };
        }
        // Semantic: ends before it starts.
        6 if f[0] == "C" && f.len() == 9 => f[6] = "1".into(),
        // Unknown kind.
        7 => f[0] = pick(rng, &["X", "p", "", "PP"]).to_string(),
        _ => {}
    }
    f.join(",")
}

/// A hostile rendering of the fixture feed, seeded.
fn hostile_stream(seed: u64) -> Vec<u8> {
    let (_, events) = fixture();
    let mut rng = TestRng::new(seed, 0);
    let clean = event_log_to_csv(events);
    let trailer = clean.trim_end().rsplit_once('\n').unwrap().1.to_string();
    // One record per event (quoted answers may span lines).
    let mut lines: Vec<String> = Vec::new();
    for ev in events {
        let mut s = String::new();
        naive_serialize(ev, &mut s);
        s.pop();
        lines.push(s);
    }
    // Shuffle: a few random swaps (or a full reversal).
    match rng.below(3) {
        0 => lines.reverse(),
        1 => {
            for _ in 0..rng.below(8) {
                let a = rng.below(lines.len() as u64) as usize;
                let b = rng.below(lines.len() as u64) as usize;
                lines.swap(a, b);
            }
        }
        _ => {}
    }
    // Byte-identical replays.
    for _ in 0..rng.below(4) {
        let a = rng.below(lines.len() as u64) as usize;
        let at = rng.below(lines.len() as u64 + 1) as usize;
        let dup = lines[a].clone();
        lines.insert(at, dup);
    }
    // Conflicting replays: a completed record again under the same seq
    // with a different trust, so `(at, kind, seq)` ties and only the
    // canonical bytes order the pair.
    for _ in 0..rng.below(3) {
        let a = rng.below(lines.len() as u64) as usize;
        let mut f = top_level_fields(&lines[a]);
        if f[0] == "C" && f.len() == 9 {
            f[7] = pick(&mut rng, &["0.25", "0.75", "0.125"]).to_string();
            let at = rng.below(lines.len() as u64 + 1) as usize;
            lines.insert(at, f.join(","));
        }
    }
    // Per-record mangling at a seeded rate.
    let rate = rng.below(4);
    for l in &mut lines {
        if rng.below(16) < rate {
            *l = mangle(&mut rng, l);
        }
    }
    // Blank lines.
    for _ in 0..rng.below(3) {
        let at = rng.below(lines.len() as u64 + 1) as usize;
        lines.insert(at, String::new());
    }
    // Trailers: kept, missing, duplicated, mid-stream, mismatched.
    match rng.below(6) {
        0 => {}
        1 => {
            let at = rng.below(lines.len() as u64) as usize;
            lines.insert(at, trailer.clone());
        }
        2 => {
            lines.push(trailer.clone());
            lines.push(trailer.clone());
        }
        3 => lines.push(trailer.replacen("T,", "T,1", 1)),
        4 => {
            let mut t = trailer.clone();
            let last = t.pop().unwrap();
            t.push(if last == '0' { '1' } else { '0' });
            lines.push(t);
        }
        _ => lines.push(trailer.clone()),
    }
    let crlf = rng.below(3) == 0;
    let mut text = String::from("kind,seq,payload\n");
    for l in &lines {
        text.push_str(l);
        text.push_str(if crlf && rng.below(2) == 0 { "\r\n" } else { "\n" });
    }
    if rng.below(4) == 0 {
        text.pop(); // no final newline
    }
    let mut bytes = text.into_bytes();
    // Invalid UTF-8.
    if rng.below(5) == 0 {
        let at = rng.below(bytes.len() as u64) as usize;
        bytes.insert(at, [0xff, 0xc3, 0x80][rng.below(3) as usize]);
    }
    bytes
}

fn serialized(events: &[MarketEvent]) -> Vec<String> {
    events
        .iter()
        .map(|e| {
            let mut s = String::new();
            e.serialize(&mut s);
            s
        })
        .collect()
}

fn assert_same_load(got: &LoadResult, want: &LoadResult, input: &[u8]) {
    let ctx = || String::from_utf8_lossy(input).into_owned();
    match (got, want) {
        (Ok(g), Ok(w)) => {
            assert_eq!(g.events, w.events, "events differ on\n{}", ctx());
            let naive: Vec<String> = w
                .events
                .iter()
                .map(|e| {
                    let mut s = String::new();
                    naive_serialize(e, &mut s);
                    s
                })
                .collect();
            assert_eq!(serialized(&g.events), naive, "serialized bytes differ on\n{}", ctx());
            assert_eq!(g.report, w.report, "report differs on\n{}", ctx());
            let detail = |log: &EventLog| {
                log.quarantine
                    .iter()
                    .map(|q| (q.line, q.fault, q.message.clone()))
                    .collect::<Vec<_>>()
            };
            assert_eq!(detail(g), detail(w), "quarantine differs on\n{}", ctx());
        }
        (Err(g), Err(w)) => {
            assert_eq!(format!("{g:?}"), format!("{w:?}"), "errors differ on\n{}", ctx())
        }
        (g, w) => panic!(
            "outcomes differ on\n{}\ncodec: {:?}\noracle: {:?}",
            ctx(),
            g.as_ref().map(|l| &l.report),
            w.as_ref().map(|l| &l.report)
        ),
    }
}

fn load_both(bytes: &[u8], budget: ErrorBudget) {
    let (ds, _) = fixture();
    let opts = EventOptions { budget, ..EventOptions::default() };
    let got = load_events(&mut &bytes[..], ds, &opts);
    let want = naive_load_events(bytes, ds, budget);
    assert_same_load(&got, &want, bytes);
}

/// A random document from CSV-significant pieces.
fn hostile_text(rng: &mut TestRng) -> String {
    const PIECES: &[&str] =
        &["a", "7", ",", "\"", "\"\"", "\n", "\r", "\r\n", "é", "🦀", " ", "x,y", "\"q\"", ""];
    let len = rng.below(24) as usize;
    (0..len).map(|_| PIECES[rng.below(PIECES.len() as u64) as usize]).collect()
}

type Split = Vec<std::result::Result<(usize, Vec<String>), String>>;

fn split_new(text: &str, lossy: bool) -> Split {
    let owned = |r: crowd_core::Result<(usize, Vec<Field<'_>>)>| {
        r.map(|(line, f)| (line, f.into_iter().map(|c| c.into_owned()).collect()))
            .map_err(|e| e.to_string())
    };
    let mut out = Vec::new();
    if lossy {
        out.extend(parse_records_lossy(text).map(owned));
    } else {
        for r in parse_records(text) {
            let stop = r.is_err();
            out.push(owned(r));
            if stop {
                break;
            }
        }
    }
    out
}

fn split_naive(text: &str, lossy: bool) -> Split {
    let mut out = Vec::new();
    let records = if lossy { naive_records_lossy(text) } else { naive_records(text) };
    for r in records {
        let stop = r.is_err() && !lossy;
        out.push(r.map_err(|e| e.to_string()));
        if stop {
            break;
        }
    }
    out
}

fn random_answer(rng: &mut TestRng) -> Answer {
    match rng.below(3) {
        0 => Answer::Choice(rng.below(u64::from(u16::MAX) + 1) as u16),
        1 => Answer::Text(hostile_text(rng)),
        _ => Answer::Skipped,
    }
}

fn random_i64(rng: &mut TestRng) -> i64 {
    match rng.below(4) {
        0 => [i64::MIN, i64::MAX, 0, -1][rng.below(4) as usize],
        1 => rng.next_u64() as i64,
        _ => rng.below(2_000_000_000) as i64 - 1_000_000_000,
    }
}

proptest! {
    #[test]
    fn splitter_matches_the_oracle_on_hostile_text(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::new(seed, 1);
        let text = hostile_text(&mut rng);
        for lossy in [false, true] {
            prop_assert_eq!(split_new(&text, lossy), split_naive(&text, lossy), "{:?}", text);
        }
    }

    #[test]
    fn writers_match_the_oracle_byte_for_byte(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::new(seed, 2);
        let answer = random_answer(&mut rng);
        let trust = match rng.below(3) {
            0 => f32::from_bits(rng.next_u64() as u32),
            1 => rng.below(1_000_001) as f32 / 1e6,
            _ => [0.0, -0.0, 1.0, 0.5, f32::MIN_POSITIVE, 1e-40][rng.below(6) as usize],
        };
        let row = InstanceRef {
            batch: BatchId::new(rng.next_u64() as u32),
            item: ItemId::new([0, u32::MAX, rng.next_u64() as u32][rng.below(3) as usize]),
            worker: WorkerId::new(rng.below(1000) as u32),
            start: Timestamp::from_secs(random_i64(&mut rng)),
            end: Timestamp::from_secs(random_i64(&mut rng)),
            trust,
            answer: &answer,
        };
        let (mut got, mut want) = (String::new(), String::new());
        csv::instance_record(row, &mut got);
        naive_instance_record(row, &mut want);
        prop_assert_eq!(&got, &want);

        let seq = [0, u64::MAX, rng.next_u64()][rng.below(3) as usize];
        for ev in [
            MarketEvent::Posted { seq, batch: row.batch },
            MarketEvent::PickedUp { seq, batch: row.batch, worker: row.worker, at: row.start },
            MarketEvent::Completed { seq, row: row.to_owned() },
        ] {
            let (mut got, mut want) = (String::new(), String::new());
            ev.serialize(&mut got);
            naive_serialize(&ev, &mut want);
            prop_assert_eq!(&got, &want);
        }
    }

    #[test]
    fn loader_matches_the_oracle_on_hostile_streams(seed in 0u64..u64::MAX) {
        let bytes = hostile_stream(seed);
        load_both(&bytes, ErrorBudget::default());
        // A tight budget exercises the budget-exceeded error path.
        load_both(&bytes, ErrorBudget { max_quarantined_per_table: 1 });
    }
}

#[test]
fn clean_feed_loads_identically_and_verifies() {
    let (_, events) = fixture();
    let bytes = event_log_to_csv(events).into_bytes();
    load_both(&bytes, ErrorBudget::default());
    let (ds, _) = fixture();
    let log = load_events(&mut &bytes[..], ds, &EventOptions::default()).unwrap();
    assert_eq!(log.report.verified, Some(true));
    assert_eq!(log.events.len(), events.len());
}

#[test]
fn header_and_empty_stream_errors_match() {
    for text in
        ["", "\n", "kind,seq\n", "\"kind,seq\",payload\n", "kind,\"seq\",payload\n", "\"x\n"]
    {
        load_both(text.as_bytes(), ErrorBudget::default());
    }
}

/// The generator is not vacuous: across seeds the hostile streams reach
/// every loader outcome the differential is meant to cover.
#[test]
fn hostile_streams_reach_every_outcome() {
    let (ds, _) = fixture();
    let (mut verified, mut quarantined, mut deduped, mut repaired) = (0, 0, 0, 0);
    let (mut digest_mismatch, mut over_budget, mut owned_text) = (0, 0, 0);
    for seed in 0..256 {
        let bytes = hostile_stream(seed);
        let tight = ErrorBudget { max_quarantined_per_table: 1 };
        let opts = EventOptions { budget: tight, ..EventOptions::default() };
        if let Err(EventStreamError::Failed { .. }) = load_events(&mut &bytes[..], ds, &opts) {
            over_budget += 1;
        }
        match load_events(&mut &bytes[..], ds, &EventOptions::default()) {
            Ok(log) => {
                verified += usize::from(log.report.verified == Some(true));
                quarantined += usize::from(log.report.quarantined > 0);
                deduped += usize::from(log.report.deduped > 0);
                repaired += usize::from(log.report.repaired > 0);
                owned_text += usize::from(log.events.iter().any(|e| {
                    matches!(e, MarketEvent::Completed { row, .. }
                        if matches!(&row.answer, Answer::Text(t) if t.contains('"')))
                }));
            }
            Err(EventStreamError::DigestMismatch { .. }) => digest_mismatch += 1,
            Err(_) => {}
        }
    }
    for (what, n) in [
        ("verified", verified),
        ("quarantined", quarantined),
        ("deduped", deduped),
        ("repaired", repaired),
        ("digest mismatch", digest_mismatch),
        ("over budget", over_budget),
        ("doubled-quote text", owned_text),
    ] {
        assert!(n > 0, "no hostile stream reached `{what}`");
    }
}
