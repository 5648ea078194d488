//! Frozen reference implementations of the event wire codec.
//!
//! These are the original character-at-a-time CSV splitter, the
//! `String`-per-field record writers, and the event-stream loader that
//! serialized every event again for each sort comparison and dedup
//! check, copied here *before* `crowd-core::csv` and
//! `crowd-ingest::events` were rewritten to split into borrowed fields
//! and serialize each event once (DESIGN.md §20). They are deliberately
//! naive. The rewritten codec must produce **identical** fields, line
//! numbers, error messages, serialized bytes, events, reports and
//! quarantine detail; `tests/wire_differential.rs` proves it over
//! hostile streams.
//!
//! Like [`crate::kernels`], this module calls none of the code under
//! test: field splitting, row parsing, serialization, ordering and dedup
//! are all local. Only plain data types (`MarketEvent`, `TableReport`,
//! `EventLog`, …) and `record_hash` (the digest definition itself) are
//! shared.

use std::cmp::Ordering;
use std::fmt::Write as _;

use crowd_core::answer::Answer;
use crowd_core::csv::record_hash;
use crowd_core::dataset::{Dataset, InstanceRef, TaskInstance};
use crowd_core::error::{CoreError, FaultClass};
use crowd_core::provenance::{ErrorBudget, QuarantinedRow, TableReport, QUARANTINE_DETAIL_CAP};
use crowd_core::{BatchId, ItemId, Timestamp, WorkerId};
use crowd_ingest::events::{EventLog, EventStreamError, EVENTS_HEADER, EVENTS_TABLE};
use crowd_ingest::MarketEvent;

// ---------------------------------------------------------------------------
// Splitter
// ---------------------------------------------------------------------------

/// The original splitter: one fresh `String` per field, filled a
/// character at a time. Yields `(line_number, fields)`; a record may span
/// several physical lines when a quoted field holds a newline.
pub struct NaiveRecords<'a> {
    rest: &'a str,
    line: usize,
    lossy: bool,
}

/// Strict splitting: the caller stops at the first error.
pub fn naive_records(text: &str) -> NaiveRecords<'_> {
    NaiveRecords { rest: text, line: 0, lossy: false }
}

/// Lossy splitting: a malformed record is reported once, then skipped
/// to the next physical line.
pub fn naive_records_lossy(text: &str) -> NaiveRecords<'_> {
    NaiveRecords { rest: text, line: 0, lossy: true }
}

impl NaiveRecords<'_> {
    fn split(&mut self) -> Option<Result<(usize, Vec<String>), CoreError>> {
        if self.rest.is_empty() {
            return None;
        }
        self.line += 1;
        let start_line = self.line;
        let mut fields = Vec::new();
        let mut cur = String::new();
        let mut chars = self.rest.char_indices();
        let mut in_quotes = false;
        let mut after_quote = false; // just closed a quote; expect , or EOL
        loop {
            match chars.next() {
                None => {
                    if in_quotes {
                        return Some(Err(CoreError::Csv {
                            line: start_line,
                            message: "unterminated quoted field".into(),
                        }));
                    }
                    self.rest = "";
                    fields.push(std::mem::take(&mut cur));
                    return Some(Ok((start_line, fields)));
                }
                Some((pos, ch)) => {
                    if in_quotes {
                        if ch == '"' {
                            // Peek: doubled quote = literal quote.
                            if self.rest[pos + 1..].starts_with('"') {
                                cur.push('"');
                                chars.next();
                            } else {
                                in_quotes = false;
                                after_quote = true;
                            }
                        } else {
                            if ch == '\n' {
                                self.line += 1;
                            }
                            cur.push(ch);
                        }
                        continue;
                    }
                    match ch {
                        '"' if cur.is_empty() && !after_quote => in_quotes = true,
                        '"' => {
                            return Some(Err(CoreError::Csv {
                                line: start_line,
                                message: "stray quote inside unquoted field".into(),
                            }))
                        }
                        ',' => {
                            fields.push(std::mem::take(&mut cur));
                            after_quote = false;
                        }
                        '\r' => {} // tolerate CRLF
                        '\n' => {
                            self.rest = &self.rest[pos + 1..];
                            fields.push(std::mem::take(&mut cur));
                            return Some(Ok((start_line, fields)));
                        }
                        _ if after_quote => {
                            return Some(Err(CoreError::Csv {
                                line: start_line,
                                message: "data after closing quote".into(),
                            }))
                        }
                        _ => cur.push(ch),
                    }
                }
            }
        }
    }
}

impl Iterator for NaiveRecords<'_> {
    type Item = Result<(usize, Vec<String>), CoreError>;

    fn next(&mut self) -> Option<Self::Item> {
        let item = self.split()?;
        if item.is_err() && self.lossy {
            match self.rest.find('\n') {
                Some(pos) => self.rest = &self.rest[pos + 1..],
                None => self.rest = "",
            }
        }
        Some(item)
    }
}

// ---------------------------------------------------------------------------
// Writers
// ---------------------------------------------------------------------------

/// The original field escaper: quotes when the field holds a comma,
/// quote, CR or LF, doubling quotes a character at a time.
pub fn naive_escape_field(field: &str, out: &mut String) {
    if field.contains([',', '"', '\n', '\r']) {
        out.push('"');
        for ch in field.chars() {
            if ch == '"' {
                out.push('"');
            }
            out.push(ch);
        }
        out.push('"');
    } else {
        out.push_str(field);
    }
}

fn naive_write_record(out: &mut String, fields: &[&str]) {
    for (i, f) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        naive_escape_field(f, out);
    }
    out.push('\n');
}

fn naive_answer_to_field(a: &Answer) -> String {
    match a {
        Answer::Choice(i) => format!("C:{i}"),
        Answer::Text(t) => format!("T:{t}"),
        Answer::Skipped => "S".to_owned(),
    }
}

/// The original `instances` record writer: one `String` per field.
pub fn naive_instance_record(i: InstanceRef<'_>, out: &mut String) {
    let mut trust_buf = String::new();
    let _ = write!(trust_buf, "{}", i.trust);
    naive_write_record(
        out,
        &[
            &i.batch.raw().to_string(),
            &i.item.raw().to_string(),
            &i.worker.raw().to_string(),
            &i.start.as_secs().to_string(),
            &i.end.as_secs().to_string(),
            &trust_buf,
            &naive_answer_to_field(i.answer),
        ],
    );
}

fn instance_ref(row: &TaskInstance) -> InstanceRef<'_> {
    InstanceRef {
        batch: row.batch,
        item: row.item,
        worker: row.worker,
        start: row.start,
        end: row.end,
        trust: row.trust,
        answer: &row.answer,
    }
}

/// The original `MarketEvent::serialize`: `format!`-style writes plus the
/// naive instance record.
pub fn naive_serialize(ev: &MarketEvent, out: &mut String) {
    match ev {
        MarketEvent::Posted { seq, batch } => {
            let _ = writeln!(out, "P,{seq},{}", batch.raw());
        }
        MarketEvent::PickedUp { seq, batch, worker, at } => {
            let _ = writeln!(out, "U,{seq},{},{},{}", batch.raw(), worker.raw(), at.as_secs());
        }
        MarketEvent::Completed { seq, row } => {
            let _ = write!(out, "C,{seq},");
            naive_instance_record(instance_ref(row), out);
        }
    }
}

fn naive_canon(ev: &MarketEvent) -> String {
    let mut s = String::new();
    naive_serialize(ev, &mut s);
    s
}

// ---------------------------------------------------------------------------
// Row parsing (the original event grammar)
// ---------------------------------------------------------------------------

fn naive_parse_num<T: std::str::FromStr>(s: &str, line: usize, what: &str) -> Result<T, CoreError> {
    s.parse().map_err(|_| CoreError::Csv { line, message: format!("bad {what} `{s}`") })
}

fn naive_answer_from_field(s: &str, line: usize) -> Result<Answer, CoreError> {
    if s == "S" {
        return Ok(Answer::Skipped);
    }
    if let Some(rest) = s.strip_prefix("C:") {
        return rest
            .parse()
            .map(Answer::Choice)
            .map_err(|_| CoreError::Csv { line, message: format!("bad choice `{rest}`") });
    }
    if let Some(rest) = s.strip_prefix("T:") {
        return Ok(Answer::Text(rest.to_owned()));
    }
    Err(CoreError::Csv { line, message: format!("bad answer `{s}`") })
}

fn naive_instance_row(f: &[String], line: usize) -> Result<TaskInstance, CoreError> {
    if f.len() != 7 {
        return Err(CoreError::Csv {
            line,
            message: format!("expected 7 fields, got {}", f.len()),
        });
    }
    Ok(TaskInstance {
        batch: BatchId::new(naive_parse_num(&f[0], line, "batch id")?),
        item: ItemId::new(naive_parse_num(&f[1], line, "item id")?),
        worker: WorkerId::new(naive_parse_num(&f[2], line, "worker id")?),
        start: Timestamp::from_secs(naive_parse_num(&f[3], line, "start")?),
        end: Timestamp::from_secs(naive_parse_num(&f[4], line, "end")?),
        trust: naive_parse_num(&f[5], line, "trust")?,
        answer: naive_answer_from_field(&f[6], line)?,
    })
}

struct Trailer {
    n: u64,
    digest: u64,
}

enum Parsed {
    Event(MarketEvent),
    Trailer(Trailer),
}

type Reject = (FaultClass, String);

fn naive_parse_event(f: &[String], line: usize, entities: &Dataset) -> Result<Parsed, Reject> {
    if f.len() == 1 && f[0].is_empty() {
        return Err((FaultClass::Malformed, "blank record".into()));
    }
    let arity = |want: usize| {
        if f.len() == want {
            Ok(())
        } else {
            Err((FaultClass::Arity, format!("expected {want} fields, got {}", f.len())))
        }
    };
    let num = |field: &str, what: &str| -> Result<u64, Reject> {
        field.parse::<u64>().map_err(|_| (FaultClass::Numeric, format!("bad {what} `{field}`")))
    };
    let batch_in_range = |raw: u64| -> Result<BatchId, Reject> {
        if (raw as usize) < entities.batches.len() {
            Ok(BatchId::new(raw as u32))
        } else {
            Err((FaultClass::Dangling, format!("batch b{raw} out of range")))
        }
    };
    match f[0].as_str() {
        "P" => {
            arity(3)?;
            let seq = num(&f[1], "seq")?;
            let batch = batch_in_range(num(&f[2], "batch id")?)?;
            Ok(Parsed::Event(MarketEvent::Posted { seq, batch }))
        }
        "U" => {
            arity(5)?;
            let seq = num(&f[1], "seq")?;
            let batch = batch_in_range(num(&f[2], "batch id")?)?;
            let worker_raw = num(&f[3], "worker id")?;
            if worker_raw as usize >= entities.workers.len() {
                return Err((FaultClass::Dangling, format!("worker w{worker_raw} out of range")));
            }
            let at: i64 = f[4]
                .parse()
                .map_err(|_| (FaultClass::Numeric, format!("bad pickup time `{}`", f[4])))?;
            Ok(Parsed::Event(MarketEvent::PickedUp {
                seq,
                batch,
                worker: WorkerId::new(worker_raw as u32),
                at: Timestamp::from_secs(at),
            }))
        }
        "C" => {
            arity(9)?;
            let seq = num(&f[1], "seq")?;
            let row = naive_instance_row(&f[2..9], line).map_err(|e| match e {
                CoreError::Csv { message, .. } => (FaultClass::Numeric, message),
                other => (FaultClass::Numeric, other.to_string()),
            })?;
            naive_validate_completed(&row, entities)?;
            Ok(Parsed::Event(MarketEvent::Completed { seq, row }))
        }
        "T" => {
            arity(3)?;
            let n = num(&f[1], "trailer count")?;
            let digest = u64::from_str_radix(&f[2], 16)
                .map_err(|_| (FaultClass::Numeric, format!("bad trailer digest `{}`", f[2])))?;
            Ok(Parsed::Trailer(Trailer { n, digest }))
        }
        other => Err((FaultClass::Numeric, format!("bad event kind `{other}`"))),
    }
}

fn naive_validate_completed(row: &TaskInstance, entities: &Dataset) -> Result<(), Reject> {
    if row.batch.index() >= entities.batches.len() {
        return Err((FaultClass::Dangling, format!("batch {} out of range", row.batch)));
    }
    if row.worker.index() >= entities.workers.len() {
        return Err((FaultClass::Dangling, format!("worker {} out of range", row.worker)));
    }
    if row.end < row.start {
        return Err((FaultClass::Semantic, "instance ends before it starts".into()));
    }
    if row.trust.is_nan() || !(0.0..=1.0).contains(&row.trust) {
        return Err((FaultClass::Semantic, format!("trust {} outside [0, 1]", row.trust)));
    }
    Ok(())
}

fn naive_at(ev: &MarketEvent, entities: &Dataset) -> i64 {
    match ev {
        MarketEvent::Posted { batch, .. } => entities.batch(*batch).created_at.as_secs(),
        MarketEvent::PickedUp { at, .. } => at.as_secs(),
        MarketEvent::Completed { row, .. } => row.end.as_secs(),
    }
}

fn naive_rank(ev: &MarketEvent) -> u8 {
    match ev {
        MarketEvent::Posted { .. } => 0,
        MarketEvent::PickedUp { .. } => 1,
        MarketEvent::Completed { .. } => 2,
    }
}

// ---------------------------------------------------------------------------
// Loader
// ---------------------------------------------------------------------------

fn naive_quarantine(
    report: &mut TableReport,
    qlog: &mut Vec<QuarantinedRow>,
    budget: ErrorBudget,
    line: usize,
    fault: FaultClass,
    message: String,
) -> Result<(), EventStreamError> {
    report.quarantined += 1;
    if qlog.len() < QUARANTINE_DETAIL_CAP {
        qlog.push(QuarantinedRow { table: EVENTS_TABLE, line, fault, message });
    }
    if report.quarantined > budget.max_quarantined_per_table {
        return Err(EventStreamError::Failed {
            error: CoreError::BudgetExceeded {
                table: EVENTS_TABLE,
                quarantined: report.quarantined,
                budget: budget.max_quarantined_per_table,
            },
            report: report.clone(),
        });
    }
    Ok(())
}

/// The original `load_events` over an in-memory stream (no retries): the
/// naive splitter, a stable sort of `(at, kind, seq, event)` tuples whose
/// tie-break re-serializes both events on every comparison, and a dedup
/// pass that serializes every event once more.
pub fn naive_load_events(
    bytes: &[u8],
    entities: &Dataset,
    budget: ErrorBudget,
) -> Result<EventLog, EventStreamError> {
    let mut report = TableReport::new(EVENTS_TABLE);
    let mut qlog = Vec::new();
    let text = String::from_utf8_lossy(bytes);

    let mut records = naive_records_lossy(&text);
    match records.next() {
        Some(Ok((_, f))) if f.join(",") == EVENTS_HEADER => {}
        Some(Ok((_, f))) => return Err(EventStreamError::MissingHeader { got: f.join(",") }),
        Some(Err(e)) => return Err(EventStreamError::MissingHeader { got: e.to_string() }),
        None => return Err(EventStreamError::MissingHeader { got: String::new() }),
    }

    let mut keyed: Vec<(i64, u8, u64, MarketEvent)> = Vec::new();
    let mut trailer: Option<Trailer> = None;
    for rec in records {
        let (line, f) = match rec {
            Ok(r) => r,
            Err(e) => {
                let line = match &e {
                    CoreError::Csv { line, .. } => *line,
                    _ => 0,
                };
                naive_quarantine(
                    &mut report,
                    &mut qlog,
                    budget,
                    line,
                    FaultClass::Malformed,
                    e.to_string(),
                )?;
                continue;
            }
        };
        match naive_parse_event(&f, line, entities) {
            Ok(Parsed::Event(ev)) => {
                let at = naive_at(&ev, entities);
                keyed.push((at, naive_rank(&ev), ev.seq(), ev));
            }
            Ok(Parsed::Trailer(t)) => trailer = Some(t),
            Err((fault, message)) => {
                naive_quarantine(&mut report, &mut qlog, budget, line, fault, message)?;
            }
        }
    }

    let key_cmp = |a: &(i64, u8, u64, MarketEvent), b: &(i64, u8, u64, MarketEvent)| {
        (a.0, a.1, a.2)
            .cmp(&(b.0, b.1, b.2))
            .then_with(|| naive_canon(&a.3).cmp(&naive_canon(&b.3)))
    };
    report.repaired =
        keyed.windows(2).filter(|w| key_cmp(&w[0], &w[1]) == Ordering::Greater).count() as u64;
    keyed.sort_by(key_cmp);

    let mut events = Vec::with_capacity(keyed.len());
    let mut digest = 0u64;
    let mut last_canon: Option<String> = None;
    for (_, _, _, ev) in keyed {
        let canon = naive_canon(&ev);
        if last_canon.as_deref() == Some(canon.as_str()) {
            report.deduped += 1;
            continue;
        }
        digest = digest.wrapping_add(record_hash(&canon));
        last_canon = Some(canon);
        events.push(ev);
    }
    report.accepted = events.len() as u64;

    if let Some(t) = trailer {
        let matches = t.n == report.accepted && t.digest == digest;
        if !matches && report.quarantined == 0 {
            return Err(EventStreamError::DigestMismatch {
                expected_rows: t.n,
                rows: report.accepted,
                expected: t.digest,
                actual: digest,
            });
        }
        report.verified = Some(matches);
    }

    Ok(EventLog { events, report, quarantine: qlog })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_splitter_keeps_its_grammar() {
        let recs: Vec<_> =
            naive_records("a,\"x\ny\"\r\nb,\"c\"\"d\"\n").map(Result::unwrap).collect();
        assert_eq!(recs[0], (1, vec!["a".to_string(), "x\ny".to_string()]));
        assert_eq!(recs[1], (3, vec!["b".to_string(), "c\"d".to_string()]));
        let lossy: Vec<_> = naive_records_lossy("a\"b\nc\n").collect();
        assert!(lossy[0].is_err());
        assert_eq!(lossy[1].as_ref().unwrap(), &(2, vec!["c".to_string()]));
    }
}
