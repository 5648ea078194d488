//! `perfbench` — the in-process half of the benchmark (`perfbench/run.py`
//! drives it; see that file for the workloads).
//!
//! ```text
//! perfbench repro --seed N --scale S --threads T --snapshot-dir DIR
//!                 --shards N --spans FILE --run-id ID
//! perfbench serve --seed N --scale S --threads T --dir DIR --trace 0|1
//!                 [--spans FILE --run-id ID]
//! ```
//!
//! `repro` runs one traced composition of `repro --shards N --snapshot-dir
//! <empty> all` and writes its spans;
//! `serve` makes the feed and runs one `serve_live` session, followed by a
//! traced one under `--trace 1`. A session runs in a process of its own so
//! that its peak memory does not depend on the sessions before it. Each
//! prints one JSON object on stdout. Exit code 2 means the probe could
//! not run here (bad arguments, no way to measure); a program error inside
//! a session is reported in the JSON instead.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use crowd_perfbench::repro_path;
use crowd_perfbench::serve_path::{self, Durability, Session};
use crowd_perfbench::trace::{json_number, Tracer};
use crowd_sim::SimConfig;
use crowd_snapshot::SnapshotStore;

/// The probe cannot run here: bad arguments or no way to measure.
fn die(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    std::process::exit(2)
}

/// The program under test returned an error.
fn fail(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    std::process::exit(1)
}

/// `--flag value` pairs after the subcommand.
fn flags(args: &[String]) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(name) = flag.strip_prefix("--") else {
            die(&format!("unexpected argument `{flag}`"))
        };
        let value = it.next().unwrap_or_else(|| die(&format!("{flag} needs a value")));
        out.insert(name.to_string(), value.clone());
    }
    out
}

fn get<T: std::str::FromStr>(f: &BTreeMap<String, String>, name: &str) -> T {
    let raw = f.get(name).unwrap_or_else(|| die(&format!("missing --{name}")));
    raw.parse().unwrap_or_else(|_| die(&format!("bad value for --{name}: {raw}")))
}

fn install_pool(threads: usize) {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build_global()
        .unwrap_or_else(|_| die("failed to configure the thread pool"));
}

fn json_list(values: &[f64]) -> String {
    let items: Vec<String> = values.iter().map(|&v| json_number(v)).collect();
    format!("[{}]", items.join(","))
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn repro(f: &BTreeMap<String, String>) {
    let cfg = SimConfig::new(get(f, "seed"), get(f, "scale"));
    install_pool(get(f, "threads"));
    let store = SnapshotStore::new(get::<PathBuf>(f, "snapshot-dir")).with_shards(get(f, "shards"));
    let spans: PathBuf = get(f, "spans");
    let run_id: String = get(f, "run-id");

    let t = Tracer::new(&run_id);
    let summary = repro_path::run(&cfg, &store, &t).unwrap_or_else(|e| fail(&e));
    t.write_jsonl(&spans).unwrap_or_else(|e| die(&format!("writing spans: {e}")));
    println!(
        "{{\"n_instances\":{},\"n_enriched\":{},\"n_clusters\":{}}}",
        summary.n_instances, summary.n_enriched, summary.n_clusters
    );
}

fn session_json(s: &Session) -> String {
    let failures: Vec<String> = s.failures.iter().map(|m| json_string(m)).collect();
    format!(
        "{{\"events\":{},\"ingest_s\":{},\"recover_s\":{},\"wall_s\":{},\"cpu_s\":{},\"disk_bytes\":{},\"peak_rss_bytes\":{},\"attempted\":{},\"failures\":[{}],\"batch_ms\":{},\"dashboard_us\":{}}}",
        s.events,
        json_number(s.ingest_s),
        json_number(s.recover_s),
        json_number(s.wall_s()),
        json_number(s.cpu_s),
        s.disk_bytes,
        s.peak_rss_bytes,
        s.attempted,
        failures.join(","),
        json_list(&s.batch_ms),
        json_list(&s.dashboard_us),
    )
}

fn serve(f: &BTreeMap<String, String>) {
    let seed: u64 = get(f, "seed");
    let cfg = SimConfig::new(seed, get(f, "scale"));
    install_pool(get(f, "threads"));
    let root: PathBuf = get(f, "dir");
    let traced = get::<u8>(f, "trace") == 1;
    let spans: Option<PathBuf> = f.get("spans").map(PathBuf::from);
    if traced && spans.is_none() {
        die("--trace 1 needs --spans and --run-id");
    }
    if !serve_path::peak_rss_supported() {
        die("peak RSS cannot be measured here: /proc/self/clear_refs and VmHWM are needed");
    }

    // Set-up: feed generation and wire encoding.
    let t = Instant::now();
    let feed = serve_path::make_feed(&cfg);
    let setup_s = t.elapsed().as_secs_f64();

    // A session that fails to finish (an apply, WAL or recovery error) is a
    // failure of the program, reported in `errors`.
    let d = Durability::default();
    let mut errors = Vec::new();
    let _ = std::fs::remove_dir_all(&root);
    let session = match serve_path::library_session(&feed, &root, seed, d) {
        Ok(s) => session_json(&s),
        Err(e) => {
            errors.push(json_string(&format!("session: {e}")));
            "null".into()
        }
    };
    let _ = std::fs::remove_dir_all(&root);
    let mut traced_session = String::from("null");
    if traced && errors.is_empty() {
        let t = Tracer::new(&get::<String>(f, "run-id"));
        match serve_path::traced_session(&feed, &root, seed, d, &t) {
            Ok(s) => {
                traced_session = session_json(&s);
                let path = spans.as_ref().expect("checked above");
                t.write_jsonl(path).unwrap_or_else(|e| die(&format!("writing spans: {e}")));
            }
            Err(e) => errors.push(json_string(&format!("traced session: {e}"))),
        }
        let _ = std::fs::remove_dir_all(&root);
    }
    println!(
        "{{\"setup_s\":{},\"session\":{},\"traced\":{},\"errors\":[{}]}}",
        json_number(setup_s),
        session,
        traced_session,
        errors.join(",")
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        die("usage: perfbench repro|serve --flag value …")
    };
    let f = flags(rest);
    match cmd.as_str() {
        "repro" => repro(&f),
        "serve" => serve(&f),
        other => die(&format!("unknown command `{other}`")),
    }
}
