//! End-to-end equivalence of the streaming build (DESIGN.md §16): with a
//! snapshot store, at any `--shards`, the cold path streams each finished
//! shard to disk and the warm path rebuilds a columns-optional `Study`
//! from entities + enrichment alone — and **neither may change a single
//! published byte**. Every CSV `export` writes is compared bitwise against
//! a monolithic no-snapshot golden run, across the shards × threads grid
//! of the acceptance contract, for both the streamed-cold and the
//! streamed-warm run of every cell.

use std::path::Path;
use std::process::Command;

/// Every file `export` writes, per its module docs.
const FILES: [&str; 12] = [
    "weekly.csv",
    "weekday.csv",
    "cluster_sizes.csv",
    "heavy_hitters.csv",
    "labels.csv",
    "trends.csv",
    "experiments.csv",
    "prediction.csv",
    "sources.csv",
    "geography.csv",
    "lifetimes.csv",
    "cohorts.csv",
];

fn run_export(out: &Path, snapshot_dir: Option<&Path>, threads: usize, shards: usize) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_export"));
    cmd.args(["--scale", "0.0005", "--seed", "13", "--threads"])
        .arg(threads.to_string())
        .arg("--shards")
        .arg(shards.to_string())
        .arg("--out")
        .arg(out)
        // Never let an ambient store leak into the no-snapshot cells.
        .env_remove("CROWD_SNAPSHOT_DIR");
    match snapshot_dir {
        Some(dir) => {
            cmd.arg("--snapshot-dir").arg(dir);
        }
        None => {
            cmd.arg("--no-snapshot");
        }
    }
    let status = cmd.status().expect("spawn export binary");
    assert!(status.success(), "export --threads {threads} --shards {shards} failed");
}

fn assert_matches_golden(golden_dir: &Path, dir: &Path, what: &str) {
    for f in FILES {
        let golden = std::fs::read(golden_dir.join(f)).unwrap_or_else(|e| panic!("{f}: {e}"));
        assert!(!golden.is_empty(), "{f} is empty");
        assert_eq!(golden, std::fs::read(dir.join(f)).unwrap(), "{what} leaked into {f}");
    }
}

/// The acceptance grid: streamed cold build and streamed warm start are
/// byte-identical to the monolithic no-snapshot pipeline, at every shard
/// and thread count.
#[test]
fn streamed_cold_and_warm_exports_match_monolithic_golden() {
    let base = std::env::temp_dir().join(format!("crowd_streamed_eq_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let golden_dir = base.join("golden");
    run_export(&golden_dir, None, 1, 1);

    for shards in [1usize, 4, 16] {
        for threads in [1usize, 4] {
            let cell = base.join(format!("t{threads}_s{shards}"));
            let snap = cell.join("snap");

            // Cold: the store is empty, so the run takes the streaming
            // build (flush-as-you-go writer + streaming enricher).
            let cold = cell.join("cold");
            run_export(&cold, Some(&snap), threads, shards);
            assert_matches_golden(
                &golden_dir,
                &cold,
                &format!("streamed cold t{threads} s{shards}"),
            );
            assert_eq!(
                std::fs::read_dir(&snap).unwrap().count(),
                1,
                "cold run published exactly the snapshot, no temps (s{shards})"
            );

            // Warm: loads entities + enrichment only and streams the fused
            // scan back from the shard sections on demand.
            let warm = cell.join("warm");
            run_export(&warm, Some(&snap), threads, shards);
            assert_matches_golden(
                &golden_dir,
                &warm,
                &format!("streamed warm t{threads} s{shards}"),
            );
        }
    }
    std::fs::remove_dir_all(&base).ok();
}
