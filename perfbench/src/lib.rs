//! Benchmark probes for the crowd-marketplace workspace.
//!
//! `perfbench/run.py` is the benchmark; this crate is the part of it that
//! has to run inside a Rust process: the traced compositions of `repro`
//! and `serve` ([`repro_path`], [`serve_path`]) and the span recorder
//! they share ([`trace`]).

pub mod repro_path;
pub mod serve_path;
pub mod trace;
