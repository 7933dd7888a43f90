//! Experiment harness shared by the `fig*`/`tab*` binaries that regenerate
//! every table and figure of the paper (see DESIGN.md §4 for the index and
//! EXPERIMENTS.md for recorded results).
//!
//! All binaries run their experiment cells through [`sweep`], which
//! parallelizes across cells (`--jobs N` / `ELMEM_JOBS`, default: all
//! cores) while keeping output byte-identical to a serial run.

pub mod exp;
pub mod sweep;
