//! Reproduction harness: regenerates every table and figure of the
//! paper's evaluation (§2.4 and §3).
//!
//! Each submodule owns one experiment family and produces plain structs
//! of results plus a `print` routine that emits the same rows/series the
//! paper reports. The `repro` binary dispatches on experiment ids
//! (`fig5`, `fig6a`, …, `fig19`, `table3`, `footprint`).
//!
//! Absolute numbers differ from the paper (their testbed was a 2001-era
//! dual Pentium III and PlanetLab; ours is a simulator plus loopback
//! TCP), but every *shape* — who wins, by what factor, where the
//! crossovers sit — is asserted by the integration test suite and
//! printed here side by side with the paper's values.

pub mod ablation;
pub mod coding_bench;
pub mod extensions;
pub mod federation_exp;
pub mod fig5;
pub mod fig8;
pub mod scaling;
pub mod seven;
pub mod simnet_sweep;
pub mod switch_bench;
pub mod tree_exp;
pub mod util;

/// Nanoseconds per (virtual or real) second — the harness's base unit.
pub const SEC: u64 = 1_000_000_000;
