//! The repository benchmark's building blocks: the open-loop generator,
//! the closed-loop driver, daemon process control, spans, order
//! statistics and the sustained-rate sweep. The `perfbench` binary
//! composes them into workloads.

pub mod closed;
pub mod gen;
pub mod procs;
pub mod stats;
pub mod sweep;
pub mod trace;
