//! One benchmark for QUQ inference: offline integer ViT-S (`offline-int`),
//! served ViT-S under open-loop load (`serve-int`) and the serve front end
//! (`serve-frontend`), each run with tracing off for the end-to-end metrics
//! or on for the per-layer ones. See `README.md` beside this crate.

pub mod arrivals;
pub mod common;
pub mod host;
pub mod layers;
pub mod offline;
pub mod report;
pub mod serving;
pub mod stats;
pub mod trace;
