//! The repo's one benchmark. See `README.md` for what it measures and why.

pub mod adapter;
pub mod calib;
pub mod child;
pub mod gen;
pub mod metrics;
pub mod model;
pub mod report;
pub mod run;
pub mod stats;
pub mod tcp;
