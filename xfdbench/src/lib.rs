//! xfdbench: the DiscoverXFD benchmark. One command runs one seeded
//! workload through the public API of each layer, checks every output
//! against a reference, and prints every metric by name and unit. See
//! README.md for the workloads, the metrics and the rules.

pub mod churn;
pub mod compare;
pub mod docs;
pub mod json;
pub mod metrics;
pub mod run;
pub mod serve;
pub mod speed;
pub mod stats;
pub mod trace;
