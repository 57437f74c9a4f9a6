//! The paper's experiments and what they share: the runner's command
//! line (`cli`), the experiments themselves and their one report path
//! (`experiments`), the simulations they and the regression tests run
//! (`harness`), the workspace's one JSON writer and parser (`json`),
//! reports and trace exporters, live monitoring, the shard pool,
//! summary statistics and table formatting. `src/bin/bgbench.rs` runs one
//! experiment; `src/bin/bgtop.rs` renders a live monitor file.

pub mod cli;
pub mod experiments;
pub mod harness;
pub mod json;
pub mod monitor;
pub mod par;
pub mod report;
pub mod stats;
pub mod table;
