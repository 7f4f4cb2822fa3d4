//! The repository benchmark: four workloads driven from outside the
//! program, through `Session`, `HttpServer` over loopback, the free
//! decomposition, consumer and repair functions, and the server's own
//! metrics snapshot. See `perfbench/README.md`.

pub mod client;
pub mod report;
pub mod stats;
pub mod streams;
pub mod sys;
pub mod trace;
pub mod workloads;
