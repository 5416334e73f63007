//! The partstm benchmark: four seeded closed-loop workloads driven
//! through the public API of the engine, the structures, the STAMP
//! vacation port and the repartition controller. See `README.md`.

pub mod gen;
pub mod harness;
pub mod metrics;
pub mod trace;
pub mod workloads;
