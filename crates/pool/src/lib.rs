//! # ipet-pool
//!
//! A re-export shim: the solve pool and its replay tier live in `ipet-core`
//! ([`ipet_core::SolvePool`]), the one executor every analysis runs on.
//! This crate keeps the `ipet_pool::…` paths working for code that still
//! names them.

pub use ipet_core::{
    AuditedPlanBatch, BatchReport, CacheOutcome, CacheStats, JobOutcome, PlanBatch, SolvePool,
    SolveRequest, SOLVE_CACHE_CAPACITY,
};
