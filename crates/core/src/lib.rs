//! # lima-core
//!
//! The LIMA framework itself (paper §3–§4): fine-grained lineage tracing with
//! multi-level deduplication, and lineage-based full/partial reuse with
//! cost-based eviction.
//!
//! The crate is runtime-agnostic: it knows nothing about instructions or
//! program blocks. The `lima-runtime` crate drives it by
//!
//! 1. creating [`lineage::LineageItem`]s *before* executing each instruction,
//! 2. probing the [`cache::LineageCache`] with the item (full reuse, then
//!    partial-reuse rewrites), and
//! 3. registering computed outputs back into the cache.

pub mod cache;
pub mod codec;
pub mod config;
pub mod diag;
pub mod faults;
pub mod governor;
pub mod interrupt;
pub mod json;
pub mod lineage;
pub mod obs;
pub mod opcodes;
pub mod resilience;
pub mod stats;

pub use cache::persist::{
    fsck, CompactOutcome, DegradeReason, FsckFinding, FsckReport, PersistOptions, RepairHook,
    ScrubOutcome,
};
pub use cache::{ItemCost, LineageCache};
pub use config::{EvictionPolicy, LimaConfig, ReuseMode};
pub use diag::{
    diagnostics_from_json, diagnostics_to_json, line_col, sort_diagnostics, Diagnostic, Label,
    Severity, Span,
};
pub use faults::{FaultInjector, FaultSite};
pub use governor::{PressureLevel, ResourceGovernor};
pub use interrupt::{CancelToken, Interrupt, InterruptKind};
pub use lineage::{LinRef, LineageItem, LineageMap};
pub use obs::{Event, EventKind, Obs};
pub use resilience::{CircuitBreaker, RetryBudget, RetryPolicy};
pub use stats::LimaStats;
