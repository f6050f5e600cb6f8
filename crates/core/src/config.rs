//! Configuration of lineage tracing and the reuse cache.

use crate::faults::FaultInjector;
use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::Arc;

/// Which reuse machinery is active (paper §5.1 "cache configurations":
/// full, partial, hybrid).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReuseMode {
    /// No reuse; tracing only (configuration `LT` in Fig 6).
    None,
    /// Operation-level full reuse only (`LIMA-FR`).
    Full,
    /// Partial-reuse rewrites only.
    Partial,
    /// Full + partial reuse (the default `LIMA` configuration).
    Hybrid,
}

impl ReuseMode {
    /// True if full (operation-level) reuse is enabled.
    pub fn full(self) -> bool {
        matches!(self, ReuseMode::Full | ReuseMode::Hybrid)
    }

    /// True if partial-reuse rewrites are enabled.
    pub fn partial(self) -> bool {
        matches!(self, ReuseMode::Partial | ReuseMode::Hybrid)
    }

    /// True if any reuse is enabled.
    pub fn any(self) -> bool {
        !matches!(self, ReuseMode::None)
    }
}

/// Cache eviction policy (paper Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvictionPolicy {
    /// Least-recently-used: evict minimal last-access timestamp.
    Lru,
    /// DAG-Height: deep lineage traces are assumed to have less reuse
    /// potential; evict maximal height (score `1/h(o)`).
    DagHeight,
    /// Cost & Size (default): evict minimal `(r_h + r_m) · c(o) / s(o)`.
    CostSize,
    /// Hybrid (weighted recency + cost/size). The paper abandoned this in
    /// favour of the parameter-free Cost&Size policy (§4.3); it is kept here
    /// for the ablation study.
    Hybrid,
}

/// Top-level LIMA configuration handed to the runtime and the cache.
#[derive(Debug, Clone)]
pub struct LimaConfig {
    /// Master switch for lineage tracing.
    pub tracing: bool,
    /// Deduplicate lineage for last-level loops and functions.
    pub dedup: bool,
    /// Reuse machinery (requires `tracing`).
    pub reuse: ReuseMode,
    /// Multi-level (function/block) reuse on top of operation reuse.
    pub multilevel: bool,
    /// Eviction policy.
    pub policy: EvictionPolicy,
    /// Cache budget in bytes (the paper defaults to 5% of the heap; here an
    /// absolute budget).
    pub budget_bytes: usize,
    /// Spill evicted entries to disk when recompute cost exceeds I/O cost.
    pub spill: bool,
    /// Compiler assistance: unmarking and reuse-aware rewrites (paper §4.4).
    pub compiler_assist: bool,
    /// Opcodes whose outputs qualify for caching; `None` uses the default set.
    pub cacheable_opcodes: Option<HashSet<String>>,
    /// Objects larger than the whole budget are never cached; additionally,
    /// objects smaller than this many bytes are not worth caching as
    /// individual entries (placeholder pressure); 0 disables the floor.
    pub min_entry_bytes: usize,
    /// Batch-eviction hysteresis: eviction stops once the resident size
    /// drops below `budget × watermark`. Values near 1.0 evict exactly to
    /// the budget (strict Table-1 semantics, O(n) scan per overflow); lower
    /// values amortize scans for pollution-heavy workloads.
    pub eviction_watermark: f64,
    /// Upper bound (milliseconds) a probe blocks on another thread's
    /// placeholder before assuming the fulfiller died and taking over the
    /// computation itself. 0 waits forever (the pre-hardening behaviour).
    pub placeholder_timeout_ms: u64,
    /// Circuit breaker: after this many *consecutive* spill-write failures
    /// the cache stops attempting to spill (evictions degrade to deletes).
    /// The persistent cache store reuses the same limit for its own writes.
    /// 0 disables the breaker.
    pub spill_failure_limit: u32,
    /// Half-open cooldown for the spill/persist circuit breakers: once open,
    /// a single probe attempt is allowed through per window of this many
    /// milliseconds (success closes the breaker again). 0 restores the old
    /// latch-open-forever behaviour.
    pub breaker_cooldown_ms: u64,
    /// Bounded retries (with jittered exponential backoff) for transient
    /// persist I/O errors before they count against the breaker. 0 disables
    /// retrying.
    pub persist_retry_attempts: u32,
    /// Base backoff delay (milliseconds) before the first persist retry;
    /// doubles per retry.
    pub persist_retry_base_ms: u64,
    /// Process-wide memory budget governed by the
    /// [`crate::governor::ResourceGovernor`] degradation ladder (resident
    /// cache bytes + session live variables + spill buffers). 0 disables
    /// governance entirely (no governor is constructed).
    pub governor_budget_bytes: usize,
    /// Durably persist reuse-cache entries across process restarts. Requires
    /// `persist_dir`; without one the flag is ignored.
    pub persist_enabled: bool,
    /// Directory holding the persistent manifest WAL and value files. The
    /// same directory can be reopened by a later process to warm-start the
    /// cache. An unusable directory degrades to an empty cache, never an
    /// error.
    pub persist_dir: Option<PathBuf>,
    /// Disk budget for persisted value files; the oldest entries are
    /// tombstoned once the total exceeds it. 0 means unbounded.
    pub persist_budget_bytes: u64,
    /// Manifest WAL size below which auto-compaction never triggers.
    pub persist_compact_min_bytes: u64,
    /// Auto-compact the manifest WAL into a fresh generation when it exceeds
    /// the live-record footprint by this factor; 0 disables auto-compaction.
    pub persist_compact_factor: u64,
    /// Quarantined (corrupt) persist files older than this many seconds are
    /// garbage-collected at startup recovery; 0 keeps them forever.
    pub persist_quarantine_max_age_secs: u64,
    /// Global token budget bounding how many lineage-driven repairs a flaky
    /// disk can trigger (see [`crate::resilience::RetryBudget`]).
    pub persist_repair_budget: u64,
    /// Recomputes corrupt persisted values from their serialized lineage
    /// (scrub- and recovery-time repair). The runtime installs its
    /// reconstruction-based hook automatically when persistence is enabled;
    /// `None` here with no runtime in the loop means corrupt entries are
    /// quarantined instead of repaired.
    pub repair: Option<crate::cache::persist::RepairHook>,
    /// Deterministic fault-injection harness; `None` (the default) injects
    /// nothing and is the production configuration.
    pub faults: Option<Arc<FaultInjector>>,
    /// Observability hub (lima-obs): lineage-aware trace events from the
    /// cache, governor, and runtime flow into its per-thread rings. `None`
    /// (the default) removes even the per-event gate check from most paths.
    pub obs: Option<Arc<crate::obs::Obs>>,
    /// Kernel backend for dense matrix compute. `None` (the default) keeps
    /// whatever the process already resolved (the `LIMA_BACKEND` env var, or
    /// the Optimized engine); `Some(kind)` pins it when the runtime builds an
    /// execution context from this config. Process-global, like the engine
    /// registry itself.
    pub backend: Option<lima_matrix::BackendKind>,
}

impl Default for LimaConfig {
    fn default() -> Self {
        LimaConfig {
            tracing: true,
            dedup: false,
            reuse: ReuseMode::Hybrid,
            multilevel: true,
            policy: EvictionPolicy::CostSize,
            budget_bytes: 256 * 1024 * 1024,
            spill: true,
            compiler_assist: true,
            cacheable_opcodes: None,
            min_entry_bytes: 0,
            eviction_watermark: 0.8,
            placeholder_timeout_ms: 60_000,
            spill_failure_limit: 3,
            breaker_cooldown_ms: 5_000,
            persist_retry_attempts: 2,
            persist_retry_base_ms: 1,
            governor_budget_bytes: 0,
            persist_enabled: false,
            persist_dir: None,
            persist_budget_bytes: 1 << 30,
            persist_compact_min_bytes: 64 * 1024,
            persist_compact_factor: 4,
            persist_quarantine_max_age_secs: 86_400,
            persist_repair_budget: 64,
            repair: None,
            faults: None,
            obs: None,
            backend: None,
        }
    }
}

impl LimaConfig {
    /// Baseline configuration: no tracing, no reuse (paper's `Base`).
    pub fn base() -> Self {
        LimaConfig {
            tracing: false,
            dedup: false,
            reuse: ReuseMode::None,
            multilevel: false,
            compiler_assist: false,
            ..Self::default()
        }
    }

    /// Tracing only (`LT`).
    pub fn tracing_only() -> Self {
        LimaConfig {
            tracing: true,
            reuse: ReuseMode::None,
            multilevel: false,
            compiler_assist: false,
            ..Self::default()
        }
    }

    /// Tracing + dedup, no reuse (`LTD`).
    pub fn tracing_dedup() -> Self {
        LimaConfig {
            dedup: true,
            ..Self::tracing_only()
        }
    }

    /// The full LIMA configuration (hybrid reuse, multi-level, C&S eviction).
    pub fn lima() -> Self {
        Self::default()
    }

    /// Attaches a fault-injection harness (robustness tests).
    pub fn with_faults(mut self, faults: Arc<FaultInjector>) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Attaches an observability hub; runtime and cache events are recorded
    /// into it whenever its gate is open (see [`crate::obs::Obs`]).
    pub fn with_obs(mut self, obs: Arc<crate::obs::Obs>) -> Self {
        self.obs = Some(obs);
        self
    }

    /// Enables the memory-pressure degradation ladder over `budget` bytes
    /// (see [`crate::governor::ResourceGovernor`]).
    pub fn with_governor(mut self, budget_bytes: usize) -> Self {
        self.governor_budget_bytes = budget_bytes;
        self
    }

    /// Enables the crash-safe persistent cache store rooted at `dir`. A later
    /// process pointing at the same directory recovers the surviving entries
    /// on startup.
    pub fn with_persistence(mut self, dir: impl Into<PathBuf>) -> Self {
        self.persist_enabled = true;
        self.persist_dir = Some(dir.into());
        self
    }

    /// Installs a lineage-driven repair hook for the persistent store; see
    /// [`crate::cache::persist::RepairHook`].
    pub fn with_repair(mut self, hook: crate::cache::persist::RepairHook) -> Self {
        self.repair = Some(hook);
        self
    }

    /// Pins the dense kernel backend (Reference for diff/debug runs,
    /// Optimized for speed). Applied process-globally when a runtime context
    /// is built from this config.
    pub fn with_backend(mut self, kind: lima_matrix::BackendKind) -> Self {
        self.backend = Some(kind);
        self
    }

    /// Applies the backend selection, if any, to the process-global engine
    /// registry. The runtime calls this when constructing execution contexts.
    pub fn apply_backend(&self) {
        if let Some(kind) = self.backend {
            lima_matrix::backend::set_backend(kind);
        }
    }

    /// True when `op` qualifies for caching under this configuration: the
    /// override set when one is given, else the `cacheable` column of
    /// [`crate::opcodes::OPCODE_TABLE`] (prefixed families resolved by
    /// [`crate::opcodes::opcode_info`]).
    pub fn is_cacheable(&self, op: &str) -> bool {
        match &self.cacheable_opcodes {
            Some(set) => set.contains(op),
            None => crate::opcodes::opcode_info(op).cacheable,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reuse_mode_flags() {
        assert!(!ReuseMode::None.any());
        assert!(ReuseMode::Full.full() && !ReuseMode::Full.partial());
        assert!(!ReuseMode::Partial.full() && ReuseMode::Partial.partial());
        assert!(ReuseMode::Hybrid.full() && ReuseMode::Hybrid.partial());
    }

    #[test]
    fn preset_configs() {
        assert!(!LimaConfig::base().tracing);
        assert!(LimaConfig::tracing_only().tracing);
        assert!(!LimaConfig::tracing_only().reuse.any());
        assert!(LimaConfig::tracing_dedup().dedup);
        assert!(LimaConfig::lima().reuse.any());
        assert_eq!(LimaConfig::lima().policy, EvictionPolicy::CostSize);
    }

    #[test]
    fn faults_default_off_and_attach_via_builder() {
        use crate::faults::{FaultInjector, FaultSite};
        assert!(LimaConfig::lima().faults.is_none());
        assert!(LimaConfig::base().faults.is_none());
        let inj = Arc::new(FaultInjector::new(1).fail_at(FaultSite::SpillRead, &[0]));
        let cfg = LimaConfig::lima().with_faults(Arc::clone(&inj));
        assert!(cfg
            .faults
            .as_ref()
            .unwrap()
            .should_fail(FaultSite::SpillRead));
        // The config clones share the injector's counters.
        let cfg2 = cfg.clone();
        assert_eq!(cfg2.faults.unwrap().occurrences(FaultSite::SpillRead), 1);
    }

    #[test]
    fn cacheable_respects_override() {
        let mut cfg = LimaConfig::default();
        assert!(cfg.is_cacheable("ba+*"));
        assert!(!cfg.is_cacheable("print"));
        assert!(cfg.is_cacheable("spoof17"));
        cfg.cacheable_opcodes = Some(["ba+*".to_string()].into_iter().collect());
        assert!(cfg.is_cacheable("ba+*"));
        assert!(!cfg.is_cacheable("tsmm"));
    }
}
