//! The lineage reuse cache (paper §4): a thread-safe map from lineage traces
//! to cached values, with placeholder blocking for task parallelism, multi-
//! level entries, cost-based eviction, disk spilling, and partial-reuse
//! rewrites.

pub mod costs;
pub mod entry;
pub mod eviction;
pub mod persist;
pub mod rewrites;
pub mod spill;

use crate::config::{LimaConfig, ReuseMode};
use crate::governor::ResourceGovernor;
use crate::interrupt::{Interrupt, InterruptKind};
use crate::lineage::item::{LinKey, LinRef};
use crate::obs::{EventKind, Obs};
use crate::resilience::{Attempt, CircuitBreaker, RetryPolicy};
use crate::stats::LimaStats;
use costs::IoCostModel;
use entry::{CacheEntry, EntryState};
use lima_matrix::Value;
use parking_lot::{Condvar, Mutex, MutexGuard};
use persist::PersistentCacheStore;
use spill::SpillStore;
use std::cell::RefCell;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Wait-slice granularity while blocked on a placeholder with an interrupt
/// armed: cancellation/deadline is noticed within this bound even when no
/// notify arrives.
const INTERRUPT_WAIT_SLICE: Duration = Duration::from_millis(25);

/// True for multi-level (function/block) cache keys, whose measured cost
/// *contains* the cost of constituent entries fulfilled within their window.
fn is_composite(op: &str) -> bool {
    op.starts_with(crate::opcodes::FCALL) || op.starts_with(crate::opcodes::BCALL)
}

/// One open composite (function/block) reservation on the current thread.
/// Entries fulfilled while a frame is open are that composite's children:
/// their compute time is a subset of the composite's measured cost.
struct CompositeFrame {
    /// Identity of the owning cache (distinct caches may interleave on one
    /// thread in tests).
    cache: usize,
    key: LinKey,
    children: Vec<LinKey>,
}

thread_local! {
    /// Stack of open composite reservations made by this thread. Composite
    /// bodies execute on the reserving thread, so this suffices to attribute
    /// constituent fulfills to their enclosing function/block entry (the
    /// basis of at-most-once `saved_compute_ns` accounting).
    static COMPOSITE_STACK: RefCell<Vec<CompositeFrame>> = const { RefCell::new(Vec::new()) };
}

/// Outcome of a full-reuse probe.
pub enum Probe {
    /// The value was reused from the cache.
    Hit(Value),
    /// The caller must compute the value and fulfil (or abort) the
    /// reservation; concurrent probes for the same trace block meanwhile.
    Reserved(Reservation),
}

/// An outstanding placeholder created by [`LineageCache::acquire`]. Dropping
/// it without [`Reservation::fulfill`] aborts the placeholder and wakes
/// waiting threads.
pub struct Reservation {
    cache: Arc<LineageCache>,
    key: LinKey,
    done: bool,
}

impl Reservation {
    /// Stores the computed value with its measured computation time.
    pub fn fulfill(mut self, value: &Value, compute_ns: u64) {
        self.done = true;
        self.cache.fulfill(&self.key, value, compute_ns);
    }

    /// Abandons the placeholder (e.g. the computation failed).
    pub fn abort(mut self) {
        self.done = true;
        self.cache.abort(&self.key);
    }
}

impl Drop for Reservation {
    fn drop(&mut self) {
        if !self.done {
            self.cache.abort(&self.key);
        }
    }
}

/// One row of the per-lineage-item cost-attribution report
/// ([`LineageCache::cost_report`]): the cache's `compute_ns` bookkeeping fed
/// back to users, keyed by the same lineage item id that obs trace events
/// carry in `args.lineage_id`.
#[derive(Debug, Clone)]
pub struct ItemCost {
    /// Lineage item id (process-unique; matches trace `args.lineage_id`).
    pub lineage_id: u64,
    /// Opcode of the cached item (`fcall:*` / `bcall` for composites).
    pub opcode: String,
    /// Lineage DAG height.
    pub height: u32,
    /// Measured nanoseconds to compute the value once.
    pub compute_ns: u64,
    /// Reuse hits served by this entry.
    pub hits: u64,
    /// Probes that missed (including the one creating the entry).
    pub misses: u64,
    /// Nanoseconds this entry credited to `saved_compute_ns` (at-most-once
    /// semantics: composites credit their cost net of constituents).
    pub saved_ns: u64,
    /// Whether the value is currently resident in memory.
    pub resident: bool,
}

impl ItemCost {
    /// One-line human rendering used by `limac run --cost-top`.
    pub fn render(&self) -> String {
        format!(
            "#{:<6} {:<12} h={} compute={:.3}ms hits={} misses={} saved={:.3}ms{}",
            self.lineage_id,
            self.opcode,
            self.height,
            self.compute_ns as f64 / 1e6,
            self.hits,
            self.misses,
            self.saved_ns as f64 / 1e6,
            if self.resident { " [resident]" } else { "" },
        )
    }
}

/// Hasher of the cache map. A [`LinKey`] hashes as one `write_u64` of its
/// memoized lineage hash, which this finalizes with [`crate::faults::mix`]
/// instead of running SipHash over it. SipHash's keyed collision resistance
/// bought nothing here: two traces with equal lineage hashes collide under
/// any hasher of that hash. `write` folds arbitrary bytes the same way, a
/// word at a time, so any key type hashes without panicking.
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = crate::faults::mix(self.0 ^ v);
    }
}

type KeyMap = HashMap<LinKey, CacheEntry, BuildHasherDefault<KeyHasher>>;

struct CacheState {
    map: KeyMap,
    resident_bytes: usize,
    /// Bytes currently held in spill files (accounted by the governor as the
    /// spill-buffer category).
    spilled_bytes: usize,
    /// Probes parked on the condition variable. A waiter counts itself under
    /// the state lock before it waits and uncounts itself right after the
    /// wait returns, so a state change made under the lock that reads 0 here
    /// has nobody to wake (see [`LineageCache::unlock_and_wake`]).
    waiters: usize,
}

impl CacheState {
    /// Empties the map, freeing entries in lineage-creation order (item IDs
    /// increase with creation). Items and values were allocated in roughly
    /// that order, so the frees walk the heap front to back instead of
    /// scattering across it in hash order. Only the keys are buffered, one
    /// pointer per entry.
    fn remove_in_creation_order(&mut self) {
        let mut keys: Vec<LinKey> = self.map.keys().cloned().collect();
        keys.sort_unstable_by_key(|k| k.0.id());
        for key in keys {
            self.map.remove(&key);
        }
    }
}

impl Drop for CacheState {
    fn drop(&mut self) {
        self.remove_in_creation_order();
    }
}

/// The LIMA lineage cache. Cheap to share (`Arc`); all methods are
/// thread-safe.
///
/// ```
/// use lima_core::{LimaConfig, LineageCache};
/// use lima_core::cache::Probe;
/// use lima_core::lineage::item::LineageItem;
/// use lima_matrix::{DenseMatrix, Value};
///
/// let cache = LineageCache::new(LimaConfig::lima());
/// let x = LineageItem::op_with_data("read", "X.csv", vec![]);
/// let gram = LineageItem::op_with_data("tsmm", "LEFT", vec![x]);
///
/// // First probe misses: compute and fulfil the reservation.
/// match cache.acquire(&gram).expect("tsmm is cacheable") {
///     Probe::Reserved(r) => r.fulfill(&Value::matrix(DenseMatrix::identity(3)), 1_000),
///     Probe::Hit(_) => unreachable!("fresh cache"),
/// }
/// // A structurally equal trace hits, even though it is a different object.
/// let x2 = LineageItem::op_with_data("read", "X.csv", vec![]);
/// let gram2 = LineageItem::op_with_data("tsmm", "LEFT", vec![x2]);
/// assert!(matches!(cache.acquire(&gram2), Some(Probe::Hit(_))));
/// ```
pub struct LineageCache {
    config: LimaConfig,
    stats: Arc<LimaStats>,
    io: IoCostModel,
    spill_store: Option<SpillStore>,
    state: Mutex<CacheState>,
    cond: Condvar,
    clock: AtomicU64,
    /// Half-open circuit breaker over spill writes: opens after
    /// `config.spill_failure_limit` consecutive failures, probes once per
    /// `config.breaker_cooldown_ms` window.
    spill_breaker: CircuitBreaker,
    /// Crash-safe durable store; present when `config.persist_enabled` and
    /// the persist directory was usable.
    persist_store: Option<PersistentCacheStore>,
    /// Half-open breaker over durable writes; shares the spill limit and
    /// cooldown.
    persist_breaker: CircuitBreaker,
    /// Latch so a disk-full/fsync degrade is counted exactly once.
    disk_full_noted: AtomicBool,
    /// Memory-pressure governor; present when `config.governor_budget_bytes`
    /// is non-zero. Gates admissions, rewrites, and spilling by pressure
    /// level and is kept in sync with resident/spilled byte counts.
    governor: Option<Arc<ResourceGovernor>>,
    /// Observer invoked (outside the cache lock) after each locally computed
    /// value is admitted — the replication tap. Deliberately *not* fired for
    /// startup-recovered entries or values applied via
    /// [`Self::put_replicated`], so replicas never echo records back.
    put_watcher: Mutex<Option<PutWatcher>>,
}

/// Callback fired after a locally computed `(lineage, value, compute_ns)`
/// record is admitted into the cache. Must be cheap and non-blocking: it runs
/// on the session hot path.
pub type PutWatcher = Arc<dyn Fn(&LinRef, &Value, u64) + Send + Sync>;

impl std::fmt::Debug for LineageCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.state.lock();
        write!(
            f,
            "LineageCache {{ entries: {}, resident_bytes: {} }}",
            st.map.len(),
            st.resident_bytes
        )
    }
}

impl LineageCache {
    /// Creates a cache for the given configuration. With persistence enabled
    /// this runs the startup recovery pass: entries a prior process durably
    /// committed are validated and repopulated as warm cache entries. An
    /// unusable persist directory degrades to a memory-only cache.
    pub fn new(config: LimaConfig) -> Arc<Self> {
        let spill_store = config
            .spill
            .then(|| SpillStore::with_faults(config.faults.clone()));
        let mut recovered = Vec::new();
        let persist_store = match (&config.persist_enabled, &config.persist_dir) {
            (true, Some(dir)) => PersistentCacheStore::open_with(
                dir,
                persist::PersistOptions {
                    budget_bytes: config.persist_budget_bytes,
                    compact_min_bytes: config.persist_compact_min_bytes,
                    compact_factor: config.persist_compact_factor,
                    quarantine_max_age_secs: config.persist_quarantine_max_age_secs,
                    repair: config.repair.clone(),
                    repair_retry: RetryPolicy::new(
                        config.persist_retry_attempts,
                        config.persist_retry_base_ms,
                        0,
                    ),
                    repair_budget: config.persist_repair_budget,
                    faults: config.faults.clone(),
                },
            )
            .map(|(store, entries, report)| {
                recovered = entries;
                (store, report)
            }),
            _ => None,
        };
        let stats = Arc::new(LimaStats::new());
        let governor = (config.governor_budget_bytes > 0).then(|| {
            let g = ResourceGovernor::new(
                config.governor_budget_bytes,
                Arc::clone(&stats),
                config.faults.clone(),
            );
            if let Some(obs) = &config.obs {
                g.attach_obs(Arc::clone(obs));
            }
            g
        });
        let (limit, cooldown) = (config.spill_failure_limit, config.breaker_cooldown_ms);
        let mut cache = LineageCache {
            config,
            stats,
            io: IoCostModel::new(),
            spill_store,
            state: Mutex::new(CacheState {
                map: KeyMap::default(),
                resident_bytes: 0,
                spilled_bytes: 0,
                waiters: 0,
            }),
            cond: Condvar::new(),
            clock: AtomicU64::new(1),
            spill_breaker: CircuitBreaker::new(limit, cooldown),
            persist_store: None,
            persist_breaker: CircuitBreaker::new(limit, cooldown),
            disk_full_noted: AtomicBool::new(false),
            governor,
            put_watcher: Mutex::new(None),
        };
        if let Some((store, report)) = persist_store {
            LimaStats::add(&cache.stats.persist_recovered, report.recovered);
            LimaStats::add(&cache.stats.persist_dropped, report.dropped);
            if report.torn_tail_truncated {
                LimaStats::bump(&cache.stats.persist_torn_truncations);
            }
            LimaStats::add(&cache.stats.persist_orphans_gcd, report.orphans_gcd);
            LimaStats::add(&cache.stats.persist_repairs, report.repaired);
            LimaStats::add(&cache.stats.persist_repair_failures, report.repair_failures);
            LimaStats::add(&cache.stats.scrub_quarantined, report.quarantined);
            cache.persist_store = Some(store);
            let mut st = cache.state.lock();
            for e in recovered {
                let key = LinKey(e.root.clone());
                let size = e.value.size_in_bytes();
                if size > cache.config.budget_bytes {
                    continue; // respect the memory budget; stays on disk
                }
                let now = cache.tick();
                let mut entry = CacheEntry::computing(e.root.height(), now);
                entry.state = EntryState::Cached(e.value);
                entry.size = size;
                entry.misses = 0;
                entry.compute_ns = e.compute_ns;
                entry.persist_id = Some(e.persist_id);
                entry.from_persist = true;
                st.resident_bytes += size;
                st.map.insert(key, entry);
            }
            cache.enforce_budget(&mut st);
            drop(st);
        }
        Arc::new(cache)
    }

    /// The configuration this cache was created with.
    pub fn config(&self) -> &LimaConfig {
        &self.config
    }

    /// Shared statistics.
    pub fn stats(&self) -> &LimaStats {
        &self.stats
    }

    /// Shared statistics handle (same counters as [`Self::stats`]).
    pub fn stats_arc(&self) -> Arc<LimaStats> {
        Arc::clone(&self.stats)
    }

    /// The memory-pressure governor, when `config.governor_budget_bytes > 0`.
    pub fn governor(&self) -> Option<Arc<ResourceGovernor>> {
        self.governor.as_ref().map(Arc::clone)
    }

    /// Effective cache budget: the configured budget, shrunk by the governor
    /// under pressure (L1+ halves it).
    fn effective_budget(&self) -> usize {
        match &self.governor {
            Some(g) => g.effective_cache_budget(self.config.budget_bytes),
            None => self.config.budget_bytes,
        }
    }

    /// True while the governor (if any) still admits new cache entries.
    fn admissions_open(&self) -> bool {
        match &self.governor {
            Some(g) => g.admissions_enabled(),
            None => true,
        }
    }

    /// Pushes current byte accounting into the governor (no-op without one).
    fn sync_governor(&self, st: &CacheState) {
        if let Some(g) = &self.governor {
            g.set_cache_bytes(st.resident_bytes);
            g.set_spill_bytes(st.spilled_bytes);
        }
    }

    /// Number of entries currently holding a resident or spilled value.
    pub fn live_entries(&self) -> usize {
        let st = self.state.lock();
        st.map
            .values()
            .filter(|e| e.is_resident() || e.is_spilled())
            .count()
    }

    /// Bytes of values resident in memory.
    pub fn resident_bytes(&self) -> usize {
        self.state.lock().resident_bytes
    }

    /// Per-lineage-item cost attribution: the `top_k` most expensive entries
    /// the cache has seen (by measured `compute_ns`, ties broken by savings
    /// then id), with their reuse savings under the at-most-once accounting.
    /// Includes evicted shells — attribution outlives residency.
    pub fn cost_report(&self, top_k: usize) -> Vec<ItemCost> {
        let st = self.state.lock();
        let mut rows: Vec<ItemCost> = st
            .map
            .iter()
            .map(|(k, e)| ItemCost {
                lineage_id: k.0.id(),
                opcode: k.0.opcode().to_string(),
                height: e.height,
                compute_ns: e.compute_ns,
                hits: e.hits,
                misses: e.misses,
                saved_ns: e.credited_ns,
                resident: e.is_resident(),
            })
            .collect();
        drop(st);
        rows.sort_by(|a, b| {
            b.compute_ns
                .cmp(&a.compute_ns)
                .then(b.saved_ns.cmp(&a.saved_ns))
                .then(a.lineage_id.cmp(&b.lineage_id))
        });
        rows.truncate(top_k);
        rows
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    /// Releases the state lock and wakes the probes parked on a placeholder,
    /// skipping the wake-up (a futex syscall) when none is parked. Race-free
    /// because both sides hold the state lock: a waiter counts itself in the
    /// same lock hold in which it saw the placeholder, and `Condvar::wait`
    /// releases that lock atomically. So a change made under the lock either
    /// sees the waiter counted, or precedes the waiter's look at the entry.
    fn unlock_and_wake(&self, st: MutexGuard<'_, CacheState>) {
        let parked = st.waiters > 0;
        drop(st);
        if parked {
            self.cond.notify_all();
        }
    }

    /// Observability hub, already gated: `Some` only when attached *and*
    /// enabled, so call sites pay a single branch when tracing is off.
    #[inline]
    fn obs(&self) -> Option<&Arc<Obs>> {
        match &self.config.obs {
            Some(o) if o.enabled() => Some(o),
            _ => None,
        }
    }

    /// Counts a hit by kind and credits `credit_ns` (computed by
    /// [`take_hit_credit`] under the state lock) to `saved_compute_ns`.
    /// Unlike the old accounting — which credited the entry's full
    /// `compute_ns` on *every* hit, double-counting composite entries and
    /// their constituents — each computed nanosecond is now credited at most
    /// once across the entry's lifetime.
    fn count_hit(&self, item: &LinRef, credit_ns: u64) {
        if is_composite(item.opcode()) {
            LimaStats::bump(&self.stats.multilevel_hits);
        } else {
            LimaStats::bump(&self.stats.full_hits);
        }
        LimaStats::add(&self.stats.saved_compute_ns, credit_ns);
    }

    /// Builds a reservation for `key`, recording a composite frame on this
    /// thread's attribution stack when the key is a function/block entry so
    /// constituent fulfills can be tied to it.
    fn reserve(self: &Arc<Self>, key: LinKey) -> Probe {
        if let Some(o) = self.obs() {
            o.record_instant(EventKind::CacheMiss, key.0.opcode(), key.0.id(), 0, 0);
        }
        if is_composite(key.0.opcode()) {
            let me = Arc::as_ptr(self) as usize;
            COMPOSITE_STACK.with(|s| {
                s.borrow_mut().push(CompositeFrame {
                    cache: me,
                    key: key.clone(),
                    children: Vec::new(),
                });
            });
        }
        Probe::Reserved(Reservation {
            cache: Arc::clone(self),
            key,
            done: false,
        })
    }

    /// Attribution bookkeeping on fulfill: records `key` as a child of the
    /// innermost open composite frame (its compute happened within that
    /// composite's measured window), and for composite keys returns the
    /// children collected by their own frame. Frames above `key`'s
    /// (abandoned reservations) are folded into it rather than leaked.
    fn composite_on_fulfill(&self, key: &LinKey) -> Vec<LinKey> {
        let me = self as *const Self as usize;
        COMPOSITE_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            if is_composite(key.0.opcode()) {
                if let Some(pos) = stack.iter().rposition(|f| f.cache == me && f.key == *key) {
                    let mut children = Vec::new();
                    for f in stack.drain(pos..) {
                        children.extend(f.children);
                    }
                    if let Some(parent) = stack.last_mut() {
                        if parent.cache == me {
                            parent.children.push(key.clone());
                        }
                    }
                    return children;
                }
                // Reserved on another thread: attribution not tracked.
                return Vec::new();
            }
            if let Some(parent) = stack.last_mut() {
                if parent.cache == me {
                    parent.children.push(key.clone());
                }
            }
            Vec::new()
        })
    }

    /// Attribution bookkeeping on abort: pops `key`'s composite frame (if
    /// any) and reparents its children — the constituents were fulfilled and
    /// remain cached even though the composite itself failed.
    fn composite_on_abort(&self, key: &LinKey) {
        if !is_composite(key.0.opcode()) {
            return;
        }
        let me = self as *const Self as usize;
        COMPOSITE_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            if let Some(pos) = stack.iter().rposition(|f| f.cache == me && f.key == *key) {
                let mut orphans = Vec::new();
                for f in stack.drain(pos..) {
                    orphans.extend(f.children);
                }
                if let Some(parent) = stack.last_mut() {
                    if parent.cache == me {
                        parent.children.extend(orphans);
                    }
                }
            }
        });
    }

    /// Full-reuse probe (paper §4.1). Returns `None` when the opcode does not
    /// qualify for caching or reuse is disabled — the caller then executes
    /// normally without touching the cache.
    ///
    /// Failure semantics: a spilled entry whose restore fails degrades to a
    /// miss (the caller recomputes), and a placeholder whose fulfiller never
    /// finishes within `config.placeholder_timeout_ms` is taken over by the
    /// waiting probe instead of blocking forever.
    pub fn acquire(self: &Arc<Self>, item: &LinRef) -> Option<Probe> {
        // Without an interrupt the Err branch is unreachable; flatten it.
        self.acquire_interruptible(item, None).unwrap_or(None)
    }

    /// [`Self::acquire`] with a session interrupt: a probe blocked on another
    /// session's placeholder re-checks cancellation/deadline every
    /// [`INTERRUPT_WAIT_SLICE`] and returns `Err` instead of waiting out
    /// `placeholder_timeout_ms`. Under governor pressure level L3+
    /// (no-admission), misses return `Ok(None)` instead of reserving a
    /// placeholder, so the caller computes without touching the cache.
    pub fn acquire_interruptible(
        self: &Arc<Self>,
        item: &LinRef,
        interrupt: Option<&Interrupt>,
    ) -> Result<Option<Probe>, InterruptKind> {
        if !self.reusable(item) {
            return Ok(None);
        }
        LimaStats::bump(&self.stats.probes);
        let key = LinKey(item.clone());
        let height = item.height();
        // Total placeholder-wait bound for this probe: armed on the first
        // Computing encounter and not reset by wake-ups for other entries.
        let mut wait_deadline: Option<Instant> = None;
        // `placeholder_waits` counts probes that blocked, not wait slices.
        let mut counted_wait = false;
        let interrupt = interrupt.filter(|i| i.is_armed());
        let mut st = self.state.lock();
        loop {
            let now = self.tick();
            let e = match st.map.entry(key.clone()) {
                Entry::Occupied(o) => o.into_mut(),
                Entry::Vacant(v) => {
                    if !self.admissions_open() {
                        LimaStats::bump(&self.stats.governor_admission_rejects);
                        return Ok(None);
                    }
                    v.insert(CacheEntry::computing(height, now));
                    drop(st);
                    return Ok(Some(self.reserve(key)));
                }
            };
            match &e.state {
                EntryState::Cached(v) => {
                    let value = v.clone();
                    let from_persist = e.from_persist;
                    e.hits += 1;
                    e.last_access = now;
                    let credit = take_hit_credit(&mut st.map, &key);
                    drop(st);
                    if from_persist {
                        LimaStats::bump(&self.stats.persist_hits);
                    }
                    self.count_hit(item, credit);
                    if let Some(o) = self.obs() {
                        o.record_instant(EventKind::CacheHit, item.opcode(), item.id(), credit, 0);
                    }
                    return Ok(Some(Probe::Hit(value)));
                }
                EntryState::Spilled { path, bytes } => {
                    // Restore under a placeholder so concurrent probes wait
                    // instead of double-reading the file.
                    let (path, bytes) = (path.clone(), *bytes);
                    e.state = EntryState::Computing;
                    drop(st);
                    let restore_t0 = self.obs().map(|o| o.now_ns());
                    let restored = self.timed_restore(&path, bytes);
                    st = self.state.lock();
                    // Either way the spill file is gone (restore deletes it
                    // on success; a failed file is abandoned).
                    st.spilled_bytes = st.spilled_bytes.saturating_sub(bytes);
                    match restored {
                        Ok(value) => {
                            LimaStats::bump(&self.stats.restores);
                            let size = value.size_in_bytes();
                            if let Some(e) = st.map.get_mut(&key) {
                                e.state = EntryState::Cached(value.clone());
                                e.size = size;
                                e.hits += 1;
                                e.last_access = self.tick();
                                let from_persist = e.from_persist;
                                let credit = take_hit_credit(&mut st.map, &key);
                                st.resident_bytes += size;
                                self.enforce_budget(&mut st);
                                self.unlock_and_wake(st);
                                if from_persist {
                                    LimaStats::bump(&self.stats.persist_hits);
                                }
                                self.count_hit(item, credit);
                                if let (Some(o), Some(t0)) = (self.obs(), restore_t0) {
                                    o.record_span(
                                        EventKind::SpillRestore,
                                        item.opcode(),
                                        item.id(),
                                        t0,
                                        bytes as u64,
                                        0,
                                    );
                                }
                                return Ok(Some(Probe::Hit(value)));
                            }
                            // Entry vanished (should not happen); treat as miss.
                            continue;
                        }
                        Err(_) => {
                            // Missing or corrupt spill file: degrade to a
                            // miss so the caller recomputes.
                            LimaStats::bump(&self.stats.restore_failures);
                            if let Some(e) = st.map.get_mut(&key) {
                                e.state = EntryState::Evicted;
                                e.misses += 1;
                            }
                            self.sync_governor(&st);
                            if st.waiters > 0 {
                                self.cond.notify_all();
                            }
                            continue;
                        }
                    }
                }
                EntryState::Computing => {
                    if !counted_wait {
                        LimaStats::bump(&self.stats.placeholder_waits);
                        counted_wait = true;
                    }
                    if let Some(intr) = interrupt {
                        intr.check()?;
                    }
                    let timeout_ms = self.config.placeholder_timeout_ms;
                    let deadline = if timeout_ms == 0 {
                        None
                    } else {
                        Some(*wait_deadline.get_or_insert_with(|| {
                            Instant::now() + Duration::from_millis(timeout_ms)
                        }))
                    };
                    let remaining = deadline.map(|d| d.saturating_duration_since(Instant::now()));
                    // With an interrupt armed, wait in short slices so a
                    // cancelled/expired session stops blocking promptly even
                    // when no notify ever arrives for this placeholder.
                    let slice = match (interrupt.is_some(), remaining) {
                        (true, Some(r)) => Some(r.min(INTERRUPT_WAIT_SLICE)),
                        (true, None) => Some(INTERRUPT_WAIT_SLICE),
                        (false, r) => r,
                    };
                    st.waiters += 1;
                    match slice {
                        None => {
                            self.cond.wait(&mut st);
                        }
                        Some(d) => {
                            let _ = self.cond.wait_for(&mut st, d);
                        }
                    }
                    st.waiters -= 1;
                    if let Some(intr) = interrupt {
                        intr.check()?;
                    }
                    if deadline.is_some_and(|d| Instant::now() >= d) {
                        // Re-check under the lock: the fulfiller may have won
                        // the race against the timeout.
                        if let Some(e) = st.map.get_mut(&key) {
                            if e.is_computing() {
                                // Presume the fulfiller dead and take over
                                // the computation; should it fulfil after
                                // all, it overwrites with the same value
                                // (identical lineage), which is benign.
                                LimaStats::bump(&self.stats.placeholder_timeouts);
                                e.misses += 1;
                                e.last_access = self.tick();
                                drop(st);
                                return Ok(Some(self.reserve(key)));
                            }
                        }
                        // The entry moved on; re-arm the deadline in case a
                        // new placeholder appears later in this probe.
                        wait_deadline = None;
                    }
                    continue;
                }
                EntryState::Evicted => {
                    // Evicted shell: misses raise the entry's future score.
                    e.misses += 1;
                    e.last_access = now;
                    if !self.admissions_open() {
                        LimaStats::bump(&self.stats.governor_admission_rejects);
                        return Ok(None);
                    }
                    e.state = EntryState::Computing;
                    drop(st);
                    return Ok(Some(self.reserve(key)));
                }
            }
        }
    }

    /// Restores a spilled value, folding the measured read time into the I/O
    /// model. A missing spill store reports as a restore failure instead of
    /// panicking.
    fn timed_restore(&self, path: &Path, bytes: usize) -> std::io::Result<Value> {
        let store = self.spill_store.as_ref().ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::NotFound, "spill store unavailable")
        })?;
        let t0 = Instant::now();
        let restored = store.restore(path);
        self.io.observe_read(bytes, t0.elapsed().as_nanos() as u64);
        restored
    }

    /// True when this item's output qualifies for cache interaction.
    pub fn reusable(&self, item: &LinRef) -> bool {
        self.config.reuse.any() && self.config.is_cacheable(item.opcode())
    }

    /// Whether full (operation-level) reuse is active.
    pub fn full_reuse(&self) -> bool {
        matches!(self.config.reuse, ReuseMode::Full | ReuseMode::Hybrid)
    }

    /// Whether partial-reuse rewrites are active. Paused by the governor at
    /// pressure level L2+ (rewrites speculatively materialize new values).
    pub fn partial_reuse(&self) -> bool {
        matches!(self.config.reuse, ReuseMode::Partial | ReuseMode::Hybrid)
            && self.rewrites_enabled()
    }

    /// Whether multilevel (function/block) caching and partial-reuse
    /// rewrites are allowed under current memory pressure (false at L2+).
    pub fn rewrites_enabled(&self) -> bool {
        match &self.governor {
            Some(g) => g.rewrites_enabled(),
            None => true,
        }
    }

    /// Non-blocking lookup used by partial-reuse rewrites to fetch component
    /// values: hits count, misses on shells raise scores, placeholders are
    /// *not* created and computing entries are not waited on.
    pub fn peek(&self, item: &LinRef) -> Option<Value> {
        let key = LinKey(item.clone());
        let mut st = self.state.lock();
        let now = self.tick();
        let e = st.map.get_mut(&key)?;
        match &e.state {
            EntryState::Cached(v) => {
                let value = v.clone();
                if e.from_persist {
                    LimaStats::bump(&self.stats.persist_hits);
                }
                e.hits += 1;
                e.last_access = now;
                Some(value)
            }
            EntryState::Spilled { path, bytes } => {
                let (path, bytes) = (path.clone(), *bytes);
                e.state = EntryState::Computing;
                drop(st);
                let restored = self.timed_restore(&path, bytes);
                let mut st = self.state.lock();
                st.spilled_bytes = st.spilled_bytes.saturating_sub(bytes);
                let e = st.map.get_mut(&key)?;
                match restored {
                    Ok(value) => {
                        LimaStats::bump(&self.stats.restores);
                        let size = value.size_in_bytes();
                        e.state = EntryState::Cached(value.clone());
                        e.size = size;
                        e.hits += 1;
                        e.last_access = self.tick();
                        st.resident_bytes += size;
                        self.enforce_budget(&mut st);
                        self.unlock_and_wake(st);
                        Some(value)
                    }
                    Err(_) => {
                        // Degrade to a miss; waiters on the placeholder wake
                        // and recompute.
                        LimaStats::bump(&self.stats.restore_failures);
                        e.state = EntryState::Evicted;
                        e.misses += 1;
                        self.sync_governor(&st);
                        self.unlock_and_wake(st);
                        None
                    }
                }
            }
            EntryState::Computing | EntryState::Evicted => {
                e.misses += 1;
                None
            }
        }
    }

    /// Directly stores a value (used by compensation plans that want their
    /// probe item cached after partial reuse, and by tests).
    pub fn put(self: &Arc<Self>, item: &LinRef, value: &Value, compute_ns: u64) {
        self.put_inner(item, value, compute_ns, true);
    }

    /// [`Self::put`] for values received from a replica peer: identical
    /// admission, but the put watcher is *not* fired, so applied records are
    /// never re-enqueued for replication (no echo loops between members).
    pub fn put_replicated(self: &Arc<Self>, item: &LinRef, value: &Value, compute_ns: u64) {
        self.put_inner(item, value, compute_ns, false);
    }

    fn put_inner(self: &Arc<Self>, item: &LinRef, value: &Value, compute_ns: u64, notify: bool) {
        if !self.reusable(item) {
            LimaStats::bump(&self.stats.rejected_puts);
            return;
        }
        let key = LinKey(item.clone());
        let height = item.height();
        {
            let mut st = self.state.lock();
            let now = self.tick();
            st.map
                .entry(key.clone())
                .or_insert_with(|| CacheEntry::computing(height, now));
        }
        self.fulfill_inner(&key, value, compute_ns, notify);
    }

    /// Installs (or clears) the post-admission observer. Replaces any
    /// previous watcher; recovered-at-startup entries never fire it.
    pub fn set_put_watcher(&self, watcher: Option<PutWatcher>) {
        *self.put_watcher.lock() = watcher;
    }

    /// True when the cache holds `item`'s value, resident or spilled.
    /// Side-effect free: no hit/miss accounting, no placeholder creation —
    /// the replication apply path uses this to skip records it already has.
    pub fn contains(&self, item: &LinRef) -> bool {
        let key = LinKey(item.clone());
        let st = self.state.lock();
        matches!(
            st.map.get(&key).map(|e| &e.state),
            Some(EntryState::Cached(_) | EntryState::Spilled { .. })
        )
    }

    /// Lineage hashes of every entry this member can vouch for (resident or
    /// spilled values; composite/list values that cannot cross the wire are
    /// excluded). The anti-entropy digest and convergence checks are built
    /// from exactly this set.
    pub fn replica_hashes(&self) -> Vec<u64> {
        let st = self.state.lock();
        st.map
            .iter()
            .filter(|(_, e)| match &e.state {
                EntryState::Cached(v) => !matches!(v, Value::List(_)),
                EntryState::Spilled { .. } => true,
                _ => false,
            })
            .map(|(k, _)| k.0.hash_value())
            .collect()
    }

    /// Clones the resident entries whose scrambled lineage hash lands in
    /// `bucket` (of `nbuckets`), newest-access first, capped at `max_entries`
    /// and ~`max_bytes` of value payload. Serving side of the anti-entropy
    /// `K_REPL_PULL` op; serialization happens outside the lock.
    pub fn export_bucket(
        &self,
        bucket: u64,
        nbuckets: u64,
        max_entries: usize,
        max_bytes: usize,
    ) -> Vec<(LinRef, Value, u64)> {
        let nbuckets = nbuckets.max(1);
        let st = self.state.lock();
        let mut candidates: Vec<(&LinKey, &CacheEntry, &Value)> = st
            .map
            .iter()
            .filter_map(|(k, e)| match &e.state {
                EntryState::Cached(v) if !matches!(v, Value::List(_)) => Some((k, e, v)),
                _ => None,
            })
            .filter(|(k, _, _)| crate::faults::mix(k.0.hash_value()) % nbuckets == bucket)
            .collect();
        candidates.sort_unstable_by_key(|(_, e, _)| std::cmp::Reverse(e.last_access));
        let mut out = Vec::new();
        let mut bytes = 0usize;
        for (k, e, v) in candidates {
            if out.len() >= max_entries || bytes >= max_bytes {
                break;
            }
            bytes += e.size;
            out.push((k.0.clone(), v.clone(), e.compute_ns));
        }
        out
    }

    fn fulfill(&self, key: &LinKey, value: &Value, compute_ns: u64) {
        self.fulfill_inner(key, value, compute_ns, true);
    }

    fn fulfill_inner(&self, key: &LinKey, value: &Value, compute_ns: u64, notify: bool) {
        let children = self.composite_on_fulfill(key);
        let size = value.size_in_bytes();
        let admit = size <= self.effective_budget()
            && size >= self.config.min_entry_bytes
            && self.governor_admits(size);
        let mut st = self.state.lock();
        let now = self.tick();
        let mut persistable = false;
        if let Some(e) = st.map.get_mut(key) {
            e.compute_ns = e.compute_ns.max(compute_ns);
            e.last_access = now;
            for c in children {
                if !e.children.contains(&c) {
                    e.children.push(c);
                }
            }
            if admit {
                e.state = EntryState::Cached(value.clone());
                e.size = size;
                e.group = value_group(value);
                persistable = e.persist_id.is_none();
                st.resident_bytes += size;
                LimaStats::bump(&self.stats.puts);
                self.enforce_budget(&mut st);
            } else {
                e.state = EntryState::Evicted;
                e.size = 0;
                LimaStats::bump(&self.stats.rejected_puts);
            }
        }
        self.sync_governor(&st);
        self.unlock_and_wake(st);
        if let Some(o) = self.obs() {
            o.record_instant(
                EventKind::CacheFulfill,
                key.0.opcode(),
                key.0.id(),
                compute_ns,
                u64::from(admit),
            );
        }
        if persistable {
            self.persist_entry(key, value, compute_ns);
        }
        if admit && notify {
            let watcher = self.put_watcher.lock().clone();
            if let Some(w) = watcher {
                w(&key.0, value, compute_ns);
            }
        }
    }

    /// Asks the governor (if any) to account a new entry of `bytes`: false
    /// when admissions are paused (L3+) or the allocation attempt failed
    /// (injected `AllocFail` / synthetic pressure).
    fn governor_admits(&self, bytes: usize) -> bool {
        let Some(g) = &self.governor else { return true };
        if !g.admissions_enabled() {
            LimaStats::bump(&self.stats.governor_admission_rejects);
            return false;
        }
        g.try_alloc(bytes)
    }

    /// Durably writes a freshly fulfilled entry to the persistent store (when
    /// configured). Runs outside the cache lock: the disk write must not block
    /// concurrent probes. Failures leave the entry memory-only and feed the
    /// persistence circuit breaker.
    fn persist_entry(&self, key: &LinKey, value: &Value, compute_ns: u64) {
        use crate::opcodes::{BCALL, FCALL};
        let Some(store) = &self.persist_store else {
            return;
        };
        if !store.usable() {
            return;
        }
        // Multi-level entries alias values cached at operation level and
        // cannot be reconstructed from their lineage; persist only entries
        // whose recovery invariant (reconstruct == cached value) is checkable.
        let op = key.0.opcode();
        if op.starts_with(FCALL) || op.starts_with(BCALL) {
            return;
        }
        match self.persist_breaker.allow() {
            Attempt::Rejected => return,
            Attempt::Probe => LimaStats::bump(&self.stats.breaker_probes),
            Attempt::Allowed => {}
        }
        // Transient I/O errors get bounded jittered-backoff retries before
        // they count against the breaker; injected crash points latch
        // `crashed()` and are never retried.
        let policy = RetryPolicy::new(
            self.config.persist_retry_attempts,
            self.config.persist_retry_base_ms,
            self.tick(),
        );
        let persist_t0 = self.obs().map(|o| o.now_ns());
        let (result, retries) = policy.run(
            |_| store.usable(),
            || store.persist(&key.0, value, compute_ns),
        );
        if retries > 0 {
            LimaStats::add(&self.stats.persist_retries, u64::from(retries));
        }
        match result {
            Ok(Some(outcome)) => {
                self.persist_breaker.record_success();
                LimaStats::bump(&self.stats.persist_writes);
                LimaStats::add(&self.stats.persist_bytes, outcome.bytes);
                LimaStats::add(&self.stats.persist_tombstones, outcome.evicted);
                if let (Some(o), Some(t0)) = (self.obs(), persist_t0) {
                    o.record_span(
                        EventKind::PersistWrite,
                        key.0.opcode(),
                        key.0.id(),
                        t0,
                        outcome.bytes,
                        0,
                    );
                }
                let mut st = self.state.lock();
                if let Some(e) = st.map.get_mut(key) {
                    e.persist_id = Some(outcome.id);
                }
            }
            Ok(None) => {} // value kind not persisted (lists)
            Err(_) => {
                LimaStats::bump(&self.stats.persist_failures);
                // A write failure that latched the store into degraded mode
                // (ENOSPC / failed fsync) is counted once: the cache is now
                // memory-only with a typed reason.
                if store.degrade_reason().is_some()
                    && !self.disk_full_noted.swap(true, Ordering::Relaxed)
                {
                    LimaStats::bump(&self.stats.persist_disk_full);
                }
                self.persist_breaker.record_failure();
            }
        }
        self.drain_compaction_counters();
    }

    /// True while the persistence circuit breaker is open (or probing):
    /// after `config.spill_failure_limit` consecutive durable-write failures
    /// the cache stops attempting to persist until a half-open probe
    /// succeeds. 0 disables the breaker.
    pub fn persist_disabled(&self) -> bool {
        self.persist_breaker.is_open()
    }

    /// True when a durable store backs this cache and is still writable
    /// (i.e. the configured persist directory opened successfully, no crash
    /// point has latched, and no write failure degraded it). `false` under a
    /// persistence-enabled configuration means the cache degraded to
    /// memory-only.
    pub fn persist_active(&self) -> bool {
        self.persist_store.as_ref().is_some_and(|s| s.usable())
    }

    /// Why the durable store degraded to memory-only, if it has (ENOSPC or
    /// a failed fsync); see [`persist::DegradeReason`].
    pub fn persist_degrade_reason(&self) -> Option<persist::DegradeReason> {
        self.persist_store.as_ref().and_then(|s| s.degrade_reason())
    }

    /// Rewrites the persistent manifest WAL into a fresh generation,
    /// reclaiming tombstone and superseded-put space. Returns `None` without
    /// a usable store (or when the compaction itself failed — the store then
    /// reports why via [`LineageCache::persist_active`]).
    pub fn compact_persist(&self) -> Option<persist::CompactOutcome> {
        let store = self.persist_store.as_ref()?;
        let out = store.compact().ok();
        self.drain_compaction_counters();
        out
    }

    /// One cooperative step of the background integrity scrubber: re-verifies
    /// up to `max_bytes` of persisted value files (0 = the rest of the pass),
    /// and, when a pass completes, the WAL's own framing. Corruption is
    /// repaired from lineage where a repair hook is configured, otherwise the
    /// entry is tombstoned and moved to `quarantine/`.
    ///
    /// The scrubber is the lowest-priority disk consumer: at governor
    /// pressure L2+ (the same rung that pauses partial-reuse rewrites) the
    /// step performs no I/O, bumps `scrub_pauses`, and returns `None` until
    /// pressure recovers to L1 or below.
    pub fn scrub_step(&self, max_bytes: u64) -> Option<persist::ScrubOutcome> {
        let store = self.persist_store.as_ref()?;
        if !store.usable() {
            return None;
        }
        if let Some(g) = &self.governor {
            if !g.rewrites_enabled() {
                LimaStats::bump(&self.stats.scrub_pauses);
                return None;
            }
        }
        let out = store.scrub_chunk(max_bytes).ok()?;
        LimaStats::add(&self.stats.scrub_bytes, out.bytes);
        LimaStats::add(&self.stats.scrub_entries, out.entries);
        LimaStats::add(&self.stats.scrub_corruptions, out.corrupt);
        LimaStats::add(&self.stats.persist_repairs, out.repaired);
        LimaStats::add(&self.stats.persist_repair_failures, out.repair_failures);
        LimaStats::add(&self.stats.scrub_quarantined, out.quarantined);
        if out.wrapped {
            LimaStats::bump(&self.stats.scrub_passes);
        }
        if !out.quarantined_ids.is_empty() {
            // Un-map quarantined persist IDs: the in-memory value (when still
            // resident) remains valid, and clearing the ID lets a later
            // fulfill re-persist a recomputed copy.
            let mut st = self.state.lock();
            for e in st.map.values_mut() {
                if let Some(id) = e.persist_id {
                    if out.quarantined_ids.contains(&id) {
                        e.persist_id = None;
                        e.from_persist = false;
                    }
                }
            }
        }
        self.drain_compaction_counters();
        Some(out)
    }

    /// Folds the store's compaction counters (auto- or explicit) into stats.
    fn drain_compaction_counters(&self) {
        if let Some(store) = &self.persist_store {
            let (n, reclaimed) = store.take_compaction_counters();
            LimaStats::add(&self.stats.persist_compactions, n);
            LimaStats::add(&self.stats.persist_compact_reclaimed, reclaimed);
        }
    }

    fn abort(&self, key: &LinKey) {
        self.composite_on_abort(key);
        let mut st = self.state.lock();
        if let Some(e) = st.map.get_mut(key) {
            if e.is_computing() {
                e.state = EntryState::Evicted;
            }
        }
        self.unlock_and_wake(st);
    }

    /// Evicts (spill or delete) until the resident size fits the budget.
    ///
    /// Eviction is batched: one pass scores all resident entries under the
    /// active policy (paper Table 1), sorts ascending, and evicts in order
    /// until the resident size drops below a hysteresis watermark slightly
    /// under the budget. This keeps high-pollution workloads (e.g. the Fig 6
    /// mini-batch probe configuration) from degrading into an O(n²) scan per
    /// inserted entry, while preserving the per-policy eviction *order*.
    fn enforce_budget(&self, st: &mut CacheState) {
        let budget = self.effective_budget();
        if st.resident_bytes <= budget {
            self.sync_governor(st);
            return;
        }
        let watermark = (budget as f64 * self.config.eviction_watermark.clamp(0.0, 1.0)) as usize;
        let norms =
            eviction::Norms::collect(st.map.values().filter(|e| e.is_resident() && e.size > 0));
        let mut scored: Vec<(LinKey, f64, u64)> = st
            .map
            .iter()
            .filter(|(_, e)| e.is_resident() && e.size > 0)
            .map(|(k, e)| {
                (
                    k.clone(),
                    eviction::score(self.config.policy, e, &norms),
                    e.last_access,
                )
            })
            .collect();
        scored.sort_by(|a, b| {
            a.1.partial_cmp(&b.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.2.cmp(&b.2))
        });
        // Group deferral bookkeeping: entries caching the same object defer
        // spilling until the whole group is evicted (paper §4.3).
        let mut group_counts: HashMap<usize, usize> = HashMap::new();
        for e in st.map.values() {
            if e.is_resident() && e.group != 0 {
                *group_counts.entry(e.group).or_default() += 1;
            }
        }
        for (vkey, _, _) in scored {
            if st.resident_bytes <= watermark {
                break;
            }
            let Some(e) = st.map.get_mut(&vkey) else {
                continue;
            };
            let group = e.group;
            let shared = group != 0 && group_counts.get(&group).copied().unwrap_or(0) > 1;
            if group != 0 {
                if let Some(c) = group_counts.get_mut(&group) {
                    *c = c.saturating_sub(1);
                }
            }
            let size = e.size;
            let compute_ns = e.compute_ns;
            let value = match std::mem::replace(&mut e.state, EntryState::Evicted) {
                EntryState::Cached(v) => v,
                other => {
                    e.state = other;
                    continue;
                }
            };
            e.size = 0;
            st.resident_bytes = st.resident_bytes.saturating_sub(size);
            // At governor level L3+ eviction degrades to delete-only: spill
            // files are themselves governed memory/disk pressure.
            if !shared && self.admissions_open() {
                if let Some(store) = &self.spill_store {
                    if self.io.worth_spilling(size, compute_ns) {
                        match self.spill_breaker.allow() {
                            Attempt::Rejected => {}
                            verdict => {
                                if verdict == Attempt::Probe {
                                    LimaStats::bump(&self.stats.breaker_probes);
                                }
                                let t0 = Instant::now();
                                let spill_t0 = self.obs().map(|o| o.now_ns());
                                match store.spill(&value) {
                                    Ok(Some((path, bytes))) => {
                                        self.spill_breaker.record_success();
                                        self.io
                                            .observe_write(bytes, t0.elapsed().as_nanos() as u64);
                                        LimaStats::bump(&self.stats.spills);
                                        LimaStats::add(&self.stats.spill_bytes, bytes as u64);
                                        st.spilled_bytes += bytes;
                                        if let (Some(o), Some(ot0)) = (self.obs(), spill_t0) {
                                            o.record_span(
                                                EventKind::SpillWrite,
                                                vkey.0.opcode(),
                                                vkey.0.id(),
                                                ot0,
                                                bytes as u64,
                                                0,
                                            );
                                        }
                                        if let Some(e) = st.map.get_mut(&vkey) {
                                            e.state = EntryState::Spilled { path, bytes };
                                        }
                                        continue;
                                    }
                                    // Non-matrix values are simply not
                                    // spillable; no breaker feedback.
                                    Ok(None) => {}
                                    // Write failure: fall back to delete-
                                    // eviction and feed the circuit breaker.
                                    Err(_) => {
                                        LimaStats::bump(&self.stats.spill_failures);
                                        self.spill_breaker.record_failure();
                                    }
                                }
                            }
                        }
                    }
                }
            }
            LimaStats::bump(&self.stats.evictions);
        }
        self.prune_shells(st);
        self.sync_governor(st);
    }

    /// Bounds bookkeeping growth: evicted shells retain reuse statistics
    /// (their misses can raise scores, Fig 8a), but unbounded shell growth
    /// would make every eviction scan slower. Keep at most 4× the number of
    /// live entries, dropping the least-recently-accessed shells.
    fn prune_shells(&self, st: &mut CacheState) {
        let live = st
            .map
            .values()
            .filter(|e| !matches!(e.state, EntryState::Evicted))
            .count();
        let max_shells = (live * 4).max(4096);
        let shells = st.map.len() - live;
        if shells <= max_shells {
            return;
        }
        let mut shell_keys: Vec<(LinKey, u64)> = st
            .map
            .iter()
            .filter(|(_, e)| matches!(e.state, EntryState::Evicted))
            .map(|(k, e)| (k.clone(), e.last_access))
            .collect();
        shell_keys.sort_by_key(|(_, t)| *t);
        for (k, _) in shell_keys.into_iter().take(shells - max_shells) {
            st.map.remove(&k);
        }
    }

    /// True while the spill circuit breaker is open (or probing): after
    /// `config.spill_failure_limit` consecutive write failures, evictions
    /// stop attempting to spill until a half-open probe succeeds (0 disables
    /// the breaker; `config.breaker_cooldown_ms == 0` latches open forever).
    pub fn spill_disabled(&self) -> bool {
        self.spill_breaker.is_open()
    }

    /// Drops every entry (tests and phase boundaries in benchmarks). With
    /// persistence enabled, each durable entry gets an eviction tombstone so
    /// a later process does not recover cleared state.
    pub fn clear(&self) {
        let mut st = self.state.lock();
        if let Some(store) = &self.spill_store {
            for e in st.map.values() {
                if let EntryState::Spilled { path, .. } = &e.state {
                    store.discard(path);
                }
            }
        }
        if let Some(store) = &self.persist_store {
            for e in st.map.values() {
                if let Some(id) = e.persist_id {
                    if store.tombstone(id).unwrap_or(false) {
                        LimaStats::bump(&self.stats.persist_tombstones);
                    }
                }
            }
        }
        st.remove_in_creation_order();
        st.resident_bytes = 0;
        st.spilled_bytes = 0;
        self.sync_governor(&st);
        self.unlock_and_wake(st);
        self.drain_compaction_counters();
    }
}

/// First-hit savings credit (the `saved_compute_ns` at-most-once rule):
/// returns the nanoseconds this hit may add to the savings counter.
///
/// An entry credits only on its first hit. A composite (function/block)
/// entry credits its measured cost minus whatever its transitive children
/// (entries computed within its window) already credited, and marks the
/// whole subtree credited so constituent hits cannot credit the same
/// nanoseconds again later. Conversely, a constituent hit before the
/// composite's first hit credits its own cost, which the composite then
/// subtracts. Must run under the cache state lock.
#[allow(clippy::mutable_key_type)] // OnceLock caches never change Hash/Eq
fn take_hit_credit(map: &mut KeyMap, key: &LinKey) -> u64 {
    let (compute_ns, children) = match map.get_mut(key) {
        Some(e) if !e.credited => {
            e.credited = true;
            if e.children.is_empty() {
                // Operation-level entries have no constituents to net out.
                e.credited_ns = e.compute_ns;
                return e.compute_ns;
            }
            (e.compute_ns, e.children.clone())
        }
        _ => return 0,
    };
    let mut already_credited = 0u64;
    let mut queue = children;
    let mut seen: std::collections::HashSet<LinKey> = std::collections::HashSet::new();
    while let Some(k) = queue.pop() {
        if !seen.insert(k.clone()) {
            continue;
        }
        if let Some(e) = map.get_mut(&k) {
            if e.credited {
                already_credited = already_credited.saturating_add(e.credited_ns);
            }
            e.credited = true;
            queue.extend(e.children.iter().cloned());
        }
    }
    let credit = compute_ns.saturating_sub(already_credited);
    if let Some(e) = map.get_mut(key) {
        e.credited_ns = credit;
    }
    credit
}

/// Identity tag grouping entries that cache the same underlying object
/// (multi-level entries). 0 means "untagged".
fn value_group(v: &Value) -> usize {
    match v {
        Value::Matrix(m) => Arc::as_ptr(m) as usize,
        Value::List(l) => Arc::as_ptr(l) as usize,
        Value::Scalar(_) => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lineage::item::LineageItem;
    use lima_matrix::DenseMatrix;

    fn cfg(budget: usize) -> LimaConfig {
        LimaConfig {
            budget_bytes: budget,
            spill: false,
            ..LimaConfig::default()
        }
    }

    fn mk_item(op: &str, seed: &str) -> LinRef {
        LineageItem::op(op, vec![LineageItem::op_with_data("read", seed, vec![])])
    }

    fn mat(n: usize) -> Value {
        Value::matrix(DenseMatrix::filled(n, n, 1.0))
    }

    #[test]
    fn miss_then_hit_round_trip() {
        let cache = LineageCache::new(cfg(1 << 20));
        let item = mk_item("ba+*", "X");
        let v = mat(10);
        match cache.acquire(&item).unwrap() {
            Probe::Hit(_) => panic!("expected miss"),
            Probe::Reserved(r) => r.fulfill(&v, 1_000),
        }
        // Structurally equal item probes hit.
        let item2 = mk_item("ba+*", "X");
        match cache.acquire(&item2).unwrap() {
            Probe::Hit(got) => assert!(got.approx_eq(&v, 0.0)),
            Probe::Reserved(_) => panic!("expected hit"),
        }
        assert_eq!(LimaStats::get(&cache.stats().full_hits), 1);
        assert_eq!(LimaStats::get(&cache.stats().puts), 1);
    }

    #[test]
    fn non_cacheable_opcodes_bypass_the_cache() {
        let cache = LineageCache::new(cfg(1 << 20));
        let item = mk_item("print", "X");
        assert!(cache.acquire(&item).is_none());
        let disabled = LineageCache::new(LimaConfig::tracing_only());
        assert!(disabled.acquire(&mk_item("ba+*", "X")).is_none());
    }

    #[test]
    fn aborted_reservations_allow_retry() {
        let cache = LineageCache::new(cfg(1 << 20));
        let item = mk_item("ba+*", "X");
        match cache.acquire(&item).unwrap() {
            Probe::Reserved(r) => r.abort(),
            _ => panic!(),
        }
        // Next probe must get a reservation again, not deadlock.
        match cache.acquire(&item).unwrap() {
            Probe::Reserved(r) => r.fulfill(&mat(2), 10),
            _ => panic!("expected reservation after abort"),
        }
        assert!(matches!(cache.acquire(&item).unwrap(), Probe::Hit(_)));
    }

    #[test]
    fn dropped_reservation_aborts() {
        let cache = LineageCache::new(cfg(1 << 20));
        let item = mk_item("ba+*", "X");
        {
            let _r = match cache.acquire(&item).unwrap() {
                Probe::Reserved(r) => r,
                _ => panic!(),
            };
            // dropped here without fulfill
        }
        assert!(matches!(cache.acquire(&item).unwrap(), Probe::Reserved(_)));
    }

    #[test]
    fn eviction_respects_budget() {
        // Budget fits roughly two of the three 100x100 matrices (80kB each).
        let cache = LineageCache::new(cfg(170_000));
        for i in 0..3 {
            let item = mk_item("ba+*", &format!("X{i}"));
            match cache.acquire(&item).unwrap() {
                Probe::Reserved(r) => r.fulfill(&mat(100), 1_000 * (i as u64 + 1)),
                _ => panic!(),
            }
        }
        assert!(cache.resident_bytes() <= 170_000);
        assert!(LimaStats::get(&cache.stats().evictions) >= 1);
        // The cheapest entry (X0) was evicted under Cost&Size.
        assert!(matches!(
            cache.acquire(&mk_item("ba+*", "X0")).unwrap(),
            Probe::Reserved(_)
        ));
    }

    #[test]
    fn oversized_values_are_rejected_not_cached() {
        let cache = LineageCache::new(cfg(1_000));
        let item = mk_item("ba+*", "big");
        match cache.acquire(&item).unwrap() {
            Probe::Reserved(r) => r.fulfill(&mat(100), 1_000),
            _ => panic!(),
        }
        assert_eq!(cache.resident_bytes(), 0);
        assert_eq!(LimaStats::get(&cache.stats().rejected_puts), 1);
        // Shell remains; next probe reserves again.
        assert!(matches!(cache.acquire(&item).unwrap(), Probe::Reserved(_)));
    }

    #[test]
    fn placeholder_blocks_concurrent_probes() {
        let cache = LineageCache::new(cfg(1 << 20));
        let item = mk_item("ba+*", "X");
        let r = match cache.acquire(&item).unwrap() {
            Probe::Reserved(r) => r,
            _ => panic!(),
        };
        let c2 = Arc::clone(&cache);
        let item2 = mk_item("ba+*", "X");
        let waiter = std::thread::spawn(move || match c2.acquire(&item2).unwrap() {
            Probe::Hit(v) => v,
            Probe::Reserved(_) => panic!("waiter should get the computed value"),
        });
        std::thread::sleep(std::time::Duration::from_millis(50));
        r.fulfill(&mat(4), 123);
        let got = waiter.join().unwrap();
        assert!(got.approx_eq(&mat(4), 0.0));
        assert_eq!(LimaStats::get(&cache.stats().placeholder_waits), 1);
    }

    #[test]
    fn spilled_entries_restore_on_hit() {
        let config = LimaConfig {
            budget_bytes: 100_000,
            spill: true,
            ..LimaConfig::default()
        };
        let cache = LineageCache::new(config);
        // Expensive-to-compute entry (so spilling pays off), then push it out
        // with an entry whose Cost&Size score is even higher.
        let hot = mk_item("ba+*", "hot");
        match cache.acquire(&hot).unwrap() {
            Probe::Reserved(r) => r.fulfill(&mat(100), 60_000_000_000),
            _ => panic!(),
        }
        let filler = mk_item("ba+*", "filler");
        match cache.acquire(&filler).unwrap() {
            Probe::Reserved(r) => r.fulfill(&mat(90), 120_000_000_000),
            _ => panic!(),
        }
        assert!(LimaStats::get(&cache.stats().spills) >= 1);
        match cache.acquire(&mk_item("ba+*", "hot")).unwrap() {
            Probe::Hit(v) => assert!(v.approx_eq(&mat(100), 0.0)),
            Probe::Reserved(_) => panic!("expected restore hit"),
        }
        assert_eq!(LimaStats::get(&cache.stats().restores), 1);
    }

    #[test]
    fn peek_does_not_create_placeholders() {
        let cache = LineageCache::new(cfg(1 << 20));
        let item = mk_item("ba+*", "X");
        assert!(cache.peek(&item).is_none());
        // No placeholder was created: acquire gets a fresh reservation and
        // nobody deadlocks.
        match cache.acquire(&item).unwrap() {
            Probe::Reserved(r) => r.fulfill(&mat(3), 5),
            _ => panic!(),
        }
        assert!(cache.peek(&item).is_some());
    }

    #[test]
    fn misses_on_shells_raise_costsize_score() {
        // Budget fits only one 100x100 matrix (~80kB) at a time.
        let cache = LineageCache::new(cfg(100_000));
        let a = mk_item("ba+*", "A");
        match cache.acquire(&a).unwrap() {
            Probe::Reserved(r) => r.fulfill(&mat(100), 100_000),
            _ => panic!(),
        }
        // Push A out with a more valuable entry (higher compute cost).
        let b = mk_item("ba+*", "B");
        match cache.acquire(&b).unwrap() {
            Probe::Reserved(r) => r.fulfill(&mat(100), 1_000_000),
            _ => panic!(),
        }
        // A's shell accumulates misses...
        for _ in 0..100 {
            assert!(cache.peek(&a).is_none());
        }
        // ...so once re-cached, A survives the next budget squeeze over B.
        match cache.acquire(&a).unwrap() {
            Probe::Reserved(r) => r.fulfill(&mat(100), 100_000),
            _ => panic!(),
        }
        assert!(matches!(cache.acquire(&a).unwrap(), Probe::Hit(_)));
        assert!(matches!(cache.acquire(&b).unwrap(), Probe::Reserved(_)));
    }

    #[test]
    fn aborted_reservation_wakes_all_blocked_waiters() {
        let cache = LineageCache::new(cfg(1 << 20));
        let item = mk_item("ba+*", "X");
        let r = match cache.acquire(&item).unwrap() {
            Probe::Reserved(r) => r,
            _ => panic!(),
        };
        let t0 = Instant::now();
        let waiters: Vec<_> = (0..3)
            .map(|_| {
                let c = Arc::clone(&cache);
                let it = mk_item("ba+*", "X");
                std::thread::spawn(move || match c.acquire(&it).unwrap() {
                    Probe::Hit(_) => "hit",
                    Probe::Reserved(r) => {
                        r.fulfill(&mat(4), 10);
                        "reserved"
                    }
                })
            })
            .collect();
        std::thread::sleep(Duration::from_millis(50));
        drop(r); // implicit abort
        let outcomes: Vec<&str> = waiters.into_iter().map(|w| w.join().unwrap()).collect();
        // Exactly one waiter takes over the computation; the rest reuse it.
        assert_eq!(outcomes.iter().filter(|o| **o == "reserved").count(), 1);
        assert_eq!(outcomes.iter().filter(|o| **o == "hit").count(), 2);
        // All waiters woke well within the placeholder timeout (60 s default).
        assert!(t0.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn placeholder_timeout_converts_waiter_into_takeover() {
        let config = LimaConfig {
            placeholder_timeout_ms: 100,
            ..cfg(1 << 20)
        };
        let cache = LineageCache::new(config);
        let item = mk_item("ba+*", "X");
        let r = match cache.acquire(&item).unwrap() {
            Probe::Reserved(r) => r,
            _ => panic!(),
        };
        // Simulate a fulfiller dying without aborting: leak the reservation
        // so no notify ever arrives for this placeholder.
        std::mem::forget(r);
        let c = Arc::clone(&cache);
        let it = mk_item("ba+*", "X");
        let waiter = std::thread::spawn(move || match c.acquire(&it).unwrap() {
            Probe::Reserved(r) => {
                r.fulfill(&mat(3), 10);
                true
            }
            Probe::Hit(_) => false,
        });
        assert!(
            waiter.join().unwrap(),
            "waiter must take the placeholder over"
        );
        assert!(LimaStats::get(&cache.stats().placeholder_timeouts) >= 1);
        // The takeover's value is now served normally.
        assert!(matches!(cache.acquire(&item).unwrap(), Probe::Hit(_)));
    }

    #[test]
    fn spill_write_failure_falls_back_to_delete_evict() {
        use crate::faults::{FaultInjector, FaultSite};
        let inj = Arc::new(FaultInjector::new(0).fail_every(FaultSite::SpillWrite, 1));
        let config = LimaConfig {
            budget_bytes: 100_000,
            spill: true,
            spill_failure_limit: 0, // breaker off: every eviction tries
            faults: Some(Arc::clone(&inj)),
            ..LimaConfig::default()
        };
        let cache = LineageCache::new(config);
        let hot = mk_item("ba+*", "hot");
        match cache.acquire(&hot).unwrap() {
            Probe::Reserved(r) => r.fulfill(&mat(100), 60_000_000_000),
            _ => panic!(),
        }
        let filler = mk_item("ba+*", "filler");
        match cache.acquire(&filler).unwrap() {
            Probe::Reserved(r) => r.fulfill(&mat(90), 120_000_000_000),
            _ => panic!(),
        }
        assert!(inj.injected(FaultSite::SpillWrite) >= 1);
        assert!(LimaStats::get(&cache.stats().spill_failures) >= 1);
        assert_eq!(LimaStats::get(&cache.stats().spills), 0);
        assert!(LimaStats::get(&cache.stats().evictions) >= 1);
        // The victim is a graceful miss, not an error.
        assert!(matches!(
            cache.acquire(&mk_item("ba+*", "hot")).unwrap(),
            Probe::Reserved(_)
        ));
    }

    #[test]
    fn spill_circuit_breaker_stops_attempts_after_limit() {
        use crate::faults::{FaultInjector, FaultSite};
        let inj = Arc::new(FaultInjector::new(0).fail_every(FaultSite::SpillWrite, 1));
        let config = LimaConfig {
            budget_bytes: 100_000,
            spill: true,
            spill_failure_limit: 2,
            faults: Some(Arc::clone(&inj)),
            ..LimaConfig::default()
        };
        let cache = LineageCache::new(config);
        for i in 0..6 {
            let item = mk_item("ba+*", &format!("X{i}"));
            match cache.acquire(&item).unwrap() {
                Probe::Reserved(r) => r.fulfill(&mat(100), 60_000_000_000),
                _ => panic!(),
            }
        }
        // Two consecutive failures opened the breaker; later evictions never
        // reached the spill store again.
        assert!(cache.spill_disabled());
        assert_eq!(inj.occurrences(FaultSite::SpillWrite), 2);
        assert_eq!(LimaStats::get(&cache.stats().spill_failures), 2);
        assert!(LimaStats::get(&cache.stats().evictions) >= 4);
    }

    #[test]
    fn corrupted_spill_degrades_to_miss_and_recomputes() {
        use crate::faults::{FaultInjector, FaultSite};
        let inj = Arc::new(FaultInjector::new(0).fail_every(FaultSite::SpillCorrupt, 1));
        let config = LimaConfig {
            budget_bytes: 100_000,
            spill: true,
            faults: Some(inj),
            ..LimaConfig::default()
        };
        let cache = LineageCache::new(config);
        let hot = mk_item("ba+*", "hot");
        match cache.acquire(&hot).unwrap() {
            Probe::Reserved(r) => r.fulfill(&mat(100), 60_000_000_000),
            _ => panic!(),
        }
        let filler = mk_item("ba+*", "filler");
        match cache.acquire(&filler).unwrap() {
            Probe::Reserved(r) => r.fulfill(&mat(90), 120_000_000_000),
            _ => panic!(),
        }
        assert!(LimaStats::get(&cache.stats().spills) >= 1);
        // The corrupted file fails its checksum on restore: graceful miss.
        match cache.acquire(&mk_item("ba+*", "hot")).unwrap() {
            Probe::Reserved(r) => r.fulfill(&mat(100), 60_000_000_000),
            Probe::Hit(_) => panic!("corrupt restore must not produce a value"),
        }
        assert!(LimaStats::get(&cache.stats().restore_failures) >= 1);
        assert_eq!(LimaStats::get(&cache.stats().restores), 0);
    }

    #[test]
    fn clear_empties_cache() {
        let cache = LineageCache::new(cfg(1 << 20));
        let item = mk_item("ba+*", "X");
        match cache.acquire(&item).unwrap() {
            Probe::Reserved(r) => r.fulfill(&mat(5), 5),
            _ => panic!(),
        }
        assert_eq!(cache.live_entries(), 1);
        cache.clear();
        assert_eq!(cache.live_entries(), 0);
        assert_eq!(cache.resident_bytes(), 0);
    }

    fn persist_dir(tag: &str) -> std::path::PathBuf {
        let d =
            std::env::temp_dir().join(format!("lima-cache-persist-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn warm_restart_recovers_entries_and_counts_persist_hits() {
        let dir = persist_dir("warm");
        let mkcfg = || LimaConfig {
            spill: false,
            ..LimaConfig::lima().with_persistence(&dir)
        };
        let v = mat(6);
        {
            // "First process": compute and durably persist one entry.
            let cache = LineageCache::new(mkcfg());
            match cache.acquire(&mk_item("ba+*", "X")).unwrap() {
                Probe::Reserved(r) => r.fulfill(&v, 7_000),
                Probe::Hit(_) => panic!("fresh cache"),
            }
            assert_eq!(LimaStats::get(&cache.stats().persist_writes), 1);
            assert!(LimaStats::get(&cache.stats().persist_bytes) > 0);
        }
        // "Second process": recovery repopulates the entry; the first probe
        // hits without any fulfil in this lifetime.
        let cache = LineageCache::new(mkcfg());
        assert_eq!(LimaStats::get(&cache.stats().persist_recovered), 1);
        match cache.acquire(&mk_item("ba+*", "X")).unwrap() {
            Probe::Hit(got) => {
                assert!(got.approx_eq(&v, 0.0));
            }
            Probe::Reserved(_) => panic!("expected warm-restart hit"),
        }
        assert_eq!(LimaStats::get(&cache.stats().persist_hits), 1);
        assert_eq!(LimaStats::get(&cache.stats().full_hits), 1);
        // The recovered entry keeps its persist ID: no duplicate durable
        // write when it is fulfilled again after an eviction.
        assert_eq!(LimaStats::get(&cache.stats().persist_writes), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn clear_tombstones_persisted_entries() {
        let dir = persist_dir("clear");
        let mkcfg = || LimaConfig {
            spill: false,
            ..LimaConfig::lima().with_persistence(&dir)
        };
        {
            let cache = LineageCache::new(mkcfg());
            match cache.acquire(&mk_item("ba+*", "X")).unwrap() {
                Probe::Reserved(r) => r.fulfill(&mat(4), 100),
                _ => panic!(),
            }
            cache.clear();
            assert_eq!(LimaStats::get(&cache.stats().persist_tombstones), 1);
        }
        let cache = LineageCache::new(mkcfg());
        assert_eq!(LimaStats::get(&cache.stats().persist_recovered), 0);
        assert!(matches!(
            cache.acquire(&mk_item("ba+*", "X")).unwrap(),
            Probe::Reserved(_)
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn multilevel_entries_are_not_persisted() {
        let dir = persist_dir("ml");
        {
            let cache = LineageCache::new(LimaConfig {
                spill: false,
                ..LimaConfig::lima().with_persistence(&dir)
            });
            let item = LineageItem::op_with_data(
                format!("{}f", crate::opcodes::FCALL),
                "args",
                vec![mk_item("ba+*", "X")],
            );
            match cache.acquire(&item).unwrap() {
                Probe::Reserved(r) => r.fulfill(&mat(4), 100),
                _ => panic!(),
            }
            assert_eq!(LimaStats::get(&cache.stats().persist_writes), 0);
        }
        let cache = LineageCache::new(LimaConfig::lima().with_persistence(&dir));
        assert_eq!(LimaStats::get(&cache.stats().persist_recovered), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn governor_pressure_walks_ladder_and_gates_cache_admissions() {
        use crate::governor::PressureLevel;
        // Governor budget far below the cache budget: resident bytes alone
        // drive the ladder (mat(100) ≈ 80 kB).
        let cache = LineageCache::new(cfg(1 << 20).with_governor(100_000));
        let g = cache.governor().unwrap();
        assert_eq!(g.level(), PressureLevel::Normal);
        assert!(cache.partial_reuse() && cache.rewrites_enabled());

        match cache.acquire(&mk_item("ba+*", "A")).unwrap() {
            Probe::Reserved(r) => r.fulfill(&mat(100), 1_000),
            _ => panic!(),
        }
        // 80 kB / 100 kB = 0.80 → L2: rewrites paused, admissions still open.
        assert_eq!(g.level(), PressureLevel::NoRewrites);
        assert!(!cache.partial_reuse());
        assert!(!cache.rewrites_enabled());

        match cache.acquire(&mk_item("ba+*", "B")).unwrap() {
            Probe::Reserved(r) => r.fulfill(&mat(50), 1_000),
            _ => panic!(),
        }
        // 100 kB / 100 kB → L4; misses no longer create placeholders.
        assert_eq!(g.level(), PressureLevel::RejectSessions);
        assert!(cache.acquire(&mk_item("ba+*", "C")).is_none());
        assert!(LimaStats::get(&cache.stats().governor_admission_rejects) >= 1);
        // Existing entries still serve hits at L3+.
        assert!(matches!(
            cache.acquire(&mk_item("ba+*", "A")).unwrap(),
            Probe::Hit(_)
        ));
        // Pressure release re-arms every level and counts the recoveries.
        cache.clear();
        assert_eq!(g.level(), PressureLevel::Normal);
        assert_eq!(LimaStats::get(&cache.stats().governor_degrades), 4);
        assert_eq!(LimaStats::get(&cache.stats().governor_recovers), 4);
        assert!(matches!(
            cache.acquire(&mk_item("ba+*", "C")).unwrap(),
            Probe::Reserved(_)
        ));
    }

    #[test]
    fn scrubber_yields_under_pressure_and_resumes_after_recovery() {
        use crate::governor::PressureLevel;
        let dir = persist_dir("scrubpause");
        let cache = LineageCache::new(LimaConfig {
            spill: false,
            ..LimaConfig::lima()
                .with_persistence(&dir)
                .with_governor(100_000)
        });
        match cache.acquire(&mk_item("ba+*", "X")).unwrap() {
            Probe::Reserved(r) => r.fulfill(&mat(10), 1_000),
            _ => panic!(),
        }
        // Baseline: scrubbing progresses at L0/L1.
        assert!(cache.scrub_step(0).is_some());
        let bytes_before = LimaStats::get(&cache.stats().scrub_bytes);
        assert!(bytes_before > 0);
        // Drive the governor to L2 (mat(100) ≈ 80 kB of the 100 kB budget).
        match cache.acquire(&mk_item("ba+*", "P")).unwrap() {
            Probe::Reserved(r) => r.fulfill(&mat(100), 1_000),
            _ => panic!(),
        }
        assert_eq!(cache.governor().unwrap().level(), PressureLevel::NoRewrites);
        // Scrub I/O pauses: no scrub_bytes progress until pressure recovers.
        for _ in 0..3 {
            assert!(cache.scrub_step(0).is_none());
        }
        assert_eq!(LimaStats::get(&cache.stats().scrub_bytes), bytes_before);
        assert_eq!(LimaStats::get(&cache.stats().scrub_pauses), 3);
        // Pressure release to ≤L1 resumes scrubbing.
        cache.clear();
        assert_eq!(cache.governor().unwrap().level(), PressureLevel::Normal);
        assert!(cache.scrub_step(0).is_some());
        assert!(LimaStats::get(&cache.stats().scrub_bytes) > bytes_before);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn scrub_step_repairs_corruption_via_config_hook() {
        let dir = persist_dir("scrubhook");
        let good = mat(6);
        let hook_v = good.clone();
        let config = LimaConfig {
            spill: false,
            ..LimaConfig::lima().with_persistence(&dir)
        }
        .with_repair(persist::RepairHook::new(move |_root| Ok(hook_v.clone())));
        let cache = LineageCache::new(config);
        match cache.acquire(&mk_item("ba+*", "X")).unwrap() {
            Probe::Reserved(r) => r.fulfill(&good, 1_000),
            _ => panic!(),
        }
        // Bit-flip the persisted value file.
        let victim = std::fs::read_dir(dir.join("values"))
            .unwrap()
            .flatten()
            .find(|e| e.file_name().to_string_lossy().ends_with(".val"))
            .unwrap()
            .path();
        let mut raw = std::fs::read(&victim).unwrap();
        let mid = raw.len() / 2;
        raw[mid] ^= 0x40;
        std::fs::write(&victim, &raw).unwrap();
        let out = cache.scrub_step(0).unwrap();
        assert_eq!(out.corrupt, 1);
        assert_eq!(out.repaired, 1);
        assert_eq!(out.quarantined, 0);
        assert_eq!(LimaStats::get(&cache.stats().persist_repairs), 1);
        assert_eq!(LimaStats::get(&cache.stats().scrub_corruptions), 1);
        assert_eq!(LimaStats::get(&cache.stats().persist_repair_failures), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn disk_full_degrades_cache_to_memory_only_and_counts_once() {
        use crate::faults::{FaultInjector, FaultSite};
        let dir = persist_dir("diskfull");
        let inj = Arc::new(FaultInjector::new(0).fail_every(FaultSite::DiskFull, 1));
        let config = LimaConfig {
            spill: false,
            ..LimaConfig::lima().with_persistence(&dir)
        }
        .with_faults(inj);
        let cache = LineageCache::new(config);
        match cache.acquire(&mk_item("ba+*", "X")).unwrap() {
            Probe::Reserved(r) => r.fulfill(&mat(4), 100),
            _ => panic!(),
        }
        assert_eq!(LimaStats::get(&cache.stats().persist_disk_full), 1);
        assert!(!cache.persist_active());
        assert_eq!(
            cache.persist_degrade_reason(),
            Some(persist::DegradeReason::DiskFull)
        );
        // The cache keeps serving from memory, and the degrade is counted
        // exactly once even as later fulfills skip persistence.
        assert!(matches!(
            cache.acquire(&mk_item("ba+*", "X")).unwrap(),
            Probe::Hit(_)
        ));
        match cache.acquire(&mk_item("ba+*", "Y")).unwrap() {
            Probe::Reserved(r) => r.fulfill(&mat(4), 100),
            _ => panic!(),
        }
        assert_eq!(LimaStats::get(&cache.stats().persist_disk_full), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compact_persist_reclaims_cleared_entries() {
        let dir = persist_dir("compactcache");
        let cache = LineageCache::new(LimaConfig {
            spill: false,
            ..LimaConfig::lima().with_persistence(&dir)
        });
        for s in ["A", "B", "C"] {
            match cache.acquire(&mk_item("ba+*", s)).unwrap() {
                Probe::Reserved(r) => r.fulfill(&mat(4), 100),
                _ => panic!(),
            }
        }
        cache.clear(); // tombstones all three durable entries
        let out = cache.compact_persist().unwrap();
        assert!(out.wal_bytes_after < out.wal_bytes_before);
        assert!(LimaStats::get(&cache.stats().persist_compactions) >= 1);
        assert!(LimaStats::get(&cache.stats().persist_compact_reclaimed) > 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn interrupted_waiter_unblocks_long_before_placeholder_timeout() {
        use crate::interrupt::{CancelToken, Interrupt, InterruptKind};
        let config = LimaConfig {
            placeholder_timeout_ms: 60_000,
            ..cfg(1 << 20)
        };
        let cache = LineageCache::new(config);
        let item = mk_item("ba+*", "X");
        let r = match cache.acquire(&item).unwrap() {
            Probe::Reserved(r) => r,
            _ => panic!(),
        };
        let token = CancelToken::new();
        let intr = Interrupt {
            token: Some(Arc::clone(&token)),
            deadline: None,
        };
        let c = Arc::clone(&cache);
        let it = mk_item("ba+*", "X");
        let t0 = Instant::now();
        let waiter = std::thread::spawn(move || c.acquire_interruptible(&it, Some(&intr)).err());
        std::thread::sleep(Duration::from_millis(50));
        token.cancel();
        assert_eq!(waiter.join().unwrap(), Some(InterruptKind::Cancelled));
        // Recovered in ~one wait slice, not the 60 s placeholder timeout.
        assert!(t0.elapsed() < Duration::from_secs(5));
        // The placeholder is still owned by `r`; fulfilling works normally.
        r.fulfill(&mat(3), 10);
        assert!(matches!(cache.acquire(&item).unwrap(), Probe::Hit(_)));
    }

    #[test]
    fn expired_deadline_fails_probe_instead_of_blocking() {
        use crate::interrupt::{Interrupt, InterruptKind};
        let cache = LineageCache::new(cfg(1 << 20));
        let item = mk_item("ba+*", "X");
        let _r = match cache.acquire(&item).unwrap() {
            Probe::Reserved(r) => r,
            _ => panic!(),
        };
        let intr = Interrupt {
            token: None,
            deadline: Some(Instant::now() - Duration::from_millis(1)),
        };
        assert_eq!(
            cache.acquire_interruptible(&item, Some(&intr)).err(),
            Some(InterruptKind::DeadlineExceeded)
        );
    }

    #[test]
    fn spill_breaker_half_opens_and_recovers_after_cooldown() {
        use crate::faults::{FaultInjector, FaultSite};
        // Only the very first spill write fails; breaker limit 1 opens it.
        let inj = Arc::new(FaultInjector::new(0).fail_at(FaultSite::SpillWrite, &[0]));
        let config = LimaConfig {
            budget_bytes: 100_000,
            spill: true,
            spill_failure_limit: 1,
            breaker_cooldown_ms: 50,
            // Strict eviction: exactly one entry overflows per fill, so the
            // second overflow is the post-cooldown probe.
            eviction_watermark: 1.0,
            faults: Some(Arc::clone(&inj)),
            ..LimaConfig::default()
        };
        let cache = LineageCache::new(config);
        let fill = |tag: &str, ns: u64| {
            let item = mk_item("ba+*", tag);
            match cache.acquire(&item).unwrap() {
                Probe::Reserved(r) => r.fulfill(&mat(100), ns),
                _ => panic!("fresh key"),
            }
        };
        fill("a", 60_000_000_000);
        fill("b", 120_000_000_000); // evicts "a" → injected failure → open
        assert!(cache.spill_disabled());
        assert_eq!(LimaStats::get(&cache.stats().spill_failures), 1);
        // After the cooldown the next eviction is allowed through as a probe
        // and succeeds, closing the breaker again.
        std::thread::sleep(Duration::from_millis(60));
        fill("c", 240_000_000_000);
        assert!(!cache.spill_disabled());
        assert!(LimaStats::get(&cache.stats().breaker_probes) >= 1);
        assert!(LimaStats::get(&cache.stats().spills) >= 1);
        assert!(inj.occurrences(FaultSite::SpillWrite) >= 2);
    }

    /// Fulfils the composite-then-constituent shape of a function call:
    /// the op entry is computed *inside* the composite's window.
    fn fulfill_composite_with_child(
        cache: &Arc<LineageCache>,
        f_item: &LinRef,
        op_item: &LinRef,
        op_ns: u64,
        f_ns: u64,
    ) {
        let rf = match cache.acquire(f_item).unwrap() {
            Probe::Reserved(r) => r,
            _ => panic!("composite should miss"),
        };
        let ro = match cache.acquire(op_item).unwrap() {
            Probe::Reserved(r) => r,
            _ => panic!("op should miss"),
        };
        ro.fulfill(&mat(4), op_ns);
        rf.fulfill(&mat(4), f_ns);
    }

    /// Regression (savings double-count): a multilevel hit used to credit
    /// the composite's full `compute_ns` on every probe, *and* constituent
    /// hits credited their (already included) cost again. Savings must now
    /// count each computed nanosecond at most once, in either hit order.
    #[test]
    fn saved_compute_credits_each_nanosecond_at_most_once() {
        // Composite hit first: credits its full cost (nothing credited yet),
        // then the constituent hit credits nothing more.
        let cache = LineageCache::new(cfg(1 << 24));
        let f = mk_item("fcall:f", "X");
        let op = mk_item("tsmm", "X");
        fulfill_composite_with_child(&cache, &f, &op, 2_000, 5_000);
        assert_eq!(LimaStats::get(&cache.stats().saved_compute_ns), 0);
        assert!(matches!(cache.acquire(&f), Some(Probe::Hit(_))));
        assert_eq!(LimaStats::get(&cache.stats().saved_compute_ns), 5_000);
        assert!(matches!(cache.acquire(&op), Some(Probe::Hit(_))));
        assert_eq!(LimaStats::get(&cache.stats().saved_compute_ns), 5_000);
        // Repeat hits stay flat (first-hit-only crediting).
        assert!(matches!(cache.acquire(&f), Some(Probe::Hit(_))));
        assert!(matches!(cache.acquire(&op), Some(Probe::Hit(_))));
        assert_eq!(LimaStats::get(&cache.stats().saved_compute_ns), 5_000);
        // Hit-kind counters still classify by level.
        assert_eq!(LimaStats::get(&cache.stats().multilevel_hits), 2);
        assert_eq!(LimaStats::get(&cache.stats().full_hits), 2);
    }

    #[test]
    fn saved_compute_constituent_first_then_composite_nets_out() {
        let cache = LineageCache::new(cfg(1 << 24));
        let f = mk_item("fcall:f", "X");
        let op = mk_item("tsmm", "X");
        fulfill_composite_with_child(&cache, &f, &op, 2_000, 5_000);
        // Constituent hit first: credits its own 2µs...
        assert!(matches!(cache.acquire(&op), Some(Probe::Hit(_))));
        assert_eq!(LimaStats::get(&cache.stats().saved_compute_ns), 2_000);
        // ...and the composite then credits only the 3µs remainder.
        assert!(matches!(cache.acquire(&f), Some(Probe::Hit(_))));
        assert_eq!(LimaStats::get(&cache.stats().saved_compute_ns), 5_000);
    }

    #[test]
    fn saved_compute_handles_nested_composites() {
        // g(X) nested inside f(X): f { g { op } }. Marking must recurse so a
        // later grandchild hit cannot re-credit time f already claimed.
        let cache = LineageCache::new(cfg(1 << 24));
        let f = mk_item("fcall:f", "X");
        let g = mk_item("fcall:g", "X");
        let op = mk_item("tsmm", "X");
        let rf = match cache.acquire(&f).unwrap() {
            Probe::Reserved(r) => r,
            _ => panic!(),
        };
        let rg = match cache.acquire(&g).unwrap() {
            Probe::Reserved(r) => r,
            _ => panic!(),
        };
        let ro = match cache.acquire(&op).unwrap() {
            Probe::Reserved(r) => r,
            _ => panic!(),
        };
        ro.fulfill(&mat(4), 1_000);
        rg.fulfill(&mat(4), 3_000);
        rf.fulfill(&mat(4), 9_000);
        assert!(matches!(cache.acquire(&f), Some(Probe::Hit(_))));
        assert_eq!(LimaStats::get(&cache.stats().saved_compute_ns), 9_000);
        assert!(matches!(cache.acquire(&g), Some(Probe::Hit(_))));
        assert!(matches!(cache.acquire(&op), Some(Probe::Hit(_))));
        assert_eq!(LimaStats::get(&cache.stats().saved_compute_ns), 9_000);
    }

    #[test]
    fn aborted_composite_reparents_children() {
        // f fails after its constituent was cached: the constituent's cost
        // must still be attributed (to the outer scope), and its own hits
        // credit normally, once.
        let cache = LineageCache::new(cfg(1 << 24));
        let f = mk_item("fcall:f", "X");
        let op = mk_item("tsmm", "X");
        let rf = match cache.acquire(&f).unwrap() {
            Probe::Reserved(r) => r,
            _ => panic!(),
        };
        let ro = match cache.acquire(&op).unwrap() {
            Probe::Reserved(r) => r,
            _ => panic!(),
        };
        ro.fulfill(&mat(4), 2_000);
        rf.abort();
        assert!(matches!(cache.acquire(&op), Some(Probe::Hit(_))));
        assert!(matches!(cache.acquire(&op), Some(Probe::Hit(_))));
        assert_eq!(LimaStats::get(&cache.stats().saved_compute_ns), 2_000);
    }

    #[test]
    fn cost_report_ranks_by_compute_and_carries_lineage_ids() {
        let cache = LineageCache::new(cfg(1 << 24));
        let cheap = mk_item("ba+*", "cheap");
        let costly = mk_item("tsmm", "costly");
        for (item, ns) in [(&cheap, 1_000u64), (&costly, 50_000)] {
            match cache.acquire(item).unwrap() {
                Probe::Reserved(r) => r.fulfill(&mat(4), ns),
                _ => panic!(),
            }
        }
        assert!(matches!(cache.acquire(&costly), Some(Probe::Hit(_))));
        let report = cache.cost_report(10);
        // read leaves are not cached, so exactly the two op entries appear.
        assert_eq!(report.len(), 2);
        assert_eq!(report[0].opcode, "tsmm");
        assert_eq!(report[0].compute_ns, 50_000);
        assert_eq!(report[0].hits, 1);
        assert_eq!(report[0].saved_ns, 50_000);
        assert_eq!(report[0].lineage_id, costly.id());
        assert!(report[0].resident);
        assert_eq!(report[1].opcode, "ba+*");
        assert_eq!(report[1].saved_ns, 0);
        let top1 = cache.cost_report(1);
        assert_eq!(top1.len(), 1);
        assert!(top1[0].render().contains("tsmm"));
    }

    #[test]
    fn interrupted_waiter_uncounts_itself_and_later_waiters_still_wake() {
        use crate::interrupt::{CancelToken, Interrupt, InterruptKind};
        let cache = LineageCache::new(LimaConfig {
            placeholder_timeout_ms: 60_000,
            ..cfg(1 << 20)
        });
        let reserve = |tag: &str| match cache.acquire(&mk_item("ba+*", tag)).unwrap() {
            Probe::Reserved(r) => r,
            Probe::Hit(_) => panic!("fresh key"),
        };
        let wait_until_parked = || {
            while cache.state.lock().waiters == 0 {
                std::thread::sleep(Duration::from_millis(1));
            }
        };
        // A waiter cancelled mid-wait leaves the count at 0.
        let r1 = reserve("X");
        let token = CancelToken::new();
        let intr = Interrupt {
            token: Some(Arc::clone(&token)),
            deadline: None,
        };
        let c = Arc::clone(&cache);
        let cancelled = std::thread::spawn(move || {
            c.acquire_interruptible(&mk_item("ba+*", "X"), Some(&intr))
                .err()
        });
        wait_until_parked();
        token.cancel();
        assert_eq!(cancelled.join().unwrap(), Some(InterruptKind::Cancelled));
        assert_eq!(cache.state.lock().waiters, 0);
        r1.fulfill(&mat(2), 10);
        // A later waiter on a new placeholder is woken by its fulfill, long
        // before the 60 s placeholder timeout.
        let r2 = reserve("Y");
        let c = Arc::clone(&cache);
        let t0 = Instant::now();
        let woken = std::thread::spawn(move || {
            matches!(c.acquire(&mk_item("ba+*", "Y")), Some(Probe::Hit(_)))
        });
        wait_until_parked();
        r2.fulfill(&mat(3), 10);
        assert!(
            woken.join().unwrap(),
            "the waiter must reuse the fulfilled value"
        );
        assert!(t0.elapsed() < Duration::from_secs(5));
        assert_eq!(cache.state.lock().waiters, 0);
    }

    /// A cache keyed by every node of a 200,000-deep unary chain.
    fn deep_chain_cache() -> Arc<LineageCache> {
        let cache = LineageCache::new(cfg(1 << 30));
        let mut node = LineageItem::literal("f:0");
        for _ in 0..200_000 {
            node = LineageItem::op("exp", vec![node]);
            cache.put(&node, &Value::f64(1.0), 1);
        }
        assert_eq!(LimaStats::get(&cache.stats().puts), 200_000);
        cache
    }

    #[test]
    fn dropping_a_deep_chain_cache_does_not_overflow_the_stack() {
        drop(deep_chain_cache());
    }

    #[test]
    fn clearing_a_deep_chain_cache_does_not_overflow_the_stack() {
        let cache = deep_chain_cache();
        cache.clear();
        assert_eq!(cache.live_entries(), 0);
    }

    #[test]
    fn export_bucket_caps_keep_the_most_recently_accessed_entries() {
        let cache = LineageCache::new(cfg(1 << 24));
        let items: Vec<LinRef> = ["A", "B", "C", "D", "E"]
            .iter()
            .map(|t| mk_item("ba+*", t))
            .collect();
        for item in &items {
            cache.put(item, &mat(4), 100);
        }
        // Touch B, then D: they are now the two newest accesses.
        for i in [1, 3] {
            assert!(matches!(cache.acquire(&items[i]), Some(Probe::Hit(_))));
        }
        let ids = |rows: Vec<(LinRef, Value, u64)>| -> Vec<u64> {
            rows.iter().map(|(k, _, _)| k.id()).collect()
        };
        assert_eq!(
            ids(cache.export_bucket(0, 1, 2, usize::MAX)),
            vec![items[3].id(), items[1].id()]
        );
        // A byte cap of one value keeps only the newest.
        let one = mat(4).size_in_bytes();
        assert_eq!(ids(cache.export_bucket(0, 1, 10, one)), vec![items[3].id()]);
        // Uncapped: everything, newest access first (E was put last).
        assert_eq!(
            ids(cache.export_bucket(0, 1, 10, usize::MAX)),
            [3, 1, 4, 2, 0].map(|i| items[i].id()).to_vec()
        );
    }

    #[test]
    fn failed_spill_directory_create_counts_as_a_spill_failure() {
        let mut cache = LineageCache::new(LimaConfig {
            budget_bytes: 100_000,
            spill: true,
            spill_failure_limit: 0,
            ..LimaConfig::default()
        });
        assert!(cache.spill_store.is_some(), "spill on means a store");
        let file = std::env::temp_dir().join(format!("lima-cache-file-{}", std::process::id()));
        std::fs::write(&file, b"not a directory").unwrap();
        Arc::get_mut(&mut cache).unwrap().spill_store =
            Some(SpillStore::in_dir(file.join("spill"), None));
        cache.put(&mk_item("ba+*", "hot"), &mat(100), 60_000_000_000);
        cache.put(&mk_item("ba+*", "filler"), &mat(90), 120_000_000_000);
        assert!(LimaStats::get(&cache.stats().spill_failures) >= 1);
        assert_eq!(LimaStats::get(&cache.stats().spills), 0);
        assert!(LimaStats::get(&cache.stats().evictions) >= 1);
        // The victim is a graceful miss.
        assert!(matches!(
            cache.acquire(&mk_item("ba+*", "hot")).unwrap(),
            Probe::Reserved(_)
        ));
        std::fs::remove_file(&file).unwrap();
    }

    #[test]
    fn cache_emits_obs_events_with_lineage_ids() {
        use crate::obs::EventKind;
        let obs = Arc::new(Obs::new());
        let config = LimaConfig {
            obs: Some(Arc::clone(&obs)),
            ..cfg(1 << 24)
        };
        let cache = LineageCache::new(config);
        let item = mk_item("tsmm", "X");
        match cache.acquire(&item).unwrap() {
            Probe::Reserved(r) => r.fulfill(&mat(4), 7_000),
            _ => panic!(),
        }
        assert!(matches!(cache.acquire(&item), Some(Probe::Hit(_))));
        let events = obs.events();
        let kinds: Vec<EventKind> = events.iter().map(|(_, e)| e.kind).collect();
        assert!(kinds.contains(&EventKind::CacheMiss));
        assert!(kinds.contains(&EventKind::CacheFulfill));
        assert!(kinds.contains(&EventKind::CacheHit));
        for (_, e) in &events {
            assert_eq!(e.lineage_id, item.id());
            assert_eq!(e.name.as_str(), "tsmm");
        }
        let hit = events
            .iter()
            .find(|(_, e)| e.kind == EventKind::CacheHit)
            .unwrap();
        assert_eq!(hit.1.a, 7_000); // first hit credited the full cost
    }
}
