//! Allocation budget of the reuse cache's per-instruction path.
//!
//! A counting global allocator (this file is its own test binary) checks
//! that, over a pre-hashed DAG shaped like the Fig 6(a) mini-batch script,
//! the cacheability check and a full hit allocate nothing, `height()` of an
//! item over measured inputs allocates nothing, and miss-plus-fulfill pairs
//! allocate no more than the cache map's own growth.

use lima_core::cache::Probe;
use lima_core::lineage::item::{LinRef, LineageItem};
use lima_core::{LimaConfig, LineageCache};
use lima_matrix::{DenseMatrix, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

struct Counting;

thread_local! {
    /// Allocations (including reallocations) made by this thread. Counted
    /// per thread so tests running in parallel do not see each other.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the slot is gone while a thread's TLS is torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; counting touches only a const-initialized thread-local `Cell`,
// which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` and returns its result with the allocations it made.
fn allocations<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

/// The traced items of one mini-batch iteration over the shared input `x`:
/// `B = X[beg:fin, ]`, ten `B = ((B + B) * i - B) / (i + 1)` steps, then
/// `s = s + sum(B)`. The loop-invariant `i + 1` is traced once, so every
/// item is a distinct key. Each item is hashed and measured before it is
/// returned, as the interpreter leaves them.
fn minibatch_iteration(x: &LinRef, one: &LinRef, s: &LinRef, i: usize) -> Vec<LinRef> {
    let lit = |v: usize| LineageItem::literal(format!("{v}·SCALAR·INT64·true"));
    let (beg, fin, iv) = (lit(2 * i - 1), lit(2 * i), lit(i));
    let denom = LineageItem::op("+", vec![iv.clone(), one.clone()]);
    let mut b = LineageItem::op("rightIndex", vec![x.clone(), beg, fin]);
    let mut items = vec![b.clone(), denom.clone()];
    for _ in 0..10 {
        let sum = LineageItem::op("+", vec![b.clone(), b.clone()]);
        let prod = LineageItem::op("*", vec![sum.clone(), iv.clone()]);
        let diff = LineageItem::op("-", vec![prod.clone(), b]);
        b = LineageItem::op("/", vec![diff.clone(), denom.clone()]);
        items.extend([sum, prod, diff, b.clone()]);
    }
    let total = LineageItem::op("uasum", vec![b]);
    items.push(LineageItem::op("+", vec![s.clone(), total.clone()]));
    items.push(total);
    for item in &items {
        item.hash_value();
        item.height();
    }
    items
}

fn leaves() -> (LinRef, LinRef, LinRef) {
    let x = LineageItem::op_with_data("read", "X", vec![]);
    let one = LineageItem::literal("1·SCALAR·INT64·true");
    let s = LineageItem::literal("0·SCALAR·INT64·true");
    for leaf in [&x, &one, &s] {
        leaf.hash_value();
        leaf.height();
    }
    (x, one, s)
}

/// A structurally equal copy of `item` over the same input objects, hashed
/// but with its height not yet measured: what a re-traced instruction is.
fn retrace(item: &LinRef) -> LinRef {
    let copy = LineageItem::op(item.opcode(), item.inputs().to_vec());
    copy.hash_value();
    copy
}

fn cache() -> Arc<LineageCache> {
    LineageCache::new(LimaConfig {
        budget_bytes: 1 << 30,
        ..LimaConfig::lima()
    })
}

fn value() -> Value {
    Value::matrix(DenseMatrix::filled(2, 78, 0.5))
}

#[test]
fn cacheability_check_allocates_nothing() {
    let config = LimaConfig::lima();
    let ops = [
        "+",
        "*",
        "-",
        "/",
        "uasum",
        "rightIndex",
        "read",
        "spoof3",
        "fcall:f",
    ];
    // The opcode index is built once per process, by the first lookup.
    config.is_cacheable("+");
    let (cacheable, n) = allocations(|| ops.map(|op| config.is_cacheable(op)));
    assert_eq!(n, 0, "is_cacheable allocated");
    assert_eq!(
        cacheable,
        [true, true, true, true, true, true, false, true, true]
    );
}

#[test]
fn full_hit_allocates_nothing() {
    let cache = cache();
    let (x, one, s) = leaves();
    let items = minibatch_iteration(&x, &one, &s, 1);
    let v = value();
    for item in &items {
        cache.put(item, &v, 1_000);
    }
    for item in &items {
        let probe = retrace(item);
        // First hit: credits the entry's savings.
        let (hit, n) = allocations(|| cache.acquire(&probe));
        assert!(
            matches!(hit, Some(Probe::Hit(_))),
            "{} missed",
            item.opcode()
        );
        assert_eq!(n, 0, "a first hit on {} allocated", item.opcode());
        drop(hit);
        // Repeat hit on the stored key itself.
        let (hit, n) = allocations(|| cache.acquire(item));
        assert!(matches!(hit, Some(Probe::Hit(_))));
        assert_eq!(n, 0, "a repeat hit on {} allocated", item.opcode());
    }
}

#[test]
fn height_over_measured_inputs_allocates_nothing() {
    let (x, one, s) = leaves();
    for item in minibatch_iteration(&x, &one, &s, 3) {
        let probe = retrace(&item);
        let (h, n) = allocations(|| probe.height());
        assert_eq!(n, 0, "height() of {} allocated", item.opcode());
        assert_eq!(h, item.height());
    }
}

#[test]
fn miss_and_fulfill_allocate_only_map_growth() {
    const PAIRS: usize = 10_000;
    let cache = cache();
    let (x, one, s) = leaves();
    let mut items = Vec::with_capacity(PAIRS);
    let mut i = 1;
    while items.len() < PAIRS {
        items.extend(minibatch_iteration(&x, &one, &s, i));
        i += 1;
    }
    items.truncate(PAIRS);
    let v = value();
    let ((), n) = allocations(|| {
        for item in &items {
            match cache.acquire(item) {
                Some(Probe::Reserved(r)) => r.fulfill(&v, 1_000),
                _ => panic!("{} must miss on a fresh key", item.opcode()),
            }
        }
    });
    assert!(n <= 64, "{PAIRS} miss+fulfill pairs allocated {n} times");
    assert_eq!(cache.live_entries(), PAIRS);
}
