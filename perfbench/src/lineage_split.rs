//! Lineage construction, hashing and teardown timed apart, through the
//! public `LineageItem` API, on two DAG shapes:
//!
//! * a 4096-item unary chain (the shape of the repository's
//!   `lineage_hashing` bench row, which times all three together), and
//! * the minibatch-trace shape: `B = ((B + B) * i - B) / (i + 1)` steps,
//!   binary element-wise ops whose scalar operands are literal leaves.

use crate::measure::median;
use lima_core::lineage::LinRef;
use lima_core::LineageItem;
use std::hint::black_box;
use std::time::Instant;

const CHAIN_LEN: usize = 4096;
/// minibatch steps per rep: six items each plus two shared leaves = 4094.
const DAG_STEPS: usize = 682;
const REPS: usize = 15;

/// Per-item nanoseconds for (construct, hash, drop).
pub struct Split {
    pub construct_ns: f64,
    pub hash_ns: f64,
    pub drop_ns: f64,
}

fn build_chain(leaf: &str) -> LinRef {
    let mut cur = LineageItem::literal(leaf);
    for _ in 1..CHAIN_LEN {
        cur = LineageItem::op("exp", vec![cur]);
    }
    cur
}

/// Literal texts are formatted before the clock starts, so construction
/// times item creation, not `format!`.
fn build_dag(literals: &[String]) -> LinRef {
    let one = LineageItem::literal("1·SCALAR·INT64·true");
    let mut b = LineageItem::literal("B·MATRIX·FP64");
    for lit in literals {
        let i = LineageItem::literal(lit.as_str());
        let sum = LineageItem::op("+", vec![b.clone(), b.clone()]);
        let prod = LineageItem::op("*", vec![sum, i.clone()]);
        let diff = LineageItem::op("-", vec![prod, b]);
        let denom = LineageItem::op("+", vec![i, one.clone()]);
        b = LineageItem::op("/", vec![diff, denom]);
    }
    b
}

fn time_split(items: usize, mut build: impl FnMut() -> LinRef) -> Split {
    let (mut c, mut h, mut d) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..REPS {
        let t0 = Instant::now();
        let root = black_box(build());
        let t1 = Instant::now();
        black_box(root.hash_value());
        let t2 = Instant::now();
        drop(root);
        let t3 = Instant::now();
        c.push((t1 - t0).as_nanos() as f64);
        h.push((t2 - t1).as_nanos() as f64);
        d.push((t3 - t2).as_nanos() as f64);
    }
    let per = |v: &[f64]| median(v) / items as f64;
    Split {
        construct_ns: per(&c),
        hash_ns: per(&h),
        drop_ns: per(&d),
    }
}

pub fn chain() -> Split {
    time_split(CHAIN_LEN, || build_chain("X·MATRIX·FP64"))
}

pub fn minibatch_dag() -> Split {
    let literals: Vec<String> = (1..=DAG_STEPS)
        .map(|i| format!("{i}·SCALAR·INT64·true"))
        .collect();
    let items = build_dag(&literals).dag_size();
    time_split(items, || build_dag(&literals))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_have_the_documented_sizes() {
        assert_eq!(build_chain("x").dag_size(), CHAIN_LEN);
        let lits: Vec<String> = (1..=3).map(|i| i.to_string()).collect();
        // Two shared leaves plus, per step, one literal and five ops.
        assert_eq!(build_dag(&lits).dag_size(), 2 + 3 * 6);
        let s = chain();
        assert!(s.construct_ns > 0.0 && s.hash_ns > 0.0 && s.drop_ns > 0.0);
    }
}
