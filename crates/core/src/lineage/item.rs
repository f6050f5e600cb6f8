//! Lineage items and lineage DAGs (paper §3.1, Definition 1).
//!
//! A lineage item consists of an ID, an opcode, an ordered list of input
//! lineage items, an optional data string, and a memoized hash. Leaf nodes
//! are literals or matrix-creation operations (`read`, `rand`); inner nodes
//! are executed operations. The DAG is immutable, which lets hashes be cached
//! once computed.
//!
//! Two concerns from the paper shape this module:
//!
//! * **Large DAGs** — hashing, equality, and traversal are all implemented
//!   non-recursively (explicit stacks plus memo tables), because loop-heavy
//!   programs produce DAGs whose height far exceeds any sane stack budget.
//! * **Deduplication** — a [`LineageKind::Dedup`] item stands for a whole
//!   *lineage patch* applied to its inputs. Its hash is defined to equal the
//!   hash of the expanded sub-DAG, and equality resolves dedup items on
//!   demand, so deduplicated and plain traces compare as equivalent
//!   (paper §3.2, "Operations on Deduplicated Graphs").

use crate::lineage::dedup::DedupPatch;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Shared reference to an immutable lineage item.
pub type LinRef = Arc<LineageItem>;

static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// What kind of node a lineage item is.
#[derive(Debug, Clone)]
pub enum LineageKind {
    /// A literal constant; `data` holds the type-tagged encoding.
    Literal,
    /// A regular operation (including creation ops like `read`/`rand`, whose
    /// parameters — notably system-generated seeds — live in `data`).
    Op,
    /// A placeholder leaf inside a dedup or fused-operator patch; the payload
    /// is the input slot index.
    Placeholder(u32),
    /// A deduplicated sub-DAG: applying `patch` to this item's inputs yields
    /// the represented computation. `data` holds the patch output name.
    Dedup(Arc<DedupPatch>),
}

/// A node in a lineage DAG. See module docs.
///
/// ```
/// use lima_core::lineage::item::{lineage_eq, LineageItem};
///
/// // Two independently built but structurally equal traces of (X + X) * 2.
/// let build = || {
///     let x = LineageItem::op_with_data("read", "X.csv", vec![]);
///     let s = LineageItem::op("+", vec![x.clone(), x]);
///     LineageItem::op("*", vec![s, LineageItem::literal("f:2")])
/// };
/// let (a, b) = (build(), build());
/// assert_eq!(a.hash_value(), b.hash_value());
/// assert!(lineage_eq(&a, &b));
/// ```
pub struct LineageItem {
    id: u64,
    opcode: Box<str>,
    data: Option<Box<str>>,
    inputs: Box<[LinRef]>,
    kind: LineageKind,
    hash: OnceLock<u64>,
    /// Memoized DAG height (leaf distance), used by the DAG-Height eviction
    /// policy; cached so registering deep traces stays O(1) amortized.
    height: OnceLock<u32>,
    /// Shape of the (matrix) value this item produced, registered by the
    /// runtime after execution. Rewrites use it to size compensation plans;
    /// it does not participate in hashing or equality.
    shape: OnceLock<(usize, usize)>,
    /// Memoized expansion of a dedup item into a plain sub-DAG (only used on
    /// the rare equality paths that must resolve the patch).
    expanded: OnceLock<LinRef>,
}

impl Drop for LineageItem {
    fn drop(&mut self) {
        // Deep traces (hundreds of thousands of chained items) would blow the
        // stack under the default recursive drop; detach children iteratively.
        let mut stack: Vec<LinRef> = std::mem::take(&mut self.inputs).into_vec();
        while let Some(item) = stack.pop() {
            if let Some(mut inner) = Arc::into_inner(item) {
                stack.extend(std::mem::take(&mut inner.inputs).into_vec());
                if let Some(exp) = inner.expanded.take() {
                    stack.push(exp);
                }
            }
        }
    }
}

impl std::fmt::Debug for LineageItem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({}) {}", self.id, self.opcode)?;
        if let Some(d) = &self.data {
            write!(f, " [{d}]")?;
        }
        if !self.inputs.is_empty() {
            write!(
                f,
                " <- {:?}",
                self.inputs.iter().map(|i| i.id).collect::<Vec<_>>()
            )?;
        }
        Ok(())
    }
}

impl LineageItem {
    fn alloc(
        opcode: impl Into<Box<str>>,
        data: Option<Box<str>>,
        inputs: Vec<LinRef>,
        kind: LineageKind,
    ) -> LinRef {
        Arc::new(LineageItem {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            opcode: opcode.into(),
            data,
            inputs: inputs.into_boxed_slice(),
            kind,
            hash: OnceLock::new(),
            height: OnceLock::new(),
            shape: OnceLock::new(),
            expanded: OnceLock::new(),
        })
    }

    /// Creates a literal leaf from its type-tagged encoding
    /// (see `ScalarValue::lineage_literal`).
    pub fn literal(encoded: impl Into<Box<str>>) -> LinRef {
        Self::alloc(
            crate::opcodes::LITERAL,
            Some(encoded.into()),
            Vec::new(),
            LineageKind::Literal,
        )
    }

    /// Creates a regular operation node.
    pub fn op(opcode: impl Into<Box<str>>, inputs: Vec<LinRef>) -> LinRef {
        Self::alloc(opcode, None, inputs, LineageKind::Op)
    }

    /// Creates a regular operation node with a data payload (creation
    /// parameters, slicing bounds, captured seeds, ...).
    pub fn op_with_data(
        opcode: impl Into<Box<str>>,
        data: impl Into<Box<str>>,
        inputs: Vec<LinRef>,
    ) -> LinRef {
        Self::alloc(opcode, Some(data.into()), inputs, LineageKind::Op)
    }

    /// Creates a placeholder leaf for patch input slot `slot`.
    pub fn placeholder(slot: u32) -> LinRef {
        Self::alloc(
            crate::opcodes::PLACEHOLDER,
            None,
            Vec::new(),
            LineageKind::Placeholder(slot),
        )
    }

    /// Creates a dedup item standing for `patch` applied to `inputs`;
    /// `output` selects which patch root this item represents.
    pub fn dedup(patch: Arc<DedupPatch>, output: &str, inputs: Vec<LinRef>) -> LinRef {
        Self::alloc(
            crate::opcodes::DEDUP,
            Some(output.into()),
            inputs,
            LineageKind::Dedup(patch),
        )
    }

    /// Unique node ID (process-wide).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Opcode string.
    pub fn opcode(&self) -> &str {
        &self.opcode
    }

    /// Optional data payload.
    pub fn data(&self) -> Option<&str> {
        self.data.as_deref()
    }

    /// Ordered input items.
    pub fn inputs(&self) -> &[LinRef] {
        &self.inputs
    }

    /// Node kind.
    pub fn kind(&self) -> &LineageKind {
        &self.kind
    }

    /// True for leaves (literals, placeholders, and zero-input creations).
    pub fn is_leaf(&self) -> bool {
        self.inputs.is_empty()
    }

    /// Registers the shape of the produced matrix value (idempotent).
    pub fn set_shape(&self, rows: usize, cols: usize) {
        let _ = self.shape.set((rows, cols));
    }

    /// Shape registered by the runtime, if any.
    pub fn shape(&self) -> Option<(usize, usize)> {
        self.shape.get().copied()
    }

    /// Memoized structural hash. Dedup items hash as their expansion would,
    /// computed parametrically over the patch (without materializing it).
    ///
    /// Fast path: on the instruction hot path every input is a previously
    /// hashed item or leaf, so the node hashes locally with no traversal
    /// stack and no allocation. The iterative post-order walk only runs for
    /// DAGs with genuinely unhashed interior nodes (deserialized traces,
    /// hand-built probes).
    pub fn hash_value(self: &Arc<Self>) -> u64 {
        if let Some(h) = self.hash.get() {
            return *h;
        }
        if self.inputs_hashed() {
            let h = self.compute_local_hash();
            let _ = self.hash.set(h);
            return h;
        }
        let mut stack: Vec<LinRef> = Vec::new();
        hash_into(self, &mut stack);
        // The walk hashed every reachable node, including `self`.
        self.hash
            .get()
            .copied()
            .unwrap_or_else(|| self.compute_local_hash())
    }

    /// True when every immediate input already carries a memoized hash.
    #[inline]
    fn inputs_hashed(&self) -> bool {
        self.inputs.iter().all(|i| i.hash.get().is_some())
    }

    /// Hash of this node assuming all inputs are hashed. For dedup items,
    /// walks the patch body with placeholder slots bound to input hashes.
    fn compute_local_hash(&self) -> u64 {
        match &self.kind {
            LineageKind::Dedup(patch) => {
                let env: Vec<u64> = self
                    .inputs
                    .iter()
                    .map(|i| i.hash.get().copied().unwrap_or_else(|| i.hash_value()))
                    .collect();
                let output = self.data.as_deref().unwrap_or("");
                patch.parametric_hash(output, &env)
            }
            LineageKind::Placeholder(slot) => {
                // Placeholders only get hashed when a patch body is hashed
                // directly (e.g. when serializing patches); they hash on slot.
                let mut h = FxHasher::default();
                h.write_u64(0x9e3779b97f4a7c15);
                h.write_u64(u64::from(*slot));
                h.finish()
            }
            _ => {
                // Nearly every op has <= 8 inputs; hash through an inline
                // buffer so the per-instruction path allocates nothing.
                const INLINE: usize = 8;
                if self.inputs.len() <= INLINE {
                    let mut buf = [0u64; INLINE];
                    for (slot, i) in buf.iter_mut().zip(self.inputs.iter()) {
                        *slot = i.hash.get().copied().unwrap_or_else(|| i.hash_value());
                    }
                    hash_parts(
                        &self.opcode,
                        self.data.as_deref(),
                        &buf[..self.inputs.len()],
                    )
                } else {
                    let input_hashes: Vec<u64> = self
                        .inputs
                        .iter()
                        .map(|i| i.hash.get().copied().unwrap_or_else(|| i.hash_value()))
                        .collect();
                    hash_parts(&self.opcode, self.data.as_deref(), &input_hashes)
                }
            }
        }
    }

    /// Expands a dedup item into a plain sub-DAG over this item's inputs.
    /// Plain items expand to themselves. The expansion is memoized.
    pub fn resolve(self: &Arc<Self>) -> LinRef {
        match &self.kind {
            LineageKind::Dedup(patch) => Arc::clone(self.expanded.get_or_init(|| {
                let output = self.data.as_deref().unwrap_or("");
                patch.expand(output, &self.inputs)
            })),
            _ => Arc::clone(self),
        }
    }

    /// Number of reachable nodes (dedup items count as single nodes —
    /// this is the *deduplicated* size reported in Fig 6(b)).
    pub fn dag_size(self: &Arc<Self>) -> usize {
        let mut seen = std::collections::HashSet::new();
        let mut stack = vec![Arc::clone(self)];
        while let Some(n) = stack.pop() {
            if seen.insert(n.id) {
                stack.extend(n.inputs.iter().cloned());
            }
        }
        seen.len()
    }

    /// Height of the DAG (leaf distance), used by the DAG-Height eviction
    /// policy. Computed iteratively and memoized per node, so repeated calls
    /// on growing traces stay O(1) amortized.
    ///
    /// Fast path: when every input's height is memoized (the instruction hot
    /// path, where inputs are earlier outputs), the node is measured locally
    /// without a traversal stack.
    pub fn height(self: &Arc<Self>) -> u32 {
        if let Some(h) = self.height.get() {
            return *h;
        }
        let local = self
            .inputs
            .iter()
            .try_fold(0u32, |h, i| i.height.get().map(|ih| h.max(ih + 1)));
        if let Some(h) = local {
            let _ = self.height.set(h);
            return h;
        }
        let mut stack: Vec<LinRef> = vec![Arc::clone(self)];
        while let Some(top) = stack.last() {
            if top.height.get().is_some() {
                stack.pop();
                continue;
            }
            let pending: Vec<LinRef> = top
                .inputs
                .iter()
                .filter(|i| i.height.get().is_none())
                .cloned()
                .collect();
            if pending.is_empty() {
                let h = top
                    .inputs
                    .iter()
                    .map(|i| i.height.get().copied().unwrap_or_else(|| i.height()) + 1)
                    .max()
                    .unwrap_or(0);
                let _ = top.height.set(h);
                stack.pop();
            } else {
                stack.extend(pending);
            }
        }
        // The loop measured every reachable node, including `self`.
        self.height.get().copied().unwrap_or(0)
    }

    /// Approximate in-memory size of the DAG in bytes (Fig 6(b)).
    pub fn dag_bytes(self: &Arc<Self>) -> usize {
        let mut seen = std::collections::HashSet::new();
        let mut stack = vec![Arc::clone(self)];
        let mut bytes = 0usize;
        while let Some(n) = stack.pop() {
            if seen.insert(n.id) {
                bytes += std::mem::size_of::<LineageItem>()
                    + n.opcode.len()
                    + n.data.as_deref().map_or(0, str::len)
                    + n.inputs.len() * std::mem::size_of::<LinRef>();
                stack.extend(n.inputs.iter().cloned());
            }
        }
        bytes
    }

    /// Nodes of the DAG in topological order (inputs before consumers),
    /// computed iteratively. Dedup items are *not* expanded.
    pub fn topo_order(self: &Arc<Self>) -> Vec<LinRef> {
        let mut order = Vec::new();
        let mut state: HashMap<u64, bool> = HashMap::new(); // false=open, true=done
        let mut stack: Vec<LinRef> = vec![Arc::clone(self)];
        while let Some(top) = stack.last() {
            if state.get(&top.id) == Some(&true) {
                stack.pop();
                continue;
            }
            if state.get(&top.id) == Some(&false) {
                state.insert(top.id, true);
                order.push(Arc::clone(top));
                stack.pop();
                continue;
            }
            state.insert(top.id, false);
            let pending: Vec<LinRef> = top
                .inputs
                .iter()
                .filter(|i| state.get(&i.id) != Some(&true))
                .cloned()
                .collect();
            stack.extend(pending);
        }
        order
    }
}

/// Hashes every unhashed node reachable from `root`, reusing `stack` as the
/// traversal scratch. Iterative post-order: inputs are hashed before parents.
fn hash_into(root: &LinRef, stack: &mut Vec<LinRef>) {
    if root.hash.get().is_some() {
        return;
    }
    stack.push(Arc::clone(root));
    while let Some(top) = stack.last() {
        if top.hash.get().is_some() {
            stack.pop();
            continue;
        }
        let top = Arc::clone(top);
        let before = stack.len();
        for i in top.inputs.iter() {
            if i.hash.get().is_none() {
                stack.push(Arc::clone(i));
            }
        }
        if stack.len() == before {
            let h = top.compute_local_hash();
            let _ = top.hash.set(h);
            stack.pop();
        }
    }
}

/// Hashes a run of lineage roots in one pass, sharing a single traversal
/// stack across the whole batch. The interpreter collects the items traced in
/// a basic block and flushes them here at the block boundary, so the
/// per-instruction observation path pays one FNV round-trip per *block*
/// instead of one allocation-bearing round-trip per instruction. Roots whose
/// inputs are already memoized (the common case: an instruction's inputs are
/// earlier outputs) hash locally without touching the stack at all.
///
/// Returns the number of roots that were actually hashed by this call (the
/// rest were already memoized); callers feed it into the
/// `hash_batch_items` statistic.
pub fn hash_batch(roots: &[LinRef]) -> usize {
    let mut stack: Vec<LinRef> = Vec::new();
    let mut hashed = 0usize;
    for r in roots {
        if r.hash.get().is_some() {
            continue;
        }
        hashed += 1;
        if r.inputs_hashed() {
            let h = r.compute_local_hash();
            let _ = r.hash.set(h);
        } else {
            hash_into(r, &mut stack);
        }
    }
    hashed
}

/// Structural equality of two lineage DAGs, resolving dedup items on demand.
/// Iterative with a memo set of already-matched node pairs; cheap hash
/// pruning short-circuits the common mismatch case.
pub fn lineage_eq(a: &LinRef, b: &LinRef) -> bool {
    if Arc::ptr_eq(a, b) {
        return true;
    }
    if a.hash_value() != b.hash_value() {
        return false;
    }
    if same_node_over_shared_inputs(a, b) {
        return true;
    }
    let mut matched: std::collections::HashSet<(u64, u64)> = std::collections::HashSet::new();
    let mut stack: Vec<(LinRef, LinRef)> = vec![(Arc::clone(a), Arc::clone(b))];
    while let Some((x, y)) = stack.pop() {
        if Arc::ptr_eq(&x, &y) || !matched.insert((x.id, y.id)) {
            continue;
        }
        // Resolve dedup items so plain and deduplicated traces compare equal.
        let (x, y) = (x.resolve(), y.resolve());
        if Arc::ptr_eq(&x, &y) {
            continue;
        }
        if x.opcode != y.opcode || x.data != y.data || x.inputs.len() != y.inputs.len() {
            return false;
        }
        if let (LineageKind::Placeholder(sx), LineageKind::Placeholder(sy)) = (&x.kind, &y.kind) {
            if sx != sy {
                return false;
            }
        }
        for (ix, iy) in x.inputs.iter().zip(y.inputs.iter()) {
            if ix.hash_value() != iy.hash_value() {
                return false;
            }
            stack.push((Arc::clone(ix), Arc::clone(iy)));
        }
    }
    true
}

/// Allocation-free equality for the common probe shape: two plain nodes
/// with equal opcode, data and slot whose inputs are pairwise the same
/// objects (a re-traced instruction over the same live variables). Dedup
/// items never take this path; they must be resolved to compare.
fn same_node_over_shared_inputs(a: &LineageItem, b: &LineageItem) -> bool {
    let same_kind = match (&a.kind, &b.kind) {
        (LineageKind::Op, LineageKind::Op) | (LineageKind::Literal, LineageKind::Literal) => true,
        (LineageKind::Placeholder(x), LineageKind::Placeholder(y)) => x == y,
        _ => false,
    };
    same_kind
        && a.opcode == b.opcode
        && a.data == b.data
        && a.inputs.len() == b.inputs.len()
        && a.inputs
            .iter()
            .zip(b.inputs.iter())
            .all(|(x, y)| Arc::ptr_eq(x, y))
}

/// Hash-map key wrapper giving [`LinRef`] value semantics: hashes by the
/// memoized structural hash and compares with [`lineage_eq`].
#[derive(Clone, Debug)]
pub struct LinKey(pub LinRef);

impl PartialEq for LinKey {
    fn eq(&self, other: &Self) -> bool {
        lineage_eq(&self.0, &other.0)
    }
}
impl Eq for LinKey {}
impl Hash for LinKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.0.hash_value());
    }
}

/// FxHash-style fast hasher: lineage hashing is hot (every instruction hashes
/// one node) and does not need DoS resistance.
#[derive(Default)]
pub struct FxHasher {
    state: u64,
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // One mix round per 8-byte word instead of per byte. The trailing
        // partial word is zero-padded, so the length is mixed in last to keep
        // "ab" and "ab\0" distinct.
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            let mut w = [0u8; 8];
            w.copy_from_slice(c);
            self.write_u64(u64::from_le_bytes(w));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut w = [0u8; 8];
            w[..rem.len()].copy_from_slice(rem);
            self.write_u64(u64::from_le_bytes(w));
        }
        self.write_u64(bytes.len() as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.state = (self.state.rotate_left(5) ^ v).wrapping_mul(SEED);
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.write_u64(u64::from(v));
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
}

/// `BuildHasher` plugging [`FxHasher`] into `HashMap`. Used for the
/// variable/literal interning maps on the per-instruction path, which do not
/// need DoS resistance.
#[derive(Default, Clone, Copy, Debug)]
pub struct FxBuildHasher;

impl std::hash::BuildHasher for FxBuildHasher {
    type Hasher = FxHasher;

    #[inline]
    fn build_hasher(&self) -> FxHasher {
        FxHasher::default()
    }
}

/// Combines opcode, data, and input hashes into a node hash.
/// The paper notes hash collisions from integer overflow on long repetitive
/// traces; the rotate-multiply mix plus a length salt avoids the classic
/// `31*h + x` degeneracies.
pub fn hash_parts(opcode: &str, data: Option<&str>, input_hashes: &[u64]) -> u64 {
    let mut h = FxHasher::default();
    h.write(opcode.as_bytes());
    h.write_u8(0xfe);
    if let Some(d) = data {
        h.write(d.as_bytes());
    }
    h.write_u8(0xfd);
    h.write_usize(input_hashes.len());
    for &ih in input_hashes {
        h.write_u64(ih);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_and_increasing() {
        let a = LineageItem::literal("i:1");
        let b = LineageItem::literal("i:1");
        assert!(b.id() > a.id());
    }

    #[test]
    fn structurally_equal_dags_hash_and_compare_equal() {
        let build = || {
            let x = LineageItem::op_with_data("read", "X.csv", vec![]);
            let y = LineageItem::op_with_data("read", "y.csv", vec![]);
            let s = LineageItem::op("+", vec![x.clone(), y]);
            LineageItem::op("*", vec![s.clone(), s])
        };
        let a = build();
        let b = build();
        assert_eq!(a.hash_value(), b.hash_value());
        assert!(lineage_eq(&a, &b));
    }

    #[test]
    fn different_opcode_data_or_inputs_compare_unequal() {
        let x = LineageItem::op_with_data("read", "X.csv", vec![]);
        let y = LineageItem::op_with_data("read", "y.csv", vec![]);
        assert!(!lineage_eq(&x, &y));
        let a = LineageItem::op("+", vec![x.clone(), y.clone()]);
        let b = LineageItem::op("-", vec![x.clone(), y.clone()]);
        assert!(!lineage_eq(&a, &b));
        // Input order matters (ordered list of inputs).
        let c = LineageItem::op("+", vec![y, x]);
        assert!(!lineage_eq(&a, &c));
    }

    #[test]
    fn deep_chain_hashing_does_not_overflow_stack() {
        let mut node = LineageItem::literal("f:0");
        for _ in 0..200_000 {
            node = LineageItem::op("+", vec![node]);
        }
        // Must not stack-overflow and must terminate.
        let h = node.hash_value();
        assert_ne!(h, 0);
        assert_eq!(node.dag_size(), 200_001);
        assert_eq!(node.height(), 200_000);
    }

    #[test]
    fn deep_equal_chains_compare_without_recursion() {
        let build = |n: usize| {
            let mut node = LineageItem::literal("f:0");
            for _ in 0..n {
                node = LineageItem::op("+", vec![node]);
            }
            node
        };
        let a = build(50_000);
        let b = build(50_000);
        assert!(lineage_eq(&a, &b));
        let c = build(50_001);
        assert!(!lineage_eq(&a, &c));
    }

    #[test]
    fn shared_subgraphs_counted_once() {
        let x = LineageItem::literal("f:1");
        let a = LineageItem::op("+", vec![x.clone(), x.clone()]);
        let b = LineageItem::op("*", vec![a.clone(), a]);
        assert_eq!(b.dag_size(), 3);
        assert_eq!(b.height(), 2);
    }

    #[test]
    fn topo_order_puts_inputs_first() {
        let x = LineageItem::literal("f:1");
        let y = LineageItem::op("exp", vec![x.clone()]);
        let z = LineageItem::op("+", vec![x.clone(), y.clone()]);
        let order = z.topo_order();
        let pos = |n: &LinRef| order.iter().position(|o| o.id() == n.id()).unwrap();
        assert!(pos(&x) < pos(&y));
        assert!(pos(&y) < pos(&z));
        assert_eq!(order.len(), 3);
    }

    #[test]
    fn shape_registration_is_idempotent() {
        let x = LineageItem::literal("f:1");
        assert_eq!(x.shape(), None);
        x.set_shape(3, 4);
        x.set_shape(9, 9); // ignored
        assert_eq!(x.shape(), Some((3, 4)));
    }

    #[test]
    #[allow(clippy::mutable_key_type)] // OnceLock caches never change Hash/Eq
    fn lin_key_value_semantics() {
        let mut map = std::collections::HashMap::new();
        let a = LineageItem::op("+", vec![LineageItem::literal("i:1")]);
        let b = LineageItem::op("+", vec![LineageItem::literal("i:1")]);
        map.insert(LinKey(a), 1);
        assert_eq!(map.get(&LinKey(b)), Some(&1));
    }

    #[test]
    fn chunked_writes_distinguish_zero_padded_tails() {
        // `write` zero-pads the trailing partial word, so the length mix must
        // keep "abc" and "abc\0" (and empty vs "\0") distinct.
        let h = |bytes: &[u8]| {
            let mut f = FxHasher::default();
            f.write(bytes);
            f.finish()
        };
        assert_ne!(h(b"abc"), h(b"abc\0"));
        assert_ne!(h(b""), h(b"\0"));
        assert_ne!(h(b"12345678"), h(b"12345678\0"));
        assert_ne!(h(b"0123456789abcdef"), h(b"0123456789abcdeF"));
    }

    #[test]
    fn hash_batch_matches_individual_hashing() {
        let build = || {
            let x = LineageItem::op_with_data("read", "X.csv", vec![]);
            let s = LineageItem::op("+", vec![x.clone(), x]);
            LineageItem::op("*", vec![s.clone(), LineageItem::literal("f:2")])
        };
        let a = build();
        let b = build();
        // Batch-hash one copy, hash the other individually: same values.
        assert_eq!(hash_batch(std::slice::from_ref(&a)), 1);
        assert_eq!(a.hash_value(), b.hash_value());
        // Second flush over the same roots finds everything memoized.
        assert_eq!(hash_batch(std::slice::from_ref(&a)), 0);
    }

    #[test]
    fn hash_batch_handles_deep_chains_and_shared_prefixes() {
        // A batch shaped like a traced block: each root extends the previous
        // one, so all but the first hash through the local fast path.
        let mut node = LineageItem::literal("f:0");
        let mut roots = Vec::new();
        for _ in 0..100 {
            node = LineageItem::op("+", vec![node.clone()]);
            roots.push(node.clone());
        }
        assert_eq!(hash_batch(&roots), 100);
        // Deep unhashed chain under a single root must not overflow the stack.
        let mut deep = LineageItem::literal("f:1");
        for _ in 0..100_000 {
            deep = LineageItem::op("+", vec![deep]);
        }
        assert_eq!(hash_batch(std::slice::from_ref(&deep)), 1);
        assert_eq!(deep.dag_size(), 100_001);
    }

    #[test]
    fn hash_distinguishes_repetitive_structures() {
        // Regression guard for the paper's footnote on collisions in long
        // repeated traces: slightly different repetition counts must differ.
        let build = |n: usize| {
            let mut node = LineageItem::literal("f:1");
            for _ in 0..n {
                node = LineageItem::op("+", vec![node.clone(), node]);
            }
            node
        };
        let h1 = build(30).hash_value();
        let h2 = build(31).hash_value();
        assert_ne!(h1, h2);
    }
}
