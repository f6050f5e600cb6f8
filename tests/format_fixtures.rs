//! Format fixtures written by the build before values, checksums and JSON
//! moved into `lima_core::codec` and `lima_core::json`: `LIMV` value files,
//! a second-generation WAL, two wire frames and a diagnostics JSON array
//! (see `tests/fixtures/formats/README.md`). Each fixture must decode to the
//! value it was written from and re-encode byte-identically, so no persisted
//! or wire byte can drift. The builders below are the ones that wrote them.

use lima_client::proto::{read_frame, write_frame, ReplRecord, Request, Response, MAX_FRAME_BYTES};
use lima_core::cache::persist::PersistentCacheStore;
use lima_core::codec::{decode_value_file, encode_value_file};
use lima_core::lineage::item::lineage_eq;
use lima_core::lineage::serialize_lineage;
use lima_core::{
    diagnostics_from_json, diagnostics_to_json, Diagnostic, LinRef, LineageItem, Span,
};
use lima_matrix::{DenseMatrix, Value};
use std::path::{Path, PathBuf};

/// Request id written into both frame fixtures.
const REQ_ID: u64 = 0x0102_0304_0506_0708;

fn item(seed: &str) -> LinRef {
    LineageItem::op(
        "ba+*",
        vec![LineageItem::op_with_data("read", seed, vec![])],
    )
}

/// A 3x4 matrix whose cells exercise sign, fraction and exponent bytes.
fn matrix() -> Value {
    Value::matrix(DenseMatrix::from_fn(3, 4, |i, j| match (i, j) {
        (0, 0) => -0.0,
        (2, 3) => 1.0e300,
        (1, 1) => f64::MIN_POSITIVE,
        _ => (i * 4 + j) as f64 * 0.75 - 2.5,
    }))
}

/// A string scalar with multi-byte UTF-8, so its length prefix counts bytes.
fn scalar() -> Value {
    Value::str("héllo, lineage ✓")
}

/// The value of the WAL fixture's live entry.
fn wal_value() -> Value {
    Value::matrix(DenseMatrix::from_fn(2, 3, |i, j| (i * 3 + j) as f64 - 1.5))
}

/// Writes one matrix and one scalar through the persistent store; they land
/// in `values/v1.val` and `values/v2.val`.
fn write_value_files(dir: &Path) {
    let (store, _, _) = PersistentCacheStore::open(dir, 0, None).expect("store opens");
    store.persist(&item("m"), &matrix(), 1).unwrap().unwrap();
    store.persist(&item("s"), &scalar(), 2).unwrap().unwrap();
}

/// Drives a store through two WAL generations: puts 1 and 2, tombstone 1,
/// compaction into generation 1 (rewriting put 2), put 3, tombstone 2. The
/// result is `manifest.1.wal` (put 2, put 3, tombstone 2) and `values/v3.val`.
fn write_wal_store(dir: &Path) {
    let (store, _, _) = PersistentCacheStore::open(dir, 0, None).expect("store opens");
    store.persist(&item("a"), &matrix(), 111).unwrap().unwrap();
    store.persist(&item("b"), &scalar(), 222).unwrap().unwrap();
    assert!(store.tombstone(1).unwrap());
    assert_eq!(store.compact().unwrap().generation, 1);
    store
        .persist(&item("c"), &wal_value(), 333)
        .unwrap()
        .unwrap();
    assert!(store.tombstone(2).unwrap());
}

fn fetch_response() -> Response {
    Response::Fetched(Some(matrix()))
}

fn repl_put() -> Request {
    Request::ReplPut {
        records: vec![
            ReplRecord::new(serialize_lineage(&item("a")), matrix(), 4242),
            ReplRecord::new(serialize_lineage(&item("b")), scalar(), 17),
        ],
    }
}

fn frame((kind, payload): (u8, Vec<u8>)) -> Vec<u8> {
    let mut out = Vec::new();
    write_frame(&mut out, kind, REQ_ID, &payload).unwrap();
    out
}

fn diagnostics() -> Vec<Diagnostic> {
    vec![
        Diagnostic::error("L0100", "parfor writes \"acc\"\tacross iterations")
            .with_span(Span::of(12, 30))
            .with_label(Span::of(40, 43), "second write here")
            .with_help("use a per-iteration result"),
        Diagnostic::warning("L0204", "variable ünïcode shadows loop var \u{1}")
            .with_span(Span::of(3, 9)),
        Diagnostic::note("L0206", "constant trip count\\n"),
    ]
}

fn fixtures() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/formats")
}

fn read(name: &str) -> Vec<u8> {
    std::fs::read(fixtures().join(name)).unwrap_or_else(|e| panic!("{name}: {e}"))
}

fn fresh_temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lima-format-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Splits a frame fixture into (kind, payload) and checks its request id.
fn unframe(raw: &[u8]) -> (u8, Vec<u8>) {
    let (kind, req_id, payload) = read_frame(&mut &raw[..], MAX_FRAME_BYTES).unwrap();
    assert_eq!(req_id, REQ_ID);
    (kind, payload)
}

// Serialized lineage carries item IDs from a process-wide counter, so the
// builders run first and in the order that wrote the fixtures, and this is
// the only test in the file.
#[test]
fn parent_build_fixtures_decode_and_reencode_byte_identically() {
    let values_dir = fresh_temp_dir("values");
    write_value_files(&values_dir);
    let wal_dir = fresh_temp_dir("wal-rewrite");
    write_wal_store(&wal_dir);
    let expected_repl_put = repl_put();

    // LIMV value files: the codec round trip and the persist write path.
    for (name, written, expected) in [
        ("limv_matrix.val", "v1.val", matrix()),
        ("limv_scalar.val", "v2.val", scalar()),
    ] {
        let raw = read(name);
        let value = decode_value_file(&raw).unwrap();
        assert_eq!(value, expected, "{name}");
        assert_eq!(encode_value_file(&value).unwrap(), raw, "{name}");
        let path = values_dir.join("values").join(written);
        assert_eq!(std::fs::read(path).unwrap(), raw, "{name}");
    }
    std::fs::remove_dir_all(&values_dir).unwrap();

    // The same operations write the WAL again byte for byte, and the
    // fixture recovers to its one live entry.
    for name in ["manifest.1.wal", "values/v3.val"] {
        let rewritten = std::fs::read(wal_dir.join(name)).unwrap();
        assert_eq!(rewritten, read(&format!("wal/{name}")), "{name}");
    }
    std::fs::remove_dir_all(&wal_dir).unwrap();
    let dir = fresh_temp_dir("wal");
    std::fs::create_dir_all(dir.join("values")).unwrap();
    for name in ["manifest.1.wal", "values/v3.val"] {
        std::fs::copy(fixtures().join("wal").join(name), dir.join(name)).unwrap();
    }
    assert!(!lima_core::fsck(&dir).has_corruption());
    let (_store, recovered, report) = PersistentCacheStore::open(&dir, 0, None).unwrap();
    assert_eq!(
        (report.generation, report.recovered, report.dropped),
        (1, 1, 0)
    );
    assert!(!report.torn_tail_truncated);
    let entry = &recovered[0];
    assert_eq!((entry.persist_id, entry.compute_ns), (3, 333));
    assert!(lineage_eq(&entry.root, &item("c")));
    assert_eq!(entry.value, wal_value());
    std::fs::remove_dir_all(&dir).unwrap();

    // Wire frames.
    let raw = read("fetch_response.frame");
    let (kind, payload) = unframe(&raw);
    let resp = Response::decode(kind, &payload).unwrap();
    assert_eq!(resp, fetch_response());
    assert_eq!(frame(resp.encode()), raw);
    let raw = read("repl_put.frame");
    let (kind, payload) = unframe(&raw);
    let req = Request::decode(kind, &payload).unwrap();
    assert_eq!(req, expected_repl_put);
    let Request::ReplPut { records } = &req else {
        unreachable!()
    };
    assert!(records.iter().all(ReplRecord::verify_bytes));
    assert_eq!(frame(req.encode()), raw);

    // Diagnostics JSON.
    let raw = String::from_utf8(read("diagnostics.json")).unwrap();
    let diags = diagnostics_from_json(&raw).unwrap();
    assert_eq!(diags, diagnostics());
    assert_eq!(diagnostics_to_json(&diags), raw);
}
