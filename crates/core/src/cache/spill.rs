//! Disk spilling of evicted cache entries (paper §4.3).
//!
//! Only matrices are spilled (scalars are too small to matter; lists are
//! dropped and recomputed). A spill file is a `LIMV` value file, the same
//! format persisted values use ([`crate::codec`]). Its trailing FNV-1a-64
//! checksum detects every single-byte corruption, so a damaged spill file
//! always restores to a clean error — never to a silently wrong matrix.
//! Spill files live in a per-process directory, created by the first spill
//! and deleted on drop, and are only read by the process that wrote them.
//!
//! A [`crate::faults::FaultInjector`] can be attached to exercise write
//! failures, read failures, and on-disk corruption deterministically.

use crate::codec::{encode_value_file, read_value_file};
use crate::faults::{FaultInjector, FaultSite};
use lima_matrix::Value;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

static NEXT_FILE_ID: AtomicU64 = AtomicU64::new(1);

/// Manages the spill directory lifecycle; files are removed on drop.
#[derive(Debug)]
pub struct SpillStore {
    dir: PathBuf,
    /// Set once the first spill has created `dir`; a store that never
    /// spills never touches the file system.
    created: AtomicBool,
    faults: Option<Arc<FaultInjector>>,
}

impl SpillStore {
    /// A store over a per-process spill directory under the system temp
    /// dir. The directory is created by the first spill, so this cannot
    /// fail; the `Result` is kept for existing callers.
    pub fn new() -> std::io::Result<Self> {
        Ok(Self::with_faults(None))
    }

    /// [`Self::new`] with an optional fault-injection harness attached.
    pub fn with_faults(faults: Option<Arc<FaultInjector>>) -> Self {
        let dir = std::env::temp_dir().join(format!(
            "lima-spill-{}-{}",
            std::process::id(),
            NEXT_FILE_ID.fetch_add(1, Ordering::Relaxed)
        ));
        Self::in_dir(dir, faults)
    }

    /// A store whose (not yet created) directory is `dir`.
    pub(crate) fn in_dir(dir: PathBuf, faults: Option<Arc<FaultInjector>>) -> Self {
        SpillStore {
            dir,
            created: AtomicBool::new(false),
            faults,
        }
    }

    /// Spills a matrix value; returns the file path and bytes written.
    /// Returns `None` for non-matrix values (they are not spillable).
    pub fn spill(&self, value: &Value) -> std::io::Result<Option<(PathBuf, usize)>> {
        let encoded = match (value, encode_value_file(value)) {
            (Value::Matrix(_), Some(encoded)) => encoded,
            _ => return Ok(None),
        };
        if let Some(f) = &self.faults {
            if f.should_fail(FaultSite::SlowSpill) {
                // Latency (not failure) injection: a degraded disk that still
                // completes writes, exercising deadline checks around I/O.
                std::thread::sleep(std::time::Duration::from_millis(
                    crate::faults::SLOW_SPILL_DELAY_MS,
                ));
            }
            if f.should_fail(FaultSite::SpillWrite) {
                return Err(FaultInjector::io_error(FaultSite::SpillWrite));
            }
        }
        // A failed create is a failed write: the caller counts it and
        // evicts by deletion. Racing first spills both create, which is
        // idempotent; the Release store pairs with the Acquire load, so a
        // spill that sees the flag runs after a completed create.
        if !self.created.load(Ordering::Acquire) {
            fs::create_dir_all(&self.dir)?;
            self.created.store(true, Ordering::Release);
        }
        let path = self.dir.join(format!(
            "e{}.bin",
            NEXT_FILE_ID.fetch_add(1, Ordering::Relaxed)
        ));
        fs::write(&path, &encoded)?;
        #[cfg(any(test, feature = "faults"))]
        if let Some(f) = &self.faults {
            if f.should_fail(FaultSite::SpillCorrupt) {
                // Flip one byte at a position derived from the injection
                // count; the damage is found at restore time, not now.
                corrupt_file(&path, f.injected(FaultSite::SpillCorrupt))?;
            }
        }
        Ok(Some((path, encoded.len())))
    }

    /// Restores a previously spilled matrix and deletes the file.
    pub fn restore(&self, path: &Path) -> std::io::Result<Value> {
        if let Some(f) = &self.faults {
            if f.should_fail(FaultSite::SpillRead) {
                return Err(FaultInjector::io_error(FaultSite::SpillRead));
            }
        }
        let value = read_value_file(path)?;
        let _ = fs::remove_file(path);
        Ok(value)
    }

    /// Removes a spill file without restoring (entry deleted while spilled).
    /// A file already removed by external cleanup (tmpwatch, a parallel
    /// clear) is not a failure; only genuinely failed removals report
    /// `false`.
    pub fn discard(&self, path: &Path) -> bool {
        match fs::remove_file(path) {
            Ok(()) => true,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => true,
            Err(_) => false,
        }
    }
}

impl Drop for SpillStore {
    fn drop(&mut self) {
        if !*self.created.get_mut() {
            return;
        }
        // The directory may already be gone (external temp cleanup); that is
        // the desired end state, not a failure worth surfacing.
        if let Err(e) = fs::remove_dir_all(&self.dir) {
            debug_assert!(
                e.kind() == std::io::ErrorKind::NotFound,
                "spill cleanup failed: {e}"
            );
        }
    }
}

/// XORs a deterministic position of the file with a nonzero mask (fault
/// injection and corruption tests). Compiled only for tests and the
/// `faults` feature: production builds carry no file-corruption helper.
#[cfg(any(test, feature = "faults"))]
pub fn corrupt_file(path: &Path, salt: u64) -> std::io::Result<()> {
    let mut raw = fs::read(path)?;
    if raw.is_empty() {
        return Ok(());
    }
    let pos = (salt as usize).wrapping_mul(0x9E37_79B9) % raw.len();
    raw[pos] ^= 0x01 | (salt as u8 & 0xFE);
    fs::write(path, raw)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::fnv1a;
    use bytes::{BufMut, BytesMut};
    use lima_matrix::DenseMatrix;

    /// A `LIMV` image with the given version and body, checksum fixed up.
    fn limv(version: u32, body: impl FnOnce(&mut BytesMut)) -> BytesMut {
        let mut buf = BytesMut::new();
        buf.put_slice(b"LIMV");
        buf.put_u32(version);
        body(&mut buf);
        let checksum = fnv1a(&buf);
        buf.put_u64(checksum);
        buf
    }

    #[test]
    fn spill_and_restore_round_trips() {
        let store = SpillStore::new().unwrap();
        let m = DenseMatrix::from_fn(13, 7, |i, j| (i * 7 + j) as f64 * 0.5 - 3.0);
        let v = Value::matrix(m.clone());
        let (path, bytes) = store.spill(&v).unwrap().unwrap();
        // magic + version + tag + rows + cols, the f64s, the checksum.
        assert_eq!(bytes, 4 + 4 + 1 + 8 + 8 + 13 * 7 * 8 + 8);
        assert_eq!(fs::read(&path).unwrap(), encode_value_file(&v).unwrap());
        let back = store.restore(&path).unwrap();
        assert!(back.as_matrix().unwrap().approx_eq(&m, 0.0));
        assert!(!path.exists(), "restore deletes the spill file");
    }

    #[test]
    fn non_matrix_values_are_not_spilled() {
        let store = SpillStore::new().unwrap();
        assert!(store.spill(&Value::f64(1.0)).unwrap().is_none());
        assert!(store.spill(&Value::list(vec![])).unwrap().is_none());
    }

    #[test]
    fn discard_removes_file() {
        let store = SpillStore::new().unwrap();
        let v = Value::matrix(DenseMatrix::zeros(2, 2));
        let (path, _) = store.spill(&v).unwrap().unwrap();
        assert!(store.discard(&path));
        assert!(!path.exists());
    }

    #[test]
    fn discard_tolerates_already_missing_files() {
        let store = SpillStore::new().unwrap();
        let v = Value::matrix(DenseMatrix::zeros(2, 2));
        let (path, _) = store.spill(&v).unwrap().unwrap();
        fs::remove_file(&path).unwrap(); // external cleanup beat us to it
        assert!(store.discard(&path), "missing file is not a failure");
        assert!(store.discard(Path::new("/nonexistent/lima/spill.bin")));
    }

    #[test]
    fn drop_tolerates_externally_removed_directory() {
        let store = SpillStore::new().unwrap();
        let v = Value::matrix(DenseMatrix::zeros(2, 2));
        store.spill(&v).unwrap();
        fs::remove_dir_all(&store.dir).unwrap();
        drop(store); // must not panic (debug_assert accepts NotFound)
    }

    #[test]
    fn corrupt_files_are_rejected() {
        let store = SpillStore::new().unwrap();
        let v = Value::matrix(DenseMatrix::zeros(4, 4));
        let (path, _) = store.spill(&v).unwrap().unwrap();
        let clean = fs::read(&path).unwrap();
        fs::write(&path, b"garbage").unwrap();
        assert!(store.restore(&path).is_err());
        // Every strict prefix of a valid file.
        for len in 0..clean.len() {
            fs::write(&path, &clean[..len]).unwrap();
            assert!(store.restore(&path).is_err(), "{len}-byte prefix");
        }
        // A 10x10 header over one f64, checksum fixed up.
        let truncated = limv(1, |buf| {
            buf.put_u8(0);
            buf.put_u64(10);
            buf.put_u64(10);
            buf.put_f64(1.0);
        });
        fs::write(&path, &truncated).unwrap();
        let err = store.restore(&path).unwrap_err();
        assert!(err.to_string().contains("truncated"), "got: {err}");
    }

    #[test]
    fn single_byte_corruption_is_always_detected() {
        let store = SpillStore::new().unwrap();
        let m = DenseMatrix::from_fn(3, 3, |i, j| (i + j) as f64);
        let (path, bytes) = store.spill(&Value::matrix(m)).unwrap().unwrap();
        let clean = fs::read(&path).unwrap();
        assert_eq!(clean.len(), bytes);
        // Every byte position, corrupted, must fail the restore.
        for pos in 0..clean.len() {
            let mut damaged = clean.clone();
            damaged[pos] ^= 0x40;
            fs::write(&path, &damaged).unwrap();
            assert!(
                store.restore(&path).is_err(),
                "corruption at byte {pos} went undetected"
            );
        }
    }

    #[test]
    fn old_format_versions_are_rejected() {
        let store = SpillStore::new().unwrap();
        let (path, _) = store
            .spill(&Value::matrix(DenseMatrix::zeros(2, 2)))
            .unwrap()
            .unwrap();
        // Structurally valid files with a wrong version (checksum fixed up).
        for version in [0, 2] {
            let file = limv(version, |buf| {
                buf.put_u8(0);
                buf.put_u64(1);
                buf.put_u64(1);
                buf.put_f64(2.0);
            });
            fs::write(&path, &file).unwrap();
            let err = store.restore(&path).unwrap_err();
            assert!(err.to_string().contains("version"), "got: {err}");
        }
    }

    #[test]
    fn injected_write_and_read_faults_surface_as_errors() {
        let inj = Arc::new(
            FaultInjector::new(0)
                .fail_at(FaultSite::SpillWrite, &[0])
                .fail_at(FaultSite::SpillRead, &[1]),
        );
        let store = SpillStore::with_faults(Some(Arc::clone(&inj)));
        let v = Value::matrix(DenseMatrix::zeros(2, 2));
        assert!(store.spill(&v).is_err(), "first write fails");
        let (path, _) = store.spill(&v).unwrap().unwrap();
        assert!(store.restore(&path).is_ok(), "first read passes");
        let (path, _) = store.spill(&v).unwrap().unwrap();
        assert!(store.restore(&path).is_err(), "second read fails");
        assert_eq!(inj.injected(FaultSite::SpillWrite), 1);
        assert_eq!(inj.injected(FaultSite::SpillRead), 1);
    }

    #[test]
    fn injected_corruption_is_caught_at_restore() {
        let inj = Arc::new(FaultInjector::new(0).fail_every(FaultSite::SpillCorrupt, 1));
        let store = SpillStore::with_faults(Some(inj));
        let v = Value::matrix(DenseMatrix::from_fn(5, 5, |i, j| (i * j) as f64));
        let (path, _) = store.spill(&v).unwrap().unwrap();
        let err = store.restore(&path).unwrap_err();
        assert!(err.to_string().contains("checksum"), "got: {err}");
    }

    #[test]
    fn a_store_that_never_spills_leaves_no_directory() {
        let store = SpillStore::new().unwrap();
        let dir = store.dir.clone();
        // Non-matrix values are not spilled, so they create nothing either.
        assert!(store.spill(&Value::f64(1.0)).unwrap().is_none());
        assert!(!dir.exists());
        drop(store);
        assert!(!dir.exists());
    }

    #[test]
    fn failed_directory_create_is_a_write_error() {
        // A directory below a regular file can never be created.
        let file = std::env::temp_dir().join(format!("lima-spill-file-{}", std::process::id()));
        fs::write(&file, b"not a directory").unwrap();
        let store = SpillStore::in_dir(file.join("spill"), None);
        let v = Value::matrix(DenseMatrix::zeros(2, 2));
        assert!(store.spill(&v).is_err());
        drop(store);
        fs::remove_file(&file).unwrap();
    }

    #[test]
    fn drop_cleans_directory() {
        let dir;
        {
            let store = SpillStore::new().unwrap();
            dir = store.dir.clone();
            let v = Value::matrix(DenseMatrix::zeros(2, 2));
            store.spill(&v).unwrap();
            assert!(dir.exists());
        }
        assert!(!dir.exists());
    }
}
