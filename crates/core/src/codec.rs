//! The one value codec and the one checksum (paper §4.3). An intermediate is
//! serialized the same way whether it is spilled on eviction, persisted, or
//! fetched over the wire.
//!
//! - [`fnv1a`]: FNV-1a-64. It checksums `LIMV` files, WAL records and wire
//!   frames. Every FNV step is injective in both operands modulo 2^64, so it
//!   detects every single-byte corruption.
//! - [`put_value`] / [`get_value`]: the tagged value body, big-endian.
//!   Tag 0 is a matrix (`rows u64`, `cols u64`, then `rows * cols` `f64`s);
//!   tag 1 is a scalar (`u32` length, then its lineage literal). Lists are
//!   not encodable.
//! - [`encode_value_file`] / [`decode_value_file`]: the `LIMV` v1 value
//!   file, used by persisted values and spill files alike:
//!
//! ```text
//! +--------+---------+------+------------------------------+
//! | "LIMV" | version | body | fnv1a(everything before) u64 |
//! |  u32   | u32 = 1 |      |                              |
//! +--------+---------+------+------------------------------+
//! ```

use bytes::{Buf, BufMut};
use lima_matrix::{DenseMatrix, ScalarValue, Value};
use std::path::Path;

/// Value-file magic: "LIMV".
const VALUE_MAGIC: u32 = 0x4C49_4D56;
const VALUE_VERSION: u32 = 1;
/// Magic + version.
const HEADER_BYTES: usize = 8;
/// Trailing checksum.
const TRAILER_BYTES: usize = 8;
const TAG_MATRIX: u8 = 0;
const TAG_SCALAR: u8 = 1;

/// FNV-1a 64-bit hash of `data`.
pub fn fnv1a(data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Appends the tagged body of `value`. Returns `false`, having written
/// nothing, when the value is a list.
#[must_use]
pub fn put_value(buf: &mut impl BufMut, value: &Value) -> bool {
    match value {
        Value::Matrix(m) => {
            buf.put_u8(TAG_MATRIX);
            buf.put_u64(m.rows() as u64);
            buf.put_u64(m.cols() as u64);
            for &v in m.data() {
                buf.put_f64(v);
            }
        }
        Value::Scalar(s) => {
            let lit = s.lineage_literal();
            buf.put_u8(TAG_SCALAR);
            buf.put_u32(lit.len() as u32);
            buf.put_slice(lit.as_bytes());
        }
        Value::List(_) => return false,
    }
    true
}

/// Consumes one tagged value body from the front of `buf`.
pub fn get_value(buf: &mut &[u8]) -> Result<Value, String> {
    if buf.remaining() < 1 {
        return Err("missing value tag".into());
    }
    match buf.get_u8() {
        TAG_MATRIX => {
            if buf.remaining() < 16 {
                return Err("truncated matrix header".into());
            }
            let rows = buf.get_u64() as usize;
            let cols = buf.get_u64() as usize;
            let n = rows
                .checked_mul(cols)
                .filter(|n| n.checked_mul(8).is_some_and(|b| b <= buf.remaining()))
                .ok_or("truncated matrix")?;
            let data = (0..n).map(|_| buf.get_f64()).collect();
            DenseMatrix::new(rows, cols, data)
                .map(Value::matrix)
                .map_err(|e| e.to_string())
        }
        TAG_SCALAR => {
            if buf.remaining() < 4 {
                return Err("truncated scalar header".into());
            }
            let len = buf.get_u32() as usize;
            if buf.remaining() < len {
                return Err("truncated scalar".into());
            }
            let lit = std::str::from_utf8(buf.take_bytes(len)).map_err(|_| "scalar not UTF-8")?;
            ScalarValue::from_lineage_literal(lit)
                .map(Value::Scalar)
                .ok_or_else(|| "bad scalar literal".into())
        }
        tag => Err(format!("unknown value tag {tag}")),
    }
}

/// Encodes `value` as a `LIMV` v1 value file; `None` for a list.
pub fn encode_value_file(value: &Value) -> Option<Vec<u8>> {
    let mut buf = Vec::with_capacity(match value {
        Value::Matrix(m) => HEADER_BYTES + 17 + m.len() * 8 + TRAILER_BYTES,
        _ => 0,
    });
    buf.put_u32(VALUE_MAGIC);
    buf.put_u32(VALUE_VERSION);
    if !put_value(&mut buf, value) {
        return None;
    }
    let checksum = fnv1a(&buf);
    buf.put_u64(checksum);
    Some(buf)
}

/// Verifies and decodes a `LIMV` image written by [`encode_value_file`].
pub fn decode_value_file(raw: &[u8]) -> Result<Value, String> {
    if raw.len() < HEADER_BYTES + 1 + TRAILER_BYTES {
        return Err("value file too short".into());
    }
    let (body, mut trailer) = raw.split_at(raw.len() - TRAILER_BYTES);
    if fnv1a(body) != trailer.get_u64() {
        return Err("value file checksum mismatch".into());
    }
    let mut buf = body;
    if buf.get_u32() != VALUE_MAGIC {
        return Err("bad value file magic".into());
    }
    let version = buf.get_u32();
    if version != VALUE_VERSION {
        return Err(format!("unsupported value format version {version}"));
    }
    let value = get_value(&mut buf)?;
    if !buf.is_empty() {
        return Err("trailing bytes after value".into());
    }
    Ok(value)
}

/// Reads and verifies a `LIMV` file; a file that fails verification is an
/// `InvalidData` error.
pub fn read_value_file(path: &Path) -> std::io::Result<Value> {
    let raw = std::fs::read(path)?;
    decode_value_file(&raw).map_err(|msg| std::io::Error::new(std::io::ErrorKind::InvalidData, msg))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mat() -> Value {
        Value::matrix(DenseMatrix::from_fn(3, 2, |i, j| (i * 2 + j) as f64 - 2.5))
    }

    #[test]
    fn value_files_round_trip_matrices_and_scalars() {
        for v in [mat(), Value::f64(-0.125), Value::i64(7), Value::str("é ✓")] {
            let raw = encode_value_file(&v).unwrap();
            assert_eq!(decode_value_file(&raw), Ok(v));
        }
        assert_eq!(encode_value_file(&mat()).unwrap().len(), 8 + 17 + 6 * 8 + 8);
        assert!(encode_value_file(&Value::list(vec![])).is_none());
    }

    #[test]
    fn lists_write_nothing() {
        let mut buf = Vec::new();
        assert!(!put_value(&mut buf, &Value::list(vec![mat()])));
        assert!(buf.is_empty());
    }

    #[test]
    fn get_value_consumes_exactly_one_body() {
        let mut buf = Vec::new();
        assert!(put_value(&mut buf, &mat()));
        assert!(put_value(&mut buf, &Value::f64(1.5)));
        let mut cur = &buf[..];
        assert_eq!(get_value(&mut cur), Ok(mat()));
        assert_eq!(get_value(&mut cur), Ok(Value::f64(1.5)));
        assert!(cur.is_empty());
        for cut in 0..17 + 6 * 8 {
            let mut short = &buf[..cut];
            assert!(get_value(&mut short).is_err(), "prefix of {cut} bytes");
        }
    }
}
