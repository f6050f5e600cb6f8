//! The `limad` wire protocol: compact length-framed, checksummed messages.
//!
//! Every message is one frame:
//!
//! ```text
//! +-------+------+--------+-------------+---------+----------+
//! | magic | kind | req id | payload len | payload | checksum |
//! |  u32  |  u8  |  u64   |     u32     |  bytes  |   u64    |
//! +-------+------+--------+-------------+---------+----------+
//! ```
//!
//! The trailing FNV-1a-64 checksum covers everything before it, so a torn or
//! bit-flipped frame is always detected at the receiver and isolates to that
//! one connection — never the shard behind it. Payloads larger than the
//! receiver's frame cap are rejected *before* allocation.
//!
//! Every request carries a relative deadline (`deadline_ms`, 0 = server
//! default) and every response is a typed result: either the
//! request-specific success variant or a [`ServiceError`] with a machine
//! [`ErrorCode`] and an optional retry-after hint.

use bytes::{Buf, BufMut, BytesMut};
use lima_core::codec;
pub use lima_core::codec::fnv1a;
use lima_core::{Diagnostic, Label, Severity, Span};
use lima_matrix::Value;
use std::io::{Read, Write};

/// Frame magic: `"LMD1"`.
pub const MAGIC: u32 = 0x4C4D_4431;
/// Fixed frame header size (magic + kind + request id + payload length).
pub const HEADER_BYTES: usize = 4 + 1 + 8 + 4;
/// Trailing checksum size.
pub const TRAILER_BYTES: usize = 8;
/// Default cap on a frame payload; oversized frames are rejected with a
/// typed error before any allocation happens.
pub const MAX_FRAME_BYTES: usize = 32 * 1024 * 1024;

/// Typed failure classes carried in error responses. The same codes drive
/// `limac`/`limad` process exit codes, so scripts and CI can distinguish a
/// deadline from a cancellation from resource exhaustion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// Malformed frame or request payload (isolated to the connection).
    BadRequest,
    /// The submitted script failed to compile.
    Compile,
    /// The script failed at runtime (kernel error, undefined variable, ...).
    Runtime,
    /// The request's deadline passed before completion.
    DeadlineExceeded,
    /// The session was cancelled via its token.
    Cancelled,
    /// A quota or the resource governor rejected the admission.
    ResourceExhausted,
    /// The shard is shedding load (governor ladder L3/L4); retry after the
    /// hinted delay.
    Overloaded,
    /// Probe/fetch/cancel target not found.
    NotFound,
    /// Unexpected server-side failure.
    Internal,
}

impl ErrorCode {
    /// Stable machine-readable name (used in stderr lines and logs).
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::Compile => "compile_error",
            ErrorCode::Runtime => "runtime_error",
            ErrorCode::DeadlineExceeded => "deadline_exceeded",
            ErrorCode::Cancelled => "cancelled",
            ErrorCode::ResourceExhausted => "resource_exhausted",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::NotFound => "not_found",
            ErrorCode::Internal => "internal",
        }
    }

    /// Process exit code for CLI surfaces (`limac run`, chaos drivers):
    /// distinct nonzero codes for the interrupt family, generic `1`
    /// otherwise (`2` stays reserved for usage errors).
    pub fn exit_code(self) -> u8 {
        match self {
            ErrorCode::DeadlineExceeded => 4,
            ErrorCode::Cancelled => 5,
            ErrorCode::ResourceExhausted => 6,
            ErrorCode::Overloaded => 7,
            _ => 1,
        }
    }

    /// True when retrying the same request later may succeed without any
    /// side effect having happened (the server sheds *before* executing).
    pub fn retryable(self) -> bool {
        matches!(self, ErrorCode::Overloaded)
    }

    fn as_u8(self) -> u8 {
        match self {
            ErrorCode::BadRequest => 1,
            ErrorCode::Compile => 2,
            ErrorCode::Runtime => 3,
            ErrorCode::DeadlineExceeded => 4,
            ErrorCode::Cancelled => 5,
            ErrorCode::ResourceExhausted => 6,
            ErrorCode::Overloaded => 7,
            ErrorCode::NotFound => 8,
            ErrorCode::Internal => 9,
        }
    }

    fn from_u8(v: u8) -> Option<ErrorCode> {
        Some(match v {
            1 => ErrorCode::BadRequest,
            2 => ErrorCode::Compile,
            3 => ErrorCode::Runtime,
            4 => ErrorCode::DeadlineExceeded,
            5 => ErrorCode::Cancelled,
            6 => ErrorCode::ResourceExhausted,
            7 => ErrorCode::Overloaded,
            8 => ErrorCode::NotFound,
            9 => ErrorCode::Internal,
            _ => return None,
        })
    }
}

/// A typed error response.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceError {
    /// Machine-readable failure class.
    pub code: ErrorCode,
    /// Suggested delay before retrying (0 = no hint). Set on `Overloaded`.
    pub retry_after_ms: u64,
    /// Human-readable detail.
    pub msg: String,
    /// Source-anchored diagnostics (code, span, labels); populated on
    /// `Compile` errors so clients can render caret snippets against the
    /// script they submitted. Empty for other error classes.
    pub diagnostics: Vec<Diagnostic>,
}

impl ServiceError {
    /// An error with no attached diagnostics (every class except `Compile`).
    pub fn new(code: ErrorCode, retry_after_ms: u64, msg: impl Into<String>) -> ServiceError {
        ServiceError {
            code,
            retry_after_ms,
            msg: msg.into(),
            diagnostics: Vec::new(),
        }
    }
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code.as_str(), self.msg)
    }
}

/// Client → server messages. All execution requests carry a relative
/// `deadline_ms` propagated into the server-side session deadline.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Compile and execute a script; respond with the named output values.
    Submit {
        /// Tenant identity for quota accounting.
        tenant: String,
        /// Script source (DML subset).
        script: String,
        /// System-seed base for reproducible `rand`/`sample`.
        seed: Option<u64>,
        /// Variables to return; empty returns every scalar output.
        outputs: Vec<String>,
        /// Relative deadline in milliseconds (0 = server default).
        deadline_ms: u64,
    },
    /// Does the routed shard hold a cached value for this lineage trace?
    Probe {
        tenant: String,
        /// Serialized lineage log (`serialize_lineage` output).
        lineage: String,
        deadline_ms: u64,
    },
    /// Fetch the cached value for this lineage trace, if any.
    Fetch {
        tenant: String,
        lineage: String,
        deadline_ms: u64,
    },
    /// Cooperatively cancel a running session by server-assigned id.
    Cancel {
        /// Session id returned by a prior `Submitted` response.
        session: u64,
    },
    /// Fetch the aggregated Prometheus metrics text.
    Metrics,
    /// Liveness check.
    Ping,
    /// Admin: run one full integrity-scrub pass over every shard's
    /// persistent store, repairing or quarantining what it finds.
    Scrub,
    /// Replication: apply a batch of committed records forwarded by a peer
    /// member (best-effort write replication).
    ReplPut {
        /// The forwarded records, each individually verified on receipt.
        records: Vec<ReplRecord>,
    },
    /// Replication: return per-bucket digests of this member's replicable
    /// lineage-hash keyspace, split into `buckets` buckets.
    ReplDigest {
        /// Bucket count (`1..=MAX_REPL_BUCKETS`); both sides must use the
        /// same count for digests to be comparable.
        buckets: u32,
    },
    /// Replication: return the records whose scrambled lineage hash lands in
    /// `bucket` so the requester can repair a digest mismatch.
    ReplPull {
        /// Bucket index (`< buckets`).
        bucket: u32,
        /// Bucket count the index is relative to.
        buckets: u32,
    },
}

const K_SUBMIT: u8 = 1;
const K_PROBE: u8 = 2;
const K_FETCH: u8 = 3;
const K_CANCEL: u8 = 4;
const K_METRICS: u8 = 5;
const K_PING: u8 = 6;
const K_SCRUB: u8 = 7;
const K_REPL_PUT: u8 = 8;
const K_REPL_DIGEST: u8 = 9;
const K_REPL_PULL: u8 = 10;
const K_RESP: u8 = 0x80;
const K_ERROR: u8 = 0xFF;

/// Upper bound on the anti-entropy bucket count a peer may request; a
/// digest request outside `1..=MAX_REPL_BUCKETS` is a structural violation.
pub const MAX_REPL_BUCKETS: u32 = 4096;

/// One replicated cache record: a serialized lineage trace, the value it
/// names, and the measured compute cost (for eviction scoring on the
/// receiver). `check` is an end-to-end FNV-1a over the canonical encoding of
/// `(lineage, value)` — it survives beyond the frame checksum so a receiver
/// can detect payload corruption introduced *before* framing (a buggy peer,
/// a bit flip in the replication queue) and fall back to lineage-driven
/// recompute instead of caching bad bytes.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplRecord {
    /// `serialize_lineage` output for the value's root item.
    pub lineage: String,
    /// The cached value (matrices and scalars; lists never replicate).
    pub value: Value,
    /// Nanoseconds the value originally took to compute.
    pub compute_ns: u64,
    /// FNV-1a-64 over the encoded `(lineage, value)` pair.
    pub check: u64,
}

impl ReplRecord {
    /// A record with its integrity checksum computed from the payload.
    pub fn new(lineage: String, value: Value, compute_ns: u64) -> ReplRecord {
        let check = ReplRecord::checksum(&lineage, &value);
        ReplRecord {
            lineage,
            value,
            compute_ns,
            check,
        }
    }

    /// The canonical content checksum a receiver re-derives to verify bytes.
    pub fn checksum(lineage: &str, value: &Value) -> u64 {
        let mut buf = BytesMut::new();
        put_str(&mut buf, lineage);
        put_value(&mut buf, value);
        fnv1a(&buf)
    }

    /// True when the carried bytes still match their checksum.
    pub fn verify_bytes(&self) -> bool {
        ReplRecord::checksum(&self.lineage, &self.value) == self.check
    }
}

/// Summary of one anti-entropy bucket: how many lineage hashes landed in it
/// and their order-independent XOR fingerprint. Two members whose buckets
/// carry equal `(count, xor)` pairs hold the same keys with overwhelming
/// probability; a mismatch names exactly which bucket to pull.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BucketDigest {
    /// Number of replicable entries hashing into this bucket.
    pub count: u64,
    /// XOR of the scrambled lineage hashes in this bucket.
    pub xor: u64,
}

/// Per-shard result of an admin [`Request::Scrub`] pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardScrub {
    /// Shard index.
    pub shard: u32,
    /// Bytes re-verified during this pass.
    pub bytes: u64,
    /// Entries whose checksums were re-verified.
    pub entries: u64,
    /// Corruptions detected.
    pub corrupt: u64,
    /// Corrupt entries recomputed from lineage and re-persisted.
    pub repaired: u64,
    /// Repair attempts that failed (the entry was quarantined instead).
    pub repair_failures: u64,
    /// Entries tombstoned and moved to `quarantine/`.
    pub quarantined: u64,
    /// True when the pass covered the whole store (false = cut short by
    /// memory pressure or a degraded/disabled store).
    pub completed: bool,
}

/// Server → client messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Script ran to completion.
    Submitted {
        /// Server-assigned session id (target for `Cancel`).
        session: u64,
        /// Requested output variables and their values.
        values: Vec<(String, Value)>,
        /// Collected `print` output.
        stdout: Vec<String>,
    },
    /// Probe verdict.
    Probed {
        /// True when the routed shard holds a cached value.
        hit: bool,
    },
    /// Fetched value (`None` = cache miss).
    Fetched(Option<Value>),
    /// Cancellation verdict (`false` = no such live session).
    Cancelled {
        /// True when the session was found and its token cancelled.
        found: bool,
    },
    /// Aggregated Prometheus text exposition.
    MetricsText(String),
    /// Liveness response.
    Pong,
    /// Per-shard scrub results for an admin `Scrub` request.
    Scrubbed(Vec<ShardScrub>),
    /// Replication verdict for a `ReplPut` batch.
    ReplAck {
        /// Records applied into (or already present in) the local cache.
        applied: u32,
        /// Records rejected (bad lineage, failed verification, unrepairable).
        rejected: u32,
    },
    /// Per-bucket keyspace digests for a `ReplDigest` request.
    ReplDigests(Vec<BucketDigest>),
    /// Records served for a `ReplPull` request (size-capped; a large bucket
    /// converges over successive anti-entropy rounds).
    ReplEntries(Vec<ReplRecord>),
    /// Typed failure.
    Error(ServiceError),
}

fn put_str(buf: &mut BytesMut, s: &str) {
    buf.put_u32(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

fn get_str(buf: &mut &[u8]) -> Option<String> {
    if buf.remaining() < 4 {
        return None;
    }
    let len = buf.get_u32() as usize;
    if buf.remaining() < len {
        return None;
    }
    let (s, rest) = buf.split_at(len);
    let out = std::str::from_utf8(s).ok()?.to_string();
    *buf = rest;
    Some(out)
}

fn put_span(buf: &mut BytesMut, span: Option<Span>) {
    match span {
        Some(s) => {
            buf.put_u8(1);
            buf.put_u32(s.start);
            buf.put_u32(s.end);
        }
        None => buf.put_u8(0),
    }
}

fn get_span(buf: &mut &[u8]) -> Option<Option<Span>> {
    if buf.remaining() < 1 {
        return None;
    }
    match buf.get_u8() {
        0 => Some(None),
        1 => {
            if buf.remaining() < 8 {
                return None;
            }
            let start = buf.get_u32();
            let end = buf.get_u32();
            Some(Some(Span::new(start, end)))
        }
        _ => None,
    }
}

fn put_diag(buf: &mut BytesMut, d: &Diagnostic) {
    buf.put_u8(match d.severity {
        Severity::Error => 0,
        Severity::Warning => 1,
        Severity::Note => 2,
    });
    put_str(buf, &d.code);
    put_str(buf, &d.message);
    put_span(buf, d.primary);
    buf.put_u32(d.labels.len() as u32);
    for l in &d.labels {
        buf.put_u32(l.span.start);
        buf.put_u32(l.span.end);
        put_str(buf, &l.message);
    }
    match &d.help {
        Some(h) => {
            buf.put_u8(1);
            put_str(buf, h);
        }
        None => buf.put_u8(0),
    }
}

fn get_diag(buf: &mut &[u8]) -> Option<Diagnostic> {
    if buf.remaining() < 1 {
        return None;
    }
    let severity = match buf.get_u8() {
        0 => Severity::Error,
        1 => Severity::Warning,
        2 => Severity::Note,
        _ => return None,
    };
    let code = get_str(buf)?;
    let message = get_str(buf)?;
    let primary = get_span(buf)?;
    if buf.remaining() < 4 {
        return None;
    }
    let n = buf.get_u32() as usize;
    let mut labels = Vec::with_capacity(n.min(16));
    for _ in 0..n {
        if buf.remaining() < 8 {
            return None;
        }
        let start = buf.get_u32();
        let end = buf.get_u32();
        let message = get_str(buf)?;
        labels.push(Label {
            span: Span::new(start, end),
            message,
        });
    }
    if buf.remaining() < 1 {
        return None;
    }
    let help = match buf.get_u8() {
        0 => None,
        1 => Some(get_str(buf)?),
        _ => return None,
    };
    Some(Diagnostic {
        severity,
        code,
        message,
        primary,
        labels,
        help,
    })
}

/// Wire tag for a value the codec cannot encode (a list): it decodes as
/// absent, so a response can still mention it.
const TAG_ABSENT: u8 = 2;

/// Appends a value in the [`codec`] body encoding, or [`TAG_ABSENT`].
fn put_value(buf: &mut BytesMut, value: &Value) {
    if !codec::put_value(buf, value) {
        buf.put_u8(TAG_ABSENT);
    }
}

fn get_value(buf: &mut &[u8]) -> Option<Option<Value>> {
    if buf.first() == Some(&TAG_ABSENT) {
        buf.get_u8();
        return Some(None);
    }
    codec::get_value(buf).ok().map(Some)
}

fn put_record(buf: &mut BytesMut, r: &ReplRecord) {
    put_str(buf, &r.lineage);
    put_value(buf, &r.value);
    buf.put_u64(r.compute_ns);
    buf.put_u64(r.check);
}

fn get_record(buf: &mut &[u8]) -> Option<ReplRecord> {
    let lineage = get_str(buf)?;
    // Tag-2 (list/absent) values never replicate: structural violation here.
    let value = get_value(buf)??;
    if buf.remaining() < 16 {
        return None;
    }
    let compute_ns = buf.get_u64();
    let check = buf.get_u64();
    Some(ReplRecord {
        lineage,
        value,
        compute_ns,
        check,
    })
}

fn get_bucket_count(buf: &mut &[u8]) -> Option<u32> {
    if buf.remaining() < 4 {
        return None;
    }
    let n = buf.get_u32();
    (1..=MAX_REPL_BUCKETS).contains(&n).then_some(n)
}

impl Request {
    /// Frame kind byte plus encoded payload.
    pub fn encode(&self) -> (u8, Vec<u8>) {
        let mut buf = BytesMut::new();
        let kind = match self {
            Request::Submit {
                tenant,
                script,
                seed,
                outputs,
                deadline_ms,
            } => {
                put_str(&mut buf, tenant);
                buf.put_u64(*deadline_ms);
                match seed {
                    Some(s) => {
                        buf.put_u8(1);
                        buf.put_u64(*s);
                    }
                    None => buf.put_u8(0),
                }
                put_str(&mut buf, script);
                buf.put_u32(outputs.len() as u32);
                for o in outputs {
                    put_str(&mut buf, o);
                }
                K_SUBMIT
            }
            Request::Probe {
                tenant,
                lineage,
                deadline_ms,
            } => {
                put_str(&mut buf, tenant);
                buf.put_u64(*deadline_ms);
                put_str(&mut buf, lineage);
                K_PROBE
            }
            Request::Fetch {
                tenant,
                lineage,
                deadline_ms,
            } => {
                put_str(&mut buf, tenant);
                buf.put_u64(*deadline_ms);
                put_str(&mut buf, lineage);
                K_FETCH
            }
            Request::Cancel { session } => {
                buf.put_u64(*session);
                K_CANCEL
            }
            Request::Metrics => K_METRICS,
            Request::Ping => K_PING,
            Request::Scrub => K_SCRUB,
            Request::ReplPut { records } => {
                buf.put_u32(records.len() as u32);
                for r in records {
                    put_record(&mut buf, r);
                }
                K_REPL_PUT
            }
            Request::ReplDigest { buckets } => {
                buf.put_u32(*buckets);
                K_REPL_DIGEST
            }
            Request::ReplPull { bucket, buckets } => {
                buf.put_u32(*bucket);
                buf.put_u32(*buckets);
                K_REPL_PULL
            }
        };
        (kind, buf.to_vec())
    }

    /// Decodes a request payload; `None` on any structural violation (the
    /// server answers `BadRequest` and keeps only that connection affected).
    pub fn decode(kind: u8, payload: &[u8]) -> Option<Request> {
        let mut p = payload;
        let req = match kind {
            K_SUBMIT => {
                let tenant = get_str(&mut p)?;
                if p.remaining() < 9 {
                    return None;
                }
                let deadline_ms = p.get_u64();
                let seed = match p.get_u8() {
                    0 => None,
                    1 => {
                        if p.remaining() < 8 {
                            return None;
                        }
                        Some(p.get_u64())
                    }
                    _ => return None,
                };
                let script = get_str(&mut p)?;
                if p.remaining() < 4 {
                    return None;
                }
                let n = p.get_u32() as usize;
                let mut outputs = Vec::with_capacity(n.min(64));
                for _ in 0..n {
                    outputs.push(get_str(&mut p)?);
                }
                Request::Submit {
                    tenant,
                    script,
                    seed,
                    outputs,
                    deadline_ms,
                }
            }
            K_PROBE | K_FETCH => {
                let tenant = get_str(&mut p)?;
                if p.remaining() < 8 {
                    return None;
                }
                let deadline_ms = p.get_u64();
                let lineage = get_str(&mut p)?;
                if kind == K_PROBE {
                    Request::Probe {
                        tenant,
                        lineage,
                        deadline_ms,
                    }
                } else {
                    Request::Fetch {
                        tenant,
                        lineage,
                        deadline_ms,
                    }
                }
            }
            K_CANCEL => {
                if p.remaining() < 8 {
                    return None;
                }
                Request::Cancel {
                    session: p.get_u64(),
                }
            }
            K_METRICS => Request::Metrics,
            K_PING => Request::Ping,
            K_SCRUB => Request::Scrub,
            K_REPL_PUT => {
                if p.remaining() < 4 {
                    return None;
                }
                let n = p.get_u32() as usize;
                let mut records = Vec::with_capacity(n.min(256));
                for _ in 0..n {
                    records.push(get_record(&mut p)?);
                }
                Request::ReplPut { records }
            }
            K_REPL_DIGEST => Request::ReplDigest {
                buckets: get_bucket_count(&mut p)?,
            },
            K_REPL_PULL => {
                if p.remaining() < 8 {
                    return None;
                }
                let bucket = p.get_u32();
                let buckets = get_bucket_count(&mut p)?;
                if bucket >= buckets {
                    return None;
                }
                Request::ReplPull { bucket, buckets }
            }
            _ => return None,
        };
        (p.remaining() == 0).then_some(req)
    }
}

impl Response {
    /// Frame kind byte plus encoded payload.
    pub fn encode(&self) -> (u8, Vec<u8>) {
        let mut buf = BytesMut::new();
        let kind = match self {
            Response::Submitted {
                session,
                values,
                stdout,
            } => {
                buf.put_u64(*session);
                buf.put_u32(values.len() as u32);
                for (name, value) in values {
                    put_str(&mut buf, name);
                    put_value(&mut buf, value);
                }
                buf.put_u32(stdout.len() as u32);
                for line in stdout {
                    put_str(&mut buf, line);
                }
                K_RESP | K_SUBMIT
            }
            Response::Probed { hit } => {
                buf.put_u8(u8::from(*hit));
                K_RESP | K_PROBE
            }
            Response::Fetched(value) => {
                match value {
                    Some(v) => {
                        buf.put_u8(1);
                        put_value(&mut buf, v);
                    }
                    None => buf.put_u8(0),
                }
                K_RESP | K_FETCH
            }
            Response::Cancelled { found } => {
                buf.put_u8(u8::from(*found));
                K_RESP | K_CANCEL
            }
            Response::MetricsText(text) => {
                put_str(&mut buf, text);
                K_RESP | K_METRICS
            }
            Response::Pong => K_RESP | K_PING,
            Response::Scrubbed(reports) => {
                buf.put_u32(reports.len() as u32);
                for r in reports {
                    buf.put_u32(r.shard);
                    buf.put_u64(r.bytes);
                    buf.put_u64(r.entries);
                    buf.put_u64(r.corrupt);
                    buf.put_u64(r.repaired);
                    buf.put_u64(r.repair_failures);
                    buf.put_u64(r.quarantined);
                    buf.put_u8(u8::from(r.completed));
                }
                K_RESP | K_SCRUB
            }
            Response::ReplAck { applied, rejected } => {
                buf.put_u32(*applied);
                buf.put_u32(*rejected);
                K_RESP | K_REPL_PUT
            }
            Response::ReplDigests(digests) => {
                buf.put_u32(digests.len() as u32);
                for d in digests {
                    buf.put_u64(d.count);
                    buf.put_u64(d.xor);
                }
                K_RESP | K_REPL_DIGEST
            }
            Response::ReplEntries(records) => {
                buf.put_u32(records.len() as u32);
                for r in records {
                    put_record(&mut buf, r);
                }
                K_RESP | K_REPL_PULL
            }
            Response::Error(e) => {
                buf.put_u8(e.code.as_u8());
                buf.put_u64(e.retry_after_ms);
                put_str(&mut buf, &e.msg);
                buf.put_u32(e.diagnostics.len() as u32);
                for d in &e.diagnostics {
                    put_diag(&mut buf, d);
                }
                K_ERROR
            }
        };
        (kind, buf.to_vec())
    }

    /// Decodes a response payload; `None` on any structural violation.
    pub fn decode(kind: u8, payload: &[u8]) -> Option<Response> {
        let mut p = payload;
        let resp = match kind {
            k if k == K_RESP | K_SUBMIT => {
                if p.remaining() < 12 {
                    return None;
                }
                let session = p.get_u64();
                let n = p.get_u32() as usize;
                let mut values = Vec::with_capacity(n.min(64));
                for _ in 0..n {
                    let name = get_str(&mut p)?;
                    // Tag-2 (non-transportable) outputs decode as absent and
                    // are skipped rather than failing the whole response.
                    if let Some(v) = get_value(&mut p)? {
                        values.push((name, v));
                    }
                }
                if p.remaining() < 4 {
                    return None;
                }
                let n = p.get_u32() as usize;
                let mut stdout = Vec::with_capacity(n.min(64));
                for _ in 0..n {
                    stdout.push(get_str(&mut p)?);
                }
                Response::Submitted {
                    session,
                    values,
                    stdout,
                }
            }
            k if k == K_RESP | K_PROBE => {
                if p.remaining() < 1 {
                    return None;
                }
                Response::Probed {
                    hit: p.get_u8() != 0,
                }
            }
            k if k == K_RESP | K_FETCH => {
                if p.remaining() < 1 {
                    return None;
                }
                match p.get_u8() {
                    0 => Response::Fetched(None),
                    1 => Response::Fetched(get_value(&mut p)?),
                    _ => return None,
                }
            }
            k if k == K_RESP | K_CANCEL => {
                if p.remaining() < 1 {
                    return None;
                }
                Response::Cancelled {
                    found: p.get_u8() != 0,
                }
            }
            k if k == K_RESP | K_METRICS => Response::MetricsText(get_str(&mut p)?),
            k if k == K_RESP | K_PING => Response::Pong,
            k if k == K_RESP | K_SCRUB => {
                if p.remaining() < 4 {
                    return None;
                }
                let n = p.get_u32() as usize;
                let mut reports = Vec::with_capacity(n.min(64));
                for _ in 0..n {
                    if p.remaining() < 4 + 6 * 8 + 1 {
                        return None;
                    }
                    reports.push(ShardScrub {
                        shard: p.get_u32(),
                        bytes: p.get_u64(),
                        entries: p.get_u64(),
                        corrupt: p.get_u64(),
                        repaired: p.get_u64(),
                        repair_failures: p.get_u64(),
                        quarantined: p.get_u64(),
                        completed: p.get_u8() != 0,
                    });
                }
                Response::Scrubbed(reports)
            }
            k if k == K_RESP | K_REPL_PUT => {
                if p.remaining() < 8 {
                    return None;
                }
                Response::ReplAck {
                    applied: p.get_u32(),
                    rejected: p.get_u32(),
                }
            }
            k if k == K_RESP | K_REPL_DIGEST => {
                if p.remaining() < 4 {
                    return None;
                }
                let n = p.get_u32() as usize;
                if n > MAX_REPL_BUCKETS as usize {
                    return None;
                }
                let mut digests = Vec::with_capacity(n.min(256));
                for _ in 0..n {
                    if p.remaining() < 16 {
                        return None;
                    }
                    digests.push(BucketDigest {
                        count: p.get_u64(),
                        xor: p.get_u64(),
                    });
                }
                Response::ReplDigests(digests)
            }
            k if k == K_RESP | K_REPL_PULL => {
                if p.remaining() < 4 {
                    return None;
                }
                let n = p.get_u32() as usize;
                let mut records = Vec::with_capacity(n.min(256));
                for _ in 0..n {
                    records.push(get_record(&mut p)?);
                }
                Response::ReplEntries(records)
            }
            K_ERROR => {
                if p.remaining() < 9 {
                    return None;
                }
                let code = ErrorCode::from_u8(p.get_u8())?;
                let retry_after_ms = p.get_u64();
                let msg = get_str(&mut p)?;
                if p.remaining() < 4 {
                    return None;
                }
                let n = p.get_u32() as usize;
                let mut diagnostics = Vec::with_capacity(n.min(16));
                for _ in 0..n {
                    diagnostics.push(get_diag(&mut p)?);
                }
                Response::Error(ServiceError {
                    code,
                    retry_after_ms,
                    msg,
                    diagnostics,
                })
            }
            _ => return None,
        };
        (p.remaining() == 0).then_some(resp)
    }
}

/// Writes one frame. The caller is responsible for socket timeouts.
pub fn write_frame(
    w: &mut impl Write,
    kind: u8,
    req_id: u64,
    payload: &[u8],
) -> std::io::Result<()> {
    let mut buf = BytesMut::with_capacity(HEADER_BYTES + payload.len() + TRAILER_BYTES);
    buf.put_u32(MAGIC);
    buf.put_u8(kind);
    buf.put_u64(req_id);
    buf.put_u32(payload.len() as u32);
    buf.put_slice(payload);
    let checksum = fnv1a(&buf);
    buf.put_u64(checksum);
    w.write_all(&buf)?;
    w.flush()
}

/// Reads one frame, enforcing `max_payload` *before* allocating the body.
/// Malformed frames (bad magic, oversized, checksum mismatch) return
/// `InvalidData`; a cleanly closed peer returns `UnexpectedEof`.
pub fn read_frame(r: &mut impl Read, max_payload: usize) -> std::io::Result<(u8, u64, Vec<u8>)> {
    let bad = |msg: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string());
    let mut header = [0u8; HEADER_BYTES];
    r.read_exact(&mut header)?;
    let mut h = &header[..];
    if h.get_u32() != MAGIC {
        return Err(bad("bad frame magic"));
    }
    let kind = h.get_u8();
    let req_id = h.get_u64();
    let len = h.get_u32() as usize;
    if len > max_payload {
        return Err(bad(&format!(
            "frame payload {len} exceeds cap {max_payload}"
        )));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    let mut trailer = [0u8; TRAILER_BYTES];
    r.read_exact(&mut trailer)?;
    let mut whole = Vec::with_capacity(HEADER_BYTES + len);
    whole.extend_from_slice(&header);
    whole.extend_from_slice(&payload);
    if fnv1a(&whole) != (&trailer[..]).get_u64() {
        return Err(bad("frame checksum mismatch"));
    }
    Ok((kind, req_id, payload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lima_matrix::DenseMatrix;

    fn round_trip_req(req: Request) {
        let (kind, payload) = req.encode();
        assert_eq!(Request::decode(kind, &payload), Some(req));
    }

    fn round_trip_resp(resp: Response) {
        let (kind, payload) = resp.encode();
        assert_eq!(Response::decode(kind, &payload), Some(resp));
    }

    #[test]
    fn requests_round_trip() {
        round_trip_req(Request::Submit {
            tenant: "t0".into(),
            script: "s = sum(X);".into(),
            seed: Some(7),
            outputs: vec!["s".into(), "X".into()],
            deadline_ms: 1500,
        });
        round_trip_req(Request::Submit {
            tenant: String::new(),
            script: String::new(),
            seed: None,
            outputs: vec![],
            deadline_ms: 0,
        });
        round_trip_req(Request::Probe {
            tenant: "a".into(),
            lineage: "(1) L f:2".into(),
            deadline_ms: 9,
        });
        round_trip_req(Request::Fetch {
            tenant: "a".into(),
            lineage: "(1) L f:2".into(),
            deadline_ms: 9,
        });
        round_trip_req(Request::Cancel { session: 42 });
        round_trip_req(Request::Metrics);
        round_trip_req(Request::Ping);
        round_trip_req(Request::Scrub);
        round_trip_req(Request::ReplPut {
            records: vec![
                ReplRecord::new("(1) L f:1".into(), Value::f64(2.5), 1234),
                ReplRecord::new(
                    "(2) L f:2".into(),
                    Value::matrix(DenseMatrix::from_fn(3, 2, |i, j| (i + j) as f64)),
                    0,
                ),
            ],
        });
        round_trip_req(Request::ReplPut { records: vec![] });
        round_trip_req(Request::ReplDigest { buckets: 64 });
        round_trip_req(Request::ReplDigest { buckets: 1 });
        round_trip_req(Request::ReplPull {
            bucket: 63,
            buckets: 64,
        });
    }

    #[test]
    fn responses_round_trip() {
        round_trip_resp(Response::Submitted {
            session: 3,
            values: vec![
                ("s".into(), Value::f64(4.25)),
                (
                    "M".into(),
                    Value::matrix(DenseMatrix::from_fn(2, 3, |i, j| (i * 3 + j) as f64)),
                ),
            ],
            stdout: vec!["hello".into()],
        });
        round_trip_resp(Response::Probed { hit: true });
        round_trip_resp(Response::Fetched(Some(Value::f64(1.5))));
        round_trip_resp(Response::Fetched(None));
        round_trip_resp(Response::Cancelled { found: false });
        round_trip_resp(Response::MetricsText("lima_probes 0\n".into()));
        round_trip_resp(Response::Pong);
        round_trip_resp(Response::Scrubbed(vec![]));
        round_trip_resp(Response::Scrubbed(vec![
            ShardScrub {
                shard: 0,
                bytes: 4096,
                entries: 12,
                corrupt: 1,
                repaired: 1,
                repair_failures: 0,
                quarantined: 0,
                completed: true,
            },
            ShardScrub {
                shard: 3,
                bytes: 0,
                entries: 0,
                corrupt: 0,
                repaired: 0,
                repair_failures: 0,
                quarantined: 0,
                completed: false,
            },
        ]));
        round_trip_resp(Response::ReplAck {
            applied: 7,
            rejected: 1,
        });
        round_trip_resp(Response::ReplDigests(vec![
            BucketDigest { count: 0, xor: 0 },
            BucketDigest {
                count: 3,
                xor: 0xDEAD_BEEF,
            },
        ]));
        round_trip_resp(Response::ReplEntries(vec![ReplRecord::new(
            "(9) L f:9".into(),
            Value::f64(-1.25),
            55,
        )]));
        round_trip_resp(Response::ReplEntries(vec![]));
        round_trip_resp(Response::Error(ServiceError::new(
            ErrorCode::Overloaded,
            250,
            "shard 2 at L4",
        )));
        // Compile errors carry full source-anchored diagnostics.
        round_trip_resp(Response::Error(ServiceError {
            code: ErrorCode::Compile,
            retry_after_ms: 0,
            msg: "compile failed".into(),
            diagnostics: vec![
                Diagnostic::error("L0100", "parfor cannot run in parallel")
                    .with_span(Span::of(10, 32))
                    .with_label(Span::of(10, 16), "written here")
                    .with_help("use a plain `for` loop"),
                Diagnostic::warning("L0203", "dead store"),
            ],
        }));
    }

    #[test]
    fn frames_round_trip_and_detect_corruption() {
        let (kind, payload) = Request::Probe {
            tenant: "t".into(),
            lineage: "(1) L f:1".into(),
            deadline_ms: 100,
        }
        .encode();
        let mut wire = Vec::new();
        write_frame(&mut wire, kind, 77, &payload).unwrap();
        let (k, id, p) = read_frame(&mut &wire[..], MAX_FRAME_BYTES).unwrap();
        assert_eq!((k, id), (kind, 77));
        assert_eq!(p, payload);

        // Any single-byte flip is caught by the checksum (or the magic).
        for i in 0..wire.len() {
            let mut bent = wire.clone();
            bent[i] ^= 0x40;
            let r = read_frame(&mut &bent[..], MAX_FRAME_BYTES);
            assert!(r.is_err(), "flip at byte {i} went undetected");
        }
    }

    #[test]
    fn oversized_frames_rejected_before_allocation() {
        let mut wire = Vec::new();
        write_frame(&mut wire, K_PING, 1, &vec![0u8; 256]).unwrap();
        let err = read_frame(&mut &wire[..], 64).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("exceeds cap"));
    }

    #[test]
    fn truncated_frames_are_eof() {
        let mut wire = Vec::new();
        write_frame(&mut wire, K_PING, 1, b"abc").unwrap();
        wire.truncate(wire.len() - 3);
        let err = read_frame(&mut &wire[..], MAX_FRAME_BYTES).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn garbage_decodes_to_none_not_panic() {
        for kind in 0u8..=255 {
            let _ = Request::decode(kind, b"\x01\x02\x03");
            let _ = Response::decode(kind, b"\xFF\xFE");
        }
        assert_eq!(Request::decode(K_SUBMIT, b""), None);
        assert_eq!(
            Response::decode(K_ERROR, b"\x63\0\0\0\0\0\0\0\0\0\0\0\0"),
            None
        );
    }

    #[test]
    fn repl_payload_structural_violations_decode_to_none() {
        // Out-of-range bucket counts are rejected outright.
        assert_eq!(Request::decode(K_REPL_DIGEST, &0u32.to_be_bytes()), None);
        assert_eq!(
            Request::decode(K_REPL_DIGEST, &(MAX_REPL_BUCKETS + 1).to_be_bytes()),
            None
        );
        // A pull whose bucket index is outside the bucket count is malformed.
        let mut bad = Vec::new();
        bad.extend_from_slice(&64u32.to_be_bytes());
        bad.extend_from_slice(&64u32.to_be_bytes());
        assert_eq!(Request::decode(K_REPL_PULL, &bad), None);
        // Truncated and trailing-garbage records fail the whole frame.
        let (kind, good) = Request::ReplPut {
            records: vec![ReplRecord::new("(1) L f:1".into(), Value::f64(3.0), 9)],
        }
        .encode();
        assert_eq!(Request::decode(kind, &good[..good.len() - 1]), None);
        let mut padded = good.clone();
        padded.push(0);
        assert_eq!(Request::decode(kind, &padded), None);
        // A record carrying a non-transportable (tag-2) value is malformed.
        let mut listy = BytesMut::new();
        listy.put_u32(1);
        put_str(&mut listy, "(1) L f:1");
        listy.put_u8(2); // list tag
        listy.put_u64(0);
        listy.put_u64(0);
        assert_eq!(Request::decode(K_REPL_PUT, &listy), None);
    }

    #[test]
    fn repl_record_checksum_detects_payload_corruption() {
        let rec = ReplRecord::new("(4) L f:4".into(), Value::f64(8.5), 77);
        assert!(rec.verify_bytes());
        let mut bent = rec.clone();
        bent.value = Value::f64(8.5000001);
        assert!(!bent.verify_bytes());
        let mut bent = rec.clone();
        bent.lineage.push('x');
        assert!(!bent.verify_bytes());
        // compute_ns is metadata, not covered content.
        let mut meta = rec.clone();
        meta.compute_ns = 1;
        assert!(meta.verify_bytes());
    }

    #[test]
    fn error_codes_map_to_distinct_exit_codes() {
        assert_eq!(ErrorCode::DeadlineExceeded.exit_code(), 4);
        assert_eq!(ErrorCode::Cancelled.exit_code(), 5);
        assert_eq!(ErrorCode::ResourceExhausted.exit_code(), 6);
        assert_eq!(ErrorCode::Overloaded.exit_code(), 7);
        assert_eq!(ErrorCode::Runtime.exit_code(), 1);
        // Round-trip every code through the wire byte.
        for code in [
            ErrorCode::BadRequest,
            ErrorCode::Compile,
            ErrorCode::Runtime,
            ErrorCode::DeadlineExceeded,
            ErrorCode::Cancelled,
            ErrorCode::ResourceExhausted,
            ErrorCode::Overloaded,
            ErrorCode::NotFound,
            ErrorCode::Internal,
        ] {
            assert_eq!(ErrorCode::from_u8(code.as_u8()), Some(code));
            assert!(!code.as_str().is_empty());
        }
    }
}
