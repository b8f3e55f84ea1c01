//! Length-prefixed binary wire protocol (version 1).
//!
//! Every frame is `[u32 LE payload length][payload]`, payload capped
//! at [`MAX_PAYLOAD`] so a malicious length prefix cannot drive an
//! allocation. All integers are little-endian.
//!
//! ```text
//! query request payload (op = 1):
//!   magic  u8 = 0xCA     version u8 = 1    op u8 = 1    reserved u8
//!   k      u32           dim     u32       dim x f32 query
//!
//! insert request payload (op = 2):
//!   magic  u8 = 0xCA     version u8 = 1    op u8 = 2    reserved u8
//!   dim    u32           dim x f32 vector
//!
//! delete request payload (op = 3):
//!   magic  u8 = 0xCA     version u8 = 1    op u8 = 3    reserved u8
//!   id     u32
//!
//! query response payload:
//!   magic  u8 = 0xCA     version u8 = 1    status u8    mode u8
//!   batch_size u32       num_cta u32
//!   queue_ns   u64       e2e_ns  u64
//!   n_results  u32       n x (id u32, dist f32)
//!   msg_len    u32       msg bytes (utf-8; empty on Ok)
//!
//! mutation ack payload (answers insert/delete):
//!   magic  u8 = 0xCA     version u8 = 1    status u8    op u8
//!   value  u64           (insert: assigned id; delete: 1 = removed)
//!   msg_len u32          msg bytes (utf-8; empty on Ok)
//! ```
//!
//! The query-response layout is identical for every status;
//! rejections (overload, invalid shape, malformed frame, shutdown)
//! carry zero results, `mode = 0xFF`, and a human-readable message.
//! Mutations are answered with the compact ack frame instead — the
//! client knows which decoder to run because it knows which op it
//! sent; only frames the server cannot parse at all fall back to the
//! query-shaped malformed report (and close the connection).

use crate::batcher::{Response, ResponseMeta};
use crate::error::ServeError;
use cagra::search::planner::Mode;
use knn::topk::Neighbor;
use std::fmt;
use std::io::{Read, Write};

/// Frame magic byte.
pub const MAGIC: u8 = 0xCA;
/// Protocol version this build speaks.
pub const VERSION: u8 = 1;
/// Request opcode: single-query search.
pub const OP_QUERY: u8 = 1;
/// Request opcode: insert one vector (mutable backends).
pub const OP_INSERT: u8 = 2;
/// Request opcode: delete one id (mutable backends).
pub const OP_DELETE: u8 = 3;
/// Largest accepted payload (16 MiB — far above any valid request at
/// the dimension caps, far below an allocation hazard).
pub const MAX_PAYLOAD: usize = 1 << 24;
/// `mode` byte when no batch ran (rejections).
const MODE_NONE: u8 = 0xFF;

/// Response status byte.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Status {
    /// Served; results follow.
    Ok,
    /// Shed by admission control — back off and retry.
    Overloaded,
    /// Request shape failed validation.
    Invalid,
    /// The frame itself could not be parsed.
    Malformed,
    /// Service is shutting down.
    ShuttingDown,
    /// The backend does not implement the requested operation.
    Unsupported,
}

impl Status {
    fn to_byte(self) -> u8 {
        match self {
            Status::Ok => 0,
            Status::Overloaded => 1,
            Status::Invalid => 2,
            Status::Malformed => 3,
            Status::ShuttingDown => 4,
            Status::Unsupported => 5,
        }
    }

    fn from_byte(b: u8) -> Result<Self, ProtoError> {
        Ok(match b {
            0 => Status::Ok,
            1 => Status::Overloaded,
            2 => Status::Invalid,
            3 => Status::Malformed,
            4 => Status::ShuttingDown,
            5 => Status::Unsupported,
            other => return Err(ProtoError::Corrupt(format!("unknown status byte {other}"))),
        })
    }
}

/// What a server sent back for one request, decoded.
#[derive(Clone, Debug)]
pub struct Served {
    /// Outcome class.
    pub status: Status,
    /// The response (present exactly when `status == Ok`).
    pub response: Option<Response>,
    /// Human-readable rejection reason (empty on Ok).
    pub message: String,
}

/// Why a frame could not be produced or understood.
#[derive(Debug)]
pub enum ProtoError {
    /// Underlying socket/stream failure (includes clean EOF).
    Io(std::io::Error),
    /// Structurally invalid bytes; the message names the field.
    Corrupt(String),
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Io(e) => write!(f, "io: {e}"),
            ProtoError::Corrupt(msg) => write!(f, "malformed frame: {msg}"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<std::io::Error> for ProtoError {
    fn from(e: std::io::Error) -> Self {
        ProtoError::Io(e)
    }
}

/// Write one `[len][payload]` frame as a single write: on a socket,
/// prefix and payload sent separately leave the payload waiting on the
/// peer's delayed ACK of the prefix (Nagle), ~40 ms per frame.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> Result<(), ProtoError> {
    debug_assert!(payload.len() <= MAX_PAYLOAD);
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame)?;
    w.flush()?;
    Ok(())
}

/// Read one frame's payload, enforcing [`MAX_PAYLOAD`].
pub fn read_frame<R: Read>(r: &mut R) -> Result<Vec<u8>, ProtoError> {
    let mut len = [0u8; 4];
    r.read_exact(&mut len)?;
    let len = u32::from_le_bytes(len) as usize;
    if len > MAX_PAYLOAD {
        return Err(ProtoError::Corrupt(format!("payload length {len} exceeds {MAX_PAYLOAD}")));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(payload)
}

/// Little-endian field cursor over a payload.
struct Cursor<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], ProtoError> {
        let s =
            self.at.checked_add(n).and_then(|end| self.buf.get(self.at..end)).ok_or_else(|| {
                ProtoError::Corrupt(format!("truncated at {what} (offset {})", self.at))
            })?;
        self.at += n;
        Ok(s)
    }

    /// Fixed-size [`Cursor::take`]: the bound check above proves the
    /// slice is exactly `N` bytes, so the conversion needs no fallible
    /// `try_into`.
    fn take_arr<const N: usize>(&mut self, what: &str) -> Result<[u8; N], ProtoError> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N, what)?);
        Ok(out)
    }

    fn u8(&mut self, what: &str) -> Result<u8, ProtoError> {
        let [b] = self.take_arr(what)?;
        Ok(b)
    }

    fn u32(&mut self, what: &str) -> Result<u32, ProtoError> {
        Ok(u32::from_le_bytes(self.take_arr(what)?))
    }

    fn u64(&mut self, what: &str) -> Result<u64, ProtoError> {
        Ok(u64::from_le_bytes(self.take_arr(what)?))
    }

    fn f32(&mut self, what: &str) -> Result<f32, ProtoError> {
        Ok(f32::from_le_bytes(self.take_arr(what)?))
    }

    /// Bytes left unread — guards element counts before any
    /// count-sized allocation, so a corrupt count cannot drive one.
    fn remaining(&self) -> usize {
        self.buf.len() - self.at
    }

    fn done(&self) -> Result<(), ProtoError> {
        if self.at != self.buf.len() {
            return Err(ProtoError::Corrupt(format!(
                "{} trailing bytes after payload",
                self.buf.len() - self.at
            )));
        }
        Ok(())
    }
}

fn check_header(c: &mut Cursor<'_>) -> Result<(), ProtoError> {
    let magic = c.u8("magic")?;
    if magic != MAGIC {
        return Err(ProtoError::Corrupt(format!("bad magic {magic:#04x}")));
    }
    let version = c.u8("version")?;
    if version != VERSION {
        return Err(ProtoError::Corrupt(format!("unsupported version {version}")));
    }
    Ok(())
}

/// A decoded client request.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Single-query search.
    Query {
        /// The query vector.
        query: Vec<f32>,
        /// Neighbors requested.
        k: usize,
    },
    /// Insert one vector (mutable backends).
    Insert {
        /// The vector to add.
        vector: Vec<f32>,
    },
    /// Delete one external id (mutable backends).
    Delete {
        /// The id to tombstone.
        id: u32,
    },
}

/// Encode a query request payload.
pub fn encode_request(query: &[f32], k: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(12 + 4 * query.len());
    out.extend_from_slice(&[MAGIC, VERSION, OP_QUERY, 0]);
    out.extend_from_slice(&(k as u32).to_le_bytes());
    out.extend_from_slice(&(query.len() as u32).to_le_bytes());
    for v in query {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Encode an insert request payload.
pub fn encode_insert(vector: &[f32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + 4 * vector.len());
    out.extend_from_slice(&[MAGIC, VERSION, OP_INSERT, 0]);
    out.extend_from_slice(&(vector.len() as u32).to_le_bytes());
    for v in vector {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Encode a delete request payload.
pub fn encode_delete(id: u32) -> Vec<u8> {
    let mut out = Vec::with_capacity(8);
    out.extend_from_slice(&[MAGIC, VERSION, OP_DELETE, 0]);
    out.extend_from_slice(&id.to_le_bytes());
    out
}

/// Read a length-guarded `dim x f32` vector off the cursor.
fn take_vector(c: &mut Cursor<'_>, what: &str) -> Result<Vec<f32>, ProtoError> {
    let dim = c.u32("dim")? as usize;
    if dim.checked_mul(4).is_none_or(|bytes| bytes > c.remaining()) {
        return Err(ProtoError::Corrupt(format!("dim {dim} exceeds payload")));
    }
    let mut v = Vec::with_capacity(dim);
    for _ in 0..dim {
        v.push(c.f32(what)?);
    }
    Ok(v)
}

/// Decode any request payload.
pub fn decode_request(payload: &[u8]) -> Result<Request, ProtoError> {
    let mut c = Cursor { buf: payload, at: 0 };
    check_header(&mut c)?;
    let op = c.u8("op")?;
    c.u8("reserved")?;
    let req = match op {
        OP_QUERY => {
            let k = c.u32("k")? as usize;
            let query = take_vector(&mut c, "query component")?;
            Request::Query { query, k }
        }
        OP_INSERT => Request::Insert { vector: take_vector(&mut c, "vector component")? },
        OP_DELETE => Request::Delete { id: c.u32("id")? },
        other => return Err(ProtoError::Corrupt(format!("unknown op {other}"))),
    };
    c.done()?;
    Ok(req)
}

fn mode_to_byte(mode: Mode) -> u8 {
    match mode {
        Mode::SingleCta => 0,
        Mode::MultiCta => 1,
    }
}

/// Encode a served response.
pub fn encode_ok(resp: &Response) -> Vec<u8> {
    encode_outcome(Status::Ok, Some(resp), "")
}

/// Encode a rejection, mapping the error to its wire status.
pub fn encode_reject(err: &ServeError) -> Vec<u8> {
    encode_outcome(reject_status(err), None, &err.to_string())
}

fn reject_status(err: &ServeError) -> Status {
    match err {
        ServeError::Overloaded { .. } => Status::Overloaded,
        ServeError::Invalid(_) => Status::Invalid,
        ServeError::Unsupported(_) => Status::Unsupported,
        ServeError::ShuttingDown | ServeError::Disconnected => Status::ShuttingDown,
        ServeError::BadConfig(_) | ServeError::SpawnFailed => Status::ShuttingDown,
    }
}

/// A decoded mutation acknowledgement.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Ack {
    /// Outcome class.
    pub status: Status,
    /// The op being acknowledged ([`OP_INSERT`] or [`OP_DELETE`]).
    pub op: u8,
    /// Meaningful exactly when `status == Ok`: the assigned id for
    /// inserts, `1`/`0` (removed / not found) for deletes.
    pub value: u64,
    /// Human-readable rejection reason (empty on Ok).
    pub message: String,
}

/// Encode a mutation acknowledgement for `op` from the backend's
/// outcome.
pub fn encode_ack(op: u8, outcome: &Result<u64, ServeError>) -> Vec<u8> {
    let (status, value, message) = match outcome {
        Ok(v) => (Status::Ok, *v, String::new()),
        Err(e) => (reject_status(e), 0, e.to_string()),
    };
    let mut out = Vec::with_capacity(16 + message.len());
    out.extend_from_slice(&[MAGIC, VERSION, status.to_byte(), op]);
    out.extend_from_slice(&value.to_le_bytes());
    out.extend_from_slice(&(message.len() as u32).to_le_bytes());
    out.extend_from_slice(message.as_bytes());
    out
}

/// Decode a mutation acknowledgement.
pub fn decode_ack(payload: &[u8]) -> Result<Ack, ProtoError> {
    let mut c = Cursor { buf: payload, at: 0 };
    check_header(&mut c)?;
    let status = Status::from_byte(c.u8("status")?)?;
    let op = c.u8("op")?;
    if op != OP_INSERT && op != OP_DELETE {
        return Err(ProtoError::Corrupt(format!("ack for unknown op {op}")));
    }
    let value = c.u64("value")?;
    let msg_len = c.u32("msg_len")? as usize;
    let message = String::from_utf8(c.take(msg_len, "message")?.to_vec())
        .map_err(|_| ProtoError::Corrupt("message is not utf-8".into()))?;
    c.done()?;
    Ok(Ack { status, op, value, message })
}

/// Encode a malformed-frame report.
pub fn encode_malformed(msg: &str) -> Vec<u8> {
    encode_outcome(Status::Malformed, None, msg)
}

fn encode_outcome(status: Status, resp: Option<&Response>, message: &str) -> Vec<u8> {
    let n = resp.map_or(0, |r| r.neighbors.len());
    let mut out = Vec::with_capacity(40 + 8 * n + message.len());
    out.extend_from_slice(&[MAGIC, VERSION, status.to_byte()]);
    match resp {
        Some(r) => {
            out.push(mode_to_byte(r.meta.mode));
            out.extend_from_slice(&r.meta.batch_size.to_le_bytes());
            out.extend_from_slice(&r.meta.num_cta.to_le_bytes());
            out.extend_from_slice(&r.meta.queue_ns.to_le_bytes());
            out.extend_from_slice(&r.meta.e2e_ns.to_le_bytes());
            out.extend_from_slice(&(n as u32).to_le_bytes());
            for h in &r.neighbors {
                out.extend_from_slice(&h.id.to_le_bytes());
                out.extend_from_slice(&h.dist.to_le_bytes());
            }
        }
        None => {
            out.push(MODE_NONE);
            out.extend_from_slice(&[0u8; 24]); // batch_size, num_cta, queue_ns, e2e_ns
            out.extend_from_slice(&0u32.to_le_bytes()); // n_results
        }
    }
    out.extend_from_slice(&(message.len() as u32).to_le_bytes());
    out.extend_from_slice(message.as_bytes());
    out
}

/// Decode a response payload.
pub fn decode_response(payload: &[u8]) -> Result<Served, ProtoError> {
    let mut c = Cursor { buf: payload, at: 0 };
    check_header(&mut c)?;
    let status = Status::from_byte(c.u8("status")?)?;
    let mode = c.u8("mode")?;
    let batch_size = c.u32("batch_size")?;
    let num_cta = c.u32("num_cta")?;
    let queue_ns = c.u64("queue_ns")?;
    let e2e_ns = c.u64("e2e_ns")?;
    let n = c.u32("n_results")? as usize;
    if n.checked_mul(8).is_none_or(|bytes| bytes > c.remaining()) {
        return Err(ProtoError::Corrupt(format!("n_results {n} exceeds payload")));
    }
    let mut neighbors = Vec::with_capacity(n);
    for _ in 0..n {
        let id = c.u32("result id")?;
        let dist = c.f32("result dist")?;
        neighbors.push(Neighbor::new(id, dist));
    }
    let msg_len = c.u32("msg_len")? as usize;
    let message = String::from_utf8(c.take(msg_len, "message")?.to_vec())
        .map_err(|_| ProtoError::Corrupt("message is not utf-8".into()))?;
    c.done()?;
    let response = if status == Status::Ok {
        let mode = match mode {
            0 => Mode::SingleCta,
            1 => Mode::MultiCta,
            other => return Err(ProtoError::Corrupt(format!("unknown mode byte {other}"))),
        };
        Some(Response {
            neighbors,
            meta: ResponseMeta { batch_size, mode, num_cta, queue_ns, e2e_ns },
        })
    } else {
        None
    };
    Ok(Served { status, response, message })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trip() {
        let q = vec![1.0f32, -2.5, 3.25];
        let payload = encode_request(&q, 7);
        assert_eq!(decode_request(&payload).unwrap(), Request::Query { query: q, k: 7 });
    }

    #[test]
    fn mutation_requests_round_trip() {
        let v = vec![0.5f32, -1.5];
        assert_eq!(decode_request(&encode_insert(&v)).unwrap(), Request::Insert { vector: v });
        assert_eq!(decode_request(&encode_delete(42)).unwrap(), Request::Delete { id: 42 });
        // Unknown op is a typed error, not a panic.
        let mut p = encode_delete(1);
        p[2] = 9;
        assert!(matches!(decode_request(&p), Err(ProtoError::Corrupt(_))));
    }

    #[test]
    fn acks_round_trip_for_both_outcomes() {
        let ok = decode_ack(&encode_ack(OP_INSERT, &Ok(77))).unwrap();
        assert_eq!(
            ok,
            Ack { status: Status::Ok, op: OP_INSERT, value: 77, message: String::new() }
        );
        let rejected =
            decode_ack(&encode_ack(OP_DELETE, &Err(ServeError::Unsupported("delete")))).unwrap();
        assert_eq!(rejected.status, Status::Unsupported);
        assert_eq!(rejected.op, OP_DELETE);
        assert!(rejected.message.contains("delete"));
        // An ack must name a mutation op.
        let mut p = encode_ack(OP_INSERT, &Ok(1));
        p[3] = OP_QUERY;
        assert!(matches!(decode_ack(&p), Err(ProtoError::Corrupt(_))));
    }

    #[test]
    fn ok_response_round_trip() {
        let resp = Response {
            neighbors: vec![Neighbor::new(3, 0.5), Neighbor::new(9, 1.25)],
            meta: ResponseMeta {
                batch_size: 4,
                mode: Mode::MultiCta,
                num_cta: 16,
                queue_ns: 1234,
                e2e_ns: 5678,
            },
        };
        let served = decode_response(&encode_ok(&resp)).unwrap();
        assert_eq!(served.status, Status::Ok);
        assert!(served.message.is_empty());
        let got = served.response.unwrap();
        assert_eq!(got.neighbors, resp.neighbors);
        assert_eq!(got.meta, resp.meta);
    }

    #[test]
    fn rejection_round_trip_keeps_status_and_message() {
        let served =
            decode_response(&encode_reject(&ServeError::Overloaded { depth: 8, capacity: 8 }))
                .unwrap();
        assert_eq!(served.status, Status::Overloaded);
        assert!(served.response.is_none());
        assert!(served.message.contains("overloaded"));
        let served = decode_response(&encode_malformed("bad magic")).unwrap();
        assert_eq!(served.status, Status::Malformed);
        assert_eq!(served.message, "bad magic");
    }

    #[test]
    fn corrupt_payloads_are_typed_errors() {
        assert!(decode_request(&[]).is_err());
        let mut p = encode_request(&[1.0], 1);
        p[0] = 0x00; // magic
        assert!(matches!(decode_request(&p), Err(ProtoError::Corrupt(_))));
        let mut p = encode_request(&[1.0], 1);
        p[1] = 99; // version
        assert!(decode_request(&p).is_err());
        // Truncated query.
        let p = encode_request(&[1.0, 2.0], 1);
        assert!(decode_request(&p[..p.len() - 2]).is_err());
        // Trailing garbage.
        let mut p = encode_request(&[1.0], 1);
        p.push(0);
        assert!(decode_request(&p).is_err());
    }

    #[test]
    fn frame_io_round_trip_and_length_guard() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap(), b"hello");
        // Oversized length prefix is rejected before allocation.
        let mut bad = ((MAX_PAYLOAD + 1) as u32).to_le_bytes().to_vec();
        bad.extend_from_slice(&[0; 8]);
        assert!(matches!(read_frame(&mut &bad[..]), Err(ProtoError::Corrupt(_))));
    }
}
