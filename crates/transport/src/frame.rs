//! The wire protocol between coordinator and workers: length-prefixed
//! frames over any [`crate::Stream`] (Unix socket or TCP), hand-rolled
//! and dependency-free.
//!
//! ```text
//! [u32 LE payload length][u8 kind][payload]
//! ```
//!
//! Payload integers are little-endian; byte strings are `u32`
//! length-prefixed. The protocol is strictly request/response-free at the
//! frame layer — sequencing lives in the coordinator's phase machine —
//! so a frame needs no correlation header beyond the task id the pass
//! frames carry.
//!
//! Version 2 adds a shared-secret auth digest to both handshake frames
//! (see [`crate::join_auth`]/[`crate::plan_auth`]) and the
//! content-addressed segment-shipping frames (`SegHave`/`SegManifest`/
//! `SegData`), for workers with no shared filesystem view of the corpus.
//!
//! Version 3 changes two payload layouts: the `Plan` config drops its
//! `parallel` flag (a thread count of 1 now means sequential), and the
//! `Pass` task drops its per-pass thread count.
//!
//! Version 4 changes what two payloads mean: pushed segment partials
//! (`XSP2`) number value classes in document order, and relation-pass keys
//! and the forest fingerprint in the handshake are word-wise digests.
//!
//! Version 5 lets the coordinator send `Plan` again between requests, on a
//! live connection, after the corpus changed; the worker refreshes its
//! document view and acks as in the first handshake. `Pass` carries the
//! discovery configuration of the request it belongs to, and the batched
//! `ForestShip` push is gone: partials travel as `Push` frames only.

use std::io::{self, Read, Write};

/// Protocol version, checked in the `Join` handshake. Bump on any frame
/// layout change, including the layouts of the `Plan` config and `Pass`
/// task payloads.
pub const PROTOCOL_VERSION: u32 = 5;

/// Hard cap on one frame's payload (a partial of a very large segment
/// stays far below this); anything bigger is a protocol violation, not an
/// allocation request.
const MAX_PAYLOAD: usize = 1 << 30;

/// One protocol frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// Worker → coordinator, first frame on the socket.
    Join {
        /// Must equal [`PROTOCOL_VERSION`].
        version: u32,
        /// The `--index` the worker was spawned with (0 for remote
        /// workers, which the coordinator slots by connection order).
        index: u32,
        /// [`crate::join_auth`] of the worker's token; the coordinator
        /// recomputes it from its own token and rejects mismatches.
        auth: u128,
    },
    /// Coordinator → worker: the job description, first in the handshake
    /// and again whenever the corpus changed between requests. The worker
    /// (re)reads its read-only view of `corpus_dir` (or receives shipped
    /// segments), re-derives the plan fingerprint and must come to the
    /// same answer.
    Plan {
        /// The coordinator's plan fingerprint.
        plan_fp: u128,
        /// [`crate::plan_auth`] of the coordinator's token; the worker
        /// refuses to serve a coordinator whose digest mismatches.
        auth: u128,
        /// Corpus directory to open read-only.
        corpus_dir: String,
        /// `discoverxfd::encode_config` bytes.
        config: Vec<u8>,
    },
    /// Worker → coordinator: the plan fingerprint the worker derived.
    PlanAck {
        /// The worker's independently derived fingerprint.
        plan_fp: u128,
    },
    /// Worker → coordinator, instead of an immediate `PlanAck`: the
    /// corpus directory is not reachable from this host; here is what my
    /// content-addressed segment cache already holds. The coordinator
    /// answers with `SegManifest` and the missing `SegData` frames.
    SegHave {
        /// Segment content digests present in the worker's local cache.
        digests: Vec<u128>,
    },
    /// Coordinator → worker: the corpus's per-document segment digests,
    /// ingest order, duplicates preserved — the complete recipe for
    /// reassembling the coordinator's document view.
    SegManifest {
        /// Per-document segment digests.
        digests: Vec<u128>,
    },
    /// Coordinator → worker: one segment the worker's cache lacks. The
    /// worker verifies `bytes` against `digest` before trusting it.
    SegData {
        /// Segment content digest (FNV-1a over `bytes`).
        digest: u128,
        /// The segment's tuple-block bytes, exactly as stored.
        bytes: Vec<u8>,
    },
    /// Coordinator → worker: build the partial of the segment with this
    /// digest.
    Encode {
        /// Segment content digest.
        digest: u128,
    },
    /// Worker → coordinator: an encoded [`xfd_relation::SegmentPartial`].
    /// Empty `bytes` signals the worker could not build it.
    Partial {
        /// Segment content digest.
        digest: u128,
        /// `xfd_relation::encode_partial` bytes.
        bytes: Vec<u8>,
    },
    /// Coordinator → worker: a partial some *other* worker (or the
    /// coordinator's cache) built, so this worker need not re-encode it.
    Push {
        /// Segment content digest.
        digest: u128,
        /// `xfd_relation::encode_partial` bytes.
        bytes: Vec<u8>,
    },
    /// Coordinator → worker: merge the forest from partials, in this
    /// exact per-document digest order, and fingerprint it.
    Build {
        /// The coordinator's forest fingerprint; the worker must match it.
        forest_fp: u128,
        /// Per-document segment digests, duplicates preserved.
        digests: Vec<u128>,
    },
    /// Worker → coordinator: the merged forest's fingerprint (0 when the
    /// worker's document view disagreed with the `Build` order).
    ForestAck {
        /// The worker's forest fingerprint.
        forest_fp: u128,
    },
    /// Coordinator → worker: run one relation pass.
    Pass {
        /// Correlation id, unique per cluster run.
        task_id: u64,
        /// `discoverxfd::encode_config` bytes of the configuration the
        /// pass runs under (the request's, not the handshake's).
        config: Vec<u8>,
        /// `discoverxfd::WaveTask` bytes.
        task: Vec<u8>,
    },
    /// Worker → coordinator: a relation pass answer. Empty `output`
    /// signals failure; the coordinator recomputes locally.
    TaskResult {
        /// Correlation id from the `Pass` frame.
        task_id: u64,
        /// `RelationOutput` wire bytes.
        output: Vec<u8>,
    },
    /// Coordinator → worker heartbeat probe.
    Ping,
    /// Worker → coordinator heartbeat answer.
    Pong,
    /// Coordinator → worker: drain and exit cleanly.
    Shutdown,
    /// Worker → coordinator: a non-fatal worker-side failure report.
    WorkerError {
        /// Human-readable description.
        message: String,
    },
}

const K_JOIN: u8 = 1;
const K_PLAN: u8 = 2;
const K_PLAN_ACK: u8 = 3;
const K_ENCODE: u8 = 4;
const K_PARTIAL: u8 = 5;
const K_PUSH: u8 = 6;
const K_BUILD: u8 = 7;
const K_FOREST_ACK: u8 = 8;
const K_PASS: u8 = 9;
const K_TASK_RESULT: u8 = 10;
const K_PING: u8 = 11;
const K_PONG: u8 = 12;
const K_SHUTDOWN: u8 = 13;
const K_WORKER_ERROR: u8 = 14;
const K_SEG_HAVE: u8 = 15;
const K_SEG_MANIFEST: u8 = 16;
const K_SEG_DATA: u8 = 17;

fn proto_err(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("protocol: {what}"))
}

/// Bounded little-endian payload reader.
struct Cur<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    fn new(bytes: &'a [u8]) -> Cur<'a> {
        Cur { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or_else(|| proto_err("length overflow"))?;
        let out = self
            .bytes
            .get(self.pos..end)
            .ok_or_else(|| proto_err("truncated payload"))?;
        self.pos = end;
        Ok(out)
    }

    fn u32(&mut self) -> io::Result<u32> {
        let b = self.take(4)?;
        <[u8; 4]>::try_from(b)
            .map(u32::from_le_bytes)
            .map_err(|_| proto_err("truncated u32"))
    }

    fn u64(&mut self) -> io::Result<u64> {
        let b = self.take(8)?;
        <[u8; 8]>::try_from(b)
            .map(u64::from_le_bytes)
            .map_err(|_| proto_err("truncated u64"))
    }

    fn u128(&mut self) -> io::Result<u128> {
        let b = self.take(16)?;
        <[u8; 16]>::try_from(b)
            .map(u128::from_le_bytes)
            .map_err(|_| proto_err("truncated u128"))
    }

    /// A `u32`-length-prefixed byte string, capped by what the payload can
    /// actually hold.
    fn bytes(&mut self) -> io::Result<Vec<u8>> {
        let n = self.u32()? as usize;
        Ok(self.take(n)?.to_vec())
    }

    fn string(&mut self) -> io::Result<String> {
        let b = self.bytes()?;
        String::from_utf8(b).map_err(|_| proto_err("bad utf-8"))
    }

    /// A `u32`-count-prefixed digest list; the count must fit in what
    /// remains of the payload before anything is allocated.
    fn digests(&mut self, payload_len: usize) -> io::Result<Vec<u128>> {
        let n = self.u32()? as usize;
        // 16 bytes per digest must fit in what remains.
        if n > payload_len / 16 {
            return Err(proto_err("digest count exceeds payload"));
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.u128()?);
        }
        Ok(out)
    }

    fn finish(&self) -> io::Result<()> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(proto_err("trailing bytes"))
        }
    }
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u128(out: &mut Vec<u8>, v: u128) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_u32(out, b.len() as u32);
    out.extend_from_slice(b);
}

fn put_digests(out: &mut Vec<u8>, digests: &[u128]) {
    put_u32(out, digests.len() as u32);
    for d in digests {
        put_u128(out, *d);
    }
}

impl Frame {
    fn kind(&self) -> u8 {
        match self {
            Frame::Join { .. } => K_JOIN,
            Frame::Plan { .. } => K_PLAN,
            Frame::PlanAck { .. } => K_PLAN_ACK,
            Frame::SegHave { .. } => K_SEG_HAVE,
            Frame::SegManifest { .. } => K_SEG_MANIFEST,
            Frame::SegData { .. } => K_SEG_DATA,
            Frame::Encode { .. } => K_ENCODE,
            Frame::Partial { .. } => K_PARTIAL,
            Frame::Push { .. } => K_PUSH,
            Frame::Build { .. } => K_BUILD,
            Frame::ForestAck { .. } => K_FOREST_ACK,
            Frame::Pass { .. } => K_PASS,
            Frame::TaskResult { .. } => K_TASK_RESULT,
            Frame::Ping => K_PING,
            Frame::Pong => K_PONG,
            Frame::Shutdown => K_SHUTDOWN,
            Frame::WorkerError { .. } => K_WORKER_ERROR,
        }
    }

    fn payload(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Frame::Join {
                version,
                index,
                auth,
            } => {
                put_u32(&mut out, *version);
                put_u32(&mut out, *index);
                put_u128(&mut out, *auth);
            }
            Frame::Plan {
                plan_fp,
                auth,
                corpus_dir,
                config,
            } => {
                put_u128(&mut out, *plan_fp);
                put_u128(&mut out, *auth);
                put_bytes(&mut out, corpus_dir.as_bytes());
                put_bytes(&mut out, config);
            }
            Frame::PlanAck { plan_fp } => put_u128(&mut out, *plan_fp),
            Frame::SegHave { digests } | Frame::SegManifest { digests } => {
                put_digests(&mut out, digests)
            }
            Frame::SegData { digest, bytes } => {
                put_u128(&mut out, *digest);
                put_bytes(&mut out, bytes);
            }
            Frame::Encode { digest } => put_u128(&mut out, *digest),
            Frame::Partial { digest, bytes } | Frame::Push { digest, bytes } => {
                put_u128(&mut out, *digest);
                put_bytes(&mut out, bytes);
            }
            Frame::Build { forest_fp, digests } => {
                put_u128(&mut out, *forest_fp);
                put_digests(&mut out, digests);
            }
            Frame::ForestAck { forest_fp } => put_u128(&mut out, *forest_fp),
            Frame::Pass {
                task_id,
                config,
                task,
            } => {
                put_u64(&mut out, *task_id);
                put_bytes(&mut out, config);
                put_bytes(&mut out, task);
            }
            Frame::TaskResult { task_id, output } => {
                put_u64(&mut out, *task_id);
                put_bytes(&mut out, output);
            }
            Frame::Ping | Frame::Pong | Frame::Shutdown => {}
            Frame::WorkerError { message } => put_bytes(&mut out, message.as_bytes()),
        }
        out
    }

    fn decode(kind: u8, payload: &[u8]) -> io::Result<Frame> {
        let mut c = Cur::new(payload);
        let frame = match kind {
            K_JOIN => Frame::Join {
                version: c.u32()?,
                index: c.u32()?,
                auth: c.u128()?,
            },
            K_PLAN => Frame::Plan {
                plan_fp: c.u128()?,
                auth: c.u128()?,
                corpus_dir: c.string()?,
                config: c.bytes()?,
            },
            K_PLAN_ACK => Frame::PlanAck { plan_fp: c.u128()? },
            K_SEG_HAVE => Frame::SegHave {
                digests: c.digests(payload.len())?,
            },
            K_SEG_MANIFEST => Frame::SegManifest {
                digests: c.digests(payload.len())?,
            },
            K_SEG_DATA => Frame::SegData {
                digest: c.u128()?,
                bytes: c.bytes()?,
            },
            K_ENCODE => Frame::Encode { digest: c.u128()? },
            K_PARTIAL => Frame::Partial {
                digest: c.u128()?,
                bytes: c.bytes()?,
            },
            K_PUSH => Frame::Push {
                digest: c.u128()?,
                bytes: c.bytes()?,
            },
            K_BUILD => {
                let forest_fp = c.u128()?;
                let digests = c.digests(payload.len())?;
                Frame::Build { forest_fp, digests }
            }
            K_FOREST_ACK => Frame::ForestAck {
                forest_fp: c.u128()?,
            },
            K_PASS => Frame::Pass {
                task_id: c.u64()?,
                config: c.bytes()?,
                task: c.bytes()?,
            },
            K_TASK_RESULT => Frame::TaskResult {
                task_id: c.u64()?,
                output: c.bytes()?,
            },
            K_PING => Frame::Ping,
            K_PONG => Frame::Pong,
            K_SHUTDOWN => Frame::Shutdown,
            K_WORKER_ERROR => Frame::WorkerError {
                message: c.string()?,
            },
            _ => return Err(proto_err("unknown frame kind")),
        };
        c.finish()?;
        Ok(frame)
    }
}

/// Write one frame. The caller flushes (frames are written from a
/// dedicated thread or between phases, never under a lock).
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> io::Result<()> {
    let payload = frame.payload();
    if payload.len() > MAX_PAYLOAD {
        return Err(proto_err("payload too large"));
    }
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(&[frame.kind()])?;
    w.write_all(&payload)?;
    Ok(())
}

/// Read one frame. `Ok(None)` on clean EOF at a frame boundary; EOF
/// mid-frame is an error (the peer died mid-write).
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Frame>> {
    let mut header = [0u8; 4];
    // Distinguish "no more frames" from "torn frame": only a zero-byte
    // first read is a clean close.
    let mut filled = 0usize;
    while filled < 4 {
        let n = match header.get_mut(filled..) {
            Some(buf) => r.read(buf)?,
            None => 0,
        };
        if n == 0 {
            if filled == 0 {
                return Ok(None);
            }
            return Err(proto_err("eof mid-header"));
        }
        filled += n;
    }
    let len = u32::from_le_bytes(header) as usize;
    if len > MAX_PAYLOAD {
        return Err(proto_err("payload too large"));
    }
    let mut kind = [0u8; 1];
    r.read_exact(&mut kind)?;
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    let Some(&k) = kind.first() else {
        return Err(proto_err("missing kind"));
    };
    Frame::decode(k, &payload).map(Some)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let frames = vec![
            Frame::Join {
                version: PROTOCOL_VERSION,
                index: 3,
                auth: 0x1234_5678_9abc_def0,
            },
            Frame::Plan {
                plan_fp: 0xdead_beef,
                auth: 0x0bad_cafe,
                corpus_dir: "/tmp/corpora/orders".into(),
                config: vec![1, 2, 3],
            },
            Frame::PlanAck { plan_fp: 7 },
            Frame::SegHave {
                digests: vec![1, 2, 3],
            },
            Frame::SegManifest {
                digests: vec![3, 3, 1],
            },
            Frame::SegData {
                digest: 3,
                bytes: vec![0xAB; 57],
            },
            Frame::Encode { digest: 42 },
            Frame::Partial {
                digest: 42,
                bytes: vec![9; 100],
            },
            Frame::Push {
                digest: 43,
                bytes: vec![],
            },
            Frame::Build {
                forest_fp: 1,
                digests: vec![42, 43, 42],
            },
            Frame::ForestAck { forest_fp: 1 },
            Frame::Pass {
                task_id: 17,
                config: vec![1, 0, 3],
                task: vec![4, 5],
            },
            Frame::TaskResult {
                task_id: 17,
                output: vec![6],
            },
            Frame::Ping,
            Frame::Pong,
            Frame::Shutdown,
            Frame::WorkerError {
                message: "bad".into(),
            },
        ];
        let mut wire = Vec::new();
        for f in &frames {
            write_frame(&mut wire, f).unwrap();
        }
        let mut r = wire.as_slice();
        for f in &frames {
            assert_eq!(read_frame(&mut r).unwrap().as_ref(), Some(f));
        }
        assert_eq!(read_frame(&mut r).unwrap(), None);
    }

    #[test]
    fn torn_and_corrupt_frames_are_errors_not_panics() {
        let mut wire = Vec::new();
        write_frame(
            &mut wire,
            &Frame::Pass {
                task_id: 1,
                config: vec![7],
                task: vec![1, 2, 3, 4],
            },
        )
        .unwrap();
        // Every strict prefix is torn (EOF mid-frame) — an error, never a
        // panic or a silent success.
        for cut in 1..wire.len() {
            let mut r = &wire[..cut];
            assert!(read_frame(&mut r).is_err(), "cut at {cut}");
        }
        // Unknown kind byte.
        let mut bad = wire.clone();
        bad[4] = 200;
        assert!(read_frame(&mut bad.as_slice()).is_err());
        // Absurd length prefix is rejected before allocating.
        let huge = (u32::MAX).to_le_bytes();
        let mut r: &[u8] = &huge;
        assert!(read_frame(&mut r).is_err());
    }

    #[test]
    fn shipping_frame_prefixes_are_errors_too() {
        // The v2 frames and the frames whose payload layouts changed in v3
        // and v5 get the same every-prefix guarantee as the rest.
        for frame in [
            Frame::Plan {
                plan_fp: 5,
                auth: 6,
                corpus_dir: "/srv/corpus".into(),
                config: vec![0, 0, 0, 0, 0, 1, 1, 1, 1, 1],
            },
            Frame::Pass {
                task_id: 3,
                config: vec![0, 1, 1, 1, 1, 1],
                task: vec![2, 0, 0, 0, 9, 9, 9, 9],
            },
            Frame::SegHave {
                digests: vec![7, 8, 9],
            },
            Frame::SegData {
                digest: 7,
                bytes: vec![1; 33],
            },
        ] {
            let mut wire = Vec::new();
            write_frame(&mut wire, &frame).unwrap();
            for cut in 1..wire.len() {
                let mut r = &wire[..cut];
                assert!(read_frame(&mut r).is_err(), "cut at {cut} of {frame:?}");
            }
        }
        // A forged count that exceeds the payload is rejected before any
        // oversized allocation.
        let mut forged = Vec::new();
        write_frame(
            &mut forged,
            &Frame::SegHave {
                digests: vec![1, 2],
            },
        )
        .unwrap();
        forged[5..9].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(read_frame(&mut forged.as_slice()).is_err());
    }
}
