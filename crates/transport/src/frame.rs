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
//!
//! Version 6 drops the kernel flag from the `Plan`/`Pass` config, and the
//! `Pass` task and the `TaskResult` output each become one digest-checked
//! record, so a garbled pass is a decode error rather than a different
//! valid one.

use std::io::{self, Read, Write};

use xfd_hash::codec::{put_bytes, put_u128, put_u32, put_u64, CodecError, Reader};

/// Protocol version, checked in the `Join` handshake. Bump on any frame
/// layout change, including the layouts of the `Plan` config and `Pass`
/// task payloads.
pub const PROTOCOL_VERSION: u32 = 6;

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

/// Up-front reserve for one payload. A peer's length prefix is only a
/// claim until the bytes arrive, so the buffer grows as they do.
const PAYLOAD_RESERVE: usize = 64 << 10;

fn invalid(e: CodecError) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e)
}

fn write_digests(out: &mut Vec<u8>, digests: &[u128]) {
    put_u32(out, digests.len() as u32);
    for &d in digests {
        put_u128(out, d);
    }
}

fn read_digests(r: &mut Reader<'_>) -> Result<Vec<u128>, CodecError> {
    let n = r.count_u32(16)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(r.u128()?);
    }
    Ok(out)
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
                write_digests(&mut out, digests)
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
                write_digests(&mut out, digests);
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

    fn decode(kind: u8, payload: &[u8]) -> Result<Frame, CodecError> {
        let mut r = Reader::new(payload);
        let frame = match kind {
            K_JOIN => Frame::Join {
                version: r.u32()?,
                index: r.u32()?,
                auth: r.u128()?,
            },
            K_PLAN => Frame::Plan {
                plan_fp: r.u128()?,
                auth: r.u128()?,
                corpus_dir: r.str()?.to_string(),
                config: r.bytes()?.to_vec(),
            },
            K_PLAN_ACK => Frame::PlanAck { plan_fp: r.u128()? },
            K_SEG_HAVE => Frame::SegHave {
                digests: read_digests(&mut r)?,
            },
            K_SEG_MANIFEST => Frame::SegManifest {
                digests: read_digests(&mut r)?,
            },
            K_SEG_DATA => Frame::SegData {
                digest: r.u128()?,
                bytes: r.bytes()?.to_vec(),
            },
            K_ENCODE => Frame::Encode { digest: r.u128()? },
            K_PARTIAL => Frame::Partial {
                digest: r.u128()?,
                bytes: r.bytes()?.to_vec(),
            },
            K_PUSH => Frame::Push {
                digest: r.u128()?,
                bytes: r.bytes()?.to_vec(),
            },
            K_BUILD => Frame::Build {
                forest_fp: r.u128()?,
                digests: read_digests(&mut r)?,
            },
            K_FOREST_ACK => Frame::ForestAck {
                forest_fp: r.u128()?,
            },
            K_PASS => Frame::Pass {
                task_id: r.u64()?,
                config: r.bytes()?.to_vec(),
                task: r.bytes()?.to_vec(),
            },
            K_TASK_RESULT => Frame::TaskResult {
                task_id: r.u64()?,
                output: r.bytes()?.to_vec(),
            },
            K_PING => Frame::Ping,
            K_PONG => Frame::Pong,
            K_SHUTDOWN => Frame::Shutdown,
            K_WORKER_ERROR => Frame::WorkerError {
                message: r.str()?.to_string(),
            },
            _ => return Err(CodecError::BadTag("frame kind")),
        };
        r.finish()?;
        Ok(frame)
    }
}

/// Write one frame. The caller flushes (frames are written from a
/// dedicated thread or between phases, never under a lock).
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> io::Result<()> {
    let payload = frame.payload();
    if payload.len() > MAX_PAYLOAD {
        return Err(invalid(CodecError::BadValue("payload length")));
    }
    let mut header = Vec::with_capacity(5);
    put_u32(&mut header, payload.len() as u32);
    header.push(frame.kind());
    w.write_all(&header)?;
    w.write_all(&payload)?;
    Ok(())
}

/// Read one frame. `Ok(None)` on clean EOF at a frame boundary; EOF
/// mid-frame is an error (the peer died mid-write).
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Frame>> {
    let mut header = [0u8; 5];
    // Distinguish "no more frames" from "torn frame": only a zero-byte
    // first read is a clean close.
    let mut filled = 0usize;
    while let Some(rest) = header.get_mut(filled..).filter(|b| !b.is_empty()) {
        let n = r.read(rest)?;
        if n == 0 {
            if filled == 0 {
                return Ok(None);
            }
            return Err(invalid(CodecError::Truncated));
        }
        filled += n;
    }
    let mut head = Reader::new(&header);
    let len = head.u32().map_err(invalid)? as usize;
    let kind = head.u8().map_err(invalid)?;
    if len > MAX_PAYLOAD {
        return Err(invalid(CodecError::BadValue("payload length")));
    }
    let mut payload = Vec::with_capacity(len.min(PAYLOAD_RESERVE));
    r.take(len as u64).read_to_end(&mut payload)?;
    if payload.len() != len {
        return Err(invalid(CodecError::Truncated));
    }
    Frame::decode(kind, &payload).map(Some).map_err(invalid)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xfd_hash::codec::check_garbled;

    /// One frame of every kind.
    fn all_frames() -> Vec<Frame> {
        vec![
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
        ]
    }

    #[test]
    fn frame_stream_is_pinned() {
        // `PROTOCOL_VERSION` pins this layout: a change that moves a byte
        // must bump it.
        let mut wire = Vec::new();
        for f in &all_frames() {
            write_frame(&mut wire, f).unwrap();
        }
        assert_eq!(
            xfd_hash::format_digest(xfd_hash::digest_bytes(&wire)),
            "fa2e44630c1f8ba6f5b3db6e42461729"
        );
    }

    #[test]
    fn frames_round_trip() {
        let frames = all_frames();
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
    fn every_frame_payload_passes_the_garble_check() {
        for f in all_frames() {
            let decode = |b: &[u8]| Frame::decode(f.kind(), b);
            assert_eq!(check_garbled(&f.payload(), decode), Ok(()), "{f:?}");
        }
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
