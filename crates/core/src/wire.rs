//! Wire codec for cluster-dispatched relation passes.
//!
//! A coordinator ships a [`crate::memo::WaveTask`] (relation id, memo
//! fingerprint, incoming partition targets) to a worker process holding a
//! byte-identical forest; the worker runs `process_relation` and ships the
//! [`RelationOutput`] back. Both directions use this module: little-endian
//! fixed-width integers, length-prefixed sequences, no framing (the
//! transport frames). `RelationOutput` stays crate-private — the cluster
//! layer only ever sees encoded bytes, via
//! [`crate::memo::run_task`] / [`crate::memo::PassRunner`].
//!
//! Decoding is strict and panic-free, on the shared [`xfd_hash::codec`]
//! reader: truncation, trailing bytes and values that would later violate
//! an invariant (a degenerate pair `a = a` would panic `PairSet::insert`)
//! are all typed errors. A task and an output each travel as one
//! digest-checked record ([`seal`]), so a garbled one is an error too,
//! never a different valid pass. A decode error on the coordinator merely
//! forces the pass to recompute in process.

use xfd_hash::codec::{put_bool, put_record, put_u128, put_u32, put_usize, CodecError, Reader};
use xfd_partition::{AttrSet, PairSet};
use xfd_relation::{OrderMode, RelId, SetColumnMode};

use crate::config::{DiscoveryConfig, PruneConfig};
use crate::intra::RunStats;
use crate::lattice::IntraFd;
use crate::target::PartitionTarget;
use crate::xfd::{RawInterFd, RawInterKey, RelationDiscovery, RelationOutput, TargetStats};

fn put_opt_usize(out: &mut Vec<u8>, v: Option<usize>) {
    match v {
        None => out.push(0),
        Some(n) => {
            out.push(1);
            put_usize(out, n);
        }
    }
}

fn opt_usize(r: &mut Reader<'_>) -> Result<Option<usize>, CodecError> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(r.usize()?)),
        _ => Err(CodecError::BadTag("option")),
    }
}

/// Serialize a full [`DiscoveryConfig`]. Every field ships verbatim — the
/// worker's pass must read exactly the configuration the coordinator
/// fingerprinted.
pub fn encode_config(config: &DiscoveryConfig) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    out.push(match config.encode.set_columns {
        SetColumnMode::None => 0,
        SetColumnMode::All => 1,
    });
    out.push(match config.encode.order {
        OrderMode::Unordered => 0,
        OrderMode::Ordered => 1,
    });
    put_opt_usize(&mut out, config.max_lhs_size);
    put_bool(&mut out, config.inter_relation);
    put_bool(&mut out, config.prune.rule1);
    put_bool(&mut out, config.prune.rule2);
    put_bool(&mut out, config.prune.key_prune);
    put_bool(&mut out, config.keep_uninteresting);
    put_usize(&mut out, config.threads);
    put_opt_usize(&mut out, config.cache_budget);
    out
}

/// Decode a configuration encoded by [`encode_config`].
pub fn decode_config(bytes: &[u8]) -> Result<DiscoveryConfig, CodecError> {
    let mut r = Reader::new(bytes);
    let set_columns = match r.u8()? {
        0 => SetColumnMode::None,
        1 => SetColumnMode::All,
        _ => return Err(CodecError::BadTag("set-column mode")),
    };
    let order = match r.u8()? {
        0 => OrderMode::Unordered,
        1 => OrderMode::Ordered,
        _ => return Err(CodecError::BadTag("order mode")),
    };
    let config = DiscoveryConfig {
        encode: xfd_relation::EncodeConfig { set_columns, order },
        max_lhs_size: opt_usize(&mut r)?,
        inter_relation: r.bool()?,
        prune: PruneConfig {
            rule1: r.bool()?,
            rule2: r.bool()?,
            key_prune: r.bool()?,
        },
        keep_uninteresting: r.bool()?,
        threads: r.usize()?,
        cache_budget: opt_usize(&mut r)?,
    };
    r.finish()?;
    Ok(config)
}

/// One pass block (a task or an output) as a single [`put_record`] record:
/// its length, its bytes and their digest.
pub(crate) fn seal(body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(body.len() + 20);
    put_record(&mut out, body);
    out
}

/// A reader over the body of a block written by [`seal`]: a block that is
/// not exactly one record, or whose digest does not match, is an error.
pub(crate) fn unseal(bytes: &[u8]) -> Result<Reader<'_>, CodecError> {
    let mut outer = Reader::new(bytes);
    let body = outer.record()?;
    outer.finish()?;
    Ok(Reader::new(body))
}

fn attrset_from_bits(bits: u128) -> AttrSet {
    let mut s = AttrSet::empty();
    let mut rest = bits;
    while rest != 0 {
        let i = rest.trailing_zeros() as usize;
        s = s.insert(i);
        rest &= rest - 1;
    }
    s
}

fn put_pairs(out: &mut Vec<u8>, pairs: &PairSet) {
    put_usize(out, pairs.len());
    for &(a, b) in pairs.pairs() {
        put_u32(out, a);
        put_u32(out, b);
    }
}

fn read_pairs(r: &mut Reader<'_>) -> Result<PairSet, CodecError> {
    let n = r.count_u64(8)?;
    let mut set = PairSet::new();
    for _ in 0..n {
        let a = r.u32()?;
        let b = r.u32()?;
        if a == b {
            return Err(CodecError::BadValue("pair"));
        }
        set.insert(a, b);
    }
    Ok(set)
}

fn put_lhs_levels(out: &mut Vec<u8>, levels: &[(RelId, AttrSet)]) {
    put_usize(out, levels.len());
    for &(rel, set) in levels {
        put_u32(out, rel.0);
        put_u128(out, set.bits());
    }
}

fn read_lhs_levels(r: &mut Reader<'_>) -> Result<Vec<(RelId, AttrSet)>, CodecError> {
    let n = r.count_u64(20)?;
    let mut levels = Vec::with_capacity(n);
    for _ in 0..n {
        let rel = RelId(r.u32()?);
        let set = attrset_from_bits(r.u128()?);
        levels.push((rel, set));
    }
    Ok(levels)
}

pub(crate) fn put_target(out: &mut Vec<u8>, t: &PartitionTarget) {
    put_u32(out, t.origin.0);
    put_usize(out, t.rhs);
    put_lhs_levels(out, &t.lhs_levels);
    put_pairs(out, &t.fd_target);
    match &t.key_target {
        None => out.push(0),
        Some(kt) => {
            out.push(1);
            put_pairs(out, kt);
        }
    }
    put_usize(out, t.satisfied_fd.len());
    for &s in &t.satisfied_fd {
        put_u128(out, s.bits());
    }
    put_usize(out, t.satisfied_key.len());
    for &s in &t.satisfied_key {
        put_u128(out, s.bits());
    }
}

pub(crate) fn read_target(r: &mut Reader<'_>) -> Result<PartitionTarget, CodecError> {
    let origin = RelId(r.u32()?);
    let rhs = r.usize()?;
    let lhs_levels = read_lhs_levels(r)?;
    let fd_target = read_pairs(r)?;
    let key_target = match r.u8()? {
        0 => None,
        1 => Some(read_pairs(r)?),
        _ => return Err(CodecError::BadTag("key target")),
    };
    let n_fd = r.count_u64(16)?;
    let mut satisfied_fd = Vec::with_capacity(n_fd);
    for _ in 0..n_fd {
        satisfied_fd.push(attrset_from_bits(r.u128()?));
    }
    let n_key = r.count_u64(16)?;
    let mut satisfied_key = Vec::with_capacity(n_key);
    for _ in 0..n_key {
        satisfied_key.push(attrset_from_bits(r.u128()?));
    }
    Ok(PartitionTarget {
        origin,
        rhs,
        lhs_levels,
        fd_target,
        key_target,
        satisfied_fd,
        satisfied_key,
    })
}

fn put_run_stats(out: &mut Vec<u8>, s: &RunStats) {
    put_usize(out, s.nodes_visited);
    put_usize(out, s.nodes_key_skipped);
    put_usize(out, s.products);
    put_usize(out, s.partitions_built);
    put_usize(out, s.max_level);
    put_usize(out, s.cache_hits);
    put_usize(out, s.cache_misses);
    put_usize(out, s.evictions);
    put_usize(out, s.peak_resident_bytes);
    put_usize(out, s.products_error_only);
    put_usize(out, s.products_materialized);
    put_usize(out, s.early_exits);
    put_usize(out, s.summary_hits);
}

fn read_run_stats(r: &mut Reader<'_>) -> Result<RunStats, CodecError> {
    Ok(RunStats {
        nodes_visited: r.usize()?,
        nodes_key_skipped: r.usize()?,
        products: r.usize()?,
        partitions_built: r.usize()?,
        max_level: r.usize()?,
        cache_hits: r.usize()?,
        cache_misses: r.usize()?,
        evictions: r.usize()?,
        peak_resident_bytes: r.usize()?,
        products_error_only: r.usize()?,
        products_materialized: r.usize()?,
        early_exits: r.usize()?,
        summary_hits: r.usize()?,
    })
}

/// Serialize one relation pass's full output, sealed as one record.
pub(crate) fn encode_output(out: &RelationOutput) -> Vec<u8> {
    let mut b = Vec::with_capacity(256);
    put_u32(&mut b, out.local.rel.0);
    put_usize(&mut b, out.local.fds.len());
    for fd in &out.local.fds {
        put_u128(&mut b, fd.lhs.bits());
        put_usize(&mut b, fd.rhs);
    }
    put_usize(&mut b, out.local.keys.len());
    for &k in &out.local.keys {
        put_u128(&mut b, k.bits());
    }
    put_usize(&mut b, out.inter_fds.len());
    for fd in &out.inter_fds {
        put_u32(&mut b, fd.origin.0);
        put_usize(&mut b, fd.rhs);
        put_lhs_levels(&mut b, &fd.lhs_levels);
    }
    put_usize(&mut b, out.inter_keys.len());
    for key in &out.inter_keys {
        put_u32(&mut b, key.origin.0);
        put_lhs_levels(&mut b, &key.lhs_levels);
    }
    put_run_stats(&mut b, &out.lattice);
    put_usize(&mut b, out.targets.created);
    put_usize(&mut b, out.targets.propagated);
    put_usize(&mut b, out.targets.dropped_impossible);
    put_usize(&mut b, out.targets.dropped_overflow);
    put_usize(&mut b, out.outgoing.len());
    for t in &out.outgoing {
        put_target(&mut b, t);
    }
    seal(&b)
}

/// Decode a relation-pass output encoded by [`encode_output`].
pub(crate) fn decode_output(bytes: &[u8]) -> Result<RelationOutput, CodecError> {
    let mut r = unseal(bytes)?;
    let rel = RelId(r.u32()?);
    let n_fds = r.count_u64(24)?;
    let mut fds = Vec::with_capacity(n_fds);
    for _ in 0..n_fds {
        let lhs = attrset_from_bits(r.u128()?);
        let rhs = r.usize()?;
        fds.push(IntraFd { lhs, rhs });
    }
    let n_keys = r.count_u64(16)?;
    let mut keys = Vec::with_capacity(n_keys);
    for _ in 0..n_keys {
        keys.push(attrset_from_bits(r.u128()?));
    }
    let n_inter_fds = r.count_u64(20)?;
    let mut inter_fds = Vec::with_capacity(n_inter_fds);
    for _ in 0..n_inter_fds {
        let origin = RelId(r.u32()?);
        let rhs = r.usize()?;
        let lhs_levels = read_lhs_levels(&mut r)?;
        inter_fds.push(RawInterFd {
            origin,
            rhs,
            lhs_levels,
        });
    }
    let n_inter_keys = r.count_u64(12)?;
    let mut inter_keys = Vec::with_capacity(n_inter_keys);
    for _ in 0..n_inter_keys {
        let origin = RelId(r.u32()?);
        let lhs_levels = read_lhs_levels(&mut r)?;
        inter_keys.push(RawInterKey { origin, lhs_levels });
    }
    let lattice = read_run_stats(&mut r)?;
    let targets = TargetStats {
        created: r.usize()?,
        propagated: r.usize()?,
        dropped_impossible: r.usize()?,
        dropped_overflow: r.usize()?,
    };
    let n_outgoing = r.count_u64(20)?;
    let mut outgoing = Vec::with_capacity(n_outgoing);
    for _ in 0..n_outgoing {
        outgoing.push(read_target(&mut r)?);
    }
    r.finish()?;
    Ok(RelationOutput {
        local: RelationDiscovery { rel, fds, keys },
        inter_fds,
        inter_keys,
        lattice,
        targets,
        outgoing,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use xfd_hash::codec::check_garbled;
    use xfd_hash::{digest_bytes, format_digest};

    /// The two configurations every config test round-trips.
    fn configs() -> [DiscoveryConfig; 2] {
        [
            DiscoveryConfig::default(),
            DiscoveryConfig {
                encode: xfd_relation::EncodeConfig {
                    set_columns: SetColumnMode::None,
                    order: OrderMode::Ordered,
                },
                max_lhs_size: Some(3),
                inter_relation: false,
                prune: PruneConfig {
                    rule1: false,
                    rule2: true,
                    key_prune: false,
                },
                keep_uninteresting: true,
                threads: 4,
                cache_budget: Some(1 << 20),
            },
        ]
    }

    /// One relation-pass output touching every field of the layout.
    fn output_fixture() -> RelationOutput {
        let mut fd_target = PairSet::new();
        fd_target.insert(3, 1);
        fd_target.insert(2, 7);
        let mut key_target = PairSet::new();
        key_target.insert(0, 9);
        RelationOutput {
            local: RelationDiscovery {
                rel: RelId(2),
                fds: vec![IntraFd {
                    lhs: AttrSet::single(1).insert(3),
                    rhs: 2,
                }],
                keys: vec![AttrSet::single(0)],
            },
            inter_fds: vec![RawInterFd {
                origin: RelId(4),
                rhs: 1,
                lhs_levels: vec![(RelId(4), AttrSet::single(2)), (RelId(2), AttrSet::empty())],
            }],
            inter_keys: vec![RawInterKey {
                origin: RelId(4),
                lhs_levels: vec![(RelId(4), AttrSet::single(0))],
            }],
            lattice: RunStats {
                nodes_visited: 10,
                nodes_key_skipped: 1,
                products: 5,
                partitions_built: 6,
                max_level: 2,
                cache_hits: 3,
                cache_misses: 4,
                evictions: 0,
                peak_resident_bytes: 999,
                products_error_only: 7,
                products_materialized: 5,
                early_exits: 2,
                summary_hits: 8,
            },
            targets: TargetStats {
                created: 2,
                propagated: 1,
                dropped_impossible: 0,
                dropped_overflow: 0,
            },
            outgoing: vec![PartitionTarget {
                origin: RelId(2),
                rhs: 0,
                lhs_levels: vec![(RelId(2), AttrSet::single(1))],
                fd_target,
                key_target: Some(key_target),
                satisfied_fd: vec![AttrSet::single(4)],
                satisfied_key: vec![],
            }],
        }
    }

    /// The task that ships the fixture's targets down to a worker.
    fn task_fixture() -> crate::memo::WaveTask {
        crate::memo::WaveTask {
            rel: RelId(1),
            key: 0xfeed_beef,
            incoming: output_fixture().outgoing,
        }
    }

    #[test]
    fn encodings_are_pinned() {
        // Cluster peers exchange these bytes, and `PROTOCOL_VERSION` pins
        // their layout: a codec change that moves a byte must bump it.
        let [default, custom] = configs();
        let digests: Vec<String> = [
            encode_config(&default),
            encode_config(&custom),
            encode_output(&output_fixture()),
            task_fixture().encode_bytes(),
        ]
        .iter()
        .map(|b| format_digest(digest_bytes(b)))
        .collect();
        assert_eq!(
            digests,
            [
                "61daa41c0ef6b1aa702d31528e906045",
                "01fe5041847bd490c5938516454d41c7",
                "1a2fc58047e2cc7b7807279943120b98",
                "f0f99b31f7b6b34e95536e6f9bbe6bd9",
            ]
        );
    }

    #[test]
    fn config_roundtrips() {
        for config in &configs() {
            let bytes = encode_config(config);
            let back = decode_config(&bytes).expect("round-trip");
            assert_eq!(format!("{config:?}"), format!("{back:?}"));
            assert_eq!(check_garbled(&bytes, decode_config), Ok(()));
        }
        let mut trailing = encode_config(&DiscoveryConfig::default());
        trailing.push(0);
        assert_eq!(
            decode_config(&trailing).err(),
            Some(CodecError::TrailingBytes)
        );
    }

    /// How many single-bit flips of `valid` still decode.
    fn flips_that_decode<T>(
        valid: &[u8],
        decode: impl Fn(&[u8]) -> Result<T, CodecError>,
    ) -> usize {
        let mut dirty = valid.to_vec();
        let mut decoded = 0;
        for at in 0..valid.len() {
            for bit in 0..8 {
                dirty[at] ^= 1 << bit;
                decoded += usize::from(decode(&dirty).is_ok());
                dirty[at] ^= 1 << bit;
            }
        }
        decoded
    }

    #[test]
    fn output_roundtrips_and_rejects_corruption() {
        let out = output_fixture();
        let bytes = encode_output(&out);
        let back = decode_output(&bytes).expect("round-trip");
        assert_eq!(back.local.rel, out.local.rel);
        assert_eq!(back.local.fds, out.local.fds);
        assert_eq!(back.local.keys, out.local.keys);
        assert_eq!(back.inter_fds, out.inter_fds);
        assert_eq!(back.inter_keys, out.inter_keys);
        assert_eq!(back.lattice, out.lattice);
        assert_eq!(back.targets, out.targets);
        assert_eq!(back.outgoing.len(), out.outgoing.len());
        assert_eq!(
            back.outgoing[0].fd_target.pairs(),
            out.outgoing[0].fd_target.pairs()
        );
        assert_eq!(back.outgoing[0].satisfied_fd, out.outgoing[0].satisfied_fd);
        // Re-encoding the decoded output is byte-identical (PairSet
        // normalization happened on the first encode already).
        assert_eq!(encode_output(&back), bytes);
        assert_eq!(check_garbled(&bytes, decode_output), Ok(()));
        // Sealed as one record: a coordinator never merges a garbled pass.
        assert_eq!(flips_that_decode(&bytes, decode_output), 0);

        let task = task_fixture();
        let bytes = task.encode_bytes();
        let back = crate::memo::WaveTask::decode_bytes(&bytes).expect("task round-trip");
        assert_eq!((back.rel, back.key), (task.rel, task.key));
        assert_eq!(back.encode_bytes(), bytes);
        assert_eq!(
            check_garbled(&bytes, crate::memo::WaveTask::decode_bytes),
            Ok(())
        );
        // Nor does a worker run one.
        assert_eq!(
            flips_that_decode(&bytes, crate::memo::WaveTask::decode_bytes),
            0
        );
    }
}
