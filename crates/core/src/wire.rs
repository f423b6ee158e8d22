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
//! Decoding is strict and panic-free: truncation, trailing bytes and
//! values that would later violate an invariant (a degenerate pair `a = a`
//! would panic `PairSet::insert`) are all typed errors. A decode error on
//! the coordinator merely forces the pass to recompute in process.

use xfd_partition::{AttrSet, PairSet};
use xfd_relation::{ComplexColumnMode, OrderMode, RelId, SetColumnMode};

use crate::config::{DiscoveryConfig, PruneConfig};
use crate::intra::RunStats;
use crate::lattice::IntraFd;
use crate::target::PartitionTarget;
use crate::xfd::{RawInterFd, RawInterKey, RelationDiscovery, RelationOutput, TargetStats};

/// Why a wire blob could not be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The blob ends before the advertised content does.
    Truncated,
    /// Bytes remain after the last field.
    TrailingBytes,
    /// A tag or enum discriminant is out of range.
    BadTag(&'static str),
    /// A value violates a structural invariant (e.g. a pair `a = a`).
    BadValue(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "wire blob truncated"),
            WireError::TrailingBytes => write!(f, "wire blob has trailing bytes"),
            WireError::BadTag(what) => write!(f, "wire blob has an invalid {what}"),
            WireError::BadValue(what) => write!(f, "wire blob has an out-of-range {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Byte reader over a wire blob; every read is bounds-checked.
pub(crate) struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Truncated)?;
        let slice = self.bytes.get(self.pos..end).ok_or(WireError::Truncated)?;
        self.pos = end;
        Ok(slice)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, WireError> {
        self.take(1)?.first().copied().ok_or(WireError::Truncated)
    }

    pub(crate) fn u32(&mut self) -> Result<u32, WireError> {
        let b = <[u8; 4]>::try_from(self.take(4)?).map_err(|_| WireError::Truncated)?;
        Ok(u32::from_le_bytes(b))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, WireError> {
        let b = <[u8; 8]>::try_from(self.take(8)?).map_err(|_| WireError::Truncated)?;
        Ok(u64::from_le_bytes(b))
    }

    pub(crate) fn u128(&mut self) -> Result<u128, WireError> {
        let b = <[u8; 16]>::try_from(self.take(16)?).map_err(|_| WireError::Truncated)?;
        Ok(u128::from_le_bytes(b))
    }

    pub(crate) fn usize(&mut self) -> Result<usize, WireError> {
        usize::try_from(self.u64()?).map_err(|_| WireError::BadValue("usize"))
    }

    /// A sequence length, sanity-bounded by the bytes that remain (each
    /// element needs at least `min_elem_bytes`), so a corrupt length can
    /// never drive a huge allocation.
    pub(crate) fn len(&mut self, min_elem_bytes: usize) -> Result<usize, WireError> {
        let n = self.usize()?;
        let remaining = self.bytes.len().saturating_sub(self.pos);
        if n > remaining / min_elem_bytes.max(1) {
            return Err(WireError::Truncated);
        }
        Ok(n)
    }

    pub(crate) fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::BadTag("bool")),
        }
    }

    pub(crate) fn finish(self) -> Result<(), WireError> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(WireError::TrailingBytes)
        }
    }
}

pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u128(out: &mut Vec<u8>, v: u128) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_usize(out: &mut Vec<u8>, v: usize) {
    put_u64(out, v as u64);
}

pub(crate) fn put_bool(out: &mut Vec<u8>, v: bool) {
    out.push(u8::from(v));
}

fn put_opt_usize(out: &mut Vec<u8>, v: Option<usize>) {
    match v {
        None => out.push(0),
        Some(n) => {
            out.push(1);
            put_usize(out, n);
        }
    }
}

fn opt_usize(r: &mut Reader<'_>) -> Result<Option<usize>, WireError> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(r.usize()?)),
        _ => Err(WireError::BadTag("option")),
    }
}

/// Serialize a full [`DiscoveryConfig`]. Every field ships verbatim — the
/// worker's pass must read exactly the configuration the coordinator
/// fingerprinted.
pub fn encode_config(config: &DiscoveryConfig) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    out.push(match config.encode.set_columns {
        SetColumnMode::None => 0,
        SetColumnMode::SimpleOnly => 1,
        SetColumnMode::All => 2,
    });
    out.push(match config.encode.complex_columns {
        ComplexColumnMode::NodeKey => 0,
        ComplexColumnMode::ValueClass => 1,
        ComplexColumnMode::Omit => 2,
    });
    out.push(match config.encode.order {
        OrderMode::Unordered => 0,
        OrderMode::Ordered => 1,
    });
    put_bool(&mut out, config.encode.numeric_values);
    put_opt_usize(&mut out, config.max_lhs_size);
    put_bool(&mut out, config.inter_relation);
    put_bool(&mut out, config.empty_lhs);
    put_bool(&mut out, config.prune.rule1);
    put_bool(&mut out, config.prune.rule2);
    put_bool(&mut out, config.prune.key_prune);
    put_usize(&mut out, config.max_partition_targets);
    put_bool(&mut out, config.keep_uninteresting);
    put_usize(&mut out, config.threads);
    put_opt_usize(&mut out, config.cache_budget);
    put_bool(&mut out, config.error_only_kernel);
    out
}

/// Decode a configuration encoded by [`encode_config`].
pub fn decode_config(bytes: &[u8]) -> Result<DiscoveryConfig, WireError> {
    let mut r = Reader::new(bytes);
    let set_columns = match r.u8()? {
        0 => SetColumnMode::None,
        1 => SetColumnMode::SimpleOnly,
        2 => SetColumnMode::All,
        _ => return Err(WireError::BadTag("set-column mode")),
    };
    let complex_columns = match r.u8()? {
        0 => ComplexColumnMode::NodeKey,
        1 => ComplexColumnMode::ValueClass,
        2 => ComplexColumnMode::Omit,
        _ => return Err(WireError::BadTag("complex-column mode")),
    };
    let order = match r.u8()? {
        0 => OrderMode::Unordered,
        1 => OrderMode::Ordered,
        _ => return Err(WireError::BadTag("order mode")),
    };
    let numeric_values = r.bool()?;
    let config = DiscoveryConfig {
        encode: xfd_relation::EncodeConfig {
            set_columns,
            complex_columns,
            order,
            numeric_values,
        },
        max_lhs_size: opt_usize(&mut r)?,
        inter_relation: r.bool()?,
        empty_lhs: r.bool()?,
        prune: PruneConfig {
            rule1: r.bool()?,
            rule2: r.bool()?,
            key_prune: r.bool()?,
        },
        max_partition_targets: r.usize()?,
        keep_uninteresting: r.bool()?,
        threads: r.usize()?,
        cache_budget: opt_usize(&mut r)?,
        error_only_kernel: r.bool()?,
    };
    r.finish()?;
    Ok(config)
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

fn read_pairs(r: &mut Reader<'_>) -> Result<PairSet, WireError> {
    let n = r.len(8)?;
    let mut set = PairSet::new();
    for _ in 0..n {
        let a = r.u32()?;
        let b = r.u32()?;
        if a == b {
            return Err(WireError::BadValue("pair"));
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

fn read_lhs_levels(r: &mut Reader<'_>) -> Result<Vec<(RelId, AttrSet)>, WireError> {
    let n = r.len(20)?;
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

pub(crate) fn read_target(r: &mut Reader<'_>) -> Result<PartitionTarget, WireError> {
    let origin = RelId(r.u32()?);
    let rhs = r.usize()?;
    let lhs_levels = read_lhs_levels(r)?;
    let fd_target = read_pairs(r)?;
    let key_target = match r.u8()? {
        0 => None,
        1 => Some(read_pairs(r)?),
        _ => return Err(WireError::BadTag("key target")),
    };
    let n_fd = r.len(16)?;
    let mut satisfied_fd = Vec::with_capacity(n_fd);
    for _ in 0..n_fd {
        satisfied_fd.push(attrset_from_bits(r.u128()?));
    }
    let n_key = r.len(16)?;
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

fn read_run_stats(r: &mut Reader<'_>) -> Result<RunStats, WireError> {
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

/// Serialize one relation pass's full output.
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
    b
}

/// Decode a relation-pass output encoded by [`encode_output`].
pub(crate) fn decode_output(bytes: &[u8]) -> Result<RelationOutput, WireError> {
    let mut r = Reader::new(bytes);
    let rel = RelId(r.u32()?);
    let n_fds = r.len(24)?;
    let mut fds = Vec::with_capacity(n_fds);
    for _ in 0..n_fds {
        let lhs = attrset_from_bits(r.u128()?);
        let rhs = r.usize()?;
        fds.push(IntraFd { lhs, rhs });
    }
    let n_keys = r.len(16)?;
    let mut keys = Vec::with_capacity(n_keys);
    for _ in 0..n_keys {
        keys.push(attrset_from_bits(r.u128()?));
    }
    let n_inter_fds = r.len(20)?;
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
    let n_inter_keys = r.len(12)?;
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
    let n_outgoing = r.len(20)?;
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

    #[test]
    fn config_roundtrips() {
        let configs = [
            DiscoveryConfig::default(),
            DiscoveryConfig {
                encode: xfd_relation::EncodeConfig {
                    set_columns: SetColumnMode::SimpleOnly,
                    complex_columns: ComplexColumnMode::ValueClass,
                    order: OrderMode::Ordered,
                    numeric_values: true,
                },
                max_lhs_size: Some(3),
                inter_relation: false,
                empty_lhs: false,
                prune: PruneConfig {
                    rule1: false,
                    rule2: true,
                    key_prune: false,
                },
                max_partition_targets: 7,
                keep_uninteresting: true,
                threads: 4,
                cache_budget: Some(1 << 20),
                error_only_kernel: false,
            },
        ];
        for config in &configs {
            let bytes = encode_config(config);
            let back = decode_config(&bytes).expect("round-trip");
            assert_eq!(format!("{config:?}"), format!("{back:?}"));
            // Every strict prefix errors; none panics.
            for cut in 0..bytes.len() {
                assert!(decode_config(&bytes[..cut]).is_err(), "prefix {cut}");
            }
        }
        assert!(decode_config(&[]).is_err());
        let mut trailing = encode_config(&DiscoveryConfig::default());
        trailing.push(0);
        assert_eq!(
            decode_config(&trailing).err(),
            Some(WireError::TrailingBytes)
        );
    }

    #[test]
    fn output_roundtrips_and_rejects_corruption() {
        let mut fd_target = PairSet::new();
        fd_target.insert(3, 1);
        fd_target.insert(2, 7);
        let mut key_target = PairSet::new();
        key_target.insert(0, 9);
        let out = RelationOutput {
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
        };
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
        // Every strict prefix errors; none panics.
        for cut in 0..bytes.len() {
            assert!(decode_output(&bytes[..cut]).is_err(), "prefix {cut}");
        }
        // Single-byte corruption never panics.
        for i in 0..bytes.len() {
            let mut dirty = bytes.clone();
            dirty[i] ^= 0xff;
            let _ = decode_output(&dirty);
        }

        // The task that ships the same target down to a worker: same
        // guarantees.
        let task = crate::memo::WaveTask {
            rel: RelId(1),
            key: 0xfeed_beef,
            incoming: out.outgoing.clone(),
        };
        let bytes = task.encode_bytes();
        let back = crate::memo::WaveTask::decode_bytes(&bytes).expect("task round-trip");
        assert_eq!((back.rel, back.key), (task.rel, task.key));
        assert_eq!(back.encode_bytes(), bytes);
        for cut in 0..bytes.len() {
            assert!(
                crate::memo::WaveTask::decode_bytes(&bytes[..cut]).is_err(),
                "task prefix {cut}"
            );
        }
    }
}
