//! Discovery configuration.

use xfd_relation::EncodeConfig;

/// Which lattice pruning rules are active (Section 4.2); the ablation
/// experiment toggles them to measure their value.
#[derive(Debug, Clone, Copy)]
pub struct PruneConfig {
    /// Rule 1: drop edge `(XY, XYA)` once `X → A` is satisfied.
    pub rule1: bool,
    /// Rule 2 (repaired, see DESIGN.md): drop a candidate LHS that contains
    /// an attribute derivable from a discovered FD. Applied only to pure
    /// intra-relation runs (the paper's `candidateLHS2` omits it).
    pub rule2: bool,
    /// Rule 3: stop expanding supersets of discovered keys.
    pub key_prune: bool,
}

impl Default for PruneConfig {
    fn default() -> Self {
        PruneConfig {
            rule1: true,
            rule2: true,
            key_prune: true,
        }
    }
}

/// Cap on the partition targets bound for one parent relation, and on the
/// tuple pairs of one target: guards against pathological blow-up, and
/// what it drops is counted in the report (`dropped_overflow`).
pub(crate) const MAX_PARTITION_TARGETS: usize = 100_000;

/// Configuration of the full discovery pipeline. Every pass tests the
/// empty-LHS edges `∅ → a` (DESIGN.md, "Empty LHS edges").
#[derive(Debug, Clone)]
pub struct DiscoveryConfig {
    /// Encoding of the hierarchical representation (set-valued columns
    /// and sibling order).
    pub encode: EncodeConfig,
    /// Bound on LHS size (lattice level); `None` = unbounded.
    pub max_lhs_size: Option<usize>,
    /// Discover inter-relation FDs/keys via partition targets. Turning this
    /// off yields the intra-relation-only subset (for the ablation).
    pub inter_relation: bool,
    /// Pruning rules.
    pub prune: PruneConfig,
    /// Keep FDs/keys that Definition 10 classifies as uninteresting
    /// (reported separately for inspection).
    pub keep_uninteresting: bool,
    /// Worker threads: `1` (the default) runs sequentially, `0` detects
    /// the machine's parallelism, `n` uses exactly `n`. The workers split
    /// the relation passes of one wave (relations at the same depth of the
    /// relation tree) and a corpus's per-segment encoding; one relation's
    /// lattice always runs on one thread. Output, work counters included,
    /// is identical at any count.
    pub threads: usize,
    /// Byte budget for resident partitions per relation pass (`None` =
    /// unbounded). Evicted partitions are refolded from the base
    /// single-attribute partitions on demand, so results never change.
    pub cache_budget: Option<usize>,
}

impl Default for DiscoveryConfig {
    fn default() -> Self {
        DiscoveryConfig {
            encode: EncodeConfig::default(),
            max_lhs_size: None,
            inter_relation: true,
            prune: PruneConfig::default(),
            keep_uninteresting: false,
            threads: 1,
            cache_budget: None,
        }
    }
}

impl DiscoveryConfig {
    /// Effective LHS-size bound as a number (∞ → `usize::MAX`).
    pub fn lhs_bound(&self) -> usize {
        self.max_lhs_size.unwrap_or(usize::MAX)
    }

    /// Worker threads the parallel passes may use: [`Self::threads`] with
    /// `0` resolved to the machine's parallelism.
    pub fn effective_threads(&self) -> usize {
        match self.threads {
            0 => std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
            n => n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_enable_everything() {
        let c = DiscoveryConfig::default();
        assert!(c.inter_relation);
        assert!(c.prune.rule1 && c.prune.rule2 && c.prune.key_prune);
        assert_eq!(c.lhs_bound(), usize::MAX);
        assert_eq!(c.effective_threads(), 1, "sequential by default");
        assert_eq!(c.cache_budget, None);
    }

    #[test]
    fn effective_threads_resolves_auto() {
        let c = DiscoveryConfig {
            threads: 3,
            ..Default::default()
        };
        assert_eq!(c.effective_threads(), 3);
        let auto = DiscoveryConfig {
            threads: 0,
            ..Default::default()
        };
        assert!(auto.effective_threads() >= 1);
    }

    #[test]
    fn lhs_bound_reflects_setting() {
        let c = DiscoveryConfig {
            max_lhs_size: Some(3),
            ..Default::default()
        };
        assert_eq!(c.lhs_bound(), 3);
    }
}
