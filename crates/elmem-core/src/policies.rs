//! Scaling policies: ElMem and the comparators of §V.
//!
//! All policies answer Q1 (when/how much — the AutoScaler) and Q2 (which
//! nodes — median scoring) the same way; they differ only in Q3, how data
//! moves before the scaling action (§V-B1, §V-B4):
//!
//! * **Baseline** — no migration; scale immediately, eat the cold cache;
//! * **ElMem** — the 3-phase FuseCache migration, then scale;
//! * **Naive** — ship the hottest `(n−x)/n` fraction of each retiring
//!   node's items without cross-node comparison, prepending at the
//!   destinations (can displace hotter residents);
//! * **CacheScale** — no up-front migration: retiring nodes become a
//!   *secondary cache*; primary misses retry there and hits are promoted;
//!   the secondary is discarded after a window.

use elmem_store::ImportMode;
use elmem_util::SimTime;

/// How a scaling decision is executed (Q3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MigrationPolicy {
    /// Scale immediately with no data movement.
    Baseline,
    /// The paper's system: optimal hot-data migration before scaling.
    ElMem {
        /// How destinations incorporate migrated items. [`ImportMode::Merge`]
        /// preserves the MRU-sorted invariant; [`ImportMode::Prepend`]
        /// follows the paper's prose verbatim. Benchmarked as an ablation.
        import: ImportMode,
    },
    /// Fraction-based migration without cross-node hotness comparison.
    Naive,
    /// Passive request-driven migration with a secondary cache (the
    /// CacheScale system \[8\], as implemented in §V-B4).
    CacheScale {
        /// How long the secondary (retiring) nodes keep serving before
        /// being discarded; the paper uses ≈2 min, matching ElMem's
        /// migration overhead.
        window: SimTime,
    },
}

impl MigrationPolicy {
    /// ElMem with the default (merge) import.
    pub fn elmem() -> Self {
        MigrationPolicy::ElMem {
            import: ImportMode::Merge,
        }
    }

    /// CacheScale with the paper's 2-minute discard window.
    pub fn cachescale() -> Self {
        MigrationPolicy::CacheScale {
            window: SimTime::from_secs(120),
        }
    }

    /// Short display name used in experiment output.
    pub fn name(&self) -> &'static str {
        match self {
            MigrationPolicy::Baseline => "baseline",
            MigrationPolicy::ElMem { .. } => "elmem",
            MigrationPolicy::Naive => "naive",
            MigrationPolicy::CacheScale { .. } => "cachescale",
        }
    }
}

impl std::fmt::Display for MigrationPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names() {
        assert_eq!(MigrationPolicy::Baseline.name(), "baseline");
        assert_eq!(MigrationPolicy::elmem().name(), "elmem");
        assert_eq!(MigrationPolicy::Naive.to_string(), "naive");
        assert_eq!(MigrationPolicy::cachescale().name(), "cachescale");
    }

    #[test]
    fn cachescale_default_window_is_two_minutes() {
        match MigrationPolicy::cachescale() {
            MigrationPolicy::CacheScale { window } => {
                assert_eq!(window, SimTime::from_secs(120));
            }
            _ => unreachable!(),
        }
    }
}
