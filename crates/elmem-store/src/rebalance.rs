//! Slab-page rebalancing (Memcached's "slab automove").
//!
//! Pages are assigned to size classes on demand and never freed, so a
//! workload whose size mix shifts leaves memory stranded in the wrong
//! classes ("slab calcification") — a class with free chunks it will never
//! use while another class evicts under pressure. Memcached's rebalancer
//! reclaims a page from a donor class and hands it to a needy one; this
//! module implements that operation plus a simple automove policy.
//!
//! (We hit calcification ourselves while building this reproduction: tiny
//! nodes with a fine-grained ladder silently failed most `set`s. See
//! `ClusterConfig::slab_classes`.)

use elmem_util::ElmemError;

use crate::classes::ClassId;
use crate::store::SlabStore;

/// A suggested page move from a donor class to a recipient class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RebalanceHint {
    /// Class to take a page from.
    pub from: ClassId,
    /// Class to give the page to.
    pub to: ClassId,
}

impl SlabStore {
    /// Suggests a page move: the donor is the class wasting the most whole
    /// pages of free chunks; the recipient is the class with the most
    /// evictions since the last call (pressure). Returns `None` when no
    /// class both donates and needs.
    ///
    /// Calling this consumes the per-class eviction pressure counters
    /// (Memcached's automove window behaves the same way).
    pub fn suggest_rebalance(&mut self) -> Option<RebalanceHint> {
        let mut donor: Option<(ClassId, u64)> = None;
        let mut recipient: Option<(ClassId, u64)> = None;
        let ids: Vec<ClassId> = self.classes().ids().collect();
        for id in ids {
            let free_pages = self.free_chunks_of_class(id) / self.classes().chunks_per_page(id);
            if free_pages >= 1 && donor.is_none_or(|(_, best)| free_pages > best) {
                donor = Some((id, free_pages));
            }
            let pressure = self.eviction_pressure(id);
            if pressure > 0 && recipient.is_none_or(|(_, best)| pressure > best) {
                recipient = Some((id, pressure));
            }
        }
        self.reset_eviction_pressure();
        match (donor, recipient) {
            (Some((from, _)), Some((to, _))) if from != to => Some(RebalanceHint { from, to }),
            _ => None,
        }
    }

    /// Runs one automove step: suggest + execute. Returns the number of
    /// items evicted from the donor page, or `None` if nothing to do.
    ///
    /// # Errors
    ///
    /// Propagates [`reassign_page`](Self::reassign_page) errors.
    pub fn automove(&mut self) -> Result<Option<u64>, ElmemError> {
        match self.suggest_rebalance() {
            Some(hint) => Ok(Some(self.reassign_page(hint.from, hint.to)?)),
            None => Ok(None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classes::SizeClasses;
    use crate::store::StoreConfig;
    use elmem_util::{ByteSize, KeyId, SimTime};

    fn store() -> SlabStore {
        // 2 pages total; ladder 128 / 1024 chunks.
        SlabStore::new(StoreConfig {
            classes: SizeClasses::new(128, 8.0, 1024),
            ..StoreConfig::with_memory(ByteSize::from_mib(2))
        })
    }

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn calcified_store_rebalances_under_pressure() {
        let mut s = store();
        let small = s.classes().class_for(69).unwrap(); // 10B values
        let large = s.classes().class_for(959).unwrap(); // 900B values
        assert_ne!(small, large);

        // Phase 1: small items claim both pages...
        let cap_small = 2 * s.classes().chunks_per_page(small);
        for k in 0..cap_small {
            s.set(KeyId(k), 10, t(k + 1)).unwrap();
        }
        assert_eq!(s.pages_used(), 2);
        // ...then the workload shifts: the small class empties out while the
        // large class is under eviction pressure.
        for k in 0..cap_small {
            s.delete(KeyId(k));
        }
        // Large class can't even allocate (no pages left): that failed set
        // registers allocation pressure on the large class.
        assert!(s.set(KeyId(10_000_000), 900, t(100_000)).is_err());
        assert!(s.eviction_pressure(large) > 0);

        // Automove: the calcified small class donates, the pressured large
        // class receives, and the failed set now succeeds.
        let moved = s.automove().unwrap();
        assert!(moved.is_some(), "automove should trigger");
        assert_eq!(s.pages_of_class(large), 1);
        assert_eq!(s.pages_of_class(small), 1);
        s.set(KeyId(10_000_000), 900, t(100_001)).unwrap();

        // A second round under continued pressure drains the small class
        // completely.
        let cap_large = s.classes().chunks_per_page(large);
        for k in 0..cap_large + 5 {
            s.set(KeyId(20_000_000 + k), 900, t(200_000 + k)).unwrap();
        }
        assert!(s.stats().evictions >= 5);
        let moved = s.automove().unwrap();
        assert!(moved.is_some(), "second automove should trigger");
        assert_eq!(s.pages_of_class(large), 2);
        assert_eq!(s.pages_of_class(small), 0);
        // And the large class can now hold twice the items.
        for k in 0..cap_large {
            s.set(KeyId(30_000_000 + k), 900, t(300_000 + k)).unwrap();
        }
        assert_eq!(s.len_of_class(large), 2 * cap_large);
    }

    #[test]
    fn reassign_page_evicts_coldest_of_donor() {
        let mut s = store();
        let small = s.classes().class_for(69).unwrap();
        let large = s.classes().class_for(959).unwrap();
        let cap = 2 * s.classes().chunks_per_page(small);
        for k in 0..cap {
            s.set(KeyId(k), 10, t(k + 1)).unwrap();
        }
        let before = s.len();
        let evicted = s.reassign_page(small, large).unwrap();
        let per_page = s.classes().chunks_per_page(small);
        assert_eq!(evicted, per_page);
        assert_eq!(s.len(), before - per_page);
        // The coldest `per_page` items died; the hottest survive.
        for k in 0..per_page {
            assert!(!s.contains(KeyId(k)), "cold key {k} should be evicted");
        }
        for k in per_page..cap {
            assert!(s.contains(KeyId(k)), "hot key {k} should survive");
        }
        // The recipient can allocate now.
        s.set(KeyId(99_999), 900, t(100_000)).unwrap();
    }

    #[test]
    fn reassign_from_empty_class_fails() {
        let mut s = store();
        let small = s.classes().class_for(69).unwrap();
        let large = s.classes().class_for(959).unwrap();
        assert!(s.reassign_page(small, large).is_err(), "no pages to give");
    }

    #[test]
    fn reassign_to_same_class_fails() {
        let mut s = store();
        let small = s.classes().class_for(69).unwrap();
        s.set(KeyId(1), 10, t(1)).unwrap();
        assert!(s.reassign_page(small, small).is_err());
    }

    #[test]
    fn suggest_none_when_no_free_pages() {
        let mut s = store();
        let small = s.classes().class_for(69).unwrap();
        let cap = 2 * s.classes().chunks_per_page(small);
        for k in 0..cap + 10 {
            s.set(KeyId(k), 10, t(k + 1)).unwrap(); // evicts at the end
        }
        // Evictions happened but the only pressured class is also the only
        // donor candidate — and it has no free page anyway.
        assert!(s.suggest_rebalance().is_none());
    }

    #[test]
    fn store_stays_consistent_after_reassign() {
        let mut s = store();
        let small = s.classes().class_for(69).unwrap();
        let cap = 2 * s.classes().chunks_per_page(small);
        for k in 0..cap {
            s.set(KeyId(k), 10, t(k + 1)).unwrap();
        }
        let large = s.classes().class_for(959).unwrap();
        s.reassign_page(small, large).unwrap();
        // Every surviving key still gettable; MRU order intact.
        let mut hits = 0u64;
        for k in 0..cap {
            if s.get(KeyId(k), t(1_000_000 + k)).is_some() {
                hits += 1;
            }
        }
        assert_eq!(hits, s.len_of_class(small));
        let dump = s.dump_class(small);
        for w in dump.items.windows(2) {
            assert!(w[0].hotness() >= w[1].hotness());
        }
    }
}
