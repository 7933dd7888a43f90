//! Slab size classes.
//!
//! Memcached partitions items by size: class *i* stores items of up to
//! `chunk_size(i)` bytes, where chunk sizes grow geometrically from a
//! minimum (default 96 bytes, growth factor 1.25) up to the page size.

use elmem_util::{ByteSize, ElmemError};

/// Index of a slab size class within a store.
///
/// ```
/// use elmem_store::ClassId;
/// assert_eq!(ClassId(3).0, 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ClassId(pub u16);

impl std::fmt::Display for ClassId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "class{}", self.0)
    }
}

/// The ladder of chunk sizes (Memcached's `-f` growth factor and `-n`
/// minimum chunk size).
///
/// # Example
///
/// ```
/// use elmem_store::SizeClasses;
///
/// let classes = SizeClasses::memcached_default();
/// let cid = classes.class_for(100).unwrap();
/// assert!(classes.chunk_size(cid) >= 100);
/// // Items larger than the largest chunk are rejected.
/// assert!(classes.class_for(2 * 1024 * 1024).is_none());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SizeClasses {
    /// Chunk size of each class, strictly increasing.
    chunk_sizes: Vec<u64>,
}

impl SizeClasses {
    /// Memcached's default ladder: minimum chunk 96 bytes, growth factor
    /// 1.25, capped at the 1 MB page size.
    pub fn memcached_default() -> Self {
        Self::new(96, 1.25, ByteSize::PAGE.as_u64())
    }

    /// Builds a ladder starting at `min_chunk` bytes, multiplying by
    /// `growth_factor`, up to `max_chunk` bytes (the final class is exactly
    /// `max_chunk` if the ladder does not land on it).
    ///
    /// # Panics
    ///
    /// Panics if `min_chunk == 0`, `growth_factor <= 1.0`, or
    /// `max_chunk < min_chunk`.
    pub fn new(min_chunk: u64, growth_factor: f64, max_chunk: u64) -> Self {
        assert!(min_chunk > 0, "min_chunk must be positive");
        assert!(growth_factor > 1.0, "growth factor must exceed 1.0");
        assert!(max_chunk >= min_chunk, "max_chunk below min_chunk");
        let mut chunk_sizes = Vec::new();
        let mut size = min_chunk as f64;
        while (size as u64) < max_chunk {
            // Memcached aligns chunk sizes to 8 bytes.
            let aligned = ((size as u64) + 7) & !7;
            if chunk_sizes.last() != Some(&aligned) {
                chunk_sizes.push(aligned);
            }
            size *= growth_factor;
        }
        if chunk_sizes.last() != Some(&max_chunk) {
            chunk_sizes.push(max_chunk);
        }
        SizeClasses { chunk_sizes }
    }

    /// Number of classes.
    pub fn len(&self) -> usize {
        self.chunk_sizes.len()
    }

    /// Whether the ladder is empty (never true for a constructed ladder).
    pub fn is_empty(&self) -> bool {
        self.chunk_sizes.is_empty()
    }

    /// The smallest class whose chunk fits an item of `footprint` bytes,
    /// or `None` if the item exceeds the largest chunk.
    pub fn class_for(&self, footprint: u64) -> Option<ClassId> {
        let idx = self.chunk_sizes.partition_point(|&c| c < footprint);
        (idx < self.chunk_sizes.len()).then_some(ClassId(idx as u16))
    }

    /// [`class_for`](Self::class_for) an item about to be stored, or
    /// [`ElmemError::ItemTooLarge`] past the largest chunk.
    pub(crate) fn class_to_store(&self, footprint: u64) -> Result<ClassId, ElmemError> {
        self.class_for(footprint).ok_or(ElmemError::ItemTooLarge {
            item_bytes: footprint,
            max_chunk_bytes: self.max_chunk(),
        })
    }

    /// Chunk size of a class, in bytes.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn chunk_size(&self, id: ClassId) -> u64 {
        self.chunk_sizes[id.0 as usize]
    }

    /// Number of chunks a 1 MB page yields in this class.
    pub fn chunks_per_page(&self, id: ClassId) -> u64 {
        (ByteSize::PAGE.as_u64() / self.chunk_size(id)).max(1)
    }

    /// Iterates over all class ids.
    pub fn ids(&self) -> impl Iterator<Item = ClassId> + '_ {
        (0..self.chunk_sizes.len() as u16).map(ClassId)
    }

    /// The largest chunk size, in bytes.
    pub fn max_chunk(&self) -> u64 {
        *self.chunk_sizes.last().expect("ladder is never empty")
    }
}

impl Default for SizeClasses {
    fn default() -> Self {
        Self::memcached_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_is_strictly_increasing() {
        let c = SizeClasses::memcached_default();
        for w in c.chunk_sizes.windows(2) {
            assert!(w[0] < w[1], "ladder not increasing: {:?}", w);
        }
    }

    #[test]
    fn ladder_is_eight_byte_aligned_except_cap() {
        let c = SizeClasses::memcached_default();
        for (i, &s) in c.chunk_sizes.iter().enumerate() {
            if i + 1 < c.chunk_sizes.len() {
                assert_eq!(s % 8, 0, "class {i} size {s} unaligned");
            }
        }
    }

    #[test]
    fn class_for_picks_smallest_fit() {
        let c = SizeClasses::new(100, 2.0, 1000);
        // Ladder: 104, 200, 400, 800, 1000
        assert_eq!(c.chunk_size(c.class_for(1).unwrap()), 104);
        assert_eq!(c.chunk_size(c.class_for(104).unwrap()), 104);
        assert_eq!(c.chunk_size(c.class_for(105).unwrap()), 200);
        assert_eq!(c.chunk_size(c.class_for(1000).unwrap()), 1000);
        assert_eq!(c.class_for(1001), None);
    }

    #[test]
    fn default_covers_page_sized_items() {
        let c = SizeClasses::memcached_default();
        assert_eq!(c.max_chunk(), ByteSize::PAGE.as_u64());
        assert!(c.class_for(ByteSize::PAGE.as_u64()).is_some());
    }

    #[test]
    fn chunks_per_page() {
        let c = SizeClasses::new(1024, 2.0, ByteSize::PAGE.as_u64());
        let first = c.class_for(1).unwrap();
        assert_eq!(c.chunks_per_page(first), 1024);
        let last = ClassId((c.len() - 1) as u16);
        assert_eq!(c.chunks_per_page(last), 1);
    }

    #[test]
    fn ids_iterates_all() {
        let c = SizeClasses::new(100, 4.0, 1600);
        let ids: Vec<ClassId> = c.ids().collect();
        assert_eq!(ids.len(), c.len());
        assert_eq!(ids[0], ClassId(0));
    }

    #[test]
    #[should_panic]
    fn zero_min_chunk_rejected() {
        let _ = SizeClasses::new(0, 1.25, 100);
    }

    #[test]
    #[should_panic]
    fn growth_factor_must_exceed_one() {
        let _ = SizeClasses::new(96, 1.0, 100);
    }

    #[test]
    fn display_class_id() {
        assert_eq!(ClassId(4).to_string(), "class4");
    }
}
