//! Voxel hash tables for point-cloud networks.
//!
//! MinkowskiNet / SparseConvNet kernels locate a voxel's neighbours by
//! probing a hash table keyed on quantised 3-D coordinates (§II-A calls out
//! "hash-table indexing ... in point cloud networks"). The table probe is a
//! *non-affine* `sparse_func`: the final gather address depends on a memory
//! lookup, which defeats affine-pattern prefetchers (IMP) but not runahead,
//! which simply executes the probe speculatively.

use nvr_common::Pcg32;

/// A quantised voxel coordinate.
///
/// # Examples
///
/// ```
/// use nvr_sparse::VoxelKey;
///
/// let k = VoxelKey::new(1, -2, 3);
/// assert_eq!(k.offset(0, 1, 0), VoxelKey::new(1, -1, 3));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VoxelKey {
    /// Quantised x coordinate.
    pub x: i32,
    /// Quantised y coordinate.
    pub y: i32,
    /// Quantised z coordinate.
    pub z: i32,
}

impl VoxelKey {
    /// Creates a key from quantised coordinates.
    #[must_use]
    pub const fn new(x: i32, y: i32, z: i32) -> Self {
        VoxelKey { x, y, z }
    }

    /// The key offset by `(dx, dy, dz)` — a convolution kernel neighbour.
    #[must_use]
    pub const fn offset(self, dx: i32, dy: i32, dz: i32) -> Self {
        VoxelKey {
            x: self.x + dx,
            y: self.y + dy,
            z: self.z + dz,
        }
    }

    /// The 64-bit mixing hash used for bucket selection.
    ///
    /// FNV-1a over the three coordinates, finalised with a 64-bit avalanche
    /// step; deterministic across platforms.
    #[must_use]
    pub fn hash(self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = FNV_OFFSET;
        for v in [self.x, self.y, self.z] {
            for b in v.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(FNV_PRIME);
            }
        }
        // splitmix64 finaliser for avalanche.
        h ^= h >> 30;
        h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h ^= h >> 27;
        h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
        h ^ (h >> 31)
    }
}

/// An open-addressing (linear probing) voxel hash table.
///
/// Maps voxel keys to dense feature-row slots — the indirection point-cloud
/// workloads traverse. [`VoxelHashTable::probe_path`] exposes the bucket
/// sequence a lookup touches, which the trace generator turns into memory
/// accesses.
///
/// # Examples
///
/// ```
/// use nvr_sparse::{VoxelHashTable, VoxelKey};
///
/// let mut t = VoxelHashTable::with_capacity(64);
/// t.insert(VoxelKey::new(0, 0, 0), 7);
/// assert_eq!(t.lookup(VoxelKey::new(0, 0, 0)), Some(7));
/// assert_eq!(t.lookup(VoxelKey::new(1, 0, 0)), None);
/// ```
#[derive(Debug, Clone)]
pub struct VoxelHashTable {
    /// `None` = empty bucket; `Some((key, slot))` = occupied.
    buckets: Vec<Option<(VoxelKey, u32)>>,
    mask: u64,
    len: usize,
}

impl VoxelHashTable {
    /// Creates a table with at least `capacity` buckets (rounded up to a
    /// power of two, minimum 8).
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        let n = capacity.next_power_of_two().max(8);
        VoxelHashTable {
            buckets: vec![None; n],
            mask: (n - 1) as u64,
            len: 0,
        }
    }

    /// Number of buckets.
    #[must_use]
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    /// Number of occupied entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts `key -> slot`; returns the previous slot if the key existed.
    ///
    /// # Panics
    ///
    /// Panics if the table would exceed a 0.9 load factor — the generators
    /// size tables up front, so growth is deliberately unimplemented.
    pub fn insert(&mut self, key: VoxelKey, slot: u32) -> Option<u32> {
        assert!(
            (self.len + 1) as f64 <= self.buckets.len() as f64 * 0.9,
            "voxel table over 90% load; size it larger up front"
        );
        let mut i = key.hash() & self.mask;
        loop {
            match &mut self.buckets[i as usize] {
                Some((k, s)) if *k == key => {
                    let prev = *s;
                    *s = slot;
                    return Some(prev);
                }
                Some(_) => i = (i + 1) & self.mask,
                empty @ None => {
                    *empty = Some((key, slot));
                    self.len += 1;
                    return None;
                }
            }
        }
    }

    /// Looks up the slot stored for `key`.
    #[must_use]
    pub fn lookup(&self, key: VoxelKey) -> Option<u32> {
        let mut i = key.hash() & self.mask;
        loop {
            match &self.buckets[i as usize] {
                Some((k, s)) if *k == key => return Some(*s),
                Some(_) => i = (i + 1) & self.mask,
                None => return None,
            }
        }
    }

    /// The sequence of bucket indices a lookup for `key` probes, including
    /// the terminating bucket (match or empty).
    ///
    /// This is the memory touch sequence of the hardware hash unit: each
    /// probe reads one bucket entry.
    #[must_use]
    pub fn probe_path(&self, key: VoxelKey) -> Vec<usize> {
        let mut path = Vec::new();
        let mut i = key.hash() & self.mask;
        loop {
            path.push(i as usize);
            match &self.buckets[i as usize] {
                Some((k, _)) if *k == key => return path,
                Some(_) => i = (i + 1) & self.mask,
                None => return path,
            }
        }
    }

    /// Builds a table from `n_points` random occupied voxels in a cube of
    /// side `extent`, assigning slots `0..n_points` in insertion order.
    /// Returns the table and the inserted keys.
    ///
    /// # Panics
    ///
    /// Panics if `extent == 0`.
    #[must_use]
    pub fn random(
        n_points: usize,
        extent: u32,
        capacity: usize,
        rng: &mut Pcg32,
    ) -> (Self, Vec<VoxelKey>) {
        assert!(extent > 0, "extent must be non-zero");
        let mut table = VoxelHashTable::with_capacity(capacity.max(n_points * 2));
        let mut keys = Vec::with_capacity(n_points);
        while keys.len() < n_points {
            let key = VoxelKey::new(
                rng.gen_range(u64::from(extent)) as i32,
                rng.gen_range(u64::from(extent)) as i32,
                rng.gen_range(u64::from(extent)) as i32,
            );
            if table.lookup(key).is_none() {
                table.insert(key, keys.len() as u32);
                keys.push(key);
            }
        }
        (table, keys)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_lookup_roundtrip() {
        let mut t = VoxelHashTable::with_capacity(32);
        for i in 0..10 {
            t.insert(VoxelKey::new(i, i * 2, -i), i as u32);
        }
        for i in 0..10 {
            assert_eq!(t.lookup(VoxelKey::new(i, i * 2, -i)), Some(i as u32));
        }
        assert_eq!(t.len(), 10);
    }

    #[test]
    fn insert_replaces_and_returns_previous() {
        let mut t = VoxelHashTable::with_capacity(8);
        let k = VoxelKey::new(1, 2, 3);
        assert_eq!(t.insert(k, 5), None);
        assert_eq!(t.insert(k, 9), Some(5));
        assert_eq!(t.lookup(k), Some(9));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn missing_key_returns_none() {
        let t = VoxelHashTable::with_capacity(8);
        assert_eq!(t.lookup(VoxelKey::new(9, 9, 9)), None);
    }

    #[test]
    fn probe_path_ends_at_match() {
        let mut t = VoxelHashTable::with_capacity(16);
        let k = VoxelKey::new(4, 5, 6);
        t.insert(k, 1);
        let path = t.probe_path(k);
        assert_eq!(
            *path.last().expect("non-empty"),
            (k.hash() & t.mask) as usize
        );
        assert_eq!(path.len(), 1, "direct hit probes one bucket");
    }

    #[test]
    fn collisions_extend_probe_path() {
        let mut t = VoxelHashTable::with_capacity(8);
        // Force collisions by filling half the (tiny) table.
        let mut rng = Pcg32::seed_from_u64(10);
        let (_table, _) = VoxelHashTable::random(3, 100, 8, &mut rng);
        // Collision behaviour: total probes across many lookups in a fuller
        // table exceed one per lookup.
        let mut rng = Pcg32::seed_from_u64(11);
        let (table, keys) = VoxelHashTable::random(200, 64, 512, &mut rng);
        let probes: usize = keys.iter().map(|&k| table.probe_path(k).len()).sum();
        assert!(probes >= keys.len());
        assert!(keys.iter().all(|&k| table.lookup(k).is_some()));
        let _ = t.insert(VoxelKey::new(0, 0, 0), 0);
    }

    #[test]
    fn hash_is_deterministic_and_spread() {
        let a = VoxelKey::new(1, 2, 3).hash();
        let b = VoxelKey::new(1, 2, 3).hash();
        assert_eq!(a, b);
        let c = VoxelKey::new(1, 2, 4).hash();
        assert_ne!(a, c);
        assert!((a ^ c).count_ones() > 8, "near keys should differ widely");
    }

    #[test]
    #[should_panic(expected = "90% load")]
    fn over_load_panics() {
        let mut t = VoxelHashTable::with_capacity(8);
        for i in 0..8 {
            t.insert(VoxelKey::new(i, 0, 0), i as u32);
        }
    }

    #[test]
    fn random_table_unique_keys_sequential_slots() {
        let mut rng = Pcg32::seed_from_u64(12);
        let (table, keys) = VoxelHashTable::random(50, 32, 128, &mut rng);
        assert_eq!(keys.len(), 50);
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(table.lookup(k), Some(i as u32));
        }
    }
}
