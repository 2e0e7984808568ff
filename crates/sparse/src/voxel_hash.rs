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
    buckets: Vec<Bucket>,
    mask: u64,
    len: usize,
}

/// One 16-byte bucket: a key and its slot, or empty when `slot` is
/// [`EMPTY`].
#[derive(Debug, Clone, Copy)]
struct Bucket {
    key: VoxelKey,
    slot: u32,
}

/// The slot value marking an empty bucket; never stored.
const EMPTY: u32 = u32::MAX;

impl Bucket {
    const VACANT: Bucket = Bucket {
        key: VoxelKey::new(0, 0, 0),
        slot: EMPTY,
    };
}

impl VoxelHashTable {
    /// Creates a table with at least `capacity` buckets (rounded up to a
    /// power of two, minimum 8).
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        let n = capacity.next_power_of_two().max(8);
        VoxelHashTable {
            buckets: vec![Bucket::VACANT; n],
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
    /// size tables up front, so growth is deliberately unimplemented — or
    /// if `slot` is `u32::MAX`, which marks empty buckets.
    pub fn insert(&mut self, key: VoxelKey, slot: u32) -> Option<u32> {
        self.assert_room();
        let (bucket, prev) = self.probe(key);
        self.place(bucket, key, slot);
        if prev.is_none() {
            self.len += 1;
        }
        prev
    }

    /// Inserts `key -> slot` unless `key` is present, with one probe;
    /// returns whether it inserted. A present key keeps its slot.
    ///
    /// # Panics
    ///
    /// As [`VoxelHashTable::insert`], when the key is new.
    pub fn insert_if_absent(&mut self, key: VoxelKey, slot: u32) -> bool {
        let (bucket, prev) = self.probe(key);
        if prev.is_some() {
            return false;
        }
        self.assert_room();
        self.place(bucket, key, slot);
        self.len += 1;
        true
    }

    fn assert_room(&self) {
        assert!(
            (self.len + 1) as f64 <= self.buckets.len() as f64 * 0.9,
            "voxel table over 90% load; size it larger up front"
        );
    }

    fn place(&mut self, bucket: usize, key: VoxelKey, slot: u32) {
        assert_ne!(slot, EMPTY, "slot u32::MAX marks empty buckets");
        self.buckets[bucket] = Bucket { key, slot };
    }

    /// Looks up the slot stored for `key`.
    #[must_use]
    pub fn lookup(&self, key: VoxelKey) -> Option<u32> {
        self.probe(key).1
    }

    /// One lookup for `key`: the terminating bucket (the last entry of
    /// [`VoxelHashTable::probe_path`]) and the slot stored there, `None`
    /// when the bucket is empty.
    #[must_use]
    pub fn probe(&self, key: VoxelKey) -> (usize, Option<u32>) {
        let mut i = key.hash() & self.mask;
        loop {
            let b = self.buckets[i as usize];
            if b.slot == EMPTY {
                return (i as usize, None);
            }
            if b.key == key {
                return (i as usize, Some(b.slot));
            }
            i = (i + 1) & self.mask;
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
            let b = self.buckets[i as usize];
            if b.slot == EMPTY || b.key == key {
                return path;
            }
            i = (i + 1) & self.mask;
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
            if table.insert_if_absent(key, keys.len() as u32) {
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
    fn buckets_are_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<Bucket>(), 16);
    }

    #[test]
    fn insert_if_absent_keeps_the_first_slot() {
        let mut t = VoxelHashTable::with_capacity(8);
        let k = VoxelKey::new(1, 2, 3);
        assert!(t.insert_if_absent(k, 5));
        assert!(!t.insert_if_absent(k, 9));
        assert_eq!(t.lookup(k), Some(5));
        assert_eq!(t.len(), 1);
    }

    #[test]
    #[should_panic(expected = "marks empty buckets")]
    fn empty_marker_slot_panics() {
        VoxelHashTable::with_capacity(8).insert(VoxelKey::new(0, 0, 0), u32::MAX);
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
    fn probe_matches_probe_walk_and_linear_search() {
        // 88% load: long collision chains for present and absent keys.
        let mut table = VoxelHashTable::with_capacity(512);
        let keys: Vec<VoxelKey> = (0..450).map(|i| VoxelKey::new(i % 20, i / 20, 3)).collect();
        for (slot, &key) in keys.iter().enumerate() {
            table.insert(key, slot as u32);
        }
        let absent = (0..400).map(|i| VoxelKey::new(i, -1 - i, 7));
        let mut longest = 0;
        for key in keys.iter().copied().chain(absent) {
            let path = table.probe_path(key);
            longest = longest.max(path.len());
            let want_slot = keys.iter().position(|&k| k == key).map(|i| i as u32);
            assert_eq!(
                table.probe(key),
                (path[path.len() - 1], want_slot),
                "{key:?}"
            );
        }
        assert!(longest > 8, "the table must exercise long probe chains");
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
