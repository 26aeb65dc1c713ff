//! Sharded placement cache keyed by the discretized `(B, I)` pair.
//!
//! The paper's 0.1-increment grid (§III) makes the `(B, I)` key space
//! finite, so a serving process sees the same keys over and over. Keys are
//! the **bit patterns** of what the installed predictor reads: the 17
//! variables for predictors that read only those ([`PredKey::features`]),
//! plus the raw graph statistics behind `I` for the rest ([`PredKey::new`];
//! the decision tree reads them). The cache is therefore exact even for
//! off-grid inputs: equal bits mean identical predictor output.
//!
//! Shards are `Mutex`-protected tables selected by key hash. Each evicts by
//! CLOCK (second chance) within its share of the capacity: a hit sets the
//! slot's `referenced` bit; an insert into a full shard sweeps the hand past
//! referenced slots, clearing their bits, and overwrites the first
//! unreferenced one in place — amortized O(1) and allocation-free. A
//! generation counter invalidates the cache on fault-plan/predictor change.

use crate::pad::CacheAligned;
use heteromap_model::{BVector, IVector, MConfig, BI_DIM};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Multiplier of the FxHash word fold (Firefox's hasher): fast, fixed, and
/// good enough for keys that are already full-entropy `f64` bit patterns.
const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Folds a word into an FxHash-style running hash.
#[inline]
fn fx_fold(hash: u64, word: u64) -> u64 {
    (hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED)
}

/// Cache key: the exact bit patterns of the 13 B + 4 I variables and, in
/// the full scope, the four raw statistics behind `I` — everything a
/// [`heteromap_predict::Predictor`] can observe. The hash is folded once at
/// construction, so shard selection, lane selection and the shard index
/// (through [`IdentityHasher`]) all reuse it without re-hashing.
#[derive(Debug, Clone, Copy)]
pub struct PredKey {
    bits: [u64; BI_DIM + 4],
    hash: u64,
}

impl PartialEq for PredKey {
    fn eq(&self, other: &Self) -> bool {
        // Hash first: a one-word reject covers almost every mismatch.
        self.hash == other.hash && self.bits == other.bits
    }
}

impl Eq for PredKey {}

impl Hash for PredKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

impl PredKey {
    /// Builds the full key for one benchmark-input pair: the 17 variables
    /// plus the raw statistics, for predictors that read both.
    pub fn new(b: &BVector, i: &IVector) -> Self {
        let raw = i.raw();
        Self::hashed(
            b,
            i,
            [raw.vertices, raw.edges, raw.max_degree, raw.diameter],
        )
    }

    /// Builds the feature-only key: the 17 variables alone, for predictors
    /// whose [`heteromap_predict::Predictor::reads_raw_stats`] is `false`.
    /// Every graph in one `(B, I)` cell shares this key.
    pub fn features(b: &BVector, i: &IVector) -> Self {
        Self::hashed(b, i, [0; 4])
    }

    fn hashed(b: &BVector, i: &IVector, raw: [u64; 4]) -> Self {
        let mut bits = [0u64; BI_DIM + 4];
        let vars = b.as_array().into_iter().chain(i.as_array());
        for (slot, v) in bits.iter_mut().zip(vars) {
            *slot = v.to_bits();
        }
        bits[BI_DIM..].copy_from_slice(&raw);
        let hash = bits.iter().fold(0u64, |h, &w| fx_fold(h, w));
        PredKey { bits, hash }
    }

    /// Cache-shard index: low hash bits.
    fn shard_index(&self, shards: usize) -> usize {
        (self.hash as u32 as usize) % shards
    }

    /// Batch-assembly-lane index: high hash bits, so lane choice is
    /// independent of shard choice (a hot shard does not imply a hot lane).
    pub fn lane_index(&self, lanes: usize) -> usize {
        ((self.hash >> 32) as usize) % lanes.max(1)
    }
}

/// Pass-through hasher for maps keyed by [`PredKey`]: the key already
/// carries a strong precomputed hash, so the map hasher just forwards it.
#[derive(Debug, Default, Clone, Copy)]
pub struct IdentityHasher(u64);

impl Hasher for IdentityHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("IdentityHasher is only for u64-hashed keys");
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = v;
    }
}

/// `BuildHasher` for [`IdentityHasher`] maps.
pub type IdentityState = BuildHasherDefault<IdentityHasher>;

/// A cached prediction: the machine configuration plus how many predictor
/// fallback steps produced it. The serving engine stores the predictor's
/// own output here with `fallbacks` 0 and runs the feasibility chain per
/// request, since its decision-tree fallback reads each request's raw
/// statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CachedPrediction {
    /// The predicted machine choices.
    pub config: MConfig,
    /// Predictor fallback steps taken when this was computed.
    pub fallbacks: u32,
}

/// Outcome of a cache insert.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertOutcome {
    /// Stored without displacing anything.
    Inserted,
    /// Stored after evicting the first unreferenced entry at the clock hand.
    InsertedEvicting,
    /// Dropped: the cache was invalidated after this value was computed.
    StaleGeneration,
}

#[derive(Debug, Default)]
struct Shard {
    slots: Vec<Slot>,
    index: HashMap<PredKey, u32, IdentityState>,
    hand: usize,
    capacity: usize,
}

#[derive(Debug)]
struct Slot {
    key: PredKey,
    value: CachedPrediction,
    referenced: bool,
}

/// The sharded CLOCK prediction cache. Each shard sits on its own cache
/// line via [`CacheAligned`], so shard locks never false-share.
#[derive(Debug)]
pub struct ShardedCache {
    shards: Vec<CacheAligned<Mutex<Shard>>>,
    generation: AtomicU64,
}

impl ShardedCache {
    /// Creates a cache of `capacity` entries in total (minimum 1), spread
    /// evenly over `shards` shards, clamped to `1..=capacity` shards.
    pub fn new(shards: usize, capacity: usize) -> Self {
        let capacity = capacity.max(1);
        let shards = shards.clamp(1, capacity);
        let shard = |i: usize| Shard {
            capacity: capacity / shards + usize::from(i < capacity % shards),
            ..Shard::default()
        };
        ShardedCache {
            shards: (0..shards)
                .map(|i| CacheAligned::new(Mutex::new(shard(i))))
                .collect(),
            generation: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: &PredKey) -> MutexGuard<'_, Shard> {
        self.shards[key.shard_index(self.shards.len())]
            .lock()
            .expect("cache shard poisoned")
    }

    /// The current invalidation generation. Capture it **before** computing a
    /// value: [`ShardedCache::insert`] drops values from older generations.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Looks up a prediction, marking it referenced (a warm hit writes nothing).
    pub fn get(&self, key: &PredKey) -> Option<CachedPrediction> {
        let shard = &mut *self.shard(key);
        let slot = &mut shard.slots[*shard.index.get(key)? as usize];
        if !slot.referenced {
            slot.referenced = true;
        }
        Some(slot.value)
    }

    /// Inserts a prediction computed at `generation`, evicting by CLOCK if the
    /// shard is full. Values from before the last invalidation are dropped.
    pub fn insert(&self, key: PredKey, value: CachedPrediction, generation: u64) -> InsertOutcome {
        if generation != self.generation() {
            return InsertOutcome::StaleGeneration;
        }
        let shard = &mut *self.shard(&key);
        if let Some(&at) = shard.index.get(&key) {
            let slot = &mut shard.slots[at as usize];
            (slot.value, slot.referenced) = (value, true);
            return InsertOutcome::Inserted;
        }
        let slot = Slot {
            key,
            value,
            referenced: false,
        };
        if shard.slots.len() < shard.capacity {
            shard.index.insert(key, shard.slots.len() as u32);
            shard.slots.push(slot);
            if shard.slots.len() == shard.capacity {
                // Room for capacity/4 tombstones between purges (see below).
                shard.index.reserve(shard.capacity / 4);
            }
            return InsertOutcome::Inserted;
        }
        while std::mem::take(&mut shard.slots[shard.hand].referenced) {
            shard.hand = (shard.hand + 1) % shard.capacity;
        }
        let victim = shard.hand;
        shard.hand = (victim + 1) % shard.capacity;
        shard.index.remove(&shard.slots[victim].key);
        shard.slots[victim] = slot;
        if shard.index.len() == shard.index.capacity() {
            // Removal tombstones used up the spare room, so an insert would
            // reallocate; rebuilding in place (clear keeps the table) won't.
            shard.index.clear();
            let live = shard.slots.iter().enumerate();
            shard.index.extend(live.map(|(at, s)| (s.key, at as u32)));
        } else {
            shard.index.insert(key, victim as u32);
        }
        InsertOutcome::InsertedEvicting
    }

    /// Clears every shard and bumps the generation, so values computed before
    /// it can no longer be inserted. Returns the new generation.
    pub fn invalidate(&self) -> u64 {
        let gen = self.generation.fetch_add(1, Ordering::AcqRel) + 1;
        for shard in &self.shards {
            let mut shard = shard.lock().expect("cache shard poisoned");
            shard.slots.clear();
            shard.index.clear();
            shard.hand = 0;
        }
        gen
    }

    /// Total entries across shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").slots.len())
            .sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heteromap_graph::GraphStats;
    use heteromap_model::Workload;
    use proptest::prelude::*;

    fn key(seed: u64) -> PredKey {
        let stats = GraphStats::from_known(seed + 1, (seed + 1) * 8, 5, 4);
        let i = IVector::from_normalized(
            [
                (seed % 11) as f64 / 10.0,
                ((seed / 11) % 11) as f64 / 10.0,
                0.2,
                0.3,
            ],
            stats,
        );
        PredKey::new(&Workload::Bfs.b_vector(), &i)
    }

    fn value(c: f64) -> CachedPrediction {
        let mut config = MConfig::gpu_default();
        config.cores = c;
        CachedPrediction {
            config,
            fallbacks: 0,
        }
    }

    #[test]
    fn get_after_insert_round_trips() {
        let cache = ShardedCache::new(4, 64);
        let k = key(1);
        assert!(cache.get(&k).is_none());
        assert_eq!(
            cache.insert(k, value(0.5), cache.generation()),
            InsertOutcome::Inserted
        );
        assert_eq!(cache.get(&k).unwrap(), value(0.5));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_keys_do_not_collide() {
        let cache = ShardedCache::new(4, 1024);
        for s in 0..100 {
            cache.insert(key(s), value(s as f64 / 100.0), 0);
        }
        for s in 0..100 {
            assert_eq!(cache.get(&key(s)).unwrap(), value(s as f64 / 100.0));
        }
    }

    #[test]
    fn lru_eviction_prefers_stale_entries() {
        // Single shard, capacity 2: touching `a` makes `b` the LRU victim.
        let cache = ShardedCache::new(1, 2);
        let (a, b, c) = (key(1), key(2), key(3));
        cache.insert(a, value(0.1), 0);
        cache.insert(b, value(0.2), 0);
        assert!(cache.get(&a).is_some());
        assert_eq!(
            cache.insert(c, value(0.3), 0),
            InsertOutcome::InsertedEvicting
        );
        assert!(cache.get(&a).is_some(), "recently used survives");
        assert!(cache.get(&b).is_none(), "LRU entry evicted");
        assert!(cache.get(&c).is_some());
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn invalidation_clears_and_rejects_stale_inserts() {
        let cache = ShardedCache::new(2, 16);
        let gen = cache.generation();
        cache.insert(key(1), value(0.1), gen);
        let new_gen = cache.invalidate();
        assert!(cache.is_empty());
        assert_eq!(new_gen, gen + 1);
        // A value computed before the invalidation must be dropped.
        assert_eq!(
            cache.insert(key(2), value(0.2), gen),
            InsertOutcome::StaleGeneration
        );
        assert!(cache.get(&key(2)).is_none());
        // Fresh-generation inserts work again.
        assert_eq!(
            cache.insert(key(2), value(0.2), new_gen),
            InsertOutcome::Inserted
        );
    }

    #[test]
    fn key_is_exact_bits_not_just_grid_bucket() {
        let stats = GraphStats::from_known(10, 80, 5, 4);
        let a = IVector::from_normalized([0.1, 0.2, 0.3, 0.4], stats);
        let b = IVector::from_normalized([0.1, 0.2, 0.3, 0.4000001], stats);
        let w = Workload::Bfs.b_vector();
        assert_ne!(PredKey::new(&w, &a), PredKey::new(&w, &b));
        assert_eq!(PredKey::new(&w, &a), PredKey::new(&w, &a));
    }

    #[test]
    fn key_covers_raw_stats_behind_equal_normalized_values() {
        // The decision tree reads `IVector::density()` (raw average degree),
        // so two inputs that discretize to the same grid cell but differ in
        // raw statistics must occupy distinct cache entries.
        let sparse = GraphStats::from_known(1_000, 2_000, 5, 4);
        let dense = GraphStats::from_known(1_000, 90_000, 5, 4);
        let a = IVector::from_normalized([0.1, 0.1, 0.0, 0.2], sparse);
        let b = IVector::from_normalized([0.1, 0.1, 0.0, 0.2], dense);
        assert_eq!(a.as_array(), b.as_array(), "same grid cell by construction");
        let w = Workload::Bfs.b_vector();
        assert_ne!(PredKey::new(&w, &a), PredKey::new(&w, &b));
        // Predictors that read only the 17 variables share one entry.
        assert_eq!(PredKey::features(&w, &a), PredKey::features(&w, &b));
        let c = IVector::from_normalized([0.1, 0.1, 0.0, 0.3], sparse);
        assert_ne!(PredKey::features(&w, &a), PredKey::features(&w, &c));
    }

    /// Peeks at a key's `referenced` bit without touching it (`None` if the
    /// key is absent).
    fn referenced(cache: &ShardedCache, k: &PredKey) -> Option<bool> {
        let shard = cache.shard(k);
        shard
            .index
            .get(k)
            .map(|&at| shard.slots[at as usize].referenced)
    }

    fn hand(cache: &ShardedCache) -> usize {
        cache.shards[0].lock().unwrap().hand
    }

    #[test]
    fn referenced_entry_survives_one_sweep_and_loses_its_bit() {
        let cache = ShardedCache::new(1, 3);
        let (a, b, c) = (key(1), key(2), key(3));
        for (s, k) in [a, b, c].into_iter().enumerate() {
            cache.insert(k, value(s as f64 / 10.0), 0);
        }
        assert!(cache.get(&a).is_some());
        assert_eq!(referenced(&cache, &a), Some(true));
        // The hand passes `a` (clearing its bit) and evicts `b`.
        assert_eq!(
            cache.insert(key(4), value(0.4), 0),
            InsertOutcome::InsertedEvicting
        );
        assert_eq!(referenced(&cache, &a), Some(false), "second chance spent");
        assert_eq!(referenced(&cache, &b), None);
        // `c` goes next, then `a`: with its bit cleared it gets no third chance.
        cache.insert(key(5), value(0.5), 0);
        assert_eq!(referenced(&cache, &c), None);
        cache.insert(key(6), value(0.6), 0);
        assert_eq!(referenced(&cache, &a), None);
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn clock_hand_wraps_around() {
        let cache = ShardedCache::new(1, 2);
        let (a, b) = (key(1), key(2));
        cache.insert(a, value(0.1), 0);
        cache.insert(b, value(0.2), 0);
        // Both referenced: the sweep clears both bits, wraps to slot 0 and
        // evicts `a` there.
        assert!(cache.get(&a).is_some() && cache.get(&b).is_some());
        cache.insert(key(3), value(0.3), 0);
        assert_eq!(referenced(&cache, &a), None);
        assert_eq!(referenced(&cache, &b), Some(false));
        assert_eq!(hand(&cache), 1);
        // Evicting from the last slot wraps the hand back to 0.
        cache.insert(key(4), value(0.4), 0);
        assert_eq!(referenced(&cache, &b), None);
        assert_eq!(hand(&cache), 0);
        assert!(cache.get(&key(3)).is_some() && cache.get(&key(4)).is_some());
    }

    #[test]
    fn reinserting_a_present_key_updates_it_in_place() {
        let cache = ShardedCache::new(1, 2);
        let (a, b) = (key(1), key(2));
        cache.insert(a, value(0.1), 0);
        cache.insert(b, value(0.2), 0);
        assert_eq!(cache.insert(a, value(0.9), 0), InsertOutcome::Inserted);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get(&a).unwrap(), value(0.9));
        assert_eq!(cache.get(&b).unwrap(), value(0.2), "nothing evicted");
    }

    #[test]
    fn invalidated_shard_refills_to_capacity_before_evicting() {
        let cache = ShardedCache::new(1, 3);
        for s in 0..5 {
            cache.insert(key(s), value(0.0), 0);
        }
        assert_ne!(hand(&cache), 0);
        let gen = cache.invalidate();
        assert_eq!(hand(&cache), 0);
        for s in 10..13 {
            assert_eq!(
                cache.insert(key(s), value(0.0), gen),
                InsertOutcome::Inserted
            );
        }
        assert_eq!(cache.len(), 3);
        assert_eq!(
            cache.insert(key(13), value(0.0), gen),
            InsertOutcome::InsertedEvicting
        );
    }

    #[test]
    fn total_capacity_is_exactly_the_requested_capacity() {
        let cases = [
            (16, 65_536),
            (16, 10),
            (16, 65_537),
            (3, 10),
            (1, 1),
            (4, 0),
            (0, 5),
        ];
        for (shards, capacity) in cases {
            let cache = ShardedCache::new(shards, capacity);
            let caps: Vec<usize> = cache
                .shards
                .iter()
                .map(|s| s.lock().unwrap().capacity)
                .collect();
            let want = capacity.max(1);
            assert_eq!(caps.len(), shards.clamp(1, want), "{shards} x {capacity}");
            assert_eq!(caps.iter().sum::<usize>(), want, "{shards} x {capacity}");
            let (lo, hi) = (caps.iter().min().unwrap(), caps.iter().max().unwrap());
            assert!(hi - lo <= 1, "{shards} x {capacity}: uneven {caps:?}");
        }
        assert!(ShardedCache::new(16, 65_536)
            .shards
            .iter()
            .all(|s| s.lock().unwrap().capacity == 4_096));
        // Filled with far more keys than it holds, the cache holds exactly
        // `capacity` of them.
        let cache = ShardedCache::new(16, 10);
        for s in 0..500 {
            cache.insert(key(s), value(0.0), 0);
        }
        assert_eq!(cache.len(), 10);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random get/insert/invalidate sequences agree with a shadow map and
        /// keep every shard's slots, index and capacity consistent.
        #[test]
        fn cache_matches_shadow_map(
            shards in 1usize..=4,
            capacity in 1usize..=12,
            ops in prop::collection::vec((0u8..=10, 0u64..16), 0..200),
        ) {
            let cache = ShardedCache::new(shards, capacity);
            let mut shadow: HashMap<u64, CachedPrediction> = HashMap::new();
            let (mut new_keys, mut evictions) = (0usize, 0usize);
            // Op kinds: 0..=4 get, 5..=8 insert, 9 stale insert, 10 invalidate.
            for (n, &(kind, k)) in ops.iter().enumerate() {
                let pk = key(k);
                let gen = cache.generation();
                match kind {
                    0..=4 => {
                        if let Some(got) = cache.get(&pk) {
                            prop_assert_eq!(Some(&got), shadow.get(&k));
                        }
                    }
                    5..=8 => {
                        let (present, full) = {
                            let shard = cache.shard(&pk);
                            (shard.index.contains_key(&pk), shard.slots.len() == shard.capacity)
                        };
                        let v = value(n as f64);
                        let outcome = cache.insert(pk, v, gen);
                        let evicting = !present && full;
                        prop_assert_eq!(outcome == InsertOutcome::InsertedEvicting, evicting);
                        prop_assert!(outcome != InsertOutcome::StaleGeneration);
                        new_keys += usize::from(!present);
                        evictions += usize::from(evicting);
                        shadow.insert(k, v);
                    }
                    9 => {
                        let outcome = cache.insert(pk, value(-1.0), gen + 1);
                        prop_assert_eq!(outcome, InsertOutcome::StaleGeneration);
                    }
                    _ => {
                        cache.invalidate();
                        shadow.clear();
                        (new_keys, evictions) = (0, 0);
                    }
                }
                for shard in &cache.shards {
                    let shard = shard.lock().unwrap();
                    prop_assert!(shard.slots.len() <= shard.capacity);
                    prop_assert_eq!(shard.index.len(), shard.slots.len());
                    for (at, slot) in shard.slots.iter().enumerate() {
                        prop_assert_eq!(shard.index.get(&slot.key), Some(&(at as u32)));
                    }
                }
            }
            // Every new key either grew the cache or evicted one entry.
            prop_assert_eq!(evictions, new_keys - cache.len());
        }
    }
}
