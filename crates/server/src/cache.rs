//! LRU result cache: memoized decisive verdicts with provenance.
//!
//! Keyed by the *content* of the query — network content hash, canonical
//! property text, and the verifier-configuration fingerprint — so two
//! clients submitting the same robustness question share one
//! verification, and a retrained network (different hash) can never be
//! answered from the old network's verdict. Only decisive verdicts
//! (verified / refuted) are cached: a `resource_limit` outcome depends
//! on the submitted budgets, not just on the question.

use std::collections::HashMap;

use charon::Verdict;

/// What a cached verdict is keyed by. All three components pin content,
/// never names: `net_hash` is [`nn::serialize::content_hash`] of the
/// network, `property` is the canonical `charon-prop` text, and `config`
/// is [`crate::protocol::VerifyRequest::config_key`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Content hash of the network.
    pub net_hash: u64,
    /// Canonical property text.
    pub property: String,
    /// Verifier-configuration fingerprint (δ, restarts, seed, search
    /// switches — budgets excluded; see `DESIGN.md`).
    pub config: String,
}

/// A memoized decisive verdict, with enough provenance to tell a client
/// exactly where the answer came from.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedResult {
    /// The decisive verdict: `Verified`, or `Refuted` with its
    /// counterexample.
    pub verdict: Verdict,
    /// The job id that computed this result.
    pub computed_by: u64,
    /// Regions explored by the computing run.
    pub regions: usize,
    /// Wall-clock seconds the computing run took.
    pub compute_seconds: f64,
    /// `charon-cert 1` proof-certificate text, present only when the
    /// computing job requested certification. A later hit from a
    /// non-certifying submission simply ignores it; a certifying
    /// submission that hits an uncertified entry gets the verdict
    /// without a `cert` field (certificates are delivery provenance,
    /// not part of the cache key).
    pub cert: Option<String>,
}

/// A fixed-capacity least-recently-used map from [`CacheKey`] to
/// [`CachedResult`], with hit/miss accounting for the `stats` endpoint.
pub struct ResultCache {
    capacity: usize,
    entries: HashMap<CacheKey, (CachedResult, u64)>,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl ResultCache {
    /// Creates a cache holding at most `capacity` verdicts (0 disables
    /// caching: every lookup misses and nothing is stored).
    pub fn new(capacity: usize) -> Self {
        ResultCache {
            capacity,
            entries: HashMap::new(),
            tick: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Looks up a verdict, refreshing its recency on a hit.
    pub fn get(&mut self, key: &CacheKey) -> Option<CachedResult> {
        self.tick += 1;
        let tick = self.tick;
        match self.entries.get_mut(key) {
            Some((result, touched)) => {
                *touched = tick;
                self.hits += 1;
                Some(result.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Stores a verdict, evicting the least-recently-used entry if the
    /// cache is at capacity.
    pub fn insert(&mut self, key: CacheKey, result: CachedResult) {
        if self.capacity == 0 {
            return;
        }
        self.tick += 1;
        if self.entries.len() >= self.capacity && !self.entries.contains_key(&key) {
            if let Some(oldest) = self
                .entries
                .iter()
                .min_by_key(|(_, (_, touched))| *touched)
                .map(|(k, _)| k.clone())
            {
                self.entries.remove(&oldest);
                self.evictions += 1;
            }
        }
        self.entries.insert(key, (result, self.tick));
    }

    /// The number of cached verdicts.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Lookups that found a cached verdict.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that found nothing.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Entries discarded to make room.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Hits divided by total lookups (0 when no lookups happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(net: u64, prop: &str) -> CacheKey {
        CacheKey {
            net_hash: net,
            property: prop.to_string(),
            config: "d=1e-9".to_string(),
        }
    }

    fn verdict(job: u64) -> CachedResult {
        CachedResult {
            verdict: Verdict::Verified,
            computed_by: job,
            regions: 3,
            compute_seconds: 0.01,
            cert: None,
        }
    }

    #[test]
    fn hit_returns_the_stored_result_with_provenance() {
        let mut cache = ResultCache::new(4);
        assert_eq!(cache.get(&key(1, "p")), None);
        cache.insert(key(1, "p"), verdict(42));
        let hit = cache.get(&key(1, "p")).unwrap();
        assert_eq!(hit.computed_by, 42);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hit_rate(), 0.5);
    }

    #[test]
    fn different_network_hash_is_a_different_entry() {
        let mut cache = ResultCache::new(4);
        cache.insert(key(1, "p"), verdict(1));
        assert_eq!(cache.get(&key(2, "p")), None, "retrained net must miss");
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut cache = ResultCache::new(2);
        cache.insert(key(1, "a"), verdict(1));
        cache.insert(key(2, "b"), verdict(2));
        // Touch "a" so "b" is the LRU entry.
        assert!(cache.get(&key(1, "a")).is_some());
        cache.insert(key(3, "c"), verdict(3));
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&key(1, "a")).is_some(), "recently used survives");
        assert_eq!(cache.get(&key(2, "b")), None, "LRU entry evicted");
        assert_eq!(cache.evictions(), 1);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut cache = ResultCache::new(0);
        cache.insert(key(1, "a"), verdict(1));
        assert!(cache.is_empty());
        assert_eq!(cache.get(&key(1, "a")), None);
    }
}
