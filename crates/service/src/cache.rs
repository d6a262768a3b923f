//! The two-tier result cache in front of the query engine.
//!
//! **Key.** [`cache_key`] hashes `(protocol version, query kind,
//! identity)` with the FNV-1a-128 hasher from `wfc_spec::hash`, where
//! the identity is [`Query::identity`](crate::Query::identity): the
//! canonical text of the query with its budgets included — a type's
//! `format_type` rendering plus the request's `max_configs` and
//! `max_depth`, a sched spec's canonical text (budget words resolved),
//! or a scenario's canonical text (its `budget` directive included).
//! Whitespace, comments and respellings therefore do not fragment the
//! cache. `threads` is deliberately excluded: every analysis is
//! bit-identical across thread counts (the parallel-differential tests
//! enforce this), so a result computed at one parallelism must be
//! served to clients asking at another. The server's caps on what
//! runs stay out too, and so do `obs` settings (write-only telemetry).
//!
//! **Tiers.** An in-memory sharded LRU of `Arc<Json>` results, then an
//! optional append-only disk tier (one `entry-<key>.json` file per
//! result, written atomically via temp-file + rename, plus a
//! `cache-meta.json` the `report --check` validator understands).
//!
//! **Single-flight.** Concurrent requests for the same key coalesce:
//! one leader computes, followers block on a condvar and receive the
//! leader's `Arc`. Errors are delivered to every waiter but **never
//! cached**: a query the server's cap cut short must not become the
//! answer under its uncapped key, and a transient failure must not
//! become permanent.

use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use wfc_obs::json::Json;
use wfc_repl::durable::write_durably;
use wfc_spec::hash::{Hash128, Hasher128};

use crate::analysis::QueryError;
use crate::wire::{QueryKind, PROTO};

/// Schema identifier written into every disk-cache file.
pub const CACHE_SCHEMA: &str = "wfc-svc-cache/v1";

const SHARDS: usize = 8;

/// The cache key of a query: the protocol version, the kind and the
/// query's [`identity`](crate::Query::identity). See the module docs
/// for what is — and is not — part of the identity.
pub fn cache_key(kind: QueryKind, identity: &str) -> Hash128 {
    let mut h = Hasher128::new();
    h.write_str(PROTO);
    h.write_str(kind.as_str());
    h.write_str(identity);
    h.finish()
}

struct Shard {
    map: HashMap<u128, (Arc<Json>, u64)>,
    tick: u64,
}

struct Flight {
    done: Mutex<Option<Result<Arc<Json>, QueryError>>>,
    cv: Condvar,
}

/// How a cache lookup was satisfied.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Served from the in-memory tier.
    Memory,
    /// Served from the disk tier (and promoted to memory).
    Disk,
    /// Coalesced onto another request's in-flight computation.
    Coalesced,
    /// Computed fresh by this request.
    Computed,
}

impl CacheOutcome {
    /// `true` for every outcome that did not run the analysis itself.
    pub fn is_cached(self) -> bool {
        !matches!(self, CacheOutcome::Computed)
    }
}

/// The two-tier, single-flight result cache.
pub struct ResultCache {
    shards: Vec<Mutex<Shard>>,
    per_shard_capacity: usize,
    disk_dir: Option<PathBuf>,
    mem_entries: AtomicU64,
    disk_entries: AtomicU64,
    disk_writes: AtomicU64,
    flights: Mutex<HashMap<u128, Arc<Flight>>>,
}

impl std::fmt::Debug for ResultCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResultCache")
            .field("per_shard_capacity", &self.per_shard_capacity)
            .field("disk_dir", &self.disk_dir)
            .finish_non_exhaustive()
    }
}

impl ResultCache {
    /// A cache holding at most `capacity` results in memory, optionally
    /// persisting to `disk_dir` (created if missing).
    ///
    /// # Errors
    ///
    /// An I/O error message if `disk_dir` cannot be created or scanned.
    pub fn new(capacity: usize, disk_dir: Option<PathBuf>) -> Result<ResultCache, String> {
        let per_shard_capacity = capacity.div_ceil(SHARDS).max(1);
        let mut existing = 0u64;
        if let Some(dir) = &disk_dir {
            fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create cache dir `{}`: {e}", dir.display()))?;
            let entries = fs::read_dir(dir)
                .map_err(|e| format!("cannot read cache dir `{}`: {e}", dir.display()))?;
            for entry in entries.flatten() {
                let name = entry.file_name();
                let name = name.to_string_lossy();
                if name.starts_with("entry-") && name.ends_with(".json") {
                    existing += 1;
                }
            }
        }
        Ok(ResultCache {
            shards: (0..SHARDS)
                .map(|_| {
                    Mutex::new(Shard {
                        map: HashMap::new(),
                        tick: 0,
                    })
                })
                .collect(),
            per_shard_capacity,
            disk_dir,
            mem_entries: AtomicU64::new(0),
            disk_entries: AtomicU64::new(existing),
            disk_writes: AtomicU64::new(0),
            flights: Mutex::new(HashMap::new()),
        })
    }

    fn shard(&self, key: Hash128) -> &Mutex<Shard> {
        // The low bits of an FNV hash are well mixed.
        &self.shards[(key.0 as usize) % SHARDS]
    }

    fn memory_get(&self, key: Hash128) -> Option<Arc<Json>> {
        let mut shard = self.shard(key).lock().unwrap();
        shard.tick += 1;
        let tick = shard.tick;
        let entry = shard.map.get_mut(&key.0)?;
        entry.1 = tick;
        Some(Arc::clone(&entry.0))
    }

    fn memory_put(&self, key: Hash128, value: Arc<Json>) {
        let mut shard = self.shard(key).lock().unwrap();
        shard.tick += 1;
        let tick = shard.tick;
        if shard.map.len() >= self.per_shard_capacity && !shard.map.contains_key(&key.0) {
            // Evict the least recently used entry of this shard. A linear
            // scan is fine at the capacities a server runs with
            // (hundreds per shard), and keeps the structure simple.
            if let Some(&victim) = shard
                .map
                .iter()
                .min_by_key(|(_, (_, t))| *t)
                .map(|(k, _)| k)
            {
                shard.map.remove(&victim);
                self.mem_entries.fetch_sub(1, Ordering::Relaxed);
                wfc_obs::counter!("service.cache.evictions");
            }
        }
        if shard.map.insert(key.0, (value, tick)).is_none() {
            self.mem_entries.fetch_add(1, Ordering::Relaxed);
        }
        wfc_obs::gauge_set!(
            "service.cache.mem.entries",
            self.mem_entries.load(Ordering::Relaxed)
        );
    }

    fn entry_path(dir: &Path, key: Hash128) -> PathBuf {
        dir.join(format!("entry-{}.json", key.to_hex()))
    }

    fn disk_get(&self, key: Hash128) -> Option<Json> {
        let dir = self.disk_dir.as_ref()?;
        let text = match fs::read_to_string(Self::entry_path(dir, key)) {
            Ok(text) => text,
            Err(e) => {
                if e.kind() != std::io::ErrorKind::NotFound {
                    // Present but unreadable is corruption-shaped, not
                    // a plain miss.
                    wfc_obs::counter!("service.cache.disk.corrupt");
                }
                return None;
            }
        };
        // A file that exists but does not parse/validate is a truncated
        // or garbled write from a past crash: count it as corruption and
        // serve a miss — the entry recomputes and overwrites it.
        let corrupt = || {
            wfc_obs::counter!("service.cache.disk.corrupt");
            None
        };
        let Ok(doc) = wfc_obs::json::parse(&text) else {
            return corrupt();
        };
        // Only trust well-formed entries whose embedded key matches the
        // file we asked for.
        if validate_cache_json(&doc).is_err() {
            return corrupt();
        }
        if doc.get("key").and_then(Json::as_str) != Some(key.to_hex().as_str()) {
            return corrupt();
        }
        doc.get("result").cloned()
    }

    fn disk_put(&self, key: Hash128, kind: QueryKind, type_name: &str, result: &Json) {
        let Some(dir) = self.disk_dir.as_ref() else {
            return;
        };
        let doc = Json::obj(vec![
            ("schema", Json::Str(CACHE_SCHEMA.to_owned())),
            ("key", Json::Str(key.to_hex())),
            ("kind", Json::Str(kind.as_str().to_owned())),
            ("type", Json::Str(type_name.to_owned())),
            ("result", result.clone()),
        ]);
        let path = Self::entry_path(dir, key);
        let fresh = !path.exists();
        // Durable, not merely atomic: the file is fsynced before the
        // rename and the directory after it, so a crash cannot leave
        // the entry name pointing at missing bytes. Replication counts
        // on this — an applied entry must actually survive.
        if write_durably(dir, &path, &doc.render()).is_err() {
            return; // disk tier is best-effort; memory still serves
        }
        if fresh {
            self.disk_entries.fetch_add(1, Ordering::Relaxed);
        }
        wfc_obs::gauge_set!(
            "service.cache.disk.entries",
            self.disk_entries.load(Ordering::Relaxed)
        );
        let writes = self.disk_writes.fetch_add(1, Ordering::Relaxed) + 1;
        let meta = Json::obj(vec![
            ("schema", Json::Str(CACHE_SCHEMA.to_owned())),
            (
                "entries",
                Json::U64(self.disk_entries.load(Ordering::Relaxed)),
            ),
            ("writes", Json::U64(writes)),
        ]);
        let _ = write_durably(dir, &dir.join("cache-meta.json"), &meta.render());
    }

    /// Applies a replication-committed entry to both tiers. Idempotent:
    /// re-applying the same `(key, result)` is a plain overwrite with
    /// identical bytes, which is what makes out-of-order and replayed
    /// commits safe.
    pub fn apply_replicated(&self, key: Hash128, kind: QueryKind, type_name: &str, result: &Json) {
        let value = Arc::new(result.clone());
        self.memory_put(key, value);
        self.disk_put(key, kind, type_name, result);
        wfc_obs::counter!("service.cache.replicated");
    }

    /// Reads an entry's result straight from the tiers (memory, then
    /// disk) without computing — the differential tests use this to
    /// prove a replicated insert landed byte-identically.
    pub fn peek(&self, key: Hash128) -> Option<Arc<Json>> {
        if let Some(hit) = self.memory_get(key) {
            return Some(hit);
        }
        self.disk_get(key).map(Arc::new)
    }

    /// Looks up `key`, or computes it via `compute`, with single-flight
    /// coalescing. Returns the result and how it was obtained.
    ///
    /// # Errors
    ///
    /// Propagates `compute`'s error (to the leader **and** every
    /// coalesced waiter); errors are never stored in either tier.
    pub fn get_or_compute(
        &self,
        key: Hash128,
        kind: QueryKind,
        type_name: &str,
        compute: impl FnOnce() -> Result<Json, QueryError>,
    ) -> Result<(Arc<Json>, CacheOutcome), QueryError> {
        if let Some(hit) = self.memory_get(key) {
            wfc_obs::counter!("service.cache.mem.hits");
            return Ok((hit, CacheOutcome::Memory));
        }
        wfc_obs::counter!("service.cache.mem.misses");
        if self.disk_dir.is_some() {
            if let Some(doc) = self.disk_get(key) {
                wfc_obs::counter!("service.cache.disk.hits");
                let value = Arc::new(doc);
                self.memory_put(key, Arc::clone(&value));
                return Ok((value, CacheOutcome::Disk));
            }
            wfc_obs::counter!("service.cache.disk.misses");
        }

        // Single-flight: join an in-flight computation if one exists,
        // otherwise become the leader.
        let (flight, leader) = {
            let mut flights = self.flights.lock().unwrap();
            match flights.get(&key.0) {
                Some(f) => (Arc::clone(f), false),
                None => {
                    let f = Arc::new(Flight {
                        done: Mutex::new(None),
                        cv: Condvar::new(),
                    });
                    flights.insert(key.0, Arc::clone(&f));
                    (f, true)
                }
            }
        };

        if !leader {
            wfc_obs::counter!("service.cache.coalesced");
            let mut done = flight.done.lock().unwrap();
            while done.is_none() {
                done = flight.cv.wait(done).unwrap();
            }
            return match done.as_ref().unwrap() {
                Ok(value) => Ok((Arc::clone(value), CacheOutcome::Coalesced)),
                Err(e) => Err(e.clone()),
            };
        }

        let outcome = compute();
        let stored = match &outcome {
            Ok(doc) => {
                let value = Arc::new(doc.clone());
                self.memory_put(key, Arc::clone(&value));
                self.disk_put(key, kind, type_name, doc);
                Ok(value)
            }
            Err(e) => Err(e.clone()),
        };
        {
            let mut done = flight.done.lock().unwrap();
            *done = Some(stored.clone());
            flight.cv.notify_all();
        }
        self.flights.lock().unwrap().remove(&key.0);
        stored.map(|value| (value, CacheOutcome::Computed))
    }
}

/// Validates a `wfc-svc-cache/v1` document — either an
/// `entry-<key>.json` result file or the `cache-meta.json` summary.
/// This is what `report --check` dispatches to for cache directories.
///
/// # Errors
///
/// A description of the first structural violation found.
pub fn validate_cache_json(doc: &Json) -> Result<(), String> {
    match doc.get("schema").and_then(Json::as_str) {
        Some(s) if s == CACHE_SCHEMA => {}
        Some(s) => return Err(format!("schema is `{s}`, expected `{CACHE_SCHEMA}`")),
        None => return Err("missing string field `schema`".to_owned()),
    }
    if let Some(key) = doc.get("key") {
        // An entry file: key + kind + type + result.
        let key = key.as_str().ok_or("field `key` is not a string")?;
        if Hash128::from_hex(key).is_none() {
            return Err(format!("field `key` is not a 128-bit hex hash: `{key}`"));
        }
        let kind = doc
            .get("kind")
            .and_then(Json::as_str)
            .ok_or("entry missing string field `kind`")?;
        if QueryKind::parse(kind).is_none() {
            return Err(format!("entry has unknown query kind `{kind}`"));
        }
        doc.get("type")
            .and_then(Json::as_str)
            .ok_or("entry missing string field `type`")?;
        match doc.get("result") {
            Some(Json::Obj(_)) => Ok(()),
            Some(_) => Err("entry field `result` is not an object".to_owned()),
            None => Err("entry missing field `result`".to_owned()),
        }
    } else {
        // The meta file: entries + writes.
        let entries = doc
            .get("entries")
            .and_then(Json::as_u64)
            .ok_or("meta missing integer field `entries`")?;
        let writes = doc
            .get("writes")
            .and_then(Json::as_u64)
            .ok_or("meta missing integer field `writes`")?;
        if entries > writes {
            return Err(format!(
                "meta claims {entries} entries from only {writes} writes"
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::QueryOptions;
    use crate::Query;
    use wfc_spec::canonical;

    fn key_of(kind: QueryKind, ty: &wfc_spec::FiniteType, options: &QueryOptions) -> Hash128 {
        let text = wfc_spec::text::format_type(ty);
        cache_key(kind, Query::parse(kind, &text, options).unwrap().identity())
    }

    fn opts() -> QueryOptions {
        QueryOptions::default()
    }

    #[test]
    fn key_ignores_threads_and_formatting_but_not_budgets() {
        let ty = canonical::test_and_set(2);
        let base = key_of(QueryKind::AccessBounds, &ty, &opts());
        assert_eq!(
            base,
            key_of(QueryKind::AccessBounds, &ty, &opts().with_threads(4)),
            "thread count must not fragment the cache"
        );
        // A comment-laden copy of the canonical rendering yields the
        // same key because the identity is format_type output.
        let text = wfc_spec::text::format_type(&ty);
        let noisy = format!("# a comment\n{}", text.replace('\n', "\n\n"));
        let reparsed = Query::parse(QueryKind::AccessBounds, &noisy, &opts()).unwrap();
        assert_eq!(
            base,
            cache_key(QueryKind::AccessBounds, reparsed.identity())
        );
        // But kind and budgets are identity.
        assert_ne!(base, key_of(QueryKind::Theorem5, &ty, &opts()));
        assert_ne!(
            base,
            key_of(QueryKind::AccessBounds, &ty, &opts().with_max_configs(10))
        );
        assert_ne!(
            base,
            key_of(QueryKind::AccessBounds, &ty, &opts().with_max_depth(10))
        );
        // And distinct types collide with nothing in the zoo.
        let other = canonical::sticky_bit(2);
        assert_ne!(base, key_of(QueryKind::AccessBounds, &other, &opts()));
    }

    #[test]
    fn memory_tier_hits_and_evicts() {
        let cache = ResultCache::new(SHARDS, None).unwrap(); // 1 slot per shard
        let ty = canonical::test_and_set(2);
        let key = key_of(QueryKind::Classify, &ty, &opts());
        let doc = Json::obj(vec![("x", Json::U64(1))]);
        let (v1, how) = cache
            .get_or_compute(key, QueryKind::Classify, "t", || Ok(doc.clone()))
            .unwrap();
        assert_eq!(how, CacheOutcome::Computed);
        let (v2, how) = cache
            .get_or_compute(key, QueryKind::Classify, "t", || {
                panic!("must not recompute")
            })
            .unwrap();
        assert_eq!(how, CacheOutcome::Memory);
        assert!(Arc::ptr_eq(&v1, &v2));

        // Overflow the key's shard (capacity 1): a second key in the
        // same shard must evict the original.
        let probe = Hash128(key.0.wrapping_add(SHARDS as u128)); // same shard by construction
        cache
            .get_or_compute(probe, QueryKind::Classify, "t", || Ok(Json::Null))
            .unwrap();
        let (_, how) = cache
            .get_or_compute(key, QueryKind::Classify, "t", || Ok(doc.clone()))
            .unwrap();
        assert_eq!(how, CacheOutcome::Computed, "LRU should have evicted");
    }

    #[test]
    fn errors_are_delivered_but_never_cached() {
        let cache = ResultCache::new(16, None).unwrap();
        let key = Hash128(42);
        let err = cache
            .get_or_compute(key, QueryKind::Classify, "t", || {
                Err(QueryError::Analysis("boom".into()))
            })
            .unwrap_err();
        assert_eq!(err.code(), "analysis-error");
        // The failure did not poison the key.
        let (_, how) = cache
            .get_or_compute(key, QueryKind::Classify, "t", || Ok(Json::Null))
            .unwrap();
        assert_eq!(how, CacheOutcome::Computed);
    }

    #[test]
    fn single_flight_coalesces_concurrent_lookups() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let cache = Arc::new(ResultCache::new(16, None).unwrap());
        let computations = Arc::new(AtomicUsize::new(0));
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let key = Hash128(7);

        // Leader: computes, but blocks inside compute() until released.
        let leader = {
            let cache = Arc::clone(&cache);
            let computations = Arc::clone(&computations);
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || {
                cache
                    .get_or_compute(key, QueryKind::Classify, "t", || {
                        computations.fetch_add(1, Ordering::SeqCst);
                        let (lock, cv) = &*gate;
                        let mut open = lock.lock().unwrap();
                        while !*open {
                            open = cv.wait(open).unwrap();
                        }
                        Ok(Json::U64(99))
                    })
                    .unwrap()
            })
        };
        // Wait until the leader is inside compute().
        while computations.load(Ordering::SeqCst) == 0 {
            std::thread::yield_now();
        }
        // Follower: must coalesce, not recompute.
        let follower = {
            let cache = Arc::clone(&cache);
            let computations = Arc::clone(&computations);
            std::thread::spawn(move || {
                cache
                    .get_or_compute(key, QueryKind::Classify, "t", || {
                        computations.fetch_add(1, Ordering::SeqCst);
                        Ok(Json::U64(99))
                    })
                    .unwrap()
            })
        };
        // Give the follower a moment to join the flight, then release.
        std::thread::sleep(std::time::Duration::from_millis(20));
        {
            let (lock, cv) = &*gate;
            *lock.lock().unwrap() = true;
            cv.notify_all();
        }
        let (lv, lhow) = leader.join().unwrap();
        let (fv, fhow) = follower.join().unwrap();
        assert_eq!(
            computations.load(Ordering::SeqCst),
            1,
            "exactly one compute"
        );
        assert_eq!(lhow, CacheOutcome::Computed);
        assert!(
            fhow == CacheOutcome::Coalesced || fhow == CacheOutcome::Memory,
            "follower served without computing (got {fhow:?})"
        );
        assert_eq!(*lv, *fv);
    }

    #[test]
    fn disk_tier_persists_across_instances_and_validates() {
        let dir = std::env::temp_dir().join(format!("wfc-svc-cache-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let ty = canonical::test_and_set(2);
        let key = key_of(QueryKind::Witness, &ty, &opts());
        let doc = Json::obj(vec![("witness", Json::Null)]);
        {
            let cache = ResultCache::new(16, Some(dir.clone())).unwrap();
            let (_, how) = cache
                .get_or_compute(key, QueryKind::Witness, ty.name(), || Ok(doc.clone()))
                .unwrap();
            assert_eq!(how, CacheOutcome::Computed);
        }
        // A fresh instance (empty memory) finds the entry on disk.
        let cache = ResultCache::new(16, Some(dir.clone())).unwrap();
        let (v, how) = cache
            .get_or_compute(key, QueryKind::Witness, ty.name(), || {
                panic!("disk should have served this")
            })
            .unwrap();
        assert_eq!(how, CacheOutcome::Disk);
        assert_eq!(*v, doc);
        // Every file the cache wrote validates.
        let mut checked = 0;
        for entry in fs::read_dir(&dir).unwrap().flatten() {
            let text = fs::read_to_string(entry.path()).unwrap();
            let parsed = wfc_obs::json::parse(&text).unwrap();
            validate_cache_json(&parsed)
                .unwrap_or_else(|e| panic!("{}: {e}", entry.path().display()));
            checked += 1;
        }
        assert_eq!(checked, 2, "one entry file plus cache-meta.json");
        let _ = fs::remove_dir_all(&dir);
    }

    /// The corruption-tolerance satellite: a disk entry truncated at
    /// *every* byte offset (and a bit-flipped one) must read as a miss
    /// — recompute and overwrite — never as an error, and never serve
    /// mangled bytes.
    #[test]
    fn corrupt_disk_entries_read_as_misses_at_every_truncation() {
        let dir = std::env::temp_dir().join(format!("wfc-svc-corrupt-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let ty = canonical::test_and_set(2);
        let key = key_of(QueryKind::Classify, &ty, &opts());
        let doc = Json::obj(vec![("verdict", Json::Str("case2".to_owned()))]);
        {
            let cache = ResultCache::new(16, Some(dir.clone())).unwrap();
            cache
                .get_or_compute(key, QueryKind::Classify, ty.name(), || Ok(doc.clone()))
                .unwrap();
        }
        let path = ResultCache::entry_path(&dir, key);
        let full = fs::read(&path).unwrap();
        for cut in 0..full.len() {
            fs::write(&path, &full[..cut]).unwrap();
            // A cut can leave a still-valid document (dropping only the
            // trailing newline does); serving it is correct. Every
            // other cut must read as a miss.
            let prefix_valid = std::str::from_utf8(&full[..cut])
                .ok()
                .and_then(|text| wfc_obs::json::parse(text).ok())
                .is_some_and(|d| validate_cache_json(&d).is_ok());
            let cache = ResultCache::new(16, Some(dir.clone())).unwrap();
            let (v, how) = cache
                .get_or_compute(key, QueryKind::Classify, ty.name(), || Ok(doc.clone()))
                .unwrap();
            assert_eq!(*v, doc, "cut at {cut}: result must be intact either way");
            if prefix_valid {
                assert_eq!(how, CacheOutcome::Disk, "cut at {cut}: still a valid doc");
                fs::write(&path, &full).unwrap();
                continue;
            }
            assert_eq!(how, CacheOutcome::Computed, "cut at {cut}: must be a miss");
            // The recompute repaired the file in place.
            let restored = ResultCache::new(16, Some(dir.clone())).unwrap();
            assert_eq!(restored.peek(key).as_deref(), Some(&doc));
            let repaired = fs::read(&path).unwrap();
            assert_eq!(repaired, full, "cut at {cut}: rewrite must restore bytes");
        }
        // Garbage rather than truncation: flip a byte inside `result`.
        let mut garbled = full.clone();
        let last = garbled.len() - 2;
        garbled[last] = b'!';
        fs::write(&path, &garbled).unwrap();
        let cache = ResultCache::new(16, Some(dir.clone())).unwrap();
        let (_, how) = cache
            .get_or_compute(key, QueryKind::Classify, ty.name(), || Ok(doc.clone()))
            .unwrap();
        assert_eq!(how, CacheOutcome::Computed);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn apply_replicated_lands_in_both_tiers_idempotently() {
        let dir = std::env::temp_dir().join(format!("wfc-svc-apply-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let key = Hash128(0xfeed);
        let doc = Json::obj(vec![("replicated", Json::Bool(true))]);
        let cache = ResultCache::new(16, Some(dir.clone())).unwrap();
        cache.apply_replicated(key, QueryKind::Classify, "t", &doc);
        cache.apply_replicated(key, QueryKind::Classify, "t", &doc);
        let (v, how) = cache
            .get_or_compute(key, QueryKind::Classify, "t", || {
                panic!("replicated insert must serve this")
            })
            .unwrap();
        assert_eq!(how, CacheOutcome::Memory);
        assert_eq!(*v, doc);
        // And it survives a restart via the disk tier.
        let fresh = ResultCache::new(16, Some(dir.clone())).unwrap();
        assert_eq!(fresh.peek(key).as_deref(), Some(&doc));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        let bad = Json::obj(vec![("schema", Json::Str("wfc-obs/v1".to_owned()))]);
        assert!(validate_cache_json(&bad).is_err());
        let bad = Json::obj(vec![
            ("schema", Json::Str(CACHE_SCHEMA.to_owned())),
            ("key", Json::Str("zz".to_owned())),
        ]);
        assert!(validate_cache_json(&bad).is_err());
        let bad = Json::obj(vec![
            ("schema", Json::Str(CACHE_SCHEMA.to_owned())),
            ("entries", Json::U64(5)),
            ("writes", Json::U64(3)),
        ]);
        assert!(validate_cache_json(&bad).is_err());
        let good = Json::obj(vec![
            ("schema", Json::Str(CACHE_SCHEMA.to_owned())),
            ("entries", Json::U64(3)),
            ("writes", Json::U64(5)),
        ]);
        assert!(validate_cache_json(&good).is_ok());
    }
}
