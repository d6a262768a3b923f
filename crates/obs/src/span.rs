//! Lightweight spans: monotonic start/stop pairs recorded into
//! per-thread buffers, merged deterministically at drain.
//!
//! A span is opened with [`enter`] (or the [`span!`](crate::span) macro)
//! and records its wall-clock duration into the *current thread's*
//! buffer when the returned [`SpanGuard`] drops — no cross-thread
//! synchronisation on the hot path. Buffers flush when their thread
//! exits (scoped pool workers exit before their spawner resumes)
//! and when [`drain`] runs on the calling thread.
//!
//! ## The wait-free flush path
//!
//! A flush used to append into a global `Mutex<Vec<_>>` collector;
//! it now publishes through a `wfc-waitfree` snapshot channel (a triple
//! buffer of boxed batches). Each thread owns one publisher; the global
//! registry holds the matching subscribers and is locked only twice per
//! thread lifetime on the producer side — once to register, never again
//! — so a flush is a single wait-free publication regardless of how
//! many threads flush or drain concurrently.
//!
//! The triple buffer is *lossy* (a reader sees the latest snapshot, not
//! every one), so publications are **cumulative**: every flush
//! publishes the thread's full record list, and the drainer remembers
//! per-slot how many records it has already consumed. An overwritten
//! intermediate snapshot is then harmless — the surviving one is a
//! superset. A global [`PENDING`] counter (published minus consumed)
//! lets a drain with nothing to collect return after one relaxed load,
//! without touching the registry lock at all — the disabled path of the
//! zero-cost contract.
//!
//! ## The deterministic merge rule
//!
//! [`drain`] aggregates all records by `(name, label)` and returns the
//! aggregates sorted by that key. Which *thread* produced a record never
//! enters the key, and per-key counts depend only on the work performed,
//! so two runs of the same workload at the same thread count drain to
//! the same set of keys with the same counts — only the nanosecond
//! figures vary. Instrumented computations themselves are unaffected:
//! spans are a write-only side channel.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use wfc_waitfree::{snapshot, SnapshotPublisher, SnapshotSubscriber};

/// One closed span, as buffered per thread.
#[derive(Clone, Debug)]
struct SpanRecord {
    name: &'static str,
    label: String,
    dur_ns: u64,
}

/// The drainer's half of one thread's snapshot channel.
struct RegEntry {
    sub: SnapshotSubscriber<Vec<SpanRecord>>,
    /// How many records of the cumulative batch are already merged.
    consumed: usize,
    /// Set by the publishing thread after its final flush; the entry is
    /// pruned at the next drain.
    retired: Arc<AtomicBool>,
}

static REGISTRY: Mutex<Vec<RegEntry>> = Mutex::new(Vec::new());

/// Records published but not yet consumed by a drain, summed over all
/// slots. A relaxed zero here proves a drain has nothing to collect.
static PENDING: AtomicUsize = AtomicUsize::new(0);

#[cfg(test)]
static REGISTRY_LOCKS: AtomicUsize = AtomicUsize::new(0);

fn registry() -> std::sync::MutexGuard<'static, Vec<RegEntry>> {
    #[cfg(test)]
    REGISTRY_LOCKS.fetch_add(1, Ordering::Relaxed);
    REGISTRY.lock().unwrap_or_else(|e| e.into_inner())
}

/// How many times the registry lock has been taken (zero-cost tests
/// assert a disabled drain leaves this unchanged).
#[cfg(test)]
pub(crate) fn registry_locks() -> usize {
    REGISTRY_LOCKS.load(Ordering::Relaxed)
}

/// Published-but-unconsumed record count (tests use it to wait for
/// worker flushes, which land in thread-local destructors).
#[cfg(test)]
pub(crate) fn pending_records() -> usize {
    PENDING.load(Ordering::Relaxed)
}

/// This thread's span buffer and (once it has flushed) its publisher.
struct LocalBuf {
    records: Vec<SpanRecord>,
    /// Prefix of `records` already published (and counted in PENDING).
    published: usize,
    slot: Option<Slot>,
}

struct Slot {
    publisher: SnapshotPublisher<Vec<SpanRecord>>,
    retired: Arc<AtomicBool>,
}

impl LocalBuf {
    /// Publishes the cumulative record list. Wait-free except for the
    /// first flush of the thread's lifetime, which registers the
    /// subscriber half with the drainer.
    fn flush(&mut self) {
        if self.records.len() == self.published {
            return;
        }
        let slot = self.slot.get_or_insert_with(|| {
            let (publisher, sub) = snapshot(Vec::new);
            let retired = Arc::new(AtomicBool::new(false));
            registry().push(RegEntry {
                sub,
                consumed: 0,
                retired: Arc::clone(&retired),
            });
            Slot { publisher, retired }
        });
        // Count before publishing: a racing drain may then see PENDING
        // overshoot and take nothing (it retries later), but can never
        // consume records before they are counted — so PENDING never
        // underflows.
        PENDING.fetch_add(self.records.len() - self.published, Ordering::Relaxed);
        let records = &self.records;
        slot.publisher.publish_with(|batch| {
            batch.clear();
            batch.extend_from_slice(records);
        });
        self.published = self.records.len();
    }
}

impl Drop for LocalBuf {
    fn drop(&mut self) {
        self.flush();
        if let Some(slot) = &self.slot {
            // Release: the final publication above is ordered before
            // the retirement flag a pruning drain acquires.
            slot.retired.store(true, Ordering::Release);
        }
    }
}

thread_local! {
    static BUF: RefCell<LocalBuf> = const {
        RefCell::new(LocalBuf {
            records: Vec::new(),
            published: 0,
            slot: None,
        })
    };
}

/// An open span; records its duration on drop. Inert (and free) when
/// created with recording off.
#[derive(Debug)]
#[must_use = "a span measures the scope it is bound to; bind it to a `let _g`"]
pub struct SpanGuard {
    open: Option<(&'static str, String, Instant)>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((name, label, start)) = self.open.take() {
            let rec = SpanRecord {
                name,
                label,
                dur_ns: start.elapsed().as_nanos() as u64,
            };
            // A thread-local at destruction time (thread teardown) would
            // panic on access; spans are only opened from live code, so
            // plain access is fine.
            BUF.with(|b| b.borrow_mut().records.push(rec));
        }
    }
}

/// Opens a span named `name` with a free-form `label` (e.g. `"level=3"`).
pub fn enter(name: &'static str, label: String) -> SpanGuard {
    SpanGuard {
        open: Some((name, label, Instant::now())),
    }
}

/// Opens a span only when `on` is true; otherwise returns an inert guard.
pub fn enter_if(on: bool, name: &'static str, label: String) -> SpanGuard {
    if on {
        enter(name, label)
    } else {
        SpanGuard { open: None }
    }
}

/// Like [`enter_if`], but builds the label lazily — disabled call sites
/// pay neither the allocation nor the formatting.
pub fn enter_lazy(on: bool, name: &'static str, label: impl FnOnce() -> String) -> SpanGuard {
    if on {
        enter(name, label())
    } else {
        SpanGuard { open: None }
    }
}

/// The aggregate of all records sharing one `(name, label)` key.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanStat {
    /// The span's name.
    pub name: String,
    /// The span's label (may be empty).
    pub label: String,
    /// Number of records merged into this aggregate.
    pub count: u64,
    /// Sum of durations, nanoseconds.
    pub min_ns: u64,
    /// Shortest single duration, nanoseconds.
    pub max_ns: u64,
    /// Longest single duration, nanoseconds.
    pub total_ns: u64,
}

/// Refreshes every registered slot, collecting records past each slot's
/// consumed watermark; prunes slots whose thread has retired. `discard`
/// skips the collection (for [`reset`]) but still advances watermarks.
fn collect(records: &mut Vec<SpanRecord>, discard: bool) {
    let mut reg = registry();
    reg.retain_mut(|entry| {
        // Load retirement *before* refreshing: if the flag is already
        // set, the publisher's final flush happened before it (release/
        // acquire), so the refresh below observes the complete batch
        // and pruning loses nothing.
        let retired = entry.retired.load(Ordering::Acquire);
        entry.sub.refresh();
        let consumed = entry.consumed;
        let len = entry.sub.with(|batch| {
            // `min` guards the invariant defensively; cumulative
            // publication means a batch never shrinks.
            let from = consumed.min(batch.len());
            if !discard {
                records.extend_from_slice(&batch[from..]);
            }
            batch.len()
        });
        if len > consumed {
            PENDING.fetch_sub(len - consumed, Ordering::Relaxed);
        }
        entry.consumed = len;
        !retired
    });
}

/// Flushes the calling thread's buffer, takes every published record,
/// and merges them into per-`(name, label)` aggregates sorted by that
/// key — the deterministic merge rule (see the module docs).
///
/// With nothing recorded anywhere (in particular, whenever observability
/// is disabled) this is one thread-local check and one relaxed load —
/// no lock is taken.
pub fn drain() -> Vec<SpanStat> {
    BUF.with(|b| b.borrow_mut().flush());
    if PENDING.load(Ordering::Relaxed) == 0 {
        return Vec::new();
    }
    let mut records = Vec::new();
    collect(&mut records, false);
    let mut merged: BTreeMap<(String, String), SpanStat> = BTreeMap::new();
    for r in records {
        merged
            .entry((r.name.to_owned(), r.label.clone()))
            .and_modify(|s| {
                s.count += 1;
                s.total_ns += r.dur_ns;
                s.min_ns = s.min_ns.min(r.dur_ns);
                s.max_ns = s.max_ns.max(r.dur_ns);
            })
            .or_insert_with(|| SpanStat {
                name: r.name.to_owned(),
                label: r.label,
                count: 1,
                total_ns: r.dur_ns,
                min_ns: r.dur_ns,
                max_ns: r.dur_ns,
            });
    }
    merged.into_values().collect()
}

/// Discards the calling thread's unpublished records and every
/// published-but-undrained record.
pub fn reset() {
    BUF.with(|b| {
        let mut b = b.borrow_mut();
        // Keep the already-published prefix: the cumulative batch must
        // never shrink below a drainer's consumed watermark. The prefix
        // is never delivered again — the watermark is already past it.
        let published = b.published;
        b.records.truncate(published);
    });
    if PENDING.load(Ordering::Relaxed) == 0 {
        return;
    }
    collect(&mut Vec::new(), true);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_from_scoped_threads_merge_deterministically() {
        let _l = crate::tests::test_lock();
        reset();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for level in 0..3u32 {
                        let _g = enter("t.bfs_level", format!("level={level}"));
                    }
                });
            }
        });
        // Worker buffers publish in thread-local destructors, which the
        // platform may complete *after* the scope join observes thread
        // exit — wait for all 12 records to be pending.
        for _ in 0..1000 {
            if pending_records() >= 12 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let stats = drain();
        assert_eq!(stats.len(), 3, "{stats:?}");
        for (i, st) in stats.iter().enumerate() {
            assert_eq!(st.name, "t.bfs_level");
            assert_eq!(st.label, format!("level={i}"), "sorted by (name, label)");
            assert_eq!(st.count, 4, "one record per worker");
            assert!(st.min_ns <= st.max_ns);
            assert!(st.total_ns >= st.max_ns);
        }
        assert!(drain().is_empty(), "drain consumes the records");
    }

    #[test]
    fn inert_guards_record_nothing() {
        let _l = crate::tests::test_lock();
        reset();
        {
            let _g = enter_if(false, "t.inert", String::new());
        }
        assert!(drain().is_empty());
    }

    /// Repeated flush/drain cycles on one thread deliver every record
    /// exactly once — the cumulative-batch watermark bookkeeping.
    #[test]
    fn incremental_drains_deliver_each_record_once() {
        let _l = crate::tests::test_lock();
        reset();
        for round in 0..3u32 {
            {
                let _g = enter("t.incremental", format!("round={round}"));
            }
            let stats = drain();
            assert_eq!(stats.len(), 1, "{stats:?}");
            assert_eq!(stats[0].label, format!("round={round}"));
            assert_eq!(stats[0].count, 1, "no re-delivery from earlier rounds");
        }
        assert!(drain().is_empty());
    }

    /// `reset` discards unpublished and published records alike, and a
    /// thread keeps working after it.
    #[test]
    fn reset_discards_published_and_unpublished_records() {
        let _l = crate::tests::test_lock();
        reset();
        {
            let _g = enter("t.reset.published", String::new());
        }
        let _ = drain(); // force a publish cycle so the slot exists
        {
            let _g = enter("t.reset.unpublished", String::new());
        }
        reset();
        assert!(drain().is_empty(), "reset discarded everything");
        {
            let _g = enter("t.reset.after", String::new());
        }
        let stats = drain();
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].name, "t.reset.after");
    }
}
