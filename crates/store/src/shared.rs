//! The **process-wide shared index tier**: `Send + Sync`
//! [`PlainIndex`] snapshots promoted from the thread-local store to a
//! content-addressed, mutex-guarded map every session can draw from —
//! so N concurrent server sessions querying the same hot relation pay
//! **one** build between them instead of one each. The tier carries a
//! second payload kind alongside indexes: whole-relation
//! [`ColumnarRelation`] snapshots for the columnar execution lane
//! ([`publish_snapshot`]/[`adopt_snapshot`]), keyed by content address
//! alone (a snapshot is a function of the relation, not of any key
//! expression) and verified on adoption exactly like indexes.
//!
//! # Content addressing makes cross-session sharing sound
//!
//! The thread-local store keys on [`MSet::storage_id`] — an `Rc`
//! address, meaningless outside its thread. The shared tier keys on the
//! **structural hash of the relation's canonical rows** plus the
//! key-expression fingerprint. `MSet` is canonical (sorted,
//! deduplicated), so two sessions binding equal relations hold
//! element-for-element identical slices — which makes the *row indices*
//! inside a [`PlainIndex`] transferable: index `i` names the same value
//! in both. Hash collisions cannot produce wrong answers because
//! [`adopt`] verifies the snapshot against the adopting session's
//! relation row by row ([`plain_matches_value`]) before handing it out;
//! a mismatch is treated as a miss.
//!
//! # Concurrency discipline
//!
//! Exactly the coarse-grained split the Malta–Martinez commutativity
//! framing motivates: **writes** (publish, evict, clear) serialize
//! behind one mutex, while **reads** of an adopted snapshot are
//! lock-free — adoption clones an `Arc`, and probing never touches the
//! tier again. Each session keeps its `Rc`-lane overlays (identity-
//! bearing relations, ref-reachable entries) strictly thread-local;
//! only ref-free plain snapshots are ever shared.
//!
//! # Invalidation
//!
//! Plain snapshots hold no refs (`to_plain` declines them) and content
//! addressing means any structural change produces a different key, so
//! a shared entry can never serve stale rows. The thread-local store's
//! dirty-ref discipline still maps onto the tier conservatively: the
//! paths that lose write attribution (dirty-set overflow, the paranoid
//! whole-clear mode) call [`note_unattributed_write`], which drops the
//! whole tier — a performance concession, never a correctness need,
//! mirroring how those paths degrade locally.
//!
//! # Poison recovery
//!
//! A session that panics *while holding the tier lock* (possible under
//! fault injection, and in principle under real bugs) poisons the
//! mutex. Every acquisition goes through [`lock_tier`], which clears
//! the poison, drops all entries (the interrupted write may have left a
//! half-updated map), and counts a `lock_recoveries` — so the tier
//! self-heals and subsequent sessions rebuild instead of erroring
//! forever. The [`faults::store_poison_due`] fail point injects exactly
//! this panic mid-write.
//!
//! The tier is **off by default** (thread-local toggle, like
//! `store_enabled`): a standalone REPL behaves exactly as before, and
//! the server enables it on its worker threads.

use machiavelli_value::plain::{plain_matches_value, ColumnarRelation, PlainIndex};
use machiavelli_value::{faults, hash_value, MSet};
use std::cell::Cell;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::Hasher;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// Cumulative statistics of the shared tier, surfaced through
/// `Session::server_stats` and the wire `:stats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SharedStats {
    /// Snapshots published by some session's build.
    pub publishes: u64,
    /// Lookups served to a *different* storage by content address
    /// (verification passed; the adopting session skipped its build).
    pub adoptions: u64,
    /// Adoption attempts that found no (or an unverifiable) entry.
    pub misses: u64,
    /// Entries dropped by the LRU row budget.
    pub evicted: u64,
    /// Entries dropped by an unattributed-write clear.
    pub cleared: u64,
    /// Times the tier lock was found poisoned and recovered.
    pub lock_recoveries: u64,
    /// Live entries right now.
    pub entries: usize,
    /// Total relation rows held by live entries.
    pub cached_rows: usize,
    /// Columnar snapshots published by some session's extraction.
    pub snapshot_publishes: u64,
    /// Columnar snapshots served to a different storage by content
    /// address (verification passed; the adopter skipped extraction).
    pub snapshot_adoptions: u64,
    /// Snapshot adoption attempts that found no (or an unverifiable)
    /// entry.
    pub snapshot_misses: u64,
    /// Live columnar snapshots right now.
    pub snapshot_entries: usize,
    /// Total relation rows held by live columnar snapshots.
    pub snapshot_rows: usize,
}

struct SharedEntry {
    index: Arc<PlainIndex>,
    charge: usize,
    last_used: u64,
    hits: u64,
}

struct SharedSnapshot {
    snap: Arc<ColumnarRelation>,
    charge: usize,
    last_used: u64,
    hits: u64,
}

struct SharedTier {
    entries: HashMap<(u64, String), SharedEntry>,
    /// Columnar snapshots, keyed by content address alone. A separate
    /// sub-tier (not a variant in `entries`) because snapshots have no
    /// fingerprint dimension; each sub-tier is bounded by the same row
    /// budget independently.
    snapshots: HashMap<u64, SharedSnapshot>,
    budget_rows: usize,
    cached_rows: usize,
    snapshot_rows: usize,
    tick: u64,
    stats: SharedStats,
}

impl SharedTier {
    fn new() -> SharedTier {
        SharedTier {
            entries: HashMap::new(),
            snapshots: HashMap::new(),
            budget_rows: shared_budget_rows(),
            cached_rows: 0,
            snapshot_rows: 0,
            tick: 0,
            stats: SharedStats::default(),
        }
    }

    fn live_len(&self) -> usize {
        self.entries.len() + self.snapshots.len()
    }

    fn clear_entries(&mut self) {
        self.entries.clear();
        self.cached_rows = 0;
        self.snapshots.clear();
        self.snapshot_rows = 0;
    }

    fn evict_to(&mut self, target: usize) {
        if self.cached_rows <= target {
            return;
        }
        let mut victims: Vec<(u64, (u64, String))> = self
            .entries
            .iter()
            .map(|(k, e)| (e.last_used, k.clone()))
            .collect();
        victims.sort_unstable_by_key(|(used, _)| *used);
        for (_, key) in victims {
            if self.cached_rows <= target {
                break;
            }
            if let Some(e) = self.entries.remove(&key) {
                self.cached_rows -= e.charge;
                self.stats.evicted += 1;
            }
        }
    }

    fn evict_snapshots_to(&mut self, target: usize) {
        if self.snapshot_rows <= target {
            return;
        }
        let mut victims: Vec<(u64, u64)> = self
            .snapshots
            .iter()
            .map(|(k, e)| (e.last_used, *k))
            .collect();
        victims.sort_unstable_by_key(|(used, _)| *used);
        for (_, key) in victims {
            if self.snapshot_rows <= target {
                break;
            }
            if let Some(e) = self.snapshots.remove(&key) {
                self.snapshot_rows -= e.charge;
                self.stats.evicted += 1;
            }
        }
    }
}

/// Default shared-tier row budget: the same order as the per-session
/// store budget (`MACHIAVELLI_SHARED_BUDGET_ROWS` overrides).
fn shared_budget_rows() -> usize {
    static ENV: OnceLock<Option<usize>> = OnceLock::new();
    ENV.get_or_init(|| {
        std::env::var("MACHIAVELLI_SHARED_BUDGET_ROWS")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
    })
    .unwrap_or(machiavelli_value::tuning::DEFAULT_STORE_BUDGET_ROWS)
}

static TIER: OnceLock<Mutex<SharedTier>> = OnceLock::new();
/// Fast cross-thread signal that [`note_unattributed_write`] fired and
/// the next tier access must clear (avoids taking the lock on the
/// write path, which runs inside `RefValue::set` accounting).
static PENDING_CLEAR: AtomicBool = AtomicBool::new(false);

thread_local! {
    /// Whether this thread consults the shared tier at all. Off by
    /// default; the server enables it on worker threads.
    static SHARED_ENABLED: Cell<bool> = const { Cell::new(false) };
}

/// Is shared-tier consultation enabled on this thread?
pub fn shared_enabled() -> bool {
    SHARED_ENABLED.with(Cell::get)
}

/// Enable/disable shared-tier consultation on this thread, returning
/// the previous setting.
pub fn set_shared_enabled(on: bool) -> bool {
    SHARED_ENABLED.with(|c| c.replace(on))
}

/// Acquire the tier lock, recovering from poison: a panic while holding
/// the lock (injected or real) may have left a half-applied write, so
/// recovery drops every entry — sessions rebuild, nothing serves a
/// torn map. Also applies any pending unattributed-write clear.
fn lock_tier() -> MutexGuard<'static, SharedTier> {
    let mutex = TIER.get_or_init(|| Mutex::new(SharedTier::new()));
    let mut tier = match mutex.lock() {
        Ok(guard) => guard,
        Err(poisoned) => {
            mutex.clear_poison();
            let mut guard = poisoned.into_inner();
            let dropped = guard.live_len() as u64;
            guard.clear_entries();
            guard.stats.cleared += dropped;
            guard.stats.lock_recoveries += 1;
            guard
        }
    };
    if PENDING_CLEAR.swap(false, Ordering::AcqRel) {
        let dropped = tier.live_len() as u64;
        tier.clear_entries();
        tier.stats.cleared += dropped;
    }
    tier
}

/// The content address of a relation: a structural hash over its
/// canonical rows (length-prefixed). Equal relations hash equal on
/// every thread; collisions are harmless ([`adopt`] verifies).
pub fn content_hash(set: &MSet) -> u64 {
    let mut h = DefaultHasher::new();
    h.write_usize(set.len());
    for row in set.iter() {
        hash_value(row, &mut h);
    }
    h.finish()
}

/// Publish a freshly built plain snapshot under its content address.
/// Called by the thread-local store on the build path; serialized
/// behind the tier lock. Hosts the injected mid-write poison fault:
/// when it fires, the panic happens *while the lock is held*, exactly
/// the failure the recovery path exists for.
pub fn publish(content: u64, fingerprint: &str, index: &Arc<PlainIndex>, charge: usize) {
    if !shared_enabled() {
        return;
    }
    let mut tier = lock_tier();
    if charge > tier.budget_rows {
        return;
    }
    tier.tick += 1;
    let tick = tier.tick;
    let budget = tier.budget_rows;
    tier.evict_to(budget.saturating_sub(charge));
    let key = (content, fingerprint.to_string());
    // The fail point sits mid-write: the entry is in the map but the
    // row accounting has not happened yet — a genuinely torn state the
    // poison recovery must be able to discard.
    let poison_due = faults::store_poison_due();
    if let Some(old) = tier.entries.insert(
        key,
        SharedEntry {
            index: index.clone(),
            charge,
            last_used: tick,
            hits: 0,
        },
    ) {
        tier.cached_rows -= old.charge;
    }
    if poison_due {
        panic!(
            "{} shared-store poison mid-write",
            faults::INJECTED_PANIC_PREFIX
        );
    }
    tier.cached_rows += charge;
    tier.stats.publishes += 1;
}

/// Look up a snapshot for `set` by content address and **verify** it
/// row by row against the adopting session's relation before returning
/// it. `None` = miss (including failed verification). The returned
/// `Arc` is probed lock-free; the tier is not touched again.
pub fn adopt(content: u64, fingerprint: &str, set: &MSet) -> Option<Arc<PlainIndex>> {
    if !shared_enabled() {
        return None;
    }
    let index = {
        let mut tier = lock_tier();
        tier.tick += 1;
        let tick = tier.tick;
        match tier.entries.get_mut(&(content, fingerprint.to_string())) {
            Some(entry) => {
                entry.last_used = tick;
                entry.hits += 1;
                Some(entry.index.clone())
            }
            None => {
                tier.stats.misses += 1;
                None
            }
        }
    }?;
    // Verification runs *outside* the lock (O(n) over the relation):
    // the snapshot must be element-for-element the adopter's relation,
    // or its row indices would name the wrong values.
    let verified = index.rows.as_ref().is_some_and(|rows| {
        rows.len() == set.len()
            && set
                .iter()
                .zip(rows.iter())
                .all(|(v, p)| plain_matches_value(p, v))
    });
    if !verified {
        let mut tier = lock_tier();
        tier.stats.misses += 1;
        return None;
    }
    let mut tier = lock_tier();
    tier.stats.adoptions += 1;
    Some(index)
}

/// Publish a freshly extracted columnar snapshot under its content
/// address — the snapshot analogue of [`publish`]. No fingerprint
/// dimension: a [`ColumnarRelation`] is a function of the relation
/// alone, so one entry serves every query over equal content.
pub fn publish_snapshot(content: u64, snap: &Arc<ColumnarRelation>, charge: usize) {
    if !shared_enabled() {
        return;
    }
    let mut tier = lock_tier();
    if charge > tier.budget_rows {
        return;
    }
    tier.tick += 1;
    let tick = tier.tick;
    let budget = tier.budget_rows;
    tier.evict_snapshots_to(budget.saturating_sub(charge));
    let poison_due = faults::store_poison_due();
    if let Some(old) = tier.snapshots.insert(
        content,
        SharedSnapshot {
            snap: snap.clone(),
            charge,
            last_used: tick,
            hits: 0,
        },
    ) {
        tier.snapshot_rows -= old.charge;
    }
    if poison_due {
        panic!(
            "{} shared-store poison mid-write",
            faults::INJECTED_PANIC_PREFIX
        );
    }
    tier.snapshot_rows += charge;
    tier.stats.snapshot_publishes += 1;
}

/// Look up a columnar snapshot for `set` by content address and
/// **verify** it row by row against the adopting session's relation
/// before returning it — the snapshot analogue of [`adopt`]. `None` =
/// miss (including failed verification).
pub fn adopt_snapshot(content: u64, set: &MSet) -> Option<Arc<ColumnarRelation>> {
    if !shared_enabled() {
        return None;
    }
    let snap = {
        let mut tier = lock_tier();
        tier.tick += 1;
        let tick = tier.tick;
        match tier.snapshots.get_mut(&content) {
            Some(entry) => {
                entry.last_used = tick;
                entry.hits += 1;
                Some(entry.snap.clone())
            }
            None => {
                tier.stats.snapshot_misses += 1;
                None
            }
        }
    }?;
    // Row-for-row verification outside the lock, exactly like index
    // adoption: a collision must read as a miss, never as wrong rows.
    if !snap.matches_set(set) {
        let mut tier = lock_tier();
        tier.stats.snapshot_misses += 1;
        return None;
    }
    let mut tier = lock_tier();
    tier.stats.snapshot_adoptions += 1;
    Some(snap)
}

/// Conservative cross-session mapping of the dirty-ref discipline:
/// called when a session loses write attribution (dirty-set overflow,
/// the paranoid whole-clear mode). Plain snapshots cannot actually go
/// stale — this is the documented performance concession that keeps the
/// shared tier's invalidation story aligned with the local store's.
pub fn note_unattributed_write() {
    PENDING_CLEAR.store(true, Ordering::Release);
}

/// Snapshot the shared tier's statistics.
pub fn shared_stats() -> SharedStats {
    let tier = lock_tier();
    SharedStats {
        entries: tier.entries.len(),
        cached_rows: tier.cached_rows,
        snapshot_entries: tier.snapshots.len(),
        snapshot_rows: tier.snapshot_rows,
        ..tier.stats
    }
}

/// Drop all entries and zero the statistics (tests and bench setup).
pub fn reset_shared() {
    let mut tier = lock_tier();
    tier.clear_entries();
    tier.stats = SharedStats::default();
    PENDING_CLEAR.store(false, Ordering::Release);
}

#[cfg(test)]
mod tests {
    use super::*;
    use machiavelli_value::plain::{to_plain, PlainKey, PlainValue};
    use machiavelli_value::Value;
    use std::sync::Mutex as StdMutex;

    /// The tier is process-global; serialize the tests that assert on
    /// its counters.
    static TIER_TEST_LOCK: StdMutex<()> = StdMutex::new(());

    fn ints(xs: &[i64]) -> MSet {
        MSet::from_iter(xs.iter().map(|&x| Value::Int(x)))
    }

    fn plain_index_for(set: &MSet) -> Arc<PlainIndex> {
        let rows: Vec<PlainValue> = set.iter().map(|v| to_plain(v).unwrap()).collect();
        let groups: Vec<(PlainKey, Vec<u32>)> = rows
            .iter()
            .enumerate()
            .map(|(i, p)| (PlainKey::One(p.clone()), vec![i as u32]))
            .collect();
        Arc::new(PlainIndex::from_groups(rows.into(), groups))
    }

    fn with_tier_enabled<R>(f: impl FnOnce() -> R) -> R {
        let prev = set_shared_enabled(true);
        let out = f();
        set_shared_enabled(prev);
        out
    }

    #[test]
    fn disabled_thread_never_touches_the_tier() {
        assert!(!shared_enabled(), "off by default");
        let set = ints(&[1, 2, 3]);
        assert!(adopt(content_hash(&set), "fp", &set).is_none());
    }

    #[test]
    fn publish_then_adopt_from_equal_content() {
        let _l = TIER_TEST_LOCK.lock().unwrap();
        with_tier_enabled(|| {
            reset_shared();
            let a = ints(&[10, 20, 30]);
            let idx = plain_index_for(&a);
            publish(content_hash(&a), "fp:k", &idx, a.len());
            // A *different* storage with equal content adopts.
            let b = ints(&[30, 10, 20]);
            assert_ne!(a.storage_id(), b.storage_id());
            let adopted = adopt(content_hash(&b), "fp:k", &b).expect("content matches");
            assert!(Arc::ptr_eq(&adopted, &idx), "the very same snapshot");
            let s = shared_stats();
            assert_eq!((s.publishes, s.adoptions, s.entries), (1, 1, 1));
        });
    }

    #[test]
    fn different_content_or_fingerprint_misses() {
        let _l = TIER_TEST_LOCK.lock().unwrap();
        with_tier_enabled(|| {
            reset_shared();
            let a = ints(&[1, 2]);
            publish(content_hash(&a), "fp:k", &plain_index_for(&a), a.len());
            let other = ints(&[1, 2, 3]);
            assert!(adopt(content_hash(&other), "fp:k", &other).is_none());
            assert!(adopt(content_hash(&a), "fp:other", &a).is_none());
            assert_eq!(shared_stats().misses, 2);
        });
    }

    #[test]
    fn verification_rejects_wrong_snapshot() {
        let _l = TIER_TEST_LOCK.lock().unwrap();
        with_tier_enabled(|| {
            reset_shared();
            let a = ints(&[1, 2, 3]);
            let b = ints(&[4, 5, 6]);
            // Simulate a (vanishingly unlikely) content-hash collision
            // by publishing b's snapshot under a's address.
            publish(content_hash(&a), "fp", &plain_index_for(&b), b.len());
            assert!(
                adopt(content_hash(&a), "fp", &a).is_none(),
                "row verification must catch the mismatch"
            );
        });
    }

    #[test]
    fn budget_evicts_lru() {
        let _l = TIER_TEST_LOCK.lock().unwrap();
        with_tier_enabled(|| {
            reset_shared();
            {
                let mut tier = lock_tier();
                tier.budget_rows = 5;
            }
            let a = ints(&[1, 2, 3]);
            let b = ints(&[4, 5, 6]);
            publish(content_hash(&a), "fp", &plain_index_for(&a), 3);
            publish(content_hash(&b), "fp", &plain_index_for(&b), 3);
            let s = shared_stats();
            assert_eq!(s.entries, 1, "budget 5 holds one 3-row entry");
            assert_eq!(s.evicted, 1);
            assert!(
                adopt(content_hash(&b), "fp", &b).is_some(),
                "newest survives"
            );
            // Restore the env-derived budget for other tests.
            let mut tier = lock_tier();
            tier.budget_rows = shared_budget_rows();
        });
    }

    #[test]
    fn unattributed_write_clears_on_next_access() {
        let _l = TIER_TEST_LOCK.lock().unwrap();
        with_tier_enabled(|| {
            reset_shared();
            let a = ints(&[7, 8]);
            publish(content_hash(&a), "fp", &plain_index_for(&a), 2);
            assert_eq!(shared_stats().entries, 1);
            note_unattributed_write();
            assert!(adopt(content_hash(&a), "fp", &a).is_none(), "tier cleared");
            let s = shared_stats();
            assert_eq!(s.entries, 0);
            assert!(s.cleared >= 1);
        });
    }

    #[test]
    fn snapshot_publish_then_adopt_from_equal_content() {
        let _l = TIER_TEST_LOCK.lock().unwrap();
        with_tier_enabled(|| {
            reset_shared();
            let a = ints(&[10, 20, 30]);
            let snap = Arc::new(ColumnarRelation::from_set(&a).expect("ints are plain"));
            publish_snapshot(content_hash(&a), &snap, a.len());
            let b = ints(&[30, 10, 20]);
            assert_ne!(a.storage_id(), b.storage_id());
            let adopted = adopt_snapshot(content_hash(&b), &b).expect("content matches");
            assert!(Arc::ptr_eq(&adopted, &snap), "the very same snapshot");
            let s = shared_stats();
            assert_eq!(
                (
                    s.snapshot_publishes,
                    s.snapshot_adoptions,
                    s.snapshot_entries
                ),
                (1, 1, 1)
            );
            assert_eq!(s.snapshot_rows, 3);
            assert_eq!(s.entries, 0, "index sub-tier untouched");
        });
    }

    #[test]
    fn snapshot_verification_rejects_wrong_content() {
        let _l = TIER_TEST_LOCK.lock().unwrap();
        with_tier_enabled(|| {
            reset_shared();
            let a = ints(&[1, 2, 3]);
            let b = ints(&[4, 5, 6]);
            let wrong = Arc::new(ColumnarRelation::from_set(&b).unwrap());
            // Simulated content-hash collision: b's snapshot under a's
            // address must read as a miss, not as wrong rows.
            publish_snapshot(content_hash(&a), &wrong, b.len());
            assert!(adopt_snapshot(content_hash(&a), &a).is_none());
            assert!(shared_stats().snapshot_misses >= 1);
        });
    }

    #[test]
    fn unattributed_write_clears_snapshots_too() {
        let _l = TIER_TEST_LOCK.lock().unwrap();
        with_tier_enabled(|| {
            reset_shared();
            let a = ints(&[7, 8]);
            let snap = Arc::new(ColumnarRelation::from_set(&a).unwrap());
            publish_snapshot(content_hash(&a), &snap, a.len());
            assert_eq!(shared_stats().snapshot_entries, 1);
            note_unattributed_write();
            assert!(adopt_snapshot(content_hash(&a), &a).is_none());
            assert_eq!(shared_stats().snapshot_entries, 0);
        });
    }

    #[test]
    fn poison_mid_write_recovers_with_counters() {
        let _l = TIER_TEST_LOCK.lock().unwrap();
        with_tier_enabled(|| {
            reset_shared();
            let a = ints(&[1, 2, 3]);
            let idx = plain_index_for(&a);
            let prev = faults::set_fault_config(Some(machiavelli_value::FaultConfig {
                store_poison_ppm: 1_000_000,
                seed: 5,
                ..machiavelli_value::FaultConfig::off()
            }));
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                publish(content_hash(&a), "fp", &idx, a.len());
            }));
            faults::set_fault_config(prev);
            assert!(caught.is_err(), "poison fault must panic mid-write");
            // The next session recovers: poison cleared, entries
            // dropped, counter tells the story — and the tier works.
            let s = shared_stats();
            assert_eq!(s.lock_recoveries, 1);
            assert_eq!(s.entries, 0);
            publish(content_hash(&a), "fp", &idx, a.len());
            assert!(adopt(content_hash(&a), "fp", &a).is_some());
            assert_eq!(
                shared_stats().lock_recoveries,
                1,
                "recovered once, stayed live"
            );
        });
    }
}
