//! Budget-safe admission control for concurrent submissions.
//!
//! The provenance-table constraint check and the subsequent charge must be
//! observed atomically by every concurrent submission, or two in-flight
//! queries could both pass the check and jointly overspend a row, column or
//! table constraint. [`AdmissionControl`] provides the two lock families the
//! thread-safe [`crate::system::DProvDb`] uses around its `Mutex`-guarded
//! provenance table:
//!
//! * **entry locks** — one striped `Mutex` per `(analyst, view)` pair,
//!   held for the whole cache probe → translate → check-and-reserve → release
//!   sequence of one submission. This serialises racing submissions that
//!   target the *same* provenance entry, so a pair of identical queries
//!   from one analyst cannot both miss the cache and double-derive (the
//!   second waits and is answered from the first one's synopsis for free).
//! * **view locks** — one `Mutex` per view, taken by the additive-Gaussian
//!   path *after* the entry lock (a fixed acquisition order, so the scheme
//!   is deadlock-free). The additive mechanism reads the hidden global
//!   synopsis's state, translates against it, and then grows it; the view
//!   lock makes that read-translate-grow sequence atomic per view, which
//!   keeps the delivered accuracy consistent with what the translation
//!   promised. Queries over different views never contend.
//!
//! The actual constraint arithmetic stays in
//! [`crate::provenance::ProvenanceTable`]; the check-and-reserve critical
//! section itself is a single short `Mutex` acquisition in the system layer.

use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard};

/// Striped locks gating admission of concurrent submissions.
#[derive(Debug)]
pub struct AdmissionControl {
    view_index: HashMap<String, usize>,
    /// `analyst * num_views + view`, one stripe per provenance entry.
    entry_locks: Vec<Mutex<()>>,
    /// One lock per view column, serialising global-synopsis growth.
    view_locks: Vec<Mutex<()>>,
    num_views: usize,
}

impl AdmissionControl {
    /// Builds the lock table for `num_analysts` rows over `views` columns.
    #[must_use]
    pub fn new(num_analysts: usize, views: &[String]) -> Self {
        let view_index: HashMap<String, usize> = views
            .iter()
            .enumerate()
            .map(|(i, v)| (v.clone(), i))
            .collect();
        let num_views = views.len();
        AdmissionControl {
            view_index,
            entry_locks: (0..num_analysts * num_views)
                .map(|_| Mutex::new(()))
                .collect(),
            view_locks: (0..num_views).map(|_| Mutex::new(())).collect(),
            num_views,
        }
    }

    /// Acquires the `(analyst, view)` entry lock. Unknown views (possible
    /// only for baselines that bypass the catalog) fall back to the first
    /// stripe of the analyst's row.
    pub fn lock_entry(&self, analyst: usize, view: &str) -> MutexGuard<'_, ()> {
        self.entry(analyst, view)
            .lock()
            .expect("entry lock poisoned")
    }

    /// [`Self::lock_entry`] without waiting: `None` while another
    /// submission holds the entry (it may be mid-translation or mid-append).
    pub fn try_lock_entry(&self, analyst: usize, view: &str) -> Option<MutexGuard<'_, ()>> {
        self.entry(analyst, view).try_lock().ok()
    }

    fn entry(&self, analyst: usize, view: &str) -> &Mutex<()> {
        let v = self.view_index.get(view).copied().unwrap_or(0);
        &self.entry_locks[analyst * self.num_views + v]
    }

    /// Acquires the per-view lock serialising global-synopsis growth.
    /// Must be taken *after* [`Self::lock_entry`] (fixed lock order).
    pub fn lock_view(&self, view: &str) -> MutexGuard<'_, ()> {
        let v = self.view_index.get(view).copied().unwrap_or(0);
        self.view_locks[v].lock().expect("view lock poisoned")
    }

    /// Number of view stripes.
    #[must_use]
    pub fn num_views(&self) -> usize {
        self.num_views
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn views(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("v{i}")).collect()
    }

    #[test]
    fn distinct_entries_do_not_block_each_other() {
        let ac = AdmissionControl::new(2, &views(2));
        let _a = ac.lock_entry(0, "v0");
        let _b = ac.lock_entry(0, "v1");
        let _c = ac.lock_entry(1, "v0");
        let _d = ac.lock_view("v1");
    }

    #[test]
    fn same_entry_serialises_across_threads() {
        let ac = Arc::new(AdmissionControl::new(1, &views(1)));
        let counter = Arc::new(Mutex::new(0u64));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let ac = Arc::clone(&ac);
            let counter = Arc::clone(&counter);
            handles.push(std::thread::spawn(move || {
                for _ in 0..100 {
                    let _guard = ac.lock_entry(0, "v0");
                    // Non-atomic read-modify-write protected by the entry
                    // lock; a lost update here would show in the total.
                    let v = *counter.lock().unwrap();
                    *counter.lock().unwrap() = v + 1;
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*counter.lock().unwrap(), 800);
    }

    #[test]
    fn try_lock_entry_refuses_a_held_entry_without_waiting() {
        let ac = AdmissionControl::new(1, &views(2));
        let held = ac.lock_entry(0, "v0");
        assert!(ac.try_lock_entry(0, "v0").is_none());
        assert!(ac.try_lock_entry(0, "v1").is_some());
        drop(held);
        assert!(ac.try_lock_entry(0, "v0").is_some());
    }

    #[test]
    fn unknown_views_fall_back_without_panicking() {
        let ac = AdmissionControl::new(1, &views(1));
        let _g = ac.lock_entry(0, "nope");
        assert_eq!(ac.num_views(), 1);
    }
}
