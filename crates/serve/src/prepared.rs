//! The per-server store of prepared offline state.
//!
//! In Rumba the accelerator and checker parameters are fixed offline and
//! shipped with the application, so opening a session should only set up
//! per-session state. [`PreparedStore`] holds, per `(kernel, seed)`, the
//! offline work every session of that key shares — the trained app, the
//! train split and the Rumba accelerator's outputs over it — and memoizes
//! the calibrations derived from them, each keyed by exactly the
//! configuration fields it depends on:
//!
//! | value                      | key                                   |
//! |----------------------------|---------------------------------------|
//! | checker probe predictions  | checker                               |
//! | firing threshold           | checker, quality budget (bits)        |
//! | zoo ladder + tier errors   | zoo size                              |
//! | zoo routing bar            | zoo size, quality budget (bits)       |
//! | zoo pressure ceiling       | zoo size, checker, quality budget     |
//!
//! Every stored value is a pure function of its key, so a session opened
//! or restored from a warm store is bit-identical to one built from a
//! cold store. Each map holds at most [`STORE_CAPACITY`] entries and
//! evicts the least recently used one past it (`seed` is client-chosen).
//! Values are built without any lock held, failed builds are never
//! stored, and a poisoned lock is recovered (the maps are only ever
//! mutated by whole-entry pushes and removals).

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use rumba_apps::{Kernel, Split};
use rumba_core::trainer::{invocation_errors, train_app, OfflineConfig, TrainedApp};
use rumba_core::tuner::calibrate_threshold;
use rumba_core::zoo::{train_zoo, ModelZoo};
use rumba_nn::{Matrix, NnDataset, Scratch};

use crate::session::{build_checker, CheckerKind};
use crate::ServeError;

/// Entries each map of a store holds before the least recently used one
/// is evicted. A constant rather than a knob: it is what keeps a server's
/// memory independent of the seeds its clients choose.
pub const STORE_CAPACITY: usize = 16;

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A bounded least-recently-used memo (most recently used entry last).
#[derive(Debug)]
struct Lru<K, V> {
    slots: Mutex<Vec<(K, V)>>,
}

impl<K, V> Default for Lru<K, V> {
    fn default() -> Self {
        Self { slots: Mutex::new(Vec::new()) }
    }
}

impl<K: PartialEq, V: Clone> Lru<K, V> {
    /// The value under `key`, built by `build` on a miss. The lock is not
    /// held while building: two concurrent misses on one key both build,
    /// and since both compute the same pure function of the key, either
    /// result may stay.
    fn get_or_build<E>(&self, key: K, build: impl FnOnce() -> Result<V, E>) -> Result<V, E> {
        if let Some(value) = self.touch(&key) {
            return Ok(value);
        }
        let value = build()?;
        let mut slots = lock(&self.slots);
        if let Some(pos) = slots.iter().position(|(k, _)| *k == key) {
            slots.remove(pos);
        } else if slots.len() >= STORE_CAPACITY {
            slots.remove(0);
        }
        slots.push((key, value.clone()));
        Ok(value)
    }

    /// The value under `key`, marked most recently used.
    fn touch(&self, key: &K) -> Option<V> {
        let mut slots = lock(&self.slots);
        let pos = slots.iter().position(|(k, _)| k == key)?;
        let entry = slots.remove(pos);
        let value = entry.1.clone();
        slots.push(entry);
        Some(value)
    }

    fn len(&self) -> usize {
        lock(&self.slots).len()
    }

    fn any(&self, pred: impl Fn(&K) -> bool) -> bool {
        lock(&self.slots).iter().any(|(k, _)| pred(k))
    }
}

/// A zoo ladder plus each tier's invocation errors on the train split.
#[derive(Debug)]
struct Ladder {
    zoo: ModelZoo,
    tier_errors: Vec<Vec<f64>>,
}

/// The offline state of one `(kernel, seed)`, shared by every session of
/// that key, plus its memoized calibrations. Methods taking a `kernel`
/// expect the entry's own.
#[derive(Debug)]
pub(crate) struct Prepared {
    seed: u64,
    app: TrainedApp,
    train: NnDataset,
    /// The Rumba accelerator's outputs over `train`.
    approx: Matrix,
    probes: Lru<CheckerKind, Arc<Vec<f64>>>,
    thresholds: Lru<(CheckerKind, u64), f64>,
    ladders: Lru<usize, Arc<Ladder>>,
    bars: Lru<(usize, u64), f64>,
    ceilings: Lru<(usize, CheckerKind, u64), f64>,
}

impl Prepared {
    fn build(kernel: &dyn Kernel, seed: u64) -> Result<Self, ServeError> {
        let offline = OfflineConfig { seed, ..OfflineConfig::default() };
        let app = train_app(kernel, &offline)?;
        let train = kernel.generate(Split::Train, seed);
        let mut approx = Matrix::default();
        app.rumba_npu.invoke_batch(train.inputs_view(), &mut Scratch::new(), &mut approx)?;
        Ok(Self {
            seed,
            app,
            train,
            approx,
            probes: Lru::default(),
            thresholds: Lru::default(),
            ladders: Lru::default(),
            bars: Lru::default(),
            ceilings: Lru::default(),
        })
    }

    /// The trained app (accelerators and checker models).
    pub(crate) fn app(&self) -> &TrainedApp {
        &self.app
    }

    /// A fresh checker of `kind` probed over the train split's accelerator
    /// outputs: the per-invocation predictions the threshold and the zoo's
    /// pressure ceiling are calibrated against.
    fn probe(&self, kernel: &dyn Kernel, kind: CheckerKind) -> Result<Arc<Vec<f64>>, ServeError> {
        self.probes.get_or_build(kind, || {
            let mut probe = build_checker(kind, &self.app, kernel)?;
            let rows = 0..self.train.len();
            Ok(Arc::new(
                rows.map(|i| probe.estimate(self.train.input(i), self.approx.row(i))).collect(),
            ))
        })
    }

    /// The firing threshold whose rate meets `budget` (the mean-error
    /// target) on the training errors — the calibration `rumba run` does.
    pub(crate) fn threshold(
        &self,
        kernel: &dyn Kernel,
        kind: CheckerKind,
        budget: f64,
    ) -> Result<f64, ServeError> {
        self.thresholds.get_or_build((kind, budget.to_bits()), || {
            let predicted = self.probe(kernel, kind)?;
            Ok(calibrate_threshold(&predicted, &self.app.train_errors, budget))
        })
    }

    fn ladder(&self, kernel: &dyn Kernel, tiers: usize) -> Result<Arc<Ladder>, ServeError> {
        self.ladders.get_or_build(tiers, || {
            let offline = OfflineConfig { seed: self.seed, ..OfflineConfig::default() };
            let zoo = train_zoo(kernel, &self.app, &offline, tiers)?;
            let tier_errors = zoo
                .tiers()
                .iter()
                .map(|t| invocation_errors(kernel, &t.npu, &self.train))
                .collect::<Result<_, _>>()?;
            Ok(Arc::new(Ladder { zoo, tier_errors }))
        })
    }

    /// A `tiers`-tier zoo with its routing bar and queue-pressure ceiling
    /// for a session of checker `kind` and quality budget `budget`.
    pub(crate) fn zoo(
        &self,
        kernel: &dyn Kernel,
        tiers: usize,
        kind: CheckerKind,
        budget: f64,
    ) -> Result<(ModelZoo, f64, f64), ServeError> {
        let ladder = self.ladder(kernel, tiers)?;
        let rows =
            || -> Vec<&[f64]> { (0..self.train.len()).map(|i| self.train.input(i)).collect() };
        // The bar base is calibrated on the train split under the same
        // mean-error contract as the firing threshold (a raw 1 - toq
        // per-invocation cut would over-route to exact CPU). A tenth of
        // the budget is held back as generalization margin (the tiers and
        // routers were fit on this same split).
        let bar = self.bars.get_or_build((tiers, budget.to_bits()), || {
            Ok::<_, ServeError>(ladder.zoo.calibrate_bar(
                &rows(),
                &ladder.tier_errors,
                0.9 * budget,
            ))
        })?;
        // Queue-pressure degradation may widen the bar only as far as the
        // checker/recovery loop can still vouch for the budget: rows the
        // checker flags re-execute exactly at every tier, so they are
        // credited as zero error and the same calibration run again gives
        // the widest safe bar. The mask uses the calibration-time
        // threshold — a pure function of the config, not the tuner's
        // adaptive state — so `restore` rebuilds the identical ceiling.
        let ceiling = self.ceilings.get_or_build((tiers, kind, budget.to_bits()), || {
            let predicted = self.probe(kernel, kind)?;
            let fire_threshold = self.threshold(kernel, kind, budget)?;
            let mut tier_errors = ladder.tier_errors.clone();
            for errors in &mut tier_errors {
                for (e, p) in errors.iter_mut().zip(predicted.iter()) {
                    if *p > fire_threshold {
                        *e = 0.0;
                    }
                }
            }
            Ok::<_, ServeError>(ladder.zoo.calibrate_bar(&rows(), &tier_errors, 0.9 * budget))
        })?;
        Ok((ladder.zoo.clone(), bar, ceiling))
    }
}

/// Prepared offline state per `(kernel, seed)`, shared by every session a
/// server opens or restores (see the module docs).
#[derive(Debug, Default)]
pub struct PreparedStore {
    entries: Lru<(&'static str, u64), Arc<Prepared>>,
}

impl PreparedStore {
    /// An empty store.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The prepared state of `(kernel, seed)`, trained (or cache-loaded)
    /// and replayed on the first request for the key.
    pub(crate) fn get(&self, kernel: &dyn Kernel, seed: u64) -> Result<Arc<Prepared>, ServeError> {
        self.entries
            .get_or_build((kernel.name(), seed), || Prepared::build(kernel, seed).map(Arc::new))
    }

    /// Prepared `(kernel, seed)` entries held (at most [`STORE_CAPACITY`]).
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no entry is held.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether `(kernel, seed)` is prepared.
    #[must_use]
    pub fn contains(&self, kernel: &str, seed: u64) -> bool {
        self.entries.any(|&(k, s)| k == kernel && s == seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_evicts_the_least_recently_used_entry() {
        let lru: Lru<usize, usize> = Lru::default();
        for k in 0..STORE_CAPACITY {
            assert_eq!(lru.get_or_build(k, || Ok::<_, ()>(k * 10)), Ok(k * 10));
        }
        // Touching key 0 makes key 1 the eviction victim.
        assert_eq!(lru.get_or_build(0, || Err(())), Ok(0));
        lru.get_or_build(STORE_CAPACITY, || Ok::<_, ()>(0)).unwrap();
        assert_eq!(lru.len(), STORE_CAPACITY);
        assert!(lru.any(|&k| k == 0) && !lru.any(|&k| k == 1));
    }

    #[test]
    fn failed_builds_are_not_stored() {
        let lru: Lru<usize, usize> = Lru::default();
        assert_eq!(lru.get_or_build(3, || Err("boom")), Err("boom"));
        assert_eq!(lru.len(), 0);
    }

    #[test]
    fn builds_run_without_the_lock_held() {
        use std::sync::mpsc::{channel, Receiver, Sender};
        use std::time::Duration;

        // Each build announces itself and waits for the other: both can
        // finish only if neither holds the lock while building.
        let build = |tx: Sender<()>, rx: Receiver<()>| {
            move || {
                tx.send(()).expect("the other build is waiting");
                rx.recv_timeout(Duration::from_secs(30))
                    .map(|()| 7)
                    .map_err(|_| "the other build never started")
            }
        };
        let lru: Lru<usize, usize> = Lru::default();
        let (tx_a, rx_a) = channel();
        let (tx_b, rx_b) = channel();
        std::thread::scope(|s| {
            let a = s.spawn(|| lru.get_or_build(1, build(tx_a, rx_b)));
            let b = s.spawn(|| lru.get_or_build(1, build(tx_b, rx_a)));
            assert_eq!(a.join().expect("build a"), Ok(7));
            assert_eq!(b.join().expect("build b"), Ok(7));
        });
        assert_eq!(lru.len(), 1);
    }

    #[test]
    fn a_poisoned_lock_is_recovered() {
        let lru: Lru<usize, usize> = Lru::default();
        lru.get_or_build(1, || Ok::<_, ()>(1)).unwrap();
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = lru.slots.lock().unwrap();
            panic!("poison the memo");
        }));
        assert!(lru.slots.is_poisoned());
        assert_eq!(lru.get_or_build(1, || Err(())), Ok(1));
        assert_eq!(lru.get_or_build(2, || Ok::<_, ()>(2)), Ok(2));
    }
}
