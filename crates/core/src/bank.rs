//! The refit-elision bank: the one policy for which fitted predictors a
//! run may reuse instead of refitting.
//!
//! The controller keeps the live bank; [`crate::persist`] replays a
//! finished run's state records through the same type to harvest the
//! bank a warm start seeds, so the two can never disagree.

use crate::degrade::DegradationAction;

/// How many fits the bank holds.
pub const BANK_SLOTS: usize = 4;

/// Recently fitted models, each keyed by the measured workload
/// intensity (accesses/kinst) at fit time, oldest first.
///
/// A new segment whose intensity sits within a quarter octave of a
/// banked fit reuses that model — alternating phases (ocean's A→B→A)
/// hit the bank on every return. Entries anchor on the intensity *at
/// fit time*, so slow drift cannot ratchet an elided model arbitrarily
/// far from the phase it was trained on.
#[derive(Debug, Clone)]
pub struct FitBank<M> {
    entries: Vec<(f64, M)>,
    /// Whether every banked model came from a warm-start seed: no fresh
    /// fit has been banked since.
    warm: bool,
}

impl<M> Default for FitBank<M> {
    fn default() -> Self {
        FitBank {
            entries: Vec::new(),
            warm: false,
        }
    }
}

impl<M> FitBank<M> {
    /// The slot of the banked fit nearest in intensity to `apki`, if it
    /// sits within a quarter octave. A ratio test (not bucket equality)
    /// so ordinary segment-to-segment measurement jitter cannot straddle
    /// a bucket edge and force a spurious refit; ties keep the oldest
    /// entry.
    #[must_use]
    pub fn nearest(&self, apki: f64) -> Option<usize> {
        self.entries
            .iter()
            .enumerate()
            .map(|(slot, (fit_apki, _))| (slot, (apki / fit_apki).log2().abs()))
            .filter(|&(_, dist)| dist <= 0.25)
            .fold(None, |best: Option<(usize, f64)>, cand| match best {
                Some((_, d)) if d <= cand.1 => best,
                _ => Some(cand),
            })
            .map(|(slot, _)| slot)
    }

    /// Bank a fresh fit made at `apki`: refresh the slot covering that
    /// intensity if one exists, else evict the oldest entry when full.
    /// Returns the fit's slot.
    pub fn insert(&mut self, apki: f64, model: M) -> usize {
        self.warm = false;
        if let Some(slot) = self.nearest(apki) {
            self.entries[slot] = (apki, model);
            return slot;
        }
        if self.entries.len() == BANK_SLOTS {
            self.entries.remove(0);
        }
        self.entries.push((apki, model));
        self.entries.len() - 1
    }

    /// Seed a warm start with a prior run's bank, oldest first, up to
    /// the bank's capacity.
    pub fn seed(&mut self, entries: impl IntoIterator<Item = (f64, M)>) {
        let before = self.entries.len();
        self.entries
            .extend(entries.into_iter().take(BANK_SLOTS - before));
        self.warm |= self.entries.len() > before;
    }

    /// Whether the bank holds only warm-start models. While it does, a
    /// segment that hits the bank coasts on the restored model and skips
    /// its sampling period; the first fresh fit ends that, and so does a
    /// clear, which leaves nothing to hit.
    #[must_use]
    pub fn warm(&self) -> bool {
        self.warm
    }

    /// React to a health-check remedy. A ladder-forced refit or revert
    /// drops the whole bank: the banked models no longer describe how
    /// the system behaves, and a refit that mixed testing data into the
    /// sample set is not a clean phase fit either.
    pub fn apply(&mut self, action: DegradationAction) {
        if matches!(
            action,
            DegradationAction::Refit | DegradationAction::RevertToStatic
        ) {
            self.entries.clear();
            self.warm = false;
        }
    }

    /// The model in `slot`.
    #[must_use]
    pub fn model(&self, slot: usize) -> &M {
        &self.entries[slot].1
    }

    /// Number of banked fits.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the bank is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The banked `(apki, model)` pairs, oldest first.
    #[must_use]
    pub fn into_entries(self) -> Vec<(f64, M)> {
        self.entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_is_a_quarter_octave_ratio_test_keeping_the_oldest_tie() {
        let mut bank = FitBank::default();
        bank.insert(10.0, 'a');
        bank.insert(40.0, 'b');
        assert_eq!(bank.nearest(11.0), Some(0));
        assert_eq!(bank.nearest(10.0 * 2f64.powf(0.25)), Some(0));
        assert_eq!(bank.nearest(10.0 * 2f64.powf(0.26)), None);
        assert_eq!(bank.nearest(38.0), Some(1));
        // Two entries at the same distance: the oldest wins.
        let mut tie = FitBank::default();
        tie.seed([(8.0, 'a'), (8.0, 'b')]);
        assert_eq!(tie.nearest(8.5), Some(0));
    }

    #[test]
    fn insert_refreshes_the_covering_slot_else_evicts_the_oldest() {
        let mut bank = FitBank::default();
        for (i, apki) in [1.0, 4.0, 16.0, 64.0].into_iter().enumerate() {
            assert_eq!(bank.insert(apki, i), i);
        }
        // Within a quarter octave of 4.0: slot 1 is refreshed in place.
        assert_eq!(bank.insert(4.2, 9), 1);
        assert_eq!(*bank.model(1), 9);
        assert_eq!(bank.len(), BANK_SLOTS);
        // A new intensity evicts the oldest entry (1.0).
        assert_eq!(bank.insert(256.0, 5), BANK_SLOTS - 1);
        assert_eq!(bank.nearest(1.0), None);
        let keys: Vec<f64> = bank.into_entries().into_iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec![4.2, 16.0, 64.0, 256.0]);
    }

    #[test]
    fn ladder_refit_and_revert_clear_but_resample_keeps() {
        let mut bank = FitBank::default();
        bank.insert(8.0, ());
        bank.apply(DegradationAction::None);
        bank.apply(DegradationAction::Resample);
        assert_eq!(bank.len(), 1);
        bank.apply(DegradationAction::Refit);
        assert!(bank.is_empty());
        bank.insert(8.0, ());
        bank.apply(DegradationAction::RevertToStatic);
        assert!(bank.is_empty());
    }

    #[test]
    fn seed_stops_at_capacity() {
        let mut bank = FitBank::default();
        bank.insert(1.0, 0);
        bank.seed((1..10).map(|i| (f64::from(i) * 100.0, i)));
        assert_eq!(bank.len(), BANK_SLOTS);
        assert_eq!(*bank.model(BANK_SLOTS - 1), 3);
    }
}
