//! The bounded ring behind the per-operation journals.
//!
//! The dispatcher's request spans, the key store's cache events and the
//! engine's job spans each grow by an entry or more per operation; a
//! server that runs for a day must not keep them all. Each is a [`Ring`]:
//! the newest [`JOURNAL_CAPACITY`] entries, oldest first, and a count of
//! what was overwritten.

use std::collections::VecDeque;

/// Entries a per-operation journal keeps before it overwrites its oldest.
pub(crate) const JOURNAL_CAPACITY: usize = 16_384;

/// The newest [`JOURNAL_CAPACITY`] entries pushed, in push order.
#[derive(Debug)]
pub(crate) struct Ring<T> {
    entries: VecDeque<T>,
    dropped: u64,
}

impl<T> Default for Ring<T> {
    fn default() -> Self {
        Self {
            entries: VecDeque::new(),
            dropped: 0,
        }
    }
}

impl<T: Clone> Ring<T> {
    pub(crate) fn push(&mut self, entry: T) {
        if self.entries.len() == JOURNAL_CAPACITY {
            self.entries.pop_front();
            self.dropped += 1;
        }
        self.entries.push_back(entry);
    }

    /// What the ring holds, oldest first.
    pub(crate) fn snapshot(&self) -> Vec<T> {
        self.entries.iter().cloned().collect()
    }

    /// Entries overwritten since construction or the last
    /// [`clear`](Self::clear).
    pub(crate) fn dropped(&self) -> u64 {
        self.dropped
    }

    pub(crate) fn clear(&mut self) {
        self.entries.clear();
        self.dropped = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_the_newest_entries_in_order_and_counts_the_rest() {
        let mut ring = Ring::default();
        for i in 0..JOURNAL_CAPACITY as u64 {
            ring.push(i);
        }
        assert_eq!(
            (ring.snapshot().len(), ring.dropped()),
            (JOURNAL_CAPACITY, 0)
        );
        for i in 0..10 {
            ring.push(JOURNAL_CAPACITY as u64 + i);
        }
        let kept = ring.snapshot();
        assert_eq!((kept.len(), ring.dropped()), (JOURNAL_CAPACITY, 10));
        assert!(kept.windows(2).all(|w| w[1] == w[0] + 1));
        assert_eq!(kept[0], 10);
        ring.clear();
        assert_eq!((ring.snapshot().len(), ring.dropped()), (0, 0));
    }
}
