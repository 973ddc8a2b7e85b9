//! Flat bucket queue for peeling (the ParButterfly/Julienne structure).
//!
//! Peeling repeatedly extracts *all* items of minimum score, and scores
//! only ever decrease — the access pattern a comparison-based priority
//! queue wastes log factors on. [`BucketQueue`] keeps a fixed window of
//! [`WINDOW`] open buckets (a `Vec<Vec<u32>>` indexed by `score - base`)
//! plus an overflow list for items currently scored past the window.
//! Pushes are O(1); extract-min scans forward from a monotone cursor, so
//! the total scan cost over a whole decomposition is
//! `O(pushes + WINDOW · rebuckets)`.
//!
//! Entries are *lazy*: a score decrease just pushes a fresh entry without
//! deleting the stale one. The consumer filters at drain time — an entry
//! in bucket `b` is live iff the item is still alive and its current
//! score is exactly `base + b`. Because scores strictly decrease between
//! pushes of the same item, at most one entry per item is ever live.
//!
//! When every open bucket has been exhausted, the remaining live items
//! all sit in overflow; the queue re-bases the window at their minimum
//! current score and redistributes ([`BucketQueue::rebucket`] — the
//! "shift the window" step of Julienne-style bucketing).

/// Number of simultaneously open buckets. Peel levels move slowly (each
/// round's clamp keeps new scores at or above the current level), so a
/// modest window makes rebuckets rare while keeping the structure flat.
pub const WINDOW: usize = 1024;

/// Bucket queue over items `0..n` with `u64` scores.
#[derive(Debug)]
pub struct BucketQueue {
    /// Score of `buckets[0]`.
    base: u64,
    /// Next open bucket to scan; never retreats within a window.
    cursor: usize,
    buckets: Vec<Vec<u32>>,
    /// Items scored `>= base + WINDOW` when placed; each is re-placed by
    /// its *current* score at the next rebucket.
    overflow: Vec<u32>,
}

impl BucketQueue {
    /// Empty queue (capacity hints only; items carry their own ids).
    pub fn new() -> Self {
        BucketQueue {
            base: 0,
            cursor: 0,
            buckets: (0..WINDOW).map(|_| Vec::new()).collect(),
            overflow: Vec::new(),
        }
    }

    /// Insert (or lazily re-insert after a score decrease).
    #[inline]
    pub fn push(&mut self, item: u32, score: u64) {
        debug_assert!(score >= self.base + self.cursor as u64 || self.cursor == 0);
        let off = score - self.base;
        if off < WINDOW as u64 {
            self.buckets[off as usize].push(item);
        } else {
            self.overflow.push(item);
        }
    }

    /// Lower an item's score from `old` to `new`. Only an in-window
    /// `new` needs an entry: past the window, `old` was too, so the item
    /// already holds an overflow entry, and a rebucket places it by its
    /// current score. Overflow therefore never holds more than one entry
    /// per item.
    #[inline]
    pub fn decrease(&mut self, item: u32, old: u64, new: u64) {
        debug_assert!(new < old);
        if new - self.base < WINDOW as u64 {
            self.push(item, new);
        }
    }

    /// Shift the window: re-base at the minimum current score of the
    /// live overflow items and redistribute them by their current scores.
    /// Returns `false` when nothing live remains. (An item pushed past the
    /// window twice would be placed twice; the duplicate entry is
    /// harmless, as the first pop marks the item dead.)
    fn rebucket(&mut self, scores: &[u64], alive: &[bool]) -> bool {
        let mut pending = std::mem::take(&mut self.overflow);
        pending.retain(|&i| alive[i as usize]);
        let Some(min) = pending.iter().map(|&i| scores[i as usize]).min() else {
            return false;
        };
        self.base = min;
        self.cursor = 0;
        for item in pending {
            self.push(item, scores[item as usize]);
        }
        true
    }

    /// Drain the minimum non-empty bucket into a frontier: every live
    /// item whose current score equals the bucket score. Accepted items
    /// are marked dead in `alive` (which also deduplicates lazy
    /// entries); stale entries are dropped. Returns `None` once no live
    /// item remains anywhere.
    pub fn pop_min_bucket(
        &mut self,
        scores: &[u64],
        alive: &mut [bool],
    ) -> Option<(u64, Vec<u32>)> {
        loop {
            while self.cursor < WINDOW {
                let score = self.base + self.cursor as u64;
                if !self.buckets[self.cursor].is_empty() {
                    let mut frontier = Vec::new();
                    // Drain rather than take: the same bucket stays open
                    // for this round's clamped re-insertions.
                    for item in self.buckets[self.cursor].drain(..) {
                        let ix = item as usize;
                        if alive[ix] && scores[ix] == score {
                            alive[ix] = false;
                            frontier.push(item);
                        }
                    }
                    if !frontier.is_empty() {
                        return Some((score, frontier));
                    }
                    continue; // bucket was all stale entries; rescan it
                }
                self.cursor += 1;
            }
            if !self.rebucket(scores, alive) {
                return None;
            }
        }
    }
}

impl Default for BucketQueue {
    fn default() -> Self {
        BucketQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference peel over a score vector with explicit deltas applied by
    /// the test; here we just check queue mechanics.
    #[test]
    fn drains_in_score_order_with_lazy_updates() {
        let mut scores = vec![5u64, 0, 3, 3, 700, 2000];
        let mut alive = vec![true; scores.len()];
        let mut q = BucketQueue::new();
        for (i, &s) in scores.iter().enumerate() {
            q.push(i as u32, s);
        }
        let (s, f) = q.pop_min_bucket(&scores, &mut alive).unwrap();
        assert_eq!((s, f), (0, vec![1]));
        // Decrease 4's score mid-peel (lazy re-insert).
        scores[4] = 3;
        q.push(4, 3);
        let (s, f) = q.pop_min_bucket(&scores, &mut alive).unwrap();
        assert_eq!(s, 3);
        assert_eq!(f, vec![2, 3, 4]);
        let (s, f) = q.pop_min_bucket(&scores, &mut alive).unwrap();
        assert_eq!((s, f), (5, vec![0]));
        // 2000 is past the window: reachable only through a rebucket.
        let (s, f) = q.pop_min_bucket(&scores, &mut alive).unwrap();
        assert_eq!((s, f), (2000, vec![5]));
        assert!(q.pop_min_bucket(&scores, &mut alive).is_none());
    }

    #[test]
    fn stale_entries_are_skipped_and_items_dedup() {
        let mut scores = vec![10u64, 10];
        let mut alive = vec![true; 2];
        let mut q = BucketQueue::new();
        q.push(0, 10);
        q.push(1, 10);
        // Item 0 drops twice; both old entries go stale.
        scores[0] = 8;
        q.push(0, 8);
        scores[0] = 7;
        q.push(0, 7);
        let (s, f) = q.pop_min_bucket(&scores, &mut alive).unwrap();
        assert_eq!((s, f), (7, vec![0]));
        let (s, f) = q.pop_min_bucket(&scores, &mut alive).unwrap();
        assert_eq!((s, f), (10, vec![1]));
        assert!(q.pop_min_bucket(&scores, &mut alive).is_none());
    }

    #[test]
    fn decreases_past_the_window_keep_one_overflow_entry() {
        let mut scores = vec![5000u64, 6000, 10];
        let mut alive = vec![true; 3];
        let mut q = BucketQueue::new();
        for (i, &s) in scores.iter().enumerate() {
            q.push(i as u32, s);
        }
        for new in [5500u64, 5200, 3000] {
            let old = std::mem::replace(&mut scores[1], new);
            q.decrease(1, old, new);
        }
        assert_eq!(q.overflow, vec![0, 1], "no entry per past-window decrease");
        // A decrease into the window needs (and gets) a bucket entry.
        scores[0] = 7;
        q.decrease(0, 5000, 7);
        let mut order = Vec::new();
        while let Some((s, f)) = q.pop_min_bucket(&scores, &mut alive) {
            order.push((s, f));
        }
        assert_eq!(order, vec![(7, vec![0]), (10, vec![2]), (3000, vec![1])]);
    }

    #[test]
    fn overflow_rebuckets_repeatedly() {
        // Scores spread over several windows force multiple rebases.
        let n = 40usize;
        let scores: Vec<u64> = (0..n as u64).map(|i| i * 700).collect();
        let mut alive = vec![true; n];
        let mut q = BucketQueue::new();
        for (i, &s) in scores.iter().enumerate() {
            q.push(i as u32, s);
        }
        let mut seen = Vec::new();
        while let Some((s, f)) = q.pop_min_bucket(&scores, &mut alive) {
            for item in f {
                seen.push((s, item));
            }
        }
        assert_eq!(seen.len(), n);
        assert!(seen.windows(2).all(|w| w[0].0 <= w[1].0));
    }
}
