//! Multi-tenant admission: tenant configuration and the deficit
//! round-robin (DRR) fair dequeue.
//!
//! Each tenant gets its own admission lane (a priority heap that
//! submissions join under the scheduler lock) plus a *weight* and an
//! optional *quota*:
//!
//! - the **quota** bounds how many of a tenant's jobs may sit queued at
//!   once — a flooding client sheds its own overflow instead of filling
//!   the shared queue;
//! - the **weight** drives the DRR picker: each time the scheduler
//!   visits a lane whose deficit ran out it refills the deficit with the
//!   lane's weight, then serves up to that many jobs before moving on.
//!   Over any busy window a tenant with weight `w` receives `w / Σw` of
//!   the dequeues, and a lane with queued work is always reached within
//!   one full cursor lap — no starvation.
//!
//! Within a lane, jobs still dequeue by priority then submission order,
//! exactly as the single-tenant scheduler did.

use std::collections::BinaryHeap;

/// Per-tenant scheduling policy: a display name, a DRR weight, and an
/// optional cap on queued jobs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantConfig {
    /// Tenant name, matched against [`crate::JobSpec::tenant`]. Jobs
    /// naming no tenant (or an unknown one) land in the built-in
    /// `"default"` lane.
    pub name: String,
    /// DRR weight: relative share of dequeues under contention. Clamped
    /// to at least 1.
    pub weight: u32,
    /// Maximum jobs this tenant may have queued at once; `None` leaves
    /// only the global queue capacity in force.
    pub quota: Option<usize>,
}

impl TenantConfig {
    /// A tenant with the given name and weight and no quota.
    pub fn new(name: impl Into<String>, weight: u32) -> Self {
        TenantConfig {
            name: name.into(),
            weight: weight.max(1),
            quota: None,
        }
    }

    /// Caps this tenant's queued jobs at `quota`.
    #[must_use]
    pub fn with_quota(mut self, quota: usize) -> Self {
        self.quota = Some(quota);
        self
    }
}

struct DrrLane<T> {
    weight: u64,
    deficit: u64,
    heap: BinaryHeap<T>,
}

/// A deficit round-robin dequeue over per-lane priority heaps.
///
/// Items within a lane come out in the heap's order (highest first);
/// across lanes, a cursor walks the lanes and serves up to `weight`
/// items per visit. An idle lane's deficit resets to zero — tenants do
/// not bank credit while they have nothing queued.
///
/// ```
/// use qca_service::tenant::DrrQueue;
/// let mut q: DrrQueue<u32> = DrrQueue::new(&[1, 3]);
/// for i in 0..4 {
///     q.push(0, 100 + i); // lane 0, weight 1
///     q.push(1, 200 + i); // lane 1, weight 3
/// }
/// // lane 0 gets one dequeue per lap, lane 1 gets three.
/// let order: Vec<u32> = std::iter::from_fn(|| q.pop()).collect();
/// assert_eq!(order, vec![103, 203, 202, 201, 102, 200, 101, 100]);
/// ```
pub struct DrrQueue<T: Ord> {
    lanes: Vec<DrrLane<T>>,
    cursor: usize,
    len: usize,
}

impl<T: Ord> DrrQueue<T> {
    /// A queue with one lane per entry of `weights` (zero weights are
    /// clamped to 1).
    pub fn new(weights: &[u32]) -> Self {
        DrrQueue {
            lanes: weights
                .iter()
                .map(|w| DrrLane {
                    weight: u64::from((*w).max(1)),
                    deficit: 0,
                    heap: BinaryHeap::new(),
                })
                .collect(),
            cursor: 0,
            len: 0,
        }
    }

    /// Queues `item` on `lane`. Out-of-range lanes fold onto lane 0 —
    /// the caller maps tenant names to lane indices and lane 0 always
    /// exists for any non-empty queue.
    pub fn push(&mut self, lane: usize, item: T) {
        let idx = lane.min(self.lanes.len().saturating_sub(1));
        if let Some(l) = self.lanes.get_mut(idx) {
            l.heap.push(item);
            self.len += 1;
        }
    }

    /// Dequeues the next item under the DRR policy, or `None` when every
    /// lane is empty.
    pub fn pop(&mut self) -> Option<T> {
        let n = self.lanes.len();
        if n == 0 || self.len == 0 {
            return None;
        }
        // At most one full lap: a non-empty lane is always found within
        // `n` visits because empty lanes are skipped in O(1).
        for _ in 0..n {
            let cursor = self.cursor;
            let lane = &mut self.lanes[cursor];
            if lane.heap.is_empty() {
                // Idle lanes forfeit their credit — no banking.
                lane.deficit = 0;
                self.cursor = (cursor + 1) % n;
                continue;
            }
            if lane.deficit == 0 {
                lane.deficit = lane.weight;
            }
            lane.deficit -= 1;
            let item = lane.heap.pop();
            self.len -= 1;
            if lane.deficit == 0 {
                self.cursor = (cursor + 1) % n;
            }
            return item;
        }
        None
    }

    /// Total queued items across all lanes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether every lane is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Queued items on one lane (0 for out-of-range indices).
    pub fn lane_len(&self, lane: usize) -> usize {
        self.lanes.get(lane).map_or(0, |l| l.heap.len())
    }

    /// Removes and returns every queued item, resetting all deficits.
    /// Used by shutdown paths that fail queued work in bulk.
    pub fn drain_all(&mut self) -> Vec<T> {
        let mut out = Vec::with_capacity(self.len);
        for lane in &mut self.lanes {
            lane.deficit = 0;
            out.extend(lane.heap.drain());
        }
        self.len = 0;
        self.cursor = 0;
        out
    }
}

impl<T: Ord> std::fmt::Debug for DrrQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DrrQueue")
            .field("lanes", &self.lanes.len())
            .field("cursor", &self.cursor)
            .field("len", &self.len)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Reverse;

    #[test]
    fn weights_split_dequeues_per_lap() {
        // Two lanes, weights 1:3, both saturated: each lap serves one
        // item from lane 0 and three from lane 1.
        let mut q: DrrQueue<Reverse<u32>> = DrrQueue::new(&[1, 3]);
        for i in 0..4u32 {
            q.push(0, Reverse(i));
            q.push(1, Reverse(100 + i));
        }
        let lanes: Vec<u32> = std::iter::from_fn(|| q.pop())
            .map(|Reverse(v)| u32::from(v >= 100))
            .collect();
        assert_eq!(lanes, vec![0, 1, 1, 1, 0, 1, 0, 0]);
    }

    #[test]
    fn single_lane_degenerates_to_the_plain_heap_order() {
        let mut q: DrrQueue<u32> = DrrQueue::new(&[7]);
        for v in [3u32, 9, 1, 7] {
            q.push(0, v);
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(order, vec![9, 7, 3, 1], "max-heap order within a lane");
    }

    #[test]
    fn idle_lanes_do_not_bank_credit() {
        let mut q: DrrQueue<Reverse<u32>> = DrrQueue::new(&[4, 1]);
        // Lane 0 idle for many pops; when it finally queues work it gets
        // its weight per lap, not accumulated back-pay.
        for i in 0..6u32 {
            q.push(1, Reverse(i));
        }
        for _ in 0..3 {
            assert!(q.pop().is_some());
        }
        q.push(0, Reverse(100));
        q.push(0, Reverse(101));
        // Next pops: cursor is on lane 1 mid-quantum (weight 1 => lane
        // boundary each pop), so lane 0 is reached within one lap.
        let next: Vec<u32> = std::iter::from_fn(|| q.pop()).map(|Reverse(v)| v).collect();
        let lane0_first = next.iter().position(|v| *v >= 100);
        assert!(
            lane0_first.is_some_and(|p| p <= 1),
            "lane 0 must be served within one lap, got order {next:?}"
        );
    }

    #[test]
    fn drain_all_empties_every_lane() {
        let mut q: DrrQueue<u32> = DrrQueue::new(&[1, 2, 3]);
        for i in 0..9u32 {
            q.push((i % 3) as usize, i);
        }
        assert_eq!(q.len(), 9);
        let mut drained = q.drain_all();
        drained.sort_unstable();
        assert_eq!(drained, (0..9u32).collect::<Vec<_>>());
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn out_of_range_lane_folds_onto_lane_zero() {
        let mut q: DrrQueue<u32> = DrrQueue::new(&[1]);
        q.push(99, 42);
        assert_eq!(q.lane_len(0), 1);
        assert_eq!(q.pop(), Some(42));
    }
}
