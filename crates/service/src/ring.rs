//! A lock-free bounded MPMC ring queue — the service's admission path.
//!
//! Design (Vyukov's bounded MPMC queue): a power-of-two array of slots,
//! each carrying a seqlock-style *stamp*, plus cache-line-padded `head`
//! (pop side) and `tail` (push side) tickets. A slot's stamp encodes
//! which lap of the ring it is in:
//!
//! - `stamp == ticket`      → the slot is free for the push holding
//!   `ticket`;
//! - `stamp == ticket + 1`  → the slot holds a value for the pop holding
//!   `ticket`;
//! - anything behind        → the queue is full (push) or empty (pop).
//!
//! A producer claims a ticket with one CAS on `tail`, writes the value,
//! then *publishes* by storing `ticket + 1` into the stamp (release). A
//! consumer claims with one CAS on `head`, reads the value after
//! observing the published stamp (acquire), then frees the slot for the
//! next lap by storing `ticket + capacity`. No operation ever blocks on
//! another thread's progress mid-slot: a slow producer only delays the
//! consumers of *its* slot, never the whole ring.
//!
//! Tickets are claimed in strict counter order, so items from one
//! producer are observed in that producer's push order (per-producer
//! FIFO); a full ring is a typed `Err` (backpressure, not buffering).
//!
//! Std-only: `AtomicUsize`, `UnsafeCell`, `MaybeUninit`.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Pads (and aligns) a value to a cache line so the producer-side and
/// consumer-side tickets never share one — a false-sharing miss per
/// operation would serialise the very contention the ring removes.
#[repr(align(64))]
struct CachePadded<T>(T);

struct Slot<T> {
    /// The seqlock-style lap stamp (see module docs).
    stamp: AtomicUsize,
    value: UnsafeCell<MaybeUninit<T>>,
}

/// A bounded lock-free multi-producer multi-consumer queue.
///
/// ```
/// use qca_service::ring::Ring;
/// let ring: Ring<u32> = Ring::with_capacity(4);
/// assert!(ring.push(7).is_ok());
/// assert_eq!(ring.pop(), Some(7));
/// assert_eq!(ring.pop(), None);
/// ```
pub struct Ring<T> {
    slots: Box<[Slot<T>]>,
    /// `capacity - 1`; capacity is always a power of two.
    mask: usize,
    /// Pop ticket counter.
    head: CachePadded<AtomicUsize>,
    /// Push ticket counter.
    tail: CachePadded<AtomicUsize>,
}

// SAFETY: values move through the ring by ownership transfer; a slot is
// written by exactly one producer (the CAS winner for its ticket) and
// read by exactly one consumer, with release/acquire stamps ordering the
// hand-off. `T: Send` is required because values cross threads.
unsafe impl<T: Send> Send for Ring<T> {}
unsafe impl<T: Send> Sync for Ring<T> {}

impl<T> Ring<T> {
    /// A ring holding at least `capacity` items (rounded up to the next
    /// power of two, minimum 2). The actual bound is [`Ring::capacity`].
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(2).next_power_of_two();
        let slots: Box<[Slot<T>]> = (0..capacity)
            .map(|i| Slot {
                stamp: AtomicUsize::new(i),
                value: UnsafeCell::new(MaybeUninit::uninit()),
            })
            .collect();
        Ring {
            slots,
            mask: capacity - 1,
            head: CachePadded(AtomicUsize::new(0)),
            tail: CachePadded(AtomicUsize::new(0)),
        }
    }

    /// The fixed slot count.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Pushes a value, or returns it when the ring is full (typed
    /// backpressure — the caller decides whether to shed or retry).
    ///
    /// # Errors
    ///
    /// `Err(value)` when all slots are occupied.
    pub fn push(&self, value: T) -> Result<(), T> {
        let mut ticket = self.tail.0.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[ticket & self.mask];
            let stamp = slot.stamp.load(Ordering::Acquire);
            let lag = stamp.wrapping_sub(ticket) as isize;
            if lag == 0 {
                // The slot is free for this ticket: claim it.
                match self.tail.0.compare_exchange_weak(
                    ticket,
                    ticket.wrapping_add(1),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // SAFETY: the CAS makes this thread the unique
                        // writer of this slot for this lap; the stamp
                        // still reads `ticket`, so no consumer touches it
                        // until the release store below publishes it.
                        unsafe { (*slot.value.get()).write(value) };
                        slot.stamp.store(ticket.wrapping_add(1), Ordering::Release);
                        return Ok(());
                    }
                    Err(current) => ticket = current,
                }
            } else if lag < 0 {
                // The slot still holds last lap's value: the ring is full.
                return Err(value);
            } else {
                // Another producer claimed this ticket; chase the tail.
                ticket = self.tail.0.load(Ordering::Relaxed);
            }
        }
    }

    /// Pops the oldest value, or `None` when the ring is empty.
    pub fn pop(&self) -> Option<T> {
        let mut ticket = self.head.0.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[ticket & self.mask];
            let stamp = slot.stamp.load(Ordering::Acquire);
            let lag = stamp.wrapping_sub(ticket.wrapping_add(1)) as isize;
            if lag == 0 {
                // The slot holds a published value for this ticket.
                match self.head.0.compare_exchange_weak(
                    ticket,
                    ticket.wrapping_add(1),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // SAFETY: the CAS makes this thread the unique
                        // reader of this slot for this lap, and the
                        // acquire load of the published stamp ordered the
                        // producer's write before this read.
                        let value = unsafe { (*slot.value.get()).assume_init_read() };
                        // Free the slot for the producer one lap ahead.
                        slot.stamp.store(
                            ticket.wrapping_add(self.mask).wrapping_add(1),
                            Ordering::Release,
                        );
                        return Some(value);
                    }
                    Err(current) => ticket = current,
                }
            } else if lag < 0 {
                // No published value at this ticket: the ring is empty.
                return None;
            } else {
                // Another consumer claimed this ticket; chase the head.
                ticket = self.head.0.load(Ordering::Relaxed);
            }
        }
    }

    /// An approximate occupancy count (exact only when quiescent — under
    /// concurrent pushes/pops it is a snapshot of two racing counters).
    pub fn len(&self) -> usize {
        let tail = self.tail.0.load(Ordering::Relaxed);
        let head = self.head.0.load(Ordering::Relaxed);
        tail.wrapping_sub(head).min(self.slots.len())
    }

    /// Whether the ring looks empty (same snapshot caveat as
    /// [`Ring::len`]).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Drop for Ring<T> {
    fn drop(&mut self) {
        // Drain undelivered values so their destructors run.
        while self.pop().is_some() {}
    }
}

impl<T> std::fmt::Debug for Ring<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ring")
            .field("capacity", &self.capacity())
            .field("len", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_rounds_up_to_a_power_of_two() {
        assert_eq!(Ring::<u8>::with_capacity(0).capacity(), 2);
        assert_eq!(Ring::<u8>::with_capacity(3).capacity(), 4);
        assert_eq!(Ring::<u8>::with_capacity(8).capacity(), 8);
        assert_eq!(Ring::<u8>::with_capacity(9).capacity(), 16);
    }

    #[test]
    fn fifo_within_a_single_thread() {
        let ring = Ring::with_capacity(4);
        for i in 0..4 {
            assert!(ring.push(i).is_ok());
        }
        assert_eq!(ring.push(99), Err(99), "full ring must reject");
        for i in 0..4 {
            assert_eq!(ring.pop(), Some(i));
        }
        assert_eq!(ring.pop(), None, "empty ring must return None");
    }

    #[test]
    fn slots_are_reusable_across_laps() {
        let ring = Ring::with_capacity(2);
        for lap in 0..100u64 {
            assert!(ring.push(lap).is_ok());
            assert_eq!(ring.pop(), Some(lap));
        }
        assert!(ring.is_empty());
    }

    #[test]
    fn dropping_a_non_empty_ring_drops_the_values() {
        let payload = std::sync::Arc::new(());
        let ring = Ring::with_capacity(4);
        for _ in 0..3 {
            assert!(ring.push(std::sync::Arc::clone(&payload)).is_ok());
        }
        assert_eq!(std::sync::Arc::strong_count(&payload), 4);
        drop(ring);
        assert_eq!(std::sync::Arc::strong_count(&payload), 1);
    }
}
