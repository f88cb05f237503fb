//! A minimal deterministic discrete-event engine: a time-ordered event
//! queue with stable FIFO tie-breaking.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A finite `f64` wrapper with a total order, for use as an event
/// timestamp. Construction panics on NaN (infinities are allowed so
/// sentinel deadlines can be queued).
#[derive(Debug, Clone, Copy, PartialEq)]
struct Time(f64);

impl Time {
    /// Wraps a non-NaN timestamp.
    pub fn new(t: f64) -> Self {
        assert!(!t.is_nan(), "event time must not be NaN");
        Time(t)
    }

    /// The underlying value.
    #[inline]
    pub fn value(self) -> f64 {
        self.0
    }
}

impl Eq for Time {}

impl PartialOrd for Time {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Time {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.partial_cmp(&other.0).expect("Time is never NaN")
    }
}

struct Scheduled<E> {
    time: Time,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest event
        // (ties broken by insertion order for determinism).
        other.time.cmp(&self.time).then(other.seq.cmp(&self.seq))
    }
}

/// Deterministic event queue: events pop in non-decreasing time order;
/// simultaneous events pop in insertion order.
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    seq: u64,
    now: f64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue at time 0.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
            now: 0.0,
        }
    }

    /// Current simulation time (the time of the last popped event).
    #[inline]
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Schedules `payload` at absolute time `time`. Panics when scheduling
    /// in the past (events must never rewind the clock).
    pub fn schedule(&mut self, time: f64, payload: E) {
        assert!(
            time >= self.now - 1e-12,
            "scheduling into the past: {time} < now = {}",
            self.now
        );
        self.heap.push(Scheduled {
            time: Time::new(time),
            seq: self.seq,
            payload,
        });
        self.seq += 1;
    }

    /// Pops the earliest event, advancing the clock.
    pub fn pop(&mut self) -> Option<(f64, E)> {
        let s = self.heap.pop()?;
        self.now = s.time.value();
        Some((self.now, s.payload))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no event is pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(3.0, "c");
        q.schedule(1.0, "a");
        q.schedule(2.0, "b");
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop(), Some((1.0, "a")));
        assert_eq!(q.pop(), Some((2.0, "b")));
        assert_eq!(q.now(), 2.0);
        assert_eq!(q.pop(), Some((3.0, "c")));
        assert!(q.pop().is_none());
        assert!(q.is_empty());
    }

    #[test]
    fn simultaneous_events_pop_fifo() {
        let mut q = EventQueue::new();
        q.schedule(5.0, 1);
        q.schedule(5.0, 2);
        q.schedule(5.0, 3);
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
    }

    #[test]
    fn clock_monotone_and_future_scheduling_from_now() {
        let mut q = EventQueue::new();
        q.schedule(1.0, ());
        let (t, _) = q.pop().unwrap();
        q.schedule(t + 1.0, ());
        q.schedule(t, ()); // same time is fine
        let (t2, _) = q.pop().unwrap();
        assert_eq!(t2, 1.0);
        let (t3, _) = q.pop().unwrap();
        assert_eq!(t3, 2.0);
    }

    #[test]
    #[should_panic(expected = "into the past")]
    fn scheduling_into_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(2.0, ());
        q.pop();
        q.schedule(1.0, ());
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_time_panics() {
        let _ = Time::new(f64::NAN);
    }

    #[test]
    fn time_ordering() {
        assert!(Time::new(1.0) < Time::new(2.0));
        assert_eq!(Time::new(1.5), Time::new(1.5));
        assert!(Time::new(f64::INFINITY) > Time::new(1e300));
    }
}
