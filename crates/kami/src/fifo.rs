//! Bounded FIFOs connecting pipeline stages.

/// A bounded FIFO with the Bluespec-style interface: `enq` is only legal
/// when not full, `deq`/`first` only when not empty; the guards are
/// exposed so rules can check their own readiness.
///
/// Storage is a ring of `capacity.next_power_of_two()` slots allocated
/// once: `len` live slots from `head` on, every other slot `None`.
#[derive(Clone, Debug)]
pub struct Fifo<T> {
    slots: Box<[Option<T>]>,
    head: usize,
    len: usize,
    capacity: usize,
}

impl<T> Fifo<T> {
    /// Creates a FIFO holding at most `capacity` elements.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Fifo<T> {
        assert!(capacity > 0, "FIFO capacity must be positive");
        Fifo {
            slots: (0..capacity.next_power_of_two()).map(|_| None).collect(),
            head: 0,
            len: 0,
            capacity,
        }
    }

    /// True when an `enq` would be legal.
    pub fn can_enq(&self) -> bool {
        self.len < self.capacity
    }

    /// True when a `deq` or `first` would be legal.
    pub fn can_deq(&self) -> bool {
        self.len > 0
    }

    /// Enqueues an element.
    ///
    /// # Panics
    ///
    /// Panics when full — rules must check [`Fifo::can_enq`] in their
    /// guard, as the corresponding hardware method is only *ready* when
    /// not full.
    pub fn enq(&mut self, item: T) {
        assert!(self.can_enq(), "enq on full FIFO");
        let tail = (self.head + self.len) % self.slots.len();
        self.slots[tail] = Some(item);
        self.len += 1;
    }

    /// Dequeues the oldest element.
    ///
    /// # Panics
    ///
    /// Panics when empty.
    pub fn deq(&mut self) -> T {
        let item = self.slots[self.head].take().expect("deq on empty FIFO");
        self.head = (self.head + 1) % self.slots.len();
        self.len -= 1;
        item
    }

    /// The oldest element without removing it.
    pub fn first(&self) -> Option<&T> {
        self.slots[self.head].as_ref()
    }

    /// Number of buffered elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Discards all contents (used by pipeline flushes).
    pub fn clear(&mut self) {
        self.slots.fill_with(|| None);
        self.len = 0;
    }

    /// Iterates oldest-first: the ring from `head` on, minus empty slots.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        let (wrapped, from_head) = self.slots.split_at(self.head);
        from_head.iter().chain(wrapped).flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_and_guards() {
        let mut f = Fifo::new(2);
        assert!(f.can_enq());
        assert!(!f.can_deq());
        f.enq(1);
        f.enq(2);
        assert!(!f.can_enq());
        assert_eq!(f.first(), Some(&1));
        assert_eq!(f.deq(), 1);
        assert_eq!(f.deq(), 2);
        assert!(f.is_empty());
    }

    #[test]
    #[should_panic(expected = "enq on full FIFO")]
    fn enq_full_panics() {
        let mut f = Fifo::new(1);
        f.enq(1);
        f.enq(2);
    }

    #[test]
    #[should_panic(expected = "deq on empty FIFO")]
    fn deq_empty_panics() {
        let mut f: Fifo<u32> = Fifo::new(1);
        f.deq();
    }

    #[test]
    fn clear_flushes() {
        let mut f = Fifo::new(4);
        f.enq(1);
        f.enq(2);
        f.clear();
        assert!(f.is_empty());
        assert!(f.can_enq());
    }

    /// Enqueues bursts and dequeues drains of varying size, so the ring
    /// wraps many times, and checks the order, `first`, `iter` and `len`
    /// after every drain.
    #[test]
    fn interleaved_traffic_wraps_the_ring_in_order() {
        for capacity in 1..=5 {
            let mut f = Fifo::new(capacity);
            let (mut next_in, mut next_out) = (0u32, 0u32);
            for step in 0..200 {
                for _ in 0..1 + step % capacity {
                    if f.can_enq() {
                        f.enq(next_in);
                        next_in += 1;
                    }
                }
                assert_eq!(f.first(), Some(&next_out), "capacity {capacity}");
                for _ in 0..1 + (step * 7 + 3) % capacity {
                    if f.can_deq() {
                        assert_eq!(f.deq(), next_out, "capacity {capacity}");
                        next_out += 1;
                    }
                }
                assert_eq!(f.len(), (next_in - next_out) as usize);
                assert!(f.iter().copied().eq(next_out..next_in));
            }
            let slots = capacity.next_power_of_two() as u32;
            assert!(
                next_out > 20 * slots,
                "capacity {capacity}: {next_out} deqs"
            );
        }
    }

    #[test]
    fn first_is_the_oldest_after_a_wrap() {
        let mut f = Fifo::new(3);
        for i in 0..3 {
            f.enq(i);
        }
        for i in 0..3 {
            assert_eq!(f.deq(), i);
        }
        // The head is now at the last of the four slots: 4 wraps to slot 0.
        f.enq(3);
        f.enq(4);
        assert_eq!(f.deq(), 3);
        assert_eq!(f.first(), Some(&4));
        assert_eq!(f.deq(), 4);
        assert_eq!(f.first(), None);
    }

    #[test]
    fn clear_then_refill() {
        let mut f = Fifo::new(3);
        for i in 0..3 {
            f.enq(i);
        }
        f.deq();
        f.clear();
        assert!(f.is_empty() && !f.can_deq());
        assert_eq!(f.first(), None);
        for i in 10..13 {
            f.enq(i);
        }
        assert!(!f.can_enq());
        assert_eq!(f.iter().copied().collect::<Vec<_>>(), [10, 11, 12]);
        assert_eq!([f.deq(), f.deq(), f.deq()], [10, 11, 12]);
    }

    /// A capacity-3 FIFO has four slots, but is full at three elements.
    #[test]
    #[should_panic(expected = "enq on full FIFO")]
    fn capacity_three_refuses_a_fourth_enq() {
        let mut f = Fifo::new(3);
        for i in 0..3 {
            f.enq(i);
        }
        assert!(!f.can_enq());
        f.enq(3);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = Fifo::<u32>::new(0);
    }
}
