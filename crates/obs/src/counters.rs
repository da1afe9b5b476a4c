//! The named-counter registry.

use std::collections::BTreeMap;

/// A registry of named monotonic counters.
///
/// Names follow the `layer.component.metric` scheme (see the crate docs).
/// The registry is deliberately *not* designed for hot paths — lookups
/// hash/compare strings — so instrumented components keep plain `u64`
/// fields in their own stats structs and dump them here at reporting time
/// via [`Counters::set`]. A `BTreeMap` keeps iteration (and therefore
/// every exported report) deterministically ordered.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    values: BTreeMap<&'static str, u64>,
}

impl Counters {
    /// An empty registry.
    pub fn new() -> Counters {
        Counters::default()
    }

    /// Adds `delta` to `name`, creating it at zero first if absent.
    pub fn add(&mut self, name: &'static str, delta: u64) {
        *self.values.entry(name).or_insert(0) += delta;
    }

    /// Sets `name` to exactly `value`.
    pub fn set(&mut self, name: &'static str, value: u64) {
        self.values.insert(name, value);
    }

    /// The current value of `name`, or 0 if it was never touched.
    pub fn get(&self, name: &str) -> u64 {
        self.values.get(name).copied().unwrap_or(0)
    }

    /// Whether any counter has been recorded.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Number of distinct counters.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Folds every counter of `other` into `self` (summing on collision).
    pub fn merge(&mut self, other: &Counters) {
        for (name, value) in other.iter() {
            self.add(name, value);
        }
    }

    /// Iterates `(name, value)` in lexicographic name order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.values.iter().map(|(&k, &v)| (k, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_set_get() {
        let mut c = Counters::new();
        assert!(c.is_empty());
        assert_eq!(c.get("pipeline.stall.raw"), 0);
        c.add("pipeline.stall.raw", 3);
        c.add("pipeline.stall.raw", 4);
        c.set("pipeline.flush.total", 9);
        assert_eq!(c.get("pipeline.stall.raw"), 7);
        assert_eq!(c.get("pipeline.flush.total"), 9);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn merge_sums_collisions_and_keeps_order() {
        let mut a = Counters::new();
        a.add("b.x", 1);
        a.add("a.y", 2);
        let mut b = Counters::new();
        b.add("b.x", 10);
        b.add("c.z", 5);
        a.merge(&b);
        let got: Vec<_> = a.iter().collect();
        assert_eq!(got, vec![("a.y", 2), ("b.x", 11), ("c.z", 5)]);
    }
}
