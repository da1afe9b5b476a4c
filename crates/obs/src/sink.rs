//! The event sink interface and its two standard implementations.

use crate::event::Event;

/// Receives structured events from instrumented components.
///
/// Instrumentation is **statically dispatched**: components take `S: Sink`
/// as a type parameter (defaulting to [`NullSink`]) and guard any
/// non-trivial event construction with `if S::ENABLED { .. }`. With
/// `NullSink` the guard is a compile-time constant `false`, so the entire
/// instrumentation block is dead code the optimizer removes — hot loops
/// pay nothing. This module's tests const-assert that
/// `NullSink::ENABLED` is `false`.
pub trait Sink {
    /// `false` only for sinks that discard everything, letting
    /// instrumentation sites skip event construction entirely.
    const ENABLED: bool;

    /// Accepts one event.
    fn emit(&mut self, ev: Event);

    /// The events kept so far, oldest first (none for a sink that keeps
    /// nothing).
    fn recorded(&self) -> &[Event] {
        &[]
    }
}

/// The default sink: discards everything, costs nothing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NullSink;

impl Sink for NullSink {
    const ENABLED: bool = false;

    #[inline(always)]
    fn emit(&mut self, _ev: Event) {}
}

/// Records every event in memory, for export after the run.
#[derive(Clone, Debug, Default)]
pub struct MemSink {
    /// The recorded events, oldest first.
    pub events: Vec<Event>,
}

impl Sink for MemSink {
    const ENABLED: bool = true;

    #[inline]
    fn emit(&mut self, ev: Event) {
        self.events.push(ev);
    }

    fn recorded(&self) -> &[Event] {
        &self.events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_sink_records_null_sink_discards() {
        let ev = Event::instant(1, "test", "e");
        let mut m = MemSink::default();
        m.emit(ev);
        m.emit(ev);
        assert_eq!(m.events.len(), 2);
        const { assert!(MemSink::ENABLED) };

        let mut n = NullSink;
        n.emit(ev);
        const { assert!(!NullSink::ENABLED) };
    }
}
