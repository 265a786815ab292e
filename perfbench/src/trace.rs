//! Spans recorded by the benchmark itself, around its calls into each
//! layer, held in memory and written at the end of the run in the
//! kpt-obs JSONL span schema (`ts_us`, `kind`, `dur_us`, `span_id`,
//! `parent_id`, fields), so `obs_report` summarises, validates and folds
//! them like any other trace.
//!
//! Library tracing stays off in the library workloads: the numbers then
//! measure the layers, not their instrumentation. (Binding a
//! `kpt_server::Server` turns library tracing on for its process; that is
//! the server's own behaviour and `server_mix` measures it as such.)

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use kpt_obs::{Event, Field};

static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

/// The process's time origin; the first call fixes it, so `main` calls
/// this before anything else.
pub fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// A per-thread span recorder. Disabled recorders cost one branch per
/// span and still return the wall time of the call.
#[derive(Debug, Default)]
pub struct Tracer {
    enabled: bool,
    stack: Vec<u64>,
    events: Vec<Event>,
}

impl Tracer {
    /// A recorder, on or off.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            ..Tracer::default()
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Switch recording on or off between spans.
    pub fn set_enabled(&mut self, on: bool) {
        debug_assert!(self.stack.is_empty(), "toggled inside a span");
        self.enabled = on;
    }

    /// Run `f` inside a span of `kind` and return its result with its
    /// wall time in milliseconds.
    pub fn span<R>(
        &mut self,
        kind: &str,
        fields: &[(&str, Field)],
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> (R, f64) {
        if !self.enabled {
            let t = Instant::now();
            let r = f(self);
            return (r, t.elapsed().as_secs_f64() * 1e3);
        }
        let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
        let parent_id = self.stack.last().copied();
        self.stack.push(id);
        let ts_us = epoch().elapsed().as_micros() as u64;
        let t = Instant::now();
        let r = f(self);
        let dur = t.elapsed().as_secs_f64();
        self.stack.pop();
        self.events.push(Event {
            ts_us,
            kind: kind.to_owned(),
            dur_us: Some(dur * 1e6),
            span_id: Some(id),
            parent_id,
            fields: fields
                .iter()
                .map(|(k, v)| ((*k).to_owned(), v.clone()))
                .collect(),
        });
        (r, dur * 1e3)
    }

    /// Move another recorder's spans into this one (client threads).
    pub fn absorb(&mut self, other: Tracer) {
        self.events.extend(other.events);
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// The recorded spans as JSON Lines, in start order.
    pub fn to_jsonl(&self) -> String {
        let mut events: Vec<&Event> = self.events.iter().collect();
        events.sort_by_key(|e| (e.ts_us, e.span_id));
        let mut out = String::new();
        for e in events {
            out.push_str(&e.to_json());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_parse_back() {
        let mut t = Tracer::new(true);
        let ((), _) = t.span("outer", &[("model", "m".into())], |t| {
            let (x, ms) = t.span("inner", &[], |_| 2 + 2);
            assert_eq!(x, 4);
            assert!(ms >= 0.0);
        });
        let text = t.to_jsonl();
        let lines: Vec<kpt_obs::JsonValue> = text
            .lines()
            .map(|l| kpt_obs::parse_json(l).unwrap())
            .collect();
        assert_eq!(lines.len(), 2);
        let outer = &lines[0];
        let inner = &lines[1];
        assert_eq!(outer.get("kind").unwrap().as_str(), Some("outer"));
        assert_eq!(outer.get("model").unwrap().as_str(), Some("m"));
        assert_eq!(
            inner.get("parent_id").unwrap().as_u64(),
            outer.get("span_id").unwrap().as_u64()
        );
        assert!(inner.get("dur_us").is_some());
    }

    #[test]
    fn a_disabled_tracer_records_nothing_but_still_times() {
        let mut t = Tracer::new(false);
        let (r, ms) = t.span("x", &[], |_| 7);
        assert_eq!(r, 7);
        assert!(ms >= 0.0);
        assert_eq!(t.len(), 0);
    }
}
