//! # `wfc-obs` — zero-dependency tracing and metrics
//!
//! The measurement substrate for the whole workspace: named atomic
//! [`metrics`] (counters, gauges, power-of-two-bucket histograms),
//! lightweight [`span`]s recorded into per-thread buffers that merge
//! deterministically at drain, a hand-rolled [`json`] writer/parser, and
//! a stable [`report::RunReport`] JSON schema that the explorer, the
//! Section 4.2 analyses, the model checker and the service all emit.
//!
//! The workspace builds fully offline, so this crate depends on nothing
//! but `std` — no `tracing`, no `serde`, no `metrics` facade.
//!
//! ## The zero-cost-when-disabled contract
//!
//! Observability is **off by default**. Every macro site
//! ([`counter!`](crate::counter), [`gauge_max!`](crate::gauge_max),
//! [`gauge_set!`](crate::gauge_set), [`histogram!`](crate::histogram),
//! [`span!`](crate::span)) first loads
//! one global `AtomicBool` ([`enabled`], a relaxed load) and does nothing
//! else when it is `false`: no registry lookup, no allocation, no name
//! ever registered. A disabled run therefore leaves the registry
//! *empty*, which the test suite asserts. Instrumented call paths that
//! carry their own knob (`ExploreOptions::obs` in `wfc-explorer`) check
//! that flag instead, with the same contract.
//!
//! Enable globally with `WFC_OBS=1`, or programmatically with
//! [`set_enabled`]. Set `WFC_OBS_JSON=<dir>` to make every emitted
//! [`report::RunReport`] land in `<dir>/<name>.json` instead of stderr.
//!
//! ## Determinism
//!
//! Instrumentation never feeds back into the instrumented computation:
//! the registry and the span collector are write-only side channels, so
//! instrumented runs produce bit-identical results to uninstrumented
//! ones at any thread count (`tests/parallel_differential.rs` in the
//! workspace root proves this). Span *merge* is deterministic too — see
//! [`span::drain`] for the rule.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod flight;
pub mod json;
pub mod metrics;
pub mod report;
pub mod span;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Once;

static ENABLED: AtomicBool = AtomicBool::new(false);
static ENV_INIT: Once = Once::new();

fn init_from_env() {
    ENV_INIT.call_once(|| {
        let on = std::env::var_os("WFC_OBS")
            .is_some_and(|v| !v.is_empty() && v != *"0" && v != *"false");
        if on {
            ENABLED.store(true, Ordering::Relaxed);
        }
    });
}

/// `true` if global observability is on (`WFC_OBS=1` or [`set_enabled`]).
///
/// One relaxed atomic load on the hot path; the environment is consulted
/// exactly once per process.
#[inline]
pub fn enabled() -> bool {
    init_from_env();
    ENABLED.load(Ordering::Relaxed)
}

/// Turns global observability on or off, overriding `WFC_OBS`.
pub fn set_enabled(on: bool) {
    init_from_env(); // settle the env read so it cannot clobber this later
    ENABLED.store(on, Ordering::Relaxed);
}

/// `true` if some emission destination is configured: either global
/// observability is on (reports go to stderr) or `WFC_OBS_JSON` names a
/// directory for them.
pub fn emission_requested() -> bool {
    enabled() || std::env::var_os("WFC_OBS_JSON").is_some()
}

/// Increments a named counter by 1 (or by an explicit delta) when global
/// observability is enabled; a single relaxed load otherwise.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {
        $crate::counter!($name, 1u64)
    };
    ($name:expr, $delta:expr) => {
        if $crate::enabled() {
            $crate::metrics::Registry::global()
                .counter($name)
                .add($delta as u64);
        }
    };
}

/// Raises a named gauge to at least `$value` when global observability
/// is enabled; a single relaxed load otherwise.
#[macro_export]
macro_rules! gauge_max {
    ($name:expr, $value:expr) => {
        if $crate::enabled() {
            $crate::metrics::Registry::global()
                .gauge($name)
                .record_max($value as i64);
        }
    };
}

/// Sets a named gauge to exactly `$value` when global observability is
/// enabled; a single relaxed load otherwise. Use for live state that
/// goes both up and down (queue depth, open entries, in-flight count) —
/// [`gauge_max!`](crate::gauge_max) for high-water marks.
#[macro_export]
macro_rules! gauge_set {
    ($name:expr, $value:expr) => {
        if $crate::enabled() {
            $crate::metrics::Registry::global()
                .gauge($name)
                .set($value as i64);
        }
    };
}

/// Records `$value` into a named power-of-two histogram when global
/// observability is enabled; a single relaxed load otherwise.
#[macro_export]
macro_rules! histogram {
    ($name:expr, $value:expr) => {
        if $crate::enabled() {
            $crate::metrics::Registry::global()
                .histogram($name)
                .record($value as u64);
        }
    };
}

/// Opens a span that records its wall-clock duration when dropped, if
/// global observability is enabled. Binds to a guard:
///
/// ```
/// # wfc_obs::set_enabled(false);
/// let _g = wfc_obs::span!("bfs_level", level = 3);
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span::enter_if($crate::enabled(), $name, String::new())
    };
    ($name:expr, $key:ident = $value:expr) => {
        $crate::span::enter_if(
            $crate::enabled(),
            $name,
            format!(concat!(stringify!($key), "={}"), $value),
        )
    };
}

#[cfg(test)]
mod tests {
    /// Global-state tests (the enable flag, the registry) must not
    /// interleave; every test that touches them holds this lock.
    pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    use super::*;

    #[test]
    fn set_enabled_round_trips() {
        let _l = test_lock();
        let was = enabled();
        set_enabled(true);
        assert!(enabled());
        set_enabled(false);
        assert!(!enabled());
        set_enabled(was);
    }

    #[test]
    fn disabled_macro_sites_leave_the_registry_empty() {
        let _l = test_lock();
        let was = enabled();
        set_enabled(false);
        metrics::Registry::global().reset();
        span::reset();
        // An "instrumented but disabled" run: every macro form fires.
        for k in 0..100u64 {
            counter!("test.disabled_counter");
            counter!("test.disabled_counter_delta", k);
            gauge_max!("test.disabled_gauge", k);
            gauge_set!("test.disabled_gauge_set", k);
            histogram!("test.disabled_hist", k);
            let _g = span!("test.disabled_span", k = k);
        }
        let snap = metrics::Registry::global().snapshot();
        assert!(snap.counters.is_empty(), "{:?}", snap.counters);
        assert!(snap.gauges.is_empty(), "{:?}", snap.gauges);
        assert!(snap.histograms.is_empty(), "{:?}", snap.histograms);
        // The disabled drain is lock-free: one relaxed load decides
        // there is nothing pending, and the span registry lock is
        // never taken.
        let locks_before = span::registry_locks();
        assert!(span::drain().is_empty());
        assert_eq!(
            span::registry_locks(),
            locks_before,
            "a disabled drain must not touch the registry lock"
        );
        set_enabled(was);
    }

    #[test]
    fn enabled_macro_sites_record() {
        let _l = test_lock();
        let was = enabled();
        set_enabled(true);
        metrics::Registry::global().reset();
        span::reset();
        counter!("test.enabled_counter");
        counter!("test.enabled_counter", 4);
        gauge_max!("test.enabled_gauge", 7);
        gauge_max!("test.enabled_gauge", 3);
        histogram!("test.enabled_hist", 5);
        {
            let _g = span!("test.enabled_span", level = 2);
        }
        let snap = metrics::Registry::global().snapshot();
        assert_eq!(snap.counters, vec![("test.enabled_counter".into(), 5)]);
        assert_eq!(snap.gauges, vec![("test.enabled_gauge".into(), 7)]);
        assert_eq!(snap.histograms.len(), 1);
        let spans = span::drain();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "test.enabled_span");
        assert_eq!(spans[0].label, "level=2");
        assert_eq!(spans[0].count, 1);
        metrics::Registry::global().reset();
        set_enabled(was);
    }
}
