//! The sanctioned `catch_unwind` site of the workspace.
//!
//! Per-trial isolation is the heart of the sweep's fault tolerance: a
//! panicking trial must cost exactly one trial, never the sweep. All unwind
//! catching funnels through this module so the policy is auditable in one
//! place — clippy.toml bans `catch_unwind` (rule L6) everywhere else in
//! the workspace, and this module's `expect` is its one waiver.
//!
//! Two layers:
//!
//! * [`run_isolated`] wraps a single trial attempt. A panic becomes a typed
//!   `Err(payload)` that the executor classifies and retries.
//! * [`guard`] wraps a worker's whole drain loop, as a backstop for panics
//!   in the harness itself (cache I/O, channel plumbing). A worker that
//!   dies here is respawned by the executor and its in-flight trial is
//!   requeued.
//!
//! Both use `AssertUnwindSafe`: the shared state a worker touches is either
//! behind a `std::sync::Mutex` locked through a poisoned state
//! (`lock().unwrap_or_else(PoisonError::into_inner)`, so a panicked holder
//! does not wedge it), atomic, or owned per-trial, so an unwind cannot
//! leave it torn in a way a later observer could see.

#![expect(
    clippy::disallowed_methods,
    reason = "the sanctioned catch_unwind site: a panicking trial costs one attempt, not the sweep"
)]

use std::panic::{catch_unwind, AssertUnwindSafe};

/// Runs one trial attempt, converting a panic into its payload text.
pub(super) fn run_isolated<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(payload_text)
}

/// Runs a worker's drain loop, converting an escaped panic (one the
/// per-trial isolation did not already absorb) into its payload text.
pub(super) fn guard(f: impl FnOnce()) -> Result<(), String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(payload_text)
}

/// Extracts the human-readable message from a panic payload. `panic!` with
/// a literal yields `&str`, with a format string yields `String`; anything
/// else (a `panic_any` payload) gets a placeholder.
fn payload_text(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_passes_through() {
        assert_eq!(run_isolated(|| 42), Ok(42));
    }

    #[test]
    fn panic_becomes_payload_text() {
        let err = run_isolated(|| -> u32 { panic!("boom {}", 7) });
        assert_eq!(err, Err("boom 7".to_owned()));
        let err = run_isolated(|| -> u32 { panic!("literal") });
        assert_eq!(err, Err("literal".to_owned()));
    }

    #[test]
    fn guard_catches_loop_panics() {
        assert!(guard(|| ()).is_ok());
        assert_eq!(guard(|| panic!("late")), Err("late".to_owned()));
    }
}
