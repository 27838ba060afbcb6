//! A tripped budget checkpoint unwinds without calling the panic hook, so a
//! deadline abort writes no panic message or backtrace to stderr (for
//! `nassc-serve`, its access log). The panic hook is process-wide, so this
//! check is its own test binary with one test.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use nassc_parallel::{Budget, Cancelled};

static HOOK_CALLS: AtomicUsize = AtomicUsize::new(0);

#[test]
fn tripped_checkpoint_skips_the_panic_hook() {
    std::panic::set_hook(Box::new(|_| {
        HOOK_CALLS.fetch_add(1, Ordering::SeqCst);
    }));
    let budget = Budget::with_deadline(Instant::now() - Duration::from_millis(1));
    let cancelled = std::panic::catch_unwind(|| budget.checkpoint());
    let after_cancel = HOOK_CALLS.load(Ordering::SeqCst);
    let plain = std::panic::catch_unwind(|| panic!("plain panic"));
    let after_panic = HOOK_CALLS.load(Ordering::SeqCst);
    // Restore the default hook before asserting, so failures print.
    drop(std::panic::take_hook());

    let payload = cancelled.expect_err("expired checkpoint must unwind");
    assert!(Cancelled::from_payload(payload.as_ref()));
    assert_eq!(after_cancel, 0, "a deadline abort must not run the hook");
    let payload = plain.expect_err("panic must unwind");
    assert!(!Cancelled::from_payload(payload.as_ref()));
    assert_eq!(after_panic, 1, "an ordinary panic runs the hook once");
}
