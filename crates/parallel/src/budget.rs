//! Cooperative cancellation for in-flight parallel work.
//!
//! A [`Budget`] is a deadline plus a shared cancellation flag. Long-running
//! pipelines thread one through their hot loops and call
//! [`Budget::checkpoint`] at cheap, frequent points (per layout trial, per
//! routing step, per optimization pass). When the deadline has passed — or
//! the flag was raised by a sibling job — the checkpoint aborts the
//! computation by unwinding with a typed [`Cancelled`] payload.
//!
//! Cancellation-by-unwinding keeps every routing and layout API signature
//! untouched: no `Result` threading through the numeric core. The unwind is
//! caught exactly once, at the session entry-point's `catch_unwind`
//! boundary, where [`Cancelled::from_payload`] distinguishes a deadline
//! abort from a genuine bug panic. [`ThreadPool::map`] performs the same
//! distinction so a deadline abort is not counted as a panicked job.
//!
//! The flag is shared (`Arc`) so that once any checkpoint trips, sibling
//! layout trials running on other workers abort at their own next
//! checkpoint instead of running to completion. It is allocated only when
//! first needed, by a clone, a [`Budget::cancel`] or a latching deadline,
//! so a request that never shares or trips its budget allocates nothing
//! for it.
//!
//! [`ThreadPool::map`]: crate::ThreadPool::map

use std::any::Any;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// The typed unwind payload produced by an expired [`Budget`] checkpoint.
///
/// Carried by `resume_unwind`, caught at the session boundary, and mapped to
/// a deadline error there. `resume_unwind` skips the panic hook, so a
/// deadline abort prints no panic message or backtrace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cancelled;

impl Cancelled {
    /// Whether an unwind payload is a [`Cancelled`] marker (a cooperative
    /// deadline abort) rather than a genuine panic.
    pub fn from_payload(payload: &(dyn Any + Send)) -> bool {
        payload.is::<Cancelled>()
    }
}

impl std::fmt::Display for Cancelled {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("budget cancelled")
    }
}

/// A deadline plus a shared cancellation flag, checked at cheap checkpoints
/// inside long-running pipelines.
///
/// `Budget` is cheap to clone — clones share the same flag, so cancelling
/// one cancels them all. An unlimited budget ([`Budget::unlimited`]) makes
/// every checkpoint a load of the flag's cell, plus a relaxed load of the
/// flag once it exists.
#[derive(Debug)]
pub struct Budget {
    deadline: Option<Instant>,
    /// The cancellation flag every clone shares, allocated by the first
    /// clone, cancel or latch (see [`flag`](Self::flag)).
    cancelled: OnceLock<Arc<AtomicBool>>,
}

impl Clone for Budget {
    /// A budget sharing this one's deadline and flag: cancelling either
    /// cancels both, whichever was cloned from which.
    fn clone(&self) -> Self {
        Self {
            deadline: self.deadline,
            cancelled: OnceLock::from(Arc::clone(self.flag())),
        }
    }
}

impl Budget {
    /// A budget that never expires on its own (it can still be cancelled
    /// explicitly via [`Budget::cancel`]).
    pub fn unlimited() -> Self {
        Self {
            deadline: None,
            cancelled: OnceLock::new(),
        }
    }

    /// A budget expiring `limit` from now; unlimited when that instant is
    /// beyond `Instant`'s range.
    pub fn with_timeout(limit: Duration) -> Self {
        match Instant::now().checked_add(limit) {
            Some(deadline) => Self::with_deadline(deadline),
            None => Self::unlimited(),
        }
    }

    /// A budget expiring at `deadline`.
    pub fn with_deadline(deadline: Instant) -> Self {
        Self {
            deadline: Some(deadline),
            cancelled: OnceLock::new(),
        }
    }

    /// The shared flag, allocated on first use.
    fn flag(&self) -> &Arc<AtomicBool> {
        self.cancelled.get_or_init(Arc::default)
    }

    /// The deadline instant, if this budget has one.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// Raises the shared cancellation flag: every clone's next
    /// [`checkpoint`](Self::checkpoint) will abort.
    pub fn cancel(&self) {
        self.flag().store(true, Ordering::Relaxed);
    }

    /// Whether the budget is exhausted (flag raised or deadline passed),
    /// without unwinding. Prefer [`checkpoint`](Self::checkpoint) inside
    /// pipelines; this is for callers that want to turn exhaustion into an
    /// error value themselves.
    pub fn is_exhausted(&self) -> bool {
        if self
            .cancelled
            .get()
            .is_some_and(|flag| flag.load(Ordering::Relaxed))
        {
            return true;
        }
        match self.deadline {
            Some(deadline) if Instant::now() >= deadline => {
                // Latch, so sibling clones abort on their flag load
                // without re-reading the clock.
                self.flag().store(true, Ordering::Relaxed);
                true
            }
            _ => false,
        }
    }

    /// Aborts the computation by unwinding with a [`Cancelled`] payload if
    /// the budget is exhausted. The fast path — flag clear, no deadline —
    /// reads the flag's cell and, once the flag exists, the flag.
    #[inline]
    pub fn checkpoint(&self) {
        if self.is_exhausted() {
            std::panic::resume_unwind(Box::new(Cancelled));
        }
    }
}

impl Default for Budget {
    fn default() -> Self {
        Self::unlimited()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_trips() {
        let budget = Budget::unlimited();
        assert!(!budget.is_exhausted());
        budget.checkpoint();
        budget.checkpoint();
    }

    #[test]
    fn expired_deadline_unwinds_with_cancelled_payload() {
        let budget = Budget::with_deadline(Instant::now() - Duration::from_millis(1));
        let caught = std::panic::catch_unwind(|| budget.checkpoint());
        let payload = caught.expect_err("expired checkpoint must unwind");
        assert!(Cancelled::from_payload(payload.as_ref()));
    }

    #[test]
    fn cancel_propagates_to_clones() {
        let budget = Budget::unlimited();
        let clone = budget.clone();
        clone.cancel();
        assert!(budget.is_exhausted());
        assert!(
            std::panic::catch_unwind(|| budget.checkpoint()).is_err(),
            "cancelled budget must trip its checkpoint"
        );
    }

    #[test]
    fn clones_made_before_a_cancel_share_its_flag() {
        // The first clone allocates the flag; cancelling any of the three
        // budgets, or latching a deadline on one, reaches them all.
        for cancelled in 0..3 {
            let original = Budget::unlimited();
            let clone = original.clone();
            let grandchild = clone.clone();
            let family = [&original, &clone, &grandchild];
            family[cancelled].cancel();
            assert!(
                family.iter().all(|budget| budget.is_exhausted()),
                "{cancelled}"
            );
        }
        let original = Budget::with_deadline(Instant::now() - Duration::from_millis(1));
        let clone = original.clone();
        assert!(clone.is_exhausted());
        let flag = original.cancelled.get().expect("the clone shares its flag");
        assert!(flag.load(Ordering::Relaxed));
    }

    #[test]
    fn an_unshared_budget_allocates_no_flag_until_it_trips() {
        let budget = Budget::with_timeout(Duration::from_secs(3600));
        budget.checkpoint();
        assert!(budget.cancelled.get().is_none());
        budget.cancel();
        assert!(budget.is_exhausted());
    }

    #[test]
    fn deadline_expiry_latches_the_shared_flag() {
        let budget = Budget::with_deadline(Instant::now() - Duration::from_millis(1));
        let clone = budget.clone();
        assert!(budget.is_exhausted());
        // The clone now sees the latched flag even without the clock.
        assert!(clone.is_exhausted());
    }

    #[test]
    fn generous_deadline_does_not_trip() {
        let budget = Budget::with_timeout(Duration::from_secs(3600));
        assert!(!budget.is_exhausted());
        budget.checkpoint();
    }

    #[test]
    fn unrepresentable_timeout_is_unlimited() {
        let budget = Budget::with_timeout(Duration::MAX);
        assert_eq!(budget.deadline(), None);
        assert!(!budget.is_exhausted());
    }

    #[test]
    fn ordinary_panics_are_not_cancellations() {
        let caught = std::panic::catch_unwind(|| panic!("plain panic"));
        let payload = caught.expect_err("panic must unwind");
        assert!(!Cancelled::from_payload(payload.as_ref()));
    }
}
