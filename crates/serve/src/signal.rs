//! SIGINT/SIGTERM handling without a signal-handling dependency.
//!
//! The daemon needs exactly one bit of information from the OS: "a shutdown
//! signal arrived". The handler installed here does the only thing an
//! async-signal-safe handler may do with our toolbox — store to a static
//! atomic. glibc's `signal` installs it with `SA_RESTART`, so the signal
//! does not interrupt the acceptor's blocking `accept`. Instead a watcher
//! thread in [`Server::run`](crate::Server::run) checks [`signalled`] every
//! 50 ms and wakes the acceptor with a loopback connection, just as
//! [`ShutdownHandle::shutdown`](crate::ShutdownHandle::shutdown) does.

use std::sync::atomic::{AtomicBool, Ordering};

/// Set by the handler; read by the signal watcher.
static SIGNALLED: AtomicBool = AtomicBool::new(false);

/// Whether SIGINT or SIGTERM has arrived since [`install_handlers`].
pub fn signalled() -> bool {
    SIGNALLED.load(Ordering::SeqCst)
}

/// Sets the flag as if a signal had arrived — lets tests and the in-process
/// load generator exercise the shutdown path without raising real signals.
pub fn raise_synthetic() {
    SIGNALLED.store(true, Ordering::SeqCst);
}

#[cfg(unix)]
mod imp {
    use super::SIGNALLED;
    use std::sync::atomic::Ordering;

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    // The C standard library's `signal(2)` wrapper. Declaring and calling a
    // foreign function is the single unsafe operation in this crate (see the
    // lint note in Cargo.toml).
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    extern "C" fn on_signal(_signum: i32) {
        // SAFETY-adjacent note: an atomic store is async-signal-safe — no
        // allocation, no locks, no formatting. Nothing else happens here.
        SIGNALLED.store(true, Ordering::SeqCst);
    }

    pub fn install() {
        // SAFETY: `signal` is the documented libc entry point; `on_signal`
        // is `extern "C"` with the required `fn(i32)` signature and performs
        // only an atomic store. Replacing the default disposition of
        // SIGINT/SIGTERM for the whole process is exactly the intent.
        unsafe {
            signal(SIGINT, on_signal);
            signal(SIGTERM, on_signal);
        }
    }
}

#[cfg(not(unix))]
mod imp {
    // Non-Unix builds keep ctrl-c's default (abrupt) behavior; graceful
    // shutdown remains reachable through `raise_synthetic`.
    pub fn install() {}
}

/// Installs the SIGINT/SIGTERM handlers (idempotent).
pub fn install_handlers() {
    imp::install();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_signal_sets_the_flag() {
        install_handlers();
        raise_synthetic();
        assert!(signalled());
    }
}
