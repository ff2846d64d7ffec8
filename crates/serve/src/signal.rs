//! Minimal graceful-shutdown signal latch.
//!
//! The workspace vendors no libc crate, so this binds `signal(2)`
//! directly — the symbol is in the C runtime every Rust binary already
//! links. The handler only flips an `AtomicBool` (the one thing that
//! is async-signal-safe); the accept/read loops poll
//! [`shutdown_requested`] and start a graceful drain. A second signal
//! while draining falls back to the (restored) default disposition via
//! the one-shot `SA_RESETHAND`-like behavior of installing with
//! `signal`, letting an operator force-kill a wedged drain.

#![allow(unsafe_code)]

use std::sync::atomic::{AtomicBool, Ordering};

static SHUTDOWN: AtomicBool = AtomicBool::new(false);

/// Has SIGTERM or SIGINT been delivered since [`install`]?
pub fn shutdown_requested() -> bool {
    SHUTDOWN.load(Ordering::SeqCst)
}

#[cfg(unix)]
mod imp {
    use super::SHUTDOWN;
    use std::sync::atomic::Ordering;

    const SIGINT: i32 = 2;
    const SIGPIPE: i32 = 13;
    const SIGTERM: i32 = 15;
    const SIG_DFL: usize = 0;

    extern "C" {
        // POSIX `signal(2)`. Takes and returns the previous handler as
        // a raw function address; `0` is `SIG_DFL`.
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_signal(_signum: i32) {
        SHUTDOWN.store(true, Ordering::SeqCst);
    }

    pub fn install() {
        unsafe {
            signal(SIGTERM, on_signal as *const () as usize);
            signal(SIGINT, on_signal as *const () as usize);
        }
    }

    pub fn default_sigpipe() {
        // SAFETY: `signal` only swaps the process's disposition for
        // SIGPIPE; SIG_DFL installs no handler code.
        unsafe {
            signal(SIGPIPE, SIG_DFL);
        }
    }
}

#[cfg(not(unix))]
mod imp {
    pub fn install() {}
    pub fn default_sigpipe() {}
}

/// Install SIGTERM/SIGINT handlers that arm the shutdown latch. A
/// no-op on non-unix targets (EOF / `shutdown` op still drain).
pub fn install() {
    imp::install();
}

/// Restore the default `SIGPIPE` disposition, which the Rust runtime
/// sets to ignored: a one-shot CLI whose reader closes stdout (`| head`)
/// then stops quietly, as `cat` does, instead of panicking on `EPIPE`.
/// The service must not call this: a client that disconnects must never
/// kill it.
pub fn default_sigpipe() {
    imp::default_sigpipe();
}
