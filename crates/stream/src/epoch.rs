//! Epoch watermarks: when to seal.

use std::time::{Duration, Instant};

/// When the stream checker should seal the current epoch.
///
/// Watermarks compose with *or*: the epoch seals as soon as any enabled
/// watermark fires. Checking is the caller's loop (`elle-stream` checks
/// after every ingested event); the policy only answers "now?".
#[derive(Debug, Clone, Copy)]
pub struct EpochPolicy {
    /// Seal after this many transactions the checker admitted
    /// ([`StreamChecker::txns_this_epoch`](crate::StreamChecker::txns_this_epoch)):
    /// new invocations, adopted orphans and invocations admitted in
    /// place of abandoned ones. A resent duplicate does not count.
    pub txns: Option<usize>,
    /// Seal after this many accepted events
    /// ([`StreamChecker::events_this_epoch`](crate::StreamChecker::events_this_epoch)).
    pub events: Option<usize>,
    /// Seal when this much wall-clock time has passed since the last
    /// seal (for live tailing; meaningless for file replay).
    pub wall: Option<Duration>,
}

impl EpochPolicy {
    /// Seal every `n` transactions.
    pub fn every_txns(n: usize) -> EpochPolicy {
        EpochPolicy {
            txns: Some(n.max(1)),
            events: None,
            wall: None,
        }
    }

    /// Seal every `n` events.
    pub fn every_events(n: usize) -> EpochPolicy {
        EpochPolicy {
            txns: None,
            events: Some(n.max(1)),
            wall: None,
        }
    }

    /// Add a wall-clock watermark.
    pub fn with_wall(mut self, d: Duration) -> EpochPolicy {
        self.wall = Some(d);
        self
    }

    /// Should the epoch seal, given progress since the last seal?
    pub fn should_seal(&self, txns: usize, events: usize, since_seal: Instant) -> bool {
        self.txns.is_some_and(|n| txns >= n)
            || self.events.is_some_and(|n| events >= n)
            || self.wall.is_some_and(|d| since_seal.elapsed() >= d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn watermarks_fire_independently() {
        let now = Instant::now();
        let p = EpochPolicy::every_txns(10);
        assert!(!p.should_seal(9, 1000, now));
        assert!(p.should_seal(10, 0, now));
        let p = EpochPolicy::every_events(5);
        assert!(!p.should_seal(100, 4, now));
        assert!(p.should_seal(0, 5, now));
        let p = EpochPolicy::every_txns(10).with_wall(Duration::ZERO);
        assert!(p.should_seal(0, 0, now), "elapsed ≥ zero fires");
    }

    #[test]
    fn zero_clamps_to_one() {
        assert_eq!(EpochPolicy::every_txns(0).txns, Some(1));
        assert_eq!(EpochPolicy::every_events(0).events, Some(1));
    }
}
