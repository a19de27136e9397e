//! Open-loop accounting: operation `k` is due at `k × period` after the
//! schedule starts, whether or not earlier operations have finished. Each
//! operation is timed from when it was due, so a stall charges its wait to
//! every operation queued behind it, and the generator's own lateness
//! (sent − due) is reported separately.

use std::time::{Duration, Instant};

/// A fixed-rate schedule in nanoseconds from its start.
#[derive(Clone, Copy, Debug)]
pub struct Schedule {
    /// Interval between consecutive due times.
    pub period_ns: u64,
}

/// One operation's open-loop timing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Timing {
    /// How late the generator sent it (0 when on time).
    pub lag_ns: u64,
    /// Completion minus due time: what the operation cost its caller,
    /// including any wait behind a late predecessor.
    pub from_due_ns: u64,
}

impl Schedule {
    /// Due time of operation `k`.
    pub fn due_ns(&self, k: u64) -> u64 {
        k * self.period_ns
    }

    /// Accounts operation `k`, sent at `sent_ns` and finished at `done_ns`.
    pub fn account(&self, k: u64, sent_ns: u64, done_ns: u64) -> Timing {
        let due = self.due_ns(k);
        Timing { lag_ns: sent_ns.saturating_sub(due), from_due_ns: done_ns.saturating_sub(due) }
    }
}

/// Blocks until `base + offset_ns`, yielding the core to any runnable
/// thread meanwhile but never sleeping: a sleeping generator's wake-up on
/// an idle virtual CPU can come milliseconds late, and open-loop accounting
/// charges that to every operation queued behind it. The price is that the
/// generator's core never goes idle.
pub fn wait_until(base: Instant, offset_ns: u64) {
    let target = base + Duration::from_nanos(offset_ns);
    while Instant::now() < target {
        std::thread::yield_now();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lateness_on_a_synthetic_schedule() {
        let s = Schedule { period_ns: 1_000 };
        // On time: no lag, latency is the call itself.
        assert_eq!(s.account(0, 0, 500), Timing { lag_ns: 0, from_due_ns: 500 });
        // Op 1 is due at 1000 but op 0 stalled until 2500: the stall is
        // charged to op 1 from its due time, and the lag shows it.
        assert_eq!(s.account(1, 2_500, 2_700), Timing { lag_ns: 1_500, from_due_ns: 1_700 });
        // Op 2 (due 2000) queued behind op 1 and inherits the backlog.
        assert_eq!(s.account(2, 2_700, 2_800), Timing { lag_ns: 700, from_due_ns: 800 });
        // Back on schedule: op 3 sent on time.
        assert_eq!(s.account(3, 3_000, 3_050).lag_ns, 0);
        // A send before its due time never reports negative lag.
        assert_eq!(s.account(4, 3_900, 4_100).lag_ns, 0);
        assert_eq!(s.account(4, 3_900, 4_100).from_due_ns, 100);
    }

    #[test]
    fn wait_until_does_not_return_early() {
        let base = Instant::now();
        wait_until(base, 2_000_000);
        assert!(base.elapsed() >= Duration::from_millis(2));
    }
}
