//! The correctness gate, checked from outside the program: every served
//! answer against an independent compile-and-execute over the same counts,
//! shard digests against a reference replay, standing brackets against a
//! re-execution. Failed or refused operations are counted, not excused; a
//! wrong answer fails the run.

use stq_runtime::{ServedAnswer, StandingBracket};

/// The parts of a served answer the gate judges, kept compact so the timed
/// loop can store one per request and check them afterwards.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Served {
    /// Estimate.
    pub value: f64,
    /// Lower bracket end.
    pub lower: f64,
    /// Upper bracket end.
    pub upper: f64,
    /// Share of boundary edges that answered.
    pub coverage: f64,
    /// The region could not be resolved.
    pub miss: bool,
    /// Served with widened bounds.
    pub degraded: bool,
    /// Answered after its deadline.
    pub expired: bool,
}

impl From<&ServedAnswer> for Served {
    fn from(a: &ServedAnswer) -> Self {
        Served {
            value: a.value,
            lower: a.lower,
            upper: a.upper,
            coverage: a.coverage,
            miss: a.miss,
            degraded: a.degraded,
            expired: a.expired,
        }
    }
}

/// The gate's judgement of one operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Served in full and equal to the reference bit for bit.
    Ok,
    /// Missed, degraded, expired or partially covered: counts as failed.
    Failed,
    /// Served in full but different from the reference: a wrong answer.
    Mismatch,
}

/// Judges a served answer against the reference value (compile + execute
/// over the same store). A full-coverage answer's bracket collapses onto
/// its value, so all three must carry the reference's exact bits.
pub fn judge(a: &Served, reference: f64) -> Verdict {
    if a.miss || a.degraded || a.expired || a.coverage != 1.0 {
        return Verdict::Failed;
    }
    let bits = reference.to_bits();
    if a.value.to_bits() == bits && a.lower.to_bits() == bits && a.upper.to_bits() == bits {
        Verdict::Ok
    } else {
        Verdict::Mismatch
    }
}

/// A standing bracket must equal the re-executed snapshot bit for bit.
pub fn bracket_matches(b: &StandingBracket, reference: f64) -> bool {
    let bits = reference.to_bits();
    b.value.to_bits() == bits && b.lower.to_bits() == bits && b.upper.to_bits() == bits
}

/// Indices of shards whose digest differs from the reference (including a
/// length mismatch, reported as every index of the longer side).
pub fn digest_mismatches(got: &[u64], want: &[u64]) -> Vec<usize> {
    if got.len() != want.len() {
        return (0..got.len().max(want.len())).collect();
    }
    got.iter().zip(want).enumerate().filter(|(_, (g, w))| g != w).map(|(i, _)| i).collect()
}

/// Running tally of the gate over a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations judged.
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    /// Wrong answers, digests or brackets.
    pub mismatches: u64,
}

impl Tally {
    /// Adds one judged operation.
    pub fn add(&mut self, v: Verdict) {
        self.attempted += 1;
        match v {
            Verdict::Ok => {}
            Verdict::Failed => self.failed += 1,
            Verdict::Mismatch => self.mismatches += 1,
        }
    }

    /// Adds a batch of `n` operations of which `failed` were refused.
    pub fn add_ops(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed;
    }

    /// Records `n` wrong results found by a whole-state check.
    pub fn mismatch(&mut self, n: u64) {
        self.mismatches += n;
    }

    /// The run is correct when nothing was wrong.
    pub fn correct(&self) -> bool {
        self.mismatches == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full(v: f64) -> Served {
        Served {
            value: v,
            lower: v,
            upper: v,
            coverage: 1.0,
            miss: false,
            degraded: false,
            expired: false,
        }
    }

    #[test]
    fn a_one_bit_perturbed_answer_is_a_mismatch() {
        let reference = 17.25f64;
        assert_eq!(judge(&full(reference), reference), Verdict::Ok);
        let flipped = f64::from_bits(reference.to_bits() ^ 1);
        assert_eq!(judge(&full(flipped), reference), Verdict::Mismatch);
        let mut wide = full(reference);
        wide.upper = f64::from_bits(reference.to_bits() ^ 1);
        assert_eq!(judge(&wide, reference), Verdict::Mismatch);
        // -0.0 and 0.0 compare equal but are different bits.
        assert_eq!(judge(&full(-0.0), 0.0), Verdict::Mismatch);
    }

    #[test]
    fn degraded_and_missed_answers_count_as_failed() {
        let mut a = full(3.0);
        a.degraded = true;
        a.coverage = 0.5;
        assert_eq!(judge(&a, 3.0), Verdict::Failed);
        let mut m = full(0.0);
        m.miss = true;
        assert_eq!(judge(&m, 0.0), Verdict::Failed);
        let mut t = Tally::default();
        t.add(judge(&a, 3.0));
        t.add(judge(&full(3.0), 3.0));
        assert_eq!((t.attempted, t.failed, t.correct()), (2, 1, true));
        t.add(Verdict::Mismatch);
        assert!(!t.correct());
    }

    #[test]
    fn a_digest_mismatch_is_flagged() {
        assert!(digest_mismatches(&[1, 2, 3, 4], &[1, 2, 3, 4]).is_empty());
        assert_eq!(digest_mismatches(&[1, 2, 9, 4], &[1, 2, 3, 4]), vec![2]);
        assert_eq!(digest_mismatches(&[1, 2, 3], &[1, 2, 3, 4]), vec![0, 1, 2, 3]);
        let b = StandingBracket { value: 5.0, lower: 5.0, upper: 5.0, epoch: 0, deltas: 3 };
        assert!(bracket_matches(&b, 5.0));
        assert!(!bracket_matches(&b, f64::from_bits(5.0f64.to_bits() ^ 1)));
    }
}
