//! Warp schedulers: greedy-then-oldest (GTO) and loose round-robin,
//! plus the stall classification built from the same readiness checks.

use gscalar_trace::StallReason;

use crate::scoreboard::{Blocked, PENDING};

/// Warp scheduling policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedPolicy {
    /// Greedy-then-oldest: keep issuing from the last warp until it
    /// stalls, then fall back to the oldest ready warp (GPGPU-Sim's
    /// default, assumed by the paper's burst-of-scalar-instructions
    /// observation in Section 4.1).
    Gto,
    /// Loose round-robin.
    Lrr,
}

/// A warp scheduler owning a subset of an SM's warps.
///
/// The scheduler only decides *order*; the SM supplies a readiness
/// predicate at each issue attempt.
///
/// # Examples
///
/// ```
/// use gscalar_sim::scheduler::{Scheduler, SchedPolicy};
///
/// let mut s = Scheduler::new(SchedPolicy::Gto, vec![0, 2, 4]);
/// // Warp 2 is the only ready one.
/// assert_eq!(s.pick(|w| w == 2), Some(2));
/// // GTO keeps picking it while ready.
/// assert_eq!(s.pick(|w| w == 2), Some(2));
/// ```
#[derive(Debug, Clone)]
pub struct Scheduler {
    policy: SchedPolicy,
    warps: Vec<usize>,
    /// GTO: the warp to greedily retry. LRR: rotation offset.
    cursor: usize,
    greedy: Option<usize>,
}

impl Scheduler {
    /// Creates a scheduler over the given warp ids (oldest first).
    #[must_use]
    pub fn new(policy: SchedPolicy, warps: Vec<usize>) -> Self {
        Scheduler {
            policy,
            warps,
            cursor: 0,
            greedy: None,
        }
    }

    /// The warps this scheduler owns.
    #[must_use]
    pub fn warps(&self) -> &[usize] {
        &self.warps
    }

    /// Forgets `w` as the greedy candidate when the warp exits (its CTA
    /// retires). Without this the greedy pointer survives into whatever
    /// new warp reuses the same slot, handing it priority over older
    /// siblings and charging stall cycles to the dead warp's stale head
    /// PC before the slot refills.
    pub fn retire(&mut self, w: usize) {
        if self.greedy == Some(w) {
            self.greedy = None;
        }
    }

    /// Picks the next warp to issue from, or `None` if no owned warp
    /// satisfies `ready`.
    pub fn pick(&mut self, mut ready: impl FnMut(usize) -> bool) -> Option<usize> {
        if self.warps.is_empty() {
            return None;
        }
        match self.policy {
            SchedPolicy::Gto => {
                if let Some(g) = self.greedy {
                    if ready(g) {
                        return Some(g);
                    }
                }
                // Oldest ready warp.
                for &w in &self.warps {
                    if ready(w) {
                        self.greedy = Some(w);
                        return Some(w);
                    }
                }
                self.greedy = None;
                None
            }
            SchedPolicy::Lrr => {
                let n = self.warps.len();
                for i in 0..n {
                    let w = self.warps[(self.cursor + i) % n];
                    if ready(w) {
                        self.cursor = (self.cursor + i + 1) % n;
                        return Some(w);
                    }
                }
                None
            }
        }
    }
}

/// One warp's readiness at an issue attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// May issue.
    Ready,
    /// No live warp in the slot.
    Empty,
    /// Waiting at a CTA barrier.
    Barrier,
    /// Held by the scoreboard.
    Blocked(Blocked),
    /// Scoreboard-clear, but every operand collector is taken.
    NoCollector,
}

/// Why one scheduler issued nothing in a cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stall {
    /// The one reason charged for the slot.
    pub reason: StallReason,
    /// The warp that epitomizes `reason` (`None` when drained).
    pub culprit: Option<u32>,
    /// Earliest known scoreboard release among the blocked warps, or
    /// [`PENDING`] if none is known yet.
    pub wake: u64,
}

impl Stall {
    /// A scheduler with no live warps.
    pub const DRAINED: Stall = Stall {
        reason: StallReason::Drained,
        culprit: None,
        wake: PENDING,
    };
}

/// The stall classification, folded from the per-warp verdicts that a
/// [`Scheduler::pick`] readiness closure computes anyway — so a failed
/// pick needs no second pass over the warps.
///
/// Each category keeps its *lowest* warp index. [`Scheduler::warps`] is
/// ascending, so this is the first warp in owner order whatever order
/// the policy probed them in (GTO's greedy warp first, LRR's rotation).
///
/// # Examples
///
/// ```
/// use gscalar_sim::scheduler::{Scheduler, SchedPolicy, StallScan, Verdict};
/// use gscalar_trace::StallReason;
///
/// let mut s = Scheduler::new(SchedPolicy::Gto, vec![0, 1]);
/// let mut scan = StallScan::new();
/// assert_eq!(s.pick(|w| scan.note(w, if w == 0 { Verdict::Empty } else { Verdict::Barrier })), None);
/// let stall = scan.stall(false);
/// assert_eq!((stall.reason, stall.culprit), (StallReason::Barrier, Some(1)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StallScan {
    no_collector: Option<u32>,
    mem: Option<u32>,
    data: Option<u32>,
    barrier: Option<u32>,
    wake: u64,
}

impl Default for StallScan {
    fn default() -> Self {
        StallScan {
            no_collector: None,
            mem: None,
            data: None,
            barrier: None,
            wake: PENDING,
        }
    }
}

impl StallScan {
    /// An empty scan.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records warp `w`'s verdict; returns whether it may issue (the
    /// value a readiness closure hands back to [`Scheduler::pick`]).
    pub fn note(&mut self, w: usize, v: Verdict) -> bool {
        let w = w as u32;
        let lowest = |slot: &mut Option<u32>| *slot = Some(slot.map_or(w, |c| c.min(w)));
        match v {
            Verdict::Ready => return true,
            Verdict::Empty => {}
            Verdict::Barrier => lowest(&mut self.barrier),
            Verdict::Blocked(b) => {
                lowest(if b.mem { &mut self.mem } else { &mut self.data });
                self.wake = self.wake.min(b.until);
            }
            Verdict::NoCollector => lowest(&mut self.no_collector),
        }
        false
    }

    /// Charges exactly one [`StallReason`] for the cycle. Per-warp
    /// causes aggregate with back-of-pipe causes first — a warp held up
    /// by collector/bank pressure points at a structural bottleneck even
    /// if its siblings also wait on memory: collector-full (refined to
    /// bank-conflict when this cycle's arbitration lost reads) > memory
    /// pending > scoreboard > barrier > drained.
    #[must_use]
    pub fn stall(&self, rf_conflict: bool) -> Stall {
        let (reason, culprit) = if let Some(w) = self.no_collector {
            let reason = if rf_conflict {
                StallReason::RfBankConflict
            } else {
                StallReason::NoCollector
            };
            (reason, Some(w))
        } else if let Some(w) = self.mem {
            (StallReason::MemPending, Some(w))
        } else if let Some(w) = self.data {
            (StallReason::Scoreboard, Some(w))
        } else if let Some(w) = self.barrier {
            (StallReason::Barrier, Some(w))
        } else {
            return Stall::DRAINED;
        };
        Stall {
            reason,
            culprit,
            wake: self.wake,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gto_sticks_with_greedy_warp() {
        let mut s = Scheduler::new(SchedPolicy::Gto, vec![0, 1, 2]);
        assert_eq!(s.pick(|_| true), Some(0));
        assert_eq!(s.pick(|_| true), Some(0));
        // Warp 0 stalls → oldest ready is 1.
        assert_eq!(s.pick(|w| w != 0), Some(1));
        // Greedy moves to 1.
        assert_eq!(s.pick(|_| true), Some(1));
    }

    #[test]
    fn gto_falls_back_to_oldest() {
        let mut s = Scheduler::new(SchedPolicy::Gto, vec![3, 5, 7]);
        assert_eq!(s.pick(|w| w == 7), Some(7));
        // 7 stalls, 3 and 5 ready → oldest (3).
        assert_eq!(s.pick(|w| w != 7), Some(3));
    }

    #[test]
    fn lrr_rotates() {
        let mut s = Scheduler::new(SchedPolicy::Lrr, vec![0, 1, 2]);
        assert_eq!(s.pick(|_| true), Some(0));
        assert_eq!(s.pick(|_| true), Some(1));
        assert_eq!(s.pick(|_| true), Some(2));
        assert_eq!(s.pick(|_| true), Some(0));
    }

    #[test]
    fn gto_retire_clears_greedy_priority() {
        let mut s = Scheduler::new(SchedPolicy::Gto, vec![0, 1, 2]);
        // Warp 2 becomes greedy, then exits. A later pick with every
        // slot ready must fall back to the oldest warp, not keep the
        // retired warp's slot at the head of the line.
        assert_eq!(s.pick(|w| w == 2), Some(2));
        s.retire(2);
        assert_eq!(s.pick(|_| true), Some(0));
    }

    #[test]
    fn gto_retire_of_non_greedy_is_a_no_op() {
        let mut s = Scheduler::new(SchedPolicy::Gto, vec![0, 1, 2]);
        assert_eq!(s.pick(|w| w == 2), Some(2));
        s.retire(1);
        assert_eq!(s.pick(|_| true), Some(2));
    }

    fn blocked(mem: bool, until: u64) -> Verdict {
        Verdict::Blocked(Blocked { mem, until })
    }

    #[test]
    fn scan_names_the_lowest_warp_whatever_the_probe_order() {
        // GTO probes its greedy warp (2) first, LRR starts mid-rotation;
        // both must blame warp 1, the first memory-blocked warp in
        // owner order, and wake at the earliest known release.
        let verdict = |w: usize| match w {
            0 => blocked(false, 30),
            1 | 2 => blocked(true, 20 + w as u64),
            _ => Verdict::Barrier,
        };
        let mut gto = Scheduler::new(SchedPolicy::Gto, vec![0, 1, 2, 3]);
        assert_eq!(gto.pick(|w| w == 2), Some(2));
        let mut lrr = Scheduler::new(SchedPolicy::Lrr, vec![0, 1, 2, 3]);
        assert_eq!(lrr.pick(|w| w == 2), Some(2));
        for s in [&mut gto, &mut lrr] {
            let mut scan = StallScan::new();
            assert_eq!(s.pick(|w| scan.note(w, verdict(w))), None);
            let stall = scan.stall(true);
            assert_eq!(stall.reason, StallReason::MemPending);
            assert_eq!(stall.culprit, Some(1));
            assert_eq!(stall.wake, 21);
        }
    }

    #[test]
    fn scan_ranks_collectors_over_memory_and_refines_conflicts() {
        let mut scan = StallScan::new();
        assert!(!scan.note(3, blocked(true, PENDING)));
        assert!(!scan.note(5, Verdict::NoCollector));
        assert!(!scan.note(0, Verdict::Empty));
        assert_eq!(scan.stall(false).reason, StallReason::NoCollector);
        let conflict = scan.stall(true);
        assert_eq!(conflict.reason, StallReason::RfBankConflict);
        assert_eq!(conflict.culprit, Some(5));
        // Only pending blockers: no wake is known yet.
        assert_eq!(conflict.wake, PENDING);
        assert!(scan.note(7, Verdict::Ready));
        assert_eq!(StallScan::new().stall(false), Stall::DRAINED);
    }

    #[test]
    fn none_when_nothing_ready() {
        let mut s = Scheduler::new(SchedPolicy::Gto, vec![0, 1]);
        assert_eq!(s.pick(|_| false), None);
        let mut empty = Scheduler::new(SchedPolicy::Gto, vec![]);
        assert_eq!(empty.pick(|_| true), None);
    }
}
