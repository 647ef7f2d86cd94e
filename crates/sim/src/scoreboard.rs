//! Per-warp scoreboard tracking in-flight register writes.

use gscalar_isa::{FuncUnit, Instr, Pred, Reg};

/// Release cycle standing for "not known yet": the write is still in
/// flight.
pub const PENDING: u64 = u64::MAX;

/// Scoreboard slots: the 7 writable predicates (`PT` is never
/// tracked), then the GPRs (`RZ` is never tracked).
const PRED_SLOTS: usize = 7;
/// Words in a slot bitmask: room for every predicate and GPR.
const WORDS: usize = (PRED_SLOTS + 255).div_ceil(64);

fn reg_slot(r: Reg) -> u16 {
    PRED_SLOTS as u16 + u16::from(r.index())
}

fn pred_slot(p: Pred) -> u16 {
    u16::from(p.index())
}

/// The scoreboard slots an instruction reads or writes, precomputed
/// once per PC so the per-cycle readiness check neither allocates nor
/// re-decodes operands.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Hazards {
    /// At most three source GPRs, a destination GPR, the guard
    /// predicate and a destination predicate.
    slots: [u16; 6],
    len: u8,
}

impl Hazards {
    /// The RAW and WAW hazards of `instr`: its source and destination
    /// registers and predicates.
    #[must_use]
    pub fn of(instr: &Instr) -> Self {
        let mut h = Hazards::default();
        let mut push = |slot: u16| {
            h.slots[usize::from(h.len)] = slot;
            h.len += 1;
        };
        for r in instr.src_regs() {
            push(reg_slot(r));
        }
        if let Some(r) = instr.dst_reg() {
            push(reg_slot(r));
        }
        for p in instr.src_preds() {
            push(pred_slot(p));
        }
        if let Some(p) = instr.dst_pred() {
            push(pred_slot(p));
        }
        h
    }

    fn slots(&self) -> &[u16] {
        &self.slots[..usize::from(self.len)]
    }
}

/// Why an instruction cannot issue yet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Blocked {
    /// A memory instruction owns at least one blocking write (the stall
    /// taxonomy's memory-pending vs. scoreboard split).
    pub mem: bool,
    /// Earliest known release cycle among the blockers, or [`PENDING`]
    /// when every blocker still awaits its writeback. Until then the
    /// verdict cannot change except through a writeback.
    pub until: u64,
}

/// A scoreboard for one warp: registers and predicates with writes in
/// flight may not be read (RAW) or re-written (WAW) until released.
///
/// Writes are reserved at issue with an unknown completion time and
/// given a concrete release cycle at writeback (which includes the
/// G-Scalar +3-cycle compression latency when enabled). State is
/// fixed-size — a busy bitmask plus per-slot release cycles and an
/// is-mem bitmask — and released writes simply age out: nothing has
/// to sweep expired entries.
#[derive(Debug, Clone)]
pub struct Scoreboard {
    /// Bit per slot: a reserved write still awaits its release cycle.
    busy: [u64; WORDS],
    /// Bit per slot: the slot's latest write comes from a load. Exact
    /// while a slot holds one live write, which issue's WAW check
    /// guarantees.
    mem: [u64; WORDS],
    /// Per slot: the latest release cycle handed to one of its writes.
    release: Vec<u64>,
    /// Slots with a further write awaiting its release cycle beyond the
    /// one `busy` records, one entry per write. Empty unless a caller
    /// reserves past a WAW hazard, which issue never does.
    queued: Vec<u16>,
}

fn bit(mask: &[u64; WORDS], slot: usize) -> bool {
    mask[slot / 64] >> (slot % 64) & 1 != 0
}

fn set_bit(mask: &mut [u64; WORDS], slot: usize, on: bool) {
    let b = 1u64 << (slot % 64);
    if on {
        mask[slot / 64] |= b;
    } else {
        mask[slot / 64] &= !b;
    }
}

impl Scoreboard {
    /// Creates an empty scoreboard for a kernel whose registers are all
    /// below `num_regs`.
    #[must_use]
    pub fn new(num_regs: usize) -> Self {
        Scoreboard {
            busy: [0; WORDS],
            mem: [0; WORDS],
            release: vec![0; PRED_SLOTS + num_regs.min(255)],
            queued: Vec::new(),
        }
    }

    /// Empties the scoreboard in place (a new warp takes the slot).
    pub fn clear(&mut self) {
        self.busy = [0; WORDS];
        self.mem = [0; WORDS];
        self.release.fill(0);
        self.queued.clear();
    }

    /// Whether `instr` may issue at `now` (no RAW/WAW hazards).
    #[must_use]
    pub fn can_issue(&self, instr: &Instr, now: u64) -> bool {
        self.blocking_until(&Hazards::of(instr), now).is_none()
    }

    /// If `instr` cannot issue at `now`, reports whether *any* blocking
    /// write is owned by a memory instruction (`Some(true)`) or all
    /// blockers are ALU/SFU data dependencies (`Some(false)`); `None`
    /// when `instr` is free to issue.
    #[must_use]
    pub fn blocking_is_mem(&self, instr: &Instr, now: u64) -> Option<bool> {
        self.blocking_until(&Hazards::of(instr), now).map(|b| b.mem)
    }

    /// The per-cycle readiness check: `None` when nothing in `hz` has a
    /// write in flight at `now`, else what blocks it and until when.
    #[must_use]
    pub fn blocking_until(&self, hz: &Hazards, now: u64) -> Option<Blocked> {
        let mut blocked: Option<Blocked> = None;
        for &slot in hz.slots() {
            let slot = usize::from(slot);
            let release = self.release[slot];
            if bit(&self.busy, slot) || release > now {
                let b = blocked.get_or_insert(Blocked {
                    mem: false,
                    until: PENDING,
                });
                b.mem |= bit(&self.mem, slot);
                if release > now {
                    b.until = b.until.min(release);
                }
            }
        }
        blocked
    }

    fn reserve_slot(&mut self, slot: u16, mem: bool) {
        let s = usize::from(slot);
        if bit(&self.busy, s) {
            self.queued.push(slot);
        }
        set_bit(&mut self.busy, s, true);
        set_bit(&mut self.mem, s, mem);
    }

    /// Gives one write awaiting a release on `slot` its release cycle;
    /// a no-op when none awaits one.
    fn release_slot(&mut self, slot: u16, at: u64) {
        let s = usize::from(slot);
        if !bit(&self.busy, s) {
            return;
        }
        match self.queued.iter().position(|&q| q == slot) {
            Some(i) => {
                self.queued.swap_remove(i);
            }
            None => set_bit(&mut self.busy, s, false),
        }
        self.release[s] = self.release[s].max(at);
    }

    /// Reserves `instr`'s destinations at issue.
    pub fn reserve(&mut self, instr: &Instr) {
        if let Some(r) = instr.dst_reg() {
            self.reserve_slot(reg_slot(r), instr.func_unit() == FuncUnit::Mem);
        }
        if let Some(p) = instr.dst_pred() {
            self.reserve_slot(pred_slot(p), false);
        }
    }

    /// Schedules the release of `instr`'s destinations at cycle `at`
    /// (writeback time plus any extra pipeline latency).
    pub fn release_at(&mut self, instr: &Instr, at: u64) {
        if let Some(r) = instr.dst_reg() {
            self.release_slot(reg_slot(r), at);
        }
        if let Some(p) = instr.dst_pred() {
            self.release_slot(pred_slot(p), at);
        }
    }

    /// Number of registers and predicates still blocking at `now`.
    #[must_use]
    pub fn outstanding(&self, now: u64) -> usize {
        (0..self.release.len())
            .filter(|&s| bit(&self.busy, s) || self.release[s] > now)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gscalar_isa::{AluOp, Guard, InstrKind, Operand};

    fn add(dst: u8, a: u8, b: u8) -> Instr {
        Instr::always(InstrKind::Alu {
            op: AluOp::IAdd,
            dst: Reg::new(dst),
            a: Reg::new(a).into(),
            b: Reg::new(b).into(),
            c: Reg::RZ.into(),
        })
    }

    #[test]
    fn raw_hazard_blocks_then_releases() {
        let mut sb = Scoreboard::new(16);
        let producer = add(1, 2, 3);
        let consumer = add(4, 1, 5);
        assert!(sb.can_issue(&producer, 0));
        sb.reserve(&producer);
        assert!(!sb.can_issue(&consumer, 0));
        sb.release_at(&producer, 10);
        assert!(!sb.can_issue(&consumer, 9));
        assert!(sb.can_issue(&consumer, 10));
        assert_eq!(sb.outstanding(10), 0);
    }

    #[test]
    fn waw_hazard_blocks() {
        let mut sb = Scoreboard::new(16);
        let w1 = add(1, 2, 3);
        let w2 = add(1, 4, 5);
        sb.reserve(&w1);
        assert!(!sb.can_issue(&w2, 0));
    }

    #[test]
    fn independent_instruction_passes() {
        let mut sb = Scoreboard::new(16);
        sb.reserve(&add(1, 2, 3));
        assert!(sb.can_issue(&add(4, 5, 6), 0));
    }

    #[test]
    fn predicate_hazards() {
        let mut sb = Scoreboard::new(16);
        let setp = Instr::always(InstrKind::SetP {
            cmp: gscalar_isa::CmpOp::Lt,
            float: false,
            dst: Pred::new(0),
            a: Operand::Imm(1),
            b: Operand::Imm(2),
        });
        let guarded = Instr::new(Guard::pos(Pred::new(0)), InstrKind::Nop);
        sb.reserve(&setp);
        assert!(!sb.can_issue(&guarded, 0));
        sb.release_at(&setp, 5);
        assert!(sb.can_issue(&guarded, 5));
    }

    #[test]
    fn blocking_kind_distinguishes_memory_producers() {
        let mut sb = Scoreboard::new(16);
        let load = Instr::always(InstrKind::Ld {
            space: gscalar_isa::Space::Global,
            dst: Reg::new(1),
            addr: Reg::new(2),
            offset: 0,
        });
        sb.reserve(&load);
        let consumer = add(4, 1, 5);
        assert_eq!(sb.blocking_is_mem(&consumer, 0), Some(true));
        assert!(!sb.can_issue(&consumer, 0));
        // An ALU producer over a different register reports non-mem.
        let alu = add(6, 2, 3);
        sb.reserve(&alu);
        let alu_consumer = add(7, 6, 5);
        assert_eq!(sb.blocking_is_mem(&alu_consumer, 0), Some(false));
        // Blocked by both: memory wins the classification.
        let both = add(8, 1, 6);
        assert_eq!(sb.blocking_is_mem(&both, 0), Some(true));
        // Unblocked instruction reports None.
        assert_eq!(sb.blocking_is_mem(&add(9, 10, 11), 0), None);
    }

    #[test]
    fn blocking_until_reports_the_earliest_known_release() {
        let mut sb = Scoreboard::new(8);
        let load = Instr::always(InstrKind::Ld {
            space: gscalar_isa::Space::Global,
            dst: Reg::new(1),
            addr: Reg::new(2),
            offset: 0,
        });
        sb.reserve(&load);
        sb.reserve(&add(3, 4, 5));
        let both = Hazards::of(&add(6, 1, 3));
        // Both writes still await writeback: no release known yet.
        let b = sb.blocking_until(&both, 0).expect("blocked");
        assert!(b.mem);
        assert_eq!(b.until, PENDING);
        sb.release_at(&add(3, 4, 5), 9);
        assert_eq!(sb.blocking_until(&both, 0).map(|b| b.until), Some(9));
        sb.release_at(&load, 4);
        assert_eq!(sb.blocking_until(&both, 0).map(|b| b.until), Some(4));
        // The load's write has aged out at 4; only the ALU one blocks.
        assert_eq!(
            sb.blocking_until(&both, 4),
            Some(Blocked {
                mem: false,
                until: 9
            })
        );
        assert_eq!(sb.blocking_until(&both, 9), None);
        sb.clear();
        assert_eq!(sb.outstanding(0), 0);
    }

    #[test]
    fn duplicate_writers_release_independently() {
        let mut sb = Scoreboard::new(16);
        let w = add(1, 2, 3);
        sb.reserve(&w);
        sb.reserve(&w); // second in-flight write to R1 (blocked in
                        // practice by WAW, but the structure must cope)
        sb.release_at(&w, 5);
        assert!(
            !sb.can_issue(&add(4, 1, 5), 6),
            "second write still pending"
        );
        sb.release_at(&w, 7);
        assert!(sb.can_issue(&add(4, 1, 5), 7));
    }
}
