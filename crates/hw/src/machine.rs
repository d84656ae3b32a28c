//! Machine description: timing table and penalties.

use crate::cache::CacheGeom;
use ipet_arch::InstrClass;

/// Timing description of the target processor.
///
/// The default values are i960KB-flavoured: single-cycle ALU, multi-cycle
/// multiply/divide, uncached multi-cycle data memory, an 8-cycle line fill
/// for the 512-byte direct-mapped i-cache, and a 2-cycle refill bubble on
/// taken branches in the 4-stage pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Machine {
    /// Instruction-cache geometry.
    pub icache: CacheGeom,
    /// Cycles to fill one i-cache line from memory.
    pub miss_penalty: u64,
    /// Extra cycles when a conditional branch is taken (pipeline refill).
    pub branch_taken_penalty: u64,
    /// Stall cycles when an instruction consumes the destination of the
    /// immediately preceding load.
    pub load_use_stall: u64,
    /// Base cycles for simple integer ops and moves.
    pub int_simple_cycles: u64,
    /// Base cycles for integer multiply.
    pub int_mul_cycles: u64,
    /// Base cycles for integer divide/remainder.
    pub int_div_cycles: u64,
    /// Base cycles for a data load (no data cache on the i960KB).
    pub load_cycles: u64,
    /// Base cycles for a data store.
    pub store_cycles: u64,
    /// Base cycles for a conditional branch (fall-through case).
    pub branch_cycles: u64,
    /// Base cycles for an unconditional jump (redirect included).
    pub jump_cycles: u64,
    /// Base cycles for `call` (register save, as in the i960's frame cache).
    pub call_cycles: u64,
    /// Base cycles for `ret`.
    pub ret_cycles: u64,
    /// Base cycles for `nop`.
    pub nop_cycles: u64,
    /// Optional data cache (the i960KB has none; the paper lists better
    /// cache modelling as future work). When present, `load_cycles` is the
    /// hit cost and misses add [`Machine::dmiss_penalty`].
    pub dcache: Option<CacheGeom>,
    /// Cycles to fill one data-cache line on a load miss.
    pub dmiss_penalty: u64,
}

impl Machine {
    /// The i960KB-flavoured reference machine used by all experiments.
    pub fn i960kb() -> Machine {
        Machine {
            icache: CacheGeom::new(512, 16),
            miss_penalty: 8,
            branch_taken_penalty: 2,
            load_use_stall: 1,
            int_simple_cycles: 1,
            int_mul_cycles: 5,
            int_div_cycles: 20,
            load_cycles: 4,
            store_cycles: 3,
            branch_cycles: 2,
            jump_cycles: 3,
            call_cycles: 9,
            ret_cycles: 9,
            nop_cycles: 1,
            dcache: None,
            dmiss_penalty: 10,
        }
    }

    /// A hypothetical i960KB fitted with a small write-through data cache
    /// — the "improving the hardware model" future work of §VII, used by
    /// the `dcache` ablation experiment. Loads hit in 2 cycles; misses
    /// fill a 16-byte line from 10-cycle memory.
    pub fn i960kb_with_dcache() -> Machine {
        Machine {
            dcache: Some(CacheGeom::new(256, 16)),
            dmiss_penalty: 10,
            load_cycles: 2,
            ..Machine::i960kb()
        }
    }

    /// The AT&T DSP3210 port mentioned in the paper's §VII ("in
    /// collaboration with AT&T, we have completed a port for the AT&T
    /// DSP3210 processor ... intended for use in the VCOS operating
    /// system"). DSP-flavoured timings: single-cycle multiply-accumulate
    /// pipelines make `mul` cheap, while the part runs from a small
    /// 1-KiB on-chip instruction RAM modelled as a cache with a slow
    /// external fill.
    pub fn dsp3210() -> Machine {
        Machine {
            icache: CacheGeom::new(1024, 32),
            miss_penalty: 12,
            branch_taken_penalty: 3,
            load_use_stall: 1,
            int_simple_cycles: 1,
            int_mul_cycles: 1,
            int_div_cycles: 24,
            load_cycles: 2,
            store_cycles: 2,
            branch_cycles: 2,
            jump_cycles: 2,
            call_cycles: 5,
            ret_cycles: 5,
            nop_cycles: 1,
            dcache: None,
            dmiss_penalty: 14,
        }
    }

    /// Looks up a machine by name (`i960kb`, `dsp3210`).
    pub fn by_name(name: &str) -> Option<Machine> {
        match name {
            "i960kb" => Some(Machine::i960kb()),
            "i960kb+dcache" => Some(Machine::i960kb_with_dcache()),
            "dsp3210" => Some(Machine::dsp3210()),
            _ => None,
        }
    }

    /// This machine's point in parameter space: the concrete values of the
    /// symbolic penalties [`crate::P_MISS`] and [`crate::P_DMISS`].
    /// Evaluating a symbolic bound at this point gives its cycles on this
    /// machine.
    pub fn param_point(&self) -> crate::ParamPoint {
        let mut point = crate::ParamPoint::new();
        point.insert(crate::P_MISS.to_string(), self.miss_penalty as i128);
        point.insert(crate::P_DMISS.to_string(), self.dmiss_penalty as i128);
        point
    }

    /// Base execution cycles for an instruction class (no cache, no
    /// hazards, branch not taken).
    pub fn class_cycles(&self, class: InstrClass) -> u64 {
        match class {
            InstrClass::IntSimple => self.int_simple_cycles,
            InstrClass::IntMul => self.int_mul_cycles,
            InstrClass::IntDiv => self.int_div_cycles,
            InstrClass::Load => self.load_cycles,
            InstrClass::Store => self.store_cycles,
            InstrClass::Branch => self.branch_cycles,
            InstrClass::Jump => self.jump_cycles,
            InstrClass::Call => self.call_cycles,
            InstrClass::Ret => self.ret_cycles,
            InstrClass::Nop => self.nop_cycles,
        }
    }
}

impl Default for Machine {
    fn default() -> Machine {
        Machine::i960kb()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_i960kb() {
        assert_eq!(Machine::default(), Machine::i960kb());
    }

    #[test]
    fn icache_is_512_bytes_direct_mapped() {
        let m = Machine::i960kb();
        assert_eq!(m.icache.size_bytes, 512);
        assert_eq!(m.icache.num_lines(), 32);
    }

    #[test]
    fn dsp3210_differs_meaningfully() {
        let dsp = Machine::dsp3210();
        let i960 = Machine::i960kb();
        assert!(dsp.class_cycles(InstrClass::IntMul) < i960.class_cycles(InstrClass::IntMul));
        assert_eq!(dsp.icache.size_bytes, 1024);
        assert_ne!(dsp, i960);
    }

    #[test]
    fn machines_resolve_by_name() {
        assert_eq!(Machine::by_name("i960kb"), Some(Machine::i960kb()));
        assert_eq!(Machine::by_name("dsp3210"), Some(Machine::dsp3210()));
        assert_eq!(Machine::by_name("pentium"), None);
    }

    #[test]
    fn class_cycle_ordering_is_sensible() {
        let m = Machine::i960kb();
        assert!(m.class_cycles(InstrClass::IntDiv) > m.class_cycles(InstrClass::IntMul));
        assert!(m.class_cycles(InstrClass::IntMul) > m.class_cycles(InstrClass::IntSimple));
        assert!(m.class_cycles(InstrClass::Load) > m.class_cycles(InstrClass::Store));
        assert_eq!(m.class_cycles(InstrClass::Nop), 1);
    }
}
