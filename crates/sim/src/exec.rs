//! The instruction-level executor with cycle accounting.

use ipet_arch::{FuncId, Instr, Operand, Program, Reg, INSTR_BYTES};
use ipet_cfg::{BlockId, Cfg};
use ipet_hw::{instr_cycles, Machine};
use std::collections::BTreeMap;
use std::fmt;

/// Simulator configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimConfig {
    /// Instruction budget; exceeding it aborts the run (runaway guard).
    pub max_steps: u64,
    /// Stack region size in words, placed above all globals.
    pub stack_words: u32,
    /// Flush the i-cache before the run (the paper's worst-case protocol).
    pub flush_cache: bool,
}

impl Default for SimConfig {
    fn default() -> SimConfig {
        SimConfig { max_steps: 200_000_000, stack_words: 4096, flush_cache: true }
    }
}

/// Errors during simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The instruction budget was exhausted (likely an unbounded loop).
    OutOfFuel { steps: u64 },
    /// A data access fell outside data memory.
    MemOutOfBounds { func: String, pc: usize, addr: i64 },
    /// The hardware call stack overflowed.
    CallDepthExceeded { depth: usize },
    /// A named global was not found when seeding input data.
    NoSuchGlobal(String),
    /// Seed data longer than the global it targets.
    SeedTooLong { global: String, len: usize, words: u32 },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::OutOfFuel { steps } => write!(f, "out of fuel after {steps} steps"),
            SimError::MemOutOfBounds { func, pc, addr } => {
                write!(f, "memory access out of bounds at {func}:{pc} (word address {addr})")
            }
            SimError::CallDepthExceeded { depth } => {
                write!(f, "call depth exceeded {depth}")
            }
            SimError::NoSuchGlobal(n) => write!(f, "no global named {n}"),
            SimError::SeedTooLong { global, len, words } => {
                write!(f, "seed of {len} words does not fit global {global} ({words} words)")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// One basic-block entry observed during a traced run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Function being executed.
    pub func: FuncId,
    /// Block entered.
    pub block: BlockId,
    /// Cycle count at block entry.
    pub cycle: u64,
}

/// Outcome of a completed run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimResult {
    /// Total simulated cycles (pipeline + i-cache model).
    pub cycles: u64,
    /// Instructions executed.
    pub steps: u64,
    /// Value of the return-value register at termination.
    pub return_value: i32,
    /// Per-(function, block) execution counters, the paper's Experiment-1
    /// instrumentation.
    pub block_counts: BTreeMap<(FuncId, BlockId), u64>,
    /// I-cache misses observed.
    pub icache_misses: u64,
}

/// A reusable simulator instance.
///
/// Construction precomputes each function's CFG (for block counting) and
/// loads globals into data memory. Between runs, [`Simulator::reset_data`]
/// restores globals and [`Simulator::seed_global`] injects input data sets.
#[derive(Debug, Clone)]
pub struct Simulator<'p> {
    program: &'p Program,
    machine: Machine,
    config: SimConfig,
    cfgs: Vec<Cfg>,
    /// leader_block[f][i] = Some(block) if instruction i leads a block of f.
    leader_block: Vec<BTreeMap<usize, BlockId>>,
    mem: Vec<i32>,
    /// Direct-mapped i-cache: tag (memory line index) per set.
    icache: Vec<Option<u32>>,
    /// Direct-mapped data cache, when the machine has one.
    dcache: Vec<Option<u32>>,
    max_call_depth: usize,
}

impl<'p> Simulator<'p> {
    /// Creates a simulator for `program`.
    pub fn new(program: &'p Program, machine: Machine, config: SimConfig) -> Simulator<'p> {
        let cfgs: Vec<Cfg> =
            program.functions.iter().enumerate().map(|(i, f)| Cfg::build(FuncId(i), f)).collect();
        let leader_block = cfgs
            .iter()
            .map(|cfg| {
                cfg.blocks().iter().enumerate().map(|(b, blk)| (blk.start, BlockId(b))).collect()
            })
            .collect();
        let mem_words = (program.data_words() + config.stack_words) as usize;
        let dcache_sets = machine.dcache.map(|g| g.num_lines() as usize).unwrap_or(0);
        let mut sim = Simulator {
            program,
            machine,
            config,
            cfgs,
            leader_block,
            mem: vec![0; mem_words],
            icache: vec![None; machine.icache.num_lines() as usize],
            dcache: vec![None; dcache_sets],
            max_call_depth: 1024,
        };
        sim.reset_data();
        sim
    }

    /// Restores all globals to their initial values and zeroes the rest of
    /// data memory (stack included).
    pub fn reset_data(&mut self) {
        self.mem.fill(0);
        for g in &self.program.globals {
            for (i, &v) in g.init.iter().enumerate() {
                self.mem[g.addr as usize + i] = v;
            }
        }
    }

    /// Overwrites the contents of global `name` with `values`.
    ///
    /// # Errors
    ///
    /// Fails if the global does not exist or `values` is too long.
    pub fn seed_global(&mut self, name: &str, values: &[i32]) -> Result<(), SimError> {
        let g = self
            .program
            .global_by_name(name)
            .ok_or_else(|| SimError::NoSuchGlobal(name.to_string()))?;
        if values.len() as u32 > g.words {
            return Err(SimError::SeedTooLong {
                global: name.to_string(),
                len: values.len(),
                words: g.words,
            });
        }
        let base = g.addr as usize;
        self.mem[base..base + values.len()].copy_from_slice(values);
        Ok(())
    }

    /// Reads back `words` words of global `name` (for functional checks).
    ///
    /// # Errors
    ///
    /// Fails if the global does not exist.
    pub fn read_global(&self, name: &str, words: usize) -> Result<Vec<i32>, SimError> {
        let g = self
            .program
            .global_by_name(name)
            .ok_or_else(|| SimError::NoSuchGlobal(name.to_string()))?;
        let base = g.addr as usize;
        let n = words.min(g.words as usize);
        Ok(self.mem[base..base + n].to_vec())
    }

    /// Invalidates the entire i-cache (and the data cache, if any).
    pub fn flush_icache(&mut self) {
        self.icache.fill(None);
        self.dcache.fill(None);
    }

    /// Data-cache lookup on a word address; returns the load penalty and
    /// fills the line on a miss. Zero when the machine has no data cache.
    fn daccess(&mut self, word_addr: u32) -> u64 {
        let Some(geom) = self.machine.dcache else {
            return 0;
        };
        let line = geom.line_of(word_addr * 4);
        let set = geom.set_of_line(line) as usize;
        if self.dcache[set] == Some(line) {
            0
        } else {
            self.dcache[set] = Some(line);
            self.machine.dmiss_penalty
        }
    }

    fn fetch(&mut self, addr: u32, misses: &mut u64) -> u64 {
        let geom = self.machine.icache;
        let line = geom.line_of(addr);
        let set = geom.set_of_line(line) as usize;
        if self.icache[set] == Some(line) {
            0
        } else {
            self.icache[set] = Some(line);
            *misses += 1;
            self.machine.miss_penalty
        }
    }

    /// Runs the program's entry function with the given register arguments.
    ///
    /// The i-cache is flushed first when [`SimConfig::flush_cache`] is set;
    /// call the method twice on one simulator with `flush_cache = false`
    /// to measure a warm-cache (best-case protocol) run.
    ///
    /// # Errors
    ///
    /// See [`SimError`].
    pub fn run(&mut self, args: &[i32]) -> Result<SimResult, SimError> {
        self.run_inner(args, &mut |_| {})
    }

    /// Like [`Simulator::run`], but additionally streams a [`TraceEvent`]
    /// at every basic-block entry (capped at `max_events`; later events
    /// are dropped silently, with the count still reported in the result).
    ///
    /// # Errors
    ///
    /// See [`SimError`].
    pub fn run_traced(
        &mut self,
        args: &[i32],
        max_events: usize,
    ) -> Result<(SimResult, Vec<TraceEvent>), SimError> {
        let mut trace = Vec::new();
        let result = self.run_inner(args, &mut |ev| {
            if trace.len() < max_events {
                trace.push(ev);
            }
        })?;
        Ok((result, trace))
    }

    fn run_inner(
        &mut self,
        args: &[i32],
        on_block: &mut dyn FnMut(TraceEvent),
    ) -> Result<SimResult, SimError> {
        if self.config.flush_cache {
            self.flush_icache();
        }

        let mut regs = [0i32; Reg::COUNT];
        for (i, &a) in args.iter().enumerate().take(4) {
            regs[Reg::arg(i as u8).index()] = a;
        }
        let stack_top = self.mem.len() as i32;

        let mut func = self.program.entry;
        let mut pc = 0usize;
        let mut prev: Option<Instr> = None;

        // Hardware call/frame stack: (return func, return pc, saved sp, saved fp).
        let mut calls: Vec<(FuncId, usize, i32, i32)> = Vec::new();

        // Enter the entry frame.
        let entry_frame = self.program.functions[func.0].frame_words as i32;
        regs[Reg::SP.index()] = stack_top - entry_frame;
        regs[Reg::FP.index()] = regs[Reg::SP.index()];

        let mut cycles = 0u64;
        let mut steps = 0u64;
        let mut misses = 0u64;
        let mut counts: BTreeMap<(FuncId, BlockId), u64> = BTreeMap::new();

        loop {
            if steps >= self.config.max_steps {
                return Err(SimError::OutOfFuel { steps });
            }
            // Block accounting + pipeline window reset at block leaders.
            if let Some(&b) = self.leader_block[func.0].get(&pc) {
                *counts.entry((func, b)).or_insert(0) += 1;
                on_block(TraceEvent { func, block: b, cycle: cycles });
                prev = None;
            }

            let f = &self.program.functions[func.0];
            let ins = f.instrs[pc];
            cycles += self.fetch(f.instr_addr(pc), &mut misses);
            cycles += instr_cycles(&self.machine, prev, ins);
            steps += 1;

            let rd = |regs: &[i32; Reg::COUNT], r: Reg| -> i32 {
                if r == Reg::ZERO {
                    0
                } else {
                    regs[r.index()]
                }
            };
            let operand = |regs: &[i32; Reg::COUNT], o: Operand| -> i32 {
                match o {
                    Operand::Reg(r) => rd(regs, r),
                    Operand::Imm(i) => i,
                }
            };

            let mut next_pc = pc + 1;
            let mut transferred = false;
            match ins {
                Instr::Mov { dst, src } => {
                    let v = rd(&regs, src);
                    if dst != Reg::ZERO {
                        regs[dst.index()] = v;
                    }
                }
                Instr::Ldc { dst, imm } => {
                    if dst != Reg::ZERO {
                        regs[dst.index()] = imm;
                    }
                }
                Instr::Alu { op, dst, a, b } => {
                    let v = op.apply(rd(&regs, a), operand(&regs, b));
                    if dst != Reg::ZERO {
                        regs[dst.index()] = v;
                    }
                }
                Instr::Ld { dst, base, offset } => {
                    let addr = rd(&regs, base) as i64 + offset as i64;
                    if addr < 0 || addr as usize >= self.mem.len() {
                        return Err(SimError::MemOutOfBounds { func: f.name.clone(), pc, addr });
                    }
                    cycles += self.daccess(addr as u32);
                    if dst != Reg::ZERO {
                        regs[dst.index()] = self.mem[addr as usize];
                    }
                }
                Instr::St { src, base, offset } => {
                    let addr = rd(&regs, base) as i64 + offset as i64;
                    if addr < 0 || addr as usize >= self.mem.len() {
                        return Err(SimError::MemOutOfBounds { func: f.name.clone(), pc, addr });
                    }
                    self.mem[addr as usize] = rd(&regs, src);
                }
                Instr::Br { cond, a, b, target } => {
                    if cond.holds(rd(&regs, a), operand(&regs, b)) {
                        cycles += self.machine.branch_taken_penalty;
                        next_pc = target;
                        transferred = true;
                    }
                }
                Instr::Jmp { target } => {
                    next_pc = target;
                    transferred = true;
                }
                Instr::Call { func: callee } => {
                    if calls.len() >= self.max_call_depth {
                        return Err(SimError::CallDepthExceeded { depth: self.max_call_depth });
                    }
                    calls.push((func, pc + 1, regs[Reg::SP.index()], regs[Reg::FP.index()]));
                    let frame = self.program.functions[callee.0].frame_words as i32;
                    regs[Reg::SP.index()] -= frame;
                    regs[Reg::FP.index()] = regs[Reg::SP.index()];
                    func = callee;
                    next_pc = 0;
                    transferred = true;
                }
                Instr::Ret => match calls.pop() {
                    Some((rf, rpc, sp, fp)) => {
                        regs[Reg::SP.index()] = sp;
                        regs[Reg::FP.index()] = fp;
                        func = rf;
                        next_pc = rpc;
                        transferred = true;
                    }
                    None => {
                        return Ok(SimResult {
                            cycles,
                            steps,
                            return_value: regs[Reg::RV.index()],
                            block_counts: counts,
                            icache_misses: misses,
                        });
                    }
                },
                Instr::Nop => {}
            }

            prev = if transferred { None } else { Some(ins) };
            pc = next_pc;
        }
    }

    /// The per-function CFGs the simulator counts blocks against.
    pub fn cfgs(&self) -> &[Cfg] {
        &self.cfgs
    }

    /// Byte address of an instruction (for tests validating cache maths).
    pub fn instr_addr(&self, func: FuncId, pc: usize) -> u32 {
        self.program.functions[func.0].base_addr + pc as u32 * INSTR_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipet_arch::{AluOp, AsmBuilder, Cond, Global};

    fn prog(funcs: Vec<ipet_arch::Function>, globals: Vec<Global>, entry: usize) -> Program {
        Program::new(funcs, globals, FuncId(entry)).unwrap()
    }

    fn counting_loop(n: i32) -> Program {
        // rv = 0; for (t = 0; t < n; t++) rv += t;
        let mut b = AsmBuilder::new("main");
        let head = b.fresh_label();
        let out = b.fresh_label();
        b.ldc(Reg::RV, 0);
        b.ldc(Reg::T0, 0);
        b.bind(head);
        b.br(Cond::Ge, Reg::T0, n, out);
        b.alu(AluOp::Add, Reg::RV, Reg::RV, Reg::T0);
        b.alu(AluOp::Add, Reg::T0, Reg::T0, 1);
        b.jmp(head);
        b.bind(out);
        b.ret();
        prog(vec![b.finish().unwrap()], vec![], 0)
    }

    #[test]
    fn arithmetic_loop_computes_sum() {
        let p = counting_loop(10);
        let mut sim = Simulator::new(&p, Machine::i960kb(), SimConfig::default());
        let r = sim.run(&[]).unwrap();
        assert_eq!(r.return_value, 45);
        assert!(r.cycles > 0);
        assert!(r.steps > 30);
    }

    #[test]
    fn block_counts_match_loop_trip_count() {
        let p = counting_loop(7);
        let mut sim = Simulator::new(&p, Machine::i960kb(), SimConfig::default());
        let r = sim.run(&[]).unwrap();
        let cfg = &sim.cfgs()[0];
        // Header block executes n+1 times, body n times, pre/post once.
        let mut by_block: Vec<u64> = vec![0; cfg.num_blocks()];
        for (&(_, b), &c) in &r.block_counts {
            by_block[b.0] = c;
        }
        assert_eq!(by_block, vec![1, 8, 7, 1]);
    }

    #[test]
    fn out_of_fuel_on_infinite_loop() {
        let mut b = AsmBuilder::new("main");
        let l = b.fresh_label();
        b.bind(l);
        b.jmp(l);
        b.ret();
        let p = prog(vec![b.finish().unwrap()], vec![], 0);
        let mut sim = Simulator::new(
            &p,
            Machine::i960kb(),
            SimConfig { max_steps: 1000, ..SimConfig::default() },
        );
        assert!(matches!(sim.run(&[]), Err(SimError::OutOfFuel { .. })));
    }

    #[test]
    fn globals_load_store_roundtrip() {
        let g = Global { name: "buf".into(), addr: 0, words: 4, init: vec![10, 20, 30, 40] };
        // rv = buf[2]; buf[0] = 99;
        let mut b = AsmBuilder::new("main");
        b.ldc(Reg::T0, 0);
        b.ld(Reg::RV, Reg::T0, 2);
        b.ldc(Reg::temp(1), 99);
        b.st(Reg::temp(1), Reg::T0, 0);
        b.ret();
        let p = prog(vec![b.finish().unwrap()], vec![g], 0);
        let mut sim = Simulator::new(&p, Machine::i960kb(), SimConfig::default());
        let r = sim.run(&[]).unwrap();
        assert_eq!(r.return_value, 30);
        assert_eq!(sim.read_global("buf", 4).unwrap(), vec![99, 20, 30, 40]);
    }

    #[test]
    fn seed_global_overrides_init() {
        let g = Global { name: "x".into(), addr: 0, words: 2, init: vec![1, 2] };
        let mut b = AsmBuilder::new("main");
        b.ldc(Reg::T0, 0);
        b.ld(Reg::RV, Reg::T0, 1);
        b.ret();
        let p = prog(vec![b.finish().unwrap()], vec![g], 0);
        let mut sim = Simulator::new(&p, Machine::i960kb(), SimConfig::default());
        sim.seed_global("x", &[7, 8]).unwrap();
        assert_eq!(sim.run(&[]).unwrap().return_value, 8);
        assert!(matches!(sim.seed_global("x", &[1, 2, 3]), Err(SimError::SeedTooLong { .. })));
        assert!(matches!(sim.seed_global("nope", &[]), Err(SimError::NoSuchGlobal(_))));
    }

    #[test]
    fn call_and_return_with_hardware_frames() {
        // add(a, b) { local = a; return local + b; }  main { rv = add(3, 4); }
        let mut add = AsmBuilder::new("add");
        add.frame_words(1).num_params(2);
        add.st(Reg::A0, Reg::FP, 0);
        add.ld(Reg::T0, Reg::FP, 0);
        add.alu(AluOp::Add, Reg::RV, Reg::T0, Reg::A1);
        add.ret();
        let mut main = AsmBuilder::new("main");
        main.ldc(Reg::A0, 3);
        main.ldc(Reg::A1, 4);
        main.call(FuncId(0));
        main.ret();
        let p = prog(vec![add.finish().unwrap(), main.finish().unwrap()], vec![], 1);
        let mut sim = Simulator::new(&p, Machine::i960kb(), SimConfig::default());
        assert_eq!(sim.run(&[]).unwrap().return_value, 7);
    }

    #[test]
    fn warm_cache_run_is_faster() {
        let p = counting_loop(50);
        let mut sim = Simulator::new(
            &p,
            Machine::i960kb(),
            SimConfig { flush_cache: false, ..SimConfig::default() },
        );
        sim.flush_icache();
        let cold = sim.run(&[]).unwrap();
        sim.reset_data();
        let warm = sim.run(&[]).unwrap();
        assert!(warm.cycles < cold.cycles);
        assert_eq!(warm.return_value, cold.return_value);
        assert_eq!(warm.icache_misses, 0);
    }

    #[test]
    fn memory_fault_reported() {
        let mut b = AsmBuilder::new("main");
        b.ldc(Reg::T0, -5);
        b.ld(Reg::RV, Reg::T0, 0);
        b.ret();
        let p = prog(vec![b.finish().unwrap()], vec![], 0);
        let mut sim = Simulator::new(&p, Machine::i960kb(), SimConfig::default());
        assert!(matches!(sim.run(&[]), Err(SimError::MemOutOfBounds { .. })));
    }

    #[test]
    fn zero_register_reads_zero_and_ignores_writes() {
        let mut b = AsmBuilder::new("main");
        b.ldc(Reg::ZERO, 42);
        b.mov(Reg::RV, Reg::ZERO);
        b.ret();
        let p = prog(vec![b.finish().unwrap()], vec![], 0);
        let mut sim = Simulator::new(&p, Machine::i960kb(), SimConfig::default());
        assert_eq!(sim.run(&[]).unwrap().return_value, 0);
    }

    #[test]
    fn taken_branch_costs_more_than_fallthrough() {
        // taken: br jumps; fallthrough: condition false.
        let build = |val: i32| {
            let mut b = AsmBuilder::new("main");
            let l = b.fresh_label();
            b.ldc(Reg::T0, val);
            b.br(Cond::Eq, Reg::T0, 1, l);
            b.nop();
            b.bind(l);
            b.ret();
            prog(vec![b.finish().unwrap()], vec![], 0)
        };
        let pt = build(1);
        let pf = build(0);
        let mut st = Simulator::new(&pt, Machine::i960kb(), SimConfig::default());
        let mut sf = Simulator::new(&pf, Machine::i960kb(), SimConfig::default());
        let taken = st.run(&[]).unwrap();
        let fall = sf.run(&[]).unwrap();
        // Fallthrough executes one extra nop but no refill penalty;
        // with penalty 2 and nop cost 1, taken is still >= fall.
        assert!(taken.steps < fall.steps);
        assert!(taken.cycles >= fall.cycles);
    }

    #[test]
    fn args_land_in_argument_registers() {
        let mut b = AsmBuilder::new("main");
        b.alu(AluOp::Sub, Reg::RV, Reg::A0, Reg::A1);
        b.ret();
        let p = prog(vec![b.finish().unwrap()], vec![], 0);
        let mut sim = Simulator::new(&p, Machine::i960kb(), SimConfig::default());
        assert_eq!(sim.run(&[10, 3]).unwrap().return_value, 7);
    }
}

#[cfg(test)]
mod trace_tests {
    use super::*;
    use ipet_arch::{AluOp, AsmBuilder, Cond};

    fn loop_program() -> Program {
        let mut b = AsmBuilder::new("main");
        let head = b.fresh_label();
        let out = b.fresh_label();
        b.ldc(Reg::T0, 0);
        b.bind(head);
        b.br(Cond::Ge, Reg::T0, 3, out);
        b.alu(AluOp::Add, Reg::T0, Reg::T0, 1);
        b.jmp(head);
        b.bind(out);
        b.ret();
        Program::new(vec![b.finish().unwrap()], vec![], FuncId(0)).unwrap()
    }

    #[test]
    fn trace_matches_block_counts() {
        let p = loop_program();
        let mut sim = Simulator::new(&p, Machine::i960kb(), SimConfig::default());
        let (result, trace) = sim.run_traced(&[], 1000).unwrap();
        let total: u64 = result.block_counts.values().sum();
        assert_eq!(trace.len() as u64, total);
        // Cycle stamps are non-decreasing and the first event is block 1.
        assert_eq!(trace[0].block, BlockId(0));
        assert!(trace.windows(2).all(|w| w[0].cycle <= w[1].cycle));
        // The trace replays the loop: header appears 4 times.
        let headers = trace.iter().filter(|e| e.block == BlockId(1)).count();
        assert_eq!(headers, 4);
    }

    #[test]
    fn trace_cap_truncates_but_result_is_complete() {
        let p = loop_program();
        let mut sim = Simulator::new(&p, Machine::i960kb(), SimConfig::default());
        let (result, trace) = sim.run_traced(&[], 2).unwrap();
        assert_eq!(trace.len(), 2);
        assert!(result.block_counts.values().sum::<u64>() > 2);
    }
}
