//! The interpreter.

use crate::loader::{self, LoadedImage, CTYPE_TABLE_ADDR, LOCAL_OFFSET_LT_CAP, SUBHEAP_LT_CAP};
use crate::stats::RunStats;
use crate::{AllocatorKind, Mode, RunResult, VmConfig, VmError};
use ifp_alloc::{
    costs as alloc_costs, AllocCost, GlobalTableManager, LibcAllocator, StackAllocator,
    SubheapAllocator, WrappedAllocator,
};
use ifp_compiler::costs as ir_costs;
use ifp_compiler::instrument::{AllocKind, ElideFlags, OpAction};
use ifp_compiler::ir::{BinOp, ExtFunc, GepStep, Op, Operand, Program, Reg, Terminator};
use ifp_compiler::types::Type;
use ifp_compiler::{InstrPlan, TypeId};
use ifp_hw::ifp_unit::Narrowing;
use ifp_hw::{CtrlRegs, IfpUnit, LoadStoreUnit, PromoteKind, Trap};
use ifp_mem::layout::{GLOBAL_TABLE_BASE, HEAP_BASE, STACK_SIZE, STACK_TOP};
use ifp_mem::{CacheConfig, MemSystem};
use ifp_tag::{
    Bounds, LocalOffsetTag, Poison, SchemeSel, SubheapTag, TaggedPtr, LOCAL_OFFSET_GRANULE,
};
use ifp_temporal::{FreeOutcome, TemporalState, TemporalViolation};
use ifp_trace::{EventKind, Region, Scheme, TagOp, TraceLog, Tracer, NO_FUNC};
use std::sync::Arc;

/// Base address of the libc-style heap (baseline + wrapped allocator).
const LIBC_HEAP_BASE: u64 = HEAP_BASE;
/// Size of the libc-style heap (256 MiB).
const LIBC_HEAP_SIZE: u64 = 0x1000_0000;
/// Base of the buddy arena backing the subheap allocator (size-aligned).
const BUDDY_BASE: u64 = 0x5000_0000;
/// Buddy arena order (256 MiB).
const BUDDY_ORDER: u8 = 28;

/// One virtual register: its value and what rides alongside it.
#[derive(Clone, Copy, Debug, Default)]
struct RegSlot {
    val: u64,
    bounds: Option<Bounds>,
    /// Temporal key riding alongside a pointer register (the lock-and-
    /// key "key"). Lost on memory round-trips, refreshed by `promote`.
    stamp: Option<u64>,
}

#[derive(Debug, Default)]
struct Frame {
    func: usize,
    regs: Vec<RegSlot>,
    /// Index into the function's pre-decoded [`Code`] stream.
    pc: usize,
    /// Caller register receiving the return value.
    ret_dst: Option<Reg>,
    /// Global-table rows owned by oversized locals of this frame.
    global_rows: Vec<u16>,
}

/// One slot of a function's pre-decoded instruction stream.
///
/// [`predecode`] flattens every function into one of these per op or
/// terminator, resolving up front everything `step` would otherwise
/// re-derive on each execution: the instrumentation action and elision
/// flags for the op, access sizes and pointer-ness for loads and stores,
/// the type walk of every GEP, the callee index and its bounds-saving
/// flag for calls, and branch targets as direct indices into the flat
/// stream. The interpreter then runs on a single `pc` and one `match`
/// instead of re-indexing `funcs[fi].blocks[bi].ops[oi]` three levels
/// deep and re-matching the op per step.
///
/// The hot ops (`Bin`, `Mov`, `Load`, `Store`, `Gep`) get typed slots
/// with their operands inline; the rest stay on [`Code::Op`].
#[derive(Clone, Copy, Debug)]
enum Code {
    /// `dst = a <op> b`.
    Bin {
        op: BinOp,
        dst: Reg,
        a: Operand,
        b: Operand,
    },
    /// `dst = a`, bounds and stamp riding along.
    Mov { dst: Reg, a: Operand },
    /// A load with its type resolved to an access size and pointer-ness.
    Load {
        dst: Reg,
        ptr: Operand,
        size: u8,
        is_ptr: bool,
        /// The plan hoists a `promote` after this load.
        promote: bool,
        elide: ElideFlags,
    },
    /// A store with its type resolved to an access size.
    Store {
        ptr: Operand,
        val: Operand,
        size: u8,
        /// The plan demotes the stored pointer (`ifpextract`).
        demote: bool,
        elide: ElideFlags,
    },
    /// A GEP whose type walk is resolved into
    /// `FuncCode::gep_steps[steps..steps + n_steps]`.
    Gep {
        dst: Reg,
        base: Operand,
        steps: u32,
        n_steps: u32,
        /// Base instructions retired: the IR step count (at least 1),
        /// independent of how many resolved steps it folded into.
        base_cost: u32,
        /// The plan's `ifpidx` target, if the subobject index changes.
        new_index: Option<u16>,
        /// The GEP enters a subobject (`ifpbnd`).
        enters: bool,
        /// The tag update is statically discharged.
        elide_tag: bool,
    },
    /// Any other block-body operation.
    Op {
        /// Index into the function's owned [`FuncCode::ops`] table.
        op: u32,
        /// The instrumentation plan's action for this op
        /// ([`OpAction::None`] in uninstrumented modes).
        action: OpAction,
        /// Pre-resolved callee function index for `Op::Call`
        /// (`u32::MAX` for every other op).
        callee: u32,
        /// Whether the callee saves/restores a bounds register pair.
        saves_bounds: bool,
    },
    /// An unconditional jump to a flat-stream index.
    Jmp { cost: u64, target: u32 },
    /// A conditional branch; both targets are flat-stream indices.
    Br {
        cost: u64,
        cond: Operand,
        then_pc: u32,
        else_pc: u32,
    },
    /// A function return.
    Ret { cost: u64, val: Option<Operand> },
}

// The dispatch loop copies one slot per step: keep it within five words.
const _: () = assert!(std::mem::size_of::<Code>() <= 40);

/// One resolved step of a GEP's address walk. Constant steps (field
/// selections and immediate indices) fold into the delta of the next
/// `Field` step or into a trailing `Delta`; only register indices stay
/// dynamic. Every fold preserves the address of the last field selected,
/// which static narrowing reads.
#[derive(Clone, Copy, Debug)]
enum GepSlot {
    /// `addr += delta`.
    Delta(u64),
    /// `addr += delta`, then the last selected subobject is
    /// `(addr, size)`.
    Field { delta: u64, size: u64 },
    /// `addr += reg * scale`.
    Index { reg: Reg, scale: i64 },
}

/// A function's flattened instruction stream, *owned*: everything the
/// slots reference is cloned or resolved out of the source program at
/// compile time, so the stream has no borrow of the [`Program`] and a
/// [`CompiledArtifact`] can be cached and shared across runs, threads,
/// and structurally identical rebuilt programs.
#[derive(Debug)]
struct FuncCode {
    code: Vec<Code>,
    /// The ops left on [`Code::Op`], in flattened order.
    ops: Vec<Op>,
    /// Resolved GEP walks, indexed by [`Code::Gep`].
    gep_steps: Vec<GepSlot>,
}

/// Resolves a GEP's type walk into `out`, folding constant steps.
fn resolve_gep(program: &Program, base_ty: TypeId, steps: &[GepStep], out: &mut Vec<GepSlot>) {
    let types = &program.types;
    let mut cur_ty = base_ty;
    // Constant displacement accumulated since the last emitted slot.
    let mut pending = 0u64;
    for step in steps {
        match step {
            GepStep::Field(i) => {
                let field = types.field(cur_ty, *i);
                cur_ty = field.ty;
                out.push(GepSlot::Field {
                    delta: pending.wrapping_add(u64::from(field.offset)),
                    size: u64::from(types.size_of(cur_ty)),
                });
                pending = 0;
            }
            GepStep::Index(o) => {
                let elem = match types.get(cur_ty) {
                    Type::Array { elem, .. } => {
                        cur_ty = *elem;
                        *elem
                    }
                    _ => cur_ty,
                };
                let scale = i64::from(types.size_of(elem));
                match *o {
                    Operand::Imm(n) => pending = pending.wrapping_add(n.wrapping_mul(scale) as u64),
                    Operand::Reg(reg) => {
                        if pending != 0 {
                            out.push(GepSlot::Delta(pending));
                            pending = 0;
                        }
                        out.push(GepSlot::Index { reg, scale });
                    }
                }
            }
        }
    }
    if pending != 0 {
        out.push(GepSlot::Delta(pending));
    }
}

/// Flattens every function into its [`Code`] stream. `plan` must be the
/// instrumentation plan exactly when the mode is instrumented, so decoded
/// actions match what `InstrPlan` lookup would have produced per step.
fn predecode(program: &Program, plan: Option<&InstrPlan>) -> Vec<FuncCode> {
    let types = &program.types;
    let mut decoded = Vec::with_capacity(program.funcs.len());
    let mut starts: Vec<u32> = Vec::new();
    for (fi, f) in program.funcs.iter().enumerate() {
        starts.clear();
        let mut n = 0u32;
        for b in &f.blocks {
            starts.push(n);
            n += b.ops.len() as u32 + 1; // ops plus the terminator slot
        }
        let mut code = Vec::with_capacity(n as usize);
        let mut ops: Vec<Op> = Vec::new();
        let mut gep_steps: Vec<GepSlot> = Vec::new();
        for (bi, b) in f.blocks.iter().enumerate() {
            for (oi, op) in b.ops.iter().enumerate() {
                let action = plan.map_or(OpAction::None, |p| p.funcs[fi].actions[bi][oi]);
                let elide = plan.map_or(ElideFlags::default(), |p| p.elide_flags(fi, bi, oi));
                code.push(match op {
                    Op::Bin { dst, op, a, b } => Code::Bin {
                        op: *op,
                        dst: *dst,
                        a: *a,
                        b: *b,
                    },
                    Op::Mov { dst, a } => Code::Mov { dst: *dst, a: *a },
                    Op::Load { dst, ptr, ty } => Code::Load {
                        dst: *dst,
                        ptr: *ptr,
                        size: scalar_size(program, *ty),
                        is_ptr: types.is_ptr(*ty),
                        promote: matches!(action, OpAction::PromoteAfterLoad),
                        elide,
                    },
                    Op::Store { ptr, val, ty } => Code::Store {
                        ptr: *ptr,
                        val: *val,
                        size: scalar_size(program, *ty),
                        demote: matches!(action, OpAction::DemoteOnStore),
                        elide,
                    },
                    Op::Gep {
                        dst,
                        base,
                        base_ty,
                        steps,
                    } => {
                        let first = gep_steps.len();
                        resolve_gep(program, *base_ty, steps, &mut gep_steps);
                        let (new_index, enters) = match action {
                            OpAction::GepUpdate {
                                new_index,
                                enters_subobject,
                            } => (new_index, enters_subobject),
                            _ => (None, false),
                        };
                        Code::Gep {
                            dst: *dst,
                            base: *base,
                            steps: u32::try_from(first).expect("GEP table fits u32"),
                            n_steps: u32::try_from(gep_steps.len() - first)
                                .expect("GEP steps fit u32"),
                            base_cost: u32::try_from(steps.len().max(1))
                                .expect("GEP steps fit u32"),
                            new_index,
                            enters,
                            elide_tag: elide.tag_update,
                        }
                    }
                    _ => {
                        let (callee, saves_bounds) = match op {
                            Op::Call { func, .. } => {
                                let c = program.func_id(func).expect("validated call target");
                                let saves = plan.is_some_and(|p| p.funcs[c].saves_bounds);
                                (u32::try_from(c).expect("function count fits u32"), saves)
                            }
                            _ => (u32::MAX, false),
                        };
                        ops.push(op.clone());
                        Code::Op {
                            op: ops.len() as u32 - 1,
                            action,
                            callee,
                            saves_bounds,
                        }
                    }
                });
            }
            let cost = ir_costs::term_cost(&b.term);
            code.push(match &b.term {
                Terminator::Jmp(t) => Code::Jmp {
                    cost,
                    target: starts[*t],
                },
                Terminator::Br {
                    cond,
                    then_bb,
                    else_bb,
                } => Code::Br {
                    cost,
                    cond: *cond,
                    then_pc: starts[*then_bb],
                    else_pc: starts[*else_bb],
                },
                Terminator::Ret(v) => Code::Ret { cost, val: *v },
            });
        }
        decoded.push(FuncCode {
            code,
            ops,
            gep_steps,
        });
    }
    decoded
}

/// The access size of a (validated, hence scalar) load/store type.
fn scalar_size(program: &Program, ty: TypeId) -> u8 {
    u8::try_from(program.types.size_of(ty)).expect("scalar access size fits u8")
}

/// Everything the interpreter derives from a program before the first
/// step, compiled once and shareable across runs and threads: the
/// instrumentation plan and the pre-decoded instruction streams.
///
/// An artifact depends only on program content and compile inputs — see
/// [`compile_artifact`] — never on allocator kind, promote ablation,
/// temporal policy, cache geometry, or fuel, none of which participate
/// in decode/analyze. It carries no content fingerprint: a cache that
/// shares artifacts keys them itself, so an uncached run never hashes
/// its program. Construction cost ([`CompiledArtifact::compile_ns`])
/// is host telemetry only; no modeled statistic depends on whether an
/// artifact was freshly compiled or recalled from a cache.
#[derive(Debug)]
pub struct CompiledArtifact {
    /// Whether the artifact embeds an instrumentation plan.
    pub instrumented: bool,
    /// Whether statically proven elisions were baked into the plan
    /// (always `false` when uninstrumented — elision is a plan input).
    pub elide_checks: bool,
    /// Host nanoseconds spent validating + analyzing + decoding.
    /// Telemetry only.
    pub compile_ns: u64,
    plan: Option<InstrPlan>,
    decoded: Vec<FuncCode>,
}

impl CompiledArtifact {
    /// Whether the decoded streams have `program`'s shape: one stream
    /// per function, and one slot per op and terminator of its blocks.
    /// O(blocks), no formatting — a cheap guard against pairing an
    /// artifact with the wrong program, not a content check.
    fn matches_shape_of(&self, program: &Program) -> bool {
        self.decoded.len() == program.funcs.len()
            && self.decoded.iter().zip(&program.funcs).all(|(fc, f)| {
                fc.code.len() == f.blocks.iter().map(|b| b.ops.len() + 1).sum::<usize>()
            })
    }
}

/// Compiles `program` into a [`CompiledArtifact`] for `config`:
/// validates, runs the instrumentation/elision analysis (instrumented
/// modes) and pre-decodes every function.
///
/// The artifact depends only on the program content and two config
/// facts — `mode.is_instrumented()` and `elide_checks` — so
/// one artifact serves every allocator / promote-ablation / temporal /
/// cache-geometry variation of a run.
///
/// # Errors
///
/// [`VmError::BadProgram`] when validation fails.
pub fn compile_artifact(program: &Program, config: &VmConfig) -> Result<CompiledArtifact, VmError> {
    let t0 = std::time::Instant::now();
    program
        .validate()
        .map_err(|e| VmError::BadProgram(e.to_string()))?;
    let instrumented = config.mode.is_instrumented();
    let elide_checks = instrumented && config.elide_checks;
    let plan = instrumented.then(|| ifp_analyze::instr_plan(program, config.elide_checks));
    let decoded = predecode(program, plan.as_ref());
    Ok(CompiledArtifact {
        instrumented,
        elide_checks,
        compile_ns: u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX),
        plan,
        decoded,
    })
}

/// Result of one [`Vm::step`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepOutcome {
    /// The program has more work to do.
    Running,
    /// `main` returned with this exit code.
    Finished(i64),
}

/// The heavyweight per-VM state that survives across pooled runs: the
/// simulated memory image (frame arena + page index + L1 model), the
/// global metadata table manager, and the trace ring.
///
/// Constructing these per run dominates `Vm::new` for short programs
/// (the paper's Juliet cases run for microseconds but map dozens of
/// pages and build a cache model each time). A service harness instead
/// keeps `VmHost`s in a pool: [`Vm::with_host`] resets one in place —
/// unmapping every page at once, rewinding the table allocator, bumping
/// the cache epoch — and [`Vm::run_pooled`] hands it back afterwards,
/// on the success *and* the trap path. Observable behaviour is
/// bit-identical to a fresh host (pinned by the `vm_reset` regression
/// tests).
#[derive(Debug)]
pub struct VmHost {
    mem: MemSystem,
    gt: GlobalTableManager,
    tracer: Tracer,
}

impl VmHost {
    /// A fresh host with the default L1 geometry.
    #[must_use]
    pub fn new() -> Self {
        VmHost::with_l1(CacheConfig::default())
    }

    /// A fresh host whose cache model is built for `l1` up front, so the
    /// first [`Vm::with_host`] under a matching config pays no rebuild.
    #[must_use]
    pub fn with_l1(l1: CacheConfig) -> Self {
        VmHost {
            mem: MemSystem::new(l1),
            gt: GlobalTableManager::new(GLOBAL_TABLE_BASE),
            tracer: Tracer::off(),
        }
    }

    /// Returns every component to its just-constructed observable state
    /// for a run under `config`, keeping backing allocations.
    fn reset_for(&mut self, config: &VmConfig) {
        self.mem.reset(config.l1);
        // One wholesale unmap above wiped all row images; rewind the row
        // allocator (leak-checked under debug_assertions) and re-map the
        // zero-filled table pages in one batch.
        self.gt.reset();
        self.gt.map(&mut self.mem);
        self.tracer.reset(config.trace);
    }

    /// Number of live global-table rows — stable across pooled runs of
    /// the same program (the row-leak regression hook).
    #[must_use]
    pub fn live_rows(&self) -> usize {
        self.gt.live_rows()
    }

    /// Global-table rows issued but neither live nor recycled — must be
    /// zero for a leak-free host. Cheap (three counter reads), so
    /// release-mode suites can gate on it where the `reset()`
    /// `debug_assert` cannot fire.
    #[must_use]
    pub fn leaked_rows(&self) -> u64 {
        self.gt.leaked_rows()
    }

    /// Snapshot of the trace ring left behind by the last run, resolving
    /// function indices against `funcs`. Useful after a trapped
    /// [`Vm::run_pooled`], where there is no [`RunResult`] to carry the
    /// trace: the host still holds the ring until its next reuse.
    #[must_use]
    pub fn trace_snapshot(&self, funcs: &[String]) -> TraceLog {
        self.tracer.snapshot(funcs)
    }
}

impl Default for VmHost {
    fn default() -> Self {
        VmHost::new()
    }
}

/// The virtual machine. Most users go through [`crate::run`]; the struct
/// is exposed for harnesses that want to inspect state between steps.
pub struct Vm<'p> {
    program: &'p Program,
    /// The compiled artifact driving this run: the pre-decoded
    /// instruction streams. Shared —
    /// possibly recalled from a plan cache and concurrently driving
    /// sibling VMs on other threads.
    artifact: Arc<CompiledArtifact>,
    config: VmConfig,
    /// Cached `config.mode.is_instrumented()`.
    is_instr: bool,
    /// Cached no-promote ablation flag.
    is_no_promote: bool,
    mem: MemSystem,
    unit: IfpUnit,
    lsu: LoadStoreUnit,
    ctrl: CtrlRegs,
    stack: StackAllocator,
    libc: LibcAllocator,
    wrapped: Option<WrappedAllocator>,
    subheap: Option<SubheapAllocator>,
    gt: GlobalTableManager,
    image: LoadedImage,
    temporal: TemporalState,
    stats: RunStats,
    /// Running `stats.total_instrs()`, kept by the `charge_*` helpers and
    /// `exec_promote` so the per-step fuel check reads one counter.
    instrs: u64,
    /// `main`'s exit code once it has returned; later steps are no-ops.
    finished: Option<i64>,
    output: Vec<i64>,
    frames: Vec<Frame>,
    /// Retired frames recycled by the next call, so deep call chains
    /// don't pay a register-file allocation per call.
    frame_pool: Vec<Frame>,
    tracer: Tracer,
}

impl<'p> Vm<'p> {
    /// Prepares a VM: validates the program, runs the instrumentation
    /// pass (for instrumented modes), and loads the image.
    ///
    /// # Errors
    ///
    /// [`VmError::BadProgram`] when validation fails.
    pub fn new(program: &'p Program, config: &VmConfig) -> Result<Self, VmError> {
        // A fresh host built for the requested geometry: `with_host`'s
        // reset is then a no-op walk over empty state, so the fresh path
        // costs what it always did.
        Vm::with_host(program, config, VmHost::with_l1(config.l1))
    }

    /// Like [`Vm::new`], but recycles a pooled [`VmHost`] instead of
    /// constructing the memory image, global table, and trace ring from
    /// scratch. The host is reset in place first; a run from a pooled
    /// host is bit-identical to one from a fresh host.
    ///
    /// # Errors
    ///
    /// [`VmError::BadProgram`] when validation fails (the host is
    /// dropped; pool a new one).
    pub fn with_host(
        program: &'p Program,
        config: &VmConfig,
        host: VmHost,
    ) -> Result<Self, VmError> {
        let artifact = Arc::new(compile_artifact(program, config)?);
        Ok(Vm::with_artifact(program, config, &artifact, host))
    }

    /// Like [`Vm::with_host`], but reuses an already-compiled
    /// [`CompiledArtifact`] — typically recalled from a plan cache —
    /// instead of validating/analyzing/decoding the program again. The
    /// artifact must have been produced by [`compile_artifact`] from a
    /// structurally identical program under a config agreeing on
    /// `mode.is_instrumented()` and `elide_checks`. Both config facts and
    /// the artifact's shape (one stream per function, one slot per op and
    /// terminator) are checked by `debug_assert`; a content-addressed
    /// cache makes a stale artifact impossible when its key matches.
    ///
    /// Runs from a shared artifact are bit-identical to fresh runs in
    /// every modeled statistic: [`Vm::with_host`] itself delegates
    /// through the same artifact type, so there is only one code path.
    pub fn with_artifact(
        program: &'p Program,
        config: &VmConfig,
        artifact: &Arc<CompiledArtifact>,
        mut host: VmHost,
    ) -> Self {
        debug_assert!(
            artifact.matches_shape_of(program),
            "artifact compiled from a different program"
        );
        debug_assert_eq!(artifact.instrumented, config.mode.is_instrumented());
        debug_assert_eq!(
            artifact.elide_checks,
            config.mode.is_instrumented() && config.elide_checks
        );
        let plan = artifact.plan.as_ref();

        host.reset_for(config);
        let VmHost {
            mut mem,
            mut gt,
            tracer,
        } = host;
        let key = ifp_meta::MacKey::default_for_sim();
        let image = loader::load(program, plan, &mut mem, &mut gt, key);

        let mut ctrl = CtrlRegs::new(gt.base());
        ctrl.mac_key = key;
        let mut wrapped = None;
        let mut subheap = None;
        if let Mode::Instrumented { allocator, .. } = config.mode {
            match allocator {
                AllocatorKind::Wrapped => {
                    wrapped = Some(WrappedAllocator::new(LIBC_HEAP_BASE, LIBC_HEAP_SIZE, key));
                }
                AllocatorKind::Subheap => {
                    for (i, c) in SubheapAllocator::ctrl_regs() {
                        ctrl.set_subheap(i, c);
                    }
                    subheap = Some(SubheapAllocator::new(BUDDY_BASE, BUDDY_ORDER, key));
                }
            }
        }

        let mut stats = RunStats::default();
        stats.base_instrs += image.startup_cost.base_instrs;
        stats.ifp_arith_instrs += image.startup_cost.ifp_instrs;
        stats.global_objects.objects = image.registered_globals;
        stats.global_objects.with_layout_table = image.registered_globals_with_lt;

        Vm {
            program,
            artifact: Arc::clone(artifact),
            config: *config,
            is_instr: config.mode.is_instrumented(),
            is_no_promote: matches!(
                config.mode,
                Mode::Instrumented {
                    no_promote: true,
                    ..
                }
            ),
            mem,
            unit: IfpUnit::new(config.cycle_model),
            lsu: LoadStoreUnit::new(config.cycle_model),
            ctrl,
            stack: StackAllocator::new(STACK_TOP, STACK_SIZE),
            libc: LibcAllocator::new(LIBC_HEAP_BASE, LIBC_HEAP_SIZE),
            wrapped,
            subheap,
            gt,
            image,
            temporal: TemporalState::new(config.temporal),
            instrs: stats.total_instrs(),
            finished: None,
            stats,
            output: Vec::new(),
            frames: Vec::new(),
            frame_pool: Vec::new(),
            tracer,
        }
    }

    fn instrumented(&self) -> bool {
        self.is_instr
    }

    fn no_promote(&self) -> bool {
        self.is_no_promote
    }

    fn charge_base(&mut self, n: u64) {
        self.stats.base_instrs += n;
        self.instrs += n;
        self.stats.cycles += n * self.config.cycle_model.alu;
    }

    fn charge_ifp_arith(&mut self, n: u64) {
        self.stats.ifp_arith_instrs += n;
        self.instrs += n;
        self.stats.cycles += n * self.config.cycle_model.alu;
    }

    fn charge_bounds_ls(&mut self, n: u64) {
        self.stats.bounds_ls_instrs += n;
        self.instrs += n;
        self.stats.cycles += n * self.config.cycle_model.alu;
    }

    fn charge_alloc(&mut self, c: AllocCost) {
        self.charge_base(c.base_instrs);
        self.charge_ifp_arith(c.ifp_instrs);
    }

    fn frame(&mut self) -> &mut Frame {
        self.frames.last_mut().expect("a frame is active")
    }

    fn eval(&self, o: Operand) -> u64 {
        match o {
            Operand::Reg(r) => self.frames.last().expect("frame")[r].val,
            Operand::Imm(v) => v as u64,
        }
    }

    fn bounds_of(&self, o: Operand) -> Option<Bounds> {
        match o {
            Operand::Reg(r) => self.frames.last().expect("frame")[r].bounds,
            Operand::Imm(_) => None,
        }
    }

    fn stamp_of(&self, o: Operand) -> Option<u64> {
        match o {
            Operand::Reg(r) => self.frames.last().expect("frame")[r].stamp,
            Operand::Imm(_) => None,
        }
    }

    fn set_reg(&mut self, r: Reg, v: u64, b: Option<Bounds>, s: Option<u64>) {
        self.frame().regs[r.0 as usize] = RegSlot {
            val: v,
            bounds: b,
            stamp: s,
        };
    }

    fn trap(&mut self, trap: Trap) -> VmError {
        let func = self
            .frames
            .last()
            .map(|f| self.program.funcs[f.func].name.clone())
            .unwrap_or_default();
        self.stats.temporal = self.temporal.stats;
        // Record the trap (always kept regardless of sampling) and
        // reconstruct the faulting access from the ring tail.
        let (kind, addr, size, bounds) = trap.trace_info();
        self.tracer.record(EventKind::Trap {
            kind,
            addr,
            size,
            lower: bounds.map_or(0, |b| b.0),
            upper: bounds.map_or(0, |b| b.1),
        });
        // Forensics need the trace ring; skip collecting function names
        // when every category is off (the common, untraced trap).
        let forensics = if self.tracer.any_enabled() {
            let funcs: Vec<String> = self.program.funcs.iter().map(|f| f.name.clone()).collect();
            self.tracer
                .forensics(kind, addr, size, bounds, &func, &funcs)
                .map(Box::new)
        } else {
            None
        };
        VmError::Trap {
            trap,
            func,
            stats: Box::new(self.stats.clone()),
            forensics,
        }
    }

    /// Records and raises a temporal-safety trap.
    fn temporal_trap(&mut self, v: TemporalViolation) -> VmError {
        self.tracer.record(EventKind::TemporalTrap {
            addr: v.addr,
            kind: v.kind,
            freed_base: v.freed_base,
            freed_size: v.freed_size,
            reuse_distance: v.reuse_distance,
        });
        self.trap(Trap::Temporal {
            addr: v.addr,
            kind: v.kind,
            freed_base: v.freed_base,
            freed_size: v.freed_size,
            reuse_distance: v.reuse_distance,
        })
    }

    /// In baseline mode the hardware is unmodified: no poison or bounds
    /// semantics exist, so pointers are stripped to plain addresses.
    fn effective_ptr(&self, raw: u64) -> TaggedPtr {
        if self.instrumented() {
            TaggedPtr::from_raw(raw)
        } else {
            TaggedPtr::from_raw(raw & ifp_tag::ADDR_MASK)
        }
    }

    /// Runs to completion.
    ///
    /// # Errors
    ///
    /// See [`VmError`].
    pub fn run(mut self) -> Result<RunResult, VmError> {
        let code = self.run_loop()?;
        Ok(self.into_result(code))
    }

    /// Runs to completion and hands the [`VmHost`] back for pooled reuse
    /// — on the success *and* the error path (a trap is a normal outcome
    /// for a service executing untrusted programs; the host must not be
    /// lost to it).
    pub fn run_pooled(mut self) -> (Result<RunResult, VmError>, VmHost) {
        let result = self.run_loop().map(|code| self.finalize(code));
        let host = VmHost {
            mem: self.mem,
            gt: self.gt,
            tracer: self.tracer,
        };
        (result, host)
    }

    /// The dispatch loop: enters `main` (unless [`Vm::step`] already
    /// did) and steps until it returns.
    fn run_loop(&mut self) -> Result<i64, VmError> {
        // One Arc clone for the whole run: the dispatch loop borrows the
        // streams from this local handle, not from `self`, so `&Op`
        // references coexist with `&mut self` in the handlers.
        let art = Arc::clone(&self.artifact);
        if let Some(code) = self.resume()? {
            return Ok(code);
        }
        match self.dispatch::<false>(&art)? {
            StepOutcome::Finished(code) => Ok(code),
            StepOutcome::Running => unreachable!("the run loop stops only when main returns"),
        }
    }

    /// Readies the machine for its next step: `Some(exit code)` once
    /// `main` has returned, otherwise enters `main` on the first call.
    fn resume(&mut self) -> Result<Option<i64>, VmError> {
        if self.finished.is_none() && self.frames.is_empty() {
            self.enter_main()?;
        }
        Ok(self.finished)
    }

    /// Pushes the initial `main` frame.
    fn enter_main(&mut self) -> Result<(), VmError> {
        let main = self
            .program
            .func_id("main")
            .ok_or_else(|| VmError::BadProgram("no main".into()))?;
        let fr = self.take_pooled_frame(self.program.funcs[main].num_regs as usize);
        self.activate_frame(fr, main, None);
        Ok(())
    }

    /// Executes one operation (or terminator). The first call enters
    /// `main`; once `main` has returned, every later call returns the same
    /// [`StepOutcome::Finished`] without executing or charging anything.
    /// Between steps, harnesses may inspect or corrupt machine state
    /// through [`Vm::mem_mut`] — how the fault-injection tests model an
    /// attacker scribbling over metadata from another thread.
    ///
    /// # Errors
    ///
    /// See [`VmError`]; a trap ends the run.
    pub fn step(&mut self) -> Result<StepOutcome, VmError> {
        if let Some(code) = self.resume()? {
            return Ok(StepOutcome::Finished(code));
        }
        let art = Arc::clone(&self.artifact);
        self.dispatch::<true>(&art)
    }

    /// The dispatch loop over pre-decoded [`Code`] slots: runs until
    /// `main` returns, or for exactly one slot when `SINGLE_STEP`. A frame
    /// is guaranteed to be active; `art` is this VM's own artifact, lifted
    /// into a caller-held handle so op borrows don't pin `self`.
    ///
    /// The active function's stream and `pc` live in locals; the frame's
    /// `pc` is written back only where another frame becomes active (a
    /// call or return) and when a single step ends.
    fn dispatch<const SINGLE_STEP: bool>(
        &mut self,
        art: &CompiledArtifact,
    ) -> Result<StepOutcome, VmError> {
        let frame = self.frames.last().expect("frame");
        let mut fc = &art.decoded[frame.func];
        let mut pc = frame.pc;
        loop {
            debug_assert_eq!(self.instrs, self.stats.total_instrs());
            if self.instrs > self.config.fuel {
                return Err(VmError::OutOfFuel);
            }
            let code = fc.code[pc];
            pc += 1;
            match code {
                Code::Bin { op, dst, a, b } => {
                    self.charge_base(1);
                    let va = self.eval(a) as i64;
                    let vb = self.eval(b) as i64;
                    let r = eval_bin(op, va, vb).map_err(|t| self.trap(t))?;
                    self.set_reg(dst, r as u64, None, None);
                }
                Code::Mov { dst, a } => {
                    self.charge_base(1);
                    let v = self.eval(a);
                    let b = self.bounds_of(a);
                    let s = self.stamp_of(a);
                    self.set_reg(dst, v, b, s);
                }
                Code::Load {
                    dst,
                    ptr,
                    size,
                    is_ptr,
                    promote,
                    elide,
                } => self.exec_load(dst, ptr, u64::from(size), is_ptr, promote, elide)?,
                Code::Store {
                    ptr,
                    val,
                    size,
                    demote,
                    elide,
                } => self.exec_store(ptr, val, u64::from(size), demote, elide)?,
                Code::Gep {
                    dst,
                    base,
                    steps,
                    n_steps,
                    base_cost,
                    new_index,
                    enters,
                    elide_tag,
                } => {
                    let bp = TaggedPtr::from_raw(self.eval(base));
                    // The address walk, remembering the base (and size) of
                    // the last field-selected subobject for static narrowing.
                    let mut addr = bp.addr();
                    let mut last_field: Option<(u64, u64)> = None;
                    let first = steps as usize;
                    for step in &fc.gep_steps[first..first + n_steps as usize] {
                        let delta = match *step {
                            GepSlot::Delta(d) => d,
                            GepSlot::Field { delta, size } => {
                                addr = addr.wrapping_add(delta) & ifp_tag::ADDR_MASK;
                                last_field = Some((addr, size));
                                continue;
                            }
                            GepSlot::Index { reg, scale } => {
                                (self.frames.last().expect("frame")[reg].val as i64)
                                    .wrapping_mul(scale) as u64
                            }
                        };
                        addr = addr.wrapping_add(delta) & ifp_tag::ADDR_MASK;
                    }
                    self.gep_apply(
                        dst,
                        base,
                        bp,
                        addr,
                        last_field,
                        u64::from(base_cost),
                        new_index,
                        enters,
                        elide_tag,
                    );
                }
                Code::Op {
                    op,
                    action,
                    callee,
                    saves_bounds,
                } => {
                    // A call activates the callee's frame: park `pc` in the
                    // caller's and continue from whichever frame is on top.
                    self.frame().pc = pc;
                    self.exec_op(&fc.ops[op as usize], action, callee, saves_bounds)?;
                    let frame = self.frames.last().expect("frame");
                    fc = &art.decoded[frame.func];
                    pc = frame.pc;
                }
                Code::Jmp { cost, target } => {
                    self.charge_base(cost);
                    pc = target as usize;
                }
                Code::Br {
                    cost,
                    cond,
                    then_pc,
                    else_pc,
                } => {
                    self.charge_base(cost);
                    let c = self.eval(cond);
                    pc = if c != 0 { then_pc } else { else_pc } as usize;
                }
                Code::Ret { cost, val } => {
                    self.charge_base(cost);
                    if let Some(code) = self.exec_ret(val)? {
                        self.finished = Some(code);
                        return Ok(StepOutcome::Finished(code));
                    }
                    let frame = self.frames.last().expect("frame");
                    fc = &art.decoded[frame.func];
                    pc = frame.pc;
                }
            }
            if SINGLE_STEP {
                self.frame().pc = pc;
                return Ok(StepOutcome::Running);
            }
        }
    }

    /// The simulated memory system, for inspection and fault injection
    /// between steps.
    pub fn mem_mut(&mut self) -> &mut MemSystem {
        &mut self.mem
    }

    /// Name of the function currently executing (empty before the first
    /// step).
    #[must_use]
    pub fn current_function(&self) -> &str {
        self.frames
            .last()
            .map(|f| self.program.funcs[f.func].name.as_str())
            .unwrap_or("")
    }

    /// Finalizes statistics and assembles the result.
    fn into_result(mut self, exit_code: i64) -> RunResult {
        self.finalize(exit_code)
    }

    /// Folds the end-of-run statistics into `self.stats` and moves the
    /// result out, leaving the machine state behind (for `run_pooled` to
    /// recover the host from).
    fn finalize(&mut self, exit_code: i64) -> RunResult {
        self.stats.temporal = self.temporal.stats;
        self.stats.l1 = self.mem.l1d.stats();
        self.stats.peak_resident = self.mem.mem.peak_mapped_bytes();
        self.stats.heap_footprint_peak = match (&self.wrapped, &self.subheap) {
            (Some(w), _) => w.base_allocator().stats().peak_chunks,
            (_, Some(s)) => s.peak_footprint(),
            _ => self.libc.stats().peak_chunks,
        };
        let trace = self.config.trace.enabled().then(|| {
            let funcs: Vec<String> = self.program.funcs.iter().map(|f| f.name.clone()).collect();
            self.tracer.snapshot(&funcs)
        });
        RunResult {
            exit_code,
            output: std::mem::take(&mut self.output),
            stats: std::mem::take(&mut self.stats),
            trace,
        }
    }

    /// Pops a recycled frame (or makes a fresh one) with `num_regs`
    /// zeroed register slots.
    fn take_pooled_frame(&mut self, num_regs: usize) -> Frame {
        let mut fr = self.frame_pool.pop().unwrap_or_default();
        fr.regs.clear();
        fr.regs.resize(num_regs, RegSlot::default());
        fr.global_rows.clear();
        fr
    }

    /// Pushes `fr` as the active frame for `func`, opening the simulated
    /// stack frame and pointing the tracer at the new function.
    fn activate_frame(&mut self, mut fr: Frame, func: usize, ret_dst: Option<Reg>) {
        fr.func = func;
        fr.pc = 0;
        fr.ret_dst = ret_dst;
        self.stack.push_frame();
        self.tracer.set_func(u32::try_from(func).unwrap_or(NO_FUNC));
        self.frames.push(fr);
    }

    /// Returns from the active frame: `Some(exit code)` when that frame
    /// was `main`'s.
    fn exec_ret(&mut self, v: Option<Operand>) -> Result<Option<i64>, VmError> {
        let value = v.map(|o| self.eval(o));
        let vbounds = v.and_then(|o| self.bounds_of(o));
        let vstamp = v.and_then(|o| self.stamp_of(o));

        // Frame teardown: clear tracked stack-object metadata and
        // release global-table rows for oversized locals.
        let (tracked, cost) = self.stack.pop_frame();
        self.charge_alloc(cost);
        if self.instrumented() {
            for obj in &tracked {
                self.mem
                    .write(obj.meta_addr, &[0u8; 16])
                    .map_err(|e| self.trap(Trap::from(e)))?;
            }
        }
        let rows = std::mem::take(&mut self.frame().global_rows);
        for row in rows {
            let c = self
                .gt
                .deregister(&mut self.mem, row)
                .map_err(VmError::Alloc)?;
            self.charge_alloc(c);
        }

        let frame = self.frames.pop().expect("frame");
        self.tracer.set_func(
            self.frames
                .last()
                .map_or(NO_FUNC, |f| u32::try_from(f.func).unwrap_or(NO_FUNC)),
        );
        if self.frames.is_empty() {
            return Ok(Some(value.unwrap_or(0) as i64));
        }
        if let Some(dst) = frame.ret_dst {
            let callee_instrumented = self.program.funcs[frame.func].instrumented;
            let b = if callee_instrumented { vbounds } else { None };
            self.set_reg(dst, value.unwrap_or(0), b, vstamp);
        }
        self.frame_pool.push(frame);
        Ok(None)
    }

    /// Executes an op left on [`Code::Op`] (every op without a typed
    /// slot).
    fn exec_op(
        &mut self,
        op: &Op,
        action: OpAction,
        callee: u32,
        saves_bounds: bool,
    ) -> Result<(), VmError> {
        match op {
            Op::Alloca { dst, ty, count } => {
                self.exec_alloca(action, *dst, *ty, *count)?;
            }
            Op::Malloc { dst, ty, count, .. } => {
                self.exec_malloc(action, *dst, *ty, *count)?;
            }
            Op::Free { ptr } => {
                self.charge_base(ir_costs::op_cost(op));
                let addr = self.effective_ptr(self.eval(*ptr)).addr();
                if addr != 0 {
                    self.stats.heap_frees += 1;
                    let (viol, cost) = if self.temporal.enabled() {
                        match (&mut self.wrapped, &mut self.subheap) {
                            (Some(w), _) => w
                                .free_temporal(
                                    &mut self.mem,
                                    &mut self.gt,
                                    addr,
                                    &mut self.temporal,
                                    &mut self.tracer,
                                )
                                .map_err(VmError::Alloc)?,
                            (_, Some(s)) => s
                                .free_temporal(
                                    &mut self.mem,
                                    addr,
                                    &mut self.temporal,
                                    &mut self.tracer,
                                )
                                .map_err(VmError::Alloc)?,
                            _ => self.libc_free_temporal(addr)?,
                        }
                    } else {
                        let cost = match (&mut self.wrapped, &mut self.subheap) {
                            (Some(w), _) => w
                                .free_traced(&mut self.mem, &mut self.gt, addr, &mut self.tracer)
                                .map_err(VmError::Alloc)?,
                            (_, Some(s)) => s
                                .free_traced(&mut self.mem, addr, &mut self.tracer)
                                .map_err(VmError::Alloc)?,
                            _ => {
                                self.libc
                                    .free(&mut self.mem.mem, addr)
                                    .map_err(VmError::Alloc)?;
                                self.tracer.record(EventKind::Free { addr });
                                AllocCost {
                                    base_instrs: alloc_costs::LIBC_FREE,
                                    ifp_instrs: 0,
                                }
                            }
                        };
                        (None, cost)
                    };
                    if let Some(v) = viol {
                        return Err(self.temporal_trap(v));
                    }
                    self.charge_alloc(cost);
                }
            }
            Op::AddrOfGlobal { dst, global } => {
                let registered = self.instrumented()
                    && matches!(action, OpAction::GlobalAddr { registered: true });
                if registered {
                    // The "getptr" path: a short call returning the cached
                    // tagged pointer.
                    self.charge_base(2);
                    self.charge_ifp_arith(1);
                    let ptr = self.image.global_ptrs[*global];
                    let b = Bounds::from_base_size(
                        self.image.global_addrs[*global],
                        self.image.global_sizes[*global].max(1),
                    );
                    self.set_reg(*dst, ptr.raw(), Some(b), None);
                } else {
                    self.charge_base(1);
                    let addr = self.image.global_addrs[*global];
                    self.set_reg(*dst, addr, None, None);
                }
            }
            Op::Call { dst, args, .. } => {
                self.charge_base(ir_costs::op_cost(op));
                self.stats.calls += 1;
                let callee = callee as usize;
                if self.instrumented() && saves_bounds {
                    // Callee saves/restores one clobbered bounds
                    // register pair (the calling-convention model).
                    self.charge_bounds_ls(2);
                }
                let f = &self.program.funcs[callee];
                let copy_bounds = f.instrumented && self.instrumented();
                let mut fr = self.take_pooled_frame(f.num_regs as usize);
                // Marshal arguments straight from the caller's registers
                // into the recycled frame — no staging vectors.
                for (i, a) in args.iter().enumerate() {
                    fr.regs[i] = RegSlot {
                        val: self.eval(*a),
                        bounds: if copy_bounds {
                            self.bounds_of(*a)
                        } else {
                            None
                        },
                        stamp: self.stamp_of(*a),
                    };
                }
                self.activate_frame(fr, callee, *dst);
            }
            Op::CallExt { dst, ext, args } => {
                self.exec_ext(*dst, *ext, args)?;
            }
            Op::Bin { .. }
            | Op::Mov { .. }
            | Op::Gep { .. }
            | Op::Load { .. }
            | Op::Store { .. } => {
                unreachable!("op has a typed slot")
            }
        }
        Ok(())
    }

    fn layout_addr_for(&self, layout: Option<ifp_compiler::TypeId>, cap: usize) -> u64 {
        self.image.layout_addr_capped(layout, cap)
    }

    fn exec_alloca(
        &mut self,
        action: OpAction,
        dst: Reg,
        ty: ifp_compiler::TypeId,
        count: u32,
    ) -> Result<(), VmError> {
        self.charge_base(1);
        let size = u64::from(self.program.types.size_of(ty)) * u64::from(count);
        let align = u64::from(self.program.types.align_of(ty));
        let tracked_layout = match action {
            OpAction::StackObject(AllocKind::Tracked { layout }) if self.instrumented() => {
                Some(layout)
            }
            _ => None,
        };
        let Some(layout) = tracked_layout else {
            let p = self
                .stack
                .alloca_plain(&mut self.mem, size, align)
                .map_err(VmError::Alloc)?;
            self.set_reg(dst, p.raw(), None, None);
            return Ok(());
        };

        let key = self.ctrl.mac_key;
        self.stats.stack_objects.objects += 1;
        if size <= ifp_tag::LOCAL_OFFSET_MAX_OBJECT {
            let lt = self.layout_addr_for(layout, LOCAL_OFFSET_LT_CAP);
            if lt != 0 {
                self.stats.stack_objects.with_layout_table += 1;
            }
            let (ptr, _obj, cost) = self
                .stack
                .alloca_tracked(&mut self.mem, key, size, lt, true)
                .map_err(VmError::Alloc)?;
            self.charge_alloc(cost);
            self.tracer.record(EventKind::Alloc {
                addr: ptr.addr(),
                size: size.max(1),
                scheme: Scheme::LocalOffset,
                region: Region::Stack,
            });
            self.set_reg(
                dst,
                ptr.raw(),
                Some(Bounds::from_base_size(ptr.addr(), size)),
                None,
            );
        } else {
            // Oversized local: placed on the stack, registered in the
            // global table (paper §4.2.2).
            let (raw, _obj, _) = self
                .stack
                .alloca_tracked(&mut self.mem, key, size, 0, false)
                .map_err(VmError::Alloc)?;
            let (ptr, row, cost) = self
                .gt
                .register(&mut self.mem, raw.addr(), size, 0)
                .map_err(VmError::Alloc)?;
            self.frame().global_rows.push(row);
            self.charge_alloc(cost);
            self.tracer.record(EventKind::Alloc {
                addr: ptr.addr(),
                size: size.max(1),
                scheme: Scheme::GlobalTable,
                region: Region::Stack,
            });
            self.set_reg(
                dst,
                ptr.raw(),
                Some(Bounds::from_base_size(ptr.addr(), size)),
                None,
            );
        }
        Ok(())
    }

    fn exec_malloc(
        &mut self,
        action: OpAction,
        dst: Reg,
        ty: ifp_compiler::TypeId,
        count: Operand,
    ) -> Result<(), VmError> {
        self.charge_base(2);
        let n = (self.eval(count) as i64).max(1) as u64;
        let size = u64::from(self.program.types.size_of(ty)) * n;
        self.stats.heap_allocs += 1;

        if !self.instrumented() {
            let addr = self
                .libc
                .malloc(&mut self.mem.mem, size)
                .map_err(VmError::Alloc)?;
            self.charge_base(alloc_costs::LIBC_MALLOC);
            self.tracer.record(EventKind::Alloc {
                addr,
                size: size.max(1),
                scheme: Scheme::Legacy,
                region: Region::Heap,
            });
            let stamp = self
                .temporal
                .enabled()
                .then(|| self.temporal.on_alloc(addr, size.max(1)));
            self.set_reg(dst, addr, None, stamp);
            return Ok(());
        }

        let layout = match action {
            OpAction::HeapObject { layout } => layout,
            _ => None,
        };
        self.stats.heap_objects.objects += 1;
        let temporal_on = self.temporal.enabled();
        let (ptr, cost, had_lt, stamp) = match (&mut self.wrapped, &mut self.subheap) {
            (Some(w), _) => {
                let lt = self.image.layout_addr_capped(layout, LOCAL_OFFSET_LT_CAP);
                let (p, c, s) = if temporal_on {
                    let (p, c, k) = w
                        .malloc_temporal(
                            &mut self.mem,
                            &mut self.gt,
                            size,
                            lt,
                            &mut self.temporal,
                            &mut self.tracer,
                        )
                        .map_err(VmError::Alloc)?;
                    (p, c, Some(k))
                } else {
                    let (p, c) = w
                        .malloc_traced(&mut self.mem, &mut self.gt, size, lt, &mut self.tracer)
                        .map_err(VmError::Alloc)?;
                    (p, c, None)
                };
                (p, c, lt != 0 && p.scheme() == SchemeSel::LocalOffset, s)
            }
            (_, Some(s)) => {
                let lt = self.image.layout_addr_capped(layout, SUBHEAP_LT_CAP);
                let (p, c, st) = if temporal_on {
                    let (p, c, k) = s
                        .malloc_temporal(
                            &mut self.mem,
                            size,
                            lt,
                            &mut self.temporal,
                            &mut self.tracer,
                        )
                        .map_err(VmError::Alloc)?;
                    (p, c, Some(k))
                } else {
                    let (p, c) = s
                        .malloc_traced(&mut self.mem, size, lt, &mut self.tracer)
                        .map_err(VmError::Alloc)?;
                    (p, c, None)
                };
                (p, c, lt != 0, st)
            }
            _ => unreachable!("instrumented mode has an allocator"),
        };
        if had_lt {
            self.stats.heap_objects.with_layout_table += 1;
        }
        self.charge_alloc(cost);
        self.set_reg(
            dst,
            ptr.raw(),
            Some(Bounds::from_base_size(ptr.addr(), size)),
            stamp,
        );
        Ok(())
    }

    /// Temporally-checked free on the uninstrumented libc path.
    fn libc_free_temporal(
        &mut self,
        addr: u64,
    ) -> Result<(Option<TemporalViolation>, AllocCost), VmError> {
        let cost = AllocCost {
            base_instrs: alloc_costs::LIBC_FREE,
            ifp_instrs: 0,
        };
        match self.temporal.on_free(addr) {
            FreeOutcome::NotTracked => {
                self.libc
                    .free(&mut self.mem.mem, addr)
                    .map_err(VmError::Alloc)?;
                self.tracer.record(EventKind::Free { addr });
                Ok((None, cost))
            }
            FreeOutcome::DoubleFree(v) => Ok((Some(v), cost)),
            FreeOutcome::Revoked { key, size } => {
                self.libc
                    .free(&mut self.mem.mem, addr)
                    .map_err(VmError::Alloc)?;
                self.tracer.record(EventKind::Free { addr });
                self.tracer.record(EventKind::Revoke { addr, size, key });
                Ok((None, cost))
            }
            FreeOutcome::Quarantined {
                key,
                size,
                pending_bytes,
                drained,
            } => {
                self.tracer.record(EventKind::Free { addr });
                self.tracer.record(EventKind::Revoke { addr, size, key });
                self.tracer.record(EventKind::Quarantine {
                    addr,
                    size,
                    pending_bytes,
                    drained: false,
                });
                for (dbase, dsize) in drained {
                    self.libc
                        .free(&mut self.mem.mem, dbase)
                        .map_err(VmError::Alloc)?;
                    self.tracer.record(EventKind::Quarantine {
                        addr: dbase,
                        size: dsize,
                        pending_bytes: self.temporal.pending_bytes(),
                        drained: true,
                    });
                }
                Ok((None, cost))
            }
        }
    }

    /// Everything a GEP does after the address walk: charging, the
    /// ifpadd/ifpidx/ifpbnd tag maintenance, static narrowing, and the
    /// destination write, after the dispatch loop has walked the
    /// resolved steps.
    #[allow(clippy::too_many_arguments)]
    fn gep_apply(
        &mut self,
        dst: Reg,
        base: Operand,
        bp: TaggedPtr,
        addr: u64,
        last_field: Option<(u64, u64)>,
        base_cost: u64,
        new_index: Option<u16>,
        enters: bool,
        elide_tag: bool,
    ) {
        // Pointer arithmetic preserves the allocation identity, so the
        // temporal stamp rides through every GEP.
        let base_stamp = self.stamp_of(base);

        if !self.instrumented() || bp.is_legacy() {
            self.charge_base(base_cost);
            let b = self.bounds_of(base);
            self.set_reg(dst, bp.with_addr(addr).raw(), b, base_stamp);
            return;
        }

        if elide_tag {
            // Statically discharged: every access through this GEP's
            // result is proven in bounds and the tagged value itself is
            // otherwise unobserved, so the ifpadd/ifpidx/ifpbnd sequence
            // is dropped and only the address arithmetic retires. The
            // base's tag (including its poison state) carries through
            // unchanged, and the bounds stay those of the base.
            self.charge_base(base_cost);
            let b = self.bounds_of(base);
            self.set_reg(dst, bp.with_addr(addr).raw(), b, base_stamp);
            self.stats.elision.geps_elided += 1;
            self.stats.elision.arith_elided +=
                1 + u64::from(new_index.is_some()) + u64::from(enters);
            return;
        }

        // Tagged pointer: the address computation is followed by an
        // ifpadd performing the fused tag update (granule offset + poison
        // maintenance) — the bulk of Figure 11's "IFP arithmetic" share.
        self.charge_base(base_cost);
        self.charge_ifp_arith(1);

        let mut ptr = bp.with_addr(addr);

        // ifpadd maintains the local-offset granule offset so the
        // metadata stays reachable from the moved pointer.
        if ptr.scheme() == SchemeSel::LocalOffset {
            let tag = LocalOffsetTag::decode(bp.scheme_meta());
            let meta_addr = (bp.addr() & !(LOCAL_OFFSET_GRANULE - 1))
                + u64::from(tag.granule_offset) * LOCAL_OFFSET_GRANULE;
            let trunc = addr & !(LOCAL_OFFSET_GRANULE - 1);
            let new_off = meta_addr.wrapping_sub(trunc) / LOCAL_OFFSET_GRANULE;
            if meta_addr >= trunc && new_off < 64 {
                let mut t = LocalOffsetTag::decode(ptr.scheme_meta());
                t.granule_offset = new_off as u8;
                ptr = ptr.with_scheme_meta(t.encode().expect("checked"));
            } else {
                // The metadata is no longer reachable from this address:
                // the pointer is irrecoverably wild.
                ptr = ptr.with_poison(Poison::Invalid);
            }
        }
        self.tracer.record(EventKind::Tag {
            op: TagOp::IfpAdd,
            ptr: ptr.addr(),
        });

        // ifpidx writes the new subobject index into the scheme's field.
        if let Some(idx) = new_index {
            self.charge_ifp_arith(1);
            self.tracer.record(EventKind::Tag {
                op: TagOp::IfpIdx,
                ptr: ptr.addr(),
            });
            ptr = match ptr.scheme() {
                SchemeSel::LocalOffset => {
                    let mut t = LocalOffsetTag::decode(ptr.scheme_meta());
                    t.subobject_index = if idx < 64 { idx as u8 } else { 0 };
                    ptr.with_scheme_meta(t.encode().expect("in range"))
                }
                SchemeSel::Subheap => {
                    let mut t = SubheapTag::decode(ptr.scheme_meta());
                    t.subobject_index = if idx < 256 { idx as u8 } else { 0 };
                    ptr.with_scheme_meta(t.encode().expect("in range"))
                }
                // Global-table tags have no index bits.
                _ => ptr,
            };
        }

        // Static bounds narrowing: the compiler emits ifpbnd whenever the
        // GEP enters a subobject; it executes unconditionally (same
        // instruction stream in every configuration) but only narrows when
        // the source bounds are live in the IFPR.
        let base_bounds = self.bounds_of(base);
        if enters {
            self.charge_ifp_arith(1);
        }
        let new_bounds = match (base_bounds, enters, last_field) {
            (Some(bb), true, Some((fb, fsize))) => {
                Some(Bounds::from_base_size(fb, fsize).intersect(bb))
            }
            (b, _, _) => b,
        };

        // The fused check updates poison from the (possibly narrowed)
        // bounds; without live bounds the poison is left for promote.
        if let Some(nb) = new_bounds {
            if !nb.is_cleared() && ptr.poison() != Poison::Invalid {
                ptr = ptr.with_poison(nb.classify_addr(ptr.addr()));
            }
        }

        self.set_reg(dst, ptr.raw(), new_bounds, base_stamp);
    }

    /// One load, with its per-op facts (`size`, `is_ptr`, the promote
    /// action, elisions) resolved from the op by the caller.
    fn exec_load(
        &mut self,
        dst: Reg,
        ptr: Operand,
        size: u64,
        is_ptr: bool,
        promote: bool,
        elide: ElideFlags,
    ) -> Result<(), VmError> {
        self.charge_base(1);
        let raw = self.eval(ptr);
        let p = self.effective_ptr(raw);
        let mut b = if self.instrumented() {
            self.bounds_of(ptr)
        } else {
            None
        };
        if b.is_some() {
            self.stats.elision.checks_total += 1;
            if elide.check {
                // Statically proven in bounds: the LSU sees no
                // bounds register and skips the fused check. The
                // pointer's poison bits are still honoured.
                self.stats.elision.checks_elided += 1;
                self.stats.elision.summary_elided += u64::from(elide.summary);
                b = None;
            }
        }
        // The liveness check runs alongside the bounds check,
        // before the access reaches the memory system: a hit on
        // revoked memory traps with the temporal cause rather
        // than whatever fault the dead page would raise.
        if self.temporal.enabled() {
            // The lock/key comparison is modeled as a dedicated
            // pipeline stage alongside the bounds check; it costs
            // cycles whether or not it fires.
            self.stats.cycles += self.config.cycle_model.temporal_check;
            let stamp = self.stamp_of(ptr);
            if let Some(v) = self.temporal.check(p.addr(), stamp) {
                return Err(self.temporal_trap(v));
            }
        }
        let res = self
            .lsu
            .load_traced(&mut self.mem, p, size, b, &mut self.tracer)
            .map_err(|t| self.trap(t))?;
        self.stats.cycles += res.cycles.saturating_sub(self.config.cycle_model.alu);
        let mut value = if is_ptr {
            res.value
        } else {
            sext(res.value, size)
        };

        let mut bounds = None;
        let mut stamp = None;
        if self.instrumented() && promote {
            if elide.promote {
                // The loaded pointer is never used: the planned
                // promote is dead instrumentation.
                self.stats.elision.promotes_elided += 1;
            } else {
                let (v, b, s) = self.exec_promote(value)?;
                value = v;
                bounds = b;
                stamp = s;
            }
        }
        self.set_reg(dst, value, bounds, stamp);
        Ok(())
    }

    /// One store, with its per-op facts (`size`, the demote action,
    /// elisions) resolved from the op by the caller.
    fn exec_store(
        &mut self,
        ptr: Operand,
        val: Operand,
        size: u64,
        demote: bool,
        elide: ElideFlags,
    ) -> Result<(), VmError> {
        self.charge_base(1);
        let raw = self.eval(ptr);
        let p = self.effective_ptr(raw);
        let mut b = if self.instrumented() {
            self.bounds_of(ptr)
        } else {
            None
        };
        if b.is_some() {
            self.stats.elision.checks_total += 1;
            if elide.check {
                self.stats.elision.checks_elided += 1;
                self.stats.elision.summary_elided += u64::from(elide.summary);
                b = None;
            }
        }
        if self.temporal.enabled() {
            self.stats.cycles += self.config.cycle_model.temporal_check;
            let stamp = self.stamp_of(ptr);
            if let Some(v) = self.temporal.check(p.addr(), stamp) {
                return Err(self.temporal_trap(v));
            }
        }
        let mut v = self.eval(val);
        if self.instrumented() && demote {
            // ifpextract: refresh the stored pointer's poison bits
            // from its live bounds before it leaves the registers.
            self.charge_ifp_arith(1);
            if let Some(vb) = self.bounds_of(val) {
                let tp = TaggedPtr::from_raw(v);
                if !vb.is_cleared() && !tp.is_null() && tp.poison() != Poison::Invalid {
                    v = tp.with_poison(vb.classify_addr(tp.addr())).raw();
                }
            }
            self.tracer.record(EventKind::Tag {
                op: TagOp::Demote,
                ptr: TaggedPtr::from_raw(v).addr(),
            });
        }
        let res = self
            .lsu
            .store_traced(&mut self.mem, p, size, v, b, &mut self.tracer)
            .map_err(|t| self.trap(t))?;
        self.stats.cycles += res.cycles.saturating_sub(self.config.cycle_model.alu);
        Ok(())
    }

    /// Runs `promote` on a freshly loaded pointer value. Returns the
    /// promoted raw pointer, its bounds, and the temporal stamp (the
    /// metadata fetch re-keys a pointer that round-tripped through
    /// memory, the same way it recovers the bounds).
    fn exec_promote(&mut self, raw: u64) -> Result<(u64, Option<Bounds>, Option<u64>), VmError> {
        self.stats.promote_instrs += 1;
        self.instrs += 1;
        self.stats.promotes.total += 1;
        if self.no_promote() {
            // The ablation: promote retires like a NOP.
            self.stats.cycles += self.config.cycle_model.promote_bypass;
            return Ok((raw, None, None));
        }
        let ptr = TaggedPtr::from_raw(raw);
        let r = self
            .unit
            .promote_traced(ptr, &mut self.mem, &self.ctrl, &mut self.tracer)
            .map_err(|t| self.trap(t))?;
        self.stats.cycles += r.cycles;
        match r.kind {
            PromoteKind::PoisonedInput => self.stats.promotes.poisoned_input += 1,
            PromoteKind::NullBypass => self.stats.promotes.null_bypass += 1,
            PromoteKind::LegacyBypass => self.stats.promotes.legacy_bypass += 1,
            PromoteKind::Valid => self.stats.promotes.valid += 1,
        }
        match r.narrowing {
            Narrowing::NotAttempted => {}
            Narrowing::Narrowed => {
                self.stats.promotes.narrow_requested += 1;
                self.stats.promotes.narrow_succeeded += 1;
            }
            Narrowing::Coarsened => {
                self.stats.promotes.narrow_requested += 1;
                self.stats.promotes.narrow_coarsened += 1;
            }
            Narrowing::Failed => {
                self.stats.promotes.narrow_requested += 1;
                self.stats.promotes.narrow_failed += 1;
            }
        }
        let bounds = (r.kind == PromoteKind::Valid && !r.bounds.is_cleared()).then_some(r.bounds);
        let stamp = if r.kind == PromoteKind::Valid {
            self.temporal.stamp_at(r.ptr.addr())
        } else {
            None
        };
        Ok((r.ptr.raw(), bounds, stamp))
    }

    fn exec_ext(
        &mut self,
        dst: Option<Reg>,
        ext: ExtFunc,
        args: &[Operand],
    ) -> Result<(), VmError> {
        self.charge_base(ir_costs::ext_base_cost(ext));
        let ret: u64 = match ext {
            ExtFunc::PrintInt => {
                let v = self.eval(args[0]) as i64;
                self.output.push(v);
                0
            }
            ExtFunc::CtypeTable => CTYPE_TABLE_ADDR,
            ExtFunc::Memcpy => {
                let d = self.effective_ptr(self.eval(args[0]));
                let s = self.effective_ptr(self.eval(args[1]));
                let n = self.eval(args[2]);
                self.ext_check_poison(d)?;
                self.ext_check_poison(s)?;
                self.charge_ext_bytes(ExtFunc::Memcpy, n);
                let mut off = 0u64;
                let mut buf = [0u8; 256];
                while off < n {
                    let chunk = (n - off).min(256) as usize;
                    self.mem
                        .read(s.addr() + off, &mut buf[..chunk])
                        .map_err(|e| self.trap(Trap::from(e)))?;
                    self.mem
                        .write(d.addr() + off, &buf[..chunk])
                        .map_err(|e| self.trap(Trap::from(e)))?;
                    off += chunk as u64;
                }
                d.raw()
            }
            ExtFunc::Memset => {
                let d = self.effective_ptr(self.eval(args[0]));
                let byte = self.eval(args[1]) as u8;
                let n = self.eval(args[2]);
                self.ext_check_poison(d)?;
                self.charge_ext_bytes(ExtFunc::Memset, n);
                let buf = [byte; 256];
                let mut off = 0u64;
                while off < n {
                    let chunk = (n - off).min(256) as usize;
                    self.mem
                        .write(d.addr() + off, &buf[..chunk])
                        .map_err(|e| self.trap(Trap::from(e)))?;
                    off += chunk as u64;
                }
                d.raw()
            }
            ExtFunc::Strlen => {
                let s = self.effective_ptr(self.eval(args[0]));
                self.ext_check_poison(s)?;
                let mut len = 0u64;
                loop {
                    let (b, _) = self
                        .mem
                        .read_uint(s.addr() + len, 1)
                        .map_err(|e| self.trap(Trap::from(e)))?;
                    if b == 0 || len > 1 << 20 {
                        break;
                    }
                    len += 1;
                }
                self.charge_ext_bytes(ExtFunc::Strlen, len);
                len
            }
        };
        if let Some(d) = dst {
            // Legacy code wrote the result register: bounds cleared
            // (implicit bounds clearing).
            self.set_reg(d, ret, None, None);
        }
        Ok(())
    }

    /// Even legacy code traps when it dereferences a poisoned pointer —
    /// the partial protection the poison bits give uninstrumented code.
    fn ext_check_poison(&mut self, p: TaggedPtr) -> Result<(), VmError> {
        if self.instrumented() && p.poison().traps_on_access() {
            Err(self.trap(Trap::PoisonedAccess { ptr: p }))
        } else {
            Ok(())
        }
    }

    fn charge_ext_bytes(&mut self, ext: ExtFunc, n: u64) {
        let instrs = (ir_costs::ext_per_byte_cost(ext) * n as f64).ceil() as u64;
        self.charge_base(instrs);
    }
}

impl std::ops::Index<Reg> for Frame {
    type Output = RegSlot;
    fn index(&self, r: Reg) -> &RegSlot {
        &self.regs[r.0 as usize]
    }
}

fn sext(v: u64, size: u64) -> u64 {
    match size {
        1 => v as u8 as i8 as i64 as u64,
        2 => v as u16 as i16 as i64 as u64,
        4 => v as u32 as i32 as i64 as u64,
        _ => v,
    }
}

fn eval_bin(op: BinOp, a: i64, b: i64) -> Result<i64, Trap> {
    Ok(match op {
        BinOp::Add => a.wrapping_add(b),
        BinOp::Sub => a.wrapping_sub(b),
        BinOp::Mul => a.wrapping_mul(b),
        BinOp::Div => {
            if b == 0 {
                0 // RISC-V semantics: division by zero yields -1 (all ones);
                  // we pin 0 to keep workloads deterministic across modes.
            } else {
                a.wrapping_div(b)
            }
        }
        BinOp::Rem => {
            if b == 0 {
                a
            } else {
                a.wrapping_rem(b)
            }
        }
        BinOp::And => a & b,
        BinOp::Or => a | b,
        BinOp::Xor => a ^ b,
        BinOp::Shl => a.wrapping_shl(b as u32 & 63),
        BinOp::Shr => ((a as u64).wrapping_shr(b as u32 & 63)) as i64,
        BinOp::Sra => a.wrapping_shr(b as u32 & 63),
        BinOp::Eq => i64::from(a == b),
        BinOp::Ne => i64::from(a != b),
        BinOp::Lt => i64::from(a < b),
        BinOp::Le => i64::from(a <= b),
        BinOp::Ult => i64::from((a as u64) < (b as u64)),
        BinOp::Ule => i64::from((a as u64) <= (b as u64)),
    })
}
