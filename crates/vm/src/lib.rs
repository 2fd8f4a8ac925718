//! Execution engine for the In-Fat Pointer reproduction.
//!
//! The VM interprets a [`ifp_compiler::Program`] over the simulated
//! machine ([`ifp_mem`] + [`ifp_hw`] + [`ifp_alloc`]) in one of the
//! evaluation configurations:
//!
//! * **Baseline** — uninstrumented: plain libc-style allocation, legacy
//!   pointers everywhere, no checks. This is the paper's baseline run.
//! * **Instrumented** — executes the [`ifp_compiler::InstrPlan`] alongside
//!   the program: tagged allocations through the **wrapped** or
//!   **subheap** allocator, `promote` on loaded pointers, tag-updating
//!   address arithmetic, implicit bounds checks at dereferences, demotes
//!   at pointer stores, bounds passing across calls.
//! * **No-promote** — identical instruction stream but `promote` retires
//!   like a NOP without metadata access, isolating promote's cost
//!   (paper §5.2's ablation).
//!
//! The VM's counters regenerate the paper's Table 4 (dynamic event
//! counts), Figure 11 (new-instruction breakdown), Figure 10 (runtime
//! overhead via the cycle model) and Figure 12 (peak resident size).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod interp;
mod loader;
pub mod stats;

pub use interp::{compile_artifact, CompiledArtifact, StepOutcome, Vm, VmHost};
pub use stats::{ElisionStats, ObjectStats, PromoteStats, RunStats};

use ifp_compiler::Program;
use ifp_hw::{CycleModel, Trap};
use ifp_mem::CacheConfig;
use ifp_trace::{ForensicReport, TraceConfig, TraceLog};
use std::fmt;

/// Which instrumented allocator serves heap allocations.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AllocatorKind {
    /// The wrapped allocator over libc-style malloc (local-offset
    /// metadata, global-table fallback).
    Wrapped,
    /// The subheap pool-over-buddy allocator.
    Subheap,
}

impl AllocatorKind {
    /// Both allocator variants, in evaluation order.
    pub const ALL: [AllocatorKind; 2] = [AllocatorKind::Wrapped, AllocatorKind::Subheap];
}

impl fmt::Display for AllocatorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AllocatorKind::Wrapped => f.write_str("wrapped"),
            AllocatorKind::Subheap => f.write_str("subheap"),
        }
    }
}

/// Execution mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Uninstrumented baseline.
    Baseline,
    /// In-Fat Pointer instrumentation active.
    Instrumented {
        /// Heap allocator variant.
        allocator: AllocatorKind,
        /// When set, `promote` performs no metadata access (the paper's
        /// no-promote configuration).
        no_promote: bool,
    },
}

impl Mode {
    /// The standard instrumented configuration with the given allocator.
    #[must_use]
    pub fn instrumented(allocator: AllocatorKind) -> Self {
        Mode::Instrumented {
            allocator,
            no_promote: false,
        }
    }

    /// Whether instrumentation actions execute in this mode.
    #[must_use]
    pub fn is_instrumented(self) -> bool {
        matches!(self, Mode::Instrumented { .. })
    }
}

impl fmt::Display for Mode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Mode::Baseline => f.write_str("baseline"),
            Mode::Instrumented {
                allocator,
                no_promote: false,
            } => write!(f, "{allocator}"),
            Mode::Instrumented {
                allocator,
                no_promote: true,
            } => write!(f, "{allocator} (no promote)"),
        }
    }
}

/// VM configuration.
#[derive(Clone, Copy, Debug)]
pub struct VmConfig {
    /// Execution mode.
    pub mode: Mode,
    /// The cycle model.
    pub cycle_model: CycleModel,
    /// L1 data-cache geometry.
    pub l1: CacheConfig,
    /// Instruction budget; exceeding it aborts the run (runaway guard).
    pub fuel: u64,
    /// Execution tracing. Off by default — a disabled tracer never
    /// allocates and costs one branch per would-be event.
    pub trace: TraceConfig,
    /// Temporal-safety enforcement policy. Off by default, which keeps
    /// every spatial-only configuration bit-identical to the
    /// pre-temporal simulator.
    pub temporal: ifp_temporal::TemporalPolicy,
    /// Apply the `ifp-analyze` interval analysis and skip bounds checks,
    /// GEP tag updates, and dead promotes on statically proven ops. Off
    /// by default, which keeps every run bit-identical to a build without
    /// the analyzer.
    pub elide_checks: bool,
}

impl Default for VmConfig {
    fn default() -> Self {
        VmConfig {
            mode: Mode::Baseline,
            cycle_model: CycleModel::default(),
            l1: CacheConfig::default(),
            fuel: 4_000_000_000,
            trace: TraceConfig::off(),
            temporal: ifp_temporal::TemporalPolicy::Off,
            elide_checks: false,
        }
    }
}

impl VmConfig {
    /// A config running the given mode with defaults otherwise.
    #[must_use]
    pub fn with_mode(mode: Mode) -> Self {
        VmConfig {
            mode,
            ..VmConfig::default()
        }
    }
}

/// The result of a completed run.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// `main`'s return value.
    pub exit_code: i64,
    /// Everything the program printed.
    pub output: Vec<i64>,
    /// The dynamic statistics.
    pub stats: RunStats,
    /// Snapshot of the event trace, when [`VmConfig::trace`] enabled one.
    pub trace: Option<TraceLog>,
}

/// Why a run did not complete.
#[derive(Clone, Debug)]
pub enum VmError {
    /// A hardware trap reached the top level — for instrumented runs of
    /// buggy programs this is the *detection* the paper's functional
    /// evaluation counts.
    Trap {
        /// The trap.
        trap: Trap,
        /// Function where it was raised.
        func: String,
        /// Statistics up to the trap.
        stats: Box<RunStats>,
        /// Reconstruction of the faulting access from the trace ring.
        /// `None` unless [`VmConfig::trace`] enabled tracing.
        forensics: Option<Box<ForensicReport>>,
    },
    /// An allocator failure (program bug or undersized arena).
    Alloc(ifp_alloc::AllocError),
    /// The instruction budget was exhausted.
    OutOfFuel,
    /// The program is structurally invalid.
    BadProgram(String),
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmError::Trap {
                trap,
                func,
                forensics,
                ..
            } => {
                write!(f, "trap in `{func}`: {trap}")?;
                if let Some(report) = forensics {
                    write!(f, "\n{report}")?;
                }
                Ok(())
            }
            VmError::Alloc(e) => write!(f, "allocator error: {e}"),
            VmError::OutOfFuel => f.write_str("instruction budget exhausted"),
            VmError::BadProgram(m) => write!(f, "invalid program: {m}"),
        }
    }
}

impl std::error::Error for VmError {}

impl VmError {
    /// Whether the error is a memory-safety detection (spatial or
    /// temporal).
    #[must_use]
    pub fn is_safety_trap(&self) -> bool {
        matches!(self, VmError::Trap { trap, .. } if trap.is_safety_violation())
    }
}

/// Runs `program` to completion under `config`.
///
/// # Errors
///
/// See [`VmError`]; note that a [`VmError::Trap`] from an instrumented run
/// is usually the point (a detected violation).
///
/// # Examples
///
/// ```
/// use ifp_compiler::{Operand, ProgramBuilder};
/// use ifp_vm::{run, VmConfig};
///
/// let mut pb = ProgramBuilder::new();
/// let mut f = pb.func("main", 0);
/// f.print_int(42i64);
/// f.ret(Some(Operand::Imm(0)));
/// pb.finish_func(f);
/// let program = pb.build();
/// let result = run(&program, &VmConfig::default()).unwrap();
/// assert_eq!(result.output, vec![42]);
/// ```
pub fn run(program: &Program, config: &VmConfig) -> Result<RunResult, VmError> {
    Vm::new(program, config)?.run()
}

/// Runs `program` under `config` on a pooled [`VmHost`], handing the
/// host back for reuse afterwards. The host comes back on the success
/// and the trap path alike; only a [`VmError::BadProgram`] (validation
/// failure, before any host state is touched by the run) consumes it —
/// the `None` tells the pool to construct a replacement.
///
/// Results are bit-identical to [`run`] with a fresh VM; the pooling is
/// invisible to every modeled statistic.
///
/// # Errors
///
/// See [`VmError`].
pub fn run_pooled(
    program: &Program,
    config: &VmConfig,
    host: VmHost,
) -> (Result<RunResult, VmError>, Option<VmHost>) {
    match Vm::with_host(program, config, host) {
        Ok(vm) => {
            let (result, host) = vm.run_pooled();
            (result, Some(host))
        }
        Err(e) => (Err(e), None),
    }
}
