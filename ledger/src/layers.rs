//! Per-layer self-time accounting, kept entirely on the benchmark side:
//! the ledger times its own calls into each crate's public functions,
//! and a [`TimedPass`] wrapper times each compile pass by delegating
//! `name`, `contract` and `run`. No span is added inside the program.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

use quva::pipeline::{CompilePass, PassContext, PassContract};
use quva::CompileError;

/// One accounted layer stage. Measured-phase stages partition the
/// per-operation time; setup stages partition the set-up time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Slot {
    CoreAllocate,
    CoreRoute,
    CorePortfolio,
    CoreSelect,
    CoreVerify,
    AnalysisAudit,
    AnalysisEsp,
    AnalysisEnvelope,
    CircuitQasm,
    SimAnalytic,
    SimRun,
    ServeDecode,
    ServeResolve,
    ServeCacheGet,
    ServeEnvelope,
    ServeExecCompile,
    ServeExecAudit,
    ServeExecSimulate,
    ServeCacheInsert,
    ServeEncode,
    SetupDevice,
    SetupCircuit,
    SetupCompile,
    SetupServe,
}

impl Slot {
    pub const ALL: [Slot; 24] = [
        Slot::CoreAllocate,
        Slot::CoreRoute,
        Slot::CorePortfolio,
        Slot::CoreSelect,
        Slot::CoreVerify,
        Slot::AnalysisAudit,
        Slot::AnalysisEsp,
        Slot::AnalysisEnvelope,
        Slot::CircuitQasm,
        Slot::SimAnalytic,
        Slot::SimRun,
        Slot::ServeDecode,
        Slot::ServeResolve,
        Slot::ServeCacheGet,
        Slot::ServeEnvelope,
        Slot::ServeExecCompile,
        Slot::ServeExecAudit,
        Slot::ServeExecSimulate,
        Slot::ServeCacheInsert,
        Slot::ServeEncode,
        Slot::SetupDevice,
        Slot::SetupCircuit,
        Slot::SetupCompile,
        Slot::SetupServe,
    ];

    /// The metric-name stem (`<stem>_share` in the result line).
    pub fn name(self) -> &'static str {
        match self {
            Slot::CoreAllocate => "core.allocate",
            Slot::CoreRoute => "core.route",
            Slot::CorePortfolio => "core.portfolio",
            Slot::CoreSelect => "core.select",
            Slot::CoreVerify => "core.verify",
            Slot::AnalysisAudit => "analysis.audit",
            Slot::AnalysisEsp => "analysis.esp",
            Slot::AnalysisEnvelope => "analysis.envelope",
            Slot::CircuitQasm => "circuit.qasm",
            Slot::SimAnalytic => "sim.analytic",
            Slot::SimRun => "sim.run",
            Slot::ServeDecode => "serve.decode",
            Slot::ServeResolve => "serve.resolve",
            Slot::ServeCacheGet => "serve.cache_get",
            Slot::ServeEnvelope => "serve.envelope",
            Slot::ServeExecCompile => "serve.execute_compile",
            Slot::ServeExecAudit => "serve.execute_audit",
            Slot::ServeExecSimulate => "serve.execute_simulate",
            Slot::ServeCacheInsert => "serve.cache_insert",
            Slot::ServeEncode => "serve.encode",
            Slot::SetupDevice => "setup.device",
            Slot::SetupCircuit => "setup.circuit",
            Slot::SetupCompile => "setup.compile",
            Slot::SetupServe => "setup.serve",
        }
    }

    pub fn is_setup(self) -> bool {
        matches!(
            self,
            Slot::SetupDevice | Slot::SetupCircuit | Slot::SetupCompile | Slot::SetupServe
        )
    }

    fn of_pass(name: &str) -> Option<Slot> {
        Some(match name {
            "allocate" => Slot::CoreAllocate,
            "route" => Slot::CoreRoute,
            "portfolio" => Slot::CorePortfolio,
            "select" => Slot::CoreSelect,
            "verify" => Slot::CoreVerify,
            _ => return None,
        })
    }
}

/// Nanosecond totals per [`Slot`], accumulated only while tracing is on.
#[derive(Debug, Default)]
pub struct Layers {
    on: AtomicBool,
    ns: [AtomicU64; Slot::ALL.len()],
}

impl Layers {
    pub fn set_tracing(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    fn tracing(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    /// Runs `f`, charging its wall time to `slot` when tracing is on.
    pub fn time<T>(&self, slot: Slot, f: impl FnOnce() -> T) -> T {
        if !self.tracing() {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.ns[slot as usize].fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        out
    }

    pub fn ns(&self, slot: Slot) -> f64 {
        self.ns[slot as usize].load(Ordering::Relaxed) as f64
    }

    /// Sum over the measured-phase (or, with `setup`, the set-up) slots.
    pub fn total_ns(&self, setup: bool) -> f64 {
        Slot::ALL
            .iter()
            .filter(|s| s.is_setup() == setup)
            .map(|&s| self.ns(s))
            .sum()
    }
}

/// A compile pass that charges its `run` to the matching core slot and
/// otherwise behaves exactly like the pass it wraps.
pub struct TimedPass<'a, P> {
    pub inner: P,
    pub layers: &'a Layers,
}

impl<P: CompilePass> CompilePass for TimedPass<'_, P> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn contract(&self) -> PassContract {
        self.inner.contract()
    }

    fn run(&self, cx: &mut PassContext<'_>) -> Result<(), CompileError> {
        match Slot::of_pass(self.inner.name()) {
            Some(slot) => self.layers.time(slot, || self.inner.run(cx)),
            None => self.inner.run(cx),
        }
    }
}
