//! Heap-allocation budgets for the compile → audit → QASM path.
//!
//! Per-gate work on this path allocates nothing: a gate's operands are
//! an inline view, layers are one flat array, the router slices its
//! lookahead from pairs collected once, and QASM is written into one
//! pre-sized buffer and parsed from borrowed slices. What is left grows
//! with the circuit's size class (output buffers, tables per call), not
//! with a per-gate constant. Wall-clock gates cannot pin this: they
//! depend on the host and drift 10–20 % between runs. An allocation
//! count does not, so each stage of the `policy-sweep` path gets a
//! budget here, stated per call or per gate.
//!
//! The counter is a const-initialised thread-local, so tests running
//! on other threads do not disturb it, and the count is the same on
//! every host and at every thread count. It counts every call that
//! hands out memory: `alloc`, `alloc_zeroed` and `realloc`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use quva::pipeline::{CheckedPipeline, Pipeline};
use quva::MappingPolicy;
use quva_analysis::audit_compiled;
use quva_benchmarks::table1_suite;
use quva_circuit::{qasm, GateTimes, Layers, Schedule};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn bump() {
    // a thread being torn down has no counter left to bump
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` with the caller's arguments;
// the counter is a plain thread-local cell that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f`, returning its value and the allocations it made on this
/// thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let value = f();
    (value, ALLOCATIONS.with(Cell::get) - before)
}

/// One stage's allocations over the suite, and what they are divided
/// by (calls or gates).
#[derive(Default)]
struct Tally {
    allocations: u64,
    calls: u64,
    gates: u64,
}

impl Tally {
    fn add(&mut self, allocations: u64, gates: usize) {
        self.allocations += allocations;
        self.calls += 1;
        self.gates += gates as u64;
    }

    fn per_call(&self) -> f64 {
        self.allocations as f64 / self.calls as f64
    }

    fn per_gate(&self) -> f64 {
        self.allocations as f64 / self.gates as f64
    }
}

#[test]
fn the_policy_sweep_path_stays_within_its_allocation_budgets() {
    let device = quva_serve::parse_device("q20").unwrap();
    let suite = table1_suite();
    // the `policy-sweep` pipelines: the four paper policies, then VQM
    // portfolio routing at width 4 (without the verify pass, which the
    // audit below covers)
    let mut pipelines: Vec<CheckedPipeline<'static>> = ["baseline", "vqm", "vqm-mah:4", "vqa-vqm"]
        .iter()
        .map(|spec| {
            let policy = quva_serve::parse_policy(spec).unwrap();
            Pipeline::for_policy(&policy).validate().unwrap()
        })
        .collect();
    pipelines.push(
        Pipeline::for_policy_portfolio(&MappingPolicy::vqm(), 4)
            .validate()
            .unwrap(),
    );
    // the device builds its distance tables on first use; build them
    // before counting, as every compile after the first finds them
    for pipeline in &pipelines {
        for bench in &suite {
            pipeline.run(bench.circuit(), &device).unwrap();
        }
    }

    let [mut run, mut audit, mut emit, mut parse, mut layers, mut asap]: [Tally; 6] = Default::default();
    let mut cases = 0;
    for pipeline in &pipelines {
        for bench in &suite {
            let source = bench.circuit();
            let (compiled, n) = counted(|| pipeline.run(source, &device).unwrap());
            let physical = compiled.physical();
            let gates = physical.len();
            run.add(n, gates);
            let (report, n) = counted(|| audit_compiled(source, &device, &compiled));
            assert!(report.esp.point > 0.0);
            audit.add(n, gates);
            let (text, n) = counted(|| qasm::to_qasm(physical));
            emit.add(n, gates);
            let (parsed, n) = counted(|| qasm::from_qasm(&text).unwrap());
            assert_eq!(parsed.len(), gates);
            parse.add(n, gates);
            let (l, n) = counted(|| Layers::of(physical));
            assert!(l.len() <= gates);
            layers.add(n, gates);
            let (s, n) = counted(|| Schedule::asap(physical, GateTimes::default()));
            assert!(s.total_duration_ns() > 0.0);
            asap.add(n, gates);
            cases += 1;
        }
    }
    assert_eq!(cases, 35);

    let report = format!(
        "run {:.3}/gate, audit_compiled {:.3}/gate, to_qasm {:.2}/call, from_qasm {:.2}/call, \
         Layers::of {:.2}/call, Schedule::asap {:.2}/call",
        run.per_gate(),
        audit.per_gate(),
        emit.per_call(),
        parse.per_call(),
        layers.per_call(),
        asap.per_call(),
    );
    // each budget is the measured count with at most 1.5x headroom
    let over: Vec<String> = [
        ("pipeline run per gate", run.per_gate(), 3.5),
        ("audit_compiled per gate", audit.per_gate(), 3.0),
        ("to_qasm per call", emit.per_call(), 1.5),
        ("from_qasm per call", parse.per_call(), 12.0),
        ("Layers::of per call", layers.per_call(), 6.0),
        ("Schedule::asap per call", asap.per_call(), 10.5),
    ]
    .into_iter()
    .filter(|&(_, measured, budget)| measured > budget)
    .map(|(what, measured, budget)| format!("{what}: {measured:.3} over {budget}"))
    .collect();
    assert!(
        over.is_empty(),
        "allocation budgets exceeded: {over:?} (measured {report})"
    );
}
