//! Statistical cross-validation of the bit-parallel Monte-Carlo
//! kernel against the scalar oracle.
//!
//! The two kernels are *distinct deterministic samples* of the same
//! fault model, so their estimates can never be bit-compared — the
//! contract is statistical: over the table-1 suite under four mapping
//! policies, the bit-parallel estimate must land within ±4 binomial
//! standard errors of the scalar oracle's estimate (SE of the
//! *difference* of two independent binomial estimates, which is what
//! actually distributes the gap). Both estimates are additionally
//! checked against the analytic PST, so a bug that biased *both*
//! kernels the same way is still caught.
//!
//! ```text
//! mc_crossval [--trials N] [--seed N] [--out PATH]
//! ```
//!
//! Writes a machine-readable report (schema `quva-mc-crossval/v1`)
//! and exits nonzero if any case exceeds the ±4 SE band. At the
//! default 100k trials a true-null 4σ excursion has probability
//! ~6e-5 per case (~0.2% across the 28-case grid), so a failure is a
//! kernel bug, not noise.

use quva::MappingPolicy;
use quva_device::Device;
use quva_sim::{monte_carlo_pst_with, CoherenceModel, McEngine, McKernel};

struct Config {
    trials: u64,
    seed: u64,
    out: String,
}

fn parse_args() -> Config {
    let mut cfg = Config {
        trials: 100_000,
        seed: 7,
        out: "CROSSVAL.json".into(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .unwrap_or_else(|| die(&format!("{flag} requires a value")))
        };
        match arg.as_str() {
            "--trials" => {
                cfg.trials = value("--trials")
                    .parse()
                    .unwrap_or_else(|_| die("--trials expects an integer"));
            }
            "--seed" => {
                cfg.seed = value("--seed")
                    .parse()
                    .unwrap_or_else(|_| die("--seed expects an integer"));
            }
            "--out" => cfg.out = value("--out"),
            other => die(&format!("unknown argument `{other}`")),
        }
    }
    if cfg.trials == 0 {
        die("--trials must be positive");
    }
    cfg
}

fn die(msg: &str) -> ! {
    eprintln!("mc_crossval: {msg}");
    std::process::exit(2);
}

fn main() {
    let cfg = parse_args();
    let device = Device::ibm_q20();
    let policies: [(&str, MappingPolicy); 4] = [
        ("baseline", MappingPolicy::baseline()),
        ("vqm", MappingPolicy::vqm()),
        ("vqm-mah4", MappingPolicy::vqm_hop_limited()),
        ("vqa-vqm", MappingPolicy::vqa_vqm()),
    ];

    let mut rows = Vec::new();
    let mut worst_z = 0.0f64;
    let mut failures = 0usize;
    for bench in quva_benchmarks::table1_suite() {
        for (pname, policy) in &policies {
            // one compile per case; both kernels sample the same circuit
            let compiled = policy
                .compile(bench.circuit(), &device)
                .unwrap_or_else(|e| die(&format!("{pname} failed to compile {}: {e}", bench.name())));
            let physical = compiled.physical();
            let sample = |kernel: McKernel| {
                monte_carlo_pst_with(
                    &device,
                    physical,
                    cfg.trials,
                    cfg.seed,
                    CoherenceModel::Disabled,
                    McEngine::sequential().with_kernel(kernel),
                )
                .unwrap_or_else(|e| die(&format!("compiled circuits are routed: {e}")))
            };
            let scalar = sample(McKernel::Scalar);
            let bp = sample(McKernel::BitParallel);
            let analytic = compiled
                .analytic_pst(&device, CoherenceModel::Disabled)
                .unwrap_or_else(|e| die(&format!("compiled circuits are routed: {e}")))
                .pst;
            let n = cfg.trials as f64;
            // SE of the difference of two independent binomial
            // estimates; floored at one success-count quantum so a
            // PST of exactly 0 or 1 cannot divide by zero.
            let var = scalar.pst * (1.0 - scalar.pst) / n + bp.pst * (1.0 - bp.pst) / n;
            let se = var.sqrt().max(1.0 / n);
            let z = (bp.pst - scalar.pst).abs() / se;
            // each kernel must also agree with the analytic value —
            // a shared bias would cancel in the pairwise z
            let an_se = (analytic * (1.0 - analytic) / n).sqrt().max(1.0 / n);
            let z_an = ((bp.pst - analytic).abs() / an_se).max((scalar.pst - analytic).abs() / an_se);
            let ok = z <= 4.0 && z_an <= 4.0;
            if !ok {
                failures += 1;
            }
            worst_z = worst_z.max(z).max(z_an);
            println!(
                "{:<12} {:<9} scalar {:.5} bitparallel {:.5} analytic {:.5} z {:.2} z_analytic {:.2} {}",
                bench.name(),
                pname,
                scalar.pst,
                bp.pst,
                analytic,
                z,
                z_an,
                if ok { "ok" } else { "FAIL" }
            );
            rows.push(format!(
                "    {{\"bench\": \"{}\", \"policy\": \"{}\", \"scalar_pst\": {}, \
                 \"bitparallel_pst\": {}, \"analytic_pst\": {}, \"z\": {}, \"z_analytic\": {}, \
                 \"ok\": {}}}",
                bench.name(),
                pname,
                scalar.pst,
                bp.pst,
                analytic,
                z,
                z_an,
                ok
            ));
        }
    }

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"schema\": \"quva-mc-crossval/v1\",\n");
    json.push_str(&format!("  \"trials\": {},\n", cfg.trials));
    json.push_str(&format!("  \"seed\": {},\n", cfg.seed));
    json.push_str("  \"tolerance_se\": 4.0,\n");
    json.push_str(&format!("  \"worst_z\": {worst_z},\n"));
    json.push_str(&format!("  \"failures\": {failures},\n"));
    json.push_str("  \"cases\": [\n");
    json.push_str(&rows.join(",\n"));
    json.push_str("\n  ]\n}\n");
    std::fs::write(&cfg.out, &json).unwrap_or_else(|e| die(&format!("cannot write {}: {e}", cfg.out)));

    println!(
        "wrote {} ({} cases, worst z {worst_z:.2}, {failures} failure(s))",
        cfg.out,
        rows.len()
    );
    if failures > 0 {
        eprintln!("mc_crossval: FAIL — {failures} case(s) beyond ±4 SE of the scalar oracle");
        std::process::exit(1);
    }
}
