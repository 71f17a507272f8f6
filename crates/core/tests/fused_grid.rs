//! Integration gate: the fused fast path (DESIGN.md §16) is a pure
//! *host-side encoding choice* — a fused run and a layered run of the same
//! cell are simulated-cycle- and counter-identical across the *entire*
//! benchmark grid: every machine row, every kernel variant, every workload.
//!
//! The grid keeps the checker out of the picture, so the only thing varied
//! is the `fused` flag itself (`check_grid.rs` compares checked against
//! bare runs, both fused). The chaos tests below arm the checker: the fused
//! path then audits every BAT/TLB hit through its hook, and must count,
//! pass and fail exactly as the layered path does.

use kernel_sim::KernelConfig;
use mmu_tricks::chaos::{chaos_kernel_config, chaos_report_with, ChaosConfig, ChaosFailure};
use mmu_tricks::matrix::{paper_machines, paper_variants, run_cell, WORKLOADS};
use mmu_tricks::Depth;

/// Fuzzed steps per chaos program (the benchmark's and the gate's length).
const CHAOS_STEPS: u32 = 300;

/// `cfg`'s chaos kernel with the fused path forced on or off.
fn chaos_kcfg(cfg: &ChaosConfig, fused: bool) -> KernelConfig {
    KernelConfig {
        fused,
        ..chaos_kernel_config(cfg)
    }
}

#[test]
fn fused_and_layered_paths_are_identical_across_the_full_grid() {
    let machines = paper_machines();
    let variants = paper_variants();
    let mut cells = 0;
    for m in &machines {
        for (name, cfg) in &variants {
            for &wl in WORKLOADS {
                let mut layered = *cfg;
                layered.fused = false;
                let mut fused = *cfg;
                fused.fused = true;
                let a = run_cell(m, name, fused, wl, Depth::Quick);
                let b = run_cell(m, name, layered, wl, Depth::Quick);
                assert_eq!(
                    a.cycles, b.cycles,
                    "fused path shifted cycles at {} / {name} / {wl}",
                    m.id
                );
                assert_eq!(
                    a.stats, b.stats,
                    "fused path perturbed counters at {} / {name} / {wl}",
                    m.id
                );
                cells += 1;
            }
        }
    }
    assert_eq!(
        cells,
        machines.len() * variants.len() * WORKLOADS.len(),
        "grid shrank: the gate no longer covers every coordinate"
    );
    assert_eq!(cells, 96, "expected 4 machines x 8 configs x 3 workloads");
}

#[test]
fn checked_chaos_is_identical_fused_and_layered() {
    for seed in 0..32 {
        let cfg = ChaosConfig::checked(seed, CHAOS_STEPS);
        let run = |fused| {
            chaos_report_with(&cfg, chaos_kcfg(&cfg, fused), |_| {})
                .unwrap_or_else(|e| panic!("seed {seed} fused={fused}: {e}"))
        };
        let (fused, layered) = (run(true), run(false));
        assert!(fused.checked_observations > 0, "seed {seed}: oracle idle");
        assert_eq!(fused, layered, "seed {seed}: checked fused run diverged");
    }
}

#[test]
fn planted_stale_tlb_bug_fails_identically_fused_and_layered() {
    for seed in 1..5 {
        let cfg = ChaosConfig::checked(seed, CHAOS_STEPS);
        let run = |fused| -> Box<ChaosFailure> {
            chaos_report_with(&cfg, chaos_kcfg(&cfg, fused), |k| {
                k.set_buggy_skip_vsid_flush(true)
            })
            .expect_err("the planted stale-TLB bug escaped the checker")
        };
        let (fused, layered) = (run(true), run(false));
        assert!(fused.message.contains("stale"), "{}", fused.message);
        assert!(fused.message.contains(" cycle="), "{}", fused.message);
        assert_eq!(fused.step, layered.step, "seed {seed}: failing step moved");
        assert_eq!(
            fused.message, layered.message,
            "seed {seed}: violation text moved"
        );
    }
}
