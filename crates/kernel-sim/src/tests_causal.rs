//! Integration tests for causal what-if profiling (DESIGN.md §15): the
//! identity guarantee (`causal = None` ≡ all-1/1) over a sample of kernel
//! configurations, and the scaling semantics on a real workload.

use ppc_machine::pmu::PmcEvent;
use ppc_machine::MachineConfig;
use ppc_mmu::addr::PAGE_SIZE;

use crate::causal::{CausalConfig, CausalPath, Ratio};
use crate::kconfig::KernelConfig;
use crate::kernel::Kernel;
use crate::prof::Subsystem;
use crate::sched::USER_BASE;

/// The same every-path workload the trace identity tests use: faults,
/// reloads, flushes, signals, fork/COW, reclaim, idle, syscalls.
fn workload(k: &mut Kernel) {
    let a = k.spawn_process(16).unwrap();
    let b = k.spawn_process(8).unwrap();
    k.switch_to(a);
    k.user_write(USER_BASE, 8 * PAGE_SIZE).unwrap();
    k.sys_signal_install();
    k.signal_roundtrip(USER_BASE).unwrap();
    let child = k.sys_fork().unwrap();
    k.switch_to(child);
    k.user_write(USER_BASE, 2 * PAGE_SIZE).unwrap();
    k.exit_current();
    k.switch_to(b);
    k.user_read(USER_BASE, 4 * PAGE_SIZE).unwrap();
    let m = k.sys_mmap(None, 32 * PAGE_SIZE);
    k.prefault(m, 32).unwrap();
    k.sys_munmap(m, 32 * PAGE_SIZE);
    k.run_idle(40_000);
    k.sys_null();
}

fn run(machine: MachineConfig, mut cfg: KernelConfig, causal: Option<CausalConfig>) -> Kernel {
    cfg.causal = causal;
    let mut k = Kernel::boot(machine, cfg);
    workload(&mut k);
    k
}

/// Every purely observational observer switched on at once: tracing, a
/// counting PMU, epoch telemetry, the checker, tail forensics and identity
/// causal. All of them read the one kernel span stack, and none may
/// perturb the run.
fn all_observers() -> KernelConfig {
    let mut cfg = KernelConfig::optimized();
    cfg.trace = true;
    cfg.pmu = Some(crate::kconfig::PmuConfig::counting(
        PmcEvent::TlbMissBoth,
        PmcEvent::CacheMissBoth,
    ));
    cfg.telemetry = Some(crate::telemetry::TelemetryConfig::with_epoch(10_000));
    cfg.check = Some(crate::check::CheckConfig::full());
    cfg.tail = Some(crate::tail::TailConfig::auto());
    cfg.causal = Some(CausalConfig::identity());
    cfg
}

/// A small matrix sample: both presets, both processor families, plus the
/// observability stack layered on (tracing + sampling PMU + mmtune, and
/// every purely observational observer at once), since those are exactly
/// the features whose own cycle-identity guarantees a buggy causal layer
/// — or a span stack they disagree about — would break.
fn config_sample() -> Vec<(MachineConfig, KernelConfig)> {
    let mut instrumented = KernelConfig::optimized();
    instrumented.trace = true;
    instrumented.pmu = Some(crate::kconfig::PmuConfig::sampling(4096));
    instrumented.mmtune = Some(crate::tune::MmtuneConfig::default());
    vec![
        (MachineConfig::ppc604_185(), KernelConfig::unoptimized()),
        (MachineConfig::ppc604_185(), KernelConfig::optimized()),
        (MachineConfig::ppc603_133(), KernelConfig::optimized()),
        (MachineConfig::ppc604_185(), instrumented),
        (MachineConfig::ppc604_185(), all_observers()),
    ]
}

#[test]
fn all_one_causal_is_cycle_and_counter_identical_across_matrix_sample() {
    for (machine, cfg) in config_sample() {
        let plain = run(machine, cfg, None);
        let ident = run(machine, cfg, Some(CausalConfig::identity()));
        assert_eq!(
            ident.machine.cycles, plain.machine.cycles,
            "all-1/1 causal must charge identical cycles ({})",
            cfg.summary()
        );
        assert_eq!(
            ident.stats, plain.stats,
            "and count identical kernel events ({})",
            cfg.summary()
        );
        let (_, snap_i) = ident.stats_snapshot();
        let (_, snap_p) = plain.stats_snapshot();
        assert_eq!(snap_i, snap_p, "down to the cache/TLB monitors");
    }
}

#[test]
fn every_observer_at_once_is_cycle_and_counter_identical_to_plain() {
    let machine = MachineConfig::ppc604_185();
    let plain = run(machine, KernelConfig::optimized(), None);
    let observed = run(machine, all_observers(), Some(CausalConfig::identity()));
    assert_eq!(observed.machine.cycles, plain.machine.cycles);
    assert_eq!(observed.stats, plain.stats);
    let (_, snap_o) = observed.stats_snapshot();
    let (_, snap_p) = plain.stats_snapshot();
    assert_eq!(snap_o, snap_p, "down to the cache/TLB monitors");
    assert_eq!(observed.span_depth(), 0);
    assert_eq!(plain.span_depth(), 0);
}

#[test]
fn zeroing_everything_freezes_the_clock_but_not_the_state() {
    let zero = CausalConfig {
        subsystem: [Ratio::ZERO; crate::prof::NUM_SUBSYSTEMS],
        path: [Ratio::ZERO; crate::causal::NUM_PATHS],
    };
    let cfg = KernelConfig::optimized();
    let k = run(MachineConfig::ppc604_185(), cfg, Some(zero));
    // Every *charge* scales to zero, but the workload's run_idle(40_000)
    // models an I/O stall, and Machine::wait bypasses the causal scale — a
    // virtual speedup cannot make a device answer sooner. With all work
    // free, exactly the stall remains on the clock.
    assert_eq!(
        k.machine.cycles, 40_000,
        "all work free; only the I/O wait remains"
    );
    let plain = run(MachineConfig::ppc604_185(), cfg, None);
    // The run still *happened*: same faults, reloads, switches — causal
    // scaling touches the clock, never the state evolution.
    assert_eq!(k.stats.page_faults, plain.stats.page_faults);
    assert_eq!(k.stats.tlb_reloads, plain.stats.tlb_reloads);
    assert_eq!(k.stats.ctx_switches, plain.stats.ctx_switches);
}

#[test]
fn scaled_run_is_deterministic() {
    let causal = CausalConfig::identity()
        .scale_path(CausalPath::TlbReload, Ratio { num: 1, den: 2 })
        .scale_subsystem(Subsystem::Sched, Ratio { num: 3, den: 4 });
    let cfg = KernelConfig::optimized();
    let a = run(MachineConfig::ppc604_185(), cfg, Some(causal));
    let b = run(MachineConfig::ppc604_185(), cfg, Some(causal));
    assert_eq!(a.machine.cycles, b.machine.cycles);
    assert_eq!(a.stats, b.stats);
}

#[test]
fn speeding_up_a_hot_path_speeds_up_the_run_monotonically() {
    let cfg = KernelConfig::unoptimized();
    let cycles_at = |f: u32| {
        let causal =
            CausalConfig::identity().scale_path(CausalPath::TlbReload, Ratio::speedup_pct(f));
        run(MachineConfig::ppc604_185(), cfg, Some(causal))
            .machine
            .cycles
    };
    let c0 = cycles_at(0);
    let c25 = cycles_at(25);
    let c75 = cycles_at(75);
    let c100 = cycles_at(100);
    assert_eq!(
        c0,
        run(MachineConfig::ppc604_185(), cfg, None).machine.cycles,
        "0% speedup is the identity"
    );
    assert!(c25 < c0, "25% faster reloads must shorten the run");
    assert!(c75 < c25);
    assert!(c100 < c75, "free reloads are the lower bound");
    assert!(c100 > 0, "but only the reload extent got cheaper");
}

#[test]
fn subsystem_self_time_scaling_affects_only_that_bucket() {
    // Zero the Flush subsystem's self-time; the profiler (running in the
    // same kernel) must observe a Flush bucket of ~0 self cycles while
    // other buckets keep charging.
    let mut cfg = KernelConfig::optimized();
    cfg.trace = true;
    let causal = CausalConfig::identity().scale_subsystem(Subsystem::Flush, Ratio::ZERO);
    let mut k = run(MachineConfig::ppc604_185(), cfg, Some(causal));
    let now = k.machine.cycles;
    let t = k.tracer.as_mut().unwrap();
    t.prof.finish(now);
    assert_eq!(
        t.prof.self_cycles(Subsystem::Flush),
        0,
        "flush self-time was virtually zeroed"
    );
    assert!(t.prof.self_cycles(Subsystem::Translate) > 0);
    assert!(t.prof.self_cycles(Subsystem::Sched) > 0);
}

#[test]
fn causal_state_is_exposed_and_balanced_at_rest() {
    // Every path extent at 1/2: at rest the scale is back to the User
    // ratio (1/1) only if every path the workload entered was left again.
    let causal = CausalPath::ALL
        .into_iter()
        .fold(CausalConfig::identity(), |c, p| {
            c.scale_path(p, Ratio { num: 1, den: 2 })
        });
    let k = run(MachineConfig::ppc604_185(), KernelConfig::optimized(), Some(causal));
    assert_eq!(k.span_depth(), 0, "span stack balanced at rest");
    let st = k.causal.as_ref().expect("causal state installed");
    assert_eq!(st.scale(Subsystem::User), (1, 1), "every path extent closed");
    assert_eq!(k.machine.scale(), (1, 1));
}
