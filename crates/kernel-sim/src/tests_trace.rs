//! Integration tests for the observability layer: zero-overhead guarantee,
//! attribution accounting, and event capture on a real workload.

use ppc_machine::MachineConfig;
use ppc_mmu::addr::PAGE_SIZE;

use crate::kconfig::KernelConfig;
use crate::kernel::Kernel;
use crate::prof::Subsystem;
use crate::sched::USER_BASE;
use crate::trace::{LatencyPath, TraceEvent};

/// A workload that exercises every instrumented path: faults, reloads,
/// flushes, signals, context switches, fork/COW, reclaim and idle.
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

fn run(trace: bool) -> Kernel {
    let mut cfg = KernelConfig::optimized();
    cfg.trace = trace;
    let mut k = Kernel::boot(MachineConfig::ppc604_185(), cfg);
    workload(&mut k);
    k
}

#[test]
fn tracing_is_cycle_identical_to_disabled() {
    let off = run(false);
    let on = run(true);
    assert_eq!(
        on.machine.cycles, off.machine.cycles,
        "a traced run must charge exactly the same cycles"
    );
    assert_eq!(on.stats, off.stats, "and count exactly the same events");
    let (_, snap_on) = on.stats_snapshot();
    let (_, snap_off) = off.stats_snapshot();
    assert_eq!(snap_on, snap_off, "down to the cache/TLB monitors");
    assert!(off.tracer.is_none());
    assert!(on.tracer.is_some());
}

#[test]
fn attribution_sums_to_total_cycles() {
    let mut k = run(true);
    assert_eq!(k.span_depth(), 0, "all spans must be balanced at rest");
    let now = k.machine.cycles;
    let t = k.tracer.as_mut().unwrap();
    t.prof.finish(now);
    assert_eq!(
        t.prof.total(),
        now - t.prof.window_start(),
        "every charged cycle lands in exactly one bucket"
    );
    // The workload ran real kernel work in the major subsystems.
    for s in [
        Subsystem::Translate,
        Subsystem::HtabInsert,
        Subsystem::PageFault,
        Subsystem::Flush,
        Subsystem::Sched,
        Subsystem::Syscall,
        Subsystem::Signal,
        Subsystem::Idle,
        Subsystem::Exec,
    ] {
        assert!(t.prof.self_cycles(s) > 0, "no cycles attributed to {s:?}");
    }
}

#[test]
fn ring_captures_the_workloads_events() {
    let k = run(true);
    let t = k.tracer.as_ref().unwrap();
    assert!(!t.ring.is_empty());
    let has = |pred: &dyn Fn(&TraceEvent) -> bool| t.ring.iter().any(|r| pred(&r.event));
    assert!(has(&|e| matches!(e, TraceEvent::TlbMiss { .. })));
    assert!(has(&|e| matches!(e, TraceEvent::HtabInsert { .. })));
    assert!(has(&|e| matches!(e, TraceEvent::PageFault { .. })));
    assert!(has(&|e| matches!(e, TraceEvent::CowFault { .. })));
    assert!(has(&|e| matches!(e, TraceEvent::CtxSwitch { .. })));
    assert!(has(&|e| matches!(e, TraceEvent::Signal { .. })));
    assert!(has(&|e| matches!(e, TraceEvent::Syscall)));
    assert!(has(&|e| matches!(e, TraceEvent::Idle { .. })));
    // Cycle stamps are monotone oldest -> newest.
    let stamps: Vec<u64> = t.ring.iter().map(|r| r.cycle).collect();
    assert!(stamps.windows(2).all(|w| w[0] <= w[1]));
}

#[test]
fn latency_histograms_cover_all_three_paths() {
    let k = run(true);
    let t = k.tracer.as_ref().unwrap();
    for path in LatencyPath::ALL {
        let h = t.latency(path);
        assert!(h.count() > 0, "no samples for {path:?}");
        let (p50, p90, p99) = h.percentiles();
        assert!(p50 > 0 && p50 <= p90 && p90 <= p99, "{path:?}: {p50}/{p90}/{p99}");
        assert!(p99 <= h.max());
    }
}

#[test]
fn pteg_heatmap_matches_ring_inserts() {
    let k = run(true);
    let t = k.tracer.as_ref().unwrap();
    let total: u32 = t.pteg_inserts.iter().sum();
    let collisions: u32 = t.pteg_collisions.iter().sum();
    assert!(total > 0, "workload must insert PTEs");
    assert!(collisions <= total);
    // The heatmap counts every insert, including those whose ring records
    // were overwritten.
    let ring_inserts = t
        .ring
        .iter()
        .filter(|r| matches!(r.event, TraceEvent::HtabInsert { .. }))
        .count() as u64;
    assert!(u64::from(total) >= ring_inserts);
    assert_eq!(t.pteg_inserts.len(), crate::layout::HTAB_GROUPS as usize);
}

#[test]
fn chrome_export_of_a_real_run_is_balanced() {
    let k = run(true);
    let j = k.tracer.as_ref().unwrap().chrome_trace_json();
    assert!(j.contains("\"traceEvents\":["));
    assert!(j.contains("\"name\":\"tlb_miss\""));
    assert_eq!(j.matches('{').count(), j.matches('}').count());
    assert_eq!(j.matches('[').count(), j.matches(']').count());
}

#[test]
fn fatal_signal_paths_keep_the_span_stack_balanced() {
    let mut cfg = KernelConfig::optimized();
    cfg.trace = true;
    let mut k = Kernel::boot(MachineConfig::ppc604_185(), cfg);
    let pid = k.spawn_process(4).unwrap();
    k.switch_to(pid);
    k.user_write(USER_BASE, PAGE_SIZE).unwrap();
    // SIGSEGV: the page-fault span unwinds through the error return.
    k.user_write(0x6000_0000, 4).unwrap_err();
    assert_eq!(k.stats.sigsegvs, 1);
    assert_eq!(k.span_depth(), 0, "spans must unwind on fatal signals");
    let now = k.machine.cycles;
    let t = k.tracer.as_mut().unwrap();
    t.prof.finish(now);
    assert_eq!(t.prof.total(), now - t.prof.window_start());
    assert!(t
        .ring
        .iter()
        .any(|r| matches!(r.event, TraceEvent::Signal { fatal: true })));
}

#[test]
fn span_stack_is_balanced_without_tracing() {
    // The kernel keeps its span stack with every observer off, so balance
    // holds — and is checkable — in a plain run too.
    let k = run(false);
    assert!(k.tracer.is_none());
    assert_eq!(k.span_depth(), 0, "all spans must be balanced at rest");
    let mut k = Kernel::boot(MachineConfig::ppc604_185(), KernelConfig::optimized());
    let pid = k.spawn_process(4).unwrap();
    k.switch_to(pid);
    k.user_write(0x6000_0000, 4).unwrap_err();
    assert_eq!(k.stats.sigsegvs, 1);
    assert_eq!(k.span_depth(), 0, "spans must unwind on fatal signals");
}

/// A run with optional tracing and optional epoch telemetry (tight epochs so
/// the quick workload crosses many boundaries).
fn run_obs(trace: bool, telemetry: bool) -> Kernel {
    let mut cfg = KernelConfig::optimized();
    cfg.trace = trace;
    if telemetry {
        cfg.telemetry = Some(crate::telemetry::TelemetryConfig::with_epoch(10_000));
    }
    let mut k = Kernel::boot(MachineConfig::ppc604_185(), cfg);
    workload(&mut k);
    k.telemetry_finish();
    k
}

#[test]
fn telemetry_is_cycle_identical_to_disabled() {
    let off = run_obs(false, false);
    let on = run_obs(false, true);
    assert_eq!(
        on.machine.cycles, off.machine.cycles,
        "the epoch sampler must never charge cycles"
    );
    assert_eq!(on.stats, off.stats);
    let (_, snap_on) = on.stats_snapshot();
    let (_, snap_off) = off.stats_snapshot();
    assert_eq!(snap_on, snap_off, "down to the cache/TLB monitors");
    let t = on.telemetry.as_ref().unwrap();
    assert!(t.epochs.len() >= 4, "tight epochs must yield a real series");
}

#[test]
fn telemetry_never_evicts_trace_events() {
    // Trace ring and epoch sampler on together: the sampler stores samples
    // in its own buffer, so the ring must see the exact same event stream —
    // same pushes, same drops, same retained records — and the run must stay
    // cycle-identical.
    let bare = run_obs(true, false);
    let both = run_obs(true, true);
    assert_eq!(both.machine.cycles, bare.machine.cycles);
    let rb = &bare.tracer.as_ref().unwrap().ring;
    let rt = &both.tracer.as_ref().unwrap().ring;
    assert_eq!(rt.total_pushed(), rb.total_pushed(), "event streams diverge");
    assert_eq!(rt.dropped(), rb.dropped(), "sampling evicted trace events");
    assert!(rt.iter().zip(rb.iter()).all(|(a, b)| a == b));
    assert!(!both.telemetry.as_ref().unwrap().epochs.is_empty());
}

#[test]
fn telemetry_series_track_mmu_state() {
    let k = run_obs(false, true);
    let t = k.telemetry.as_ref().unwrap();
    // Sample cycles strictly increase; epoch indices never go backwards
    // (the final tail sample may share the last boundary's epoch).
    for w in t.epochs.windows(2) {
        assert!(w[1].epoch >= w[0].epoch);
        assert!(w[1].cycle > w[0].cycle);
    }
    for e in &t.epochs {
        assert_eq!(e.zombie_ptes, e.htab_valid - e.htab_live);
        assert!(e.htab_hit_ppm <= 1_000_000);
    }
    // The workload faults real pages: occupancy and reloads must show up.
    assert!(t.epochs.iter().any(|e| e.htab_valid > 0));
    assert!(t.epochs.iter().any(|e| e.tlb_reloads > 0));
    // The kernel runs with BATs on: kernel text never competes for TLB
    // entries, so kernel-side residency stays at zero while user pages fill.
    assert!(t.epochs.iter().any(|e| e.tlb_user > 0));
    // Window deltas must sum to the run totals (the final sample closes the
    // tail of the series).
    let reloads: u64 = t.epochs.iter().map(|e| e.tlb_reloads).sum();
    assert_eq!(reloads, k.stats.tlb_reloads);
    let hits: u64 = t.epochs.iter().map(|e| e.htab_hits).sum();
    assert_eq!(hits, k.stats.htab_hits);
}
