//! Criterion micro-benchmarks for the host-profiler phase taxonomy's hot
//! paths — the per-phase companions to `repro hostbench`'s whole-workload
//! numbers. Group names match `kernel_sim::hostprof::HostPhase::name()`, so
//! a hostbench phase table row and a criterion group here describe the same
//! code.
//!
//! The `hook_overhead` group measures the profiler's own tax on the hottest
//! hook site (`Machine::charge`): `dormant` is the price every ordinary run
//! pays (one relaxed atomic load), `armed` is the price a hostbench run
//! pays (span counting plus stride-sampled timing). `span_transition` is
//! the kernel's own per-crossing tax with every observer off: a null
//! syscall opens and closes two kernel spans.
//!
//! The `checker` group times one `Kernel::check_finish` — a heavy sweep
//! over the whole hash table plus one invariant pass, the checker's
//! per-epoch work — on a checked kernel after a fixed workload.
//!
//! The `copy` group times whole kernel copy loops (`sys_read`, a pipe
//! transfer, `user_write`): the per-line references behind the LmBench
//! bandwidth rows.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use kernel_sim::hostprof;
use kernel_sim::sched::USER_BASE;
use kernel_sim::trace::{TraceEvent, TraceRecord, TraceRing};
use kernel_sim::{CheckConfig, Kernel, KernelConfig};
use ppc_cache::hierarchy::{MemSystem, MemSystemConfig};
use ppc_machine::{Machine, MachineConfig};
use ppc_mmu::addr::{EffectiveAddress, Vsid};
use ppc_mmu::htab::HashTable;
use ppc_mmu::pte::Pte;
use ppc_mmu::tlb::TlbEntry;
use ppc_mmu::translate::AccessType;

fn pte(vsid: u32, pi: u32) -> Pte {
    Pte {
        valid: true,
        vsid: Vsid::new(vsid),
        secondary: false,
        page_index: pi,
        rpn: pi + 0x300,
        referenced: false,
        changed: false,
        cache_inhibited: false,
        pp: 2,
    }
}

/// translate: the full `Mmu::translate` path (segments → BAT → TLB), the
/// htab insert, and the htab rehash — the paths behind every memory
/// reference and every reload.
fn bench_translate(c: &mut Criterion) {
    let mut g = c.benchmark_group("translate");
    g.bench_function("mmu_tlb_hit", |b| {
        let mut m = Machine::new(MachineConfig::ppc604_133());
        for pi in 0..64 {
            m.mmu.reload(
                AccessType::DataRead,
                TlbEntry {
                    vsid: Vsid::new(0),
                    page_index: pi,
                    rpn: pi,
                    cached: true,
                    writable: true,
                },
            );
        }
        let mut pi = 0u32;
        b.iter(|| {
            pi = (pi + 1) % 64;
            black_box(
                m.mmu
                    .translate(EffectiveAddress(pi << 12), AccessType::DataRead),
            )
        });
    });
    g.bench_function("mmu_tlb_miss", |b| {
        let mut m = Machine::new(MachineConfig::ppc604_133());
        let mut pi = 0u32;
        b.iter(|| {
            pi = pi.wrapping_add(1) & 0xffff;
            black_box(
                m.mmu
                    .translate(EffectiveAddress(pi << 12), AccessType::DataRead),
            )
        });
    });
    g.bench_function("htab_insert", |b| {
        let mut h = HashTable::new(2048, 0);
        let mut pi = 0u32;
        b.iter(|| {
            pi = pi.wrapping_add(1) & 0xffff;
            black_box(h.insert(pte(3, pi)))
        });
    });
    g.sample_size(20);
    g.bench_function("htab_rehash_2048_4096", |b| {
        let mut h = HashTable::new(2048, 0);
        for pi in 0..4096 {
            h.insert(pte(5, pi));
        }
        let mut up = true;
        b.iter(|| {
            let target = if up { 4096 } else { 2048 };
            up = !up;
            black_box(h.resize(target))
        });
    });
    g.finish();
}

/// cache: the `MemSystem` read path, hit and miss — the single hottest
/// phase in the hostbench profile.
fn bench_cache(c: &mut Criterion) {
    let mut g = c.benchmark_group("cache");
    g.bench_function("data_read_hit", |b| {
        let mut mem = MemSystem::new(MemSystemConfig::ppc604());
        mem.data_read(0x4000, true);
        b.iter(|| black_box(mem.data_read(0x4000, true)));
    });
    g.bench_function("data_read_streaming_miss", |b| {
        let mut mem = MemSystem::new(MemSystemConfig::ppc604());
        let mut pa = 0u32;
        b.iter(|| {
            // Stride past the line size so most accesses miss and evict.
            pa = pa.wrapping_add(4096);
            black_box(mem.data_read(pa, true))
        });
    });
    g.finish();
}

/// charge: the cycle-ledger add — trivial work, but called once per priced
/// event, so hook overhead shows up here first.
fn bench_charge(c: &mut Criterion) {
    let mut g = c.benchmark_group("charge");
    g.bench_function("charge_1", |b| {
        let mut m = Machine::new(MachineConfig::ppc604_133());
        b.iter(|| {
            m.charge(1);
            black_box(m.cycles)
        });
    });
    g.finish();
}

/// trace_write: one ring push, steady state (ring full, overwriting).
fn bench_trace_write(c: &mut Criterion) {
    let mut g = c.benchmark_group("trace_write");
    g.bench_function("ring_push", |b| {
        let mut ring = TraceRing::new(4096);
        let mut cycle = 0u64;
        b.iter(|| {
            cycle += 1;
            ring.push(TraceRecord {
                cycle,
                pid: 1,
                event: TraceEvent::TlbMiss {
                    ea: cycle as u32,
                    kernel: false,
                },
            });
            black_box(ring.len())
        });
    });
    g.finish();
}

/// fused_hot_paths: the common-case memory reference — a resident load and
/// a resident straight-line fetch — served by the fused single-function
/// fast path versus the layered translate→charge→cache path (DESIGN.md
/// §16). Both variants simulate identical cycles and counters; the host-ns
/// ratio between the `_fused` and `_layered` rows is the microscopic
/// version of the `repro hostbench` headline speedup.
fn bench_fused_hot_paths(c: &mut Criterion) {
    let mut g = c.benchmark_group("fused_hot_paths");
    let boot = |fused: bool| {
        let mut cfg = KernelConfig::optimized();
        cfg.fused = fused;
        let mut k = Kernel::boot(MachineConfig::ppc604_133(), cfg);
        let pid = k.spawn_process(8).unwrap();
        k.switch_to(pid);
        k.prefault(USER_BASE, 8).unwrap();
        // Warm the TLB and both caches so the loop measures pure hits.
        for i in 0..64 {
            let ea = EffectiveAddress(USER_BASE + i * 32);
            k.data_ref(ea, false).unwrap();
            k.exec_code(ea, 8).unwrap();
        }
        k
    };
    // Stride cache lines *within* one page: page-stride addresses all land
    // in cache set 0 and would measure the miss path instead of the hit.
    for (name, fused) in [("data_ref_fused", true), ("data_ref_layered", false)] {
        g.bench_function(name, |b| {
            let mut k = boot(fused);
            let mut i = 0u32;
            b.iter(|| {
                i = (i + 1) % 64;
                black_box(k.data_ref(EffectiveAddress(USER_BASE + i * 32), false).unwrap())
            });
        });
    }
    for (name, fused) in [("exec_code_fused", true), ("exec_code_layered", false)] {
        g.bench_function(name, |b| {
            let mut k = boot(fused);
            let mut i = 0u32;
            b.iter(|| {
                i = (i + 1) % 64;
                black_box(k.exec_code(EffectiveAddress(USER_BASE + i * 32), 8).unwrap())
            });
        });
    }
    g.finish();
}

/// copy: the kernel's copy loops on an optimized 604/133, everything warm
/// — a 64 KiB `sys_read` of a cached file (`bw_file_rd`'s inner call), a
/// 64 KiB pipe transfer between two processes (`bw_pipe`'s), and a 16 KiB
/// `user_write`. Their per-line references run as fused line runs
/// (DESIGN.md §16); every iteration simulates the same work.
fn bench_copy(c: &mut Criterion) {
    const CHUNK: u32 = 64 * 1024;
    let mut g = c.benchmark_group("copy");
    g.sample_size(20);
    let boot = || Kernel::boot(MachineConfig::ppc604_133(), KernelConfig::optimized());
    let process = |k: &mut Kernel| {
        let pid = k.spawn_process(32).unwrap();
        k.switch_to(pid);
        k.prefault(USER_BASE, CHUNK / 4096).unwrap();
        pid
    };
    g.bench_function("sys_read_64k", |b| {
        let mut k = boot();
        process(&mut k);
        let f = k.create_file(CHUNK).unwrap();
        k.sys_read(f, 0, USER_BASE, CHUNK).unwrap();
        b.iter(|| black_box(k.sys_read(f, 0, USER_BASE, CHUNK).unwrap()));
    });
    g.bench_function("pipe_transfer_64k", |b| {
        let mut k = boot();
        let (w, r) = (process(&mut k), process(&mut k));
        let p = k.pipe_create().unwrap();
        k.pipe_transfer(p, w, r, USER_BASE, USER_BASE, CHUNK).unwrap();
        b.iter(|| {
            k.pipe_transfer(p, w, r, USER_BASE, USER_BASE, CHUNK).unwrap();
            black_box(k.machine.cycles)
        });
    });
    g.bench_function("user_write_16k", |b| {
        let mut k = boot();
        process(&mut k);
        k.user_write(USER_BASE, 16 * 1024).unwrap();
        b.iter(|| black_box(k.user_write(USER_BASE, 16 * 1024).unwrap()));
    });
    g.finish();
}

/// hook_overhead: what the profiler itself costs at the hottest hook site.
fn bench_hook_overhead(c: &mut Criterion) {
    let mut g = c.benchmark_group("hook_overhead");
    g.bench_function("charge_dormant", |b| {
        hostprof::disarm();
        let mut m = Machine::new(MachineConfig::ppc604_133());
        b.iter(|| {
            m.charge(1);
            black_box(m.cycles)
        });
    });
    g.bench_function("charge_armed", |b| {
        hostprof::arm();
        let mut m = Machine::new(MachineConfig::ppc604_133());
        b.iter(|| {
            m.charge(1);
            black_box(m.cycles)
        });
        hostprof::disarm();
    });
    g.bench_function("span_transition", |b| {
        let mut k = Kernel::boot(MachineConfig::ppc604_133(), KernelConfig::optimized());
        let pid = k.spawn_process(4).unwrap();
        k.switch_to(pid);
        b.iter(|| {
            k.sys_null();
            black_box(k.machine.cycles)
        });
    });
    g.finish();
}

/// checker: the per-epoch work of a checked run, on a kernel whose eight
/// tasks each touched 32 pages; two of them exited, leaving zombie
/// hash-table entries.
fn bench_checker(c: &mut Criterion) {
    let mut g = c.benchmark_group("checker");
    g.bench_function("check_finish", |b| {
        let mut cfg = KernelConfig::optimized();
        cfg.check = Some(CheckConfig::full());
        let mut k = Kernel::boot(MachineConfig::ppc604_133(), cfg);
        for i in 0..8 {
            let pid = k.spawn_process(32).unwrap();
            k.switch_to(pid);
            k.user_write(USER_BASE, 32 * 4096).unwrap();
            if i % 4 == 3 {
                k.exit_current();
            }
        }
        b.iter(|| {
            k.check_finish();
            black_box(k.check.as_ref().map(|c| c.heavy_sweeps))
        });
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_translate,
    bench_cache,
    bench_charge,
    bench_fused_hot_paths,
    bench_copy,
    bench_trace_write,
    bench_hook_overhead,
    bench_checker
);
criterion_main!(benches);
