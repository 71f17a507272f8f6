//! Leaf-layer probes: host nanoseconds per call into each leaf crate's
//! public hot entry points, with the profiler dormant as in an ordinary run.
//!
//! The probes run round-robin, one batch each per round, so a slow spell of
//! the host lands on every probe alike rather than on one.

use std::hint::black_box;
use std::time::{Duration, Instant};

use kernel_sim::sched::USER_BASE;
use kernel_sim::{Kernel, KernelConfig};
use ppc_cache::hierarchy::MemSystem;
use ppc_machine::{Machine, MachineConfig};
use ppc_mmu::addr::{EffectiveAddress, Vsid};
use ppc_mmu::htab::HashTable;
use ppc_mmu::pte::Pte;
use ppc_mmu::tlb::TlbEntry;
use ppc_mmu::translate::AccessType;

use crate::calib::Calibrator;

/// Calls per timed batch.
const BATCH: u32 = 20_000;

/// A probe: its metric name and a closure timing `n` calls.
struct Probe {
    name: &'static str,
    run: Box<dyn FnMut(u32) -> Duration>,
}

fn timed(n: u32, mut call: impl FnMut(u32)) -> Duration {
    let t0 = Instant::now();
    for i in 0..n {
        call(i);
    }
    t0.elapsed()
}

/// A kernel of the workload's configuration with one process whose first
/// page is resident in the TLB and both L1 caches.
fn warm_kernel(machine: MachineConfig, kcfg: KernelConfig, fused: bool) -> Kernel {
    let mut k = Kernel::boot(machine, KernelConfig { fused, ..kcfg });
    let pid = k
        .spawn_process(8)
        .expect("probe process fits a fresh kernel");
    k.switch_to(pid);
    k.prefault(USER_BASE, 8)
        .expect("probe pages fit a fresh kernel");
    for i in 0..64 {
        let ea = EffectiveAddress(USER_BASE + i * 32);
        k.data_ref(ea, false).expect("probe page is mapped");
        k.exec_code(ea, 8).expect("probe page is mapped");
    }
    k
}

fn probes(machine: MachineConfig, kcfg: KernelConfig) -> Vec<Probe> {
    let mut hit = Machine::new(machine);
    for pi in 0..64 {
        hit.mmu.reload(
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
    let mut miss = Machine::new(machine);
    let mut miss_page = 0u32;
    let mut htab = HashTable::new(2048, 0);
    let mut htab_page = 0u32;
    let mut l1_hit = MemSystem::new(machine.mem);
    l1_hit.data_read(0x4000, true);
    let mut l1_miss = MemSystem::new(machine.mem);
    let mut miss_pa = 0u32;
    let mut charge = Machine::new(machine);
    let mut fused = warm_kernel(machine, kcfg, true);
    let mut layered = warm_kernel(machine, kcfg, false);
    // Cache lines within one page: page-stride addresses would all land in
    // one cache set and time the miss path instead.
    let line = |i: u32| EffectiveAddress(USER_BASE + (i % 64) * 32);
    vec![
        Probe {
            name: "tlb_hit",
            run: Box::new(move |n| {
                timed(n, |i| {
                    black_box(
                        hit.mmu
                            .translate(EffectiveAddress((i % 64) << 12), AccessType::DataRead),
                    );
                })
            }),
        },
        Probe {
            name: "tlb_miss",
            run: Box::new(move |n| {
                timed(n, |_| {
                    miss_page = miss_page.wrapping_add(1) & 0xffff;
                    black_box(
                        miss.mmu
                            .translate(EffectiveAddress(miss_page << 12), AccessType::DataRead),
                    );
                })
            }),
        },
        Probe {
            name: "htab_insert",
            run: Box::new(move |n| {
                timed(n, |_| {
                    htab_page = htab_page.wrapping_add(1) & 0xffff;
                    black_box(htab.insert(Pte {
                        valid: true,
                        vsid: Vsid::new(3),
                        secondary: false,
                        page_index: htab_page,
                        rpn: htab_page + 0x300,
                        referenced: false,
                        changed: false,
                        cache_inhibited: false,
                        pp: 2,
                    }));
                })
            }),
        },
        Probe {
            name: "l1_read_hit",
            run: Box::new(move |n| {
                timed(n, |_| {
                    black_box(l1_hit.data_read(0x4000, true));
                })
            }),
        },
        Probe {
            name: "l1_read_miss",
            run: Box::new(move |n| {
                timed(n, |_| {
                    // Page stride: every read maps to one set and evicts.
                    miss_pa = miss_pa.wrapping_add(4096);
                    black_box(l1_miss.data_read(miss_pa, true));
                })
            }),
        },
        Probe {
            name: "charge",
            run: Box::new(move |n| {
                timed(n, |_| {
                    charge.charge(1);
                    black_box(charge.cycles);
                })
            }),
        },
        Probe {
            name: "fused_data_ref",
            run: Box::new(move |n| {
                timed(n, |i| {
                    let _ = black_box(fused.data_ref(line(i), false));
                })
            }),
        },
        Probe {
            name: "layered_data_ref",
            run: Box::new(move |n| {
                timed(n, |i| {
                    let _ = black_box(layered.data_ref(line(i), false));
                })
            }),
        },
    ]
}

/// Per-call nanoseconds of each probe, one sample per round, and the
/// calibration time taken at the start of each round.
pub type Samples = (Vec<(&'static str, Vec<f64>)>, Vec<u64>);

/// Runs every probe against machines and kernels of the given
/// configuration for about `budget`.
pub fn run(
    machine: MachineConfig,
    kcfg: KernelConfig,
    budget: Duration,
    cal: &mut Calibrator,
) -> Samples {
    let mut ps = probes(machine, kcfg);
    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); ps.len()];
    let mut calib = Vec::new();
    let t0 = Instant::now();
    while t0.elapsed() < budget || calib.len() < 5 {
        calib.push(cal.ns());
        for (p, s) in ps.iter_mut().zip(samples.iter_mut()) {
            let d = (p.run)(BATCH);
            s.push(d.as_nanos() as f64 / f64::from(BATCH));
        }
    }
    (ps.iter().map(|p| p.name).zip(samples).collect(), calib)
}
