//! The three workloads, their seeded inputs, and one closed-loop operation
//! of each: the caller runs the next operation when the previous returns.
//!
//! An operation boots fresh kernels (untimed), then times only the calls
//! into the workload. Everything the simulator must reproduce bit for bit —
//! simulated cycles and the full `KernelStats` of every call — goes into
//! [`Op::exact`]; `main` compares it across repeats, across traced and
//! untraced runs, and across the fused and layered paths.

use std::collections::BTreeMap;
use std::time::Instant;

use kernel_sim::hostprof::{self, ALL_PHASES};
use kernel_sim::prof::Subsystem;
use kernel_sim::{Kernel, KernelConfig, KernelStats};
use lmbench::{bw, lat, CompileConfig};
use mmu_tricks::chaos::{chaos_kernel_config, chaos_report, ChaosConfig};
use ppc_machine::MachineConfig;

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's §4 kernel compile on the 604/133.
    Compile,
    /// The paper's LmBench rows on the 604/133 and the hash-table 603.
    Lmbench,
    /// Seeded chaos programs under the shadow-MM checker.
    ChaosChecked,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::Compile, Workload::Lmbench, Workload::ChaosChecked];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Compile => "compile",
            Workload::Lmbench => "lmbench",
            Workload::ChaosChecked => "chaos_checked",
        }
    }

    /// Parses a command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// An LmBench board: a machine and the kernel configuration it runs.
#[derive(Debug, Clone, Copy)]
struct Board {
    /// Metric-name component.
    name: &'static str,
    /// The simulated machine.
    machine: MachineConfig,
    /// The kernel booted on it.
    kcfg: KernelConfig,
}

/// The two LmBench boards: Table 3's 604/133, and the 603/133 with its
/// software TLB reload going through the hash table.
fn boards() -> [Board; 2] {
    [
        Board {
            name: "604-133",
            machine: MachineConfig::ppc604_133(),
            kcfg: KernelConfig::optimized(),
        },
        Board {
            name: "603-133-htab",
            machine: MachineConfig::ppc603_133(),
            kcfg: KernelConfig {
                htab_on_603: true,
                ..KernelConfig::optimized()
            },
        },
    ]
}

/// Iteration counts of the LmBench rows.
#[derive(Debug, Clone, Copy)]
pub struct Rounds {
    syscall_iters: u32,
    ctx_rounds: u32,
    pipe_rounds: u32,
    mmap_iters: u32,
    pstart_iters: u32,
}

/// The LmBench rows, in run order.
const ROWS: [&str; 8] = [
    "null_syscall",
    "ctxsw2",
    "ctxsw8",
    "pipe_lat",
    "pipe_bw",
    "file_reread",
    "mmap_lat",
    "pstart",
];

fn run_row(k: &mut Kernel, row: &str, r: Rounds) -> f64 {
    match row {
        "null_syscall" => lat::null_syscall(k, r.syscall_iters),
        "ctxsw2" => lat::ctx_switch(k, 2, 0, r.ctx_rounds),
        "ctxsw8" => lat::ctx_switch(k, 8, 4, r.ctx_rounds / 2 + 1),
        "pipe_lat" => lat::pipe_latency(k, r.pipe_rounds),
        "pipe_bw" => bw::pipe_bandwidth(k),
        "file_reread" => bw::file_reread(k),
        "mmap_lat" => lat::mmap_latency(k, r.mmap_iters),
        "pstart" => lat::process_start(k, r.pstart_iters),
        other => unreachable!("unknown LmBench row {other}"),
    }
}

/// Fuzzed steps per chaos program.
const CHAOS_STEPS: u32 = 300;
/// Chaos programs per operation. Many short programs vary less in total
/// than a few long ones of the same total length.
const CHAOS_PROGRAMS: u64 = 96;

/// SplitMix64: derives independent streams from the one workload seed.
fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(stream.wrapping_add(1).wrapping_mul(0xd1b5_4a32_d192_ed03));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A workload's inputs, made from the seed alone.
#[derive(Debug, Clone)]
pub struct Input {
    workload: Workload,
    seed: u64,
    /// What the workload runs.
    pub kind: Kind,
}

/// The workload-specific part of an [`Input`].
#[derive(Debug, Clone)]
pub enum Kind {
    /// The full-size compile, its reference streams seeded.
    Compile(CompileConfig),
    /// The LmBench iteration counts (the paper's full settings, nudged by
    /// the seed so the simulated work differs slightly between seeds).
    Lmbench(Rounds),
    /// The chaos programs.
    Chaos(Vec<ChaosConfig>),
}

impl Input {
    /// Generates the inputs of `workload` for `seed`.
    pub fn generate(workload: Workload, seed: u64) -> Input {
        let kind = match workload {
            Workload::Compile => Kind::Compile(CompileConfig {
                // `kernel_compile` adds small offsets to its seed.
                seed: mix(seed, 0) % 1_000_000,
                ..CompileConfig::full()
            }),
            Workload::Lmbench => {
                let r = mix(seed, 0);
                Kind::Lmbench(Rounds {
                    syscall_iters: 400 + (r % 32) as u32,
                    ctx_rounds: 60 + ((r >> 8) % 4) as u32,
                    pipe_rounds: 60 + ((r >> 16) % 4) as u32,
                    mmap_iters: 10,
                    pstart_iters: 10,
                })
            }
            Workload::ChaosChecked => Kind::Chaos(
                (0..CHAOS_PROGRAMS)
                    .map(|i| ChaosConfig::checked(mix(seed, i), CHAOS_STEPS))
                    .collect(),
            ),
        };
        Input {
            workload,
            seed,
            kind,
        }
    }

    /// Every `(machine, kernel config)` one operation boots, untraced and
    /// fused.
    pub fn kernels(&self) -> Vec<(MachineConfig, KernelConfig)> {
        match &self.kind {
            Kind::Compile(_) => vec![(MachineConfig::ppc604_133(), KernelConfig::optimized())],
            Kind::Lmbench(_) => boards()
                .iter()
                .flat_map(|b| ROWS.iter().map(move |_| (b.machine, b.kcfg)))
                .collect(),
            Kind::Chaos(programs) => programs
                .iter()
                .map(|c| (MachineConfig::ppc604_185(), chaos_kernel_config(c)))
                .collect(),
        }
    }
}

/// How an operation runs.
#[derive(Debug, Clone, Copy)]
pub struct Mode {
    /// Boot kernels with `KernelConfig::trace` (self-cycles per subsystem)
    /// and record `hostprof` windows around each call. The caller arms the
    /// profiler.
    pub traced: bool,
    /// Let kernels take the fused translate→cache→charge path.
    pub fused: bool,
}

impl Mode {
    /// Untraced, fused: how the end-to-end metrics are measured.
    pub const PLAIN: Mode = Mode {
        traced: false,
        fused: true,
    };
}

/// What one operation measured.
#[derive(Debug, Clone, Default)]
pub struct Op {
    /// Host nanoseconds spent inside the workload's calls.
    pub host_ns: u64,
    /// Simulated cycles those calls executed.
    pub sim_cycles: u64,
    /// Everything that must repeat bit for bit.
    pub exact: Vec<u64>,
    /// Host nanoseconds per named part (LmBench row, chaos program).
    pub parts: BTreeMap<String, u64>,
    /// Exact layer counts, summed over the operation's calls.
    pub counts: BTreeMap<String, u64>,
    /// The LmBench values, `<board>.<row>`.
    pub values: BTreeMap<String, f64>,
    /// The first thing that went wrong, if anything did.
    pub error: Option<String>,
}

impl Op {
    fn add(&mut self, key: impl Into<String>, n: u64) {
        *self.counts.entry(key.into()).or_insert(0) += n;
    }

    fn add_part(&mut self, key: &str, ns: u64) {
        *self.parts.entry(key.to_string()).or_insert(0) += ns;
    }

    fn add_stats(&mut self, s: &KernelStats) {
        for (name, v) in s.as_named_pairs() {
            self.exact.push(v);
            self.add(format!("stats.{name}"), v);
        }
    }

    fn add_host(&mut self, d: &kernel_sim::HostSnapshot) {
        for (p, c) in ALL_PHASES.iter().zip(d.phases.iter()) {
            self.add(format!("spans.{}", p.name()), c.spans);
            self.add(format!("sampled_ns.{}", p.name()), c.est_total_ns());
        }
        self.add("allocs", d.total_allocs());
    }

    fn fail(&mut self, why: String) {
        self.error.get_or_insert(why);
    }
}

/// Boots one kernel of the operation.
fn boot(machine: MachineConfig, kcfg: KernelConfig, mode: Mode) -> Kernel {
    Kernel::boot(
        machine,
        KernelConfig {
            trace: mode.traced,
            fused: mode.fused,
            ..kcfg
        },
    )
}

/// Self-cycles per subsystem so far (all zero when tracing is off).
fn self_cycles(k: &mut Kernel) -> [u64; Subsystem::ALL.len()] {
    let now = k.machine.cycles;
    let mut out = [0; Subsystem::ALL.len()];
    if let Some(t) = k.tracer.as_mut() {
        t.prof.finish(now);
        for (slot, s) in out.iter_mut().zip(Subsystem::ALL) {
            *slot = t.prof.self_cycles(s);
        }
    }
    out
}

/// Runs `f` on a booted kernel, timing it and adding its simulated cycles,
/// exact outputs and layer counts to `op`. Returns `f`'s result and the
/// host nanoseconds it took.
fn metered<R>(
    op: &mut Op,
    k: &mut Kernel,
    mode: Mode,
    f: impl FnOnce(&mut Kernel) -> R,
) -> (R, u64) {
    let sc0 = self_cycles(k);
    let (m0, k0, c0) = (k.machine.snapshot(), k.stats, k.machine.cycles);
    let h0 = mode.traced.then(hostprof::snapshot);
    let t0 = Instant::now();
    let r = f(k);
    let ns = t0.elapsed().as_nanos() as u64;
    let host = h0.map(|h0| hostprof::snapshot().delta(&h0));
    let cycles = k.machine.cycles - c0;
    op.host_ns += ns;
    op.sim_cycles += cycles;
    op.exact.push(cycles);
    op.add_stats(&k.stats.diff(&k0));
    let m = k.machine.snapshot().delta(&m0);
    for (key, v) in [
        ("itlb_lookups", m.itlb.lookups),
        ("itlb_misses", m.itlb.misses),
        ("dtlb_lookups", m.dtlb.lookups),
        ("dtlb_misses", m.dtlb.misses),
        ("icache_accesses", m.icache.accesses),
        ("icache_misses", m.icache.misses),
        ("dcache_accesses", m.dcache.accesses),
        ("dcache_misses", m.dcache.misses),
        ("bat_hits", m.ibat_hits + m.dbat_hits),
    ] {
        op.add(key, v);
    }
    if mode.traced {
        for ((s, a), b) in Subsystem::ALL.iter().zip(self_cycles(k)).zip(sc0) {
            op.add(format!("self_cycles.{}", s.name()), a - b);
        }
    }
    if let Some(d) = host {
        op.add_host(&d);
    }
    (r, ns)
}

/// Runs one operation of `input`.
pub fn run_op(input: &Input, mode: Mode) -> Op {
    let mut op = Op::default();
    match &input.kind {
        Kind::Compile(cfg) => {
            let (machine, kcfg) = input.kernels()[0];
            let mut k = boot(machine, kcfg, mode);
            metered(&mut op, &mut k, mode, |k| {
                lmbench::compile::kernel_compile(k, *cfg)
            });
        }
        Kind::Lmbench(rounds) => {
            for b in boards() {
                for row in ROWS {
                    let mut k = boot(b.machine, b.kcfg, mode);
                    let (v, ns) = metered(&mut op, &mut k, mode, |k| run_row(k, row, *rounds));
                    op.exact.push(v.to_bits());
                    op.add_part(row, ns);
                    if !(v.is_finite() && v > 0.0) {
                        op.fail(format!("{}.{row} = {v}", b.name));
                    }
                    op.values.insert(format!("{}.{row}", b.name), v);
                }
            }
        }
        Kind::Chaos(programs) => {
            for cfg in programs {
                let h0 = mode.traced.then(hostprof::snapshot);
                let t0 = Instant::now();
                let out = chaos_report(cfg);
                let ns = t0.elapsed().as_nanos() as u64;
                if let Some(h0) = h0 {
                    op.add_host(&hostprof::snapshot().delta(&h0));
                }
                op.host_ns += ns;
                op.add_part("chaos_run", ns);
                match out {
                    Ok(o) => {
                        op.sim_cycles += o.cycles;
                        op.exact.extend([o.cycles, o.steps.into(), o.fatals.into()]);
                        op.add_stats(&o.stats);
                        for (key, v) in [
                            ("check.observations", o.checked_observations),
                            ("check.invariant_passes", o.invariant_passes),
                            ("check.heavy_sweeps", o.heavy_sweeps),
                        ] {
                            op.exact.push(v);
                            op.add(key, v);
                        }
                    }
                    Err(f) => op.fail(f.to_string()),
                }
            }
        }
    }
    op
}

/// Host nanoseconds to set up one operation: generate its inputs and boot
/// every kernel it runs.
pub fn setup_ns(input: &Input) -> u64 {
    let t0 = Instant::now();
    let input = Input::generate(input.workload, input.seed);
    for (machine, kcfg) in input.kernels() {
        std::hint::black_box(Kernel::boot(machine, kcfg));
    }
    t0.elapsed().as_nanos() as u64
}

/// Host nanoseconds of one boot of the workload's first kernel.
pub fn boot_ns(input: &Input) -> u64 {
    let (machine, kcfg) = input.kernels()[0];
    let t0 = Instant::now();
    std::hint::black_box(Kernel::boot(machine, kcfg));
    t0.elapsed().as_nanos() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_come_from_the_seed_alone() {
        for w in Workload::ALL {
            let a = format!("{:?}", Input::generate(w, 7).kind);
            assert_eq!(
                a,
                format!("{:?}", Input::generate(w, 7).kind),
                "{}",
                w.name()
            );
            assert_ne!(
                a,
                format!("{:?}", Input::generate(w, 8).kind),
                "{}",
                w.name()
            );
        }
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("hit"), None);
    }

    #[test]
    fn lmbench_operation_repeats_exactly_and_traced_matches_untraced() {
        let input = Input {
            workload: Workload::Lmbench,
            seed: 1,
            kind: Kind::Lmbench(Rounds {
                syscall_iters: 20,
                ctx_rounds: 4,
                pipe_rounds: 4,
                mmap_iters: 2,
                pstart_iters: 2,
            }),
        };
        let a = run_op(&input, Mode::PLAIN);
        let b = run_op(&input, Mode::PLAIN);
        let traced = run_op(
            &input,
            Mode {
                traced: true,
                fused: true,
            },
        );
        assert!(a.error.is_none(), "{:?}", a.error);
        assert_eq!(a.exact, b.exact);
        assert_eq!(a.exact, traced.exact);
        assert_eq!(a.values.len(), 2 * ROWS.len());
        assert!(traced.counts.contains_key("self_cycles.syscall"));
    }
}
