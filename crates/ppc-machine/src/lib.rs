//! Machine model for the MMU Tricks (OSDI 1999) reproduction.
//!
//! A [`Machine`] combines the `ppc-mmu` front end (segments, BATs, TLBs)
//! with the `ppc-cache` memory system and a cycle accumulator, under a named
//! [`MachineConfig`] corresponding to the boards the paper measured on:
//!
//! | config | CPU | clock | TLB | L1 | reload |
//! |---|---|---|---|---|---|
//! | `ppc603_133` | 603 | 133 MHz | 128 | 8K+8K | software |
//! | `ppc603_180` | 603 | 180 MHz | 128 | 8K+8K | software |
//! | `ppc604_133` | 604 | 133 MHz | 256 | 16K+16K | hardware |
//! | `ppc604_185` | 604 | 185 MHz | 256 | 16K+16K | hardware |
//! | `ppc604_200` | 604 | 200 MHz | 256 | 16K+16K | hardware, fast board |
//!
//! The machine executes *abstract references*: the kernel simulator and the
//! workload generators call [`Machine::data_read_pa`] / [`Machine::exec_code_pa`]
//! and the machine prices each reference through the BAT → TLB → (reload)
//! pipeline and the cache hierarchy. TLB-miss handling is a callback into
//! the OS layer, because that is precisely the part the paper varies.

pub mod config;
pub mod cpu;
pub mod exceptions;
pub mod monitor;
pub mod pmu;
pub mod time;

pub use config::{CpuModel, MachineConfig};
pub use cpu::{FusedHit, LineStream, Machine, MemRefOutcome, ReloadOutcome, LINE_RUN_STRIDE};
pub use exceptions::ExceptionCosts;
pub use monitor::MonitorSnapshot;
pub use pmu::{Mmcr0, PmcEvent, Pmu, PMC_NEGATIVE};
pub use time::SimTime;

/// Simulated time, in processor clock cycles.
pub type Cycles = u64;
