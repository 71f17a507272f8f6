//! Runtime MM consistency checking: the shadow oracle plus ported
//! invariants, evaluated at span transitions.
//!
//! Three cooperating layers (DESIGN.md §12):
//!
//! * the **shadow MM oracle** ([`crate::oracle::ShadowMm`]) — updated at
//!   every translation install and flush, consulted at every positive
//!   hardware observation (TLB hit, hash-table hit, BAT match);
//! * **runtime invariants** ported from the kernel-tla `ctxsw` module —
//!   SchedInv (no run-queue task is running, queued tasks are runnable and
//!   distinct), the MMInv analogue (the active address space is the current
//!   task's: segment registers match its VSIDs; dead tasks hold no frames),
//!   VSID liveness and generation monotonicity, and hash-table placement /
//!   occupancy self-consistency — cheap ones at every span transition,
//!   heavy sweeps at the checker's own epoch boundaries;
//! * violation reporting that panics with the exact [`KernelConfig`]
//!   summary and injector seed, so the adversarial driver (`repro chaos`)
//!   can turn any red run into a one-command repro.
//!
//! Like the tracer, PMU sampler and telemetry, the checker is an observer
//! behind `Option<Box<_>>`: disabled, the kernel carries one pointer and
//! every hook is a single branch, and a checked run charges **exactly** the
//! same cycles as an unchecked one (the checker never calls
//! `Machine::charge`, never touches TLB/cache replacement state, and reads
//! MMU structures only through the read-only sweep accessors).

use ppc_machine::{Cycles, FusedHit, LineStream, Machine};
use ppc_mmu::addr::{EffectiveAddress, VirtualAddress};
use ppc_mmu::htab::PTES_PER_GROUP;
use ppc_mmu::pte::Pte;
use ppc_mmu::tlb::TlbEntry;
use ppc_mmu::translate::{AccessType, Translation};

use crate::hostprof;
use crate::kconfig::KernelConfig;
use crate::kernel::Kernel;
use crate::layout::{is_io, is_kernel_linear, kva_to_pa};
use crate::oracle::{ShadowEntry, ShadowMm};
use crate::task::TaskState;

/// Default cycles between heavy consistency sweeps (the same epoch grain as
/// telemetry and mmtune).
pub const DEFAULT_CHECK_EPOCH_CYCLES: Cycles = 65_536;

/// Checker configuration. Lives in [`crate::KernelConfig::check`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckConfig {
    /// Maintain the shadow oracle and cross-check every TLB hit, hash-table
    /// hit and BAT match against it.
    pub oracle: bool,
    /// Evaluate the ported SchedInv/MMInv invariants at every span
    /// transition and run the heavy structural sweeps at epoch boundaries.
    pub invariants: bool,
    /// Cycles between heavy sweeps (TLB/htab containment, placement,
    /// occupancy cross-checks).
    pub epoch_cycles: Cycles,
}

impl CheckConfig {
    /// Everything on, at the default epoch grain.
    pub fn full() -> Self {
        Self {
            oracle: true,
            invariants: true,
            epoch_cycles: DEFAULT_CHECK_EPOCH_CYCLES,
        }
    }
}

/// The runtime checker state.
#[derive(Debug, Clone)]
pub struct CheckState {
    /// Configuration.
    pub cfg: CheckConfig,
    /// The shadow model of every currently-legal translation.
    pub oracle: ShadowMm,
    /// Positive hardware observations cross-checked against the oracle.
    pub checked_observations: u64,
    /// Cheap invariant evaluations performed (one per span transition).
    pub invariant_passes: u64,
    /// Heavy epoch sweeps performed.
    pub heavy_sweeps: u64,
    /// Next heavy-sweep boundary.
    next_boundary: Cycles,
    /// Highest VSID-allocator generation seen (must never decrease).
    last_generation: u32,
}

impl CheckState {
    /// Fresh state for `cfg`.
    pub fn new(cfg: CheckConfig) -> Self {
        Self {
            cfg,
            oracle: ShadowMm::new(),
            checked_observations: 0,
            invariant_passes: 0,
            heavy_sweeps: 0,
            next_boundary: cfg.epoch_cycles.max(1),
            last_generation: 0,
        }
    }

    /// Audits one positive BAT/TLB observation — the one audit both the
    /// layered translate loop and the fused path's hook call, at the same
    /// point of the access (translation committed, cache not yet touched).
    ///
    /// A TLB hit is cross-checked against the oracle. A BAT match must fall
    /// in the kernel linear map (identity minus the virtual base, cacheable)
    /// or the I/O aperture (identity, cache-inhibited).
    pub(crate) fn audit_hit(
        &mut self,
        cfg: &KernelConfig,
        m: &Machine,
        ea: EffectiveAddress,
        at: AccessType,
        hit: FusedHit,
    ) {
        match hit {
            FusedHit::Bat { pa, cached } => {
                let ok = if is_kernel_linear(ea) {
                    pa == kva_to_pa(ea) && cached
                } else if is_io(ea) {
                    pa == ea.0 && !cached
                } else {
                    false
                };
                if !ok {
                    violation(
                        cfg,
                        m.cycles,
                        &format!(
                            "BAT match for ea={:#x} -> pa={pa:#x} cached={cached} is \
                             outside the linear-map and I/O apertures (or mistranslated)",
                            ea.0
                        ),
                    );
                }
            }
            FusedHit::Tlb { entry: e } => {
                let _host = hostprof::span(hostprof::HostPhase::Checker);
                if self.cfg.oracle {
                    let side = if at.is_data() { "dtlb" } else { "itlb" };
                    if let Some(v) = self.oracle.check_observation(
                        format_args!("{side} hit for ea={:#x}", ea.0),
                        e.vsid,
                        e.page_index,
                        e.rpn,
                        e.writable,
                        e.cached,
                    ) {
                        violation(cfg, m.cycles, &v);
                    }
                }
            }
        }
        self.checked_observations += 1;
    }
}

/// Reports a checker violation, with the exact config summary and injector
/// seed as one-line context so any panic is a one-command repro
/// (`repro chaos --seed N`).
///
/// # Panics
///
/// Always — panicking is the reporting mechanism. A violation means the
/// simulated MM state diverged from the oracle, so no `KResult` can be
/// trusted past this point; the adversarial driver catches the unwind and
/// prints the minimized repro.
fn violation(cfg: &KernelConfig, cycle: Cycles, msg: &str) -> ! {
    let seed = match cfg.fault_injection {
        Some(fi) => fi.seed.to_string(),
        None => "none".to_string(),
    };
    panic!(
        "MM check violation: {msg}\n  [seed={seed} cycle={cycle} config: {}]",
        cfg.summary()
    );
}

impl Kernel {
    /// Reports a checker violation at the current cycle (see
    /// [`violation`]).
    fn check_fail(&self, msg: &str) -> ! {
        violation(&self.cfg, self.machine.cycles, msg)
    }

    /// The span-transition hook: a single branch when checking is off.
    /// Cheap invariants every call; the heavy sweep when the epoch boundary
    /// has been crossed.
    #[inline]
    pub(crate) fn check_poll(&mut self) {
        if self.check.is_none() {
            return;
        }
        self.check_transition();
    }

    /// The cold half of [`Kernel::check_poll`]. Takes the checker out while
    /// working (same discipline as `tune_epoch`): the checks only read
    /// kernel state, and a taken-out checker makes re-entry impossible.
    fn check_transition(&mut self) {
        let Some(mut c) = self.check.take() else {
            return;
        };
        let _host = hostprof::span(hostprof::HostPhase::Checker);
        if c.cfg.invariants {
            if let Some(v) = self.invariant_violation(&mut c.last_generation) {
                self.check = Some(c);
                self.check_fail(&v);
            }
            c.invariant_passes += 1;
        }
        let now = self.machine.cycles;
        if now >= c.next_boundary {
            while c.next_boundary <= now {
                c.next_boundary += c.cfg.epoch_cycles.max(1);
            }
            c.heavy_sweeps += 1;
            if let Some(v) = self.heavy_sweep_violation(&c) {
                self.check = Some(c);
                self.check_fail(&v);
            }
        }
        self.check = Some(c);
    }

    /// Runs the heavy structural sweep once over the final state (call at
    /// the end of a checked run; no-op when checking is off).
    pub fn check_finish(&mut self) {
        let Some(mut c) = self.check.take() else {
            return;
        };
        let _host = hostprof::span(hostprof::HostPhase::Checker);
        c.heavy_sweeps += 1;
        if let Some(v) = self.heavy_sweep_violation(&c) {
            self.check = Some(c);
            self.check_fail(&v);
        }
        if c.cfg.invariants {
            if let Some(v) = self.invariant_violation(&mut c.last_generation) {
                self.check = Some(c);
                self.check_fail(&v);
            }
            c.invariant_passes += 1;
        }
        self.check = Some(c);
    }

    /// The cheap invariant set, evaluated at every span transition.
    ///
    /// Scheduler-state clauses are skipped while a scheduler mutation
    /// (context switch, task teardown) is in flight: those functions are the
    /// atomic "steps" of the ported TLA model, and the invariants are
    /// guaranteed only at step boundaries.
    pub(crate) fn invariant_violation(&self, last_generation: &mut u32) -> Option<String> {
        // Run-queue entries are distinct — holds even mid-mutation.
        let q = &self.run_queue;
        for (i, &a) in q.iter().enumerate() {
            if q.iter().skip(i + 1).any(|&b| b == a) {
                return Some(format!("SchedInv: task {a} queued twice"));
            }
        }
        if self.sched_mutation_depth == 0 {
            // SchedInv: no run-queue task is running, and every queued task
            // is runnable.
            if let Some(cur) = self.current {
                if q.contains(&cur) {
                    return Some(format!("SchedInv: running task {cur} is on the run queue"));
                }
            }
            for &i in q {
                if self.tasks[i].state != TaskState::Runnable {
                    return Some(format!(
                        "SchedInv: queued task {i} is {:?}, not Runnable",
                        self.tasks[i].state
                    ));
                }
            }
            // MMInv analogue: the active address space is the current
            // task's — user segment registers hold exactly its VSIDs.
            if let Some(cur) = self.current {
                for (sr, v) in self.tasks[cur].vsids.iter().enumerate() {
                    let hw = self
                        .machine
                        .mmu
                        .segments
                        .translate(EffectiveAddress((sr as u32) << 28));
                    if hw.vsid != *v {
                        return Some(format!(
                            "MMInv: segment register {sr} holds vsid {:#x} but \
                             current task {cur} owns {:#x}",
                            hw.vsid.raw(),
                            v.raw()
                        ));
                    }
                }
            }
            // MMInv analogue: a dead task's address space is gone — it
            // holds no frames and is never current; live tasks translate
            // only under live VSIDs. Teardown transiently violates all
            // three (Dead is set before the frames drain and before the
            // final reschedule), so this block sits inside the step gate.
            for (i, t) in self.tasks.iter().enumerate() {
                match t.state {
                    TaskState::Dead => {
                        if !t.frames.is_empty() {
                            return Some(format!("MMInv: dead task {i} still holds frames"));
                        }
                        if self.current == Some(i) {
                            return Some(format!("MMInv: dead task {i} is current"));
                        }
                    }
                    _ => {
                        if let Some(v) = self.vsids.first_dead(&t.vsids) {
                            return Some(format!(
                                "MMInv: live task {i} owns retired vsid {:#x}",
                                v.raw()
                            ));
                        }
                    }
                }
            }
        }
        // Lazy-flush invariant: the context generation never moves backward
        // (VSIDs are never reused).
        let generation = self.vsids.generation();
        if generation < *last_generation {
            return Some(format!(
                "VSID generation moved backward: {} -> {generation}",
                *last_generation
            ));
        }
        *last_generation = generation;
        None
    }

    /// The heavy epoch sweep: containment of resident translations in the
    /// oracle, and hash-table structural self-consistency.
    ///
    /// The hash table is walked once, building each PTEG's 8-bit valid
    /// mask. The masks feed the occupancy totals, which are compared with
    /// the counts the table maintains itself; only the set bits, in slot
    /// order, get the residency and placement checks, so the mostly empty
    /// table costs one mask per PTEG. Each kind keeps its first violation
    /// in table order, and the kinds are reported in a fixed order — TLB
    /// residency, htab residency, placement, occupancy — so the message is
    /// the one a pass per check would have produced.
    fn heavy_sweep_violation(&self, c: &CheckState) -> Option<String> {
        let (oracle, invariants) = (c.cfg.oracle, c.cfg.invariants);
        // Zombie entries — retired VSIDs — are exactly what lazy flushing
        // leaves behind; they can never match and are exempt from
        // residency.
        let live = |v| self.vsids.is_live(v);
        if oracle {
            // Every resident TLB entry under a live VSID must still be legal.
            let tlbs = [
                ("itlb", &self.machine.mmu.itlb),
                ("dtlb", &self.machine.mmu.dtlb),
            ];
            for (name, tlb) in tlbs {
                for e in tlb.entries().filter(|e| live(e.vsid)) {
                    if let Some(v) = c.oracle.check_observation(
                        format_args!("{name} residency sweep"),
                        e.vsid,
                        e.page_index,
                        e.rpn,
                        e.writable,
                        e.cached,
                    ) {
                        return Some(v);
                    }
                }
            }
        }
        if !oracle && !invariants {
            return None;
        }
        let hash = self.htab.hash();
        let groups = self.htab.groups();
        let mut placement = None;
        let (mut sum, mut full) = (0u32, 0u32);
        for (g, group) in groups.iter().enumerate() {
            let g = g as u32;
            let mask = group
                .iter()
                .enumerate()
                .fold(0u8, |m, (s, p)| m | (u8::from(p.valid) << s));
            let valid = mask.count_ones();
            sum += valid;
            full += u32::from(valid as usize == PTES_PER_GROUP);
            let mut bits = mask;
            while bits != 0 {
                let s = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let pte = &group[s];
                // Residency reports first, so its first violation ends the
                // walk.
                if oracle && live(pte.vsid) {
                    if let Some(v) = c.oracle.check_observation(
                        "htab residency sweep",
                        pte.vsid,
                        pte.page_index,
                        pte.rpn,
                        pte.pp == 2,
                        !pte.cache_inhibited,
                    ) {
                        return Some(v);
                    }
                }
                // PTEG placement: every valid entry sits in the group its
                // hash (primary or secondary, per its H bit) selects — the
                // invariant a botched mid-run rehash would break.
                if invariants && placement.is_none() {
                    let expect = hash.pteg_index(pte.vsid, pte.page_index, pte.secondary);
                    if expect != g {
                        placement = Some(format!(
                            "htab placement: vsid={:#x} page={:#x} (secondary={}) \
                             found in group {g} slot {s}, hash says group {expect}",
                            pte.vsid.raw(),
                            pte.page_index,
                            pte.secondary
                        ));
                    }
                }
            }
        }
        if !invariants {
            return None;
        }
        if placement.is_some() {
            return placement;
        }
        // Occupancy summaries agree with the group contents.
        if groups.len() != hash.num_groups() as usize {
            return Some(format!(
                "htab occupancy: histogram covers {} groups, hash says {}",
                groups.len(),
                hash.num_groups()
            ));
        }
        if sum != self.htab.valid_entries() {
            return Some(format!(
                "htab occupancy: histogram sums to {sum}, valid_entries says {}",
                self.htab.valid_entries()
            ));
        }
        if full != self.htab.full_groups() {
            return Some(format!(
                "htab occupancy: histogram counts {full} full groups, \
                 full_groups says {}",
                self.htab.full_groups()
            ));
        }
        None
    }

    // ---- oracle mutation mirrors (called at the kernel's mutation sites) --

    /// Mirrors a translation install into the oracle.
    #[inline]
    pub(crate) fn check_note_install(
        &mut self,
        va: VirtualAddress,
        pfn: u32,
        cached: bool,
        writable: bool,
    ) {
        if let Some(c) = self.check.as_mut() {
            if c.cfg.oracle {
                c.oracle.install(
                    va.vsid,
                    va.page_index,
                    ShadowEntry {
                        rpn: pfn,
                        writable,
                        cached,
                    },
                );
            }
        }
    }

    /// Mirrors a single-page flush into the oracle.
    #[inline]
    pub(crate) fn check_note_flush_page(&mut self, vsid: ppc_mmu::addr::Vsid, page_index: u32) {
        if let Some(c) = self.check.as_mut() {
            if c.cfg.oracle {
                c.oracle.flush_page(vsid, page_index);
            }
        }
    }

    /// Mirrors a whole-context retirement into the oracle. Called *before*
    /// the kernel bumps the VSIDs, so a kernel that forgets the bump (the
    /// deliberate `MMU_TRICKS_BUG_STALE_TLB` bug) leaves resident
    /// translations the oracle now holds illegal — caught at the next hit.
    #[inline]
    pub(crate) fn check_note_retire(&mut self, vsids: &[ppc_mmu::addr::Vsid]) {
        if let Some(c) = self.check.as_mut() {
            if c.cfg.oracle {
                c.oracle.retire_vsids(vsids);
            }
        }
    }

    // ---- positive-observation cross-checks --------------------------------

    /// [`Machine::fused_data_ref`] with its hit audited. Out of line, so
    /// the unchecked [`Kernel::data_ref`] keeps its size, and with it the
    /// compiler's inlining decisions around the hot path.
    #[inline(never)]
    pub(crate) fn audited_data_ref(&mut self, ea: EffectiveAddress, write: bool) -> Option<Cycles> {
        let c = self.check.as_deref_mut()?;
        let at = if write {
            AccessType::DataWrite
        } else {
            AccessType::DataRead
        };
        let cfg = &self.cfg;
        self.machine
            .fused_data_ref(ea, write, |m, hit| c.audit_hit(cfg, m, ea, at, hit))
    }

    /// [`Machine::fused_line_run`] with every committed hit audited (see
    /// [`Kernel::audited_data_ref`]).
    #[inline(never)]
    pub(crate) fn audited_line_run<const N: usize>(
        &mut self,
        streams: [LineStream; N],
        lines: u32,
        charge: Option<Cycles>,
    ) -> Option<Cycles> {
        let c = self.check.as_deref_mut()?;
        let cfg = &self.cfg;
        self.machine
            .fused_line_run(streams, lines, charge, |m, line, hit| {
                let at = if line.write {
                    AccessType::DataWrite
                } else {
                    AccessType::DataRead
                };
                c.audit_hit(cfg, m, line.ea, at, hit)
            })
    }

    /// [`Machine::fused_exec_code`] with its hit audited (see
    /// [`Kernel::audited_data_ref`]).
    #[inline(never)]
    pub(crate) fn audited_exec_code(
        &mut self,
        ea: EffectiveAddress,
        n_insns: u32,
    ) -> Option<Cycles> {
        let c = self.check.as_deref_mut()?;
        let cfg = &self.cfg;
        self.machine.fused_exec_code(ea, n_insns, |m, hit| {
            c.audit_hit(cfg, m, ea, AccessType::InsnFetch, hit)
        })
    }

    /// Audits a BAT match or TLB hit the layered translate loop observed:
    /// hands [`CheckState::audit_hit`] the hit the fused path would have
    /// reported. A single branch when checking is off.
    #[inline]
    pub(crate) fn check_on_translation(
        &mut self,
        ea: EffectiveAddress,
        at: AccessType,
        t: Translation,
    ) {
        if self.check.is_some() {
            self.audit_translation(ea, at, t);
        }
    }

    /// The cold half of [`Kernel::check_on_translation`].
    fn audit_translation(&mut self, ea: EffectiveAddress, at: AccessType, t: Translation) {
        let Some(c) = self.check.as_deref_mut() else {
            return;
        };
        let hit = match t {
            Translation::Bat { pa, cached } => FusedHit::Bat { pa, cached },
            Translation::TlbHit {
                pa,
                cached,
                writable,
            } => {
                let va = self.machine.mmu.segments.translate(ea);
                FusedHit::Tlb {
                    entry: TlbEntry {
                        vsid: va.vsid,
                        page_index: va.page_index,
                        rpn: pa >> 12,
                        cached,
                        writable,
                    },
                }
            }
            Translation::TlbMiss { .. } => return,
        };
        c.audit_hit(&self.cfg, &self.machine, ea, at, hit);
    }

    /// Cross-checks a hash-table hit against the oracle.
    #[inline]
    pub(crate) fn check_on_htab_hit(&mut self, va: VirtualAddress, pte: &Pte) {
        let Some(c) = self.check.as_deref_mut() else {
            return;
        };
        let _host = hostprof::span(hostprof::HostPhase::Checker);
        if c.cfg.oracle {
            if let Some(v) = c.oracle.check_observation(
                "htab hit",
                va.vsid,
                va.page_index,
                pte.rpn,
                pte.pp == 2,
                !pte.cache_inhibited,
            ) {
                violation(&self.cfg, self.machine.cycles, &v);
            }
        }
        c.checked_observations += 1;
    }

    // ---- scheduler-mutation bracketing ------------------------------------

    /// Marks entry into a scheduler mutation (context switch / teardown):
    /// SchedInv clauses are suspended until the matching exit.
    #[inline]
    pub(crate) fn check_sched_enter(&mut self) {
        self.sched_mutation_depth += 1;
    }

    /// Marks exit from a scheduler mutation.
    #[inline]
    pub(crate) fn check_sched_exit(&mut self) {
        debug_assert!(self.sched_mutation_depth > 0);
        self.sched_mutation_depth -= 1;
    }
}
