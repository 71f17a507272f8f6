//! Tests for the adversarial checking subsystem: the shadow-MM oracle,
//! runtime invariants, and the zero-cost-when-off obligation.

use ppc_machine::MachineConfig;
use ppc_mmu::addr::Vsid;
use ppc_mmu::pte::Pte;

use crate::check::CheckConfig;
use crate::inject::FaultInjection;
use crate::kconfig::KernelConfig;
use crate::kernel::Kernel;
use crate::sched::USER_BASE;

/// A small but MM-diverse workload: faults, COW forks, exec unmaps, brks,
/// munmaps, pipes, signals, and enough context switches to cross epoch
/// boundaries.
fn drive(k: &mut Kernel) {
    let bin = k.create_file(4 * 4096).unwrap();
    let a = k.spawn_process(16).unwrap();
    let b = k.spawn_process(16).unwrap();
    k.switch_to(a);
    k.user_write(USER_BASE, 16 * 4096).unwrap();
    let child = k.sys_fork().unwrap();
    // COW break in the parent.
    k.user_write(USER_BASE, 8 * 4096).unwrap();
    k.switch_to(child);
    k.user_read(USER_BASE, 4 * 4096).unwrap();
    k.sys_exec(bin, 4, 8).unwrap();
    // Text is read-only after exec; the heap starts above it.
    k.user_read(USER_BASE, 4 * 4096).unwrap();
    k.user_write(USER_BASE + 4 * 4096, 4 * 4096).unwrap();
    k.sys_brk(24).unwrap();
    k.user_write(USER_BASE + 16 * 4096, 8 * 4096).unwrap();
    let m = k.sys_mmap(None, 8 * 4096);
    k.user_write(m, 8 * 4096).unwrap();
    k.sys_munmap(m, 8 * 4096);
    k.switch_to(b);
    k.user_write(USER_BASE, 16 * 4096).unwrap();
    k.signal_roundtrip(USER_BASE).unwrap();
    for _ in 0..64 {
        k.yield_next();
        k.sys_null();
        k.user_read(USER_BASE, 4096).unwrap();
    }
    k.switch_to(child);
    k.exit_current();
    k.check_finish();
}

fn cfg_with(check: Option<CheckConfig>, inject: Option<FaultInjection>) -> KernelConfig {
    KernelConfig {
        check,
        fault_injection: inject,
        ..KernelConfig::extended()
    }
}

#[test]
fn check_mode_is_cycle_and_counter_identical_when_off() {
    let mut off = Kernel::boot(MachineConfig::ppc604_185(), cfg_with(None, None));
    let mut on = Kernel::boot(
        MachineConfig::ppc604_185(),
        cfg_with(Some(CheckConfig::full()), None),
    );
    drive(&mut off);
    drive(&mut on);
    assert_eq!(
        off.machine.cycles, on.machine.cycles,
        "check mode must charge zero cycles"
    );
    assert_eq!(off.stats, on.stats, "check mode must not perturb counters");
    assert_eq!(
        off.machine.snapshot(),
        on.machine.snapshot(),
        "check mode must not touch hardware monitor state"
    );
    let c = on.check.as_ref().unwrap();
    assert!(c.checked_observations > 0, "oracle saw no observations");
    assert!(c.invariant_passes > 0, "invariants never evaluated");
    assert!(c.heavy_sweeps > 0, "no heavy sweep ran");
}

#[test]
fn check_survives_chaotic_injection() {
    let mut k = Kernel::boot(
        MachineConfig::ppc604_185(),
        cfg_with(
            Some(CheckConfig::full()),
            Some(FaultInjection::chaotic(0xC0FFEE)),
        ),
    );
    drive(&mut k);
    let c = k.check.as_ref().unwrap();
    assert!(c.checked_observations > 0);
}

#[test]
fn oracle_catches_deliberate_stale_vsid_bug() {
    let result = std::panic::catch_unwind(|| {
        let mut k = Kernel::boot(
            MachineConfig::ppc604_185(),
            cfg_with(Some(CheckConfig::full()), None),
        );
        let a = k.spawn_process(8).unwrap();
        k.switch_to(a);
        k.user_write(USER_BASE, 8 * 4096).unwrap();
        // Arm the planted bug: flush_context retires legality in the oracle
        // but skips the VSID bump, leaving stale SRs and TLB entries live.
        k.set_buggy_skip_vsid_flush(true);
        let idx = k.task_idx(a).unwrap();
        k.flush_context(idx);
        // The very next access through a previously-translated page must
        // trip the oracle (stale TLB or hash-table hit).
        for _ in 0..8 {
            k.user_read(USER_BASE, 8 * 4096).unwrap();
        }
        k.check_finish();
    });
    let err = result.expect_err("stale-TLB bug escaped the oracle");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()).unwrap());
    assert!(msg.contains("MM check violation"), "wrong panic: {msg}");
    assert!(
        msg.contains("stale"),
        "violation is not a staleness report: {msg}"
    );
}

#[test]
fn bug_without_checker_goes_unnoticed() {
    // The same planted bug with check mode off runs to completion — which
    // is exactly why the oracle has to exist.
    let mut k = Kernel::boot(MachineConfig::ppc604_185(), cfg_with(None, None));
    let a = k.spawn_process(8).unwrap();
    k.switch_to(a);
    k.user_write(USER_BASE, 8 * 4096).unwrap();
    k.set_buggy_skip_vsid_flush(true);
    let idx = k.task_idx(a).unwrap();
    k.flush_context(idx);
    k.user_read(USER_BASE, 8 * 4096).unwrap();
}

#[test]
fn unoptimized_kernel_is_oracle_clean() {
    // Eager flushes, no BATs, slow handlers: the other end of the config
    // space must satisfy the same oracle.
    let cfg = KernelConfig {
        check: Some(CheckConfig::full()),
        ..KernelConfig::unoptimized()
    };
    let mut k = Kernel::boot(MachineConfig::ppc603_133(), cfg);
    drive(&mut k);
    let c = k.check.as_ref().unwrap();
    assert!(c.checked_observations > 0);
    assert!(c.heavy_sweeps > 0);
}

/// The panic message of a checked run that must fail.
fn violation_of(f: impl FnOnce()) -> String {
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
        .expect_err("planted corruption escaped the checker");
    err.downcast_ref::<String>()
        .cloned()
        .unwrap_or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()).unwrap())
}

/// A checked kernel with one running task that has touched eight pages.
fn checked_kernel() -> Kernel {
    let mut k = Kernel::boot(
        MachineConfig::ppc604_185(),
        cfg_with(Some(CheckConfig::full()), None),
    );
    let a = k.spawn_process(8).unwrap();
    k.switch_to(a);
    k.user_write(USER_BASE, 8 * 4096).unwrap();
    k
}

/// A valid hash-table entry under a VSID no context owns, so residency
/// exempts it.
fn dead_pte(k: &Kernel, page_index: u32) -> Pte {
    let mut pte = Pte::invalid();
    pte.valid = true;
    pte.vsid = Vsid::new(0x00ab_cdef);
    pte.page_index = page_index;
    pte.rpn = 0x55;
    assert!(!k.vsids.is_live(pte.vsid));
    pte
}

/// [`checked_kernel`] plus a [`dead_pte`] planted in group 0, where its
/// hash does not put it.
fn kernel_with_misplaced_entry() -> Kernel {
    let mut k = checked_kernel();
    let pte = dead_pte(&k, 0x1234);
    assert_ne!(k.htab.hash().pteg_index(pte.vsid, pte.page_index, false), 0);
    let group = &mut k.htab.groups_mut()[0];
    let slot = group
        .iter()
        .position(|p| !p.valid)
        .expect("group 0 has room");
    group[slot] = pte;
    k
}

#[test]
fn heavy_sweep_catches_a_misplaced_entry() {
    let msg = violation_of(|| kernel_with_misplaced_entry().check_finish());
    assert!(
        msg.starts_with(
            "MM check violation: htab placement: vsid=0xabcdef page=0x1234 (secondary=false) \
             found in group 0 slot"
        ),
        "{msg}"
    );
}

#[test]
fn heavy_sweep_reports_residency_before_an_earlier_misplacement() {
    // The misplaced entry sits in group 0, ahead of the stale one in table
    // order; residency still reports first, as when each check made its own
    // pass over the table.
    let mut k = kernel_with_misplaced_entry();
    let vsid = k.cur().vsids[0].raw();
    let mut pte = Pte::invalid();
    pte.vsid = Vsid::new(vsid);
    pte.page_index = 0xfff0;
    pte.rpn = 0x42;
    pte.pp = 2;
    let (g, _) = k.htab.insert(pte).location;
    assert_ne!(g, 0);
    let msg = violation_of(move || k.check_finish());
    assert!(
        msg.starts_with(&format!(
            "MM check violation: htab residency sweep observed a translation the \
             oracle holds illegal (stale entry): vsid={vsid:#x} page=0xfff0 -> rpn=0x42 \
             writable=true cached=true"
        )),
        "{msg}"
    );
}

#[test]
fn heavy_sweep_catches_an_entry_the_counts_missed() {
    // Correctly placed, so placement passes; written behind the table's
    // back, so the count the table maintains is one short of the walk.
    let mut k = checked_kernel();
    let n = k.htab.valid_entries();
    let pte = dead_pte(&k, 0x4321);
    let g = k.htab.hash().pteg_index(pte.vsid, pte.page_index, false);
    let group = &mut k.htab.groups_mut()[g as usize];
    let slot = group.iter().position(|p| !p.valid).expect("room");
    group[slot] = pte;
    let msg = violation_of(move || k.check_finish());
    assert!(
        msg.starts_with(&format!(
            "MM check violation: htab occupancy: histogram sums to {}, valid_entries says {n}",
            n + 1
        )),
        "{msg}"
    );
}

#[test]
fn heavy_sweep_reports_the_first_violation_after_empty_groups() {
    // An empty table but for two misplaced entries, in the middle and last
    // groups: the sweep skips the empty PTEGs yet reports the earlier one,
    // at its slot.
    let mut k = checked_kernel();
    k.htab.clear();
    let groups = k.htab.groups().len() as u32;
    let (mid, last) = (groups / 2, groups - 1);
    let early = dead_pte(&k, 0x1234);
    let late = dead_pte(&k, 0x2345);
    let hash = k.htab.hash();
    assert_ne!(hash.pteg_index(early.vsid, early.page_index, false), mid);
    assert_ne!(hash.pteg_index(late.vsid, late.page_index, false), last);
    k.htab.groups_mut()[mid as usize][5] = early;
    k.htab.groups_mut()[last as usize][0] = late;
    let msg = violation_of(move || k.check_finish());
    assert!(
        msg.starts_with(&format!(
            "MM check violation: htab placement: vsid=0xabcdef page=0x1234 (secondary=false) \
             found in group {mid} slot 5, hash says group "
        )),
        "{msg}"
    );
}
