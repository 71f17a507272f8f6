//! VSID allocation and liveness tracking.

use ppc_mmu::addr::Vsid;

use crate::kconfig::VsidPolicy;
use crate::layout::USER_SEGMENTS;

/// Base of the reserved kernel VSID range: kernel segments 0xC–0xF get
/// `KERNEL_VSID_BASE + sr`. "We reserved segments for the dynamically mapped
/// parts of the kernel … and put a fixed VSID in these segments" (paper §7).
pub const KERNEL_VSID_BASE: u32 = 0x00ff_f000;

/// Returns the fixed VSID for kernel segment register `sr` (12–15).
///
/// # Panics
///
/// Panics if `sr` is not a kernel segment.
pub fn kernel_vsid(sr: usize) -> Vsid {
    assert!((12..16).contains(&sr), "kernel segments are 0xC-0xF");
    Vsid::new(KERNEL_VSID_BASE + sr as u32)
}

/// Whether a VSID belongs to the kernel's reserved range.
pub fn is_kernel_vsid(v: Vsid) -> bool {
    v.raw() >= KERNEL_VSID_BASE
}

/// Statistics for the VSID allocator.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VsidStats {
    /// Contexts allocated.
    pub contexts_allocated: u64,
    /// Contexts retired (their VSIDs became zombies).
    pub contexts_retired: u64,
}

/// VSIDs covered by one leaf of [`LiveSet`].
const LEAF_BITS: u32 = 4096;
/// `u64` words per leaf (512 bytes).
const WORDS: usize = LEAF_BITS as usize / 64;
/// Leaves covering the whole 24-bit VSID space.
const NUM_LEAVES: usize = ((Vsid::MASK + 1) / LEAF_BITS) as usize;

/// A set of 24-bit VSIDs as a lazily built two-level bitmap: 4096 leaf
/// slots, each naming a 512-byte leaf bitmap taken on the first insert
/// into its range. Membership is two loads and a bit test, which matters
/// because the checker asks it for every live task's VSIDs at every span
/// transition and the idle reclaim asks it for every valid hash-table
/// entry it scans.
///
/// A leaf is unlinked when its last VSID is removed, so lookups of retired
/// (zombie) VSIDs — most of what the idle reclaim asks about — usually stop
/// at the slot table, and memory tracks the live contexts rather than every
/// context ever allocated. Unlinked leaves stay in the pool for reuse, so
/// context churn does not allocate.
#[derive(Debug, Clone, Default)]
struct LiveSet {
    /// Per 4096-VSID range: 1 + the index of its leaf in `pool`, or 0 when
    /// the range holds no live VSID.
    slots: Vec<u32>,
    /// Leaf bitmaps, linked or free.
    pool: Vec<[u64; WORDS]>,
    /// Indices of the empty, unlinked leaves in `pool`.
    free: Vec<u32>,
    len: usize,
}

impl LiveSet {
    /// `(slot, word, bit)` coordinates of `raw`.
    #[inline]
    fn locate(raw: u32) -> (usize, usize, u64) {
        let raw = raw & Vsid::MASK;
        (
            (raw / LEAF_BITS) as usize,
            (raw % LEAF_BITS / 64) as usize,
            1 << (raw % 64),
        )
    }

    /// Adds `raw` (a no-op when already present).
    fn insert(&mut self, raw: u32) {
        if self.slots.is_empty() {
            self.slots = vec![0; NUM_LEAVES];
        }
        let (slot, word, bit) = Self::locate(raw);
        if self.slots[slot] == 0 {
            let leaf = self.free.pop().unwrap_or_else(|| {
                self.pool.push([0; WORDS]);
                self.pool.len() as u32 - 1
            });
            self.slots[slot] = leaf + 1;
        }
        let w = &mut self.pool[self.slots[slot] as usize - 1][word];
        self.len += usize::from(*w & bit == 0);
        *w |= bit;
    }

    /// Removes `raw` (a no-op when absent), unlinking its leaf once empty.
    fn remove(&mut self, raw: u32) {
        let (slot, word, bit) = Self::locate(raw);
        let Some(leaf) = self.slots.get(slot).and_then(|&s| s.checked_sub(1)) else {
            return;
        };
        let l = &mut self.pool[leaf as usize];
        if l[word] & bit == 0 {
            return;
        }
        l[word] &= !bit;
        self.len -= 1;
        if l.iter().all(|&w| w == 0) {
            self.slots[slot] = 0;
            self.free.push(leaf);
        }
    }

    /// The 64-bit bitmap word holding `raw`; 0 when its leaf is unlinked.
    #[inline]
    fn word(&self, raw: u32) -> u64 {
        let (slot, word, _) = Self::locate(raw);
        match self.slots.get(slot) {
            Some(&s) if s != 0 => self.pool[s as usize - 1][word],
            _ => 0,
        }
    }

    #[inline]
    fn contains(&self, raw: u32) -> bool {
        self.word(raw) & Self::locate(raw).2 != 0
    }

    fn len(&self) -> usize {
        self.len
    }
}

/// Allocates per-address-space VSIDs and tracks which are live.
///
/// Liveness is the information the hardware does not have: a hash-table or
/// TLB entry under a retired VSID is a *zombie* — still marked valid, never
/// matchable. The idle-task reclaim (paper §7) queries [`VsidAllocator::is_live`]
/// to physically invalidate zombies.
#[derive(Debug, Clone)]
pub struct VsidAllocator {
    policy: VsidPolicy,
    next_ctx: u32,
    live: LiveSet,
    /// Statistics.
    pub stats: VsidStats,
}

impl VsidAllocator {
    /// Creates an allocator under `policy`.
    pub fn new(policy: VsidPolicy) -> Self {
        Self {
            policy,
            next_ctx: 1,
            live: LiveSet::default(),
            stats: VsidStats::default(),
        }
    }

    /// The policy in force.
    pub fn policy(&self) -> VsidPolicy {
        self.policy
    }

    /// Allocates the VSIDs for a (new or re-keyed) address space.
    ///
    /// * Under [`VsidPolicy::PidScatter`], the VSIDs are a pure function of
    ///   the PID — reallocating for the same PID returns the same VSIDs.
    /// * Under [`VsidPolicy::ContextCounter`], every call takes a fresh
    ///   context number, so reallocation implicitly retires nothing but
    ///   never reuses old VSIDs (the lazy-flush invariant).
    pub fn alloc_context(&mut self, pid: u32) -> [Vsid; USER_SEGMENTS] {
        self.stats.contexts_allocated += 1;
        let constant = self.policy.constant();
        let base = match self.policy {
            VsidPolicy::PidScatter { .. } => pid.wrapping_mul(constant),
            VsidPolicy::ContextCounter { .. } => {
                let c = self.next_ctx;
                self.next_ctx += 1;
                c.wrapping_mul(constant)
            }
        };
        let mut vsids = [Vsid::new(0); USER_SEGMENTS];
        for (sr, slot) in vsids.iter_mut().enumerate() {
            // Keep user VSIDs out of the reserved kernel range.
            let raw = (base.wrapping_add(sr as u32)) & Vsid::MASK;
            let raw = if raw >= KERNEL_VSID_BASE {
                raw - KERNEL_VSID_BASE
            } else {
                raw
            };
            *slot = Vsid::new(raw);
            self.live.insert(raw);
        }
        vsids
    }

    /// Retunes the scatter constant in place, keeping the policy kind.
    ///
    /// Only *future* contexts are affected: under [`VsidPolicy::ContextCounter`]
    /// the context number never resets, so VSIDs handed out before the retune
    /// stay unique and simply age out as zombies — the lazy-flush invariant
    /// survives a mid-run retune. (Under [`VsidPolicy::PidScatter`] the
    /// pid→VSID function changes, so a re-keyed PID gets new VSIDs; the old
    /// ones are retired by the caller like any context switch.)
    ///
    /// # Panics
    ///
    /// Panics if `constant` is zero (every context would share VSIDs).
    pub fn set_scatter_constant(&mut self, constant: u32) {
        assert!(constant != 0, "scatter constant must be nonzero");
        match &mut self.policy {
            VsidPolicy::PidScatter { constant: c } | VsidPolicy::ContextCounter { constant: c } => {
                *c = constant
            }
        }
    }

    /// Retires a context's VSIDs: they become zombies.
    pub fn retire(&mut self, vsids: &[Vsid; USER_SEGMENTS]) {
        self.stats.contexts_retired += 1;
        for v in vsids {
            self.live.remove(v.raw());
        }
    }

    /// Whether `v` can still match a live address space (kernel VSIDs are
    /// always live).
    #[inline]
    pub fn is_live(&self, v: Vsid) -> bool {
        is_kernel_vsid(v) || self.live.contains(v.raw())
    }

    /// The first VSID of `vsids` that is not live — the one
    /// `vsids.iter().copied().find(|v| !self.is_live(*v))` returns — for one
    /// bitmap-word load per run of VSIDs that share a 64-VSID word. A
    /// context's VSIDs are consecutive, so its twelve cost one or two loads;
    /// the checker asks this for every live task at every span transition.
    pub fn first_dead(&self, vsids: &[Vsid]) -> Option<Vsid> {
        let mut start = 0;
        let mut key = vsids.first()?.raw() / 64;
        let mut need = 0u64;
        for (i, v) in vsids.iter().enumerate() {
            if v.raw() / 64 != key {
                if let Some(dead) = self.first_dead_in_word(&vsids[start..i], need) {
                    return Some(dead);
                }
                (start, key, need) = (i, v.raw() / 64, 0);
            }
            need |= 1 << (v.raw() % 64);
        }
        self.first_dead_in_word(&vsids[start..], need)
    }

    /// [`VsidAllocator::first_dead`] over a non-empty `run` of VSIDs that
    /// share one bitmap word; `need` has their bits set.
    fn first_dead_in_word(&self, run: &[Vsid], need: u64) -> Option<Vsid> {
        // The kernel range starts on a word boundary, so a word holds only
        // kernel VSIDs (always live) or only user VSIDs.
        const _: () = assert!(KERNEL_VSID_BASE.is_multiple_of(64));
        if is_kernel_vsid(run[0]) {
            return None;
        }
        let bits = self.live.word(run[0].raw());
        if bits & need == need {
            return None;
        }
        run.iter()
            .copied()
            .find(|v| bits & 1 << (v.raw() % 64) == 0)
    }

    /// Number of live user VSIDs.
    pub fn live_count(&self) -> usize {
        self.live.len()
    }

    /// The next context number the allocator will hand out. Strictly
    /// monotonic under [`VsidPolicy::ContextCounter`] — never reset, never
    /// reused — which is the lazy-flush invariant the runtime checker
    /// re-verifies at every span transition.
    pub fn generation(&self) -> u32 {
        self.next_ctx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_vsids_are_fixed_and_live() {
        let a = VsidAllocator::new(VsidPolicy::ContextCounter { constant: 897 });
        for sr in 12..16 {
            let v = kernel_vsid(sr);
            assert!(is_kernel_vsid(v));
            assert!(a.is_live(v));
        }
    }

    #[test]
    #[should_panic(expected = "kernel segments")]
    fn kernel_vsid_rejects_user_segment() {
        kernel_vsid(3);
    }

    #[test]
    fn pid_scatter_is_deterministic() {
        let mut a = VsidAllocator::new(VsidPolicy::PidScatter { constant: 897 });
        let x = a.alloc_context(7);
        let y = a.alloc_context(7);
        assert_eq!(x, y);
        let z = a.alloc_context(8);
        assert_ne!(x, z);
    }

    #[test]
    fn context_counter_never_reuses() {
        let mut a = VsidAllocator::new(VsidPolicy::ContextCounter { constant: 897 });
        let x = a.alloc_context(7);
        let y = a.alloc_context(7);
        assert_ne!(x, y, "same PID gets fresh VSIDs after a context bump");
    }

    #[test]
    fn retire_makes_zombies() {
        let mut a = VsidAllocator::new(VsidPolicy::ContextCounter { constant: 897 });
        let v = a.alloc_context(1);
        assert!(a.is_live(v[0]));
        a.retire(&v);
        assert!(!a.is_live(v[0]));
        assert_eq!(a.stats.contexts_retired, 1);
        assert_eq!(a.live_count(), 0);
    }

    #[test]
    fn segments_within_context_are_distinct() {
        let mut a = VsidAllocator::new(VsidPolicy::ContextCounter { constant: 897 });
        let v = a.alloc_context(1);
        let set: std::collections::HashSet<_> = v.iter().map(|x| x.raw()).collect();
        assert_eq!(set.len(), USER_SEGMENTS);
    }

    #[test]
    fn scatter_retune_affects_future_contexts_only() {
        let mut a = VsidAllocator::new(VsidPolicy::ContextCounter { constant: 16 });
        let before = a.alloc_context(1);
        a.set_scatter_constant(897);
        assert_eq!(a.policy().constant(), 897);
        // Old VSIDs stay live until retired; new contexts use the new spread.
        assert!(a.is_live(before[0]));
        let after = a.alloc_context(2);
        assert_ne!(before, after);
        // Context counter did not reset: VSIDs remain unique.
        assert_eq!(a.live_count(), 2 * USER_SEGMENTS);
    }

    #[test]
    #[should_panic(expected = "scatter constant")]
    fn scatter_retune_rejects_zero() {
        let mut a = VsidAllocator::new(VsidPolicy::ContextCounter { constant: 897 });
        a.set_scatter_constant(0);
    }

    #[test]
    fn user_vsids_avoid_kernel_range() {
        let mut a = VsidAllocator::new(VsidPolicy::ContextCounter {
            constant: 0xff_ffff,
        });
        for pid in 0..64 {
            for v in a.alloc_context(pid) {
                assert!(
                    !is_kernel_vsid(v),
                    "user vsid {:#x} in kernel range",
                    v.raw()
                );
            }
        }
    }
}
