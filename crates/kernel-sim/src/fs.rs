//! Files and the page cache.

use ppc_machine::LineStream;
use ppc_mmu::addr::{EffectiveAddress, PhysAddr, PAGE_SIZE};

use crate::errors::{KResult, KernelError};
use crate::kernel::Kernel;
use crate::layout::{pa_to_kva, KernelPath};

/// Outcome of a page-cache lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageCacheLookup {
    /// The page is resident in the cache at this frame.
    Present(PhysAddr),
    /// The page belongs to the file but was evicted under memory pressure;
    /// it must be refilled before use.
    Evicted,
    /// The offset lies beyond the last page of the file.
    PastEof,
}

/// A file backed by the page cache.
#[derive(Debug, Clone)]
pub struct File {
    /// Page-cache frames, one slot per file page. `None` means the page was
    /// evicted under memory pressure and refills on next use.
    pub pages: Vec<Option<PhysAddr>>,
    /// File size in bytes.
    pub size: u32,
}

impl File {
    /// Looks up the page-cache frame holding byte `offset`.
    pub fn page_at(&self, offset: u32) -> PageCacheLookup {
        match self.pages.get((offset / PAGE_SIZE) as usize) {
            Some(Some(pa)) => PageCacheLookup::Present(*pa),
            Some(None) => PageCacheLookup::Evicted,
            None => PageCacheLookup::PastEof,
        }
    }

    /// Resident page-cache frames.
    pub fn resident_pages(&self) -> usize {
        self.pages.iter().filter(|p| p.is_some()).count()
    }
}

impl Kernel {
    /// Creates a fully cached file of `bytes` (rounded up to pages).
    /// Page-cache population is not charged — LmBench's reread benchmark
    /// measures the warm case. Fails with `ENOMEM` when even reclaim cannot
    /// find frames; file creation never invokes the OOM killer (the page
    /// cache is the first thing sacrificed to pressure, so it must not kill
    /// tasks to grow).
    pub fn create_file(&mut self, bytes: u32) -> KResult<usize> {
        let pages = bytes.div_ceil(PAGE_SIZE);
        let mut frames = Vec::with_capacity(pages as usize);
        for _ in 0..pages {
            frames.push(Some(self.alloc_page_cache_frame()?));
        }
        self.files.push(File {
            pages: frames,
            size: bytes,
        });
        Ok(self.files.len() - 1)
    }

    /// A frame for the page cache: the free list first, then the pressure
    /// path short of the OOM killer.
    pub(crate) fn alloc_page_cache_frame(&mut self) -> KResult<PhysAddr> {
        loop {
            if let Some((pa, _)) = self.frames.get_free_page() {
                return Ok(pa);
            }
            if self.memory_pressure_reclaim() == 0 {
                return Err(KernelError::OutOfMemory);
            }
        }
    }

    /// Refills an evicted page-cache page (a simulated disk read: the fs
    /// path plus a fresh frame; no rotational latency is modelled).
    pub(crate) fn page_cache_fill(&mut self, file: usize, offset: u32) -> KResult<PhysAddr> {
        let insns = self.paths.file_per_page;
        self.run_kernel_path(KernelPath::File, insns);
        let pa = self.get_free_page_charged(false)?;
        self.files[file].pages[(offset / PAGE_SIZE) as usize] = Some(pa);
        Ok(pa)
    }

    /// `read(fd, buf, len)` at `offset`: page-cache lookup plus a copy to
    /// user memory for each page. Like the real syscall, reads truncate at
    /// end of file; the returned value is the byte count actually read.
    /// Evicted page-cache pages are refilled (and charged) on demand, and a
    /// fault on the user buffer propagates (it can kill the task).
    pub fn sys_read(&mut self, file: usize, offset: u32, user_ea: u32, len: u32) -> KResult<u32> {
        self.syscall_entry();
        let avail = self.files[file].size.saturating_sub(offset);
        let len = len.min(avail);
        let mut done = 0;
        while done < len {
            let off = offset + done;
            let page_off = off % PAGE_SIZE;
            let chunk = (PAGE_SIZE - page_off).min(len - done);
            // Page-cache lookup and fs bookkeeping: the inode, the
            // page-cache hash chain, and the buffer head are distinct
            // slab-resident structures.
            let insns = self.paths.file_per_page;
            self.run_kernel_path(KernelPath::File, insns);
            self.kmeta_ref(0x100 + file as u32, false);
            self.kmeta_ref(0x9000 + (file as u32) * 331 + off / PAGE_SIZE, false);
            let page = match self.files[file].page_at(off) {
                PageCacheLookup::Present(pa) => pa,
                PageCacheLookup::Evicted => self.page_cache_fill(file, off)?,
                PageCacheLookup::PastEof => unreachable!("read truncated at EOF"),
            };
            self.mem_map_ref(page, false);
            // Copy page-cache -> user buffer, one reference per line each
            // side, plus per-word copy-loop pipeline work for the rest of
            // the line.
            self.copy_lines(
                [
                    LineStream {
                        ea: pa_to_kva(page + page_off),
                        write: false,
                    },
                    LineStream {
                        ea: EffectiveAddress(user_ea + done),
                        write: true,
                    },
                ],
                chunk,
                Some(10),
            )?;
            done += chunk;
        }
        self.syscall_exit();
        Ok(len)
    }
}
