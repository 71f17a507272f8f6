//! Kernel pipes.

use ppc_machine::LineStream;
use ppc_mmu::addr::{EffectiveAddress, PhysAddr, PAGE_SIZE};

use crate::errors::KResult;
use crate::kernel::Kernel;
use crate::layout::{pa_to_kva, KernelPath};

/// A pipe: a one-page kernel ring buffer plus waiter bookkeeping.
#[derive(Debug, Clone)]
pub struct Pipe {
    /// Physical address of the ring-buffer page.
    pub buf_pa: PhysAddr,
    /// Ring capacity in bytes (one page, like classic Linux).
    pub capacity: u32,
    /// Read cursor.
    pub head: u32,
    /// Bytes currently buffered.
    pub len: u32,
    /// Task slot blocked reading, if any.
    pub reader_waiting: Option<usize>,
    /// Task slot blocked writing, if any.
    pub writer_waiting: Option<usize>,
    /// Total bytes ever transferred.
    pub total_bytes: u64,
}

impl Kernel {
    /// Creates a pipe, returning its id, or `ENOMEM` when no frame can be
    /// found for the ring buffer.
    pub fn pipe_create(&mut self) -> KResult<usize> {
        let pa = self.get_free_page_charged(false)?;
        self.pipes.push(Pipe {
            buf_pa: pa,
            capacity: PAGE_SIZE,
            head: 0,
            len: 0,
            reader_waiting: None,
            writer_waiting: None,
            total_bytes: 0,
        });
        Ok(self.pipes.len() - 1)
    }

    /// `write(pipe, buf, len)`: copies user bytes into the ring, blocking
    /// (switching to the reader) when full.
    ///
    /// # Panics
    ///
    /// Panics on a nonexistent pipe or on simulated deadlock.
    pub fn pipe_write(&mut self, pipe: usize, user_ea: u32, len: u32) -> KResult<()> {
        self.syscall_entry();
        let insns = self.paths.pipe_op;
        self.run_kernel_path(KernelPath::Pipe, insns);
        self.kmeta_ref(0xc000 + pipe as u32 * 13, true);
        let mut written = 0;
        while written < len {
            let (space, tail_off) = {
                let p = &self.pipes[pipe];
                (p.capacity - p.len, (p.head + p.len) % p.capacity)
            };
            if space == 0 {
                // Wake the reader and sleep until drained.
                let cur = self.current.expect("pipe write with no current task");
                if let Some(r) = self.pipes[pipe].reader_waiting.take() {
                    self.wake(r);
                }
                self.pipes[pipe].writer_waiting = Some(cur);
                self.block_current();
                continue;
            }
            let chunk = space
                .min(len - written)
                .min(self.pipes[pipe].capacity - tail_off);
            let buf_pa = self.pipes[pipe].buf_pa;
            self.copy_user_kernel(user_ea + written, buf_pa + tail_off, chunk, true)?;
            {
                let p = &mut self.pipes[pipe];
                p.len += chunk;
                p.total_bytes += chunk as u64;
            }
            written += chunk;
            if let Some(r) = self.pipes[pipe].reader_waiting.take() {
                self.wake(r);
            }
        }
        self.syscall_exit();
        Ok(())
    }

    /// `read(pipe, buf, len)`: copies bytes from the ring to user memory,
    /// blocking (switching to the writer) when empty.
    ///
    /// # Panics
    ///
    /// Panics on a nonexistent pipe or on simulated deadlock.
    pub fn pipe_read(&mut self, pipe: usize, user_ea: u32, len: u32) -> KResult<()> {
        self.syscall_entry();
        let insns = self.paths.pipe_op;
        self.run_kernel_path(KernelPath::Pipe, insns);
        self.kmeta_ref(0xc000 + pipe as u32 * 13, true);
        let mut read = 0;
        while read < len {
            let (avail, head) = {
                let p = &self.pipes[pipe];
                (p.len, p.head)
            };
            if avail == 0 {
                let cur = self.current.expect("pipe read with no current task");
                if let Some(w) = self.pipes[pipe].writer_waiting.take() {
                    self.wake(w);
                }
                self.pipes[pipe].reader_waiting = Some(cur);
                self.block_current();
                continue;
            }
            let chunk = avail.min(len - read).min(self.pipes[pipe].capacity - head);
            let buf_pa = self.pipes[pipe].buf_pa;
            self.copy_user_kernel(user_ea + read, buf_pa + head, chunk, false)?;
            {
                let p = &mut self.pipes[pipe];
                p.len -= chunk;
                p.head = (p.head + chunk) % p.capacity;
            }
            read += chunk;
            if let Some(w) = self.pipes[pipe].writer_waiting.take() {
                self.wake(w);
            }
        }
        self.syscall_exit();
        Ok(())
    }

    /// Bulk transfer: the writer's single `write(len)` against the reader's
    /// single `read(len)`, interleaved through the one-page ring exactly as
    /// the two blocking processes would execute: one syscall each, one
    /// context switch per ring fill/drain. This is `bw_pipe`'s inner loop.
    ///
    /// # Panics
    ///
    /// Panics if either PID does not exist.
    pub fn pipe_transfer(
        &mut self,
        pipe: usize,
        writer: crate::task::Pid,
        reader: crate::task::Pid,
        src_ea: u32,
        dst_ea: u32,
        len: u32,
    ) -> KResult<()> {
        let insns = self.paths.pipe_op;
        // Writer enters write().
        self.switch_to(writer);
        self.syscall_entry();
        self.run_kernel_path(KernelPath::Pipe, insns);
        let cap = self.pipes[pipe].capacity;
        let mut reader_entered = false;
        let mut moved = 0;
        while moved < len {
            let chunk = cap.min(len - moved);
            // Fill the ring.
            let buf_pa = self.pipes[pipe].buf_pa;
            self.copy_user_kernel(src_ea + moved, buf_pa, chunk, true)?;
            self.pipes[pipe].total_bytes += chunk as u64;
            // Ring full: writer sleeps, reader runs and drains.
            self.switch_to(reader);
            if !reader_entered {
                self.syscall_entry();
                self.run_kernel_path(KernelPath::Pipe, insns);
                reader_entered = true;
            }
            self.copy_user_kernel(dst_ea + moved, buf_pa, chunk, false)?;
            // Per-buffer bookkeeping (wakeups; Mach VM/IPC machinery).
            let chunk_insns = self.paths.pipe_chunk_insns;
            self.run_kernel_path(KernelPath::Pipe, chunk_insns);
            moved += chunk;
            if moved < len {
                self.switch_to(writer);
            }
        }
        // Reader returns; writer's return is charged without a re-switch.
        self.syscall_exit();
        self.syscall_exit();
        Ok(())
    }

    /// Copies between user memory and a kernel buffer, through the data
    /// cache on both sides, one reference per line. Runs `pipe_copies` times
    /// (a user-level-server OS copies twice per side).
    pub(crate) fn copy_user_kernel(
        &mut self,
        user_ea: u32,
        kernel_pa: PhysAddr,
        bytes: u32,
        to_kernel: bool,
    ) -> KResult<()> {
        let user = EffectiveAddress(user_ea);
        let kernel = pa_to_kva(kernel_pa);
        let streams = if to_kernel {
            [(user, false), (kernel, true)]
        } else {
            [(kernel, false), (user, true)]
        }
        .map(|(ea, write)| LineStream { ea, write });
        let copies = self.paths.pipe_copies.max(1);
        for _ in 0..copies {
            // The word-copy loop: the remaining loads/stores of the line
            // hit the L1; charge their pipeline work.
            self.copy_lines(streams, bytes, Some(10))?;
        }
        Ok(())
    }
}
