//! Pins the calling thread to one CPU at a time.
//!
//! On a shared host each CPU of the machine can slow down on its own, by up
//! to half, for seconds to minutes, and the scheduler keeps a lone thread
//! on one CPU. The library workloads therefore pin each timed transpile to
//! the allowed CPUs in turn, so that a circuit's fastest time is taken over
//! every CPU and not only the one the thread happened to start on.

#[cfg(target_os = "linux")]
mod sys {
    use std::io;

    /// Words of a `cpu_set_t`: 1024 CPUs.
    const WORDS: usize = 16;

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }

    pub fn allowed() -> io::Result<Vec<usize>> {
        let mut mask = [0u64; WORDS];
        // SAFETY: `mask` is a writable buffer of exactly the size passed;
        // pid 0 is the calling thread.
        let status =
            unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        if status != 0 {
            return Err(io::Error::last_os_error());
        }
        Ok((0..WORDS * 64)
            .filter(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
            .collect())
    }

    pub fn pin(cpus: &[usize]) -> io::Result<()> {
        let mut mask = [0u64; WORDS];
        for &cpu in cpus.iter().filter(|&&cpu| cpu < WORDS * 64) {
            mask[cpu / 64] |= 1 << (cpu % 64);
        }
        // SAFETY: `mask` is a readable buffer of exactly the size passed;
        // pid 0 is the calling thread.
        let status = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
        if status != 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    use std::io;

    pub fn allowed() -> io::Result<Vec<usize>> {
        Ok(Vec::new())
    }

    pub fn pin(_cpus: &[usize]) -> io::Result<()> {
        Ok(())
    }
}

/// The CPUs the calling thread may run on, and a way to pin it to each in
/// turn and to let it go again.
pub struct Rotation {
    cpus: Vec<usize>,
}

impl Rotation {
    /// The calling thread's allowed CPUs. Where they cannot be read, or
    /// there is only one, [`Rotation::pin`] does nothing.
    pub fn new() -> Self {
        Self {
            cpus: sys::allowed().unwrap_or_default(),
        }
    }

    pub fn len(&self) -> usize {
        self.cpus.len().max(1)
    }

    /// Pins the calling thread to the `turn`-th allowed CPU, counting round.
    pub fn pin(&self, turn: usize) -> Result<(), String> {
        if self.cpus.len() < 2 {
            return Ok(());
        }
        let cpu = self.cpus[turn % self.cpus.len()];
        sys::pin(&[cpu]).map_err(|e| format!("pinning to CPU {cpu}: {e}"))
    }

    /// Lets the calling thread run on every allowed CPU again.
    pub fn release(&self) -> Result<(), String> {
        if self.cpus.len() < 2 {
            return Ok(());
        }
        sys::pin(&self.cpus).map_err(|e| format!("restoring the CPU set: {e}"))
    }
}
