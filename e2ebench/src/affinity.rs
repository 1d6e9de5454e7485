//! Pinning the calling thread to one CPU, for the sequential workload's
//! passes. Linux only; elsewhere both calls do nothing.

#[cfg(target_os = "linux")]
mod imp {
    use std::sync::OnceLock;

    /// `cpu_set_t` as glibc lays it out: 1024 bits.
    type CpuSet = [u64; 16];

    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
    }

    /// The CPUs the process may run on, read once before any pinning.
    fn allowed() -> &'static CpuSet {
        static ALLOWED: OnceLock<CpuSet> = OnceLock::new();
        ALLOWED.get_or_init(|| {
            let mut mask: CpuSet = [0; 16];
            // SAFETY: pid 0 names the calling thread, `cpusetsize` is the
            // exact size of the mask, and the pointer is valid and
            // writable for the call.
            let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut mask) };
            if rc != 0 {
                mask = [0; 16];
            }
            mask
        })
    }

    fn set(mask: &CpuSet) {
        // SAFETY: pid 0 names the calling thread, `cpusetsize` is the
        // exact size of the mask, and the pointer is valid for the call,
        // which only reads it. A failure leaves the affinity unchanged,
        // which is harmless here.
        unsafe {
            sched_setaffinity(0, std::mem::size_of::<CpuSet>(), mask);
        }
    }

    /// Pins the calling thread to the `turn`-th allowed CPU, cyclically.
    pub fn pin(turn: usize) {
        let cpus: Vec<usize> = (0..1024)
            .filter(|&c| allowed()[c / 64] & (1 << (c % 64)) != 0)
            .collect();
        if cpus.is_empty() {
            return;
        }
        let cpu = cpus[turn % cpus.len()];
        let mut mask: CpuSet = [0; 16];
        mask[cpu / 64] = 1 << (cpu % 64);
        set(&mask);
    }

    /// Restores the affinity the process started with.
    pub fn unpin() {
        if allowed().iter().any(|&w| w != 0) {
            set(allowed());
        }
    }
}

#[cfg(not(target_os = "linux"))]
mod imp {
    /// Does nothing off Linux.
    pub fn pin(_turn: usize) {}

    /// Does nothing off Linux.
    pub fn unpin() {}
}

pub use imp::{pin, unpin};
