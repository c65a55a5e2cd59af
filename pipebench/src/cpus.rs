//! Which CPU an iteration's feeding thread runs on.
//!
//! On a shared host the CPUs a run can land on differ in speed for
//! minutes at a time: with a neighbour busy on one vCPU's physical core,
//! the same loop ran 1.4× slower there than on the other vCPU. The
//! scheduler rarely moves a busy thread, so a run placed on the slow CPU
//! came out slow as a whole, and the runs of a batch split into a fast
//! and a slow group. Each iteration therefore pins its feeding thread to
//! one CPU, cycling through the CPUs the process may use, and a run
//! reports the mean over CPUs of each CPU's median.
//!
//! A thread inherits its creator's CPU mask, so a workload pins only after
//! it has started the threads the crates spawn for it; those keep the
//! whole mask.

/// The CPUs the process may run on, in ascending order.
#[derive(Debug, Clone)]
pub struct Cpus(Vec<usize>);

impl Cpus {
    /// The CPUs in the calling thread's affinity mask; empty where the
    /// mask cannot be read (then nothing is pinned).
    pub fn of_current_thread() -> Self {
        Cpus(sys::current_mask().map_or_else(Vec::new, |mask| mask.cpus()))
    }

    /// How many CPUs iterations cycle through (at least 1).
    pub fn count(&self) -> usize {
        self.0.len().max(1)
    }

    /// The CPU of cycle slot `slot`, if any.
    pub fn get(&self, slot: usize) -> Option<usize> {
        (!self.0.is_empty()).then(|| self.0[slot % self.0.len()])
    }
}

/// Restores the thread's previous CPU mask when dropped.
#[derive(Debug)]
#[must_use = "the thread is unpinned when the guard drops"]
pub struct Pinned(Option<sys::CpuSet>);

/// Pins the calling thread to `cpu` (no-op for `None` or when the mask
/// cannot be changed) until the returned guard drops.
pub fn pin_current_thread(cpu: Option<usize>) -> Pinned {
    let Some(cpu) = cpu else {
        return Pinned(None);
    };
    let previous = sys::current_mask();
    let pinned = previous.is_some() && sys::set_current_mask(&sys::CpuSet::only(cpu));
    Pinned(previous.filter(|_| pinned))
}

impl Drop for Pinned {
    fn drop(&mut self) {
        if let Some(previous) = self.0.take() {
            // Nothing to report from a destructor; a thread left pinned
            // only narrows where the next iteration's threads may run.
            let _ = sys::set_current_mask(&previous);
        }
    }
}

#[cfg(target_os = "linux")]
mod sys {
    /// `cpu_set_t`: a 1024-bit mask, one bit per CPU.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    #[repr(C)]
    pub struct CpuSet([u64; 16]);

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    }

    impl CpuSet {
        pub fn only(cpu: usize) -> Self {
            let mut set = CpuSet([0; 16]);
            if cpu < 1024 {
                set.0[cpu / 64] |= 1 << (cpu % 64);
            }
            set
        }

        pub fn cpus(&self) -> Vec<usize> {
            (0..1024)
                .filter(|cpu| self.0[cpu / 64] & (1 << (cpu % 64)) != 0)
                .collect()
        }
    }

    /// The calling thread's CPU mask.
    pub fn current_mask() -> Option<CpuSet> {
        let mut set = CpuSet([0; 16]);
        // SAFETY: `set` is a valid, writable `cpu_set_t` of the size
        // passed, live for the whole call; pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
        (rc == 0).then_some(set)
    }

    /// Sets the calling thread's CPU mask; whether it took.
    pub fn set_current_mask(set: &CpuSet) -> bool {
        // SAFETY: `set` is a valid `cpu_set_t` of the size passed, live
        // for the whole call; pid 0 names the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set) == 0 }
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    #[derive(Debug, Clone, Copy)]
    pub struct CpuSet;

    impl CpuSet {
        pub fn only(_cpu: usize) -> Self {
            CpuSet
        }

        pub fn cpus(&self) -> Vec<usize> {
            Vec::new()
        }
    }

    pub fn current_mask() -> Option<CpuSet> {
        None
    }

    pub fn set_current_mask(_set: &CpuSet) -> bool {
        false
    }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;

    #[test]
    fn pinning_narrows_the_mask_and_the_guard_restores_it() {
        let cpus = Cpus::of_current_thread();
        let before = sys::current_mask().expect("readable mask");
        let last = cpus.get(cpus.count() - 1);
        {
            let _pinned = pin_current_thread(last);
            assert_eq!(sys::current_mask().unwrap().cpus(), vec![last.unwrap()]);
        }
        assert_eq!(sys::current_mask(), Some(before));
        assert!(pin_current_thread(None).0.is_none());
    }

    #[test]
    fn slots_cycle_through_the_cpus() {
        let cpus = Cpus(vec![2, 5]);
        assert_eq!(cpus.count(), 2);
        assert_eq!(
            (0..4).map(|slot| cpus.get(slot)).collect::<Vec<_>>(),
            [Some(2), Some(5), Some(2), Some(5)]
        );
        assert_eq!(Cpus(Vec::new()).get(3), None);
        assert_eq!(Cpus(Vec::new()).count(), 1);
    }
}
