//! What the kernel reports about this process — peak resident memory,
//! per-thread CPU time, allowed CPUs — the checkout's git revision, and
//! thread placement. Linux only, like the `/proc` files it reads.

use std::fs;
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, OnceLock};
use std::thread::JoinHandle;

/// Peak resident set (`VmHWM`) in MB.
pub fn rss_hwm_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Kernel clock ticks per second for the `utime`/`stime` fields of
/// `/proc/*/stat` (`USER_HZ`, fixed at 100 on Linux).
const TICKS_PER_S: f64 = 100.0;

/// CPU seconds (user + system) used so far by every live thread of this
/// process whose name starts with `prefix`. Thread names are cut to 15
/// bytes by the kernel, so pass at most that many.
pub fn thread_cpu_s(prefix: &str) -> f64 {
    let mut ticks = 0u64;
    let Ok(tasks) = fs::read_dir("/proc/self/task") else { return 0.0 };
    for task in tasks.flatten() {
        let Ok(stat) = fs::read_to_string(task.path().join("stat")) else { continue };
        // `pid (comm) state ...`: comm may itself hold spaces or
        // parentheses, so split at the last ')'.
        let (Some(open), Some(close)) = (stat.find('('), stat.rfind(')')) else { continue };
        if !stat[open + 1..close].starts_with(prefix) {
            continue;
        }
        let fields: Vec<&str> = stat[close + 1..].split_whitespace().collect();
        // After comm: state is field 0, utime field 11, stime field 12.
        let parse = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok()).unwrap_or(0);
        ticks += parse(11) + parse(12);
    }
    ticks as f64 / TICKS_PER_S
}

mod affinity {
    /// Room for 1024 CPUs, the kernel's default `CPU_SETSIZE`.
    pub type Mask = [u64; 16];

    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }

    pub fn get() -> Option<Mask> {
        let mut mask: Mask = [0; 16];
        // SAFETY: `mask` is a live, writable buffer of exactly the size
        // passed; pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<Mask>(), mask.as_mut_ptr()) };
        (rc == 0).then_some(mask)
    }

    pub fn set(mask: &Mask) -> bool {
        // SAFETY: `mask` is a live buffer of exactly the size passed;
        // pid 0 names the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of::<Mask>(), mask.as_ptr()) == 0 }
    }
}

/// The CPUs this process may run on, read once before any thread is
/// pinned (a pinned thread would report only its own).
fn allowed_cpus() -> &'static [usize] {
    static CPUS: OnceLock<Vec<usize>> = OnceLock::new();
    CPUS.get_or_init(|| match affinity::get() {
        Some(mask) => (0..mask.len() * 64).filter(|c| mask[c / 64] >> (c % 64) & 1 == 1).collect(),
        None => (0..std::thread::available_parallelism().map_or(1, |n| n.get())).collect(),
    })
}

pub fn cores() -> usize {
    allowed_cpus().len()
}

/// Pin the calling thread — and every thread it spawns afterwards — to
/// the `slot`-th allowed CPU (modulo their number). With exactly as
/// many busy threads as cores there is no slack for the scheduler to
/// stack two of them on one core, even briefly, so the benchmark says
/// where each runs: slot 0 holds the main thread, the server's threads
/// and the first embedded worker; slot 1 the generator and the second
/// embedded worker. Returns whether the kernel accepted it; once
/// [`HaltGuard::start`] has pinned a thread to each slot it does.
pub fn pin_to_slot(slot: usize) -> bool {
    let cpus = allowed_cpus();
    let cpu = cpus[slot % cpus.len()];
    let mut mask: affinity::Mask = [0; 16];
    mask[cpu / 64] = 1 << (cpu % 64);
    affinity::set(&mask)
}

/// Keeps the benchmark's two CPUs from halting.
///
/// An idle virtual CPU halts, and waking a halted one goes through the
/// hypervisor, at a price that follows the host's load and not the
/// program: without the guard `wire-get`'s median latency spread 14 to
/// 18 % over eight runs of the same code, with it 4 % (the A/B table in
/// the README). One spinner per CPU under `SCHED_IDLE` — the policy
/// that only ever gets cycles nobody else wants, and is preempted the
/// moment anything else wakes — keeps the CPU out of the halted state,
/// so a wake-up costs what it costs on a machine that is not
/// virtualised. The spinners take nothing from the two measured
/// threads. Every latency this benchmark reports is measured this way,
/// and `BENCHMARK.json` says so.
pub struct HaltGuard {
    stop: Arc<AtomicBool>,
    spinners: Vec<JoinHandle<()>>,
}

impl HaltGuard {
    const SCHED_IDLE: i32 = 5;

    /// Start one spinner on each of the two slots. Fails, and starts
    /// nothing, if the kernel refuses the idle policy or the pinning:
    /// numbers taken without the guard are not comparable with numbers
    /// taken with it, so such a run must not report any.
    pub fn start() -> io::Result<HaltGuard> {
        extern "C" {
            fn sched_setscheduler(pid: i32, policy: i32, param: *const i32) -> i32;
        }
        let stop = Arc::new(AtomicBool::new(false));
        let (ready, readiness) = mpsc::channel();
        let spinners = (0..2)
            .map(|slot| {
                let (stop, ready) = (stop.clone(), ready.clone());
                std::thread::Builder::new().name(format!("pb-awake-{slot}")).spawn(move || {
                    // `struct sched_param` is one int.
                    let priority = 0i32;
                    // SAFETY: `priority` outlives the call; pid 0 names
                    // the calling thread.
                    let idle = unsafe { sched_setscheduler(0, Self::SCHED_IDLE, &priority) } == 0;
                    // At normal priority a spinner would take a core
                    // from a measured thread: better none.
                    let armed = idle && pin_to_slot(slot);
                    let _ = ready.send(armed);
                    let mut x = 0u64;
                    while armed && !stop.load(Ordering::Relaxed) {
                        // No PAUSE: a pause loop invites the hypervisor
                        // to deschedule the CPU.
                        for _ in 0..4096 {
                            x = std::hint::black_box(x.wrapping_add(1));
                        }
                    }
                })
            })
            .collect::<io::Result<Vec<_>>>()?;
        let guard = HaltGuard { stop, spinners };
        if (0..2).all(|_| readiness.recv().unwrap_or(false)) {
            Ok(guard)
        } else {
            guard.finish();
            Err(io::Error::other(
                "the kernel refused SCHED_IDLE or CPU pinning for the halt guard; \
                 without it the latencies would not be comparable",
            ))
        }
    }

    /// Stop the spinners and wait for them.
    pub fn finish(self) {
        self.stop.store(true, Ordering::Relaxed);
        for spinner in self.spinners {
            let _ = spinner.join();
        }
    }
}

/// Run `f` on a named thread pinned to `slot` and wait for it.
pub fn run_pinned<T: Send>(slot: usize, name: &str, f: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|s| {
        std::thread::Builder::new()
            .name(name.into())
            .spawn_scoped(s, || {
                pin_to_slot(slot);
                f()
            })
            .expect("the OS refused a thread")
            .join()
            .expect("a measuring thread panicked")
    })
}

/// Short revision of the git checkout the benchmark runs in, read from
/// `.git` directly (no child process); `nogit` outside a repository.
pub fn git_rev() -> String {
    let mut dir = std::env::current_dir().ok();
    while let Some(d) = dir {
        let git = d.join(".git");
        if let Ok(head) = fs::read_to_string(git.join("HEAD")) {
            let head = head.trim();
            let full = match head.strip_prefix("ref: ") {
                None => Some(head.to_string()),
                Some(r) => fs::read_to_string(git.join(r)).ok().or_else(|| {
                    let packed = fs::read_to_string(git.join("packed-refs")).ok()?;
                    packed.lines().find_map(|l| l.strip_suffix(r).map(str::to_string))
                }),
            };
            if let Some(hash) = full {
                return hash.trim().chars().take(7).collect();
            }
        }
        dir = d.parent().map(|p| p.to_path_buf());
    }
    "nogit".to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinned_threads_stay_on_their_slot() {
        let before = cores();
        let seen = run_pinned(1, "pb-pin-probe", || {
            affinity::get().map(|m| m.iter().map(|w| w.count_ones()).sum::<u32>())
        });
        assert_eq!(seen, Some(1), "a pinned thread is allowed exactly one CPU");
        assert_eq!(cores(), before, "pinning a thread does not change the process's CPU count");
    }

    #[test]
    fn halt_guard_arms_both_slots_or_refuses() {
        // Either outcome is legal for the kernel; a guard that starts
        // must stop again, and a refusal must say why.
        match HaltGuard::start() {
            Ok(guard) => guard.finish(),
            Err(e) => assert!(e.to_string().contains("SCHED_IDLE"), "{e}"),
        }
    }

    #[test]
    fn reads_own_process() {
        assert!(rss_hwm_mb() > 0.0);
        assert!(cores() >= 1);
        let name = "pb-cpu-probe";
        let cpu = std::thread::Builder::new()
            .name(name.into())
            .spawn(move || {
                let t0 = std::time::Instant::now();
                let mut x = 0u64;
                while t0.elapsed().as_millis() < 120 {
                    x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(1));
                }
                thread_cpu_s(name)
            })
            .unwrap()
            .join()
            .unwrap();
        assert!((0.05..1.0).contains(&cpu), "a 120 ms spin read as {cpu} s of CPU");
    }
}
