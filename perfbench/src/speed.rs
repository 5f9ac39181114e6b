//! Which host time each workload reports, and the host-speed scaling of
//! `paper-model` and `fleet`.
//!
//! The benchmark runs on shared virtual machines. Two things there move a
//! wall time without the program changing:
//!
//! - *Steal*: the hypervisor runs another guest on the benchmark's virtual
//!   CPU. The process's CPU time (`CLOCK_PROCESS_CPUTIME_ID`) leaves that
//!   time out, because the guest kernel accounts it apart
//!   (`CONFIG_PARAVIRT_TIME_ACCOUNTING`).
//! - *Contention*: other tenants load the same cores and caches, and the
//!   code runs slower while it is on the CPU, by up to 2× within seconds
//!   to minutes. Code that walks maps, queues and small allocations slows
//!   the most; modular arithmetic far less. CPU time does not leave this
//!   out.
//!
//! So every timed unit (an iteration, a set-up sample, a `fleet` block) is
//! read on both clocks, and each workload reports the host time its
//! [`Measure`] names; the wall time is reported beside it. For `paper-model` and
//! `fleet` ([`Measure::ScaledCpu`]), after every unit the benchmark runs a
//! fixed reference kernel of its own for about a tenth of the unit's CPU
//! time and reports the unit at reference speed:
//!
//! ```text
//! scaled_ms = cpu_ms × REFERENCE_PROBE_MS / probe_cpu_ms
//! ```
//!
//! where `probe_cpu_ms` is the median of the probes just before and just
//! after the unit. The kernel uses none of the repository's crates, so a
//! change to the program moves `cpu_ms` and not `probe_cpu_ms`, and moves
//! the scaled time by the same share.

use crate::report::median;
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// The probe's CPU time on the reference host: about the median probe on
/// a 2-vCPU Intel Xeon virtual machine while `paper-model` ran at the
/// fastest speed seen there. Scaled times are CPU times on a host of that
/// speed.
pub const REFERENCE_PROBE_MS: f64 = 2.4;
/// Probe time after each unit, as a share of the unit's CPU time.
const PROBE_SHARE: f64 = 0.1;
/// Probe time before the first unit.
const FIRST_PROBES_MS: f64 = 20.0;

/// The host time a workload reports for its timed units.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Measure {
    /// Wall time: `boot` and `he-ops`. Parts of their units run on the
    /// thread pool, so their latency is not their threads' CPU time, and
    /// no reference kernel tracked their contention slowdown.
    Wall,
    /// CPU time scaled to reference host speed: `paper-model` and
    /// `fleet`, which run on one thread.
    ScaledCpu,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time of this process so far, in ms.
fn process_cpu_ms() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec with the C layout of
    // 64-bit Linux; the call writes only into it.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 * 1e3 + ts.tv_nsec as f64 / 1e6
}

/// Wall and process CPU time of one timed unit, in ms.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Lap {
    pub wall_ms: f64,
    pub cpu_ms: f64,
}

impl Lap {
    /// The mean of `n` units that together took `self`.
    pub fn per(self, n: u32) -> Lap {
        let n = f64::from(n);
        Lap {
            wall_ms: self.wall_ms / n,
            cpu_ms: self.cpu_ms / n,
        }
    }
}

/// Both clocks at the start of a timed unit.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    pub wall: Instant,
    cpu_ms: f64,
}

impl Stopwatch {
    pub fn start() -> Self {
        Self {
            cpu_ms: process_cpu_ms(),
            wall: Instant::now(),
        }
    }

    pub fn lap(&self) -> Lap {
        Lap {
            wall_ms: self.wall.elapsed().as_secs_f64() * 1e3,
            cpu_ms: process_cpu_ms() - self.cpu_ms,
        }
    }
}

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

/// The reference kernel: ordered-map churn over a working set larger than
/// a core's L1 cache, then hash-map churn with small vectors. Of the
/// kernels tried (these two, a pointer chase, a dot product and a modular
/// multiply loop), these two slowed with the host most nearly as
/// `paper-model` and `fleet` did. The maps live as long as the run, so
/// after the first probes the kernel's memory (about 1.5 MB) stays put
/// instead of coming and going around the workload's own allocations.
#[derive(Default)]
struct Kernel {
    rng: u64,
    tree: BTreeMap<u64, u64>,
    map: HashMap<u64, Vec<f64>>,
}

impl Kernel {
    fn run(&mut self) {
        let s = &mut self.rng;
        for _ in 0..12_000 {
            let k = xorshift(s) % 20_000;
            if self.tree.insert(k, k.wrapping_mul(3)).is_some() {
                self.tree.remove(&(k ^ 1));
            }
        }
        let mut acc = 0.0f64;
        for _ in 0..8_000 {
            let k = xorshift(s) % 4096;
            let v = self.map.entry(k).or_default();
            v.push((k as f64).sqrt());
            if v.len() > 8 {
                acc += v.iter().sum::<f64>();
                v.clear();
            }
        }
        black_box(acc);
    }
}

/// Turns the laps of timed units into the host times a workload reports,
/// probing the host's speed around them for [`Measure::ScaledCpu`].
pub struct HostTime {
    measure: Measure,
    kernel: Kernel,
    /// Probe CPU times (ms) since the last unit ended.
    before: Vec<f64>,
    /// Every probe CPU time of the run.
    all: Vec<f64>,
}

impl HostTime {
    pub fn new(measure: Measure) -> Self {
        let mut host = Self {
            measure,
            kernel: Kernel {
                rng: 0x9e37_79b9_7f4a_7c15,
                ..Kernel::default()
            },
            before: Vec::new(),
            all: Vec::new(),
        };
        if measure == Measure::ScaledCpu {
            host.before = host.probe_for(FIRST_PROBES_MS);
        }
        host
    }

    pub fn measure(&self) -> Measure {
        self.measure
    }

    /// Probes until `ms` of probe CPU time have passed; at least one
    /// probe.
    fn probe_for(&mut self, ms: f64) -> Vec<f64> {
        let mut out = Vec::new();
        let mut spent = 0.0;
        while out.is_empty() || spent < ms {
            let sw = Stopwatch::start();
            self.kernel.run();
            let p = sw.lap().cpu_ms;
            spent += p;
            out.push(p);
        }
        self.all.extend(&out);
        out
    }

    /// The host time to report for a unit that has just ended, in ms. For
    /// [`Measure::ScaledCpu`] this probes for a tenth of the unit's CPU
    /// time first.
    pub fn report(&mut self, lap: Lap) -> f64 {
        match self.measure {
            Measure::Wall => lap.wall_ms,
            Measure::ScaledCpu => {
                let after = self.probe_for(PROBE_SHARE * lap.cpu_ms);
                let mut around = std::mem::replace(&mut self.before, after.clone());
                around.extend(after);
                lap.cpu_ms * REFERENCE_PROBE_MS / median(&around)
            }
        }
    }

    /// The run's host speed relative to the reference host, above 1 when
    /// the median probe was faster than [`REFERENCE_PROBE_MS`]; `None`
    /// without probing.
    pub fn relative(&self) -> Option<f64> {
        (self.measure == Measure::ScaledCpu).then(|| REFERENCE_PROBE_MS / median(&self.all))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_measure_reports_its_clock() {
        let lap = Lap {
            wall_ms: 12.0,
            cpu_ms: 10.0,
        };
        let mut wall = HostTime::new(Measure::Wall);
        assert_eq!((wall.report(lap), wall.relative()), (12.0, None));
        assert_eq!(lap.per(2).cpu_ms, 5.0);

        let mut scaled = HostTime::new(Measure::ScaledCpu);
        let a = scaled.report(lap);
        let b = scaled.report(Lap {
            wall_ms: 24.0,
            cpu_ms: 20.0,
        });
        assert!(a > 0.0 && b > a, "{a} {b}");
        assert!(scaled.relative().is_some_and(|r| r > 0.0));
    }

    #[test]
    fn cpu_clock_advances_with_work() {
        let sw = Stopwatch::start();
        let mut x = 0u64;
        while sw.wall.elapsed().as_millis() < 30 {
            x = black_box(x.wrapping_add(1));
        }
        // Other tests' threads can only add to the process's CPU time.
        let lap = sw.lap();
        assert!(lap.cpu_ms > 10.0, "{lap:?}");
    }
}
