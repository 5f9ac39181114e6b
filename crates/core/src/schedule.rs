//! The stream-ordered GPU↔PIM scheduler (§V-C).
//!
//! Ops execute in issue order: GPU kernels run through the roofline model
//! with the object-granularity L2 filtering DRAM traffic; consecutive PIM
//! ops form one PIM kernel run (large granularity, hundreds of µs); each
//! GPU↔PIM transition pays the stream-queue handoff of ~2 µs, which §V-C
//! shows is negligible at PIM-kernel granularity.
//!
//! With a [`FaultPlan`] attached, every PIM kernel runs under fault
//! injection and its post-kernel integrity check can fail. The scheduler
//! then degrades gracefully instead of propagating the failure: transient
//! faults are retried under the configured [`RetryPolicy`] (default: the
//! legacy [`MAX_PIM_RETRIES`] immediate retries), hard faults (a stuck
//! MMAC lane) permanently disable the PIM path, and whatever still fails
//! re-executes on the GPU. Every wasted attempt, backoff, and GPU
//! re-execution is charged to the timeline and recorded as a degraded
//! segment.
//!
//! With a [`HealthRegistry`] attached ([`RunOpts::health`]), the
//! degradation becomes *bank-scoped and stateful*: each PIM kernel is
//! attributed to a bank health domain (die group), integrity failures feed
//! that domain's circuit breaker, open breakers route their kernels
//! straight to the GPU while healthy domains keep serving PIM traffic, and
//! half-open probes bring recovered banks back. A hard fault opens only the
//! owning domain's breaker — permanently — instead of disabling PIM
//! wholesale. The registry persists across runs, which is how the serving
//! layer makes per-bank decisions *over time*.
//!
//! # One loop, two timelines
//!
//! [`Scheduler::run`] is one loop that visits the ops in issue order and
//! dispatches each op when it is visited, so the stateful L2 model, the
//! fault-injector stream and the breaker decisions consume the same
//! sequence in every mode. What the [`ScheduleMode`] changes is only where
//! a kernel may start, and that lives in a private `Timeline`:
//!
//! - `Serial` keeps one cursor: every handoff serializes the two engines.
//! - `Pipelined` keeps one cursor per stream, the dependency horizon
//!   (`writer_end` / `reader_end`: each object's last producer and
//!   readers), the write-back barrier, and the stream-segment spans.
//!
//! The modes differ deliberately in three ways and agree deliberately in a
//! fourth; `crates/core/tests/schedule_digest.rs` pins all four:
//!
//! 1. Serial builds and consults no dependency horizon. After a GPU
//!    fallback inside a PIM run, serial resumes PIM with no handoff, where
//!    the horizon would charge one on the cross-stream edge.
//! 2. Without a registry, a hard fault disables PIM for the rest of the
//!    run. In serial mode the rest of the current PIM run re-executes as
//!    degraded GPU fallbacks with one handoff each; in pipelined mode later
//!    PIM-tagged ops run as plain GPU kernels with L2 reuse.
//! 3. Handoff spans: serial stamps `(now, now + T)`, pipelined stamps
//!    `((start − T).max(0), start)`, which are not bit-equal in f64.
//! 4. End times: both modes end a GPU kernel at `start + (cost + stall)`,
//!    serial's association, which matters only when a GPU stall is
//!    injected.

use std::collections::HashMap;

use gpu::cache::L2Cache;
use gpu::kernel::{KernelClass, KernelDesc};
use gpu::model::GpuModel;
use pim::device::PimDeviceConfig;
use pim::error::PimError;
use pim::exec::{PimExecutor, PimKernelResult, PimKernelSpec};
use pim::fault::{BankDomain, FaultInjector, FaultPlan};
use pim::layout::LayoutPolicy;

use crate::error::RunError;
use crate::health::{BreakerTransition, HealthRegistry, PathDecision, RetryPolicy};
use crate::ir::{Executor, ObjKind, Op, OpKind, OpSequence};
use crate::report::{ExecutionReport, GanttSegment};
use crate::telemetry::Telemetry;

/// GPU↔PIM transition cost (§V-C: "a couple of microseconds").
pub const TRANSITION_NS: f64 = 2000.0;

/// Legacy default: PIM retries granted to a kernel after transient
/// integrity failures before it falls back to the GPU. Schedulers built
/// without an explicit [`RetryPolicy`] behave exactly as if
/// `RetryPolicy::fixed(MAX_PIM_RETRIES)` were configured.
pub const MAX_PIM_RETRIES: u32 = 2;

/// How the scheduler lays kernels onto the virtual timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScheduleMode {
    /// One timeline: every GPU↔PIM handoff serializes the two engines
    /// (the paper's deliberate §V-C design). The default, and
    /// bit-identical to the pre-mode scheduler.
    #[default]
    Serial,
    /// Two virtual streams (GPU, PIM): data-independent work overlaps in
    /// virtual time, and only dependencies that actually cross streams pay
    /// the `TRANSITION_NS` handoff. Models the double-buffered stream
    /// pipelining of GPU FHE libraries; §V-C bounds its win on
    /// bootstrapping below 1.35×.
    Pipelined,
}

/// The optional state one [`Scheduler::run`] records into. The default
/// records nothing and uses the legacy degradation path.
#[derive(Debug, Default)]
pub struct RunOpts<'r> {
    /// Per-bank circuit breaking: PIM kernels are attributed to the
    /// registry's bank domains, failures feed the domain breakers, and
    /// kernels whose breaker is open run on the GPU directly. The registry
    /// persists state across calls, so repeated runs (e.g. serving
    /// requests) accumulate health history. `None` keeps the legacy
    /// path: unscoped faults and a global PIM switch-off on the first
    /// hard fault.
    pub health: Option<&'r mut HealthRegistry>,
    /// Records every kernel, handoff, backoff, and limb batch as
    /// virtual-time spans and metrics (breaker transitions land on the
    /// `health` track). Recording happens on the calling thread only, so
    /// the exported trace is bit-identical across thread counts.
    pub telemetry: Option<&'r mut Telemetry>,
}

/// Scheduler binding the execution engines.
#[derive(Debug)]
pub struct Scheduler<'a> {
    gpu: &'a GpuModel,
    pim: Option<(&'a PimDeviceConfig, LayoutPolicy)>,
    fault: Option<FaultPlan>,
    retry: RetryPolicy,
    mode: ScheduleMode,
    budget_ns: Option<f64>,
}

impl<'a> Scheduler<'a> {
    /// GPU-only scheduling.
    pub fn gpu_only(gpu: &'a GpuModel) -> Self {
        Self {
            gpu,
            pim: None,
            fault: None,
            retry: RetryPolicy::fixed(MAX_PIM_RETRIES),
            mode: ScheduleMode::Serial,
            budget_ns: None,
        }
    }

    /// GPU + PIM co-execution.
    pub fn with_pim(gpu: &'a GpuModel, dev: &'a PimDeviceConfig, layout: LayoutPolicy) -> Self {
        Self {
            pim: Some((dev, layout)),
            ..Self::gpu_only(gpu)
        }
    }

    /// Selects the timeline discipline. [`ScheduleMode::Serial`] (the
    /// default) is bit-identical to the pre-mode scheduler;
    /// [`ScheduleMode::Pipelined`] overlaps independent work across two
    /// virtual streams. Pipelined has no effect without a PIM device —
    /// GPU-only sequences have a single stream either way.
    pub fn with_mode(mut self, mode: ScheduleMode) -> Self {
        self.mode = mode;
        self
    }

    /// Attaches a fault plan: PIM kernels run under fault injection and
    /// degrade to the GPU when their integrity checks fail, and GPU
    /// kernels sample the plan's stream stalls and transfer flips.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault = Some(plan);
        self
    }

    /// Overrides the retry discipline for transient PIM failures. The
    /// default, [`RetryPolicy::fixed`]`(MAX_PIM_RETRIES)`, reproduces the
    /// legacy immediate-retry behaviour bit-for-bit.
    pub fn with_retry_policy(mut self, policy: RetryPolicy) -> Self {
        self.retry = policy;
        self
    }

    /// Attaches a deadline budget in virtual ns: before every op in issue
    /// order and before every PIM kernel the scheduler checks the clock,
    /// and a run that is already past its budget stops there with
    /// [`ExecutionReport::cancelled`] set instead of burning the remaining
    /// cost. A run whose last segment finishes late is *not* cancelled —
    /// the work is done, so it reports as an ordinary late completion.
    /// Without a budget (the default) the timeline is untouched.
    pub fn with_deadline_budget(mut self, budget_ns: f64) -> Self {
        self.budget_ns = Some(budget_ns);
        self
    }

    /// Runs the sequence and produces a report.
    ///
    /// Fails only on errors no fallback can absorb (e.g. a PIM instruction
    /// unsupported at the configured buffer size), or with
    /// [`RunError::HealthDomainMismatch`] if `opts.health` was sized for a
    /// different device; integrity-check failures under an attached
    /// [`FaultPlan`] are handled by retry/degradation and recorded in the
    /// report instead.
    pub fn run(&self, seq: &OpSequence, opts: RunOpts<'_>) -> Result<ExecutionReport, RunError> {
        if let (Some(reg), Some((dev, _))) = (opts.health.as_deref(), self.pim) {
            let device = dev.dram.geometry.die_groups;
            if reg.domains() != device {
                return Err(RunError::HealthDomainMismatch {
                    registry: reg.domains(),
                    device,
                });
            }
        }
        let timeline = match (self.mode, self.pim) {
            (ScheduleMode::Pipelined, Some(_)) => Timeline::Pipelined(Box::default()),
            _ => Timeline::Serial { now: 0.0 },
        };
        let mut run = Run {
            sched: self,
            n: seq.params.n() as u64,
            timeline,
            report: ExecutionReport::default(),
            cache: L2Cache::new(self.gpu.config().l2_bytes),
            injector: self.fault.map(FaultInjector::new),
            health: opts.health,
            tel: opts.telemetry,
            pim_disabled: false,
            kernel_idx: 0,
            last_exec: Executor::Gpu,
        };
        for op in &seq.ops {
            if !run.dispatch(op)? {
                run.report.cancelled = true;
                break;
            }
        }
        Ok(run.finish())
    }

    /// Integer ops a GPU kernel of this kind executes (one modmul ≈ 8
    /// 32-bit mul-adds plus surrounding adds, §III-A D2).
    fn int_ops(&self, kind: &OpKind, n: u64) -> u64 {
        match *kind {
            OpKind::Ntt { limbs } | OpKind::Intt { limbs } => {
                let log_n = 63 - n.leading_zeros() as u64;
                limbs as u64 * (n / 2) * log_n * 10
            }
            OpKind::BConv {
                src_limbs,
                dst_limbs,
            } => n * src_limbs as u64 * dst_limbs as u64 * 6,
            OpKind::Ew { instr, limbs } => {
                n * limbs as u64 * instr.mmac_ops_per_element() as u64 * 6
            }
            OpKind::Aut { .. } | OpKind::WriteBack { .. } => 0,
        }
    }

    fn kernel_class(kind: &OpKind) -> (&'static str, KernelClass) {
        match kind {
            OpKind::Ntt { .. } | OpKind::Intt { .. } => ("(I)NTT", KernelClass::Ntt),
            OpKind::BConv { .. } => ("BConv", KernelClass::BConv),
            OpKind::Ew { .. } => ("element-wise", KernelClass::ElementWise),
            OpKind::Aut { .. } => ("automorphism", KernelClass::Automorphism),
            OpKind::WriteBack { .. } => ("write-back", KernelClass::WriteBack),
        }
    }

    fn describe_gpu_op(
        &self,
        op: &Op,
        n: u64,
        class: KernelClass,
        cache: &mut L2Cache,
    ) -> KernelDesc {
        let int_ops = self.int_ops(&op.kind, n);
        let mut dram_read = 0u64;
        let mut dram_write = 0u64;
        let mut l2 = 0u64;
        match op.kind {
            OpKind::WriteBack { bytes } => {
                // Explicit flush: all bytes go to DRAM (§V-C).
                dram_write = bytes;
            }
            _ => {
                for r in &op.reads {
                    let missed = cache.read(r.id, r.bytes as usize);
                    dram_read += missed;
                    l2 += r.bytes - missed;
                }
                for w in &op.writes {
                    if w.bytes as usize > self.gpu.config().l2_bytes {
                        dram_write += w.bytes;
                    } else {
                        cache.write(w.id, w.bytes as usize);
                        l2 += w.bytes;
                    }
                }
            }
        }
        let mut k = KernelDesc::new(class, int_ops, dram_read, dram_write);
        k.l2_bytes = l2;
        k
    }
}

/// Where kernels may start: the one thing the two [`ScheduleMode`]s
/// disagree on.
#[derive(Debug)]
enum Timeline {
    /// One cursor shared by both engines.
    Serial { now: f64 },
    /// Two stream cursors plus the dependency horizon.
    Pipelined(Box<Streams>),
}

/// The two-stream state. Each op is placed on its own stream's cursor at
/// the earliest point its data dependencies allow. A dependency whose
/// producer ran on the other stream pays one [`TRANSITION_NS`] handoff;
/// same-stream work queues back-to-back for free. Coherence write-backs
/// carry no tracked read/write sets, so every PIM kernel additionally
/// waits for the last write-back to land plus one handoff — the
/// conservative barrier that keeps PIM from reading stale bank rows.
///
/// `report.transitions` uses the same counting rule as serial mode
/// (issue-order executor switches plus one per GPU fallback), so for a
/// fault-free run `total_ns + stream_overlap_ns` reconstructs the serial
/// makespan exactly.
#[derive(Debug, Default)]
struct Streams {
    gpu_now: f64,
    pim_now: f64,
    last_flush_end: f64,
    /// Each object's last producer's completion (overwrite: builders
    /// allocate SSA-style, so the last write in issue order is the
    /// program-order dependency).
    writer_end: HashMap<u64, (f64, Executor)>,
    /// Each object's latest reader completion (max-merge, because a
    /// later-issued reader can finish earlier on the other stream).
    reader_end: HashMap<u64, (f64, Executor)>,
    /// Issue-order run-length segments per stream, for telemetry:
    /// `(stream, start, end, ops, slide)` of the open segment.
    seg: Option<(Executor, f64, f64, u32, f64)>,
    seg_idx: u32,
    prev_seg_end: f64,
}

impl Streams {
    /// Earliest start permitted by `op`'s RAW/WAR/WAW dependencies, with a
    /// [`TRANSITION_NS`] penalty on every edge whose other endpoint ran on
    /// the opposite stream.
    fn dep_ready_ns(&self, op: &Op, target: Executor) -> f64 {
        let cross = |&(t, e): &(f64, Executor)| if e == target { t } else { t + TRANSITION_NS };
        let mut ready = 0.0f64;
        for r in &op.reads {
            if let Some(w) = self.writer_end.get(&r.id) {
                ready = ready.max(cross(w));
            }
        }
        for w in &op.writes {
            if let Some(p) = self.writer_end.get(&w.id) {
                ready = ready.max(cross(p));
            }
            if let Some(p) = self.reader_end.get(&w.id) {
                ready = ready.max(cross(p));
            }
        }
        ready
    }

    /// Publishes the completion of `op` (issued to `target`, started at
    /// `start`, finished by `done`) into the dependency horizon and the
    /// stream-segment spans.
    fn note(
        &mut self,
        op: &Op,
        target: Executor,
        start: f64,
        done: (f64, Executor),
        tel: Option<&mut Telemetry>,
    ) {
        let (end, on) = done;
        if matches!(op.kind, OpKind::WriteBack { .. }) {
            self.last_flush_end = end;
        }
        for r in &op.reads {
            let e = self.reader_end.entry(r.id).or_insert((end, on));
            if end >= e.0 {
                *e = (end, on);
            }
        }
        for w in &op.writes {
            self.writer_end.insert(w.id, (end, on));
        }
        match self.seg.as_mut() {
            Some(s) if s.0 == target => {
                s.2 = s.2.max(end);
                s.3 += 1;
            }
            _ => {
                self.close_segment(tel);
                let slide = if self.seg_idx == 0 {
                    0.0
                } else {
                    (self.prev_seg_end + TRANSITION_NS - start).max(0.0)
                };
                self.seg = Some((target, start, end, 1, slide));
            }
        }
    }

    /// Emits the open stream segment, if any.
    fn close_segment(&mut self, tel: Option<&mut Telemetry>) {
        let Some((ex, s0, s1, ops, slide)) = self.seg.take() else {
            return;
        };
        if let Some(t) = tel {
            let stream = if ex == Executor::Gpu { "gpu" } else { "pim" };
            t.stream_segment(stream, self.seg_idx, s0, s1, ops, slide);
        }
        self.seg_idx += 1;
        self.prev_seg_end = s1;
    }
}

impl Timeline {
    /// The clock deadline budgets are checked against.
    fn now(&self) -> f64 {
        match self {
            Timeline::Serial { now } => *now,
            Timeline::Pipelined(s) => s.gpu_now.max(s.pim_now),
        }
    }

    /// Where a kernel on `on` may start, stamping the handoff span when
    /// the issue order switches engines here. Serial mode starts at its
    /// cursor, one handoff later on a switch. Pipelined mode starts at the
    /// stream's cursor or at `ready` (the dependency horizon), whichever is
    /// later; PIM kernels also wait out the write-back barrier.
    fn start(
        &mut self,
        on: Executor,
        handoff: bool,
        tel: Option<&mut Telemetry>,
        ready: impl FnOnce(&Streams) -> f64,
    ) -> f64 {
        match self {
            Timeline::Serial { now } => {
                if handoff {
                    if let Some(t) = tel {
                        t.transition(*now, *now + TRANSITION_NS);
                    }
                    *now += TRANSITION_NS;
                }
                *now
            }
            Timeline::Pipelined(s) => {
                let ready = ready(s);
                let start = match on {
                    Executor::Gpu => s.gpu_now.max(ready),
                    Executor::Pim => s.pim_now.max(ready).max(s.last_flush_end + TRANSITION_NS),
                };
                if handoff {
                    if let Some(t) = tel {
                        t.transition((start - TRANSITION_NS).max(0.0), start);
                    }
                }
                start
            }
        }
    }

    /// Moves the cursor of the engine that just finished at `end`.
    fn advance(&mut self, on: Executor, end: f64) {
        match self {
            Timeline::Serial { now } => *now = end,
            Timeline::Pipelined(s) => match on {
                Executor::Gpu => s.gpu_now = end,
                Executor::Pim => s.pim_now = end,
            },
        }
    }
}

/// The state of one [`Scheduler::run`].
struct Run<'s, 'r> {
    sched: &'s Scheduler<'s>,
    n: u64,
    timeline: Timeline,
    report: ExecutionReport,
    cache: L2Cache,
    injector: Option<FaultInjector>,
    health: Option<&'r mut HealthRegistry>,
    tel: Option<&'r mut Telemetry>,
    /// The legacy (registry-free) switch-off after a hard fault.
    pim_disabled: bool,
    kernel_idx: u64,
    last_exec: Executor,
}

impl Run<'_, '_> {
    fn over_budget(&self) -> bool {
        self.sched
            .budget_ns
            .is_some_and(|b| self.timeline.now() > b)
    }

    /// Dispatches one op; returns false when the budget check before it
    /// (or before its PIM kernel) fails.
    fn dispatch(&mut self, op: &Op) -> Result<bool, RunError> {
        if self.over_budget() {
            return Ok(false);
        }
        // After a legacy hard fault PIM is off, but serial mode still
        // owes the rest of the current PIM run to the kernel routine,
        // which re-executes it as degraded GPU fallbacks.
        let serial = matches!(self.timeline, Timeline::Serial { .. });
        let pim_open = !self.pim_disabled || (serial && self.last_exec == Executor::Pim);
        let target = match op.executor {
            Executor::Pim if self.sched.pim.is_some() && pim_open => Executor::Pim,
            _ => Executor::Gpu,
        };
        let handoff = target != self.last_exec;
        if handoff {
            self.report.transitions += 1;
            self.last_exec = target;
        }
        let start = self
            .timeline
            .start(target, handoff, self.tel.as_deref_mut(), |s| {
                s.dep_ready_ns(op, target)
            });
        let done = match target {
            Executor::Gpu => {
                let (label, class) = Scheduler::kernel_class(&op.kind);
                let desc = self
                    .sched
                    .describe_gpu_op(op, self.n, class, &mut self.cache);
                (
                    self.gpu_kernel(op.label, label, desc, start, false),
                    Executor::Gpu,
                )
            }
            Executor::Pim => {
                if self.over_budget() {
                    return Ok(false);
                }
                let (instr, limbs) = match op.kind {
                    OpKind::Ew { instr, limbs } => (instr, limbs),
                    _ => unreachable!("only element-wise ops are offloaded"),
                };
                let spec = PimKernelSpec {
                    instr,
                    limbs,
                    n: self.n as usize,
                };
                self.pim_kernel(spec, op.label, start)?
            }
        };
        if let Timeline::Pipelined(s) = &mut self.timeline {
            s.note(op, target, start, done, self.tel.as_deref_mut());
        }
        Ok(true)
    }

    /// Charges one GPU kernel from `start`, sampling the GPU fault domain,
    /// and returns its end.
    fn gpu_kernel(
        &mut self,
        label: &'static str,
        class: &'static str,
        desc: KernelDesc,
        start: f64,
        degraded: bool,
    ) -> f64 {
        let cost = self.sched.gpu.cost(&desc);
        self.report.gpu_dram_bytes += desc.dram_bytes();
        self.report.energy_j += cost.energy_j;
        let stall = self.gpu_faults();
        let end = start + (cost.time_ns + stall);
        if let Some(t) = self.tel.as_deref_mut() {
            t.gpu_kernel(
                label,
                class,
                start,
                end,
                desc.dram_bytes(),
                cost.bandwidth_bound,
                degraded,
            );
        }
        self.report.push_segment(GanttSegment {
            start_ns: start,
            end_ns: end,
            executor: Executor::Gpu,
            class,
            label,
            degraded,
        });
        self.timeline.advance(Executor::Gpu, end);
        end
    }

    /// Samples the GPU-side fault domain at one GPU kernel launch: returns
    /// the extra latency of an injected stream stall, and fails the
    /// end-to-end integrity verdict on an injected transfer bit flip (the
    /// GPU path has no per-kernel residue check to catch it earlier).
    /// Zero-probability plans draw nothing from the fault stream.
    fn gpu_faults(&mut self) -> f64 {
        let mut extra = 0.0;
        if let Some(inj) = self.injector.as_mut() {
            if let Some(stall) = inj.sample_gpu_stall() {
                extra += stall;
                self.report.gpu_stalls += 1;
            }
            if inj.sample_gpu_transfer_flip() {
                self.report.gpu_faults += 1;
                self.report.integrity_failed = true;
            }
        }
        extra
    }

    /// Runs one PIM kernel from `start`: executes it (under fault injection
    /// when configured), retries transient integrity failures under the
    /// retry policy, and re-executes on the GPU what PIM cannot complete.
    /// With a registry the kernel is attributed to a bank health domain:
    /// an open breaker routes it straight to the GPU, its faults are
    /// scoped to that domain ([`PimExecutor::execute_with_faults_scoped`]),
    /// and its outcome feeds the domain's breaker. Without one, the first
    /// hard fault switches PIM off for the rest of the run. Returns the
    /// kernel's completion and the engine that finished it.
    fn pim_kernel(
        &mut self,
        spec: PimKernelSpec,
        label: &'static str,
        start: f64,
    ) -> Result<(f64, Executor), RunError> {
        let kid = self.kernel_idx;
        self.kernel_idx += 1;
        // (bank, domain, decision) when breaker-gated.
        let mut gate = None;
        if let Some(reg) = self.health.as_deref_mut() {
            let bank = reg.assign_domain();
            let domain = BankDomain::new(bank, reg.domains() as u32);
            let (decision, transition) = reg.decide(bank, start);
            self.breaker_transition(transition, start);
            if decision == PathDecision::Skip {
                self.report.breaker_skips += 1;
                if let Some(tl) = self.tel.as_deref_mut() {
                    tl.breaker_skip();
                }
                // No PIM attempt was made, so the PIM cursor does not move.
                return Ok((self.fallback(&spec, label, start), Executor::Gpu));
            }
            gate = Some((bank, domain, decision));
        } else if self.pim_disabled {
            // Serial mode: the rest of the PIM run a hard fault cut short.
            return Ok((self.fallback(&spec, label, start), Executor::Gpu));
        }
        let (dev, layout) = self.sched.pim.expect("PIM kernels need a PIM device");
        let exec = PimExecutor::new(dev, layout);
        let mut cursor = start;
        let mut retries = 0u32;
        let mut backoff_spent = 0.0f64;
        loop {
            let outcome = match self.injector.as_mut() {
                Some(inj) => exec.execute_with_faults_scoped(&spec, inj, gate.map(|g| g.1)),
                None => exec.execute(&spec),
            };
            let violation = match outcome {
                Ok(r) => {
                    self.pim_segment(dev, &r, label, false, &mut cursor);
                    if let (Some((bank, ..)), Some(reg)) = (gate, self.health.as_deref_mut()) {
                        let transition = reg.on_success(bank, cursor);
                        self.breaker_transition(transition, cursor);
                    }
                    self.timeline.advance(Executor::Pim, cursor);
                    return Ok((cursor, Executor::Pim));
                }
                Err(PimError::IntegrityViolation(violation)) => violation,
                Err(e) => return Err(RunError::Pim(e)),
            };
            self.report.faults_detected += 1;
            if let Some(reg) = self.health.as_deref_mut() {
                reg.counters.faults_detected += 1;
            }
            if let Some(t) = self.tel.as_deref_mut() {
                t.fault();
            }
            // The failed attempt still burned time and energy.
            self.pim_segment(dev, &violation.wasted, label, true, &mut cursor);
            let permanent = violation.is_permanent();
            if permanent && gate.is_none() {
                // Hard fault (stuck MMAC lane): retrying on PIM cannot
                // succeed — switch the path off for good.
                self.pim_disabled = true;
            }
            // A half-open probe gets exactly one attempt; hard faults are
            // never retried.
            let may_retry = !permanent && gate.is_none_or(|g| g.2 == PathDecision::Allow);
            if may_retry
                && retries < self.sched.retry.max_retries
                && self.backoff(kid, retries + 1, &mut backoff_spent, &mut cursor)
            {
                retries += 1;
                self.report.pim_retries += 1;
                if let Some(reg) = self.health.as_deref_mut() {
                    reg.counters.pim_retries += 1;
                }
                if let Some(t) = self.tel.as_deref_mut() {
                    t.retry();
                }
                continue;
            }
            if let (Some((bank, ..)), Some(reg)) = (gate, self.health.as_deref_mut()) {
                reg.counters.gpu_fallbacks += 1;
                let transition = reg.on_failure(bank, permanent, cursor, violation.cause());
                self.breaker_transition(transition, cursor);
            }
            self.report.pim_fallbacks += 1;
            if let Some(t) = self.tel.as_deref_mut() {
                t.fallback();
            }
            self.timeline.advance(Executor::Pim, cursor);
            return Ok((self.fallback(&spec, label, cursor), Executor::Gpu));
        }
    }

    /// Records a breaker transition at local time `at`, if there was one.
    fn breaker_transition(&mut self, transition: Option<BreakerTransition>, at: f64) {
        if let Some(t) = transition {
            if let Some(tl) = self.tel.as_deref_mut() {
                tl.breaker_transition(&t, at);
            }
            self.report.breaker_transitions.push(t);
        }
    }

    /// Charges a PIM attempt (successful or wasted) from `cursor`.
    fn pim_segment(
        &mut self,
        dev: &PimDeviceConfig,
        r: &PimKernelResult,
        label: &'static str,
        degraded: bool,
        cursor: &mut f64,
    ) {
        let start = *cursor;
        *cursor += r.latency_ns;
        self.report.energy_j += r.energy_joules(dev);
        self.report.pim_dram_bytes += r.bytes_internal;
        if let Some(t) = self.tel.as_deref_mut() {
            t.pim_kernel(label, start, *cursor, r, degraded);
        }
        self.report.push_segment(GanttSegment {
            start_ns: start,
            end_ns: *cursor,
            executor: Executor::Pim,
            class: "element-wise",
            label,
            degraded,
        });
    }

    /// Computes (and charges, if affordable) the backoff before the next
    /// retry of kernel `kid`. Returns false when the backoff budget is
    /// exhausted and the kernel should fall back instead.
    fn backoff(&mut self, kid: u64, attempt: u32, spent: &mut f64, cursor: &mut f64) -> bool {
        let retry = &self.sched.retry;
        let b = retry.backoff_ns(kid, attempt);
        if *spent + b > retry.budget_ns {
            return false;
        }
        if let Some(t) = self.tel.as_deref_mut() {
            if b > 0.0 {
                t.backoff(*cursor, *cursor + b);
            }
        }
        *spent += b;
        *cursor += b;
        self.report.backoff_ns += b;
        true
    }

    /// Re-executes a PIM kernel on the GPU after PIM gave up on it at
    /// `fail_end`. The operands are PIM-resident, so the kernel streams
    /// everything through DRAM with no L2 reuse, and the re-dispatch pays
    /// one PIM→GPU handoff; in pipelined mode it also queues behind
    /// whatever the GPU stream is already running, so a fallback never
    /// overlaps another kernel on the same engine. (The serial cursor is
    /// already at `fail_end`.)
    fn fallback(&mut self, spec: &PimKernelSpec, label: &'static str, fail_end: f64) -> f64 {
        let tel = self.tel.as_deref_mut();
        let start = self
            .timeline
            .start(Executor::Gpu, true, tel, |_| fail_end + TRANSITION_NS);
        self.report.transitions += 1;
        let p = spec.instr.profile();
        let dram_read = (p.total_reads() * spec.limbs * spec.n * 4) as u64;
        let dram_write = (p.total_writes() * spec.limbs * spec.n * 4) as u64;
        let int_ops = (spec.n * spec.limbs) as u64 * spec.instr.mmac_ops_per_element() as u64 * 6;
        let desc = KernelDesc::new(KernelClass::ElementWise, int_ops, dram_read, dram_write);
        self.gpu_kernel(label, "element-wise", desc, start, true)
    }

    fn finish(mut self) -> ExecutionReport {
        match &mut self.timeline {
            Timeline::Serial { now } => self.report.total_ns = *now,
            Timeline::Pipelined(s) => {
                s.close_segment(self.tel.as_deref_mut());
                self.report.total_ns = s.gpu_now.max(s.pim_now);
                // How much virtual time the two streams hid: the
                // serial-equivalent span (kernels + handoffs + backoff)
                // minus the pipelined makespan.
                let r = &mut self.report;
                let kernel_ns: f64 = r.breakdown_ns.values().sum();
                let serial_equiv =
                    kernel_ns + f64::from(r.transitions) * TRANSITION_NS + r.backoff_ns;
                r.stream_overlap_ns = (serial_equiv - r.total_ns).max(0.0);
                if let Some(t) = self.tel.as_deref_mut() {
                    t.stream_overlap(r.stream_overlap_ns);
                }
            }
        }
        if let Some(t) = self.tel {
            t.run_complete(&self.report);
        }
        self.report
    }
}

/// Estimates the DRAM footprint of a sequence: peak live data
/// (evk + plaintext + ciphertext objects), used for the OoM checks of
/// §VIII-B.
pub fn footprint_bytes(seq: &OpSequence) -> u64 {
    let mut seen = std::collections::HashSet::new();
    let mut total = 0u64;
    for op in &seq.ops {
        for r in op.reads.iter().chain(op.writes.iter()) {
            if matches!(
                r.kind,
                ObjKind::Evk | ObjKind::Plaintext | ObjKind::Ciphertext
            ) && seen.insert(r.id)
            {
                total += r.bytes;
            }
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{Builder, LinTransStyle};
    use crate::params::ParamSet;
    use crate::passes::{fuse, offload, FusionConfig, OffloadPolicy};
    use gpu::config::{GpuConfig, LibraryProfile};

    fn gpu_model() -> GpuModel {
        GpuModel::new(GpuConfig::a100_80gb(), LibraryProfile::cheddar())
    }

    fn lt(reorder: bool) -> OpSequence {
        let mut b = Builder::new(ParamSet::paper_default());
        b.lintrans(54, 8, LinTransStyle::Hoisting, reorder)
    }

    #[test]
    fn gpu_only_schedule_produces_breakdown() {
        let m = gpu_model();
        let mut seq = lt(true);
        fuse(&mut seq, &FusionConfig::gpu_baseline());
        let r = Scheduler::gpu_only(&m)
            .run(&seq, RunOpts::default())
            .unwrap();
        assert!(r.total_ns > 0.0);
        assert!(r.energy_j > 0.0);
        assert!(r.fraction("element-wise") > 0.1, "EW must be visible");
        assert!(r.fraction("(I)NTT") > 0.05);
        assert_eq!(r.transitions, 0);
        assert!(r.pim_dram_bytes == 0);
    }

    #[test]
    fn pim_schedule_beats_gpu_only() {
        // The headline claim, at linear-transform granularity (Fig. 4a).
        let m = gpu_model();
        let dev = PimDeviceConfig::a100_near_bank();

        let mut gpu_seq = lt(true);
        fuse(&mut gpu_seq, &FusionConfig::gpu_baseline());
        let gpu_r = Scheduler::gpu_only(&m)
            .run(&gpu_seq, RunOpts::default())
            .unwrap();

        let mut pim_seq = lt(true);
        fuse(&mut pim_seq, &FusionConfig::full());
        offload(
            &mut pim_seq,
            &OffloadPolicy::from_parts(1802.0, 16.0, 2000.0),
        );
        let pim_r = Scheduler::with_pim(&m, &dev, LayoutPolicy::ColumnPartitioned)
            .run(&pim_seq, RunOpts::default())
            .unwrap();

        assert!(
            pim_r.total_ns < gpu_r.total_ns,
            "PIM {:.1} µs must beat GPU-only {:.1} µs",
            pim_r.total_ns / 1e3,
            gpu_r.total_ns / 1e3
        );
        assert!(
            pim_r.gpu_dram_bytes < gpu_r.gpu_dram_bytes / 2,
            "PIM must slash GPU-side DRAM traffic (§V-D): {} vs {}",
            pim_r.gpu_dram_bytes,
            gpu_r.gpu_dram_bytes
        );
        assert!(pim_r.transitions >= 2);
        assert!(pim_r.energy_j < gpu_r.energy_j, "energy must also improve");
    }

    #[test]
    fn transitions_are_counted_and_bounded() {
        let m = gpu_model();
        let dev = PimDeviceConfig::a100_near_bank();
        let mut seq = lt(true);
        fuse(&mut seq, &FusionConfig::full());
        offload(&mut seq, &OffloadPolicy::from_parts(1802.0, 16.0, 2000.0));
        let r = Scheduler::with_pim(&m, &dev, LayoutPolicy::ColumnPartitioned)
            .run(&seq, RunOpts::default())
            .unwrap();
        // Transition overhead must stay negligible (§V-C).
        let overhead = r.transitions as f64 * TRANSITION_NS;
        assert!(overhead < 0.25 * r.total_ns, "transitions must be minor");
    }

    #[test]
    fn transient_faults_retry_then_fall_back_to_gpu() {
        // Bank flip probability 1: every PIM attempt fails its integrity
        // check, so each kernel burns MAX_PIM_RETRIES retries and then
        // re-executes on the GPU. The run still completes.
        let m = gpu_model();
        let dev = PimDeviceConfig::a100_near_bank();
        let mut seq = lt(true);
        fuse(&mut seq, &FusionConfig::full());
        offload(&mut seq, &OffloadPolicy::from_parts(1802.0, 16.0, 2000.0));
        let clean = Scheduler::with_pim(&m, &dev, LayoutPolicy::ColumnPartitioned)
            .run(&seq, RunOpts::default())
            .unwrap();
        let kernels = clean
            .segments
            .iter()
            .filter(|s| s.executor == Executor::Pim)
            .count() as u32;
        assert!(kernels > 0, "offload must produce PIM kernels");

        let plan = FaultPlan::none().with_seed(11).with_bank_flips(1.0);
        let r = Scheduler::with_pim(&m, &dev, LayoutPolicy::ColumnPartitioned)
            .with_fault_plan(plan)
            .run(&seq, RunOpts::default())
            .unwrap();
        assert_eq!(r.faults_detected, kernels * (1 + MAX_PIM_RETRIES));
        assert_eq!(r.pim_retries, kernels * MAX_PIM_RETRIES);
        // Wasted attempts plus one GPU re-execution per kernel.
        assert_eq!(
            r.degraded_segments,
            kernels * (1 + MAX_PIM_RETRIES) + kernels
        );
        assert!(
            r.total_ns > clean.total_ns,
            "degraded run must be slower: {} vs {}",
            r.total_ns,
            clean.total_ns
        );
    }

    #[test]
    fn hard_fault_permanently_disables_pim() {
        // A stuck MMAC lane is a hard fault: no retries, one wasted PIM
        // attempt, and the rest of the run stays on the GPU.
        let m = gpu_model();
        let dev = PimDeviceConfig::a100_near_bank();
        let mut seq = lt(true);
        fuse(&mut seq, &FusionConfig::full());
        offload(&mut seq, &OffloadPolicy::from_parts(1802.0, 16.0, 2000.0));
        let plan = FaultPlan::none().with_seed(5).with_stuck_lane(3);
        let r = Scheduler::with_pim(&m, &dev, LayoutPolicy::ColumnPartitioned)
            .with_fault_plan(plan)
            .run(&seq, RunOpts::default())
            .unwrap();
        assert_eq!(r.faults_detected, 1, "first attempt detects the hard fault");
        assert_eq!(r.pim_retries, 0, "hard faults are never retried");
        let pim_segments = r
            .segments
            .iter()
            .filter(|s| s.executor == Executor::Pim)
            .count();
        assert_eq!(pim_segments, 1, "only the wasted attempt touches PIM");
        assert!(
            r.degraded_segments >= 2,
            "wasted attempt + GPU re-execution"
        );
        // The work still completes; every degraded GPU segment is marked.
        assert!(r
            .segments
            .iter()
            .any(|s| s.executor == Executor::Gpu && s.degraded));
    }

    #[test]
    fn benign_fault_plan_changes_nothing() {
        let m = gpu_model();
        let dev = PimDeviceConfig::a100_near_bank();
        let mut seq = lt(true);
        fuse(&mut seq, &FusionConfig::full());
        offload(&mut seq, &OffloadPolicy::from_parts(1802.0, 16.0, 2000.0));
        let clean = Scheduler::with_pim(&m, &dev, LayoutPolicy::ColumnPartitioned)
            .run(&seq, RunOpts::default())
            .unwrap();
        let benign = Scheduler::with_pim(&m, &dev, LayoutPolicy::ColumnPartitioned)
            .with_fault_plan(FaultPlan::none())
            .run(&seq, RunOpts::default())
            .unwrap();
        assert_eq!(clean.total_ns, benign.total_ns);
        assert_eq!(benign.faults_detected, 0);
        assert_eq!(benign.degraded_segments, 0);
    }

    #[test]
    fn footprint_counts_unique_objects() {
        let seq = lt(true);
        let fp = footprint_bytes(&seq);
        // 7 evks of ~2·4·(54+14) limbs minimum.
        let evk = ParamSet::paper_default().evk_bytes() as u64;
        assert!(fp > 7 * evk / 2, "footprint must include the evks");
    }

    fn offloaded_bootstrap(m: &GpuModel, dev: &PimDeviceConfig) -> OpSequence {
        let mut seq = Builder::new(ParamSet::paper_default()).bootstrap();
        fuse(&mut seq, &FusionConfig::full());
        crate::passes::offload_measured(
            &mut seq,
            m,
            dev,
            LayoutPolicy::ColumnPartitioned,
            TRANSITION_NS,
        );
        seq
    }

    #[test]
    fn pipelined_bootstrap_speedup_within_v_c_band() {
        let m = gpu_model();
        let dev = PimDeviceConfig::a100_near_bank();
        let seq = offloaded_bootstrap(&m, &dev);
        let serial = Scheduler::with_pim(&m, &dev, LayoutPolicy::ColumnPartitioned)
            .run(&seq, RunOpts::default())
            .unwrap();
        let pipe = Scheduler::with_pim(&m, &dev, LayoutPolicy::ColumnPartitioned)
            .with_mode(ScheduleMode::Pipelined)
            .run(&seq, RunOpts::default())
            .unwrap();
        let speedup = serial.total_ns / pipe.total_ns;
        assert!(
            speedup > 1.0 && speedup <= 1.35,
            "§V-C band violated: {speedup:.4}x"
        );
        assert!(
            speedup <= serial.pipelining_headroom() + 1e-9,
            "cannot beat the perfect-overlap bound"
        );
        // Work is conserved: identical kernels, bytes, energy, handoffs.
        assert_eq!(serial.gpu_dram_bytes, pipe.gpu_dram_bytes);
        assert_eq!(serial.pim_dram_bytes, pipe.pim_dram_bytes);
        assert_eq!(serial.transitions, pipe.transitions);
        assert_eq!(serial.segments.len(), pipe.segments.len());
        assert!((serial.energy_j - pipe.energy_j).abs() < 1e-9);
        // Overlap accounting reconstructs the serial makespan.
        assert!(
            (pipe.total_ns + pipe.stream_overlap_ns - serial.total_ns).abs() < 1e-3,
            "overlap {} + total {} vs serial {}",
            pipe.stream_overlap_ns,
            pipe.total_ns,
            serial.total_ns
        );
    }

    #[test]
    fn pipelined_gpu_only_sequence_matches_serial() {
        // No PIM ops → one stream → the pipelined pass degenerates to the
        // serial schedule exactly.
        let m = gpu_model();
        let dev = PimDeviceConfig::a100_near_bank();
        let mut seq = lt(true);
        fuse(&mut seq, &FusionConfig::gpu_baseline());
        let serial = Scheduler::with_pim(&m, &dev, LayoutPolicy::ColumnPartitioned)
            .run(&seq, RunOpts::default())
            .unwrap();
        let pipe = Scheduler::with_pim(&m, &dev, LayoutPolicy::ColumnPartitioned)
            .with_mode(ScheduleMode::Pipelined)
            .run(&seq, RunOpts::default())
            .unwrap();
        assert_eq!(serial.total_ns, pipe.total_ns);
        assert_eq!(serial.gpu_dram_bytes, pipe.gpu_dram_bytes);
        assert_eq!(serial.transitions, pipe.transitions);
        assert!(pipe.stream_overlap_ns < 1e-3);
    }

    #[test]
    fn pipelined_mode_is_deterministic_under_faults() {
        let m = gpu_model();
        let dev = PimDeviceConfig::a100_near_bank();
        let mut seq = lt(true);
        fuse(&mut seq, &FusionConfig::full());
        offload(&mut seq, &OffloadPolicy::from_parts(1802.0, 16.0, 2000.0));
        let plan = FaultPlan::none().with_seed(11).with_bank_flips(1.0);
        let run = || {
            Scheduler::with_pim(&m, &dev, LayoutPolicy::ColumnPartitioned)
                .with_mode(ScheduleMode::Pipelined)
                .with_fault_plan(plan)
                .run(&seq, RunOpts::default())
                .unwrap()
        };
        let a = run();
        let b = run();
        assert!(a.faults_detected > 0, "injection must bite");
        assert_eq!(a.total_ns, b.total_ns);
        assert_eq!(a.faults_detected, b.faults_detected);
        assert_eq!(a.pim_fallbacks, b.pim_fallbacks);
        // Every fallback queues behind the GPU stream: no two GPU
        // segments may overlap.
        let mut gpu_ends: Vec<(f64, f64)> = a
            .segments
            .iter()
            .filter(|s| s.executor == Executor::Gpu)
            .map(|s| (s.start_ns, s.end_ns))
            .collect();
        gpu_ends.sort_by(|x, y| x.0.total_cmp(&y.0));
        for w in gpu_ends.windows(2) {
            assert!(w[1].0 >= w[0].1 - 1e-9, "GPU segments overlap: {w:?}");
        }
    }

    #[test]
    fn serial_is_the_default_mode() {
        assert_eq!(ScheduleMode::default(), ScheduleMode::Serial);
    }

    #[test]
    fn deadline_budget_cancels_mid_flight() {
        let m = gpu_model();
        let dev = PimDeviceConfig::a100_near_bank();
        let mut seq = lt(true);
        fuse(&mut seq, &FusionConfig::full());
        offload(&mut seq, &OffloadPolicy::from_parts(1802.0, 16.0, 2000.0));
        let clean = Scheduler::with_pim(&m, &dev, LayoutPolicy::ColumnPartitioned)
            .run(&seq, RunOpts::default())
            .unwrap();
        assert!(!clean.cancelled);

        // A generous budget changes nothing.
        let roomy = Scheduler::with_pim(&m, &dev, LayoutPolicy::ColumnPartitioned)
            .with_deadline_budget(clean.total_ns * 10.0)
            .run(&seq, RunOpts::default())
            .unwrap();
        assert!(!roomy.cancelled);
        assert_eq!(roomy.total_ns, clean.total_ns);
        assert_eq!(roomy.segments.len(), clean.segments.len());

        // A tight budget cancels at a segment boundary: only part of the
        // work ran, and the consumed time is what the report carries.
        let tight = Scheduler::with_pim(&m, &dev, LayoutPolicy::ColumnPartitioned)
            .with_deadline_budget(clean.total_ns * 0.3)
            .run(&seq, RunOpts::default())
            .unwrap();
        assert!(tight.cancelled, "30% budget must cancel the run");
        assert!(tight.total_ns < clean.total_ns);
        assert!(tight.segments.len() < clean.segments.len());
        assert!(tight.summary_line().contains("CANCELLED over budget"));
    }

    #[test]
    fn cancelled_runs_charge_nothing_past_the_budget() {
        // Budget at the midpoint of every PIM kernel of the clean run, in
        // both modes: the check before each op and each PIM kernel may
        // still let one handoff start, but nothing may start later.
        let m = gpu_model();
        let dev = PimDeviceConfig::a100_near_bank();
        let mut seq = lt(true);
        fuse(&mut seq, &FusionConfig::full());
        offload(&mut seq, &OffloadPolicy::from_parts(1802.0, 16.0, 2000.0));
        for mode in [ScheduleMode::Serial, ScheduleMode::Pipelined] {
            let s =
                || Scheduler::with_pim(&m, &dev, LayoutPolicy::ColumnPartitioned).with_mode(mode);
            let clean = s().run(&seq, RunOpts::default()).unwrap();
            let pim_segments: Vec<_> = clean
                .segments
                .iter()
                .filter(|g| g.executor == Executor::Pim)
                .collect();
            assert!(
                pim_segments.len() > 10,
                "{mode:?}: offload must produce PIM kernels"
            );
            for seg in pim_segments {
                let budget = 0.5 * (seg.start_ns + seg.end_ns);
                let r = s()
                    .with_deadline_budget(budget)
                    .run(&seq, RunOpts::default())
                    .unwrap();
                for g in &r.segments {
                    assert!(
                        g.start_ns <= budget + TRANSITION_NS,
                        "{mode:?}: {} charged from {} ns past budget {budget} ns",
                        g.label,
                        g.start_ns
                    );
                }
            }
        }
    }

    #[test]
    fn deadline_budget_cancels_pipelined_runs_too() {
        let m = gpu_model();
        let dev = PimDeviceConfig::a100_near_bank();
        let seq = offloaded_bootstrap(&m, &dev);
        let clean = Scheduler::with_pim(&m, &dev, LayoutPolicy::ColumnPartitioned)
            .with_mode(ScheduleMode::Pipelined)
            .run(&seq, RunOpts::default())
            .unwrap();
        let tight = Scheduler::with_pim(&m, &dev, LayoutPolicy::ColumnPartitioned)
            .with_mode(ScheduleMode::Pipelined)
            .with_deadline_budget(clean.total_ns * 0.25)
            .run(&seq, RunOpts::default())
            .unwrap();
        assert!(tight.cancelled);
        assert!(tight.total_ns < clean.total_ns);
    }

    #[test]
    fn gpu_stalls_add_latency_only() {
        let m = gpu_model();
        let mut seq = lt(true);
        fuse(&mut seq, &FusionConfig::gpu_baseline());
        let clean = Scheduler::gpu_only(&m)
            .run(&seq, RunOpts::default())
            .unwrap();
        let plan = FaultPlan::none().with_seed(7).with_gpu_stalls(1.0, 5000.0);
        let r = Scheduler::gpu_only(&m)
            .with_fault_plan(plan)
            .run(&seq, RunOpts::default())
            .unwrap();
        let kernels = clean.segments.len() as u32;
        assert_eq!(r.gpu_stalls, kernels, "every launch must stall at p=1");
        assert_eq!(r.gpu_faults, 0);
        assert!(!r.integrity_failed, "stalls are latency-only");
        let expected = clean.total_ns + f64::from(kernels) * 5000.0;
        assert!(
            (r.total_ns - expected).abs() < 1e-6,
            "stall latency must be additive: {} vs {}",
            r.total_ns,
            expected
        );
        assert_eq!(r.energy_j, clean.energy_j, "stalls burn time, not energy");
    }

    #[test]
    fn gpu_transfer_flips_fail_e2e_integrity() {
        let m = gpu_model();
        let mut seq = lt(true);
        fuse(&mut seq, &FusionConfig::gpu_baseline());
        let clean = Scheduler::gpu_only(&m)
            .run(&seq, RunOpts::default())
            .unwrap();
        let plan = FaultPlan::none().with_seed(9).with_gpu_transfer_flips(1.0);
        let r = Scheduler::gpu_only(&m)
            .with_fault_plan(plan)
            .run(&seq, RunOpts::default())
            .unwrap();
        assert!(r.integrity_failed, "a flip must fail the e2e verdict");
        assert_eq!(r.gpu_faults, clean.segments.len() as u32);
        assert_eq!(r.gpu_stalls, 0);
        assert_eq!(
            r.total_ns, clean.total_ns,
            "flips are silent: no timeline impact"
        );
        assert!(r.summary_line().contains("e2e integrity FAILED"));
    }

    #[test]
    fn writeback_bytes_hit_dram() {
        let m = gpu_model();
        let dev = PimDeviceConfig::a100_near_bank();
        let mut with_wb = lt(true);
        fuse(&mut with_wb, &FusionConfig::full());
        let stats = offload(
            &mut with_wb,
            &OffloadPolicy::from_parts(1802.0, 16.0, 2000.0),
        );
        let r = Scheduler::with_pim(&m, &dev, LayoutPolicy::ColumnPartitioned)
            .run(&with_wb, RunOpts::default())
            .unwrap();
        assert!(r.gpu_dram_bytes >= stats.writeback_bytes);
    }
}
