//! Bit-identity pins for the scheduler.
//!
//! Every cell schedules one sequence under one combination of timeline
//! mode, health registry, fault plan and deadline budget, once untraced and
//! once traced, and hashes the report's `Debug` text, the Chrome trace and
//! the Prometheus exposition. Restructuring the scheduler must reproduce
//! every digest; a change that alters one is not a pure refactor. The
//! traced and untraced reports of a cell must also be equal: telemetry is
//! observational.
//!
//! The expected digests were obtained by running this same test, with an
//! empty expectation table, on the code as it stood before the scheduler's
//! serial/pipelined and legacy/health copies were merged into one loop,
//! and copying the table the failed assertion printed.

use anaheim_core::build::{Builder, LinTransStyle};
use anaheim_core::health::HealthRegistry;
use anaheim_core::ir::OpSequence;
use anaheim_core::params::ParamSet;
use anaheim_core::passes::{fuse, offload, offload_measured, FusionConfig, OffloadPolicy};
use anaheim_core::report::ExecutionReport;
use anaheim_core::schedule::{RunOpts, ScheduleMode, Scheduler, TRANSITION_NS};
use anaheim_core::telemetry::Telemetry;
use gpu::config::{GpuConfig, LibraryProfile};
use gpu::model::GpuModel;
use pim::device::PimDeviceConfig;
use pim::fault::FaultPlan;
use pim::layout::LayoutPolicy;

/// FNV-1a over the bytes of `s`.
fn fnv(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in s.bytes() {
        h ^= byte as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn lintrans(pim: bool) -> OpSequence {
    let mut seq =
        Builder::new(ParamSet::paper_default()).lintrans(54, 8, LinTransStyle::Hoisting, true);
    if pim {
        fuse(&mut seq, &FusionConfig::full());
        offload(&mut seq, &OffloadPolicy::from_parts(1802.0, 16.0, 2000.0));
    } else {
        fuse(&mut seq, &FusionConfig::gpu_baseline());
    }
    seq
}

fn bootstrap(pim: bool, m: &GpuModel, dev: &PimDeviceConfig) -> OpSequence {
    let mut seq = Builder::new(ParamSet::paper_default()).bootstrap();
    if pim {
        fuse(&mut seq, &FusionConfig::full());
        offload_measured(
            &mut seq,
            m,
            dev,
            LayoutPolicy::ColumnPartitioned,
            TRANSITION_NS,
        );
    } else {
        fuse(&mut seq, &FusionConfig::gpu_baseline());
    }
    seq
}

fn plans() -> [(&'static str, Option<FaultPlan>); 5] {
    [
        ("clean", None),
        (
            "flips",
            Some(FaultPlan::none().with_seed(17).with_bank_flips(0.5)),
        ),
        // Dense enough that transient failures trip breakers.
        (
            "storm",
            Some(FaultPlan::none().with_seed(11).with_bank_flips(0.9)),
        ),
        (
            "stuck",
            Some(FaultPlan::none().with_seed(5).with_stuck_lane(3)),
        ),
        (
            "gpu",
            Some(
                FaultPlan::none()
                    .with_seed(17)
                    .with_gpu_stalls(0.05, 1e5)
                    .with_gpu_transfer_flips(8e-4),
            ),
        ),
    ]
}

/// Runs `seq` once, with a fresh registry when `health` is set and a fresh
/// telemetry sink when `traced` is set.
fn run(
    s: &Scheduler<'_>,
    seq: &OpSequence,
    dev: &PimDeviceConfig,
    health: bool,
    traced: bool,
) -> (ExecutionReport, Option<Telemetry>) {
    let mut reg = HealthRegistry::for_device(dev, Default::default());
    let mut tel = Telemetry::new(42);
    let opts = RunOpts {
        health: health.then_some(&mut reg),
        telemetry: traced.then_some(&mut tel),
    };
    let r = s.run(seq, opts).expect("schedules");
    (r, traced.then_some(tel))
}

/// One row per cell: name, report digest, Chrome-trace digest,
/// Prometheus digest.
fn cells() -> Vec<(String, u64, u64, u64)> {
    let m = GpuModel::new(GpuConfig::a100_80gb(), LibraryProfile::cheddar());
    let dev = PimDeviceConfig::a100_near_bank();
    let seqs = [
        ("lt", lintrans(false), lintrans(true)),
        (
            "boot",
            bootstrap(false, &m, &dev),
            bootstrap(true, &m, &dev),
        ),
    ];
    let mut rows = Vec::new();
    for (seq_name, gpu_seq, pim_seq) in &seqs {
        for (pim, modes) in [
            (false, &[ScheduleMode::Serial][..]),
            (true, &[ScheduleMode::Serial, ScheduleMode::Pipelined][..]),
        ] {
            let seq = if pim { pim_seq } else { gpu_seq };
            for &mode in modes {
                let base = || {
                    let s = if pim {
                        Scheduler::with_pim(&m, &dev, LayoutPolicy::ColumnPartitioned)
                    } else {
                        Scheduler::gpu_only(&m)
                    };
                    s.with_mode(mode)
                };
                let clean_ns = run(&base(), seq, &dev, false, false).0.total_ns;
                for (plan_name, plan) in plans() {
                    for budget in [None, Some(0.3 * clean_ns)] {
                        for health in [false, true] {
                            let mut s = base();
                            if let Some(p) = plan {
                                s = s.with_fault_plan(p);
                            }
                            if let Some(b) = budget {
                                s = s.with_deadline_budget(b);
                            }
                            let (plain, _) = run(&s, seq, &dev, health, false);
                            let (traced, tel) = run(&s, seq, &dev, health, true);
                            let report = format!("{plain:?}");
                            let name = format!(
                                "{seq_name}/{}/{mode:?}/{}/{plan_name}/{}",
                                if pim { "pim" } else { "gpu" },
                                if health { "health" } else { "legacy" },
                                if budget.is_some() { "budget" } else { "open" },
                            );
                            assert_eq!(
                                report,
                                format!("{traced:?}"),
                                "{name}: tracing changed the report"
                            );
                            let tel = tel.expect("traced run returns its sink");
                            rows.push((
                                name,
                                fnv(&report),
                                fnv(&tel.chrome_trace()),
                                fnv(&tel.prometheus()),
                            ));
                        }
                    }
                }
            }
        }
    }
    rows
}

#[rustfmt::skip]
const EXPECTED: &[(&str, u64, u64, u64)] = &[
    ("lt/gpu/Serial/legacy/clean/open", 0x21ca9f5a526ac6e1, 0x0902113afef1dd5d, 0xb990f860171cfc5b),
    ("lt/gpu/Serial/health/clean/open", 0x21ca9f5a526ac6e1, 0x0902113afef1dd5d, 0xb990f860171cfc5b),
    ("lt/gpu/Serial/legacy/clean/budget", 0xf0f56e19685efe0f, 0x6e47e9809dbb8ebb, 0x13ef84f470fe1f51),
    ("lt/gpu/Serial/health/clean/budget", 0xf0f56e19685efe0f, 0x6e47e9809dbb8ebb, 0x13ef84f470fe1f51),
    ("lt/gpu/Serial/legacy/flips/open", 0x21ca9f5a526ac6e1, 0x0902113afef1dd5d, 0xb990f860171cfc5b),
    ("lt/gpu/Serial/health/flips/open", 0x21ca9f5a526ac6e1, 0x0902113afef1dd5d, 0xb990f860171cfc5b),
    ("lt/gpu/Serial/legacy/flips/budget", 0xf0f56e19685efe0f, 0x6e47e9809dbb8ebb, 0x13ef84f470fe1f51),
    ("lt/gpu/Serial/health/flips/budget", 0xf0f56e19685efe0f, 0x6e47e9809dbb8ebb, 0x13ef84f470fe1f51),
    ("lt/gpu/Serial/legacy/storm/open", 0x21ca9f5a526ac6e1, 0x0902113afef1dd5d, 0xb990f860171cfc5b),
    ("lt/gpu/Serial/health/storm/open", 0x21ca9f5a526ac6e1, 0x0902113afef1dd5d, 0xb990f860171cfc5b),
    ("lt/gpu/Serial/legacy/storm/budget", 0xf0f56e19685efe0f, 0x6e47e9809dbb8ebb, 0x13ef84f470fe1f51),
    ("lt/gpu/Serial/health/storm/budget", 0xf0f56e19685efe0f, 0x6e47e9809dbb8ebb, 0x13ef84f470fe1f51),
    ("lt/gpu/Serial/legacy/stuck/open", 0x21ca9f5a526ac6e1, 0x0902113afef1dd5d, 0xb990f860171cfc5b),
    ("lt/gpu/Serial/health/stuck/open", 0x21ca9f5a526ac6e1, 0x0902113afef1dd5d, 0xb990f860171cfc5b),
    ("lt/gpu/Serial/legacy/stuck/budget", 0xf0f56e19685efe0f, 0x6e47e9809dbb8ebb, 0x13ef84f470fe1f51),
    ("lt/gpu/Serial/health/stuck/budget", 0xf0f56e19685efe0f, 0x6e47e9809dbb8ebb, 0x13ef84f470fe1f51),
    ("lt/gpu/Serial/legacy/gpu/open", 0x4165f87b05847afe, 0x095e09619dc33b79, 0x22594519d071e958),
    ("lt/gpu/Serial/health/gpu/open", 0x4165f87b05847afe, 0x095e09619dc33b79, 0x22594519d071e958),
    ("lt/gpu/Serial/legacy/gpu/budget", 0x8e815269bcd2fac2, 0x08dfaa865a856bdc, 0xa9d9fd939381994d),
    ("lt/gpu/Serial/health/gpu/budget", 0x8e815269bcd2fac2, 0x08dfaa865a856bdc, 0xa9d9fd939381994d),
    ("lt/pim/Serial/legacy/clean/open", 0xd1dc56cb2e77e052, 0x2f4d17f3c6896df0, 0x84ffbfa27625b2ba),
    ("lt/pim/Serial/health/clean/open", 0xd1dc56cb2e77e052, 0x2f4d17f3c6896df0, 0x84ffbfa27625b2ba),
    ("lt/pim/Serial/legacy/clean/budget", 0x0af96f62c63000cc, 0x3aa9834ad29a3368, 0x9e5d6f37a0e1208f),
    ("lt/pim/Serial/health/clean/budget", 0x0af96f62c63000cc, 0x3aa9834ad29a3368, 0x9e5d6f37a0e1208f),
    ("lt/pim/Serial/legacy/flips/open", 0xc8dad5b26b7049eb, 0x65070bf5a82f52ae, 0x8b399eaa4819609d),
    ("lt/pim/Serial/health/flips/open", 0xc8dad5b26b7049eb, 0x65070bf5a82f52ae, 0x8b399eaa4819609d),
    ("lt/pim/Serial/legacy/flips/budget", 0x20055f3a1a9a1454, 0x74659417f3974d49, 0xb82c7a9bc856cc07),
    ("lt/pim/Serial/health/flips/budget", 0x20055f3a1a9a1454, 0x74659417f3974d49, 0xb82c7a9bc856cc07),
    ("lt/pim/Serial/legacy/storm/open", 0x37dbac2302f39937, 0xff963080c27e4352, 0x8162a6a0df9f18d0),
    ("lt/pim/Serial/health/storm/open", 0x861ee649fde569cb, 0xbfe3d3f8be291538, 0xcfdd8b37a8675d9a),
    ("lt/pim/Serial/legacy/storm/budget", 0x25f6cca60b0669f4, 0xf4e5a6fc04077e43, 0x374066fd863bc11c),
    ("lt/pim/Serial/health/storm/budget", 0x25f6cca60b0669f4, 0xf4e5a6fc04077e43, 0x374066fd863bc11c),
    ("lt/pim/Serial/legacy/stuck/open", 0x285390f3b8f6eff0, 0xa73bf049d5af771f, 0x45466f7b92ddbe53),
    ("lt/pim/Serial/health/stuck/open", 0xec9c51b796c74c62, 0x0f7286e0993b6433, 0x20ea7bd9fb27a32c),
    ("lt/pim/Serial/legacy/stuck/budget", 0xf96614322e142a05, 0x5f23095ddd136c89, 0x3e91642e9f9796a1),
    ("lt/pim/Serial/health/stuck/budget", 0x8116cb432a7c5e4e, 0x4da115009faccd6c, 0x8cb7e9968f4be7fb),
    ("lt/pim/Serial/legacy/gpu/open", 0xc22435f2865bbad0, 0x72971a881738d995, 0xe1953d933ea78e3b),
    ("lt/pim/Serial/health/gpu/open", 0xc22435f2865bbad0, 0x72971a881738d995, 0xe1953d933ea78e3b),
    ("lt/pim/Serial/legacy/gpu/budget", 0xc61dbf86a71cbb65, 0x428e6d9a5c39f31d, 0x756a3f166a2dae02),
    ("lt/pim/Serial/health/gpu/budget", 0xc61dbf86a71cbb65, 0x428e6d9a5c39f31d, 0x756a3f166a2dae02),
    ("lt/pim/Pipelined/legacy/clean/open", 0x5adcb0f5c90b2a10, 0x1b27c2fdba69b508, 0x8828759c70b6814a),
    ("lt/pim/Pipelined/health/clean/open", 0x5adcb0f5c90b2a10, 0x1b27c2fdba69b508, 0x8828759c70b6814a),
    ("lt/pim/Pipelined/legacy/clean/budget", 0xacbf412dfe717ec9, 0xd0bbadd3f8128af2, 0x6954e930c2c5eaac),
    ("lt/pim/Pipelined/health/clean/budget", 0xacbf412dfe717ec9, 0xd0bbadd3f8128af2, 0x6954e930c2c5eaac),
    ("lt/pim/Pipelined/legacy/flips/open", 0x3cca233acf99a25a, 0x8297b2d1a1655ef2, 0xd430f8c6f4a69150),
    ("lt/pim/Pipelined/health/flips/open", 0x3cca233acf99a25a, 0x8297b2d1a1655ef2, 0xd430f8c6f4a69150),
    ("lt/pim/Pipelined/legacy/flips/budget", 0x4eb66c31cab94a21, 0x34a570e2fcf04162, 0xefef1ed813bf7604),
    ("lt/pim/Pipelined/health/flips/budget", 0x4eb66c31cab94a21, 0x34a570e2fcf04162, 0xefef1ed813bf7604),
    ("lt/pim/Pipelined/legacy/storm/open", 0x8f14cbe83f684ea6, 0x706b8c342f551b81, 0x058b7e09740d5d59),
    ("lt/pim/Pipelined/health/storm/open", 0xbdbef07aae60e86e, 0x3a428e4afe6977b7, 0x539d234650819072),
    ("lt/pim/Pipelined/legacy/storm/budget", 0xd65415d1dcd47c43, 0xf36b0d4b136700bb, 0x356c4a540e19b4c9),
    ("lt/pim/Pipelined/health/storm/budget", 0xd65415d1dcd47c43, 0xf36b0d4b136700bb, 0x356c4a540e19b4c9),
    ("lt/pim/Pipelined/legacy/stuck/open", 0x32bf70c8a1cacb8c, 0x6be13261fb4cc4eb, 0x0ec4ffb8b1cbf546),
    ("lt/pim/Pipelined/health/stuck/open", 0x668cc5e098b82764, 0x95bdee8c799e5f80, 0x99667135d10d6e77),
    ("lt/pim/Pipelined/legacy/stuck/budget", 0xed8c475208ab0a07, 0x6c42b30781003238, 0xcb51bd30706838c9),
    ("lt/pim/Pipelined/health/stuck/budget", 0x1ba5dfde99fa6e54, 0x46c9eadc0f725a9f, 0x9999ddb3c2daed8e),
    ("lt/pim/Pipelined/legacy/gpu/open", 0x4cf09a7bf1aa7acc, 0x265cd871a01b4e68, 0x8dcb4d3f3933cc35),
    ("lt/pim/Pipelined/health/gpu/open", 0x4cf09a7bf1aa7acc, 0x265cd871a01b4e68, 0x8dcb4d3f3933cc35),
    ("lt/pim/Pipelined/legacy/gpu/budget", 0xfe1b98c14238a3a9, 0x506d617fbf10cf99, 0x3ae26dad25ad40b6),
    ("lt/pim/Pipelined/health/gpu/budget", 0xfe1b98c14238a3a9, 0x506d617fbf10cf99, 0x3ae26dad25ad40b6),
    ("boot/gpu/Serial/legacy/clean/open", 0x4bcbc716b4b0b26e, 0xb7f22277946d58db, 0xf16cf1c6fb77f1b9),
    ("boot/gpu/Serial/health/clean/open", 0x4bcbc716b4b0b26e, 0xb7f22277946d58db, 0xf16cf1c6fb77f1b9),
    ("boot/gpu/Serial/legacy/clean/budget", 0x3a8eecea0ba79c1e, 0x4ed006f1ea1b8fc4, 0xd80d891cc18a17aa),
    ("boot/gpu/Serial/health/clean/budget", 0x3a8eecea0ba79c1e, 0x4ed006f1ea1b8fc4, 0xd80d891cc18a17aa),
    ("boot/gpu/Serial/legacy/flips/open", 0x4bcbc716b4b0b26e, 0xb7f22277946d58db, 0xf16cf1c6fb77f1b9),
    ("boot/gpu/Serial/health/flips/open", 0x4bcbc716b4b0b26e, 0xb7f22277946d58db, 0xf16cf1c6fb77f1b9),
    ("boot/gpu/Serial/legacy/flips/budget", 0x3a8eecea0ba79c1e, 0x4ed006f1ea1b8fc4, 0xd80d891cc18a17aa),
    ("boot/gpu/Serial/health/flips/budget", 0x3a8eecea0ba79c1e, 0x4ed006f1ea1b8fc4, 0xd80d891cc18a17aa),
    ("boot/gpu/Serial/legacy/storm/open", 0x4bcbc716b4b0b26e, 0xb7f22277946d58db, 0xf16cf1c6fb77f1b9),
    ("boot/gpu/Serial/health/storm/open", 0x4bcbc716b4b0b26e, 0xb7f22277946d58db, 0xf16cf1c6fb77f1b9),
    ("boot/gpu/Serial/legacy/storm/budget", 0x3a8eecea0ba79c1e, 0x4ed006f1ea1b8fc4, 0xd80d891cc18a17aa),
    ("boot/gpu/Serial/health/storm/budget", 0x3a8eecea0ba79c1e, 0x4ed006f1ea1b8fc4, 0xd80d891cc18a17aa),
    ("boot/gpu/Serial/legacy/stuck/open", 0x4bcbc716b4b0b26e, 0xb7f22277946d58db, 0xf16cf1c6fb77f1b9),
    ("boot/gpu/Serial/health/stuck/open", 0x4bcbc716b4b0b26e, 0xb7f22277946d58db, 0xf16cf1c6fb77f1b9),
    ("boot/gpu/Serial/legacy/stuck/budget", 0x3a8eecea0ba79c1e, 0x4ed006f1ea1b8fc4, 0xd80d891cc18a17aa),
    ("boot/gpu/Serial/health/stuck/budget", 0x3a8eecea0ba79c1e, 0x4ed006f1ea1b8fc4, 0xd80d891cc18a17aa),
    ("boot/gpu/Serial/legacy/gpu/open", 0x32aec93739f61d09, 0xe5d983d320a69fda, 0xc4e07fd0e5833f28),
    ("boot/gpu/Serial/health/gpu/open", 0x32aec93739f61d09, 0xe5d983d320a69fda, 0xc4e07fd0e5833f28),
    ("boot/gpu/Serial/legacy/gpu/budget", 0xb6ee3e1eec23a9f8, 0x36f18b371b4c3417, 0x43b2ff479721c238),
    ("boot/gpu/Serial/health/gpu/budget", 0xb6ee3e1eec23a9f8, 0x36f18b371b4c3417, 0x43b2ff479721c238),
    ("boot/pim/Serial/legacy/clean/open", 0xf25e440d0e8e3a48, 0xea5ddb302f67ec81, 0x57d59733c3e39940),
    ("boot/pim/Serial/health/clean/open", 0xf25e440d0e8e3a48, 0xea5ddb302f67ec81, 0x57d59733c3e39940),
    ("boot/pim/Serial/legacy/clean/budget", 0xb2808230fb61152b, 0x62be4868f7b5f0f4, 0xe52b60c8f610c097),
    ("boot/pim/Serial/health/clean/budget", 0xb2808230fb61152b, 0x62be4868f7b5f0f4, 0xe52b60c8f610c097),
    ("boot/pim/Serial/legacy/flips/open", 0x22b7aa1f705b10b2, 0x3c1061f20a330e94, 0x058af2347a1ddaf6),
    ("boot/pim/Serial/health/flips/open", 0x22b7aa1f705b10b2, 0x3c1061f20a330e94, 0x058af2347a1ddaf6),
    ("boot/pim/Serial/legacy/flips/budget", 0x57094a16fdf93876, 0xc2bee6628a447bfb, 0x7b42635a806b19cd),
    ("boot/pim/Serial/health/flips/budget", 0x57094a16fdf93876, 0xc2bee6628a447bfb, 0x7b42635a806b19cd),
    ("boot/pim/Serial/legacy/storm/open", 0xc04568684b4ba911, 0xf8c1cccfe2fc3670, 0x184e048d8e812848),
    ("boot/pim/Serial/health/storm/open", 0x25fb40caa4d7679d, 0x47cc8dc414fc1a8a, 0x32b34906b69a04c4),
    ("boot/pim/Serial/legacy/storm/budget", 0xa8baa1778c81a600, 0x0d10e388bbe1dbaa, 0x42a0ada90b57a07e),
    ("boot/pim/Serial/health/storm/budget", 0x3df9108612832772, 0x57928698f865783c, 0x70194cf1284fcc92),
    ("boot/pim/Serial/legacy/stuck/open", 0xd0d69ebe9eb19358, 0x852b5b26ea58a0e5, 0x8e6c2fc204a8a87f),
    ("boot/pim/Serial/health/stuck/open", 0x4f4ed7e22fda938c, 0xe6c9bab557f8a94f, 0x86eafbc5e13b618f),
    ("boot/pim/Serial/legacy/stuck/budget", 0x124e2b0456f1645f, 0x332d6155bff7ba3e, 0x9cf4756d2c73605b),
    ("boot/pim/Serial/health/stuck/budget", 0x1549634298c7a758, 0xe00e8a1362ec0716, 0xfb3f17869749b7df),
    ("boot/pim/Serial/legacy/gpu/open", 0x7f1007c1abe156c6, 0x048b6a3553534434, 0x9f4818f43a69113f),
    ("boot/pim/Serial/health/gpu/open", 0x7f1007c1abe156c6, 0x048b6a3553534434, 0x9f4818f43a69113f),
    ("boot/pim/Serial/legacy/gpu/budget", 0x1df14739e308fafc, 0x12b50eef3281c3aa, 0x056b6edd034e3753),
    ("boot/pim/Serial/health/gpu/budget", 0x1df14739e308fafc, 0x12b50eef3281c3aa, 0x056b6edd034e3753),
    ("boot/pim/Pipelined/legacy/clean/open", 0xff8046eea53263a4, 0x92794cbc25e7ea0c, 0x92de89853c615830),
    ("boot/pim/Pipelined/health/clean/open", 0xff8046eea53263a4, 0x92794cbc25e7ea0c, 0x92de89853c615830),
    ("boot/pim/Pipelined/legacy/clean/budget", 0x0ea72c1736c20a97, 0xed572207132fc123, 0x985e0f2e5a97cc13),
    ("boot/pim/Pipelined/health/clean/budget", 0x0ea72c1736c20a97, 0xed572207132fc123, 0x985e0f2e5a97cc13),
    ("boot/pim/Pipelined/legacy/flips/open", 0x63f7df13f9402924, 0x732a924d638d9b1d, 0x67c25f981c8614ee),
    ("boot/pim/Pipelined/health/flips/open", 0x63f7df13f9402924, 0x732a924d638d9b1d, 0x67c25f981c8614ee),
    ("boot/pim/Pipelined/legacy/flips/budget", 0x4ccd52a9c7c509c0, 0x7a85848e9996e5f2, 0x6153fd96f1f4cb69),
    ("boot/pim/Pipelined/health/flips/budget", 0x4ccd52a9c7c509c0, 0x7a85848e9996e5f2, 0x6153fd96f1f4cb69),
    ("boot/pim/Pipelined/legacy/storm/open", 0xc8f00eb69c94be57, 0xbf209512ce19a652, 0x13aebc5eaf41f14d),
    ("boot/pim/Pipelined/health/storm/open", 0x284a3c8224003869, 0xaebd7a27c0aeae6b, 0xf7d42a33fbe065ae),
    ("boot/pim/Pipelined/legacy/storm/budget", 0x82b0cd4f28704fd8, 0x44545ddf398e54a7, 0xe58078d9908a1d82),
    ("boot/pim/Pipelined/health/storm/budget", 0x242d7ecd33c3e3c3, 0xa37618d53045a37a, 0xf3d48e0f977248c3),
    ("boot/pim/Pipelined/legacy/stuck/open", 0x95a44e58f8dc2a86, 0xc251348ca5a9d343, 0xc3e1bf84ee9fde6a),
    ("boot/pim/Pipelined/health/stuck/open", 0x47af5113c0865b6e, 0x318f5bca920f28df, 0xbe11a8378bfb57bf),
    ("boot/pim/Pipelined/legacy/stuck/budget", 0x1ea65471451ef218, 0xefb85bbe7795b97e, 0xb57c8d460b17ff70),
    ("boot/pim/Pipelined/health/stuck/budget", 0xbaa60f23055ebb52, 0xce29ed21d3175e56, 0x6221cc59ca6b0d3d),
    ("boot/pim/Pipelined/legacy/gpu/open", 0x8600bc7fcc0a1d15, 0xa165f5b9117e685c, 0xa22ecde48fb2104f),
    ("boot/pim/Pipelined/health/gpu/open", 0x8600bc7fcc0a1d15, 0xa165f5b9117e685c, 0xa22ecde48fb2104f),
    ("boot/pim/Pipelined/legacy/gpu/budget", 0xd652fabb3a7f61f8, 0xd38438c399d85b01, 0xc7f201e6670dfa6b),
    ("boot/pim/Pipelined/health/gpu/budget", 0xd652fabb3a7f61f8, 0xd38438c399d85b01, 0xc7f201e6670dfa6b),
];

/// Cells whose digests moved when the copies were merged; each overrides
/// its `EXPECTED` row. Nothing else may move.
///
/// - Serial budget cells: a run cancelled inside a PIM run used to charge
///   the handoff and the GPU kernel that followed it, starting after the
///   budget. The budget is now checked before every op and every PIM
///   kernel, and nothing is charged after a failed check.
/// - Pipelined cells with injected GPU stalls: kernel end times are
///   `start + (cost + stall)` in both modes; the two-stream pass used to
///   compute `(start + cost) + stall`.
///
/// Re-adding both old behaviours to the merged loop reproduces every
/// `EXPECTED` digest.
#[rustfmt::skip]
const CHANGED: &[(&str, u64, u64, u64)] = &[
    ("lt/pim/Serial/legacy/storm/budget", 0x6cbe2c10d905206a, 0x31ffc787027a6420, 0xe2b4ae45451839d8),
    ("lt/pim/Serial/health/storm/budget", 0x6cbe2c10d905206a, 0x31ffc787027a6420, 0xe2b4ae45451839d8),
    ("lt/pim/Serial/legacy/stuck/budget", 0x383e62f44e00f91c, 0x21fe4d4fd2d08bad, 0x1c7dd89104c35773),
    ("boot/pim/Serial/legacy/gpu/budget", 0x6a6b9a0f54ce12eb, 0x7e440a2f4eec7b5b, 0x7e1500e6b9032e86),
    ("boot/pim/Serial/health/gpu/budget", 0x6a6b9a0f54ce12eb, 0x7e440a2f4eec7b5b, 0x7e1500e6b9032e86),
    ("boot/pim/Pipelined/legacy/gpu/open", 0x8d17028a3d13998c, 0xa7973ecffe459acb, 0x0f2ce27e2b24670f),
    ("boot/pim/Pipelined/health/gpu/open", 0x8d17028a3d13998c, 0xa7973ecffe459acb, 0x0f2ce27e2b24670f),
    ("boot/pim/Pipelined/legacy/gpu/budget", 0x5848f81f965301f6, 0xac8cbceb545c3744, 0x6786a2fa571c11da),
    ("boot/pim/Pipelined/health/gpu/budget", 0x5848f81f965301f6, 0xac8cbceb545c3744, 0x6786a2fa571c11da),
];

#[test]
fn schedule_digests_are_pinned() {
    let got = cells();
    let table: String = got
        .iter()
        .map(|(n, r, t, p)| format!("    (\"{n}\", {r:#018x}, {t:#018x}, {p:#018x}),\n"))
        .collect();
    let expected = |name: &str| {
        CHANGED
            .iter()
            .chain(EXPECTED)
            .find(|row| row.0 == name)
            .map(|&(_, r, t, p)| (r, t, p))
    };
    let mismatched: Vec<&str> = got
        .iter()
        .filter(|(n, r, t, p)| expected(n) != Some((*r, *t, *p)))
        .map(|(n, ..)| n.as_str())
        .collect();
    assert!(
        mismatched.is_empty() && got.len() == EXPECTED.len(),
        "{} of {} cells differ from the pinned digests: {mismatched:?}\n\
         computed table:\n{table}",
        mismatched.len(),
        got.len()
    );
}
