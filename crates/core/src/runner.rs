//! Workload container and the high-level simulation runner.

use gscalar_isa::{Kernel, LaunchConfig};
use gscalar_power::{chip_power, EnergyModel, PowerReport, RfScheme};
use gscalar_sim::memory::GlobalMemory;
use gscalar_sim::{BudgetExceeded, Gpu, GpuConfig, LiveObserver, Probes, Stats};

use crate::arch::{Arch, Variant};

/// A complete, runnable workload: kernel + launch shape + input memory
/// image.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Full benchmark name (e.g. `"backprop"`).
    pub name: String,
    /// Paper abbreviation (e.g. `"BP"`).
    pub abbr: String,
    /// The kernel to execute.
    pub kernel: Kernel,
    /// Grid/block shape.
    pub launch: LaunchConfig,
    /// Pre-initialized input memory (cloned per run).
    pub memory: GlobalMemory,
}

impl Workload {
    /// Creates a workload.
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        abbr: impl Into<String>,
        kernel: Kernel,
        launch: LaunchConfig,
        memory: GlobalMemory,
    ) -> Self {
        Workload {
            name: name.into(),
            abbr: abbr.into(),
            kernel,
            launch,
            memory,
        }
    }
}

/// Results of running one workload on one architecture.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// The architecture simulated.
    pub arch: Arch,
    /// Raw simulator statistics.
    pub stats: Stats,
    /// Chip power breakdown under the architecture's RF scheme.
    pub power: PowerReport,
}

impl RunReport {
    /// Power efficiency in IPC/W — the paper's headline metric.
    #[must_use]
    pub fn ipc_per_watt(&self) -> f64 {
        self.power.ipc_per_watt()
    }
}

/// Runs workloads under configurable hardware and energy models.
///
/// # Examples
///
/// ```
/// use gscalar_core::{Arch, Runner, Workload};
/// use gscalar_isa::{KernelBuilder, LaunchConfig, Operand};
/// use gscalar_sim::{memory::GlobalMemory, GpuConfig};
///
/// let mut b = KernelBuilder::new("tiny");
/// b.mov(Operand::Imm(1));
/// b.exit();
/// let w = Workload::new(
///     "tiny", "T",
///     b.build().unwrap(),
///     LaunchConfig::linear(2, 64),
///     GlobalMemory::new(),
/// );
/// let runner = Runner::new(GpuConfig::test_small());
/// let report = runner.run(&w, Arch::GScalar);
/// assert!(report.stats.cycles > 0);
/// assert!(report.ipc_per_watt() > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct Runner {
    cfg: GpuConfig,
    energy: EnergyModel,
}

impl Runner {
    /// Creates a runner with the default 40 nm energy model.
    #[must_use]
    pub fn new(cfg: GpuConfig) -> Self {
        Runner {
            cfg,
            energy: EnergyModel::default_40nm(),
        }
    }

    /// Creates a runner with a custom energy model.
    #[must_use]
    pub fn with_energy(cfg: GpuConfig, energy: EnergyModel) -> Self {
        Runner { cfg, energy }
    }

    /// The hardware configuration.
    #[must_use]
    pub fn config(&self) -> &GpuConfig {
        &self.cfg
    }

    /// The energy model.
    #[must_use]
    pub fn energy(&self) -> &EnergyModel {
        &self.energy
    }

    /// Runs `workload` on `arch` and returns statistics plus power.
    #[must_use]
    pub fn run(&self, workload: &Workload, arch: Arch) -> RunReport {
        self.run_with(workload, arch, &mut Probes::default())
            .expect("no budget set")
    }

    /// Runs `workload` on `arch` — a preset or an ablation [`Variant`]
    /// — with `probes` attached: the one entry point behind
    /// [`Runner::run`] (see [`Probes`] for what can ride along).
    ///
    /// When a process-wide live stream is installed (see
    /// [`gscalar_live::install`]) the run is announced on it and its
    /// observer occupies [`Probes::live`] for the duration of the run.
    /// Statistics and power never depend on the probes attached.
    ///
    /// # Errors
    ///
    /// Returns [`BudgetExceeded`] when the run crosses
    /// [`Probes::budget`].
    pub fn run_with(
        &self,
        workload: &Workload,
        arch: impl Into<Variant>,
        probes: &mut Probes<'_>,
    ) -> Result<RunReport, BudgetExceeded> {
        let Variant { arch, config } = arch.into();
        probes.live = gscalar_live::installed()
            .map(|h| LiveObserver::start(h, &workload.name, &config.name, self.cfg.num_sms));
        let mut mem = workload.memory.clone();
        let run = Gpu::new(self.cfg.clone(), config).run_with(
            &workload.kernel,
            workload.launch,
            &mut mem,
            probes,
        );
        probes.live = None;
        let stats = run?.stats;
        let power = chip_power(
            &stats,
            &self.cfg,
            arch.rf_scheme(),
            arch.has_codec(),
            &self.energy,
        );
        Ok(RunReport { arch, stats, power })
    }

    /// Runs `workload` on every Figure 11 architecture.
    #[must_use]
    pub fn run_all(&self, workload: &Workload) -> Vec<RunReport> {
        Arch::ALL.iter().map(|&a| self.run(workload, a)).collect()
    }

    /// Register-file dynamic power under each Figure 12 scheme,
    /// normalized to the baseline scheme, from a single run.
    #[must_use]
    pub fn rf_power_normalized(&self, workload: &Workload) -> Vec<(RfScheme, f64)> {
        let report = self.run(workload, Arch::GScalar);
        let base = gscalar_power::rf_energy_pj(&report.stats, RfScheme::Baseline, &self.energy);
        RfScheme::ALL
            .iter()
            .map(|&s| {
                let e = gscalar_power::rf_energy_pj(&report.stats, s, &self.energy);
                (s, if base > 0.0 { e / base } else { 0.0 })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gscalar_isa::{CmpOp, KernelBuilder, Operand, SReg};

    /// A workload with uniform SFU work, divergence, and memory traffic.
    fn mixed_workload() -> Workload {
        let mut b = KernelBuilder::new("mixed");
        let tid = b.s2r(SReg::TidX);
        let cta = b.s2r(SReg::CtaIdX);
        // Uniform SFU chain (scalar-eligible).
        let f = b.i2f(cta.into());
        let g = b.ex2(f.into());
        let _h = b.fmul(g.into(), Operand::imm_f32(0.5));
        // Divergence.
        let p = b.isetp(CmpOp::Lt, tid.into(), Operand::Imm(16));
        b.if_then(p.into(), |b| {
            b.iadd(tid.into(), Operand::Imm(1));
        });
        // Memory.
        let off = b.shl(tid.into(), Operand::Imm(2));
        let addr = b.iadd(off.into(), Operand::Imm(0x10000));
        let v = b.ld_global(addr, 0);
        let v2 = b.iadd(v.into(), Operand::Imm(1));
        b.st_global(addr, v2, 0);
        b.exit();
        Workload::new(
            "mixed",
            "MX",
            b.build().unwrap(),
            LaunchConfig::linear(4, 64),
            GlobalMemory::new(),
        )
    }

    #[test]
    fn run_all_covers_every_arch() {
        let runner = Runner::new(GpuConfig::test_small());
        let reports = runner.run_all(&mixed_workload());
        assert_eq!(reports.len(), 4);
        let archs: Vec<_> = reports.iter().map(|r| r.arch).collect();
        assert_eq!(archs, Arch::ALL.to_vec());
        // Same workload ⇒ same instruction counts everywhere.
        let w0 = reports[0].stats.instr.warp_instrs;
        assert!(reports.iter().all(|r| r.stats.instr.warp_instrs == w0));
    }

    #[test]
    fn gscalar_beats_baseline_efficiency_on_scalar_friendly_work() {
        // SFU-heavy warp-uniform work with enough warps to hide the
        // +3-cycle compression latency — the BP-like case where the
        // paper reports the largest gains.
        let mut b = KernelBuilder::new("sfu_heavy");
        let cta = b.s2r(SReg::CtaIdX);
        let f = b.i2f(cta.into());
        let acc = b.mov_f32(1.0);
        for _ in 0..12 {
            let e = b.ex2(acc.into());
            let m = b.fmul(e.into(), Operand::imm_f32(0.25));
            b.fadd_to(acc, m.into(), f.into());
        }
        b.exit();
        let w = Workload::new(
            "sfu_heavy",
            "SH",
            b.build().unwrap(),
            LaunchConfig::linear(60, 256),
            GlobalMemory::new(),
        );
        // Full-chip configuration: the efficiency argument needs real
        // activity levels, not the single-SM test configuration.
        let runner = Runner::new(GpuConfig::gtx480());
        let base = runner.run(&w, Arch::Baseline);
        let gs = runner.run(&w, Arch::GScalar);
        assert!(gs.stats.instr.executed_scalar > 0);
        assert!(
            gs.ipc_per_watt() > base.ipc_per_watt(),
            "G-Scalar {:.4} vs baseline {:.4}",
            gs.ipc_per_watt(),
            base.ipc_per_watt()
        );
    }

    #[test]
    fn budget_aborts_deterministically() {
        let runner = Runner::new(GpuConfig::test_small());
        let w = mixed_workload();
        let full = runner.run(&w, Arch::GScalar).stats.cycles;
        assert!(full > 2, "workload too small to truncate");
        let budgeted = |budget| {
            let mut probes = Probes {
                budget,
                ..Probes::default()
            };
            runner.run_with(&w, Arch::GScalar, &mut probes)
        };
        let err = budgeted(2).expect_err("must trip");
        assert_eq!(err.budget, 2);
        assert!(err.cycles >= 2 && err.cycles < full);
        // Deterministic: the abort point is cycle-based, not
        // wall-clock-based, so it reproduces exactly.
        assert_eq!(budgeted(2).expect_err("must trip again"), err);
        assert!(err.to_string().contains("cycle budget exceeded"));
    }

    #[test]
    fn run_with_accepts_custom_arch_configs() {
        let runner = Runner::new(GpuConfig::test_small());
        let w = mixed_workload();
        let slow = Arch::GScalar.with(|c| c.extra_latency = 9);
        let report = runner
            .run_with(&w, slow.clone(), &mut Probes::default())
            .expect("unlimited");
        assert!(report.stats.cycles > 0);
        assert_eq!(report.arch, Arch::GScalar);
        assert_ne!(report.stats, runner.run(&w, Arch::GScalar).stats);
        let mut probes = Probes {
            budget: 2,
            ..Probes::default()
        };
        let err = runner
            .run_with(&w, slow, &mut probes)
            .expect_err("must trip");
        assert_eq!(err.budget, 2);
    }

    #[test]
    fn rf_power_normalized_baseline_is_one() {
        let runner = Runner::new(GpuConfig::test_small());
        let rows = runner.rf_power_normalized(&mixed_workload());
        assert_eq!(rows.len(), 4);
        assert!((rows[0].1 - 1.0).abs() < 1e-9);
        // Our scheme saves power vs baseline.
        let ours = rows
            .iter()
            .find(|(s, _)| *s == RfScheme::ByteWise)
            .expect("scheme present");
        assert!(ours.1 < 1.0);
    }
}
