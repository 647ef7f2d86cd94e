//! The architecture variants evaluated in the paper.

use gscalar_power::RfScheme;
use gscalar_sim::ArchConfig;

/// The four architectures of Figure 11 (plus an uncompressed-G-Scalar
/// ablation used by the extension benches).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Arch {
    /// The unmodified GTX 480-class baseline.
    Baseline,
    /// Prior-work "ALU scalar" (Gilani et al. \[3\]): scalar execution of
    /// non-divergent ALU instructions through a dedicated scalar
    /// register file with a single bank.
    AluScalar,
    /// G-Scalar without divergent or half-warp scalar execution:
    /// compression-based scalar execution on all three pipeline types.
    GScalarNoDivergent,
    /// Full G-Scalar: ALU + SFU + memory + half-warp + divergent scalar
    /// execution on top of byte-wise register compression.
    GScalar,
}

impl Arch {
    /// All variants in Figure 11 order.
    pub const ALL: [Arch; 4] = [
        Arch::Baseline,
        Arch::AluScalar,
        Arch::GScalarNoDivergent,
        Arch::GScalar,
    ];

    /// Display label matching the paper's figure legends.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Arch::Baseline => "baseline",
            Arch::AluScalar => "ALU scalar",
            Arch::GScalarNoDivergent => "G-Scalar w/o divergent",
            Arch::GScalar => "G-Scalar",
        }
    }

    /// The simulator feature flags for this architecture.
    #[must_use]
    pub fn config(self) -> ArchConfig {
        let mut c = ArchConfig::baseline();
        c.name = self.label().into();
        match self {
            Arch::Baseline => {}
            Arch::AluScalar => {
                c.scalar_alu = true;
                c.dedicated_scalar_rf = true;
            }
            Arch::GScalarNoDivergent => {
                c.scalar_alu = true;
                c.scalar_sfu = true;
                c.scalar_mem = true;
                c.compression = true;
                c.extra_latency = 3;
            }
            Arch::GScalar => {
                c.scalar_alu = true;
                c.scalar_sfu = true;
                c.scalar_mem = true;
                c.scalar_half = true;
                c.scalar_divergent = true;
                c.compression = true;
                c.extra_latency = 3;
            }
        }
        c
    }

    /// The register-file design this architecture pays for.
    #[must_use]
    pub fn rf_scheme(self) -> RfScheme {
        match self {
            Arch::Baseline => RfScheme::Baseline,
            Arch::AluScalar => RfScheme::ScalarRf,
            Arch::GScalarNoDivergent | Arch::GScalar => RfScheme::ByteWise,
        }
    }

    /// Whether the codec (compressor/decompressor) energy applies.
    #[must_use]
    pub fn has_codec(self) -> bool {
        matches!(self, Arch::GScalarNoDivergent | Arch::GScalar)
    }
}

/// What a run simulates: a Figure 11 preset plus the simulator flags to
/// run it with — the preset's own ([`From<Arch>`]) or, for ablations,
/// edited ones ([`Arch::with`]). Power is accounted under the preset's
/// register-file scheme and codec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Variant {
    /// The preset whose power model applies.
    pub arch: Arch,
    /// The simulator flags actually run.
    pub config: ArchConfig,
}

impl From<Arch> for Variant {
    fn from(arch: Arch) -> Self {
        Variant {
            arch,
            config: arch.config(),
        }
    }
}

impl Arch {
    /// This preset with its simulator flags changed by `edit`.
    #[must_use]
    pub fn with(self, edit: impl FnOnce(&mut ArchConfig)) -> Variant {
        let mut v = Variant::from(self);
        edit(&mut v.config);
        v
    }
}

impl std::fmt::Display for Arch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_has_no_features() {
        let c = Arch::Baseline.config();
        assert!(!c.any_scalar());
        assert!(!c.compression);
        assert_eq!(c.extra_latency, 0);
        assert_eq!(Arch::Baseline.rf_scheme(), RfScheme::Baseline);
        assert!(!Arch::Baseline.has_codec());
    }

    #[test]
    fn alu_scalar_matches_prior_work() {
        let c = Arch::AluScalar.config();
        assert!(c.scalar_alu);
        assert!(!c.scalar_sfu);
        assert!(!c.scalar_divergent);
        assert!(c.dedicated_scalar_rf);
        assert!(!c.compression);
        assert_eq!(Arch::AluScalar.rf_scheme(), RfScheme::ScalarRf);
    }

    #[test]
    fn gscalar_enables_everything_with_3_cycles() {
        let c = Arch::GScalar.config();
        assert!(c.scalar_alu && c.scalar_sfu && c.scalar_mem);
        assert!(c.scalar_half && c.scalar_divergent);
        assert!(c.compression);
        assert_eq!(c.extra_latency, 3);
        assert!(Arch::GScalar.has_codec());
    }

    #[test]
    fn no_divergent_variant_excludes_half_and_divergent() {
        let c = Arch::GScalarNoDivergent.config();
        assert!(c.scalar_sfu);
        assert!(!c.scalar_half);
        assert!(!c.scalar_divergent);
    }

    #[test]
    fn labels_match_figures() {
        assert_eq!(Arch::GScalar.to_string(), "G-Scalar");
        assert_eq!(Arch::AluScalar.to_string(), "ALU scalar");
    }
}
