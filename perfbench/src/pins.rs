//! Pinned per-kernel simulation results.
//!
//! `pins.txt` holds, for each Table 2 kernel at `Scale::Full` on
//! `Arch::GScalar`, its simulated cycle count and the FNV-1a digest of
//! its complete `Stats` export. Both simulation workloads check every
//! kernel run against it, so a speed change that alters any simulated
//! counter shows up as a failed operation. Regenerate after an
//! intended change to simulated behaviour with:
//!
//! ```sh
//! python3 perfbench/run.py --pins > perfbench/pins.txt
//! ```

use std::collections::BTreeMap;

use gscalar_metrics::{fnv1a_hex, MetricsRegistry};
use gscalar_sim::Stats;

/// The committed pins.
pub const PINS: &str = include_str!("../pins.txt");

/// Digest of every counter `Stats::export` writes, in sorted path order.
pub fn stats_digest(stats: &Stats) -> String {
    let mut reg = MetricsRegistry::new();
    stats.export(&mut reg.scope("gpu"));
    let text: String = reg
        .flatten()
        .iter()
        .map(|(path, v)| format!("{path}={v:?}\n"))
        .collect();
    fnv1a_hex(&text)
}

/// Expected `(cycles, digest)` per kernel abbreviation.
pub struct Pins(BTreeMap<String, (u64, String)>);

impl Pins {
    /// Parses `ABBR CYCLES DIGEST` lines; `#` starts a comment line.
    pub fn parse(text: &str) -> Result<Pins, String> {
        let mut pins = BTreeMap::new();
        for line in text.lines().map(str::trim) {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = line.split_whitespace().collect();
            let [abbr, cycles, digest] = fields[..] else {
                return Err(format!("malformed pin line {line:?}"));
            };
            let cycles = cycles
                .parse()
                .map_err(|e| format!("pin {abbr}: bad cycle count {cycles:?}: {e}"))?;
            pins.insert(abbr.to_string(), (cycles, digest.to_string()));
        }
        Ok(Pins(pins))
    }

    /// Checks one kernel's statistics against its pin.
    pub fn check(&self, abbr: &str, stats: &Stats) -> Result<(), String> {
        let Some((cycles, digest)) = self.0.get(abbr) else {
            return Err(format!("{abbr}: no pinned digest"));
        };
        let got = stats_digest(stats);
        if stats.cycles != *cycles || got != *digest {
            return Err(format!(
                "{abbr}: got {} cycles, digest {got}; pinned {cycles} cycles, digest {digest}",
                stats.cycles
            ));
        }
        Ok(())
    }
}

/// Renders a pins file for `(abbr, stats)` pairs in the given order.
pub fn render(runs: &[(String, Stats)]) -> String {
    let mut out = String::from(
        "# Per-kernel Stats pins: Table 2 kernels, Scale::Full, Arch::GScalar, GpuConfig::gtx480().\n\
         # Columns: abbreviation, simulated cycles, fnv1a digest of the Stats export.\n\
         # Regenerate: python3 perfbench/run.py --pins > perfbench/pins.txt\n",
    );
    for (abbr, stats) in runs {
        out.push_str(&format!(
            "{abbr} {} {}\n",
            stats.cycles,
            stats_digest(stats)
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gscalar_core::{Arch, Runner};
    use gscalar_sim::GpuConfig;
    use gscalar_workloads::{by_abbr, Scale, ABBRS};

    fn small_run() -> Stats {
        let w = by_abbr("BP", Scale::Test).expect("BP is in the suite");
        Runner::new(GpuConfig::test_small())
            .run(&w, Arch::GScalar)
            .stats
    }

    #[test]
    fn committed_pins_cover_the_suite() {
        let pins = Pins::parse(PINS).expect("committed pins parse");
        assert_eq!(pins.0.len(), ABBRS.len());
        for abbr in ABBRS {
            assert!(pins.0.contains_key(abbr), "{abbr} missing");
        }
    }

    #[test]
    fn matching_pin_passes_and_perturbed_pins_are_caught() {
        let stats = small_run();
        let good = render(&[("BP".to_string(), stats.clone())]);
        Pins::parse(&good).unwrap().check("BP", &stats).unwrap();

        let line = good.lines().last().unwrap().to_string();
        let digest = line.split_whitespace().nth(2).unwrap();
        let flipped = if digest.starts_with('0') { "1" } else { "0" };
        let bad_digest = good.replace(digest, &format!("{flipped}{}", &digest[1..]));
        let err = Pins::parse(&bad_digest).unwrap().check("BP", &stats);
        assert!(err.is_err(), "perturbed digest accepted");

        let bad_cycles = good.replace(
            &format!("BP {} ", stats.cycles),
            &format!("BP {} ", stats.cycles + 1),
        );
        assert!(Pins::parse(&bad_cycles)
            .unwrap()
            .check("BP", &stats)
            .is_err());
        assert!(Pins::parse(&good).unwrap().check("MV", &stats).is_err());
    }

    #[test]
    fn any_counter_change_moves_the_digest() {
        let stats = small_run();
        let mut changed = stats.clone();
        changed.mem.l1_hits += 1;
        assert_ne!(stats_digest(&stats), stats_digest(&changed));
    }
}
