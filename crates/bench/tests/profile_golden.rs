//! Golden-file tests pinning the per-instruction profiler's renderers
//! on the shared divergent example kernel (Figure 7b shape): the
//! annotated disassembly and the hotspot/divergence markdown must be
//! byte-stable run to run — the simulator is deterministic and the
//! per-PC tables iterate in PC order — and any format change must be
//! deliberate. Regenerate with:
//!
//! ```sh
//! GOLDEN_REGEN=1 cargo test -p gscalar-bench --test profile_golden
//! ```

use std::path::PathBuf;

use gscalar_core::{Arch, Probes, Runner};
use gscalar_profile::{annotate, branch_markdown, hotspot_markdown, KernelProfile, Profiler};
use gscalar_sim::GpuConfig;
use gscalar_workloads::divergent_example;

fn profiled_fixture() -> (gscalar_core::Workload, KernelProfile) {
    let w = divergent_example();
    let mut probes = Probes {
        profiler: Profiler::for_kernel(0, w.kernel.name(), w.kernel.len()),
        ..Probes::default()
    };
    Runner::new(GpuConfig::test_small())
        .run_with(&w, Arch::GScalar, &mut probes)
        .expect("no budget set");
    let profile = probes.profiler.into_profile().expect("profiler on");
    (w, profile)
}

fn check_golden(name: &str, actual: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); regenerate with GOLDEN_REGEN=1",
            path.display()
        )
    });
    assert_eq!(
        actual,
        expected,
        "profiler output drifted from {}; if intentional, regenerate with GOLDEN_REGEN=1",
        path.display()
    );
}

#[test]
fn annotated_disassembly_matches_golden() {
    let (w, profile) = profiled_fixture();
    check_golden("profile_annotated.txt", &annotate(&w.kernel, &profile));
}

#[test]
fn hotspot_and_branch_reports_match_golden() {
    let (w, profile) = profiled_fixture();
    let md = format!(
        "{}\n{}",
        hotspot_markdown(&w.kernel, &profile, 10),
        branch_markdown(&w.kernel, &profile)
    );
    check_golden("profile_hotspots.md", &md);
}

#[test]
fn every_executed_pc_is_annotated() {
    let (w, profile) = profiled_fixture();
    let annotated = annotate(&w.kernel, &profile);
    // Every executed PC must appear with a real issue count (column 2),
    // not the `-` placeholder of never-issued lines.
    for pc in profile.executed_pcs() {
        let line = annotated
            .lines()
            .find(|l| {
                l.split_whitespace()
                    .next()
                    .is_some_and(|c| c.parse::<usize>() == Ok(pc))
            })
            .unwrap_or_else(|| panic!("pc {pc} missing from annotated disassembly"));
        let issues: u64 = line
            .split_whitespace()
            .nth(1)
            .expect("issue column present")
            .parse()
            .expect("executed pc has a numeric issue count");
        assert_eq!(issues, profile.record(pc).issues);
    }
}
