//! The paper's claims, checked against the figures this repository prints.
//!
//! The golden tests pin the figures against themselves: a change that moves
//! a step count fails them whichever way it moves. This file checks the
//! direction the paper claims instead (§7.2–§7.3), on the claims that hold
//! at this scale:
//!
//! * Figure 2: on every real-bug analog, ESD needs no more search steps than
//!   KC-RandPath. (ESD ≈ KC-DFS on these small analogs; the paper's gap to
//!   KC-DFS does not reproduce here, so it is not asserted.)
//! * Figure 2 on the generated corpus: on every medium crash,
//!   out-of-bounds and race genbug the figure runs, ESD needs no more
//!   search steps than KC-DFS (races: 306–316 steps against 316, with
//!   static pruning on or off). On deadlocks ESD wins 7 of 8 seeds (307
//!   against 315) and loses one (474), so they are not asserted.
//! * Figure 3: ESD synthesizes the BPF deadlock at 16, 32 and 64 branches,
//!   and its steps grow slower than the branch count; KC-RandPath needs
//!   over 100× ESD's steps at 16 branches.
//!
//! KC runs only at 16 branches: from 32 on it takes hundreds of thousands
//! of steps or hits its cap, too slow for a debug `cargo test`.

use esd::workloads::genbug::InjectedBugKind;
use esd::FrontierKind;
use esd_bench::{fig2, fig2_genbugs, fig3, ESD_BUDGET, GENBUG_FIG2_SEEDS, KC_CAP};

#[test]
fn esd_needs_no_more_steps_than_kc_randpath_on_every_analog() {
    let rows = fig2(ESD_BUDGET, KC_CAP, FrontierKind::Proximity);
    assert!(rows.len() >= 12, "fig2 covers ls1–ls4 and the real-bug analogs");
    for r in &rows {
        let esd = r.esd_steps.unwrap_or_else(|| panic!("ESD must synthesize {}", r.system));
        // A KC run that hit its cap took more steps than ESD by definition.
        if let Some(kc) = r.kc_rand_steps {
            assert!(esd <= kc, "{}: ESD took {esd} steps, KC-RandPath {kc}", r.system);
        }
    }
}

#[test]
fn esd_needs_no_more_steps_than_kc_dfs_on_medium_crashes_oobs_and_races() {
    let kinds =
        [InjectedBugKind::CrashOnPath, InjectedBugKind::OutOfBounds, InjectedBugKind::DataRace];
    let rows = fig2_genbugs(&kinds, ESD_BUDGET, KC_CAP, FrontierKind::Proximity);
    for r in &rows {
        let runs = r.esd_steps.iter().zip(&r.kc_dfs_steps);
        for (seed, (esd, kc)) in GENBUG_FIG2_SEEDS.zip(runs) {
            let esd = esd.unwrap_or_else(|| panic!("ESD must synthesize {} s{seed}", r.kind));
            if let Some(kc) = kc {
                assert!(esd <= *kc, "{} s{seed}: ESD took {esd} steps, KC-DFS {kc}", r.kind);
            }
        }
    }
}

#[test]
fn esd_scales_on_bpf_where_kc_randpath_does_not() {
    let small = fig3(&[16], ESD_BUDGET, KC_CAP, FrontierKind::Proximity);
    // A KC cap of 0 leaves the KC side of the larger rows out: it stops at
    // once and reports "cap".
    let large = fig3(&[32, 64], ESD_BUDGET, 0, FrontierKind::Proximity);
    let rows: Vec<_> = small.iter().chain(&large).collect();
    for r in &rows {
        assert!(r.esd_secs.is_some(), "ESD must synthesize BPF at {} branches", r.branches);
    }
    let (at16, at64) = (rows[0].esd_steps, rows[2].esd_steps);
    assert!(
        at64 < 4 * at16,
        "4× the branches must cost ESD under 4× the steps: {at16} at 16, {at64} at 64"
    );
    let kc = small[0].kc_steps.expect("KC-RandPath finds BPF-16 within its cap");
    assert!(kc > 100 * at16, "KC-RandPath took {kc} steps at 16 branches, ESD {at16}");
}
