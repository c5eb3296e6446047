//! Ablation studies for the design choices DESIGN.md §6 calls out.
//!
//! * [`selection_transport_grid`] — SCDA's gain has two sources: smart
//!   server selection (§VII) and explicit-rate transport (§VIII). The 2×2
//!   grid {best-rate, random} × {explicit-rate, TCP} isolates each.
//! * [`metric_comparison`] — the full (eq. 2) vs simplified (eq. 5) rate
//!   metric on identical workloads.
//! * [`tau_sweep`] — sensitivity to the control interval τ.
//! * [`priority_study`] — SJF-style weights vs uniform max-min (§IV-A).
//! * [`energy_study`] — dormancy on/off: energy and dormant-server counts
//!   vs the FCT cost of wake-ups (§VII-C).
//! * [`nns_scaling_study`] — metadata load balance vs NNS count (§III).

use scda_core::nodes::{ContentMeta, NameService};
use scda_core::{
    AccessStats, ContentClass, ContentId, ControlTree, MetricKind, Params, PriorityPolicy,
    SelectorConfig,
};
use scda_simnet::NodeId;
use serde::Serialize;

use scda_core::overhead::{delta_reporting, full_reporting, TreeShape};

use crate::runner::{
    run_scda, DataTransport, EnergyOptions, RunResult, ScdaOptions, SelectionPolicy,
};
use crate::scenario::Scenario;

/// One cell of an ablation table.
#[derive(Debug, Serialize)]
pub struct AblationCell {
    /// Configuration label.
    pub label: String,
    /// Mean flow-completion time, seconds.
    pub mean_fct: f64,
    /// Median FCT, seconds.
    pub median_fct: f64,
    /// Mean per-flow throughput, bytes/s.
    pub mean_throughput: f64,
    /// Completed / requested.
    pub completed: usize,
    /// SLA violations observed.
    pub sla_violations: usize,
    /// Energy in joules, when accounted.
    pub energy_joules: Option<f64>,
    /// Dormant servers at the end, when dormancy is on.
    pub dormant_servers: usize,
}

impl AblationCell {
    fn from_run(label: impl Into<String>, r: &RunResult) -> Self {
        AblationCell {
            label: label.into(),
            mean_fct: r.fct.mean_fct().unwrap_or(f64::NAN),
            median_fct: r.fct.quantile(0.5).unwrap_or(f64::NAN),
            mean_throughput: r.throughput.mean_per_flow(),
            completed: r.completed,
            sla_violations: r.sla_violations,
            energy_joules: r.energy_joules,
            dormant_servers: r.dormant_servers,
        }
    }
}

/// Render cells as an aligned text table.
pub fn table(cells: &[AblationCell]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<34} {:>10} {:>10} {:>14} {:>9} {:>6}",
        "configuration", "mean FCT", "median", "thpt (KB/s)", "done", "SLA"
    );
    for c in cells {
        let _ = writeln!(
            out,
            "{:<34} {:>9.3}s {:>9.3}s {:>14.0} {:>9} {:>6}",
            c.label,
            c.mean_fct,
            c.median_fct,
            c.mean_throughput / 1000.0,
            c.completed,
            c.sla_violations
        );
    }
    out
}

/// The 2×2 selection × transport grid. Returns cells in the order
/// (best, explicit), (best, tcp), (random, explicit), (random, tcp).
pub fn selection_transport_grid(sc: &Scenario) -> Vec<AblationCell> {
    let mut cells = Vec::with_capacity(4);
    for (sel, sname) in [
        (SelectionPolicy::BestRate, "best-rate"),
        (SelectionPolicy::Random, "random"),
    ] {
        for (tr, tname) in [
            (DataTransport::ExplicitRate, "explicit-rate"),
            (DataTransport::Tcp, "tcp"),
        ] {
            let opts = ScdaOptions {
                selection_policy: sel,
                transport_kind: tr,
                ..Default::default()
            };
            let r = run_scda(sc, &opts);
            cells.push(AblationCell::from_run(
                format!("selection={sname} transport={tname}"),
                &r,
            ));
        }
    }
    cells
}

/// Full (eq. 2) vs simplified (eq. 5) metric.
pub fn metric_comparison(sc: &Scenario) -> Vec<AblationCell> {
    [MetricKind::Full, MetricKind::Simplified]
        .into_iter()
        .map(|m| {
            let r = run_scda(
                sc,
                &ScdaOptions {
                    metric: m,
                    ..Default::default()
                },
            );
            AblationCell::from_run(format!("metric={m:?}"), &r)
        })
        .collect()
}

/// Sensitivity to the control interval τ.
pub fn tau_sweep(sc: &Scenario, taus: &[f64]) -> Vec<AblationCell> {
    taus.iter()
        .map(|&tau| {
            let mut sc = sc.clone();
            sc.tau = tau;
            let r = run_scda(&sc, &ScdaOptions::default());
            AblationCell::from_run(format!("tau={}ms", (tau * 1e3).round()), &r)
        })
        .collect()
}

/// SJF-weighted vs uniform allocation.
pub fn priority_study(sc: &Scenario) -> Vec<AblationCell> {
    let uniform = run_scda(sc, &ScdaOptions::default());
    let sjf = run_scda(
        sc,
        &ScdaOptions {
            priority: Some(PriorityPolicy::ShortestFirst {
                scale_bytes: 500_000.0,
                gamma: 0.7,
            }),
            ..Default::default()
        },
    );
    vec![
        AblationCell::from_run("priority=uniform", &uniform),
        AblationCell::from_run("priority=sjf", &sjf),
    ]
}

/// Dormancy on vs off vs no energy accounting, with `r_scale` set so
/// near-idle servers qualify.
pub fn energy_study(sc: &Scenario, r_scale: f64) -> Vec<AblationCell> {
    let selector = SelectorConfig {
        r_scale,
        power_aware: false,
    };
    let base = ScdaOptions {
        selector: selector.clone(),
        ..Default::default()
    };
    let always_on = run_scda(
        sc,
        &ScdaOptions {
            energy: Some(EnergyOptions {
                dormancy: false,
                ..Default::default()
            }),
            ..base.clone()
        },
    );
    let dormancy = run_scda(
        sc,
        &ScdaOptions {
            energy: Some(EnergyOptions {
                dormancy: true,
                ..Default::default()
            }),
            ..base
        },
    );
    vec![
        AblationCell::from_run("energy: always-on fleet", &always_on),
        AblationCell::from_run("energy: dormancy enabled", &dormancy),
    ]
}

/// One row of the Δ-reporting overhead study.
#[derive(Debug, Serialize)]
pub struct OverheadRow {
    /// Mean fraction of node-directions changing > 5% per round.
    pub mean_changed_fraction: f64,
    /// Full-reporting messages per round.
    pub full_messages: usize,
    /// Δ-reporting messages per round (at the measured change fraction).
    pub delta_messages: usize,
    /// Full-reporting payload bytes per round.
    pub full_bytes: usize,
    /// Δ-reporting payload bytes per round.
    pub delta_bytes: usize,
}

/// Control-plane overhead study (§IV): measure how often allocations
/// actually change in a real run, then price full vs Δ reporting.
pub fn overhead_study(sc: &Scenario) -> OverheadRow {
    let r = run_scda(sc, &ScdaOptions::default());
    let tree = sc.topo.build();
    let ct = ControlTree::from_three_tier(&tree, Params::default(), MetricKind::Full);
    let rms = tree.all_servers().len();
    let ras = ct.len() - rms;
    let shape = TreeShape {
        rms,
        ras,
        hmax: ct.hmax(),
    };
    let dirs = 2 * (rms + ras);
    let mean_changed = if r.control_rounds > 0 {
        r.changed_dirs_total as f64 / r.control_rounds as f64
    } else {
        0.0
    };
    let full = full_reporting(&shape);
    let delta = delta_reporting(&shape, mean_changed.round() as usize);
    OverheadRow {
        mean_changed_fraction: mean_changed / dirs as f64,
        full_messages: full.total_messages(),
        delta_messages: delta.total_messages(),
        full_bytes: full.payload_bytes,
        delta_bytes: delta.payload_bytes,
    }
}

/// Metadata balance vs NNS count (no network needed): registers `objects`
/// contents and reports the peak per-NNS load for each count.
pub fn nns_scaling_study(objects: u64, counts: &[usize]) -> Vec<(usize, usize, f64)> {
    counts
        .iter()
        .map(|&n| {
            let mut ns = NameService::new(n);
            for i in 0..objects {
                ns.register(ContentMeta {
                    id: ContentId(i),
                    size_bytes: 1.0,
                    class: ContentClass::Passive,
                    primary: NodeId(0),
                    replicas: vec![],
                    stats: AccessStats::new(),
                });
            }
            let dist = ns.load_distribution();
            let peak = *dist.iter().max().expect("non-empty");
            (n, peak, peak as f64 / objects as f64)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scale;

    fn tiny() -> Scenario {
        let mut sc = Scenario::video(Scale::Quick, false, 19);
        sc.workload.flows.retain(|f| f.arrival < 3.0);
        sc.duration = 12.0;
        sc
    }

    #[test]
    fn grid_orders_configurations_correctly() {
        let cells = selection_transport_grid(&tiny());
        assert_eq!(cells.len(), 4);
        let best_explicit = &cells[0];
        let random_tcp = &cells[3];
        // The full SCDA stack beats the fully-ablated configuration.
        assert!(
            best_explicit.mean_fct < random_tcp.mean_fct,
            "{} vs {}",
            best_explicit.mean_fct,
            random_tcp.mean_fct
        );
        // At this load the transport dimension dominates: both
        // explicit-rate configurations beat both TCP configurations.
        // (Selection matters more as hotspots appear — see the bin/ablations
        // output at heavier load.)
        let fct = |i: usize| cells[i].mean_fct;
        assert!(
            fct(0).max(fct(2)) < fct(1).min(fct(3)),
            "explicit-rate cells {:?} must beat tcp cells {:?}",
            (fct(0), fct(2)),
            (fct(1), fct(3))
        );
    }

    #[test]
    fn metric_cells_both_complete() {
        let cells = metric_comparison(&tiny());
        assert_eq!(cells.len(), 2);
        for c in &cells {
            assert!(c.completed > 0, "{} completed nothing", c.label);
            assert!(c.mean_fct.is_finite());
        }
    }

    #[test]
    fn tau_sweep_runs_all_points() {
        let cells = tau_sweep(&tiny(), &[0.025, 0.05, 0.2]);
        assert_eq!(cells.len(), 3);
        // A 4x coarser control loop must not collapse the system.
        let worst = cells.iter().map(|c| c.mean_fct).fold(0.0, f64::max);
        let best = cells
            .iter()
            .map(|c| c.mean_fct)
            .fold(f64::INFINITY, f64::min);
        assert!(
            worst < 4.0 * best,
            "tau sensitivity too extreme: {best} vs {worst}"
        );
    }

    #[test]
    fn energy_study_saves_energy_with_dormancy() {
        let mut sc = tiny();
        sc.workload.flows.truncate(30); // light load -> idle servers exist
        let cells = energy_study(&sc, 0.5 * sc.topo.base_bw_bps / 8.0);
        let on = cells[0].energy_joules.expect("accounted");
        let dorm = cells[1].energy_joules.expect("accounted");
        assert!(dorm < on, "dormancy must save energy: {dorm} vs {on}");
        assert!(cells[1].dormant_servers > 0);
        assert_eq!(cells[0].dormant_servers, 0);
    }

    #[test]
    fn nns_scaling_reduces_peak_load() {
        let rows = nns_scaling_study(10_000, &[1, 2, 8]);
        assert_eq!(rows[0].1, 10_000);
        assert!(rows[1].1 < rows[0].1);
        assert!(rows[2].1 < rows[1].1);
        // Peak fraction approaches 1/n.
        assert!(rows[2].2 < 0.25);
    }

    #[test]
    fn table_renders_all_rows() {
        let cells = metric_comparison(&tiny());
        let t = table(&cells);
        assert!(t.lines().count() >= 3);
        assert!(t.contains("metric=Full"));
    }
}
