//! Set-up and replay of one scenario through the one `SimKernel::run`
//! with the stock SCDA composition (`ScdaControl`, `BestRatePlacement`,
//! `ExplicitRateTransport`, `RunAccounting`), default options, obs and
//! audit off: the path production runs execute.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use scda_experiments::runner::{
    BestRatePlacement, ExplicitRateTransport, RunAccounting, ScdaControl,
};
use scda_experiments::{RunResult, ScdaOptions, Scenario, SimKernel};
use scda_obs::Obs;
use scda_simnet::Network;

use crate::alloc;
use crate::stats::Digest;
use crate::trace::{Recorder, Timed};
use crate::workloads::Workload;

/// One scenario ready to run: everything `SimKernel::run` consumes.
pub struct Built {
    ctrl: ScdaControl,
    kernel: SimKernel,
    /// Capacity of the fastest link, bytes/s: no flow can beat it.
    pub fastest_link: f64,
}

/// Host seconds one set-up spent in each layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// `workloads`: generating every trace of the run.
    pub generate_s: f64,
    /// `simnet`: `ThreeTierConfig::build`, `Network::new`, `SimKernel::new`.
    pub build_s: f64,
    /// `core`: `ScdaControl::new`, which builds the control tree.
    pub tree_s: f64,
}

impl SetupTimes {
    /// The whole set-up.
    pub fn total_s(&self) -> f64 {
        self.generate_s + self.build_s + self.tree_s
    }
}

/// Build the policy objects and the kernel for `sc`, adding the host
/// time of each layer to `times`.
pub fn build(sc: &Scenario, times: &mut SetupTimes) -> Built {
    let t = Instant::now();
    let tree = sc.topo.build();
    times.build_s += t.elapsed().as_secs_f64();
    let fastest_link = tree
        .topo
        .links()
        .iter()
        .map(|l| l.capacity_bytes())
        .fold(0.0, f64::max);

    let t = Instant::now();
    let ctrl = ScdaControl::new(sc, &ScdaOptions::default(), &tree);
    times.tree_s += t.elapsed().as_secs_f64();

    let t = Instant::now();
    let kernel = SimKernel::new(Network::new(tree.topo));
    times.build_s += t.elapsed().as_secs_f64();
    Built {
        ctrl,
        kernel,
        fastest_link,
    }
}

/// One whole set-up of a run: generate every trace, build every replay
/// (and drop it: each replay is built again right before it runs).
pub fn set_up(w: Workload, seed: u64, quick: bool) -> (Vec<Scenario>, SetupTimes) {
    let mut times = SetupTimes::default();
    let t = Instant::now();
    let scenarios = w.scenarios(seed, quick);
    times.generate_s = t.elapsed().as_secs_f64();
    for sc in &scenarios {
        build(sc, &mut times);
    }
    (scenarios, times)
}

/// What one replay produced.
pub struct Replayed {
    /// The kernel's result.
    pub result: RunResult,
    /// Host seconds inside `SimKernel::run`.
    pub wall_s: f64,
    /// See [`Built::fastest_link`].
    pub fastest_link: f64,
}

impl Replayed {
    /// Digest of this replay's simulated statistics.
    pub fn digest(&self) -> Digest {
        let mut d = Digest::new();
        let r = &self.result;
        for n in [
            r.requested,
            r.completed,
            r.sla_violations,
            r.control_rounds,
            r.changed_dirs_total,
        ] {
            d.word(n as u64);
        }
        for rec in r.fct.records() {
            d.float(rec.start);
            d.float(rec.finish);
        }
        d
    }

    /// The first physically impossible record, if any: a flow that
    /// finished faster than the fastest link could carry it.
    pub fn impossible_flow(&self) -> Option<String> {
        self.result
            .fct
            .records()
            .iter()
            .find(|rec| rec.fct() < rec.size_bytes / self.fastest_link * (1.0 - 1e-9))
            .map(|rec| {
                format!(
                    "{} bytes in {} s over a {} B/s link",
                    rec.size_bytes,
                    rec.fct(),
                    self.fastest_link
                )
            })
    }
}

/// Replay with tracing off: nothing between the clock and the kernel.
pub fn run_plain(sc: &Scenario, b: Built) -> Replayed {
    let Built {
        mut ctrl,
        kernel,
        fastest_link,
    } = b;
    let mut acct = RunAccounting::new(sc.throughput_interval, Obs::disabled());
    let t = Instant::now();
    let result = kernel.run(
        sc,
        &mut ctrl,
        &mut BestRatePlacement,
        &mut ExplicitRateTransport,
        &mut acct,
    );
    let wall_s = t.elapsed().as_secs_f64();
    Replayed {
        result,
        wall_s,
        fastest_link,
    }
}

/// Replay with the decorators on, recording into `rec` as replay
/// `replay`. Allocations are counted for exactly the span of the run.
pub fn run_traced(sc: &Scenario, b: Built, rec: &Rc<RefCell<Recorder>>, replay: u32) -> Replayed {
    let Built {
        ctrl,
        kernel,
        fastest_link,
    } = b;
    let mut ctrl = Timed::new(ctrl, Rc::clone(rec));
    let mut acct = Timed::new(
        RunAccounting::new(sc.throughput_interval, Obs::disabled()),
        Rc::clone(rec),
    );
    alloc::set_enabled(true);
    rec.borrow_mut().begin_run(replay);
    let result = kernel.run(
        sc,
        &mut ctrl,
        &mut BestRatePlacement,
        &mut ExplicitRateTransport,
        &mut acct,
    );
    let wall_ns = rec.borrow_mut().end_run();
    alloc::set_enabled(false);
    Replayed {
        result,
        wall_s: wall_ns as f64 / 1e9,
        fastest_link,
    }
}
