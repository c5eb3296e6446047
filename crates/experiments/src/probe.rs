//! What a harness reads off a run: the kernel's stage boundaries and the
//! run's digest.
//!
//! [`SimKernel::run_clocked`](crate::SimKernel::run_clocked) tells a
//! [`KernelClock`] every time a step crosses from one [`Stage`] into the
//! next. A stage lasts from its boundary to the next one, so a clock that
//! reads the time at each boundary charges every stretch of the step loop
//! to exactly one stage, and the stages add up to the loop. The kernel
//! reads no clock of its own: [`NoClock`] ignores every boundary, and the
//! profile an enabled [`scda_obs::Obs`] handle collects is one more clock
//! on the same boundaries.
//!
//! [`RunResult::digest`] folds the simulated outcome of a run into one
//! word: two runs with the same digest produced the same flows at the
//! same simulated times.

use std::time::Instant;

use scda_obs::phase::{self, Phase};
use scda_obs::Obs;

use crate::runner::RunResult;

/// A boundary in a kernel step, in the order a step crosses them. The
/// kernel enters [`Stage::Step`] once per step and [`Stage::Idle`] when
/// the step is over; every other stage may be entered any number of
/// times in between, or not at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Stage {
    /// A step begins with its admission scan for requests due.
    Step,
    /// One due request: `ControlPolicy::admit` and its pending start.
    Admit,
    /// One scheduler drain of the starts due (at least one per step; the
    /// last finds none).
    PopBatch,
    /// One start opens: `ControlPolicy::on_open` and the driver's
    /// `start_flow`.
    Open,
    /// The per-τ control round.
    Round,
    /// The data-plane tick.
    Tick,
    /// The tick's accounting: `Accounting::on_tick`.
    Account,
    /// One completed flow: `ControlPolicy::on_complete`, its FCT record
    /// and any replica it spawns.
    Completion,
    /// The step is over.
    Idle,
}

/// Told of every stage boundary a [`SimKernel`](crate::SimKernel) run
/// crosses. The default ignores them.
pub trait KernelClock {
    /// The kernel entered `stage`; it stays there until the next call.
    fn enter(&mut self, stage: Stage) {
        let _ = stage;
    }
}

/// A clock that reads nothing: what [`SimKernel::run`](crate::SimKernel::run)
/// runs with.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoClock;

impl KernelClock for NoClock {}

/// The per-phase profile of an enabled [`Obs`] handle, as a clock on the
/// kernel's boundaries: one [`phase::ADMISSION`], [`phase::OPEN`] and
/// [`phase::TICK`] call per step and one [`phase::CONTROL`] call per
/// round, each the wall-clock time from the first boundary of its phase
/// to the first boundary of the next.
pub(crate) struct PhaseClock {
    obs: Obs,
    /// The phase in progress and when it began.
    open: Option<(Phase, Instant)>,
}

impl PhaseClock {
    pub(crate) fn new(obs: Obs) -> Self {
        PhaseClock { obs, open: None }
    }
}

impl KernelClock for PhaseClock {
    fn enter(&mut self, stage: Stage) {
        let next = match stage {
            Stage::Step => Some(phase::ADMISSION),
            Stage::Admit => return,
            Stage::PopBatch | Stage::Open => Some(phase::OPEN),
            Stage::Round => Some(phase::CONTROL),
            Stage::Tick | Stage::Account | Stage::Completion => Some(phase::TICK),
            Stage::Idle => None,
        };
        if self.open.map(|(p, _)| p) == next {
            return;
        }
        #[expect(
            clippy::disallowed_methods,
            reason = "per-stage wall-clock profiling of an observed run; never read by sim state"
        )]
        let now = Instant::now();
        if let Some((p, since)) = self.open.take() {
            self.obs.phase_add(p, now - since);
        }
        self.open = next.map(|p| (p, now));
    }
}

/// Both clocks a run can carry: the observed run's phases, if any, and
/// the caller's.
pub(crate) struct Clocks<'a, C: ?Sized> {
    pub(crate) phases: Option<PhaseClock>,
    pub(crate) caller: &'a mut C,
}

impl<C: KernelClock + ?Sized> KernelClock for Clocks<'_, C> {
    #[inline]
    fn enter(&mut self, stage: Stage) {
        if let Some(p) = self.phases.as_mut() {
            p.enter(stage);
        }
        self.caller.enter(stage);
    }
}

/// 64-bit FNV-1a, folding each word in byte by byte, little end first.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

impl RunResult {
    /// 64-bit FNV-1a over the simulated outcome: `requested`,
    /// `completed`, `sla_violations`, `control_rounds` and
    /// `changed_dirs_total` as words, then the bit patterns of every
    /// completed flow's start and finish, in completion order. Wall-clock
    /// fields (the profile) do not enter it.
    pub fn digest(&self) -> u64 {
        let mut d = Fnv(0xcbf2_9ce4_8422_2325);
        for n in [
            self.requested,
            self.completed,
            self.sla_violations,
            self.control_rounds,
            self.changed_dirs_total,
        ] {
            d.word(n as u64);
        }
        for rec in self.fct.records() {
            d.word(rec.start.to_bits());
            d.word(rec.finish.to_bits());
        }
        d.0
    }
}

#[cfg(test)]
mod tests {
    use scda_metrics::{FctStats, FlowRecord, ThroughputSeries};

    use super::*;
    use crate::runner::{
        run_scda, BestRatePlacement, ExplicitRateTransport, RunAccounting, ScdaControl, ScdaOptions,
    };
    use crate::scenario::{Scale, Scenario};
    use crate::SimKernel;

    /// Counts the boundaries it is told of.
    #[derive(Default)]
    struct Counting([u64; 9]);

    impl KernelClock for Counting {
        fn enter(&mut self, stage: Stage) {
            self.0[stage as usize] += 1;
        }
    }

    #[test]
    fn a_counting_clock_sees_every_step_and_every_admit() {
        let sc = Scenario::video(Scale::Quick, false, 1);
        let tree = sc.topo.build();
        let mut ctrl = ScdaControl::new(&sc, &ScdaOptions::default(), &tree);
        let mut acct = RunAccounting::new(sc.throughput_interval, Obs::disabled());
        let mut clock = Counting::default();
        let r = SimKernel::new(scda_simnet::Network::new(tree.topo)).run_clocked(
            &sc,
            &mut ctrl,
            &mut BestRatePlacement,
            &mut ExplicitRateTransport,
            &mut acct,
            &mut clock as &mut dyn KernelClock,
        );
        let steps = (sc.duration / sc.dt).ceil() as u64;
        let n = |s: Stage| clock.0[s as usize];
        assert!(r.completed > 0 && r.control_rounds > 0);
        for s in [Stage::Step, Stage::Tick, Stage::Account, Stage::Idle] {
            assert_eq!(n(s), steps, "{s:?}");
        }
        assert_eq!(n(Stage::Admit), r.requested as u64);
        assert_eq!(n(Stage::Round), r.control_rounds as u64);
        assert!(n(Stage::PopBatch) >= steps);
        assert!(n(Stage::Open) >= r.completed as u64);
        assert!(n(Stage::Completion) >= r.completed as u64);
        // The clock watches: the run is the unclocked run.
        assert_eq!(r.digest(), run_scda(&sc, &ScdaOptions::default()).digest());
    }

    #[test]
    fn digest_is_fnv1a_over_counts_then_record_times() {
        let mut fct = FctStats::new();
        let (start, finish) = (0.25, 1.5);
        fct.push(FlowRecord {
            size_bytes: 10.0,
            start,
            finish,
        });
        let r = RunResult {
            system: "SCDA".into(),
            fct,
            throughput: ThroughputSeries::new(1.0),
            sla_violations: 3,
            requested: 2,
            completed: 1,
            energy_joules: Some(9.0),
            dormant_servers: 4,
            mitigations_applied: 5,
            replications_completed: 6,
            control_rounds: 7,
            changed_dirs_total: 8,
            profile: None,
            snapshots: None,
        };
        // Folded by hand: offset basis, then every byte of every word,
        // little end first, in the documented order.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let words = [2, 1, 3, 7, 8, start.to_bits(), finish.to_bits()];
        for w in words {
            for i in 0..8 {
                h ^= (w >> (8 * i)) & 0xff;
                h = h.wrapping_mul(0x100_0000_01b3);
            }
        }
        assert_eq!(r.digest(), h);
    }
}
