//! Server energy model (§VII-C, §VII-D).
//!
//! The paper's power-aware selection divides a server's available rate by
//! its measured power `P(t) = T(t)/τ` (temperature sensors); heterogeneity
//! comes from rack position, hardware age and background tasks. Real
//! sensors are substituted by a synthetic but load-faithful model: power =
//! idle + slope·utilization, scaled by a per-server heterogeneity factor,
//! plus a dormant low-power state with a wake-up transition latency —
//! enough to exercise every selection and scale-down code path the paper
//! describes.

use scda_simnet::NodeId;
use serde::{Deserialize, Serialize};

/// Power state of a server.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PowerState {
    /// Serving traffic at full readiness.
    Active,
    /// Low-power nap: serves nothing until woken (transition costs
    /// [`PowerModelConfig::wake_latency`] seconds).
    Dormant,
    /// Waking up; becomes active at the stored time.
    Waking {
        /// When the server becomes active.
        until: f64,
    },
}

/// Parameters of the synthetic power model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PowerModelConfig {
    /// Active idle power draw, watts.
    pub idle_watts: f64,
    /// Additional watts at 100% utilization.
    pub load_watts: f64,
    /// Dormant power draw, watts.
    pub dormant_watts: f64,
    /// Seconds to transition dormant → active.
    pub wake_latency: f64,
    /// Exponential-average weight on the newest power sample (the paper:
    /// "a running average or with more weight to the latest measurement").
    pub ewma_weight: f64,
}

impl Default for PowerModelConfig {
    fn default() -> Self {
        PowerModelConfig {
            idle_watts: 150.0,
            load_watts: 100.0,
            dormant_watts: 15.0,
            wake_latency: 2.0,
            ewma_weight: 0.3,
        }
    }
}

/// Lookup sentinel: the id is not a registered server.
const UNKNOWN: u32 = u32::MAX;

/// The fleet-wide power book: one dense column per field, indexed by the
/// server's ordinal — its rank in ascending `NodeId` order — so every
/// sweep walks servers in `NodeId` order, and a `NodeId`-indexed table
/// finds a server's ordinal with one read.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EnergyBook {
    cfg: PowerModelConfig,
    /// Server per ordinal, ascending.
    ids: Vec<NodeId>,
    /// Ordinal per `NodeId.0`; [`UNKNOWN`] for other nodes.
    ordinal: Vec<u32>,
    heterogeneity: Vec<f64>,
    state: Vec<PowerState>,
    p_avg: Vec<f64>,
    energy_j: Vec<f64>,
    /// Last accounting timestamp.
    last_update: Vec<f64>,
}

impl EnergyBook {
    /// Register `servers`, each with a heterogeneity factor produced by
    /// `hetero(i)` (e.g. a deterministic spread of 0.8..1.3). A server
    /// listed twice keeps its last factor.
    pub fn new(
        cfg: PowerModelConfig,
        servers: impl IntoIterator<Item = NodeId>,
        mut hetero: impl FnMut(usize) -> f64,
    ) -> Self {
        let mut pairs: Vec<(NodeId, f64)> = servers
            .into_iter()
            .enumerate()
            .map(|(i, id)| {
                let h = hetero(i);
                assert!(h > 0.0, "heterogeneity factor must be positive");
                (id, h)
            })
            .collect();
        // Stable: a repeated id's entries stay in listing order, and the
        // earlier one takes the later one's factor.
        pairs.sort_by_key(|&(id, _)| id);
        pairs.dedup_by(|later, earlier| {
            let same = later.0 == earlier.0;
            if same {
                earlier.1 = later.1;
            }
            same
        });
        let mut ordinal = vec![UNKNOWN; pairs.last().map_or(0, |&(id, _)| id.index() + 1)];
        for (i, &(id, _)) in pairs.iter().enumerate() {
            ordinal[id.index()] = i as u32;
        }
        let n = pairs.len();
        EnergyBook {
            ids: pairs.iter().map(|&(id, _)| id).collect(),
            ordinal,
            p_avg: pairs.iter().map(|&(_, h)| cfg.idle_watts * h).collect(),
            heterogeneity: pairs.into_iter().map(|(_, h)| h).collect(),
            state: vec![PowerState::Active; n],
            energy_j: vec![0.0; n],
            last_update: vec![0.0; n],
            cfg,
        }
    }

    /// The ordinal of `id`, if it is a registered server.
    fn slot(&self, id: NodeId) -> Option<usize> {
        let i = *self.ordinal.get(id.index())?;
        (i != UNKNOWN).then_some(i as usize)
    }

    /// Whether `id` can serve traffic right now.
    pub fn is_active(&self, id: NodeId) -> bool {
        self.slot(id)
            .is_some_and(|i| self.state[i] == PowerState::Active)
    }

    /// Whether `id` is dormant (napping).
    pub fn is_dormant(&self, id: NodeId) -> bool {
        self.slot(id)
            .is_some_and(|i| self.state[i] == PowerState::Dormant)
    }

    /// Put a server into the low-power state (scale-down, §VII-C).
    pub fn scale_down(&mut self, id: NodeId) {
        if let Some(i) = self.slot(id) {
            self.state[i] = PowerState::Dormant;
        }
    }

    /// Begin waking a dormant server at time `now`; it becomes active after
    /// the configured wake latency. Active servers are unaffected.
    pub fn wake(&mut self, id: NodeId, now: f64) {
        if let Some(i) = self.slot(id) {
            if self.state[i] == PowerState::Dormant {
                self.state[i] = PowerState::Waking {
                    until: now + self.cfg.wake_latency,
                };
            }
        }
    }

    /// Advance accounting to `now`: finish wake transitions, integrate
    /// energy, and fold the instantaneous power (from `utilization(id)` in
    /// `[0, 1]`) into the running average `P(t)`. Servers are visited in
    /// ascending `NodeId` order.
    pub fn tick(&mut self, now: f64, mut utilization: impl FnMut(NodeId) -> f64) {
        let w = self.cfg.ewma_weight;
        for (i, &id) in self.ids.iter().enumerate() {
            let state = &mut self.state[i];
            if let PowerState::Waking { until } = *state {
                if now >= until {
                    *state = PowerState::Active;
                }
            }
            let h = self.heterogeneity[i];
            let u = utilization(id).clamp(0.0, 1.0);
            let p_inst = match *state {
                PowerState::Dormant => self.cfg.dormant_watts * h,
                // Waking servers burn active-idle power without serving.
                PowerState::Waking { .. } => self.cfg.idle_watts * h,
                PowerState::Active => (self.cfg.idle_watts + self.cfg.load_watts * u) * h,
            };
            let dt = (now - self.last_update[i]).max(0.0);
            self.energy_j[i] += p_inst * dt;
            self.last_update[i] = now;
            self.p_avg[i] = (1.0 - w) * self.p_avg[i] + w * p_inst;
        }
    }

    /// The smoothed power `P(t)` used by the `R̂/P` selection metric.
    pub fn power(&self, id: NodeId) -> f64 {
        self.slot(id).map_or(f64::INFINITY, |i| self.p_avg[i])
    }

    /// The temperature reading a sensor would report over a control
    /// interval `tau` — the paper's §VII-D defines the relation
    /// `P(t) = T(t)/τ`, so the synthetic sensor reports `T(t) = P(t)·τ`.
    pub fn temperature(&self, id: NodeId, tau: f64) -> f64 {
        self.power(id) * tau
    }

    /// Total fleet energy so far, joules, summed in ascending `NodeId`
    /// order.
    pub fn total_energy(&self) -> f64 {
        self.energy_j.iter().sum()
    }

    /// Number of dormant servers (the scale-down win the §VII-C mechanism
    /// is after).
    pub fn dormant_count(&self) -> usize {
        self.state
            .iter()
            .filter(|&&s| s == PowerState::Dormant)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn book(n: u32) -> EnergyBook {
        EnergyBook::new(PowerModelConfig::default(), (0..n).map(NodeId), |i| {
            0.9 + 0.1 * (i % 3) as f64
        })
    }

    #[test]
    fn all_start_active_at_idle_power() {
        let b = book(3);
        assert!(b.is_active(NodeId(0)));
        assert_eq!(b.dormant_count(), 0);
        assert!((b.power(NodeId(0)) - 0.9 * 150.0).abs() < 1e-9);
    }

    #[test]
    fn scale_down_and_wake_cycle() {
        let mut b = book(2);
        b.scale_down(NodeId(0));
        assert!(b.is_dormant(NodeId(0)));
        assert_eq!(b.dormant_count(), 1);
        b.wake(NodeId(0), 10.0);
        assert!(!b.is_active(NodeId(0)), "waking is not yet active");
        b.tick(11.0, |_| 0.0);
        assert!(!b.is_active(NodeId(0)), "wake latency is 2 s");
        b.tick(12.5, |_| 0.0);
        assert!(b.is_active(NodeId(0)));
    }

    #[test]
    fn dormant_servers_burn_less_energy() {
        let mut b = book(2);
        b.scale_down(NodeId(0));
        b.tick(100.0, |_| 0.0);
        let dormant = b.energy_j[b.slot(NodeId(0)).unwrap()];
        let active = b.energy_j[b.slot(NodeId(1)).unwrap()];
        assert!(
            dormant < active / 5.0,
            "dormant {dormant} vs active {active}"
        );
    }

    #[test]
    fn utilization_raises_power() {
        let mut b = book(1);
        for i in 1..50 {
            b.tick(i as f64, |_| 1.0);
        }
        // EWMA converges toward (150 + 100) * 0.9.
        assert!((b.power(NodeId(0)) - 0.9 * 250.0).abs() < 5.0);
    }

    #[test]
    fn heterogeneity_scales_power() {
        let mut b = EnergyBook::new(PowerModelConfig::default(), [NodeId(0), NodeId(1)], |i| {
            if i == 0 {
                1.0
            } else {
                1.3
            }
        });
        for i in 1..50 {
            b.tick(i as f64, |_| 0.5);
        }
        let p0 = b.power(NodeId(0));
        let p1 = b.power(NodeId(1));
        assert!((p1 / p0 - 1.3).abs() < 0.01);
    }

    #[test]
    fn unknown_server_has_infinite_power() {
        let b = book(1);
        assert_eq!(b.power(NodeId(99)), f64::INFINITY);
    }

    #[test]
    fn temperature_inverts_the_papers_power_formula() {
        // P(t) = T(t)/tau  <=>  T(t) = P(t)*tau.
        let b = book(1);
        let tau = 0.05;
        let t = b.temperature(NodeId(0), tau);
        assert!((t / tau - b.power(NodeId(0))).abs() < 1e-9);
    }

    #[test]
    fn energy_is_monotone() {
        let mut b = book(2);
        b.tick(1.0, |_| 0.2);
        let e1 = b.total_energy();
        b.tick(2.0, |_| 0.2);
        assert!(b.total_energy() > e1);
    }
}
