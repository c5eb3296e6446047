//! Server-side resource model: the `R_other` of §IV and §VI-A.
//!
//! "The CPU of the server which sends or receives flow j may be too busy
//! with internal computations to serve external write or read requests at
//! the e2e link rate. Or the server may not have enough disk space." —
//! SCDA folds these caps into every flow rate (eq. 4:
//! `R_j = min(R_send_other, R_e2e, R_recv_other)`), which is what makes it
//! a *multi-resource* allocation scheme.
//!
//! This module models each server's disk and CPU as rate-capacity
//! resources: the disk serves reads/writes at a bounded aggregate
//! throughput shared by that server's flows, and background computation
//! takes a time-varying bite out of the CPU's service capability. The RM
//! reports the resulting per-flow caps via
//! [`Telemetry::rate_caps`](crate::tree::Telemetry::rate_caps); the paper
//! suggests profiling "what CPU and/or usage can serve what link rate",
//! which is exactly the calibration the [`ServerResources`] parameters
//! encode.

use std::collections::BTreeMap;

use scda_simnet::NodeId;
use serde::{Deserialize, Serialize};

use crate::tree::RateCaps;

/// Static capability profile of one server.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ResourceProfile {
    /// Aggregate disk write bandwidth, bytes/s.
    pub disk_write_bps: f64,
    /// Aggregate disk read bandwidth, bytes/s.
    pub disk_read_bps: f64,
    /// Network service rate the CPU can sustain at zero background load,
    /// bytes/s (the profiled link-rate-per-CPU figure).
    pub cpu_full_bps: f64,
}

impl Default for ResourceProfile {
    /// A mid-2010s storage server: ~1 GB/s sequential read, ~700 MB/s
    /// write, CPU able to saturate well past a 500 Mbps NIC.
    fn default() -> Self {
        ResourceProfile {
            disk_write_bps: 700e6,
            disk_read_bps: 1000e6,
            cpu_full_bps: 1200e6,
        }
    }
}

/// Dynamic state of one server's resources.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServerResources {
    /// The static profile.
    pub profile: ResourceProfile,
    /// Background CPU utilization in `[0, 1]` (the "other compute
    /// intensive or background tasks" of §I).
    pub background_cpu: f64,
    /// Concurrent write flows currently hitting the disk.
    pub active_writes: u32,
    /// Concurrent read flows currently hitting the disk.
    pub active_reads: u32,
}

impl ServerResources {
    /// A server with the given profile and no load.
    pub fn new(profile: ResourceProfile) -> Self {
        ServerResources {
            profile,
            background_cpu: 0.0,
            active_writes: 0,
            active_reads: 0,
        }
    }

    /// Per-flow caps the RM reports this round (eq. 4's `R_other` pair):
    /// disk bandwidth divides across the flows sharing it, CPU capability
    /// shrinks with background load.
    pub fn rate_caps(&self) -> RateCaps {
        let cpu = self.profile.cpu_full_bps * (1.0 - self.background_cpu).max(0.0);
        let write_share = self.profile.disk_write_bps / self.active_writes.max(1) as f64;
        let read_share = self.profile.disk_read_bps / self.active_reads.max(1) as f64;
        RateCaps {
            send: cpu.min(read_share),
            recv: cpu.min(write_share),
        }
    }
}

/// Fleet-wide resource registry, keyed by server node.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ResourceBook {
    servers: BTreeMap<NodeId, ServerResources>,
}

impl ResourceBook {
    /// Register `servers`, assigning each the profile from `profile(i)`.
    pub fn new(
        servers: impl IntoIterator<Item = NodeId>,
        mut profile: impl FnMut(usize) -> ResourceProfile,
    ) -> Self {
        ResourceBook {
            servers: servers
                .into_iter()
                .enumerate()
                .map(|(i, id)| (id, ServerResources::new(profile(i))))
                .collect(),
        }
    }

    /// Track a flow opening against a server's disk.
    pub fn open_flow(&mut self, id: NodeId, write: bool) {
        if let Some(s) = self.servers.get_mut(&id) {
            if write {
                s.active_writes += 1;
            } else {
                s.active_reads += 1;
            }
        }
    }

    /// Track a flow closing.
    pub fn close_flow(&mut self, id: NodeId, write: bool) {
        if let Some(s) = self.servers.get_mut(&id) {
            if write {
                s.active_writes = s.active_writes.saturating_sub(1);
            } else {
                s.active_reads = s.active_reads.saturating_sub(1);
            }
        }
    }

    /// Per-flow caps for `id` (infinite for unregistered servers — the
    /// pure-network configuration).
    pub fn rate_caps(&self, id: NodeId) -> RateCaps {
        self.servers
            .get(&id)
            .map(ServerResources::rate_caps)
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_server_is_cpu_or_disk_bound() {
        let s = ServerResources::new(ResourceProfile::default());
        let caps = s.rate_caps();
        assert_eq!(caps.send, 1000e6, "read side: disk read < cpu");
        assert_eq!(caps.recv, 700e6, "write side: disk write < cpu");
    }

    #[test]
    fn concurrent_flows_split_disk_bandwidth() {
        let mut book = ResourceBook::new([NodeId(1)], |_| ResourceProfile::default());
        for _ in 0..4 {
            book.open_flow(NodeId(1), true);
        }
        let caps = book.rate_caps(NodeId(1));
        assert_eq!(caps.recv, 700e6 / 4.0);
        for _ in 0..4 {
            book.close_flow(NodeId(1), true);
        }
        assert_eq!(book.rate_caps(NodeId(1)).recv, 700e6);
    }

    #[test]
    fn background_cpu_caps_both_directions() {
        let mut s = ServerResources::new(ResourceProfile::default());
        s.background_cpu = 0.95; // 95% busy with internal computation
        let caps = s.rate_caps();
        assert!((caps.send - 60e6).abs() < 1.0);
        assert!((caps.recv - 60e6).abs() < 1.0);
    }

    #[test]
    fn unregistered_server_is_uncapped() {
        let book = ResourceBook::default();
        let caps = book.rate_caps(NodeId(9));
        assert!(caps.send.is_infinite() && caps.recv.is_infinite());
    }

    #[test]
    fn close_flow_saturates_at_zero() {
        let mut book = ResourceBook::new([NodeId(1)], |_| ResourceProfile::default());
        book.close_flow(NodeId(1), false);
        assert_eq!(book.servers[&NodeId(1)].active_reads, 0);
    }

    #[test]
    fn heterogeneous_profiles_per_index() {
        let book = ResourceBook::new([NodeId(0), NodeId(1)], |i| ResourceProfile {
            disk_read_bps: if i == 0 { 100e6 } else { 1000e6 },
            ..Default::default()
        });
        assert!(book.rate_caps(NodeId(0)).send < book.rate_caps(NodeId(1)).send);
    }
}
