//! The content model (§II-B, §VII).
//!
//! Contents are classified by read/write frequency into the paper's four
//! classes — HWHR (interactive), HWLR / LWHR (semi-interactive) and LWLR
//! (passive) — either declared up front by the client application or
//! *learned* by the block servers' resource monitors from observed access
//! patterns ("the RMs of the servers can learn the type of content from
//! the server access frequencies").

use serde::{Deserialize, Serialize};

/// Identifier of a stored content object (file, chunk stream, table, ...).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ContentId(pub u64);

impl std::fmt::Display for ContentId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "content{}", self.0)
    }
}

/// The four access classes of §II-B.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ContentClass {
    /// High write + high read, interleaved within the interactivity
    /// interval: chat, collaborative editing, hot database tables.
    Interactive,
    /// High write, low read: logs, backups, telemetry sinks.
    SemiInteractiveWrite,
    /// Low write, high read: published videos, hot news, software
    /// downloads.
    SemiInteractiveRead,
    /// Low write, low read: cold archives — the ~60% of Yahoo! HDFS data
    /// untouched in a 20-day window the paper cites.
    Passive,
}

impl ContentClass {
    /// Whether the class is "active" (anything but passive): active and
    /// passive content take different server-selection paths (§VII).
    #[inline]
    pub fn is_active(self) -> bool {
        self != ContentClass::Passive
    }
}

/// Thresholds separating "high" from "low" access frequency (user-defined
/// parameters per §II-B), in accesses/second over the observation window.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClassifierConfig {
    /// Writes/s at or above which write frequency is "high".
    pub high_write_rate: f64,
    /// Reads/s at or above which read frequency is "high".
    pub high_read_rate: f64,
    /// Observation window in seconds.
    pub window: f64,
    /// Max gap between a write and the following read for the pattern to
    /// count as interactive (paper: 5 s).
    pub interactivity_interval: f64,
}

impl Default for ClassifierConfig {
    fn default() -> Self {
        ClassifierConfig {
            high_write_rate: 0.1,
            high_read_rate: 0.1,
            window: 60.0,
            interactivity_interval: 5.0,
        }
    }
}

/// Sliding-window access statistics for one content object, maintained by
/// the RM of the server holding it.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct AccessStats {
    writes: Vec<f64>,
    reads: Vec<f64>,
    /// Smallest observed write→read gap (interactivity evidence).
    min_write_read_gap: Option<f64>,
    last_write: Option<f64>,
}

impl AccessStats {
    /// No observed accesses yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a write at time `now`.
    pub fn record_write(&mut self, now: f64) {
        self.writes.push(now);
        self.last_write = Some(now);
    }

    /// Record a read at time `now`.
    pub fn record_read(&mut self, now: f64) {
        self.reads.push(now);
        if let Some(w) = self.last_write {
            let gap = now - w;
            if gap >= 0.0 {
                self.min_write_read_gap = Some(match self.min_write_read_gap {
                    Some(g) => g.min(gap),
                    None => gap,
                });
            }
        }
    }

    /// Writes/s over the window ending at `now`.
    pub fn write_rate(&self, now: f64, window: f64) -> f64 {
        let cutoff = now - window;
        self.writes.iter().filter(|&&t| t >= cutoff).count() as f64 / window
    }

    /// Reads/s over the window ending at `now`.
    pub fn read_rate(&self, now: f64, window: f64) -> f64 {
        let cutoff = now - window;
        self.reads.iter().filter(|&&t| t >= cutoff).count() as f64 / window
    }

    /// Total accesses recorded (popularity counter of §VII-C).
    pub fn popularity(&self) -> usize {
        self.writes.len() + self.reads.len()
    }

    /// Classify from observed frequencies (the learning path of §VII).
    pub fn classify(&self, now: f64, cfg: &ClassifierConfig) -> ContentClass {
        let wr = self.write_rate(now, cfg.window);
        let rr = self.read_rate(now, cfg.window);
        let hw = wr >= cfg.high_write_rate;
        let hr = rr >= cfg.high_read_rate;
        let interactive_gap = self
            .min_write_read_gap
            .is_some_and(|g| g <= cfg.interactivity_interval);
        match (hw, hr) {
            (true, true) if interactive_gap => ContentClass::Interactive,
            // HWHR without tight interleave behaves semi-interactive on the
            // dominant (read) side.
            (true, true) => ContentClass::SemiInteractiveRead,
            (true, false) => ContentClass::SemiInteractiveWrite,
            (false, true) => ContentClass::SemiInteractiveRead,
            (false, false) => ContentClass::Passive,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ClassifierConfig {
        ClassifierConfig::default()
    }

    #[test]
    fn untouched_content_is_passive() {
        let s = AccessStats::new();
        assert_eq!(s.classify(100.0, &cfg()), ContentClass::Passive);
    }

    #[test]
    fn chat_like_pattern_is_interactive() {
        let mut s = AccessStats::new();
        // Write-read ping-pong every second for a minute.
        for i in 0..30 {
            let t = i as f64 * 2.0;
            s.record_write(t);
            s.record_read(t + 0.5);
        }
        assert_eq!(s.classify(60.0, &cfg()), ContentClass::Interactive);
    }

    #[test]
    fn log_sink_is_semi_interactive_write() {
        let mut s = AccessStats::new();
        for i in 0..60 {
            s.record_write(i as f64);
        }
        assert_eq!(s.classify(60.0, &cfg()), ContentClass::SemiInteractiveWrite);
    }

    #[test]
    fn published_video_is_semi_interactive_read() {
        let mut s = AccessStats::new();
        s.record_write(0.0);
        for i in 10..60 {
            s.record_read(i as f64);
        }
        assert_eq!(s.classify(60.0, &cfg()), ContentClass::SemiInteractiveRead);
    }

    #[test]
    fn frequent_but_slow_loop_is_not_interactive() {
        // High write & read rates but reads lag writes by 10 s > the 5 s
        // interactivity interval.
        let mut s = AccessStats::new();
        let mut t = 0.0;
        for _ in 0..20 {
            s.record_write(t);
            s.record_read(t + 10.0);
            t += 12.0;
        }
        // 20 accesses each over a 300 s window = 0.067/s: use thresholds
        // below that so both rates register as "high".
        let c = s.classify(
            t,
            &ClassifierConfig {
                window: 300.0,
                high_write_rate: 0.05,
                high_read_rate: 0.05,
                ..cfg()
            },
        );
        assert_eq!(c, ContentClass::SemiInteractiveRead);
    }

    #[test]
    fn rates_respect_window() {
        let mut s = AccessStats::new();
        for i in 0..100 {
            s.record_read(i as f64);
        }
        // Window of 10 s at t = 100 covers reads at 90..99 → 1 read/s.
        assert!((s.read_rate(100.0, 10.0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn popularity_counts_all_accesses() {
        let mut s = AccessStats::new();
        s.record_write(1.0);
        s.record_read(2.0);
        s.record_read(3.0);
        assert_eq!(s.popularity(), 3);
    }

    #[test]
    fn is_active_matches_classes() {
        assert!(ContentClass::Interactive.is_active());
        assert!(ContentClass::SemiInteractiveWrite.is_active());
        assert!(ContentClass::SemiInteractiveRead.is_active());
        assert!(!ContentClass::Passive.is_active());
    }
}
