//! Figure-series reporting.
//!
//! Every paper figure is two series (SCDA vs RandTCP) over a shared x
//! axis. [`FigureReport`] holds them, prints the rows the paper plots, and
//! computes the headline comparisons ("about 50% lower", "higher by up to
//! 60%") that EXPERIMENTS.md records against the paper's claims.

use serde::{Deserialize, Serialize};

/// One named series of (x, y) points.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Series {
    /// Legend label ("SCDA", "RandTCP").
    pub name: String,
    /// The points, ordered by x.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// A series from a name and points.
    pub fn new(name: impl Into<String>, points: Vec<(f64, f64)>) -> Self {
        Series {
            name: name.into(),
            points,
        }
    }

    /// Mean of the y values (`None` when empty).
    fn mean_y(&self) -> Option<f64> {
        if self.points.is_empty() {
            return None;
        }
        Some(self.points.iter().map(|p| p.1).sum::<f64>() / self.points.len() as f64)
    }

    /// Linear interpolation of y at `x` (clamped to the series' range).
    fn y_at(&self, x: f64) -> Option<f64> {
        let pts = &self.points;
        if pts.is_empty() {
            return None;
        }
        if x <= pts[0].0 {
            return Some(pts[0].1);
        }
        for w in pts.windows(2) {
            let ((x0, y0), (x1, y1)) = (w[0], w[1]);
            if x <= x1 {
                if x1 - x0 < 1e-12 {
                    return Some(y1);
                }
                return Some(y0 + (y1 - y0) * (x - x0) / (x1 - x0));
            }
        }
        Some(pts.last().expect("non-empty").1)
    }
}

/// A reproduced figure: id, axes, and the two compared series.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FigureReport {
    /// Paper figure number (7-18).
    pub figure: u32,
    /// Title, matching the paper's caption.
    pub title: String,
    /// X-axis label.
    pub x_label: String,
    /// Y-axis label.
    pub y_label: String,
    /// The SCDA series.
    pub scda: Series,
    /// The RandTCP baseline series.
    pub randtcp: Series,
}

impl FigureReport {
    /// Render the figure as aligned text columns (x, RandTCP, SCDA) — the
    /// same rows the paper's gnuplot figures are drawn from.
    pub fn to_table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "# Figure {}: {}", self.figure, self.title);
        let _ = writeln!(
            out,
            "# {:>14}  {:>14}  {:>14}",
            self.x_label, self.randtcp.name, self.scda.name
        );
        // Union of x values from both series, in order.
        let mut xs: Vec<f64> = self
            .scda
            .points
            .iter()
            .chain(&self.randtcp.points)
            .map(|p| p.0)
            .collect();
        xs.sort_by(f64::total_cmp);
        xs.dedup_by(|a, b| (*a - *b).abs() < 1e-12);
        for x in xs {
            let r = self.randtcp.y_at(x).unwrap_or(f64::NAN);
            let s = self.scda.y_at(x).unwrap_or(f64::NAN);
            let _ = writeln!(out, "  {x:>14.4}  {r:>14.4}  {s:>14.4}");
        }
        out
    }

    /// Mean improvement of SCDA over RandTCP for *lower-is-better* metrics
    /// (FCT/AFCT): `1 − mean(scda)/mean(randtcp)`, e.g. 0.5 = "50% lower".
    pub fn mean_reduction(&self) -> Option<f64> {
        let s = self.scda.mean_y()?;
        let r = self.randtcp.mean_y()?;
        if r <= 0.0 {
            return None;
        }
        Some(1.0 - s / r)
    }

    /// Mean gain of SCDA for *higher-is-better* metrics (throughput):
    /// `mean(scda)/mean(randtcp) − 1`, e.g. 0.6 = "60% higher".
    pub fn mean_gain(&self) -> Option<f64> {
        let s = self.scda.mean_y()?;
        let r = self.randtcp.mean_y()?;
        if r <= 0.0 {
            return None;
        }
        Some(s / r - 1.0)
    }

    /// JSON for archiving alongside EXPERIMENTS.md.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("figure serialization cannot fail")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig() -> FigureReport {
        FigureReport {
            figure: 9,
            title: "AFCT".into(),
            x_label: "size".into(),
            y_label: "s".into(),
            scda: Series::new("SCDA", vec![(1.0, 1.0), (2.0, 2.0)]),
            randtcp: Series::new("RandTCP", vec![(1.0, 4.0), (2.0, 4.0)]),
        }
    }

    #[test]
    fn interpolation_midpoint() {
        let s = Series::new("s", vec![(0.0, 0.0), (10.0, 100.0)]);
        assert_eq!(s.y_at(5.0), Some(50.0));
        assert_eq!(s.y_at(-1.0), Some(0.0));
        assert_eq!(s.y_at(99.0), Some(100.0));
    }

    #[test]
    fn empty_series_interpolates_none() {
        let s = Series::new("s", vec![]);
        assert_eq!(s.y_at(1.0), None);
        assert_eq!(s.mean_y(), None);
    }

    #[test]
    fn reduction_and_gain() {
        let f = fig();
        // mean scda 1.5, mean randtcp 4 → reduction 0.625, gain negative.
        assert!((f.mean_reduction().unwrap() - 0.625).abs() < 1e-9);
        assert!((f.mean_gain().unwrap() - (1.5 / 4.0 - 1.0)).abs() < 1e-9);
    }

    #[test]
    fn table_contains_all_rows() {
        let t = fig().to_table();
        assert!(t.contains("Figure 9"));
        assert!(t.lines().count() >= 4, "{t}");
    }

    #[test]
    fn json_round_trip() {
        let j = fig().to_json();
        let back: FigureReport = serde_json::from_str(&j).unwrap();
        assert_eq!(back.figure, 9);
        assert_eq!(back.scda.points.len(), 2);
    }
}
