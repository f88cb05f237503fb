//! The target platform: heterogeneous processors, clique interconnect.

use crate::{ModelError, Result};

/// Index of a processor on its [`Platform`].
pub type ProcId = usize;

/// Interconnect description.
///
/// The paper restricts its study to *Communication Homogeneous* platforms
/// (identical link bandwidth `b` everywhere, including the links to the
/// outside world feeding stage 1 and draining stage `n`). The fully
/// heterogeneous variant is the extension discussed in the paper's
/// Section 7 and is used by `pipeline-core`'s `hetero` module.
#[derive(Debug, Clone, PartialEq)]
pub enum LinkModel {
    /// One bandwidth for every link (`b_{u,v} = b`).
    Homogeneous(f64),
    /// Per-pair bandwidths. `matrix[u][v]` is the bandwidth of
    /// `link_{u,v}`; the matrix must be square with side `p`. Diagonal
    /// entries are unused (intra-processor data passes through memory at no
    /// cost, per the interval-mapping model). `io_bandwidth` is used for
    /// the outside-world input of stage 1 and output of stage `n`.
    Heterogeneous {
        /// Pairwise link bandwidths.
        matrix: Vec<Vec<f64>>,
        /// Bandwidth to/from the outside world.
        io_bandwidth: f64,
    },
}

/// A platform of `p` processors fully interconnected as a virtual clique
/// (paper Section 2, "Target platform").
///
/// Processor `P_u` has speed `s_u`: executing `X` operations takes `X/s_u`
/// time units; sending `X` data units across `link_{u,v}` takes
/// `X / b_{u,v}` time units (linear cost model). Contention is handled by
/// the one-port model, which the analytic cost model of [`crate::CostModel`]
/// encodes by serializing each processor's receive/compute/send phases and
/// which `pipeline-sim` enforces operationally.
#[derive(Debug, Clone, PartialEq)]
pub struct Platform {
    speeds: Vec<f64>,
    links: LinkModel,
    /// Processor ids ordered by non-increasing speed (ties broken by id,
    /// so the order is deterministic). Every heuristic of the paper
    /// consumes processors in this order.
    speed_order: Vec<ProcId>,
}

impl Platform {
    /// Builds a Communication Homogeneous platform: processor speeds plus a
    /// single link bandwidth `b`.
    ///
    /// # Errors
    ///
    /// [`ModelError::EmptyPlatform`] when no speed is given, or
    /// [`ModelError::InvalidNumber`] for non-finite or non-positive speeds
    /// and bandwidths.
    pub fn comm_homogeneous(speeds: Vec<f64>, bandwidth: f64) -> Result<Self> {
        Self::validate_speeds(&speeds)?;
        Self::validate_bandwidth(bandwidth)?;
        let speed_order = Self::order_by_speed(&speeds);
        Ok(Platform {
            speeds,
            links: LinkModel::Homogeneous(bandwidth),
            speed_order,
        })
    }

    /// Builds a fully heterogeneous platform (paper §7 extension) with a
    /// pairwise bandwidth matrix and an outside-world bandwidth.
    pub fn fully_heterogeneous(
        speeds: Vec<f64>,
        matrix: Vec<Vec<f64>>,
        io_bandwidth: f64,
    ) -> Result<Self> {
        Self::validate_speeds(&speeds)?;
        Self::validate_bandwidth(io_bandwidth)?;
        if matrix.len() != speeds.len() {
            return Err(ModelError::BandwidthShapeMismatch {
                procs: speeds.len(),
                rows: matrix.len(),
            });
        }
        for row in &matrix {
            if row.len() != speeds.len() {
                return Err(ModelError::BandwidthShapeMismatch {
                    procs: speeds.len(),
                    rows: row.len(),
                });
            }
            for &b in row {
                Self::validate_bandwidth(b)?;
            }
        }
        let speed_order = Self::order_by_speed(&speeds);
        Ok(Platform {
            speeds,
            links: LinkModel::Heterogeneous {
                matrix,
                io_bandwidth,
            },
            speed_order,
        })
    }

    /// A homogeneous platform (identical speeds *and* links) — the setting
    /// of Subhlok & Vondran used as the baseline in `pipeline-core`.
    pub fn homogeneous(p: usize, speed: f64, bandwidth: f64) -> Result<Self> {
        Self::comm_homogeneous(vec![speed; p], bandwidth)
    }

    fn validate_speeds(speeds: &[f64]) -> Result<()> {
        if speeds.is_empty() {
            return Err(ModelError::EmptyPlatform);
        }
        for &s in speeds {
            if !s.is_finite() || s <= 0.0 {
                return Err(ModelError::InvalidNumber {
                    what: "processor speed",
                    value: s,
                });
            }
        }
        Ok(())
    }

    fn validate_bandwidth(b: f64) -> Result<()> {
        if !b.is_finite() || b <= 0.0 {
            return Err(ModelError::InvalidNumber {
                what: "link bandwidth",
                value: b,
            });
        }
        Ok(())
    }

    fn order_by_speed(speeds: &[f64]) -> Vec<ProcId> {
        let mut order: Vec<ProcId> = (0..speeds.len()).collect();
        order.sort_by(|&a, &b| {
            speeds[b]
                .partial_cmp(&speeds[a])
                .expect("speeds are finite")
                .then(a.cmp(&b))
        });
        order
    }

    /// Number of processors `p`.
    #[inline]
    pub fn n_procs(&self) -> usize {
        self.speeds.len()
    }

    /// Speed `s_u` of processor `u`.
    #[inline]
    pub fn speed(&self, u: ProcId) -> f64 {
        self.speeds[u]
    }

    /// All processor speeds, indexed by [`ProcId`].
    #[inline]
    pub fn speeds(&self) -> &[f64] {
        &self.speeds
    }

    /// The link model.
    #[inline]
    pub fn links(&self) -> &LinkModel {
        &self.links
    }

    /// True when every link (including I/O) has the same bandwidth — the
    /// platform class the paper's heuristics are designed for.
    #[inline]
    pub fn is_comm_homogeneous(&self) -> bool {
        matches!(self.links, LinkModel::Homogeneous(_))
    }

    /// Bandwidth of the link from `u` to `v`.
    #[inline]
    pub fn bandwidth(&self, u: ProcId, v: ProcId) -> f64 {
        match &self.links {
            LinkModel::Homogeneous(b) => *b,
            LinkModel::Heterogeneous { matrix, .. } => matrix[u][v],
        }
    }

    /// Bandwidth between processor `u` and the outside world.
    #[inline]
    pub fn io_bandwidth_of(&self, _u: ProcId) -> f64 {
        match &self.links {
            LinkModel::Homogeneous(b) => *b,
            LinkModel::Heterogeneous { io_bandwidth, .. } => *io_bandwidth,
        }
    }

    /// Processor ids sorted by non-increasing speed (deterministic ties).
    #[inline]
    pub fn procs_by_speed_desc(&self) -> &[ProcId] {
        &self.speed_order
    }

    /// The fastest processor.
    #[inline]
    pub fn fastest(&self) -> ProcId {
        self.speed_order[0]
    }

    /// Largest speed on the platform.
    #[inline]
    pub fn max_speed(&self) -> f64 {
        self.speeds[self.fastest()]
    }

    /// Sum of every processor speed — a crude aggregate capacity used for
    /// lower bounds.
    #[inline]
    pub fn total_speed(&self) -> f64 {
        self.speeds.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::approx_eq;

    #[test]
    fn speed_order_is_non_increasing_and_deterministic() {
        let pf = Platform::comm_homogeneous(vec![3.0, 9.0, 9.0, 1.0, 5.0], 10.0).unwrap();
        assert_eq!(pf.procs_by_speed_desc(), &[1, 2, 4, 0, 3]);
        assert_eq!(pf.fastest(), 1);
        assert!(approx_eq(pf.max_speed(), 9.0));
        assert!(approx_eq(pf.total_speed(), 27.0));
    }

    #[test]
    fn homogeneous_bandwidth_everywhere() {
        let pf = Platform::comm_homogeneous(vec![2.0, 4.0], 10.0).unwrap();
        assert!(pf.is_comm_homogeneous());
        assert!(approx_eq(pf.bandwidth(0, 1), 10.0));
        assert!(approx_eq(pf.bandwidth(1, 0), 10.0));
        assert!(approx_eq(pf.io_bandwidth_of(1), 10.0));
    }

    #[test]
    fn heterogeneous_matrix_lookup() {
        let m = vec![vec![1.0, 2.0], vec![3.0, 4.0]];
        let pf = Platform::fully_heterogeneous(vec![2.0, 4.0], m, 7.0).unwrap();
        assert!(!pf.is_comm_homogeneous());
        assert!(approx_eq(pf.bandwidth(0, 1), 2.0));
        assert!(approx_eq(pf.bandwidth(1, 0), 3.0));
        assert!(approx_eq(pf.io_bandwidth_of(0), 7.0));
    }

    #[test]
    fn rejects_bad_inputs() {
        assert_eq!(
            Platform::comm_homogeneous(vec![], 10.0).unwrap_err(),
            ModelError::EmptyPlatform
        );
        assert!(matches!(
            Platform::comm_homogeneous(vec![0.0], 10.0).unwrap_err(),
            ModelError::InvalidNumber {
                what: "processor speed",
                ..
            }
        ));
        assert!(matches!(
            Platform::comm_homogeneous(vec![1.0], -1.0).unwrap_err(),
            ModelError::InvalidNumber {
                what: "link bandwidth",
                ..
            }
        ));
        assert!(matches!(
            Platform::fully_heterogeneous(vec![1.0, 2.0], vec![vec![1.0, 1.0]], 1.0).unwrap_err(),
            ModelError::BandwidthShapeMismatch { procs: 2, rows: 1 }
        ));
        assert!(matches!(
            Platform::fully_heterogeneous(vec![1.0], vec![vec![f64::NAN]], 1.0).unwrap_err(),
            ModelError::InvalidNumber { .. }
        ));
    }

    #[test]
    fn homogeneous_constructor() {
        let pf = Platform::homogeneous(4, 3.0, 8.0).unwrap();
        assert_eq!(pf.n_procs(), 4);
        assert!(pf.speeds().iter().all(|&s| approx_eq(s, 3.0)));
        assert_eq!(pf.procs_by_speed_desc(), &[0, 1, 2, 3]);
    }
}
