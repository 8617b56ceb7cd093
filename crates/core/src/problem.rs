//! Problem sizes and simulation configuration.

/// The three problem sizes of the paper's evaluation (§4, Table 1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ProblemSize {
    /// 64³ root grid.
    Amr64,
    /// 128³ root grid.
    Amr128,
    /// 256³ root grid.
    Amr256,
    /// Arbitrary cubic root grid (tests, quick examples).
    Custom(u64),
}

impl ProblemSize {
    pub fn root_n(self) -> u64 {
        match self {
            ProblemSize::Amr64 => 64,
            ProblemSize::Amr128 => 128,
            ProblemSize::Amr256 => 256,
            ProblemSize::Custom(n) => n,
        }
    }

    pub fn label(self) -> String {
        match self {
            ProblemSize::Custom(n) => format!("AMR{n}(custom)"),
            _ => format!("AMR{}", self.root_n()),
        }
    }

    /// Number of dark-matter particles: one per root-grid cell, like the
    /// ENZO cosmology setups the paper ran.
    pub fn num_particles(self) -> u64 {
        let n = self.root_n();
        n * n * n
    }
}

/// Full configuration of one simulation run.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Refinement clustering tuning (box efficiency / minimum size).
    pub cluster: amrio_amr::ClusterParams,
    pub problem: ProblemSize,
    pub nranks: usize,
    /// Deepest refinement level (0 = unigrid).
    pub max_level: u8,
    /// Density threshold (in mean densities) above which cells are
    /// flagged for refinement.
    pub refine_threshold: f32,
    /// Seed for the initial conditions.
    pub seed: u64,
    /// Scale particle count for quick tests (1.0 = one per cell).
    pub particle_fraction: f64,
}

impl SimConfig {
    pub fn new(problem: ProblemSize, nranks: usize) -> SimConfig {
        SimConfig {
            cluster: amrio_amr::ClusterParams {
                min_efficiency: 0.55,
                min_width: 8,
                max_boxes: 64,
            },
            problem,
            nranks,
            max_level: 2,
            refine_threshold: 5.0,
            seed: 20020919, // CLUSTER 2002 conference date
            particle_fraction: 1.0,
        }
    }

    pub fn root_n(&self) -> u64 {
        self.problem.root_n()
    }

    pub fn num_particles(&self) -> u64 {
        ((self.problem.num_particles() as f64) * self.particle_fraction).round() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_match_paper() {
        assert_eq!(ProblemSize::Amr64.root_n(), 64);
        assert_eq!(ProblemSize::Amr128.root_n(), 128);
        assert_eq!(ProblemSize::Amr256.root_n(), 256);
        assert_eq!(ProblemSize::Amr64.num_particles(), 262_144);
        assert_eq!(ProblemSize::Amr64.label(), "AMR64");
    }

    #[test]
    fn particle_fraction_scales() {
        let mut c = SimConfig::new(ProblemSize::Custom(16), 4);
        c.particle_fraction = 0.5;
        assert_eq!(c.num_particles(), 2048);
    }
}
