//! DISC configuration.

/// Which [`SpatialBackend`](disc_index::SpatialBackend) implementor a
/// driver should instantiate the engine over.
///
/// The backend is a *type parameter* of [`Disc`](crate::Disc), so this enum
/// cannot switch it at runtime by itself; it is the declarative half that
/// CLI / bench drivers match on to pick the instantiation (and that reports
/// carry so results are attributable). [`DiscConfig::backend`] defaults to
/// the paper's R-tree.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum IndexBackend {
    /// The paper's quadratic-split R-tree ([`disc_index::RTree`]).
    #[default]
    RTree,
    /// The ε-aligned uniform grid ([`disc_index::GridIndex`]).
    Grid,
}

impl IndexBackend {
    /// Short name matching `SpatialBackend::NAME` (`"rtree"`, `"grid"`).
    pub fn name(self) -> &'static str {
        match self {
            IndexBackend::RTree => "rtree",
            IndexBackend::Grid => "grid",
        }
    }

    /// Parses a backend name as accepted by the CLI's `--index` flag.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "rtree" => Some(IndexBackend::RTree),
            "grid" => Some(IndexBackend::Grid),
            _ => None,
        }
    }

    /// Every selectable backend, in the order docs/benches list them.
    pub const ALL: [IndexBackend; 2] = [IndexBackend::RTree, IndexBackend::Grid];
}

impl std::fmt::Display for IndexBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Parameters of a [`Disc`] instance.
///
/// `eps` and `tau` are DBSCAN's ε (distance threshold) and *MinPts* (called
/// τ in the paper; **self-inclusive**, following Alg. 1 which initialises a
/// fresh point's count to 1). The two boolean toggles disable the paper's
/// §IV optimisations individually, which is how the Fig. 8 ablation is run;
/// both default to enabled.
///
/// [`Disc`]: crate::Disc
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DiscConfig {
    /// Distance threshold ε (inclusive).
    pub eps: f64,
    /// Density threshold τ / MinPts, counting the point itself.
    pub tau: usize,
    /// Use Multi-Starter BFS for connectivity checks (§IV-A). When false,
    /// falls back to sequential single-source BFS per component.
    pub enable_msbfs: bool,
    /// Use epoch-based R-tree probing (§IV-B). When false, visited marks
    /// live in a side hash map and range searches cannot prune subtrees.
    pub enable_epoch_probe: bool,
    /// Which index backend drivers should instantiate the engine over (see
    /// [`IndexBackend`]). Purely declarative for the engine itself.
    pub backend: IndexBackend,
    /// Worker count for COLLECT's ε-ball gather, the one phase that runs
    /// wide. `0` means "auto": resolve to the machine's available
    /// parallelism at use time. `1` (the default) gathers inline; any
    /// resolved value above 1 scans fixed chunks of centers on that many
    /// threads. Every other phase is sequential at every width, and output
    /// is bit-identical for every thread count (see `DESIGN.md` §12).
    ///
    /// This is a *host-execution* knob, not an algorithm parameter: it is
    /// deliberately **not** persisted in checkpoints and does not affect any
    /// clustering output. [`DiscConfig::new`] seeds it from the
    /// `DISC_THREADS` environment variable when set (see
    /// [`default_threads`](DiscConfig::default_threads)), which is how CI
    /// runs the whole suite wide without per-test plumbing.
    pub threads: usize,
}

impl DiscConfig {
    /// A configuration with both optimisations enabled.
    pub fn new(eps: f64, tau: usize) -> Self {
        assert!(eps > 0.0 && eps.is_finite(), "eps must be positive");
        assert!(tau >= 1, "tau must be at least 1");
        DiscConfig {
            eps,
            tau,
            enable_msbfs: true,
            enable_epoch_probe: true,
            backend: IndexBackend::default(),
            threads: Self::default_threads(),
        }
    }

    /// The ambient default for [`threads`](DiscConfig::threads): the value
    /// of the `DISC_THREADS` environment variable if set and parseable
    /// (`0` = auto), else `1` (sequential). Read once per process and
    /// cached, so a stable environment yields a stable default — checkpoint
    /// decoding relies on this to keep config round-trips exact without
    /// persisting a host-execution knob.
    pub fn default_threads() -> usize {
        static DEFAULT: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
        *DEFAULT.get_or_init(|| {
            std::env::var("DISC_THREADS")
                .ok()
                .and_then(|v| v.trim().parse::<usize>().ok())
                .unwrap_or(1)
        })
    }

    /// Resolves [`threads`](DiscConfig::threads) to a concrete worker
    /// count: `0` becomes the machine's available parallelism.
    pub fn effective_threads(&self) -> usize {
        if self.threads == 0 {
            disc_par::available_parallelism()
        } else {
            self.threads
        }
    }

    /// Disables MS-BFS (ablation).
    pub fn without_msbfs(mut self) -> Self {
        self.enable_msbfs = false;
        self
    }

    /// Disables epoch-based probing (ablation).
    pub fn without_epoch_probe(mut self) -> Self {
        self.enable_epoch_probe = false;
        self
    }

    /// Declares the index backend drivers should instantiate over.
    pub fn with_backend(mut self, backend: IndexBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Sets the worker count (`0` = auto, `1` = sequential, `n` = `n`-wide
    /// parallel slide engine). Output is identical for every value.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_toggles() {
        let c = DiscConfig::new(0.5, 4);
        assert!(c.enable_msbfs && c.enable_epoch_probe);
        let c = c.without_msbfs();
        assert!(!c.enable_msbfs && c.enable_epoch_probe);
        let c = c.without_epoch_probe();
        assert!(!c.enable_msbfs && !c.enable_epoch_probe);
    }

    #[test]
    fn backend_selection_round_trips() {
        let c = DiscConfig::new(0.5, 4);
        assert_eq!(c.backend, IndexBackend::RTree);
        let c = c.with_backend(IndexBackend::Grid);
        assert_eq!(c.backend, IndexBackend::Grid);
        assert_eq!(c.backend.name(), "grid");
        for b in IndexBackend::ALL {
            assert_eq!(IndexBackend::parse(b.name()), Some(b));
            assert_eq!(b.to_string(), b.name());
        }
        assert_eq!(IndexBackend::ALL.len(), 2);
        assert_eq!(IndexBackend::parse("kdtree"), None);
        assert_eq!(IndexBackend::parse("curve"), None);
    }

    #[test]
    fn threads_builder_and_resolution() {
        let c = DiscConfig::new(0.5, 4);
        // The ambient default is stable within a process.
        assert_eq!(c.threads, DiscConfig::default_threads());
        let c = c.with_threads(4);
        assert_eq!(c.threads, 4);
        assert_eq!(c.effective_threads(), 4);
        let c = c.with_threads(0);
        // Auto resolves to whatever the host offers, never zero.
        assert!(c.effective_threads() >= 1);
    }

    #[test]
    #[should_panic(expected = "eps must be positive")]
    fn zero_eps_rejected() {
        let _ = DiscConfig::new(0.0, 4);
    }

    #[test]
    #[should_panic(expected = "tau must be at least 1")]
    fn zero_tau_rejected() {
        let _ = DiscConfig::new(1.0, 0);
    }
}
