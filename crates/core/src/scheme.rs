//! Input perforation schemes (paper §4.3–§4.4).
//!
//! A perforation scheme decides which elements of a work-group tile are
//! *loaded* from global memory and which are *skipped* (to be filled in by
//! the reconstruction phase). Schemes must respect the memory architecture:
//! skipping whole rows removes whole coalesced transactions, while skipping
//! scattered elements saves nothing because the surrounding line is fetched
//! anyway — this is why the paper's schemes are row-shaped and why the
//! random scheme (implemented here for completeness) buys accuracy but no
//! bandwidth.
//!
//! Row/column schemes are keyed on *global* coordinates so that the pattern
//! of adjacent work groups lines up ("the schemes match each other", §4.4).

use serde::{Deserialize, Serialize};

use crate::error::CoreError;
use crate::tile::TileGeometry;

/// How aggressively rows/columns are skipped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SkipLevel {
    /// Skip every other row/column — `Rows1`/`Cols1` in the paper: 1/2 of
    /// the data is loaded.
    Half,
    /// Skip 3 out of 4 rows/columns — `Rows2`/`Cols2`: 1/4 is loaded.
    ThreeQuarters,
}

impl SkipLevel {
    /// Period of the skip pattern (2 or 4).
    pub fn period(self) -> i64 {
        match self {
            SkipLevel::Half => 2,
            SkipLevel::ThreeQuarters => 4,
        }
    }

    /// Maximum distance from a skipped row/column to its nearest loaded
    /// neighbor (1 for `Half`, 2 for `ThreeQuarters`).
    pub fn max_gap(self) -> usize {
        match self {
            SkipLevel::Half => 1,
            SkipLevel::ThreeQuarters => 2,
        }
    }
}

/// One element of a padded tile, as seen by [`PerforationScheme::loads`].
///
/// Bundles the tile geometry, the element's padded tile coordinate and its
/// (unclamped) global coordinate, replacing the old five-argument
/// positional signature where the two coordinate pairs were easy to swap
/// silently.
#[derive(Debug, Clone, Copy)]
pub struct LoadQuery<'a> {
    /// Geometry of the tile the element belongs to.
    pub tile: &'a TileGeometry,
    /// Padded tile coordinate `(px, py)`, `0 ≤ px < padded_w`.
    pub padded: (usize, usize),
    /// Unclamped global coordinate `(gx, gy)`; halo elements of edge tiles
    /// can be negative or beyond the image.
    pub global: (i64, i64),
}

/// How a work group's tile is *fetched* into local memory — the second,
/// orthogonal scheme axis. Element selection (which elements load) and
/// prefetch layout (how the loads hit DRAM) compose freely in a
/// [`SchemeSpec`].
///
/// All layouts produce bit-identical local tiles and therefore bit-identical
/// outputs; they differ only in simulated cost. Marked `#[non_exhaustive]`:
/// match with a wildcard arm or key on [`PrefetchLayout::family_label`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[non_exhaustive]
pub enum PrefetchLayout {
    /// Fetch straight from the row-major image: each tile row is a separate
    /// strided DRAM block run (the layout every scheme used before this
    /// axis existed).
    #[default]
    RowMajor,
    /// Fetch from a tiled copy of the image in which each group's padded
    /// tile is contiguous, so the whole prefetch is one long burst run
    /// (open-row DRAM transfers priced at
    /// `DeviceConfig::burst_issue_cycles`). Requires the host to pack the
    /// tiled copy; falls back to row-major when no tiled buffer is bound.
    BurstTiled,
    /// Load only the tile body from DRAM and *shift in* vertical halo rows
    /// from the neighboring group's resident tile instead of re-fetching
    /// them (software-systolic reuse). Shifted elements are priced on the
    /// local/exchange pipeline, not the memory pipeline.
    SystolicShift,
}

impl PrefetchLayout {
    /// Stable short name of the layout family, for logs, tuning keys and
    /// downstream dispatch without matching the `#[non_exhaustive]` enum.
    pub fn family_label(self) -> &'static str {
        match self {
            PrefetchLayout::RowMajor => "row-major",
            PrefetchLayout::BurstTiled => "burst-tiled",
            PrefetchLayout::SystolicShift => "systolic-shift",
        }
    }

    /// Suffix appended to scheme labels (`""`, `"@burst"`, `"@systolic"`).
    /// Row-major is unsuffixed so pre-existing labels are unchanged.
    pub fn label_suffix(self) -> &'static str {
        match self {
            PrefetchLayout::RowMajor => "",
            PrefetchLayout::BurstTiled => "@burst",
            PrefetchLayout::SystolicShift => "@systolic",
        }
    }

    /// Validates the layout against a tile geometry.
    ///
    /// # Errors
    ///
    /// `SystolicShift` needs `1 ≤ halo ≤ tile_h`: with no halo there is
    /// nothing to shift, and with `halo > tile_h` the halo rows a group
    /// would shift in extend past its neighbor's resident tile rows.
    pub fn validate(self, tile: &TileGeometry) -> Result<(), CoreError> {
        match self {
            PrefetchLayout::SystolicShift => {
                if tile.halo == 0 {
                    Err(CoreError::IllegalConfig(
                        "systolic shift layout needs a stencil halo (halo >= 1); \
                         with no halo there are no rows to shift"
                            .into(),
                    ))
                } else if tile.halo > tile.tile_h {
                    Err(CoreError::IllegalConfig(format!(
                        "systolic shift layout needs halo <= tile height so the vertical \
                         halo fits in one neighbor's tile, got halo {} > tile_h {}",
                        tile.halo, tile.tile_h
                    )))
                } else {
                    Ok(())
                }
            }
            _ => Ok(()),
        }
    }
}

impl std::fmt::Display for PrefetchLayout {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.family_label())
    }
}

/// A complete perforation scheme: *which* elements load ([`PerforationScheme`])
/// × *how* they are fetched ([`PrefetchLayout`]).
///
/// The closed selection enum stays available as a compat constructor:
/// `SchemeSpec::from(scheme)` (or `scheme.into()`) picks the row-major
/// layout, which reproduces the pre-axis behavior exactly.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SchemeSpec {
    /// Element-selection axis: which tile elements load from global memory.
    pub select: PerforationScheme,
    /// Prefetch-layout axis: how the loads reach local memory.
    pub layout: PrefetchLayout,
}

impl SchemeSpec {
    /// A spec with the default row-major layout.
    pub fn new(select: PerforationScheme) -> Self {
        SchemeSpec {
            select,
            layout: PrefetchLayout::default(),
        }
    }

    /// Returns the spec with its layout replaced.
    #[must_use]
    pub fn with_layout(mut self, layout: PrefetchLayout) -> Self {
        self.layout = layout;
        self
    }

    /// Validates both axes against a tile geometry.
    ///
    /// # Errors
    ///
    /// Propagates [`PerforationScheme::validate`] and
    /// [`PrefetchLayout::validate`] failures.
    pub fn validate(&self, tile: &TileGeometry) -> Result<(), CoreError> {
        self.select.validate(tile)?;
        self.layout.validate(tile)
    }

    /// True if the selection axis actually skips anything. Layouts never
    /// change *what* is resident, only how it arrives.
    pub fn perforates(&self) -> bool {
        self.select.perforates()
    }
}

impl From<PerforationScheme> for SchemeSpec {
    fn from(select: PerforationScheme) -> Self {
        SchemeSpec::new(select)
    }
}

impl std::fmt::Display for SchemeSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}{}", self.select, self.layout.label_suffix())
    }
}

/// An input perforation scheme (the element-selection axis).
///
/// Marked `#[non_exhaustive]`: new selection families may be added without
/// a breaking change. External code should match with a wildcard arm or
/// dispatch on [`PerforationScheme::family_label`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum PerforationScheme {
    /// Load everything (the accurate local-memory baseline).
    None,
    /// Skip rows of the tile ([`SkipLevel::Half`] = `Rows1`, Fig. 4a;
    /// [`SkipLevel::ThreeQuarters`] = `Rows2`, Fig. 4b).
    Rows(SkipLevel),
    /// Skip columns of the tile. Misaligned with the row-major memory
    /// layout, so it saves little bandwidth (paper §6.4: "Cols becomes
    /// slower").
    Columns(SkipLevel),
    /// Load only the tile interior and skip the entire halo ring
    /// (`Stencil1`, Fig. 5). Requires a stencil app (`halo ≥ 1`).
    Stencil,
    /// Skip pseudo-random elements, keeping `keep_fraction` of them.
    /// Statistically ideal error spreading but interferes with coalescing
    /// (§4.4), so it reconstructs well and accelerates nothing.
    Random {
        /// Fraction of elements loaded, in `(0, 1]`.
        keep_fraction: f64,
        /// Seed decorrelating the pattern between runs.
        seed: u64,
    },
}

/// SplitMix64: cheap, high-quality stateless hash for the random scheme.
///
/// Halo coordinates of edge tiles can be negative; `gx as u64` / `gy as
/// u64` deliberately sign-extend them into huge unsigned values. This is a
/// documented, load-bearing choice: the mapping `i64 → u64` is a bijection,
/// so every global coordinate — negative or not — hashes to one fixed,
/// distinct stream value, and adjacent work groups sharing a halo column
/// agree on whether it is loaded ("the schemes match each other", §4.4).
/// The exact pattern, including negative coordinates, is pinned by the
/// `random_pattern_is_pinned` test; changing this function invalidates
/// every recorded error measurement that used the random scheme.
fn hash_coord(gx: i64, gy: i64, seed: u64) -> u64 {
    let mut z = seed
        .wrapping_add((gx as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add((gy as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(0x94D0_49BB_1331_11EB);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl PerforationScheme {
    /// Whether the queried element is loaded from global memory.
    pub fn loads(&self, query: LoadQuery<'_>) -> bool {
        let LoadQuery {
            tile,
            padded: (px, py),
            global: (gx, gy),
        } = query;
        match *self {
            PerforationScheme::None => true,
            PerforationScheme::Rows(level) => gy.rem_euclid(level.period()) == 0,
            PerforationScheme::Columns(level) => gx.rem_euclid(level.period()) == 0,
            PerforationScheme::Stencil => tile.is_interior(px, py),
            PerforationScheme::Random {
                keep_fraction,
                seed,
            } => {
                // `validate` permits keep_fraction == 1.0, which must load
                // *everything*: the strict comparison below would still
                // skip an element hashing to exactly u64::MAX, so full
                // keep is short-circuited.
                if keep_fraction >= 1.0 {
                    return true;
                }
                let h = hash_coord(gx, gy, seed);
                (h as f64 / u64::MAX as f64) < keep_fraction
            }
        }
    }

    /// Exact fraction of the padded tile loaded for the work group at
    /// `group` (the row/column pattern is global, so edge groups can differ
    /// slightly from interior ones).
    pub fn fraction_loaded(&self, tile: &TileGeometry, group: (usize, usize)) -> f64 {
        let mut loaded = 0usize;
        for py in 0..tile.padded_h() {
            for px in 0..tile.padded_w() {
                let global = tile.global_of(group, px, py);
                if self.loads(LoadQuery {
                    tile,
                    padded: (px, py),
                    global,
                }) {
                    loaded += 1;
                }
            }
        }
        loaded as f64 / tile.padded_len() as f64
    }

    /// Stable short name of the selection family, for logs, tuning keys and
    /// downstream dispatch without matching the `#[non_exhaustive]` enum.
    pub fn family_label(&self) -> &'static str {
        match *self {
            PerforationScheme::None => "accurate",
            PerforationScheme::Rows(_) => "rows",
            PerforationScheme::Columns(_) => "cols",
            PerforationScheme::Stencil => "stencil",
            PerforationScheme::Random { .. } => "random",
        }
    }

    /// Validates the scheme against a tile geometry.
    ///
    /// # Errors
    ///
    /// * `Stencil` needs `halo ≥ 1` — with no halo it loads everything and
    ///   perforates nothing (the paper notes it "cannot be used" for the
    ///   1×1 Inversion kernel, §6.4).
    /// * Row/column schemes need the padded tile extent to cover at least
    ///   one loaded row/column **for the level's period**: loaded rows are
    ///   `gy ≡ 0 (mod period)`, so a tile spanning fewer than `period`
    ///   rows can fall entirely between them (e.g. a 3-row tile over
    ///   `gy ∈ {4k+1, 4k+2, 4k+3}` under `Rows2`), leaving reconstruction
    ///   with zero loaded neighbors.
    /// * `Random` needs `keep_fraction ∈ (0, 1]`.
    pub fn validate(&self, tile: &TileGeometry) -> Result<(), CoreError> {
        match *self {
            PerforationScheme::None => Ok(()),
            PerforationScheme::Rows(level) => {
                let need = level.period() as usize;
                if tile.padded_h() < need {
                    Err(CoreError::IllegalConfig(format!(
                        "{self} perforation (period {need}) needs a tile at least {need} rows \
                         high so every tile alignment contains a loaded row, got {}",
                        tile.padded_h()
                    )))
                } else {
                    Ok(())
                }
            }
            PerforationScheme::Columns(level) => {
                let need = level.period() as usize;
                if tile.padded_w() < need {
                    Err(CoreError::IllegalConfig(format!(
                        "{self} perforation (period {need}) needs a tile at least {need} columns \
                         wide so every tile alignment contains a loaded column, got {}",
                        tile.padded_w()
                    )))
                } else {
                    Ok(())
                }
            }
            PerforationScheme::Stencil => {
                if tile.halo == 0 {
                    Err(CoreError::IllegalConfig(
                        "stencil perforation needs a stencil app (halo >= 1); \
                         with a 1x1 kernel it would load everything"
                            .into(),
                    ))
                } else {
                    Ok(())
                }
            }
            PerforationScheme::Random { keep_fraction, .. } => {
                if keep_fraction > 0.0 && keep_fraction <= 1.0 {
                    Ok(())
                } else {
                    Err(CoreError::IllegalConfig(format!(
                        "random perforation keep_fraction must be in (0, 1], got {keep_fraction}"
                    )))
                }
            }
        }
    }

    /// True if the scheme actually skips anything.
    pub fn perforates(&self) -> bool {
        !matches!(self, PerforationScheme::None)
    }
}

impl std::fmt::Display for PerforationScheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            PerforationScheme::None => write!(f, "Accurate"),
            PerforationScheme::Rows(SkipLevel::Half) => write!(f, "Rows1"),
            PerforationScheme::Rows(SkipLevel::ThreeQuarters) => write!(f, "Rows2"),
            PerforationScheme::Columns(SkipLevel::Half) => write!(f, "Cols1"),
            PerforationScheme::Columns(SkipLevel::ThreeQuarters) => write!(f, "Cols2"),
            PerforationScheme::Stencil => write!(f, "Stencil1"),
            PerforationScheme::Random { keep_fraction, .. } => {
                write!(f, "Random({keep_fraction:.2})")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tile() -> TileGeometry {
        TileGeometry::new(16, 16, 1)
    }

    fn loads(
        s: &PerforationScheme,
        tile: &TileGeometry,
        px: usize,
        py: usize,
        gx: i64,
        gy: i64,
    ) -> bool {
        s.loads(LoadQuery {
            tile,
            padded: (px, py),
            global: (gx, gy),
        })
    }

    #[test]
    fn none_loads_everything() {
        let t = tile();
        assert!((PerforationScheme::None.fraction_loaded(&t, (0, 0)) - 1.0).abs() < 1e-12);
        assert!(!PerforationScheme::None.perforates());
    }

    #[test]
    fn rows1_loads_even_global_rows() {
        let t = tile();
        let s = PerforationScheme::Rows(SkipLevel::Half);
        for py in 0..t.padded_h() {
            let (gx, gy) = t.global_of((0, 0), 0, py);
            assert_eq!(
                loads(&s, &t, 0, py, gx, gy),
                gy.rem_euclid(2) == 0,
                "py={py}"
            );
        }
    }

    #[test]
    fn rows1_loads_about_half() {
        let t = tile();
        let f = PerforationScheme::Rows(SkipLevel::Half).fraction_loaded(&t, (0, 0));
        assert!((0.4..=0.6).contains(&f), "fraction {f}");
    }

    #[test]
    fn rows2_loads_about_a_quarter() {
        let t = tile();
        let f = PerforationScheme::Rows(SkipLevel::ThreeQuarters).fraction_loaded(&t, (0, 0));
        assert!((0.2..=0.3).contains(&f), "fraction {f}");
    }

    #[test]
    fn rows_pattern_is_consistent_across_groups() {
        // The same global row must be loaded (or not) regardless of which
        // group's tile covers it — the paper's "schemes match each other".
        let t = tile();
        let s = PerforationScheme::Rows(SkipLevel::Half);
        // Global row 16 is py=17 in group (0,0) (origin -1) and py=1 in
        // group (0,1) (origin 15).
        let (gx0, gy0) = t.global_of((0, 0), 5, 17);
        let (gx1, gy1) = t.global_of((0, 1), 5, 1);
        assert_eq!(gy0, 16);
        assert_eq!(gy1, 16);
        assert_eq!(
            loads(&s, &t, 5, 17, gx0, gy0),
            loads(&s, &t, 5, 1, gx1, gy1)
        );
    }

    #[test]
    fn columns_mirror_rows() {
        let t = tile();
        let s = PerforationScheme::Columns(SkipLevel::Half);
        for px in 0..t.padded_w() {
            let (gx, gy) = t.global_of((0, 0), px, 0);
            assert_eq!(loads(&s, &t, px, 0, gx, gy), gx.rem_euclid(2) == 0);
        }
    }

    #[test]
    fn stencil_loads_exactly_the_interior() {
        let t = tile();
        let s = PerforationScheme::Stencil;
        let mut loaded = 0;
        for py in 0..t.padded_h() {
            for px in 0..t.padded_w() {
                let (gx, gy) = t.global_of((0, 0), px, py);
                if loads(&s, &t, px, py, gx, gy) {
                    assert!(t.is_interior(px, py));
                    loaded += 1;
                }
            }
        }
        assert_eq!(loaded, 16 * 16);
    }

    #[test]
    fn random_fraction_tracks_parameter() {
        let t = TileGeometry::new(64, 64, 1);
        for keep in [0.25, 0.5, 0.9] {
            let s = PerforationScheme::Random {
                keep_fraction: keep,
                seed: 7,
            };
            let f = s.fraction_loaded(&t, (0, 0));
            assert!((f - keep).abs() < 0.05, "keep={keep} got {f}");
        }
    }

    #[test]
    fn random_is_deterministic() {
        let t = tile();
        let s = PerforationScheme::Random {
            keep_fraction: 0.5,
            seed: 42,
        };
        let a: Vec<bool> = (0..t.padded_len())
            .map(|i| {
                let (px, py) = t.coords(i);
                let (gx, gy) = t.global_of((0, 0), px, py);
                loads(&s, &t, px, py, gx, gy)
            })
            .collect();
        let b: Vec<bool> = (0..t.padded_len())
            .map(|i| {
                let (px, py) = t.coords(i);
                let (gx, gy) = t.global_of((0, 0), px, py);
                loads(&s, &t, px, py, gx, gy)
            })
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn negative_global_coords_follow_parity() {
        let t = tile();
        let s = PerforationScheme::Rows(SkipLevel::Half);
        // Row -1 (top halo of the first tile) is odd -> skipped.
        assert!(!loads(&s, &t, 0, 0, -1, -1));
        // Row -2 would be even -> loaded.
        assert!(loads(&s, &t, 0, 0, 0, -2));
    }

    #[test]
    fn row_and_column_validation_requires_full_period_coverage() {
        // Loaded rows are gy ≡ 0 (mod period). A padded extent shorter
        // than the period can fall entirely between them, producing a tile
        // with ZERO loaded rows; validate must reject those geometries.
        let rows1 = PerforationScheme::Rows(SkipLevel::Half);
        let rows2 = PerforationScheme::Rows(SkipLevel::ThreeQuarters);
        let cols2 = PerforationScheme::Columns(SkipLevel::ThreeQuarters);

        // padded_h = 1 < 2: even Rows1 can miss every loaded row.
        assert!(rows1.validate(&TileGeometry::new(16, 1, 0)).is_err());
        assert!(rows1.validate(&TileGeometry::new(16, 2, 0)).is_ok());

        // padded_h ∈ {2, 3} < 4: Rows2 used to pass validation here, yet a
        // tile over gy ∈ {4k+1 .. 4k+3} contains no loaded row at all.
        for tile_h in [2, 3] {
            let t = TileGeometry::new(16, tile_h, 0);
            assert!(rows2.validate(&t).is_err(), "tile_h={tile_h}");
            // The hole this closes, demonstrated: alignment gy ∈ {1,2,3}.
            if tile_h == 3 {
                let loaded_in_group_row = |gy0: i64| {
                    (0..t.padded_h() as i64)
                        .any(|dy| loads(&rows2, &t, 0, dy as usize, 0, gy0 + dy))
                };
                assert!(loaded_in_group_row(0));
                assert!(!loaded_in_group_row(1), "gy 1..3 holds no loaded row");
            }
        }
        assert!(rows2.validate(&TileGeometry::new(16, 4, 0)).is_ok());
        // Halo rows count towards the covered extent.
        assert!(rows2.validate(&TileGeometry::new(16, 2, 1)).is_ok());

        // Columns mirror rows on the other axis.
        assert!(cols2.validate(&TileGeometry::new(3, 16, 0)).is_err());
        assert!(cols2.validate(&TileGeometry::new(4, 16, 0)).is_ok());
    }

    #[test]
    fn random_full_keep_loads_every_element() {
        // keep_fraction = 1.0 is explicitly permitted by validate and must
        // load everything — including any element whose hash lands on
        // exactly u64::MAX, which the strict `< keep` comparison skipped.
        let t = TileGeometry::new(32, 32, 2);
        for seed in [0u64, 1, 42, u64::MAX] {
            let s = PerforationScheme::Random {
                keep_fraction: 1.0,
                seed,
            };
            assert!(s.validate(&t).is_ok());
            for group in [(0, 0), (3, 7)] {
                assert_eq!(s.fraction_loaded(&t, group), 1.0, "seed {seed}");
            }
        }
    }

    #[test]
    fn random_pattern_is_pinned() {
        // Pins the exact random-scheme pattern — including the halo's
        // negative global coordinates, which hash_coord deliberately
        // sign-extends. If this snapshot changes, every recorded error
        // measurement using the random scheme changes with it.
        let t = TileGeometry::new(4, 4, 1);
        let s = PerforationScheme::Random {
            keep_fraction: 0.5,
            seed: 0xC0FFEE,
        };
        let mut pattern = String::new();
        for py in 0..t.padded_h() {
            for px in 0..t.padded_w() {
                let (gx, gy) = t.global_of((0, 0), px, py);
                pattern.push(if loads(&s, &t, px, py, gx, gy) {
                    '#'
                } else {
                    '.'
                });
            }
            pattern.push('\n');
        }
        let expected = "\
#.....\n\
#####.\n\
.#.#.#\n\
..#.#.\n\
.#.##.\n\
###...\n";
        assert_eq!(pattern, expected);
        // The same global coordinate loads identically from the adjacent
        // group's halo (row -1 here is group (0,0)'s top halo; the same
        // cells are group (0, -1)'s… unreachable, but group (1, 0) shares
        // the gx = 3..4 columns).
        let (gx, gy) = t.global_of((0, 0), 5, 2); // gx=4 — group 1's interior
        let (gx2, gy2) = t.global_of((1, 0), 1, 2);
        assert_eq!((gx, gy), (gx2, gy2));
        assert_eq!(
            loads(&s, &t, 5, 2, gx, gy),
            loads(&s, &t, 1, 2, gx2, gy2),
            "shared coordinate must agree across groups"
        );
    }

    #[test]
    fn stencil_requires_halo() {
        let flat = TileGeometry::new(16, 16, 0);
        assert!(PerforationScheme::Stencil.validate(&flat).is_err());
        assert!(PerforationScheme::Stencil.validate(&tile()).is_ok());
    }

    #[test]
    fn random_fraction_validated() {
        let t = tile();
        assert!(PerforationScheme::Random {
            keep_fraction: 0.0,
            seed: 0
        }
        .validate(&t)
        .is_err());
        assert!(PerforationScheme::Random {
            keep_fraction: 1.5,
            seed: 0
        }
        .validate(&t)
        .is_err());
        assert!(PerforationScheme::Random {
            keep_fraction: 0.5,
            seed: 0
        }
        .validate(&t)
        .is_ok());
    }

    #[test]
    fn display_matches_paper_labels() {
        assert_eq!(
            PerforationScheme::Rows(SkipLevel::Half).to_string(),
            "Rows1"
        );
        assert_eq!(
            PerforationScheme::Rows(SkipLevel::ThreeQuarters).to_string(),
            "Rows2"
        );
        assert_eq!(
            PerforationScheme::Columns(SkipLevel::Half).to_string(),
            "Cols1"
        );
        assert_eq!(PerforationScheme::Stencil.to_string(), "Stencil1");
        assert_eq!(PerforationScheme::None.to_string(), "Accurate");
    }

    #[test]
    fn skip_level_gaps() {
        assert_eq!(SkipLevel::Half.period(), 2);
        assert_eq!(SkipLevel::Half.max_gap(), 1);
        assert_eq!(SkipLevel::ThreeQuarters.period(), 4);
        assert_eq!(SkipLevel::ThreeQuarters.max_gap(), 2);
    }

    #[test]
    fn scheme_spec_labels_append_layout_suffix() {
        let rows = PerforationScheme::Rows(SkipLevel::Half);
        let spec: SchemeSpec = rows.into();
        assert_eq!(spec.layout, PrefetchLayout::RowMajor);
        assert_eq!(spec.to_string(), "Rows1", "row-major keeps legacy labels");
        assert_eq!(
            spec.with_layout(PrefetchLayout::BurstTiled).to_string(),
            "Rows1@burst"
        );
        assert_eq!(
            spec.with_layout(PrefetchLayout::SystolicShift).to_string(),
            "Rows1@systolic"
        );
    }

    #[test]
    fn layout_family_labels_are_distinct() {
        let labels = [
            PrefetchLayout::RowMajor.family_label(),
            PrefetchLayout::BurstTiled.family_label(),
            PrefetchLayout::SystolicShift.family_label(),
        ];
        for (i, a) in labels.iter().enumerate() {
            for b in &labels[i + 1..] {
                assert_ne!(a, b);
            }
        }
        assert_eq!(PerforationScheme::Stencil.family_label(), "stencil");
    }

    #[test]
    fn systolic_layout_requires_a_usable_halo() {
        let sys = PrefetchLayout::SystolicShift;
        assert!(sys.validate(&TileGeometry::new(16, 16, 0)).is_err());
        assert!(sys.validate(&TileGeometry::new(16, 1, 2)).is_err());
        assert!(sys.validate(&TileGeometry::new(16, 16, 1)).is_ok());
        assert!(sys.validate(&TileGeometry::new(16, 2, 2)).is_ok());
        // Other layouts are geometry-agnostic.
        assert!(PrefetchLayout::RowMajor
            .validate(&TileGeometry::new(16, 16, 0))
            .is_ok());
        assert!(PrefetchLayout::BurstTiled
            .validate(&TileGeometry::new(16, 16, 0))
            .is_ok());
    }

    #[test]
    fn scheme_spec_validates_both_axes() {
        let t = TileGeometry::new(16, 16, 0); // no halo
        let ok = SchemeSpec::new(PerforationScheme::Rows(SkipLevel::Half));
        assert!(ok.validate(&t).is_ok());
        // Selection-axis failure propagates.
        assert!(SchemeSpec::new(PerforationScheme::Stencil)
            .validate(&t)
            .is_err());
        // Layout-axis failure propagates.
        assert!(ok
            .with_layout(PrefetchLayout::SystolicShift)
            .validate(&t)
            .is_err());
        assert!(ok.perforates());
        assert!(!SchemeSpec::new(PerforationScheme::None).perforates());
    }
}
