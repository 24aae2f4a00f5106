//! The quadtree-derived spatial shard map.
//!
//! The world rectangle is subdivided like a region quadtree to a uniform
//! depth `d` (chosen so there are at least four leaves per shard), the
//! `4^d` leaves are enumerated in Z-order (the depth-first quadrant
//! traversal of the quadtree), and contiguous runs of leaves are
//! assigned to shards. Z-order contiguity keeps every shard's territory
//! compact, so subscriptions — which are themselves spatial — mostly
//! land with the instances they care about.

use crate::config::ShardId;
use stem_spatial::{Point, Rect};

/// A uniform quadtree-leaf grid over a bounded world: the shared cell
/// arithmetic behind the shard map and the router's interest index.
#[derive(Debug, Clone)]
pub(crate) struct Grid {
    bounds: Rect,
    /// The grid is `2^depth x 2^depth` leaves.
    depth: u32,
}

impl Grid {
    pub(crate) fn new(bounds: Rect, depth: u32) -> Self {
        assert!(
            bounds.width() > 0.0 && bounds.height() > 0.0,
            "grid needs positive-area bounds"
        );
        Grid { bounds, depth }
    }

    pub(crate) fn leaf_count(&self) -> usize {
        1usize << (2 * self.depth)
    }

    /// Grid cell coordinates of a point, clamped into bounds.
    fn cell_of(&self, p: Point) -> (u32, u32) {
        let side = 1u32 << self.depth;
        let fx = (p.x - self.bounds.min().x) / self.bounds.width();
        let fy = (p.y - self.bounds.min().y) / self.bounds.height();
        let clamp = |f: f64| -> u32 {
            let i = (f * f64::from(side)).floor();
            if i < 0.0 {
                0
            } else if i >= f64::from(side) {
                side - 1
            } else {
                i as u32
            }
        };
        (clamp(fx), clamp(fy))
    }

    /// Z-order (Morton) index of a grid cell.
    fn z_index(&self, ix: u32, iy: u32) -> usize {
        let mut z = 0usize;
        for bit in 0..self.depth {
            z |= (((ix >> bit) & 1) as usize) << (2 * bit);
            z |= (((iy >> bit) & 1) as usize) << (2 * bit + 1);
        }
        z
    }

    /// The Z-order leaf index of a location (clamped into bounds).
    pub(crate) fn leaf_for_point(&self, p: Point) -> usize {
        let (ix, iy) = self.cell_of(p);
        self.z_index(ix, iy)
    }

    /// The Z-order leaf indices intersecting `rect`, each paired with
    /// its cell rectangle (closed bounds, so points sitting exactly on a
    /// cell edge test as inside the cell they floor into).
    pub(crate) fn leaf_rects_for_rect(&self, rect: &Rect) -> Vec<(usize, Rect)> {
        let side = 1u32 << self.depth;
        let w = self.bounds.width() / f64::from(side);
        let h = self.bounds.height() / f64::from(side);
        let (lo_x, lo_y) = self.cell_of(rect.min());
        let (hi_x, hi_y) = self.cell_of(rect.max());
        let mut leaves = Vec::new();
        for iy in lo_y..=hi_y {
            for ix in lo_x..=hi_x {
                let min = Point::new(
                    self.bounds.min().x + f64::from(ix) * w,
                    self.bounds.min().y + f64::from(iy) * h,
                );
                let cell = Rect::new(min, Point::new(min.x + w, min.y + h));
                leaves.push((self.z_index(ix, iy), cell));
            }
        }
        leaves
    }
}

/// Maps locations and regions to shards. See the module docs.
#[derive(Debug, Clone)]
pub struct ShardMap {
    grid: Grid,
    shards: usize,
}

impl ShardMap {
    /// Minimum side length the world rectangle is clamped to before the
    /// quadtree subdivision. A degenerate input — a single-point
    /// scenario, or all sensors collinear so one axis has zero extent —
    /// would otherwise collapse the grid's cell arithmetic onto one
    /// row/column of leaves (or divide by zero), piling every instance
    /// onto one shard no matter the shard count.
    pub const MIN_EXTENT: f64 = 1.0;

    /// Builds a map over `bounds` for `shards` shards. Bounds narrower
    /// than [`ShardMap::MIN_EXTENT`] on either axis are widened
    /// symmetrically around their center to that minimum first, so
    /// degenerate worlds still shard (points cluster near the clamped
    /// rectangle's midline and spread over the leaf grid like any other
    /// distribution).
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero or exceeds 64.
    #[must_use]
    pub fn build(bounds: Rect, shards: usize) -> Self {
        assert!(shards > 0, "shard map needs at least one shard");
        assert!(
            shards <= 64,
            "shard map supports at most 64 shards (router interest masks are u64)"
        );
        let bounds = Self::clamp_bounds(bounds);
        // Subdivide until there are at least 4 leaves per shard (so the
        // contiguous-run assignment can balance), capping the depth to
        // keep leaf coordinates well inside f64 precision.
        let mut depth = 0u32;
        while (1usize << (2 * depth)) < shards.saturating_mul(4) && depth < 12 {
            depth += 1;
        }
        ShardMap {
            grid: Grid::new(bounds, depth),
            shards,
        }
    }

    /// Widens either degenerate axis of `bounds` to
    /// [`ShardMap::MIN_EXTENT`], symmetrically around its center.
    fn clamp_bounds(bounds: Rect) -> Rect {
        if bounds.width() >= Self::MIN_EXTENT && bounds.height() >= Self::MIN_EXTENT {
            return bounds;
        }
        let c = bounds.center();
        let half_w = (bounds.width().max(Self::MIN_EXTENT)) / 2.0;
        let half_h = (bounds.height().max(Self::MIN_EXTENT)) / 2.0;
        Rect::centered(c, half_w, half_h)
    }

    /// The world bounds the map partitions.
    #[must_use]
    pub fn bounds(&self) -> Rect {
        self.grid.bounds
    }

    /// Number of shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards
    }

    /// Number of quadtree leaves backing the map.
    #[must_use]
    pub fn leaf_count(&self) -> usize {
        self.grid.leaf_count()
    }

    /// The shard owning a Z-order leaf: contiguous runs of leaves map to
    /// one shard each.
    #[must_use]
    pub fn shard_of_leaf(&self, z: usize) -> ShardId {
        // ceil-split so every shard gets a non-empty run even when the
        // leaf count is not an exact multiple.
        (z * self.shards) / self.leaf_count()
    }

    /// The shard owning a location. Out-of-bounds points are clamped to
    /// the nearest leaf, so every point routes somewhere.
    #[must_use]
    pub fn shard_for_point(&self, p: Point) -> ShardId {
        self.shard_of_leaf(self.grid.leaf_for_point(p))
    }

    /// The quadtree leaves assigned to `shard` (for introspection and
    /// balance diagnostics), as rectangles.
    #[must_use]
    pub fn cells_of_shard(&self, shard: ShardId) -> Vec<Rect> {
        let side = 1u32 << self.grid.depth;
        let bounds = self.grid.bounds;
        let (w, h) = (
            bounds.width() / f64::from(side),
            bounds.height() / f64::from(side),
        );
        let mut cells = Vec::new();
        for iy in 0..side {
            for ix in 0..side {
                if self.shard_of_leaf(self.grid.z_index(ix, iy)) == shard {
                    let min = Point::new(
                        bounds.min().x + f64::from(ix) * w,
                        bounds.min().y + f64::from(iy) * h,
                    );
                    cells.push(Rect::new(min, Point::new(min.x + w, min.y + h)));
                }
            }
        }
        cells
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map(shards: usize) -> ShardMap {
        ShardMap::build(
            Rect::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0)),
            shards,
        )
    }

    #[test]
    fn single_shard_owns_everything() {
        let m = map(1);
        assert_eq!(m.shard_for_point(Point::new(1.0, 1.0)), 0);
        assert_eq!(m.shard_for_point(Point::new(99.0, 99.0)), 0);
    }

    #[test]
    fn every_shard_gets_territory() {
        for shards in [2, 3, 4, 7, 8, 16] {
            let m = map(shards);
            for s in 0..shards {
                assert!(
                    !m.cells_of_shard(s).is_empty(),
                    "{shards} shards: shard {s} owns no cells"
                );
            }
        }
    }

    #[test]
    fn leaf_assignment_is_balanced() {
        for shards in [2, 4, 8] {
            let m = map(shards);
            let counts: Vec<usize> = (0..shards).map(|s| m.cells_of_shard(s).len()).collect();
            let (min, max) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
            assert!(
                max - min <= 1,
                "{shards} shards: unbalanced leaf counts {counts:?}"
            );
        }
    }

    /// Regression: a world where every sensor is collinear used to
    /// collapse the map onto a single row of leaves (zero height ⇒ the
    /// grid assert fired, or every point hit one leaf), defeating
    /// sharding entirely. The clamped map must still spread distinct
    /// positions over distinct shards.
    #[test]
    fn collinear_world_bounds_still_shard() {
        let m = ShardMap::build(Rect::new(Point::new(0.0, 50.0), Point::new(100.0, 50.0)), 4);
        assert!(m.bounds().height() >= ShardMap::MIN_EXTENT);
        assert!((m.bounds().width() - 100.0).abs() < 1e-9);
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..100 {
            seen.insert(m.shard_for_point(Point::new(f64::from(i), 50.0)));
        }
        assert!(
            seen.len() > 1,
            "collinear deployments must spread across shards, not collapse \
             onto one: {seen:?}"
        );
        for s in 0..4 {
            assert!(!m.cells_of_shard(s).is_empty());
        }
    }

    /// Regression: a single-point world (zero area) must build instead
    /// of panicking, with the rectangle clamped to the minimum extent
    /// around the point.
    #[test]
    fn single_point_world_bounds_are_clamped() {
        let p = Point::new(7.0, 3.0);
        let m = ShardMap::build(Rect::new(p, p), 2);
        assert!(m.bounds().width() >= ShardMap::MIN_EXTENT);
        assert!(m.bounds().height() >= ShardMap::MIN_EXTENT);
        assert!(m.bounds().contains(p), "clamp stays centered on the point");
        assert!(m.shard_for_point(p) < 2);
        for s in 0..2 {
            assert!(!m.cells_of_shard(s).is_empty());
        }
    }

    #[test]
    fn out_of_bounds_points_are_clamped() {
        let m = map(4);
        let inside = m.shard_for_point(Point::new(0.0, 0.0));
        assert_eq!(m.shard_for_point(Point::new(-50.0, -50.0)), inside);
        let far = m.shard_for_point(Point::new(1e9, 1e9));
        assert!(far < 4);
    }

    #[test]
    fn point_ownership_is_exclusive_and_total() {
        let m = map(4);
        for i in 0..40 {
            for j in 0..40 {
                let p = Point::new(2.5 * f64::from(i), 2.5 * f64::from(j));
                let s = m.shard_for_point(p);
                assert!(s < 4);
            }
        }
    }
}
