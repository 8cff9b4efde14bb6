//! Uniform-grid spatial index for neighbour queries.
//!
//! Rebuilding the link digraph each step requires, for every node, the set
//! of nodes inside its radio range. The grid buckets node indices by cell
//! so a range query inspects only nearby cells instead of all `n` nodes,
//! turning the per-step link rebuild from `O(n²)` into roughly
//! `O(n · k)` for `k` nodes per neighbourhood.
//!
//! Cell contents live in flat CSR arrays (`starts` + `entries`), not
//! per-cell `Vec`s: one contiguous allocation, no per-bucket headers, and
//! a layout one counting sort fills in a single scatter pass. The sort is
//! stable, so within every cell entries are ascending point indices.
//!
//! Cells are numbered row-major, so the cells of one grid row that a
//! query disc's bounding box covers form a single contiguous CSR range.
//! Every rebuild also refreshes `xs`/`ys`, the points' coordinates in
//! that same cell order: an exact range query
//! ([`SpatialGrid::for_each_within`]) is then a scan of two or three
//! flat coordinate slices instead of a gather from point-index order.

#![cfg_attr(not(test), warn(clippy::indexing_slicing))]

use agentnet_graph::cast::count_f64;
use agentnet_graph::geometry::{Point2, Rect};
use std::error::Error;
use std::fmt;
use std::ops::Range;

/// Errors from [`SpatialGrid`] construction and re-indexing: degenerate
/// geometry is rejected instead of being silently clamped into a grid
/// whose queries would scan everything.
#[derive(Clone, Copy, Debug, PartialEq)]
#[non_exhaustive]
pub enum GridError {
    /// The requested cell size was zero, negative, or non-finite.
    CellSize {
        /// The rejected value.
        cell_size: f64,
    },
    /// An arena dimension or corner coordinate was non-finite.
    Arena {
        /// The rejected arena's width.
        width: f64,
        /// The rejected arena's height.
        height: f64,
    },
}

impl fmt::Display for GridError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GridError::CellSize { cell_size } => {
                write!(f, "grid cell size {cell_size} must be positive and finite")
            }
            GridError::Arena { width, height } => {
                write!(f, "arena {width}x{height} must have finite dimensions and corners")
            }
        }
    }
}

impl Error for GridError {}

/// A uniform grid over an arena, bucketing point indices by cell, with
/// the points' coordinates stored alongside in cell order for exact
/// range queries.
///
/// ```
/// use agentnet_graph::geometry::{Point2, Rect};
/// use agentnet_radio::spatial::SpatialGrid;
///
/// let pts = vec![Point2::new(1.0, 1.0), Point2::new(9.0, 9.0), Point2::new(1.5, 1.0)];
/// let grid = SpatialGrid::build(Rect::square(10.0), 2.0, &pts).unwrap();
/// let mut near: Vec<usize> = grid.candidates_within(pts[0], 1.0).collect();
/// near.sort_unstable();
/// assert!(near.contains(&2));      // the point 0.5 m away
/// assert!(!near.contains(&1));     // the far corner is not a candidate
///
/// let mut exact = Vec::new();
/// grid.for_each_within(pts[0], 0.5, |i| exact.push(i));
/// exact.sort_unstable();
/// assert_eq!(exact, vec![0, 2]);   // boundary inclusive, centre included
/// ```
#[derive(Clone, Debug)]
pub struct SpatialGrid {
    arena: Rect,
    /// Effective (possibly coarsened) cell side.
    cell: f64,
    cols: usize,
    rows: usize,
    /// CSR row starts, length `cols * rows + 1`.
    starts: Vec<u32>,
    /// CSR entries: point indices, ascending within each cell.
    entries: Vec<u32>,
    /// Point x coordinates, parallel to `entries` (cell order).
    xs: Vec<f64>,
    /// Point y coordinates, parallel to `entries` (cell order).
    ys: Vec<f64>,
    /// Counting-sort scratch: the cell id of every point.
    cell_of: Vec<u32>,
    /// Counting-sort scratch: the next free slot of every cell.
    cursor: Vec<u32>,
    /// Rebuilds that had to coarsen the requested cell size to keep the
    /// cell table allocatable — see [`SpatialGrid::clamp_events`].
    clamp_events: u64,
}

impl SpatialGrid {
    /// Hard ceiling on the cell-table size (~4M cells, ~16 MB of CSR
    /// starts). Rebuilds whose extent/cell ratio would exceed it
    /// coarsen the cell size instead of aborting on allocation;
    /// correctness is unaffected because [`Self::candidates_within`]
    /// derives its cell window from the same cell size.
    pub const MAX_CELLS: usize = 1 << 22;

    /// Builds a grid with cells of side `cell_size` containing the given
    /// points.
    ///
    /// # Errors
    ///
    /// [`GridError`] when `cell_size` is not finite and positive or the
    /// arena has non-finite dimensions or corners.
    pub fn build(arena: Rect, cell_size: f64, points: &[Point2]) -> Result<Self, GridError> {
        let mut grid = SpatialGrid {
            arena,
            cell: 1.0,
            cols: 1,
            rows: 1,
            starts: vec![0, 0],
            entries: Vec::new(),
            xs: Vec::new(),
            ys: Vec::new(),
            cell_of: Vec::new(),
            cursor: Vec::new(),
            clamp_events: 0,
        };
        grid.rebuild(arena, cell_size, points)?;
        Ok(grid)
    }

    /// Validates rebuild geometry: the degenerate inputs that previously
    /// clamped silently (or panicked) are rejected with a proper error.
    fn validate(arena: Rect, cell_size: f64) -> Result<(), GridError> {
        if !(cell_size.is_finite() && cell_size > 0.0) {
            return Err(GridError::CellSize { cell_size });
        }
        let finite = arena.width.is_finite()
            && arena.height.is_finite()
            && arena.min_x().is_finite()
            && arena.min_y().is_finite();
        if !finite {
            return Err(GridError::Arena { width: arena.width, height: arena.height });
        }
        Ok(())
    }

    /// Re-indexes the grid in place over possibly new geometry, reusing
    /// all storage — the steady-state path of
    /// [`crate::WirelessNetwork::advance`], which would otherwise
    /// reallocate the index every step.
    ///
    /// One counting sort, stable in point index: a histogram of cell
    /// ids, a prefix sum into CSR starts, and one scatter pass. Entries
    /// are therefore ascending within every cell.
    ///
    /// Returns `true` when **this** rebuild had to coarsen the cell size
    /// (see [`Self::clamp_events`]) — a per-call flag, so callers
    /// folding it into their own counters cannot double-count or wrap
    /// when several rebuilds happen in one step.
    ///
    /// # Errors
    ///
    /// [`GridError`] on a non-finite/non-positive `cell_size` or a
    /// non-finite arena; the grid is left unchanged.
    #[agentnet::hot_path]
    pub fn rebuild(
        &mut self,
        arena: Rect,
        cell_size: f64,
        points: &[Point2],
    ) -> Result<bool, GridError> {
        Self::validate(arena, cell_size)?;
        debug_assert!(points.len() < u32::MAX as usize, "CSR entries are u32 point indices");
        let mut cell = cell_size;
        let mut cols = Self::cell_span(arena.width, cell);
        let mut rows = Self::cell_span(arena.height, cell);
        let mut clamped = false;
        if Self::cell_table_oversized(cols, rows) {
            while Self::cell_table_oversized(cols, rows) {
                cell *= 2.0;
                cols = Self::cell_span(arena.width, cell);
                rows = Self::cell_span(arena.height, cell);
            }
            clamped = true;
            self.clamp_events += 1;
        }
        self.arena = arena;
        self.cell = cell;
        self.cols = cols;
        self.rows = rows;
        // `cols * rows` cannot overflow: the clamp loop bounded it.
        let cells = cols * rows;
        let min = arena.origin();
        self.cell_of.clear();
        self.cell_of.extend(points.iter().map(|&p| Self::cell_id(p, min, cell, cols, rows) as u32));
        self.starts.clear();
        self.starts.resize(cells + 1, 0);
        for &c in &self.cell_of {
            if let Some(count) = self.starts.get_mut(c as usize + 1) {
                *count += 1;
            }
        }
        let mut acc = 0u32;
        for s in &mut self.starts {
            acc += *s;
            *s = acc;
        }
        self.cursor.clear();
        self.cursor.extend(self.starts.iter().take(cells).copied());
        self.entries.clear();
        self.entries.resize(points.len(), 0);
        for (i, &c) in self.cell_of.iter().enumerate() {
            let Some(cur) = self.cursor.get_mut(c as usize) else { continue };
            let slot = *cur as usize;
            *cur += 1;
            if let Some(e) = self.entries.get_mut(slot) {
                *e = i as u32;
            }
        }
        self.xs.resize(points.len(), 0.0);
        self.ys.resize(points.len(), 0.0);
        gather_coords(&mut self.xs, &mut self.ys, &self.entries, points);
        Ok(clamped)
    }

    /// `true` when a `cols x rows` cell table would overflow `usize`
    /// or exceed [`Self::MAX_CELLS`].
    #[inline]
    fn cell_table_oversized(cols: usize, rows: usize) -> bool {
        cols.checked_mul(rows).is_none_or(|cells| cells > Self::MAX_CELLS)
    }

    /// Number of rebuilds (since construction) that coarsened the
    /// requested cell size to keep the cell table within
    /// [`Self::MAX_CELLS`] — a coarser grid degrades query tightness,
    /// so callers surface this as a metric rather than silently paying
    /// for near-full scans. Per-rebuild clamp information is returned
    /// by [`Self::rebuild`] directly.
    pub fn clamp_events(&self) -> u64 {
        self.clamp_events
    }

    /// Number of cells covering `extent` at `cell` width, at least 1 —
    /// the audited float→usize crossing for grid dimensioning. `rebuild`
    /// validates `cell` finite and positive; the result is clamped below
    /// by `max(1.0)` and the cast saturates on absurd extents instead of
    /// wrapping.
    #[inline]
    fn cell_span(extent: f64, cell: f64) -> usize {
        let span = (extent / cell).ceil().max(1.0);
        // agentlint::allow(no-lossy-cast) — domain clamped to >= 1 above.
        span as usize
    }

    /// Maps an **arena-relative** coordinate (already offset by the
    /// arena's min corner) to a cell index, clamped into `0..limit`.
    ///
    /// Positions are allowed to fall outside the arena (fault injection
    /// teleports, numerical drift at the walls): coordinates left of the
    /// arena — where `coord / cell` is negative or NaN — clamp to cell 0
    /// *explicitly* rather than through the float→int cast's silent
    /// saturation, and coordinates at or past the far edge clamp to the
    /// last cell.
    ///
    /// The clamp happens in the float domain, so the truncating cast
    /// only ever sees a value in `0..=limit - 1`, and no branch is
    /// taken: `f64::max` maps NaN to 0, and since `limit - 1` is an
    /// integer, truncating after the `min` equals taking the `min`
    /// after truncating.
    #[inline]
    fn cell_index(coord: f64, cell: f64, limit: usize) -> usize {
        let last = limit.saturating_sub(1);
        let clamped = (coord / cell).max(0.0).min(count_f64(last));
        // `last` < 2^22 because the cell table is bounded by MAX_CELLS,
        // so the u32 cast is exact here (and much cheaper than a u64 one).
        // agentlint::allow(no-lossy-cast) — clamped into 0..=last above.
        clamped as u32 as usize
    }

    /// Cell id of a point under the given geometry. Offset by the
    /// arena's min corner: a non-origin arena's cells start at `origin`,
    /// not `(0, 0)` — dividing the absolute coordinate would collapse
    /// every point into the clamped border cells and degrade queries to
    /// near-full scans.
    #[inline]
    fn cell_id(p: Point2, min: Point2, cell: f64, cols: usize, rows: usize) -> usize {
        let cx = Self::cell_index(p.x - min.x, cell, cols);
        let cy = Self::cell_index(p.y - min.y, cell, rows);
        cy * cols + cx
    }

    /// The query window of the disc of `radius` around `center`: for
    /// each grid row its bounding box covers, the one contiguous CSR
    /// range holding that row's cells `min_cx..=max_cx`. The window is
    /// clamped into the grid, so out-of-arena points — indexed into the
    /// clamped border cells — stay inside it.
    #[inline]
    fn row_ranges(&self, center: Point2, radius: f64) -> impl Iterator<Item = Range<usize>> + '_ {
        let x = center.x - self.arena.min_x();
        let y = center.y - self.arena.min_y();
        let min_cx = Self::cell_index(x - radius, self.cell, self.cols);
        let max_cx = Self::cell_index(x + radius, self.cell, self.cols);
        let min_cy = Self::cell_index(y - radius, self.cell, self.rows);
        let max_cy = Self::cell_index(y + radius, self.cell, self.rows);
        (min_cy..=max_cy).map(move |cy| {
            let row = cy * self.cols;
            let lo = self.starts.get(row + min_cx).copied().unwrap_or(0) as usize;
            let hi = self.starts.get(row + max_cx + 1).copied().unwrap_or(0) as usize;
            lo..hi
        })
    }

    /// Iterator over indices of points whose cell intersects the disc of
    /// `radius` around `center` — a superset of the true in-range set
    /// (out-of-arena points included); callers still apply the exact
    /// distance test, or use [`Self::for_each_within`], which does.
    #[agentnet::hot_path]
    pub fn candidates_within(
        &self,
        center: Point2,
        radius: f64,
    ) -> impl Iterator<Item = usize> + '_ {
        self.row_ranges(center, radius)
            .flat_map(|range| self.entries.get(range).unwrap_or(&[]).iter().map(|&e| e as usize))
    }

    /// Calls `f` with the index of every point within `radius` of
    /// `center`, boundary inclusive, in cell order. The test is
    /// `dx*dx + dy*dy <= radius*radius` with `dx = center.x - x` — the
    /// float math of [`Point2::distance_sq`] — over the cell-ordered
    /// coordinate columns, one contiguous slice per grid row of the
    /// query window.
    ///
    /// Only about one candidate in four is a hit, so a branch per
    /// candidate mispredicts often. The scan instead compacts each
    /// batch of candidates into a small buffer without branching on the
    /// test, then hands the hits to `f`.
    #[agentnet::hot_path]
    pub fn for_each_within(&self, center: Point2, radius: f64, mut f: impl FnMut(usize)) {
        const BATCH: usize = 64;
        let r_sq = radius * radius;
        let mut hits = [0u32; BATCH];
        for Range { start, end } in self.row_ranges(center, radius) {
            let (Some(xs), Some(ys), Some(es)) =
                (self.xs.get(start..end), self.ys.get(start..end), self.entries.get(start..end))
            else {
                continue;
            };
            for ((xs, ys), es) in xs.chunks(BATCH).zip(ys.chunks(BATCH)).zip(es.chunks(BATCH)) {
                let mut n = 0;
                for ((&x, &y), &e) in xs.iter().zip(ys).zip(es) {
                    let dx = center.x - x;
                    let dy = center.y - y;
                    // `n` never exceeds the batch index, so the slot exists.
                    if let Some(slot) = hits.get_mut(n) {
                        *slot = e;
                    }
                    n += usize::from(dx * dx + dy * dy <= r_sq);
                }
                for &e in hits.get(..n).unwrap_or(&[]) {
                    f(e as usize);
                }
            }
        }
    }

    /// Number of cells in the grid.
    pub fn cell_count(&self) -> usize {
        self.starts.len().saturating_sub(1)
    }

    /// The flat CSR cell arrays `(starts, entries)`: cell `c` holds the
    /// point indices `entries[starts[c]..starts[c+1]]`, ascending.
    /// Exposed so differential tests and the validation battery can
    /// assert byte-identical grid contents across rebuilds.
    pub fn flat_cells(&self) -> (&[u32], &[u32]) {
        (&self.starts, &self.entries)
    }
}

/// Fills the coordinate slots `xs`/`ys` with the coordinates of the
/// points `entries` names, slot for slot.
#[agentnet::hot_path]
fn gather_coords(xs: &mut [f64], ys: &mut [f64], entries: &[u32], points: &[Point2]) {
    for ((x, y), &e) in xs.iter_mut().zip(ys).zip(entries) {
        if let Some(p) = points.get(e as usize) {
            *x = p.x;
            *y = p.y;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(arena: Rect, cell: f64, pts: &[Point2]) -> SpatialGrid {
        SpatialGrid::build(arena, cell, pts).expect("valid grid geometry")
    }

    #[test]
    fn grid_dimensions() {
        let g = build(Rect::new(10.0, 4.0), 2.0, &[]);
        assert_eq!(g.cell_count(), 5 * 2);
    }

    #[test]
    fn candidates_are_superset_of_exact_in_range() {
        let pts: Vec<Point2> =
            (0..100).map(|i| Point2::new((i % 10) as f64, (i / 10) as f64)).collect();
        let g = build(Rect::square(10.0), 1.5, &pts);
        let center = Point2::new(4.5, 4.5);
        let radius = 2.0;
        let cands: std::collections::HashSet<usize> = g.candidates_within(center, radius).collect();
        for (i, p) in pts.iter().enumerate() {
            if center.distance(*p) <= radius {
                assert!(cands.contains(&i), "missed in-range point {i}");
            }
        }
    }

    #[test]
    fn exact_query_is_boundary_inclusive_across_rows() {
        // A 3-4-5 triangle puts points exactly on the disc boundary, in
        // grid rows above, below and beside the centre's.
        let centre = Point2::new(10.0, 10.0);
        let pts = vec![
            centre,
            Point2::new(13.0, 14.0),
            Point2::new(7.0, 6.0),
            Point2::new(15.0, 10.0),
            Point2::new(15.01, 10.0),
            Point2::new(10.0, 4.99),
        ];
        for cell in [0.7, 2.0, 5.0, 30.0] {
            let g = build(Rect::square(20.0), cell, &pts);
            let mut found = Vec::new();
            g.for_each_within(centre, 5.0, |i| found.push(i));
            found.sort_unstable();
            assert_eq!(found, vec![0, 1, 2, 3], "cell {cell}");
        }
    }

    #[test]
    fn exact_query_spans_many_batches_of_one_cell() {
        // 300 points in a single cell: the scan compacts hits batch by
        // batch, and must still report exactly the in-range ones in
        // ascending (cell) order.
        let pts: Vec<Point2> =
            (0..300).map(|i| Point2::new((i % 20) as f64, (i / 20) as f64)).collect();
        let g = build(Rect::square(20.0), 50.0, &pts);
        let centre = Point2::new(9.5, 7.0);
        let mut found = Vec::new();
        // Radius 11 misses only the corners: whole batches are hits.
        g.for_each_within(centre, 11.0, |i| found.push(i));
        let expected: Vec<usize> =
            (0..pts.len()).filter(|&i| centre.distance_sq(pts[i]) <= 121.0).collect();
        assert!(expected.len() > 200 && expected.len() < 300);
        assert_eq!(found, expected);
    }

    #[test]
    fn cell_index_clamps_like_truncate_then_min() {
        // The branch-free float clamp must agree with the reference
        // rule: 0 for negative or NaN quotients, otherwise the truncated
        // quotient capped at the last cell.
        let reference = |coord: f64, cell: f64, limit: usize| -> usize {
            let raw = coord / cell;
            if raw <= 0.0 || raw.is_nan() {
                0
            } else {
                (raw as usize).min(limit - 1)
            }
        };
        let coords = [
            f64::NAN,
            f64::NEG_INFINITY,
            -1e300,
            -3.5,
            -0.0,
            0.0,
            1e-300,
            0.999_999,
            1.0,
            6.999_999_999,
            7.0,
            7.5,
            8.0,
            1e18,
            1e300,
            f64::INFINITY,
        ];
        for cell in [1.0, 0.3, 2.5] {
            for limit in [1, 2, 8, 1 << 22] {
                for &c in &coords {
                    let got = SpatialGrid::cell_index(c * cell, cell, limit);
                    assert_eq!(got, reference(c * cell, cell, limit), "{c} * {cell}, {limit}");
                }
            }
        }
    }

    #[test]
    fn points_on_arena_edge_are_indexed() {
        let pts = vec![Point2::new(10.0, 10.0)];
        let g = build(Rect::square(10.0), 3.0, &pts);
        let found: Vec<usize> = g.candidates_within(Point2::new(9.5, 9.5), 1.0).collect();
        assert_eq!(found, vec![0]);
    }

    #[test]
    fn query_larger_than_arena_sees_everything() {
        let pts = vec![Point2::new(0.5, 0.5), Point2::new(9.5, 9.5)];
        let g = build(Rect::square(10.0), 2.0, &pts);
        let all: Vec<usize> = g.candidates_within(Point2::new(5.0, 5.0), 100.0).collect();
        assert_eq!(all.len(), 2);
    }

    #[test]
    fn degenerate_cell_sizes_are_rejected() {
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = SpatialGrid::build(Rect::square(1.0), bad, &[]).err();
            assert!(
                matches!(err, Some(GridError::CellSize { .. })),
                "cell size {bad} must be rejected, got {err:?}"
            );
        }
        // The rejected value is carried in the error.
        assert_eq!(
            SpatialGrid::build(Rect::square(1.0), -2.5, &[]).err(),
            Some(GridError::CellSize { cell_size: -2.5 })
        );
    }

    #[test]
    fn non_finite_arena_is_rejected_not_clamped() {
        // Rect's constructors validate, but its dimension fields are
        // public — a degenerate arena can reach the grid.
        let mut arena = Rect::square(10.0);
        arena.width = f64::INFINITY;
        assert!(matches!(SpatialGrid::build(arena, 1.0, &[]), Err(GridError::Arena { .. })));
        let mut arena = Rect::square(10.0);
        arena.height = f64::NAN;
        assert!(matches!(SpatialGrid::build(arena, 1.0, &[]), Err(GridError::Arena { .. })));
    }

    #[test]
    fn failed_rebuild_leaves_the_grid_usable() {
        let pts = vec![Point2::new(1.0, 1.0)];
        let mut g = build(Rect::square(10.0), 2.0, &pts);
        assert!(g.rebuild(Rect::square(10.0), f64::NAN, &pts).is_err());
        // The previous index is intact.
        let found: Vec<usize> = g.candidates_within(Point2::new(1.0, 1.0), 1.0).collect();
        assert_eq!(found, vec![0]);
    }

    #[test]
    fn out_of_arena_points_clamp_to_border_cells() {
        let pts = vec![Point2::new(-5.0, -5.0), Point2::new(15.0, 3.0)];
        let g = build(Rect::square(10.0), 2.0, &pts);
        // A query disc around the out-of-arena point still finds it in
        // the clamped border cell.
        let near: Vec<usize> = g.candidates_within(Point2::new(-4.0, -4.0), 2.0).collect();
        assert!(near.contains(&0));
        let far: Vec<usize> = g.candidates_within(Point2::new(14.0, 3.0), 2.0).collect();
        assert!(far.contains(&1));
    }

    #[test]
    fn shifted_arena_buckets_points_by_relative_position() {
        // Regression: cell_index used to divide the *absolute*
        // coordinate by the cell size, so every point of a non-origin
        // arena landed in the clamped border cells and distant points
        // became candidates of each other.
        let arena = Rect::anchored(Point2::new(500.0, -200.0), 100.0, 100.0);
        let near = Point2::new(505.0, -195.0); // min corner area
        let far = Point2::new(595.0, -105.0); // max corner area
        let g = build(arena, 10.0, &[near, far]);
        assert_eq!(g.cell_count(), 100);
        let around_near: Vec<usize> = g.candidates_within(near, 5.0).collect();
        assert!(around_near.contains(&0), "near point must be its own candidate");
        assert!(
            !around_near.contains(&1),
            "far corner of a shifted arena must not be a candidate near the min corner"
        );
        let around_far: Vec<usize> = g.candidates_within(far, 5.0).collect();
        assert!(around_far.contains(&1));
        assert!(!around_far.contains(&0));
    }

    #[test]
    fn shifted_arena_candidates_are_superset_of_in_range() {
        let arena = Rect::anchored(Point2::new(-50.0, 30.0), 20.0, 12.0);
        let pts: Vec<Point2> = (0..60)
            .map(|i| Point2::new(-50.0 + (i % 10) as f64 * 2.0, 30.0 + (i / 10) as f64 * 2.0))
            .collect();
        let g = build(arena, 3.0, &pts);
        let center = Point2::new(-41.0, 35.0);
        let radius = 4.0;
        let cands: std::collections::HashSet<usize> = g.candidates_within(center, radius).collect();
        for (i, p) in pts.iter().enumerate() {
            if center.distance(*p) <= radius {
                assert!(cands.contains(&i), "missed in-range point {i} at {p}");
            }
        }
    }

    #[test]
    fn absurd_extent_cell_ratio_clamps_instead_of_aborting() {
        // 1e12-wide arena with 1e-3 cells: ~1e30 cells would overflow
        // the multiply (and any allocator). The rebuild must coarsen
        // the cell size, stay within MAX_CELLS, and surface the event.
        let arena = Rect::new(1e12, 1e12);
        let pts = vec![Point2::new(1.0, 1.0), Point2::new(2.0, 2.0), Point2::new(9e11, 9e11)];
        let g = build(arena, 1e-3, &pts);
        assert!(g.cell_count() <= SpatialGrid::MAX_CELLS);
        assert_eq!(g.clamp_events(), 1);
        // Queries stay correct on the coarsened grid.
        let near: Vec<usize> = g.candidates_within(Point2::new(1.5, 1.5), 2.0).collect();
        assert!(near.contains(&0) && near.contains(&1));
    }

    #[test]
    fn rebuild_reports_each_clamp_without_double_counting() {
        let arena = Rect::new(1e12, 1e12);
        let mut g = build(arena, 1.0, &[]);
        assert_eq!(g.clamp_events(), 1, "construction at 1e12/1.0 must clamp once");
        // Two more rebuilds in a row: each reports exactly its own
        // clamp, and the cumulative counter advances by exactly one per
        // rebuild — no wrap, no double-count.
        for expected in 2..=3 {
            let clamped = g.rebuild(arena, 1.0, &[]).expect("valid geometry");
            assert!(clamped);
            assert_eq!(g.clamp_events(), expected);
        }
        let clamped = g.rebuild(Rect::square(100.0), 10.0, &[]).expect("valid geometry");
        assert!(!clamped, "a sane rebuild must not report a clamp");
        assert_eq!(g.clamp_events(), 3);
    }

    #[test]
    fn sane_rebuilds_never_clamp() {
        let mut g = build(Rect::square(1000.0), 100.0, &[]);
        let clamped = g.rebuild(Rect::square(1000.0), 50.0, &[]).expect("valid geometry");
        assert!(!clamped);
        assert_eq!(g.clamp_events(), 0);
    }

    #[test]
    fn rebuild_reindexes_in_place() {
        let mut g = build(Rect::square(10.0), 2.0, &[Point2::new(1.0, 1.0)]);
        assert_eq!(g.cell_count(), 25);
        g.rebuild(Rect::square(10.0), 5.0, &[Point2::new(9.0, 9.0)]).expect("valid geometry");
        assert_eq!(g.cell_count(), 4);
        let found: Vec<usize> = g.candidates_within(Point2::new(8.0, 8.0), 1.5).collect();
        assert_eq!(found, vec![0]);
    }

    #[test]
    fn csr_entries_are_ascending_within_every_cell() {
        let pts: Vec<Point2> = (0..200)
            .map(|i| Point2::new((i * 37 % 100) as f64 / 10.0, (i * 53 % 100) as f64 / 10.0))
            .collect();
        let g = build(Rect::square(10.0), 2.5, &pts);
        let (starts, entries) = g.flat_cells();
        assert_eq!(*starts.last().unwrap() as usize, pts.len());
        for w in 0..starts.len() - 1 {
            let run = &entries[starts[w] as usize..starts[w + 1] as usize];
            assert!(run.windows(2).all(|p| p[0] < p[1]), "cell {w} run not ascending: {run:?}");
        }
    }
}
