//! The 2-D time series container shared by every pipeline component.
//!
//! Storage is backed by `Arc`-shared column buffers plus a `(start, rows)`
//! view window, so `slice`, `tail`, and `select` are O(1): they bump a
//! reference count and adjust the window instead of copying samples. This is
//! the substrate for T-Daub's allocation loop, where every
//! (pipeline × allocation) unit takes a prefix or suffix view of the same
//! training split. Mutation goes through copy-on-write: `series_mut`
//! compacts the view into uniquely-owned buffers first, and `append` does
//! the same **only when it has to** — a frame that uniquely owns its full
//! buffers grows its tail in place, keeping the `Arc` addresses (and hence
//! the [`FrameFingerprint`]) stable so suffix-growth detection survives an
//! observe/append cycle. Each growth returns a [`GrowthRecord`] naming the
//! before/after fingerprints and whether identity was preserved.

use std::sync::Arc;

use crate::quality::QualityIssue;
use crate::timestamps::{infer_frequency, regular_step, Frequency};

/// A 2-D time series frame: columns are individual series, rows are samples.
///
/// This mirrors the paper's sklearn-compatible input/output schema (§3):
/// `fit` and `predict` "expect a 2D array in which columns represent
/// different time series and rows represent samples". Timestamps are
/// optional; when absent, indices `0..n` are used (the paper regenerates
/// timestamps for dirty datasets the same way).
///
/// Equality compares the *visible* contents (names, windowed values,
/// windowed timestamps), not buffer identity: a zero-copy view equals a
/// deep copy of the same rows.
#[derive(Debug, Clone)]
pub struct TimeSeriesFrame {
    /// Per-series column names (defaults to `series_0`, `series_1`, …).
    names: Arc<Vec<String>>,
    /// Column-major shared buffers: `columns[c]` holds every sample of
    /// series `c` that any view over this buffer can expose.
    columns: Vec<Arc<Vec<f64>>>,
    /// Optional timestamps in epoch seconds, one per buffer row.
    timestamps: Option<Arc<Vec<i64>>>,
    /// First visible buffer row.
    start: usize,
    /// Number of visible rows.
    rows: usize,
}

/// Stable identity of a frame view: the addresses of its shared column
/// buffers plus the `(start, rows)` window. Two frames with equal
/// fingerprints expose bitwise-identical data (they view the same buffers),
/// which makes this usable as a cache key. The converse does not hold —
/// equal data in distinct buffers fingerprints differently — so callers use
/// it for memoization, never for semantic equality.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FrameFingerprint {
    buffers: Vec<usize>,
    start: usize,
    rows: usize,
}

impl FrameFingerprint {
    /// First visible buffer row of the fingerprinted view.
    pub fn start(&self) -> usize {
        self.start
    }

    /// The addresses of the viewed column buffers, in column order. Only
    /// meaningful for cache bookkeeping (grouping views of the same data).
    pub fn buffers(&self) -> &[usize] {
        &self.buffers
    }

    /// Number of visible rows of the fingerprinted view.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// True when both fingerprints view the same underlying buffers.
    pub fn same_buffers(&self, other: &FrameFingerprint) -> bool {
        self.buffers == other.buffers
    }

    /// True when `old` is a strict suffix of `self` over the same buffers:
    /// both views end at the same buffer row and `self` starts earlier.
    /// This is the reuse condition for reverse (most-recent-first) T-Daub
    /// allocations, where each allocation prepends older rows.
    pub fn extends_as_suffix(&self, old: &FrameFingerprint) -> bool {
        self.same_buffers(old)
            && self.start < old.start
            && self.start + self.rows == old.start + old.rows
    }

    /// True when `old` is a strict prefix of `self` over the same buffers:
    /// both views start at the same buffer row and `self` is longer. This is
    /// the reuse condition for forward (oldest-first) allocations.
    pub fn extends_as_prefix(&self, old: &FrameFingerprint) -> bool {
        self.same_buffers(old) && self.start == old.start && self.rows > old.rows
    }
}

/// How a frame acquired its new tail during [`TimeSeriesFrame::append`] or
/// [`TimeSeriesFrame::extended`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GrowthKind {
    /// The tail was written into the existing uniquely-owned buffers. Every
    /// `Arc` allocation is reused (`Arc::as_ptr` is the address of the
    /// `ArcInner`, which is stable even when the `Vec` inside reallocates its
    /// data heap), so the grown fingerprint `extends_as_prefix` the base one
    /// and fingerprint-keyed cache entries for the base stay valid.
    InPlace,
    /// The frame was shared or a narrowed view, so growth first compacted it
    /// onto fresh buffers (copy-on-write). Buffer identity was severed;
    /// callers holding fingerprint-keyed caches must use the lineage in the
    /// returned [`GrowthRecord`] instead of pointer continuity.
    Rebased,
}

/// Lineage record returned by the growth paths: the fingerprints before and
/// after, whether buffer identity survived, and any timestamp degradation.
#[derive(Debug, Clone, PartialEq)]
pub struct GrowthRecord {
    /// Fingerprint of the view before growth.
    pub base: FrameFingerprint,
    /// Fingerprint of the grown frame.
    pub grown: FrameFingerprint,
    /// Whether the buffers survived (`InPlace`) or were re-based.
    pub kind: GrowthKind,
    /// Rows shared between the base and grown views (the base length).
    pub shared_rows: usize,
    /// Set when appending untimestamped rows forced the timestamp column to
    /// be dropped because no regular step could be inferred.
    pub timestamp_issue: Option<QualityIssue>,
}

impl GrowthRecord {
    /// True when buffer identity survived growth, i.e. the grown fingerprint
    /// `extends_as_prefix` the base fingerprint.
    pub fn identity_preserved(&self) -> bool {
        self.kind == GrowthKind::InPlace
    }
}

impl TimeSeriesFrame {
    /// Build a univariate frame from a single series.
    pub fn univariate(values: Vec<f64>) -> Self {
        let rows = values.len();
        Self {
            names: Arc::new(vec!["series_0".to_string()]),
            columns: vec![Arc::new(values)],
            timestamps: None,
            start: 0,
            rows,
        }
    }

    /// Build a multivariate frame from column vectors. Panics on ragged input.
    pub fn from_columns(columns: Vec<Vec<f64>>) -> Self {
        let rows = columns.first().map_or(0, Vec::len);
        assert!(
            columns.iter().all(|c| c.len() == rows),
            "TimeSeriesFrame::from_columns: ragged columns"
        );
        let names = (0..columns.len()).map(|i| format!("series_{i}")).collect();
        Self {
            names: Arc::new(names),
            columns: columns.into_iter().map(Arc::new).collect(),
            timestamps: None,
            start: 0,
            rows,
        }
    }

    /// Build from row-major data (`rows x cols`), the layout users provide.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        if rows.is_empty() {
            return Self::from_columns(Vec::new());
        }
        let ncols = rows[0].len();
        let mut columns = vec![Vec::with_capacity(rows.len()); ncols];
        for row in rows {
            assert_eq!(row.len(), ncols, "TimeSeriesFrame::from_rows: ragged rows");
            for (c, &v) in row.iter().enumerate() {
                columns[c].push(v);
            }
        }
        Self::from_columns(columns)
    }

    /// Attach timestamps (epoch seconds, one per row). Panics on length mismatch.
    pub fn with_timestamps(mut self, ts: Vec<i64>) -> Self {
        assert_eq!(
            ts.len(),
            self.len(),
            "timestamp length must equal number of rows"
        );
        // The fresh timestamp vector covers exactly the visible rows, so the
        // view window must be re-anchored onto owned value buffers too.
        self.make_owned();
        self.timestamps = Some(Arc::new(ts));
        self
    }

    /// Attach column names. Panics on length mismatch.
    pub fn with_names(mut self, names: Vec<String>) -> Self {
        assert_eq!(
            names.len(),
            self.n_series(),
            "name count must equal number of series"
        );
        self.names = Arc::new(names);
        self
    }

    /// Generate regular timestamps starting at `start` with `step_secs` spacing.
    pub fn with_regular_timestamps(self, start: i64, step_secs: i64) -> Self {
        let n = self.len();
        self.with_timestamps((0..n as i64).map(|i| start + i * step_secs).collect())
    }

    /// Number of samples (rows) visible through this view.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// True when the frame holds no samples.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Number of series (columns).
    pub fn n_series(&self) -> usize {
        self.columns.len()
    }

    /// Borrow series `c` as a slice of the visible rows.
    pub fn series(&self, c: usize) -> &[f64] {
        &self.columns[c][self.start..self.start + self.rows]
    }

    /// Iterate over all series as slices of the visible rows.
    pub fn series_iter(&self) -> impl Iterator<Item = &[f64]> {
        self.columns
            .iter()
            .map(|col| &col[self.start..self.start + self.rows])
    }

    /// Mutable borrow of series `c`. Triggers copy-on-write: the whole frame
    /// is first compacted into uniquely-owned buffers so no other view
    /// observes the mutation.
    pub fn series_mut(&mut self, c: usize) -> &mut [f64] {
        self.make_owned();
        Arc::make_mut(&mut self.columns[c]).as_mut_slice()
    }

    /// Column names.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Timestamps for the visible rows, if attached.
    pub fn timestamps(&self) -> Option<&[i64]> {
        self.timestamps
            .as_ref()
            .map(|t| &t[self.start..self.start + self.rows])
    }

    /// Infer the sampling frequency from timestamps (median inter-arrival).
    pub fn frequency(&self) -> Option<Frequency> {
        self.timestamps().and_then(infer_frequency)
    }

    /// Row `r` across all series, in column order.
    pub fn row(&self, r: usize) -> Vec<f64> {
        assert!(r < self.rows, "row index out of bounds");
        self.columns.iter().map(|c| c[self.start + r]).collect()
    }

    /// Slice rows `[start, end)` into a new frame view. O(1): shares the
    /// underlying buffers and narrows the window; no samples are copied.
    /// Out-of-range bounds clamp to the frame length.
    pub fn slice(&self, start: usize, end: usize) -> Self {
        let end = end.min(self.rows);
        let start = start.min(end);
        Self {
            names: Arc::clone(&self.names),
            columns: self.columns.iter().map(Arc::clone).collect(),
            timestamps: self.timestamps.as_ref().map(Arc::clone),
            start: self.start + start,
            rows: end - start,
        }
    }

    /// The last `n` rows (fewer when the frame is shorter). O(1) view.
    pub fn tail(&self, n: usize) -> Self {
        self.slice(self.rows.saturating_sub(n), self.rows)
    }

    /// Select a single series into a new univariate frame view. O(1): the
    /// column buffer is shared, not copied.
    pub fn select(&self, c: usize) -> Self {
        Self {
            names: Arc::new(vec![self.names[c].clone()]),
            columns: vec![Arc::clone(&self.columns[c])],
            timestamps: self.timestamps.as_ref().map(Arc::clone),
            start: self.start,
            rows: self.rows,
        }
    }

    /// Append the rows of `other` (must have same number of series).
    ///
    /// When this frame uniquely owns its full buffers (no sibling views
    /// alive, window covers the whole allocation) the tail is written **in
    /// place**: the `Arc` allocations are reused, so the fingerprint after
    /// the call `extends_as_prefix` the fingerprint before it and
    /// fingerprint-keyed caches stay warm across an observe/append cycle.
    /// Otherwise the frame is first compacted onto fresh buffers
    /// (copy-on-write — sibling views are unaffected) and the returned
    /// [`GrowthRecord`] reports `Rebased` so callers can track lineage
    /// explicitly instead of losing identity silently.
    ///
    /// Timestamps: when `other` carries none but this frame does, the
    /// timestamp column is extended by the inferred regular step when the
    /// spacing is recognisable; only when it is genuinely unknown are the
    /// timestamps dropped, reported via
    /// [`QualityIssue::DroppedTimestamps`] in the record.
    pub fn append(&mut self, other: &TimeSeriesFrame) -> GrowthRecord {
        assert_eq!(
            self.n_series(),
            other.n_series(),
            "append: series count mismatch"
        );
        let base = self.fingerprint();
        let shared_rows = self.rows;
        let kind = if self.uniquely_owns_full_buffers() {
            GrowthKind::InPlace
        } else {
            self.make_owned();
            GrowthKind::Rebased
        };
        for (col, extra) in self.columns.iter_mut().zip(other.series_iter()) {
            Arc::make_mut(col).extend_from_slice(extra);
        }
        let appended = other.len();
        let timestamp_issue = match (&mut self.timestamps, other.timestamps()) {
            (Some(ts), Some(ots)) => {
                Arc::make_mut(ts).extend_from_slice(ots);
                None
            }
            // `other` is untimestamped: both growth paths above leave the
            // timestamp buffer covering exactly the visible rows (start == 0,
            // len == rows), so the whole buffer is the inference window.
            (Some(ts), None) => match regular_step(ts) {
                Some(step) => {
                    let last = ts.last().copied().unwrap_or(0);
                    Arc::make_mut(ts).extend((1..=appended as i64).map(|i| last + i * step));
                    None
                }
                None => {
                    self.timestamps = None;
                    Some(QualityIssue::DroppedTimestamps(appended))
                }
            },
            _ => None,
        };
        self.rows += appended;
        GrowthRecord {
            base,
            grown: self.fingerprint(),
            kind,
            shared_rows,
            timestamp_issue,
        }
    }

    /// Grow this frame by `new_rows` (row-major, one `Vec` per new sample),
    /// consuming it so unique buffer ownership is detectable — with a `&self`
    /// receiver the receiver itself would keep the `Arc`s alive and in-place
    /// growth could never fire. Returns the grown frame plus its
    /// [`GrowthRecord`]; when the consumed frame was the unique full-buffer
    /// owner the new fingerprint `extends_as_prefix` the old one.
    pub fn extended(self, new_rows: &[Vec<f64>]) -> (Self, GrowthRecord) {
        if new_rows.is_empty() {
            let fp = self.fingerprint();
            let shared_rows = self.rows;
            return (
                self,
                GrowthRecord {
                    base: fp.clone(),
                    grown: fp,
                    kind: GrowthKind::InPlace,
                    shared_rows,
                    timestamp_issue: None,
                },
            );
        }
        let tail = TimeSeriesFrame::from_rows(new_rows);
        let mut grown = self;
        let record = grown.append(&tail);
        (grown, record)
    }

    /// Compact this view into a standalone frame that uniquely owns exactly
    /// the visible rows. Fitted models persist small tails through this so a
    /// few look-back rows never pin the (much larger) training buffers alive
    /// — which would both leak memory and block the in-place growth path of
    /// [`TimeSeriesFrame::append`] on the next observe cycle.
    pub fn into_owned(mut self) -> Self {
        self.make_owned();
        self
    }

    /// True when this view can grow in place: the window covers each buffer
    /// from row 0 to its full length and every `Arc` is uniquely held (no
    /// strong or weak siblings), so extending the `Vec`s is invisible to any
    /// other frame and keeps every buffer address stable.
    fn uniquely_owns_full_buffers(&mut self) -> bool {
        if self.start != 0 {
            return false;
        }
        let rows = self.rows;
        if let Some(ts) = &mut self.timestamps {
            if ts.len() != rows || Arc::get_mut(ts).is_none() {
                return false;
            }
        }
        self.columns
            .iter_mut()
            .all(|col| col.len() == rows && Arc::get_mut(col).is_some())
    }

    /// Convert to row-major nested vectors (user-facing output shape).
    pub fn to_rows(&self) -> Vec<Vec<f64>> {
        (0..self.rows).map(|r| self.row(r)).collect()
    }

    /// True if any visible value is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.series_iter().any(|c| c.iter().any(|v| !v.is_finite()))
    }

    /// True if any visible value is strictly negative (gates log/Box-Cox
    /// transforms).
    pub fn has_negative(&self) -> bool {
        self.series_iter().any(|c| c.iter().any(|&v| v < 0.0))
    }

    /// Identity of this view for memoization: buffer addresses plus window.
    /// See [`FrameFingerprint`] for the guarantees this does and does not
    /// provide.
    pub fn fingerprint(&self) -> FrameFingerprint {
        FrameFingerprint {
            buffers: self
                .columns
                .iter()
                .map(|c| Arc::as_ptr(c) as usize)
                .collect(),
            start: self.start,
            rows: self.rows,
        }
    }

    /// True when this frame shares at least one column buffer with `other`
    /// (i.e. one is a zero-copy view derived from the other). Diagnostic
    /// helper for tests.
    pub fn shares_storage_with(&self, other: &TimeSeriesFrame) -> bool {
        self.columns
            .iter()
            .any(|a| other.columns.iter().any(|b| Arc::ptr_eq(a, b)))
    }

    /// Compact the view into uniquely-owned buffers holding exactly the
    /// visible rows, so subsequent `Arc::make_mut` calls never clone hidden
    /// data and mutations never leak into sibling views.
    fn make_owned(&mut self) {
        let (start, rows) = (self.start, self.rows);
        for col in &mut self.columns {
            if start != 0 || col.len() != rows || Arc::strong_count(col) != 1 {
                *col = Arc::new(col[start..start + rows].to_vec());
            }
        }
        if let Some(ts) = &mut self.timestamps {
            if start != 0 || ts.len() != rows || Arc::strong_count(ts) != 1 {
                *ts = Arc::new(ts[start..start + rows].to_vec());
            }
        }
        self.start = 0;
    }
}

impl PartialEq for TimeSeriesFrame {
    fn eq(&self, other: &Self) -> bool {
        *self.names == *other.names
            && self.rows == other.rows
            && self.n_series() == other.n_series()
            && self.series_iter().eq(other.series_iter())
            && self.timestamps() == other.timestamps()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TimeSeriesFrame {
        TimeSeriesFrame::from_columns(vec![vec![1., 2., 3., 4.], vec![10., 20., 30., 40.]])
    }

    #[test]
    fn shape_accessors() {
        let f = sample();
        assert_eq!(f.len(), 4);
        assert_eq!(f.n_series(), 2);
        assert_eq!(f.series(1), &[10., 20., 30., 40.]);
        assert_eq!(f.row(2), vec![3., 30.]);
    }

    #[test]
    fn from_rows_matches_from_columns() {
        let f = TimeSeriesFrame::from_rows(&[vec![1., 10.], vec![2., 20.]]);
        assert_eq!(f.series(0), &[1., 2.]);
        assert_eq!(f.series(1), &[10., 20.]);
        assert_eq!(f.to_rows(), vec![vec![1., 10.], vec![2., 20.]]);
    }

    #[test]
    fn slicing_and_tail() {
        let f = sample();
        let s = f.slice(1, 3);
        assert_eq!(s.len(), 2);
        assert_eq!(s.series(0), &[2., 3.]);
        let t = f.tail(2);
        assert_eq!(t.series(1), &[30., 40.]);
        // out-of-range slicing clamps
        assert_eq!(f.slice(2, 99).len(), 2);
        assert_eq!(f.tail(99).len(), 4);
    }

    #[test]
    fn slice_is_zero_copy_view() {
        let f = sample();
        let s = f.slice(1, 4);
        assert!(s.shares_storage_with(&f));
        // a slice of a slice still shares the original buffers
        let ss = s.slice(1, 3);
        assert!(ss.shares_storage_with(&f));
        assert_eq!(ss.series(0), &[3., 4.]);
    }

    #[test]
    fn slice_equals_deep_copy() {
        let f = sample().with_regular_timestamps(0, 60);
        let view = f.slice(1, 3);
        let copy = TimeSeriesFrame::from_columns(vec![vec![2., 3.], vec![20., 30.]])
            .with_timestamps(vec![60, 120]);
        assert_eq!(view, copy);
    }

    #[test]
    fn mutation_does_not_leak_into_sibling_views() {
        let mut f = sample();
        let view = f.slice(0, 4);
        f.series_mut(0)[0] = 99.0;
        assert_eq!(f.series(0)[0], 99.0);
        assert_eq!(view.series(0)[0], 1.0);
        assert!(!f.shares_storage_with(&view));
    }

    #[test]
    fn mutating_a_view_does_not_touch_the_parent() {
        let f = sample();
        let mut view = f.slice(1, 3);
        view.series_mut(0)[0] = -5.0;
        assert_eq!(view.series(0), &[-5., 3.]);
        assert_eq!(f.series(0), &[1., 2., 3., 4.]);
    }

    #[test]
    fn fingerprint_tracks_view_windows() {
        let f = sample();
        let a = f.slice(1, 4);
        let b = f.slice(1, 4);
        let c = f.slice(0, 4);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), c.fingerprint());
        // reverse-allocation growth: c ends where a ends but starts earlier
        assert!(c.fingerprint().extends_as_suffix(&a.fingerprint()));
        assert!(!a.fingerprint().extends_as_suffix(&c.fingerprint()));
        // forward growth: a prefix view extended by later rows
        let p_old = f.slice(0, 2);
        let p_new = f.slice(0, 3);
        assert!(p_new.fingerprint().extends_as_prefix(&p_old.fingerprint()));
        // a deep copy has different buffers even with identical data
        let clone = TimeSeriesFrame::from_columns(vec![f.series(0).to_vec(), f.series(1).to_vec()]);
        assert!(!clone.fingerprint().same_buffers(&f.fingerprint()));
    }

    #[test]
    fn timestamps_roundtrip_through_slice() {
        let f = sample().with_regular_timestamps(1000, 60);
        assert_eq!(f.timestamps().unwrap(), &[1000, 1060, 1120, 1180]);
        let s = f.slice(1, 3);
        assert_eq!(s.timestamps().unwrap(), &[1060, 1120]);
    }

    #[test]
    fn with_timestamps_on_a_view_covers_visible_rows() {
        let f = sample();
        let s = f.slice(1, 3).with_timestamps(vec![7, 8]);
        assert_eq!(s.timestamps().unwrap(), &[7, 8]);
        assert_eq!(s.series(0), &[2., 3.]);
    }

    #[test]
    fn append_extends_rows() {
        let mut a = sample();
        let b = sample();
        a.append(&b);
        assert_eq!(a.len(), 8);
        assert_eq!(a.series(0)[4], 1.0);
    }

    #[test]
    fn append_in_place_preserves_buffer_identity() {
        // a freshly built frame uniquely owns its full buffers, so growth
        // must keep every Arc address stable and the fingerprint must extend
        let mut a = sample();
        let base = a.fingerprint();
        let rec = a.append(&sample());
        assert_eq!(rec.kind, GrowthKind::InPlace);
        assert!(rec.identity_preserved());
        assert_eq!(rec.base, base);
        assert_eq!(rec.grown, a.fingerprint());
        assert_eq!(rec.shared_rows, 4);
        assert!(a.fingerprint().extends_as_prefix(&base));
    }

    #[test]
    fn append_rebases_when_a_sibling_view_is_alive() {
        let mut a = sample();
        let view = a.slice(0, 2);
        let rec = a.append(&sample());
        assert_eq!(rec.kind, GrowthKind::Rebased);
        assert!(!rec.identity_preserved());
        assert!(!rec.grown.same_buffers(&rec.base));
        // the sibling view is untouched by the rebase
        assert_eq!(view.series(0), &[1., 2.]);
        assert_eq!(a.len(), 8);
    }

    #[test]
    fn append_to_a_view_copies_on_write() {
        let f = sample();
        let mut v = f.slice(1, 3);
        let rec = v.append(&f.slice(0, 1));
        assert_eq!(rec.kind, GrowthKind::Rebased);
        assert_eq!(v.series(0), &[2., 3., 1.]);
        // the original frame is untouched
        assert_eq!(f.series(0), &[1., 2., 3., 4.]);
    }

    #[test]
    fn append_without_timestamps_extends_by_inferred_step() {
        // the base frame has a recognisable 60s cadence, so untimestamped
        // rows get synthetic timestamps continuing that step
        let mut a = sample().with_regular_timestamps(0, 60);
        let b = sample();
        let rec = a.append(&b);
        assert!(rec.timestamp_issue.is_none());
        let ts = a.timestamps().unwrap();
        assert_eq!(ts.len(), 8);
        assert_eq!(&ts[4..], &[240, 300, 360, 420]);
    }

    #[test]
    fn append_without_timestamps_drops_them_when_spacing_is_unknown() {
        // a single timestamp carries no spacing information, so appending
        // untimestamped rows must drop the column and report it
        let mut a = TimeSeriesFrame::univariate(vec![5.0]).with_timestamps(vec![100]);
        let b = TimeSeriesFrame::univariate(vec![6.0, 7.0]);
        let rec = a.append(&b);
        assert!(a.timestamps().is_none());
        assert_eq!(
            rec.timestamp_issue,
            Some(QualityIssue::DroppedTimestamps(2))
        );
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn append_with_timestamps_extends_them() {
        let mut a = sample().with_regular_timestamps(0, 60);
        let b = sample().with_regular_timestamps(240, 60);
        a.append(&b);
        assert_eq!(a.timestamps().unwrap().len(), 8);
        assert_eq!(a.timestamps().unwrap()[4], 240);
    }

    #[test]
    fn extended_grows_in_place_and_links_lineage() {
        let f = sample();
        let base = f.fingerprint();
        let (g, rec) = f.extended(&[vec![5., 50.], vec![6., 60.]]);
        assert_eq!(rec.kind, GrowthKind::InPlace);
        assert!(g.fingerprint().extends_as_prefix(&base));
        assert_eq!(g.series(0), &[1., 2., 3., 4., 5., 6.]);
        assert_eq!(g.series(1), &[10., 20., 30., 40., 50., 60.]);
        assert_eq!(rec.shared_rows, 4);
    }

    #[test]
    fn extended_with_no_rows_is_identity() {
        let f = sample();
        let fp = f.fingerprint();
        let (g, rec) = f.extended(&[]);
        assert_eq!(g.fingerprint(), fp);
        assert_eq!(rec.base, rec.grown);
        assert_eq!(rec.kind, GrowthKind::InPlace);
    }

    #[test]
    fn extended_rebases_when_shared_and_records_it() {
        let f = sample();
        let holder = f.clone(); // keeps the Arcs alive
        let (g, rec) = f.extended(&[vec![5., 50.]]);
        assert_eq!(rec.kind, GrowthKind::Rebased);
        assert!(!rec.grown.same_buffers(&rec.base));
        assert_eq!(holder.series(0), &[1., 2., 3., 4.]);
        assert_eq!(g.len(), 5);
    }

    #[test]
    fn select_isolates_one_series() {
        let f = sample();
        let u = f.select(1);
        assert_eq!(u.n_series(), 1);
        assert_eq!(u.series(0), &[10., 20., 30., 40.]);
        // select is also zero-copy
        assert!(u.shares_storage_with(&f));
    }

    #[test]
    fn negative_and_non_finite_detection() {
        let mut f = sample();
        assert!(!f.has_negative());
        assert!(!f.has_non_finite());
        f.series_mut(0)[1] = -1.0;
        assert!(f.has_negative());
        f.series_mut(1)[0] = f64::NAN;
        assert!(f.has_non_finite());
    }

    #[test]
    fn non_finite_outside_the_view_is_invisible() {
        let mut base = sample();
        base.series_mut(0)[0] = f64::NAN;
        let v = base.slice(1, 4);
        assert!(!v.has_non_finite());
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_columns_rejected() {
        let _ = TimeSeriesFrame::from_columns(vec![vec![1.], vec![1., 2.]]);
    }

    #[test]
    fn empty_frame() {
        let f = TimeSeriesFrame::from_columns(Vec::new());
        assert!(f.is_empty());
        assert_eq!(f.n_series(), 0);
    }
}
