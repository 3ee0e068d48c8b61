//! Multi-column tables and general aggregation — enough relational surface to
//! express the paper's end-to-end queries plus the selective scans that
//! motivate vector-granular compression.

use alp_core::Scratch;

use crate::{for_each_set_bit, trusted, Column, Format};

/// Supported aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Aggregate {
    /// Sum of values (NaNs propagate, as in IEEE).
    Sum,
    /// Minimum value (NaNs skipped).
    Min,
    /// Maximum value (NaNs skipped).
    Max,
    /// Number of values.
    Count,
    /// Arithmetic mean.
    Avg,
}

/// Min/max accumulator with explicit emptiness: input with no valid (non-NaN)
/// values stays `None` — never a ±inf sentinel. Both aggregate paths fold
/// through this one helper, so MIN and MAX cannot drift apart again. Ties
/// keep the earlier value, matching `alp_core::scan_values`' fold.
#[derive(Debug, Clone, Copy, Default)]
struct MinMax {
    min: Option<f64>,
    max: Option<f64>,
}

impl MinMax {
    /// Folds one value; NaNs are invalid and never compared.
    #[inline]
    fn update(&mut self, x: f64) {
        if x.is_nan() {
            return;
        }
        self.min = Some(match self.min {
            Some(m) if m <= x => m,
            _ => x,
        });
        self.max = Some(match self.max {
            Some(m) if m >= x => m,
            _ => x,
        });
    }

    /// Folds every valid value of `values` through a per-chunk validity word
    /// — the same 64-bit bitmap layout the fused scan produces — so NaN-dense
    /// chunks cost one popcount-style walk instead of a branch per value.
    fn update_valid(&mut self, values: &[f64]) {
        for chunk in values.chunks(64) {
            let mut word = 0u64;
            for (i, &x) in chunk.iter().enumerate() {
                word |= ((!x.is_nan()) as u64) << i;
            }
            for_each_set_bit(&[word], |i| self.update(chunk[i]));
        }
    }
}

impl Column {
    /// Computes an aggregate over the whole column, vector-at-a-time.
    ///
    /// `None` means the aggregate is undefined: MIN/MAX over a column with no
    /// valid (non-NaN) values, or AVG of an empty column. Sentinel infinities
    /// never leak out of an all-invalid page.
    pub fn try_aggregate(&self, agg: Aggregate) -> Option<f64> {
        let mut sum = 0.0f64;
        let mut minmax = MinMax::default();
        let mut count = 0usize;
        let all = 0..self.zone_maps().len();
        trusted(self.try_walk(
            all,
            |_| true,
            &mut Scratch::new(),
            |_, live| {
                count += live.len();
                match agg {
                    Aggregate::Sum | Aggregate::Avg => {
                        sum += alp::sum_decoded(live, None, false).sum
                    }
                    Aggregate::Min | Aggregate::Max => minmax.update_valid(live),
                    Aggregate::Count => {}
                }
            },
        ));
        match agg {
            Aggregate::Sum => Some(sum),
            Aggregate::Min => minmax.min,
            Aggregate::Max => minmax.max,
            Aggregate::Count => Some(count as f64),
            Aggregate::Avg => {
                if count == 0 {
                    None
                } else {
                    Some(sum / count as f64)
                }
            }
        }
    }
}

/// A named collection of equal-length columns.
pub struct Table {
    columns: Vec<(String, Column)>,
    rows: usize,
}

/// Errors from table construction and queries.
#[derive(Debug, PartialEq, Eq)]
pub enum TableError {
    /// Column lengths differ.
    LengthMismatch {
        /// Name of the offending column.
        column: String,
        /// Its length.
        len: usize,
        /// Expected length.
        expected: usize,
    },
    /// No column with the requested name.
    NoSuchColumn(String),
}

impl core::fmt::Display for TableError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            TableError::LengthMismatch { column, len, expected } => {
                write!(f, "column {column:?} has {len} rows, expected {expected}")
            }
            TableError::NoSuchColumn(name) => write!(f, "no column named {name:?}"),
        }
    }
}

impl std::error::Error for TableError {}

impl Table {
    /// Builds a table, compressing each `(name, data)` pair with `format`.
    pub fn from_columns(columns: Vec<(&str, Vec<f64>, Format)>) -> Result<Self, TableError> {
        let rows = columns.first().map(|(_, d, _)| d.len()).unwrap_or(0);
        let mut built = Vec::with_capacity(columns.len());
        for (name, data, format) in columns {
            if data.len() != rows {
                return Err(TableError::LengthMismatch {
                    column: name.to_string(),
                    len: data.len(),
                    expected: rows,
                });
            }
            built.push((name.to_string(), Column::from_f64(&data, format)));
        }
        Ok(Self { columns: built, rows })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Looks up a column by name.
    pub fn column(&self, name: &str) -> Result<&Column, TableError> {
        self.columns
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, c)| c)
            .ok_or_else(|| TableError::NoSuchColumn(name.to_string()))
    }

    /// `SELECT agg(target) WHERE lo <= filter <= hi` — filter on one column,
    /// aggregate another, touching only the target vectors that contain
    /// matches (vector-granular push-down across columns).
    pub fn aggregate_where(
        &self,
        target: &str,
        agg: Aggregate,
        filter: &str,
        lo: f64,
        hi: f64,
    ) -> Result<FilteredAggregate, TableError> {
        let filter_col = self.column(filter)?;
        let target_col = self.column(target)?;

        let mut sum = 0.0f64;
        let mut minmax = MinMax::default();
        let mut count = 0usize;
        let mut vectors_touched = 0usize;

        // Pass 1 — the filter column's selection: hit words (one bit per
        // row; NaNs fail both comparisons, so hit bits are valid bits) of
        // every vector with at least one match, in vector order.
        let all = 0..filter_col.zone_maps().len();
        let mut scratch = Scratch::new();
        let mut selected = Vec::new();
        trusted(filter_col.try_scan_range(all.clone(), lo, hi, &mut scratch, |v, scan| {
            if scan.matches > 0 {
                selected.push((v, scan.hits));
            }
        }));
        // Pass 2 — the target column, decompressing only the vectors that
        // hold matches (the walker visits them in the same ascending order).
        let wanted = |v: usize| selected.binary_search_by_key(&v, |(sv, _)| *sv).is_ok();
        let mut selection = selected.iter();
        trusted(target_col.try_walk(all, wanted, &mut scratch, |_, values| {
            let Some((_, hits)) = selection.next() else { return };
            vectors_touched += 1;
            for_each_set_bit(hits, |i| {
                let t = values[i];
                count += 1;
                sum += t;
                minmax.update(t);
            });
        }));

        let value = match agg {
            Aggregate::Sum => sum,
            // All-invalid selections are undefined, surfaced as NaN here (the
            // scalar slot has no `None`) — never a ±inf sentinel.
            Aggregate::Min => minmax.min.unwrap_or(f64::NAN),
            Aggregate::Max => minmax.max.unwrap_or(f64::NAN),
            Aggregate::Count => count as f64,
            Aggregate::Avg => {
                if count == 0 {
                    f64::NAN
                } else {
                    sum / count as f64
                }
            }
        };
        Ok(FilteredAggregate { value, matches: count, vectors_touched })
    }
}

/// Result of [`Table::aggregate_where`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FilteredAggregate {
    /// The aggregate value.
    pub value: f64,
    /// Matching rows.
    pub matches: usize,
    /// Target-column vectors that were actually decompressed.
    pub vectors_touched: usize,
}

#[cfg(test)]
mod tests {
    use fastlanes::VECTOR_SIZE;

    use super::*;

    fn test_table() -> Table {
        let n = 300_000;
        let time: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let price: Vec<f64> = (0..n).map(|i| ((i * 7) % 1000) as f64 / 100.0).collect();
        Table::from_columns(vec![("time", time, Format::alp()), ("price", price, Format::alp())])
            .unwrap()
    }

    #[test]
    fn aggregates_match_reference() {
        let data: Vec<f64> = (0..50_000).map(|i| ((i % 997) as f64) / 10.0).collect();
        let col = Column::from_f64(&data, Format::alp());
        let aggregate = |agg| col.try_aggregate(agg).unwrap();
        assert_eq!(aggregate(Aggregate::Count), data.len() as f64);
        let sum: f64 = data.iter().sum();
        assert!((aggregate(Aggregate::Sum) - sum).abs() < sum.abs() * 1e-12);
        assert_eq!(aggregate(Aggregate::Min), 0.0);
        assert_eq!(aggregate(Aggregate::Max), 99.6);
        let avg = sum / data.len() as f64;
        assert!((aggregate(Aggregate::Avg) - avg).abs() < 1e-9);
    }

    #[test]
    fn min_max_of_all_invalid_pages_is_none_not_infinities() {
        // Every value NaN: MIN/MAX are undefined, not ±inf sentinels.
        let col = Column::from_f64(&vec![f64::NAN; 2 * VECTOR_SIZE], Format::alp());
        assert_eq!(col.try_aggregate(Aggregate::Min), None);
        assert_eq!(col.try_aggregate(Aggregate::Max), None);
        // Count stays defined; Avg of NaNs is a defined (NaN) mean.
        assert_eq!(col.try_aggregate(Aggregate::Count), Some((2 * VECTOR_SIZE) as f64));

        // Empty column: MIN/MAX and AVG are undefined.
        let empty = Column::from_f64(&[], Format::alp());
        assert_eq!(empty.try_aggregate(Aggregate::Min), None);
        assert_eq!(empty.try_aggregate(Aggregate::Max), None);
        assert_eq!(empty.try_aggregate(Aggregate::Avg), None);
        assert_eq!(empty.try_aggregate(Aggregate::Sum), Some(0.0));
    }

    #[test]
    fn min_max_skip_nans_but_keep_live_values() {
        let mut data: Vec<f64> = (0..3000).map(|i| (i % 100) as f64).collect();
        data[0] = f64::NAN;
        data[1500] = f64::NAN;
        let col = Column::from_f64(&data, Format::alp());
        assert_eq!(col.try_aggregate(Aggregate::Min), Some(0.0));
        assert_eq!(col.try_aggregate(Aggregate::Max), Some(99.0));
    }

    #[test]
    fn aggregate_where_over_all_nan_targets_is_nan_not_infinite() {
        let n = 2 * VECTOR_SIZE;
        let time: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let price = vec![f64::NAN; n];
        let t = Table::from_columns(vec![
            ("time", time, Format::alp()),
            ("price", price, Format::alp()),
        ])
        .unwrap();
        let r = t.aggregate_where("price", Aggregate::Min, "time", 0.0, 100.0).unwrap();
        assert_eq!(r.matches, 101);
        assert!(r.value.is_nan(), "all-NaN selection must not yield +inf, got {}", r.value);
        let r = t.aggregate_where("price", Aggregate::Max, "time", 0.0, 100.0).unwrap();
        assert!(r.value.is_nan(), "all-NaN selection must not yield -inf, got {}", r.value);
    }

    #[test]
    fn table_rejects_mismatched_lengths() {
        let result = Table::from_columns(vec![
            ("a", vec![1.0; 10], Format::alp()),
            ("b", vec![1.0; 11], Format::alp()),
        ]);
        assert!(matches!(result, Err(TableError::LengthMismatch { .. })));
    }

    #[test]
    fn aggregate_where_filters_on_sorted_column() {
        let t = test_table();
        // Rows 100_000..=100_999 selected via the sorted time column.
        let r = t.aggregate_where("price", Aggregate::Count, "time", 100_000.0, 100_999.0).unwrap();
        assert_eq!(r.matches, 1000);
        // Sorted filter + vector granularity: only 1-2 vectors touched.
        assert!(r.vectors_touched <= 2, "{}", r.vectors_touched);

        let reference: f64 = (100_000..=100_999).map(|i| ((i * 7) % 1000) as f64 / 100.0).sum();
        let s = t.aggregate_where("price", Aggregate::Sum, "time", 100_000.0, 100_999.0).unwrap();
        assert!((s.value - reference).abs() < 1e-9, "{} vs {reference}", s.value);
    }

    #[test]
    fn aggregate_where_unknown_column() {
        let t = test_table();
        assert!(matches!(
            t.aggregate_where("nope", Aggregate::Sum, "time", 0.0, 1.0),
            Err(TableError::NoSuchColumn(_))
        ));
    }

    #[test]
    fn filter_indices_match_predicate() {
        let data: Vec<f64> = (0..10_000).map(|i| i as f64).collect();
        let col = Column::from_f64(&data, Format::alp());
        let ids = col.filter_indices(5000.0, 5004.0);
        assert_eq!(ids, vec![5000, 5001, 5002, 5003, 5004]);
    }
}
