//! Aggregate accumulators with System R SQL semantics.
//!
//! * `NULL` inputs are ignored by every function.
//! * `COUNT(col)` counts non-null values; `COUNT(*)` counts rows.
//! * Over the empty set, `COUNT` yields `0` and everything else yields
//!   `NULL` — the asymmetry at the heart of the paper's COUNT bug.
//! * `SUM`/`AVG` stay integral over integer inputs (`AVG` divides as float).
//! * Float `SUM`/`AVG` is the *correctly rounded* exact sum ([`ExactSum`]),
//!   so serial folds and parallel merges agree bit-for-bit at any split.

use crate::error::EngineError;
use crate::Result;
use nsql_sql::AggFunc;
use nsql_types::Value;

/// Exact float accumulator: a non-overlapping expansion of partial doubles
/// maintained with Knuth's two-sum error-free transform (Shewchuk's
/// grow-expansion, the algorithm behind CPython's `math.fsum`). The
/// partials together represent the *exact* real-number sum of everything
/// added, so [`ExactSum::value`] — the nearest double to that exact sum —
/// is independent of insertion order and of how the input was split across
/// accumulators before [`ExactSum::absorb`].
#[derive(Debug, Clone, Default)]
pub struct ExactSum {
    partials: Vec<f64>,
    /// Plain sum of non-finite inputs; ±∞/NaN dominate the result and
    /// combine associatively among themselves, so order still cannot matter.
    non_finite: Option<f64>,
}

impl ExactSum {
    /// Add one double exactly.
    pub fn add(&mut self, mut x: f64) {
        if !x.is_finite() {
            self.non_finite = Some(self.non_finite.unwrap_or(0.0) + x);
            return;
        }
        let mut i = 0;
        for j in 0..self.partials.len() {
            let mut y = self.partials[j];
            if x.abs() < y.abs() {
                std::mem::swap(&mut x, &mut y);
            }
            let hi = x + y;
            let lo = y - (hi - x);
            if lo != 0.0 {
                self.partials[i] = lo;
                i += 1;
            }
            x = hi;
        }
        self.partials.truncate(i);
        self.partials.push(x);
    }

    /// Add an i64 exactly, split into two halves that each convert to f64
    /// without rounding.
    pub fn add_i64(&mut self, v: i64) {
        let hi = (v >> 32) as f64 * 4_294_967_296.0; // exact: |v>>32| ≤ 2^31
        let lo = (v & 0xFFFF_FFFF) as f64; // exact: < 2^32
        self.add(hi);
        self.add(lo);
    }

    /// Fold another accumulator in. Because each side's partials are an
    /// exact representation of its inputs, the combined exact sum — and
    /// therefore [`ExactSum::value`] — equals the single-accumulator result
    /// no matter where the input was split.
    pub fn absorb(&mut self, other: &ExactSum) {
        if let Some(nf) = other.non_finite {
            self.non_finite = Some(self.non_finite.unwrap_or(0.0) + nf);
        }
        for &p in &other.partials {
            self.add(p);
        }
    }

    /// The correctly rounded double value of the exact sum, with the fsum
    /// half-ulp correction for exact round-to-even ties.
    pub fn value(&self) -> f64 {
        if let Some(nf) = self.non_finite {
            return nf + self.partials.iter().sum::<f64>();
        }
        let n = self.partials.len();
        if n == 0 {
            return 0.0;
        }
        let mut i = n - 1;
        let mut hi = self.partials[i];
        let mut lo = 0.0;
        while i > 0 {
            i -= 1;
            let x = hi;
            let y = self.partials[i];
            hi = x + y;
            lo = y - (hi - x);
            if lo != 0.0 {
                break;
            }
        }
        // If rounding (hi, lo) landed exactly halfway and the next partial
        // pulls further in lo's direction, round away from hi.
        if i > 0
            && ((lo < 0.0 && self.partials[i - 1] < 0.0)
                || (lo > 0.0 && self.partials[i - 1] > 0.0))
        {
            let y = lo * 2.0;
            let x = hi + y;
            if y == x - hi {
                hi = x;
            }
        }
        hi
    }
}

/// Accumulator for one aggregate.
#[derive(Debug, Clone)]
pub struct AggState {
    func: AggFunc,
    /// Count of accumulated (non-null, unless `COUNT(*)`) inputs.
    count: i64,
    /// Running integer sum, always exact (overflow is a typed error).
    int_sum: i64,
    /// Exact sum of the float inputs.
    floats: ExactSum,
    /// Whether any float input was seen (controls SUM's output type).
    saw_float: bool,
    /// Current extremum for MIN/MAX.
    extremum: Value,
}

impl AggState {
    /// Fresh accumulator for `func`.
    pub fn new(func: AggFunc) -> AggState {
        AggState {
            func,
            count: 0,
            int_sum: 0,
            floats: ExactSum::default(),
            saw_float: false,
            extremum: Value::Null,
        }
    }

    /// Feed one input value. For `COUNT(*)` callers pass a non-null marker
    /// (use [`AggState::accumulate_row`]).
    pub fn accumulate(&mut self, v: &Value) -> Result<()> {
        if v.is_null() {
            return Ok(());
        }
        self.count += 1;
        match self.func {
            AggFunc::Count => {}
            AggFunc::Sum | AggFunc::Avg => match v {
                Value::Int(i) => {
                    self.int_sum = self.int_sum.checked_add(*i).ok_or_else(|| {
                        EngineError::Overflow(format!("{} over i64", self.func.name()))
                    })?;
                }
                Value::Float(x) => {
                    self.saw_float = true;
                    self.floats.add(*x);
                }
                _ => {
                    return Err(EngineError::Type(nsql_types::TypeError::BadOperand(
                        format!("{}({})", self.func.name(), v),
                    )))
                }
            },
            AggFunc::Max => {
                if self.extremum.is_null()
                    || v.sql_cmp(&self.extremum)? == Some(std::cmp::Ordering::Greater)
                {
                    self.extremum = v.clone();
                }
            }
            AggFunc::Min => {
                if self.extremum.is_null()
                    || v.sql_cmp(&self.extremum)? == Some(std::cmp::Ordering::Less)
                {
                    self.extremum = v.clone();
                }
            }
        }
        Ok(())
    }

    /// Feed one *row* for `COUNT(*)`.
    pub fn accumulate_row(&mut self) {
        self.count += 1;
    }

    /// Fold another accumulator over the same function into this one, as if
    /// `other`'s inputs had been accumulated here after this one's own.
    ///
    /// This is what parallel aggregation uses to join the two halves of a
    /// group split across a morsel boundary. Every aggregate is exact:
    /// integer sums are checked i64 arithmetic, and float sums keep an
    /// [`ExactSum`] expansion, so the merged result is bit-identical to the
    /// serial fold wherever the boundary falls.
    pub fn merge(&mut self, other: &AggState) -> Result<()> {
        debug_assert_eq!(self.func, other.func, "merging mismatched aggregates");
        if other.count == 0 {
            return Ok(());
        }
        match self.func {
            AggFunc::Count => {}
            AggFunc::Sum | AggFunc::Avg => {
                self.int_sum = self.int_sum.checked_add(other.int_sum).ok_or_else(|| {
                    EngineError::Overflow(format!("{} over i64", self.func.name()))
                })?;
                self.floats.absorb(&other.floats);
                self.saw_float |= other.saw_float;
            }
            AggFunc::Max => {
                if self.extremum.is_null()
                    || other.extremum.sql_cmp(&self.extremum)? == Some(std::cmp::Ordering::Greater)
                {
                    self.extremum = other.extremum.clone();
                }
            }
            AggFunc::Min => {
                if self.extremum.is_null()
                    || other.extremum.sql_cmp(&self.extremum)? == Some(std::cmp::Ordering::Less)
                {
                    self.extremum = other.extremum.clone();
                }
            }
        }
        self.count += other.count;
        Ok(())
    }

    /// Correctly rounded total of the float partials plus the (exact)
    /// integer side.
    fn exact_total(&self) -> f64 {
        let mut s = self.floats.clone();
        s.add_i64(self.int_sum);
        s.value()
    }

    /// Final value of the aggregate.
    pub fn finish(&self) -> Value {
        if self.count == 0 {
            return self.func.empty_value();
        }
        match self.func {
            AggFunc::Count => Value::Int(self.count),
            AggFunc::Sum => {
                if self.saw_float {
                    Value::Float(self.exact_total())
                } else {
                    Value::Int(self.int_sum)
                }
            }
            AggFunc::Avg => {
                let total =
                    if self.saw_float { self.exact_total() } else { self.int_sum as f64 };
                Value::Float(total / self.count as f64)
            }
            AggFunc::Max | AggFunc::Min => self.extremum.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(func: AggFunc, vals: &[Value]) -> Value {
        let mut s = AggState::new(func);
        for v in vals {
            s.accumulate(v).unwrap();
        }
        s.finish()
    }

    #[test]
    fn count_of_empty_is_zero_others_null() {
        assert_eq!(run(AggFunc::Count, &[]), Value::Int(0));
        assert_eq!(run(AggFunc::Max, &[]), Value::Null);
        assert_eq!(run(AggFunc::Min, &[]), Value::Null);
        assert_eq!(run(AggFunc::Sum, &[]), Value::Null);
        assert_eq!(run(AggFunc::Avg, &[]), Value::Null);
    }

    #[test]
    fn nulls_are_ignored() {
        let vals = [Value::Int(3), Value::Null, Value::Int(5)];
        assert_eq!(run(AggFunc::Count, &vals), Value::Int(2));
        assert_eq!(run(AggFunc::Sum, &vals), Value::Int(8));
        assert_eq!(run(AggFunc::Max, &vals), Value::Int(5));
        assert_eq!(run(AggFunc::Min, &vals), Value::Int(3));
    }

    #[test]
    fn all_null_input_behaves_like_empty() {
        let vals = [Value::Null, Value::Null];
        assert_eq!(run(AggFunc::Count, &vals), Value::Int(0));
        assert_eq!(run(AggFunc::Max, &vals), Value::Null);
        assert_eq!(run(AggFunc::Sum, &vals), Value::Null);
    }

    #[test]
    fn count_star_counts_rows() {
        let mut s = AggState::new(AggFunc::Count);
        s.accumulate_row();
        s.accumulate_row();
        assert_eq!(s.finish(), Value::Int(2));
    }

    #[test]
    fn avg_divides_as_float() {
        let vals = [Value::Int(1), Value::Int(2)];
        assert_eq!(run(AggFunc::Avg, &vals), Value::Float(1.5));
    }

    #[test]
    fn sum_promotes_to_float_on_mixed_input() {
        let vals = [Value::Int(1), Value::Float(0.5)];
        assert_eq!(run(AggFunc::Sum, &vals), Value::Float(1.5));
        let vals = [Value::Float(0.5), Value::Int(1)];
        assert_eq!(run(AggFunc::Sum, &vals), Value::Float(1.5));
    }

    #[test]
    fn max_min_work_on_dates_and_strings() {
        let d1 = Value::date("7-3-79").unwrap();
        let d2 = Value::date("1-1-80").unwrap();
        assert_eq!(run(AggFunc::Max, &[d1, d2.clone()]), d2);
        assert_eq!(run(AggFunc::Min, &[Value::str("b"), Value::str("a")]), Value::str("a"));
    }

    #[test]
    fn merge_equals_sequential_accumulation() {
        // Splitting any input at any point and merging must match the
        // one-pass fold (exactly, for integer inputs).
        let vals: Vec<Value> = vec![
            Value::Int(5),
            Value::Null,
            Value::Int(-2),
            Value::Int(9),
            Value::Int(9),
            Value::Null,
            Value::Int(0),
        ];
        for func in [AggFunc::Count, AggFunc::Sum, AggFunc::Avg, AggFunc::Max, AggFunc::Min] {
            for split in 0..=vals.len() {
                let mut a = AggState::new(func);
                for v in &vals[..split] {
                    a.accumulate(v).unwrap();
                }
                let mut b = AggState::new(func);
                for v in &vals[split..] {
                    b.accumulate(v).unwrap();
                }
                a.merge(&b).unwrap();
                assert_eq!(a.finish(), run(func, &vals), "{func:?} split at {split}");
            }
        }
    }

    #[test]
    fn merge_promotes_mixed_int_float_sums() {
        let mut a = AggState::new(AggFunc::Sum);
        a.accumulate(&Value::Int(1)).unwrap();
        let mut b = AggState::new(AggFunc::Sum);
        b.accumulate(&Value::Float(0.5)).unwrap();
        a.merge(&b).unwrap();
        assert_eq!(a.finish(), Value::Float(1.5));

        let mut c = AggState::new(AggFunc::Sum);
        c.accumulate(&Value::Float(2.5)).unwrap();
        let mut d = AggState::new(AggFunc::Sum);
        d.accumulate(&Value::Int(4)).unwrap();
        c.merge(&d).unwrap();
        assert_eq!(c.finish(), Value::Float(6.5));
    }

    #[test]
    fn merge_with_empty_side_is_identity() {
        for func in [AggFunc::Count, AggFunc::Sum, AggFunc::Max] {
            let mut a = AggState::new(func);
            a.accumulate(&Value::Int(3)).unwrap();
            let before = a.finish();
            a.merge(&AggState::new(func)).unwrap();
            assert_eq!(a.finish(), before, "{func:?}: merging empty changes nothing");

            let mut e = AggState::new(func);
            let mut b = AggState::new(func);
            b.accumulate(&Value::Int(3)).unwrap();
            e.merge(&b).unwrap();
            assert_eq!(e.finish(), b.finish(), "{func:?}: empty absorbs other");
        }
    }

    #[test]
    fn sum_of_string_errors() {
        let mut s = AggState::new(AggFunc::Sum);
        assert!(s.accumulate(&Value::str("x")).is_err());
    }

    #[test]
    fn int_sum_overflow_is_a_typed_error() {
        let mut s = AggState::new(AggFunc::Sum);
        s.accumulate(&Value::Int(i64::MAX)).unwrap();
        match s.accumulate(&Value::Int(1)) {
            Err(EngineError::Overflow(_)) => {}
            other => panic!("expected Overflow, got {other:?}"),
        }
        // … and the same through merge.
        let mut a = AggState::new(AggFunc::Sum);
        a.accumulate(&Value::Int(i64::MAX)).unwrap();
        let mut b = AggState::new(AggFunc::Sum);
        b.accumulate(&Value::Int(1)).unwrap();
        assert!(matches!(a.merge(&b), Err(EngineError::Overflow(_))));
    }

    /// Floats chosen so naive left-to-right and right-to-left summation give
    /// different doubles — the exact accumulator must not care.
    const TRICKY: [f64; 8] = [1e16, 0.1, -1e16, 0.1, 3.25, 1e-9, -0.30000000000000004, 2.5e-15];

    #[test]
    fn float_merge_is_bit_identical_at_every_split() {
        let vals: Vec<Value> = TRICKY.iter().copied().map(Value::Float).collect();
        for func in [AggFunc::Sum, AggFunc::Avg] {
            let serial = run(func, &vals);
            let Value::Float(serial) = serial else { panic!("float expected") };
            for split in 0..=vals.len() {
                let mut a = AggState::new(func);
                for v in &vals[..split] {
                    a.accumulate(v).unwrap();
                }
                let mut b = AggState::new(func);
                for v in &vals[split..] {
                    b.accumulate(v).unwrap();
                }
                a.merge(&b).unwrap();
                let Value::Float(merged) = a.finish() else { panic!("float expected") };
                assert_eq!(
                    merged.to_bits(),
                    serial.to_bits(),
                    "{func:?} split at {split}: {merged:?} != {serial:?}"
                );
            }
        }
    }

    #[test]
    fn mixed_int_float_merge_is_bit_identical_and_correctly_rounded() {
        let vals = [
            Value::Float(0.1),
            Value::Int(1_000_000_007),
            Value::Float(0.2),
            Value::Int(-3),
            Value::Float(-0.25),
        ];
        let Value::Float(serial) = run(AggFunc::Sum, &vals) else { panic!() };
        for split in 0..=vals.len() {
            let mut a = AggState::new(AggFunc::Sum);
            for v in &vals[..split] {
                a.accumulate(v).unwrap();
            }
            let mut b = AggState::new(AggFunc::Sum);
            for v in &vals[split..] {
                b.accumulate(v).unwrap();
            }
            a.merge(&b).unwrap();
            let Value::Float(merged) = a.finish() else { panic!() };
            assert_eq!(merged.to_bits(), serial.to_bits(), "split at {split}");
        }
        // Spot-check correct rounding: the exact sum of the inputs is
        // 1000000004 + (0.1 + 0.2 - 0.25 exactly), and the nearest double
        // to it is unique.
        let mut exact = ExactSum::default();
        for x in [0.1, 0.2, -0.25] {
            exact.add(x);
        }
        exact.add_i64(1_000_000_004);
        assert_eq!(serial.to_bits(), exact.value().to_bits());
    }

    #[test]
    fn exact_sum_handles_non_finite_inputs() {
        let mut s = ExactSum::default();
        s.add(f64::INFINITY);
        s.add(1.0);
        assert_eq!(s.value(), f64::INFINITY);
        let mut t = ExactSum::default();
        t.add(f64::NEG_INFINITY);
        s.absorb(&t);
        assert!(s.value().is_nan(), "∞ + -∞ is NaN regardless of split");
    }

    #[test]
    fn exact_sum_is_order_independent() {
        let mut fwd = ExactSum::default();
        for x in TRICKY {
            fwd.add(x);
        }
        let mut rev = ExactSum::default();
        for x in TRICKY.iter().rev() {
            rev.add(*x);
        }
        assert_eq!(fwd.value().to_bits(), rev.value().to_bits());
    }
}
