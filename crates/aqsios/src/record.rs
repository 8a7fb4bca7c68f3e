//! Records and predicates.

use std::sync::Arc;

/// A stream record: a flat vector of integer fields.
///
/// Fields are `i64` — enough for identifiers, fixed-point prices, sensor
/// readings and timestamps; the scheduling layer never interprets them.
/// A clone shares the fields (`Arc`-backed), so a record, and an emission
/// that carries one, can cross threads. The count is atomic, though: one
/// arrival fans out to every registered query on its stream, and the
/// [`crate::Dsms`] queues those copies as `Rc` references to one record
/// instead of one clone each. A select hands its input on uncopied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    fields: Arc<[i64]>,
}

impl Record {
    /// A record with the given fields.
    pub fn new(fields: Vec<i64>) -> Self {
        Record {
            fields: fields.into(),
        }
    }

    /// The field values.
    pub fn fields(&self) -> &[i64] {
        &self.fields
    }

    /// Field at `index`, if present.
    pub fn get(&self, index: usize) -> Option<i64> {
        self.fields.get(index).copied()
    }

    /// Number of fields.
    pub fn arity(&self) -> usize {
        self.fields.len()
    }

    /// Keep only the given fields, in order (projection). Missing indexes
    /// are dropped silently — projections are validated at registration.
    pub fn project(&self, keep: &[usize]) -> Record {
        let fields = &*self.fields;
        if keep.iter().all(|&i| i < fields.len()) {
            // Exact size: one allocation, straight into the `Arc`.
            Record {
                fields: keep.iter().map(|&i| fields[i]).collect(),
            }
        } else {
            Record::new(keep.iter().filter_map(|&i| self.get(i)).collect())
        }
    }

    /// Concatenate two records (join output).
    pub fn concat(&self, other: &Record) -> Record {
        let mut fields = Vec::with_capacity(self.arity() + other.arity());
        fields.extend_from_slice(self.fields());
        fields.extend_from_slice(other.fields());
        Record::new(fields)
    }
}

impl From<Vec<i64>> for Record {
    fn from(fields: Vec<i64>) -> Self {
        Record::new(fields)
    }
}

/// Comparison operators for predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    /// `field < value`
    Lt,
    /// `field ≤ value`
    Le,
    /// `field > value`
    Gt,
    /// `field ≥ value`
    Ge,
    /// `field = value`
    Eq,
    /// `field ≠ value`
    Ne,
}

/// A single-field comparison predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Predicate {
    /// Field index the predicate reads.
    pub field: usize,
    /// Comparison operator.
    pub cmp: Cmp,
    /// Right-hand constant.
    pub value: i64,
}

impl Predicate {
    /// Build a predicate `record[field] <cmp> value`.
    pub fn new(field: usize, cmp: Cmp, value: i64) -> Self {
        Predicate { field, cmp, value }
    }

    /// Evaluate on a record; records lacking the field fail the predicate.
    pub fn eval(&self, record: &Record) -> bool {
        let Some(v) = record.get(self.field) else {
            return false;
        };
        match self.cmp {
            Cmp::Lt => v < self.value,
            Cmp::Le => v <= self.value,
            Cmp::Gt => v > self.value,
            Cmp::Ge => v >= self.value,
            Cmp::Eq => v == self.value,
            Cmp::Ne => v != self.value,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn record_accessors() {
        let r = Record::new(vec![10, 20, 30]);
        assert_eq!(r.arity(), 3);
        assert_eq!(r.get(1), Some(20));
        assert_eq!(r.get(9), None);
        assert_eq!(r.fields(), &[10, 20, 30]);
    }

    #[test]
    fn projection_and_concat() {
        let r = Record::new(vec![1, 2, 3, 4]);
        assert_eq!(r.project(&[3, 0]).fields(), &[4, 1]);
        assert_eq!(r.project(&[9]).arity(), 0);
        let s = Record::new(vec![7]);
        assert_eq!(r.concat(&s).fields(), &[1, 2, 3, 4, 7]);
    }

    #[test]
    fn predicate_operators() {
        let r = Record::new(vec![5]);
        assert!(Predicate::new(0, Cmp::Lt, 6).eval(&r));
        assert!(Predicate::new(0, Cmp::Le, 5).eval(&r));
        assert!(Predicate::new(0, Cmp::Gt, 4).eval(&r));
        assert!(Predicate::new(0, Cmp::Ge, 5).eval(&r));
        assert!(Predicate::new(0, Cmp::Eq, 5).eval(&r));
        assert!(Predicate::new(0, Cmp::Ne, 6).eval(&r));
        assert!(!Predicate::new(0, Cmp::Lt, 5).eval(&r));
        assert!(!Predicate::new(0, Cmp::Eq, 6).eval(&r));
        // Missing field fails closed.
        assert!(!Predicate::new(3, Cmp::Eq, 5).eval(&r));
    }

    #[test]
    fn records_share_storage_on_clone() {
        let r = Record::new(vec![1; 1000]);
        let c = r.clone();
        assert_eq!(r, c);
        assert!(std::ptr::eq(r.fields().as_ptr(), c.fields().as_ptr()));
    }

    proptest! {
        #[test]
        fn lt_and_ge_partition(v in any::<i64>(), bound in any::<i64>()) {
            let r = Record::new(vec![v]);
            let lt = Predicate::new(0, Cmp::Lt, bound).eval(&r);
            let ge = Predicate::new(0, Cmp::Ge, bound).eval(&r);
            prop_assert!(lt ^ ge);
        }

        #[test]
        fn projection_preserves_values(
            fields in proptest::collection::vec(any::<i64>(), 1..8),
            extra in proptest::collection::vec(0usize..12, 0..6),
        ) {
            let r = Record::new(fields.clone());
            let keep: Vec<usize> = (0..fields.len()).rev().collect();
            let p = r.project(&keep);
            for (out_idx, &src_idx) in keep.iter().enumerate() {
                prop_assert_eq!(p.get(out_idx), Some(fields[src_idx]));
            }
            // Indexes past the arity take the filtering path; in range or
            // not, the result is the kept fields that exist, in order.
            let keep: Vec<usize> = keep.into_iter().chain(extra).collect();
            let want: Vec<i64> = keep.iter().filter_map(|&i| fields.get(i).copied()).collect();
            prop_assert_eq!(r.project(&keep), Record::new(want));
        }
    }
}
