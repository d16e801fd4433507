//! Instrumented containers whose element accesses are charged to the
//! asymmetric large-memory counters automatically.
//!
//! For tight inner loops the algorithm crates mostly charge costs in bulk
//! with [`crate::counters::record_reads`]/[`record_writes`] (cheaper and
//! easier to match against the paper's analysis line by line), but for data
//! structures whose access pattern *is* the interesting quantity —
//! tree-node arrays, the Delaunay mesh's triangle pool — routing accesses
//! through [`TrackedVec`] keeps the accounting honest by construction.

use crate::counters::{record_read, record_reads, record_write, record_writes};

/// A `Vec<T>` whose element reads and writes are charged to the
/// asymmetric-memory counters.
///
/// Only *element* accesses performed through the tracking methods are
/// charged; length queries and iteration bookkeeping are free (they model
/// values living in registers / small-memory).
#[derive(Debug, Clone, Default)]
pub struct TrackedVec<T> {
    data: Vec<T>,
}

impl<T> TrackedVec<T> {
    /// An empty tracked vector (no cost).
    pub fn new() -> Self {
        TrackedVec { data: Vec::new() }
    }

    /// An empty tracked vector with reserved capacity (no cost — allocation
    /// itself is not a memory-cell write in the model).
    pub fn with_capacity(cap: usize) -> Self {
        TrackedVec {
            data: Vec::with_capacity(cap),
        }
    }

    /// Build from an existing vector, charging one write per element
    /// (the elements must have been materialized in large memory).
    pub fn from_vec_charged(data: Vec<T>) -> Self {
        record_writes(data.len() as u64);
        TrackedVec { data }
    }

    /// Build from an existing vector without charging (for inputs that are
    /// considered already resident, e.g. the problem input itself).
    pub fn from_vec_free(data: Vec<T>) -> Self {
        TrackedVec { data }
    }

    /// Number of elements (free).
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the vector is empty (free).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Read element `i`, charging one read.
    #[inline]
    pub fn read(&self, i: usize) -> &T {
        record_read();
        &self.data[i]
    }

    /// Read element `i` by value, charging one read.
    #[inline]
    pub fn get(&self, i: usize) -> T
    where
        T: Copy,
    {
        record_read();
        self.data[i]
    }

    /// Write element `i`, charging one write.
    #[inline]
    pub fn write(&mut self, i: usize, value: T) {
        record_write();
        self.data[i] = value;
    }

    /// Append an element, charging one write.
    #[inline]
    pub fn push(&mut self, value: T) {
        record_write();
        self.data.push(value);
    }

    /// Read a contiguous range, charging one read per element.
    pub fn read_range(&self, start: usize, end: usize) -> &[T] {
        record_reads((end - start) as u64);
        &self.data[start..end]
    }

    /// Mutable access without charging — for callers that account in bulk.
    pub fn as_mut_slice_untracked(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Shared access without charging — for callers that account in bulk.
    pub fn as_slice_untracked(&self) -> &[T] {
        &self.data
    }

    /// Consume into the underlying vector (free).
    pub fn into_inner(self) -> Vec<T> {
        self.data
    }

    /// Charge `n` extra reads against this structure (bulk accounting hook).
    pub fn charge_reads(&self, n: u64) {
        record_reads(n);
    }

    /// Charge `n` extra writes against this structure (bulk accounting hook).
    pub fn charge_writes(&self, n: u64) {
        record_writes(n);
    }
}

impl<T> From<Vec<T>> for TrackedVec<T> {
    fn from(data: Vec<T>) -> Self {
        TrackedVec::from_vec_free(data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::CounterSnapshot;

    #[test]
    fn element_accesses_are_charged() {
        let before = CounterSnapshot::now();
        let mut v = TrackedVec::with_capacity(4);
        v.push(1u32);
        v.push(2);
        v.push(3);
        let a = v.get(0);
        let b = *v.read(2);
        v.write(1, 9);
        let after = CounterSnapshot::now();
        let (reads, writes) = after.since(&before);
        assert_eq!(a, 1);
        assert_eq!(b, 3);
        assert!(reads >= 2);
        assert!(writes >= 4); // 3 pushes + 1 write
        assert_eq!(v.as_slice_untracked(), &[1, 9, 3]);
    }

    #[test]
    fn from_vec_charged_charges_per_element() {
        let before = CounterSnapshot::now();
        let v = TrackedVec::from_vec_charged(vec![0u8; 100]);
        let after = CounterSnapshot::now();
        let (_, writes) = after.since(&before);
        assert_eq!(v.len(), 100);
        assert!(writes >= 100);
    }

    #[test]
    fn from_vec_free_is_free() {
        let before = CounterSnapshot::now();
        let v = TrackedVec::from_vec_free(vec![0u8; 1000]);
        let after = CounterSnapshot::now();
        let (_, writes) = after.since(&before);
        // Other tests may run concurrently; we can only check it did not add
        // 1000 writes of its own under single-test execution, so check len.
        assert_eq!(v.len(), 1000);
        let _ = writes;
    }

    #[test]
    fn read_range_charges_length() {
        let v = TrackedVec::from_vec_free((0..50u32).collect());
        let before = CounterSnapshot::now();
        let slice = v.read_range(10, 30);
        let after = CounterSnapshot::now();
        assert_eq!(slice.len(), 20);
        let (reads, _) = after.since(&before);
        assert!(reads >= 20);
    }
}
