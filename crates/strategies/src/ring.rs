//! A flow-controlled chunk ring between two DSM nodes.
//!
//! Both parallel heuristic strategies move border data from a producer
//! node to a consumer node through shared memory, synchronized by a pair
//! of condition variables (the JIAJIA pattern of §4.2: "processor 0 ...
//! writes this value on the shared memory and signals processor 1, which
//! is waiting on a condition variable"). [`ChunkRing`] generalizes that
//! one-slot protocol to a ring of `capacity` slots of `slot_len` elements:
//!
//! * strategy 1 (no blocking factors) uses `capacity = 1, slot_len = 1` —
//!   each border value is passed individually;
//! * strategy 2 (blocking factors) uses one slot per block of a band —
//!   border rows travel as chunks, amortizing the synchronization.
//!
//! The condition variables count (semaphore semantics), so producer and
//! consumer may be the same node (single-processor degenerate runs).

use genomedsm_dsm::{DsmData, GlobalVec, Node};

/// One directional ring between a fixed producer and consumer node.
///
/// SPMD usage: *all* nodes construct the ring identically (the allocation
/// is collective); only the producer calls [`ChunkRing::push`] and only
/// the consumer calls [`ChunkRing::pop`].
#[derive(Debug)]
pub struct ChunkRing<T: DsmData> {
    slots: GlobalVec<T>,
    slot_len: usize,
    capacity: usize,
    data_cv: u32,
    ack_cv: u32,
    /// Producer-side: sequence of the next chunk to write.
    seq_prod: u64,
    /// Producer-side: free slots remaining before a wait is needed.
    credits: usize,
    /// Consumer-side: sequence of the next chunk to read.
    seq_cons: u64,
}

impl<T: DsmData + Copy> ChunkRing<T> {
    /// Collectively allocates a ring of `capacity` slots of `slot_len`
    /// elements, homed on `home` (normally the producer), using condition
    /// variables `data_cv` and `ack_cv` (must be globally unique).
    pub fn new(
        node: &mut Node,
        capacity: usize,
        slot_len: usize,
        home: usize,
        data_cv: u32,
        ack_cv: u32,
    ) -> Self {
        assert!(capacity >= 1 && slot_len >= 1, "degenerate ring");
        assert_ne!(data_cv, ack_cv, "cv ids must differ");
        let slots = node.alloc_vec_on::<T>(capacity * slot_len, home);
        Self {
            slots,
            slot_len,
            capacity,
            data_cv,
            ack_cv,
            seq_prod: 0,
            credits: capacity,
            seq_cons: 0,
        }
    }

    /// Producer: writes `data` (at most `slot_len` elements) into the next
    /// slot and signals the consumer. Blocks while the ring is full.
    pub fn push(&mut self, node: &mut Node, data: &[T]) {
        assert!(data.len() <= self.slot_len, "chunk exceeds slot");
        if self.credits == 0 {
            node.waitcv(self.ack_cv);
            self.credits += 1;
        }
        self.credits -= 1;
        let base = (self.seq_prod as usize % self.capacity) * self.slot_len;
        node.vec_write_range(&self.slots, base, data);
        node.setcv(self.data_cv); // release: flush diffs, carry notices
        self.seq_prod += 1;
    }

    /// Consumer: waits for the next chunk and reads `len` elements from it,
    /// then acknowledges the slot.
    pub fn pop(&mut self, node: &mut Node, len: usize) -> Vec<T> {
        assert!(len <= self.slot_len, "read exceeds slot");
        node.waitcv(self.data_cv); // acquire: invalidate noticed pages
        let base = (self.seq_cons as usize % self.capacity) * self.slot_len;
        let out = node.vec_read_range(&self.slots, base..base + len);
        node.setcv(self.ack_cv);
        self.seq_cons += 1;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use genomedsm_dsm::{DsmConfig, DsmSystem};

    #[test]
    fn single_slot_ring_passes_values_in_order() {
        let run = DsmSystem::run(DsmConfig::new(2), |node| {
            let mut ring = ChunkRing::<i64>::new(node, 1, 1, 0, 0, 1);
            node.barrier();
            let mut got = Vec::new();
            if node.id() == 0 {
                for i in 0..50 {
                    ring.push(node, &[i * 7]);
                }
            } else {
                for _ in 0..50 {
                    got.push(ring.pop(node, 1)[0]);
                }
            }
            node.barrier();
            got
        });
        let expect: Vec<i64> = (0..50).map(|i| i * 7).collect();
        assert_eq!(run.results[1], expect);
    }

    #[test]
    fn multi_slot_ring_pipelines() {
        let run = DsmSystem::run(DsmConfig::new(2), |node| {
            let mut ring = ChunkRing::<i32>::new(node, 4, 8, 0, 0, 1);
            node.barrier();
            let mut sum = 0i64;
            if node.id() == 0 {
                for c in 0..20 {
                    let chunk: Vec<i32> = (0..8).map(|k| c * 8 + k).collect();
                    ring.push(node, &chunk);
                }
            } else {
                for _ in 0..20 {
                    sum += ring.pop(node, 8).iter().map(|&x| x as i64).sum::<i64>();
                }
            }
            node.barrier();
            sum
        });
        assert_eq!(run.results[1], (0..160i64).sum::<i64>());
    }

    #[test]
    fn self_ring_works_when_capacity_suffices() {
        // Single node produces a whole "band" then consumes it (the P=1
        // degenerate case of the blocked strategy).
        let run = DsmSystem::run(DsmConfig::new(1), |node| {
            let mut ring = ChunkRing::<i32>::new(node, 8, 4, 0, 0, 1);
            node.barrier();
            for c in 0..8 {
                ring.push(node, &[c, c + 1, c + 2, c + 3]);
            }
            let mut total = 0;
            for _ in 0..8 {
                total += ring.pop(node, 4).iter().sum::<i32>();
            }
            node.barrier();
            total
        });
        assert_eq!(run.results[0], (0..8).map(|c| 4 * c + 6).sum::<i32>());
    }

    #[test]
    fn short_chunks_allowed() {
        let run = DsmSystem::run(DsmConfig::new(2), |node| {
            let mut ring = ChunkRing::<i32>::new(node, 2, 10, 0, 4, 5);
            node.barrier();
            let v = if node.id() == 0 {
                ring.push(node, &[1, 2, 3]);
                Vec::new()
            } else {
                ring.pop(node, 3)
            };
            node.barrier();
            v
        });
        assert_eq!(run.results[1], vec![1, 2, 3]);
    }
}
