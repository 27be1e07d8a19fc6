//! Traffic shapes: mixed read/write request streams with a tunable
//! read fraction — the access pattern replication is judged under.
//!
//! Where [`crate::traces`] generates *write* histories for differential
//! testing, a shape generates what a front-end actually sees: mostly
//! point reads and a trickle of writes over a uniform key domain.  The
//! stock preset is [`read_mostly`] (the read-replica scenario driving
//! experiment E13).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One step of a traffic shape, against a `(key, payload)` relation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShapeOp {
    /// Point-read of `key`.
    Read {
        /// The key to look up.
        key: u64,
    },
    /// Write (insert) of `key`.
    Write {
        /// The key to write.
        key: u64,
    },
}

/// Parameters of [`traffic`].
#[derive(Clone, Copy, Debug)]
pub struct ShapeParams {
    /// Total operations in the stream.
    pub ops: usize,
    /// Key domain: keys are drawn from `0..keys`.
    pub keys: u64,
    /// Out of 100: how often a step is a [`ShapeOp::Read`].
    pub read_percent: u32,
}

/// The read-replica scenario: 95% point reads over a uniform key
/// domain, 5% writes.  This is the shape experiment E13 serves from
/// followers while the write trickle lands on the primary.
pub fn read_mostly(ops: usize, keys: u64) -> ShapeParams {
    ShapeParams {
        ops,
        keys,
        read_percent: 95,
    }
}

/// Generates a deterministic traffic stream for the given shape.
pub fn traffic(params: ShapeParams, seed: u64) -> Vec<ShapeOp> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..params.ops)
        .map(|_| {
            let key = rng.gen_range(0..params.keys);
            if rng.gen_range(0u32..100) < params.read_percent {
                ShapeOp::Read { key }
            } else {
                ShapeOp::Write { key }
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traffic_is_deterministic_and_in_range() {
        let params = read_mostly(512, 64);
        let a = traffic(params, 9);
        let b = traffic(params, 9);
        assert_eq!(a, b);
        assert_eq!(a.len(), 512);
        for op in &a {
            let (ShapeOp::Read { key } | ShapeOp::Write { key }) = op;
            assert!(*key < 64);
        }
    }

    #[test]
    fn read_mostly_is_mostly_reads() {
        let ops = traffic(read_mostly(2000, 64), 3);
        let reads = ops
            .iter()
            .filter(|op| matches!(op, ShapeOp::Read { .. }))
            .count();
        // 95% nominal; allow generous sampling slack.
        assert!(
            (0.90..=0.99).contains(&(reads as f64 / ops.len() as f64)),
            "read fraction off: {reads}/{}",
            ops.len()
        );
    }
}
