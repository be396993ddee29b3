//! Virtual block-device timing: converts IO *work* (bytes, fsyncs) into
//! virtual *time*.
//!
//! The durable-storage layer under the SQL engine is hermetic and clockless:
//! it counts bytes written/read and fsyncs issued. Node actors feed those
//! counters through a [`DiskModel`] and charge the result to their
//! single-server queue (`Ctx::consume`), so WAL appends, checkpoint writes,
//! and recovery scans all cost simulated wall-clock — which is what makes
//! the MTTR numbers in the recovery experiments honest rather than modeled.

/// Linear disk timing model. Defaults approximate a mid-range datacenter
/// SSD: ~128 MB/s sequential writes, ~256 MB/s reads, 400 µs per fsync
/// (flush barrier + FTL commit).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiskModel {
    /// Microseconds to write 1 KiB sequentially.
    pub write_us_per_kib: u64,
    /// Microseconds to read 1 KiB sequentially.
    pub read_us_per_kib: u64,
    /// Microseconds per fsync barrier.
    pub fsync_us: u64,
}

impl Default for DiskModel {
    fn default() -> Self {
        DiskModel { write_us_per_kib: 8, read_us_per_kib: 4, fsync_us: 400 }
    }
}

impl DiskModel {
    /// Virtual microseconds for a batch of IO work. Partial KiBs round up
    /// per batch (a short WAL append still touches a whole block).
    pub fn io_us(&self, bytes_written: u64, bytes_read: u64, fsyncs: u64) -> u64 {
        let kib_up = |b: u64| b.div_ceil(1024);
        let mut us = 0u64;
        if bytes_written > 0 {
            us += kib_up(bytes_written) * self.write_us_per_kib;
        }
        if bytes_read > 0 {
            us += kib_up(bytes_read) * self.read_us_per_kib;
        }
        us + fsyncs * self.fsync_us
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_work_is_free() {
        assert_eq!(DiskModel::default().io_us(0, 0, 0), 0);
    }

    #[test]
    fn batches_round_up_per_block() {
        let d = DiskModel::default();
        assert_eq!(d.io_us(1, 0, 0), d.write_us_per_kib);
        assert_eq!(d.io_us(1024, 0, 0), d.write_us_per_kib);
        assert_eq!(d.io_us(1025, 0, 0), 2 * d.write_us_per_kib);
        assert_eq!(d.io_us(0, 2048, 1), 2 * d.read_us_per_kib + d.fsync_us);
    }
}
