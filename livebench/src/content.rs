//! Seeded file contents and the checks that every byte read back is the
//! byte last written.
//!
//! Written data is never stored twice: every write's bytes are a slice
//! of one seeded random buffer, chosen by hashing what was written
//! where. The expected contents of any range can then be rebuilt from a
//! version number per unit (RAID5 workloads) or from the workload's
//! write list and cycle number (Hybrid workload).

use csar_cluster::File;
use csar_core::CsarError;
use csar_store::SplitMix64;
use std::sync::atomic::{AtomicU32, Ordering};

/// Size of the seeded buffer every write's content is sliced from.
const PATTERN_BYTES: usize = 4 << 20;

/// Reads a full-file verification issues at a time.
pub const VERIFY_CHUNK: u64 = 1 << 20;

/// Stateless 64-bit mix of two values (SplitMix64 finalizer).
pub fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(31);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seeded byte source all written contents are sliced from.
pub struct Pattern {
    bytes: Vec<u8>,
}

impl Pattern {
    /// The pattern for `seed`.
    pub fn new(seed: u64) -> Self {
        let mut bytes = vec![0u8; PATTERN_BYTES];
        SplitMix64::new(mix(seed, 0x7061_7474)).fill_bytes(&mut bytes);
        Self { bytes }
    }

    /// The `len` content bytes named by `key`.
    ///
    /// # Panics
    /// Panics if `len` exceeds the pattern size.
    pub fn content(&self, key: u64, len: u64) -> &[u8] {
        let len = len as usize;
        assert!(
            len <= PATTERN_BYTES,
            "content of {len} bytes exceeds the pattern"
        );
        let start = (key % (PATTERN_BYTES - len + 1) as u64) as usize;
        &self.bytes[start..start + len]
    }
}

/// Something that knows what a file should hold.
pub trait Expected: Sync {
    /// Whether `got`, read at `off`, is exactly the expected content.
    fn matches(&self, off: u64, got: &[u8]) -> bool;
}

/// Expected contents of a file made of fixed-size units, each holding
/// the content of its latest version. Each unit has one writer, so the
/// versions need no ordering beyond their own.
pub struct UnitShadow<'p> {
    pattern: &'p Pattern,
    unit: u64,
    versions: Vec<AtomicU32>,
}

impl<'p> UnitShadow<'p> {
    /// A shadow of `units` units of `unit` bytes, all at version 0.
    pub fn new(pattern: &'p Pattern, unit: u64, units: u64) -> Self {
        Self {
            pattern,
            unit,
            versions: (0..units).map(|_| AtomicU32::new(0)).collect(),
        }
    }

    /// Number of units.
    pub fn units(&self) -> u64 {
        self.versions.len() as u64
    }

    /// Content of unit `idx` at `version`.
    pub fn content(&self, idx: u64, version: u32) -> &'p [u8] {
        self.pattern
            .content(mix(idx, u64::from(version)), self.unit)
    }

    /// Content of unit `idx` as it should read now.
    pub fn current(&self, idx: u64) -> &'p [u8] {
        self.content(idx, self.versions[idx as usize].load(Ordering::Relaxed))
    }

    /// The next version of unit `idx` and its content; becomes current
    /// once [`UnitShadow::commit`] is called.
    pub fn next(&self, idx: u64) -> (u32, &'p [u8]) {
        let v = self.versions[idx as usize]
            .load(Ordering::Relaxed)
            .wrapping_add(1);
        (v, self.content(idx, v))
    }

    /// Record that unit `idx` now holds `version`.
    pub fn commit(&self, idx: u64, version: u32) {
        self.versions[idx as usize].store(version, Ordering::Relaxed);
    }

    /// The current contents of units `first..first + n`, contiguous.
    pub fn current_range(&self, first: u64, n: u64) -> Vec<u8> {
        let mut out = Vec::with_capacity((n * self.unit) as usize);
        for idx in first..first + n {
            out.extend_from_slice(self.current(idx));
        }
        out
    }
}

impl Expected for UnitShadow<'_> {
    fn matches(&self, off: u64, got: &[u8]) -> bool {
        if !off.is_multiple_of(self.unit) {
            return false;
        }
        let first = off / self.unit;
        got.chunks(self.unit as usize).enumerate().all(|(i, c)| {
            let idx = first + i as u64;
            idx < self.units() && self.current(idx).get(..c.len()) == Some(c)
        })
    }
}

/// Expected contents of one Hybrid file after a whole checkpoint cycle:
/// every write of the cycle holds its cycle's content, every gap reads
/// as zeros.
pub struct CycleImage<'p> {
    pattern: &'p Pattern,
    file: u64,
    /// Writes as sorted, non-overlapping `(off, len)`.
    writes: &'p [(u64, u64)],
    cycle: u64,
}

impl<'p> CycleImage<'p> {
    /// The image of file `file` whose writes are `writes` (sorted,
    /// non-overlapping), as of cycle `cycle`.
    pub fn new(pattern: &'p Pattern, file: u64, writes: &'p [(u64, u64)], cycle: u64) -> Self {
        Self {
            pattern,
            file,
            writes,
            cycle,
        }
    }

    /// Content of the write at `off` of `len` bytes in `cycle`.
    pub fn content(pattern: &'p Pattern, file: u64, off: u64, len: u64, cycle: u64) -> &'p [u8] {
        pattern.content(mix(mix(file, off), cycle), len)
    }
}

impl Expected for CycleImage<'_> {
    fn matches(&self, off: u64, got: &[u8]) -> bool {
        let end = off + got.len() as u64;
        let mut pos = off;
        let first = self.writes.partition_point(|(o, l)| o + l <= off);
        for &(wo, wl) in &self.writes[first..] {
            if wo >= end {
                break;
            }
            let gap_end = wo.max(pos);
            if got[(pos - off) as usize..(gap_end - off) as usize]
                .iter()
                .any(|&b| b != 0)
            {
                return false;
            }
            let seg_start = wo.max(off);
            let seg_end = (wo + wl).min(end);
            let want = Self::content(self.pattern, self.file, wo, wl, self.cycle);
            let want = &want[(seg_start - wo) as usize..(seg_end - wo) as usize];
            if &got[(seg_start - off) as usize..(seg_end - off) as usize] != want {
                return false;
            }
            pos = seg_end;
        }
        got[(pos - off) as usize..].iter().all(|&b| b == 0)
    }
}

/// Read `size` bytes of `file` back in [`VERIFY_CHUNK`] reads and count
/// the reads that fail or differ from `expected`.
pub fn verify_file(file: &File, size: u64, expected: &dyn Expected) -> (u64, u64) {
    let mut attempted = 0;
    let mut failed = 0;
    let mut off = 0;
    while off < size {
        let len = VERIFY_CHUNK.min(size - off);
        attempted += 1;
        match file.read_at(off, len) {
            Ok(got) if expected.matches(off, &got) => {}
            Ok(_) | Err(_) => failed += 1,
        }
        off += len;
    }
    (attempted, failed)
}

/// Whether a read result is present and matches.
pub fn read_ok(res: &Result<Vec<u8>, CsarError>, off: u64, expected: &dyn Expected) -> bool {
    matches!(res, Ok(got) if expected.matches(off, got))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_shadow_tracks_versions() {
        let p = Pattern::new(1);
        let s = UnitShadow::new(&p, 4096, 8);
        let (v, data) = s.next(3);
        assert!(!s.matches(3 * 4096, data));
        s.commit(3, v);
        assert!(s.matches(3 * 4096, data));
        assert!(s.matches(0, &s.current_range(0, 8)));
        assert!(!s.matches(1, &data[..10]));
    }

    #[test]
    fn cycle_image_checks_writes_and_gaps() {
        let p = Pattern::new(2);
        let writes = [(10, 20), (40, 5)];
        let img = CycleImage::new(&p, 0, &writes, 3);
        let mut file = vec![0u8; 45];
        file[10..30].copy_from_slice(CycleImage::content(&p, 0, 10, 20, 3));
        file[40..45].copy_from_slice(CycleImage::content(&p, 0, 40, 5, 3));
        assert!(img.matches(0, &file));
        assert!(img.matches(15, &file[15..42]));
        let mut bad = file.clone();
        bad[35] = 1;
        assert!(!img.matches(0, &bad));
        bad = file.clone();
        bad[12] ^= 0xFF;
        assert!(!img.matches(0, &bad));
    }
}
