//! Segregated size classes for the untyped malloc front-end
//! ([`crate::global`]).
//!
//! The typed pools key their magazines by `T`; a `GlobalAlloc` only sees a
//! [`std::alloc::Layout`], so the front-end re-keys the same machinery by
//! *size class*: 28 classes from 16 B to 4 KiB, spaced so worst-case
//! internal fragmentation stays under ~25% (16-byte steps up to 128 B,
//! then geometric-ish steps — the spacing Kenwright's fixed-size pools and
//! tcmalloc-family allocators converge on). Anything larger than
//! `MAX_CLASS_BYTES`, or needing alignment above `CLASS_ALIGN`, passes
//! through to the system allocator untouched.
//!
//! Lookup is a 256-entry `u8` table indexed by `(size - 1) / 16`, built at
//! compile time — no loops or branches beyond the passthrough guard on the
//! allocation fast path.

/// Number of segregated size classes.
pub(crate) const NUM_CLASSES: usize = 28;

/// Largest request served from a class; bigger allocations pass through.
pub(crate) const MAX_CLASS_BYTES: usize = 4096;

/// Alignment every class block provides. Requests demanding more pass
/// through (class blocks are carved at 16-byte strides, so 16 is the
/// strongest guarantee the carve can make for free).
pub(crate) const CLASS_ALIGN: usize = 16;

/// Block size of each class, ascending.
pub const CLASS_BYTES: [usize; NUM_CLASSES] = [
    16, 32, 48, 64, 80, 96, 112, 128, // 16-byte steps: the small-object hot zone
    160, 192, 224, 256, // 32-byte steps
    320, 384, 448, 512, // 64-byte steps
    640, 768, 896, 1024, // 128-byte steps
    1280, 1536, 1792, 2048, // 256-byte steps
    2560, 3072, 3584, 4096, // 512-byte steps
];

/// `LUT[(size - 1) / 16]` = smallest class whose block fits `size`.
const LUT: [u8; MAX_CLASS_BYTES / CLASS_ALIGN] = {
    let mut lut = [0u8; MAX_CLASS_BYTES / CLASS_ALIGN];
    let mut i = 0;
    while i < lut.len() {
        let size = (i + 1) * CLASS_ALIGN;
        let mut c = 0;
        while CLASS_BYTES[c] < size {
            c += 1;
        }
        lut[i] = c as u8;
        i += 1;
    }
    lut
};

/// Map a request to its size class, or `None` for a system passthrough
/// (too big, zero-sized, or over-aligned).
#[inline]
pub fn class_for(size: usize, align: usize) -> Option<usize> {
    if size == 0 || size > MAX_CLASS_BYTES || align > CLASS_ALIGN {
        return None;
    }
    // Class blocks sit on 16-byte strides, so any power-of-two alignment
    // up to CLASS_ALIGN is satisfied by every block.
    Some(LUT[(size - 1) / CLASS_ALIGN] as usize)
}

/// Block size of class `class`.
#[inline]
pub(crate) fn class_bytes(class: usize) -> usize {
    CLASS_BYTES[class]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_small_size_maps_to_a_fitting_class() {
        for size in 1..=MAX_CLASS_BYTES {
            let c = class_for(size, 8).expect("sizes <= MAX_CLASS_BYTES are classed");
            assert!(
                class_bytes(c) >= size,
                "size {size} mapped to class {c} ({} B) which is too small",
                class_bytes(c)
            );
            // Tight: the class below (if any) must NOT fit, i.e. we picked
            // the smallest sufficient class.
            if c > 0 {
                assert!(
                    class_bytes(c - 1) < size,
                    "size {size} should map to class {} ({} B), not {c}",
                    c - 1,
                    class_bytes(c - 1)
                );
            }
        }
    }

    #[test]
    fn classes_are_monotone_in_request_size() {
        let mut prev = 0usize;
        for size in 1..=MAX_CLASS_BYTES {
            let c = class_for(size, 1).unwrap();
            assert!(c >= prev, "class regressed at size {size}: {prev} -> {c}");
            prev = c;
        }
        assert_eq!(prev, NUM_CLASSES - 1, "the last size must hit the last class");
    }

    #[test]
    fn class_table_is_strictly_increasing_and_16_aligned() {
        for w in CLASS_BYTES.windows(2) {
            assert!(w[0] < w[1]);
        }
        for &b in &CLASS_BYTES {
            assert_eq!(b % CLASS_ALIGN, 0, "class size {b} not a multiple of CLASS_ALIGN");
        }
        assert_eq!(CLASS_BYTES[NUM_CLASSES - 1], MAX_CLASS_BYTES);
    }

    #[test]
    fn passthrough_boundary_is_exact() {
        // The largest classed request...
        assert_eq!(class_for(MAX_CLASS_BYTES, CLASS_ALIGN), Some(NUM_CLASSES - 1));
        // ...and one byte past it passes through.
        assert_eq!(class_for(MAX_CLASS_BYTES + 1, 8), None);
        // Zero-sized requests never reach a class (std's Global handles
        // them with dangling pointers before the allocator is called).
        assert_eq!(class_for(0, 1), None);
    }

    #[test]
    fn over_aligned_requests_pass_through() {
        // At or below CLASS_ALIGN: served from a class.
        for align in [1usize, 2, 4, 8, 16] {
            assert!(class_for(64, align).is_some(), "align {align} must be classed");
        }
        // Above CLASS_ALIGN: passthrough even for tiny sizes.
        for align in [32usize, 64, 128, 4096] {
            assert_eq!(class_for(64, align), None, "align {align} must pass through");
            assert_eq!(class_for(16, align), None);
        }
    }

    #[test]
    fn fragmentation_stays_bounded() {
        // Spacing sanity: above the 16-byte-step zone no request wastes
        // more than 25% of its block (inside it the fixed 16 B quantum
        // dominates, e.g. a 17 B request in a 32 B block).
        for size in 128..=MAX_CLASS_BYTES {
            let c = class_for(size, 8).unwrap();
            let waste = class_bytes(c) - size;
            assert!(
                (waste as f64) <= 0.25 * class_bytes(c) as f64 + f64::EPSILON,
                "size {size}: block {} wastes {waste}",
                class_bytes(c)
            );
        }
    }
}
