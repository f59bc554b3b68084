//! The hostile-input driver every decoder table runs under: each strict
//! prefix of a valid image must be refused, each single-byte flip must be
//! refused wherever a checksum covers the byte, and no probe may panic or
//! ask the allocator for more than a small multiple of the bytes it was
//! handed — a lying count field must never size an allocation. Runs in the
//! dev profile, so an unchecked offset add is a panic, not a wrap.
//!
//! Included by `prkb-core`'s `codec_hardening` suite and `prkb-server`'s
//! `wire_hardening`; the including binary gets the counting allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::ops::Range;

/// One decoder under test.
pub struct Case<'a> {
    name: String,
    /// An image the decoder accepts.
    image: Vec<u8>,
    /// The bytes no checksum covers: a flip there may decode to another
    /// valid value, so it only has to be handled, not refused.
    pub unchecked: Range<usize>,
    accepts: Accepts<'a>,
}

/// Whether the decoder accepts these bytes.
type Accepts<'a> = Box<dyn Fn(&[u8]) -> bool + 'a>;

impl<'a> Case<'a> {
    /// A format whose checksums cover every byte.
    pub fn sealed(name: &str, image: Vec<u8>, accepts: impl Fn(&[u8]) -> bool + 'a) -> Self {
        Case {
            name: name.to_string(),
            image,
            unchecked: 0..0,
            accepts: Box::new(accepts),
        }
    }

    /// A format with no checksum of its own (its carrier frames it).
    pub fn raw(name: &str, image: Vec<u8>, accepts: impl Fn(&[u8]) -> bool + 'a) -> Self {
        Case {
            unchecked: 0..image.len(),
            ..Self::sealed(name, image, accepts)
        }
    }

    /// Runs the decoder once, refusing an oversized allocation. In-memory
    /// elements are wider than their wire form (a decoded WAL entry is ~8×
    /// its 10 wire bytes), so the bound is a multiple, plus room for paths
    /// and messages.
    fn probe(&self, bytes: &[u8], what: &str) -> bool {
        LARGEST.set(Some(0));
        let accepted = (self.accepts)(bytes);
        let largest = LARGEST.replace(None).expect("armed above");
        assert!(
            largest <= 64 * bytes.len() + 4096,
            "{}: {what} ({} bytes) made the decoder allocate {largest} bytes at once",
            self.name,
            bytes.len()
        );
        accepted
    }
}

pub fn assert_hostile_inputs_are_refused(cases: &[Case<'_>]) {
    for case in cases {
        let (name, image) = (&case.name, &case.image);
        eprintln!("hostile inputs: {name} ({} bytes)", image.len());
        assert!(case.probe(image, "the valid image"), "{name}: valid image");
        for cut in 0..image.len() {
            let accepted = case.probe(&image[..cut], &format!("prefix {cut}"));
            assert!(!accepted, "{name}: strict prefix {cut} was accepted");
        }
        for at in 0..image.len() {
            let covered = !case.unchecked.contains(&at);
            for mask in [0x01u8, 0xFF] {
                let mut bad = image.clone();
                bad[at] ^= mask;
                let accepted = case.probe(&bad, &format!("flip {mask:#04x} at {at}"));
                assert!(
                    !(covered && accepted),
                    "{name}: flip {mask:#04x} at checksummed byte {at} was accepted"
                );
            }
        }
    }
}

thread_local! {
    /// The largest single allocation this thread requested since a probe
    /// armed it; `None` outside a probe.
    static LARGEST: Cell<Option<usize>> = const { Cell::new(None) };
}

struct CountingAlloc;

impl CountingAlloc {
    fn note(size: usize) {
        // `try_with`: the allocator also runs while a thread tears down.
        let _ = LARGEST.try_with(|largest| largest.set(largest.get().map(|seen| seen.max(size))));
    }
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract (`alloc_zeroed` defaults to `alloc`); `note` only
// touches a const-initialized thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        // SAFETY: the caller's obligations are passed through as they came.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::note(new_size);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;
