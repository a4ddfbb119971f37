//! Opt-in memory accounting via a tracking global allocator.
//!
//! Built with the `alloc-track` feature, `TrackingAllocator` wraps the
//! system allocator and maintains two process-wide atomics: the bytes
//! currently live and a high-water mark. The binary opts in by
//! installing it:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: bfly_telemetry::mem::TrackingAllocator =
//!     bfly_telemetry::mem::TrackingAllocator;
//! ```
//!
//! Every query function below is compiled unconditionally so call sites
//! need no `cfg` guards: without the feature (or without the allocator
//! installed) [`tracking_active`] is `false` and the getters return 0.
//!
//! Caveats (see docs/OBSERVABILITY.md): the counters are process-wide,
//! so per-span peak attribution charges concurrent workers' allocations
//! to whichever span is open on the recording thread; the watermark
//! protocol ([`reset_peak`]/[`restore_peak`]) is only coherent when one
//! recorder scopes spans at a time. Numbers are requested bytes, not
//! allocator-internal overhead.

#[cfg(feature = "alloc-track")]
mod imp {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    pub static CURRENT: AtomicU64 = AtomicU64::new(0);
    pub static PEAK: AtomicU64 = AtomicU64::new(0);
    pub static INSTALLED: AtomicU64 = AtomicU64::new(0);

    /// Forwarding allocator that maintains `CURRENT`/`PEAK`.
    pub struct TrackingAllocator;

    impl TrackingAllocator {
        #[inline]
        fn grow(n: usize) {
            INSTALLED.store(1, Ordering::Relaxed);
            let now = CURRENT.fetch_add(n as u64, Ordering::Relaxed) + n as u64;
            PEAK.fetch_max(now, Ordering::Relaxed);
        }

        #[inline]
        fn shrink(n: usize) {
            // Saturating: frees of memory allocated before install (or
            // double-accounting races) must not wrap the gauge.
            CURRENT
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                    Some(v.saturating_sub(n as u64))
                })
                .ok();
        }
    }

    unsafe impl GlobalAlloc for TrackingAllocator {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            let p = System.alloc(layout);
            if !p.is_null() {
                Self::grow(layout.size());
            }
            p
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout);
            Self::shrink(layout.size());
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            let p = System.alloc_zeroed(layout);
            if !p.is_null() {
                Self::grow(layout.size());
            }
            p
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            let p = System.realloc(ptr, layout, new_size);
            if !p.is_null() {
                if new_size >= layout.size() {
                    Self::grow(new_size - layout.size());
                } else {
                    Self::shrink(layout.size() - new_size);
                }
            }
            p
        }
    }
}

#[cfg(feature = "alloc-track")]
pub use imp::TrackingAllocator;

/// True when the crate was built with `alloc-track` **and** the
/// `TrackingAllocator` has served at least one allocation (i.e. it is
/// actually installed as the global allocator).
#[inline]
pub fn tracking_active() -> bool {
    #[cfg(feature = "alloc-track")]
    {
        imp::INSTALLED.load(std::sync::atomic::Ordering::Relaxed) != 0
    }
    #[cfg(not(feature = "alloc-track"))]
    {
        false
    }
}

/// Bytes currently live (0 when tracking is off).
#[inline]
pub fn current_bytes() -> u64 {
    #[cfg(feature = "alloc-track")]
    {
        imp::CURRENT.load(std::sync::atomic::Ordering::Relaxed)
    }
    #[cfg(not(feature = "alloc-track"))]
    {
        0
    }
}

/// High-water mark since process start or the last [`reset_peak`]
/// (0 when tracking is off).
#[inline]
pub fn peak_bytes() -> u64 {
    #[cfg(feature = "alloc-track")]
    {
        imp::PEAK.load(std::sync::atomic::Ordering::Relaxed)
    }
    #[cfg(not(feature = "alloc-track"))]
    {
        0
    }
}

/// Restart the peak watermark from the current live level. Part of the
/// span-scoped attribution protocol: save the old peak, reset, measure,
/// then [`restore_peak`] the saved value.
#[inline]
pub fn reset_peak() {
    #[cfg(feature = "alloc-track")]
    {
        imp::PEAK.store(current_bytes(), std::sync::atomic::Ordering::Relaxed);
    }
}

/// Fold a previously saved watermark back in (`peak = max(peak, saved)`)
/// so an outer scope's peak survives inner resets.
#[inline]
pub fn restore_peak(saved: u64) {
    #[cfg(feature = "alloc-track")]
    {
        imp::PEAK.fetch_max(saved, std::sync::atomic::Ordering::Relaxed);
    }
    #[cfg(not(feature = "alloc-track"))]
    {
        let _ = saved;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Without the feature (the default test build) everything is inert;
    // with it, the allocator still isn't installed for unit tests, so
    // tracking stays inactive and the gauges read 0 — only the watermark
    // atomics themselves are live.
    #[test]
    fn stubs_are_inert_without_an_installed_allocator() {
        assert!(!tracking_active());
        assert_eq!(current_bytes(), 0);
        reset_peak();
        assert_eq!(peak_bytes(), 0);
        restore_peak(123);
        if cfg!(feature = "alloc-track") {
            assert_eq!(peak_bytes(), 123);
        } else {
            assert_eq!(peak_bytes(), 0);
        }
    }
}
