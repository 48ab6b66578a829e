//! Read-only memory mapping without a libc dependency.
//!
//! The workspace is hermetic — no `libc` crate — so the handful of
//! syscalls needed for zero-copy artifact loading are declared directly
//! as `extern "C"` bindings against the platform's C runtime (which the
//! Rust standard library already links). Only what the artifact layer
//! needs is exposed: map a whole file read-only and unmap on drop.
//!
//! On non-Unix targets the same API is backed by an owned, 64-byte
//! aligned buffer read eagerly from the file, so callers never need a
//! `cfg` of their own; both backings guarantee [`Mmap::ALIGN`]-byte base
//! alignment, which is what lets [`crate::tape::Storage`] view `f32`
//! tensors straight out of the mapping.

use std::fs::File;
use std::io;

#[cfg(unix)]
mod sys {
    use core::ffi::c_void;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> i32;
    }

    pub const PROT_READ: i32 = 1;
    pub const MAP_PRIVATE: i32 = 2;

    pub fn map_failed() -> *mut c_void {
        usize::MAX as *mut c_void
    }
}

enum Backing {
    /// A live kernel mapping (Unix). `ptr` is page-aligned, `len > 0`.
    #[cfg(unix)]
    Mapped { ptr: *mut core::ffi::c_void, len: usize },
    /// Eagerly-read, 64-byte-aligned owned bytes (non-Unix fallback and
    /// the shared empty-file representation).
    Owned(AlignedBytes),
}

/// A read-only byte view of a file, alignment-guaranteed.
///
/// The mapping is `MAP_PRIVATE`: writes to the file after the map is
/// established may or may not be observed (copy-on-write pages), and a
/// concurrent *truncation* of a mapped file turns later page faults into
/// `SIGBUS` at the OS level — callers defend against that by validating
/// every declared offset/length against [`Mmap::len`] (captured at map
/// time) before dereferencing, which converts the reachable failure
/// modes into typed errors.
pub struct Mmap {
    backing: Backing,
}

// SAFETY: the mapping is read-only for its whole lifetime (PROT_READ,
// never remapped), so shared references across threads are sound; the
// owned fallback is a plain buffer.
unsafe impl Send for Mmap {}
unsafe impl Sync for Mmap {}

impl std::fmt::Debug for Mmap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mmap").field("len", &self.len()).field("mapped", &self.is_mapped()).finish()
    }
}

impl Mmap {
    /// Base-address alignment guaranteed by every backing, in bytes.
    /// (Real mappings are page-aligned; the fallback allocates at 64.)
    pub const ALIGN: usize = 64;

    /// Map an entire file read-only. Empty files yield an empty view
    /// without touching `mmap` (a zero-length map is an error on Linux).
    pub fn map_file(file: &File) -> io::Result<Mmap> {
        let len = file.metadata()?.len();
        let len = usize::try_from(len)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "file too large to map"))?;
        if len == 0 {
            return Ok(Mmap { backing: Backing::Owned(AlignedBytes::empty()) });
        }
        Self::map_nonempty(file, len)
    }

    #[cfg(unix)]
    fn map_nonempty(file: &File, len: usize) -> io::Result<Mmap> {
        use std::os::unix::io::AsRawFd;
        let ptr = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                len,
                sys::PROT_READ,
                sys::MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr == sys::map_failed() || ptr.is_null() {
            return Err(io::Error::last_os_error());
        }
        Ok(Mmap { backing: Backing::Mapped { ptr, len } })
    }

    #[cfg(not(unix))]
    fn map_nonempty(file: &File, len: usize) -> io::Result<Mmap> {
        use std::io::Read;
        let mut buf = AlignedBytes::zeroed(len);
        let mut take = file;
        take.read_exact(buf.as_mut_slice())?;
        Ok(Mmap { backing: Backing::Owned(buf) })
    }

    /// Length of the view in bytes, captured at map time.
    pub fn len(&self) -> usize {
        match &self.backing {
            #[cfg(unix)]
            Backing::Mapped { len, .. } => *len,
            Backing::Owned(b) => b.len,
        }
    }

    /// True when the underlying file was empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True when backed by a live kernel mapping (false for the owned
    /// fallback / empty files) — surfaced in the registry census.
    pub fn is_mapped(&self) -> bool {
        match &self.backing {
            #[cfg(unix)]
            Backing::Mapped { .. } => true,
            Backing::Owned(_) => false,
        }
    }

    /// The mapped bytes.
    pub fn as_slice(&self) -> &[u8] {
        match &self.backing {
            #[cfg(unix)]
            Backing::Mapped { ptr, len } => {
                // SAFETY: `ptr` points at a live PROT_READ mapping of
                // exactly `len` bytes, held for `self`'s lifetime.
                unsafe { std::slice::from_raw_parts(*ptr as *const u8, *len) }
            }
            Backing::Owned(b) => b.as_slice(),
        }
    }

    /// Base address of the view (always [`Mmap::ALIGN`]-aligned).
    pub fn base_addr(&self) -> usize {
        self.as_slice().as_ptr() as usize
    }
}

impl Drop for Mmap {
    fn drop(&mut self) {
        #[cfg(unix)]
        if let Backing::Mapped { ptr, len } = &self.backing {
            // SAFETY: `ptr`/`len` came from a successful mmap and are
            // unmapped exactly once, here.
            unsafe {
                sys::munmap(*ptr, *len);
            }
        }
    }
}

/// A heap buffer with a 64-byte-aligned base — the owned backing for
/// empty files and non-Unix targets, matching the alignment contract of
/// a real page-aligned mapping.
struct AlignedBytes {
    ptr: *mut u8,
    len: usize,
}

impl AlignedBytes {
    fn empty() -> Self {
        AlignedBytes { ptr: std::ptr::null_mut(), len: 0 }
    }

    #[cfg(not(unix))]
    fn zeroed(len: usize) -> Self {
        if len == 0 {
            return Self::empty();
        }
        let layout = std::alloc::Layout::from_size_align(len, Mmap::ALIGN)
            .unwrap_or_else(|_| std::alloc::Layout::new::<u8>());
        // SAFETY: len > 0, layout is valid for the requested size.
        let ptr = unsafe { std::alloc::alloc_zeroed(layout) };
        if ptr.is_null() {
            std::alloc::handle_alloc_error(layout);
        }
        AlignedBytes { ptr, len }
    }

    fn as_slice(&self) -> &[u8] {
        if self.len == 0 {
            return &[];
        }
        // SAFETY: `ptr` owns exactly `len` live bytes.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }

    #[cfg(not(unix))]
    fn as_mut_slice(&mut self) -> &mut [u8] {
        if self.len == 0 {
            return &mut [];
        }
        // SAFETY: `ptr` owns exactly `len` live bytes, borrowed uniquely.
        unsafe { std::slice::from_raw_parts_mut(self.ptr, self.len) }
    }
}

impl Drop for AlignedBytes {
    fn drop(&mut self) {
        if self.len > 0 {
            if let Ok(layout) = std::alloc::Layout::from_size_align(self.len, Mmap::ALIGN) {
                // SAFETY: allocated with this exact layout in `zeroed`.
                unsafe { std::alloc::dealloc(self.ptr, layout) };
            }
        }
    }
}

// SAFETY: plain owned heap memory.
unsafe impl Send for AlignedBytes {}
unsafe impl Sync for AlignedBytes {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn tmp_file(name: &str, bytes: &[u8]) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(format!("mvgnn_mmap_{}_{name}", std::process::id()));
        let mut f = File::create(&path).unwrap();
        f.write_all(bytes).unwrap();
        f.sync_all().unwrap();
        path
    }

    #[test]
    fn maps_file_contents() {
        let path = tmp_file("contents", b"hello mapping");
        let map = Mmap::map_file(&File::open(&path).unwrap()).unwrap();
        assert_eq!(map.as_slice(), b"hello mapping");
        assert_eq!(map.len(), 13);
        assert!(!map.is_empty());
        assert!(map.base_addr().is_multiple_of(Mmap::ALIGN));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_file_maps_to_empty_slice() {
        let path = tmp_file("empty", b"");
        let map = Mmap::map_file(&File::open(&path).unwrap()).unwrap();
        assert!(map.is_empty());
        assert_eq!(map.as_slice(), b"");
        assert!(!map.is_mapped());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn survives_threads() {
        let path = tmp_file("threads", &[42u8; 1024]);
        let map = std::sync::Arc::new(Mmap::map_file(&File::open(&path).unwrap()).unwrap());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let m = std::sync::Arc::clone(&map);
                std::thread::spawn(move || m.as_slice().iter().map(|&b| b as u64).sum::<u64>())
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), 42 * 1024);
        }
        std::fs::remove_file(&path).ok();
    }
}
