//! Clean fixture: every unsafe block and impl carries a `// SAFETY:`
//! comment on the lines directly above it. Checked by CI with
//! `clippy-driver` under the workspace's clippy lint levels.

/// Reads the byte behind `p`.
///
/// # Safety
///
/// `p` must point into a live, initialized buffer.
pub unsafe fn peek(p: *const u8) -> u8 {
    // SAFETY: the caller upholds this function's safety contract.
    unsafe { *p }
}

/// A raw handle that may move between threads.
pub struct Wrapper(pub *mut u8);

// SAFETY: Wrapper's pointer is only dereferenced on the owning thread;
// sending the handle is sound because access is externally fenced.
unsafe impl Send for Wrapper {}
