//! lock-across-blocking firing fixture: a shard-style guard is still
//! live when file I/O runs, and when a readiness wait blocks.
use std::io::Write;
use std::sync::Mutex;

pub struct S {
    pub state: Mutex<u32>,
}

pub fn hold_across_flush(s: &S, out: &mut std::fs::File) {
    let g = s.state.lock();
    out.flush();
    drop(g);
}

extern "C" {
    fn poll(fds: *mut u64, nfds: u64, timeout: i32) -> i32;
}

pub fn hold_across_poll(s: &S, fds: &mut [u64]) {
    let g = s.state.lock();
    // sbs-lint: allow(forbid-unsafe): fixture mirrors the server's libc readiness wait
    unsafe { poll(fds.as_mut_ptr(), 1, 2) };
    drop(g);
}
