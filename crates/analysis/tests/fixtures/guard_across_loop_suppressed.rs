//! guard-across-loop suppressed fixture: the whole loop is one
//! critical section by design, with the justification on record.
use std::sync::Mutex;

pub struct S {
    pub state: Mutex<u32>,
}

pub fn serve(s: &S) {
    let g = s.state.lock();
    // sbs-lint: allow(guard-across-loop): drain-on-shutdown runs after the listener closed
    while next_event() {
        g.step();
    }
    drop(g);
}
