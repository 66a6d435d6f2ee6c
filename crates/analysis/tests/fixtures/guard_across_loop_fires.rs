//! guard-across-loop firing fixture: a guard bound before the accept
//! loop is still held at every back-edge, serializing all iterations.
//! (`for` loops are exempt — iterating the locked data is routinely
//! intentional — so the shape here is the `while` service loop.)
use std::sync::Mutex;

pub struct S {
    pub state: Mutex<u32>,
}

pub fn serve(s: &S) {
    let g = s.state.lock();
    while next_event() {
        g.step();
    }
    drop(g);
}
