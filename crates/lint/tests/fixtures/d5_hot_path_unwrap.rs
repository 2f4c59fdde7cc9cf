//! Fixture: MUST trigger D5 (hot-path-unwrap) — a panic inside event
//! dispatch takes the whole simulated world down.

pub struct SyncNode {
    active: Option<u64>,
}

impl SyncNode {
    pub fn handle(&mut self) -> u64 {
        self.active.take().expect("no active round")
    }
}

pub struct World {
    nodes: Vec<SyncNode>,
}

impl World {
    pub fn dispatch(&mut self, i: usize) -> u64 {
        self.nodes.get_mut(i).unwrap().handle()
    }
}

pub trait Driver {
    fn send(&mut self, to: usize);
}

pub struct SimHost {
    links: Vec<Option<u64>>,
}

impl Driver for SimHost {
    fn send(&mut self, to: usize) {
        let _delay = self.links[to].unwrap();
    }
}
