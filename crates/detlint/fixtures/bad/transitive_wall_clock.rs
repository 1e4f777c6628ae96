// Fixture: Simulation::run reaches host time through an innocent-looking
// helper. Must trip `transitive-wall-clock` (each hop is clean; the
// composition smuggles wall-clock time into the deterministic core).
// The direct site is also a clippy `disallowed_types` finding — both are
// real findings here.
pub struct Simulation;

impl Simulation {
    pub fn run(&mut self) -> u64 {
        drain_budget()
    }
}

fn drain_budget() -> u64 {
    stamp()
}

fn stamp() -> u64 {
    let t = Instant::now();
    t.elapsed().as_nanos() as u64
}
