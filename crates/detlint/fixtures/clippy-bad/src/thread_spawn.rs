// Fixture: ad-hoc thread outside sim_core::pool. Must trip
// `disallowed_methods`.
pub fn run() -> u64 {
    let handle = std::thread::spawn(|| 1 + 1);
    handle.join().unwrap_or(0)
}
