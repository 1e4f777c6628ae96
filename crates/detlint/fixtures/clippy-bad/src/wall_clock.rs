// Fixture: wall-clock read outside the bench seam. Must trip
// `disallowed_types`.
pub fn elapsed_ms() -> u128 {
    let start = std::time::Instant::now();
    start.elapsed().as_millis()
}
