// Fixture: environment read in library code outside the sanctioned seam.
// Must trip `disallowed_methods`.
pub fn configured_rate() -> u64 {
    match std::env::var("RATE") {
        Ok(v) => v.len() as u64,
        Err(_) => 0,
    }
}
