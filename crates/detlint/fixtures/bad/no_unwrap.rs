// Fixture: bare unwrap and message-less expect in library code. Must trip
// `no-unwrap`.
pub fn parse(s: &str) -> u64 {
    s.parse::<u64>().unwrap()
}

pub fn first(v: &[u64]) -> u64 {
    *v.first().expect("")
}
