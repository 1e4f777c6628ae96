// Fixture: a well-formed waiver with a reason. Must scan clean.
pub fn port(s: &str) -> u16 {
    // detlint: allow(no-unwrap, reason = "callers validate the port before parsing")
    s.parse().unwrap()
}
