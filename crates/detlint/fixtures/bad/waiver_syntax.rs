// detlint: allow(no-unwrap)
pub fn quiet() {}
