// Fixture: stdout/stderr writes from library code. Must trip
// `print_stdout` and `print_stderr`.
pub fn announce(x: u64) {
    println!("x = {x}");
    eprintln!("also x = {x}");
}
