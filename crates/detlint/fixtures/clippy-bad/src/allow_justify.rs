// Fixture: suppressions that state no reason. Must trip
// `allow_attributes_without_reason`.
#![allow(dead_code)]

#[allow(clippy::needless_range_loop)]
pub fn sum(v: &[u64]) -> u64 {
    let mut total = 0;
    for i in 0..v.len() {
        total += v[i];
    }
    total
}
