//! Fixture: real violations covered by well-formed
//! `analysis:allow(<lint>): <reason>` suppressions. The self-test
//! asserts zero *surviving* findings — every suppression here names a
//! known lint, carries a reason, and sits on the flagged line or the
//! line directly above — and that each one covers a real finding.
//!
//! This file never compiles as part of the workspace — the source
//! walker skips `crates/analysis/fixtures` — it only needs to lex.

fn hot_fn(out: &mut Vec<u32>, xs: &[u32]) {
    // analysis:allow(hot-path-alloc): fixture shows the line-above suppression form
    let tmp = xs.to_vec();
    let label = String::from("x"); // analysis:allow(hot-path-alloc): fixture shows the same-line form
    out.extend_from_slice(&tmp);
    drop(label);
}

fn covered_unsafe(p: *const u32) -> u32 {
    // analysis:allow(unsafe-audit): fixture demonstrates suppressing the audit itself
    unsafe { *p }
}

fn covered_lock(shared: &Shared) {
    let second = lock(&shared.second);
    // analysis:allow(lock-discipline): fixture shows the line-above form on an order inversion
    let first = lock(&shared.first);
    drop(first);
    drop(second);
}

fn covered_lock_same_line(shared: &Shared) {
    let second = lock(&shared.second);
    let first = lock(&shared.first); // analysis:allow(lock-discipline): fixture shows the same-line form
    drop(first);
    drop(second);
}
