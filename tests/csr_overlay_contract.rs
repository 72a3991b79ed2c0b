//! The CSR overlay contract: a frozen `CsrMatrix` with dirty rows patched
//! in through `set_row` reads, bit for bit, like the reference
//! `SparseMatrix` given the same row replacements — before and after
//! `compact` folds the overlay back into contiguous arrays.
//!
//! The frozen matrix interns ids of slots 0–23; patches reach up to slot
//! 31, so they add new rows, replace and mask interned ones, and reference
//! columns the frozen index has never seen. Each case runs over two id
//! spaces: slot `k` is id `k` (dense, where the index maps ids through a
//! flat table), and slot `k` is spread by a large stride or sits near
//! `u64::MAX` (sparse, where the index searches its sorted ids).

use mdrep_repro::matrix::{CsrMatrix, SparseMatrix, SparseVector};
use mdrep_repro::types::UserId;
use proptest::prelude::*;

/// Ids the frozen matrix can hold.
const FROZEN: u64 = 24;
/// Ids patches and reads range over.
const ALL: u64 = 32;

/// One entry: `(row, col, value)` with a positive, finite value.
fn entry(ids: u64) -> impl Strategy<Value = (u64, u64, f64)> {
    (0..ids, 0..ids, 1u32..64).prop_map(|(r, c, k)| (r, c, f64::from(k) / 7.0))
}

/// A row replacement: the row and its new entries (an empty one masks it).
fn patch() -> impl Strategy<Value = (u64, Vec<(u64, f64)>)> {
    (
        0..ALL,
        proptest::collection::vec(entry(ALL).prop_map(|(_, c, v)| (c, v)), 0..6),
    )
}

/// The id of slot `k` in the dense space.
fn dense(k: u64) -> UserId {
    UserId::new(k)
}

/// The id of slot `k` in the sparse space: the lower slots spread by a
/// stride of 2⁴⁰, the upper ones packed against `u64::MAX`.
fn sparse(k: u64) -> UserId {
    if k < ALL / 2 {
        UserId::new(3 + (k << 40))
    } else {
        UserId::new(u64::MAX - (ALL - 1 - k))
    }
}

/// `(row, col, value bits)` of every stored entry, in row-major order.
fn triples(it: impl Iterator<Item = (UserId, UserId, f64)>) -> Vec<(UserId, UserId, u64)> {
    it.map(|(r, c, v)| (r, c, v.to_bits())).collect()
}

/// Every read of `got` against `want`, bit for bit, over the ids `u` maps
/// the slots to.
fn same_reads(
    got: &CsrMatrix,
    want: &SparseMatrix,
    columns: &[UserId],
    u: fn(u64) -> UserId,
) -> Result<(), String> {
    let check = |ok: bool, what: String| if ok { Ok(()) } else { Err(what) };
    check(
        got.nnz() == want.nnz(),
        format!("nnz {} vs {}", got.nnz(), want.nnz()),
    )?;
    check(
        got.row_ids() == want.row_ids().collect::<Vec<_>>(),
        "row_ids".into(),
    )?;
    check(triples(got.iter()) == triples(want.iter()), "iter".into())?;
    let set = got.column_set(columns);
    let mut gathered = Vec::new();
    for r in (0..ALL).map(u) {
        let row: Vec<(UserId, u64)> = got.row_entries(r).map(|(c, v)| (c, v.to_bits())).collect();
        let reference: Vec<(UserId, u64)> = want
            .row(r)
            .into_iter()
            .flatten()
            .map(|(&c, &v)| (c, v.to_bits()))
            .collect();
        check(row == reference, format!("row_entries({r})"))?;
        let view = got.row_view(r);
        for c in (0..ALL).map(u) {
            let want = want.get(r, c).to_bits();
            check(got.get(r, c).to_bits() == want, format!("get({r}, {c})"))?;
            check(
                view.get(c).to_bits() == want,
                format!("row_view({r}).get({c})"),
            )?;
        }
        got.gather_row(r, &set, &mut gathered);
        let expected: Vec<u64> = columns.iter().map(|&c| want.get(r, c).to_bits()).collect();
        let bits: Vec<u64> = gathered.iter().map(|v| v.to_bits()).collect();
        check(bits == expected, format!("gather_row({r})"))?;
    }
    Ok(())
}

proptest! {
    // Each case is a few thousand reads over a 32-id matrix; 256 cases
    // stay well under a second in a debug build.
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random row patches over a frozen matrix read exactly like the same
    /// replacements applied to the reference; so does the compacted
    /// matrix, and a clone taken before the patches keeps the frozen rows.
    /// Both id spaces run every case.
    #[test]
    fn patched_csr_reads_like_the_reference(
        base in proptest::collection::vec(entry(FROZEN), 0..80),
        patches in proptest::collection::vec(patch(), 0..12),
        columns in proptest::collection::vec(0..ALL, 0..10),
    ) {
        for (space, u) in [("dense", dense as fn(u64) -> UserId), ("sparse", sparse)] {
            if let Err(why) = patched_reads(&base, &patches, &columns, u) {
                prop_assert!(false, "{} ids: {}", space, why);
            }
        }
    }
}

/// One case of `patched_csr_reads_like_the_reference` over the ids `u`
/// maps the slots to.
fn patched_reads(
    base: &[(u64, u64, f64)],
    patches: &[(u64, Vec<(u64, f64)>)],
    columns: &[u64],
    u: fn(u64) -> UserId,
) -> Result<(), String> {
    let mut want = SparseMatrix::new();
    for &(r, c, v) in base {
        want.set(u(r), u(c), v).expect("positive finite");
    }
    let mut got = CsrMatrix::freeze(&want);
    let frozen = got.clone();
    let before = want.clone();

    for (r, entries) in patches {
        // Later duplicates win, as in the reference's `BTreeMap`.
        let row: SparseVector = entries.iter().map(|&(c, v)| (u(c), v)).collect();
        got.set_row(u(*r), row.iter().map(|(&c, &v)| (c, v)).collect::<Vec<_>>());
        want.set_row(u(*r), row).expect("positive finite");
    }
    let columns: Vec<UserId> = columns.iter().map(|&c| u(c)).collect();

    same_reads(&got, &want, &columns, u).map_err(|read| format!("patched: {read} diverged"))?;
    let compacted = got.compact();
    if !compacted.is_compact() {
        return Err("compact left an overlay".into());
    }
    same_reads(&compacted, &want, &columns, u)
        .map_err(|read| format!("compacted: {read} diverged"))?;
    same_reads(&frozen, &before, &columns, u)
        .map_err(|read| format!("clone before the patches: {read} diverged"))
}
