//! Correctness riders: comparisons that fail the run when the program's
//! outputs are wrong.

use std::collections::HashMap;
use std::sync::Arc;

use sc::engine::storage::format::fnv1a64;
use sc::engine::{Table, Value};

use crate::rig::{err, Res, Rig};

/// One 64-bit digest per row, sorted: two tables hold the same row
/// multiset exactly when these vectors are equal (up to hash collisions).
pub fn row_multiset(table: &Table) -> Vec<u64> {
    let mut rows: Vec<u64> = (0..table.num_rows())
        .map(|r| {
            let mut buf = Vec::with_capacity(16 * table.num_columns());
            for c in 0..table.num_columns() {
                match table.value(r, c) {
                    Value::Int64(v) => {
                        buf.push(0);
                        buf.extend_from_slice(&v.to_le_bytes());
                    }
                    Value::Float64(v) => {
                        buf.push(1);
                        buf.extend_from_slice(&v.to_bits().to_le_bytes());
                    }
                    Value::Utf8(s) => {
                        buf.push(2);
                        buf.extend_from_slice(&(s.len() as u64).to_le_bytes());
                        buf.extend_from_slice(s.as_bytes());
                    }
                    Value::Bool(b) => buf.extend_from_slice(&[3, b as u8]),
                    Value::Date(d) => {
                        buf.push(4);
                        buf.extend_from_slice(&d.to_le_bytes());
                    }
                }
            }
            fnv1a64(&buf)
        })
        .collect();
    rows.sort_unstable();
    rows
}

/// Digest of every MV's stored files (names and bytes, manifest first).
pub fn stored_digest(rig: &Rig) -> Res<Vec<(String, u64)>> {
    let snap = rig.session.snapshot();
    rig.mv_names()
        .into_iter()
        .map(|mv| {
            let files = snap
                .stored_file_bytes(&mv)
                .map_err(err("stored file bytes"))?;
            let mut buf = Vec::new();
            for (name, bytes) in files {
                buf.extend_from_slice(name.as_bytes());
                buf.extend_from_slice(&fnv1a64(&bytes).to_le_bytes());
            }
            Ok((mv, fnv1a64(&buf)))
        })
        .collect()
}

/// Every MV recomputed from the current base tables, in registration
/// order (the pipeline registers producers before consumers).
fn recompute(rig: &Rig) -> Res<HashMap<String, Arc<Table>>> {
    let mut tables = rig.base_tables()?;
    for mv in &rig.spec.mvs {
        let out = mv.plan.execute(&tables).map_err(err("recompute"))?;
        tables.insert(mv.name.clone(), Arc::new(out));
    }
    Ok(tables)
}

/// Fails unless every stored MV equals its from-scratch recomputation as
/// a row multiset.
pub fn mvs_match_recomputation(rig: &Rig) -> Res<()> {
    let expected = recompute(rig)?;
    let snap = rig.session.snapshot();
    for mv in rig.mv_names() {
        let stored = snap.read_table(&mv).map_err(err("read MV"))?;
        if row_multiset(&stored) != row_multiset(&expected[&mv]) {
            return Err(format!(
                "MV {mv} ({} rows) differs from its recomputation ({} rows)",
                stored.num_rows(),
                expected[&mv].num_rows()
            ));
        }
    }
    Ok(())
}

/// Fails unless epoch GC has reclaimed every superseded file.
pub fn no_retained_files(rig: &Rig) -> Res<()> {
    match rig.session.disk().retained_file_count() {
        Ok(0) => Ok(()),
        Ok(n) => Err(format!("{n} superseded files are still retained")),
        Err(e) => Err(format!("retained file scan: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc::engine::{DataType, TableBuilder};

    fn table(rows: &[(i64, f64)]) -> Table {
        let mut t = TableBuilder::new()
            .column("k", DataType::Int64)
            .column("v", DataType::Float64)
            .build();
        for &(k, v) in rows {
            t.push_row(vec![Value::Int64(k), Value::Float64(v)])
                .unwrap();
        }
        t
    }

    #[test]
    fn multisets_ignore_order_but_not_multiplicity() {
        let a = table(&[(1, 1.5), (2, 2.5), (2, 2.5)]);
        let b = table(&[(2, 2.5), (1, 1.5), (2, 2.5)]);
        let c = table(&[(1, 1.5), (2, 2.5)]);
        let d = table(&[(1, 1.5), (2, 2.5), (2, 2.500_000_000_1)]);
        assert_eq!(row_multiset(&a), row_multiset(&b));
        assert_ne!(row_multiset(&a), row_multiset(&c));
        assert_ne!(row_multiset(&a), row_multiset(&d));
    }
}
