//! Correctness checks on the program's outputs, and the exact answers
//! they are checked against.

use promips::core::SearchItem;
use promips::data::GroundTruth;
use promips::linalg::Matrix;

/// Counts operations attempted and failures (failed or refused calls and
/// failed checks). Any failure makes the run exit non-zero.
#[derive(Default)]
pub struct Checker {
    pub attempted: u64,
    pub failed: u64,
}

impl Checker {
    pub fn attempt(&mut self) {
        self.attempted += 1;
    }

    pub fn fail(&mut self, what: impl std::fmt::Display) {
        self.failed += 1;
        // Bound the noise from a systematic failure; the count is exact.
        if self.failed <= 20 {
            eprintln!("e2ebench: CHECK FAILED: {what}");
        }
    }

    pub fn ensure(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.fail(what());
        }
    }
}

/// Checks one search answer: `min(k, live)` items, sorted by inner product
/// descending, ids unique and live, and every returned `ip` equal to the
/// exact dot product of the stored row within the recursive-summation
/// error bound `d · ε_f32 · Σ|qᵢ xᵢ|` of an f32-accumulated kernel.
pub fn validate(
    items: &[SearchItem],
    q: &[f32],
    rows: &Matrix,
    alive: &[bool],
    live: usize,
    k: usize,
) -> Result<(), String> {
    if items.len() != k.min(live) {
        return Err(format!(
            "{} items for k={k} over {live} live rows",
            items.len()
        ));
    }
    if let Some(w) = items.windows(2).find(|w| w[0].ip < w[1].ip) {
        return Err(format!("items out of order: {:?} before {:?}", w[0], w[1]));
    }
    let mut ids: Vec<u64> = items.iter().map(|it| it.id).collect();
    ids.sort_unstable();
    if ids.windows(2).any(|w| w[0] == w[1]) {
        return Err(format!("duplicate ids in {ids:?}"));
    }
    let eps = rows.cols() as f64 * f64::from(f32::EPSILON);
    for it in items {
        let id = it.id as usize;
        if !alive.get(id).copied().unwrap_or(false) {
            return Err(format!("id {id} is not live"));
        }
        let (exact, magnitude) = q
            .iter()
            .zip(rows.row(id))
            .fold((0.0, 0.0), |(s, m), (&a, &b)| {
                let p = f64::from(a) * f64::from(b);
                (s + p, m + p.abs())
            });
        if (it.ip - exact).abs() > eps * magnitude + 1e-12 {
            return Err(format!(
                "id {id}: ip {} but exact dot product {exact}",
                it.ip
            ));
        }
    }
    Ok(())
}

/// Exact top-k over the live rows `0..hi` (ip descending, ties by smaller
/// id — the order `promips::data::exact_topk` uses).
pub fn exact_topk_live(
    rows: &Matrix,
    hi: usize,
    alive: &[bool],
    q: &[f32],
    k: usize,
) -> GroundTruth {
    let mut all: Vec<(u64, f64)> = Vec::with_capacity(hi);
    rows.dot_rows(0, hi, q, |r, ip| {
        if alive[r] {
            all.push((r as u64, ip));
        }
    });
    let order = |a: &(u64, f64), b: &(u64, f64)| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0));
    if all.len() > k {
        all.select_nth_unstable_by(k, order);
        all.truncate(k);
    }
    all.sort_by(order);
    all
}
