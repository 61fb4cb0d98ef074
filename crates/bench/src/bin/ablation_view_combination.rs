//! Ablation — the design choices behind the README's "Reproducing the
//! paper" ablation row:
//!
//! 1. **View-combination friction** (§5.2.2, Theorem 5.4): growing a global
//!    synopsis incrementally (ε₁ then Δε) and combining with the UMVUE
//!    weight is optimal among linear combinations, but still worse than
//!    spending the whole budget at once. The table reports the per-bin
//!    variance of the combined synopsis vs the one-shot synopsis for a sweep
//!    of split points.
//! 2. **Additive GM vs independent releases** (Theorem 5.2): the worst-case
//!    collusion cost of serving the same view to k analysts is `max εᵢ`
//!    under the additive mechanism vs `Σ εᵢ` for independent releases,
//!    while each analyst's own accuracy is identical.

use dprov_bench::report::{banner, fmt_f64, Table};
use dprov_dp::budget::Budget;
use dprov_dp::mechanism::{additive_gaussian_release, analytic_gaussian_sigma};
use dprov_dp::rng::DpRng;
use dprov_dp::sensitivity::Sensitivity;

fn main() {
    let delta = 1e-9;
    let sens = std::f64::consts::SQRT_2;

    banner("Ablation 1: friction of incremental view combination (total ε = 1.0)");
    let total_eps = 1.0;
    let sigma_one_shot = analytic_gaussian_sigma(total_eps, delta, sens).unwrap();
    let v_one_shot = sigma_one_shot * sigma_one_shot;
    let mut table = Table::new(&[
        "first release ε₁",
        "one-shot variance",
        "combined variance",
        "friction (combined / one-shot)",
    ]);
    for &first in &[0.1, 0.25, 0.5, 0.75, 0.9] {
        let second = total_eps - first;
        let v1 = analytic_gaussian_sigma(first, delta, sens).unwrap().powi(2);
        let v2 = analytic_gaussian_sigma(second, delta, sens)
            .unwrap()
            .powi(2);
        // UMVUE combination of two independent synopses.
        let v_combined = v1 * v2 / (v1 + v2);
        table.add_row(&[
            format!("{first}"),
            fmt_f64(v_one_shot, 2),
            fmt_f64(v_combined, 2),
            fmt_f64(v_combined / v_one_shot, 3),
        ]);
    }
    table.print();
    println!("friction > 1 everywhere: spending the budget at once is always better,");
    println!("which is why the accuracy-privacy translation accounts for it (Eq. 3).");

    banner("Ablation 2: additive GM vs independent releases (same view, k analysts)");
    let mut table = Table::new(&[
        "#analysts",
        "per-analyst ε",
        "collusion ε (additive GM)",
        "collusion ε (independent)",
        "per-analyst empirical sd (additive)",
        "calibrated sd",
    ]);
    let truth = vec![1_000.0f64; 4096];
    for &k in &[2usize, 4, 6] {
        let per_analyst_eps = 0.5;
        let budgets: Vec<Budget> = (0..k)
            .map(|_| Budget::new(per_analyst_eps, delta).unwrap())
            .collect();
        let mut rng = DpRng::seed_from_u64(k as u64);
        let releases =
            additive_gaussian_release(&truth, Sensitivity::unchecked(sens), &budgets, &mut rng)
                .unwrap();
        let empirical_sd = {
            let r = &releases[0];
            let var: f64 = r
                .answer
                .iter()
                .zip(&truth)
                .map(|(a, t)| (a - t) * (a - t))
                .sum::<f64>()
                / truth.len() as f64;
            var.sqrt()
        };
        let calibrated_sd = analytic_gaussian_sigma(per_analyst_eps, delta, sens).unwrap();
        table.add_row(&[
            format!("{k}"),
            format!("{per_analyst_eps}"),
            fmt_f64(per_analyst_eps, 2),
            fmt_f64(per_analyst_eps * k as f64, 2),
            fmt_f64(empirical_sd, 2),
            fmt_f64(calibrated_sd, 2),
        ]);
    }
    table.print();
    println!("the additive mechanism's collusion cost stays flat as analysts are added,");
    println!("while independent releases grow linearly — the core of Theorem 5.2.");
}
