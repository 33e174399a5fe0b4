//! Continuous maintenance (paper Section 5.4): keep the global skyline
//! fresh while trades keep arriving and being voided at the local sites,
//! comparing the incremental strategy against naive recomputation.
//!
//! ```sh
//! cargo run --release --example live_updates
//! ```

use dsud_core::update::{Maintainer, UpdateOp};
use dsud_core::{Cluster, Probability, QueryConfig, SubspaceMask, TupleId, UncertainTuple};
use dsud_data::WorkloadSpec;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (n, m, dims, q) = (20_000, 8, 2, 0.3);
    let data = WorkloadSpec::new(n, dims).seed(7).generate_partitioned(m)?;
    let mask = SubspaceMask::full(dims)?;

    let mut cluster = Cluster::local(dims, data.clone())?;
    let meter = cluster.meter().clone();
    let (mut maintainer, bootstrap) =
        Maintainer::bootstrap(&mut cluster.fanout(), &meter, mask, &QueryConfig::new(q)?)?;
    println!(
        "bootstrap: {} skyline tuples for {} transmitted tuples\n",
        bootstrap.skyline.len(),
        bootstrap.tuples_transmitted()
    );

    let mut rng = StdRng::seed_from_u64(99);
    let mut next_seq = 1_000_000u64;
    for round in 1..=5 {
        // A mixed batch: 30 inserts, 10 deletes of random existing tuples.
        let mut ops = Vec::new();
        for _ in 0..30 {
            let site = rng.gen_range(0..m) as u32;
            let values: Vec<f64> = (0..dims).map(|_| rng.gen::<f64>()).collect();
            let p = Probability::clamped(rng.gen::<f64>());
            ops.push(UpdateOp::Insert(
                UncertainTuple::new(TupleId::new(site, next_seq), values, p)
                    .expect("generated tuples are valid"),
            ));
            next_seq += 1;
        }
        for _ in 0..10 {
            let site = rng.gen_range(0..m);
            let victim = &data[site][rng.gen_range(0..data[site].len())];
            ops.push(UpdateOp::Delete(victim.clone()));
        }

        let before = meter.snapshot();
        for op in &ops {
            maintainer.apply_incremental(&mut cluster.fanout(), op)?;
        }
        let cost = meter.snapshot().since(&before).tuples_transmitted();
        println!(
            "round {round}: applied {} updates incrementally, skyline now {} tuples, \
             maintenance cost {} tuples",
            ops.len(),
            maintainer.skyline().len(),
            cost
        );
    }

    // Contrast: what one naive refresh costs right now.
    let before = meter.snapshot();
    maintainer.refresh_naive(&mut cluster.fanout(), &meter)?;
    let naive_cost = meter.snapshot().since(&before).tuples_transmitted();
    println!("\none naive from-scratch refresh would cost {naive_cost} tuples");
    Ok(())
}
