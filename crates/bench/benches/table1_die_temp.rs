//! TABLE1 bench: the electro-thermal measurement point and the full
//! five-sample campaign.

use icvbe_bench::harness::Criterion;
use icvbe_bench::{criterion_group, criterion_main};
use icvbe_instrument::bench::TestStructureBench;
use icvbe_instrument::montecarlo::DieSample;
use icvbe_units::{Ampere, Celsius};
use std::hint::black_box;

fn bench_table1(c: &mut Criterion) {
    let mut g = c.benchmark_group("table1");
    g.sample_size(10);
    g.bench_function("single_electrothermal_point", |b| {
        let sample = DieSample::nominal(0);
        b.iter(|| {
            let mut bench = TestStructureBench::paper_bench(7);
            black_box(
                bench
                    .run_pair_campaign(&sample, Ampere::new(1e-6), &[Celsius::new(25.0)])
                    .expect("point"),
            )
        })
    });
    g.bench_function("full_five_sample_campaign", |b| {
        b.iter(|| black_box(icvbe_repro::table1::run().expect("table1")))
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(1500));
    targets = bench_table1
}
criterion_main!(benches);
