//! Micro-benchmarks of the kernel pieces every experiment leans on:
//! event queue throughput, processor-sharing resources, Zipf sampling,
//! record generation, predicate evaluation, estimator projection, and
//! policy-expression parsing.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

use incmr_core::SelectivityEstimator;
use incmr_data::generator::{RecordFactory, SplitGenerator, SplitSpec};
use incmr_data::lineitem::{col, LineItemFactory};
use incmr_data::Value;
use incmr_simkit::dist::Zipf;
use incmr_simkit::resource::PsResource;
use incmr_simkit::rng::DetRng;
use incmr_simkit::{Sim, SimTime};

fn bench_event_queue(c: &mut Criterion) {
    let mut g = c.benchmark_group("simkit/event_queue");
    g.throughput(Throughput::Elements(10_000));
    g.bench_function("schedule_pop_10k", |b| {
        b.iter(|| {
            let mut sim: Sim<u64> = Sim::new();
            for i in 0..10_000u64 {
                sim.schedule_at(SimTime::from_millis((i * 7919) % 100_000), i);
            }
            let mut acc = 0u64;
            while let Some((_, v)) = sim.pop() {
                acc = acc.wrapping_add(v);
            }
            black_box(acc)
        })
    });
    g.bench_function("schedule_cancel_half_10k", |b| {
        b.iter(|| {
            let mut sim: Sim<u64> = Sim::new();
            let ids: Vec<_> = (0..10_000u64)
                .map(|i| sim.schedule_at(SimTime::from_millis(i), i))
                .collect();
            for id in ids.iter().step_by(2) {
                sim.cancel(*id);
            }
            while sim.pop().is_some() {}
        })
    });
    g.finish();
}

fn bench_ps_resource(c: &mut Criterion) {
    c.bench_function("simkit/ps_resource/1k_flows_staggered", |b| {
        b.iter(|| {
            let mut r = PsResource::new(1e6);
            for i in 0..1_000u64 {
                r.add_flow(SimTime::from_millis(i), 1_000.0);
            }
            r.advance(SimTime::from_secs(3_600));
            black_box(r.take_completed().len())
        })
    });
}

fn bench_zipf(c: &mut Criterion) {
    let mut g = c.benchmark_group("simkit/zipf");
    g.throughput(Throughput::Elements(15_000));
    for z in [0.0f64, 1.0, 2.0] {
        g.bench_function(format!("plant_15k_over_800_z{z}"), |b| {
            let zipf = Zipf::new(800, z);
            b.iter(|| {
                let mut rng = DetRng::seed_from(7);
                black_box(zipf.sample_counts(15_000, &mut rng))
            })
        });
    }
    g.finish();
}

/// The generation a split version pays on its first read, through the
/// batch paths `Dataset::batch` takes.
fn bench_generator(c: &mut Criterion) {
    let factory = LineItemFactory::new(col::TAX, Value::Float(0.77));
    let mut g = c.benchmark_group("data/generator");
    // A split of the end-to-end benchmark's full-mode tables (40 x 5k),
    // planted at the paper's 0.05% selectivity.
    g.throughput(Throughput::Elements(5_000));
    g.bench_function("full_batch_5k_records", |b| {
        let gen = SplitGenerator::new(&factory, SplitSpec::new(5_000, 3, 3));
        b.iter(|| black_box(gen.full_batch().len()))
    });
    // A split of a planted table at scale 20: 750k records, 375 matches.
    g.throughput(Throughput::Elements(375));
    g.bench_function("planted_batch_375_matches", |b| {
        let gen = SplitGenerator::new(&factory, SplitSpec::new(750_000, 375, 3));
        b.iter(|| black_box(gen.planted_batch().len()))
    });
    g.finish();
}

fn bench_predicate(c: &mut Criterion) {
    let factory = LineItemFactory::new(col::TAX, Value::Float(0.77));
    let predicate = factory.predicate();
    let gen = SplitGenerator::new(&factory, SplitSpec::new(5_000, 25, 3));
    let records: Vec<_> = gen.full_iter().collect();
    let mut g = c.benchmark_group("data/predicate");
    g.throughput(Throughput::Elements(records.len() as u64));
    g.bench_function("eval_5k_records", |b| {
        b.iter(|| records.iter().filter(|r| predicate.eval(r)).count())
    });
    g.finish();
}

fn bench_estimator(c: &mut Criterion) {
    use incmr_mapreduce::{JobId, JobProgress};
    c.bench_function("core/estimator/project", |b| {
        let mut e = SelectivityEstimator::new();
        e.update(&JobProgress {
            job: JobId(0),
            splits_added: 100,
            splits_completed: 60,
            splits_running: 40,
            splits_pending: 0,
            records_processed: 45_000_000,
            map_output_records: 22_500,
        });
        b.iter(|| black_box(e.project(10_000, 40)))
    });
}

fn bench_policy_parse(c: &mut Criterion) {
    use incmr_core::policy_file::parse_grab_limit;
    c.bench_function("core/policy/parse_grab_limit", |b| {
        b.iter(|| black_box(parse_grab_limit("(AS > 0) ? 0.5*AS : 0.2*TS").unwrap()))
    });
}

criterion_group!(
    benches,
    bench_event_queue,
    bench_ps_resource,
    bench_zipf,
    bench_generator,
    bench_predicate,
    bench_estimator,
    bench_policy_parse
);
criterion_main!(benches);
