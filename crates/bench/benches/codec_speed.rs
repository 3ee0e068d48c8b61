//! Criterion micro-benchmarks of every baseline codec on one L1-resident
//! 1024-value vector (the paper's §4.2 methodology), plus the Zstd stand-in
//! on a row-group.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use alp::VECTOR_SIZE;

fn vector() -> Vec<f64> {
    // City-Temp-like: one decimal place, narrow walk.
    datagen::generate("City-Temp", VECTOR_SIZE, 42)
}

fn bench_codecs(c: &mut Criterion) {
    let data = vector();
    for codec in codecs::Codec::ALL {
        let mut g = c.benchmark_group(format!("codec_{}", codec.name().to_lowercase()));
        g.throughput(Throughput::Elements(VECTOR_SIZE as u64));
        g.bench_function("compress", |b| {
            b.iter(|| codec.compress_f64(std::hint::black_box(&data)))
        });
        let bytes = codec.compress_f64(&data);
        g.bench_function("decompress", |b| {
            b.iter(|| codec.try_decompress_f64(std::hint::black_box(&bytes), data.len()).unwrap())
        });
        g.finish();
    }
}

fn bench_gpzip(c: &mut Criterion) {
    let data = datagen::generate("City-Temp", vectorq::ROWGROUP_VALUES, 42);
    let raw: Vec<u8> = data.iter().flat_map(|v| v.to_le_bytes()).collect();
    let mut g = c.benchmark_group("gpzip_rowgroup");
    g.throughput(Throughput::Elements(data.len() as u64));
    g.sample_size(10);
    g.bench_function("compress", |b| b.iter(|| gpzip::compress(std::hint::black_box(&raw))));
    let bytes = gpzip::compress(&raw);
    g.bench_function("decompress", |b| {
        b.iter(|| gpzip::try_decompress(std::hint::black_box(&bytes)).unwrap())
    });
    g.finish();
}

fn bench_alp_reference(c: &mut Criterion) {
    let data = vector();
    let v = alp::encode::encode_vector(&data, 14, 13);
    let mut out = vec![0.0f64; VECTOR_SIZE];
    let mut g = c.benchmark_group("codec_alp");
    g.throughput(Throughput::Elements(VECTOR_SIZE as u64));
    g.bench_function("compress", |b| b.iter(|| alp::encode::encode_vector(&data, 14, 13)));
    g.bench_function("decompress", |b| {
        b.iter(|| alp::decode::decode_vector(&v, v.view(), &mut out))
    });
    g.finish();
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(15)
        .measurement_time(std::time::Duration::from_millis(700))
        .warm_up_time(std::time::Duration::from_millis(200))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_alp_reference, bench_codecs, bench_gpzip
}
criterion_main!(benches);
