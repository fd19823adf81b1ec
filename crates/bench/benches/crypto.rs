//! Crypto primitive costs backing the §6.5 "decryption dominates" claim.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mixnn_crypto::chacha20;
use mixnn_crypto::hmac::hmac_sha256;
use mixnn_crypto::sha256;
use mixnn_crypto::x25519;
use mixnn_crypto::{KeyPair, SealedBox};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

fn configure(group: &mut criterion::BenchmarkGroup<'_, criterion::measurement::WallTime>) {
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));
}

fn bench_primitives(c: &mut Criterion) {
    let mut group = c.benchmark_group("crypto/primitives");
    configure(&mut group);
    let data = vec![0xa5u8; 64 * 1024];
    group.throughput(Throughput::Bytes(data.len() as u64));
    group.bench_function("sha256/64KiB", |b| b.iter(|| sha256::digest(&data)));
    group.bench_function("hmac_sha256/64KiB", |b| {
        b.iter(|| hmac_sha256(b"key", &data))
    });
    group.bench_function("chacha20/64KiB", |b| {
        let key = [7u8; 32];
        let nonce = [9u8; 12];
        let mut buf = data.clone();
        b.iter(|| chacha20::xor_keystream(&key, &nonce, 0, &mut buf));
    });
    group.finish();

    let mut group = c.benchmark_group("crypto/x25519");
    configure(&mut group);
    group.bench_function("scalarmult", |b| {
        let scalar = [0x42u8; 32];
        b.iter(|| x25519::x25519(&scalar, &x25519::BASEPOINT));
    });
    group.finish();
}

fn bench_sealed_box(c: &mut Criterion) {
    let mut group = c.benchmark_group("crypto/sealed_box");
    configure(&mut group);
    let mut rng = StdRng::seed_from_u64(0);
    let recipient = KeyPair::generate(&mut rng);
    for &size in &[1024usize, 128 * 1024, 1024 * 1024] {
        let message = vec![0x5au8; size];
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::new("seal", size), &size, |b, _| {
            b.iter(|| SealedBox::seal(&message, recipient.public(), &mut rng).unwrap());
        });
        let sealed = SealedBox::seal(&message, recipient.public(), &mut rng).unwrap();
        group.bench_with_input(BenchmarkId::new("open", size), &size, |b, _| {
            b.iter(|| SealedBox::open(&sealed, &recipient).unwrap());
        });
    }
    group.finish();
}

/// The hot path the proxies actually run: a round's worth of envelopes
/// opened together, amortizing the X25519 schedule and field inversion
/// across the batch. Throughput counts are per *envelope* so the per-item
/// gain over `sealed_box/open` is read straight off the report.
fn bench_open_batch(c: &mut Criterion) {
    let mut group = c.benchmark_group("crypto/open_batch");
    configure(&mut group);
    let mut rng = StdRng::seed_from_u64(1);
    let recipient = KeyPair::generate(&mut rng);
    let message = vec![0xa5u8; 1024];
    for &batch in &[1usize, 4, 16, 64] {
        let sealed: Vec<Vec<u8>> = (0..batch)
            .map(|_| SealedBox::seal(&message, recipient.public(), &mut rng).unwrap())
            .collect();
        group.throughput(Throughput::Elements(batch as u64));
        group.bench_with_input(BenchmarkId::new("1024B", batch), &batch, |b, _| {
            b.iter(|| {
                SealedBox::open_batch(&sealed, &recipient)
                    .into_iter()
                    .map(|r| r.unwrap().len())
                    .sum::<usize>()
            });
        });
    }
    group.finish();
}

/// The sealing twin of `open_batch`: a batch of 1 KiB envelopes whose
/// ephemeral keys derive together (`SealedBox::ephemerals`, one
/// `x25519_many` call for every keygen and DH), then seal one by one.
/// Batch size 1 is plain `SealedBox::seal`'s path. Throughput counts are
/// per envelope, so each row reads directly against the `open_batch` row
/// of the same size.
fn bench_seal_batch(c: &mut Criterion) {
    let mut group = c.benchmark_group("crypto/seal_batch");
    configure(&mut group);
    let mut rng = StdRng::seed_from_u64(2);
    let recipient = *KeyPair::generate(&mut rng).public();
    let message = vec![0xa5u8; 1024];
    for &batch in &[1usize, 4, 16, 64] {
        let recipients = vec![recipient; batch];
        group.throughput(Throughput::Elements(batch as u64));
        group.bench_with_input(BenchmarkId::new("1024B", batch), &batch, |b, _| {
            b.iter(|| {
                SealedBox::ephemerals(&recipients, &mut rng)
                    .unwrap()
                    .into_iter()
                    .map(|eph| eph.seal(&message).len())
                    .sum::<usize>()
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_primitives,
    bench_sealed_box,
    bench_open_batch,
    bench_seal_batch
);
criterion_main!(benches);
