//! Bit-level pins on trained weights.
//!
//! Every training path — the offline LM-MLP `fit`, the controller's
//! encoder/generator pre-training, one `update_MultiTask` GAN phase and an
//! MSCN `fit` — must produce exactly the same f64 bits whatever kernel,
//! tile shape or SIMD width the GEMM and optimizer code uses (DESIGN §3.7).
//! Each test FNV-1a-hashes the raw bits of what training produced and
//! compares with a constant; a kernel change that reorders a single
//! floating-point operation moves the hash.

use rand::rngs::StdRng;
use rand::SeedableRng;
use warper_core::encoder::Encoder;
use warper_core::gan::Gan;
use warper_core::runner::ModelKind;
use warper_core::{prepare_single_table, PreparedModel, QueryPool, WarperConfig, WarperController};
use warper_nn::Mlp;
use warper_storage::{generate, DatasetKind};

/// FNV-1a over the little-endian bytes of each value's bit pattern.
fn fnv1a(values: impl IntoIterator<Item = f64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn mlp_values(net: &Mlp) -> Vec<f64> {
    net.layers()
        .iter()
        .flat_map(|l| l.w.data().iter().chain(&l.b).copied())
        .collect()
}

fn estimates_hash(prepared: &PreparedModel) -> u64 {
    fnv1a(
        prepared
            .training_set
            .iter()
            .map(|(f, _)| prepared.model.estimate(f)),
    )
}

fn prepare(kind: ModelKind, n_train: usize) -> PreparedModel {
    let table = generate(DatasetKind::Prsa, 10_000, 7);
    prepare_single_table(&table, "w1", kind, n_train, 7).expect("offline training")
}

#[test]
fn lm_mlp_fit_is_pinned() {
    let prepared = prepare(ModelKind::LmMlp, 400);
    assert_eq!(
        format!("{:016x}", estimates_hash(&prepared)),
        "b888658c5939e866"
    );
}

#[test]
fn controller_pretrain_and_gan_phase_are_pinned() {
    let prepared = prepare(ModelKind::LmMlp, 400);
    // The serving-scale controller configuration.
    let cfg = WarperConfig {
        embed_dim: 8,
        hidden: 32,
        n_i: 6,
        pretrain_epochs: 3,
        gamma: 200,
        n_p: 60,
        ..Default::default()
    };
    let ctl = WarperController::new(
        prepared.fmap.dim(),
        &prepared.training_set,
        prepared.baseline_gmq,
        cfg,
        11,
    );
    let mut encoder: Encoder = ctl.encoder_snapshot();
    let (generator, discriminator) = ctl.gan_parts();
    let pretrained = fnv1a(
        mlp_values(encoder.net())
            .into_iter()
            .chain(mlp_values(&generator))
            .chain(mlp_values(&discriminator)),
    );
    assert_eq!(format!("{pretrained:016x}"), "d89a9a0f442d2f62");

    // One GAN phase with a quarter of the training set arriving as `new`.
    let mut pool = QueryPool::from_training_set(&prepared.training_set);
    let arrived: Vec<(Vec<f64>, Option<f64>)> = prepared
        .training_set
        .iter()
        .step_by(4)
        .map(|(f, c)| (f.clone(), Some(*c)))
        .collect();
    pool.append_new(&arrived);
    let mut gan = Gan::from_parts(generator, discriminator);
    let mut rng = StdRng::seed_from_u64(13);
    let stats = gan
        .update_multi_task(&mut encoder, &pool, &cfg, &mut rng)
        .expect("GAN phase trains");
    assert!(stats.iterations > 0, "the GAN phase must step");
    let (generator, discriminator) = gan.parts();
    let updated = fnv1a(
        mlp_values(encoder.net())
            .into_iter()
            .chain(mlp_values(&generator))
            .chain(mlp_values(&discriminator)),
    );
    assert_eq!(format!("{updated:016x}"), "447585ea6541274b");
}

#[test]
fn mscn_fit_is_pinned() {
    let prepared = prepare(ModelKind::Mscn, 200);
    assert_eq!(
        format!("{:016x}", estimates_hash(&prepared)),
        "f6ef8909107fc935"
    );
}
