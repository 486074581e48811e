//! `apps`: the paper's Table II JPEG study and the per-layer DNN binding
//! slate, on the signed fixed-point paths of the multiplier layer.
//!
//! Items are quality-50 `JpegCodec::roundtrip`s of seeded generated
//! 384×384 grayscale scenes through Accurate and the 8 `table2_designs()`,
//! and `QuantNet::accuracy` evaluations of the `dnn` driver's 16-config
//! slate on `tiny_net()` over batches of a seeded `orientation_dataset`.
//! Both kinds run as chunks of one `Workload` on `Engine` at the run's
//! thread count, interleaved so that the dynamic chunk pool mixes them.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Mutex;
use std::time::Instant;

use realm_baselines::catalog::table2_designs;
use realm_core::rng::SplitMix64;
use realm_core::{Accurate, Multiplier};
use realm_dsp::{matmul, matmul_scalar_reference, Matrix, Op, QuantNet};
use realm_jpeg::{dct, psnr, quant, Image, JpegCodec};
use realm_metrics::dnn::{parse_layer_bindings, DnnConfig};
use realm_metrics::{parse_design, Engine, Workload};
use realm_par::{Chunk, ChunkPlan, Threads};

use crate::stats::{self, Digest};
use crate::trace::{self, Tracer};
use crate::{Bench, Checks, Ctx, Pass};

const SETUP_REPS: usize = 9;
/// The item set runs this many times on the same inputs (see `Pass`).
const ROUNDS: usize = 3;
/// Generated scenes are larger than the built-in 256×256 ones.
const IMAGE_SIDE: usize = 384;
/// Scenes per second of `--seconds` (each is coded by 9 designs), sized
/// with the batches below on a 2-vCPU Xeon (AVX2 tier).
const IMAGES_PER_SECOND: f64 = 0.4;
/// Evaluation batches per config per second of `--seconds`.
const BATCHES_PER_SECOND: f64 = 0.2;
/// Patches per DNN item: sized so that a DNN item costs about what a
/// JPEG item costs.
const BATCH: usize = 2048;
/// Patches per config timed by the `QuantNet::forward` probe.
const FORWARD_PROBE: usize = 32;
/// `matmul` repetitions per binding in the GEMM probe.
const GEMM_REPS: usize = 200;

/// The `dnn` driver's slate: 11 uniform and 5 mixed per-layer configs.
const UNIFORM: [&str; 11] = [
    "accurate",
    "realm:m=16,t=0",
    "realm:m=16,t=3",
    "realm:m=8,t=3",
    "realm:m=8,t=6",
    "realm:m=4,t=9",
    "calm",
    "drum:k=6",
    "mbm:t=0",
    "scaletrim:t=6,c=1",
    "ilm:i=2",
];
const MIXED: [&str; 5] = [
    "conv1=realm:m=8,t=3,dense1=realm:m=16,t=0",
    "conv1=realm:m=4,t=9,dense1=realm:m=16,t=0",
    "conv1=realm:m=8,t=6,dense1=realm:m=16,t=3",
    "conv1=drum:k=6,dense1=realm:m=16,t=0",
    "conv1=scaletrim:t=6,c=1,dense1=realm:m=16,t=0",
];

/// A boxed design as a `Multiplier` value the codec can own; JPEG makes
/// one `multiply` call per product.
#[derive(Debug)]
struct Owned(Box<dyn Multiplier>);

impl Multiplier for Owned {
    fn width(&self) -> u32 {
        self.0.width()
    }
    fn multiply(&self, a: u64, b: u64) -> u64 {
        self.0.multiply(a, b)
    }
    fn name(&self) -> &str {
        self.0.name()
    }
    fn config(&self) -> String {
        self.0.config()
    }
}

struct Built {
    codecs: Vec<JpegCodec<Owned>>,
    net: QuantNet,
    configs: Vec<DnnConfig>,
    /// Per config, one design per MAC layer.
    bindings: Vec<Vec<Box<dyn Multiplier>>>,
}

fn build(tracer: &Tracer) -> Result<(Built, f64), String> {
    let mut designs: Vec<Box<dyn Multiplier>> = vec![Box::new(Accurate::new(16))];
    designs.extend(table2_designs());
    let codecs = designs
        .into_iter()
        .map(|d| JpegCodec::quality50(Owned(d)))
        .collect();
    let t = Instant::now();
    let net = tracer.span("dsp.net_build", 0, 0, 0, |_| realm_dsp::tiny_net());
    let net_ms = t.elapsed().as_secs_f64() * 1e3;
    let mac_layers = net.mac_layers();
    let mut configs = Vec::new();
    for design in UNIFORM {
        configs.push(DnnConfig::uniform(design, mac_layers.len()).map_err(|e| e.to_string())?);
    }
    for spec in MIXED {
        let bindings = parse_layer_bindings(spec).map_err(|e| e.to_string())?;
        configs.push(
            DnnConfig::from_bindings("accurate", &bindings, &mac_layers)
                .map_err(|e| e.to_string())?,
        );
    }
    let bindings = configs
        .iter()
        .map(|c| {
            c.designs
                .iter()
                .map(|d| parse_design(d).map_err(|e| e.to_string()))
                .collect::<Result<Vec<_>, _>>()
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok((
        Built {
            codecs,
            net,
            configs,
            bindings,
        },
        net_ms,
    ))
}

pub struct Apps {
    built: Built,
    images: Vec<Image>,
    data: Vec<(Vec<u8>, usize)>,
    batch_len: usize,
    items: Vec<Item>,
    setup_s: f64,
    net_build_ms: f64,
}

#[derive(Debug, Clone, Copy)]
enum Item {
    Jpeg { image: usize, design: usize },
    Dnn { config: usize, batch: usize },
}

/// A seeded grayscale scene: a gradient, overlapping discs of random
/// level, a sinusoidal texture band and per-pixel noise. Texture
/// frequency and noise amplitude are fixed: they set how many quantized
/// coefficients are nonzero, and multiplies by zero are cheaper, so
/// varying them would make the work itself vary from seed to seed.
fn scene(seed: u64, side: usize) -> Image {
    const FREQ: f64 = 0.15;
    const NOISE: u64 = 6;
    let mut rng = SplitMix64::new(seed);
    let (gx, gy) = (rng.next_f64() * 2.0 - 1.0, rng.next_f64() * 2.0 - 1.0);
    let discs: Vec<(f64, f64, f64, f64)> = (0..16)
        .map(|_| {
            (
                rng.next_f64() * side as f64,
                rng.next_f64() * side as f64,
                8.0 + rng.next_f64() * side as f64 / 5.0,
                rng.next_f64() * 160.0 - 80.0,
            )
        })
        .collect();
    let phase = rng.next_f64() * std::f64::consts::TAU;
    Image::from_fn(side, side, |x, y| {
        let (xf, yf) = (x as f64, y as f64);
        let mut v = 128.0 + 50.0 * (gx * xf + gy * yf) / side as f64;
        for &(cx, cy, r, level) in &discs {
            if (xf - cx).powi(2) + (yf - cy).powi(2) < r * r {
                v += level;
            }
        }
        if (y * 4 / side) % 2 == 1 {
            v += 30.0 * (FREQ * (xf + 0.5 * yf) + phase).sin();
        }
        v += rng.range_inclusive(0, 2 * NOISE) as f64 - NOISE as f64;
        v.clamp(0.0, 255.0) as u8
    })
}

impl Apps {
    pub fn setup(ctx: &Ctx, tracer: &Tracer) -> Result<Self, String> {
        let (mut total, mut net_ms) = (Vec::new(), Vec::new());
        let mut built = None;
        for _ in 0..SETUP_REPS {
            let t = Instant::now();
            let (b, net) = build(tracer)?;
            total.push(t.elapsed().as_secs_f64());
            net_ms.push(net);
            built = Some(b);
        }
        let built = built.ok_or("no set-up repetition ran")?;

        // Inputs: generated from the seed, outside the set-up time.
        let (n_images, n_batches, batch) = if ctx.tiny {
            (1, 1, 64)
        } else {
            (
                (IMAGES_PER_SECOND * f64::from(ctx.seconds))
                    .round()
                    .max(1.0) as usize,
                (BATCHES_PER_SECOND * f64::from(ctx.seconds))
                    .round()
                    .max(1.0) as usize,
                BATCH,
            )
        };
        let side = if ctx.tiny { 64 } else { IMAGE_SIDE };
        let images: Vec<Image> = (0..n_images)
            .map(|i| scene(SplitMix64::stream(ctx.seed, i as u64).next_u64(), side))
            .collect();
        let data = realm_dsp::orientation_dataset(n_batches * batch, ctx.seed);
        let jpeg = (0..n_images).flat_map(|image| {
            (0..built.codecs.len()).map(move |design| Item::Jpeg { image, design })
        });
        let dnn: Vec<Item> = (0..n_batches)
            .flat_map(|batch| {
                (0..built.configs.len()).map(move |config| Item::Dnn { config, batch })
            })
            .collect();
        // Interleave the two kinds in proportion, with the short round
        // trips through the accurate design last: the pool takes items in
        // order, so short items at the end keep both threads busy until
        // a round's final item.
        let (jpeg, accurate): (Vec<Item>, Vec<Item>) =
            jpeg.partition(|i| !matches!(i, Item::Jpeg { design: 0, .. }));
        let mut items = Vec::with_capacity(jpeg.len() + dnn.len() + accurate.len());
        let (mut j, mut d) = (0usize, 0usize);
        while j < jpeg.len() || d < dnn.len() {
            if d >= dnn.len() || (j < jpeg.len() && j * dnn.len() <= d * jpeg.len()) {
                items.push(jpeg[j]);
                j += 1;
            } else {
                items.push(dnn[d]);
                d += 1;
            }
        }
        items.extend(accurate);
        Ok(Apps {
            built,
            images,
            data,
            batch_len: batch,
            items,
            setup_s: stats::median(&total),
            net_build_ms: stats::median(&net_ms),
        })
    }

    /// Evaluation batch `b` of the dataset.
    fn batch(&self, b: usize) -> &[(Vec<u8>, usize)] {
        &self.data[b * self.batch_len..(b + 1) * self.batch_len]
    }

    fn refs(&self, config: usize) -> Vec<&dyn Multiplier> {
        self.built.bindings[config]
            .iter()
            .map(|d| d.as_ref())
            .collect()
    }

    /// The conv layer's GEMM operands for one patch (im2col windows ×
    /// filter matrix), as `QuantNet::forward` lowers it.
    fn conv_gemm(&self, patch: &[u8]) -> (Matrix, Matrix, u32) {
        let conv = self
            .built
            .net
            .layers()
            .iter()
            .find_map(|l| match &l.op {
                Op::Conv {
                    in_ch,
                    out_ch,
                    ksize,
                    weights,
                    shift,
                    ..
                } => Some((*in_ch, *out_ch, *ksize, weights.clone(), *shift)),
                _ => None,
            })
            .expect("tiny_net has a conv layer");
        let (in_ch, out_ch, ksize, weights, shift) = conv;
        let windows =
            realm_dsp::im2col::im2col(in_ch, 8, 8, ksize, |_, x, y| patch[y * 8 + x] as i32 - 128);
        let taps = in_ch * ksize * ksize;
        let wmat = Matrix::from_fn(taps, out_ch, |r, c| weights[c * taps + r]);
        (windows, wmat, shift)
    }

    /// The dense layer's GEMM shape with seeded activations in the
    /// post-ReLU range.
    fn dense_gemm(&self, seed: u64) -> (Matrix, Matrix, u32) {
        let (inputs, outputs, weights, shift) = self
            .built
            .net
            .layers()
            .iter()
            .find_map(|l| match &l.op {
                Op::Dense {
                    inputs,
                    outputs,
                    weights,
                    shift,
                    ..
                } => Some((*inputs, *outputs, weights.clone(), *shift)),
                _ => None,
            })
            .expect("tiny_net has a dense layer");
        let mut rng = SplitMix64::new(seed);
        let a = Matrix::from_fn(1, inputs, |_, _| rng.range_inclusive(0, 127) as i32);
        let w = Matrix::from_fn(inputs, outputs, |r, c| weights[c * inputs + r]);
        (a, w, shift)
    }

    /// Every distinct design bound anywhere in the slate.
    fn distinct_bindings(&self) -> Vec<(&str, &dyn Multiplier)> {
        let mut seen: BTreeMap<&str, &dyn Multiplier> = BTreeMap::new();
        for (config, designs) in self.built.configs.iter().zip(&self.built.bindings) {
            for (text, design) in config.designs.iter().zip(designs) {
                seen.entry(text.as_str()).or_insert(design.as_ref());
            }
        }
        seen.into_iter().collect()
    }

    fn probes(&self, tracer: &Tracer) {
        // DCT: forward + inverse over the first scene's blocks, per design,
        // on the inputs the codec gives them: the level-shifted block and
        // its quantized-then-dequantized coefficients (mostly zero, and a
        // product with a zero operand is cheap).
        let image = &self.images[0];
        let table = quant::scaled_table(50);
        let mut blocks = Vec::new();
        for by in (0..image.height()).step_by(8) {
            for bx in (0..image.width()).step_by(8) {
                blocks.push(std::array::from_fn::<[i32; 8], 8, _>(|r| {
                    std::array::from_fn(|c| {
                        let y = (by + r).min(image.height() - 1);
                        let x = (bx + c).min(image.width() - 1);
                        image.get(x, y) as i32 - 128
                    })
                }));
            }
        }
        for (d, codec) in self.built.codecs.iter().enumerate() {
            // The multiplier exactly as `compress` calls it.
            let m: &dyn Multiplier = codec.multiplier();
            let dequantized: Vec<[[i32; 8]; 8]> = blocks
                .iter()
                .map(|block| {
                    let coef = dct::forward(m, block);
                    std::array::from_fn(|r| {
                        std::array::from_fn(|c| {
                            let q = quant::quantize(coef[r][c], table[r][c]);
                            let p = m.multiply(q.unsigned_abs() as u64, table[r][c] as u64) as i32;
                            if q < 0 {
                                -p
                            } else {
                                p
                            }
                        })
                    })
                })
                .collect();
            tracer.span("jpeg.dct", 0, d as u64, blocks.len() as u64, |_| {
                for (block, coef) in blocks.iter().zip(&dequantized) {
                    black_box(dct::forward(m, black_box(block)));
                    black_box(dct::inverse(m, black_box(coef)));
                }
            });
        }
        // QuantNet::forward per patch, per config.
        let macs: u64 = self.built.net.mac_counts().iter().map(|(_, n)| n).sum();
        let batch = self.batch(0);
        for config in 0..self.built.configs.len() {
            let refs = self.refs(config);
            for (patch, _) in batch.iter().take(FORWARD_PROBE) {
                tracer.span("dsp.forward", 0, config as u64, macs, |_| {
                    black_box(self.built.net.forward(&refs, black_box(patch)))
                });
            }
        }
        // GEMM on the conv layer's im2col shape, batched and scalar.
        let (a, b, shift) = self.conv_gemm(&batch[0].0);
        let macs = (a.rows() * a.cols() * b.cols() * GEMM_REPS) as u64;
        for (i, (_, design)) in self.distinct_bindings().into_iter().enumerate() {
            tracer.span("dsp.gemm", 0, i as u64, macs, |_| {
                for _ in 0..GEMM_REPS {
                    black_box(matmul(design, black_box(&a), &b, shift));
                }
            });
            tracer.span("dsp.gemm_reference", 0, i as u64, macs, |_| {
                for _ in 0..GEMM_REPS {
                    black_box(matmul_scalar_reference(design, black_box(&a), &b, shift));
                }
            });
        }
    }

    fn layers(&self, spans: &[trace::Span]) -> BTreeMap<&'static str, f64> {
        let s = trace::summarize(spans);
        let get = |name: &str| s.get(name).cloned().unwrap_or_default();
        let (forward, gemm, reference) = (
            get("dsp.forward"),
            get("dsp.gemm"),
            get("dsp.gemm_reference"),
        );
        // Approximate designs only (design 0 is Accurate): round trips of
        // every scene, those of the probed first scene, and the DCT probe.
        let mut roundtrip_ms = Vec::new();
        let (mut first_scene_ns, mut first_scene_spans) = (0u64, 0u64);
        let (mut dct_ns, mut dct_blocks, mut dct_spans) = (0u64, 0u64, 0u64);
        for (span, self_ns) in spans.iter().zip(trace::self_times(spans)) {
            match (span.name, self.items.get(span.item as usize)) {
                ("jpeg.roundtrip", Some(Item::Jpeg { image, design })) if *design > 0 => {
                    roundtrip_ms.push(self_ns as f64 / 1e6);
                    if *image == 0 {
                        first_scene_ns += self_ns;
                        first_scene_spans += 1;
                    }
                }
                ("jpeg.dct", _) if span.item > 0 => {
                    dct_ns += self_ns;
                    dct_blocks += span.units;
                    dct_spans += 1;
                }
                _ => {}
            }
        }
        let per_span = |ns: u64, n: u64| ns as f64 / n.max(1) as f64;
        let infer_us: Vec<f64> = forward
            .self_each
            .iter()
            .map(|&ns| ns as f64 / 1e3)
            .collect();
        [
            ("jpeg.roundtrip_ms", stats::median(&roundtrip_ms)),
            ("jpeg.dct_ns_per_block", per_span(dct_ns, dct_blocks)),
            (
                "jpeg.dct_share",
                per_span(dct_ns, dct_spans) / per_span(first_scene_ns, first_scene_spans),
            ),
            ("dsp.infer_us", stats::median(&infer_us)),
            ("dsp.ns_per_mac", forward.ns_per_unit()),
            ("dsp.gemm_ns_per_mac", gemm.ns_per_unit()),
            (
                "dsp.gemm_batched_speedup",
                reference.self_ns as f64 / gemm.self_ns.max(1) as f64,
            ),
        ]
        .into_iter()
        .collect()
    }
}

/// The timed work: one chunk per item.
struct AppsWorkload<'a> {
    apps: &'a Apps,
    tracer: &'a Tracer,
    item_ms: Mutex<Vec<f64>>,
}

impl Workload for AppsWorkload<'_> {
    type Part = (u64, f64);
    type Output = Vec<(u64, f64)>;

    fn family(&self) -> &'static str {
        "perfbench-apps"
    }

    fn subject(&self) -> String {
        format!("{} items", self.apps.items.len())
    }

    fn plan(&self) -> ChunkPlan {
        ChunkPlan::new(self.apps.items.len() as u64, 1)
    }

    fn seed(&self) -> u64 {
        0
    }

    /// Returns the item's output fingerprint and its checked value (PSNR
    /// in dB or accuracy).
    fn run_chunk(&self, chunk: Chunk) -> (u64, f64) {
        let idx = chunk.start as usize;
        let apps = self.apps;
        let tracer = self.tracer;
        let t = Instant::now();
        let out = match apps.items[idx] {
            Item::Jpeg { image, design } => tracer.span("apps.jpeg", 0, idx as u64, 1, |item| {
                let img = &apps.images[image];
                let rec = tracer.span("jpeg.roundtrip", item, idx as u64, 1, |_| {
                    apps.built.codecs[design].roundtrip(img)
                });
                let db = psnr(img, &rec);
                (Digest::new().bytes(rec.pixels()).f64(db).finish(), db)
            }),
            Item::Dnn { config, batch } => tracer.span("apps.dnn", 0, idx as u64, 1, |item| {
                let refs = apps.refs(config);
                let acc = tracer.span("dsp.accuracy", item, idx as u64, 1, |_| {
                    apps.built.net.accuracy(&refs, apps.batch(batch))
                });
                (Digest::new().f64(acc).finish(), acc)
            }),
        };
        if let Ok(mut ms) = self.item_ms.lock() {
            ms[idx] = t.elapsed().as_secs_f64() * 1e3;
        }
        out
    }

    fn finalize(&self, parts: Vec<(u64, (u64, f64))>) -> Option<Vec<(u64, f64)>> {
        Some(parts.into_iter().map(|(_, p)| p).collect())
    }
}

impl Bench for Apps {
    fn setup_s(&self) -> f64 {
        self.setup_s
    }

    fn setup_layers(&self) -> Vec<(&'static str, f64)> {
        vec![("dsp.net_build_ms", self.net_build_ms)]
    }

    fn work_size(&self, _ctx: &Ctx) -> (&'static str, u64) {
        ("items", self.items.len() as u64)
    }

    /// Batched GEMM must equal the scalar reference for every design
    /// bound in the slate, on both MAC shapes of the net.
    fn check(&self, ctx: &Ctx) -> Checks {
        let mut checks = Checks::default();
        let conv: Vec<_> = self
            .data
            .iter()
            .take(4)
            .map(|(patch, _)| self.conv_gemm(patch))
            .collect();
        let dense = self.dense_gemm(ctx.seed);
        for (text, design) in self.distinct_bindings() {
            let outcome =
                conv.iter()
                    .chain(std::iter::once(&dense))
                    .try_for_each(|(a, b, shift)| {
                        if matmul(design, a, b, *shift)
                            == matmul_scalar_reference(design, a, b, *shift)
                        {
                            Ok(())
                        } else {
                            Err(format!(
                                "{}×{}·{}×{}",
                                a.rows(),
                                a.cols(),
                                b.rows(),
                                b.cols()
                            ))
                        }
                    });
            checks.record(&format!("apps gemm ≡ reference for {text}"), outcome);
        }
        checks
    }

    fn warm_up(&self, ctx: &Ctx) {
        // One JPEG item per design and one DNN item per config.
        let img = &self.images[0];
        let tile = Image::from_fn(64.min(img.width()), 64.min(img.height()), |x, y| {
            img.get(x, y)
        });
        std::thread::scope(|scope| {
            for t in 0..ctx.threads {
                let tile = &tile;
                scope.spawn(move || {
                    for codec in self.built.codecs.iter().skip(t).step_by(ctx.threads) {
                        black_box(codec.roundtrip(tile));
                    }
                    for config in (t..self.built.configs.len()).step_by(ctx.threads) {
                        let data = &self.batch(0)[..64.min(self.batch_len)];
                        black_box(self.built.net.accuracy(&self.refs(config), data));
                    }
                });
            }
        });
    }

    fn pass(&self, ctx: &Ctx, tracer: &Tracer, _tag: &str) -> Pass {
        let mut pass = Pass::default();
        for _ in 0..ROUNDS {
            let workload = AppsWorkload {
                apps: self,
                tracer,
                item_ms: Mutex::new(vec![0.0; self.items.len()]),
            };
            let start = Instant::now();
            let outputs = Engine::new(Threads::Fixed(ctx.threads))
                .run(&workload)
                .unwrap_or_default();
            let wall_s = start.elapsed().as_secs_f64();
            pass.checks.record(
                "apps item count",
                if outputs.len() == self.items.len() {
                    Ok(())
                } else {
                    Err(format!(
                        "{} outputs for {} items",
                        outputs.len(),
                        self.items.len()
                    ))
                },
            );
            for (item, (_, value)) in self.items.iter().zip(&outputs) {
                let ok = match item {
                    Item::Jpeg { .. } => value.is_finite() && *value > 0.0,
                    Item::Dnn { config, .. } => {
                        let accurate = self.built.configs[*config].label == "uniform:accurate";
                        (0.0..=1.0).contains(value) && (!accurate || *value > 0.5)
                    }
                };
                pass.checks.record(
                    "apps item",
                    if ok {
                        Ok(())
                    } else {
                        Err(format!("{item:?} produced {value}"))
                    },
                );
            }
            let item_ms = workload.item_ms.into_inner().unwrap_or_default();
            let fingerprints = outputs.iter().map(|(f, _)| *f).collect();
            pass.add_round(outputs.len() as f64, wall_s, &item_ms, fingerprints);
        }
        if tracer.enabled() {
            self.probes(tracer);
            pass.spans = tracer.take();
            pass.layers = self.layers(&pass.spans);
        }
        pass
    }
}
