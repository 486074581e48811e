//! A small int8 quantized inference network with **per-layer multiplier
//! binding** — the substrate behind the `dnn` campaign driver.
//!
//! A [`QuantNet`] is a pipeline of [`Layer`]s (int8 conv, ReLU, average
//! pool, int8 dense) with a per-layer rescale shift. Every
//! multiply-accumulate layer binds its *own* [`Multiplier`], so a sweep
//! can pair an aggressive design for the error-tolerant convolution
//! front end with a conservative one for the decision-making classifier
//! head — the per-layer co-selection the DNN approximate-multiplier
//! literature optimizes for.
//!
//! Each `forward`, `classify` or `accuracy` call builds one plan: the
//! gather indices of every conv ([`crate::im2col::im2col`] of the map's
//! own indices), the shape checks and one activation buffer per layer,
//! reused for every patch. A MAC layer takes each product from one of
//! two sources:
//!
//! * **the binding**, in the order a GEMM over the im2col rows takes
//!   them (pixel row, then output channel, then tap), one
//!   `multiply_batch` call of `taps` lanes per output element.
//!   `forward`, `classify` and every binding that is not
//!   [pure](Multiplier::is_pure) use it, so a design that draws faults
//!   or counts per call sees the same calls on every path;
//! * **a product table**: `accuracy` fills one 129 × 129 table of `u32`
//!   magnitude products per pure binding (66,564 bytes) with the
//!   binding's own `multiply_batch`, and looks each product up. A
//!   magnitude above 128, or a product that does not fit in `u32`, goes
//!   to the binding's `multiply`. Single-patch calls stay on the
//!   binding: with tables, one `tiny_net` `forward` took about six times
//!   as long (DESIGN.md §17).
//!
//! Both sources give the same bits: a product is the same number
//! whichever way it is taken, and accumulation is exact.
//!
//! Quantization scheme (fixed, documented in DESIGN.md §17):
//!
//! * activations are int8: inputs are centred (`pixel − 128`), hidden
//!   activations clamp to `[0, 127]` after ReLU;
//! * weights are int8 (`[-127, 127]`, symmetric, no `-128`);
//! * each MAC layer accumulates exactly in `i64` and re-quantizes once
//!   with an arithmetic right shift (its *scale shift*), then adds its
//!   int bias in the output scale;
//! * operand magnitudes never exceed 128, so any zoo design of width
//!   ≥ 8 bits can bind to any layer.

use crate::gemm::descale;
use crate::im2col::im2col;
use realm_core::multiplier::MultiplierExt;
use realm_core::signed::apply_sign;
use realm_core::{FixedBatch, Multiplier};

/// Maximum magnitude of a quantized weight (symmetric int8).
pub const WEIGHT_MAX: i32 = 127;

/// One pipeline stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// int8 2-D convolution (edge-replicated borders) with a per-layer
    /// scale shift and per-output-channel bias in the output scale.
    Conv {
        /// Input channel count.
        in_ch: usize,
        /// Output channel count.
        out_ch: usize,
        /// Odd kernel side length.
        ksize: usize,
        /// Weights, `[out_ch][in_ch · ksize²]`, channel-major then
        /// row-major within the window (the im2col column order).
        weights: Vec<i32>,
        /// Per-output-channel bias, added after the scale shift.
        bias: Vec<i32>,
        /// Re-quantization right shift applied to each accumulator.
        shift: u32,
    },
    /// ReLU clamping activations into the int8 range `[0, 127]`.
    Relu,
    /// Non-overlapping `k × k` average pooling (integer mean, truncated
    /// toward zero).
    AvgPool {
        /// Pool side length (must divide the map dimensions).
        k: usize,
    },
    /// int8 fully-connected layer over the flattened CHW input.
    Dense {
        /// Flattened input length.
        inputs: usize,
        /// Output (logit) count.
        outputs: usize,
        /// Weights, `[outputs][inputs]`.
        weights: Vec<i32>,
        /// Per-output bias, added after the scale shift.
        bias: Vec<i32>,
        /// Re-quantization right shift applied to each accumulator.
        shift: u32,
    },
}

/// A named pipeline stage; MAC stages (`Conv`, `Dense`) bind one
/// multiplier each at inference time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Layer {
    /// The layer's binding name (e.g. `conv1`, `dense1`).
    pub name: String,
    /// The operation.
    pub op: Op,
}

impl Layer {
    /// Whether this layer consumes a multiplier binding.
    pub fn is_mac(&self) -> bool {
        matches!(self.op, Op::Conv { .. } | Op::Dense { .. })
    }

    /// Multiply-accumulate operations per inference (0 for non-MAC
    /// layers), given the input map this layer sees.
    fn macs(&self, in_w: usize, in_h: usize) -> u64 {
        match &self.op {
            Op::Conv {
                in_ch,
                out_ch,
                ksize,
                ..
            } => (in_w * in_h * out_ch * in_ch * ksize * ksize) as u64,
            Op::Dense {
                inputs, outputs, ..
            } => (inputs * outputs) as u64,
            _ => 0,
        }
    }
}

/// A quantized inference pipeline with per-layer multiplier binding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuantNet {
    input_width: usize,
    input_height: usize,
    layers: Vec<Layer>,
}

impl QuantNet {
    /// Assembles a pipeline over `input_width × input_height` grayscale
    /// images.
    ///
    /// # Panics
    ///
    /// Panics if `layers` is empty, a layer name repeats, or a MAC
    /// layer's weight/bias lengths disagree with its shape.
    pub fn new(input_width: usize, input_height: usize, layers: Vec<Layer>) -> Self {
        assert!(!layers.is_empty(), "a net needs at least one layer");
        for (i, layer) in layers.iter().enumerate() {
            assert!(
                !layers[..i].iter().any(|l| l.name == layer.name),
                "duplicate layer name '{}'",
                layer.name
            );
            match &layer.op {
                Op::Conv {
                    in_ch,
                    out_ch,
                    ksize,
                    weights,
                    bias,
                    ..
                } => {
                    assert!(ksize % 2 == 1, "kernel size must be odd");
                    assert_eq!(
                        weights.len(),
                        out_ch * in_ch * ksize * ksize,
                        "conv '{}' weight count",
                        layer.name
                    );
                    assert_eq!(bias.len(), *out_ch, "conv '{}' bias count", layer.name);
                }
                Op::Dense {
                    inputs,
                    outputs,
                    weights,
                    bias,
                    ..
                } => {
                    assert_eq!(
                        weights.len(),
                        inputs * outputs,
                        "dense '{}' weight count",
                        layer.name
                    );
                    assert_eq!(bias.len(), *outputs, "dense '{}' bias count", layer.name);
                }
                Op::Relu | Op::AvgPool { .. } => {}
            }
        }
        QuantNet {
            input_width,
            input_height,
            layers,
        }
    }

    /// The layers in pipeline order.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Names of the MAC layers in binding order — the layers a per-layer
    /// design spec addresses and `forward` consumes bindings for.
    pub fn mac_layers(&self) -> Vec<&str> {
        self.layers
            .iter()
            .filter(|l| l.is_mac())
            .map(|l| l.name.as_str())
            .collect()
    }

    /// Multiply-accumulate count per inference for each MAC layer, in
    /// binding order — the per-layer weights of a config's cost.
    pub fn mac_counts(&self) -> Vec<(String, u64)> {
        let mut counts = Vec::new();
        let (mut w, mut h) = (self.input_width, self.input_height);
        for layer in &self.layers {
            if layer.is_mac() {
                counts.push((layer.name.clone(), layer.macs(w, h)));
            }
            if let Op::AvgPool { k } = layer.op {
                w /= k;
                h /= k;
            }
        }
        counts
    }

    /// FNV-64 fingerprint of the topology and every quantized weight —
    /// part of the sweep Workload's campaign identity.
    pub fn fingerprint(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |v: i64| {
            for b in v.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        eat(self.input_width as i64);
        eat(self.input_height as i64);
        for layer in &self.layers {
            for b in layer.name.bytes() {
                eat(b as i64);
            }
            match &layer.op {
                Op::Conv {
                    in_ch,
                    out_ch,
                    ksize,
                    weights,
                    bias,
                    shift,
                } => {
                    eat(1);
                    eat(*in_ch as i64);
                    eat(*out_ch as i64);
                    eat(*ksize as i64);
                    eat(*shift as i64);
                    weights.iter().chain(bias).for_each(|&v| eat(v as i64));
                }
                Op::Relu => eat(2),
                Op::AvgPool { k } => {
                    eat(3);
                    eat(*k as i64);
                }
                Op::Dense {
                    inputs,
                    outputs,
                    weights,
                    bias,
                    shift,
                } => {
                    eat(4);
                    eat(*inputs as i64);
                    eat(*outputs as i64);
                    eat(*shift as i64);
                    weights.iter().chain(bias).for_each(|&v| eat(v as i64));
                }
            }
        }
        h
    }

    /// Runs inference: centres the image to int8, pushes it through the
    /// pipeline with one multiplier per MAC layer (in [`Self::mac_layers`]
    /// order), returns the final flattened activations (logits for a
    /// classifier head). Every product comes from the binding.
    ///
    /// # Panics
    ///
    /// Panics unless the image matches the input dimensions and
    /// `bindings.len()` equals the MAC layer count.
    pub fn forward(&self, bindings: &[&dyn Multiplier], image: &[u8]) -> Vec<i64> {
        self.plan(bindings, false)
            .run(image)
            .iter()
            .map(|&v| i64::from(v))
            .collect()
    }

    /// Argmax classification (first maximum wins ties), with every
    /// product from the binding.
    pub fn classify(&self, bindings: &[&dyn Multiplier], image: &[u8]) -> usize {
        argmax(self.plan(bindings, false).run(image))
    }

    /// Classification accuracy over a labelled set: the fraction of
    /// patches that [`Self::classify`] labels right. A pure binding's
    /// products come from its product table (see the module doc).
    pub fn accuracy(&self, bindings: &[&dyn Multiplier], data: &[(Vec<u8>, usize)]) -> f64 {
        let mut plan = self.plan(bindings, true);
        let correct = data
            .iter()
            .filter(|(img, label)| argmax(plan.run(img)) == *label)
            .count();
        correct as f64 / data.len() as f64
    }

    /// The plan of one evaluation under `bindings`. With `tables`, each
    /// pure binding fills a product table; every other binding, and every
    /// binding without `tables`, is called per product.
    ///
    /// # Panics
    ///
    /// Panics unless `bindings.len()` equals the MAC layer count, and on
    /// a layer whose shape does not fit the map it receives.
    fn plan<'a>(&'a self, bindings: &[&'a dyn Multiplier], tables: bool) -> Plan<'a> {
        assert_eq!(
            bindings.len(),
            self.layers.iter().filter(|l| l.is_mac()).count(),
            "one multiplier binding per MAC layer"
        );
        let mut bound = 0;
        let mut source = || {
            let m = bindings[bound];
            bound += 1;
            (m, (tables && m.is_pure()).then(|| ProductTable::fill(m)))
        };
        let (mut channels, mut width, mut height) = (1, self.input_width, self.input_height);
        let mut steps = Vec::with_capacity(self.layers.len());
        for layer in &self.layers {
            let step = match &layer.op {
                Op::Conv {
                    in_ch,
                    out_ch,
                    ksize,
                    weights,
                    bias,
                    shift,
                } => {
                    assert_eq!(channels, *in_ch, "conv '{}' channel mismatch", layer.name);
                    let windows = im2col(channels, width, height, *ksize, |c, x, y| {
                        ((c * height + y) * width + x) as i32
                    });
                    let gather = (0..windows.rows())
                        .flat_map(|p| windows.row(p))
                        .map(|&i| i as usize)
                        .collect();
                    channels = *out_ch;
                    let taps = in_ch * ksize * ksize;
                    Step::Mac(Mac::new(gather, taps, weights, bias, *shift, source()))
                }
                Op::Relu => Step::Relu,
                Op::AvgPool { k } => {
                    assert!(
                        width.is_multiple_of(*k) && height.is_multiple_of(*k),
                        "pool '{}' must divide the map",
                        layer.name
                    );
                    let step = Step::Pool {
                        k: *k,
                        channels,
                        width,
                        height,
                    };
                    (width, height) = (width / k, height / k);
                    step
                }
                Op::Dense {
                    inputs,
                    outputs,
                    weights,
                    bias,
                    shift,
                } => {
                    assert_eq!(
                        channels * width * height,
                        *inputs,
                        "dense '{}' input mismatch",
                        layer.name
                    );
                    (channels, width, height) = (*outputs, 1, 1);
                    let gather = (0..*inputs).collect();
                    Step::Mac(Mac::new(gather, *inputs, weights, bias, *shift, source()))
                }
            };
            steps.push((step, vec![0; channels * width * height]));
        }
        Plan {
            input: vec![0; self.input_width * self.input_height],
            steps,
        }
    }
}

/// The index of the first largest logit.
fn argmax(logits: &[i32]) -> usize {
    let mut best = 0usize;
    for (i, &z) in logits.iter().enumerate() {
        if z > logits[best] {
            best = i;
        }
    }
    best
}

/// Side of a product table: every operand magnitude `0..=128` the
/// quantization scheme produces.
const TABLE_SIDE: usize = 129;

/// A table entry the table does not hold; the binding computes it.
const MISSING: u32 = u32::MAX;

/// One pure binding's product of every magnitude pair up to 128:
/// `products[b · 129 + a]` is `multiply(a, b)`, or [`MISSING`] when the
/// product does not fit in `u32` or an operand is past the binding's
/// width. A weight magnitude `b` selects a row, so a layer with few
/// distinct weights reads a few rows.
struct ProductTable {
    products: Box<[u32; TABLE_SIDE * TABLE_SIDE]>,
}

impl ProductTable {
    /// Fills the table with the binding's own `multiply_batch`, one
    /// 129-pair row at a time.
    fn fill(m: &dyn Multiplier) -> Self {
        let side = (TABLE_SIDE as u64).min(m.max_operand().saturating_add(1));
        let mut products = Box::new([MISSING; TABLE_SIDE * TABLE_SIDE]);
        let mut pairs = Vec::with_capacity(TABLE_SIDE);
        let mut out = vec![0u64; side as usize];
        for b in 0..side {
            pairs.clear();
            pairs.extend((0..side).map(|a| (a, b)));
            m.multiply_batch(&pairs, &mut out);
            let row = &mut products[b as usize * TABLE_SIDE..];
            for (slot, &p) in row.iter_mut().zip(&out) {
                *slot = u32::try_from(p).unwrap_or(MISSING);
            }
        }
        ProductTable { products }
    }

    /// The exact signed dot product of `a` and `b`: each product
    /// `m.multiply(|a_i|, |b_i|)` from the table where it holds the pair,
    /// under the sign-magnitude rule of [`apply_sign`].
    fn dot(&self, m: &dyn Multiplier, a: &[Split], b: &[Split]) -> i64 {
        let mut acc = 0i64;
        for (x, y) in a.iter().zip(b) {
            let negative = x.negative ^ y.negative;
            let (xm, ym) = (x.magnitude as usize, y.magnitude as usize);
            let p = if xm < TABLE_SIDE && ym < TABLE_SIDE {
                self.products[ym * TABLE_SIDE + xm]
            } else {
                MISSING
            };
            acc += if p != MISSING {
                apply_sign(u64::from(p), 0, negative)
            } else {
                apply_sign(untabled(m, x, y), 0, negative)
            };
        }
        acc
    }
}

/// A product the table does not hold, from the binding.
#[cold]
#[inline(never)]
fn untabled(m: &dyn Multiplier, x: &Split, y: &Split) -> u64 {
    m.multiply(u64::from(x.magnitude), u64::from(y.magnitude))
}

/// A signed operand as the magnitude the multiplier sees and its sign.
struct Split {
    magnitude: u32,
    negative: bool,
}

impl From<i32> for Split {
    fn from(v: i32) -> Self {
        Split {
            magnitude: v.unsigned_abs(),
            negative: v < 0,
        }
    }
}

/// Where a MAC layer takes its products from, with the layer's weights
/// in the form that source reads and one window's inputs.
enum Source<'a> {
    /// The binding, one `multiply_batch` call per output element.
    Binding {
        m: &'a dyn Multiplier,
        weights: &'a [i32],
        batch: FixedBatch,
        window: Vec<i32>,
    },
    /// A table the binding filled; the weights are split once per plan.
    Table {
        m: &'a dyn Multiplier,
        table: ProductTable,
        weights: Vec<Split>,
        window: Vec<Split>,
    },
}

/// A conv or dense layer as `rows` windows of `taps` gathered inputs:
/// output `c` of window `p` is the exact sum over `k` of
/// `in[gather[p · taps + k]] · weights[c · taps + k]`, shifted right by
/// `shift` with round-to-nearest, plus `bias[c]`, stored at
/// `c · rows + p` (CHW).
struct Mac<'a> {
    rows: usize,
    taps: usize,
    gather: Vec<usize>,
    bias: &'a [i32],
    shift: u32,
    source: Source<'a>,
}

impl<'a> Mac<'a> {
    fn new(
        gather: Vec<usize>,
        taps: usize,
        weights: &'a [i32],
        bias: &'a [i32],
        shift: u32,
        (m, table): (&'a dyn Multiplier, Option<ProductTable>),
    ) -> Self {
        let source = match table {
            Some(table) => Source::Table {
                m,
                table,
                weights: weights.iter().map(|&w| Split::from(w)).collect(),
                window: Vec::with_capacity(taps),
            },
            None => Source::Binding {
                m,
                weights,
                batch: FixedBatch::new(),
                window: Vec::with_capacity(taps),
            },
        };
        Mac {
            rows: gather.len() / taps,
            taps,
            gather,
            bias,
            shift,
            source,
        }
    }

    fn run(&mut self, input: &[i32], out: &mut [i32]) {
        let (rows, taps, shift) = (self.rows, self.taps, self.shift);
        let mut store = |p: usize, c: usize, acc: i64, bias: i32| {
            out[c * rows + p] = descale(acc, shift) + bias;
        };
        let windows = self.gather.chunks_exact(taps).enumerate();
        match &mut self.source {
            Source::Binding {
                m,
                weights,
                batch,
                window,
            } => {
                for (p, indices) in windows {
                    window.clear();
                    window.extend(indices.iter().map(|&i| input[i]));
                    let filters = weights.chunks_exact(taps).zip(self.bias);
                    for (c, (w, &bias)) in filters.enumerate() {
                        store(p, c, batch.dot(*m, window, w), bias);
                    }
                }
            }
            Source::Table {
                m,
                table,
                weights,
                window,
            } => {
                for (p, indices) in windows {
                    window.clear();
                    window.extend(indices.iter().map(|&i| Split::from(input[i])));
                    let filters = weights.chunks_exact(taps).zip(self.bias);
                    for (c, (w, &bias)) in filters.enumerate() {
                        store(p, c, table.dot(*m, window, w), bias);
                    }
                }
            }
        }
    }
}

/// One layer of a plan.
enum Step<'a> {
    Mac(Mac<'a>),
    Relu,
    /// Average pooling over a `channels × height × width` input.
    Pool {
        k: usize,
        channels: usize,
        width: usize,
        height: usize,
    },
}

/// One evaluation's layers, each with its output buffer, and the centred
/// input image.
struct Plan<'a> {
    input: Vec<i32>,
    steps: Vec<(Step<'a>, Vec<i32>)>,
}

impl Plan<'_> {
    /// Runs one image through every layer; returns the last layer's
    /// activations.
    ///
    /// # Panics
    ///
    /// Panics unless the image matches the input dimensions.
    fn run(&mut self, image: &[u8]) -> &[i32] {
        assert_eq!(image.len(), self.input.len(), "image size mismatch");
        for (slot, &pixel) in self.input.iter_mut().zip(image) {
            *slot = i32::from(pixel) - 128;
        }
        let mut input: &[i32] = &self.input;
        for (step, out) in &mut self.steps {
            match step {
                Step::Mac(mac) => mac.run(input, out),
                Step::Relu => {
                    for (o, &v) in out.iter_mut().zip(input) {
                        *o = v.clamp(0, 127);
                    }
                }
                Step::Pool {
                    k,
                    channels,
                    width,
                    height,
                } => {
                    let (k, width, height) = (*k, *width, *height);
                    let (w, h) = (width / k, height / k);
                    for c in 0..*channels {
                        for y in 0..h {
                            for x in 0..w {
                                let mut sum = 0i64;
                                for dy in 0..k {
                                    let row = (c * height + y * k + dy) * width + x * k;
                                    sum += input[row..row + k]
                                        .iter()
                                        .map(|&v| i64::from(v))
                                        .sum::<i64>();
                                }
                                out[(c * h + y) * w + x] = (sum / (k * k) as i64) as i32;
                            }
                        }
                    }
                }
            }
            input = out;
        }
        input
    }
}

/// The deterministic synthetic orientation task: `8 × 8` grayscale
/// patches in four classes — `0` horizontal stripes, `1` vertical
/// stripes, `2` diagonal stripes, `3` checkerboard — with randomized
/// stripe period, phase, contrast and per-pixel noise from
/// [`realm_core::rng::SplitMix64`].
pub fn orientation_dataset(n: usize, seed: u64) -> Vec<(Vec<u8>, usize)> {
    let mut rng = realm_core::rng::SplitMix64::new(seed);
    (0..n)
        .map(|_| {
            let label = rng.below(4) as usize;
            // Half-period 2: bands two pixels wide, the finest pattern a
            // 3×3 edge bank can see (period-1 stripes alias to zero
            // response at the ±1 taps).
            let period = 2usize;
            let phase = rng.below(4) as usize;
            // Wide contrast and noise ranges, deliberately overlapping:
            // the low-contrast/noisy tail is where approximate conv
            // arithmetic starts costing accuracy, so the task separates
            // multiplier designs instead of saturating at 1.0 for all.
            let hi = 90 + rng.below(110) as i32; // bright band
            let lo = 30 + rng.below(110) as i32; // dark band
            let noise_amp = 10 + rng.below(50) as i32;
            let mut img = Vec::with_capacity(64);
            for y in 0..8usize {
                for x in 0..8usize {
                    let on = match label {
                        0 => ((y + phase) / period).is_multiple_of(2),
                        1 => ((x + phase) / period).is_multiple_of(2),
                        2 => ((x + y + phase) / period).is_multiple_of(2),
                        _ => (((x + phase) / period) % 2) ^ (((y + phase) / period) % 2) == 1,
                    };
                    let base = if on { hi } else { lo };
                    let noise = rng.range_inclusive(0, (2 * noise_amp) as u64) as i32 - noise_amp;
                    img.push((base + noise).clamp(0, 255) as u8);
                }
            }
            (img, label)
        })
        .collect()
}

/// The stock classifier for the orientation task: a fixed int8 edge-
/// filter bank (`conv1`, 4 filters), ReLU, `2 × 2` average pooling and a
/// trained int8 classifier head (`dense1`).
///
/// The head is trained deterministically at construction: softmax
/// regression in floating point on the pooled features of an
/// exact-multiplier forward pass over a fixed training set, then
/// symmetric-int8 quantized with a power-of-two scale.
pub fn tiny_net() -> QuantNet {
    // Four orientation-selective 3×3 filters, int8 at scale 16.
    #[rustfmt::skip]
    let filters: [[i32; 9]; 4] = [
        [-1, -2, -1,  0, 0, 0,  1, 2, 1],  // horizontal edges
        [-1, 0, 1,  -2, 0, 2,  -1, 0, 1],  // vertical edges
        [ 2, -1, -1,  -1, 2, -1,  -1, -1, 2], // main diagonal
        [-1, -1, 2,  -1, 2, -1,  2, -1, -1], // anti-diagonal
    ];
    let weights: Vec<i32> = filters.iter().flatten().map(|&w| w * 16).collect();
    let conv = Layer {
        name: "conv1".into(),
        op: Op::Conv {
            in_ch: 1,
            out_ch: 4,
            ksize: 3,
            weights,
            bias: vec![0; 4],
            shift: 7,
        },
    };
    let relu = Layer {
        name: "relu1".into(),
        op: Op::Relu,
    };
    let pool = Layer {
        name: "pool1".into(),
        op: Op::AvgPool { k: 2 },
    };

    // Features after pooling: 4 channels × 4 × 4 = 64 ints in [0, 127],
    // from one plan over the training set (an accuracy-style batch).
    let feature_net = QuantNet::new(8, 8, vec![conv.clone(), relu.clone(), pool.clone()]);
    let train = orientation_dataset(512, 0xD1CE);
    let exact = realm_core::Accurate::new(16);
    let mut plan = feature_net.plan(&[&exact], true);

    // Softmax regression, full-batch GD, deterministic zero init.
    let (n_feat, n_class) = (64usize, 4usize);
    let feats: Vec<Vec<f64>> = train
        .iter()
        .map(|(img, _)| plan.run(img).iter().map(|&v| v as f64 / 128.0).collect())
        .collect();
    let mut w = vec![0.0f64; n_class * n_feat];
    let mut b = vec![0.0f64; n_class];
    let lr = 2.0 / train.len() as f64;
    for _ in 0..300 {
        let mut gw = vec![0.0; n_class * n_feat];
        let mut gb = vec![0.0; n_class];
        for ((_, label), f) in train.iter().zip(&feats) {
            let logits: Vec<f64> = (0..n_class)
                .map(|c| {
                    f.iter()
                        .enumerate()
                        .map(|(i, &x)| w[c * n_feat + i] * x)
                        .sum::<f64>()
                        + b[c]
                })
                .collect();
            let peak = logits.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let exps: Vec<f64> = logits.iter().map(|&z| (z - peak).exp()).collect();
            let total: f64 = exps.iter().sum();
            for c in 0..n_class {
                let p = exps[c] / total;
                let err = p - if c == *label { 1.0 } else { 0.0 };
                for (i, &x) in f.iter().enumerate() {
                    gw[c * n_feat + i] += err * x;
                }
                gb[c] += err;
            }
        }
        for (wv, g) in w.iter_mut().zip(&gw) {
            *wv -= lr * g;
        }
        for (bv, g) in b.iter_mut().zip(&gb) {
            *bv -= lr * g;
        }
    }

    // Symmetric int8 quantization with a power-of-two scale: weights act
    // on raw int features (the float model saw features / 128), so fold
    // the 1/128 into the scale.
    let w_peak = w.iter().fold(0.0f64, |acc, &v| acc.max(v.abs())).max(1e-9);
    let mut scale_exp = 0i32;
    while (w_peak / 128.0) * f64::powi(2.0, scale_exp + 1) <= WEIGHT_MAX as f64 && scale_exp < 20 {
        scale_exp += 1;
    }
    let s = f64::powi(2.0, scale_exp);
    let quant = |v: f64| ((v * s).round() as i32).clamp(-WEIGHT_MAX, WEIGHT_MAX);
    let wq: Vec<i32> = w.iter().map(|&v| quant(v / 128.0)).collect();
    let bq: Vec<i32> = b.iter().map(|&v| (v * s).round() as i32).collect();

    let dense = Layer {
        name: "dense1".into(),
        op: Op::Dense {
            inputs: n_feat,
            outputs: n_class,
            weights: wq,
            bias: bq,
            shift: 0,
        },
    };
    QuantNet::new(8, 8, vec![conv, relu, pool, dense])
}

/// The per-layer binding slate the `dnn` driver sweeps over
/// [`tiny_net`], as `(conv1, dense1)` design texts: 11 uniform configs,
/// then 5 mixed ones. The conv layer carries ~90 %
/// of the MACs and the dense layer makes the final call, so the mixed
/// ones spend the error budget on the conv and protect the classifier.
pub const TINY_NET_SLATE: [(&str, &str); 16] = [
    ("accurate", "accurate"),
    ("realm:m=16,t=0", "realm:m=16,t=0"),
    ("realm:m=16,t=3", "realm:m=16,t=3"),
    ("realm:m=8,t=3", "realm:m=8,t=3"),
    ("realm:m=8,t=6", "realm:m=8,t=6"),
    ("realm:m=4,t=9", "realm:m=4,t=9"),
    ("calm", "calm"),
    ("drum:k=6", "drum:k=6"),
    ("mbm:t=0", "mbm:t=0"),
    ("scaletrim:t=6,c=1", "scaletrim:t=6,c=1"),
    ("ilm:i=2", "ilm:i=2"),
    ("realm:m=8,t=3", "realm:m=16,t=0"),
    ("realm:m=4,t=9", "realm:m=16,t=0"),
    ("realm:m=8,t=6", "realm:m=16,t=3"),
    ("drum:k=6", "realm:m=16,t=0"),
    ("scaletrim:t=6,c=1", "realm:m=16,t=0"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{matmul, Matrix};
    use realm_baselines::catalog::{DesignSpec, FAMILIES};
    use realm_core::{Accurate, Realm, RealmConfig};
    use realm_fault::Guarded;
    use std::sync::{Mutex, OnceLock};

    /// One `tiny_net()` for the tests that only read it: each build
    /// trains the head, which takes a second in a debug build.
    fn tiny() -> &'static QuantNet {
        static NET: OnceLock<QuantNet> = OnceLock::new();
        NET.get_or_init(tiny_net)
    }

    #[test]
    fn dataset_is_deterministic_and_balanced() {
        let a = orientation_dataset(256, 9);
        let b = orientation_dataset(256, 9);
        assert_eq!(a, b);
        for class in 0..4 {
            let n = a.iter().filter(|(_, l)| *l == class).count();
            assert!(n > 32, "class {class} starved: {n}/256");
        }
    }

    #[test]
    fn tiny_net_is_deterministic() {
        let a = tiny_net();
        let b = tiny_net();
        assert_eq!(a, b);
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn tiny_net_learns_the_task() {
        let net = tiny();
        let test = orientation_dataset(256, 0xE7A1);
        let exact = Accurate::new(16);
        let acc = net.accuracy(&[&exact, &exact], &test);
        // The dataset deliberately includes a low-contrast/noisy tail
        // (so approximate designs separate on it); well above chance
        // (0.25) is the bar, not near-perfect.
        assert!(acc > 0.8, "exact-path accuracy {acc}");
    }

    #[test]
    fn realm_binding_tracks_exact_binding() {
        let net = tiny();
        let test = orientation_dataset(256, 77);
        let exact = Accurate::new(16);
        let realm = Realm::new(RealmConfig::n16(16, 0)).expect("paper point");
        let a_exact = net.accuracy(&[&exact, &exact], &test);
        let a_realm = net.accuracy(&[&realm, &realm], &test);
        assert!(
            a_realm > a_exact - 0.05,
            "REALM accuracy {a_realm} vs exact {a_exact}"
        );
    }

    #[test]
    fn mac_accounting_matches_topology() {
        let net = tiny();
        assert_eq!(net.mac_layers(), vec!["conv1", "dense1"]);
        let counts = net.mac_counts();
        // conv1: 8·8 pixels × 4 filters × 1·3·3 taps; dense1: 64 × 4.
        assert_eq!(counts[0], ("conv1".into(), 8 * 8 * 4 * 9));
        assert_eq!(counts[1], ("dense1".into(), 64 * 4));
    }

    #[test]
    fn mixed_bindings_run_per_layer() {
        let net = tiny();
        let test = orientation_dataset(64, 5);
        let exact = Accurate::new(16);
        let rough = Realm::new(RealmConfig::n16(4, 9)).expect("rough point");
        // Mixed binding must be a valid run and differ from neither being
        // an error; accuracies are data, not asserted here.
        let _ = net.accuracy(&[&rough, &exact], &test);
        let _ = net.accuracy(&[&exact, &rough], &test);
    }

    #[test]
    #[should_panic(expected = "one multiplier binding per MAC layer")]
    fn missing_binding_rejected() {
        let net = tiny();
        let img = vec![0u8; 64];
        let exact = Accurate::new(16);
        let _ = net.forward(&[&exact], &img);
    }

    #[test]
    #[should_panic(expected = "duplicate layer name")]
    fn duplicate_names_rejected() {
        let relu = Layer {
            name: "a".into(),
            op: Op::Relu,
        };
        let _ = QuantNet::new(2, 2, vec![relu.clone(), relu]);
    }

    fn design(text: &str) -> Box<dyn Multiplier> {
        DesignSpec::parse(text)
            .expect("design text parses")
            .build()
            .expect("design builds")
    }

    /// One point of each family at `width`: the default where it builds,
    /// else the first one-key variant that does (ALM and SSM at 8 bits).
    fn family_points(width: u32) -> Vec<(String, Box<dyn Multiplier>)> {
        FAMILIES
            .iter()
            .filter_map(|family| {
                let base = format!("{}@{width}", family.name);
                let variants = family.keys[1..]
                    .iter()
                    .flat_map(|(key, _)| (0..=16).map(move |v| format!(":{key}={v}")));
                std::iter::once(String::new())
                    .chain(variants)
                    .map(|keys| format!("{base}{keys}"))
                    .find_map(|text| {
                        let model = DesignSpec::parse(&text).ok()?.build().ok()?;
                        Some((text, model))
                    })
            })
            .collect()
    }

    /// Whether each MAC layer of `plan` reads a table.
    fn table_layers(plan: &Plan) -> Vec<bool> {
        plan.steps
            .iter()
            .filter_map(|(step, _)| match step {
                Step::Mac(mac) => Some(matches!(mac.source, Source::Table { .. })),
                _ => None,
            })
            .collect()
    }

    /// Runs `data` through a plan with tables and one without, and
    /// asserts equal activations at every patch; every binding here is
    /// pure, so every MAC layer of the first plan reads a table.
    fn assert_sources_agree(
        net: &QuantNet,
        bindings: &[&dyn Multiplier],
        data: &[(Vec<u8>, usize)],
        what: &str,
    ) {
        let mut table = net.plan(bindings, true);
        let mut binding = net.plan(bindings, false);
        assert_eq!(table_layers(&table), vec![true; bindings.len()], "{what}");
        for (i, (img, _)) in data.iter().enumerate() {
            assert_eq!(table.run(img), binding.run(img), "{what}: patch {i}");
        }
    }

    #[test]
    fn table_source_matches_binding_source_at_every_family_point() {
        let net = tiny();
        let data = orientation_dataset(8, 0x7AB1E);
        let points: Vec<_> = family_points(8)
            .into_iter()
            .chain(family_points(16))
            .collect();
        // Every family builds at 16 bits; all but ESSM8 at 8.
        assert_eq!(points.len(), 2 * FAMILIES.len() - 1);
        for (text, model) in &points {
            assert_sources_agree(net, &[model.as_ref(), model.as_ref()], &data, text);
        }
    }

    #[test]
    fn table_source_matches_binding_source_on_the_dnn_slate() {
        let net = tiny();
        let data = orientation_dataset(8, 0x51A7E);
        for (conv, dense) in TINY_NET_SLATE {
            let (conv_m, dense_m) = (design(conv), design(dense));
            let what = format!("conv1={conv}, dense1={dense}");
            assert_sources_agree(net, &[conv_m.as_ref(), dense_m.as_ref()], &data, &what);
        }
    }

    /// A conv with no ReLU feeding a dense layer: the conv's outputs
    /// reach magnitudes far past 128, so many dense products are past the
    /// table and go to the binding's `multiply`.
    fn wide_activation_net() -> QuantNet {
        let Op::Conv { weights, .. } = &tiny().layers()[0].op else {
            panic!("tiny_net starts with its conv");
        };
        let conv = Layer {
            name: "conv1".into(),
            op: Op::Conv {
                in_ch: 1,
                out_ch: 2,
                ksize: 3,
                weights: weights[..18].to_vec(),
                bias: vec![3, -5],
                shift: 3,
            },
        };
        let dense = Layer {
            name: "dense1".into(),
            op: Op::Dense {
                inputs: 128,
                outputs: 4,
                weights: (0..512).map(|i| (i * 37 % 255) - WEIGHT_MAX).collect(),
                bias: vec![1, -2, 3, -4],
                shift: 6,
            },
        };
        QuantNet::new(8, 8, vec![conv, dense])
    }

    #[test]
    fn table_source_matches_binding_source_past_the_table() {
        let net = wide_activation_net();
        let data = orientation_dataset(8, 0xB16);
        let exact = Accurate::new(16);
        let mut plan = net.plan(&[&exact, &exact], false);
        let peak = data
            .iter()
            .map(|(img, _)| {
                plan.run(img);
                plan.steps[0].1.iter().map(|v| v.abs()).max().unwrap_or(0)
            })
            .max()
            .unwrap_or(0);
        assert!(peak > 128, "conv outputs peak at {peak}");
        let mut designs = family_points(16);
        // The slate's designs: the conv side of its 11 uniform configs.
        designs.extend(
            TINY_NET_SLATE[..11]
                .iter()
                .map(|(conv, _)| (conv.to_string(), design(conv))),
        );
        for (text, model) in &designs {
            assert_sources_agree(&net, &[model.as_ref(), model.as_ref()], &data, text);
        }
    }

    /// An impure binding that records every product it is asked for.
    #[derive(Debug, Default)]
    struct Recording(Mutex<Vec<(u64, u64)>>);

    impl Recording {
        fn take(&self) -> Vec<(u64, u64)> {
            std::mem::take(&mut *self.0.lock().expect("recording lock"))
        }
    }

    impl Multiplier for Recording {
        fn width(&self) -> u32 {
            16
        }
        fn multiply(&self, a: u64, b: u64) -> u64 {
            self.0.lock().expect("recording lock").push((a, b));
            a * b
        }
        fn name(&self) -> &str {
            "Recording"
        }
    }

    fn macs_per_patch(net: &QuantNet) -> u64 {
        net.mac_counts().iter().map(|(_, n)| n).sum()
    }

    #[test]
    fn accuracy_calls_an_impure_binding_as_forward_does() {
        let net = tiny();
        let data = orientation_dataset(6, 0x5EC);
        let rec = Recording::default();
        let bindings: [&dyn Multiplier; 2] = [&rec, &rec];
        let _ = net.accuracy(&bindings, &data);
        let during_accuracy = rec.take();
        for (img, _) in &data {
            let _ = net.forward(&bindings, img);
        }
        let during_forward = rec.take();
        assert_eq!(
            during_accuracy.len() as u64,
            macs_per_patch(net) * data.len() as u64
        );
        assert!(during_accuracy == during_forward, "call sequences differ");
    }

    #[test]
    fn a_guarded_binding_counts_every_mac_of_every_patch() {
        let net = tiny();
        let data = orientation_dataset(5, 0x6A4D);
        let guarded = Guarded::new(Accurate::new(16));
        let exact = Accurate::new(16);
        let accuracy = net.accuracy(&[&guarded, &guarded], &data);
        assert_eq!(
            guarded.operations(),
            macs_per_patch(net) * data.len() as u64
        );
        assert_eq!(guarded.fallbacks(), 0);
        assert_eq!(accuracy, net.accuracy(&[&exact, &exact], &data));
    }

    /// `forward` asks the binding for the products a GEMM over im2col
    /// rows asks for, in the same order: the conv layer's as `matmul`
    /// over the windows, then the dense layer's as `matmul` over the
    /// pooled features.
    #[test]
    fn forward_calls_the_binding_in_gemm_order() {
        let net = tiny();
        let (patch, _) = &orientation_dataset(1, 0x0DE)[0];
        let rec = Recording::default();
        let _ = net.forward(&[&rec, &rec], patch);
        let calls = rec.take();

        let layers = net.layers();
        let (
            Op::Conv { weights, shift, .. },
            Op::Dense {
                weights: dw,
                shift: ds,
                ..
            },
        ) = (&layers[0].op, &layers[3].op)
        else {
            panic!("tiny_net is conv, relu, pool, dense");
        };
        let windows = im2col(1, 8, 8, 3, |_, x, y| i32::from(patch[y * 8 + x]) - 128);
        let _ = matmul(
            &rec,
            &windows,
            &Matrix::from_fn(9, 4, |r, c| weights[c * 9 + r]),
            *shift,
        );
        let features =
            QuantNet::new(8, 8, layers[..3].to_vec()).forward(&[&Accurate::new(16)], patch);
        let features = Matrix::from_data(1, 64, features.iter().map(|&v| v as i32).collect());
        let _ = matmul(
            &rec,
            &features,
            &Matrix::from_fn(64, 4, |r, c| dw[c * 64 + r]),
            *ds,
        );
        assert!(calls == rec.take(), "forward's call order left the GEMM's");
    }

    #[test]
    fn only_accuracy_reads_tables() {
        let net = tiny();
        let exact = Accurate::new(16);
        let guarded = Guarded::new(Accurate::new(16));
        assert_eq!(
            table_layers(&net.plan(&[&exact, &guarded], true)),
            [true, false]
        );
        assert_eq!(
            table_layers(&net.plan(&[&exact, &exact], false)),
            [false, false]
        );
    }
}
