//! Bit-for-bit pins of everything `realm-synth` computes by simulating a
//! netlist: dynamic power, calibrated Table I reports, stuck-at fault
//! impacts, stage sensitivities and equivalence verdicts.
//!
//! The constants were captured from the bool-per-net evaluator that the
//! word-parallel one (64 lanes per pass) replaced, so these tests prove
//! the port changed no output bit. Cycle counts straddle the 64-lane
//! pass boundary (1, 63, 64, 65, 150) and include the paper's 2000; the
//! fault campaigns run 200 vectors, which is not a multiple of 64.

use realm_baselines::adders::LowerPart;
use realm_baselines::AmRecovery;
use realm_core::{Realm, RealmConfig};
use realm_synth::blocks::adder::ripple_add;
use realm_synth::blocks::multiplier::wallace_netlist;
use realm_synth::designs::{
    alm_netlist, am_netlist, calm_netlist, drum_netlist, ilm_netlist, realm_netlist,
    realm_netlist_staged,
};
use realm_synth::equiv::{check_equivalence, Verdict};
use realm_synth::faults::{simulate_fault, stage_sensitivity, Fault, StageSpan};
use realm_synth::{Netlist, PowerSim, Reporter};

const CYCLES: [u32; 6] = [1, 63, 64, 65, 150, 2000];

fn realm16_t0() -> Netlist {
    realm_netlist(&Realm::new(RealmConfig::n16(16, 0)).expect("paper design point"))
}

/// The staged 8-bit REALM netlist the `faults` driver injects into.
fn realm8_staged() -> (Netlist, Vec<StageSpan>) {
    realm_netlist_staged(&Realm::new(RealmConfig::new(8, 8, 0, 6)).expect("valid design point"))
}

fn power_design(name: &str) -> Netlist {
    match name {
        "wallace16" => wallace_netlist(16),
        "realm16_t0" => realm16_t0(),
        "calm16" => calm_netlist(16),
        "am1_nb13" => am_netlist(16, AmRecovery::Or, 13),
        "ilm_i2" => ilm_netlist(16, 2),
        other => panic!("no pinned design {other}"),
    }
}

/// `(design, toggle rate, seed, dynamic_power(..).to_bits() at each of
/// CYCLES)`, at 1 GHz.
const POWER: [(&str, f64, u64, [u64; 6]); 30] = [
    (
        "wallace16",
        0.25,
        1,
        [
            0x4070d147ae147ad9,
            0x4076da12878edd51,
            0x4076ebfc28f5c08b,
            0x4076fc2cbdad206d,
            0x4077373333332f6e,
            0x4076b2071607b50a,
        ],
    ),
    (
        "wallace16",
        0.25,
        4242,
        [
            0x4072147ae147ae15,
            0x40758d79be02444b,
            0x407584a147ae1223,
            0x4075829fbe76c651,
            0x40760ce5ec10ea08,
            0x4076716718a6d43c,
        ],
    ),
    (
        "wallace16",
        0.0,
        1,
        [
            0x0000000000000000,
            0x0000000000000000,
            0x0000000000000000,
            0x0000000000000000,
            0x0000000000000000,
            0x0000000000000000,
        ],
    ),
    (
        "wallace16",
        0.0,
        4242,
        [
            0x0000000000000000,
            0x0000000000000000,
            0x0000000000000000,
            0x0000000000000000,
            0x0000000000000000,
            0x0000000000000000,
        ],
    ),
    (
        "wallace16",
        0.5,
        1,
        [
            0x407630f5c28f5c47,
            0x4079d17bb154ad11,
            0x4079c9a3d70a3b88,
            0x4079c64aac58d815,
            0x4079fc51eb851bab,
            0x407b18a84dfaac6a,
        ],
    ),
    (
        "wallace16",
        0.5,
        4242,
        [
            0x4079dae147ae14b5,
            0x407a8f07a3ad6c80,
            0x407a85f333333194,
            0x407a7dc65746ba65,
            0x407a688dfea27678,
            0x407ad612ccf49141,
        ],
    ),
    (
        "realm16_t0",
        0.25,
        1,
        [
            0x406e9c7ae147adf6,
            0x406a4bf78c4592a9,
            0x406a796a3d70a576,
            0x406a7b851eb853a6,
            0x4069c2f11e2c8eb2,
            0x40691756ffc1277a,
        ],
    ),
    (
        "realm16_t0",
        0.25,
        4242,
        [
            0x4069c6666666665b,
            0x406a0213d4707bfb,
            0x406a0cd333333511,
            0x406a0d8da0881eed,
            0x4068ec42a0d62156,
            0x406921252695aa1c,
        ],
    ),
    (
        "realm16_t0",
        0.0,
        1,
        [
            0x0000000000000000,
            0x0000000000000000,
            0x0000000000000000,
            0x0000000000000000,
            0x0000000000000000,
            0x0000000000000000,
        ],
    ),
    (
        "realm16_t0",
        0.0,
        4242,
        [
            0x0000000000000000,
            0x0000000000000000,
            0x0000000000000000,
            0x0000000000000000,
            0x0000000000000000,
            0x0000000000000000,
        ],
    ),
    (
        "realm16_t0",
        0.5,
        1,
        [
            0x406fe99999999976,
            0x406e8f03bd089f8c,
            0x406e9027ae147d28,
            0x406e818a79ef4f66,
            0x406e4b94f536c970,
            0x406e4b8c5eb308e9,
        ],
    ),
    (
        "realm16_t0",
        0.5,
        4242,
        [
            0x406f80f5c28f5c0a,
            0x406f03084a1e3e3b,
            0x406efbea3d70a69e,
            0x406f03ccf521406c,
            0x406ea26d7fee8f53,
            0x406e9e24b33da35d,
        ],
    ),
    (
        "calm16",
        0.25,
        1,
        [
            0x405e97ae147ae14a,
            0x4060a844eab51181,
            0x4060bfef5c28f593,
            0x4060c396c3a9ab1b,
            0x40604594237fab9b,
            0x406040691a760791,
        ],
    ),
    (
        "calm16",
        0.25,
        4242,
        [
            0x405f05c28f5c28fa,
            0x40611674b4180e1c,
            0x40611c2f5c28f5a0,
            0x40611cff3659cbe7,
            0x4060423d70a3d9fb,
            0x40601cdaaf793885,
        ],
    ),
    (
        "calm16",
        0.0,
        1,
        [
            0x0000000000000000,
            0x0000000000000000,
            0x0000000000000000,
            0x0000000000000000,
            0x0000000000000000,
            0x0000000000000000,
        ],
    ),
    (
        "calm16",
        0.0,
        4242,
        [
            0x0000000000000000,
            0x0000000000000000,
            0x0000000000000000,
            0x0000000000000000,
            0x0000000000000000,
            0x0000000000000000,
        ],
    ),
    (
        "calm16",
        0.5,
        1,
        [
            0x406533d70a3d709c,
            0x40644e10943c76e3,
            0x4064522f5c28f5ad,
            0x4064467e58895f9a,
            0x40644ee631f8a791,
            0x406428b9192657d7,
        ],
    ),
    (
        "calm16",
        0.5,
        4242,
        [
            0x4064051eb851eb86,
            0x4064a55555555546,
            0x4064a49ae147ae08,
            0x4064aabf406ee82c,
            0x406440e448a2c65d,
            0x406442183515a097,
        ],
    ),
    (
        "am1_nb13",
        0.25,
        1,
        [
            0x40693851eb851ea6,
            0x406aa8b224bbe5a9,
            0x406ab66147ae14a8,
            0x406abcff3659cc0f,
            0x406b01d6c455bc2f,
            0x406a353a92a2063b,
        ],
    ),
    (
        "am1_nb13",
        0.25,
        4242,
        [
            0x4069af5c28f5c27d,
            0x406a2d2d06039444,
            0x406a32428f5c29ba,
            0x406a2cf016af8023,
            0x406a33b874df5c36,
            0x406a2f3c4b08ebeb,
        ],
    ),
    (
        "am1_nb13",
        0.0,
        1,
        [
            0x0000000000000000,
            0x0000000000000000,
            0x0000000000000000,
            0x0000000000000000,
            0x0000000000000000,
            0x0000000000000000,
        ],
    ),
    (
        "am1_nb13",
        0.0,
        4242,
        [
            0x0000000000000000,
            0x0000000000000000,
            0x0000000000000000,
            0x0000000000000000,
            0x0000000000000000,
            0x0000000000000000,
        ],
    ),
    (
        "am1_nb13",
        0.5,
        1,
        [
            0x406c428f5c28f5b0,
            0x406f00586bed2378,
            0x406f04e8f5c28d84,
            0x406f0b3c05abdde7,
            0x406f7ff513cc1e9a,
            0x407030ccd74839d6,
        ],
    ),
    (
        "am1_nb13",
        0.5,
        4242,
        [
            0x406ee51eb851eb71,
            0x407028231bcb5502,
            0x407018170a3d6f55,
            0x407010753567d016,
            0x40700245a1cac0a2,
            0x4070255e00d0cba7,
        ],
    ),
    (
        "ilm_i2",
        0.25,
        1,
        [
            0x406e7fffffffffec,
            0x406b7e2415748abc,
            0x406b90a51eb85229,
            0x406b90ceb0c2169c,
            0x406b4357ca7aa498,
            0x406b42501e24ffd9,
        ],
    ),
    (
        "ilm_i2",
        0.25,
        4242,
        [
            0x406d3eb851eb850d,
            0x406c0eeda20d53e6,
            0x406c0b48f5c28f41,
            0x406c18f98a79ef2a,
            0x406aeb8a94d24b49,
            0x406b4a1b08997e39,
        ],
    ),
    (
        "ilm_i2",
        0.0,
        1,
        [
            0x0000000000000000,
            0x0000000000000000,
            0x0000000000000000,
            0x0000000000000000,
            0x0000000000000000,
            0x0000000000000000,
        ],
    ),
    (
        "ilm_i2",
        0.0,
        4242,
        [
            0x0000000000000000,
            0x0000000000000000,
            0x0000000000000000,
            0x0000000000000000,
            0x0000000000000000,
            0x0000000000000000,
        ],
    ),
    (
        "ilm_i2",
        0.5,
        1,
        [
            0x4072dab851eb852a,
            0x4071dc6aa0439ec6,
            0x4071ddc0a3d70b69,
            0x4071d87351728924,
            0x4072022d9a256b14,
            0x40719f24302aa37a,
        ],
    ),
    (
        "ilm_i2",
        0.5,
        4242,
        [
            0x40708ffffffffff7,
            0x4071d8014ce19be5,
            0x4071cb8666666787,
            0x4071d5b6964aadb5,
            0x4071bd2d3149dfc9,
            0x4071a95e4f75c133,
        ],
    ),
];

#[test]
fn dynamic_power_bits_are_pinned() {
    let mut current: Option<(&str, Netlist)> = None;
    for &(name, toggle_rate, seed, bits) in &POWER {
        if current.as_ref().map(|(n, _)| *n) != Some(name) {
            current = Some((name, power_design(name)));
        }
        let nl = &current.as_ref().expect("just built").1;
        for (&cycles, &want) in CYCLES.iter().zip(&bits) {
            let sim = PowerSim {
                cycles,
                seed,
                toggle_rate,
                frequency: 1e9,
            };
            let got = sim.dynamic_power(nl).to_bits();
            assert_eq!(
                got, want,
                "{name} rate {toggle_rate} seed {seed} cycles {cycles}: {got:#018x} != {want:#018x}"
            );
        }
    }
}

/// `Reporter::paper_setup(2000, 1).report(..)` for three Table I rows:
/// area, power, delay, area reduction and power reduction, as bits.
const REPORTS: [(&str, [u64; 5]); 3] = [
    (
        "realm16_t0",
        [
            0x40905aac34b1a333,
            0x407c6548d4846723,
            0x409f500000000000,
            0x40466db4190c99ea,
            0x40465c68e7f2fe41,
        ],
    ),
    (
        "drum_k6",
        [
            0x40882b2558f4747c,
            0x4071bc4feb1df037,
            0x4096c80000000000,
            0x404da08e72d585e1,
            0x40505e5562279053,
        ],
    ),
    (
        "alm_soa_m11",
        [
            0x408299c0b686fe35,
            0x406563fa70ded432,
            0x4091b00000000000,
            0x4051290b6492f9dd,
            0x4053cb7bab193be7,
        ],
    ),
];

#[test]
fn table1_reports_are_pinned() {
    let reporter = Reporter::paper_setup(2000, 1);
    for (name, want) in REPORTS {
        let nl = match name {
            "realm16_t0" => realm16_t0(),
            "drum_k6" => drum_netlist(16, 6),
            "alm_soa_m11" => alm_netlist(16, LowerPart::SetOne, 11),
            other => panic!("no pinned row {other}"),
        };
        let r = reporter.report(&nl);
        let got = [
            r.area_um2,
            r.power_uw,
            r.delay_ps,
            r.area_reduction,
            r.power_reduction,
        ]
        .map(f64::to_bits);
        assert_eq!(got, want, "{name}");
    }
}

/// `(design, gate, stuck_at, seed, detection_rate bits,
/// mean_relative_error bits)` of `simulate_fault` at 200 vectors.
const FAULTS: [(&str, usize, bool, u64, u64, u64); 32] = [
    (
        "wallace8",
        0,
        false,
        11,
        0x3fcb851eb851eb85,
        0x3f4567c786e3a0cf,
    ),
    (
        "wallace8",
        0,
        false,
        2020,
        0x3fd199999999999a,
        0x3f3d5d787a1f4481,
    ),
    (
        "wallace8",
        0,
        true,
        11,
        0x3fe91eb851eb851f,
        0x3f31e45f8d7b10e3,
    ),
    (
        "wallace8",
        0,
        true,
        2020,
        0x3fe7333333333333,
        0x3f427b83d97cdaaf,
    ),
    (
        "wallace8",
        110,
        false,
        11,
        0x3fc5c28f5c28f5c3,
        0x3f9842336a38d43c,
    ),
    (
        "wallace8",
        110,
        false,
        2020,
        0x3fc3333333333333,
        0x3fad805320c3b69d,
    ),
    (
        "wallace8",
        110,
        true,
        11,
        0x3fea8f5c28f5c28f,
        0x3fbad2be22e99ea4,
    ),
    (
        "wallace8",
        110,
        true,
        2020,
        0x3feb333333333333,
        0x3fc338cd30fbfd35,
    ),
    (
        "wallace8",
        165,
        false,
        11,
        0x3fd428f5c28f5c29,
        0x3f958f987ac1d605,
    ),
    (
        "wallace8",
        165,
        false,
        2020,
        0x3fd23d70a3d70a3d,
        0x3f9411ed07c42880,
    ),
    (
        "wallace8",
        165,
        true,
        11,
        0x3fe5eb851eb851ec,
        0x3f98123d9cd62314,
    ),
    (
        "wallace8",
        165,
        true,
        2020,
        0x3fe6e147ae147ae1,
        0x3fa46a48fe9f5813,
    ),
    (
        "wallace8",
        330,
        false,
        11,
        0x0000000000000000,
        0x0000000000000000,
    ),
    (
        "wallace8",
        330,
        false,
        2020,
        0x0000000000000000,
        0x0000000000000000,
    ),
    (
        "wallace8",
        330,
        true,
        11,
        0x0000000000000000,
        0x0000000000000000,
    ),
    (
        "wallace8",
        330,
        true,
        2020,
        0x0000000000000000,
        0x0000000000000000,
    ),
    (
        "realm8",
        0,
        false,
        11,
        0x3fc5c28f5c28f5c3,
        0x3ff488e20e558356,
    ),
    (
        "realm8",
        0,
        false,
        2020,
        0x3fc0000000000000,
        0x3ff55a146057b87d,
    ),
    (
        "realm8",
        0,
        true,
        11,
        0x3fc999999999999a,
        0x3fee1a2da14f6485,
    ),
    (
        "realm8",
        0,
        true,
        2020,
        0x3fd0a3d70a3d70a4,
        0x3fee119fab2b0ed1,
    ),
    (
        "realm8",
        130,
        false,
        11,
        0x3fd8f5c28f5c28f6,
        0x3fd25ee7dc871c3b,
    ),
    (
        "realm8",
        130,
        false,
        2020,
        0x3fd6147ae147ae14,
        0x3fd254fef2a6bd13,
    ),
    (
        "realm8",
        130,
        true,
        11,
        0x3fd4cccccccccccd,
        0x3fdaae20d85640ba,
    ),
    (
        "realm8",
        130,
        true,
        2020,
        0x3fd6b851eb851eb8,
        0x3fd9b5ab28d04e7b,
    ),
    (
        "realm8",
        195,
        false,
        11,
        0x3fd1eb851eb851ec,
        0x3f813717d2952849,
    ),
    (
        "realm8",
        195,
        false,
        2020,
        0x3fcf5c28f5c28f5c,
        0x3f815c5063f0d284,
    ),
    (
        "realm8",
        195,
        true,
        11,
        0x3fcb851eb851eb85,
        0x3f8067217a4746d3,
    ),
    (
        "realm8",
        195,
        true,
        2020,
        0x3fd147ae147ae148,
        0x3f80a9498ed7510f,
    ),
    (
        "realm8",
        390,
        false,
        11,
        0x3fc28f5c28f5c28f,
        0x3fe81e14062f01f4,
    ),
    (
        "realm8",
        390,
        false,
        2020,
        0x3fbeb851eb851eb8,
        0x3fe90798875749a0,
    ),
    (
        "realm8",
        390,
        true,
        11,
        0x3feb5c28f5c28f5c,
        0x402aac0719e68c7e,
    ),
    (
        "realm8",
        390,
        true,
        2020,
        0x3fec28f5c28f5c29,
        0x40336e9a2de3417c,
    ),
];

#[test]
fn fault_impacts_are_pinned() {
    let wallace8 = wallace_netlist(8);
    let (realm8, _) = realm8_staged();
    for (name, gate, stuck_at, seed, detection, mre) in FAULTS {
        let nl = if name == "wallace8" {
            &wallace8
        } else {
            &realm8
        };
        let fault = Fault { gate, stuck_at };
        let impact = simulate_fault(nl, fault, 200, seed);
        assert_eq!(impact.fault, fault);
        assert_eq!(
            (
                impact.detection_rate.to_bits(),
                impact.mean_relative_error.to_bits()
            ),
            (detection, mre),
            "{name} {fault:?} seed {seed}"
        );
    }
}

/// `(stage, gates, faults, detection_rate bits, mean_relative_error
/// bits)` of `stage_sensitivity` on the staged REALM8 netlist, seed 2020.
type StageRow = (&'static str, usize, usize, u64, u64);

/// The `faults` driver's `--smoke` setting: 6 faults × 50 vectors.
const STAGES_SMOKE: [StageRow; 5] = [
    (
        "characteristic",
        68,
        6,
        0x3fb8bf258bf258bf,
        0x3fed0a2b5c0408c3,
    ),
    ("fraction", 153, 6, 0x3fe0888888888889, 0x3fbb0a1f668f8a08),
    ("lut-factor", 54, 6, 0x3fd28f5c28f5c28f, 0x3f9fd6545a2ca738),
    (
        "shift-amount",
        12,
        6,
        0x3fda740da740da74,
        0x40157660a3de66e4,
    ),
    ("antilog", 104, 6, 0x3fe681b4e81b4e83, 0x403375e4b11525f6),
];

/// The `faults` driver's full setting: 16 faults × 250 vectors.
const STAGES_FULL: [StageRow; 5] = [
    (
        "characteristic",
        68,
        16,
        0x3fb4ac083126e979,
        0x4008d20d56d0d633,
    ),
    ("fraction", 153, 16, 0x3fdd2f1a9fbe76ca, 0x3fc150e701ffa68f),
    ("lut-factor", 54, 16, 0x3fcaa7ef9db22d10, 0x3fa002c11d65c495),
    (
        "shift-amount",
        12,
        16,
        0x3fda45a1cac08312,
        0x40323eb4c9c23700,
    ),
    ("antilog", 104, 16, 0x3fe46e978d4fdf3b, 0x400cbe43611723c4),
];

#[test]
fn stage_sensitivity_is_pinned() {
    let (nl, spans) = realm8_staged();
    for (faults, vectors, want) in [(6, 50, STAGES_SMOKE), (16, 250, STAGES_FULL)] {
        let got: Vec<StageRow> = stage_sensitivity(&nl, &spans, faults, vectors, 2020)
            .iter()
            .map(|s| {
                (
                    s.stage.label(),
                    s.gates,
                    s.faults,
                    s.detection_rate.to_bits(),
                    s.mean_relative_error.to_bits(),
                )
            })
            .collect();
        assert_eq!(got, want, "{faults} faults x {vectors} vectors");
    }
}

fn adder(width: u32, swap_sum_bits: bool) -> Netlist {
    let mut nl = Netlist::new("adder");
    let a = nl.input_bus("a", width);
    let b = nl.input_bus("b", width);
    let zero = nl.zero();
    let mut s = ripple_add(&mut nl, &a, &b, zero);
    if swap_sum_bits {
        s.swap(0, 1);
    }
    nl.output_bus("s", s);
    nl
}

/// A 12-bit adder (24 input bits: corners plus random vectors) whose
/// broken form flips sum bit 5 when `a3 & !b3 & a7 & b9`, which no
/// corner vector satisfies: only a random vector can expose it.
fn masked_adder(broken: bool) -> Netlist {
    let mut nl = Netlist::new("masked");
    let a = nl.input_bus("a", 12);
    let b = nl.input_bus("b", 12);
    let zero = nl.zero();
    let mut s = ripple_add(&mut nl, &a, &b, zero);
    if broken {
        let nb3 = nl.not(b[3]);
        let t = nl.and(a[3], nb3);
        let t = nl.and(t, a[7]);
        let t = nl.and(t, b[9]);
        s[5] = nl.xor(s[5], t);
    }
    nl.output_bus("s", s);
    nl
}

/// Two 4-bit outputs, `s = a + b` then `c = a | b`. The broken form
/// swaps `c` bits 0 and 1 and `s` bits `i`, `i + 1`.
fn two_outputs(swap_sum_at: Option<usize>) -> Netlist {
    let mut nl = Netlist::new("two");
    let a = nl.input_bus("a", 4);
    let b = nl.input_bus("b", 4);
    let zero = nl.zero();
    let mut s = ripple_add(&mut nl, &a, &b, zero);
    let mut c: Vec<_> = a.iter().zip(&b).map(|(&x, &y)| nl.or(x, y)).collect();
    if let Some(i) = swap_sum_at {
        s.swap(i, i + 1);
        c.swap(0, 1);
    }
    nl.output_bus("s", s);
    nl.output_bus("c", c);
    nl
}

fn mismatch(a: u64, b: u64, output: &str, got_a: u64, got_b: u64) -> Verdict {
    Verdict::Mismatch {
        inputs: vec![("a".to_string(), a), ("b".to_string(), b)],
        output: output.to_string(),
        got_a,
        got_b,
    }
}

#[test]
fn equivalence_verdicts_are_pinned() {
    // Exhaustive: 12 input bits.
    assert_eq!(
        check_equivalence(&adder(6, false), &adder(6, false), 0, 1),
        Verdict::Equivalent { vectors: 4096 }
    );
    assert_eq!(
        check_equivalence(&adder(6, false), &adder(6, true), 0, 1),
        mismatch(1, 0, "s", 1, 2)
    );
    // Corners then random: 4 corners + 50 random vectors.
    assert_eq!(
        check_equivalence(&wallace_netlist(16), &wallace_netlist(16), 50, 3),
        Verdict::Equivalent { vectors: 54 }
    );
    assert_eq!(
        check_equivalence(&masked_adder(false), &masked_adder(false), 200, 9),
        Verdict::Equivalent { vectors: 204 }
    );
    assert_eq!(
        check_equivalence(&masked_adder(false), &masked_adder(true), 200, 9),
        mismatch(2202, 819, "s", 3021, 3053)
    );
    // The lowest mismatching vector wins over output order ...
    assert_eq!(
        check_equivalence(&two_outputs(None), &two_outputs(Some(2)), 0, 1),
        mismatch(1, 0, "c", 1, 2)
    );
    // ... and within it the first differing output in declaration order.
    assert_eq!(
        check_equivalence(&two_outputs(None), &two_outputs(Some(0)), 0, 1),
        mismatch(1, 0, "s", 1, 2)
    );
}
