//! Pins on the named design slates that no golden file covers: the QoS
//! table fingerprints (which hash the zoo's design texts), the zoo texts
//! themselves and the Table II labels. Table I's labels, order, area and
//! power are pinned by the `width_goldens` and `evaluator_pins` suites.

use realm::baselines::catalog::table2_designs;
use realm::multiplier::MultiplierExt;
use realm_qos::table::zoo_designs;
use realm_qos::TableConfig;

#[test]
fn qos_table_fingerprints_are_pinned() {
    assert_eq!(TableConfig::smoke().fingerprint(), 0xf511_7a7a_8b50_7b20);
    assert_eq!(TableConfig::paper().fingerprint(), 0x8781_0447_d79c_8645);
}

#[test]
fn qos_zoo_texts_are_pinned_in_order() {
    let expected = [
        "accurate",
        "realm:m=4,t=0",
        "realm:m=4,t=3",
        "realm:m=4,t=6",
        "realm:m=4,t=9",
        "realm:m=8,t=0",
        "realm:m=8,t=3",
        "realm:m=8,t=6",
        "realm:m=8,t=9",
        "realm:m=16,t=0",
        "realm:m=16,t=3",
        "realm:m=16,t=6",
        "realm:m=16,t=9",
        "calm",
        "drum:k=4",
        "drum:k=6",
        "mbm:t=0",
        "mbm:t=4",
        "scaletrim:t=4,c=1",
        "scaletrim:t=6,c=1",
        "ilm:i=1",
        "ilm:i=2",
    ];
    assert_eq!(zoo_designs(), expected);
}

#[test]
fn table2_labels_are_pinned_in_order() {
    let labels: Vec<String> = table2_designs().iter().map(|d| d.label()).collect();
    assert_eq!(
        labels,
        [
            "REALM16 (t=8)",
            "REALM8 (t=8)",
            "REALM4 (t=8)",
            "MBM (t=0)",
            "cALM",
            "ImpLM (EA)",
            "IntALP (L=1)",
            "ALM-SOA (m=11)",
        ]
    );
}
