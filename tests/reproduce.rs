//! The paper's shape claims at `small` sizes. The `reproduce` binary
//! checks them at paper size against EXPERIMENTS.md; here the same
//! experiment table runs on the fast configs, so tier-1 catches a model
//! change that breaks a claim.

use dcp_bench::reproduce::{committed_block, verify, Experiment, Lab, Report, Size, EXPERIMENTS};

/// Every claim holds at `small` size except the ones the table marks
/// paper-size-only, and each of those really fails here, so a stale mark
/// cannot hide a claim from this test.
#[test]
fn shape_claims_hold_at_small_size() {
    let mut lab = Lab::new(Size::Small);
    let (mut failing, mut declared) = (Vec::new(), Vec::new());
    for e in EXPERIMENTS {
        let report = (e.measure)(&mut lab);
        for c in report.claims() {
            if !c.holds {
                failing.push((e.id, c.text));
            }
            if c.paper_only.is_some() {
                declared.push((e.id, c.text));
            }
        }
    }
    assert_eq!(
        failing, declared,
        "claims failing at small size must be exactly the paper-size-only ones"
    );
}

#[test]
fn a_false_claim_fails_verification_naming_its_experiment() {
    let planted = Experiment {
        id: "X9",
        measure: |_| {
            let mut r = Report::default();
            r.claim("a planted false claim", false);
            r
        },
    };
    let report = (planted.measure)(&mut Lab::new(Size::Paper));
    let committed = report.render(planted.id, Size::Paper);
    let errors = verify(planted.id, &report, Size::Paper, &committed);
    assert_eq!(errors, ["X9: claim does not hold: a planted false claim"]);
}

#[test]
fn an_edited_number_fails_verification_naming_its_experiment() {
    let e = EXPERIMENTS.iter().find(|e| e.id == "F1").expect("F1 is in the table");
    let report = (e.measure)(&mut Lab::new(Size::Small));
    let block = report.render(e.id, Size::Small);
    assert!(verify(e.id, &report, Size::Small, &block).is_empty());
    // Bump the first digit after the opening marker line.
    let body = block.find('\n').expect("marker line");
    let at = body + block[body..].find(|c: char| c.is_ascii_digit()).expect("a measured number");
    let digit = block.as_bytes()[at] - b'0';
    let mut edited = block.clone();
    edited.replace_range(at..=at, &((digit + 1) % 10).to_string());
    let errors = verify(e.id, &report, Size::Small, &edited);
    assert_eq!(errors.len(), 1, "{errors:?}");
    assert!(errors[0].starts_with("F1: EXPERIMENTS.md has"), "{errors:?}");
}

#[test]
fn experiments_md_has_a_block_for_every_experiment() {
    let doc = include_str!("../EXPERIMENTS.md");
    for e in EXPERIMENTS {
        assert!(committed_block(doc, e.id).is_some(), "EXPERIMENTS.md lacks the {} block", e.id);
    }
}
