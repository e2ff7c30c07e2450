//! The batched loops and the per-write oracles emit the same trace: the
//! same `alarm`, `summary` and `degradation_point` records, in the same
//! order. Wear snapshots are left out — the batched loop samples them
//! at batch boundaries, the one documented divergence — and so are span
//! timings.
//!
//! This is its own test binary because the telemetry sink pipeline is
//! process-global.

#![forbid(unsafe_code)]

use twl_attacks::{Attack, AttackKind};
use twl_faults::{CorrectionPolicy, FaultConfig};
use twl_lifetime::{
    build_scheme_spec, build_scheme_spec_for_region, run_attack, run_attack_unbatched,
    run_degradation_attack, run_degradation_attack_unbatched, Calibration, SchemeKind, SchemeSpec,
    SimLimits,
};
use twl_pcm::{PcmConfig, PcmDevice};
use twl_telemetry::{MemorySink, TelemetryRecord};

const SCHEMES: [SchemeKind; 2] = [SchemeKind::TwlSwp, SchemeKind::Sr];
const ATTACKS: [AttackKind; 2] = [AttackKind::Repeat, AttackKind::Inconsistent];

fn pcm(seed: u64) -> PcmConfig {
    PcmConfig::builder()
        .pages(256)
        .mean_endurance(2_000)
        .seed(seed)
        .build()
        .expect("valid config")
}

fn failstop_run(kind: SchemeKind, attack_kind: AttackKind, batched: bool) {
    let mut device = PcmDevice::new(&pcm(3));
    let mut scheme = build_scheme_spec(&SchemeSpec::new(kind), &device).expect("scheme builds");
    let mut attack = Attack::new(attack_kind, scheme.page_count(), 3);
    let run = if batched {
        run_attack
    } else {
        run_attack_unbatched
    };
    run(
        scheme.as_mut(),
        &mut device,
        &mut attack,
        &SimLimits::default(),
        &Calibration::attack_8gbps(),
    );
}

fn degradation_run(kind: SchemeKind, attack_kind: AttackKind, batched: bool) {
    let mut domain = twl_faults::provision(
        &pcm(5),
        &FaultConfig {
            cell_groups_per_page: 8,
            group_sigma_fraction: 0.15,
            policy: CorrectionPolicy::Ecp { entries: 2 },
            spare_fraction: 0.05,
            seed: 9,
        },
    )
    .expect("domain provisions");
    let mut scheme =
        build_scheme_spec_for_region(&SchemeSpec::new(kind), &domain.device, domain.data_pages)
            .expect("scheme builds");
    let mut attack = Attack::new(attack_kind, scheme.page_count(), 5);
    let run = if batched {
        run_degradation_attack
    } else {
        run_degradation_attack_unbatched
    };
    run(
        scheme.as_mut(),
        &mut domain,
        &mut attack,
        &SimLimits {
            max_logical_writes: 400_000,
        },
        &Calibration::attack_8gbps(),
    );
}

#[test]
fn batched_and_per_write_runs_emit_the_same_records() {
    let sink = MemorySink::new();
    let records = sink.handle();
    twl_telemetry::install_sink(sink);
    // The records a run emitted, minus wear snapshots and spans.
    let trace = |run: &dyn Fn()| -> Vec<TelemetryRecord> {
        records.lock().expect("sink poisoned").clear();
        run();
        let kept = records
            .lock()
            .expect("sink poisoned")
            .iter()
            .filter(|r| {
                matches!(
                    r,
                    TelemetryRecord::Alarm { .. }
                        | TelemetryRecord::Summary(_)
                        | TelemetryRecord::Degradation { .. }
                )
            })
            .cloned()
            .collect();
        kept
    };
    let count = |records: &[TelemetryRecord], kind: fn(&TelemetryRecord) -> bool| {
        records.iter().filter(|r| kind(r)).count()
    };
    let is_alarm = |r: &TelemetryRecord| matches!(r, TelemetryRecord::Alarm { .. });
    let is_summary = |r: &TelemetryRecord| matches!(r, TelemetryRecord::Summary(_));
    let is_degradation = |r: &TelemetryRecord| matches!(r, TelemetryRecord::Degradation { .. });

    let mut alarms = 0;
    for kind in SCHEMES {
        for attack_kind in ATTACKS {
            let batched = trace(&|| failstop_run(kind, attack_kind, true));
            let oracle = trace(&|| failstop_run(kind, attack_kind, false));
            assert_eq!(batched, oracle, "fail-stop {kind} / {attack_kind}");
            assert_eq!(count(&batched, is_summary), 1, "{kind} / {attack_kind}");
            alarms += count(&batched, is_alarm);

            let batched = trace(&|| degradation_run(kind, attack_kind, true));
            let oracle = trace(&|| degradation_run(kind, attack_kind, false));
            assert_eq!(batched, oracle, "degradation {kind} / {attack_kind}");
            assert!(
                count(&batched, is_degradation) > 1,
                "degradation {kind} / {attack_kind} retired no page"
            );
            alarms += count(&batched, is_alarm);
        }
    }
    // The repeat attack concentrates every window on one page.
    assert!(alarms > 0, "no run raised an alarm");
    twl_telemetry::clear_sinks();
}
