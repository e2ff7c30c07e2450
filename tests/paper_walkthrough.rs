//! Reproduces the paper's worked 4-page example *exactly*:
//!
//! * **Fig. 1** — wear-rate leveling's prediction–swap–running flow on a
//!   4-page PCM with ET = (40, 60, 80, 120) and WNT = (9, 4, 4, 2):
//!   after the swap phase, hot `LA1` sits on strong `PA4` and cold
//!   `LA4` on weak `PA1`.
//! * **Fig. 3** — the inconsistent-write attack: repeating the same
//!   prediction-phase distribution, then reversing it (90 writes to the
//!   now-weak-parked address) wears out `PA1`.
//!
//! The paper's indices are 1-based; this test uses 0-based `LA0..LA3` /
//! `PA0..PA3` with the same roles (paper's LA1 = our LA0, etc.).

#![forbid(unsafe_code)]

use tossup_wl::baselines::{WearRateLeveling, WrlConfig};
use tossup_wl::pcm::{EnduranceMap, LogicalPageAddr, PcmConfig, PcmDevice, PhysicalPageAddr};
use tossup_wl::wl::WearLeveler;

/// Fig. 1(b)'s write-number table: LA0 is hot (9), LA3 cold (2).
const WNT: [u64; 4] = [9, 4, 4, 2];

fn paper_device() -> PcmDevice {
    let pcm = PcmConfig::builder()
        .pages(4)
        .mean_endurance(100)
        .sigma_fraction(0.0)
        .build()
        .expect("valid 4-page config");
    // Fig. 1(b)'s endurance table: PA0 weakest (40) … PA3 strongest (120).
    PcmDevice::with_endurance(&pcm, EnduranceMap::from_values(vec![40, 60, 80, 120]))
}

fn paper_wrl() -> WearRateLeveling {
    let config = WrlConfig {
        prediction_writes: WNT.iter().sum(),
        running_multiple: 10,
        swap_top_k: 1,
        table_latency: 10,
    };
    WearRateLeveling::new(&config, 4)
}

/// Emits one prediction phase of Fig. 1(b)'s distribution.
fn run_prediction(wrl: &mut WearRateLeveling, device: &mut PcmDevice) {
    for (i, &w) in WNT.iter().enumerate() {
        for _ in 0..w {
            wrl.write(LogicalPageAddr::new(i as u64), device)
                .expect("prediction phase is survivable");
        }
    }
}

#[test]
fn fig1_swap_parks_hot_on_strong_and_cold_on_weak() {
    let mut device = paper_device();
    let mut wrl = paper_wrl();
    run_prediction(&mut wrl, &mut device);
    assert_eq!(wrl.swap_phases(), 1, "prediction phase must end in a swap");
    // Fig. 1(c): LA1 -> PA4 and LA4 -> PA1 (paper 1-based).
    assert_eq!(
        wrl.translate(LogicalPageAddr::new(0)),
        PhysicalPageAddr::new(3),
        "hot LA must move to the strongest frame"
    );
    assert_eq!(
        wrl.translate(LogicalPageAddr::new(3)),
        PhysicalPageAddr::new(0),
        "cold LA must move to the weakest frame"
    );
    // The middle pages stay put.
    assert_eq!(wrl.translate(LogicalPageAddr::new(1)).index(), 1);
    assert_eq!(wrl.translate(LogicalPageAddr::new(2)).index(), 2);
}

#[test]
fn fig3_reversal_wears_out_the_weak_frame() {
    let mut device = paper_device();
    let mut wrl = paper_wrl();
    // Step-1 (Fig. 3a) = the prediction distribution, ending in the swap.
    run_prediction(&mut wrl, &mut device);
    let weak = PhysicalPageAddr::new(0);
    let victim = LogicalPageAddr::new(3);
    assert_eq!(wrl.translate(victim), weak);

    // Step-2 (Fig. 3b): "Send (write, LA4, data) 90 times". PA1 already
    // absorbed the prediction writes; 90 more exceed its endurance of 40.
    let mut failed_at = None;
    for i in 0..90u64 {
        if let Err(e) = wrl.write(victim, &mut device) {
            failed_at = Some((i, e));
            break;
        }
    }
    let (writes_taken, error) = failed_at.expect("the weak page must die within 90 writes");
    assert!(
        error.to_string().contains("PA0"),
        "the wear-out must be at the weak frame: {error}"
    );
    // PA0's budget after prediction: 40 - (9 writes to LA0 while it
    // lived there + migrations). The attack needs well under 90 writes.
    assert!(writes_taken < 40, "died after {writes_taken} attack writes");
    assert_eq!(device.first_failure(), Some(weak));
}

#[test]
fn fig1_expected_write_capacity_of_the_new_mapping() {
    // Fig. 1(c) annotates the running phase's expectation: with the
    // consistent distribution, each frame can absorb ~10 more rounds of
    // its logical page's rate. Verify the mapping survives exactly the
    // consistent running phase the paper assumes (10x prediction).
    let mut device = paper_device();
    let mut wrl = paper_wrl();
    run_prediction(&mut wrl, &mut device);
    for _ in 0..2 {
        // Two of the ten running rounds — enough to validate without
        // exhausting PA0 (whose budget is dominated by prediction wear).
        for (i, &w) in WNT.iter().enumerate() {
            for _ in 0..w {
                wrl.write(LogicalPageAddr::new(i as u64), &mut device)
                    .expect("a consistent distribution must be sustainable");
            }
        }
    }
    // Strong PA3 now carries the hot page's traffic.
    assert!(device.wear(PhysicalPageAddr::new(3)) > device.wear(PhysicalPageAddr::new(1)));
}
