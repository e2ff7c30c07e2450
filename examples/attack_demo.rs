//! A blow-by-blow demonstration of the inconsistent-write attack
//! (paper §3.2) against a prediction-based scheme, and why TWL shrugs
//! it off.
//!
//! The demo traces the attacker's view — response-time spikes, phase
//! reversals — and the device's view — wear accumulating on the weakest
//! physical frame.
//!
//! Run: `cargo run --release --example attack_demo`

#![forbid(unsafe_code)]

use tossup_wl::attacks::{Attack, AttackKind, AttackStream};
use tossup_wl::baselines::{BloomFilterWl, BwlConfig};
use tossup_wl::pcm::{PcmConfig, PcmDevice, PhysicalPageAddr};
use tossup_wl::twl::{TossUpWearLeveling, TwlConfig};
use tossup_wl::wl::WearLeveler;

const PAGES: u64 = 1024;
const ENDURANCE: u64 = 20_000;
const CHECKPOINT: u64 = 16_384;

fn trace(name: &str, scheme: &mut dyn WearLeveler, device: &mut PcmDevice) {
    let weakest = (0..PAGES)
        .map(PhysicalPageAddr::new)
        .min_by_key(|&pa| device.endurance(pa))
        .expect("device is non-empty");
    println!(
        "\n=== {name} === (weakest frame {weakest}, endurance {})",
        device.endurance(weakest)
    );
    let mut attack = Attack::new(AttackKind::Inconsistent, PAGES, 7);
    let mut feedback = None;
    let mut writes = 0u64;
    loop {
        let la = attack.next_write(feedback.as_ref());
        match scheme.write(la, device) {
            Ok(out) => feedback = Some(out),
            Err(e) => {
                println!("  DEVICE DEAD after {writes} writes: {e}");
                return;
            }
        }
        writes += 1;
        if writes.is_multiple_of(CHECKPOINT) {
            let reversals = match &attack {
                Attack::Inconsistent(a) => a.reversals() + a.timeout_flips(),
                _ => 0,
            };
            println!(
                "  {:>8} writes | weakest frame wear {:>6}/{} | attacker reversals {:>3}",
                writes,
                device.wear(weakest),
                device.endurance(weakest),
                reversals,
            );
        }
        if writes >= 20 * CHECKPOINT {
            println!(
                "  attack gave up after {writes} writes; device healthy (max wear ratio {:.2})",
                device.wear_stats().max_wear_ratio
            );
            return;
        }
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let pcm = PcmConfig::builder()
        .pages(PAGES)
        .mean_endurance(ENDURANCE)
        .seed(7)
        .build()?;

    // Victim: bloom-filter wear leveling — predicts hot/cold and trusts
    // the prediction.
    let mut device = PcmDevice::new(&pcm);
    let mut bwl = BloomFilterWl::new(&BwlConfig::for_pages(PAGES), PAGES);
    trace("BWL (prediction-based)", &mut bwl, &mut device);

    // TWL: no prediction to poison.
    let mut device = PcmDevice::new(&pcm);
    let mut twl = TossUpWearLeveling::new(&TwlConfig::dac17(), device.endurance_map());
    trace("TWL (toss-up)", &mut twl, &mut device);

    println!("\nSame attacker, same device, same writes: only the predictor dies.");
    Ok(())
}
