//! Quickstart: protect a PCM device with Toss-up Wear Leveling and
//! watch it absorb a hostile write pattern.
//!
//! Run: `cargo run --release --example quickstart`

use tossup_wl::attacks::AttackKind;
use tossup_wl::lifetime::{gmean_years, lifetime_matrix, Calibration, SchemeKind, SimLimits};
use tossup_wl::pcm::{PcmConfig, PcmDevice};

fn main() -> Result<(), Box<dyn std::error::Error + Send + Sync>> {
    // A scaled simulation device: 1024 pages whose endurance is drawn
    // from the paper's process-variation model (Gaussian, sigma = 11 %).
    let pcm = PcmConfig::builder()
        .pages(1024)
        .mean_endurance(20_000)
        .seed(7)
        .build()?;

    println!(
        "device: {} pages, mean endurance {}",
        pcm.pages, pcm.mean_endurance
    );
    println!(
        "process variation: weakest page {} writes, strongest {} writes\n",
        PcmDevice::new(&pcm).endurance_map().min(),
        PcmDevice::new(&pcm).endurance_map().max()
    );

    // Run every scheme against all four attack modes and report
    // calibrated lifetimes (ideal = 6.6 years at 8 GiB/s).
    let calibration = Calibration::attack_8gbps();
    println!(
        "lifetime under attack (years; ideal = {:.1}):",
        calibration.ideal_years()
    );
    println!(
        "  {:8} {:>7} {:>7} {:>7} {:>13} {:>7}",
        "scheme", "repeat", "random", "scan", "inconsistent", "Gmean"
    );
    let schemes = [
        SchemeKind::Nowl,
        SchemeKind::Bwl,
        SchemeKind::Sr,
        SchemeKind::TwlSwp,
    ];
    let reports = lifetime_matrix(&pcm, &schemes, &AttackKind::ALL, &SimLimits::default());
    for (i, kind) in schemes.iter().enumerate() {
        let row = &reports[i * AttackKind::ALL.len()..(i + 1) * AttackKind::ALL.len()];
        println!(
            "  {:8} {:>7.2} {:>7.2} {:>7.2} {:>13.2} {:>7.2}",
            kind.label(),
            row[0].years,
            row[1].years,
            row[2].years,
            row[3].years,
            gmean_years(row),
        );
    }
    println!("\nTWL survives the inconsistent attack that collapses prediction-based BWL,");
    println!("and beats PV-blind Security Refresh whenever process variation matters.");
    Ok(())
}
