//! End-to-end pipeline: a synthetic program's accesses flow through
//! Table 1's L1/L2 cache hierarchy, and the filtered write-back stream
//! drives a TWL-protected PCM.
//!
//! Shows what the cache stack does to the traffic the wear-leveling
//! layer actually sees — and why §3.1's attacker turns the caches off.
//!
//! Run: `cargo run --release --example cache_filter`

#![forbid(unsafe_code)]

use tossup_wl::cache::{CacheHierarchy, CpuWorkload, CpuWorkloadConfig};
use tossup_wl::pcm::{LogicalPageAddr, PcmConfig, PcmDevice};
use tossup_wl::twl::{TossUpWearLeveling, TwlConfig};
use tossup_wl::wl::WearLeveler;

const CPU_ACCESSES: u64 = 3_000_000;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let pcm = PcmConfig::builder()
        .pages(16_384)
        .mean_endurance(100_000_000)
        .seed(4)
        .build()?;
    let mut device = PcmDevice::new(&pcm);
    let mut twl = TossUpWearLeveling::new(&TwlConfig::dac17(), device.endurance_map());

    let mut hierarchy = CacheHierarchy::dac17(pcm.page_size_bytes);
    let mut cpu = CpuWorkload::new(&CpuWorkloadConfig {
        footprint_bytes: pcm.pages * pcm.page_size_bytes,
        region_alpha: 1.0,
        mean_burst: 16,
        write_fraction: 0.4,
        seed: 9,
    });

    let mut pcm_reads = 0u64;
    let mut pcm_writes = 0u64;
    for _ in 0..CPU_ACCESSES {
        let (addr, is_write) = cpu.next_access();
        for cmd in hierarchy.access(addr, is_write) {
            let la = LogicalPageAddr::new(cmd.la.index() % pcm.pages);
            if cmd.is_write() {
                twl.write(la, &mut device)?;
                pcm_writes += 1;
            } else {
                twl.read(la, &device)?;
                pcm_reads += 1;
            }
        }
    }
    for cmd in hierarchy.flush() {
        if cmd.is_write() {
            twl.write(
                LogicalPageAddr::new(cmd.la.index() % pcm.pages),
                &mut device,
            )?;
            pcm_writes += 1;
        }
    }

    let stats = hierarchy.stats();
    println!("CPU accesses:        {CPU_ACCESSES}");
    println!(
        "L1: {:>8} hits / {:>8} misses (hit rate {:.1}%)",
        stats.l1.hits,
        stats.l1.misses,
        100.0 * stats.l1.hit_rate()
    );
    println!(
        "L2: {:>8} hits / {:>8} misses (hit rate {:.1}%)",
        stats.l2.hits,
        stats.l2.misses,
        100.0 * stats.l2.hit_rate()
    );
    println!("PCM reads:           {pcm_reads}");
    println!("PCM writes:          {pcm_writes}");
    println!(
        "memory traffic ratio: {:.2}% of CPU accesses reach PCM",
        100.0 * stats.memory_traffic_ratio()
    );
    println!(
        "\nTWL on the filtered stream: {} device writes, swap/write {:.4}, extra writes {:.3}",
        device.total_writes(),
        twl.stats().swap_per_write(),
        twl.stats().extra_write_ratio()
    );
    Ok(())
}
