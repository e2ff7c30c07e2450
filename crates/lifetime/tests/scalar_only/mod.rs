//! Wrappers that hide every batched entry point behind a panic, so a
//! per-write oracle run that finishes through them provably used only
//! `WearLeveler::write` and `AttackStream::next_write`.

use twl_attacks::AttackStream;
use twl_pcm::{LogicalPageAddr, PcmDevice, PcmError, PhysicalPageAddr};
use twl_wl_core::{BatchOutcome, ReadOutcome, WearLeveler, WlStats, WriteOutcome};

/// A scheme whose `write_batch`, `write_batch_cap` and quiet-stretch
/// hooks panic.
pub struct ScalarOnlyScheme(pub Box<dyn WearLeveler>);

impl WearLeveler for ScalarOnlyScheme {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn page_count(&self) -> u64 {
        self.0.page_count()
    }

    fn translate(&self, la: LogicalPageAddr) -> PhysicalPageAddr {
        self.0.translate(la)
    }

    fn write(
        &mut self,
        la: LogicalPageAddr,
        device: &mut PcmDevice,
    ) -> Result<WriteOutcome, PcmError> {
        self.0.write(la, device)
    }

    fn write_batch(&mut self, _: LogicalPageAddr, _: u64, _: &mut PcmDevice) -> BatchOutcome {
        panic!("the per-write oracle called write_batch")
    }

    fn write_batch_cap(&self, _: u64) -> u64 {
        panic!("the per-write oracle called write_batch_cap")
    }

    fn quiet_writes(&self, _: LogicalPageAddr) -> (PhysicalPageAddr, u64) {
        panic!("the per-write oracle called quiet_writes")
    }

    fn record_quiet(&mut self, _: LogicalPageAddr, _: PhysicalPageAddr, _: u64) -> WriteOutcome {
        panic!("the per-write oracle called record_quiet")
    }

    fn read(&mut self, la: LogicalPageAddr, device: &PcmDevice) -> Result<ReadOutcome, PcmError> {
        self.0.read(la, device)
    }

    fn stats(&self) -> &WlStats {
        self.0.stats()
    }
}

/// A stream whose `next_run` panics.
pub struct ScalarOnlyStream<A>(pub A);

impl<A: AttackStream> AttackStream for ScalarOnlyStream<A> {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn next_write(&mut self, feedback: Option<&WriteOutcome>) -> LogicalPageAddr {
        self.0.next_write(feedback)
    }

    fn next_run(&mut self, _: Option<&WriteOutcome>, _: u64) -> (LogicalPageAddr, u64) {
        panic!("the per-write oracle called next_run")
    }
}
