//! The component abstraction of the discrete-event engine.
//!
//! Everything that evolves over simulated time — each CPU, the timeline
//! sampler — is a [`Component`] registered with the
//! [`Scheduler`](crate::sched::Scheduler). A component sleeps until one
//! of its scheduled wake-ups pops, then [`Component::tick`]s against the
//! shared [`SystemBus`](crate::bus::SystemBus): it reads and mutates
//! machine state (threads, ready queue, mutex bank, cache system) and
//! requests further wake-ups — its own via the tick return value, other
//! components' via [`SystemBus::wake`](crate::bus::SystemBus::wake).

use crate::bus::SystemBus;
use crate::sched::EventClass;

/// Index of a registered component. CPUs occupy `0..cpus`; the timeline
/// sampler (when sampling is enabled) sits at `cpus`.
pub(crate) type ComponentId = u32;

/// Index of a simulated thread.
pub(crate) type ThreadId = usize;

/// One time-evolving part of the simulated machine.
pub(crate) trait Component {
    /// This component's registration index.
    fn id(&self) -> ComponentId;

    /// Scheduling class: where this component's firings sort relative to
    /// others at the same timestamp (see [`EventClass`]).
    fn class(&self) -> EventClass {
        EventClass::Normal
    }

    /// The component's pending self-scheduled wake-up, used to seed the
    /// event heap before the run starts. `None` means the component only
    /// runs when something else wakes it (CPUs are woken by thread
    /// dispatch).
    fn next_tick(&self) -> Option<u64>;

    /// Handle a wake-up at simulated time `now`. Returns the time of the
    /// component's next self-scheduled wake-up, or `None` to sleep until
    /// an external [`SystemBus::wake`](crate::bus::SystemBus::wake).
    fn tick(&mut self, now: u64, bus: &mut SystemBus) -> Option<u64>;
}
