//! The built-in components of the simulated machine: one [`Cpu`] per
//! simulated processor plus the [`TimelineSampler`].

mod cpu;
mod sampler;

pub(crate) use cpu::Cpu;
pub(crate) use sampler::TimelineSampler;
#[cfg(test)]
pub(crate) use sampler::MAX_TIMELINE_SAMPLES;
