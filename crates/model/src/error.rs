//! Error type shared by the model crate.

use std::fmt;

/// Errors raised when constructing or validating model objects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelError {
    /// A chain must contain at least one layer.
    EmptyChain,
    /// A layer carried a NaN/infinite/negative cost; `detail` names the
    /// offending field and its value.
    MalformedLayer { index: usize, detail: String },
    /// The chain's byte counts summed up to layer `index` (its weights,
    /// or the activations its stages store) overflow a `u64`.
    ByteOverflow { index: usize, sum: &'static str },
    /// A partition/allocation does not cover `0..L` with contiguous,
    /// in-order, non-empty stages.
    BadCover { detail: String },
    /// A stage references a GPU outside `0..P`.
    GpuOutOfRange { gpu: usize, n_gpus: usize },
    /// A platform parameter is non-positive or non-finite.
    BadPlatform { detail: String },
    /// A platform fault is unusable (out-of-range fraction, losing every
    /// GPU, malformed spec, …).
    BadFault { detail: String },
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::EmptyChain => write!(f, "chain must contain at least one layer"),
            ModelError::MalformedLayer { index, detail } => {
                write!(f, "layer {index}: {detail}")
            }
            ModelError::ByteOverflow { index, sum } => {
                write!(f, "layer {index}: the chain's {sum} overflow 64 bits")
            }
            ModelError::BadCover { detail } => write!(f, "stages do not cover the chain: {detail}"),
            ModelError::GpuOutOfRange { gpu, n_gpus } => {
                write!(
                    f,
                    "stage assigned to GPU {gpu} but platform has {n_gpus} GPUs"
                )
            }
            ModelError::BadPlatform { detail } => write!(f, "invalid platform: {detail}"),
            ModelError::BadFault { detail } => write!(f, "invalid platform fault: {detail}"),
        }
    }
}

impl std::error::Error for ModelError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = ModelError::GpuOutOfRange { gpu: 9, n_gpus: 4 };
        assert!(e.to_string().contains("GPU 9"));
        assert!(e.to_string().contains("4 GPUs"));
    }
}
