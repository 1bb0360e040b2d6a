//! A single layer of a linearized DNN.

use madpipe_json::{required, Decoded, JsonError, Reader, ToJson, Value};

/// One layer of the linearized chain (the paper's layer `l`).
///
/// A layer bundles the profiled (or synthesized) costs of one node of the
/// chain of Figure 1: the forward operation `F_l`, the backward operation
/// `B_l`, its parameter weights `W_l` and the activation tensor `a^{(l)}`
/// that `F_l` outputs. The gradient `b^{(l)}` consumed by `B_l` has the
/// same size as `a^{(l)}` (each gradient matches the activation it is
/// taken with respect to), so it is not stored separately.
#[derive(Debug, Clone, PartialEq)]
pub struct Layer {
    /// Human-readable identifier (e.g. `"conv2_block1"`).
    pub name: String,
    /// Duration of the forward task `F_l` for one mini-batch, in seconds
    /// (the paper's `u_{F_l}`).
    pub forward_time: f64,
    /// Duration of the backward task `B_l` for one mini-batch, in seconds
    /// (the paper's `u_{B_l}`).
    pub backward_time: f64,
    /// Size of the parameter weights `W_l`, in bytes.
    pub weight_bytes: u64,
    /// Size of the output activation tensor `a^{(l)}` for one mini-batch,
    /// in bytes.
    pub activation_bytes: u64,
    /// Extra bytes pinned per live mini-batch *inside* the layer, beyond
    /// its input activation — non-zero only for layers produced by
    /// grouping several original layers (see `madpipe_dnn::coarsen`):
    /// the inputs of the interior layers stay resident until the
    /// grouped backward runs, but never cross a cut.
    pub internal_stored_bytes: u64,
}

impl Layer {
    /// Convenience constructor.
    pub fn new(
        name: impl Into<String>,
        forward_time: f64,
        backward_time: f64,
        weight_bytes: u64,
        activation_bytes: u64,
    ) -> Self {
        Self {
            name: name.into(),
            forward_time,
            backward_time,
            weight_bytes,
            activation_bytes,
            internal_stored_bytes: 0,
        }
    }

    /// Builder: set the internal stored bytes of a grouped layer.
    pub fn with_internal_stored(mut self, bytes: u64) -> Self {
        self.internal_stored_bytes = bytes;
        self
    }

    /// Total compute time of the layer (`u_{F_l} + u_{B_l}`).
    pub fn compute_time(&self) -> f64 {
        self.forward_time + self.backward_time
    }

    /// Memory footprint of hosting this layer's parameters: `3·W_l`
    /// (two weight versions plus one accumulated gradient, following the
    /// PipeDream-2BW convention adopted in §3 of the paper).
    pub fn weight_footprint(&self) -> u64 {
        3 * self.weight_bytes
    }

    /// True when all costs are finite and non-negative — the validity
    /// requirement enforced by [`crate::Chain::new`].
    pub fn is_well_formed(&self) -> bool {
        self.validate().is_ok()
    }

    /// Check every cost field, naming the first offending one — the
    /// descriptive form of [`Layer::is_well_formed`] used by
    /// [`crate::Chain::new`] so a bad profile (or a bad planning-service
    /// request) is rejected with a message instead of letting a NaN or
    /// infinity flow into the DP and the event heap.
    pub fn validate(&self) -> Result<(), String> {
        let check = |field: &str, v: f64| -> Result<(), String> {
            if !v.is_finite() {
                return Err(format!("{field} must be finite, got {v}"));
            }
            if v < 0.0 {
                return Err(format!("{field} must be non-negative, got {v}"));
            }
            Ok(())
        };
        check("forward_time (u_F)", self.forward_time)?;
        check("backward_time (u_B)", self.backward_time)?;
        Ok(())
    }
}

impl ToJson for Layer {
    fn to_json(&self) -> Value {
        Value::Object(vec![
            ("name".into(), self.name.to_json()),
            ("forward_time".into(), self.forward_time.to_json()),
            ("backward_time".into(), self.backward_time.to_json()),
            ("weight_bytes".into(), self.weight_bytes.to_json()),
            ("activation_bytes".into(), self.activation_bytes.to_json()),
            (
                "internal_stored_bytes".into(),
                self.internal_stored_bytes.to_json(),
            ),
        ])
    }
}

impl Layer {
    /// Read a layer object, as [`Layer::to_json`] writes it, from `r` (the
    /// [`crate::Chain::read_json`] contract). The first of a repeated key
    /// counts; `internal_stored_bytes` may be absent (older profile
    /// files) and defaults to zero.
    pub(crate) fn read_json(r: &mut Reader<'_>) -> Decoded<Layer> {
        let fields = r.fields([
            "name",
            "forward_time",
            "backward_time",
            "weight_bytes",
            "activation_bytes",
            "internal_stored_bytes",
        ])?;
        Ok(layer_of(fields))
    }
}

fn layer_of(
    [name, forward, backward, weight, activation, internal]: [Option<Value>; 6],
) -> Result<Layer, JsonError> {
    Ok(Layer {
        name: required(name, "name")?.into_string()?,
        forward_time: required(forward, "forward_time")?.as_f64()?,
        backward_time: required(backward, "backward_time")?.as_f64()?,
        weight_bytes: required(weight, "weight_bytes")?.as_u64()?,
        activation_bytes: required(activation, "activation_bytes")?.as_u64()?,
        internal_stored_bytes: internal.map_or(Ok(0), |b| b.as_u64())?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compute_time_sums_forward_and_backward() {
        let l = Layer::new("l", 1.5, 3.0, 10, 20);
        assert_eq!(l.compute_time(), 4.5);
    }

    #[test]
    fn weight_footprint_is_three_copies() {
        let l = Layer::new("l", 0.0, 0.0, 7, 0);
        assert_eq!(l.weight_footprint(), 21);
    }

    #[test]
    fn well_formedness_rejects_nan_and_negative() {
        let mut l = Layer::new("l", 1.0, 1.0, 0, 0);
        assert!(l.is_well_formed());
        l.forward_time = f64::NAN;
        assert!(!l.is_well_formed());
        l.forward_time = -1.0;
        assert!(!l.is_well_formed());
        l.forward_time = f64::INFINITY;
        assert!(!l.is_well_formed());
    }

    fn read(doc: &str) -> Result<Layer, JsonError> {
        let mut r = Reader::new(doc);
        let layer = Layer::read_json(&mut r).unwrap();
        r.finish().unwrap();
        layer
    }

    #[test]
    fn json_roundtrip_and_default_internal_bytes() {
        let l = Layer::new("l", 0.25, 0.5, 10, 20).with_internal_stored(7);
        let back = read(&l.to_json().to_string_compact());
        assert_eq!(back, Ok(l));
        // `internal_stored_bytes` may be absent in older files.
        let legacy = read(
            r#"{"name":"x","forward_time":1.0,"backward_time":2.0,
                "weight_bytes":3,"activation_bytes":4}"#,
        );
        assert_eq!(legacy.unwrap().internal_stored_bytes, 0);
    }
}
