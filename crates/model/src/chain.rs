//! The linearized DNN chain and its cost/memory accessors.

use std::ops::Range;

use madpipe_json::{required, Decoded, JsonError, Reader, ToJson, Value};

use crate::error::ModelError;
use crate::layer::Layer;
use crate::policy::{ActivationPolicy, StagePolicy};

/// A linearized DNN: a chain of `L` layers plus the size of the network
/// input (the paper's `a^{(0)}`, the tensor consumed by layer 1).
///
/// All algorithmic crates query costs through this type; prefix sums are
/// precomputed so that `U(k,l)`, weights and stored-activation sums over
/// any stage are O(1).
#[derive(Debug, Clone, PartialEq)]
pub struct Chain {
    name: String,
    /// Size in bytes of the input tensor of the whole network (`a^{(0)}`).
    input_bytes: u64,
    layers: Vec<Layer>,
    /// `fwd_prefix[i]` = Σ_{j<i} u_F[j].
    fwd_prefix: Vec<f64>,
    /// `bwd_prefix[i]` = Σ_{j<i} u_B[j].
    bwd_prefix: Vec<f64>,
    /// `weight_prefix[i]` = Σ_{j<i} W[j].
    weight_prefix: Vec<u64>,
    /// `stored_prefix[i]` = Σ_{j<i} a_in(j) — inputs of each layer, the
    /// paper's `Σ a_{i-1}`.
    stored_prefix: Vec<u64>,
}

impl Chain {
    /// Build a chain, validating every layer.
    pub fn new(
        name: impl Into<String>,
        input_bytes: u64,
        layers: Vec<Layer>,
    ) -> Result<Self, ModelError> {
        if layers.is_empty() {
            return Err(ModelError::EmptyChain);
        }
        for (index, l) in layers.iter().enumerate() {
            if let Err(detail) = l.validate() {
                return Err(ModelError::MalformedLayer { index, detail });
            }
        }
        let mut chain = Self {
            name: name.into(),
            input_bytes,
            layers,
            fwd_prefix: Vec::new(),
            bwd_prefix: Vec::new(),
            weight_prefix: Vec::new(),
            stored_prefix: Vec::new(),
        };
        chain.rebuild_prefixes();
        Ok(chain)
    }

    /// Recompute the prefix sums (needed after deserialization, which
    /// skips them).
    pub fn rebuild_prefixes(&mut self) {
        let n = self.layers.len();
        self.fwd_prefix = Vec::with_capacity(n + 1);
        self.bwd_prefix = Vec::with_capacity(n + 1);
        self.weight_prefix = Vec::with_capacity(n + 1);
        self.stored_prefix = Vec::with_capacity(n + 1);
        self.fwd_prefix.push(0.0);
        self.bwd_prefix.push(0.0);
        self.weight_prefix.push(0);
        self.stored_prefix.push(0);
        for i in 0..n {
            let l = &self.layers[i];
            self.fwd_prefix.push(self.fwd_prefix[i] + l.forward_time);
            self.bwd_prefix.push(self.bwd_prefix[i] + l.backward_time);
            self.weight_prefix
                .push(self.weight_prefix[i] + l.weight_bytes);
            self.stored_prefix.push(
                self.stored_prefix[i]
                    + self.activation_in(i)
                    + self.layers[i].internal_stored_bytes,
            );
        }
    }

    /// Chain name (network identifier).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of layers `L`.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// True iff the chain has no layers (never true for a validated chain).
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// The layers as a slice.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Layer at 0-based index `i`.
    pub fn layer(&self, i: usize) -> &Layer {
        &self.layers[i]
    }

    /// Size of the network input tensor `a^{(0)}`.
    pub fn input_bytes(&self) -> u64 {
        self.input_bytes
    }

    /// Input activation of layer `i` (0-based): the paper's `a_{i-1}`
    /// with `a_0` = network input.
    pub fn activation_in(&self, i: usize) -> u64 {
        if i == 0 {
            self.input_bytes
        } else {
            self.layers[i - 1].activation_bytes
        }
    }

    /// Output activation of layer `i` (0-based): the paper's `a_i`.
    pub fn activation_out(&self, i: usize) -> u64 {
        self.layers[i].activation_bytes
    }

    /// Total forward time over `range` (0-based, half-open).
    pub fn forward_time(&self, range: Range<usize>) -> f64 {
        self.fwd_prefix[range.end] - self.fwd_prefix[range.start]
    }

    /// Total backward time over `range`.
    pub fn backward_time(&self, range: Range<usize>) -> f64 {
        self.bwd_prefix[range.end] - self.bwd_prefix[range.start]
    }

    /// The paper's `U(k,l)` — total compute (forward + backward) time of
    /// the layers in `range`.
    pub fn compute_time(&self, range: Range<usize>) -> f64 {
        self.forward_time(range.clone()) + self.backward_time(range)
    }

    /// Total compute time of the whole chain, `U(1,L)` — the sequential
    /// execution time used as the speedup baseline in Figure 8.
    pub fn total_compute_time(&self) -> f64 {
        self.compute_time(0..self.len())
    }

    /// Sum of parameter-weight bytes over `range` (Σ W_i, *not* tripled).
    pub fn weight_bytes(&self, range: Range<usize>) -> u64 {
        self.weight_prefix[range.end] - self.weight_prefix[range.start]
    }

    /// Stored-activation bytes of a stage covering `range`: the paper's
    /// `ā_s = Σ_{i∈s} a_{i-1}` — one copy of the input of every layer of
    /// the stage, which is what one in-flight mini-batch pins in memory
    /// (plus any internal stored bytes of grouped layers).
    pub fn stored_activation_bytes(&self, range: Range<usize>) -> u64 {
        self.stored_prefix[range.end] - self.stored_prefix[range.start]
    }

    /// Static bytes of a stage covering `range` under `policy`: the
    /// weight versions (`w_mult·Σ W_i`) plus — when the stage recomputes —
    /// the recompute working set `ā − a_in`, the activations regenerated
    /// during backward on top of the stashed boundary input. Batch-count
    /// independent.
    pub fn stage_static_bytes(&self, range: Range<usize>, policy: StagePolicy) -> u64 {
        let weights = policy.weights.multiplier() * self.weight_bytes(range.clone());
        let working_set = match policy.activation {
            ActivationPolicy::Store => 0,
            ActivationPolicy::Recompute => self.recompute_working_set_bytes(range.clone()),
        };
        weights + working_set
    }

    /// The recompute working set of a stage covering `range`: the
    /// activations regenerated during backward on top of the stashed
    /// boundary input, `ā − a_in`. Never underflows: `ā` includes
    /// `a_in(range.start)` as its first term.
    pub fn recompute_working_set_bytes(&self, range: Range<usize>) -> u64 {
        self.stored_activation_bytes(range.clone()) - self.activation_in(range.start)
    }

    /// Bytes pinned per in-flight mini-batch by a stage covering `range`
    /// under `policy`: the full stored activations `ā` when storing, only
    /// the boundary input `a_in` when recomputing.
    pub fn stage_live_batch_bytes(&self, range: Range<usize>, policy: StagePolicy) -> u64 {
        match policy.activation {
            ActivationPolicy::Store => self.stored_activation_bytes(range),
            ActivationPolicy::Recompute => self.activation_in(range.start),
        }
    }

    /// The stage memory estimate `M(k, l, g)` for layers `range` kept
    /// with `g` in-flight batches under `policy`:
    ///
    /// `stage_static_bytes + g·stage_live_batch_bytes  +  2·(a_in + a_out)`
    ///
    /// which under the default policy is the paper's
    /// `Σ_{i∈range} (3·W_i + g·a_{i-1}) + 2·(a_in + a_out)`. The `2·a`
    /// communication buffers are only counted on sides of the stage that
    /// actually cut the chain (dropped at `k = 0` and `l = L` exactly as
    /// in the paper).
    pub fn stage_memory(&self, range: Range<usize>, g: u64, policy: StagePolicy) -> u64 {
        let static_bytes = self.stage_static_bytes(range.clone(), policy);
        let live = g * self.stage_live_batch_bytes(range.clone(), policy);
        let mut buffers = 0;
        if range.start > 0 {
            buffers += 2 * self.activation_in(range.start);
        }
        if range.end < self.len() {
            buffers += 2 * self.activation_out(range.end - 1);
        }
        static_bytes + live + buffers
    }

    /// Largest single-layer compute time — a lower bound on any period.
    pub fn max_layer_compute_time(&self) -> f64 {
        self.layers
            .iter()
            .map(Layer::compute_time)
            .fold(0.0, f64::max)
    }
}

impl ToJson for Chain {
    fn to_json(&self) -> Value {
        // Prefix sums are derived state: they are rebuilt on read, never
        // written.
        Value::Object(vec![
            ("name".into(), self.name.to_json()),
            ("input_bytes".into(), self.input_bytes.to_json()),
            ("layers".into(), self.layers.to_json()),
        ])
    }
}

impl Chain {
    /// Read a chain object, as [`Chain::to_json`] writes it, from `r`
    /// straight into its [`Layer`]s and [`Chain::new`], which revalidates
    /// the layers and rebuilds the prefix sums.
    ///
    /// Fields are looked up as [`Value::get`] finds them: the first of a
    /// repeated key counts, unknown keys are read and dropped, and a value
    /// that is not an object misses every field. Of several faults the
    /// one reported is the first in the order `name`, `input_bytes`,
    /// `layers`, and within `layers` the first faulty layer's. The chain
    /// is read whole either way, so a later syntax error still surfaces
    /// first (see [`Decoded`]).
    pub fn read_json(r: &mut Reader<'_>) -> Decoded<Chain> {
        let (mut name, mut input_bytes, mut layers) = (None, None, None);
        r.object(|r, key| {
            match &*key {
                "name" if name.is_none() => name = Some(r.value()?),
                "input_bytes" if input_bytes.is_none() => input_bytes = Some(r.value()?),
                "layers" if layers.is_none() => layers = Some(read_layers(r)?),
                _ => drop(r.value()?),
            }
            Ok(())
        })?;
        Ok(chain_of(name, input_bytes, layers))
    }
}

fn chain_of(
    name: Option<Value>,
    input_bytes: Option<Value>,
    layers: Option<Result<Vec<Layer>, JsonError>>,
) -> Result<Chain, JsonError> {
    let name = required(name, "name")?.into_string()?;
    let input_bytes = required(input_bytes, "input_bytes")?.as_u64()?;
    let layers = required(layers, "layers")??;
    Chain::new(name, input_bytes, layers).map_err(|e| JsonError::new(format!("invalid chain: {e}")))
}

/// The `layers` array of [`Chain::read_json`]: every layer in order, or
/// the first faulty one's error.
fn read_layers(r: &mut Reader<'_>) -> Decoded<Vec<Layer>> {
    let mut layers = Vec::new();
    let mut fault = None;
    let other = r.array(|r| {
        match Layer::read_json(r)? {
            Ok(layer) => layers.push(layer),
            Err(e) => drop(fault.get_or_insert(e)),
        }
        Ok(())
    })?;
    Ok(match (other, fault) {
        (Some(v), _) => Err(v.as_array().expect_err("an array is read item by item")),
        (None, Some(e)) => Err(e),
        (None, None) => Ok(layers),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain3() -> Chain {
        // input = 100; layers with distinct costs to catch index slips.
        Chain::new(
            "t",
            100,
            vec![
                Layer::new("l0", 1.0, 2.0, 10, 200),
                Layer::new("l1", 3.0, 4.0, 20, 300),
                Layer::new("l2", 5.0, 6.0, 30, 400),
            ],
        )
        .unwrap()
    }

    #[test]
    fn rejects_empty_and_malformed() {
        assert_eq!(Chain::new("e", 0, vec![]), Err(ModelError::EmptyChain));
        let bad = vec![Layer::new("x", f64::NAN, 0.0, 0, 0)];
        let err = Chain::new("b", 0, bad).unwrap_err();
        assert!(matches!(err, ModelError::MalformedLayer { index: 0, .. }));
        let msg = err.to_string();
        assert!(msg.contains("forward_time"), "not descriptive: {msg}");
        assert!(msg.contains("NaN"), "should name the value: {msg}");
        // Negative and infinite values name the field and value too.
        let neg = Chain::new("n", 0, vec![Layer::new("x", 1.0, -2.0, 0, 0)]).unwrap_err();
        assert!(neg.to_string().contains("backward_time"), "{neg}");
        assert!(neg.to_string().contains("-2"), "{neg}");
        let inf = Chain::new("i", 0, vec![Layer::new("x", f64::INFINITY, 0.0, 0, 0)]).unwrap_err();
        assert!(inf.to_string().contains("finite"), "{inf}");
    }

    #[test]
    fn activation_indexing_matches_paper() {
        let c = chain3();
        assert_eq!(c.activation_in(0), 100); // a_0 = input
        assert_eq!(c.activation_in(1), 200); // a_1 = output of layer 0
        assert_eq!(c.activation_out(0), 200);
        assert_eq!(c.activation_out(2), 400);
    }

    #[test]
    fn compute_time_is_u_k_l() {
        let c = chain3();
        assert_eq!(c.compute_time(0..3), 21.0);
        assert_eq!(c.compute_time(1..2), 7.0);
        assert_eq!(c.compute_time(1..1), 0.0);
        assert_eq!(c.total_compute_time(), 21.0);
    }

    #[test]
    fn stored_activation_bytes_sums_layer_inputs() {
        let c = chain3();
        // ā over all layers = a_0 + a_1 + a_2 = 100 + 200 + 300
        assert_eq!(c.stored_activation_bytes(0..3), 600);
        assert_eq!(c.stored_activation_bytes(2..3), 300);
    }

    #[test]
    fn stage_memory_counts_buffers_only_at_cuts() {
        let c = chain3();
        let d = StagePolicy::default();
        // middle stage [1,2): 3*20 + g*200 + 2*(200 + 300)
        assert_eq!(c.stage_memory(1..2, 1, d), 60 + 200 + 1000);
        assert_eq!(c.stage_memory(1..2, 3, d), 60 + 600 + 1000);
        // first stage [0,1): no input buffer, output buffer 2*200
        assert_eq!(c.stage_memory(0..1, 1, d), 30 + 100 + 400);
        // whole chain: no buffers at all
        assert_eq!(c.stage_memory(0..3, 2, d), 3 * 60 + 2 * 600);
    }

    #[test]
    fn recompute_pins_only_the_boundary_input_per_batch() {
        let c = chain3();
        let rec = StagePolicy {
            activation: ActivationPolicy::Recompute,
            ..StagePolicy::default()
        };
        // Stage [1,3): ā = a_1 + a_2 = 200 + 300 = 500, a_in = 200.
        assert_eq!(c.stage_live_batch_bytes(1..3, rec), 200);
        assert_eq!(c.stage_live_batch_bytes(1..3, StagePolicy::default()), 500);
        // static = 3·(20+30) + (500 − 200) = 150 + 300
        assert_eq!(c.stage_static_bytes(1..3, rec), 150 + 300);
        // memory at g=3: static + 3·200 + input buffer 2·200 (end = len →
        // no output buffer)
        assert_eq!(c.stage_memory(1..3, 3, rec), 450 + 600 + 400);
    }

    #[test]
    fn recompute_with_2bw_never_uses_more_memory_than_default() {
        use crate::policy::WeightPolicy;
        let c = chain3();
        let lean = StagePolicy {
            activation: ActivationPolicy::Recompute,
            weights: WeightPolicy::TwoBw,
        };
        for range in [0..1, 1..2, 0..3, 1..3, 2..3] {
            for g in 1..6 {
                assert!(
                    c.stage_memory(range.clone(), g, lean)
                        <= c.stage_memory(range.clone(), g, StagePolicy::default()),
                    "range {range:?} g {g}"
                );
            }
        }
    }

    #[test]
    fn max_layer_compute_time_is_max() {
        assert_eq!(chain3().max_layer_compute_time(), 11.0);
    }

    #[test]
    fn json_roundtrip_rebuilds_prefixes() {
        let c = chain3();
        let json = c.to_json().to_string_compact();
        let mut r = Reader::new(&json);
        let back = Chain::read_json(&mut r).unwrap().unwrap();
        r.finish().unwrap();
        assert_eq!(back, c);
        assert_eq!(back.compute_time(0..3), c.compute_time(0..3));
        assert_eq!(back.stored_activation_bytes(0..3), 600);
    }
}
