//! JSON persistence of profiled chains.
//!
//! A profile file stores the `(u_F, u_B, W, a)` vector per layer plus the
//! settings it was produced with — exactly what an external profiler
//! (e.g. a PyTorch hook script) would emit. Loading a file produced
//! elsewhere is the supported path for replacing the analytic cost model
//! with real measurements.

use std::fs;
use std::io;
use std::path::Path;

use madpipe_json::{required, FromJson, JsonError, Reader, ToJson, Value};
use madpipe_model::Chain;

use crate::cost::GpuModel;

/// A profiled chain plus the provenance of the numbers.
#[derive(Debug, Clone, PartialEq)]
pub struct Profile {
    /// Batch size used.
    pub batch: u64,
    /// Square image size used.
    pub image_size: u64,
    /// Cost model, when synthesized (absent for measured profiles).
    pub gpu: Option<GpuModel>,
    /// The per-layer costs.
    pub chain: Chain,
}

impl Profile {
    /// Serialize to pretty JSON.
    pub fn to_json(&self) -> String {
        Value::Object(vec![
            ("batch".into(), self.batch.to_json()),
            ("image_size".into(), self.image_size.to_json()),
            (
                "gpu".into(),
                self.gpu
                    .as_ref()
                    .map(ToJson::to_json)
                    .unwrap_or(Value::Null),
            ),
            ("chain".into(), self.chain.to_json()),
        ])
        .to_string_pretty()
    }

    /// Parse from JSON; the chain is read by [`Chain::read_json`], which
    /// rebuilds its prefix sums. A syntax error anywhere in the file is
    /// reported before a missing or ill-typed field.
    pub fn from_json(s: &str) -> Result<Self, JsonError> {
        let mut r = Reader::new(s);
        let (mut batch, mut image_size, mut gpu, mut chain) = (None, None, None, None);
        r.object(|r, key| {
            match &*key {
                "batch" if batch.is_none() => batch = Some(r.value()?),
                "image_size" if image_size.is_none() => image_size = Some(r.value()?),
                "gpu" if gpu.is_none() => gpu = Some(r.value()?),
                "chain" if chain.is_none() => chain = Some(Chain::read_json(r)?),
                _ => drop(r.value()?),
            }
            Ok(())
        })?;
        r.finish()?;
        Ok(Self {
            batch: required(batch, "batch")?.as_u64()?,
            image_size: required(image_size, "image_size")?.as_u64()?,
            gpu: Option::<GpuModel>::from_json(&required(gpu, "gpu")?)?,
            chain: required(chain, "chain")??,
        })
    }

    /// Write to a file.
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        fs::write(path, self.to_json())
    }

    /// Read from a file.
    pub fn load(path: impl AsRef<Path>) -> io::Result<Self> {
        let s = fs::read_to_string(path)?;
        Self::from_json(&s).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::networks::resnet50;

    #[test]
    fn json_roundtrip_preserves_costs() {
        let gpu = GpuModel::default();
        let chain = resnet50().profile(8, 1000, &gpu).unwrap();
        let profile = Profile {
            batch: 8,
            image_size: 1000,
            gpu: Some(gpu),
            chain: chain.clone(),
        };
        let back = Profile::from_json(&profile.to_json()).unwrap();
        assert_eq!(back.batch, 8);
        assert_eq!(back.chain.len(), chain.len());
        // Prefix sums were rebuilt: U(1,L) must match.
        assert!((back.chain.total_compute_time() - chain.total_compute_time()).abs() < 1e-12);
    }

    #[test]
    fn file_roundtrip() {
        let gpu = GpuModel::default();
        let chain = resnet50().profile(2, 100, &gpu).unwrap();
        let profile = Profile {
            batch: 2,
            image_size: 100,
            gpu: Some(gpu),
            chain,
        };
        let dir = std::env::temp_dir().join("madpipe-profile-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("resnet50.json");
        profile.save(&path).unwrap();
        let back = Profile::load(&path).unwrap();
        assert_eq!(back, profile);
    }
}
