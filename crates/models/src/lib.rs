//! Functional reference implementations of the paper's four GNN benchmarks.
//!
//! Section V of the paper evaluates four models chosen for diversity across
//! spatial/spectral convolution, aggregation scheme, model size and graph
//! traversal:
//!
//! * [`Gcn`] — Graph Convolutional Network (Kipf & Welling), spectral.
//! * [`Gat`] — Graph Attention Network (Veličković et al.) with the
//!   attention *normalisation removed*, exactly as the paper's §VI does to
//!   match its accelerator implementation.
//! * [`Mpnn`] — Message Passing Neural Network (Gilmer et al.) with an
//!   edge-conditioned message MLP, GRU vertex updates and a sum readout.
//! * [`Pgnn`] — Power GNN (the multi-hop convolution component of the Line
//!   GNN of Chen et al.), operating on adjacency powers.
//!
//! These implementations serve two purposes: they are the *semantics* the
//! cycle-level accelerator simulation is verified against (bit-for-bit on
//! small graphs), and their operation counts drive the analytic CPU/GPU
//! baseline models.
//!
//! # Example
//!
//! ```
//! use gnna_graph::datasets;
//! use gnna_models::Gcn;
//!
//! # fn main() -> Result<(), gnna_models::ModelError> {
//! let d = datasets::cora_scaled(64, 32, 7, 1)?;
//! let gcn = Gcn::for_dataset(32, 16, 7, 99)?;
//! let inst = &d.instances[0];
//! let y = gcn.forward(&inst.graph, &inst.x)?;
//! assert_eq!(y.shape(), (64, 7));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod gat;
mod gcn;
pub mod init;
mod mlp;
mod mpnn;
mod pgnn;
pub mod workload;

pub use error::ModelError;
pub use gat::{Gat, GatLayer};
pub use gcn::{Gcn, GcnLayer, GcnNorm};
pub use mlp::Mlp;
pub use mpnn::{MessageFunction, Mpnn};
pub use pgnn::{Pgnn, PgnnLayer};

/// The four benchmark model families of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// Graph Convolutional Network.
    Gcn,
    /// Graph Attention Network (unnormalised attention).
    Gat,
    /// Message Passing Neural Network.
    Mpnn,
    /// Power GNN (multi-hop convolution).
    Pgnn,
}

impl ModelKind {
    /// The paper's name for this model.
    pub fn name(self) -> &'static str {
        match self {
            ModelKind::Gcn => "GCN",
            ModelKind::Gat => "GAT",
            ModelKind::Mpnn => "MPNN",
            ModelKind::Pgnn => "PGNN",
        }
    }

    /// Parses a model name, case-insensitively (`gcn`, `GAT`, ...): the
    /// one name table behind every CLI and the serve wire protocol.
    pub fn parse(s: &str) -> Option<ModelKind> {
        [
            ModelKind::Gcn,
            ModelKind::Gat,
            ModelKind::Mpnn,
            ModelKind::Pgnn,
        ]
        .into_iter()
        .find(|m| m.name().eq_ignore_ascii_case(s))
    }

    /// The input this model runs on when none is named: its first
    /// Table VII pairing in [`BENCHMARK_PAIRS`].
    pub fn default_input(self) -> &'static str {
        BENCHMARK_PAIRS
            .iter()
            .find(|(m, _)| *m == self)
            .map(|&(_, input)| input)
            .expect("every model has a Table VII pair")
    }
}

impl std::fmt::Display for ModelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The six benchmark/input pairs evaluated in the paper (Table VII rows).
pub const BENCHMARK_PAIRS: [(ModelKind, &str); 6] = [
    (ModelKind::Gcn, "Cora"),
    (ModelKind::Gcn, "Citeseer"),
    (ModelKind::Gcn, "Pubmed"),
    (ModelKind::Gat, "Cora"),
    (ModelKind::Mpnn, "QM9_1000"),
    (ModelKind::Pgnn, "DBLP_1"),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_kind_names() {
        assert_eq!(ModelKind::Gcn.name(), "GCN");
        assert_eq!(ModelKind::Pgnn.to_string(), "PGNN");
    }

    #[test]
    fn benchmark_pairs_match_table_vii() {
        assert_eq!(BENCHMARK_PAIRS.len(), 6);
        assert_eq!(BENCHMARK_PAIRS[2], (ModelKind::Gcn, "Pubmed"));
        assert_eq!(BENCHMARK_PAIRS[5], (ModelKind::Pgnn, "DBLP_1"));
    }

    #[test]
    fn model_names_round_trip() {
        for (m, _) in BENCHMARK_PAIRS {
            assert_eq!(ModelKind::parse(m.name()), Some(m));
            assert_eq!(ModelKind::parse(&m.name().to_ascii_lowercase()), Some(m));
        }
        assert_eq!(ModelKind::parse("vgg"), None);
    }

    #[test]
    fn default_inputs_are_the_first_table_vii_pairing() {
        assert_eq!(ModelKind::Gcn.default_input(), "Cora");
        assert_eq!(ModelKind::Gat.default_input(), "Cora");
        assert_eq!(ModelKind::Mpnn.default_input(), "QM9_1000");
        assert_eq!(ModelKind::Pgnn.default_input(), "DBLP_1");
    }

    #[test]
    fn every_benchmark_input_resolves() {
        for (_, input) in BENCHMARK_PAIRS {
            let spec = gnna_graph::datasets::spec_by_name(input).unwrap();
            assert_eq!(spec.name, input);
        }
    }
}
