//! # dvicl — Graph Iso/Auto-morphism by Divide-&-Conquer
//!
//! A from-scratch Rust reproduction of *"Graph Iso/Auto-morphism: A
//! Divide-&-Conquer Approach"* (Lu, Yu, Zhang, Cheng — SIGMOD 2021): the
//! **DviCL** canonical labeling algorithm, the **AutoTree** index it
//! builds, the individualization-refinement baseline it improves on, and
//! the applications the paper evaluates (symmetric subgraph matching,
//! influence-maximization seed-set counting, subgraph clustering,
//! k-symmetry anonymization).
//!
//! This crate is a facade re-exporting the workspace members:
//!
//! * [`graph`] — graphs, permutations, colorings, certificates, I/O.
//! * [`refine`] — equitable refinement (the paper's `R`).
//! * [`group`] — orbits, Schreier–Sims, big integers.
//! * [`canon`] — the IR baseline (nauty/bliss/traces stand-ins).
//! * [`core`] — DviCL, AutoTree, SSM, k-symmetry, twin simplification.
//! * [`index`] — the canonical-fingerprint index behind `dvicl batch`.
//! * [`apps`] — influence maximization, max clique, triangles, clustering.
//! * [`data`] — the deterministic evaluation dataset suite.
//!
//! ## Quickstart
//!
//! ```
//! use dvicl::graph::{named, Coloring};
//! use dvicl::core::{aut, try_build_autotree, Budget, DviclOptions, Session};
//!
//! // Every operation that can run long takes a budget (a deadline, a
//! // work cap, a cancel token); `Budget::unlimited()` sets none.
//! let unlimited = Budget::unlimited();
//! let g = named::petersen();
//! let opts = DviclOptions::default();
//! let tree = try_build_autotree(&g, &Coloring::unit(g.n()), &opts, &unlimited)?;
//! assert_eq!(aut::try_group_order(&tree, &unlimited)?.to_u64(), Some(120));
//!
//! // Isomorphism testing: certificates are equal iff graphs are isomorphic.
//! let relabeled = g.permuted(&dvicl::graph::Perm::from_cycles(10, &[&[0, 7, 3]]).unwrap());
//! let mut session = Session::default();
//! assert_eq!(
//!     session.try_canonical_form(&g, &unlimited)?,
//!     session.try_canonical_form(&relabeled, &unlimited)?,
//! );
//! # Ok::<(), dvicl::core::DviclError>(())
//! ```

#![warn(missing_docs)]

pub use dvicl_apps as apps;
pub use dvicl_canon as canon;
pub use dvicl_core as core;
pub use dvicl_data as data;
pub use dvicl_govern as govern;
pub use dvicl_graph as graph;
pub use dvicl_group as group;
pub use dvicl_index as index;
pub use dvicl_refine as refine;
