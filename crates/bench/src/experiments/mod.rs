//! One module per paper table/figure. Every experiment is a pure function
//! from a [`Scale`](crate::workloads::Scale) to a
//! [`Report`](crate::report::Report) (or a small set of reports), so the
//! same code backs the `mp-bench` command line (one subcommand per
//! experiment, in [`engine::experiments`](crate::engine::experiments)
//! order) and the shape-assertion tests.

pub mod ablation;
pub mod codacc;
pub mod common;
pub mod energy_observatory;
pub mod fig01b;
pub mod fig07;
pub mod fig08;
pub mod fig15;
pub mod fig16;
pub mod fig17;
pub mod fig18;
pub mod fig19;
pub mod fig20;
pub mod fleet;
pub mod integrity;
pub mod planners;
pub mod soak;
pub mod table1;
pub mod table2;
pub mod table3;
