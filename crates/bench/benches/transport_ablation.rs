//! Bench target regenerating this experiment; see
//! `erpc_bench::experiments::transport_ablation` for the cost-ladder
//! mapping (per-packet loop → sendmmsg → segmented).

fn main() {
    erpc_bench::experiments::transport_ablation::run();
}
