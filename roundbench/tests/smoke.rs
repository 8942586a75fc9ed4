//! Smoke mode as a test: a few full-size rounds of every workload,
//! untraced and traced, with every correctness check on.

use perigee_roundbench::smoke;
use perigee_roundbench::workloads::Workload;

#[test]
fn every_workload_passes_its_checks_traced_and_untraced() {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(2)
        .build()
        .expect("thread pool");
    for w in Workload::ALL {
        let failures = pool.install(|| smoke(w, 3, 2));
        assert!(failures.is_empty(), "{}: {failures:?}", w.name());
    }
}
