//! Tracing-on vs. tracing-off equivalence: the observability layer is a
//! pure observer — for a deterministic (sequential, seeded) TaMix
//! workload, enabling the trace must produce identical commit/abort
//! outcomes, identical final documents, and identical `lock_requests`
//! accounting for every protocol. This is the guard against the layer
//! ever growing a side effect on execution.

mod common;

use common::{base_config, run_seeded_mix, MixResult, TXNS};
use xtc_core::XtcConfig;
use xtc_obs::ObsConfig;

fn run_workload(protocol: &str, trace: bool, seed: u64) -> MixResult {
    let config = XtcConfig {
        obs: trace.then(ObsConfig::default),
        ..base_config(protocol)
    };
    run_seeded_mix(config, seed, TXNS)
}

#[test]
fn obs_equivalence_all_protocols() {
    for proto in xtc_protocols::ALL_PROTOCOLS {
        let on = run_workload(proto, true, 0x0B5E_0000);
        let off = run_workload(proto, false, 0x0B5E_0000);
        assert_eq!(
            on.outcomes, off.outcomes,
            "{proto}: commit/abort outcomes diverge between obs on and off"
        );
        assert_eq!(
            on.digest, off.digest,
            "{proto}: final documents diverge between obs on and off"
        );
        assert_eq!(
            on.lock_requests, off.lock_requests,
            "{proto}: lock_requests accounting must not depend on tracing"
        );
        assert_eq!(
            on.page_reads, off.page_reads,
            "{proto}: page access pattern must not depend on tracing"
        );
        assert!(
            on.events > 0,
            "{proto}: the traced arm must actually record events"
        );
        assert_eq!(
            off.events, 0,
            "{proto}: tracing off must record nothing"
        );
    }
}
