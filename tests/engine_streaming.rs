//! Integration test for the engine's streaming (slot-recycling) mode
//! (DESIGN.md §16): under an in-flight cap, message slots stay bounded
//! by the cap rather than by the message count, every external id
//! completes exactly once, and a recycled slot never aliases a live
//! message.

use mcast_sim::registry::{build_router, SchemeId, TopoSpec};
use mcast_sim::{Engine, Network, SimConfig};

/// Drives a streamed engine through `total` dual-path multicasts under
/// an in-flight backpressure cap, asserting the memory model as it
/// goes: every external id completes exactly once, recycled slots never
/// alias a live message, and the slot arena stays bounded by the cap —
/// not by the message count. Returns the peak gauges.
fn streamed_injection_peaks(total: usize, cap: usize) -> (usize, usize) {
    let topo = TopoSpec::parse("mesh:8x8").unwrap();
    let built = topo.build();
    let router = build_router(&topo, &SchemeId::named("dual-path")).expect("dual-path registered");
    let mut engine = Engine::new(
        Network::new(built.as_dyn(), router.required_classes()),
        SimConfig::default(),
    );
    engine.set_stream_mode(true);
    let nodes = topo.num_nodes();
    let mut seen = vec![false; total];
    let mut x = 0x2545_f491u64;
    for i in 0..total {
        while engine.in_flight() >= cap {
            let t = engine
                .next_event_time()
                .expect("streamed run wedged at the cap");
            engine.run_until(t);
            engine.drain_completed(|c| {
                assert!(!seen[c.id], "external id {} completed twice", c.id);
                seen[c.id] = true;
            });
        }
        engine.run_until(i as u64 * 2_000);
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let src = (x % nodes as u64) as usize;
        let mut dests = Vec::new();
        let mut y = x;
        while dests.len() < 4 {
            y = y.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
            let d = (y % nodes as u64) as usize;
            if d != src && !dests.contains(&d) {
                dests.push(d);
            }
        }
        let mc = mcast_core::model::MulticastSet::new(src, dests);
        // `inject` hands back the *slot* handle, which recycles under
        // streaming — it must never reach the cap, however many
        // messages have been injected.
        let slot = engine.inject(&router.plan(&mc));
        assert!(slot < cap, "slot {slot} at or past the cap {cap}");
        if i % 97 == 0 {
            // A recycled slot must never alias a live message: every
            // live external id is still uncompleted.
            for live in engine.live_message_ids() {
                assert!(
                    !seen[live],
                    "live id {live} already completed (slot aliasing)"
                );
            }
        }
    }
    assert!(engine.run_to_quiescence(), "streamed tail must drain");
    engine.drain_completed(|c| {
        assert!(!seen[c.id], "external id {} completed twice", c.id);
        seen[c.id] = true;
    });
    assert!(
        seen.iter().all(|&s| s),
        "every injected multicast must complete"
    );
    assert!(
        engine.message_slots() <= cap,
        "slot arena ({}) exceeds the in-flight cap ({cap}) — \
         message state grew with the message count",
        engine.message_slots()
    );
    (engine.peak_live_worms(), engine.peak_in_flight())
}

#[test]
fn streamed_injection_bounds_slots_and_never_aliases_live_worms() {
    // 2000 multicasts through a 32-message window: the worm-id space is
    // bounded by the cap (dual-path plans at most two worms per
    // message).
    let (peak_worms, peak_in_flight) = streamed_injection_peaks(2_000, 32);
    assert!(peak_in_flight <= 32, "backpressure ceiling breached");
    assert!(
        peak_worms <= 2 * 32,
        "live worms ({peak_worms}) exceed twice the in-flight cap"
    );
}
