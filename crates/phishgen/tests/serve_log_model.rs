//! Reference-model test for a gate's serve log.
//!
//! `SiteProbe` stores fixed-size entries over a per-site actor table.
//! This property drives an alert-box site with random request
//! sequences, keeps the `ServeRecord` each request should log in a
//! plain `Vec` as the reference, and requires every probe query to
//! answer as a naive scan of that `Vec` does: repeated and never-seen
//! actors, out-of-order and tied times, and payload and cover serves
//! interleaved.

use phishsim_http::{Handler, Request, RequestCtx, Url};
use phishsim_phishgen::{Brand, EvasionTechnique, GateConfig, PhishingSite, ServeRecord};
use phishsim_simnet::{DetRng, Ipv4Sim, SimTime};
use proptest::prelude::*;

const ACTORS: [&str; 4] = ["gsb", "netcraft", "human", "openphish"];

/// An actor from the pool two times in three, else a fresh one.
fn actor() -> BoxedStrategy<String> {
    prop_oneof![
        (0..ACTORS.len()).prop_map(|i| ACTORS[i].to_string()),
        (0..ACTORS.len()).prop_map(|i| ACTORS[i].to_string()),
        "[a-z]{1,3}",
    ]
    .boxed()
}

/// (minute, source octet, actor, confirms the alert box).
fn visit() -> impl Strategy<Value = (u64, u8, String, bool)> {
    (0u64..30, 0u8..4, actor(), any::<bool>())
}

fn url() -> Url {
    Url::https("victim.com", "/secure/login.php")
}

/// The reference `first_payload_at`: a scan over owned records.
fn first_payload_at(model: &[ServeRecord], actor: &str) -> Option<SimTime> {
    model
        .iter()
        .filter(|r| r.payload && r.actor == actor)
        .map(|r| r.at)
        .min()
}

proptest! {
    #[test]
    fn probe_answers_like_a_vec_of_records(
        visits in proptest::collection::vec(visit(), 0..40),
        unseen in "[a-z]{4,6}",
    ) {
        let mut site = PhishingSite::new(
            "victim.com",
            Brand::PayPal,
            GateConfig::simple(EvasionTechnique::AlertBox),
            &DetRng::new(7),
        );
        let probe = site.probe();
        let mut model: Vec<ServeRecord> = Vec::new();
        for (minute, octet, actor, confirm) in &visits {
            let src = Ipv4Sim::new(10, 0, 0, *octet);
            let at = SimTime::from_mins(*minute);
            let req = if *confirm {
                Request::post_form(url(), &[("get_data", "getData")])
            } else {
                Request::get(url())
            };
            site.handle(&req, &RequestCtx { src, actor, now: at });
            model.push(ServeRecord {
                at,
                src,
                actor: actor.clone(),
                payload: *confirm,
                note: if *confirm { "alert-confirmed" } else { "alert-cover" },
            });
        }

        prop_assert_eq!(probe.records(), model.clone());
        let payloads: Vec<ServeRecord> = model.iter().filter(|r| r.payload).cloned().collect();
        prop_assert_eq!(probe.payload_serves(), payloads);
        prop_assert_eq!(probe.request_count(), model.len());
        let mut actors: Vec<&str> = ACTORS.to_vec();
        actors.extend(visits.iter().map(|(_, _, a, _)| a.as_str()));
        actors.push(&unseen);
        actors.push("");
        for actor in actors {
            prop_assert_eq!(
                probe.payload_reached_by(actor),
                model.iter().any(|r| r.payload && r.actor == actor),
                "payload_reached_by({:?})", actor
            );
            prop_assert_eq!(
                probe.first_payload_at(actor),
                first_payload_at(&model, actor),
                "first_payload_at({:?})", actor
            );
        }
    }
}
