//! Serde layouts of types whose fields hold shared or static text
//! (`Arc<str>`, `Cow<'static, str>`) instead of owned `String`s: each
//! writes, and reads back, the JSON the `String` fields gave.

use phishsim::browser::BrowserConfig;
use phishsim::dns::{DomainName, Zone};
use phishsim::http::{Request, Url};
use phishsim::simnet::Ipv4Sim;

/// Serialize a `$ty`, check the JSON against `$golden` and check that
/// reading it back writes it again.
macro_rules! round_trips {
    ($value:expr, $ty:ty, $golden:expr) => {{
        let json = serde_json::to_string(&$value).unwrap();
        assert_eq!(json, $golden);
        let back: $ty = serde_json::from_str(&json).unwrap();
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
    }};
}

#[test]
fn layouts_are_those_of_string_fields() {
    let name = DomainName::parse("green-energy.online").unwrap();
    let zone = Zone::hosting(name, Ipv4Sim::new(10, 1, 2, 3), 7, true);
    let record = |data: &str, ttl: u32| {
        format!(r#"{{"data":{data},"name":{{"sld":"green-energy","tld":"online"}},"ttl":{ttl}}}"#)
    };
    let records = [
        record(r#"{"Soa":{"mname":"ns1.dns-host.net","serial":7}}"#, 3600),
        record(r#"{"Ns":"ns1.dns-host.net"}"#, 3600),
        record(r#"{"Ns":"ns2.dns-host.net"}"#, 3600),
        record(r#"{"A":167838211}"#, 300),
        record(r#"{"Ds":7}"#, 3600),
    ];
    round_trips!(
        zone,
        Zone,
        format!(
            r#"{{"origin":{{"sld":"green-energy","tld":"online"}},"records":[{}]}}"#,
            records.join(",")
        )
    );
    round_trips!(
        BrowserConfig::plain_crawler("scanner/1.0"),
        BrowserConfig,
        r#"{"captcha_solver":null,"dialog_policy":"Ignore","max_effect_rounds":3,"max_redirects":5,"user_agent":"scanner/1.0"}"#
    );
    let request = Request::get(Url::parse("https://a.com/x?y=1").unwrap()).with_user_agent("UA/1");
    round_trips!(
        request,
        Request,
        r#"{"body":"","headers":{"entries":[["User-Agent","UA/1"]]},"method":"Get","url":{"host":"a.com","https":true,"path":"/x","query":[["y","1"]]}}"#
    );
}
