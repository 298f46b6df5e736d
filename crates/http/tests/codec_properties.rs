//! Property-based tests: the wire codec round-trips arbitrary messages,
//! and never panics on arbitrary byte soup.

use bytes::BytesMut;
use phishsim_http::{
    content_hash, decode_request, decode_response, encode_request, encode_response, CodecError,
    Headers, Method, Request, Response, Status, Url,
};
use proptest::prelude::*;

fn token() -> impl Strategy<Value = String> {
    "[a-zA-Z][a-zA-Z0-9-]{0,15}".prop_map(|s| s)
}

fn url_strategy() -> impl Strategy<Value = Url> {
    (
        "[a-z][a-z0-9-]{0,20}\\.(com|net|org|xyz)",
        "(/[a-zA-Z0-9_.-]{1,12}){0,4}",
        proptest::collection::vec((token(), token()), 0..4),
    )
        .prop_map(|(host, path, params)| {
            let mut u = Url::https(&host, if path.is_empty() { "/" } else { &path });
            for (k, v) in params {
                u = u.with_param(&k, &v);
            }
            u
        })
}

fn headers_strategy() -> impl Strategy<Value = Headers> {
    proptest::collection::vec((token(), "[ -~&&[^:\r\n]]{0,30}"), 0..5).prop_map(|pairs| {
        let mut h = Headers::new();
        for (k, v) in pairs {
            // Skip names the codec reconstructs itself.
            if k.eq_ignore_ascii_case("host") || k.eq_ignore_ascii_case("content-length") {
                continue;
            }
            h.append(k, v.trim().to_string());
        }
        h
    })
}

fn body_strategy() -> impl Strategy<Value = String> {
    "[a-zA-Z0-9=&%+._ \n-]{0,200}".prop_map(|s| s)
}

proptest! {
    #[test]
    fn request_round_trips(
        url in url_strategy(),
        headers in headers_strategy(),
        body in body_strategy(),
        method_idx in 0usize..3,
    ) {
        let method = [Method::Get, Method::Post, Method::Head][method_idx];
        let req = Request { method, url, headers, body };
        let wire = encode_request(&req);
        let mut buf = BytesMut::from(&wire[..]);
        let parsed = decode_request(&mut buf).unwrap();
        prop_assert_eq!(parsed, req);
        prop_assert!(buf.is_empty());
    }

    #[test]
    fn response_round_trips(
        headers in headers_strategy(),
        body in body_strategy(),
        status_idx in 0usize..5,
    ) {
        let status = [Status::Ok, Status::Found, Status::Forbidden, Status::NotFound, Status::ServerError][status_idx];
        let resp = Response { status, headers, body: body.into() };
        let wire = encode_response(&resp);
        let mut buf = BytesMut::from(&wire[..]);
        let parsed = decode_response(&mut buf).unwrap();
        prop_assert_eq!(parsed.body.content_hash(), content_hash(&resp.body));
        prop_assert_eq!(parsed, resp);
    }

    /// Arbitrary bytes never panic the decoders; truncations of valid
    /// messages report Incomplete, not Malformed.
    #[test]
    fn decoder_total_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..300)) {
        let mut buf = BytesMut::from(&bytes[..]);
        let _ = decode_request(&mut buf);
        let mut buf = BytesMut::from(&bytes[..]);
        let _ = decode_response(&mut buf);
    }

    #[test]
    fn truncation_is_incomplete(
        url in url_strategy(),
        body in body_strategy(),
        cut_fraction in 0.0f64..1.0,
    ) {
        let req = Request { method: Method::Post, url, headers: Headers::new(), body };
        let wire = encode_request(&req);
        let cut = ((wire.len() as f64) * cut_fraction) as usize;
        if cut < wire.len() {
            let mut buf = BytesMut::from(&wire[..cut]);
            match decode_request(&mut buf) {
                Err(CodecError::Incomplete) => {}
                Ok(_) => prop_assert!(false, "decoded from truncated bytes"),
                Err(CodecError::Malformed(m)) => {
                    prop_assert!(false, "truncation reported Malformed: {}", m)
                }
            }
        }
    }

    /// URL display/parse round-trips for generated URLs.
    #[test]
    fn url_round_trips(url in url_strategy()) {
        let s = url.to_string();
        prop_assert_eq!(Url::parse(&s).unwrap(), url);
    }
}
