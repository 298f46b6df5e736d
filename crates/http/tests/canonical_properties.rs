//! Property-based tests: the canonical URL form gives the text and the
//! hash the query-stripped URL gave when it was rebuilt and displayed.

use phishsim_http::Url;
use proptest::prelude::*;
use std::collections::HashMap;

fn token() -> impl Strategy<Value = String> {
    "[a-zA-Z0-9_-]{1,8}".prop_map(|s| s)
}

/// http and https URLs, the root path among the paths, and query pairs
/// with empty values among the pairs.
fn url_strategy() -> impl Strategy<Value = Url> {
    (
        any::<bool>(),
        "[a-z][a-z0-9-]{0,20}\\.(com|net|org|xyz)",
        "(/[a-zA-Z0-9_.-]{1,12}){0,4}",
        proptest::collection::vec((token(), "[a-zA-Z0-9]{0,4}"), 0..4),
    )
        .prop_map(|(https, host, path, params)| {
            let scheme = if https { "https" } else { "http" };
            let mut u = Url::parse(&format!("{scheme}://{host}{path}")).unwrap();
            for (k, v) in params {
                u = u.with_param(&k, &v);
            }
            u
        })
}

/// The canonical text as it used to be built: the URL cloned without
/// its query and displayed.
fn reference_text(url: &Url) -> String {
    Url {
        query: Vec::new(),
        ..url.clone()
    }
    .to_string()
}

/// FNV-1a over a built string, as the URL hashes used to be computed.
fn reference_hash(text: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.as_bytes() {
        hash ^= *b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

proptest! {
    #[test]
    fn canonical_form_matches_the_rebuilt_url(url in url_strategy()) {
        let text = reference_text(&url);
        let scheme = if url.https { "https://" } else { "http://" };
        prop_assert_eq!(&text, &format!("{scheme}{}{}", url.host, url.path));
        prop_assert_eq!(url.canonical().to_string(), text.clone());
        prop_assert_eq!(url.canonical().hash(), reference_hash(&text));
        prop_assert_eq!(url.privacy_hash(), reference_hash(&url.to_string()));
    }

    #[test]
    fn views_find_exactly_the_keys_of_their_text(urls in proptest::collection::vec(url_strategy(), 1..12)) {
        let mut map = HashMap::new();
        let mut reference = HashMap::new();
        for (i, u) in urls.iter().enumerate().skip(1) {
            map.entry(u.canonical().to_key()).or_insert(i);
            reference.entry(reference_text(u)).or_insert(i);
        }
        for u in &urls {
            prop_assert_eq!(
                map.get(u.canonical().as_key()),
                reference.get(&reference_text(u))
            );
        }
    }
}
