//! # phishsim-http
//!
//! An HTTP/1.1 message model and simulated web-hosting layer.
//!
//! Everything the reproduced experiment observes travels over HTTP: the
//! crawlers' page fetches, the AJAX call behind the alert-box evasion,
//! the session-gated form POSTs, and the reCAPTCHA verification
//! exchange. This crate provides:
//!
//! * [`Url`] — parsed URLs with query parameters (client-side extensions
//!   in Table 3 differ in whether they exfiltrate URL parameters).
//! * [`Headers`] — case-insensitive header map.
//! * [`Request`] / [`Response`] — messages with builder APIs.
//! * [`Body`] — a response body shared by reference, with its
//!   [`content_hash`] computed once.
//! * [`codec`] — a byte-level HTTP/1.1 wire codec (`bytes`-based framing
//!   in the style of the tokio tutorial's frame layer); the simulation
//!   mostly passes structured messages, but the codec keeps the model
//!   honest and round-trip tested.
//! * [`Cookie`] / [`CookieJar`] — cookies with domain/path/expiry
//!   matching; PHP-style sessions ride on these.
//! * [`UserAgent`] — the browser and bot user-agent strings the cloaking
//!   baseline keys on.
//! * [`TlsCertificate`] — simulated certificate issuance (the paper
//!   issues TLS certificates for all domains).
//! * [`VirtualHosting`] — an Nginx-like front end mapping `Host` headers
//!   to per-site handlers on a farm of hosting IPs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod body;
pub mod codec;
pub mod cookies;
pub mod headers;
pub mod hosting;
pub mod message;
pub mod shortener;
pub mod tls;
pub mod url;
pub mod useragent;

pub use body::{content_hash, Body};
pub use codec::{decode_request, decode_response, encode_request, encode_response, CodecError};
pub use cookies::{Cookie, CookieJar};
pub use headers::Headers;
pub use hosting::{hosting_shard, Handler, HostingFarm, RequestCtx, VirtualHosting};
pub use message::{Method, Request, Response, Status};
pub use shortener::{RedirectHop, UrlShortener};
pub use tls::{CertificateAuthority, TlsCertificate, TlsError};
pub use url::{Canonical, CanonicalKey, CanonicalText, Url, UrlError};
pub use useragent::UserAgent;
