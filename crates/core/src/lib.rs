//! # phishsim-core
//!
//! The paper's primary contribution, rebuilt: a semi-automated,
//! scalable framework for experimentally testing phishing evasion
//! techniques against anti-phishing engines.
//!
//! The framework stages are the paper's §3, in order:
//!
//! 1. **Domain acquisition** ([`domains`]) — the drop-catch pipeline
//!    (Alexa scan → NXDOMAIN → registrar availability → WHOIS →
//!    VT/GSB history → archive + index) plus random-keyword
//!    registrations, spread over two weeks with DNSSEC.
//! 2. **Deployment** ([`deploy`]) — fake-website generation, hosting on
//!    a 22-address farm, TLS issuance, and phishing-kit arming.
//! 3. **Reporting & monitoring** ([`monitor`], [`world`]) — report
//!    submission via form/email, crawl traffic capture, GSB-API
//!    polling, and half-hourly feed downloads.
//! 4. **Experiments** ([`experiment`]) — the preliminary test
//!    (Table 1), the main experiment (Table 2), the client-side
//!    extension experiment (Table 3), and the web-cloaking baseline
//!    (Oest et al. comparison).
//!
//! All results flow into [`tables`], which renders the paper's tables
//! and the experiment-index artifacts consumed by `EXPERIMENTS.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod deploy;
pub mod domains;
pub mod experiment;
pub mod monitor;
pub mod tables;
pub mod world;

pub use deploy::{deploy_armed_site, Deployment};
pub use domains::{acquire_domains, AcquisitionConfig, AcquisitionResult, Funnel};
pub use world::{World, DEFAULT_SEED};
