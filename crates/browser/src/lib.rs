//! # phishsim-browser
//!
//! Headless browser emulation.
//!
//! Both sides of the paper's experiment run "browsers": anti-phishing
//! crawlers drive browser automation against reported URLs, and the
//! client-side-extension experiment (§5) drives a real Firefox. The
//! differences that decide the paper's results are small and behavioural:
//!
//! * can the client *interact with modal dialogs*? (GSB's bots confirm
//!   the alert box; everyone else is stuck on the benign cover);
//! * does it *submit forms* on suspicious pages? (NetCraft, OpenPhish
//!   and PhishTank do, which defeats session gating);
//! * can it *solve CAPTCHAs*? (nobody can);
//! * does it *cache Safe-Browsing verdicts per URL*? (the reCAPTCHA kit
//!   reloads the same URL with new content, and the cached "safe"
//!   verdict — valid 5 to 60 minutes — hides the swap).
//!
//! [`Browser`] models exactly those behaviours over the
//! [`Transport`] abstraction; [`VerdictCache`] models the Safe Browsing
//! Update-API client cache.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod driver;
pub mod rendercache;
pub mod sbcache;
pub mod transport;

pub use driver::{BrowseStep, Browser, BrowserConfig, DialogPolicy, PageView};
pub use rendercache::{RenderCache, Rendered};
pub use sbcache::{SbLocalDb, Verdict, VerdictCache};
pub use transport::{FetchError, Transport};
