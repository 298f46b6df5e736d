//! Simulated IPv4 addressing.
//!
//! Anti-phishing crawlers in the paper arrive from *pools* of source
//! addresses — Table 1 reports between 34 (Yandex SB) and 852 (OpenPhish)
//! unique IPs per engine. [`IpPool`] models such a pool: a deterministic
//! set of addresses allocated from a subnet, from which a crawler draws
//! a source address per request (with reuse, so the number of *unique*
//! addresses observed converges to the pool size).

use crate::rng::DetRng;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A simulated IPv4 address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Ipv4Sim(pub u32);

impl Ipv4Sim {
    /// Build from dotted-quad octets.
    pub const fn new(a: u8, b: u8, c: u8, d: u8) -> Self {
        Ipv4Sim(u32::from_be_bytes([a, b, c, d]))
    }

    /// The four octets.
    pub const fn octets(self) -> [u8; 4] {
        self.0.to_be_bytes()
    }

    /// Parse a dotted-quad string.
    pub fn parse(s: &str) -> Option<Self> {
        let mut parts = s.split('.');
        let mut octets = [0u8; 4];
        for o in octets.iter_mut() {
            *o = parts.next()?.parse().ok()?;
        }
        if parts.next().is_some() {
            return None;
        }
        Some(Ipv4Sim(u32::from_be_bytes(octets)))
    }

    /// True if this address falls inside `net/prefix_len`.
    pub fn in_subnet(self, net: Ipv4Sim, prefix_len: u8) -> bool {
        if prefix_len == 0 {
            return true;
        }
        let mask = u32::MAX << (32 - prefix_len as u32);
        (self.0 & mask) == (net.0 & mask)
    }
}

impl fmt::Display for Ipv4Sim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let [a, b, c, d] = self.octets();
        write!(f, "{a}.{b}.{c}.{d}")
    }
}

/// A pool of source addresses owned by one network actor (an anti-phishing
/// engine's crawler fleet, or the hosting provider's server farm).
#[derive(Debug, Clone)]
pub struct IpPool {
    addrs: Vec<Ipv4Sim>,
}

impl IpPool {
    /// Allocate `size` addresses deterministically from the subnet
    /// `base/prefix_len`, skipping the network and broadcast addresses.
    ///
    /// Panics if the subnet cannot hold `size` hosts.
    pub fn allocate(base: Ipv4Sim, prefix_len: u8, size: usize, rng: &mut DetRng) -> Self {
        assert!(prefix_len <= 30, "subnet too small to hold hosts");
        let host_bits = 32 - prefix_len as u32;
        let capacity = (1u64 << host_bits) - 2; // exclude network + broadcast
        assert!(
            (size as u64) <= capacity,
            "subnet /{prefix_len} holds {capacity} hosts, requested {size}"
        );
        let mask = if prefix_len == 0 {
            0
        } else {
            u32::MAX << host_bits
        };
        let net = base.0 & mask;
        // Draw host numbers until `size` are distinct, keeping the
        // addresses sorted (`net` only sets bits above the host number):
        // one allocation, and the draws of a tree set.
        let mut addrs = Vec::with_capacity(size);
        while addrs.len() < size {
            let addr = Ipv4Sim(net | rng.range(1..=capacity as u32));
            if let Err(at) = addrs.binary_search(&addr) {
                addrs.insert(at, addr);
            }
        }
        IpPool { addrs }
    }

    /// A pool containing exactly the given addresses.
    pub fn from_addrs(addrs: Vec<Ipv4Sim>) -> Self {
        assert!(!addrs.is_empty(), "empty IP pool");
        IpPool { addrs }
    }

    /// Replace the pool's addresses with `addrs`, reusing its buffer.
    ///
    /// Panics if `addrs` is empty.
    pub fn refill(&mut self, addrs: impl IntoIterator<Item = Ipv4Sim>) {
        self.addrs.clear();
        self.addrs.extend(addrs);
        assert!(!self.addrs.is_empty(), "empty IP pool");
    }

    /// Number of addresses in the pool.
    pub fn len(&self) -> usize {
        self.addrs.len()
    }

    /// True if the pool is empty (never constructible via public API).
    pub fn is_empty(&self) -> bool {
        self.addrs.is_empty()
    }

    /// Draw a source address for one request (uniform with reuse).
    pub fn draw(&self, rng: &mut DetRng) -> Ipv4Sim {
        *rng.pick(&self.addrs)
    }

    /// All addresses in the pool.
    pub fn addrs(&self) -> &[Ipv4Sim] {
        &self.addrs
    }

    /// True if the pool contains `addr`.
    pub fn contains(&self, addr: Ipv4Sim) -> bool {
        self.addrs.contains(&addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_parse_round_trip() {
        let ip = Ipv4Sim::new(192, 168, 69, 1);
        assert_eq!(ip.to_string(), "192.168.69.1");
        assert_eq!(Ipv4Sim::parse("192.168.69.1"), Some(ip));
        assert_eq!(Ipv4Sim::parse("1.2.3"), None);
        assert_eq!(Ipv4Sim::parse("1.2.3.4.5"), None);
        assert_eq!(Ipv4Sim::parse("1.2.3.999"), None);
    }

    #[test]
    fn subnet_membership() {
        let net = Ipv4Sim::new(10, 1, 0, 0);
        assert!(Ipv4Sim::new(10, 1, 2, 3).in_subnet(net, 16));
        assert!(!Ipv4Sim::new(10, 2, 0, 1).in_subnet(net, 16));
        assert!(Ipv4Sim::new(200, 0, 0, 1).in_subnet(net, 0));
    }

    #[test]
    fn pool_allocates_requested_size_in_subnet() {
        let mut rng = DetRng::new(1);
        let base = Ipv4Sim::new(66, 102, 0, 0);
        let pool = IpPool::allocate(base, 16, 852, &mut rng);
        assert_eq!(pool.len(), 852);
        assert!(pool.addrs().iter().all(|a| a.in_subnet(base, 16)));
        // Distinct addresses.
        let mut v = pool.addrs().to_vec();
        v.sort_unstable();
        v.dedup();
        assert_eq!(v.len(), 852);
    }

    #[test]
    fn pool_excludes_network_and_broadcast() {
        let mut rng = DetRng::new(2);
        let base = Ipv4Sim::new(10, 0, 0, 0);
        let pool = IpPool::allocate(base, 24, 254, &mut rng);
        assert!(!pool.contains(Ipv4Sim::new(10, 0, 0, 0)));
        assert!(!pool.contains(Ipv4Sim::new(10, 0, 0, 255)));
    }

    #[test]
    #[should_panic(expected = "holds")]
    fn oversized_pool_panics() {
        let mut rng = DetRng::new(3);
        IpPool::allocate(Ipv4Sim::new(10, 0, 0, 0), 30, 5, &mut rng);
    }

    #[test]
    fn draw_covers_pool_eventually() {
        let mut rng = DetRng::new(4);
        let pool = IpPool::allocate(Ipv4Sim::new(10, 9, 0, 0), 24, 8, &mut rng);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..1_000 {
            seen.insert(pool.draw(&mut rng));
        }
        assert_eq!(seen.len(), 8, "uniform draws should cover a small pool");
    }

    #[test]
    fn deterministic_allocation() {
        let a = IpPool::allocate(Ipv4Sim::new(10, 0, 0, 0), 16, 64, &mut DetRng::new(9));
        let b = IpPool::allocate(Ipv4Sim::new(10, 0, 0, 0), 16, 64, &mut DetRng::new(9));
        assert_eq!(a.addrs(), b.addrs());
    }
}
