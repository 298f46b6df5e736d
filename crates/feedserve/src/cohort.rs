//! Sharded cohort modeling: the population compressed by schedule.
//!
//! The exact population walk holds nothing per client *between*
//! clients, but it must still *enumerate* every client — fifty million
//! schedule walks of ~16 sync rounds each. The observation that makes
//! 50M+ tractable is that a client's whole trajectory is a pure
//! function of its schedule parameters: `(period, phase, aggressive
//! flag, assigned mirror)`. Clients whose parameters agree walk in
//! lockstep forever (same fetch instants, same backoff transitions,
//! same feed version at every instant), so the walk can run once per
//! *cohort* and weight every counter by the cohort's size.
//!
//! Raw `(period, phase)` pairs are almost all distinct, so cohorts are
//! formed on a quantized grid: periods snap down to
//! [`CohortSpec::period_quantum`], phases to
//! [`CohortSpec::phase_quantum`] (clamped below the period). The
//! approximation error this introduces is strictly bounded — a
//! client's k-th sync moves by at most `phase_quantum +
//! k * period_quantum` — and at the default quanta the bound stays
//! under one sample step of the protected-fraction curve (see
//! DESIGN.md §14). At unit quanta the grid is exact and the cohort
//! walk reproduces the per-client walk bit for bit, which is what the
//! round-trip proptests pin.
//!
//! The table itself is stored struct-of-arrays ([`CohortTable`]) and
//! has a canonical order (strictly ascending by `(mirror, period,
//! phase, aggressive)`), so it builds identically at any thread count
//! and has a deterministic wire encoding ([`CohortTable::encode`]).

use crate::population::{client_forks, client_schedule, PopulationConfig};
use crate::wire::{get_varint, get_varint_bool, get_varint_u32, put_varint, WireError};
use phishsim_simnet::runner::run_sweep_with_threads;
use phishsim_simnet::{BuildSymHasher, DetRng, SimDuration};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Quantization grid for cohort formation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CohortSpec {
    /// Periods snap down to a multiple of this (error accumulates once
    /// per sync round).
    pub period_quantum: SimDuration,
    /// Phases snap down to a multiple of this (error paid once, on the
    /// first sync).
    pub phase_quantum: SimDuration,
}

impl Default for CohortSpec {
    fn default() -> Self {
        CohortSpec {
            period_quantum: SimDuration::from_millis(5_000),
            phase_quantum: SimDuration::from_millis(60_000),
        }
    }
}

impl CohortSpec {
    /// An exact (unit-quantum) grid: cohorts collapse only genuinely
    /// identical schedules and the walk is bit-equal to per-client.
    pub fn exact() -> Self {
        CohortSpec {
            period_quantum: SimDuration::from_millis(1),
            phase_quantum: SimDuration::from_millis(1),
        }
    }

    /// Worst-case shift of any client's k-th sync instant over the
    /// horizon: one phase quantum up front plus one period quantum per
    /// completed period. `min_period` is the smallest period the
    /// config can produce (base − jitter, floored at the server
    /// minimum wait).
    pub fn error_bound(&self, horizon: SimDuration, min_period: SimDuration) -> SimDuration {
        let syncs = horizon.as_millis() / min_period.as_millis().max(1);
        SimDuration::from_millis(
            self.phase_quantum
                .as_millis()
                .saturating_add(syncs.saturating_mul(self.period_quantum.as_millis())),
        )
    }
}

/// One cohort row, materialized (the table itself is
/// struct-of-arrays).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CohortRecord {
    /// Clients collapsed into this cohort.
    pub count: u64,
    /// Representative (quantized) update period in ms.
    pub period_ms: u64,
    /// Representative (quantized) first-sync phase in ms.
    pub phase_ms: u64,
    /// Assigned regional mirror (0 when no tier is configured).
    pub mirror: u32,
    /// Whether the cohort re-polls inside the minimum wait.
    pub aggressive: bool,
}

impl CohortRecord {
    fn key(&self) -> (u32, u64, u64, bool) {
        (self.mirror, self.period_ms, self.phase_ms, self.aggressive)
    }
}

/// Bytes one cohort row occupies in the struct-of-arrays table —
/// the unit of the deterministic `state_bytes` memory accounting
/// (an exact population is the degenerate table with one row per
/// client).
pub const COHORT_ROW_BYTES: u64 = 8 + 8 + 8 + 4 + 1;

/// The compressed population: parallel columns, one slot per cohort,
/// strictly ascending by `(mirror, period, phase, aggressive)`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CohortTable {
    counts: Vec<u64>,
    period_ms: Vec<u64>,
    phase_ms: Vec<u64>,
    mirrors: Vec<u32>,
    aggressive: Vec<bool>,
}

impl CohortTable {
    /// Number of cohort rows.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// Whether the table holds no cohorts.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Total clients across all cohorts.
    pub fn clients(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// The struct-of-arrays footprint in bytes.
    pub fn state_bytes(&self) -> u64 {
        self.len() as u64 * COHORT_ROW_BYTES
    }

    /// Materialize row `i`.
    pub fn record(&self, i: usize) -> CohortRecord {
        CohortRecord {
            count: self.counts[i],
            period_ms: self.period_ms[i],
            phase_ms: self.phase_ms[i],
            mirror: self.mirrors[i],
            aggressive: self.aggressive[i],
        }
    }

    /// Append a row. Callers are responsible for canonical order;
    /// [`CohortTable::decode`] enforces it on the wire.
    pub fn push(&mut self, r: CohortRecord) {
        self.counts.push(r.count);
        self.period_ms.push(r.period_ms);
        self.phase_ms.push(r.phase_ms);
        self.mirrors.push(r.mirror);
        self.aggressive.push(r.aggressive);
    }

    /// Build the cohort table for `cfg` by enumerating every client's
    /// schedule (the same `fork_indexed("feedserve-client", i)` streams
    /// the exact walker uses — quantization is the *only* difference)
    /// and collapsing onto the quantized grid.
    ///
    /// The clients split into one contiguous range per worker thread,
    /// and each range fills one map of row counts, so memory is
    /// O(threads × rows) however many clients there are. The merge
    /// sums counts per key and sorts into canonical key order; a sum
    /// does not depend on how its terms were grouped, so the table is
    /// identical at any `threads`.
    pub fn from_population(
        cfg: &PopulationConfig,
        min_wait: SimDuration,
        threads: usize,
    ) -> CohortTable {
        let spec = cfg.cohorts.clone().unwrap_or_default();
        let pq = spec.period_quantum.as_millis().max(1);
        let fq = spec.phase_quantum.as_millis().max(1);
        let root = DetRng::new(cfg.seed);

        let per_range = cfg.clients.div_ceil(threads.max(1)).max(1);
        let ranges: Vec<(usize, usize)> = (0..cfg.clients)
            .step_by(per_range)
            .map(|start| (start, (start + per_range).min(cfg.clients)))
            .collect();
        type Key = (u32, u64, u64, bool);
        let maps: Vec<HashMap<Key, u64, BuildSymHasher>> =
            run_sweep_with_threads(&ranges, threads, |&(s, e)| {
                let mut m: HashMap<Key, u64, BuildSymHasher> = HashMap::default();
                let clients = client_forks(&root);
                for idx in s..e {
                    let sched = client_schedule(cfg, min_wait, &clients, idx);
                    let period_q = ((sched.period_ms / pq) * pq).max(1);
                    // Clamp below the representative period so the phase
                    // invariant (`phase < period`) survives quantization.
                    let phase_q = ((sched.phase_ms / fq) * fq).min(period_q - 1);
                    *m.entry((sched.mirror, period_q, phase_q, sched.aggressive))
                        .or_insert(0) += 1;
                }
                m
            });
        let mut maps = maps.into_iter();
        let mut merged = maps.next().unwrap_or_default();
        for m in maps {
            for (k, v) in m {
                *merged.entry(k).or_insert(0) += v;
            }
        }
        let mut rows: Vec<(Key, u64)> = merged.into_iter().collect();
        rows.sort_unstable_by_key(|&(k, _)| k);

        let table = CohortTable {
            counts: rows.iter().map(|&(_, count)| count).collect(),
            period_ms: rows.iter().map(|&((_, period, _, _), _)| period).collect(),
            phase_ms: rows.iter().map(|&((_, _, phase, _), _)| phase).collect(),
            mirrors: rows.iter().map(|&((mirror, _, _, _), _)| mirror).collect(),
            aggressive: rows.iter().map(|&((_, _, _, aggr), _)| aggr).collect(),
        };
        debug_assert_eq!(table.clients(), cfg.clients as u64);
        table
    }

    /// Wire-encode the table: `varint(rows)`, then per row
    /// `count, period_ms, phase_ms, mirror, aggressive` as varints.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        put_varint(&mut buf, self.len() as u64);
        for i in 0..self.len() {
            put_varint(&mut buf, self.counts[i]);
            put_varint(&mut buf, self.period_ms[i]);
            put_varint(&mut buf, self.phase_ms[i]);
            put_varint(&mut buf, u64::from(self.mirrors[i]));
            put_varint(&mut buf, u64::from(self.aggressive[i]));
        }
        buf
    }

    /// Decode a table written by [`CohortTable::encode`], with the
    /// same hardening discipline as the delta-list codec: truncated
    /// streams and overlong varints are rejected mid-value, absurd row
    /// counts are rejected before allocating, non-canonical rows
    /// (zero counts, `phase >= period`, keys out of strictly ascending
    /// order) decode as [`WireError::NotSorted`], and trailing bytes
    /// are an error.
    pub fn decode(buf: &[u8]) -> Result<CohortTable, WireError> {
        let mut pos = 0usize;
        let rows = get_varint(buf, &mut pos)?;
        let rows = usize::try_from(rows).map_err(|_| WireError::Overflow)?;
        // Each row costs at least five bytes on the wire.
        if rows > buf.len().saturating_sub(pos) / 5 {
            return Err(WireError::Truncated);
        }
        let mut table = CohortTable::default();
        let mut prev: Option<(u32, u64, u64, bool)> = None;
        for _ in 0..rows {
            let count = get_varint(buf, &mut pos)?;
            let period_ms = get_varint(buf, &mut pos)?;
            let phase_ms = get_varint(buf, &mut pos)?;
            let mirror = get_varint_u32(buf, &mut pos)?;
            let aggressive = get_varint_bool(buf, &mut pos)?;
            if count == 0 || period_ms == 0 || phase_ms >= period_ms {
                return Err(WireError::NotSorted);
            }
            let r = CohortRecord {
                count,
                period_ms,
                phase_ms,
                mirror,
                aggressive,
            };
            if let Some(p) = prev {
                if r.key() <= p {
                    return Err(WireError::NotSorted);
                }
            }
            prev = Some(r.key());
            table.push(r);
        }
        if pos != buf.len() {
            return Err(WireError::TrailingBytes);
        }
        Ok(table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_table() -> CohortTable {
        let mut t = CohortTable::default();
        t.push(CohortRecord {
            count: 3,
            period_ms: 1_800_000,
            phase_ms: 60_000,
            mirror: 0,
            aggressive: false,
        });
        t.push(CohortRecord {
            count: 1,
            period_ms: 1_800_000,
            phase_ms: 120_000,
            mirror: 0,
            aggressive: true,
        });
        t.push(CohortRecord {
            count: 7,
            period_ms: 1_200_000,
            phase_ms: 5_000,
            mirror: 2,
            aggressive: false,
        });
        t
    }

    #[test]
    fn encode_decode_round_trip() {
        let t = sample_table();
        assert_eq!(t.clients(), 11);
        assert_eq!(t.state_bytes(), 3 * COHORT_ROW_BYTES);
        let decoded = CohortTable::decode(&t.encode()).unwrap();
        assert_eq!(decoded, t);
        for i in 0..t.len() {
            assert_eq!(decoded.record(i), t.record(i));
        }
    }

    #[test]
    fn decode_rejects_malformed_tables() {
        let good = sample_table().encode();
        // Every truncation point fails cleanly.
        for len in 0..good.len() {
            assert!(
                CohortTable::decode(&good[..len]).is_err(),
                "prefix of {len} bytes must not decode"
            );
        }
        // Trailing garbage is rejected.
        let mut extended = good.clone();
        extended.push(0);
        assert_eq!(
            CohortTable::decode(&extended),
            Err(WireError::TrailingBytes)
        );
        // Zero-count rows are non-canonical.
        let mut zero = CohortTable::default();
        zero.push(CohortRecord {
            count: 0,
            period_ms: 60_000,
            phase_ms: 0,
            mirror: 0,
            aggressive: false,
        });
        assert_eq!(
            CohortTable::decode(&zero.encode()),
            Err(WireError::NotSorted)
        );
        // Key order must be strictly ascending.
        let mut unsorted = CohortTable::default();
        for phase in [120_000u64, 60_000] {
            unsorted.push(CohortRecord {
                count: 1,
                period_ms: 1_800_000,
                phase_ms: phase,
                mirror: 0,
                aggressive: false,
            });
        }
        assert_eq!(
            CohortTable::decode(&unsorted.encode()),
            Err(WireError::NotSorted)
        );
        // An absurd row count is rejected before allocation.
        let mut absurd = Vec::new();
        put_varint(&mut absurd, u64::MAX);
        assert!(CohortTable::decode(&absurd).is_err());
    }

    #[test]
    fn error_bound_scales_with_quanta() {
        let spec = CohortSpec::default();
        let bound = spec.error_bound(SimDuration::from_hours(8), SimDuration::from_mins(20));
        // 8 h / 20 min = 24 syncs; 60 s + 24 × 5 s = 180 s — under one
        // 5-minute sample step.
        assert_eq!(bound, SimDuration::from_millis(180_000));
        assert!(bound < SimDuration::from_mins(5));
        let exact =
            CohortSpec::exact().error_bound(SimDuration::from_hours(8), SimDuration::from_mins(20));
        assert!(exact <= SimDuration::from_millis(25));
    }
}
