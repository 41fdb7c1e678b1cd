//! Fleet tier: a flow-level model of the whole plant.
//!
//! The paper's 24-hour, fleet-wide results (Tables 2–3, Fig 5) come from
//! Fbflow samples over hundreds of thousands of hosts — far beyond what a
//! packet simulator can cover. [`FleetModel`] generates the Fbflow sample
//! stream directly at flow granularity: each host emits records whose
//! destination role and locality follow its role's demand table, with
//! per-cluster-type volumes weighted by Table 3's traffic shares and a
//! diurnal volume envelope.
//!
//! **Scope note**: the fleet tier's role/locality tables are *inputs*
//! derived from the paper, so Tables 2–3 regenerated from this tier
//! validate the collection/analysis pipeline (sampling, tagging,
//! aggregation) rather than re-deriving the numbers from first principles.
//! The *structure* of Fig 5 (block-bipartite Frontend, diagonal-heavy
//! Hadoop, 7-decade cluster-pair spread) does emerge from placement rather
//! than being encoded directly. The packet tier, by contrast, produces its
//! results mechanistically. See DESIGN.md §3.

use crate::diurnal::DiurnalPattern;
use serde::{Deserialize, Serialize};
use sonet_telemetry::FlowRecord;
use sonet_topology::{Host, HostId, HostRole, Locality, Topology};
use sonet_util::{par, Rng, SimDuration, SimTime};
use std::collections::HashMap;
use std::sync::Arc;

/// Fleet-tier generation parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetConfig {
    /// Span covered by the generated samples (paper: 24 hours).
    pub duration: SimDuration,
    /// Flow records emitted per host over the span.
    pub samples_per_host: u32,
    /// Total represented fleet volume in bytes over the span.
    pub total_bytes: f64,
    /// Diurnal volume envelope.
    pub diurnal: DiurnalPattern,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            duration: SimDuration::from_secs(86_400),
            samples_per_host: 400,
            total_bytes: 1e13, // 10 TB/day representative span
            diurnal: DiurnalPattern::paper_default(),
        }
    }
}

/// One entry of a role's demand table.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DemandEntry {
    /// Destination role.
    pub dst_role: HostRole,
    /// Desired locality of the destination.
    pub locality: Locality,
    /// Relative byte weight.
    pub weight: f64,
}

/// Demand tables per source role, encoding Tables 2–3 jointly.
///
/// The per-role rows are chosen so that (a) each role's destination-role
/// marginal matches its Table 2 row and (b) each cluster type's locality
/// marginal matches its Table 3 column. The Cache column of Table 3 as
/// printed sums to 70 %; we follow the text ("spreading the plurality of
/// its traffic across the datacenter") and read the intra-DC entry as
/// 70.7 % so the column totals 100 % (noted in EXPERIMENTS.md).
pub fn demand_tables() -> HashMap<HostRole, Vec<DemandEntry>> {
    use HostRole::*;
    use Locality::*;
    let mut t = HashMap::new();
    let e = |dst_role, locality, weight| DemandEntry {
        dst_role,
        locality,
        weight,
    };

    // Web (FE locality 2.7 / 81.3 / 7.3 / 8.6; Table 2: Cache 63.1,
    // MF 15.2, SLB 5.6, Rest 16.1).
    t.insert(
        Web,
        vec![
            e(Web, IntraRack, 2.7),
            e(CacheFollower, IntraCluster, 63.1),
            e(Multifeed, IntraCluster, 12.4),
            e(Multifeed, IntraDatacenter, 2.8),
            e(Slb, IntraCluster, 5.6),
            e(Misc, IntraDatacenter, 4.5),
            e(Misc, InterDatacenter, 8.6),
        ],
    );
    // Cache follower (Table 2: Web 88.7, Cache 5.8, Rest 5.5).
    t.insert(
        CacheFollower,
        vec![
            e(Web, IntraCluster, 88.7),
            e(CacheLeader, IntraDatacenter, 3.5),
            e(CacheLeader, InterDatacenter, 2.3),
            e(Misc, IntraDatacenter, 2.0),
            e(Misc, InterDatacenter, 3.5),
        ],
    );
    // Cache leader (Table 2: Cache 86.6, MF 5.9, Rest 7.5; locality
    // 0.2 / 13.0 / 70.7 / 16.1).
    t.insert(
        CacheLeader,
        vec![
            e(CacheLeader, IntraRack, 0.2),
            e(CacheLeader, IntraCluster, 13.0),
            e(CacheFollower, IntraDatacenter, 62.4),
            e(CacheFollower, InterDatacenter, 11.0),
            e(Multifeed, IntraDatacenter, 4.0),
            e(Multifeed, InterDatacenter, 1.9),
            e(Db, IntraDatacenter, 4.3),
            e(Db, InterDatacenter, 3.2),
        ],
    );
    // Hadoop (Table 2: Hadoop 99.8, Rest 0.2; locality 13.3 / 80.9 /
    // 3.3 / 2.5).
    t.insert(
        Hadoop,
        vec![
            e(Hadoop, IntraRack, 13.3),
            e(Hadoop, IntraCluster, 80.9),
            e(Hadoop, IntraDatacenter, 3.1),
            e(Hadoop, InterDatacenter, 2.5),
            e(Misc, IntraDatacenter, 0.2),
        ],
    );
    // Database (locality 0 / 30.7 / 34.5 / 34.8; "the most uniform").
    t.insert(
        Db,
        vec![
            e(Db, IntraCluster, 30.7),
            e(Db, IntraDatacenter, 15.0),
            e(Misc, IntraDatacenter, 19.5),
            e(Db, InterDatacenter, 20.0),
            e(Misc, InterDatacenter, 14.8),
        ],
    );
    // Service / misc (locality 12.1 / 56.3 / 15.7 / 15.9).
    t.insert(
        Misc,
        vec![
            e(Misc, IntraRack, 12.1),
            e(Misc, IntraCluster, 50.0),
            e(Multifeed, IntraCluster, 6.3),
            e(Misc, IntraDatacenter, 15.7),
            e(Misc, InterDatacenter, 15.9),
        ],
    );
    // Multifeed (no dedicated paper row; aggregator reads dominated by
    // leaf/storage fan-out).
    t.insert(
        Multifeed,
        vec![
            e(Misc, IntraDatacenter, 40.0),
            e(Misc, IntraCluster, 25.0),
            e(Multifeed, IntraCluster, 15.0),
            e(Misc, InterDatacenter, 10.0),
            e(Web, IntraCluster, 10.0),
        ],
    );
    // SLB: page requests into the web tier.
    t.insert(
        Slb,
        vec![e(Web, IntraCluster, 90.0), e(Misc, IntraDatacenter, 10.0)],
    );
    t
}

/// Per-cluster-type share of total fleet traffic (Table 3, bottom row;
/// the 21.4 % generated by unmodeled cluster types is renormalized away).
pub fn cluster_type_shares() -> [(sonet_topology::ClusterType, f64); 5] {
    use sonet_topology::ClusterType::*;
    [
        (Hadoop, 23.7),
        (Frontend, 21.5),
        (Service, 18.0),
        (Cache, 10.2),
        (Database, 5.2),
    ]
}

/// Sorts fleet samples by time, stably: records with equal `at` keep
/// their input order, so the result equals `sort_by_key(|r| r.at)` on
/// every input. Both the one-shot [`FleetModel::generate`] and a resumed
/// supervised run sort their host-ordered stream with it, which keeps
/// their tables byte-identical.
///
/// A counting sort on the high bits of `at - min`: one pass counts
/// records per bucket (about one bucket per 16 records), a stable
/// scatter moves each record into its bucket, and a stable sort inside
/// each bucket orders the few records that share one. Buckets cover
/// disjoint, increasing time ranges, so no record crosses a bucket
/// boundary. Timestamps are spread over a day, so the buckets stay
/// small and the whole sort is linear; its scratch is one copy of the
/// records. A bucket of up to [`INSERTION_MAX`] records is sorted by
/// insertion; a larger one (clustered input) keeps the O(n log n)
/// library sort.
pub fn sort_by_time(records: &mut Vec<FlowRecord>) {
    /// Below this the comparison sort is as fast and needs no scratch.
    const MIN_BUCKETED: usize = 64;
    let n = records.len();
    // Bucket cursors are u32, which halves the count arrays.
    if n < MIN_BUCKETED || u32::try_from(n).is_err() {
        records.sort_by_key(|r| r.at);
        return;
    }
    let (lo, hi) = records.iter().fold((u64::MAX, 0), |(lo, hi), r| {
        (lo.min(r.at.as_nanos()), hi.max(r.at.as_nanos()))
    });
    // 2^bucket_bits buckets, at least 4 since n >= 64; the shift keeps
    // the top `bucket_bits` significant bits of the span, at most 62.
    let bucket_bits = (n / 16).next_power_of_two().trailing_zeros();
    let shift = (u64::BITS - (hi - lo).leading_zeros()).saturating_sub(bucket_bits);
    let bucket = |r: &FlowRecord| ((r.at.as_nanos() - lo) >> shift) as usize;
    // starts[b]..starts[b + 1] is bucket b's range in the output.
    let mut starts = vec![0u32; (1 << bucket_bits) + 1];
    for r in records.iter() {
        starts[bucket(r) + 1] += 1;
    }
    for b in 1..starts.len() {
        starts[b] += starts[b - 1];
    }
    let mut next = starts.clone();
    let mut sorted = vec![records[0]; n];
    for r in records.iter() {
        let slot = &mut next[bucket(r)];
        sorted[*slot as usize] = *r;
        *slot += 1;
    }
    for w in starts.windows(2) {
        let b = &mut sorted[w[0] as usize..w[1] as usize];
        if b.len() <= INSERTION_MAX {
            insertion_sort_by_time(b);
        } else {
            b.sort_by_key(|r| r.at);
        }
    }
    *records = sorted;
}

/// Largest bucket [`sort_by_time`] sorts by insertion; buckets average
/// 8 to 16 records.
const INSERTION_MAX: usize = 32;

/// Stable insertion sort by `at`: a record moves left only past records
/// with a strictly later time.
fn insertion_sort_by_time(b: &mut [FlowRecord]) {
    for i in 1..b.len() {
        let r = b[i];
        let mut j = i;
        while j > 0 && b[j - 1].at > r.at {
            b[j] = b[j - 1];
            j -= 1;
        }
        b[j] = r;
    }
}

/// A role's demand table with its weight prefix precomputed, so a sample
/// costs one uniform draw and a short scan instead of rebuilding the
/// weight vector per record.
#[derive(Debug, Clone, Default)]
struct PreparedDemand {
    entries: Vec<DemandEntry>,
    total_weight: f64,
}

impl PreparedDemand {
    /// The entry a draw `target` in `[0, total_weight)` lands on, with the
    /// single-draw scan of `Rng::pick_weighted` (float slack falls to the
    /// last entry); `None` for an empty table.
    fn entry_at(&self, mut target: f64) -> Option<usize> {
        let last = self.entries.len().checked_sub(1)?;
        for (k, d) in self.entries.iter().enumerate() {
            if target < d.weight {
                return Some(k);
            }
            target -= d.weight;
        }
        Some(last)
    }
}

/// A contiguous segment of a [`RoleIndex`] host array.
#[derive(Debug, Clone, Copy, Default)]
struct Seg {
    start: u32,
    len: u32,
}

impl Seg {
    fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Per-role candidate index: every host of the role sorted by
/// `(datacenter, cluster, rack, id)`, plus segment tables at each
/// containment level. Because the sort key is hierarchical, "hosts of
/// role R in datacenter D but outside cluster C" is one contiguous range
/// minus one contiguous sub-range — a uniform pick over it is O(1) with a
/// single index-skip, no filtering or allocation per sample.
#[derive(Debug, Clone)]
struct RoleIndex {
    hosts: Vec<HostId>,
    rack: Vec<Seg>,
    cluster: Vec<Seg>,
    dc: Vec<Seg>,
}

impl RoleIndex {
    fn build(topo: &Topology, role: HostRole) -> RoleIndex {
        let mut hosts: Vec<HostId> = topo.hosts_with_role(role).to_vec();
        hosts.sort_by_key(|&h| {
            let info = topo.host(h);
            (
                info.datacenter.index(),
                info.cluster.index(),
                info.rack.index(),
                h.index(),
            )
        });
        let mut rack = vec![Seg::default(); topo.racks().len()];
        let mut cluster = vec![Seg::default(); topo.clusters().len()];
        let mut dc = vec![Seg::default(); topo.datacenters().len()];
        for (pos, &h) in hosts.iter().enumerate() {
            let info = topo.host(h);
            for seg in [
                &mut rack[info.rack.index()],
                &mut cluster[info.cluster.index()],
                &mut dc[info.datacenter.index()],
            ] {
                if seg.is_empty() {
                    seg.start = pos as u32;
                }
                seg.len += 1;
            }
        }
        RoleIndex {
            hosts,
            rack,
            cluster,
            dc,
        }
    }

    /// The candidates at exactly `locality` relative to the source
    /// `src` (whose topology entry is `info`): a segment of `hosts` and
    /// the hole it skips, as `(segment, hole offset, hole length)`, or
    /// `None` when there is no candidate. The hole is the excluded inner
    /// scope, which the hierarchical sort makes one contiguous sub-range,
    /// or within a rack the source itself.
    fn level(&self, src: HostId, info: &Host, locality: Locality) -> Option<(Seg, u32, u32)> {
        let (seg, hole) = match locality {
            Locality::IntraRack => {
                let seg = self.rack[info.rack.index()];
                // Within one rack the hierarchical key degenerates to the
                // host id, so the segment is id-sorted and the source's
                // position binary-searchable.
                let range = seg.start as usize..(seg.start + seg.len) as usize;
                let skip = self.hosts[range].binary_search(&src).ok();
                let hole = skip.map_or(Seg::default(), |p| Seg {
                    start: seg.start + p as u32,
                    len: 1,
                });
                (seg, hole)
            }
            Locality::IntraCluster => (
                self.cluster[info.cluster.index()],
                self.rack[info.rack.index()],
            ),
            Locality::IntraDatacenter => (
                self.dc[info.datacenter.index()],
                self.cluster[info.cluster.index()],
            ),
            Locality::InterDatacenter => (
                Seg {
                    start: 0,
                    len: self.hosts.len() as u32,
                },
                self.dc[info.datacenter.index()],
            ),
        };
        if seg.len == hole.len {
            return None;
        }
        let hole_at = if hole.is_empty() {
            0
        } else {
            hole.start - seg.start
        };
        Some((seg, hole_at, hole.len))
    }
}

/// The localities a demand entry tries, in order, when its desired one
/// has no candidate: outward first, then inward.
fn relaxation_order(locality: Locality) -> [Locality; 4] {
    use Locality::*;
    match locality {
        IntraRack => [IntraRack, IntraCluster, IntraDatacenter, InterDatacenter],
        IntraCluster => [IntraCluster, IntraDatacenter, InterDatacenter, IntraRack],
        IntraDatacenter => [IntraDatacenter, InterDatacenter, IntraCluster, IntraRack],
        InterDatacenter => [InterDatacenter, IntraDatacenter, IntraCluster, IntraRack],
    }
}

/// Where one (source host, demand entry) pair sends: the outcome of the
/// relaxation walk, as a candidate range and the hole it skips. A level
/// without candidates draws nothing from the RNG, so the walk's outcome
/// is a function of the pair alone; [`FleetModel::plan`] computes it
/// once per host, and a sample then costs one `below(count)`.
#[derive(Debug, Clone, Copy)]
struct Plan<'a> {
    /// The candidate range of the destination role's host index, hole
    /// included.
    hosts: &'a [HostId],
    /// Candidates: the range minus the hole.
    count: u32,
    /// Offset of the hole in `hosts`.
    hole_at: u32,
    /// Length of the hole; 0 when nothing is skipped.
    hole_len: u32,
    /// True when the walk left the entry's desired locality.
    relaxed: bool,
    /// The destination role's service port.
    dst_port: u16,
}

impl Plan<'_> {
    /// A uniform pick among the plan's candidates.
    fn pick(&self, rng: &mut Rng) -> HostId {
        let mut i = rng.below(u64::from(self.count)) as u32;
        if i >= self.hole_at {
            i += self.hole_len;
        }
        self.hosts[i as usize]
    }
}

/// The fleet-tier generator.
pub struct FleetModel {
    topo: Arc<Topology>,
    cfg: FleetConfig,
    /// Seed material for per-host streams. Never advances: host `h`
    /// always draws from `base.fork_idx("host", h)`, so its records are
    /// a pure function of `(topology, config, seed, h)` — independent of
    /// chunk boundaries, thread count, and every other host.
    base: Rng,
    /// Demand table per source role, indexed by `role as usize`
    /// ([`HostRole::ALL`] order); empty for a role without one.
    demand: Vec<PreparedDemand>,
    /// Candidate index per destination role, indexed like `demand`.
    picks: Vec<RoleIndex>,
    /// Bytes per sample for each host (role/cluster-type weighted).
    host_sample_bytes: Vec<f64>,
    /// Fallback counter: records whose desired locality had no candidate.
    relaxed: u64,
    /// Next host to emit samples for (generation is resumable host by
    /// host; see [`FleetModel::generate_chunk`]).
    next_host: u32,
    /// Worker-count override; `None` defers to the process default
    /// ([`par::resolve_threads`]). Never serialized: the thread count
    /// must not affect output, so a resumed run may use a different one.
    threads: Option<usize>,
}

/// Serialized dynamic state of a [`FleetModel`].
///
/// The demand tables, candidate indexes, and per-host byte budgets are
/// pure functions of `(topology, config)` and are rebuilt by
/// [`FleetModel::new`]; with per-host RNG streams there is no shared
/// generator to save either, so the state is just the generation cursor
/// and the relaxed-pick counter.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FleetModelState {
    next_host: u32,
    relaxed: u64,
}

impl FleetModel {
    /// Builds the model over `topo`.
    pub fn new(topo: Arc<Topology>, cfg: FleetConfig, seed: u64) -> FleetModel {
        let shares: HashMap<sonet_topology::ClusterType, f64> =
            cluster_type_shares().into_iter().collect();
        // Hosts per cluster type.
        let mut type_hosts: HashMap<sonet_topology::ClusterType, u64> = HashMap::new();
        for h in topo.hosts() {
            *type_hosts.entry(topo.cluster(h.cluster).ctype).or_insert(0) += 1;
        }
        let total_share: f64 = shares
            .iter()
            .filter(|(t, _)| type_hosts.contains_key(t))
            .map(|(_, s)| *s)
            .sum();
        let mut host_sample_bytes = Vec::with_capacity(topo.hosts().len());
        for h in topo.hosts() {
            let ctype = topo.cluster(h.cluster).ctype;
            let share = shares.get(&ctype).copied().unwrap_or(0.0) / total_share.max(1e-9);
            let hosts = *type_hosts.get(&ctype).unwrap_or(&1) as f64;
            let host_total = cfg.total_bytes * share / hosts;
            host_sample_bytes.push(host_total / cfg.samples_per_host.max(1) as f64);
        }
        let mut tables = demand_tables();
        let demand = HostRole::ALL
            .iter()
            .map(|role| {
                let entries = tables.remove(role).unwrap_or_default();
                let total_weight = entries.iter().map(|d| d.weight).sum();
                PreparedDemand {
                    entries,
                    total_weight,
                }
            })
            .collect();
        let picks = HostRole::ALL
            .iter()
            .map(|&role| RoleIndex::build(&topo, role))
            .collect();
        FleetModel {
            topo,
            cfg,
            base: Rng::new(seed).fork("fleet"),
            demand,
            picks,
            host_sample_bytes,
            relaxed: 0,
            next_host: 0,
            threads: None,
        }
    }

    /// Sets the worker count used by [`FleetModel::generate_chunk`].
    /// `None` (the default) defers to the process-wide setting; the
    /// choice never affects the generated stream, only wall-clock time.
    pub fn set_parallelism(&mut self, threads: Option<usize>) {
        self.threads = threads;
    }

    /// Records whose desired locality was infeasible and got relaxed.
    pub fn relaxed_picks(&self) -> u64 {
        self.relaxed
    }

    /// Hosts whose samples have been emitted so far.
    pub fn hosts_done(&self) -> u32 {
        self.next_host
    }

    /// True once every host's samples have been emitted.
    pub fn exhausted(&self) -> bool {
        self.next_host as usize >= self.topo.hosts().len()
    }

    /// Captures the generator's dynamic state for checkpointing.
    pub fn state(&self) -> FleetModelState {
        FleetModelState {
            next_host: self.next_host,
            relaxed: self.relaxed,
        }
    }

    /// Restores dynamic state captured by [`FleetModel::state`] into a
    /// model built with identical `(topology, config, seed)`. Fails when
    /// the cursor lies outside this topology — the telltale of a state
    /// replayed against the wrong plant.
    pub fn restore_state(&mut self, state: FleetModelState) -> Result<(), String> {
        if state.next_host as usize > self.topo.hosts().len() {
            return Err(format!(
                "fleet state cursor {} exceeds the {} hosts of this topology",
                state.next_host,
                self.topo.hosts().len()
            ));
        }
        self.next_host = state.next_host;
        self.relaxed = state.relaxed;
        Ok(())
    }

    /// Generates the full sample stream (capture agent = the sender, so
    /// bytes are counted once), time-sorted by [`sort_by_time`].
    pub fn generate(&mut self) -> Vec<FlowRecord> {
        let mut out = self.generate_chunk(u32::MAX);
        sort_by_time(&mut out);
        out
    }

    /// Emits the samples of up to `max_hosts` further hosts, advancing the
    /// cursor. Returns records in emission (host) order, **not** time
    /// order: a supervised run concatenates chunks across checkpoints and
    /// applies the same [`sort_by_time`] `generate` uses at the end, which
    /// makes a resumed run's stream identical to an uninterrupted one.
    ///
    /// The host range is sharded across a scoped worker pool. Every host
    /// draws from its own forked RNG stream and the shard outputs are
    /// concatenated in host order, so the emitted records are
    /// byte-identical for every thread count (and for every chunking into
    /// `generate_chunk` calls).
    pub fn generate_chunk(&mut self, max_hosts: u32) -> Vec<FlowRecord> {
        let n_hosts = self.topo.hosts().len();
        let first = self.next_host as usize;
        let stop = first.saturating_add(max_hosts as usize).min(n_hosts);
        let span = stop - first;
        let threads = par::resolve_threads(self.threads);
        let shards = par::split_ranges(threads, span);
        let results: Vec<(Vec<FlowRecord>, u64)> = par::map_indexed(threads, shards.len(), |s| {
            let hosts = (first + shards[s].start) as u32..(first + shards[s].end) as u32;
            // The first shard's vector becomes the chunk, so it gets room
            // for every shard; only the later shards are copied into it.
            let cap = if s == 0 { span } else { hosts.len() } * self.cfg.samples_per_host as usize;
            self.generate_shard(hosts, cap)
        });
        self.next_host = stop as u32;
        let mut results = results.into_iter();
        let (mut out, relaxed) = results.next().unwrap_or_default();
        self.relaxed += relaxed;
        for (recs, relaxed) in results {
            out.extend(recs);
            self.relaxed += relaxed;
        }
        out
    }

    /// Emits the samples of one contiguous host shard into a vector of
    /// `capacity`. Immutable on `self`, so shards run concurrently;
    /// returns the shard's records (host order) and its relaxed-pick
    /// count.
    fn generate_shard(
        &self,
        hosts: std::ops::Range<u32>,
        capacity: usize,
    ) -> (Vec<FlowRecord>, u64) {
        let mut out = Vec::with_capacity(capacity);
        let mut relaxed = 0u64;
        let span = self.cfg.duration.as_nanos().max(1);
        let mut plans = Vec::new();
        for h in hosts {
            let src = HostId(h);
            let info = self.topo.host(src);
            let prep = &self.demand[info.role as usize];
            let sample_bytes = self.host_sample_bytes[src.index()];
            plans.clear();
            plans.extend(prep.entries.iter().map(|e| self.plan(src, info, e)));
            let mut rng = self.base.fork_idx("host", h as u64);
            for _ in 0..self.cfg.samples_per_host {
                // Weighted entry pick, same single-draw semantics as
                // `Rng::pick_weighted` but against the precomputed total.
                // A pair with no candidate anywhere emits nothing.
                let entry = prep.entry_at(rng.f64() * prep.total_weight);
                let Some(plan) = entry.and_then(|k| plans[k]) else {
                    continue;
                };
                let dst = plan.pick(&mut rng);
                relaxed += u64::from(plan.relaxed);
                let at = diurnal_time(&self.cfg.diurnal, span, &mut rng);
                // Heavy-tailed per-sample volume around the host's budget:
                // flow volumes in real Fbflow data span many decades, which
                // is what stretches Fig 5's cluster-pair spread past 7
                // orders of magnitude.
                let jitter = (1.5 * rng.standard_normal()).exp();
                let bytes = (sample_bytes * jitter).max(1.0) as u64;
                out.push(FlowRecord {
                    at,
                    capture_host: src,
                    src,
                    dst,
                    src_port: 32768 + (rng.below(16_384) as u16),
                    dst_port: plan.dst_port,
                    bytes,
                    packets: (bytes / 700).max(1), // representative mean packet size
                });
            }
        }
        (out, relaxed)
    }

    /// The [`Plan`] for samples from `src` (topology entry `info`) under
    /// demand entry `entry`: the first locality of its relaxation order
    /// with a candidate of the entry's role, or `None` when the plant has
    /// none at any locality.
    fn plan(&self, src: HostId, info: &Host, entry: &DemandEntry) -> Option<Plan<'_>> {
        let idx = &self.picks[entry.dst_role as usize];
        relaxation_order(entry.locality)
            .into_iter()
            .enumerate()
            .find_map(|(depth, loc)| {
                let (seg, hole_at, hole_len) = idx.level(src, info, loc)?;
                Some(Plan {
                    hosts: &idx.hosts[seg.start as usize..(seg.start + seg.len) as usize],
                    count: seg.len - hole_len,
                    hole_at,
                    hole_len,
                    relaxed: depth > 0,
                    dst_port: crate::workload::port_for(entry.dst_role),
                })
            })
    }
}

/// A timestamp in `[0, span)` nanoseconds with density following the
/// diurnal envelope: rejection sampling, accepting `t` when a uniform
/// `u` in `[0, 2)` falls below `multiplier(t)`. The multiplier lies in
/// [`DiurnalPattern::bounds`], so a `u` below that range accepts and one
/// at or above it rejects without evaluating the sine; the draws, and so
/// the stream, are those of the full rule.
fn diurnal_time(diurnal: &DiurnalPattern, span: u64, rng: &mut Rng) -> SimTime {
    let (lo, hi) = diurnal.bounds();
    loop {
        let t = SimTime::from_nanos(rng.below(span));
        let u = rng.f64() * 2.0;
        if u < lo {
            return t;
        }
        if u >= hi {
            continue;
        }
        if u < diurnal.multiplier(t) {
            return t;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sonet_telemetry::Tagger;
    use sonet_topology::{ClusterSpec, ClusterType, DatacenterSpec, SiteSpec, TopologySpec};

    /// A two-DC fleet with every cluster type represented.
    fn fleet_topo() -> Arc<Topology> {
        let dc = |seed: u32| DatacenterSpec {
            clusters: vec![
                ClusterSpec::frontend(16 + seed, 6),
                ClusterSpec::hadoop(12, 6),
                ClusterSpec::cache(6, 6),
                ClusterSpec::database(4, 6),
                ClusterSpec::service(8, 6),
            ],
        };
        Arc::new(
            Topology::build(TopologySpec {
                sites: vec![
                    SiteSpec {
                        datacenters: vec![dc(0)],
                    },
                    SiteSpec {
                        datacenters: vec![dc(2)],
                    },
                ],
                ..TopologySpec::default()
            })
            .expect("valid"),
        )
    }

    #[test]
    fn demand_tables_cover_all_roles_and_normalize() {
        let t = demand_tables();
        for (i, role) in HostRole::ALL.into_iter().enumerate() {
            // The model's dense per-role tables index by `role as usize`.
            assert_eq!(role as usize, i, "{role} out of ALL order");
            let rows = t.get(&role).unwrap_or_else(|| panic!("missing {role}"));
            let sum: f64 = rows.iter().map(|r| r.weight).sum();
            assert!(sum > 0.0, "{role} empty");
            // Most tables target 100 but only relative weight matters.
            assert!((50.0..150.0).contains(&sum), "{role} sums to {sum}");
        }
    }

    #[test]
    fn hadoop_fleet_locality_tracks_table_3() {
        let topo = fleet_topo();
        let mut model = FleetModel::new(
            Arc::clone(&topo),
            FleetConfig {
                samples_per_host: 60,
                ..FleetConfig::default()
            },
            11,
        );
        let samples = model.generate();
        let tagger = Tagger::new(&topo);
        let table = tagger.ingest(samples);
        let hadoop = table.filtered(|r| r.src_cluster_type == ClusterType::Hadoop);
        let total = hadoop.total_bytes() as f64;
        let by_loc = hadoop.bytes_by(|r| r.locality);
        let frac = |l: Locality| *by_loc.get(&l).unwrap_or(&0) as f64 / total * 100.0;
        assert!(
            (frac(Locality::IntraRack) - 13.3).abs() < 4.0,
            "rack {}",
            frac(Locality::IntraRack)
        );
        assert!(
            (frac(Locality::IntraCluster) - 80.9).abs() < 5.0,
            "cluster {}",
            frac(Locality::IntraCluster)
        );
        assert!(frac(Locality::InterDatacenter) < 8.0);
    }

    #[test]
    fn web_outbound_role_mix_tracks_table_2() {
        let topo = fleet_topo();
        let mut model = FleetModel::new(
            Arc::clone(&topo),
            FleetConfig {
                samples_per_host: 80,
                ..FleetConfig::default()
            },
            13,
        );
        let samples = model.generate();
        let tagger = Tagger::new(&topo);
        let table = tagger.ingest(samples);
        let web = table.filtered(|r| r.src_role == HostRole::Web);
        let total = web.total_bytes() as f64;
        let by_role = web.bytes_by(|r| r.dst_role);
        let frac = |r: HostRole| *by_role.get(&r).unwrap_or(&0) as f64 / total * 100.0;
        assert!(
            (frac(HostRole::CacheFollower) - 63.1).abs() < 6.0,
            "cache {}",
            frac(HostRole::CacheFollower)
        );
        assert!(
            (frac(HostRole::Multifeed) - 15.2).abs() < 5.0,
            "mf {}",
            frac(HostRole::Multifeed)
        );
        assert!(
            (frac(HostRole::Slb) - 5.6).abs() < 3.0,
            "slb {}",
            frac(HostRole::Slb)
        );
    }

    #[test]
    fn volume_shares_follow_table_3_bottom_row() {
        let topo = fleet_topo();
        let mut model = FleetModel::new(Arc::clone(&topo), FleetConfig::default(), 17);
        let samples = model.generate();
        let tagger = Tagger::new(&topo);
        let table = tagger.ingest(samples);
        let total = table.total_bytes() as f64;
        let by_type = table.bytes_by(|r| r.src_cluster_type);
        // Hadoop/FE ≈ 23.7/21.5 after renormalization.
        let hadoop = *by_type.get(&ClusterType::Hadoop).unwrap_or(&0) as f64 / total;
        let fe = *by_type.get(&ClusterType::Frontend).unwrap_or(&0) as f64 / total;
        let expected_ratio = 23.7 / 21.5;
        assert!(
            (hadoop / fe - expected_ratio).abs() < 0.2,
            "hadoop/fe ratio {} vs {expected_ratio}",
            hadoop / fe
        );
    }

    #[test]
    fn generation_is_invariant_to_thread_count_and_chunking() {
        let topo = fleet_topo();
        let cfg = FleetConfig {
            samples_per_host: 20,
            ..FleetConfig::default()
        };
        let run = |threads: Option<usize>, chunk: u32| {
            let mut model = FleetModel::new(Arc::clone(&topo), cfg.clone(), 23);
            model.set_parallelism(threads);
            let mut out = Vec::new();
            while !model.exhausted() {
                out.extend(model.generate_chunk(chunk));
            }
            out.sort_by_key(|r| r.at);
            (out, model.relaxed_picks())
        };
        let baseline = run(Some(1), u32::MAX);
        for (threads, chunk) in [(Some(2), u32::MAX), (Some(8), u32::MAX), (Some(3), 7)] {
            let got = run(threads, chunk);
            assert_eq!(
                got, baseline,
                "threads {threads:?} chunk {chunk} must not change the stream"
            );
        }
    }

    /// `n` records with timestamps from `at` and unique `bytes`, so any
    /// reordering of equal timestamps shows.
    fn records(n: usize, mut at: impl FnMut(usize) -> u64) -> Vec<FlowRecord> {
        (0..n)
            .map(|i| FlowRecord {
                at: SimTime::from_nanos(at(i)),
                capture_host: HostId(0),
                src: HostId(0),
                dst: HostId(1),
                src_port: 0,
                dst_port: 0,
                bytes: i as u64,
                packets: 1,
            })
            .collect()
    }

    #[test]
    fn sort_by_time_matches_the_std_stable_sort() {
        let mut rng = Rng::new(29);
        let day = SimDuration::from_secs(86_400).as_nanos();
        let values: Vec<u64> = (0..50).map(|_| rng.below(day)).collect();
        let cases: Vec<(&str, Vec<FlowRecord>)> = vec![
            ("empty", Vec::new()),
            ("single", records(1, |_| 7)),
            ("short", records(40, |_| rng.below(100))),
            (
                "50 distinct over 100k",
                records(100_000, |_| values[rng.below(50) as usize]),
            ),
            ("uniform day", records(20_000, |_| rng.below(day))),
            ("all equal", records(5_000, |_| 123_456)),
            (
                "zero and near u64::MAX",
                records(5_000, |i| match i % 4 {
                    0 => 0,
                    1 => u64::MAX,
                    2 => u64::MAX - rng.below(1_000),
                    _ => rng.next_u64(),
                }),
            ),
            ("zero to one", records(5_000, |_| rng.below(2))),
            ("already sorted", records(5_000, |i| i as u64 / 3)),
            ("reversed", records(5_000, |i| (5_000 - i) as u64 / 3)),
        ];
        for (name, input) in cases {
            let mut want = input.clone();
            want.sort_by_key(|r| r.at);
            let mut got = input;
            sort_by_time(&mut got);
            assert_eq!(got.len(), want.len(), "{name}");
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_eq!(g, w, "{name}: record {i} differs");
            }
        }
    }

    /// The rejection rule without the bound shortcut: every draw
    /// evaluates the multiplier.
    fn diurnal_time_full(diurnal: &DiurnalPattern, span: u64, rng: &mut Rng) -> SimTime {
        loop {
            let t = SimTime::from_nanos(rng.below(span));
            if rng.f64() * (1.0 + 1.0) < diurnal.multiplier(t) {
                return t;
            }
        }
    }

    #[test]
    fn diurnal_shortcut_draws_what_the_full_rule_draws() {
        // A 90 s period over a 1000 s span wraps `t % period` many times.
        let span = SimDuration::from_secs(1_000).as_nanos();
        let mut rng = Rng::new(41);
        for amplitude in [0.0, 1.0 / 3.0, 0.9, -0.2] {
            for phase in [0.0, 0.25, 0.7] {
                let diurnal = DiurnalPattern {
                    amplitude,
                    period: SimDuration::from_secs(90),
                    phase,
                };
                let mut fast = rng.clone();
                let mut full = rng.clone();
                for i in 0..100_000 {
                    assert_eq!(
                        diurnal_time(&diurnal, span, &mut fast),
                        diurnal_time_full(&diurnal, span, &mut full),
                        "amplitude {amplitude}, phase {phase}: draw {i} differs"
                    );
                }
                assert_eq!(fast, full, "amplitude {amplitude}, phase {phase}");
                rng = fast;
            }
        }
    }

    /// The per-sample relaxation walk the plans replace, kept as their
    /// oracle: the pick and how many localities it relaxed past.
    fn walk_pick(
        model: &FleetModel,
        src: HostId,
        entry: &DemandEntry,
        rng: &mut Rng,
    ) -> Option<(HostId, usize)> {
        let order: [Locality; 4] = match entry.locality {
            Locality::IntraRack => [
                Locality::IntraRack,
                Locality::IntraCluster,
                Locality::IntraDatacenter,
                Locality::InterDatacenter,
            ],
            Locality::IntraCluster => [
                Locality::IntraCluster,
                Locality::IntraDatacenter,
                Locality::InterDatacenter,
                Locality::IntraRack,
            ],
            Locality::IntraDatacenter => [
                Locality::IntraDatacenter,
                Locality::InterDatacenter,
                Locality::IntraCluster,
                Locality::IntraRack,
            ],
            Locality::InterDatacenter => [
                Locality::InterDatacenter,
                Locality::IntraDatacenter,
                Locality::IntraCluster,
                Locality::IntraRack,
            ],
        };
        for (depth, &loc) in order.iter().enumerate() {
            if let Some(h) = try_pick(model, src, entry.dst_role, loc, rng) {
                return Some((h, depth));
            }
        }
        None
    }

    /// Uniform candidate pick at exactly `locality`, or `None` (drawing
    /// nothing) when the plant has no candidate there.
    fn try_pick(
        model: &FleetModel,
        src: HostId,
        role: HostRole,
        locality: Locality,
        rng: &mut Rng,
    ) -> Option<HostId> {
        let info = model.topo.host(src);
        let idx = &model.picks[role as usize];
        match locality {
            Locality::IntraRack => pick_skipping(idx, rng, idx.rack[info.rack.index()], src),
            Locality::IntraCluster => pick_minus(
                idx,
                rng,
                idx.cluster[info.cluster.index()],
                idx.rack[info.rack.index()],
            ),
            Locality::IntraDatacenter => pick_minus(
                idx,
                rng,
                idx.dc[info.datacenter.index()],
                idx.cluster[info.cluster.index()],
            ),
            Locality::InterDatacenter => pick_minus(
                idx,
                rng,
                Seg {
                    start: 0,
                    len: idx.hosts.len() as u32,
                },
                idx.dc[info.datacenter.index()],
            ),
        }
    }

    /// Uniform pick from segment `seg` minus the (possibly empty)
    /// sub-segment `hole` contained in it.
    fn pick_minus(idx: &RoleIndex, rng: &mut Rng, seg: Seg, hole: Seg) -> Option<HostId> {
        let count = seg.len - hole.len;
        if count == 0 {
            return None;
        }
        let mut i = rng.below(count as u64) as u32;
        if !hole.is_empty() && i >= hole.start - seg.start {
            i += hole.len;
        }
        Some(idx.hosts[(seg.start + i) as usize])
    }

    /// Uniform pick from segment `seg` excluding the single host `skip`.
    fn pick_skipping(idx: &RoleIndex, rng: &mut Rng, seg: Seg, skip: HostId) -> Option<HostId> {
        let range = seg.start as usize..(seg.start + seg.len) as usize;
        let skip_pos = idx.hosts[range.clone()].binary_search(&skip).ok();
        let count = seg.len as u64 - u64::from(skip_pos.is_some());
        if count == 0 {
            return None;
        }
        let mut i = rng.below(count) as usize;
        if let Some(p) = skip_pos {
            if i >= p {
                i += 1;
            }
        }
        Some(idx.hosts[range.start + i])
    }

    #[test]
    fn plans_pick_what_the_relaxation_walk_picks() {
        // Sparse on purpose. The first datacenter's frontend has one web
        // rack of one host and the second has no Hadoop, so web-to-web
        // and Hadoop picks relax up to three levels; the second
        // datacenter's lone Misc rack of one host has no Misc candidate
        // anywhere, and the plant has no cache leaders or databases, so
        // those entries find nothing at all.
        let topo = Arc::new(
            Topology::build(TopologySpec {
                sites: vec![
                    SiteSpec {
                        datacenters: vec![DatacenterSpec {
                            clusters: vec![ClusterSpec::frontend(4, 1), ClusterSpec::hadoop(2, 2)],
                        }],
                    },
                    SiteSpec {
                        datacenters: vec![DatacenterSpec {
                            clusters: vec![ClusterSpec::frontend(4, 2), ClusterSpec::service(2, 1)],
                        }],
                    },
                ],
                ..TopologySpec::default()
            })
            .expect("valid"),
        );
        let model = FleetModel::new(Arc::clone(&topo), FleetConfig::default(), 5);
        // Samples ending at each relaxation depth 0..=3, and with none.
        let mut outcomes = [0u64; 5];
        for h in 0..topo.hosts().len() {
            let src = HostId(h as u32);
            let info = topo.host(src);
            for (k, entry) in model.demand[info.role as usize].entries.iter().enumerate() {
                let plan = model.plan(src, info, entry);
                let mut walk = Rng::new((h * 8 + k) as u64);
                let mut planned = walk.clone();
                for i in 0..1_000 {
                    let want = walk_pick(&model, src, entry, &mut walk);
                    let got = plan.map(|p| (p.pick(&mut planned), p.relaxed));
                    assert_eq!(
                        got,
                        want.map(|(dst, depth)| (dst, depth > 0)),
                        "host {h}, entry {entry:?}: draw {i} differs"
                    );
                    outcomes[want.map_or(4, |(_, depth)| depth)] += 1;
                }
                assert_eq!(planned, walk, "host {h}, entry {entry:?}: RNG state");
            }
        }
        assert!(
            outcomes.iter().all(|&n| n > 0),
            "every relaxation depth and the no-candidate case must occur: {outcomes:?}"
        );
    }

    #[test]
    fn timestamps_cover_the_day_diurnally() {
        let topo = fleet_topo();
        let mut model = FleetModel::new(
            Arc::clone(&topo),
            FleetConfig {
                samples_per_host: 30,
                ..FleetConfig::default()
            },
            19,
        );
        let samples = model.generate();
        let day = 86_400u64;
        assert!(samples.iter().all(|s| s.at.as_secs() < day));
        // Peak quarter (around t=T/4) should carry more than trough
        // quarter (around t=3T/4).
        let q = |lo: u64, hi: u64| {
            samples
                .iter()
                .filter(|s| (lo..hi).contains(&s.at.as_secs()))
                .count() as f64
        };
        let peak = q(day / 8, 3 * day / 8);
        let trough = q(5 * day / 8, 7 * day / 8);
        assert!(peak > trough * 1.3, "peak {peak} trough {trough}");
    }
}
