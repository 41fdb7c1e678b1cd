//! Locality breakdowns and demand matrices (Tables 2–3, Figs 4–5).

use crate::trace::HostTrace;
use serde::{Deserialize, Serialize};
use sonet_telemetry::ScubaTable;
use sonet_topology::{ClusterId, ClusterType, HostRole, Locality, RackId, Topology};
use sonet_util::{SimDuration, SimTime};
use std::collections::HashMap;

/// Outbound bytes of a monitored host grouped by destination role — one
/// row of Table 2, as percentages.
pub fn service_matrix_row(trace: &HostTrace, topo: &Topology) -> HashMap<HostRole, f64> {
    let mut bytes: HashMap<HostRole, u64> = HashMap::new();
    let mut total = 0u64;
    for obs in trace.outbound() {
        let role = topo.host(obs.peer).role;
        *bytes.entry(role).or_insert(0) += obs.wire_bytes as u64;
        total += obs.wire_bytes as u64;
    }
    if total == 0 {
        return HashMap::new();
    }
    bytes
        .into_iter()
        .map(|(r, b)| (r, b as f64 / total as f64 * 100.0))
        .collect()
}

/// Per-bin outbound megabits by locality — the stacked series of Fig 4.
///
/// Returns one `[Mbps; 4]` row per bin (order: rack, cluster, datacenter,
/// inter-datacenter), covering `[0, horizon)`.
pub fn locality_timeseries(
    trace: &HostTrace,
    topo: &Topology,
    bin: SimDuration,
    horizon: SimTime,
) -> Vec<[f64; 4]> {
    let n_bins = horizon.bin_index(bin) as usize;
    let mut bytes = vec![[0u64; 4]; n_bins + 1];
    for obs in trace.outbound() {
        if obs.at >= horizon {
            continue;
        }
        let b = obs.at.bin_index(bin) as usize;
        let l = match topo.locality(trace.host(), obs.peer) {
            Locality::IntraRack => 0,
            Locality::IntraCluster => 1,
            Locality::IntraDatacenter => 2,
            Locality::InterDatacenter => 3,
        };
        bytes[b][l] += obs.wire_bytes as u64;
    }
    bytes.truncate(n_bins);
    let secs = bin.as_secs_f64();
    bytes
        .into_iter()
        .map(|row| {
            [
                row[0] as f64 * 8.0 / secs / 1e6,
                row[1] as f64 * 8.0 / secs / 1e6,
                row[2] as f64 * 8.0 / secs / 1e6,
                row[3] as f64 * 8.0 / secs / 1e6,
            ]
        })
        .collect()
}

/// One column of Table 3: locality percentages for a set of Fbflow rows.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LocalityBreakdown {
    /// % of bytes staying in the source rack.
    pub rack: f64,
    /// % staying in the cluster (excluding rack-local).
    pub cluster: f64,
    /// % staying in the datacenter (excluding cluster-local).
    pub datacenter: f64,
    /// % leaving the datacenter.
    pub inter_dc: f64,
    /// Total bytes represented.
    pub bytes: u64,
}

impl LocalityBreakdown {
    /// Computes the breakdown over a Scuba table.
    pub fn of(table: &ScubaTable) -> LocalityBreakdown {
        let total = table.total_bytes();
        let by = table.bytes_by(|r| r.locality);
        let pct = |l: Locality| {
            if total == 0 {
                0.0
            } else {
                *by.get(&l).unwrap_or(&0) as f64 / total as f64 * 100.0
            }
        };
        LocalityBreakdown {
            rack: pct(Locality::IntraRack),
            cluster: pct(Locality::IntraCluster),
            datacenter: pct(Locality::IntraDatacenter),
            inter_dc: pct(Locality::InterDatacenter),
            bytes: total,
        }
    }

    /// The breakdown of per-locality byte sums, indexed by `locality as
    /// usize` ([`Locality::ALL`] order).
    fn from_bytes(bytes: [u64; 4]) -> LocalityBreakdown {
        let total: u64 = bytes.iter().sum();
        let pct = |l: Locality| {
            if total == 0 {
                0.0
            } else {
                bytes[l as usize] as f64 / total as f64 * 100.0
            }
        };
        LocalityBreakdown {
            rack: pct(Locality::IntraRack),
            cluster: pct(Locality::IntraCluster),
            datacenter: pct(Locality::IntraDatacenter),
            inter_dc: pct(Locality::InterDatacenter),
            bytes: total,
        }
    }
}

/// The full Table 3: overall locality plus one column per cluster type,
/// with each type's share of total traffic.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LocalityTable {
    /// The "All" column.
    pub all: LocalityBreakdown,
    /// Per-cluster-type columns, in [`ClusterType::ALL`] order.
    pub per_type: Vec<(ClusterType, LocalityBreakdown, f64)>,
}

impl LocalityTable {
    /// Builds Table 3 from a Scuba table in one pass: each row adds its
    /// bytes to a (source cluster type × locality) grid, and every
    /// column — "All" included — is read off the grid. Byte sums are
    /// integers, so the result does not depend on row order.
    pub fn of(table: &ScubaTable) -> LocalityTable {
        let mut grid = [[0u64; 4]; ClusterType::ALL.len()];
        for row in table.rows() {
            grid[row.src_cluster_type as usize][row.locality as usize] += row.rec.bytes;
        }
        let mut all = [0u64; 4];
        for bytes in &grid {
            for (a, b) in all.iter_mut().zip(bytes) {
                *a += b;
            }
        }
        let all = LocalityBreakdown::from_bytes(all);
        let total = all.bytes.max(1);
        let per_type = ClusterType::ALL
            .iter()
            .map(|&t| {
                let b = LocalityBreakdown::from_bytes(grid[t as usize]);
                let share = b.bytes as f64 / total as f64 * 100.0;
                (t, b, share)
            })
            .collect();
        LocalityTable { all, per_type }
    }
}

/// Fig 5's demand matrices from one pass over the table: bytes from each
/// source rack position to each destination rack position within each
/// of `clusters` (Fig 5a/5b), and cluster-to-cluster bytes across the
/// fleet (Fig 5c).
///
/// A row counts toward a rack matrix only when both of its ends lie in
/// that cluster and both racks are among the cluster's racks; it counts
/// toward the cluster matrix when both cluster indices are in range.
pub fn demand_matrices<const N: usize>(
    table: &ScubaTable,
    topo: &Topology,
    clusters: [ClusterId; N],
) -> ([Vec<Vec<u64>>; N], Vec<Vec<u64>>) {
    let n_clusters = topo.clusters().len();
    // Each listed rack's (matrix, position); a cluster listed twice fills
    // the matrix of its first listing, copied to the later ones below.
    let mut pos = vec![None; topo.racks().len()];
    for (k, c) in clusters.iter().enumerate().rev() {
        for (i, r) in topo.cluster(*c).racks.iter().enumerate() {
            pos[r.index()] = Some((k, i));
        }
    }
    let mut racks: [Vec<Vec<u64>>; N] = std::array::from_fn(|k| {
        let n = topo.cluster(clusters[k]).racks.len();
        vec![vec![0u64; n]; n]
    });
    let mut m = vec![vec![0u64; n_clusters]; n_clusters];
    let at = |r: RackId| pos.get(r.index()).copied().flatten();
    for row in table.rows() {
        let (i, j) = (row.src_cluster.index(), row.dst_cluster.index());
        if i >= n_clusters || j >= n_clusters {
            continue;
        }
        m[i][j] += row.rec.bytes;
        if i != j {
            continue;
        }
        // A rack matrix takes the row when both racks belong to one
        // listed cluster and that cluster is the row's.
        if let (Some((k, a)), Some((kd, b))) = (at(row.src_rack), at(row.dst_rack)) {
            if kd == k && clusters[k] == row.src_cluster {
                racks[k][a][b] += row.rec.bytes;
            }
        }
    }
    for k in 1..N {
        if let Some(first) = clusters[..k].iter().position(|&c| c == clusters[k]) {
            racks[k] = racks[first].clone();
        }
    }
    (racks, m)
}

/// Summary statistics of a demand matrix: the span of non-zero demands in
/// decades (§4.3: "demand varies over more than seven orders of magnitude
/// between cluster pairs") and the diagonal (locality) share.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MatrixStats {
    /// log10(max/min) over non-zero entries.
    pub decades: f64,
    /// Fraction of bytes on the diagonal.
    pub diagonal_fraction: f64,
    /// Fraction of entries that are non-zero.
    pub fill: f64,
}

impl MatrixStats {
    /// Computes matrix statistics.
    pub fn of(m: &[Vec<u64>]) -> MatrixStats {
        let mut min = u64::MAX;
        let mut max = 0u64;
        let mut total = 0u64;
        let mut diag = 0u64;
        let mut nonzero = 0usize;
        let mut cells = 0usize;
        for (i, row) in m.iter().enumerate() {
            for (j, &v) in row.iter().enumerate() {
                cells += 1;
                total += v;
                if i == j {
                    diag += v;
                }
                if v > 0 {
                    nonzero += 1;
                    min = min.min(v);
                    max = max.max(v);
                }
            }
        }
        MatrixStats {
            decades: if nonzero > 0 && min > 0 {
                (max as f64 / min as f64).log10()
            } else {
                0.0
            },
            diagonal_fraction: if total > 0 {
                diag as f64 / total as f64
            } else {
                0.0
            },
            fill: if cells > 0 {
                nonzero as f64 / cells as f64
            } else {
                0.0
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sonet_netsim::{ConnId, Dir, FlowKey, Packet, PacketKind};
    use sonet_telemetry::{FlowRecord, PacketRecord, Tagger};
    use sonet_topology::{ClusterSpec, HostId, LinkId, TopologySpec};

    fn topo() -> Topology {
        Topology::build(TopologySpec::single_dc(vec![
            ClusterSpec::frontend(8, 4),
            ClusterSpec::hadoop(4, 4),
        ]))
        .expect("valid")
    }

    fn obs_record(at_s: u64, src: HostId, dst: HostId, wire: u32) -> PacketRecord {
        PacketRecord {
            at: SimTime::from_secs(at_s),
            link: LinkId(0),
            pkt: Packet {
                conn: ConnId { idx: 0, gen: 0 },
                key: FlowKey {
                    client: src,
                    server: dst,
                    client_port: 9,
                    server_port: 80,
                },
                dir: Dir::ClientToServer,
                kind: PacketKind::Data { last_of_msg: true },
                seq: 0,
                msg: 0,
                payload: 0,
                wire_bytes: wire,
            },
        }
    }

    #[test]
    fn service_matrix_percentages() {
        let topo = topo();
        let web = topo.hosts_with_role(HostRole::Web)[0];
        let cache = topo.hosts_with_role(HostRole::CacheFollower)[0];
        let hadoop = topo.hosts_with_role(HostRole::Hadoop)[0];
        let records = vec![
            obs_record(0, web, cache, 600),
            obs_record(1, web, cache, 200),
            obs_record(2, web, hadoop, 200),
        ];
        let trace = HostTrace::from_mirror(&records, web);
        let row = service_matrix_row(&trace, &topo);
        assert!((row[&HostRole::CacheFollower] - 80.0).abs() < 1e-9);
        assert!((row[&HostRole::Hadoop] - 20.0).abs() < 1e-9);
    }

    #[test]
    fn timeseries_bins_and_converts_to_mbps() {
        let topo = topo();
        let web = topo.hosts_with_role(HostRole::Web)[0];
        let peer_same_rack = topo.rack(topo.host(web).rack).hosts[1];
        let records = vec![
            obs_record(0, web, peer_same_rack, 1_000_000), // 1 MB in second 0
            obs_record(1, web, peer_same_rack, 2_000_000),
        ];
        let trace = HostTrace::from_mirror(&records, web);
        let series = locality_timeseries(
            &trace,
            &topo,
            SimDuration::from_secs(1),
            SimTime::from_secs(3),
        );
        assert_eq!(series.len(), 3);
        assert!(
            (series[0][0] - 8.0).abs() < 1e-9,
            "1 MB/s = 8 Mbps rack-local"
        );
        assert!((series[1][0] - 16.0).abs() < 1e-9);
        assert_eq!(series[2][0], 0.0);
    }

    #[test]
    fn locality_table_from_scuba() {
        let topo = topo();
        let tagger = Tagger::new(&topo);
        let web = topo.hosts_with_role(HostRole::Web)[0];
        let same_rack = topo.rack(topo.host(web).rack).hosts[1];
        let cache = topo.hosts_with_role(HostRole::CacheFollower)[0];
        let hadoop = topo.hosts_with_role(HostRole::Hadoop)[0];
        let mk = |src: HostId, dst: HostId, bytes: u64| FlowRecord {
            at: SimTime::ZERO,
            capture_host: src,
            src,
            dst,
            src_port: 1,
            dst_port: 2,
            bytes,
            packets: 1,
        };
        let table = tagger.ingest(vec![
            mk(web, same_rack, 100),
            mk(web, cache, 500),
            mk(web, hadoop, 400),
        ]);
        let t = LocalityTable::of(&table);
        assert!((t.all.rack - 10.0).abs() < 1e-9);
        assert!((t.all.cluster - 50.0).abs() < 1e-9);
        assert!((t.all.datacenter - 40.0).abs() < 1e-9);
        assert_eq!(t.all.inter_dc, 0.0);
        // Frontend column holds all the traffic (all sources are web).
        let fe = t
            .per_type
            .iter()
            .find(|(ty, _, _)| *ty == ClusterType::Frontend)
            .expect("FE present");
        assert!((fe.2 - 100.0).abs() < 1e-9, "share {}", fe.2);
    }

    /// Table 3 computed column by column: one filtered copy and one
    /// group-by per cluster type.
    fn table3_by_columns(table: &ScubaTable) -> LocalityTable {
        let all = LocalityBreakdown::of(table);
        let total = all.bytes.max(1);
        let per_type = ClusterType::ALL
            .iter()
            .map(|&t| {
                let b = LocalityBreakdown::of(&table.filtered(|r| r.src_cluster_type == t));
                (t, b, b.bytes as f64 / total as f64 * 100.0)
            })
            .collect();
        LocalityTable { all, per_type }
    }

    #[test]
    fn one_pass_table3_equals_the_column_by_column_table() {
        use sonet_topology::{DatacenterSpec, SiteSpec};
        use sonet_util::Rng;
        let dc = || DatacenterSpec {
            clusters: vec![
                ClusterSpec::frontend(4, 4),
                ClusterSpec::hadoop(3, 4),
                ClusterSpec::cache(2, 4),
                ClusterSpec::database(2, 4),
                ClusterSpec::service(2, 4),
            ],
        };
        let topo = Topology::build(TopologySpec {
            sites: vec![
                SiteSpec {
                    datacenters: vec![dc()],
                },
                SiteSpec {
                    datacenters: vec![dc()],
                },
            ],
            ..TopologySpec::default()
        })
        .expect("valid");
        // Every type but Database sends, so its column must read 0.
        let senders: Vec<HostId> = topo
            .hosts()
            .iter()
            .enumerate()
            .filter(|(_, h)| topo.cluster(h.cluster).ctype != ClusterType::Database)
            .map(|(i, _)| HostId(i as u32))
            .collect();
        let n_hosts = topo.hosts().len() as u64;
        let mut rng = Rng::new(37);
        let samples = (0..20_000)
            .map(|_| {
                let src = *rng.pick(&senders);
                FlowRecord {
                    at: SimTime::ZERO,
                    capture_host: src,
                    src,
                    dst: HostId(rng.below(n_hosts) as u32),
                    src_port: 1,
                    dst_port: 2,
                    bytes: 1 + rng.below(1 << 40),
                    packets: 1,
                }
            })
            .collect();
        let table = Tagger::new(&topo).ingest(samples);
        let got = LocalityTable::of(&table);
        let want = table3_by_columns(&table);
        assert_eq!(got.all, want.all);
        assert_eq!(got.per_type, want.per_type);
        let db = got
            .per_type
            .iter()
            .find(|(t, _, _)| *t == ClusterType::Database)
            .expect("every type has a column");
        assert_eq!(db.1.bytes, 0);
        assert_eq!(
            (db.1.rack, db.1.cluster, db.1.datacenter, db.1.inter_dc),
            (0.0, 0.0, 0.0, 0.0)
        );
        assert_eq!(db.2, 0.0);
        // An empty table: every column and share is 0.
        let empty = LocalityTable::of(&ScubaTable::default());
        assert_eq!(empty.all, table3_by_columns(&ScubaTable::default()).all);
        assert!(empty
            .per_type
            .iter()
            .all(|(_, b, s)| b.bytes == 0 && *s == 0.0));
    }

    #[test]
    fn rack_matrix_diagonal() {
        let topo = topo();
        let tagger = Tagger::new(&topo);
        let r0 = &topo.racks()[0];
        let r1 = &topo.racks()[1];
        let mk = |src: HostId, dst: HostId, bytes: u64| FlowRecord {
            at: SimTime::ZERO,
            capture_host: src,
            src,
            dst,
            src_port: 1,
            dst_port: 2,
            bytes,
            packets: 1,
        };
        let table = tagger.ingest(vec![
            mk(r0.hosts[0], r0.hosts[1], 700), // diagonal
            mk(r0.hosts[0], r1.hosts[0], 300),
        ]);
        let ([m], c) = demand_matrices(&table, &topo, [ClusterId(0)]);
        assert_eq!(m[0][0], 700);
        assert_eq!(m[0][1], 300);
        let stats = MatrixStats::of(&m);
        assert!((stats.diagonal_fraction - 0.7).abs() < 1e-9);
        assert!(stats.decades > 0.0);
        assert_eq!(c[0][0], 1000);
    }

    /// One cluster's rack matrix from its own pass over the table.
    fn rack_matrix_alone(table: &ScubaTable, topo: &Topology, cluster: ClusterId) -> Vec<Vec<u64>> {
        let racks = &topo.cluster(cluster).racks;
        let pos: HashMap<RackId, usize> = racks.iter().enumerate().map(|(i, &r)| (r, i)).collect();
        let mut m = vec![vec![0u64; racks.len()]; racks.len()];
        for row in table.rows() {
            if row.src_cluster == cluster && row.dst_cluster == cluster {
                if let (Some(&i), Some(&j)) = (pos.get(&row.src_rack), pos.get(&row.dst_rack)) {
                    m[i][j] += row.rec.bytes;
                }
            }
        }
        m
    }

    /// The cluster matrix from its own pass over the table.
    fn cluster_matrix_alone(table: &ScubaTable, n_clusters: usize) -> Vec<Vec<u64>> {
        let mut m = vec![vec![0u64; n_clusters]; n_clusters];
        for row in table.rows() {
            let (i, j) = (row.src_cluster.index(), row.dst_cluster.index());
            if i < n_clusters && j < n_clusters {
                m[i][j] += row.rec.bytes;
            }
        }
        m
    }

    #[test]
    fn one_pass_matrices_equal_one_pass_per_matrix() {
        use sonet_util::Rng;
        let topo = topo();
        let n_hosts = topo.hosts().len() as u64;
        let mut rng = Rng::new(43);
        let samples = (0..5_000)
            .map(|_| {
                let src = HostId(rng.below(n_hosts) as u32);
                FlowRecord {
                    at: SimTime::ZERO,
                    capture_host: src,
                    src,
                    dst: HostId(rng.below(n_hosts) as u32),
                    src_port: 1,
                    dst_port: 2,
                    bytes: 1 + rng.below(1 << 30),
                    packets: 1,
                }
            })
            .collect();
        let mut rows = Tagger::new(&topo).ingest(samples).rows().to_vec();
        // Rows no consistent tagger writes: a rack outside its cluster,
        // a rack and a cluster past the plant. Each is skipped where the
        // per-matrix passes skip it.
        let n_racks = topo.racks().len() as u32;
        let mut odd = rows[0];
        odd.src_cluster = ClusterId(0);
        odd.dst_cluster = ClusterId(0);
        odd.src_rack = topo.cluster(ClusterId(1)).racks[0];
        odd.dst_rack = topo.cluster(ClusterId(0)).racks[0];
        let mut far_rack = odd;
        far_rack.src_rack = RackId(n_racks + 3);
        let mut far_cluster = odd;
        far_cluster.dst_cluster = ClusterId(99);
        rows.extend([odd, far_rack, far_cluster]);
        let table = ScubaTable::from_rows(rows);
        let n = topo.clusters().len();
        let clusters = [ClusterId(1), ClusterId(0), ClusterId(1)];
        let (racks, c) = demand_matrices(&table, &topo, clusters);
        for (k, cluster) in clusters.into_iter().enumerate() {
            assert_eq!(
                racks[k],
                rack_matrix_alone(&table, &topo, cluster),
                "{cluster}"
            );
        }
        assert_eq!(c, cluster_matrix_alone(&table, n));
        assert!(racks[0].iter().flatten().any(|&v| v > 0));
        assert!(racks[1].iter().flatten().any(|&v| v > 0));
    }
}
