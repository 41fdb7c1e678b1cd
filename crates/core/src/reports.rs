//! Typed reports for every table and figure, with paper-expected values
//! embedded so each `render()` prints paper-vs-measured.

use crate::capture::StandardCapture;
use crate::fleet_run::FleetData;
use crate::render::{cdf_series, num, quantiles, series_row, table};
use crate::scenario::{packet_tier_spec, ScenarioScale};
use serde::Serialize;
use sonet_analysis::concurrency::{concurrency_cdfs, heavy_hitter_rack_cdfs, CountEntity};
use sonet_analysis::flows::{
    duration_cdfs_by_locality, flow_stats, size_cdfs_by_locality, FlowAgg,
};
use sonet_analysis::heavy_hitters::{
    enclosing_second_intersection, hitter_stats, persistence_fractions, HeavyHitterAgg, HitterStats,
};
use sonet_analysis::locality::{
    demand_matrices, locality_timeseries, service_matrix_row, LocalityTable, MatrixStats,
};
use sonet_analysis::packets::{
    bimodal_fraction, binned_counts, full_mtu_fraction, onoff_metrics, packet_size_cdf,
    per_destination_onoff, syn_interarrival_cdf, OnOffMetrics,
};
use sonet_analysis::rates::{rack_rate_series, StabilityMetrics};
use sonet_analysis::utilization::{layer_utilization, LinkLayer};
use sonet_netsim::{BufferConfig, SimConfig, Simulator};
use sonet_telemetry::PortMirror;
use sonet_topology::{ClusterType, HostRole, Locality, Node, Topology};
use sonet_util::{percentile, EmpiricalCdf, SimDuration, SimTime};
use sonet_workload::{DiurnalPattern, ServiceProfiles, Workload};
use std::sync::Arc;

/// Errors from report computations that build their own inputs or make
/// structural demands on the plant (currently [`fig5`] and [`fig15`];
/// capture-fed reports are infallible given a capture).
#[derive(Debug, Clone, PartialEq)]
pub enum ReportError {
    /// The plant has no cluster of the required type.
    MissingClusterType(ClusterType),
    /// The plant has no rack of the required role.
    MissingRole(HostRole),
    /// A report-owned simulation failed to build or run.
    Build(String),
}

impl std::fmt::Display for ReportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReportError::MissingClusterType(t) => {
                write!(f, "plant has no {t:?} cluster")
            }
            ReportError::MissingRole(r) => write!(f, "plant has no {r:?} rack"),
            ReportError::Build(e) => write!(f, "report simulation failed: {e}"),
        }
    }
}

impl std::error::Error for ReportError {}

/// Roles whose traces the sub-second experiments analyze.
const TRACE_ROLES: [HostRole; 4] = [
    HostRole::Web,
    HostRole::CacheFollower,
    HostRole::CacheLeader,
    HostRole::Hadoop,
];

// ---------------------------------------------------------------------
// Table 2
// ---------------------------------------------------------------------

/// Table 2: outbound traffic percentages by destination service.
#[derive(Debug, Clone, Serialize)]
pub struct Table2Report {
    /// `(source role, destination role → %)`, in stable order.
    pub rows: Vec<(HostRole, std::collections::BTreeMap<HostRole, f64>)>,
}

/// Paper values for Table 2 (columns: Web, Cache, MF, SLB, Hadoop, Rest).
pub const TABLE2_PAPER: [(&str, [f64; 6]); 4] = [
    ("Web", [0.0, 63.1, 15.2, 5.6, 0.0, 16.1]),
    ("Cache-l", [0.0, 86.6, 5.9, 0.0, 0.0, 7.5]),
    ("Cache-f", [88.7, 5.8, 0.0, 0.0, 0.0, 5.5]),
    ("Hadoop", [0.0, 0.0, 0.0, 0.0, 99.8, 0.2]),
];

/// Computes Table 2 from the packet-tier capture.
pub fn table2(cap: &StandardCapture) -> Table2Report {
    let rows = TRACE_ROLES
        .iter()
        .filter_map(|&role| {
            cap.trace(role).map(|t| {
                let sorted: std::collections::BTreeMap<HostRole, f64> =
                    service_matrix_row(t, &cap.topo).into_iter().collect();
                (role, sorted)
            })
        })
        .collect();
    Table2Report { rows }
}

impl Table2Report {
    /// Collapses a measured row into the paper's six columns.
    fn collapse(row: &std::collections::BTreeMap<HostRole, f64>) -> [f64; 6] {
        let g = |r: HostRole| row.get(&r).copied().unwrap_or(0.0);
        [
            g(HostRole::Web),
            g(HostRole::CacheFollower) + g(HostRole::CacheLeader),
            g(HostRole::Multifeed),
            g(HostRole::Slb),
            g(HostRole::Hadoop),
            g(HostRole::Db) + g(HostRole::Misc),
        ]
    }

    /// ASCII paper-vs-measured table.
    pub fn render(&self) -> String {
        let headers = ["Type", "Web", "Cache", "MF", "SLB", "Hadoop", "Rest"];
        let mut rows = Vec::new();
        for (role, shares) in &self.rows {
            let m = Self::collapse(shares);
            rows.push(
                std::iter::once(format!("{} (measured)", role.label()))
                    .chain(m.iter().map(|v| num(*v)))
                    .collect(),
            );
            if let Some((_, p)) = TABLE2_PAPER.iter().find(|(l, _)| *l == role.label()) {
                rows.push(
                    std::iter::once(format!("{} (paper)", role.label()))
                        .chain(p.iter().map(|v| num(*v)))
                        .collect(),
                );
            }
        }
        format!(
            "Table 2: outbound traffic % by destination service\n{}",
            table(&headers, &rows)
        )
    }
}

// ---------------------------------------------------------------------
// Table 3
// ---------------------------------------------------------------------

/// Table 3: locality per cluster type plus traffic shares.
#[derive(Debug, Clone, Serialize)]
pub struct Table3Report {
    /// Measured table.
    pub table: LocalityTable,
}

/// Paper Table 3 (columns All, Hadoop, FE, Svc, Cache, DB; rows rack,
/// cluster, DC, inter-DC; Cache DC read as 70.7 per the text — see
/// EXPERIMENTS.md).
pub const TABLE3_PAPER: [[f64; 6]; 4] = [
    [12.9, 13.3, 2.7, 12.1, 0.2, 0.0],
    [57.5, 80.9, 81.3, 56.3, 13.0, 30.7],
    [11.9, 3.3, 7.3, 15.7, 70.7, 34.5],
    [17.7, 2.5, 8.6, 15.9, 16.1, 34.8],
];

/// Paper traffic shares (bottom row of Table 3).
pub const TABLE3_PAPER_SHARES: [f64; 5] = [23.7, 21.5, 18.0, 10.2, 5.2];

/// Computes Table 3 from the fleet tier.
pub fn table3(fleet: &FleetData) -> Table3Report {
    Table3Report {
        table: LocalityTable::of(&fleet.table),
    }
}

impl Table3Report {
    /// ASCII paper-vs-measured table.
    pub fn render(&self) -> String {
        let headers = ["Locality", "All", "Hadoop", "FE", "Svc", "Cache", "DB"];
        let row_names = ["Rack", "Cluster", "DC", "Inter-DC"];
        let pick = |b: &sonet_analysis::locality::LocalityBreakdown, i: usize| match i {
            0 => b.rack,
            1 => b.cluster,
            2 => b.datacenter,
            _ => b.inter_dc,
        };
        let col = |t: ClusterType| {
            self.table
                .per_type
                .iter()
                .find(|(ty, _, _)| *ty == t)
                .map(|(_, b, s)| (*b, *s))
        };
        let order = [
            ClusterType::Hadoop,
            ClusterType::Frontend,
            ClusterType::Service,
            ClusterType::Cache,
            ClusterType::Database,
        ];
        let mut rows = Vec::new();
        for (i, name) in row_names.iter().enumerate() {
            let mut r = vec![format!("{name} (measured)"), num(pick(&self.table.all, i))];
            for t in order {
                r.push(
                    col(t)
                        .map(|(b, _)| num(pick(&b, i)))
                        .unwrap_or_else(|| "-".into()),
                );
            }
            rows.push(r);
            let mut p = vec![format!("{name} (paper)")];
            p.extend(TABLE3_PAPER[i].iter().map(|v| num(*v)));
            rows.push(p);
        }
        let mut share_row = vec!["Share% (measured)".to_string(), "100".to_string()];
        for t in order {
            share_row.push(col(t).map(|(_, s)| num(s)).unwrap_or_else(|| "-".into()));
        }
        rows.push(share_row);
        let mut p = vec!["Share% (paper)".to_string(), "-".to_string()];
        p.extend(TABLE3_PAPER_SHARES.iter().map(|v| num(*v)));
        rows.push(p);
        format!(
            "Table 3: traffic locality by cluster type\n{}",
            table(&headers, &rows)
        )
    }
}

// ---------------------------------------------------------------------
// Table 4
// ---------------------------------------------------------------------

/// Table 4: heavy-hitter count and rate percentiles in 1-ms intervals.
#[derive(Debug, Clone, Serialize)]
pub struct Table4Report {
    /// `(role, aggregation, stats)`.
    pub rows: Vec<(HostRole, HeavyHitterAgg, HitterStats)>,
}

/// Computes Table 4 from the capture.
pub fn table4(cap: &StandardCapture) -> Table4Report {
    let mut rows = Vec::new();
    for role in TRACE_ROLES {
        let Some(trace) = cap.trace(role) else {
            continue;
        };
        for agg in [
            HeavyHitterAgg::Flow,
            HeavyHitterAgg::Host,
            HeavyHitterAgg::Rack,
        ] {
            if let Some(stats) = hitter_stats(trace, &cap.topo, SimDuration::from_millis(1), agg) {
                rows.push((role, agg, stats));
            }
        }
    }
    Table4Report { rows }
}

impl Table4Report {
    /// ASCII table (paper shape: counts of a few to tens; Hadoop 1–3).
    pub fn render(&self) -> String {
        let headers = [
            "Type", "Agg", "n p10", "n p50", "n p90", "Mbps p10", "Mbps p50", "Mbps p90",
        ];
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|(role, agg, s)| {
                vec![
                    role.label().to_string(),
                    agg.label().to_string(),
                    num(s.count.p10),
                    num(s.count.p50),
                    num(s.count.p90),
                    num(s.rate_mbps.p10),
                    num(s.rate_mbps.p50),
                    num(s.rate_mbps.p90),
                ]
            })
            .collect();
        format!(
            "Table 4: heavy hitters in 1-ms intervals (paper: Web 4/4/3 median, \
             Cache-f 19/19/15, Cache-l 16/8/7, Hadoop 2/2/2)\n{}",
            table(&headers, &rows)
        )
    }
}

// ---------------------------------------------------------------------
// Fig 4
// ---------------------------------------------------------------------

/// Fig 4: per-second outbound locality series per server type.
#[derive(Debug, Clone, Serialize)]
pub struct Fig4Report {
    /// Per role: rows of `[rack, cluster, dc, inter-dc]` Mbps per second.
    pub series: Vec<(HostRole, Vec<[f64; 4]>)>,
}

/// Computes Fig 4 from the capture.
pub fn fig4(cap: &StandardCapture) -> Fig4Report {
    let horizon = SimTime::ZERO + cap.duration;
    let series = TRACE_ROLES
        .iter()
        .filter_map(|&role| {
            cap.trace(role).map(|t| {
                (
                    role,
                    locality_timeseries(t, &cap.topo, SimDuration::from_secs(1), horizon),
                )
            })
        })
        .collect();
    Fig4Report { series }
}

impl Fig4Report {
    /// Locality byte fractions over the whole series for one role.
    pub fn locality_fractions(&self, role: HostRole) -> Option<[f64; 4]> {
        let (_, s) = self.series.iter().find(|(r, _)| *r == role)?;
        let mut sums = [0.0; 4];
        for row in s {
            for i in 0..4 {
                sums[i] += row[i];
            }
        }
        let total: f64 = sums.iter().sum();
        if total <= 0.0 {
            return None;
        }
        Some([
            sums[0] / total * 100.0,
            sums[1] / total * 100.0,
            sums[2] / total * 100.0,
            sums[3] / total * 100.0,
        ])
    }

    /// Coefficient of variation of the per-second total (flatness; paper:
    /// "essentially flat" for Frontend/Cache, diverse for Hadoop).
    pub fn total_cov(&self, role: HostRole) -> Option<f64> {
        let (_, s) = self.series.iter().find(|(r, _)| *r == role)?;
        let totals: Vec<f64> = s.iter().map(|r| r.iter().sum()).collect();
        let n = totals.len() as f64;
        if n == 0.0 {
            return None;
        }
        let mean = totals.iter().sum::<f64>() / n;
        if mean <= 0.0 {
            return None;
        }
        let var = totals.iter().map(|t| (t - mean) * (t - mean)).sum::<f64>() / n;
        Some(var.sqrt() / mean)
    }

    /// ASCII summary.
    pub fn render(&self) -> String {
        let headers = [
            "Type",
            "Rack%",
            "Cluster%",
            "DC%",
            "InterDC%",
            "CoV(total)",
            "Mbps series",
        ];
        let mut rows = Vec::new();
        for (role, s) in &self.series {
            let f = self.locality_fractions(*role).unwrap_or([0.0; 4]);
            let cov = self.total_cov(*role).unwrap_or(f64::NAN);
            let totals: Vec<f64> = s.iter().map(|r| r.iter().sum()).collect();
            rows.push(vec![
                role.label().to_string(),
                num(f[0]),
                num(f[1]),
                num(f[2]),
                num(f[3]),
                num(cov),
                series_row(&totals, 10),
            ]);
        }
        format!(
            "Fig 4: per-second locality (paper: Hadoop rack+cluster local & variable; \
             Web/Cache minimal rack-local & flat)\n{}",
            table(&headers, &rows)
        )
    }
}

// ---------------------------------------------------------------------
// Fig 5
// ---------------------------------------------------------------------

/// Fig 5: demand matrices.
#[derive(Debug, Clone, Serialize)]
pub struct Fig5Report {
    /// Hadoop cluster rack-to-rack matrix stats.
    pub hadoop: MatrixStats,
    /// Frontend cluster rack-to-rack matrix stats.
    pub frontend: MatrixStats,
    /// Cluster-to-cluster matrix stats (within the fleet).
    pub clusters: MatrixStats,
    /// Fraction of frontend intra-cluster bytes flowing between Web racks
    /// and cache racks (the bipartite block of Fig 5b).
    pub frontend_bipartite_fraction: f64,
    /// The frontend matrix itself (row-major), for plotting.
    pub frontend_matrix: Vec<Vec<u64>>,
    /// The Hadoop matrix.
    pub hadoop_matrix: Vec<Vec<u64>>,
}

/// Computes Fig 5 from the fleet tier. Errors if the plant lacks a Hadoop
/// or Frontend cluster (possible with hand-built specs; presets have both).
pub fn fig5(fleet: &FleetData) -> Result<Fig5Report, ReportError> {
    let topo = &fleet.topo;
    let hadoop_cluster = topo
        .first_cluster_of_type(ClusterType::Hadoop)
        .ok_or(ReportError::MissingClusterType(ClusterType::Hadoop))?;
    let fe_cluster = topo
        .first_cluster_of_type(ClusterType::Frontend)
        .ok_or(ReportError::MissingClusterType(ClusterType::Frontend))?;
    let ([hadoop_matrix, frontend_matrix], clusters_m) =
        demand_matrices(&fleet.table, topo, [hadoop_cluster, fe_cluster]);

    // Bipartite fraction: bytes between web racks and cache racks over all
    // intra-cluster bytes.
    let racks = &topo.cluster(fe_cluster).racks;
    let mut web_cache = 0u64;
    let mut total = 0u64;
    for (i, row) in frontend_matrix.iter().enumerate() {
        for (j, &v) in row.iter().enumerate() {
            total += v;
            let ri = topo.rack(racks[i]).role;
            let rj = topo.rack(racks[j]).role;
            let pair = (ri, rj);
            if matches!(
                pair,
                (HostRole::Web, HostRole::CacheFollower) | (HostRole::CacheFollower, HostRole::Web)
            ) {
                web_cache += v;
            }
        }
    }
    Ok(Fig5Report {
        hadoop: MatrixStats::of(&hadoop_matrix),
        frontend: MatrixStats::of(&frontend_matrix),
        clusters: MatrixStats::of(&clusters_m),
        frontend_bipartite_fraction: if total > 0 {
            web_cache as f64 / total as f64
        } else {
            0.0
        },
        frontend_matrix,
        hadoop_matrix,
    })
}

impl Fig5Report {
    /// ASCII summary.
    pub fn render(&self) -> String {
        let headers = ["Matrix", "diag%", "fill%", "decades"];
        let rows = vec![
            vec![
                "Hadoop rack-to-rack".into(),
                num(self.hadoop.diagonal_fraction * 100.0),
                num(self.hadoop.fill * 100.0),
                num(self.hadoop.decades),
            ],
            vec![
                "Frontend rack-to-rack".into(),
                num(self.frontend.diagonal_fraction * 100.0),
                num(self.frontend.fill * 100.0),
                num(self.frontend.decades),
            ],
            vec![
                "Cluster-to-cluster".into(),
                num(self.clusters.diagonal_fraction * 100.0),
                num(self.clusters.fill * 100.0),
                num(self.clusters.decades),
            ],
        ];
        format!(
            "Fig 5: demand matrices (paper: Hadoop strong diagonal; Frontend \
             bipartite web<->cache, not rack-local; cluster pairs span >7 decades)\n{}\
             Frontend web<->cache bipartite share: {}%\n",
            table(&headers, &rows),
            num(self.frontend_bipartite_fraction * 100.0)
        )
    }
}

// ---------------------------------------------------------------------
// Figs 6, 7, 9
// ---------------------------------------------------------------------

/// One [`FlowCdfReport`] row: (role, locality → p10/p50/p90 string,
/// overall CDF quantiles).
pub type FlowCdfRow = (HostRole, Vec<(Locality, String)>, String);

/// Fig 6/7: flow size & duration CDFs by destination locality.
#[derive(Debug, Clone, Serialize)]
pub struct FlowCdfReport {
    /// Which figure ("size KB" or "duration ms").
    pub what: String,
    /// Per role: (locality → p10/p50/p90 string, overall CDF quantiles).
    pub rows: Vec<FlowCdfRow>,
}

fn flow_cdf_report(cap: &StandardCapture, sizes: bool) -> FlowCdfReport {
    // Each role's CDF construction walks its own trace, so the rows fan
    // out across the worker pool; map_indexed keeps them in role order.
    let roles = [HostRole::Web, HostRole::CacheFollower, HostRole::Hadoop];
    let threads = sonet_util::par::resolve_threads(None);
    let rows = sonet_util::par::map_indexed(threads, roles.len(), |i| {
        let role = roles[i];
        let trace = cap.trace(role)?;
        let flows = flow_stats(trace, &cap.topo, FlowAgg::FiveTuple);
        let (per, all) = if sizes {
            size_cdfs_by_locality(&flows)
        } else {
            duration_cdfs_by_locality(&flows)
        };
        let mut per_rows: Vec<(Locality, String)> =
            per.iter().map(|(l, cdf)| (*l, quantiles(cdf))).collect();
        per_rows.sort_by_key(|(l, _)| *l);
        Some((role, per_rows, quantiles(&all)))
    })
    .into_iter()
    .flatten()
    .collect();
    FlowCdfReport {
        what: if sizes {
            "size KB".into()
        } else {
            "duration ms".into()
        },
        rows,
    }
}

/// Computes Fig 6 (flow sizes).
pub fn fig6(cap: &StandardCapture) -> FlowCdfReport {
    flow_cdf_report(cap, true)
}

/// Computes Fig 7 (flow durations).
pub fn fig7(cap: &StandardCapture) -> FlowCdfReport {
    flow_cdf_report(cap, false)
}

impl FlowCdfReport {
    /// ASCII summary.
    pub fn render(&self) -> String {
        let headers = ["Type", "Locality", "p10/p50/p90"];
        let mut rows = Vec::new();
        for (role, per, all) in &self.rows {
            rows.push(vec![role.label().into(), "All".into(), all.clone()]);
            for (l, q) in per {
                rows.push(vec![role.label().into(), l.label().into(), q.clone()]);
            }
        }
        format!(
            "Flow {} CDFs by destination locality\n{}",
            self.what,
            table(&headers, &rows)
        )
    }
}

/// Fig 9: cache-follower flow sizes, 5-tuple vs per-host aggregation.
#[derive(Debug, Clone, Serialize)]
pub struct Fig9Report {
    /// 5-tuple flow size quantiles (KB), all destinations.
    pub five_tuple: String,
    /// Per-destination-host size quantiles (KB), all destinations.
    pub per_host: String,
    /// 5-tuple quantiles restricted to intra-cluster (web-bound) flows —
    /// the mass the paper's Fig 9 is about.
    pub five_tuple_cluster: String,
    /// Per-host quantiles restricted to intra-cluster flows.
    pub per_host_cluster: String,
    /// p90/p10 spread at 5-tuple granularity (intra-cluster).
    pub tuple_spread: f64,
    /// p90/p10 spread at host granularity (intra-cluster; paper: the wide
    /// flow distribution "disappears at host and rack levels, replaced by
    /// a very tight distribution").
    pub host_spread: f64,
}

/// Computes Fig 9 from the cache-follower trace.
pub fn fig9(cap: &StandardCapture) -> Option<Fig9Report> {
    let trace = cap.trace(HostRole::CacheFollower)?;
    let quants = |flows: &[sonet_analysis::FlowStat], cluster_only: bool| {
        let sizes: Vec<f64> = flows
            .iter()
            .filter(|f| {
                !cluster_only || matches!(f.locality, Locality::IntraRack | Locality::IntraCluster)
            })
            .map(|f| f.bytes as f64 / 1000.0)
            .collect();
        let p10 = percentile(&sizes, 10.0).unwrap_or(0.0).max(1e-9);
        let p90 = percentile(&sizes, 90.0).unwrap_or(0.0);
        (EmpiricalCdf::new(sizes), p90 / p10)
    };
    let tuple_flows = flow_stats(trace, &cap.topo, FlowAgg::FiveTuple);
    let host_flows = flow_stats(trace, &cap.topo, FlowAgg::Host);
    let (tuple_all, _) = quants(&tuple_flows, false);
    let (host_all, _) = quants(&host_flows, false);
    let (tuple_cl, tuple_spread) = quants(&tuple_flows, true);
    let (host_cl, host_spread) = quants(&host_flows, true);
    Some(Fig9Report {
        five_tuple: quantiles(&tuple_all),
        per_host: quantiles(&host_all),
        five_tuple_cluster: quantiles(&tuple_cl),
        per_host_cluster: quantiles(&host_cl),
        tuple_spread,
        host_spread,
    })
}

impl Fig9Report {
    /// ASCII summary.
    pub fn render(&self) -> String {
        format!(
            "Fig 9: cache-follower flow sizes (KB)\n\
             all dests    5-tuple p10/p50/p90: {}   per-host: {}\n\
             intra-cluster 5-tuple p10/p50/p90: {}  (p90/p10 spread {})\n\
             intra-cluster per-host p10/p50/p90: {}  (p90/p10 spread {})\n\
             paper: wide 5-tuple distribution collapses to a tight per-host \
             distribution under load balancing\n",
            self.five_tuple,
            self.per_host,
            self.five_tuple_cluster,
            num(self.tuple_spread),
            self.per_host_cluster,
            num(self.host_spread)
        )
    }
}

// ---------------------------------------------------------------------
// Fig 8
// ---------------------------------------------------------------------

/// Fig 8: per-destination-rack rate distributions and stability.
#[derive(Debug, Clone, Serialize)]
pub struct Fig8Report {
    /// Hadoop stability metrics (paper: middle-90 % spans ~6 decades).
    pub hadoop: StabilityMetrics,
    /// Cache-follower stability metrics (paper: ≈90 % within 2× of
    /// median; ≈45 % "significant change").
    pub cache: StabilityMetrics,
    /// Median per-second cache rate in KB/s (paper: ≈250 KB/s ≙ 2 Mbps).
    pub cache_median_rate_kbs: f64,
}

/// Computes Fig 8 from the capture.
pub fn fig8(cap: &StandardCapture) -> Option<Fig8Report> {
    let seconds = cap.duration.as_secs() as usize;
    let hadoop_trace = cap.trace(HostRole::Hadoop)?;
    let cache_trace = cap.trace(HostRole::CacheFollower)?;
    let hadoop = rack_rate_series(hadoop_trace, &cap.topo, seconds);
    let cache = rack_rate_series(cache_trace, &cap.topo, seconds);
    let med = {
        let cdfs = cache.per_second_cdfs();
        let meds: Vec<f64> = cdfs.iter().filter_map(|c| c.median()).collect();
        percentile(&meds, 50.0).unwrap_or(0.0)
    };
    Some(Fig8Report {
        hadoop: hadoop.stability_metrics(),
        cache: cache.stability_metrics(),
        cache_median_rate_kbs: med,
    })
}

impl Fig8Report {
    /// ASCII summary.
    pub fn render(&self) -> String {
        let headers = ["Metric", "Hadoop", "Cache", "Paper (cache)"];
        let rows = vec![
            vec![
                "within 2x of median".into(),
                num(self.hadoop.fraction_within_2x_of_median * 100.0),
                num(self.cache.fraction_within_2x_of_median * 100.0),
                "~90".into(),
            ],
            vec![
                ">20% deviation (significant)".into(),
                num(self.hadoop.fraction_significant_change * 100.0),
                num(self.cache.fraction_significant_change * 100.0),
                "~45".into(),
            ],
            vec![
                "mid-90% span (decades)".into(),
                num(self.hadoop.median_mid90_span_decades),
                num(self.cache.median_mid90_span_decades),
                "<<1 (Hadoop ~6)".into(),
            ],
        ];
        format!(
            "Fig 8: per-destination-rack rate stability (cache median rate {} KB/s)\n{}",
            num(self.cache_median_rate_kbs),
            table(&headers, &rows)
        )
    }
}

// ---------------------------------------------------------------------
// Figs 10, 11
// ---------------------------------------------------------------------

/// Fig 10/11 row: median heavy-hitter persistence / intersection.
#[derive(Debug, Clone, Serialize)]
pub struct HitterDynamicsReport {
    /// "persistence" (Fig 10) or "enclosing-second intersection" (Fig 11).
    pub what: String,
    /// `(role, aggregation, bin ms, median %, p90 %)`.
    pub rows: Vec<(HostRole, HeavyHitterAgg, u64, f64, f64)>,
}

fn hitter_dynamics(
    cap: &StandardCapture,
    roles: &[HostRole],
    enclosing: bool,
) -> HitterDynamicsReport {
    let mut rows = Vec::new();
    for &role in roles {
        let Some(trace) = cap.trace(role) else {
            continue;
        };
        for agg in [
            HeavyHitterAgg::Flow,
            HeavyHitterAgg::Host,
            HeavyHitterAgg::Rack,
        ] {
            for bin_ms in [1u64, 10, 100] {
                let vals = if enclosing {
                    enclosing_second_intersection(
                        trace,
                        &cap.topo,
                        SimDuration::from_millis(bin_ms),
                        agg,
                    )
                } else {
                    persistence_fractions(trace, &cap.topo, SimDuration::from_millis(bin_ms), agg)
                };
                if vals.is_empty() {
                    continue;
                }
                let p50 = percentile(&vals, 50.0).unwrap_or(0.0);
                let p90 = percentile(&vals, 90.0).unwrap_or(0.0);
                rows.push((role, agg, bin_ms, p50, p90));
            }
        }
    }
    HitterDynamicsReport {
        what: if enclosing {
            "enclosing-second intersection".into()
        } else {
            "persistence".into()
        },
        rows,
    }
}

/// Computes Fig 10 (heavy-hitter persistence between intervals).
pub fn fig10(cap: &StandardCapture) -> HitterDynamicsReport {
    hitter_dynamics(
        cap,
        &[
            HostRole::CacheFollower,
            HostRole::CacheLeader,
            HostRole::Web,
        ],
        false,
    )
}

/// Computes Fig 11 (intersection with the enclosing second's hitters).
pub fn fig11(cap: &StandardCapture) -> HitterDynamicsReport {
    hitter_dynamics(cap, &[HostRole::Web, HostRole::CacheFollower], true)
}

impl HitterDynamicsReport {
    /// Median value for a `(role, agg, bin)` cell.
    pub fn median_for(&self, role: HostRole, agg: HeavyHitterAgg, bin_ms: u64) -> Option<f64> {
        self.rows
            .iter()
            .find(|(r, a, b, _, _)| *r == role && *a == agg && *b == bin_ms)
            .map(|(_, _, _, p50, _)| *p50)
    }

    /// ASCII summary.
    pub fn render(&self) -> String {
        let headers = ["Type", "Agg", "bin ms", "median %", "p90 %"];
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|(role, agg, bin, p50, p90)| {
                vec![
                    role.label().into(),
                    agg.label().into(),
                    bin.to_string(),
                    num(*p50),
                    num(*p90),
                ]
            })
            .collect();
        format!(
            "Heavy-hitter {} (paper: flows <=15% median persistence, hosts <=20%, \
             racks 32-60%; rack-level most predictable)\n{}",
            self.what,
            table(&headers, &rows)
        )
    }
}

// ---------------------------------------------------------------------
// §5.4: traffic-engineering predictability
// ---------------------------------------------------------------------

/// §5.4's reactive-TE thought experiment: how much of each interval's
/// traffic would scheduling the previous interval's heavy hitters cover?
#[derive(Debug, Clone, Serialize)]
pub struct TeReport {
    /// `(role, predictability result)` rows across aggregations and bins.
    pub rows: Vec<(HostRole, sonet_analysis::te::TePredictability)>,
}

/// Computes the §5.4 predictability table from the capture.
pub fn te_predictability(cap: &StandardCapture) -> TeReport {
    use sonet_analysis::te::predictability;
    let mut rows = Vec::new();
    for role in [HostRole::Web, HostRole::CacheFollower] {
        let Some(trace) = cap.trace(role) else {
            continue;
        };
        for agg in [
            HeavyHitterAgg::Flow,
            HeavyHitterAgg::Host,
            HeavyHitterAgg::Rack,
        ] {
            for bin_ms in [100u64, 1000] {
                if let Some(p) =
                    predictability(trace, &cap.topo, SimDuration::from_millis(bin_ms), agg)
                {
                    rows.push((role, p));
                }
            }
        }
    }
    TeReport { rows }
}

impl TeReport {
    /// ASCII summary.
    pub fn render(&self) -> String {
        let headers = [
            "Type",
            "Agg",
            "bin ms",
            "median covered %",
            "p10 %",
            ">=35% bar",
        ];
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|(role, p)| {
                vec![
                    role.label().into(),
                    p.agg.label().into(),
                    p.bin_ms.to_string(),
                    num(p.median_covered_pct),
                    num(p.p10_covered_pct),
                    if p.clears_benson_bar() { "yes" } else { "no" }.into(),
                ]
            })
            .collect();
        format!(
            "TE predictability (§5.4: scheduling last interval's heavy hitters; \
             paper: only rack-level reaches Benson's 35% effectiveness bar)\n{}",
            table(&headers, &rows)
        )
    }
}

// ---------------------------------------------------------------------
// Fig 12
// ---------------------------------------------------------------------

/// Fig 12: packet size distributions.
#[derive(Debug, Clone, Serialize)]
pub struct Fig12Report {
    /// `(role, median wire bytes, full-MTU fraction, CDF series)`.
    pub rows: Vec<(HostRole, f64, f64, String)>,
    /// Hadoop bimodality: fraction of packets near ACK or MTU modes.
    pub hadoop_bimodal_fraction: f64,
}

/// Computes Fig 12 from the capture.
pub fn fig12(cap: &StandardCapture) -> Fig12Report {
    let mut rows = Vec::new();
    let mut hadoop_bimodal = 0.0;
    for role in TRACE_ROLES {
        let Some(trace) = cap.trace(role) else {
            continue;
        };
        let cdf = packet_size_cdf(trace);
        let median = cdf.median().unwrap_or(0.0);
        let mtu_frac = full_mtu_fraction(trace, 1500);
        if role == HostRole::Hadoop {
            hadoop_bimodal = bimodal_fraction(trace, 66, 1526, 80);
        }
        rows.push((role, median, mtu_frac, cdf_series(&cdf, 8)));
    }
    Fig12Report {
        rows,
        hadoop_bimodal_fraction: hadoop_bimodal,
    }
}

impl Fig12Report {
    /// Median packet size for a role.
    pub fn median_for(&self, role: HostRole) -> Option<f64> {
        self.rows
            .iter()
            .find(|(r, _, _, _)| *r == role)
            .map(|(_, m, _, _)| *m)
    }

    /// ASCII summary.
    pub fn render(&self) -> String {
        let headers = ["Type", "median B", "full-MTU %", "CDF (bytes, frac)"];
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|(role, m, f, s)| vec![role.label().into(), num(*m), num(f * 100.0), s.clone()])
            .collect();
        format!(
            "Fig 12: packet sizes (paper: non-Hadoop median <200 B with 5-10% \
             full-MTU; Hadoop bimodal ACK/MTU — measured bimodal fraction {}%)\n{}",
            num(self.hadoop_bimodal_fraction * 100.0),
            table(&headers, &rows)
        )
    }
}

// ---------------------------------------------------------------------
// Fig 13
// ---------------------------------------------------------------------

/// Fig 13: Hadoop arrivals are not on/off at 15/100-ms binning.
#[derive(Debug, Clone, Serialize)]
pub struct Fig13Report {
    /// On/off metrics at 15-ms bins.
    pub at_15ms: OnOffMetrics,
    /// On/off metrics at 100-ms bins.
    pub at_100ms: OnOffMetrics,
    /// Median per-destination empty-bin fraction at 15 ms (paper: on/off
    /// "remerges" per destination, so this should be much higher).
    pub per_dest_median_empty: f64,
    /// The 15-ms binned series (packets per bin).
    pub counts_15ms: Vec<u32>,
}

/// Computes Fig 13 from the Hadoop trace.
pub fn fig13(cap: &StandardCapture) -> Option<Fig13Report> {
    let trace = cap.trace(HostRole::Hadoop)?;
    let bins15 = (cap.duration.as_millis() / 15) as usize;
    let bins100 = (cap.duration.as_millis() / 100) as usize;
    let c15 = binned_counts(trace, SimDuration::from_millis(15), bins15);
    let c100 = binned_counts(trace, SimDuration::from_millis(100), bins100);
    let per_dest = per_destination_onoff(trace, SimDuration::from_millis(15), bins15);
    let empties: Vec<f64> = per_dest.iter().map(|m| m.empty_fraction).collect();
    Some(Fig13Report {
        at_15ms: onoff_metrics(&c15),
        at_100ms: onoff_metrics(&c100),
        per_dest_median_empty: percentile(&empties, 50.0).unwrap_or(0.0),
        counts_15ms: c15,
    })
}

impl Fig13Report {
    /// ASCII summary.
    pub fn render(&self) -> String {
        format!(
            "Fig 13: Hadoop arrival structure\n\
             15-ms bins:  empty fraction {} (CoV {})\n\
             100-ms bins: empty fraction {} (CoV {})\n\
             per-destination median empty fraction at 15 ms: {}\n\
             paper: aggregate is NOT on/off, per-destination on/off remerges\n",
            num(self.at_15ms.empty_fraction),
            num(self.at_15ms.cov),
            num(self.at_100ms.empty_fraction),
            num(self.at_100ms.cov),
            num(self.per_dest_median_empty)
        )
    }
}

// ---------------------------------------------------------------------
// Fig 14
// ---------------------------------------------------------------------

/// Fig 14: SYN inter-arrival CDFs.
#[derive(Debug, Clone, Serialize)]
pub struct Fig14Report {
    /// `(role, median inter-arrival ms, CDF series in µs)`.
    pub rows: Vec<(HostRole, f64, String)>,
}

/// Computes Fig 14 from the capture.
pub fn fig14(cap: &StandardCapture) -> Fig14Report {
    let rows = TRACE_ROLES
        .iter()
        .filter_map(|&role| {
            let trace = cap.trace(role)?;
            let cdf = syn_interarrival_cdf(trace);
            let median_ms = cdf.median()? / 1000.0;
            Some((role, median_ms, cdf_series(&cdf, 8)))
        })
        .collect();
    Fig14Report { rows }
}

impl Fig14Report {
    /// Median SYN inter-arrival (ms) for a role.
    pub fn median_for(&self, role: HostRole) -> Option<f64> {
        self.rows
            .iter()
            .find(|(r, _, _)| *r == role)
            .map(|(_, m, _)| *m)
    }

    /// ASCII summary.
    pub fn render(&self) -> String {
        let headers = ["Type", "median ms", "CDF (usec, frac)"];
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|(role, m, s)| vec![role.label().into(), num(*m), s.clone()])
            .collect();
        format!(
            "Fig 14: flow (SYN) inter-arrival (paper medians: Web/Hadoop ~2 ms, \
             Cache-l ~3 ms, Cache-f ~8 ms; pooling stretches cache arrivals)\n{}",
            table(&headers, &rows)
        )
    }
}

// ---------------------------------------------------------------------
// Fig 15
// ---------------------------------------------------------------------

/// Configuration of the buffer-occupancy experiment (its own simulation:
/// diurnally modulated day compressed into `duration`).
#[derive(Debug, Clone)]
pub struct Fig15Config {
    /// Scenario seed.
    pub seed: u64,
    /// Plant scale.
    pub scale: ScenarioScale,
    /// Compressed "day" length.
    pub duration: SimDuration,
    /// Rate multiplier (higher → more buffer pressure).
    pub rate_scale: f64,
    /// Buffer occupancy sampling interval (paper: 10 µs).
    pub sample_interval: SimDuration,
    /// RSW shared-buffer configuration. Production ToRs pair ~12 MB with
    /// full-rate 10-Gbps bursts; our packet rates are scaled down
    /// (DESIGN.md §3), so the buffer scales down with them to preserve
    /// the occupancy *fractions* Fig 15 reports.
    pub rsw_buffer: BufferConfig,
}

impl Fig15Config {
    /// Bench-grade configuration.
    pub fn standard(seed: u64) -> Fig15Config {
        Fig15Config {
            seed,
            scale: ScenarioScale::Standard,
            duration: SimDuration::from_secs(16),
            rate_scale: 40.0,
            sample_interval: SimDuration::from_micros(10),
            rsw_buffer: BufferConfig {
                shared_bytes: 12 << 10,
                alpha: 1.0,
            },
        }
    }

    /// Test-grade configuration.
    pub fn fast(seed: u64) -> Fig15Config {
        Fig15Config {
            seed,
            scale: ScenarioScale::Tiny,
            duration: SimDuration::from_secs(4),
            rate_scale: 20.0,
            sample_interval: SimDuration::from_micros(100),
            rsw_buffer: BufferConfig {
                shared_bytes: 16 << 10,
                alpha: 1.0,
            },
        }
    }
}

/// Fig 15: buffer occupancy vs utilization vs drops over a (compressed)
/// day for a Web rack and a Cache rack.
#[derive(Debug, Clone, Serialize)]
pub struct Fig15Report {
    /// Per second: normalized median occupancy of the Web rack's RSW.
    pub web_median: Vec<f64>,
    /// Per second: normalized maximum occupancy of the Web rack's RSW.
    pub web_max: Vec<f64>,
    /// Per second: normalized median occupancy of the Cache rack's RSW.
    pub cache_median: Vec<f64>,
    /// Per second: normalized maximum occupancy of the Cache rack's RSW.
    pub cache_max: Vec<f64>,
    /// Per second: Web rack host-uplink utilization (fraction, mean over
    /// rack).
    pub web_util: Vec<f64>,
    /// Per second: Cache rack utilization.
    pub cache_util: Vec<f64>,
    /// Per second: egress drops at the Web rack's RSW.
    pub web_drops: Vec<u64>,
    /// Pearson correlation between web max occupancy and web utilization
    /// (the diurnal correlation the paper points out across Fig 15's
    /// panels).
    pub web_occ_util_correlation: f64,
    /// Seconds in which the Web rack's max occupancy exceeded 70 % of the
    /// dynamic-threshold ceiling (a single queue can hold at most
    /// `alpha/(1+alpha)` of the shared pool) while link utilization stayed
    /// under 5 % — the paper's microburst headline ("maximum buffer
    /// occupancy ... approaches the configured limit" at ~1 %
    /// utilization). Exact incast/microburst measurement is listed as
    /// impossible with the paper's host-based methodology (§7);
    /// switch-side sampling makes it directly observable here.
    pub microburst_seconds: usize,
}

/// Runs the Fig 15 experiment. Errors if the plant cannot be built, lacks
/// Web or cache racks, or the simulation setup is rejected.
pub fn fig15(cfg: &Fig15Config) -> Result<Fig15Report, ReportError> {
    let topo = Arc::new(
        Topology::build(packet_tier_spec(cfg.scale))
            .map_err(|e| ReportError::Build(e.to_string()))?,
    );
    let mut profiles = ServiceProfiles::default();
    profiles.rate_scale = cfg.rate_scale;
    profiles.diurnal = DiurnalPattern::compressed(cfg.duration);
    let mut workload = Workload::new(Arc::clone(&topo), profiles, cfg.seed)
        .map_err(|e| ReportError::Build(e.to_string()))?;
    let mirror = PortMirror::new(1); // unused; Fig 15 is switch-side only
    let mut sim_cfg = SimConfig::default();
    sim_cfg.rsw_buffer = cfg.rsw_buffer;
    let mut sim = Simulator::new(Arc::clone(&topo), sim_cfg, mirror)
        .map_err(|e| ReportError::Build(e.to_string()))?;

    // The monitored racks: the first Web rack and the first cache rack.
    let web_rack = topo
        .racks()
        .iter()
        .position(|r| r.role == HostRole::Web)
        .ok_or(ReportError::MissingRole(HostRole::Web))?;
    let cache_rack = topo
        .racks()
        .iter()
        .position(|r| r.role == HostRole::CacheFollower)
        .ok_or(ReportError::MissingRole(HostRole::CacheFollower))?;
    let web_rsw = topo.racks()[web_rack].rsw;
    let cache_rsw = topo.racks()[cache_rack].rsw;
    sim.sample_buffers(
        cfg.sample_interval,
        SimDuration::from_secs(1),
        vec![web_rsw, cache_rsw],
    )
    .map_err(|e| ReportError::Build(e.to_string()))?;

    // Utilization: host access links of both racks.
    let mut util_links = Vec::new();
    for &h in &topo.racks()[web_rack].hosts {
        util_links.push(topo.host_uplink(h));
        util_links.push(topo.host_downlink(h));
    }
    let web_util_count = util_links.len();
    for &h in &topo.racks()[cache_rack].hosts {
        util_links.push(topo.host_uplink(h));
        util_links.push(topo.host_downlink(h));
    }
    sim.track_utilization(SimDuration::from_secs(1), &util_links)
        .map_err(|e| ReportError::Build(e.to_string()))?;

    // Egress links of the web RSW (drop counters).
    let web_egress: Vec<_> = topo
        .links()
        .iter()
        .enumerate()
        .filter(|(_, l)| l.from == Node::Switch(web_rsw))
        .map(|(i, _)| sonet_topology::LinkId(i as u32))
        .collect();

    // Drive second by second, polling drop counters.
    let seconds = cfg.duration.as_secs() as usize;
    let mut web_drops = Vec::with_capacity(seconds);
    let mut last_drops = 0u64;
    for s in 1..=seconds {
        let t = SimTime::from_secs(s as u64);
        workload
            .generate(&mut sim, t)
            .map_err(|e| ReportError::Build(e.to_string()))?;
        sim.run_until(t);
        let total: u64 = web_egress
            .iter()
            .map(|&l| sim.link_counters(l).drop_packets)
            .sum();
        web_drops.push(total - last_drops);
        last_drops = total;
    }
    let (outputs, _) = sim.finish();

    // Split buffer windows per switch.
    let mut web_median = Vec::new();
    let mut web_max = Vec::new();
    let mut cache_median = Vec::new();
    let mut cache_max = Vec::new();
    for w in &outputs.buffer_stats {
        let cap_b = w.capacity as f64;
        if w.switch == web_rsw {
            web_median.push(w.median as f64 / cap_b);
            web_max.push(w.max as f64 / cap_b);
        } else if w.switch == cache_rsw {
            cache_median.push(w.median as f64 / cap_b);
            cache_max.push(w.max as f64 / cap_b);
        }
    }

    // Per-second utilization: average across each rack's access links.
    let util_of = |links: &[sonet_topology::LinkId]| -> Vec<f64> {
        let mut acc = vec![0.0f64; seconds];
        let mut n = 0usize;
        for &l in links {
            if let Some(series) = outputs.util_series.get(&l) {
                let cap_bps = topo.links()[l.index()].gbps * 1e9;
                for (i, &b) in series.iter().take(seconds).enumerate() {
                    acc[i] += b as f64 * 8.0 / cap_bps;
                }
                n += 1;
            }
        }
        if n > 0 {
            for v in &mut acc {
                *v /= n as f64;
            }
        }
        acc
    };
    let web_util = util_of(&util_links[..web_util_count]);
    let cache_util = util_of(&util_links[web_util_count..]);

    let corr = pearson(&web_max, &web_util);
    // A single egress queue saturates at alpha/(1+alpha) of the shared
    // pool under DT admission; "near the limit" means near that ceiling.
    let dt_ceiling = cfg.rsw_buffer.dt_ceiling();
    let microburst_seconds = web_max
        .iter()
        .zip(web_util.iter().chain(std::iter::repeat(&0.0)))
        .filter(|(&occ, &util)| occ > 0.7 * dt_ceiling && util < 0.05)
        .count();
    Ok(Fig15Report {
        web_median,
        web_max,
        cache_median,
        cache_max,
        web_util,
        cache_util,
        web_drops,
        web_occ_util_correlation: corr,
        microburst_seconds,
    })
}

fn pearson(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len().min(b.len());
    if n < 2 {
        return 0.0;
    }
    let (a, b) = (&a[..n], &b[..n]);
    let ma = a.iter().sum::<f64>() / n as f64;
    let mb = b.iter().sum::<f64>() / n as f64;
    let mut cov = 0.0;
    let mut va = 0.0;
    let mut vb = 0.0;
    for i in 0..n {
        cov += (a[i] - ma) * (b[i] - mb);
        va += (a[i] - ma) * (a[i] - ma);
        vb += (b[i] - mb) * (b[i] - mb);
    }
    if va <= 0.0 || vb <= 0.0 {
        return 0.0;
    }
    cov / (va.sqrt() * vb.sqrt())
}

impl Fig15Report {
    /// ASCII summary (occupancy and utilization as percentages).
    pub fn render(&self) -> String {
        let pct = |v: &[f64]| -> Vec<f64> { v.iter().map(|x| x * 100.0).collect() };
        format!(
            "Fig 15: buffer occupancy / utilization / drops (compressed day)\n\
             web rack   median occ %: {}\n\
             web rack   max occ %:    {}\n\
             cache rack median occ %: {}\n\
             cache rack max occ %:    {}\n\
             web rack   utilization %: {}\n\
             cache rack utilization %: {}\n\
             web rack   drops/s:       {}\n\
             occ-vs-util correlation (web): {}   microburst seconds: {}\n\
             paper: web rack max occupancy near limit despite ~1% utilization; \
             diurnal correlation across all three panels\n",
            series_row(&pct(&self.web_median), 12),
            series_row(&pct(&self.web_max), 12),
            series_row(&pct(&self.cache_median), 12),
            series_row(&pct(&self.cache_max), 12),
            series_row(&pct(&self.web_util), 12),
            series_row(&pct(&self.cache_util), 12),
            series_row(
                &self.web_drops.iter().map(|&d| d as f64).collect::<Vec<_>>(),
                12
            ),
            num(self.web_occ_util_correlation),
            self.microburst_seconds
        )
    }
}

// ---------------------------------------------------------------------
// Figs 16, 17
// ---------------------------------------------------------------------

/// Fig 16/17: concurrency in 5-ms windows.
#[derive(Debug, Clone, Serialize)]
pub struct ConcurrencyReport {
    /// "all racks" (Fig 16) or "heavy-hitter racks" (Fig 17).
    pub what: String,
    /// `(role, scope label, p10/p50/p90 of per-window counts)`.
    pub rows: Vec<(HostRole, String, String)>,
    /// Median concurrent 5-tuple connections per role (§6.4 text).
    pub median_flows: Vec<(HostRole, f64)>,
}

fn concurrency_report(cap: &StandardCapture, heavy_only: bool) -> ConcurrencyReport {
    let window = SimDuration::from_millis(5);
    let roles = [
        HostRole::Web,
        HostRole::CacheFollower,
        HostRole::CacheLeader,
    ];
    let mut rows = Vec::new();
    let mut median_flows = Vec::new();
    for role in roles {
        let Some(trace) = cap.trace(role) else {
            continue;
        };
        let cdfs = if heavy_only {
            heavy_hitter_rack_cdfs(trace, &cap.topo, window)
        } else {
            concurrency_cdfs(trace, &cap.topo, window, CountEntity::Racks)
        };
        for (label, cdf) in [
            ("Intra-Cluster", &cdfs.intra_cluster),
            ("Intra-Datacenter", &cdfs.intra_datacenter),
            ("Inter-Datacenter", &cdfs.inter_datacenter),
            ("All", &cdfs.all),
        ] {
            rows.push((role, label.to_string(), quantiles(cdf)));
        }
        if !heavy_only {
            let flows = concurrency_cdfs(trace, &cap.topo, window, CountEntity::Flows);
            median_flows.push((role, flows.all.median().unwrap_or(0.0)));
        }
    }
    ConcurrencyReport {
        what: if heavy_only {
            "heavy-hitter racks".into()
        } else {
            "racks".into()
        },
        rows,
        median_flows,
    }
}

/// Computes Fig 16 (concurrent rack-level flows in 5-ms windows).
pub fn fig16(cap: &StandardCapture) -> ConcurrencyReport {
    concurrency_report(cap, false)
}

/// Computes Fig 17 (concurrent heavy-hitter racks in 5-ms windows).
pub fn fig17(cap: &StandardCapture) -> ConcurrencyReport {
    concurrency_report(cap, true)
}

impl ConcurrencyReport {
    /// ASCII summary.
    pub fn render(&self) -> String {
        let headers = ["Type", "Scope", "p10/p50/p90"];
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|(role, scope, q)| vec![role.label().into(), scope.clone(), q.clone()])
            .collect();
        let mut s = format!(
            "Concurrent {} per 5-ms window (counts scale with plant size; \
             paper ordering: cache-f > cache-l > web)\n{}",
            self.what,
            table(&headers, &rows)
        );
        if !self.median_flows.is_empty() {
            s.push_str("median concurrent 5-tuple connections: ");
            s.push_str(
                &self
                    .median_flows
                    .iter()
                    .map(|(r, m)| format!("{}={}", r.label(), num(*m)))
                    .collect::<Vec<_>>()
                    .join(" "),
            );
            s.push('\n');
        }
        s
    }
}

// ---------------------------------------------------------------------
// Utilization summary (§4.1, supports Fig 15 and the provisioning story)
// ---------------------------------------------------------------------

/// §4.1-style utilization rollup per fabric layer.
#[derive(Debug, Clone, Serialize)]
pub struct UtilizationReport {
    /// `(layer label, mean %, p99 %)` across active links.
    pub rows: Vec<(String, f64, f64)>,
}

/// Computes the utilization rollup from the capture.
pub fn utilization(cap: &StandardCapture) -> UtilizationReport {
    let mut rows = Vec::new();
    for (layer, label) in [
        (LinkLayer::Edge, "host<->RSW"),
        (LinkLayer::RswCsw, "RSW<->CSW"),
        (LinkLayer::CswFc, "CSW<->FC"),
    ] {
        if let Some(s) = layer_utilization(&cap.topo, &cap.outputs, layer, cap.duration, true) {
            rows.push((label.to_string(), s.mean * 100.0, s.p99 * 100.0));
        }
    }
    UtilizationReport { rows }
}

impl UtilizationReport {
    /// ASCII summary.
    pub fn render(&self) -> String {
        let headers = ["Layer", "mean %", "p99 %"];
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|(l, m, p)| vec![l.clone(), num(*m), num(*p)])
            .collect();
        format!(
            "Link utilization by layer (paper: edge <1% avg, 99% of links <10%; \
             utilization rises with aggregation)\n{}",
            table(&headers, &rows)
        )
    }
}

// ---------------------------------------------------------------------
// Degradation (fault injection)
// ---------------------------------------------------------------------

/// Graceful-degradation rollup of a faulted capture: what the injected
/// failures cost the plant and the telemetry, and how the transport
/// absorbed them. All quantities are zero on a healthy baseline.
#[derive(Debug, Clone, Serialize)]
pub struct DegradationReport {
    /// Fault events the engine applied.
    pub faults_applied: u64,
    /// Connections successfully re-hashed onto surviving ECMP paths.
    pub reroutes: u64,
    /// Reroute attempts that found no healthy path.
    pub reroute_failures: u64,
    /// Packets lost on dead links (vs. buffer drops, counted separately).
    pub fault_dropped_packets: u64,
    /// Bytes lost on dead links.
    pub fault_dropped_bytes: u64,
    /// Handshakes abandoned after the SYN retry budget.
    pub failed_handshakes: u64,
    /// Connections aborted by the broken-route RTO cap.
    pub aborted_connections: u64,
    /// Mirrored packets lost to the mirror's memory limit.
    pub mirror_overflow: u64,
    /// Mirrored packets lost to injected capture faults.
    pub mirror_fault_dropped: u64,
    /// Fraction of offered mirror traffic lost to injected faults.
    pub telemetry_loss_fraction: f64,
}

/// Computes the degradation rollup from a capture.
pub fn degradation(cap: &StandardCapture) -> DegradationReport {
    let out = &cap.outputs;
    let fault_dropped_packets: u64 = out.link_counters.iter().map(|c| c.fault_drop_packets).sum();
    let fault_dropped_bytes: u64 = out.link_counters.iter().map(|c| c.fault_drop_bytes).sum();
    let telemetry_loss_fraction = if cap.mirror_offered > 0 {
        cap.mirror_fault_dropped as f64 / cap.mirror_offered as f64
    } else {
        0.0
    };
    DegradationReport {
        faults_applied: out.faults_applied,
        reroutes: out.reroutes,
        reroute_failures: out.reroute_failures,
        fault_dropped_packets,
        fault_dropped_bytes,
        failed_handshakes: out.failed_handshakes,
        aborted_connections: out.aborted_connections,
        mirror_overflow: cap.mirror_overflow,
        mirror_fault_dropped: cap.mirror_fault_dropped,
        telemetry_loss_fraction,
    }
}

impl DegradationReport {
    /// True when the run saw no faults at all.
    pub fn is_clean(&self) -> bool {
        self.faults_applied == 0 && self.mirror_fault_dropped == 0
    }

    /// Publishes the rollup into the flight-recorder metrics registry so
    /// `RUNINFO.json` records *why* a run degraded, not just that it did.
    pub fn publish_obs(&self) {
        use sonet_util::obs;
        obs::gauge_set!("degradation.faults_applied", self.faults_applied);
        obs::gauge_set!("degradation.reroutes", self.reroutes);
        obs::gauge_set!("degradation.reroute_failures", self.reroute_failures);
        obs::gauge_set!(
            "degradation.fault_dropped_packets",
            self.fault_dropped_packets
        );
        obs::gauge_set!("degradation.failed_handshakes", self.failed_handshakes);
        obs::gauge_set!("degradation.aborted_connections", self.aborted_connections);
        obs::gauge_set!("degradation.mirror_overflow", self.mirror_overflow);
        obs::gauge_set!(
            "degradation.mirror_fault_dropped",
            self.mirror_fault_dropped
        );
        obs::gauge_set!(
            "degradation.telemetry_loss_permille",
            (self.telemetry_loss_fraction * 1000.0).round() as u64
        );
    }

    /// One-line rollup for run-manifest notes.
    pub fn summary_line(&self) -> String {
        format!(
            "faults={} reroutes={} reroute_failures={} fault_drops={} \
             failed_handshakes={} aborted_conns={} mirror_overflow={} \
             mirror_fault_drops={} telemetry_loss={:.3}",
            self.faults_applied,
            self.reroutes,
            self.reroute_failures,
            self.fault_dropped_packets,
            self.failed_handshakes,
            self.aborted_connections,
            self.mirror_overflow,
            self.mirror_fault_dropped,
            self.telemetry_loss_fraction,
        )
    }

    /// ASCII summary.
    pub fn render(&self) -> String {
        let headers = ["Quantity", "Value"];
        let rows: Vec<Vec<String>> = vec![
            vec!["faults applied".into(), self.faults_applied.to_string()],
            vec!["connections rerouted".into(), self.reroutes.to_string()],
            vec!["reroute failures".into(), self.reroute_failures.to_string()],
            vec![
                "packets lost to faults".into(),
                self.fault_dropped_packets.to_string(),
            ],
            vec![
                "bytes lost to faults".into(),
                self.fault_dropped_bytes.to_string(),
            ],
            vec![
                "failed handshakes".into(),
                self.failed_handshakes.to_string(),
            ],
            vec![
                "aborted connections".into(),
                self.aborted_connections.to_string(),
            ],
            vec!["mirror overflow".into(), self.mirror_overflow.to_string()],
            vec![
                "mirror fault drops".into(),
                self.mirror_fault_dropped.to_string(),
            ],
            vec![
                "telemetry loss %".into(),
                num(self.telemetry_loss_fraction * 100.0),
            ],
        ];
        format!(
            "Degradation under injected faults (dead links eat packets, ECMP \
             re-hashes around failures, telemetry losses are counted)\n{}",
            table(&headers, &rows)
        )
    }
}
