//! The metric tables: one row per name the benchmark reports.  The root
//! `BENCHMARK.json` mirrors these tables (the smoke test checks it does).

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// Every workload reports every one of these (with tracing off).
pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_us_per_op",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "write_p10_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "read_p10_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "scan_p10_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "join_p10_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "mem_bytes_per_row",
        unit: "bytes",
        better: Better::Lower,
        bound: 0.02,
    },
];

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

use Better::{Higher, Lower};

/// Every workload's traced run reports every one of these.  Times are ns
/// per call at the layer's public boundary, read at the quiet percentile
/// (`stats::QUIET_PERCENTILE`), unless the name says otherwise; README.md
/// lists which end-to-end metric each should move.
pub const PER_LAYER: [PerLayer; 49] = [
    layer("core.shard_insert_ns", "ns", Lower),
    layer("core.shard_remove_ns", "ns", Lower),
    layer("core.shard_point_ns", "ns", Lower),
    layer("core.shard_group_ns", "ns", Lower),
    layer("core.maintainer_insert_ns", "ns", Lower),
    layer("core.allocs_per_insert", "count", Lower),
    layer("core.live_bytes_per_row", "bytes", Lower),
    layer("store.apply1_ns", "ns", Lower),
    layer("store.apply64_ns", "ns", Lower),
    layer("store.apply4096_ns", "ns", Lower),
    layer("store.query_point_ns", "ns", Lower),
    layer("store.query_group_ns", "ns", Lower),
    layer("store.allocs_per_op1", "count", Lower),
    layer("store.accepted", "count", Higher),
    layer("store.rejected", "count", Higher),
    layer("store.duplicate", "count", Higher),
    layer("store.removed", "count", Higher),
    layer("wal.append_never_ns", "ns", Lower),
    layer("wal.batch4096_ns", "ns", Lower),
    layer("wal.always_ns", "ns", Lower),
    layer("wal.name_append_ns", "ns", Lower),
    layer("wal.device_fsync_us", "us", Lower),
    layer("wal.fsyncs_per_kop", "count", Lower),
    layer("wal.bytes_per_op", "bytes", Lower),
    layer("wal.names_bytes_per_name", "bytes", Lower),
    layer("wal.checkpoint_ms", "ms", Lower),
    layer("wal.disk_bytes_per_user_byte", "ratio", Lower),
    layer("wal.recover_rows_per_s", "1/s", Higher),
    layer("api.intern_ns", "ns", Lower),
    layer("api.shared_insert_ns", "ns", Lower),
    layer("api.shared_insert_durable_ns", "ns", Lower),
    layer("api.query_plan_render_ns", "ns", Lower),
    layer("api.join_ns", "ns", Lower),
    layer("api.join_tuples_shipped", "count", Lower),
    layer("api.join_keys_shipped", "count", Lower),
    layer("api.pool_bytes_per_name", "bytes", Lower),
    layer("server.codec_write_ns", "ns", Lower),
    layer("server.codec_point_ns", "ns", Lower),
    layer("server.codec_group_ns", "ns", Lower),
    layer("server.bytes_in_per_op", "bytes", Lower),
    layer("server.bytes_out_per_op", "bytes", Lower),
    layer("server.shed", "count", Lower),
    layer("client.w1_ns", "ns", Lower),
    layer("client.w64_ns", "ns", Lower),
    layer("client.transport_w1_ns", "ns", Lower),
    layer("client.transport_w64_ns", "ns", Lower),
    layer("client.w1_p99_us", "us", Lower),
    layer("ledger.attributed_share", "ratio", Higher),
    layer("trace.overhead_share", "ratio", Lower),
];
