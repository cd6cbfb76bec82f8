//! Every metric the benchmark prints, with its unit — the same names and
//! units `BENCHMARK.json` lists (a test holds the two together).

/// `--trace 0`: what a user of the system sees.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("cpu_us_per_op", "us"),
    ("p50_ms", "ms"),
    ("rss_peak_mb", "MiB"),
];

/// `--trace 1`: the per-layer ledger, layer names being the repository's
/// modules.
pub const PER_LAYER: [(&str, &str); 57] = [
    ("crypto.sha1_64B_ns", "ns"),
    ("crypto.sha1_4KiB_ns", "ns"),
    ("crypto.hmac_sha1_64B_ns", "ns"),
    ("crypto.hmac_sha1_4KiB_ns", "ns"),
    ("crypto.mac_verify_64B_ns", "ns"),
    ("crypto.hash_vector_n4_64B_ns", "ns"),
    ("transport.hub_oneway_64B_ns", "ns"),
    ("transport.auth_oneway_64B_ns", "ns"),
    ("transport.auth_oneway_4KiB_ns", "ns"),
    ("transport.frames_per_op", "frames/op"),
    ("transport.bytes_per_op", "B/op"),
    ("transport.mac_rejected", "count"),
    ("codec.ab_frame_encode_ns", "ns"),
    ("codec.ab_frame_decode_ns", "ns"),
    ("rb.instance_us", "us"),
    ("rb.frames", "count"),
    ("rb.bytes", "B"),
    ("eb.instance_us", "us"),
    ("eb.frames", "count"),
    ("eb.bytes", "B"),
    ("bc.instance_us", "us"),
    ("bc.frames", "count"),
    ("bc.rounds", "count"),
    ("mvc.instance_us", "us"),
    ("mvc.frames", "count"),
    ("vc.instance_us", "us"),
    ("vc.frames", "count"),
    ("ab.instance_us", "us"),
    ("ab.frames", "count"),
    ("ab.batch_commands_mean", "count"),
    ("ab.agreements_per_op", "1/op"),
    ("ab.flush_size_share", "share"),
    ("ab.flush_age_share", "share"),
    ("ab.flush_idle_share", "share"),
    ("bc.rounds_max", "count"),
    ("stack.handle_frame_ns", "ns"),
    ("stack.frames_per_op", "frames/op"),
    ("stack.bytes_per_op", "B/op"),
    ("stack.poll_ns_per_op", "ns"),
    ("node.submit_call_us", "us"),
    ("node.p99_ms", "ms"),
    ("node.runtime_us_per_op", "us"),
    ("rsm.submit_sync_ms", "ms"),
    ("rsm.applied_per_op", "1/op"),
    ("service.replica_submit_ms", "ms"),
    ("service.edge_ms", "ms"),
    ("service.invoke_p99_ms", "ms"),
    ("service.read_p50_ms", "ms"),
    ("service.read_p99_ms", "ms"),
    ("service.wire_seal_open_64B_ns", "ns"),
    ("service.client_retries", "count"),
    ("service.vote_failures", "count"),
    ("service.dedup_hits", "count"),
    ("service.duplicate_applies", "count"),
    ("metrics.tracing_cost_pct", "%"),
    ("bench.trace_overhead_pct", "%"),
    ("ledger.coverage_pct", "%"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::load::WORKLOADS;

    /// The `"name"`/`"unit"` pairs of the objects in one top-level array
    /// of `BENCHMARK.json` (workloads have no unit).
    fn listed(json: &str, section: &str) -> Vec<(String, Option<String>)> {
        let start = json
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("section closes")];
        let field = |obj: &str, key: &str| {
            let at = obj.find(&format!("\"{key}\""))?;
            let rest = &obj[at + key.len() + 2..];
            let open = rest.find('"')? + 1;
            let len = rest[open..].find('"')?;
            Some(rest[open..open + len].to_string())
        };
        body.split('{')
            .skip(1)
            .map(|obj| (field(obj, "name").expect("name"), field(obj, "unit")))
            .collect()
    }

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn printed_names_are_exactly_those_benchmark_json_lists() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let pairs = |table: &[(&str, &str)]| -> Vec<(String, Option<String>)> {
            table
                .iter()
                .map(|(n, u)| (n.to_string(), Some(u.to_string())))
                .collect()
        };
        assert_eq!(listed(&json, "end_to_end"), pairs(&END_TO_END));
        assert_eq!(listed(&json, "per_layer"), pairs(&PER_LAYER));
        let workloads: Vec<_> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), None))
            .collect();
        assert_eq!(listed(&json, "workloads"), workloads);
        for (name, _) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(well_formed(name), "{name}");
        }
        for w in &WORKLOADS {
            assert!(well_formed(w.name), "{}", w.name);
        }
        let mut all: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.0).collect();
        all.extend(WORKLOADS.iter().map(|w| w.name));
        all.sort_unstable();
        assert!(all.windows(2).all(|w| w[0] != w[1]), "a name is used twice");
    }
}
