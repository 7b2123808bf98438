//! The coordinator replay of the traced `serve-broad` run: the first
//! `REPLAY` queries again through an in-process 2-shard
//! `Coordinator` over the same corpus. Reported, not gated.

use std::time::Instant;

use warptree::coord::{merge_threshold, parse_matches, CoordConfig, Coordinator};
use warptree::disk::{
    build_dir_backend_with, real_vfs, write_shard_manifest, ShardManifest, ShardMeta, TreeKind,
};
use warptree::prelude::{BackendKind, Categorization};
use warptree::server::{json, Client, Json};

use crate::common::{digest, ms_since, ratio};
use crate::inputs::{slice, Inputs, BUILD_BATCH, CATEGORIES};
use crate::report::Outcome;
use crate::serve_run::{start_server, wire_matches};
use crate::stats::median;
use crate::tmp::TempRoot;

/// Queries replayed through the coordinator.
const REPLAY: usize = 40;

/// Replays `bodies[..REPLAY]` through a 2-shard coordinator and through
/// `mono` (the monolithic server the run measured), sets the `coord.*`
/// metrics, and returns how many merged answers differ from `expected`.
pub fn replay(
    inputs: &Inputs,
    mono: &mut Client,
    bodies: &[String],
    expected: &[Option<u64>],
    tmp: &mut TempRoot,
    out: &mut Outcome,
) -> u64 {
    // Two contiguous, value-balanced shards under ONE alphabet, as
    // `warptree shard-init --shards 2` lays them out.
    let store = &inputs.store;
    let half = store.total_len() / 2;
    let mut seen = 0;
    let cut = store
        .iter()
        .position(|(_, s)| {
            seen += s.len() as u64;
            seen >= half
        })
        .map_or(store.len() / 2, |i| i + 1)
        .clamp(1, store.len() - 1);
    let alphabet = Categorization::MaxEntropy(CATEGORIES)
        .alphabet(store)
        .expect("generated corpus categorizes");
    let cluster = tmp.fresh();
    let mut metas = Vec::new();
    for (i, range) in [0..cut, cut..store.len()].into_iter().enumerate() {
        let part = slice(store, range.clone());
        let dir = format!("shard-{i:04}");
        build_dir_backend_with(
            real_vfs(),
            &part,
            &alphabet,
            TreeKind::Sparse,
            BUILD_BATCH,
            1,
            None,
            BackendKind::Tree,
            &cluster.join(&dir),
        )
        .expect("building a shard directory");
        metas.push(ShardMeta {
            dir,
            start_seq: range.start as u32,
            seq_count: range.len() as u32,
            values: part.total_len(),
        });
    }
    let manifest = ShardManifest {
        generation: 1,
        shards: metas,
    };
    write_shard_manifest(&cluster, &manifest).expect("writing the SHARDS manifest");

    let mut shards: Vec<_> = manifest
        .shards
        .iter()
        .map(|m| start_server(&cluster.join(&m.dir)))
        .collect();
    let coord = Coordinator::start(
        &cluster,
        CoordConfig {
            shard_addrs: shards
                .iter()
                .map(|(h, _, _)| h.addr().to_string())
                .collect(),
            ..CoordConfig::default()
        },
    )
    .expect("starting the in-process coordinator");
    let mut client = Client::connect(coord.addr()).expect("connecting to the coordinator");

    let (mut via_coord, mut via_mono) = (Vec::new(), Vec::new());
    let (mut parse_ms, mut merge_ms, mut skew) = (Vec::new(), Vec::new(), Vec::new());
    let mut differ = 0;
    for (i, body) in bodies.iter().enumerate().take(REPLAY) {
        let t = Instant::now();
        let merged = client.request(body);
        via_coord.push(ms_since(t));
        let t = Instant::now();
        let single = mono.request(body);
        via_mono.push(ms_since(t));
        let merged = merged
            .ok()
            .as_ref()
            .and_then(wire_matches)
            .map(|m| digest(&m));
        let single = single
            .ok()
            .as_ref()
            .and_then(wire_matches)
            .map(|m| digest(&m));
        if merged.is_none() || merged != single || expected[i].is_some_and(|e| Some(e) != merged) {
            differ += 1;
        }

        // The coordinator's own gather steps, on the shards' replies.
        let (mut per_shard, mut service) = (Vec::new(), Vec::new());
        let mut parse = 0.0;
        for ((_, shard, _), meta) in shards.iter_mut().zip(&manifest.shards) {
            let raw = shard.request_raw(body).unwrap_or_default();
            let t = Instant::now();
            let v = json::parse(&raw).unwrap_or(Json::Null);
            let matches = v
                .get("matches")
                .and_then(|m| parse_matches(m, meta.start_seq).ok());
            parse += ms_since(t);
            per_shard.push(matches.unwrap_or_default());
            let ns = v
                .get("timings")
                .and_then(|t| t.get("service_ns"))
                .and_then(Json::as_f64);
            service.push(ns.unwrap_or(0.0));
        }
        parse_ms.push(parse);
        let t = Instant::now();
        let all = merge_threshold(per_shard);
        merge_ms.push(ms_since(t));
        if Some(digest(&all)) != merged {
            differ += 1;
        }
        let mean = service.iter().sum::<f64>() / service.len() as f64;
        skew.push(ratio(service.iter().copied().fold(0.0, f64::max), mean));
    }
    out.set(
        "coord.overhead_ms_p50",
        median(&via_coord) - median(&via_mono),
    );
    out.set("coord.merge.parse_ms_p50", median(&parse_ms));
    out.set("coord.merge.merge_ms_p50", median(&merge_ms));
    out.set("coord.fanout_skew_ratio", median(&skew));
    out.note(
        "coord_replay",
        format!("{} queries, 2 shards", via_coord.len()),
    );

    drop(client);
    coord.stop();
    for (handle, client, _) in shards.drain(..) {
        drop(client);
        handle.stop();
    }
    differ
}
