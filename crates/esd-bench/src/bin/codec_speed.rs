//! Encode and decode throughput of the JSON codec, in MB/s of JSON text,
//! on the documents a debugging request carries: one wire `Submit` per
//! real-bug analog, a listing1 `Outcome`, and an executor snapshot holding
//! a running race-detection job (see `esd_bench::codec`).
//!
//! Each figure is the median of 7 timed batches of about 10 ms each, after
//! one warm-up batch. Takes no arguments: any argument prints a usage line
//! and exits 2.

use esd_bench::codec::{
    listing1_outcome, running_race_executor, snapshot_without_clocks, submit_requests,
};
use esd_service::WireResponse;
use serde::{Deserialize, Serialize};
use std::hint::black_box;
use std::time::{Duration, Instant};

const BATCHES: usize = 7;
const BATCH: Duration = Duration::from_millis(10);

/// Median MB/s of `op` over `bytes` of JSON per call.
fn throughput(bytes: usize, mut op: impl FnMut()) -> f64 {
    let mut batch = || {
        let start = Instant::now();
        let mut calls = 0u64;
        while start.elapsed() < BATCH {
            op();
            calls += 1;
        }
        (bytes as f64 * calls as f64) / start.elapsed().as_secs_f64() / 1e6
    };
    batch();
    let mut rates: Vec<f64> = (0..BATCHES).map(|_| batch()).collect();
    rates.sort_by(f64::total_cmp);
    rates[BATCHES / 2]
}

fn row<T: Serialize + Deserialize>(name: &str, value: &T) {
    let text = serde_json::to_string(value).expect("the document serializes");
    let encode = throughput(text.len(), || {
        black_box(serde_json::to_string(black_box(value)).expect("serializes"));
    });
    let decode = throughput(text.len(), || {
        black_box(serde_json::from_str::<T>(black_box(&text)).expect("decodes"));
    });
    println!("{name:<26} {:>8} {encode:>12.1} {decode:>12.1}", text.len());
}

fn main() {
    esd_bench::reject_args("codec_speed");
    println!("{:<26} {:>8} {:>12} {:>12}", "document", "bytes", "encode MB/s", "decode MB/s");
    for (name, request) in submit_requests() {
        row(&format!("submit {name}"), &request);
    }
    let outcome = WireResponse::Outcome { outcome: Box::new(Some(listing1_outcome())) };
    row("outcome listing1", &outcome);
    let (exec, _) = running_race_executor();
    row("snapshot running race", &snapshot_without_clocks(&exec));
}
