//! End-to-end service test over the real simulation backend: a
//! [`fuse::runner::ServeBackend`] under the smoke budget served over
//! authenticated TCP loopback, driven through the retrying client —
//! the same wiring `fusesim serve --listen` / `fusesim submit --addr`
//! use, minus the process boundary.

use std::sync::Arc;
use std::time::Duration;

use fuse::core::config::L1Preset;
use fuse::runner::{RunConfig, ServeBackend};
use fuse::serve::transport::MAX_LINE_BYTES;
use fuse::serve::{
    client, ClientConfig, Listener, ResultCache, ServeOptions, Server, ServerConfig,
};

/// The request-line cap leaves wide margin over the largest legal
/// `SWEEP`: every workload under every preset.
#[test]
fn the_full_grid_sweep_fits_the_request_line_cap() {
    let cells: Vec<String> = fuse::workloads::all_workloads()
        .iter()
        .flat_map(|w| {
            L1Preset::ALL
                .iter()
                .map(move |p| format!("{}/{}", w.name, p.name()))
        })
        .collect();
    let line = format!("SWEEP {}", cells.join(" "));
    assert!(
        line.len() * 8 < MAX_LINE_BYTES,
        "{} bytes for the full grid",
        line.len()
    );
}

#[test]
fn tcp_service_simulates_caches_and_shuts_down_cleanly() {
    let dir = std::env::temp_dir().join(format!("fuse_serve_e2e_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = Arc::new(ResultCache::open(&dir, None).expect("cache opens"));
    let server = Arc::new(Server::new(
        Arc::new(ServeBackend::new(RunConfig::smoke())),
        cache,
        ServerConfig::default(),
    ));
    let listener = Listener::bind_tcp("127.0.0.1:0").expect("bind loopback");
    let endpoint = listener.endpoint();
    let opts = ServeOptions {
        auth_token: Some("e2e-secret".to_string()),
        ..ServeOptions::default()
    };
    let acceptor = {
        let server = server.clone();
        std::thread::spawn(move || server.serve(&listener, &opts))
    };

    let mut cfg = ClientConfig::new(endpoint);
    cfg.auth_token = Some("e2e-secret".to_string());
    cfg.io_timeout = Duration::from_secs(120);

    assert_eq!(client::request(&cfg, "PING").unwrap(), vec!["PONG"]);

    // Cold: both cells simulate on the real engine.
    let cold = client::request(&cfg, "SWEEP ATAX/Dy-FUSE ATAX/L1-SRAM").unwrap();
    assert_eq!(
        cold.last().unwrap(),
        "DONE hits=0 misses=2 errors=0",
        "{cold:?}"
    );
    assert!(
        cold[0].starts_with("CELL ATAX/Dy-FUSE computed key="),
        "{cold:?}"
    );

    // Warm: same sweep is all store hits with identical result lines
    // (modulo the cached/computed marker).
    let warm = client::request(&cfg, "SWEEP ATAX/Dy-FUSE ATAX/L1-SRAM").unwrap();
    assert_eq!(
        warm.last().unwrap(),
        "DONE hits=2 misses=0 errors=0",
        "{warm:?}"
    );
    assert_eq!(
        warm[0].replace(" cached ", " computed "),
        cold[0],
        "cached reply must carry the same key and numbers"
    );

    // A bad cell is an ERR reply inside a completed sweep, not a failure.
    let mixed = client::request(&cfg, "SWEEP ATAX/Dy-FUSE NOPE/Dy-FUSE").unwrap();
    assert_eq!(
        mixed.last().unwrap(),
        "DONE hits=1 misses=0 errors=1",
        "{mixed:?}"
    );

    // The wrong token is rejected without consuming retries.
    let mut bad = cfg.clone();
    bad.auth_token = Some("wrong".to_string());
    let err = client::request(&bad, "PING").unwrap_err();
    assert!(err.contains("authentication rejected"), "{err}");

    assert_eq!(client::request(&cfg, "SHUTDOWN").unwrap(), vec!["BYE"]);
    acceptor.join().unwrap().expect("serve loop exits cleanly");
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}
