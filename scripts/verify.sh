#!/usr/bin/env bash
# Tier-1 verification: everything a PR must pass, fully offline.
#
#   scripts/verify.sh          # fmt + clippy + rustdoc + build + tests
#   scripts/verify.sh --quick  # skip fmt/clippy/rustdoc and the paper
#                              # ledger check (tier-1 only)
#   scripts/verify.sh --bench  # (re)emit the fig13, fig13-cold and
#                              # fig13-warm rows in BENCH_sweep.json
#
# The workspace has no external dependencies (PRNG, timing harness and
# property generators are all in-repo), so every step below works without
# network access; CARGO_NET_OFFLINE is exported to make that a hard
# guarantee rather than an accident of the local cache.

set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

quick=false
bench=false
case "${1:-}" in
--quick) quick=true ;;
--bench) bench=true ;;
esac

if $bench; then
    # Result-cache axis: the serve_load bench re-measures the fig13
    # acceptance grid cold and warm (fig13-cold / fig13-warm rows) and
    # asserts the warm pass is >=20x faster and byte-identical.
    echo "==> serve_load: cold/warm/incremental cache rows + service load test"
    cargo bench -p fuse-bench --bench serve_load
    # The full 147-cell Fig. 13 grid on the sweep pool: the fig13 row.
    echo "==> fig13 sweep row"
    cargo build --release
    ./target/release/fusesim sweep --workloads all --configs fig13 --scale 0.35 \
        --name fig13 --json BENCH_sweep.json
    exit 0
fi

if ! $quick; then
    echo "==> cargo fmt --check"
    cargo fmt --all --check

    # --workspace covers every member crate, fuse-obs (the observability
    # layer) included — a new crate joins fmt/clippy coverage by joining
    # the workspace, no edit here required. --all-features compiles every
    # feature-gated item too, so gated code that cannot build offline
    # fails here instead of rotting unbuilt.
    echo "==> cargo clippy (workspace, all targets, all features, -D warnings)"
    cargo clippy --workspace --all-targets --all-features -- -D warnings

    # Broken intra-doc links fail here, so deleting a module cannot leave
    # dangling references to it in the docs of the modules that remain.
    echo "==> cargo doc (workspace, no deps, warnings are errors)"
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline
fi

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q (workspace)"
cargo test -q --workspace

# Differential check: run the event engine and the always-tick reference
# in lockstep under the fuse-check reference-model oracle over the
# 147-cell workload grid (every Fig. 13 preset) plus 512 fuzz seeds (about
# two seconds: every case drains).
# Exits non-zero on any divergence or undrained run (DESIGN.md §3f).
echo "==> fusesim check (oracle lockstep grid + 512 fuzz seeds)"
./target/release/fusesim check --seeds 512 --quiet

# Result-cache round trip: the fig13 acceptance grid (21 workloads x
# {L1-SRAM, Dy-FUSE}) cold then warm into a fresh cache directory. The
# warm pass must answer all 42 cells from the store — zero simulations —
# and reproduce the engine-independent stats byte for byte, and the
# store must pass its own integrity check (DESIGN.md §3h).
echo "==> result cache round trip (fig13 grid cold, then warm: 100% hits, stats bitwise equal)"
cache_dir=$(mktemp -d /tmp/fuse-verify-cache.XXXXXX)
./target/release/fusesim sweep --workloads all --configs L1-SRAM,Dy-FUSE \
    --scale 0.1 --name cache-smoke --cache-dir "$cache_dir" \
    --stats-json /tmp/fuse-verify-cold.json | grep -F "cache: 0 hit(s), 42 miss(es)"
./target/release/fusesim sweep --workloads all --configs L1-SRAM,Dy-FUSE \
    --scale 0.1 --name cache-smoke --cache-dir "$cache_dir" \
    --stats-json /tmp/fuse-verify-warm.json | grep -F "cache: 42 hit(s), 0 miss(es)"
diff /tmp/fuse-verify-cold.json /tmp/fuse-verify-warm.json
./target/release/fusesim cache verify --cache-dir "$cache_dir" >/dev/null
rm -rf "$cache_dir"

# Paper ledger: regenerate every artefact cold into a fresh cache, then
# warm. Both runs must print exactly the block EXPERIMENTS.md commits;
# the cold run must simulate each of its 441 distinct cells once and the
# warm run none. The marker count check keeps two empty extracts from
# diffing clean.
if ! $quick; then
    echo "==> fusesim paper (cold, then warm: the ledger block equals EXPERIMENTS.md)"
    begin='<!-- fusesim paper: begin -->'
    end='<!-- fusesim paper: end -->'
    if [ "$(grep -cxF "$begin" EXPERIMENTS.md)" != 1 ] || [ "$(grep -cxF "$end" EXPERIMENTS.md)" != 1 ]; then
        echo "EXPERIMENTS.md must hold exactly one '$begin' and one '$end' line"
        exit 1
    fi
    block() { awk -v b="$begin" -v e="$end" '$0 == b { p = 1 } p { print } $0 == e { p = 0 }' "$1"; }
    ledger_dir=$(mktemp -d /tmp/fuse-verify-ledger.XXXXXX)
    block EXPERIMENTS.md >"$ledger_dir/committed.md"
    for pass in cold warm; do
        ./target/release/fusesim paper --scale 0.35 --cache-dir "$ledger_dir/cache" \
            >"$ledger_dir/$pass.txt"
        block "$ledger_dir/$pass.txt" >"$ledger_dir/$pass.md"
        diff "$ledger_dir/committed.md" "$ledger_dir/$pass.md"
    done
    grep -F "paper: 441 cell(s) simulated" "$ledger_dir/cold.txt"
    grep -F "paper: 0 cell(s) simulated" "$ledger_dir/warm.txt"
    rm -rf "$ledger_dir"
fi

# Service smoke: start `fusesim serve`, race two overlapping batches at
# it, then shut it down cleanly. Coalescing and the bounded queue are
# unit-tested; this exercises the socket path end to end through the CLI.
echo "==> fusesim serve smoke (two overlapping batches, clean shutdown)"
serve_dir=$(mktemp -d /tmp/fuse-verify-serve.XXXXXX)
sock="$serve_dir/fusesim.sock"
./target/release/fusesim serve --socket "$sock" --cache-dir "$serve_dir/cache" \
    --scale 0.1 --workers 2 >/dev/null &
serve_pid=$!
for _ in $(seq 1 100); do [ -S "$sock" ] && break; sleep 0.1; done
./target/release/fusesim submit --socket "$sock" \
    ATAX/Dy-FUSE GEMM/Dy-FUSE ATAX/L1-SRAM >/dev/null &
batch_pid=$!
./target/release/fusesim submit --socket "$sock" \
    ATAX/Dy-FUSE GEMM/L1-SRAM ATAX/L1-SRAM >/dev/null
wait "$batch_pid"
./target/release/fusesim submit --socket "$sock" --shutdown >/dev/null
wait "$serve_pid"
rm -rf "$serve_dir"

# TCP service smoke: serve over authenticated loopback (port 0 = kernel
# picks; the bound address is parsed from the startup line), reject a
# wrong token, then do a cold + warm sweep and shut down over the wire.
echo "==> fusesim serve TCP smoke (auth round trip, cold+warm sweep, clean shutdown)"
tcp_dir=$(mktemp -d /tmp/fuse-verify-tcp.XXXXXX)
./target/release/fusesim serve --listen 127.0.0.1:0 --auth-token verify-secret \
    --cache-dir "$tcp_dir/cache" --scale 0.1 --workers 2 >"$tcp_dir/serve.log" &
tcp_pid=$!
addr=""
for _ in $(seq 1 100); do
    addr=$(sed -n 's/^serving on tcp:\([^ ]*\).*/\1/p' "$tcp_dir/serve.log")
    [ -n "$addr" ] && break
    sleep 0.1
done
[ -n "$addr" ] || { echo "serve never reported its TCP address"; exit 1; }
# The wrong token must be rejected (and must not burn the retry budget).
if ./target/release/fusesim submit --addr "$addr" --auth-token wrong --ping >/dev/null 2>&1; then
    echo "submit with a wrong token must fail"
    exit 1
fi
./target/release/fusesim submit --addr "$addr" --auth-token verify-secret --ping \
    | grep -qx "PONG"
./target/release/fusesim submit --addr "$addr" --auth-token verify-secret \
    ATAX/Dy-FUSE GEMM/L1-SRAM | grep -qx "DONE hits=0 misses=2 errors=0"
./target/release/fusesim submit --addr "$addr" --auth-token verify-secret \
    ATAX/Dy-FUSE GEMM/L1-SRAM | grep -qx "DONE hits=2 misses=0 errors=0"
./target/release/fusesim submit --addr "$addr" --auth-token verify-secret --shutdown >/dev/null
wait "$tcp_pid"
rm -rf "$tcp_dir"

# Repository benchmark: its self-tests, then a short traced serve-mix
# run. The traced run is the path where an idle keep-alive connection
# once pinned shutdown for the 30 s read deadline; it must exit 0.
echo "==> perfbench self-test + traced serve-mix smoke"
cargo test --release --offline --manifest-path perfbench/Cargo.toml
cargo run --release --quiet --offline --manifest-path perfbench/Cargo.toml -- \
    --workload serve-mix --seconds 2 --trace 1 >/dev/null

echo "verify: OK"
