#!/usr/bin/env bash
# Local CI gate: build, test (the cross-thread-count determinism suite
# runs inside the workspace tests), lint. Mirrors what a PR must pass.
#
# NEWSDIFF_THREADS=4 forces the parallel paths on even on small CI
# machines; the determinism suite then pins 1/2/8-thread runs against
# each other internally.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> build (release)"
cargo build --release --workspace

echo "==> benchmark build (perfbench/ against the workspace; --locked rejects lock-file drift)"
# perfbench/ calls pipeline APIs directly and has its own Cargo.lock;
# a workspace change that breaks either shows up here, not only when
# the benchmark runs.
cargo build --release --offline --locked --manifest-path perfbench/Cargo.toml

echo "==> benchmark answers (quick traced predict_closed: served answers, batcher and parse probes vs the workspace)"
# ~10 s. predict_open stays out: its open-loop lateness rule can flip
# `correct` on a loaded host.
quick=$(cargo run -q --release --offline --locked --manifest-path perfbench/Cargo.toml -- \
    --workload predict_closed --seed 1 --seconds 1 --trace 1 --quick | tail -n 1)
if [[ $quick != *'"correct":true'* || $quick != *'"failed":0'* ]]; then
    echo "perfbench predict_closed quick run is not correct with 0 failed: $quick"
    exit 1
fi

echo "==> benchmark answers (quick traced freshness: cached heads vs cold runs, refolded artifacts vs cached bytes)"
# ~10 s. Each cycle's cached head is checked against a cold, uncached
# run, and each refolded artifact byte for byte against the cached one,
# so this covers the fold kernels. A WRONG line or a failed operation
# fails the step; INVALID lines come from the open-loop lateness rule,
# which a loaded host can trip, so they only print.
fresh_err=$(mktemp)
if ! fresh=$(cargo run -q --release --offline --locked --manifest-path perfbench/Cargo.toml -- \
    --workload freshness --seed 1 --seconds 1 --trace 1 --quick 2>"$fresh_err" | tail -n 1); then
    tail -n 20 "$fresh_err"
    echo "perfbench freshness quick run exited nonzero"
    exit 1
fi
wrong=$(grep -F 'perfbench: WRONG:' "$fresh_err" || true)
grep -F 'perfbench: INVALID:' "$fresh_err" || true
rm -f "$fresh_err"
if [[ -n $wrong || $fresh != *'"failed":0'* ]]; then
    echo "perfbench freshness quick run has wrong answers or failed operations:"
    [[ -z $wrong ]] || echo "$wrong"
    echo "$fresh"
    exit 1
fi

echo "==> tests (workspace; includes the determinism suite and the serving round-trip suite)"
# determinism: 1/2/8-thread kernels, pinned batch and stream digests,
# the stream head both cold and advanced slice by slice from the held
# in-memory state. serve_roundtrip: bit-identity, hot swap,
# backpressure. Both run here once; `set -e` stops at the first failure.
NEWSDIFF_THREADS=4 cargo test -q --workspace

echo "==> clippy"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> nd-lint (workspace invariants: determinism, panic-safety, lock order, error flow)"
cargo run -q --release -p nd-lint -- --deny --json > lint_report.json

echo "==> nd-lint 1-thread run (report must be byte-identical to the default-thread report)"
NEWSDIFF_THREADS=1 cargo run -q --release -p nd-lint -- --deny --json > target/lint_report.t1.json
cmp lint_report.json target/lint_report.t1.json

echo "==> serving SLO suite (loris cutoff, header flood, dynamic Retry-After, shard bit-identity)"
NEWSDIFF_THREADS=4 cargo test -q --release --test serve_slo

echo "==> sharded load-generator smoke (closed/open/burst/loris/swap profiles healthy, zero non-503 failures, loris-phase healthy-probe p99 under the 300 ms head deadline)"
cargo run --release --example loadgen -- --smoke

echo "==> pattern-mining smoke (planted signatures recovered exactly, drift shifts the catalog)"
cargo run --release --example patterns_demo -- --smoke

# Advisory bench gates: bench-compare checks each checked-in table's
# own invariants (parallel rows must not regress past serial, warm
# replay and single-slice folds must dwarf cold runs, 4-shard cold
# probes must not regress past one shard). A failure only warns.
# BENCH_serve.json is informational and stays ungated. The regen hints
# use $PWD because cargo runs bench binaries from crates/bench.
for bench in kernels patterns pipeline incremental slo; do
    file="BENCH_${bench}.json"
    regen="ND_BENCH_JSON=\$PWD/$file cargo bench -p nd-bench --bench $bench"
    echo "==> $bench bench gate (advisory)"
    if [[ -f $file ]]; then
        cargo run -q --release -p nd-bench --bin bench-compare -- "$file" ||
            echo "WARNING: bench-compare failed on $file (advisory only; re-run '$regen' on a quiet machine)"
    else
        echo "$file not found; skipping (generate with $regen)"
    fi
done

echo "==> ci.sh: all green"
