#!/usr/bin/env bash
# Local CI gate: everything a PR must pass, in the order that fails
# fastest. Run from anywhere; exits non-zero on the first failure.
#
#   scripts/ci.sh

set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> build (release)"
cargo build --release --workspace --quiet

echo "==> tests (workspace; includes the allocation budgets of a light cascade call, a heavy cascade call and the serve worker loop, the cascade routing gate and the serve overload storm)"
cargo test -q --workspace

echo "==> release parity (IR text round trip, constant encoding, folding and verifier, tiled kernels, walks and loop features vs their scalar references, dependence tracer vs its reference, sub-PEG extraction, oracle and planner soundness, affine algebra vs its reference, Table III tool verdicts, every pinned loop sample, tier-0 report and printed IR module with its round trip and footprint, the corpus-feature and trained-weight pins (statement tokens feed the inst2vec vocabulary and every sample), shard-union parity of the corpus, in the optimised build the benchmark runs, where checked arithmetic must agree with debug)"
cargo test -q --release -p mvgnn-ir -p mvgnn-tensor -p mvgnn-graph -p mvgnn-profiler -p mvgnn-peg -p mvgnn-analyze -p mvgnn-baselines
cargo test -q --release --test sample_pins --test tier0_pins --test static_first --test ir_layout --test golden_pins
cargo test -q --release -p mvgnn-dataset --test shard_determinism

echo "==> clippy (-D warnings)"
cargo clippy --workspace --all-targets --quiet -- -D warnings

echo "==> shared-model parity (one Arc<MvGnn> run from many threads at once)"
cargo test -q --test concurrent_parity

echo "==> corpus label audit (static oracle vs profiler, smoke slice)"
cargo run --release -p mvgnn-bench --bin lint --quiet -- --smoke

echo "==> checkpoint round trip (train, write, read back: bit-identical weights and predictions)"
cargo run --release --example save_load_model --quiet

echo "==> fault-tolerant training (rollback, checkpoint resume, corrupt checkpoint refused)"
cargo run --release --example fault_tolerant_training --quiet

echo "==> patterns smoke (planner proves in every family, zero rule-C contradictions)"
cargo run --release -p mvgnn-bench --bin patterns --quiet -- --smoke

echo "==> rustdoc (-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> benchmark build (perfbench compiles against the libraries, lockfile untouched)"
cargo build --offline --locked --release --manifest-path perfbench/Cargo.toml --quiet

echo "==> benchmark smoke (traced cascade_full: the profile-first re-drive agrees with the library on every loop)"
cargo run --offline --release --quiet --manifest-path perfbench/Cargo.toml -- --workload cascade_full --seconds 1 --trace 1

echo "==> panic-site ratchet"
bash scripts/panic_audit.sh

echo "CI OK"
