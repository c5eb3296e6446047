# Convenience targets for the SCDA reproduction.

.PHONY: all build test test-release bench figures ablations docs clippy analyze \
        analyze-fixtures clean perf perf-baseline perf-check

all: build

build:
	cargo build --workspace --release

test:
	cargo test --workspace

test-release:
	cargo test --workspace --release

bench:
	cargo bench --workspace

# Regenerate every paper figure (7-18) at the paper-like scale and archive
# the series under results/.
figures:
	cargo run --release --bin figures -- --all --scale paper --out results/

ablations:
	cargo run --release --bin ablations -- --scale quick

docs:
	RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

clippy:
	cargo clippy --workspace --all-targets -- -D warnings

# Domain lints: determinism (direct + taint-tracked), float-eq,
# hot-path unwraps, phase names, unit documentation + cross-call unit
# dimensions, transitive hot-path allocation, deprecated-item ban.
# Exits non-zero on any unsuppressed finding.
analyze:
	cargo run -p scda-analyze -- --deny

# Analyzer self-tests over the fixture corpus: parser structural
# contracts plus the golden findings snapshot (each lint catches its
# positive fixture and passes its negative). Regenerate goldens with
# SCDA_UPDATE_GOLDENS=1 after an intentional change.
analyze-fixtures:
	cargo test -p scda-analyze --test parser --test golden_findings

# Performance trajectory (see DESIGN.md): run the canonical scenarios and
# write the next free BENCH_<n>.json snapshot at the repo root.
perf:
	cargo run --release --bin perf

# Refresh the committed regression baseline in place (full mode, so the
# baseline also carries the paper-scale and hyperscale scenarios).
perf-baseline:
	cargo run --release --bin perf -- --full --out BENCH_4.json

# CI regression gate: re-run the quick scenarios — including the
# 1,000-rack hyperscale control round and the churn admission bench,
# whose indexed/naive pick checksums must match bit-for-bit — and
# compare against the committed baseline. Behaviour counters must match
# exactly; wall-clock and rate fields may drift by at most the threshold
# (default 400%, sized for noisy shared runners — override with
# THRESHOLD=<pct>).
THRESHOLD ?= 400
perf-check:
	cargo run --release --bin perf -- --check BENCH_4.json --threshold $(THRESHOLD)

clean:
	cargo clean
