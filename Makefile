# Convenience targets for the SCDA reproduction.

.PHONY: all build test test-release bench-compare figures ablations docs clippy \
        analyze analyze-fixtures clean

all: build

build:
	cargo build --workspace --release

test:
	cargo test --workspace

test-release:
	cargo test --workspace --release

# Regenerate every paper figure (7-18) at the paper-like scale and archive
# the series under results/.
figures:
	cargo run --release --bin figures -- --all --scale paper --out results/

ablations:
	cargo run --release --bin ablations -- --scale quick

docs:
	RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

# Also the static determinism gate: clippy.toml bans HashMap/HashSet and
# wall-clock reads in every crate, and each lib.rs warns on prints and
# denies deprecated items.
clippy:
	cargo clippy --workspace --all-targets -- -D warnings

# Domain lints clippy cannot check: float-eq, hot-path unwraps, phase
# names, unit documentation + cross-call unit dimensions, transitive
# hot-path allocation. Exits non-zero on any unsuppressed finding.
analyze:
	cargo run -p scda-analyze -- --deny

# Analyzer self-tests over the fixture corpus: parser structural
# contracts plus the golden findings snapshot (each lint catches its
# positive fixture and passes its negative). Regenerate goldens with
# SCDA_UPDATE_GOLDENS=1 after an intentional change.
analyze-fixtures:
	cargo test -p scda-analyze --test parser --test golden_findings

# "Is it faster?" — scda-replay-bench (benchmark/README.md) built from
# BASE and from the working tree, every workload end to end on seeds
# 1-3 with the sides taking turns to run first, judged by
# BENCHMARK.json's own bounds. Exits non-zero on a REGRESSED row or an
# incorrect run; sim_digest and exact-value changes are printed. ~10 min.
# .bench_build/ is wiped first: an exported tree carries commit-time
# mtimes, which cargo's freshness check cannot tell apart across revs.
# cargo rewrites a stale benchmark/Cargo.lock, so it is saved before the
# builds and put back after them, whether they succeed or not.
bench-compare:
	@test -n "$(BASE)" || { echo "usage: make bench-compare BASE=<rev>" >&2; exit 2; }
	rm -rf .bench_build
	mkdir -p .bench_build/base
	git archive $(BASE) | tar -x -C .bench_build/base
	cp benchmark/Cargo.lock .bench_build/Cargo.lock.saved
	status=0; \
	cargo build --release --offline --quiet --target-dir .bench_build/target-a \
	    --manifest-path .bench_build/base/benchmark/Cargo.toml && \
	cargo build --release --offline --quiet --target-dir .bench_build/target-b \
	    --manifest-path benchmark/Cargo.toml || status=$$?; \
	cp .bench_build/Cargo.lock.saved benchmark/Cargo.lock; \
	exit $$status
	@set -e; cd .bench_build; \
	run() { \
	    echo "bench-compare: side $$1, $$2, seed $$3" >&2; \
	    target-$$1/release/scda-replay-bench --workload $$2 --seed $$3 --seconds 20 --trace 0 \
	        --out out-$$1 > /dev/null || test $$? -eq 1; \
	    cat out-$$1/$$2-trace0.json >> $$1.jsonl; \
	}; \
	first=a; second=b; \
	for seed in 1 2 3; do \
	    for workload in video_full dc_write_full hyper_read_churn busy_full; do \
	        run $$first $$workload $$seed; \
	        run $$second $$workload $$seed; \
	        swap=$$first; first=$$second; second=$$swap; \
	    done; \
	done
	.bench_build/target-b/release/scda-replay-bench compare .bench_build/a.jsonl .bench_build/b.jsonl

clean:
	cargo clean
