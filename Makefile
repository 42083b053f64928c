# Convenience targets; everything is plain `go` underneath.

.PHONY: build test race bench bench-smoke quick check cover fuzzseeds

build:
	go build ./...

test:
	go test ./...

# check is the full pre-merge gate, and all CI runs: vet, formatting, the
# complete test suite under the race detector, every fuzz target replayed
# over its committed seed corpus (no fuzzing engine — plain deterministic
# replay), the ledger's tests, and the coverage floor. No tool needs a
# smoke target: the serve daemon and the fleet are driven over loopback
# HTTP by their tests (internal/serve, internal/fleet), and adaptnoc-sim's
# fault-campaign and trace record/replay runs are cases of its own test
# (cmd/adaptnoc-sim).
check:
	go vet ./...
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; fi
	$(MAKE) race
	$(MAKE) fuzzseeds
	$(MAKE) bench-smoke
	$(MAKE) cover

# cover runs the suite with cross-package coverage (root-package tests
# exercise internal/noc, internal/system, etc., which per-package numbers
# would miss) and enforces a floor. Browse with `go tool cover -html=cover.out`.
COVER_FLOOR := 78.0
cover:
	go test -coverpkg=./... -coverprofile=cover.out ./...
	@total=$$(go tool cover -func=cover.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	echo "total coverage: $$total% (floor $(COVER_FLOOR)%)"; \
	awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { exit (t+0 >= f+0) ? 0 : 1 }' || \
		{ echo "coverage below $(COVER_FLOOR)% floor"; exit 1; }

# fuzzseeds replays the committed corpora only (fast subset of check),
# FuzzScenario's seeds among them: the determinism identities (shard
# count, checkpoint, restore, delta chain) on every seed's drawn design,
# workload, fault campaign and run plan.
fuzzseeds:
	go test -run 'Fuzz' ./...

# race runs the complete test suite under the race detector. That covers
# FuzzScenario's seeds and the sharded-tick and fault-campaign suites
# (the byte-identity proofs for the worker gang and the fault engine's
# quiescent apply points), the runner's parallelism guard, and the serve
# and fleet daemons' loopback HTTP tests including the fleet's multi-node
# kill/handoff e2e. It must stay clean at any -parallel or -shards setting.
race:
	go test -race -timeout 30m ./...

# bench runs the performance ledger, all eight workloads end to end
# (benchmark/README.md); bench-smoke runs its tests (also part of check):
# a reduced pass over the workloads, including the rolling base + delta
# chain's byte-for-byte restore.
bench:
	bash benchmark/run.sh -seed 2021 -json .bench_build/ledger.json

bench-smoke:
	go -C benchmark test ./...

quick:
	go run ./cmd/adaptnoc-experiments -quick
