# Convenience targets; everything is plain `go` underneath.

.PHONY: build test race bench bench-smoke quick check cover fuzzseeds fault-smoke trace-smoke

build:
	go build ./...

test:
	go test ./...

# check is the full pre-merge gate, and all CI runs: vet, formatting, the
# complete test suite under the race detector, every fuzz target replayed
# over its committed seed corpus (no fuzzing engine — plain deterministic
# replay), the smoke targets below, and the coverage floor. The serve
# daemon and the fleet need no smoke target: their tests already drive
# them over loopback HTTP (internal/serve, internal/fleet).
check:
	go vet ./...
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; fi
	$(MAKE) race
	$(MAKE) fuzzseeds
	$(MAKE) fault-smoke
	$(MAKE) trace-smoke
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

# fuzzseeds replays the committed corpora only (fast subset of check).
fuzzseeds:
	go test -run 'Fuzz' ./...

# race runs the complete test suite under the race detector. That covers
# the sharded-tick and fault-campaign determinism suites (the byte-identity
# proofs for the worker gang and the fault engine's quiescent apply
# points), the runner's parallelism guard, and the serve and fleet
# daemons' loopback HTTP tests including the fleet's multi-node
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

# fault-smoke runs a small generated fault campaign end-to-end on a
# static and an adaptive design with the invariant checker armed every
# cycle: faults strike mid-run, drops are accounted, and nothing is
# silently lost (also part of check).
fault-smoke:
	go run ./cmd/adaptnoc-sim -design baseline -cycles 20000 -epoch 10000 -faults 3 -verify 1 >/dev/null
	go run ./cmd/adaptnoc-sim -design adapt-noc -cycles 20000 -epoch 10000 -faults 3 -verify 1 >/dev/null

# trace-smoke proves the record→replay pipeline end-to-end through the
# CLI (also part of check): capture a baseline run into a dependency
# trace, replay it serially and with four tick shards, and require the
# two replays' results JSON to be byte-identical. Its files live in one
# mktemp directory, so concurrent checkouts cannot collide.
trace-smoke:
	@set -e; dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; set -x; \
	go run ./cmd/adaptnoc-sim -design baseline -cycles 8000 -epoch 4000 \
		-record-trace "$$dir/smoke.trc" >/dev/null; \
	go run ./cmd/adaptnoc-sim -trace "$$dir/smoke.trc" -json > "$$dir/serial.json"; \
	go run ./cmd/adaptnoc-sim -trace "$$dir/smoke.trc" -shards 4 -json > "$$dir/sharded.json"; \
	cmp "$$dir/serial.json" "$$dir/sharded.json"
	@echo "trace-smoke: shard-identical replay OK"

quick:
	go run ./cmd/adaptnoc-experiments -quick
