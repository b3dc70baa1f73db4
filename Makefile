# Developer entry points; CI runs the same targets.

.PHONY: test race bench lint verify profile

test:
	go build ./... && go test ./...

race:
	go test -race ./...

# Key benchmarks → BENCH_PR10.json (the cross-PR perf trajectory;
# BENCH_PR9.json is the committed previous baseline), then the gate:
# fail on >20% ns/op regression against the baseline. Benchmarks new in
# this snapshot (no baseline entry) are reported one-sided, never failed.
bench:
	./scripts/bench.sh BENCH_PR10.json
	go run ./scripts/benchgate BENCH_PR9.json BENCH_PR10.json

# Profile the 100M-viewer fluid day (the benchmark's fluid-100m workload)
# under pprof: cpu.pprof and mem.pprof land in the repo root; inspect with
# `go tool pprof cpu.pprof`.
profile:
	go test -run '^$$' -bench 'BenchmarkFluid100MViewers/pool' -benchtime 1x \
	    -cpuprofile cpu.pprof -memprofile mem.pprof .
	@echo "wrote cpu.pprof and mem.pprof; open with: go tool pprof cpu.pprof"

# The project's own analyzers (determinism, boundary, noloss, hotpath)
# over the whole module. Suppress a finding only with a justified
# //cloudmedia:allow <analyzer> -- <reason> directive; see DESIGN.md.
lint:
	go build ./...
	go run ./cmd/cloudmedialint ./...

verify: test race lint
