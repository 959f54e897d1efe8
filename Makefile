# Convenience targets; everything is plain `go` underneath.

.PHONY: test race vet lint lint-tools bench bench-full loc profile fuzz examples clean

test:
	go test ./...

# The full suite under the race detector — required before merging
# anything that touches the query engine, the buffer pool or the vector
# segment.
race:
	go test -race ./...

vet:
	gofmt -l . && go vet ./...

# Pinned external analyzer versions. CI installs exactly these (make
# lint-tools), so a staticcheck upgrade is a reviewed diff here, never a
# surprise red build.
STATICCHECK_VERSION := 2025.1.1
GOVULNCHECK_VERSION := v1.1.4

# The full static-analysis gate: the repo's own invariant suite (vxlint,
# see internal/analysis), formatting, go vet, staticcheck and
# govulncheck. CI runs this; it must exit 0. Missing external tools FAIL
# the target — a green `make lint` must mean the same thing everywhere.
# Set LINT_SKIP_EXTERNAL=1 to run only the in-repo suite (quick local
# iteration on a machine without the tools installed).
lint: vet
	go run ./cmd/vxlint ./...
ifdef LINT_SKIP_EXTERNAL
	@echo "lint: LINT_SKIP_EXTERNAL set; skipping staticcheck and govulncheck"
else
	@command -v staticcheck >/dev/null 2>&1 || { \
	  echo "lint: staticcheck not installed; run 'make lint-tools' (pins $(STATICCHECK_VERSION)) or set LINT_SKIP_EXTERNAL=1"; exit 1; }
	staticcheck ./...
	@command -v govulncheck >/dev/null 2>&1 || { \
	  echo "lint: govulncheck not installed; run 'make lint-tools' (pins $(GOVULNCHECK_VERSION)) or set LINT_SKIP_EXTERNAL=1"; exit 1; }
	govulncheck ./...
endif

# Install the pinned external analyzers CI runs.
lint-tools:
	go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)
	go install golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION)

# The per-table/figure benchmarks at test scale.
bench:
	go test -bench=. -benchmem ./...

# A CPU profile of one paper query's Table 3 benchmark at test scale:
# make profile Q=TQ2 writes TQ2.prof (and keeps the vxml.test binary
# beside it for go tool pprof).
Q ?= TQ2
profile:
	go test -run xxx -bench 'Table3Workload/VX/$(Q)$$' -benchtime 10x -cpuprofile $(Q).prof .

# The full-scale experiment suite (Tables 1-3, Figure 8, ablations).
bench-full:
	go run ./cmd/vxbench -work bench-work all

# Non-test lines of Go per package (every .go file go list counts as
# part of the package build, _test.go files excluded), then the total.
loc:
	@go list -f '{{$$d := .Dir}}{{.ImportPath}}{{range .GoFiles}} {{$$d}}/{{.}}{{end}}' ./... | \
	while read -r pkg files; do \
	  n=0; [ -z "$$files" ] || n=$$(cat $$files | wc -l); \
	  printf '%7d  %s\n' "$$n" "$$pkg"; \
	done | awk '{ print; total += $$1 } END { printf "%7d  total\n", total }'

fuzz:
	go test -fuzz FuzzParse -fuzztime 30s ./internal/xq/
	go test -fuzz FuzzParseSerialize -fuzztime 30s ./internal/xmlmodel/

examples:
	go run ./examples/quickstart
	go run ./examples/bibjoin
	go run ./examples/treebank
	go run ./examples/skyserver
	go run ./examples/extensions

clean:
	rm -rf bench-work
