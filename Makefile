# Convenience targets; `make check` is the expanded tier-1 gate
# (vet + build + race tests + a short run of every fuzz target).

.PHONY: check test build vet fuzz bench loc

check:
	./scripts/check.sh

build:
	go build ./...

test:
	go test ./...

vet:
	go vet ./...

fuzz: fuzz-30s

# fuzz-<time> runs every fuzz target of the module for <time> each. The
# targets are listed, not named here, so a new one cannot be forgotten;
# the gate (scripts/check.sh) runs fuzz-5s.
fuzz-%:
	@go test -list '^Fuzz' ./... | \
	awk '/^Fuzz/ { t[n++] = $$1 } /^ok/ { for (i = 0; i < n; i++) print $$2, t[i]; n = 0 }' | \
	while read -r pkg target; do \
		echo "-- $$target ($$pkg, $*)"; \
		go test -run='^$$' -fuzz="^$$target$$" -fuzztime=$* "$$pkg" || exit 1; \
	done

bench:
	go test -bench=. -benchtime=1x ./...

# loc prints the two sizes every PR quotes — lines of Go outside
# benchmark/, all and non-test — so CHANGES.md and ROADMAP.md count alike.
loc:
	@printf 'go lines outside benchmark/: %s (non-test %s)\n' \
		"$$(find . -name '*.go' -not -path './benchmark/*' | xargs cat | wc -l)" \
		"$$(find . -name '*.go' -not -path './benchmark/*' -not -name '*_test.go' | xargs cat | wc -l)"
