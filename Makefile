# Convenience targets; everything is plain `go` underneath.

GO ?= go

# Pinned tool versions, so CI and local runs install identical bits.
# They live here rather than in a tools.go: the module graph must stay
# buildable offline, so tool dependencies cannot enter go.mod/go.sum.
# XTOOLS_VERSION is the golang.org/x/tools release to adopt if
# internal/lint ever migrates from its stdlib-only go/analysis clone to
# the upstream framework (see docs/LINTING.md).
STATICCHECK_VERSION ?= 2024.1.1
GOVULNCHECK_VERSION ?= v1.1.3
XTOOLS_VERSION      ?= v0.24.0

LINT_TOOL := bin/loopschedlint
# The lint target covers every package but the frozen benchmark
# instrument (docs/LINTING.md "Scope"): no PR may edit it, so a finding
# there can be neither fixed nor suppressed.
LINT_PKGS = $(shell $(GO) list ./... | grep -v '^loopsched/benchmark')

.PHONY: all build vet test race fuzz bench bench-compare experiments baseline check-baseline clean \
	lint lint-tool escape-check dup-check fmt-check staticcheck govulncheck \
	flake bench-smoke profile-fine

all: build vet lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lint-tool builds the domain linter and prints its absolute path, for
# use as `go vet -vettool=$$(make -s lint-tool) ./...`.
lint-tool:
	@$(GO) build -o $(LINT_TOOL) ./cmd/loopschedlint
	@echo $(abspath $(LINT_TOOL))

# lint is the one lint gate: the loopsched analyzer suite
# (docs/LINTING.md) run by go vet, which caches per-package results.
lint:
	$(GO) build -o $(LINT_TOOL) ./cmd/loopschedlint
	$(GO) vet -vettool=$(abspath $(LINT_TOOL)) $(LINT_PKGS)

# escape-check is the static zero-allocation guard: the compiler's own
# escape analysis (-gcflags=-m) must report no unaccounted heap
# allocation in any //lint:loopsched-hotpath function; see
# cmd/escapecheck. The hotguard_test.go AllocsPerRun tables are the
# dynamic guard, run by `make test`.
escape-check:
	$(GO) run ./cmd/escapecheck

# dup-check keeps the master algorithm in one place: outside the
# scheme and ledger packages only internal/dispense may build, offset
# or re-plan a policy (DESIGN.md "The dispenser"). The two definitions
# the pattern also matches are allowed by name. Likewise the slave side:
# the gob link in internal/exec is the one file that names the net/rpc
# method or builds an rpc client (DESIGN.md "The link and the slave
# loop"); every other client, hier's root fetch included, goes through
# exec.Dial. And the batch rule: sched.BatchLimit is applied by the
# dispenser only — a master reaches it through Claim, never
# re-implements it (docs/LEDGER.md "Share-bounded batches").
# And the transport rule: internal/mp carries bytes and knows neither a
# scheme nor a dispenser. And the one book: a bare dispenser is built
# only inside internal/dispense, and by the deque core the frozen
# benchmark drives (jobstate.go); every master — exec's, which is also
# every hier-rpc shard and every scheduler job, and the simulator's,
# which is also every hier-sim shard — holds a dispense.Book, so the
# simulator neither claims, stages nor re-stages on its own, and neither
# it nor exec's master sorts a gather's release line: the book does.
# And the in-process rule: inside internal/exec one request handler
# answers every slave — the master's (rpc.go) — beside the deque core
# only the frozen benchmark still drives (jobstate.go); the names of the
# retired channel master and its slave loops stay gone. And the one-book
# rule: nothing outside the benchmark builds that deque core or uses
# internal/steal, the service keeps no granted, completed or drained
# counter of its own — a job's book is its master's — and a fleet worker
# sends prefetches only, so it never parks in one job's master while
# others want it. So do those of hier's own simulated
# protocol (hsim, hevent, serviceShard, launchFetch): hier.Simulate is
# topology over sim.RunShards. And the one grant path: every grant is
# the dispenser's locked Claim on a policy, so internal/ledger's step
# table and counter are read by tests and the frozen benchmark only, the
# master's lock-free grant path (fastGrants, fastOff) stays gone, and so
# do the unit tables, the re-plan that closed them, the share class that
# armed them and the wire's no-reply flag (BuildUnits, Revise,
# ShareDeterministic, NoReply). And the one constructor: a master is
# configured once, as data (exec.Config through exec.New), so no setter,
# dispenser rebuild or second constructor comes back to re-plan it.
# And the one ask rule: a fleet worker sizes its asks through exec.Ask,
# the depth rule every worker uses, so the service names no fixed
# DefaultStealWindow ask of its own. And the one compute step: every
# worker runs loop iterations through exec.Compute (compute.go), the one
# place in exec and the service that recovers a body's panic, so no
# per-chunk runChunk loop comes back. And the two bounds of a reply: the
# share (sched.BatchLimit) and the worker's ask (exec.Ask), so neither a
# master's grantCeiling nor any chunk-count constant in Ask's clamp comes
# back; the clamp names wire.MaxFrame, what a frame carries, only.
# And one protocol with or without a bus: a grant is a run whether or
# not telemetry is attached, so the master's book ships every run the
# same way and tests no bus (the bus adds events and the reply's span
# block in a method of its own), no worker steps chunk by chunk for a
# bus or cuts a stretch of grants of its own (Stretch), and the request
# span echo (flagRecordSpans) stays gone. And one rule sizes every
# batch on every link: the worker's depth-rule ask, capped by the
# master's share, so no credit window comes back — no Window field in
# exec, the service or a command, no window parameter on runWindow, no
# ledger room (Book.Room) or ledger bound on NewBook in the book, and no
# -window flag.
dup-check:
	@! grep -rn 'NewPolicy(\|MajorityChanged(\|sched\.Offset(' --include='*.go' . \
		| grep -v '_test.go\|^./benchmark/\|^./.bench_build/\|^./internal/sched/\|^./internal/ledger/\|^./internal/dispense/' \
		| grep -v 'func (s RootScheme) NewPolicy(\|func MajorityChanged('
	@files="$$(grep -rl '"Master.NextChunk"\|rpc\.NewClient(\|rpc\.Dial(' --include='*.go' . \
		| grep -v '_test.go\|^./benchmark/\|^./.bench_build/\|^./internal/lint/testdata/')"; \
	test "$$files" = ./internal/exec/link.go || { echo "net/rpc client code outside the gob link:"; echo "$$files"; exit 1; }
	@! grep -rn 'BatchLimit(' --include='*.go' . \
		| grep -v '_test.go\|^./benchmark/\|^./.bench_build/\|^./internal/sched/\|^./internal/dispense/'
	@! grep -rn '"loopsched/internal/dispense"\|"loopsched/internal/sched"' --include='*.go' internal/mp
	@! grep -rn 'dispense\.New(' --include='*.go' . \
		| grep -v '_test.go\|^./benchmark/\|^./.bench_build/\|^./internal/dispense/\|^./internal/exec/jobstate.go:'
	@! grep -rnE '\.(Claim|Next|Stage|Restage)\(' --include='*.go' internal/sim | grep -v '_test.go'
	@! grep -rnE 'SliceStable|SortStableFunc' --include='*.go' internal/sim internal/exec/rpc.go | grep -v '_test.go'
	@! grep -rnw 'ChannelRequest\|stealSlave\|Slaves' --include='*.go' . | grep -v '_test.go\|^./benchmark/\|^./.bench_build/'
	@! grep -rn '\bhsim\b\|\bhevent\|serviceShard\|launchFetch' --include='*.go' . | grep -v '^./benchmark/\|^./.bench_build/'
	@! grep -rn '"loopsched/internal/ledger"' --include='*.go' . | grep -v '_test.go\|^./benchmark/\|^./.bench_build/'
	@! grep -rn 'BuildUnits\|Revise(\|ShareDeterministic\|NoReply' --include='*.go' . | grep -v '^./benchmark/\|^./.bench_build/'
	@! grep -rnw 'fastGrants\|fastOff' --include='*.go' . | grep -v '^./benchmark/\|^./.bench_build/'
	@! grep -rn 'exec\.NewJobState(\|"loopsched/internal/steal"' --include='*.go' . \
		| grep -v '_test.go\|^./benchmark/\|^./.bench_build/\|^./internal/exec/jobstate.go:'
	@! grep -rniE '(granted|completed|drained)[a-z0-9_]*[[:space:]]*(:=|[[:space:]](atomic\.|u?int|float|bool))' \
		--include='*.go' internal/service | grep -v '_test.go'
	@! grep -rn 'wire\.Request{\|\.Prefetch *=' --include='*.go' internal/service | grep -v '_test.go' | grep -v 'Prefetch: true'
	@! grep -rnE 'func \(m \*Master\) (Set[A-Za-z]*|DisableReplan|rearm)\(|func New(Shard|Job)Master\(' --include='*.go' internal/exec
	@! grep -rn 'DefaultStealWindow' --include='*.go' internal/service | grep -v '_test.go'
	@! grep -rn 'recover()' --include='*.go' internal/exec internal/service | grep -v '_test.go\|^internal/exec/compute.go:'
	@! grep -rnE 'func (\([^)]*\) )?runChunk\(' --include='*.go' . | grep -v '^./benchmark/\|^./.bench_build/'
	@! grep -rnw 'grantCeiling' --include='*.go' . | grep -v '^./benchmark/\|^./.bench_build/'
	@! awk '/^func Ask\(/,/^}/' internal/exec/wire.go | grep 'min(' \
		| sed -E 's/wire\.MaxFrame|math\.Ceil|max\(1,|\<(return|int|min|float64|need|size)\>//g' | grep '[[:alnum:]_]'
	@! grep -rn 'flagRecordSpans\|Stretch(' --include='*.go' . | grep -v '_test.go\|^./benchmark/\|^./.bench_build/'
	@! awk '/^func \(m \*Master\) book\(/,/^}/' internal/exec/rpc.go | grep -E 'bus (==|!=) nil'
	@! grep -rnw 'Window' --include='*.go' internal/exec internal/service cmd | grep -v '_test.go'
	@! grep -rnE 'runWindow\([^)]*\bwindow\b' --include='*.go' internal/exec | grep -v '_test.go'
	@! grep -rnE '\bRoom\(|func NewBook\([^)]*\bledger\b|^[[:space:]]+ledger[[:space:]]+int' --include='*.go' internal/dispense
	@! grep -rnE 'flag\.[A-Za-z]+\((&[^,]+, *)?"window"' --include='*.go' cmd

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

staticcheck:
	$(GO) install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)
	staticcheck ./...

govulncheck:
	$(GO) install golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION)
	govulncheck ./...

test:
	$(GO) test -shuffle=on ./...

# race runs the concurrent packages under the race detector. Every
# runtime grants through the dispenser's locked Claim, so there is no
# second grant mode to run them in.
RACE_PKGS = ./internal/exec/ ./internal/steal/ ./internal/mp/ ./internal/hier/ ./internal/telemetry/ \
	./internal/service/ ./internal/dispense/ ./internal/ledger/ ./internal/sched/ .
race:
	$(GO) test -race $(RACE_PKGS)

# flake is the determinism gate (ROADMAP item 5): the runtime suites,
# twenty times over on two cores, the three packages sharing them —
# internal/mp for its stream and TCP star and for the loop the root
# package runs over them — the root package's local, cancellation
# and hierarchy runs, which assemble the in-process runtime over memory
# links, and the service's cancellation, retry, deadline and job-switch
# tests, where a fleet worker leaves one job's master for another's.
flake:
	GOMAXPROCS=2 $(GO) test -count=20 ./internal/exec ./internal/hier ./internal/mp
	GOMAXPROCS=2 $(GO) test -count=20 -run 'Local|Cancel|Hier' .
	GOMAXPROCS=2 $(GO) test -count=20 -run 'Cancel|Retry|Deadline|NeverHeld|Switch' ./internal/service

# bench-smoke runs the repository benchmark under the driver's own
# contract — one short traced workload — and fails unless the last
# line it prints is JSON saying every verified run was correct.
bench-smoke:
	$(GO) run ./benchmark --workload small_loops --seed 2 --seconds 5 --trace 1 | tail -n 1 \
		| jq -e '.correct == true and .failed == 0'

# profile-fine profiles the worker's hot path on the finest loop the
# benchmark runs, 1 500 times each: CSS(4) over 65 536 empty iterations
# at p = 2 on the local backend (BenchmarkRunLocalFine), the same with a
# telemetry session attached (BenchmarkRunLocalFineTraced: telemetry's
# cost is its ns/op and allocs/op against the untraced line above it)
# and as a job of a warm scheduler fleet (BenchmarkServiceFine). It
# writes the CPU profiles to bin/fine.cpu.pprof,
# bin/fine-traced.cpu.pprof and bin/service-fine.cpu.pprof and prints,
# for each, its benchmark line, time.Now's share — the cost of the clock reads (DESIGN.md §9,
# "the worker's clock") — and the cumulative share of the master's
# request handler, exec.(*Master).nextBatch: what booking the chunks
# costs (DESIGN.md §9, "the master's book"), and of the two parts of it
# that walk the chunks granted: the grant, exec.(*Master).grants, and
# the retire, dispense.(*Book).Retire.
profile-fine:
	@mkdir -p bin
	@for run in RunLocalFine:fine RunLocalFineTraced:fine-traced ServiceFine:service-fine; do \
		bench=$${run%%:*}; prof=bin/$${run#*:}.cpu.pprof; \
		$(GO) test -run '^$$' -bench "^Benchmark$$bench\$$" -benchtime 1500x \
			-cpuprofile $$prof -o bin/loopsched.test . || exit 1; \
		$(GO) tool pprof -top bin/loopsched.test $$prof 2>/dev/null \
			| awk '/flat%/ { print } / time\.Now$$/ { print; found = 1 } END { if (!found) print "time.Now: below the profile cut-off" }'; \
		$(GO) tool pprof -top -cum bin/loopsched.test $$prof 2>/dev/null \
			| awk 'BEGIN { n = split("exec.(*Master).nextBatch exec.(*Master).grants dispense.(*Book).Retire", want, " ") } \
				{ for (i = 1; i <= n; i++) if (index($$0, want[i]) && substr($$0, length($$0) - length(want[i]) + 1) == want[i]) { line[i] = $$0 } } \
				END { for (i = 1; i <= n; i++) print (i in line) ? line[i] : want[i] ": below the profile cut-off" }'; \
	done

fuzz:
	$(GO) test -fuzz FuzzSchemeCoverage -fuzztime 30s ./internal/sched/
	$(GO) test -fuzz FuzzWeightedCoverage -fuzztime 30s ./internal/sched/
	$(GO) test -fuzz FuzzWireDecode -fuzztime 30s ./internal/wire/

bench:
	$(GO) test -bench=. -benchmem .

# bench-compare is "paired, alternating runs of parent and change" as
# one command (benchmark/README.md): it builds ./benchmark at BASE and
# at the working tree, runs PAIRS pairs of -out results — base first in
# odd pairs, head first in even ones, so neither side always meets the
# machine second — and judges each pair with -compare (BENCHMARK.json's
# bounds). BENCH_ARGS narrows a run, e.g.
#   make bench-compare BASE=HEAD~1 PAIRS=10 BENCH_ARGS='-workload mandel_homog_tfss -seconds 20'
# Results stay in .bench_build/ (git-ignored); the exit status is
# non-zero if any pair shows a regression.
BASE       ?=
PAIRS      ?= 2
BENCH_ARGS ?=
bench-compare:
	@test -n "$(BASE)" || { echo "usage: make bench-compare BASE=<git ref> [PAIRS=n] [BENCH_ARGS='...']"; exit 2; }
	rm -rf .bench_build && mkdir -p .bench_build/base
	git archive $(BASE) | tar -x -C .bench_build/base
	cd .bench_build/base && $(GO) build -o ../bench_base ./benchmark
	$(GO) build -o .bench_build/bench_head ./benchmark
	@status=0; for i in $$(seq 1 $(PAIRS)); do \
		if [ $$((i % 2)) -eq 1 ]; then order="base head"; else order="head base"; fi; \
		for side in $$order; do \
			echo "== pair $$i: $$side"; \
			./.bench_build/bench_$$side $(BENCH_ARGS) -out .bench_build/$$side.$$i.json || status=1; \
		done; \
		echo "== pair $$i: $(BASE) -> working tree"; \
		./.bench_build/bench_head -compare .bench_build/base.$$i.json .bench_build/head.$$i.json || status=1; \
	done; exit $$status

experiments:
	$(GO) run ./cmd/experiments

baseline:
	$(GO) run ./cmd/experiments -save-baseline results/baseline-default.json

check-baseline:
	$(GO) run ./cmd/experiments -check-baseline results/baseline-default.json

clean:
	$(GO) clean -testcache
